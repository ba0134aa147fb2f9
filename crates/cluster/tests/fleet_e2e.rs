//! End-to-end tests of the multi-tenant fleet harness.

use paldia_cluster::{
    run_fleet, run_simulation, Decision, FailoverPolicyKind, FaultPlan, FleetDeployment,
    ModelDecision, Observation, RunResult, Scheduler, SimConfig, WorkloadSpec,
};
use paldia_hw::{Catalog, InstanceKind};
use paldia_sim::{SimDuration, SimTime};
use paldia_traces::RateTrace;
use paldia_workloads::{MlModel, Profile};

/// Scheme that always wants one specific kind with unbounded MPS.
struct Wants(InstanceKind);

impl Scheduler for Wants {
    fn name(&self) -> &str {
        "wants"
    }
    fn decide(&mut self, obs: &Observation) -> Decision {
        Decision {
            hw: self.0,
            total_cap: None,
            per_model: obs
                .models
                .iter()
                .map(|m| {
                    (
                        m.model,
                        ModelDecision {
                            batch_size: Profile::default_batch(m.model),
                            spatial_cap: u32::MAX,
                        },
                    )
                })
                .collect(),
        }
    }
}

fn steady(model: MlModel, rps: f64, secs: u64) -> Vec<WorkloadSpec> {
    vec![WorkloadSpec::new(
        model,
        RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
    )]
}

/// Every [`RunResult`] field except `scheme`, as text (floats print their
/// shortest round-trip form, so equal text means equal bits).
fn fields_but_scheme(r: &RunResult) -> String {
    format!(
        "{:?}|{}|{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}",
        r.completed,
        r.unserved,
        r.arrived_per_model,
        r.cost,
        r.nodes,
        r.cold_starts,
        r.transitions,
        r.hw_timeline,
        r.trace_duration
    )
}

/// Run `workloads` once through `run_simulation` and once as a fleet of one
/// (`units` per kind), each with a fresh scheduler from `make`; assert the
/// results agree in every field except the scheme label.
fn assert_fleet_of_one_equals_solo(
    workloads: &[WorkloadSpec],
    make: impl Fn() -> Box<dyn Scheduler>,
    initial_hw: InstanceKind,
    units: u32,
    cfg: &SimConfig,
) -> RunResult {
    let mut sched = make();
    let solo = run_simulation(workloads, &mut *sched, initial_hw, Catalog::table_ii(), cfg);
    let fleet = run_fleet(
        vec![FleetDeployment {
            name: "only".into(),
            workloads: workloads.to_vec(),
            scheduler: make(),
            initial_hw,
        }],
        Catalog::table_ii(),
        units,
        cfg,
    );
    assert_eq!(fleet.len(), 1);
    assert_eq!(fields_but_scheme(&fleet[0]), fields_but_scheme(&solo));
    assert_eq!(fleet[0].scheme, format!("{} [only]", solo.scheme));
    solo
}

#[test]
fn single_tenant_fleet_equals_solo_run() {
    // One deployment is one tenant of the same harness, so a fleet of one
    // reproduces the single-tenant run in every field but the label.
    let cfg = SimConfig::with_seed(3);
    assert_fleet_of_one_equals_solo(
        &steady(MlModel::ResNet50, 80.0, 60),
        || Box::new(Wants(InstanceKind::G3s_xlarge)),
        InstanceKind::G3s_xlarge,
        10,
        &cfg,
    );
}

/// The first `secs` of the Azure trace, scaled to `model`'s paper peak.
fn azure(model: MlModel, seed: u64, secs: u64) -> WorkloadSpec {
    let trace = paldia_traces::azure::azure_trace(seed)
        .scale_to_peak(Profile::peak_rps(model))
        .slice(SimTime::ZERO, SimTime::from_secs(secs));
    WorkloadSpec::new(model, trace)
}

#[test]
fn retargeting_fleet_of_one_equals_solo_run() {
    // Azure ResNet-50 at seed 7: surges upgrade past in-flight transition
    // targets, so the fleet must apply the same retarget rule.
    let workloads = [azure(MlModel::ResNet50, 7, 1_800)];
    let cfg = SimConfig::with_seed(7);
    let make = || -> Box<dyn Scheduler> { Box::new(paldia_core::PaldiaScheduler::new()) };
    let mut sched = make();
    let mut sink = paldia_obs::VecSink::new();
    paldia_cluster::run_simulation_traced(
        &workloads,
        &mut *sched,
        InstanceKind::G3s_xlarge,
        Catalog::table_ii(),
        &cfg,
        &mut sink,
    );
    let retargets = sink
        .into_events()
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                paldia_obs::TraceEventKind::TransitionEnded {
                    committed: false,
                    ..
                }
            )
        })
        .count();
    assert!(retargets > 0, "the scenario must retarget");
    assert_fleet_of_one_equals_solo(&workloads, make, InstanceKind::G3s_xlarge, u32::MAX, &cfg);
}

#[test]
fn iterative_fleet_of_one_equals_solo_run() {
    // Fleets honour iteration-level batching (and its KV demand) exactly
    // as single-tenant runs do, under a cold-start storm.
    let secs = 90;
    let workloads = [
        azure(MlModel::Bert, 42, secs),
        azure(MlModel::FunnelTransformer, 42, secs),
    ];
    let plan = FaultPlan::new()
        .cold_start_storm(SimTime::from_secs(secs / 3))
        .cold_start_storm(SimTime::from_secs(2 * secs / 3));
    let cfg = SimConfig::with_seed(42)
        .with_faults(plan, FailoverPolicyKind::default())
        .with_iterative_batching();
    let solo = assert_fleet_of_one_equals_solo(
        &workloads,
        || Box::new(paldia_core::PaldiaScheduler::new()),
        InstanceKind::G3s_xlarge,
        u32::MAX,
        &cfg,
    );
    assert!(!solo.completed.is_empty());
}

#[test]
fn inventory_contention_blocks_the_second_tenant() {
    // Two tenants both demand the single V100: only one can hold it.
    let cfg = SimConfig::with_seed(4);
    let mk = |name: &str, start: InstanceKind| FleetDeployment {
        name: name.into(),
        workloads: steady(MlModel::ResNet50, 50.0, 45),
        scheduler: Box::new(Wants(InstanceKind::P3_2xlarge)),
        initial_hw: start,
    };
    let results = run_fleet(
        vec![
            mk("holder", InstanceKind::P3_2xlarge),
            mk("wisher", InstanceKind::G3s_xlarge),
        ],
        Catalog::table_ii(),
        1,
        &cfg,
    );
    let holder = &results[0];
    let wisher = &results[1];
    assert!(holder.cost.hours_on(InstanceKind::P3_2xlarge) > 0.0);
    // The wisher never obtained the V100 — the unit was taken the whole run.
    assert_eq!(wisher.cost.hours_on(InstanceKind::P3_2xlarge), 0.0);
    assert!(wisher.cost.hours_on(InstanceKind::G3s_xlarge) > 0.0);
    // It still served its traffic on what it had.
    let total = wisher.completed.len() as u64 + wisher.unserved;
    assert!(wisher.unserved < total / 10);
}

#[test]
fn freed_units_become_available() {
    // Tenant A (Paldia) starts on the V100 but its traffic dies after 15 s,
    // so it downgrades to cheap hardware — freeing the single V100 unit for
    // tenant B's standing wish.
    use paldia_core::PaldiaScheduler;
    let cfg = SimConfig::with_seed(5);
    let results = run_fleet(
        vec![
            FleetDeployment {
                name: "short".into(),
                workloads: steady(MlModel::ResNet50, 50.0, 15),
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw: InstanceKind::P3_2xlarge,
            },
            FleetDeployment {
                name: "long".into(),
                workloads: steady(MlModel::SeNet18, 50.0, 180),
                scheduler: Box::new(Wants(InstanceKind::P3_2xlarge)),
                initial_hw: InstanceKind::G3s_xlarge,
            },
        ],
        Catalog::table_ii(),
        1,
        &cfg,
    );
    let short = &results[0];
    let long = &results[1];
    assert!(
        short.transitions >= 1,
        "Paldia should have downgraded off the V100 once traffic died"
    );
    assert!(
        long.cost.hours_on(InstanceKind::P3_2xlarge) > 0.0,
        "the freed V100 should eventually go to the waiting tenant: {}",
        long.cost
    );
    assert!(long
        .hw_timeline
        .iter()
        .any(|&(_, k)| k == InstanceKind::P3_2xlarge));
}

/// Conservation invariant: whatever the crash schedule does, every admitted
/// request is exactly-once completed or counted unserved — never lost,
/// never duplicated. `unserved` is a saturating difference, so duplicated
/// completions would silently hide; checking `completed + unserved ==
/// arrived` alongside RequestId uniqueness closes that hole.
fn assert_conserved(r: &RunResult, label: &str) -> u64 {
    let arrived: u64 = r.arrived_per_model.iter().map(|&(_, n)| n).sum();
    let mut ids: Vec<u64> = r.completed.iter().map(|c| c.id.0).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(before, ids.len(), "{label}: duplicate completed RequestIds");
    assert_eq!(
        r.completed.len() as u64 + r.unserved,
        arrived,
        "{label}: completed + unserved != arrived"
    );
    arrived
}

#[test]
fn crash_schedules_conserve_requests() {
    // Clean run pins the arrival count; every crash schedule must then
    // conserve it, for both the single-tenant and the fleet harness.
    let base = SimConfig::with_seed(9);
    let schedules: Vec<(String, FaultPlan)> = [11u64, 77, 4_040]
        .iter()
        .map(|&s| {
            (
                format!("sampled-{s}"),
                FaultPlan::sampled_crashes(s, SimTime::from_secs(60), 4, SimDuration::from_secs(8)),
            )
        })
        .chain(std::iter::once((
            "minute".into(),
            FaultPlan::minute_crashes(SimTime::from_secs(10), 3),
        )))
        .collect();

    let solo_at = |cfg: &SimConfig| {
        run_simulation(
            &steady(MlModel::ResNet50, 80.0, 60),
            &mut Wants(InstanceKind::P3_2xlarge),
            InstanceKind::P3_2xlarge,
            Catalog::table_ii(),
            cfg,
        )
    };
    let fleet_at = |cfg: &SimConfig| {
        use paldia_core::PaldiaScheduler;
        run_fleet(
            vec![
                FleetDeployment {
                    name: "wants".into(),
                    workloads: steady(MlModel::ResNet50, 60.0, 60),
                    scheduler: Box::new(Wants(InstanceKind::P3_2xlarge)),
                    initial_hw: InstanceKind::P3_2xlarge,
                },
                FleetDeployment {
                    name: "paldia".into(),
                    workloads: steady(MlModel::SeNet18, 90.0, 60),
                    scheduler: Box::new(PaldiaScheduler::new()),
                    initial_hw: InstanceKind::G3s_xlarge,
                },
            ],
            Catalog::table_ii(),
            2,
            cfg,
        )
    };

    let clean_solo = assert_conserved(&solo_at(&base), "solo/clean");
    let clean_fleet: Vec<u64> = fleet_at(&base)
        .iter()
        .map(|r| assert_conserved(r, "fleet/clean"))
        .collect();

    for (label, plan) in &schedules {
        let cfg = base
            .clone()
            .with_faults(plan.clone(), FailoverPolicyKind::CheapestMorePerformant);
        let solo = solo_at(&cfg);
        assert_eq!(
            assert_conserved(&solo, &format!("solo/{label}")),
            clean_solo,
            "solo/{label}: faults must not change the pre-sampled arrivals"
        );
        assert!(
            !solo.completed.is_empty(),
            "solo/{label}: nothing completed under faults"
        );
        for (r, &clean) in fleet_at(&cfg).iter().zip(clean_fleet.iter()) {
            assert_eq!(
                assert_conserved(r, &format!("fleet/{label}")),
                clean,
                "fleet/{label}: faults must not change the pre-sampled arrivals"
            );
        }
    }
}

#[test]
fn fleet_with_paldia_tenants_is_deterministic() {
    use paldia_core::PaldiaScheduler;
    let cfg = SimConfig::with_seed(6);
    let mk = || {
        vec![
            FleetDeployment {
                name: "a".into(),
                workloads: steady(MlModel::GoogleNet, 60.0, 45),
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw: InstanceKind::C6i_4xlarge,
            },
            FleetDeployment {
                name: "b".into(),
                workloads: steady(MlModel::SeNet18, 90.0, 45),
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw: InstanceKind::C6i_2xlarge,
            },
        ]
    };
    let r1 = run_fleet(mk(), Catalog::table_ii(), 1, &cfg);
    let r2 = run_fleet(mk(), Catalog::table_ii(), 1, &cfg);
    for (a, b) in r1.iter().zip(r2.iter()) {
        assert_eq!(a.completed.len(), b.completed.len());
        assert_eq!(a.unserved, b.unserved);
        assert!((a.total_cost() - b.total_cost()).abs() < 1e-12);
    }
}
