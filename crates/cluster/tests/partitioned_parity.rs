//! Bit-identity of the partition engine against the serial reference.
//!
//! `run_simulation` streams arrivals one trace bin at a time and keeps
//! device wakes in per-worker registers. It must produce a `RunResult`
//! byte-for-byte identical to the reference driver, which samples every
//! arrival up front onto one `EventQueue` and runs `run_until` over the
//! same event handler — same completions in the same order, same costs,
//! same node stats, same timelines — across clean runs, overload, hardware
//! transitions, and every fault kind. The
//! comparison goes through `format!("{:?}")`, which for `f64` prints the
//! shortest round-trip representation and therefore distinguishes any two
//! different bit patterns outside of NaN/signed-zero (neither occurs here).

use paldia_cluster::reference::run_simulation_reference;
use paldia_cluster::{
    run_simulation, Decision, FailoverPolicyKind, FaultPlan, ModelDecision, Observation, RunResult,
    Scheduler, SimConfig, WorkloadSpec,
};
use paldia_hw::{Catalog, InstanceKind};
use paldia_sim::{SimDuration, SimTime};
use paldia_traces::RateTrace;
use paldia_workloads::{MlModel, Profile};

struct Fixed {
    hw: InstanceKind,
    total_cap: Option<u32>,
}

impl Scheduler for Fixed {
    fn name(&self) -> &str {
        "fixed"
    }
    fn decide(&mut self, obs: &Observation) -> Decision {
        Decision {
            hw: self.hw,
            total_cap: self.total_cap,
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

fn steady(model: MlModel, rps: f64, secs: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        model,
        RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
    )
}

/// Run the same scenario on both engines and demand identical output.
fn assert_parity(
    hw: InstanceKind,
    total_cap: Option<u32>,
    specs: &[WorkloadSpec],
    cfg: &SimConfig,
) {
    let serial = {
        let mut sched = Fixed { hw, total_cap };
        run_simulation_reference(specs, &mut sched, hw, Catalog::table_ii(), cfg, None)
    };
    let lean = {
        let mut sched = Fixed { hw, total_cap };
        run_simulation(specs, &mut sched, hw, Catalog::table_ii(), cfg)
    };
    assert_identical(&serial, &lean);
}

fn assert_identical(serial: &RunResult, lean: &RunResult) {
    assert_eq!(
        serial.completed.len(),
        lean.completed.len(),
        "completion count diverged"
    );
    let a = format!("{serial:?}");
    let b = format!("{lean:?}");
    if a != b {
        // Find the first divergent region for a readable failure message.
        let at = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        let lo = at.saturating_sub(80);
        panic!(
            "engines diverged at byte {at}:\n serial: …{}…\n lean:   …{}…",
            &a[lo..(at + 80).min(a.len())],
            &b[lo..(at + 80).min(b.len())]
        );
    }
}

#[test]
fn parity_moderate_gpu_load() {
    let cfg = SimConfig::with_seed(11);
    assert_parity(
        InstanceKind::P3_2xlarge,
        None,
        &[steady(MlModel::ResNet50, 100.0, 60)],
        &cfg,
    );
}

#[test]
fn parity_time_sharing_overload() {
    // Overload keeps the batch-deadline path and hold-back logic hot.
    let cfg = SimConfig::with_seed(12);
    assert_parity(
        InstanceKind::G3s_xlarge,
        Some(1),
        &[steady(MlModel::ResNet50, 700.0, 45)],
        &cfg,
    );
}

#[test]
fn parity_cpu_node() {
    let cfg = SimConfig::with_seed(13);
    assert_parity(
        InstanceKind::C6i_4xlarge,
        None,
        &[steady(MlModel::MobileNet, 10.0, 60)],
        &cfg,
    );
}

#[test]
fn parity_under_hardware_transition() {
    struct Upgrader {
        ticks: u32,
    }
    impl Scheduler for Upgrader {
        fn name(&self) -> &str {
            "upgrader"
        }
        fn decide(&mut self, _obs: &Observation) -> Decision {
            self.ticks += 1;
            let hw = if self.ticks > 10 {
                InstanceKind::P3_2xlarge
            } else {
                InstanceKind::G3s_xlarge
            };
            Decision {
                hw,
                total_cap: None,
                per_model: vec![],
            }
        }
    }
    let cfg = SimConfig::with_seed(14);
    let spec = steady(MlModel::ResNet50, 50.0, 60);
    let serial = {
        let mut sched = Upgrader { ticks: 0 };
        run_simulation_reference(
            std::slice::from_ref(&spec),
            &mut sched,
            InstanceKind::G3s_xlarge,
            Catalog::table_ii(),
            &cfg,
            None,
        )
    };
    assert!(serial.transitions >= 1, "scenario must exercise a switch");
    let mut sched = Upgrader { ticks: 0 };
    let lean = run_simulation(
        &[spec],
        &mut sched,
        InstanceKind::G3s_xlarge,
        Catalog::table_ii(),
        &cfg,
    );
    assert_identical(&serial, &lean);
}

#[test]
fn parity_under_faults() {
    // Crash + degradation + straggler + cold-start storm in one plan, so
    // every fault arm of the event handler runs on both engines.
    let mut cfg = SimConfig::with_seed(15);
    cfg.faults = FaultPlan::new()
        .crash(SimTime::from_secs(20), SimDuration::from_secs(25))
        .degrade(SimTime::from_secs(10), SimDuration::from_secs(30), 0.4)
        .straggler(SimTime::from_secs(35), SimDuration::from_secs(20), 3.0)
        .cold_start_storm(SimTime::from_secs(60));
    cfg.failover = FailoverPolicyKind::CheapestMorePerformant;
    assert_parity(
        InstanceKind::G3s_xlarge,
        None,
        &[steady(MlModel::ResNet50, 50.0, 90)],
        &cfg,
    );
}

#[test]
fn parity_co_located_models_with_same_instant_arrivals() {
    // Three arrival streams over 1 ms bins at 5 arrivals per bin each:
    // arrivals of different models (and of one model) share microseconds
    // often, so the merge's tie order is exercised against the heap's.
    let dense = |model, rate| {
        WorkloadSpec::new(
            model,
            RateTrace::constant(rate, SimDuration::from_secs(3), SimDuration::from_millis(1)),
        )
    };
    let cfg = SimConfig::with_seed(16);
    assert_parity(
        InstanceKind::P3_2xlarge,
        None,
        &[
            dense(MlModel::GoogleNet, 5_000.0),
            dense(MlModel::MobileNet, 5_000.0),
            dense(MlModel::SeNet18, 2_000.0),
        ],
        &cfg,
    );
}
