//! Sharded fleet execution: the partitioned coordinator must be invariant
//! across shard counts, agree with the serial reference driver (every
//! arrival sampled up front onto one heap) on clean elastic runs, and
//! conserve requests under fault schedules.

use paldia_cluster::reference::run_fleet_reference;
use paldia_cluster::{
    run_fleet, run_fleet_sharded, run_fleet_traced_sharded, FailoverPolicyKind, FaultPlan,
    FleetDeployment, RunResult, SimConfig,
};
use paldia_core::PaldiaScheduler;
use paldia_hw::Catalog;
use paldia_obs::{TraceEventKind, VecSink};
use paldia_sim::{SimDuration, SimTime};
use paldia_traces::RateTrace;
use paldia_workloads::MlModel;

const ELASTIC: u32 = u32::MAX;

/// A four-tenant Paldia fleet with staggered per-tenant traffic.
fn deployments(secs: u64) -> Vec<FleetDeployment> {
    [
        (MlModel::GoogleNet, 60.0),
        (MlModel::ResNet50, 40.0),
        (MlModel::SeNet18, 90.0),
        (MlModel::MobileNet, 25.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (model, rps))| FleetDeployment {
        name: format!("tenant-{i}"),
        workloads: vec![paldia_cluster::WorkloadSpec::new(
            model,
            RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
        )],
        scheduler: Box::new(PaldiaScheduler::new()),
        initial_hw: Catalog::table_ii().by_cost_ascending()[i % 3],
    })
    .collect()
}

fn fingerprint(results: &[RunResult]) -> String {
    format!("{results:?}")
}

fn assert_identical(label: &str, a: &str, b: &str) {
    if a != b {
        let pos = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        let lo = pos.saturating_sub(120);
        panic!(
            "{label}: results diverge at byte {pos}\n  a: …{}\n  b: …{}",
            &a[lo..(pos + 120).min(a.len())],
            &b[lo..(pos + 120).min(b.len())],
        );
    }
}

#[test]
fn clean_elastic_fleet_matches_serial_bit_for_bit() {
    let cfg = SimConfig::with_seed(21);
    let serial = fingerprint(&run_fleet_reference(
        deployments(60),
        Catalog::table_ii(),
        ELASTIC,
        &cfg,
    ));
    let unsplit = fingerprint(&run_fleet(
        deployments(60),
        Catalog::table_ii(),
        ELASTIC,
        &cfg,
    ));
    assert_identical("clean run_fleet", &serial, &unsplit);
    for shards in [1u32, 2, 3] {
        let sharded = fingerprint(&run_fleet_sharded(
            deployments(60),
            Catalog::table_ii(),
            ELASTIC,
            &cfg,
            shards,
        ));
        assert_identical(&format!("clean shards={shards}"), &serial, &sharded);
    }
}

#[test]
fn faulted_fleet_is_invariant_across_shard_counts() {
    let plan = FaultPlan::new()
        .crash(SimTime::from_secs(20), SimDuration::from_secs(10))
        .degrade(SimTime::from_secs(12), SimDuration::from_secs(25), 0.4)
        .straggler(SimTime::from_secs(35), SimDuration::from_secs(15), 3.0)
        .cold_start_storm(SimTime::from_secs(50));
    let cfg =
        SimConfig::with_seed(22).with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
    let run = |shards| {
        fingerprint(&run_fleet_sharded(
            deployments(70),
            Catalog::table_ii(),
            ELASTIC,
            &cfg,
            shards,
        ))
    };
    let baseline = run(1);
    for shards in [2u32, 3, 7] {
        assert_identical(&format!("faulted shards={shards}"), &baseline, &run(shards));
    }
}

#[test]
fn crashed_sharded_fleet_conserves_requests() {
    let plan = FaultPlan::sampled_crashes(9, SimTime::from_secs(60), 2, SimDuration::from_secs(8));
    let cfg = SimConfig::with_seed(23).with_faults(plan, FailoverPolicyKind::SameTierSpread);
    let results = run_fleet_sharded(deployments(60), Catalog::table_ii(), ELASTIC, &cfg, 3);
    assert_eq!(results.len(), 4);
    let mut ids = std::collections::BTreeSet::new();
    for r in &results {
        let arrived: u64 = r.arrived_per_model.iter().map(|&(_, n)| n).sum();
        assert_eq!(
            r.completed.len() as u64 + r.unserved,
            arrived,
            "{}: completed + unserved must equal arrived",
            r.scheme
        );
        assert!(arrived > 0, "{}: no traffic generated", r.scheme);
        for c in &r.completed {
            assert!(ids.insert(c.id.0), "duplicate request id {}", c.id.0);
        }
    }
}

#[test]
fn finite_inventory_and_single_tenant_run_unsplit() {
    let faulted = SimConfig::with_seed(25).with_faults(
        FaultPlan::new()
            .crash(SimTime::from_secs(15), SimDuration::from_secs(10))
            .degrade(SimTime::from_secs(8), SimDuration::from_secs(20), 0.4)
            .cold_start_storm(SimTime::from_secs(30)),
        FailoverPolicyKind::CheapestMorePerformant,
    );
    for (label, cfg) in [("clean", SimConfig::with_seed(24)), ("faulted", faulted)] {
        // Finite inventory runs as one partition whatever the shard count,
        // equal to the serial reference exactly — fault edges included.
        let serial = fingerprint(&run_fleet_reference(
            deployments(40),
            Catalog::table_ii(),
            1,
            &cfg,
        ));
        for sharded in [
            run_fleet(deployments(40), Catalog::table_ii(), 1, &cfg),
            run_fleet_sharded(deployments(40), Catalog::table_ii(), 1, &cfg, 4),
        ] {
            let label = format!("{label} finite inventory");
            assert_identical(&label, &serial, &fingerprint(&sharded));
        }
        // Single tenant: likewise.
        let one = || vec![deployments(40).remove(0)];
        let serial = fingerprint(&run_fleet_reference(
            one(),
            Catalog::table_ii(),
            ELASTIC,
            &cfg,
        ));
        let sharded = fingerprint(&run_fleet_sharded(
            one(),
            Catalog::table_ii(),
            ELASTIC,
            &cfg,
            4,
        ));
        assert_identical(&format!("{label} single tenant"), &serial, &sharded);
    }
}

/// Trace-stream shape with the `RunSummary` dispatched-event count masked
/// (each shard runs its own keep-alive chain, so the count varies with the
/// shard count by design; everything else must not).
fn masked_trace(events: Vec<paldia_obs::TraceEvent>) -> Vec<String> {
    events
        .into_iter()
        .map(|e| match e.kind {
            TraceEventKind::RunSummary { horizon, .. } => {
                format!("{}:{}:RunSummary@{horizon:?}", e.seq, e.scope)
            }
            kind => format!("{}:{}:{:?}@{:?}", e.seq, e.scope, kind, e.at),
        })
        .collect()
}

#[test]
fn traced_stream_is_invariant_across_shard_counts() {
    let plan = FaultPlan::new()
        .crash(SimTime::from_secs(15), SimDuration::from_secs(10))
        .degrade(SimTime::from_secs(8), SimDuration::from_secs(20), 0.3);
    let cfg =
        SimConfig::with_seed(25).with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
    let capture = |shards| {
        let mut sink = VecSink::new();
        let results = run_fleet_traced_sharded(
            deployments(50),
            Catalog::table_ii(),
            ELASTIC,
            &cfg,
            &mut sink,
            shards,
        );
        (masked_trace(sink.into_events()), fingerprint(&results))
    };
    let (trace1, results1) = capture(1);
    assert!(
        trace1.iter().any(|l| l.contains("FaultEdge")),
        "fault edges must appear in the coordinator stream"
    );
    assert!(trace1.iter().any(|l| l.contains("RunSummary")));
    for shards in [2u32, 4] {
        let (trace_n, results_n) = capture(shards);
        assert_eq!(results1, results_n, "traced results diverged at {shards}");
        assert_eq!(
            trace1, trace_n,
            "merged trace stream diverged at shards={shards}"
        );
    }
    // Tracing is observation-only on the sharded path too.
    let untraced = fingerprint(&run_fleet_sharded(
        deployments(50),
        Catalog::table_ii(),
        ELASTIC,
        &cfg,
        2,
    ));
    assert_identical("traced vs untraced", &untraced, &results1);
}
