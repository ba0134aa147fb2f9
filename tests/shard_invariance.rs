//! Shard-count invariance of the partitioned fleet engine, as properties:
//! whatever the workload mix, seed, or fault schedule, the number of
//! partitions must never change a single bit of the output — and the
//! engine must complete even when shards outnumber the worker pool.

use paldia::cluster::{
    run_fleet_sharded, FailoverPolicyKind, FaultPlan, FleetDeployment, RunResult, SimConfig,
    WorkloadSpec,
};
use paldia::core::{pool, PaldiaScheduler};
use paldia::hw::Catalog;
use paldia::sim::{SimDuration, SimTime};
use paldia::traces::RateTrace;
use paldia::workloads::MlModel;
use proptest::prelude::*;

const ELASTIC: u32 = u32::MAX;
const MODELS: [MlModel; 4] = [
    MlModel::GoogleNet,
    MlModel::ResNet50,
    MlModel::SeNet18,
    MlModel::MobileNet,
];

/// A fleet of `n` tenants with per-tenant rates drawn by the property.
fn fleet(rates: &[f64], secs: u64) -> Vec<FleetDeployment> {
    let tiers = Catalog::table_ii().by_cost_ascending();
    rates
        .iter()
        .enumerate()
        .map(|(i, &rps)| FleetDeployment {
            name: format!("prop-{i}"),
            workloads: vec![WorkloadSpec::new(
                MODELS[i % MODELS.len()],
                RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
            )],
            scheduler: Box::new(PaldiaScheduler::new()),
            initial_hw: tiers[i % tiers.len()],
        })
        .collect()
}

fn fingerprint(results: &[RunResult]) -> String {
    format!("{results:?}")
}

fn run(rates: &[f64], secs: u64, cfg: &SimConfig, shards: u32) -> String {
    fingerprint(&run_fleet_sharded(
        fleet(rates, secs),
        Catalog::table_ii(),
        ELASTIC,
        cfg,
        shards,
    ))
}

proptest! {
    /// Clean elastic fleets: identical output at shard counts 1, 2, 3, 7.
    #[test]
    fn clean_fleet_is_invariant_across_shard_counts(
        seed in 0u64..1_000,
        rates in proptest::collection::vec(4.0f64..40.0, 2..5),
    ) {
        let cfg = SimConfig::with_seed(seed);
        let baseline = run(&rates, 15, &cfg, 1);
        for shards in [2u32, 3, 7] {
            prop_assert_eq!(&baseline, &run(&rates, 15, &cfg, shards),
                "clean fleet diverged at shards={}", shards);
        }
    }

    /// Iteration-level LLM runs: whatever the seed, and with or without
    /// the cold-start storm, the partition engine must emit the identical
    /// output to the reference driver (every arrival sampled up front onto
    /// one serial heap). A single-tenant run is one partition at every
    /// shard count, so the reference is what this property compares with.
    #[test]
    fn llm_mode_matches_the_reference_driver(
        seed in 0u64..500,
        storm_bit in 0u64..2,
    ) {
        use paldia::experiments::llm_iter::{run_llm, LlmRunOpts};
        use paldia::experiments::{Driver, SchemeKind};
        let storm = storm_bit == 1;
        let base = LlmRunOpts {
            seed,
            secs: 45,
            scheme: SchemeKind::Paldia,
            iterative: true,
            storm,
            driver: Driver::Engine,
        };
        let engine = run_llm(&base);
        let reference = run_llm(&LlmRunOpts { driver: Driver::Reference, ..base });
        prop_assert!(!engine.completed.is_empty(), "LLM run served nothing");
        prop_assert_eq!(
            format!("{engine:?}"),
            format!("{reference:?}"),
            "LLM mode ({}) diverged from the reference driver",
            if storm { "storm" } else { "clean" }
        );
    }

    /// Faulted fleets: a crash + degrade + storm schedule with
    /// property-chosen phases must not break the invariance either.
    #[test]
    fn faulted_fleet_is_invariant_across_shard_counts(
        seed in 0u64..1_000,
        crash_at in 3u64..14,
        degrade_at in 3u64..14,
        severity in 0.1f64..0.9,
        rates in proptest::collection::vec(4.0f64..40.0, 2..5),
    ) {
        let plan = FaultPlan::new()
            .crash(SimTime::from_secs(crash_at), SimDuration::from_secs(5))
            .degrade(SimTime::from_secs(degrade_at), SimDuration::from_secs(7), severity)
            .cold_start_storm(SimTime::from_secs(crash_at + 4));
        let cfg = SimConfig::with_seed(seed)
            .with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
        let baseline = run(&rates, 18, &cfg, 1);
        for shards in [2u32, 3, 7] {
            prop_assert_eq!(&baseline, &run(&rates, 18, &cfg, shards),
                "faulted fleet diverged at shards={}", shards);
        }
    }
}

/// Shards beyond the pool's worker cap must queue, not deadlock: with the
/// pool pinned to one job, a 7-shard faulted run still completes and
/// still matches the single-shard output. (`pool::set_jobs` is
/// process-global, but shard/job counts never affect results — only
/// wall-clock — so concurrent tests are unaffected.)
#[test]
fn pool_starvation_completes_and_matches() {
    pool::set_jobs(1);
    let plan = FaultPlan::new()
        .crash(SimTime::from_secs(10), SimDuration::from_secs(5))
        .straggler(SimTime::from_secs(18), SimDuration::from_secs(8), 2.5);
    let cfg = SimConfig::with_seed(77).with_faults(plan, FailoverPolicyKind::SameTierSpread);
    let rates = [30.0, 15.0, 40.0, 10.0, 25.0];
    let baseline = run(&rates, 20, &cfg, 1);
    let starved = run(&rates, 20, &cfg, 7);
    assert_eq!(baseline, starved, "7 shards on a 1-job pool diverged");
}

/// Faults × LLM iterative mode × elastic fleet, as a grid: LLM tenants
/// under every fault kind alone and together must produce bit-identical
/// output at shards 1, 2 and 3 — and iteration-level batching must
/// actually be in effect (the output differs from request-level batching).
#[test]
fn faults_by_llm_by_elastic_fleet_grid_is_shard_invariant() {
    let secs = 40;
    let llm_fleet = || -> Vec<FleetDeployment> {
        [MlModel::Bert, MlModel::FunnelTransformer, MlModel::Bert]
            .iter()
            .enumerate()
            .map(|(i, &model)| FleetDeployment {
                name: format!("llm-{i}"),
                workloads: vec![WorkloadSpec::new(
                    model,
                    RateTrace::constant(
                        4.0 + 2.0 * i as f64,
                        SimDuration::from_secs(secs),
                        SimDuration::from_secs(1),
                    ),
                )],
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw: Catalog::table_ii().by_cost_ascending()[2 + i],
            })
            .collect()
    };
    let at = SimTime::from_secs;
    let dur = SimDuration::from_secs;
    let plans = [
        ("clean", FaultPlan::new()),
        ("crash", FaultPlan::new().crash(at(10), dur(8))),
        ("degrade", FaultPlan::new().degrade(at(5), dur(20), 0.7)),
        ("straggler", FaultPlan::new().straggler(at(0), dur(30), 3.0)),
        ("storm", FaultPlan::new().cold_start_storm(at(12))),
        (
            "all",
            FaultPlan::new()
                .crash(at(10), dur(8))
                .degrade(at(5), dur(20), 0.7)
                .straggler(at(0), dur(30), 3.0)
                .cold_start_storm(at(12))
                .cold_start_storm(at(25)),
        ),
    ];
    for (name, plan) in plans {
        let request_level =
            SimConfig::with_seed(9).with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
        let cfg = request_level.clone().with_iterative_batching();
        let run = |cfg: &SimConfig, shards: u32| {
            fingerprint(&run_fleet_sharded(
                llm_fleet(),
                Catalog::table_ii(),
                ELASTIC,
                cfg,
                shards,
            ))
        };
        let baseline = run(&cfg, 1);
        for shards in [2u32, 3] {
            assert!(
                baseline == run(&cfg, shards),
                "LLM fleet ({name}) diverged at shards={shards}"
            );
        }
        assert!(
            baseline != run(&request_level, 1),
            "LLM fleet ({name}) ignored iteration-level batching"
        );
    }
}
