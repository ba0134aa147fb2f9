//! The three discrete-event workloads: construction from a seed, the
//! untraced and traced passes, and the simulated metrics of a run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use paldia_cluster::{
    run_fleet_sharded_stats, run_simulation_sharded, sample_arrivals, FailoverPolicyKind,
    FaultPlan, FleetDeployment, RecordedTrace, RunResult, SampledArrival, Scheduler, SimConfig,
    SimSession, WorkloadSpec,
};
use paldia_core::PaldiaScheduler;
use paldia_experiments::common::SchemeKind;
use paldia_experiments::llm_iter::{llm_storm_plan, llm_workloads, p99_token_latency_ms};
use paldia_experiments::scenarios::twitter_workload;
use paldia_experiments::stress::StressSpec;
use paldia_hw::{Catalog, InstanceKind};
use paldia_sim::{SimDuration, SimTime, VirtualClock};
use paldia_workloads::MlModel;

use crate::decor::TimedScheduler;
use crate::drive::drive;
use crate::span::Recorder;
use crate::stats::{mean, percentile};

/// Seed of the rate curves and the crash schedule (the golden setting).
/// `--seed` draws the arrivals, the simulator's randomness and token
/// lengths, so seeds vary the sample, not the shape of the scenario.
pub const TRACE_SEED: u64 = 42;

/// `twitter-vision`: seconds of the Twitter trace kept.
const TWITTER_SECS: u64 = 900;
const TWITTER_MODELS: [MlModel; 4] = [
    MlModel::ResNet50,
    MlModel::GoogleNet,
    MlModel::SeNet18,
    MlModel::MobileNet,
];

/// `fleet-faults`: tenants × constant rate × seconds, and its faults.
const FLEET_TENANTS: usize = 160;
const FLEET_RPS: f64 = 56.0;
const FLEET_SECS: u64 = 120;
const FLEET_SHARDS: u32 = 2;
const FLEET_CRASHES: u32 = 3;

/// `llm-storm`: trace seconds and the factor over the paper's 8 req/s peak.
const LLM_SECS: u64 = 1_500;
const LLM_RATE_FACTOR: f64 = 32.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DesKind {
    TwitterVision,
    FleetFaults,
    LlmStorm,
}

/// One workload, built from its seed.
pub struct Scenario {
    pub kind: DesKind,
    pub cfg: SimConfig,
    tenants: Tenants,
}

enum Tenants {
    /// One deployment's workloads and its warm-start hardware.
    Single(Vec<WorkloadSpec>, InstanceKind),
    Fleet(StressSpec),
}

/// The fleet's deployments, each scheduler passed through `wrap`.
fn deployments(
    spec: &StressSpec,
    wrap: impl Fn(Box<dyn Scheduler>) -> Box<dyn Scheduler>,
) -> Vec<FleetDeployment> {
    spec.deployments()
        .into_iter()
        .map(|mut d| {
            d.scheduler = wrap(d.scheduler);
            d
        })
        .collect()
}

impl Scenario {
    pub fn build(kind: DesKind, seed: u64) -> Self {
        let catalog = Catalog::table_ii();
        let single = |workloads: Vec<WorkloadSpec>, cfg: SimConfig| {
            let hw = SchemeKind::Paldia.initial_hw(&workloads, &catalog, cfg.slo_ms);
            Scenario {
                kind,
                cfg,
                tenants: Tenants::Single(workloads, hw),
            }
        };
        match kind {
            DesKind::TwitterVision => {
                let workloads = TWITTER_MODELS
                    .iter()
                    .map(|&m| {
                        let w = twitter_workload(m, TRACE_SEED);
                        let trace = w
                            .trace
                            .slice(SimTime::ZERO, SimTime::from_secs(TWITTER_SECS));
                        WorkloadSpec::new(m, trace)
                    })
                    .collect();
                single(workloads, SimConfig::with_seed(seed))
            }
            DesKind::LlmStorm => {
                let workloads = llm_workloads(TRACE_SEED, LLM_SECS)
                    .into_iter()
                    .map(|w| WorkloadSpec::new(w.model, w.trace.scale_by(LLM_RATE_FACTOR)))
                    .collect();
                let cfg = SimConfig::with_seed(seed)
                    .with_faults(llm_storm_plan(LLM_SECS), FailoverPolicyKind::default())
                    .with_iterative_batching();
                single(workloads, cfg)
            }
            DesKind::FleetFaults => {
                let secs = SimTime::from_secs(FLEET_SECS);
                let at = |share: f64| SimTime::from_secs((FLEET_SECS as f64 * share) as u64);
                let plan = FaultPlan::sampled_crashes(
                    TRACE_SEED,
                    secs,
                    FLEET_CRASHES,
                    SimDuration::from_secs(3),
                )
                .degrade(at(0.4), SimDuration::from_secs(FLEET_SECS / 5), 0.5)
                .cold_start_storm(at(0.7));
                Scenario {
                    kind,
                    cfg: SimConfig::with_seed(seed)
                        .with_faults(plan, FailoverPolicyKind::default()),
                    tenants: Tenants::Fleet(StressSpec {
                        tenants: FLEET_TENANTS,
                        rps: FLEET_RPS,
                        secs: FLEET_SECS,
                        seed,
                    }),
                }
            }
        }
    }

    fn tenant_workloads(&self) -> Vec<Vec<WorkloadSpec>> {
        match &self.tenants {
            Tenants::Single(w, _) => vec![w.clone()],
            Tenants::Fleet(spec) => spec
                .deployments()
                .into_iter()
                .map(|d| d.workloads)
                .collect(),
        }
    }

    /// Sample every tenant's arrivals (`sample_arrivals`), time-sorted.
    pub fn arrivals(&self) -> Vec<SampledArrival> {
        let mut all: Vec<SampledArrival> = self
            .tenant_workloads()
            .iter()
            .flat_map(|w| sample_arrivals(w, self.cfg.seed).0)
            .collect();
        all.sort_by_key(|sa| (sa.at, sa.seq));
        all
    }

    /// Number of compiled fault edges (the fleet's epoch barriers).
    pub fn fault_edges(&self) -> usize {
        let end = self
            .tenant_workloads()
            .iter()
            .flatten()
            .map(|w| SimTime::ZERO + w.trace.duration())
            .max()
            .unwrap_or(SimTime::ZERO);
        self.cfg
            .faults
            .compile(end + self.cfg.drain_grace)
            .events
            .len()
    }

    /// The untraced pass: the workload's own entry point, nothing wrapped.
    /// Returns the results and the engine event count where the entry point
    /// reports one.
    pub fn run_untraced(&self) -> (Vec<RunResult>, Option<u64>) {
        let catalog = Catalog::table_ii();
        match &self.tenants {
            Tenants::Single(w, hw) => {
                let mut sched = PaldiaScheduler::new();
                let r = run_simulation_sharded(w, &mut sched, *hw, catalog, &self.cfg, 1);
                (vec![r], None)
            }
            Tenants::Fleet(spec) => {
                let (r, events) = run_fleet_sharded_stats(
                    deployments(spec, |s| s),
                    catalog,
                    u32::MAX,
                    &self.cfg,
                    FLEET_SHARDS,
                );
                (r, Some(events))
            }
        }
    }

    /// The traced pass: single-tenant workloads replay their recorded
    /// arrivals through a `SimSession` step by step; the fleet runs with
    /// every scheduler decorated, under one `run_fleet_sharded_stats` span.
    pub fn run_traced(
        &self,
        rec: &Arc<Recorder>,
        decides: &Arc<AtomicU64>,
    ) -> (Vec<RunResult>, u64) {
        let catalog = Catalog::table_ii();
        let timed = |s: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
            Box::new(TimedScheduler::new(s, rec.clone(), decides.clone()))
        };
        match &self.tenants {
            Tenants::Single(w, hw) => {
                let trace = RecordedTrace::record(w, self.cfg.seed, *hw);
                let mut sched = timed(Box::new(PaldiaScheduler::new()));
                let mut session = SimSession::new(
                    trace.models.clone(),
                    &mut *sched,
                    *hw,
                    catalog,
                    &self.cfg,
                    SimTime::ZERO + trace.duration,
                    trace.reserve,
                );
                // Pacing on the virtual clock is a no-op; only the serving
                // shell's wall clock is worth a span.
                drive(
                    &mut session,
                    &trace.arrivals,
                    &mut VirtualClock,
                    rec,
                    decides,
                    |_| {},
                );
                let events = session.events();
                (vec![session.finish()], events)
            }
            Tenants::Fleet(spec) => {
                let deployments = deployments(spec, timed);
                let span = rec.open("fleet.run_fleet_sharded_stats");
                rec.set_root(&span);
                let (r, events) = run_fleet_sharded_stats(
                    deployments,
                    catalog,
                    u32::MAX,
                    &self.cfg,
                    FLEET_SHARDS,
                );
                drop(span);
                (r, events)
            }
        }
    }

    /// Service-time hints the gateway pushes in iteration-level mode.
    pub fn iterative(&self) -> bool {
        self.kind == DesKind::LlmStorm
    }
}

/// The simulated outcome of a run, summed over tenants.
#[derive(Clone, Debug, PartialEq)]
pub struct SimMetrics {
    pub arrived: u64,
    pub completed: u64,
    pub unserved: u64,
    pub slo_miss_pct: f64,
    pub cost_usd: f64,
    pub p99_latency_ms: f64,
    pub p99_token_ms: f64,
    pub batch_size_mean: f64,
    pub batch_wait_ms: f64,
    pub queue_wait_ms: f64,
    pub interference_ms: f64,
    /// Simulated wait before execution (`exec_start − arrival`), P50/P99.
    pub wait_p50_ms: f64,
    pub wait_p99_ms: f64,
    pub cold_starts: u64,
    pub transitions: u64,
    /// Mean batch size per model, rounded (the batcher replay's sizes).
    pub batch_sizes: BTreeMap<MlModel, u32>,
    /// The hardware that served the most requests.
    pub main_hw: InstanceKind,
}

pub fn sim_metrics(results: &[RunResult], slo_ms: f64, seed: u64) -> SimMetrics {
    let all = || results.iter().flat_map(|r| r.completed.iter());
    let arrived = results
        .iter()
        .flat_map(|r| r.arrived_per_model.iter().map(|&(_, n)| n))
        .sum::<u64>();
    let completed = all().count() as u64;
    let within = all().filter(|c| c.within_slo(slo_ms)).count() as u64;
    let latencies: Vec<f64> = all().map(|c| c.latency_ms()).collect();
    let waits: Vec<f64> = all().map(|c| c.queue_ms()).collect();
    let p99_token_ms = match results {
        [one] => p99_token_latency_ms(one, seed),
        _ => {
            let mut pooled = results[0].clone();
            pooled.completed = all().copied().collect();
            p99_token_latency_ms(&pooled, seed)
        }
    };
    let mut per_model: BTreeMap<MlModel, (u64, u64)> = BTreeMap::new();
    let mut per_hw: BTreeMap<InstanceKind, u64> = BTreeMap::new();
    for c in all() {
        let e = per_model.entry(c.model).or_default();
        e.0 += u64::from(c.batch_size);
        e.1 += 1;
        *per_hw.entry(c.hw).or_default() += 1;
    }
    SimMetrics {
        arrived,
        completed,
        unserved: results.iter().map(|r| r.unserved).sum(),
        slo_miss_pct: 100.0 * (1.0 - within as f64 / arrived.max(1) as f64),
        cost_usd: results.iter().map(RunResult::total_cost).sum(),
        p99_latency_ms: percentile(&latencies, 99.0),
        p99_token_ms,
        batch_size_mean: mean(all().map(|c| f64::from(c.batch_size))),
        batch_wait_ms: mean(all().map(|c| c.batching_ms())),
        queue_wait_ms: mean(all().map(|c| c.dispatch_wait_ms())),
        interference_ms: mean(all().map(|c| c.interference_ms())),
        wait_p50_ms: percentile(&waits, 50.0),
        wait_p99_ms: percentile(&waits, 99.0),
        cold_starts: results.iter().map(|r| r.cold_starts).sum(),
        transitions: results.iter().map(|r| r.transitions).sum(),
        batch_sizes: per_model
            .into_iter()
            .map(|(m, (sum, n))| (m, ((sum as f64 / n as f64).round() as u32).max(1)))
            .collect(),
        main_hw: per_hw
            .into_iter()
            .max_by_key(|&(hw, n)| (n, std::cmp::Reverse(hw)))
            .map_or(InstanceKind::P3_2xlarge, |(hw, _)| hw),
    }
}

/// FNV-1a over every field of the results: equal fingerprints mean
/// bit-identical results (floats are hashed by their bits or by their
/// round-trip `Debug` text).
pub fn fingerprint(results: &[RunResult]) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            Hasher::write(self, s.as_bytes());
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for r in results {
        for c in &r.completed {
            c.id.hash(&mut h);
            c.model.hash(&mut h);
            for t in [c.arrival, c.batch_closed, c.exec_start, c.completed] {
                t.as_micros().hash(&mut h);
            }
            c.solo_ms.to_bits().hash(&mut h);
            c.hw.hash(&mut h);
            c.batch_size.hash(&mut h);
        }
        write!(
            h,
            "{}|{}|{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}",
            r.scheme,
            r.unserved,
            r.arrived_per_model,
            r.cost,
            r.nodes,
            r.cold_starts,
            r.transitions,
            r.hw_timeline,
            r.trace_duration
        )
        .expect("hashing cannot fail");
    }
    h.finish()
}
