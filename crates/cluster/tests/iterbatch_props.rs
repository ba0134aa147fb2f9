//! Property battery for iteration-level continuous batching.
//!
//! The iterative engine's contract is narrow but load-bearing: sequences
//! only join and leave the running batch at iteration boundaries, the KV
//! cache is a hard capacity bound at every instant, every request does
//! exactly the work its token card prescribes, and none of it depends on
//! which driver (the partition engine, or the serial reference) runs the
//! events. Each property
//! replays full end-to-end simulations over generated seeds/rates and
//! audits the emitted `IterationStarted`/`BatchJoin`/`BatchLeave` stream.

use paldia_cluster::reference::run_simulation_reference;
use paldia_cluster::{
    run_simulation_traced, Decision, ModelDecision, Observation, RunResult, Scheduler, SimConfig,
    WorkloadSpec,
};
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{TraceEvent, TraceEventKind, VecSink};
use paldia_sim::{SimDuration, SimTime};
use paldia_traces::RateTrace;
use paldia_workloads::{tokens::TokenCard, MlModel, Profile};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Fixed hardware, default batching — the substrate test policy.
struct Fixed(InstanceKind);

impl Scheduler for Fixed {
    fn name(&self) -> &str {
        "fixed"
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

/// Which driver runs the events.
#[derive(Clone, Copy)]
enum Driver {
    /// The partition engine, through the public entry point.
    Engine,
    /// The serial reference: every arrival up front on one heap.
    Reference,
}

/// One traced iterative run: Bert (long-doc card) plus FunnelTransformer
/// (bimodal card) at the given rates, on the given driver.
fn run_llm(
    seed: u64,
    rps_a: f64,
    rps_b: f64,
    secs: u64,
    driver: Driver,
) -> (RunResult, Vec<TraceEvent>) {
    let mk = |m: MlModel, rps: f64| {
        WorkloadSpec::new(
            m,
            RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
        )
    };
    let specs = vec![
        mk(MlModel::Bert, rps_a),
        mk(MlModel::FunnelTransformer, rps_b),
    ];
    let mut sched = Fixed(InstanceKind::P3_2xlarge);
    let cfg = SimConfig::with_seed(seed).with_iterative_batching();
    let mut sink = VecSink::new();
    let (hw, catalog) = (InstanceKind::P3_2xlarge, Catalog::table_ii());
    let result = match driver {
        Driver::Engine => run_simulation_traced(&specs, &mut sched, hw, catalog, &cfg, &mut sink),
        Driver::Reference => {
            run_simulation_reference(&specs, &mut sched, hw, catalog, &cfg, Some(&mut sink))
        }
    };
    (result, sink.into_events())
}

/// The iteration-level subsequence of a trace, in stream order.
fn iter_events(events: &[TraceEvent]) -> Vec<&TraceEvent> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::IterationStarted { .. }
                    | TraceEventKind::BatchJoin { .. }
                    | TraceEventKind::BatchLeave { .. }
            )
        })
        .collect()
}

proptest! {
    /// Joins and leaves only ever happen at iteration boundaries: once an
    /// `IterationStarted` commits a duration, no `BatchJoin` or
    /// `BatchLeave` appears on that worker before the boundary instant.
    #[test]
    fn no_join_or_leave_mid_iteration(seed in 1u64..5_000, rps in 10u64..60) {
        let (_, events) = run_llm(seed, rps as f64, (rps / 2).max(5) as f64, 8, Driver::Engine);
        // Per worker: end of the in-flight iteration, if any.
        let mut open: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut saw_iteration = false;
        for e in iter_events(&events) {
            match e.kind {
                TraceEventKind::IterationStarted { worker, dur_us, .. } => {
                    saw_iteration = true;
                    if let Some(&end) = open.get(&worker) {
                        prop_assert!(
                            e.at >= end,
                            "iteration started mid-iteration on worker {worker}: {:?} < {end:?}",
                            e.at
                        );
                    }
                    open.insert(worker, e.at + SimDuration::from_micros(dur_us));
                }
                TraceEventKind::BatchJoin { worker, .. }
                | TraceEventKind::BatchLeave { worker, .. } => {
                    if let Some(&end) = open.get(&worker) {
                        prop_assert!(
                            e.at >= end,
                            "join/leave mid-iteration on worker {worker}: {:?} inside (.., {end:?})",
                            e.at
                        );
                    }
                }
                _ => {}
            }
        }
        prop_assert!(saw_iteration, "run produced no iterations at all");
    }

    /// The KV cache is a hard bound at every tick: the occupancy each
    /// `IterationStarted` reports equals the join/leave ledger exactly and
    /// never exceeds the device capacity.
    #[test]
    fn kv_occupancy_never_exceeds_capacity(seed in 1u64..5_000, rps in 10u64..80) {
        let (_, events) = run_llm(seed, rps as f64, (rps / 2).max(5) as f64, 8, Driver::Engine);
        // Ledger: per worker, resident KV; per request, its reserved KV.
        let mut kv: BTreeMap<u32, u64> = BTreeMap::new();
        let mut reserved: BTreeMap<u64, u64> = BTreeMap::new();
        for e in iter_events(&events) {
            match e.kind {
                TraceEventKind::BatchJoin { request, worker, kv_tokens, .. } => {
                    *kv.entry(worker).or_insert(0) += kv_tokens;
                    reserved.insert(request, kv_tokens);
                }
                TraceEventKind::BatchLeave { request, worker, .. } => {
                    let k = reserved
                        .remove(&request)
                        .expect("invariant: every leave was preceded by a join");
                    let slot = kv.entry(worker).or_insert(0);
                    prop_assert!(*slot >= k, "leave released more KV than resident");
                    *slot -= k;
                }
                TraceEventKind::IterationStarted { worker, kv_used, kv_capacity, .. } => {
                    let ledger = kv.get(&worker).copied().unwrap_or(0);
                    prop_assert_eq!(
                        kv_used, ledger,
                        "reported KV diverges from the join/leave ledger"
                    );
                    prop_assert!(
                        kv_used <= kv_capacity,
                        "KV over capacity: {kv_used} > {kv_capacity}"
                    );
                }
                _ => {}
            }
        }
    }

    /// Token conservation: every retired sequence decoded exactly its
    /// card's token count, and was resident for exactly
    /// `prefill_iters + decode` iterations (the card re-derived from the
    /// pure `(seed, request id)` hash — no sampling state to drift).
    #[test]
    fn per_request_token_conservation(seed in 1u64..5_000, rps in 10u64..60) {
        let (result, events) = run_llm(seed, rps as f64, (rps / 2).max(5) as f64, 8, Driver::Engine);
        let mut joined: BTreeMap<u64, u64> = BTreeMap::new();
        let mut leaves = 0u64;
        for e in iter_events(&events) {
            match e.kind {
                TraceEventKind::BatchJoin { request, iteration, .. } => {
                    joined.insert(request, iteration);
                }
                TraceEventKind::BatchLeave { request, model, iteration, decoded, .. } => {
                    leaves += 1;
                    let lens = TokenCard::for_model(model).sample(seed, request);
                    prop_assert_eq!(
                        decoded, lens.decode,
                        "request {} decoded a different token count than its card", request
                    );
                    let join_iter = joined
                        .remove(&request)
                        .expect("invariant: every leave was preceded by a join");
                    let resident = iteration - join_iter + 1;
                    prop_assert_eq!(
                        resident,
                        (lens.prefill_iters() + lens.decode) as u64,
                        "request {} was resident for the wrong iteration count", request
                    );
                }
                _ => {}
            }
        }
        prop_assert_eq!(
            leaves,
            result.completed.len() as u64,
            "completed requests diverge from BatchLeave spans"
        );
        prop_assert!(leaves > 0, "run retired no sequences at all");
    }

    /// Engine-reorder invariance: the serial reference and the partition
    /// engine, plus an in-process rerun, emit the bit-identical iteration
    /// event stream — same times, same sequence numbers, same payloads.
    #[test]
    fn iteration_stream_is_engine_invariant(seed in 1u64..2_000, rps in 10u64..40) {
        let run = |driver| run_llm(seed, rps as f64, 8.0, 6, driver);
        let (r1, e1) = run(Driver::Reference);
        let (r2, e2) = run(Driver::Engine);
        let (r2b, e2b) = run(Driver::Engine);
        prop_assert_eq!(&e1, &e2, "reference vs engine trace streams diverge");
        prop_assert_eq!(&e2, &e2b, "in-process rerun diverges");
        prop_assert_eq!(&r1.completed, &r2.completed);
        prop_assert_eq!(&r2.completed, &r2b.completed);
    }
}
