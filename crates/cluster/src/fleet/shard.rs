//! Sharded fleet execution: partition the tenants across independent
//! event loops and synchronize only at cross-partition events.
//!
//! Between fault edges, an **elastic** fleet (`units_per_kind ==
//! u32::MAX`) has no cross-tenant coupling at all: the policy's catalog
//! never filters on leased units, worker state is tenant-owned, and the
//! only shared mutable state — the `unavailable` kind list — changes
//! exclusively at compiled fault-edge instants. That makes the fault edges
//! a complete set of synchronization points, so the run decomposes into
//! *epochs*:
//!
//! 1. chunk the deployments contiguously into `shards` groups, each its
//!    own harness + [`paldia_sim::PartitionCalendar`] + arrival streams
//!    (an [`paldia_sim::ArrivalFeed`] sampled inside the shard);
//! 2. run every shard up to the next edge's [`EventKey`] bound (exclusive
//!    at `(edge.at, 0)`, i.e. *before* anything else at that instant) on
//!    the `paldia_core::pool` worker pool;
//! 3. apply the edge through each shard's own fault handler, in shard
//!    order: node crashes thread the canonical crash bookkeeping from
//!    shard to shard (so every failover sees exactly the kinds the earlier
//!    tenants took down) and then broadcast it; degradation, straggler and
//!    storm windows fan out unchanged;
//! 4. repeat until the horizon, then fold per-tenant results back in
//!    global deployment order.
//!
//! Determinism does not depend on the pool: shard interiors are
//! independent, barriers are total, and every merge below walks shards in
//! index order. The shard count therefore never changes results —
//! enforced by `tests/fleet_sharded.rs` and the shard-invariance
//! proptests — and `PALDIA_JOBS`/`--jobs` only changes wall-clock.
//!
//! Worker and batch ids live in per-tenant namespaces (see
//! [`crate::harness`]), so a tenant's ids are identical no matter which
//! shard it lands in. The coordinator forks every stream's generator and
//! assigns its request-id block before sharding (RNG forks are impure, so
//! forking stays serial); each shard then samples its own arrivals, one
//! trace bin at a time, inside its pool job.
//!
//! Non-elastic fleets (finite inventory) couple tenants at *every*
//! lease/release, so [`run_fleet_sharded`] runs them as one partition with
//! the fault edges on its own calendar, exactly like [`super::run_fleet`];
//! likewise for single-tenant fleets, where there is nothing to split.

use std::sync::Mutex;

use paldia_hw::Catalog;
use paldia_obs::{merge_streams, TraceEventKind, TraceSink, Tracer, VecSink};
use paldia_sim::{pool, EventKey};

use super::{fleet_tenants, run_unsharded, FleetDeployment};
use crate::arrivals::Sampler;
use crate::config::SimConfig;
use crate::faults::{FaultEdge, FaultKind};
use crate::harness::{trace_end, trace_fault_edge, Harness, Partition};
use crate::result::RunResult;

/// [`super::run_fleet`] with an explicit shard count.
///
/// Tenants split into shards whenever that is legal — elastic inventory
/// (`units_per_kind == u32::MAX`) and more than one deployment; otherwise
/// the fleet runs as one partition, exactly as [`super::run_fleet`] runs
/// it. Split runs are **invariant across shard counts** (including 1), and
/// for clean elastic runs bit-identical to [`super::run_fleet`]; under
/// faults the coordinator applies each fault edge before every other event
/// at its instant, while [`super::run_fleet`] orders edges among them by
/// sequence number, so compare split runs against each other, not against
/// [`super::run_fleet`].
pub fn run_fleet_sharded(
    deployments: Vec<FleetDeployment>,
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &SimConfig,
    shards: u32,
) -> Vec<RunResult> {
    run_fleet_sharded_stats(deployments, catalog, units_per_kind, cfg, shards).0
}

/// [`run_fleet_sharded`] plus the number of events dispatched, summed over
/// all shards (or the one partition) — the throughput denominator for
/// stress reporting. Superseded device wakes are dropped by the partition
/// calendar, never dispatched, so they are not counted.
pub fn run_fleet_sharded_stats(
    mut deployments: Vec<FleetDeployment>,
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &SimConfig,
    shards: u32,
) -> (Vec<RunResult>, u64) {
    if units_per_kind != u32::MAX || deployments.len() <= 1 {
        return run_unsharded(
            &mut deployments,
            catalog,
            units_per_kind,
            cfg,
            Tracer::disabled(),
        );
    }
    let k = chunk_count(deployments.len(), shards);
    let mut tracers = Vec::new();
    tracers.resize_with(k, Tracer::disabled);
    drive(&mut deployments, catalog, cfg, tracers, Tracer::disabled())
}

/// [`super::run_fleet_traced`] with an explicit shard count. Each shard
/// records into its own stream; the streams are folded into `sink` by
/// [`merge_streams`] — ordered by `(at, scope)`, so the merged stream is
/// invariant across shard counts apart from the `RunSummary` dispatched-
/// event count (each shard runs its own keep-alive chain).
pub fn run_fleet_traced_sharded(
    mut deployments: Vec<FleetDeployment>,
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &SimConfig,
    sink: &mut dyn TraceSink,
    shards: u32,
) -> Vec<RunResult> {
    if units_per_kind != u32::MAX || deployments.len() <= 1 {
        return super::run_fleet_traced(deployments, catalog, units_per_kind, cfg, sink);
    }
    let k = chunk_count(deployments.len(), shards);
    let mut shard_sinks: Vec<VecSink> = Vec::new();
    shard_sinks.resize_with(k, VecSink::new);
    let mut coord_sink = VecSink::new();
    let (results, _events) = {
        let tracers: Vec<Tracer<'_>> = shard_sinks.iter_mut().map(|s| Tracer::new(s)).collect();
        let coord = Tracer::new(&mut coord_sink);
        drive(&mut deployments, catalog, cfg, tracers, coord)
    };
    let mut streams = vec![coord_sink.into_events()];
    streams.extend(shard_sinks.into_iter().map(VecSink::into_events));
    merge_streams(streams, sink);
    results
}

/// Number of chunks: never more than one per tenant, never zero.
fn chunk_count(tenants: usize, shards: u32) -> usize {
    (shards.max(1) as usize).min(tenants).max(1)
}

/// Contiguous chunk sizes: `n` tenants into `k` chunks, sizes differing by
/// at most one, earlier chunks larger.
fn chunk_sizes(n: usize, k: usize) -> impl Iterator<Item = usize> {
    let (base, rem) = (n / k, n % k);
    (0..k).map(move |i| base + usize::from(i < rem))
}

/// The coordinator: build shards, run epochs between fault edges, apply
/// edges at the barriers, and assemble results in global deployment order.
fn drive<'a>(
    deployments: &'a mut [FleetDeployment],
    catalog: Catalog,
    cfg: &'a SimConfig,
    tracers: Vec<Tracer<'a>>,
    mut coord: Tracer<'a>,
) -> (Vec<RunResult>, u64) {
    let (tenants, workloads) = fleet_tenants(deployments, cfg, coord.enabled());
    let trace_end = trace_end(workloads.iter().copied());
    let horizon = trace_end + cfg.drain_grace;
    let n = workloads.len();
    let mut tenants = tenants.into_iter();
    let mut sampler = Sampler::new(cfg.seed);
    let mut base = 0;
    let shards: Vec<Mutex<Partition<'a, 'a>>> = chunk_sizes(n, tracers.len())
        .zip(tracers)
        .map(|(size, tracer)| {
            let chunk = tenants.by_ref().take(size).collect();
            let harness = Harness::new(cfg, catalog.clone(), u32::MAX, chunk, trace_end, tracer);
            let own = &workloads[base..base + size];
            // Fault edges are not seeded: the coordinator owns them.
            let part = Partition::new(harness, &mut sampler, base, own, false);
            base += size;
            Mutex::new(part)
        })
        .collect();
    let faults = cfg.faults.compile(horizon);

    // Epoch loop: run to each edge instant, then apply the edges there.
    let run_all_to = |bound: EventKey| -> u64 {
        pool::run_indexed(shards.len(), |i| lock(&shards[i]).run_to(bound))
            .iter()
            .sum()
    };
    let mut engine_events: u64 = 0;
    let mut cursor = 0;
    while cursor < faults.events.len() {
        let at = faults.events[cursor].at;
        if at >= horizon {
            break;
        }
        engine_events += run_all_to(EventKey::new(at, 0));
        while cursor < faults.events.len() && faults.events[cursor].at == at {
            let idx = cursor;
            cursor += 1;
            let fe = faults.events[idx];
            trace_fault_edge(&mut coord, &faults, idx, at);
            let crash = matches!(faults.windows[fe.window].fault, FaultKind::NodeCrash)
                && fe.edge == FaultEdge::Start;
            if crash {
                // Thread the crash bookkeeping through the shards in
                // tenant order, then hand every shard the final state.
                let (mut unavailable, mut failed) = lock(&shards[0]).harness.crash_state(fe.window);
                for shard in &shards {
                    let mut s = lock(shard);
                    s.harness.set_crash_state(fe.window, unavailable, failed);
                    s.apply_fault_edge(idx, at);
                    (unavailable, failed) = s.harness.crash_state(fe.window);
                }
                for shard in &shards {
                    let mut s = lock(shard);
                    s.harness
                        .set_crash_state(fe.window, unavailable.clone(), failed.clone());
                }
            } else {
                for shard in &shards {
                    lock(shard).apply_fault_edge(idx, at);
                }
            }
        }
    }
    engine_events += run_all_to(EventKey::new(horizon, 0));

    coord.set_scope(0);
    coord.emit(horizon, || TraceEventKind::RunSummary {
        events: engine_events,
        horizon,
    });

    let mut results = Vec::with_capacity(n);
    for shard in shards {
        let part = shard
            .into_inner()
            .expect("invariant: shard mutexes are never poisoned (pool jobs catch panics)");
        results.extend(part.harness.into_results(horizon));
    }
    (results, engine_events)
}

fn lock<'m, 'a>(
    shard: &'m Mutex<Partition<'a, 'a>>,
) -> std::sync::MutexGuard<'m, Partition<'a, 'a>> {
    shard
        .lock()
        .expect("invariant: shard mutexes are never poisoned (pool jobs catch panics)")
}
