//! The end-to-end cluster simulation: gateway → batching → dispatch →
//! autoscaled containers → shared device, driven by a [`Scheduler`] policy.
//!
//! One call to [`run_simulation`] plays one scheme against one (multi-model)
//! workload over one trace and returns the [`RunResult`] the metrics layer
//! consumes. The event flow mirrors Fig. 2 of the paper:
//!
//! * request **arrivals** (sampled from the rate traces one trace bin at a
//!   time as the run reaches it, see [`crate::arrivals`]) enter the
//!   per-model batchers (④);
//! * closed batches are dispatched to the worker selected by the Hardware
//!   Selection module (②/③) and admitted under the Job Distribution caps
//!   (⑥) — spatial (MPS) up to the cap, queued (time-shared) beyond it;
//! * the **autoscaler** (⑤) reacts to container shortage, pre-warms on the
//!   EWMA prediction, and reaps idle containers after the keep-alive;
//! * every monitor interval the policy observes backlogs/rates and may
//!   request a hardware transition, which is performed in the background
//!   and switched to only when the new node's containers are warm;
//! * injected faults ([`crate::faults`]) fire as ordinary events: node
//!   crashes evict and requeue work on the [`crate::faults::FailoverPolicy`]
//!   replacement (Fig. 13b), MPS degradation slows the device, stragglers
//!   stretch cold starts, and storms purge warm containers.
//!
//! # One harness for every run
//!
//! The `Harness` is tenant-indexed: it serves a vector of `Tenant`s,
//! each with its own gateway, predictors, scheduler and accounting, over
//! node leases drawn from a shared per-kind inventory. A single-tenant run
//! (and the incremental [`crate::session::SimSession`]) is a fleet of one
//! over elastic inventory (`u32::MAX` units per kind); [`crate::fleet`]
//! runs many tenants, as one partition or split across shards. Every run
//! is driven by the partition engine ([`run_partition`]; the session steps
//! the same calendar itself). What differs between the entry points is
//! data, never behaviour:
//!
//! * the trace scope — 0 for single-tenant runs, `1 + global tenant index`
//!   for fleet tenants;
//! * the result label — the scheme name, or `"{scheme} [{tenant}]"`;
//! * the id namespaces — worker ids are `(tenant << 20) | ordinal` and
//!   batch ids `(tenant << 48) | ordinal`, so tenant 0's ids are plain
//!   ordinals and every tenant's ids are independent of how tenants are
//!   grouped into shards.

use crate::arrivals::{ArrivalMerge, Sampler};
use crate::batcher::Batcher;
use crate::config::SimConfig;
use crate::container::ContainerId;
use crate::device::{DeviceMode, IterSeq};
use crate::faults::{CompiledFaults, FailoverPolicy, FaultEdge, FaultKind};
use crate::policy::{Decision, ModelObs, Observation, Scheduler};
use crate::request::{Batch, BatchId, CompletedRequest, Request, RequestId};
use crate::result::{NodeStat, RunResult};
use crate::worker::{Worker, WorkerId, WorkerState};
use paldia_hw::{Catalog, CostMeter, InstanceKind};
use paldia_obs::{BatchTrigger, TraceEventKind, TraceSink, Tracer};
use paldia_sim::{
    run_partition, Calendar, EventKey, EventQueue, PartitionCalendar, PartitionWorld, SimDuration,
    SimTime, WakeEvent,
};
use paldia_traces::{Predictor, RateTrace, RateWindow};
use paldia_workloads::tokens::{iteration_ms, TokenCard};
use paldia_workloads::{MlModel, Profile};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// One workload: a model plus its (already scaled) arrival-rate trace.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// The model served.
    pub model: MlModel,
    /// Arrival-rate trace, already scaled to the intended peak/mean.
    pub trace: RateTrace,
}

impl WorkloadSpec {
    /// Convenience constructor.
    pub fn new(model: MlModel, trace: RateTrace) -> Self {
        WorkloadSpec { model, trace }
    }
}

/// Events of the cluster simulation, tagged with the owning tenant (index
/// into the harness's tenant vector) where the worker id does not already
/// name it.
pub(crate) enum Ev {
    /// A request reaching a tenant's gateway; it arrives at the event's
    /// firing time. The payload is kept to 16 bytes: a session's injected
    /// arrivals sit on the heap, and rails store one per arrival.
    Arrival {
        tenant: u32,
        id: RequestId,
        model: MlModel,
    },
    BatchDeadline(usize, MlModel),
    DeviceWake {
        worker: WorkerId,
        version: u64,
    },
    ContainerReady {
        worker: WorkerId,
        container: ContainerId,
    },
    WorkerReady(usize, WorkerId),
    MonitorTick(usize),
    PredictTick(usize),
    KeepAliveTick,
    /// A compiled fault edge; index into [`CompiledFaults::events`].
    Fault(usize),
    /// Iteration boundary on an iteration-level worker: residents advance
    /// one step, finished sequences leave, waiters may join. `version`
    /// guards against ticks armed before an eviction.
    IterTick {
        worker: WorkerId,
        version: u64,
    },
}

impl WakeEvent for Ev {
    fn make_wake(worker: u32, version: u64) -> Self {
        Ev::DeviceWake {
            worker: WorkerId(worker),
            version,
        }
    }
}

/// Worker ordinals per tenant namespace: ids are `(tenant << 20) | n`.
const WORKER_NS_BITS: u32 = 20;

/// The worker ids a tenant's namespace spans.
fn worker_range(gdep: u32) -> RangeInclusive<WorkerId> {
    let base = gdep << WORKER_NS_BITS;
    WorkerId(base)..=WorkerId(base | ((1 << WORKER_NS_BITS) - 1))
}

/// One deployment's live state: its gateway (batchers, rate windows,
/// predictors), its policy, the node it routes to, and its accounting.
pub(crate) struct Tenant<'a> {
    scheduler: &'a mut dyn Scheduler,
    /// Fleet tenant name; results read `"{scheme} [{label}]"`. `None` for
    /// single-tenant runs, whose results carry the bare scheme name.
    label: Option<String>,
    /// Trace scope stamped on this tenant's events.
    scope: u32,
    /// Global tenant index: the worker/batch id namespace.
    gdep: u32,
    /// Node requested to start warm on (leased from the inventory).
    initial_hw: InstanceKind,
    routing: WorkerId,
    pending_worker: Option<WorkerId>,
    next_worker: u32,
    next_batch: u64,
    batchers: BTreeMap<MlModel, Batcher>,
    deadline_at: BTreeMap<MlModel, Option<SimTime>>,
    windows: BTreeMap<MlModel, RateWindow>,
    predictors: BTreeMap<MlModel, Box<dyn Predictor>>,
    models: Vec<MlModel>,
    last_decision: Decision,
    completed: Vec<CompletedRequest>,
    arrived: BTreeMap<MlModel, u64>,
    completed_count: BTreeMap<MlModel, u64>,
    cost: CostMeter,
    nodes: Vec<NodeStat>,
    cold_starts: u64,
    transitions: u64,
    hw_timeline: Vec<(f64, InstanceKind)>,
}

impl<'a> Tenant<'a> {
    /// A tenant serving `models`, global index `gdep`. Labelled (fleet)
    /// tenants trace at scope `1 + gdep`; unlabelled ones at scope 0.
    pub(crate) fn new(
        scheduler: &'a mut dyn Scheduler,
        models: Vec<MlModel>,
        initial_hw: InstanceKind,
        gdep: usize,
        label: Option<String>,
        cfg: &SimConfig,
    ) -> Self {
        assert!(
            gdep < 1 << (32 - WORKER_NS_BITS),
            "at most 4096 tenants fit the worker id namespace"
        );
        let gdep = gdep as u32;
        let window = cfg.provision_delay.max(SimDuration::from_secs(2));
        Tenant {
            scheduler,
            scope: if label.is_some() { gdep + 1 } else { 0 },
            label,
            gdep,
            initial_hw,
            routing: WorkerId(0),
            pending_worker: None,
            next_worker: 0,
            next_batch: 0,
            batchers: models
                .iter()
                .map(|&m| {
                    (
                        m,
                        Batcher::new(m, Profile::default_batch(m), cfg.batch_window),
                    )
                })
                .collect(),
            deadline_at: BTreeMap::new(),
            windows: models
                .iter()
                .map(|&m| (m, RateWindow::new(window)))
                .collect(),
            predictors: models.iter().map(|&m| (m, cfg.predictor.build())).collect(),
            models,
            last_decision: Decision::stay(initial_hw),
            completed: Vec::new(),
            arrived: BTreeMap::new(),
            completed_count: BTreeMap::new(),
            cost: CostMeter::new(),
            nodes: Vec::new(),
            cold_starts: 0,
            transitions: 0,
            hw_timeline: Vec::new(),
        }
    }

    /// Run `f` on `model`'s batcher with this tenant's batch-id allocator.
    fn with_batcher<R>(
        &mut self,
        model: MlModel,
        f: impl FnOnce(&mut Batcher, &mut dyn FnMut() -> BatchId) -> R,
    ) -> R {
        let base = u64::from(self.gdep) << 48;
        let mut next = self.next_batch;
        let b = self
            .batchers
            .get_mut(&model)
            .expect("invariant: batchers are registered for every model at construction");
        let out = f(b, &mut || {
            next += 1;
            BatchId(base | next)
        });
        self.next_batch = next;
        out
    }

    /// Fold the tenant's terminal state into its [`RunResult`].
    fn into_result(mut self, trace_end: SimTime) -> RunResult {
        let total_arrived: u64 = self.arrived.values().sum();
        let total_completed: u64 = self.completed_count.values().sum();
        let mut arrived: Vec<(MlModel, u64)> = self.arrived.iter().map(|(&m, &n)| (m, n)).collect();
        arrived.sort_by_key(|&(m, _)| m.index());
        let name = self.scheduler.name();
        RunResult {
            scheme: match &self.label {
                Some(label) => format!("{name} [{label}]"),
                None => name.to_string(),
            },
            completed: std::mem::take(&mut self.completed),
            unserved: total_arrived.saturating_sub(total_completed),
            arrived_per_model: arrived,
            cost: self.cost.clone(),
            nodes: std::mem::take(&mut self.nodes),
            cold_starts: self.cold_starts,
            transitions: self.transitions,
            hw_timeline: std::mem::take(&mut self.hw_timeline),
            trace_duration: trace_end - SimTime::ZERO,
        }
    }
}

pub(crate) struct Harness<'a> {
    cfg: &'a SimConfig,
    catalog: Catalog,
    /// Units available per kind (`u32::MAX` = elastic; the paper's cluster
    /// owns 1 of each).
    inventory: u32,
    tenants: Vec<Tenant<'a>>,
    /// All live workers, with their owning tenant's index.
    workers: BTreeMap<WorkerId, (u32, Worker)>,
    trace_end: SimTime,

    /// Compiled fault schedule for this run.
    faults: CompiledFaults,
    /// Failover rule applied on node crashes (shared by all tenants).
    failover: Box<dyn FailoverPolicy>,
    /// Kinds taken out by open crash windows.
    unavailable: Vec<InstanceKind>,
    /// Kinds each open crash window took down, for its End to restore.
    crash_restore: BTreeMap<usize, Vec<InstanceKind>>,
    /// Open degradation windows: (window index, severity).
    active_degrades: Vec<(usize, f64)>,
    /// Open straggler windows: (window index, multiplier).
    active_straggles: Vec<(usize, f64)>,

    /// Observability hook; `Tracer::disabled()` for untraced runs. Tenant
    /// events carry their tenant's scope, run-global ones scope 0.
    tracer: Tracer<'a>,
}

/// Build the iteration-level sequence for a request on the given hardware.
/// Token lengths are a pure hash of `(seed, request id)`
/// ([`TokenCard::sample`]), so every layer — the gateway's service hints,
/// the worker engine, a failover re-make after KV state is lost — derives
/// identical lengths without any shared sampling state. The bandwidth share
/// is the model's per-item slice of its default batch; `solo_ms` is the
/// sequence running alone (batch-size-1 iterations), the baseline the
/// slowdown metrics normalize against.
fn make_seq(seed: u64, r: &Request, closed_at: SimTime, kind: InstanceKind) -> IterSeq {
    let lens = TokenCard::for_model(r.model).sample(seed, r.id.0);
    let share =
        Profile::effective_share(r.model, kind) / Profile::default_batch(r.model).max(1) as f64;
    let solo_ms = lens.total_iters() as f64 * iteration_ms(r.model, kind, 1);
    IterSeq {
        request: r.id,
        model: r.model,
        arrival: r.arrival,
        closed_at,
        prefill_left: lens.prefill_iters(),
        decode_left: lens.decode,
        decode_total: lens.decode,
        kv_tokens: lens.kv_tokens(),
        share,
        solo_ms,
    }
}

/// Re-make a sequence for new hardware (full restart: the pure-hash token
/// lengths come back identical, the KV footprint is re-reserved, prefill
/// begins again).
fn remake_seq(seed: u64, s: &IterSeq, kind: InstanceKind) -> IterSeq {
    let r = Request {
        id: s.request,
        model: s.model,
        arrival: s.arrival,
    };
    make_seq(seed, &r, s.closed_at, kind)
}

/// Trace a compiled fault edge (run-global: scope 0).
pub(crate) fn trace_fault_edge(
    tracer: &mut Tracer<'_>,
    faults: &CompiledFaults,
    idx: usize,
    now: SimTime,
) {
    let fe = faults.events[idx];
    let fault = faults.windows[fe.window].fault;
    let win = fe.window as u32;
    let started = fe.edge == FaultEdge::Start;
    tracer.set_scope(0);
    tracer.emit(now, || TraceEventKind::FaultEdge {
        window: win,
        desc: format!("{fault:?}"),
        started,
    });
}

impl<'a> Harness<'a> {
    /// A harness over `tenants` drawing from `inventory` units per catalog
    /// kind, with no events scheduled yet (see [`Harness::seed_calendar`]).
    /// The fault schedule is compiled against the run horizon
    /// `trace_end + cfg.drain_grace`.
    pub(crate) fn new(
        cfg: &'a SimConfig,
        catalog: Catalog,
        inventory: u32,
        tenants: Vec<Tenant<'a>>,
        trace_end: SimTime,
        tracer: Tracer<'a>,
    ) -> Self {
        assert!(inventory >= 1, "inventory must be positive");
        Harness {
            cfg,
            catalog,
            inventory,
            tenants,
            workers: BTreeMap::new(),
            trace_end,
            faults: cfg.faults.compile(trace_end + cfg.drain_grace),
            failover: cfg.failover.build(),
            unavailable: Vec::new(),
            crash_restore: BTreeMap::new(),
            active_degrades: Vec::new(),
            active_straggles: Vec::new(),
            tracer,
        }
    }

    /// Point the tracer at a tenant's scope before emitting its events.
    fn trace_scope(&mut self, dep: usize) {
        self.tracer.set_scope(self.tenants[dep].scope);
    }

    fn has_free_unit(&self, kind: InstanceKind) -> bool {
        self.inventory == u32::MAX
            || (self
                .workers
                .values()
                .filter(|(_, w)| w.kind == kind)
                .count() as u32)
                < self.inventory
    }

    /// True if a new node of `kind` can be leased now: offered, not taken
    /// out by an open crash window, with a free unit.
    fn can_lease(&self, kind: InstanceKind) -> bool {
        self.catalog.contains(kind) && !self.unavailable.contains(&kind) && self.has_free_unit(kind)
    }

    /// The kinds a tenant's policy may choose from: every leasable kind,
    /// plus kinds the tenant already holds (its own lease counts as a free
    /// unit for itself).
    fn available_for(&self, dep: usize) -> Catalog {
        let range = worker_range(self.tenants[dep].gdep);
        let kinds: Vec<InstanceKind> = self
            .catalog
            .kinds()
            .iter()
            .copied()
            .filter(|&k| {
                !self.unavailable.contains(&k)
                    && (self.has_free_unit(k)
                        || self
                            .workers
                            .range(range.clone())
                            .any(|(_, (_, w))| w.kind == k))
            })
            .collect();
        Catalog::of(&kinds)
    }

    /// Spawn a worker lease for a tenant and schedule its readiness.
    fn provision_worker<C: Calendar<Ev>>(
        &mut self,
        dep: usize,
        kind: InstanceKind,
        now: SimTime,
        delay: SimDuration,
        q: &mut C,
    ) -> WorkerId {
        let t = &mut self.tenants[dep];
        let id = WorkerId((t.gdep << WORKER_NS_BITS) | t.next_worker);
        t.next_worker += 1;
        // Co-located CPU-bound workloads steal host cycles. On CPU-only
        // nodes the contention hits inference directly; on GPU nodes only
        // the host-side staging/batching slows, so the effect is dampened —
        // the Table III asymmetry ("especially pronounced … on CPU-only
        // nodes", with the (P) schemes nearly untouched).
        let raw_contention = self.cfg.sebs_mix.contention_factor(kind.host_vcpus());
        let host_contention = if kind.is_gpu() {
            raw_contention * 0.3
        } else {
            raw_contention
        };
        let mut w = Worker::provision(
            id,
            kind,
            now,
            delay,
            self.cfg.initial_containers,
            self.cfg.cold_start,
            self.cfg.keep_alive,
            host_contention,
        );
        // Faults already in progress apply to the newcomer too.
        let sev = self.degrade_severity();
        if sev > 0.0 {
            w.set_degradation(now, sev);
        }
        let mult = self.straggle_multiplier();
        if mult > 1.0 {
            w.set_cold_start_multiplier(mult);
        }
        if self.cfg.device_mode == DeviceMode::IterativeBatch {
            w.set_iterative(host_contention);
        }
        self.workers.insert(id, (dep as u32, w));
        q.schedule(now + delay, Ev::WorkerReady(dep, id));
        let ready_at = now + delay;
        self.trace_scope(dep);
        self.tracer.emit(now, || TraceEventKind::WorkerProvisioned {
            worker: id.0,
            hw: kind,
            ready_at,
        });
        id
    }

    /// Release a worker: record its node stats and cost on its tenant.
    fn release_worker(&mut self, id: WorkerId, now: SimTime) {
        if let Some((dep, mut w)) = self.workers.remove(&id) {
            let dep = dep as usize;
            let kind = w.kind;
            self.trace_scope(dep);
            self.tracer.emit(now, || TraceEventKind::WorkerReleased {
                worker: id.0,
                hw: kind,
            });
            w.device.advance(now);
            let lease_s = now.saturating_since(w.lease_start).as_secs_f64();
            let t = &mut self.tenants[dep];
            t.cost.add_usage_hours(w.kind, lease_s / 3_600.0);
            t.cold_starts += w.pool.cold_starts();
            t.nodes.push(NodeStat {
                kind: w.kind,
                lease_start_s: w.lease_start.as_secs_f64(),
                lease_s,
                busy_s: w.device.busy_seconds() + w.iter_busy_seconds(),
            });
        }
    }

    /// Admit ready work on a worker, run the reactive autoscaler, and
    /// schedule the worker's next event: a device wake-up for request-level
    /// batches, or — on an iteration-level worker with residents and no
    /// iteration in flight — the next iteration's boundary tick. Joins and
    /// leaves of iteration-level sequences only ever happen here and in the
    /// [`Ev::IterTick`] handler, never mid-iteration.
    fn sync_worker<C: Calendar<Ev>>(&mut self, id: WorkerId, now: SimTime, q: &mut C) {
        let Some((dep, w)) = self.workers.get_mut(&id) else {
            return;
        };
        let t = &self.tenants[*dep as usize];
        self.tracer.set_scope(t.scope);
        let iterative = w.is_iterative();
        let container_short = if iterative {
            w.iter_try_joins(now, &mut self.tracer)
        } else {
            w.admit_ready(now, &mut self.tracer).1
        };
        if container_short && w.is_active() {
            // Reactive scale-up: one container per queued-but-unhosted
            // batch, or per waiting sequence (each resident sequence holds
            // one container).
            let queued: u32 = if iterative {
                w.iter_waiting()
            } else {
                t.models.iter().map(|&m| w.queued(m) as u32).sum()
            };
            let free = w.pool.warm_free();
            let provisioned = w.pool.len() as u32;
            let busy = w.pool.busy();
            let booting = provisioned.saturating_sub(free + busy);
            let deficit = queued.saturating_sub(free + booting);
            for _ in 0..deficit {
                let (cid, ready) = w.pool.spawn(now);
                self.tracer.emit(now, || TraceEventKind::ColdStartBegan {
                    worker: id.0,
                    container: cid.0,
                    ready_at: ready,
                });
                q.schedule(
                    ready,
                    Ev::ContainerReady {
                        worker: id,
                        container: cid,
                    },
                );
            }
        }
        if iterative {
            if let Some((dur, version)) = w.iter_begin(now, &mut self.tracer) {
                q.schedule(
                    now + dur,
                    Ev::IterTick {
                        worker: id,
                        version,
                    },
                );
            }
        } else if let Some(t) = w.device.next_completion() {
            let version = w.device.version();
            // Guarantee forward progress even under µs rounding.
            let at = if t <= now {
                now + SimDuration::from_micros(1)
            } else {
                t
            };
            q.arm_wake(id.0, at, version);
        }
        // Draining worker finished? Release it.
        if w.state == WorkerState::Draining && w.is_idle() {
            self.release_worker(id, now);
        }
    }

    /// Route a closed batch to the tenant's current routing target.
    fn dispatch<C: Calendar<Ev>>(&mut self, dep: usize, batch: Batch, now: SimTime, q: &mut C) {
        let target = self.tenants[dep].routing;
        if let Some((_, w)) = self.workers.get_mut(&target) {
            let (batch_id, model, hw) = (batch.id.0, batch.model, w.kind);
            self.tracer.set_scope(self.tenants[dep].scope);
            self.tracer.emit(now, || TraceEventKind::BatchDispatched {
                batch: batch_id,
                model,
                worker: target.0,
                hw,
            });
            if w.is_iterative() {
                // The batch dissolves at the worker: each request becomes a
                // sequence that joins and leaves the running batch on its
                // own schedule (iteration-level execution).
                let seed = self.cfg.seed;
                for r in &batch.requests {
                    w.enqueue_seq(make_seq(seed, r, batch.closed_at, hw));
                }
            } else {
                w.enqueue(batch);
            }
        }
        self.sync_worker(target, now, q);
    }

    /// Trace a batch closing at a tenant's gateway (size or window trigger),
    /// then dispatch it.
    fn close_batch<C: Calendar<Ev>>(
        &mut self,
        dep: usize,
        batch: Batch,
        now: SimTime,
        trigger: BatchTrigger,
        q: &mut C,
    ) {
        self.trace_scope(dep);
        self.tracer.emit(now, || TraceEventKind::BatchFormed {
            batch: batch.id.0,
            model: batch.model,
            size: batch.size(),
            requests: batch.requests.iter().map(|r| r.id.0).collect(),
            trigger,
        });
        self.dispatch(dep, batch, now, q);
    }

    /// Schedule (or refresh) the batch-window deadline for a model. The
    /// deadline is clamped to `now`: a held-back partial batch (SLO-aware
    /// batching) can have an oldest request whose window expired in the
    /// past.
    fn ensure_deadline<C: Calendar<Ev>>(
        &mut self,
        dep: usize,
        model: MlModel,
        now: SimTime,
        q: &mut C,
    ) {
        let t = &mut self.tenants[dep];
        let next = t.batchers.get(&model).and_then(|b| b.next_deadline());
        let slot = t.deadline_at.entry(model).or_insert(None);
        match next {
            Some(d) => {
                let at = d.max(now);
                if *slot != Some(at) {
                    *slot = Some(at);
                    q.schedule(at, Ev::BatchDeadline(dep, model));
                }
            }
            None => *slot = None,
        }
    }

    /// Effective batch size for a model on the given hardware: the policy's
    /// ask, clamped to what the node can execute within the SLO (the CPU
    /// batched mode adapts batch sizes, §IV-D).
    fn effective_batch_size(&self, model: MlModel, requested: u32, hw: InstanceKind) -> u32 {
        let budget = 0.8 * self.cfg.slo_ms;
        let cap = Profile::max_batch_within(model, hw, budget).unwrap_or(1);
        requested.clamp(1, cap.max(1))
    }

    /// Apply a tenant's scheduling decision: caps and batch sizes now,
    /// hardware transition in the background.
    fn apply_decision<C: Calendar<Ev>>(
        &mut self,
        dep: usize,
        decision: Decision,
        now: SimTime,
        q: &mut C,
    ) {
        let routing = self.tenants[dep].routing;
        let have = self.workers[&routing].1.kind;
        // 1. Batch sizes at the gateway.
        for &(model, md) in &decision.per_model {
            let bs = self.effective_batch_size(model, md.batch_size, have);
            if let Some(b) = self.tenants[dep].batchers.get_mut(&model) {
                b.set_batch_size(bs);
            }
        }
        // 2. Sharing caps on the live worker(s).
        let per_model: Vec<(MlModel, u32)> = decision
            .per_model
            .iter()
            .map(|&(m, md)| (m, md.spatial_cap))
            .collect();
        for id in [Some(routing), self.tenants[dep].pending_worker]
            .into_iter()
            .flatten()
        {
            if let Some((_, w)) = self.workers.get_mut(&id) {
                w.set_caps(decision.total_cap, &per_model);
            }
            self.sync_worker(id, now, q);
        }
        // 3. Hardware transition. A request to upgrade *past* an in-flight
        // transition target abandons the pending node (a surge outgrew the
        // rung committed to moments ago) and provisions the new one; the
        // abandoned lease is still billed for its short life.
        let want = decision.hw;
        if want != have && self.can_lease(want) {
            let retarget = match self.tenants[dep].pending_worker {
                None => true,
                Some(pid) => {
                    let pending_kind = self.workers.get(&pid).map(|(_, w)| w.kind);
                    let upgrade_past_pending = pending_kind.is_some_and(|pk| {
                        want != pk && want.performance_index() > pk.performance_index()
                    });
                    if upgrade_past_pending {
                        self.trace_scope(dep);
                        self.tracer.emit(now, || TraceEventKind::TransitionEnded {
                            worker: pid.0,
                            committed: false,
                        });
                        self.release_worker(pid, now);
                        self.tenants[dep].pending_worker = None;
                    }
                    upgrade_past_pending
                }
            };
            if retarget {
                let id = self.provision_worker(dep, want, now, self.cfg.provision_delay, q);
                self.tracer.emit(now, || TraceEventKind::TransitionBegan {
                    worker: id.0,
                    from: have,
                    to: want,
                });
                if let Some((_, w)) = self.workers.get_mut(&id) {
                    w.set_caps(decision.total_cap, &per_model);
                }
                self.tenants[dep].pending_worker = Some(id);
            }
        }
        self.tenants[dep].last_decision = decision;
    }

    fn observation(&mut self, dep: usize, now: SimTime) -> Observation {
        let lookahead_steps =
            self.cfg.provision_delay.as_secs_f64() / self.cfg.monitor_interval.as_secs_f64();
        let available = self.available_for(dep);
        let t = &mut self.tenants[dep];
        let routing = self.workers.get(&t.routing).map(|(_, w)| w);
        let mut models = Vec::with_capacity(t.models.len());
        for &m in &t.models {
            let observed = t.windows.get_mut(&m).map_or(0.0, |w| w.estimate(now));
            let predictor = t
                .predictors
                .get_mut(&m)
                .expect("invariant: predictors are registered for every model at construction");
            predictor.observe(observed);
            let predicted = predictor.predict(lookahead_steps);
            let pending_batcher = t.batchers.get(&m).map_or(0, |b| b.pending() as u64);
            let pending_queued: u64 = self
                .workers
                .range(worker_range(t.gdep))
                .map(|(_, (_, w))| w.queued_requests(m))
                .sum();
            models.push(ModelObs {
                model: m,
                pending_requests: pending_batcher + pending_queued,
                executing_batches: routing.map_or(0, |w| w.executing_of(m)),
                observed_rps: observed,
                predicted_rps: predicted,
                kv_demand_tokens: routing.map_or(0, |w| w.iter_kv_demand(m)),
            });
        }
        Observation {
            now,
            slo_ms: self.cfg.slo_ms,
            current_hw: self.workers[&t.routing].1.kind,
            transitioning: t.pending_worker.is_some(),
            pending_hw: t
                .pending_worker
                .and_then(|id| self.workers.get(&id))
                .map(|(_, w)| w.kind),
            available,
            models,
        }
    }

    /// Node failure: evict a tenant's routing worker and requeue its work
    /// on the failover replacement, leased under the post-crash inventory.
    /// `failed` lists the kinds this crash window has taken down so far; a
    /// kind joins it (and the unavailable list) the first time it fails.
    fn fail_tenant<C: Calendar<Ev>>(
        &mut self,
        dep: usize,
        now: SimTime,
        q: &mut C,
        failed: &mut Vec<InstanceKind>,
    ) {
        let failed_id = self.tenants[dep].routing;
        let Some((_, w)) = self.workers.get_mut(&failed_id) else {
            return;
        };
        let failed_kind = w.kind;
        // Evicted sequences lose their KV state — they restart from
        // scratch on the replacement.
        let lost_seqs = w.drain_iter();
        let rescued = w.fail(now);
        self.release_worker(failed_id, now);
        if !failed.contains(&failed_kind) {
            failed.push(failed_kind);
            self.unavailable.push(failed_kind);
        }
        // Abort any in-flight transition targeting the failed kind.
        if let Some(pid) = self.tenants[dep].pending_worker {
            if self.workers.get(&pid).map(|(_, w)| w.kind) == Some(failed_kind) {
                self.trace_scope(dep);
                self.tracer.emit(now, || TraceEventKind::TransitionEnded {
                    worker: pid.0,
                    committed: false,
                });
                self.release_worker(pid, now);
                self.tenants[dep].pending_worker = None;
            }
        }
        let leasable: Vec<InstanceKind> = (self.catalog.kinds().iter().copied())
            .filter(|&k| self.can_lease(k))
            .collect();
        let replacement = self
            .failover
            .replacement(failed_kind, &Catalog::of(&leasable));
        let replacement_kind = replacement.unwrap_or(failed_kind);
        let policy = self.failover.name();
        self.trace_scope(dep);
        self.tracer.emit(now, || TraceEventKind::Failover {
            failed: failed_kind,
            replacement,
            policy,
        });
        let id = self.provision_worker(dep, replacement_kind, now, self.cfg.failover_delay, q);
        // Re-apply the last sharing decision to the replacement.
        let t = &mut self.tenants[dep];
        let per_model: Vec<(MlModel, u32)> = t
            .last_decision
            .per_model
            .iter()
            .map(|&(m, md)| (m, md.spatial_cap))
            .collect();
        // Re-make evicted sequences for the replacement hardware, in
        // deterministic order: arrival, then request id.
        let mut lost = lost_seqs;
        lost.sort_by_key(|s| (s.arrival, s.request.0));
        if let Some((_, w)) = self.workers.get_mut(&id) {
            w.set_caps(t.last_decision.total_cap, &per_model);
            for b in rescued {
                w.enqueue_front(b);
            }
            for s in &lost {
                w.enqueue_seq(remake_seq(self.cfg.seed, s, replacement_kind));
            }
        }
        t.routing = id;
        t.transitions += 1;
        t.hw_timeline.push((now.as_secs_f64(), replacement_kind));
    }

    /// Combined severity of every open degradation window.
    fn degrade_severity(&self) -> f64 {
        self.active_degrades.iter().map(|&(_, s)| s).sum()
    }

    /// Strongest multiplier among open straggler windows (1 = healthy).
    fn straggle_multiplier(&self) -> f64 {
        self.active_straggles
            .iter()
            .map(|&(_, m)| m)
            .fold(1.0, f64::max)
    }

    /// Worker ids in deterministic (id) order — fault effects touch every
    /// worker. `BTreeMap` keys already iterate sorted; this keeps the
    /// explicit contract at the call sites.
    fn worker_ids_sorted(&self) -> Vec<WorkerId> {
        self.workers.keys().copied().collect()
    }

    /// Push the current degradation severity to every device and refresh
    /// completion wake-ups (the slowdown changed mid-flight).
    fn apply_degradation<C: Calendar<Ev>>(&mut self, now: SimTime, q: &mut C) {
        let sev = self.degrade_severity();
        for id in self.worker_ids_sorted() {
            if let Some((_, w)) = self.workers.get_mut(&id) {
                w.set_degradation(now, sev);
            }
            self.sync_worker(id, now, q);
        }
    }

    /// Push the current straggler multiplier to every pool (affects only
    /// cold starts begun from now on — no events to refresh).
    fn apply_straggle(&mut self) {
        let mult = self.straggle_multiplier();
        for (_, w) in self.workers.values_mut() {
            w.set_cold_start_multiplier(mult);
        }
    }

    /// Apply compiled fault edge `idx` to this harness's tenants and
    /// workers. A node crash fails *every* tenant's routing worker (a
    /// correlated outage of the serving nodes), in tenant order, each
    /// failover seeing the kinds the earlier ones took down; degradation,
    /// straggler and storm windows hit every live worker. The partitioned
    /// fleet's coordinator applies edges through this same method.
    pub(crate) fn apply_fault_edge<C: Calendar<Ev>>(
        &mut self,
        idx: usize,
        now: SimTime,
        q: &mut C,
    ) {
        let fe = self.faults.events[idx];
        match (self.faults.windows[fe.window].fault, fe.edge) {
            (FaultKind::NodeCrash, FaultEdge::Start) => {
                let mut failed = self.crash_restore.remove(&fe.window).unwrap_or_default();
                for dep in 0..self.tenants.len() {
                    self.fail_tenant(dep, now, q, &mut failed);
                }
                self.crash_restore.insert(fe.window, failed);
            }
            (FaultKind::NodeCrash, FaultEdge::End) => {
                // The failed kinds come back; policies may switch back at
                // the next monitor tick.
                for kind in self.crash_restore.remove(&fe.window).unwrap_or_default() {
                    if let Some(pos) = self.unavailable.iter().position(|&k| k == kind) {
                        self.unavailable.remove(pos);
                    }
                }
            }
            (FaultKind::MpsDegrade { severity }, FaultEdge::Start) => {
                self.active_degrades.push((fe.window, severity));
                self.apply_degradation(now, q);
            }
            (FaultKind::MpsDegrade { .. }, FaultEdge::End) => {
                self.active_degrades.retain(|&(i, _)| i != fe.window);
                self.apply_degradation(now, q);
            }
            (FaultKind::Straggler { multiplier }, FaultEdge::Start) => {
                self.active_straggles.push((fe.window, multiplier));
                self.apply_straggle();
            }
            (FaultKind::Straggler { .. }, FaultEdge::End) => {
                self.active_straggles.retain(|&(i, _)| i != fe.window);
                self.apply_straggle();
            }
            (FaultKind::ColdStartStorm, FaultEdge::Start) => {
                for id in self.worker_ids_sorted() {
                    if let Some((_, w)) = self.workers.get_mut(&id) {
                        w.purge_warm_containers();
                    }
                }
            }
            (FaultKind::ColdStartStorm, FaultEdge::End) => {}
        }
    }

    /// The crash bookkeeping a crash window's edges thread across
    /// partitions: the unavailable kinds and the kinds `window` took down.
    pub(crate) fn crash_state(&self, window: usize) -> (Vec<InstanceKind>, Vec<InstanceKind>) {
        let failed = self.crash_restore.get(&window).cloned().unwrap_or_default();
        (self.unavailable.clone(), failed)
    }

    /// Overwrite the crash bookkeeping (see [`Harness::crash_state`]).
    pub(crate) fn set_crash_state(
        &mut self,
        window: usize,
        unavailable: Vec<InstanceKind>,
        failed: Vec<InstanceKind>,
    ) {
        self.unavailable = unavailable;
        self.crash_restore.insert(window, failed);
    }
}

impl<'a> Harness<'a> {
    /// Process one event. This is the single copy of the domain logic,
    /// generic over the calendar so the partition engine
    /// ([`run_partition`]), the incremental session executor
    /// ([`crate::session::SimSession`]) and the serial reference driver
    /// of the parity tests ([`crate::reference`]) drive byte-identical
    /// behaviour through the same code path.
    pub(crate) fn on_event<C: Calendar<Ev>>(&mut self, now: SimTime, ev: Ev, q: &mut C) {
        match ev {
            Ev::Arrival { tenant, id, model } => {
                let dep = tenant as usize;
                let rid = id.0;
                let req = Request {
                    id,
                    model,
                    arrival: now,
                };
                let t = &mut self.tenants[dep];
                *t.arrived.entry(model).or_insert(0) += 1;
                if let Some(w) = t.windows.get_mut(&model) {
                    w.record(now);
                }
                self.tracer.set_scope(t.scope);
                self.tracer.emit(now, || TraceEventKind::RequestArrived {
                    request: rid,
                    model,
                });
                // Iteration-level mode knows each request's token lengths up
                // front (pure hash of the request id), so the gateway hints
                // the batcher with the real service time; request-level mode
                // keeps the hint-free path bit-for-bit.
                let hint_ms = (self.cfg.device_mode == DeviceMode::IterativeBatch).then(|| {
                    TokenCard::for_model(model)
                        .sample(self.cfg.seed, rid)
                        .service_hint_ms(model)
                });
                let batch = t.with_batcher(model, |b, mut alloc| match hint_ms {
                    Some(h) => b.push_with_hint(req, h, now, &mut alloc),
                    None => b.push(req, now, &mut alloc),
                });
                if let Some(batch) = batch {
                    self.close_batch(dep, batch, now, BatchTrigger::Size, q);
                }
                self.ensure_deadline(dep, model, now, q);
            }
            Ev::BatchDeadline(dep, model) => {
                let t = &mut self.tenants[dep];
                if t.deadline_at.get(&model).copied().flatten() != Some(now) {
                    return; // stale deadline
                }
                t.deadline_at.insert(model, None);
                // SLO-aware batching: while the serving worker still has
                // batches queued, dispatching another *partial* batch only
                // adds per-batch overhead — hold the window open and let the
                // batch fill (the size trigger still fires). Without this,
                // overload degenerates into thousands of tiny batches and
                // the device's effective capacity collapses.
                let backlogged = self
                    .workers
                    .get(&t.routing)
                    .is_some_and(|(_, w)| w.queued(model) > 0);
                if backlogged {
                    let next = now + self.cfg.batch_window;
                    t.deadline_at.insert(model, Some(next));
                    q.schedule(next, Ev::BatchDeadline(dep, model));
                    return;
                }
                if let Some(batch) =
                    t.with_batcher(model, |b, mut alloc| b.flush_if_due(now, &mut alloc))
                {
                    self.close_batch(dep, batch, now, BatchTrigger::Window, q);
                }
                self.ensure_deadline(dep, model, now, q);
            }
            Ev::DeviceWake { worker, version } => {
                let Some((dep, w)) = self.workers.get_mut(&worker) else {
                    return;
                };
                if w.device.version() != version {
                    return; // occupancy changed since this wake was armed
                }
                let kind = w.kind;
                let done = w.collect_completions(now);
                let t = &mut self.tenants[*dep as usize];
                self.tracer.set_scope(t.scope);
                for (batch, started, solo_ms) in &done {
                    let (batch_id, model, size) = (batch.id.0, batch.model, batch.size());
                    let (started, solo_ms) = (*started, *solo_ms);
                    for r in &batch.requests {
                        t.completed.push(CompletedRequest {
                            id: r.id,
                            model: r.model,
                            arrival: r.arrival,
                            batch_closed: batch.closed_at,
                            exec_start: started,
                            completed: now,
                            solo_ms,
                            hw: kind,
                            batch_size: size,
                        });
                    }
                    *t.completed_count.entry(model).or_insert(0) += size as u64;
                    self.tracer.emit(now, || TraceEventKind::BatchCompleted {
                        batch: batch_id,
                        model,
                        worker: worker.0,
                        hw: kind,
                        started,
                        solo_ms,
                        size,
                    });
                }
                self.sync_worker(worker, now, q);
            }
            Ev::IterTick { worker, version } => {
                let Some((dep, w)) = self.workers.get_mut(&worker) else {
                    return;
                };
                let kind = w.kind;
                let t = &mut self.tenants[*dep as usize];
                self.tracer.set_scope(t.scope);
                let Some(retired) = w.iter_end(now, version, &mut self.tracer) else {
                    return; // stale boundary (eviction since the tick armed)
                };
                for r in &retired {
                    t.completed.push(CompletedRequest {
                        id: r.seq.request,
                        model: r.seq.model,
                        arrival: r.seq.arrival,
                        batch_closed: r.seq.closed_at,
                        exec_start: r.joined_at,
                        completed: now,
                        solo_ms: r.seq.solo_ms,
                        hw: kind,
                        batch_size: r.residents_at_join,
                    });
                    *t.completed_count.entry(r.seq.model).or_insert(0) += 1;
                }
                self.sync_worker(worker, now, q);
            }
            Ev::ContainerReady { worker, container } => {
                if let Some((dep, w)) = self.workers.get_mut(&worker) {
                    w.pool.mark_warm(container, now);
                    self.tracer.set_scope(self.tenants[*dep as usize].scope);
                    self.tracer.emit(now, || TraceEventKind::ColdStartFinished {
                        worker: worker.0,
                        container: container.0,
                    });
                }
                self.sync_worker(worker, now, q);
            }
            Ev::WorkerReady(dep, id) => {
                let Some((_, w)) = self.workers.get_mut(&id) else {
                    return;
                };
                if w.state != WorkerState::Failed {
                    w.state = WorkerState::Active;
                }
                let kind = w.kind;
                let t = &mut self.tenants[dep];
                if t.pending_worker == Some(id) {
                    // Switch routing; move queued work over; drain the old.
                    t.pending_worker = None;
                    let old = t.routing;
                    t.routing = id;
                    t.transitions += 1;
                    t.hw_timeline.push((now.as_secs_f64(), kind));
                    let from = self.workers.get(&old).map(|(_, w)| w.kind);
                    self.tracer.set_scope(t.scope);
                    self.tracer.emit(now, || TraceEventKind::TransitionEnded {
                        worker: id.0,
                        committed: true,
                    });
                    self.tracer.emit(now, || TraceEventKind::HwSwitched {
                        worker: id.0,
                        from,
                        to: kind,
                    });
                    let (moved, moved_seqs) = self
                        .workers
                        .get_mut(&old)
                        .map(|(_, w)| {
                            w.state = WorkerState::Draining;
                            // Waiting sequences move; residents keep
                            // decoding on the draining worker until they
                            // retire (their KV state is there).
                            (w.take_queued(), w.take_waiting_seqs())
                        })
                        .unwrap_or_default();
                    if let Some((_, new_w)) = self.workers.get_mut(&id) {
                        for b in moved {
                            new_w.enqueue(b);
                        }
                        for s in &moved_seqs {
                            new_w.enqueue_seq(remake_seq(self.cfg.seed, s, kind));
                        }
                    }
                    self.tenants[dep].scheduler.on_transition_complete(kind);
                    self.sync_worker(old, now, q);
                }
                self.sync_worker(id, now, q);
            }
            Ev::MonitorTick(dep) => {
                let obs = self.observation(dep, now);
                let t = &mut self.tenants[dep];
                let decision = t.scheduler.decide(&obs);
                if self.tracer.enabled() {
                    self.tracer.set_scope(t.scope);
                    for ev in t.scheduler.drain_decision_events() {
                        self.tracer
                            .emit(now, move || TraceEventKind::Decision(Box::new(ev)));
                    }
                }
                self.apply_decision(dep, decision, now, q);
                let next = now + self.cfg.monitor_interval;
                if next < self.trace_end {
                    q.schedule(next, Ev::MonitorTick(dep));
                }
            }
            Ev::PredictTick(dep) => {
                // Predictive scale-up on the routing worker: pre-warm enough
                // containers for the predicted concurrent batches.
                let t = &self.tenants[dep];
                let routing = t.routing;
                let kind = self.workers[&routing].1.kind;
                let mut target = 1u32;
                for &m in &t.models {
                    let pred = t.predictors.get(&m).map_or(0.0, |p| p.predict(1.0));
                    let bs = t.batchers.get(&m).map_or(1, |b| b.batch_size()).max(1);
                    let solo_s = Profile::solo_ms(m, kind, bs) / 1_000.0;
                    target += (pred * solo_s / bs as f64).ceil() as u32;
                }
                self.tracer.set_scope(t.scope);
                if let Some((_, w)) = self.workers.get_mut(&routing) {
                    if w.is_active() {
                        for (cid, ready) in w.pool.prewarm_to(target, now) {
                            self.tracer.emit(now, || TraceEventKind::ColdStartBegan {
                                worker: routing.0,
                                container: cid.0,
                                ready_at: ready,
                            });
                            q.schedule(
                                ready,
                                Ev::ContainerReady {
                                    worker: routing,
                                    container: cid,
                                },
                            );
                        }
                    }
                }
                let next = now + self.cfg.predictive_interval;
                if next < self.trace_end {
                    q.schedule(next, Ev::PredictTick(dep));
                }
            }
            Ev::KeepAliveTick => {
                for (_, w) in self.workers.values_mut() {
                    w.pool.reap_idle(now);
                }
                let next = now + SimDuration::from_secs(60);
                if next < self.trace_end {
                    q.schedule(next, Ev::KeepAliveTick);
                }
            }
            Ev::Fault(idx) => {
                trace_fault_edge(&mut self.tracer, &self.faults, idx, now);
                self.apply_fault_edge(idx, now, q);
            }
        }
    }
}

impl<'a> PartitionWorld<Ev> for Harness<'a> {
    fn handle_part(&mut self, now: SimTime, ev: Ev, cal: &mut PartitionCalendar<Ev>) {
        self.on_event(now, ev, cal);
    }
}

impl<'a> Harness<'a> {
    /// Seed the calendar with everything that isn't an arrival: each
    /// tenant's warm initial worker and periodic ticks, the keep-alive
    /// chain, and (with `faults`) the compiled fault edges. Generic over the
    /// calendar so every engine schedules in the same call order (and
    /// therefore with the same sequence numbers).
    ///
    /// Initial placement respects the inventory: if a tenant's requested
    /// kind is already fully leased by earlier tenants, it falls back to
    /// the cheapest kind with a free unit (oversubscribing the requested
    /// kind only when literally nothing is free).
    pub(crate) fn seed_calendar<C: Calendar<Ev>>(&mut self, q: &mut C, faults: bool) {
        let cfg = self.cfg;
        for dep in 0..self.tenants.len() {
            let requested = self.tenants[dep].initial_hw;
            let initial = if self.has_free_unit(requested) {
                requested
            } else {
                (self.catalog.by_cost_ascending().into_iter())
                    .find(|&k| self.has_free_unit(k))
                    .unwrap_or(requested)
            };
            let id = self.provision_worker(dep, initial, SimTime::ZERO, SimDuration::ZERO, q);
            let t = &mut self.tenants[dep];
            t.routing = id;
            t.hw_timeline.push((0.0, initial));
            q.schedule(SimTime::ZERO + cfg.monitor_interval, Ev::MonitorTick(dep));
            q.schedule(
                SimTime::ZERO + cfg.predictive_interval,
                Ev::PredictTick(dep),
            );
        }
        q.schedule(SimTime::from_secs(60), Ev::KeepAliveTick);
        if faults {
            // Compiled fault edges are time-sorted, so insertion order
            // matches the per-window Start/End interleaving for
            // non-overlapping schedules.
            for (i, fe) in self.faults.events.iter().enumerate() {
                q.schedule(fe.at, Ev::Fault(i));
            }
        }
    }

    /// The run horizon: the end of the arrival timeline plus the drain
    /// grace. Events at or after it are never processed.
    pub(crate) fn horizon(&self) -> SimTime {
        self.trace_end + self.cfg.drain_grace
    }

    /// Completed requests of tenant 0 recorded at or after index `from`, in
    /// completion order. The session executor drains completions
    /// incrementally through this window to answer live callers.
    pub(crate) fn completed_from(&self, from: usize) -> &[CompletedRequest] {
        let completed = &self.tenants[0].completed;
        &completed[from.min(completed.len())..]
    }

    /// Toggle every tenant scheduler's decision-event recording.
    pub(crate) fn set_decision_recording(&mut self, on: bool) {
        for t in &mut self.tenants {
            t.scheduler.set_decision_recording(on);
        }
    }

    /// Release every outstanding worker at `horizon` and fold each tenant's
    /// accounting into its [`RunResult`], in tenant order.
    pub(crate) fn into_results(mut self, horizon: SimTime) -> Vec<RunResult> {
        for id in self.worker_ids_sorted() {
            self.release_worker(id, horizon);
        }
        let trace_end = self.trace_end;
        self.tenants
            .into_iter()
            .map(|t| t.into_result(trace_end))
            .collect()
    }

    /// Emit the run summary, then [`Harness::into_results`]. The tail of
    /// every single-harness run — batch, session, and reference — so
    /// results are assembled identically regardless of executor.
    /// `engine_events` counts dispatched events.
    pub(crate) fn finish(mut self, horizon: SimTime, engine_events: u64) -> Vec<RunResult> {
        self.tracer.set_scope(0);
        self.tracer.emit(horizon, || TraceEventKind::RunSummary {
            events: engine_events,
            horizon,
        });
        self.into_results(horizon)
    }
}

/// One partition of the partition engine: a harness, its calendar, and
/// the arrival streams of its tenants, sampled while the run consumes them.
pub(crate) struct Partition<'a, 'w> {
    pub(crate) harness: Harness<'a>,
    cal: PartitionCalendar<Ev>,
    arrivals: ArrivalMerge<'w>,
}

impl<'a, 'w> Partition<'a, 'w> {
    /// Build a partition over the harness's tenants — global indices
    /// `base..`, whose workloads are `workloads` — forking their arrival
    /// streams from `sampler`, and seed its calendar; fault edges are
    /// seeded only when the partition owns them (`faults`), not when a
    /// coordinator applies them at barriers.
    pub(crate) fn new(
        mut harness: Harness<'a>,
        sampler: &mut Sampler,
        base: usize,
        workloads: &[&'w [WorkloadSpec]],
        faults: bool,
    ) -> Self {
        let arrivals = sampler.streams(base, workloads);
        let mut q = EventQueue::with_capacity(1_024);
        // Arrivals own the run's smallest seqs — they are scheduled before
        // anything else — so everything seeded below gets the seq it would
        // get with every arrival on the heap.
        q.skip_seqs(arrivals.total());
        let mut cal = PartitionCalendar::new(q);
        harness.seed_calendar(&mut cal, faults);
        Partition {
            harness,
            cal,
            arrivals,
        }
    }

    /// Run every event strictly before `bound`; returns the events run.
    pub(crate) fn run_to(&mut self, bound: EventKey) -> u64 {
        run_partition(
            &mut self.harness,
            &mut self.cal,
            &mut self.arrivals,
            bound,
            paldia_sim::engine::DEFAULT_EVENT_BUDGET,
        )
        .events()
    }

    /// Apply compiled fault edge `idx` at `now` (coordinator barriers).
    pub(crate) fn apply_fault_edge(&mut self, idx: usize, now: SimTime) {
        self.harness.apply_fault_edge(idx, now, &mut self.cal);
    }
}

/// End of the arrival timeline: the longest workload trace of any tenant.
pub(crate) fn trace_end<'w>(tenants: impl IntoIterator<Item = &'w [WorkloadSpec]>) -> SimTime {
    (tenants.into_iter().flatten())
        .map(|spec| SimTime::ZERO + spec.trace.duration())
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// Run a harness to its horizon as one partition, with the fault edges on
/// its own calendar, and assemble the results; also returns the events
/// dispatched. `workloads[i]` are tenant `i`'s workloads.
pub(crate) fn run_harness(
    harness: Harness<'_>,
    workloads: &[&[WorkloadSpec]],
) -> (Vec<RunResult>, u64) {
    let horizon = harness.horizon();
    let mut sampler = Sampler::new(harness.cfg.seed);
    let mut part = Partition::new(harness, &mut sampler, 0, workloads, true);
    let events = part.run_to(EventKey::new(horizon, 0));
    (part.harness.finish(horizon, events), events)
}

/// Run one scheme over the given workloads. `initial_hw` is the node the
/// deployment starts on (warm).
pub fn run_simulation(
    workloads: &[WorkloadSpec],
    scheduler: &mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &SimConfig,
) -> RunResult {
    run_simulation_impl(
        workloads,
        scheduler,
        initial_hw,
        catalog,
        cfg,
        Tracer::disabled(),
    )
}

/// [`run_simulation`] under its older signature, kept for the benchmark
/// harness (`perfbench/`) that calls it. It ignores its last argument: a
/// single-tenant run is one partition, and only elastic multi-tenant fleets
/// split across shards (see [`crate::fleet::shard`]).
pub fn run_simulation_sharded(
    workloads: &[WorkloadSpec],
    scheduler: &mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &SimConfig,
    _shards: u32,
) -> RunResult {
    run_simulation(workloads, scheduler, initial_hw, catalog, cfg)
}

/// Like [`run_simulation`], but records the full observability stream into
/// `sink`: per-request spans, batch/device annotations, and the scheduler's
/// structured decision events. Tracing is observation-only — the returned
/// metrics are bit-identical to an untraced run with the same inputs
/// (enforced by `tests/trace_observability.rs`).
pub fn run_simulation_traced(
    workloads: &[WorkloadSpec],
    scheduler: &mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &SimConfig,
    sink: &mut dyn TraceSink,
) -> RunResult {
    scheduler.set_decision_recording(true);
    let result = run_simulation_impl(
        workloads,
        scheduler,
        initial_hw,
        catalog,
        cfg,
        Tracer::new(sink),
    );
    scheduler.set_decision_recording(false);
    result
}

/// The tenant and harness of a single-tenant run: a fleet of one over
/// elastic inventory. The session executor and the reference driver build
/// theirs here too.
pub(crate) fn solo_harness<'a>(
    models: Vec<MlModel>,
    scheduler: &'a mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &'a SimConfig,
    trace_end: SimTime,
    tracer: Tracer<'a>,
) -> Harness<'a> {
    let tenant = Tenant::new(scheduler, models, initial_hw, 0, None, cfg);
    Harness::new(cfg, catalog, u32::MAX, vec![tenant], trace_end, tracer)
}

fn run_simulation_impl<'a>(
    workloads: &[WorkloadSpec],
    scheduler: &'a mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &'a SimConfig,
    tracer: Tracer<'a>,
) -> RunResult {
    let models = workloads.iter().map(|s| s.model).collect();
    let end = trace_end([workloads]);
    let harness = solo_harness(models, scheduler, initial_hw, catalog, cfg, end, tracer);
    let (mut results, _) = run_harness(harness, &[workloads]);
    results.pop().expect("invariant: one tenant, one result")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_entries_stay_small() {
        // A heap entry is a 16-byte key plus the event: 32 B.
        assert!(
            std::mem::size_of::<Ev>() <= 16,
            "{}",
            std::mem::size_of::<Ev>()
        );
    }

    #[test]
    fn tenant_zero_namespaces_are_the_identity() {
        assert_eq!(worker_range(0), WorkerId(0)..=WorkerId(0xF_FFFF));
        assert_eq!(*worker_range(3).start(), WorkerId(3 << 20));
    }
}
