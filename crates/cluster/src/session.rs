//! The incremental session executor: the same cluster simulation as
//! [`crate::run_simulation`], driven one event at a time with arrivals
//! injected from outside instead of pre-scheduled.
//!
//! This is the seam the serving shell (`paldia-serve`) plugs into. A
//! [`SimSession`] owns the one tenant-indexed [`Harness`](crate::harness)
//! every entry point builds — here a fleet of one over elastic inventory,
//! exactly as [`crate::run_simulation`] builds it: same construction, same
//! calendar seeding, same single `on_event` domain logic — but exposes
//! `step`/`inject` so a caller can interleave event processing with
//! arrivals it learns about at runtime (from a socket, a replay file, a
//! test).
//!
//! A session runs on the same [`PartitionCalendar`] as the batch runs: a
//! heap for ordinary events (and here, the injected arrivals) plus the
//! per-worker wake registers, so superseded wakes are never dispatched.
//!
//! # Bit-identical replay
//!
//! The batch runs reserve a calendar sequence number for every sampled
//! arrival *before* seeding the calendar, so arrivals own the run's first
//! `(time, seq)` sequence numbers and win every same-instant tie against
//! ticks. An incremental executor that allocated fresh sequence numbers at
//! injection time would order those ties the other way and diverge. A
//! session therefore *reserves* the arrival seq block up front
//! ([`SimSession::new`]'s `reserved_arrivals`) and each
//! [`inject_recorded`](SimSession::inject_recorded) reclaims the arrival's
//! original number, making the session's event order — and every
//! scheduling decision, trace event, and output byte — identical to
//! [`crate::run_simulation`] on the same workloads (enforced by
//! `tests/session_replay.rs`).
//!
//! [`run_replay`] is the shared driver both executors of a recorded trace
//! use: the DES side runs it with [`paldia_sim::VirtualClock`] and the
//! wall-clock shell with its pacing clock. Because pacing is the *only*
//! difference (see [`paldia_sim::clock`]), the two decision streams are
//! divergence-free by construction — the differential gate in
//! `paldia-serve` asserts exactly that.

use crate::arrivals::SampledArrival;
use crate::config::SimConfig;
use crate::harness::{solo_harness, Ev, Harness};
use crate::policy::Scheduler;
use crate::request::{CompletedRequest, RequestId};
use crate::result::RunResult;
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{TraceSink, Tracer};
use paldia_sim::{
    engine::DEFAULT_EVENT_BUDGET, Calendar, Clock, EventKey, EventQueue, PartitionCalendar, SimTime,
};
use paldia_workloads::MlModel;

/// The cluster simulation as an open system: step events, inject arrivals.
///
/// Construction mirrors the batch entry points field-for-field; see the
/// module docs for the sequence-number reservation that keeps a replayed
/// session bit-identical to [`crate::run_simulation`].
pub struct SimSession<'a> {
    harness: Harness<'a>,
    cal: PartitionCalendar<Ev>,
    horizon: SimTime,
    reserved: u64,
    next_live_id: u64,
    events: u64,
    drained: usize,
    traced: bool,
}

impl<'a> SimSession<'a> {
    /// Open an untraced session over `models`.
    ///
    /// `trace_end` is the end of the arrival timeline (the run horizon is
    /// `trace_end + cfg.drain_grace`, as in the batch entry points);
    /// `reserved_arrivals` is the number of recorded arrivals that will be
    /// injected via [`Self::inject_recorded`] — pass the recorded trace's
    /// reservation, or 0 for a live session.
    pub fn new(
        models: Vec<MlModel>,
        scheduler: &'a mut dyn Scheduler,
        initial_hw: InstanceKind,
        catalog: Catalog,
        cfg: &'a SimConfig,
        trace_end: SimTime,
        reserved_arrivals: u64,
    ) -> Self {
        Self::build(
            models,
            scheduler,
            initial_hw,
            catalog,
            cfg,
            trace_end,
            reserved_arrivals,
            Tracer::disabled(),
            false,
        )
    }

    /// Open a session recording the full observability stream into `sink`,
    /// including the scheduler's structured decision events (the shape
    /// [`paldia_obs::diff_decision_streams`] consumes). Tracing is
    /// observation-only: the returned metrics are bit-identical to an
    /// untraced session.
    #[allow(clippy::too_many_arguments)]
    pub fn new_traced(
        models: Vec<MlModel>,
        scheduler: &'a mut dyn Scheduler,
        initial_hw: InstanceKind,
        catalog: Catalog,
        cfg: &'a SimConfig,
        trace_end: SimTime,
        reserved_arrivals: u64,
        sink: &'a mut dyn TraceSink,
    ) -> Self {
        scheduler.set_decision_recording(true);
        Self::build(
            models,
            scheduler,
            initial_hw,
            catalog,
            cfg,
            trace_end,
            reserved_arrivals,
            Tracer::new(sink),
            true,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        models: Vec<MlModel>,
        scheduler: &'a mut dyn Scheduler,
        initial_hw: InstanceKind,
        catalog: Catalog,
        cfg: &'a SimConfig,
        trace_end: SimTime,
        reserved_arrivals: u64,
        tracer: Tracer<'a>,
        traced: bool,
    ) -> Self {
        let mut harness = solo_harness(
            models, scheduler, initial_hw, catalog, cfg, trace_end, tracer,
        );
        let horizon = harness.horizon();
        let mut q: EventQueue<Ev> = EventQueue::new();
        // Arrivals own the first `reserved_arrivals` sequence numbers, as
        // they do in the batch runs; everything the calendar seeding
        // schedules below starts after the block.
        q.skip_seqs(reserved_arrivals);
        let mut cal = PartitionCalendar::new(q);
        harness.seed_calendar(&mut cal, true);
        SimSession {
            harness,
            cal,
            horizon,
            reserved: reserved_arrivals,
            next_live_id: 0,
            events: 0,
            drained: 0,
            traced,
        }
    }

    /// The run horizon (`trace_end + drain_grace`); events at or after it
    /// are never processed, matching the batch engines' exclusive horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Firing time of the earliest pending event, if any. Takes `&mut self`
    /// because the calendar discards superseded wakes on the way.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.cal.peek_key().map(EventKey::time)
    }

    /// Simulated "now": the time of the last processed event.
    pub fn now(&self) -> SimTime {
        self.cal.queue().floor()
    }

    /// Number of events dispatched so far. Superseded device wakes are
    /// dropped by the calendar, never dispatched, so they do not count.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Inject a recorded arrival under its reserved sequence number and
    /// original request id. Arrivals must be injected in `(at, seq)` order,
    /// after every internal event firing strictly before `at` has been
    /// stepped — [`run_replay`] enforces both.
    pub fn inject_recorded(&mut self, sa: &SampledArrival) {
        debug_assert!(
            sa.seq < self.reserved,
            "arrival seq {} outside the reserved block of {}",
            sa.seq,
            self.reserved
        );
        let ev = Ev::Arrival {
            tenant: 0,
            id: sa.id,
            model: sa.model,
        };
        self.cal.queue_mut().schedule_reserved(sa.at, sa.seq, ev);
    }

    /// Inject a live arrival at `at` (clamped to the session's "now") and
    /// return its assigned request id. Live ids start after the reserved
    /// block, so mixing recorded and live arrivals cannot collide.
    pub fn inject_arrival(&mut self, at: SimTime, model: MlModel) -> RequestId {
        let at = at.max(self.now());
        self.next_live_id += 1;
        let id = RequestId(self.reserved + self.next_live_id);
        let ev = Ev::Arrival {
            tenant: 0,
            id,
            model,
        };
        self.cal.schedule(at, ev);
        id
    }

    /// Process the earliest pending event if it fires before the horizon;
    /// returns its time, or `None` when nothing is runnable.
    pub fn step(&mut self) -> Option<SimTime> {
        let t = self.next_event_time()?;
        if t >= self.horizon || self.events >= DEFAULT_EVENT_BUDGET {
            return None;
        }
        let (now, ev) = self
            .cal
            .pop()
            .expect("invariant: next_event_time returned Some, so pop cannot fail");
        self.events += 1;
        self.harness.on_event(now, ev, &mut self.cal);
        Some(now)
    }

    /// Requests completed since the previous drain, in completion order.
    pub fn drain_completions(&mut self) -> Vec<CompletedRequest> {
        let new: Vec<CompletedRequest> = self.harness.completed_from(self.drained).to_vec();
        self.drained += new.len();
        new
    }

    /// Run every remaining event to the horizon and assemble the
    /// [`RunResult`], exactly as the batch entry points do.
    pub fn finish(mut self) -> RunResult {
        while self.step().is_some() {}
        if self.traced {
            self.harness.set_decision_recording(false);
        }
        let SimSession {
            harness,
            horizon,
            events,
            ..
        } = self;
        let mut results = harness.finish(horizon, events);
        results.pop().expect("invariant: one tenant, one result")
    }
}

/// One item from an [`ArrivalSource`].
#[derive(Clone, Copy, Debug)]
pub enum ReplayItem {
    /// The next recorded arrival, in `(at, seq)` order.
    Arrival(SampledArrival),
    /// No more arrivals; the driver drains the session to its horizon.
    End,
}

/// A stream of recorded arrivals feeding [`run_replay`]. `next` may block —
/// the serving shell's source reads a socket — but must yield arrivals in
/// `(at, seq)` order and terminate with [`ReplayItem::End`].
pub trait ArrivalSource {
    /// The next arrival, or [`ReplayItem::End`] when the stream is done.
    fn next(&mut self) -> ReplayItem;
}

/// An in-memory [`ArrivalSource`] over a recorded arrival slice.
pub struct SliceSource<'s> {
    items: &'s [SampledArrival],
    pos: usize,
}

impl<'s> SliceSource<'s> {
    /// Source yielding `items` in order (must already be `(at, seq)`
    /// sorted, as recorded traces are).
    pub fn new(items: &'s [SampledArrival]) -> Self {
        SliceSource { items, pos: 0 }
    }
}

impl ArrivalSource for SliceSource<'_> {
    fn next(&mut self) -> ReplayItem {
        match self.items.get(self.pos) {
            Some(&sa) => {
                self.pos += 1;
                ReplayItem::Arrival(sa)
            }
            None => ReplayItem::End,
        }
    }
}

/// Drive a session over a stream of recorded arrivals, pacing on `clock`.
///
/// This is the one replay loop both executors share: before each arrival,
/// every internal event firing strictly before it is stepped (each paced on
/// the clock); the arrival is then paced and injected; after the stream
/// ends the session drains to its horizon. `on_complete` fires for every
/// newly completed request — the serving shell answers its callers from it.
///
/// With [`paldia_sim::VirtualClock`] this is the DES executor; with a
/// wall clock it is the serving shell. The clock gates only *when* the
/// process acts, never *what* it does, so the two decision streams are
/// divergence-free by construction.
pub fn run_replay<S: ArrivalSource, C: Clock>(
    session: &mut SimSession<'_>,
    source: &mut S,
    clock: &mut C,
    mut on_complete: impl FnMut(&CompletedRequest),
) {
    while let ReplayItem::Arrival(sa) = source.next() {
        while let Some(t) = session.next_event_time() {
            if t >= sa.at {
                break;
            }
            clock.pace(t);
            if session.step().is_none() {
                break;
            }
            for c in session.drain_completions() {
                on_complete(&c);
            }
        }
        clock.pace(sa.at);
        session.inject_recorded(&sa);
    }
    while let Some(t) = session.next_event_time() {
        if t >= session.horizon() {
            break;
        }
        clock.pace(t);
        if session.step().is_none() {
            break;
        }
        for c in session.drain_completions() {
            on_complete(&c);
        }
    }
}

/// Replay a recorded arrival slice on the virtual clock and return the
/// session's result — the DES half of the differential gate, usable
/// anywhere without a socket in sight.
pub fn run_replay_virtual(session: &mut SimSession<'_>, arrivals: &[SampledArrival]) {
    let mut source = SliceSource::new(arrivals);
    let mut clock = paldia_sim::VirtualClock;
    run_replay(session, &mut source, &mut clock, |_| {});
}
