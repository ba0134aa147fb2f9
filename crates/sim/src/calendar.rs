//! The partitioned calendar: the per-partition event sources of the
//! partition engine, plus the merged run loop that drives them.
//!
//! The serial engine keeps every future event in one binary heap
//! ([`EventQueue`]). That is simple and exactly ordered, but for
//! trace-driven runs the heap is dominated by two event classes with much
//! cheaper natural representations:
//!
//! * **Arrivals** follow a trace known before the run starts. Scheduling
//!   every one of them up front leaves a huge resident heap that every
//!   other push/pop must sift through. An [`ArrivalFeed`] keeps them off the
//!   heap: a [`Rail`] stores them pre-sorted and pops them by cursor in
//!   O(1), and a streaming feed samples them while the run consumes them,
//!   so none is held before it is due.
//! * **Device wake-ups** are mostly stale: every occupancy change re-arms
//!   the wake for a worker's next predicted completion and bumps a version,
//!   so the heap fills with superseded wakes that pop as no-ops. A
//!   per-worker wake register keeps only the *live* wake per worker and
//!   drops superseded ones at arm time.
//!
//! The merged loop ([`run_partition`]) dispatches from whichever source
//! holds the globally smallest `(time, seq)` key. Determinism is preserved
//! bit-for-bit by *virtual sequence parity*: every schedule the serial
//! engine would perform still consumes a sequence number here
//! ([`EventQueue::skip_seq`]), whether or not an entry lands in the heap,
//! so surviving heap events carry identical keys in both modes and every
//! same-instant tie breaks the same way. Arrival-feed entries occupy the
//! first sequence numbers of the run (arrivals are scheduled before
//! anything else), so the feed wins every equal-time comparison without
//! storing a sequence per entry.
//!
//! Dropping superseded wakes is safe because a wake whose version no longer
//! matches its device is an observable no-op in the serial engine (the
//! handler returns before any effect), and a re-armed wake for an
//! *unchanged* version predicts the same completion instant — the earlier
//! of the two entries does the work in both modes (the register keeps it;
//! see [`PartitionCalendar::arm_wake`]). It also means the partition engine
//! dispatches fewer events than the serial engine for the same run.

use crate::engine::{RunOutcome, World};
use crate::event::{EventKey, EventQueue};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Event alphabets that carry a device wake-up variant. Lets a calendar
/// materialize the wake event itself, so wake registers can store two
/// integers instead of a payload.
pub trait WakeEvent: Sized {
    /// Build the wake event for `worker` at device `version`.
    fn make_wake(worker: u32, version: u64) -> Self;
}

/// What a simulation world schedules against: the serial [`EventQueue`] or
/// the partitioned [`PartitionCalendar`]. Domain logic written against this
/// trait runs unchanged — and bit-identically — on either engine.
pub trait Calendar<E> {
    /// Schedule `payload` to fire at absolute time `at`.
    fn schedule(&mut self, at: SimTime, payload: E);

    /// Schedule `payload` to fire `delay` after `now`.
    fn schedule_in(&mut self, now: SimTime, delay: SimDuration, payload: E) {
        self.schedule(now + delay, payload);
    }

    /// Arm (or re-arm) the completion wake-up for `worker` at `at`, tagged
    /// with the device `version` current at arm time.
    fn arm_wake(&mut self, worker: u32, at: SimTime, version: u64);
}

impl<E: WakeEvent> Calendar<E> for EventQueue<E> {
    fn schedule(&mut self, at: SimTime, payload: E) {
        EventQueue::schedule(self, at, payload);
    }

    fn arm_wake(&mut self, worker: u32, at: SimTime, version: u64) {
        EventQueue::schedule(self, at, E::make_wake(worker, version));
    }
}

/// A time-ordered source of arrivals for [`run_partition`]: entries pop
/// earliest first, FIFO within an instant, and own the run's smallest
/// sequence numbers — the caller consumed one per entry via
/// [`EventQueue::skip_seqs`] before scheduling anything else — so they
/// order before every heap event and wake at equal times.
pub trait ArrivalFeed<E> {
    /// Firing time of the earliest pending entry.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Remove and return the earliest entry.
    fn pop(&mut self) -> Option<(SimTime, E)>;
}

/// The pre-sorted arrival rail: events known in full before the run starts,
/// holding the run's smallest sequence numbers. Popping is a cursor
/// decrement — no heap traffic, no sift, sequential memory.
pub struct Rail<E> {
    /// Sorted by firing time *descending* (stable w.r.t. schedule order),
    /// so `pop` takes from the back in FIFO `(time, seq)` order.
    items: Vec<(SimTime, E)>,
}

impl<E> Rail<E> {
    /// Build a rail from entries in schedule order. The caller must have
    /// consumed one sequence number per entry (before scheduling anything
    /// else) via [`EventQueue::skip_seqs`], so rail entries order before
    /// every heap event at equal times.
    pub fn from_schedule_order(mut items: Vec<(SimTime, E)>) -> Self {
        // Stable sort keeps schedule order within a tie; reversing then
        // makes `Vec::pop` yield earliest-first with FIFO ties.
        items.sort_by_key(|&(t, _)| t);
        items.reverse();
        Rail { items }
    }

    /// Firing time of the earliest pending entry.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.items.last().map(|&(t, _)| t)
    }

    /// Remove and return the earliest entry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.items.pop()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl<E> ArrivalFeed<E> for Rail<E> {
    fn peek_time(&mut self) -> Option<SimTime> {
        self.items.last().map(|&(t, _)| t)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.items.pop()
    }
}

/// One armed wake register: ordering key plus device version.
type WakeSlot = (EventKey, u64);

/// The partitioned calendar: a (small) heap for ordinary events plus the
/// per-worker wake registers. Arrivals live outside in an [`ArrivalFeed`].
pub struct PartitionCalendar<E> {
    q: EventQueue<E>,
    /// Live wake per worker id; absent when nothing is armed. Keyed
    /// sparsely: sharded fleets namespace worker ids as
    /// `(global deployment << 20) | ordinal`, so a dense table would
    /// span gigabytes while only a handful of ids are ever live.
    slots: BTreeMap<u32, WakeSlot>,
    /// Min-index over the slots, invalidated lazily: an entry counts only
    /// while it still matches its slot exactly.
    order: BinaryHeap<Reverse<(EventKey, u32, u64)>>,
}

impl<E> PartitionCalendar<E> {
    /// Wrap a queue (which may already hold events and consumed sequence
    /// numbers from setup).
    pub fn new(q: EventQueue<E>) -> Self {
        PartitionCalendar {
            q,
            slots: BTreeMap::new(),
            order: BinaryHeap::new(),
        }
    }

    /// The inner heap queue.
    pub fn queue(&self) -> &EventQueue<E> {
        &self.q
    }

    /// The inner heap queue, mutably.
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.q
    }

    /// Key of the earliest *live* armed wake, discarding superseded index
    /// entries on the way.
    fn peek_wake(&mut self) -> Option<EventKey> {
        while let Some(&Reverse((key, worker, version))) = self.order.peek() {
            if self.slots.get(&worker) == Some(&(key, version)) {
                return Some(key);
            }
            self.order.pop();
        }
        None
    }

    /// Pop the earliest live wake (the caller must have just seen it via
    /// `peek_wake`), clearing its register.
    fn pop_wake(&mut self) -> Option<(EventKey, u32, u64)> {
        let key = self.peek_wake()?;
        let Reverse((k, worker, version)) = self.order.pop()?;
        debug_assert_eq!(k, key);
        self.slots.remove(&worker);
        Some((k, worker, version))
    }

    /// Key of the earliest pending event: a heap event or a live wake.
    /// Takes `&mut self` because superseded wake index entries are
    /// discarded on the way.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        let wake = self.peek_wake();
        match (self.q.peek_key(), wake) {
            (Some(heap), Some(wake)) => Some(heap.min(wake)),
            (heap, wake) => heap.or(wake),
        }
    }

    /// Remove and return the earliest pending event (see
    /// [`Self::peek_key`]), materializing a wake as its event. Advances
    /// the clamp floor to the event's time either way.
    pub fn pop(&mut self) -> Option<(SimTime, E)>
    where
        E: WakeEvent,
    {
        let wake = self.peek_wake();
        match self.q.peek_key() {
            Some(heap) if wake.is_none_or(|w| heap < w) => self.q.pop(),
            _ => {
                let (key, worker, version) = self.pop_wake()?;
                self.q.advance_floor(key.time());
                Some((key.time(), E::make_wake(worker, version)))
            }
        }
    }
}

impl<E: WakeEvent> Calendar<E> for PartitionCalendar<E> {
    fn schedule(&mut self, at: SimTime, payload: E) {
        EventQueue::schedule(&mut self.q, at, payload);
    }

    fn arm_wake(&mut self, worker: u32, at: SimTime, version: u64) {
        // Every arm consumes a sequence number — the serial engine would
        // push a heap event here — regardless of whether the register
        // changes, keeping later schedules' keys identical across modes.
        let seq = self.q.skip_seq();
        let key = EventKey::new(at.max(self.q.floor()), seq);
        match self.slots.get(&worker) {
            // Same device version ⇒ the device is untouched since the
            // earlier arm, which therefore predicts the same instant with a
            // smaller seq. The earlier entry does the work in the serial
            // engine (the later pops as a stale no-op after the earlier
            // bumped the version) — keep it.
            Some(&(_, armed_version)) if armed_version == version => {}
            // New version ⇒ any previously armed wake is superseded: when
            // it would fire, its version can no longer match (versions only
            // grow), so the serial engine treats it as a no-op. Replace.
            _ => {
                self.slots.insert(worker, (key, version));
                self.order.push(Reverse((key, worker, version)));
            }
        }
    }
}

/// Domain logic the partition engine drives. `E` is the event alphabet;
/// it defaults to the [`World`] alphabet, so a world that runs on both
/// engines names it once. Implementors route every engine's entry point
/// through one handler generic over [`Calendar`], so the domain logic
/// exists exactly once.
pub trait PartitionWorld<E = <Self as World>::Event> {
    /// Process one event, scheduling follow-ups on the partitioned
    /// calendar.
    fn handle_part(&mut self, now: SimTime, ev: E, cal: &mut PartitionCalendar<E>);
}

/// Run one partition until `bound` (exclusive, a full `(time, seq)` key) or
/// until every source drains. Dispatches arrival-feed entries, heap
/// events, and live wakes in exact global `(time, seq)` order; superseded
/// wakes are never dispatched.
///
/// Bounding on a key rather than a time lets the fleet coordinator stop a
/// partition *between* two same-instant events — everything ordered before
/// a cross-partition fault edge runs, everything after waits for the
/// barrier. For a plain horizon, pass `EventKey::new(horizon, 0)`
/// (exclusive, like [`crate::engine::run_until`]); the loop is resumable.
pub fn run_partition<E, W, A>(
    world: &mut W,
    cal: &mut PartitionCalendar<E>,
    arrivals: &mut A,
    bound: EventKey,
    budget: u64,
) -> RunOutcome
where
    E: WakeEvent,
    W: PartitionWorld<E>,
    A: ArrivalFeed<E>,
{
    let mut events: u64 = 0;
    let mut last_event = SimTime::ZERO;
    loop {
        // The feed holds the run's smallest seqs: a proxy seq of 0 orders
        // it before any heap/wake key at the same instant. (Heap seqs are
        // strictly positive whenever the feed is non-empty, because the
        // feed consumed seqs first.)
        let feed_key = arrivals.peek_time().map(|t| EventKey::new(t, 0));
        let cal_key = cal.peek_key();

        let Some(next) = feed_key.into_iter().chain(cal_key).min() else {
            return RunOutcome::Drained { last_event, events };
        };
        if next >= bound {
            return RunOutcome::HorizonReached {
                horizon: bound.time(),
                events,
            };
        }
        if events >= budget {
            return RunOutcome::BudgetExhausted {
                at: next.time(),
                budget,
            };
        }

        let (now, ev) = if feed_key == Some(next) {
            let (now, ev) = arrivals.pop().expect("invariant: peeked feed entry exists");
            cal.q.advance_floor(now);
            (now, ev)
        } else {
            cal.pop().expect("invariant: peeked calendar entry exists")
        };
        debug_assert!(now >= last_event, "time went backwards");
        last_event = now;
        events += 1;
        world.handle_part(now, ev, cal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_until;

    /// A miniature versioned-device world exercised on both engines: `n`
    /// workers each hold a version counter; arrivals bump a worker's
    /// version and re-arm its wake for `now + latency`; live wakes record
    /// and re-arm once more at double latency. Superseded and duplicate
    /// wakes must behave identically across engines.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Ev {
        Arrival { worker: u32 },
        Tick(u32),
        Wake { worker: u32, version: u64 },
    }

    impl WakeEvent for Ev {
        fn make_wake(worker: u32, version: u64) -> Self {
            Ev::Wake { worker, version }
        }
    }

    struct Mini {
        versions: Vec<u64>,
        /// (time_micros, label, worker, version-at-dispatch)
        log: Vec<(u64, &'static str, u32, u64)>,
    }

    impl Mini {
        fn new(workers: usize) -> Self {
            Mini {
                versions: vec![0; workers],
                log: Vec::new(),
            }
        }

        fn on_event<C: Calendar<Ev>>(&mut self, now: SimTime, ev: Ev, q: &mut C) {
            match ev {
                Ev::Arrival { worker } => {
                    self.versions[worker as usize] += 1;
                    let v = self.versions[worker as usize];
                    self.log.push((now.as_micros(), "arrival", worker, v));
                    q.arm_wake(worker, now + SimDuration::from_micros(50), v);
                    // A duplicate same-version arm, as a jittery harness
                    // would produce: must be dropped/no-op identically.
                    q.arm_wake(worker, now + SimDuration::from_micros(50), v);
                }
                Ev::Tick(n) => {
                    self.log.push((now.as_micros(), "tick", n, 0));
                    if n > 0 {
                        q.schedule_in(now, SimDuration::from_micros(30), Ev::Tick(n - 1));
                    }
                }
                Ev::Wake { worker, version } => {
                    if self.versions[worker as usize] != version {
                        return; // stale
                    }
                    self.log.push((now.as_micros(), "wake", worker, version));
                    self.versions[worker as usize] += 1;
                    let v = self.versions[worker as usize];
                    q.arm_wake(worker, now + SimDuration::from_micros(100), v);
                }
            }
        }
    }

    impl World for Mini {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
            self.on_event(now, ev, q);
        }
    }

    impl PartitionWorld for Mini {
        fn handle_part(&mut self, now: SimTime, ev: Ev, cal: &mut PartitionCalendar<Ev>) {
            self.on_event(now, ev, cal);
        }
    }

    fn arrivals() -> Vec<(SimTime, Ev)> {
        let mut v = Vec::new();
        for i in 0..200u64 {
            // Deliberate time collisions across workers.
            let t = SimTime::from_micros(7 * (i / 3) + 1);
            v.push((
                t,
                Ev::Arrival {
                    worker: (i % 3) as u32,
                },
            ));
        }
        v
    }

    fn run_serial(horizon: SimTime) -> Vec<(u64, &'static str, u32, u64)> {
        let mut w = Mini::new(3);
        let mut q = EventQueue::new();
        for (t, ev) in arrivals() {
            q.schedule(t, ev);
        }
        q.schedule(SimTime::from_micros(5), Ev::Tick(40));
        run_until(&mut w, &mut q, horizon);
        w.log
    }

    fn run_part(horizon: SimTime) -> Vec<(u64, &'static str, u32, u64)> {
        let mut w = Mini::new(3);
        let mut q = EventQueue::new();
        let items = arrivals();
        q.skip_seqs(items.len() as u64);
        q.schedule(SimTime::from_micros(5), Ev::Tick(40));
        let mut cal = PartitionCalendar::new(q);
        let mut rail = Rail::from_schedule_order(items);
        run_partition(
            &mut w,
            &mut cal,
            &mut rail,
            EventKey::new(horizon, 0),
            u64::MAX,
        );
        w.log
    }

    /// The session pattern: no feed; arrivals go onto the heap under the
    /// seqs reserved for them, and the caller steps the calendar itself.
    fn run_stepped(horizon: SimTime) -> Vec<(u64, &'static str, u32, u64)> {
        let mut w = Mini::new(3);
        let mut q = EventQueue::new();
        let items = arrivals();
        q.skip_seqs(items.len() as u64);
        q.schedule(SimTime::from_micros(5), Ev::Tick(40));
        let mut cal = PartitionCalendar::new(q);
        for (seq, (t, ev)) in items.into_iter().enumerate() {
            cal.queue_mut().schedule_reserved(t, seq as u64, ev);
        }
        while let Some(key) = cal.peek_key() {
            if key.time() >= horizon {
                break;
            }
            let (now, ev) = cal.pop().unwrap();
            assert_eq!(now, key.time());
            assert_eq!(cal.queue().floor(), now);
            w.on_event(now, ev, &mut cal);
        }
        w.log
    }

    #[test]
    fn stepping_the_calendar_is_bit_identical_to_serial() {
        let horizon = SimTime::from_secs(10);
        assert_eq!(run_serial(horizon), run_stepped(horizon));
        let horizon = SimTime::from_micros(300);
        assert_eq!(run_serial(horizon), run_stepped(horizon));
    }

    #[test]
    fn partitioned_replay_is_bit_identical_to_serial() {
        let horizon = SimTime::from_secs(10);
        assert_eq!(run_serial(horizon), run_part(horizon));
    }

    #[test]
    fn mid_run_bound_preserves_prefix_order() {
        let horizon = SimTime::from_micros(300);
        let serial = run_serial(horizon);
        let part = run_part(horizon);
        assert!(!serial.is_empty());
        assert_eq!(serial, part);
    }

    #[test]
    fn rail_pops_fifo_within_ties() {
        let mut rail = Rail::from_schedule_order(vec![
            (SimTime::from_micros(5), "b"),
            (SimTime::from_micros(1), "a"),
            (SimTime::from_micros(5), "c"),
        ]);
        assert_eq!(rail.len(), 3);
        assert_eq!(rail.pop(), Some((SimTime::from_micros(1), "a")));
        assert_eq!(rail.pop(), Some((SimTime::from_micros(5), "b")));
        assert_eq!(rail.pop(), Some((SimTime::from_micros(5), "c")));
        assert!(rail.is_empty());
    }

    #[test]
    fn superseded_wakes_are_never_dispatched() {
        // Arm twice with different versions: only the second survives.
        let mut cal: PartitionCalendar<Ev> = PartitionCalendar::new(EventQueue::new());
        cal.arm_wake(0, SimTime::from_micros(10), 1);
        cal.arm_wake(0, SimTime::from_micros(20), 2);
        assert_eq!(
            cal.peek_wake().map(|k| (k.time(), k.seq())),
            Some((SimTime::from_micros(20), 1))
        );
        let (key, worker, version) = cal.pop_wake().unwrap();
        assert_eq!(
            (key.time(), worker, version),
            (SimTime::from_micros(20), 0, 2)
        );
        assert_eq!(cal.peek_wake(), None);
    }

    #[test]
    fn same_version_rearm_keeps_the_earlier_entry() {
        let mut cal: PartitionCalendar<Ev> = PartitionCalendar::new(EventQueue::new());
        cal.arm_wake(4, SimTime::from_micros(10), 7);
        cal.arm_wake(4, SimTime::from_micros(10), 7);
        let (key, worker, version) = cal.pop_wake().unwrap();
        // seq 0 = the first arm; the duplicate consumed seq 1 silently.
        assert_eq!(key.seq(), 0);
        assert_eq!((worker, version), (4, 7));
        assert_eq!(cal.queue().next_seq(), 2);
        assert_eq!(cal.pop_wake(), None);
    }
}
