//! # paldia-sim
//!
//! A small, deterministic discrete-event simulation (DES) engine.
//!
//! Every experiment in the Paldia reproduction runs on top of this engine:
//! request arrivals, batch formation, GPU/CPU job completions, autoscaler
//! ticks, hardware procurement, and node failures are all events drawn from
//! a single totally-ordered calendar queue.
//!
//! Design goals:
//!
//! * **Determinism.** Identical seeds produce identical traces, schedules,
//!   and metrics, bit-for-bit, on every platform. Ties in event time are
//!   broken by insertion order (FIFO), never by heap internals.
//! * **No global state.** The engine owns nothing but the calendar; all
//!   domain state lives in the caller's [`World`] implementation.
//! * **Cheap events.** Events are plain enums moved by value; the queue is a
//!   binary heap of `(SimTime, u64, E)` triples.
//!
//! ```
//! use paldia_sim::{EventQueue, SimTime, SimDuration, World, run_until};
//!
//! struct Counter { fired: u32 }
//! enum Ev { Tick }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, q: &mut EventQueue<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             q.schedule(now + SimDuration::from_millis(100), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut w = Counter { fired: 0 };
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO, Ev::Tick);
//! run_until(&mut w, &mut q, SimTime::from_secs(60));
//! assert_eq!(w.fired, 10);
//! ```

pub mod calendar;
pub mod clock;
pub mod engine;
pub mod event;
pub mod histogram;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod time;

pub use calendar::{
    run_partition, ArrivalFeed, Calendar, PartitionCalendar, PartitionWorld, Rail, WakeEvent,
};
pub use clock::{Clock, VirtualClock};
pub use engine::{run_to_completion, run_until, RunOutcome, World};
pub use event::{EventKey, EventQueue};
pub use histogram::LogHistogram;
pub use rng::SimRng;
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
