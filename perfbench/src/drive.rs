//! The traced session driver: the same call sequence as
//! `paldia_cluster::run_replay`, with a span around every `SimSession::step`
//! and each step classified from outside by what it did.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use paldia_cluster::{CompletedRequest, SampledArrival, SimSession};
use paldia_sim::{Clock, SimTime};

use crate::span::Recorder;

/// What one step did, as seen from outside the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    Arrival,
    Decide,
    Completion,
    Other,
}

impl StepKind {
    pub const ALL: [StepKind; 4] = [
        StepKind::Arrival,
        StepKind::Completion,
        StepKind::Decide,
        StepKind::Other,
    ];

    /// The span name of a step of this kind.
    pub fn span_name(self) -> &'static str {
        match self {
            StepKind::Arrival => "step.arrival",
            StepKind::Completion => "step.completion",
            StepKind::Decide => "step.decide",
            StepKind::Other => "step.other",
        }
    }
}

/// Classify a step. `oldest_injected` is the time of the oldest injected
/// arrival the session has not processed yet: injected arrivals own the
/// session's lowest sequence numbers, so at a tied instant they pop before
/// any other event, and a step at exactly that time is that arrival.
/// Otherwise a step that called `decide` was a monitor tick, and one that
/// produced completions was a device completion.
pub fn classify(
    step_at: SimTime,
    oldest_injected: Option<SimTime>,
    decided: bool,
    completions: usize,
) -> StepKind {
    if oldest_injected == Some(step_at) {
        StepKind::Arrival
    } else if decided {
        StepKind::Decide
    } else if completions > 0 {
        StepKind::Completion
    } else {
        StepKind::Other
    }
}

/// Replay `arrivals` into `session`, pacing on `clock`, exactly as
/// `run_replay` does, recording one span per step. `decides` is the call
/// counter of the session's decorated scheduler.
pub fn drive<C: Clock>(
    session: &mut SimSession<'_>,
    arrivals: &[SampledArrival],
    clock: &mut C,
    rec: &Recorder,
    decides: &AtomicU64,
    mut on_complete: impl FnMut(&CompletedRequest),
) {
    let mut injected: VecDeque<SimTime> = VecDeque::new();
    let mut step = |session: &mut SimSession<'_>, injected: &mut VecDeque<SimTime>| -> bool {
        let before = decides.load(Ordering::Relaxed);
        let mut span = rec.open(StepKind::Other.span_name());
        let Some(at) = session.step() else {
            return false;
        };
        let done = session.drain_completions();
        let decided = decides.load(Ordering::Relaxed) != before;
        let kind = classify(at, injected.front().copied(), decided, done.len());
        if kind == StepKind::Arrival {
            injected.pop_front();
        }
        span.rename(kind.span_name());
        drop(span);
        for c in &done {
            on_complete(c);
        }
        true
    };
    for sa in arrivals {
        while let Some(t) = session.next_event_time() {
            if t >= sa.at {
                break;
            }
            clock.pace(t);
            if !step(session, &mut injected) {
                break;
            }
        }
        clock.pace(sa.at);
        session.inject_recorded(sa);
        injected.push_back(sa.at);
    }
    while let Some(t) = session.next_event_time() {
        if t >= session.horizon() {
            break;
        }
        clock.pace(t);
        if !step(session, &mut injected) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_classified_by_what_they_did() {
        let t = SimTime::from_millis(7);
        // The oldest pending injected arrival fires first at its instant,
        // even if the same step's time also saw a decision or completion.
        assert_eq!(classify(t, Some(t), true, 3), StepKind::Arrival);
        // A pending arrival at a later time does not claim this step.
        let later = Some(SimTime::from_millis(9));
        assert_eq!(classify(t, later, true, 3), StepKind::Decide);
        assert_eq!(classify(t, later, false, 2), StepKind::Completion);
        assert_eq!(classify(t, None, false, 0), StepKind::Other);
        assert_eq!(StepKind::Arrival.span_name(), "step.arrival");
    }
}
