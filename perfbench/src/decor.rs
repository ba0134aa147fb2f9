//! Forwarding decorators that time the calls a simulation makes into the
//! scheduler, the trace sink and the clock, without touching the program.
//!
//! Each decorator forwards every trait method to the wrapped value, so a
//! decorated run makes exactly the decisions an undecorated one makes; the
//! benchmark checks that the two runs' results are bit-identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use paldia_cluster::{Decision, Observation, Scheduler};
use paldia_hw::InstanceKind;
use paldia_obs::{DecisionEvent, TraceEvent, TraceSink};
use paldia_sim::{Clock, SimTime};

use crate::span::Recorder;

/// Span names the decorators record.
pub const DECIDE: &str = "core.decide";
pub const RECORD: &str = "obs.record";
pub const PACE: &str = "clock.pace";

/// Times `decide` and counts its calls (shared across shard threads).
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    rec: Arc<Recorder>,
    calls: Arc<AtomicU64>,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, rec: Arc<Recorder>, calls: Arc<AtomicU64>) -> Self {
        TimedScheduler { inner, rec, calls }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &Observation) -> Decision {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let _span = self.rec.open(DECIDE);
        self.inner.decide(obs)
    }

    fn on_transition_complete(&mut self, new_hw: InstanceKind) {
        self.inner.on_transition_complete(new_hw);
    }

    fn set_decision_recording(&mut self, enabled: bool) {
        self.inner.set_decision_recording(enabled);
    }

    fn drain_decision_events(&mut self) -> Vec<DecisionEvent> {
        self.inner.drain_decision_events()
    }
}

/// Times every `record` into the wrapped sink.
pub struct TimedSink<'s> {
    inner: &'s mut dyn TraceSink,
    rec: Arc<Recorder>,
}

impl<'s> TimedSink<'s> {
    pub fn new(inner: &'s mut dyn TraceSink, rec: Arc<Recorder>) -> Self {
        TimedSink { inner, rec }
    }
}

impl TraceSink for TimedSink<'_> {
    fn record(&mut self, event: TraceEvent) {
        let _span = self.rec.open(RECORD);
        self.inner.record(event);
    }
}

/// Times every `pace` of the wrapped clock (for a wall clock, the time the
/// shell waited for the schedule).
pub struct TimedClock<C> {
    inner: C,
    rec: Arc<Recorder>,
}

impl<C: Clock> TimedClock<C> {
    pub fn new(inner: C, rec: Arc<Recorder>) -> Self {
        TimedClock { inner, rec }
    }
}

impl<C: Clock> Clock for TimedClock<C> {
    fn pace(&mut self, next: SimTime) {
        let _span = self.rec.open(PACE);
        self.inner.pace(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_hw::Catalog;
    use paldia_obs::{CountingSink, TraceEventKind};
    use paldia_workloads::MlModel;
    use std::sync::Mutex;

    /// A scheduler that logs every call it receives.
    struct Logged(Arc<Mutex<Vec<String>>>);

    impl Scheduler for Logged {
        fn name(&self) -> &str {
            "logged"
        }
        fn decide(&mut self, obs: &Observation) -> Decision {
            self.0.lock().unwrap().push("decide".into());
            Decision::stay(obs.current_hw)
        }
        fn on_transition_complete(&mut self, new_hw: InstanceKind) {
            self.0.lock().unwrap().push(format!("transition {new_hw}"));
        }
        fn set_decision_recording(&mut self, enabled: bool) {
            self.0.lock().unwrap().push(format!("recording {enabled}"));
        }
        fn drain_decision_events(&mut self) -> Vec<DecisionEvent> {
            self.0.lock().unwrap().push("drain".into());
            Vec::new()
        }
    }

    fn obs() -> Observation {
        Observation {
            now: SimTime::ZERO,
            slo_ms: 200.0,
            current_hw: InstanceKind::G3s_xlarge,
            transitioning: false,
            pending_hw: None,
            available: Catalog::table_ii(),
            models: Vec::new(),
        }
    }

    #[test]
    fn scheduler_decorator_forwards_every_method_and_counts_decides() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let rec = Arc::new(Recorder::default());
        let calls = Arc::new(AtomicU64::new(0));
        let mut s = TimedScheduler::new(Box::new(Logged(log.clone())), rec.clone(), calls.clone());
        assert_eq!(s.name(), "logged");
        s.set_decision_recording(true);
        let d = s.decide(&obs());
        assert_eq!(d.hw, InstanceKind::G3s_xlarge);
        s.on_transition_complete(InstanceKind::P3_2xlarge);
        assert!(s.drain_decision_events().is_empty());
        s.set_decision_recording(false);
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                "recording true".to_string(),
                "decide".into(),
                format!("transition {}", InstanceKind::P3_2xlarge),
                "drain".into(),
                "recording false".into(),
            ]
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, DECIDE);
    }

    #[test]
    fn sink_and_clock_decorators_forward_and_time_each_call() {
        let rec = Arc::new(Recorder::default());
        let mut inner = CountingSink::new();
        {
            let mut sink = TimedSink::new(&mut inner, rec.clone());
            for i in 0..3 {
                sink.record(TraceEvent {
                    seq: i,
                    at: SimTime::ZERO,
                    scope: 0,
                    kind: TraceEventKind::RequestArrived {
                        request: i,
                        model: MlModel::GoogleNet,
                    },
                });
            }
        }
        assert_eq!(inner.count(), 3);

        struct Ticks(Vec<SimTime>);
        impl Clock for Ticks {
            fn pace(&mut self, next: SimTime) {
                self.0.push(next);
            }
        }
        let mut clock = TimedClock::new(Ticks(Vec::new()), rec.clone());
        clock.pace(SimTime::from_secs(1));
        assert_eq!(clock.inner.0, vec![SimTime::from_secs(1)]);

        let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, vec![RECORD, RECORD, RECORD, PACE]);
    }
}
