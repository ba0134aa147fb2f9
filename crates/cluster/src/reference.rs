//! A reference driver for parity tests — not a production path.
//!
//! Every run goes through the partition engine: arrivals streamed one
//! trace bin at a time, wakes in per-worker registers. This driver runs
//! the same `Harness::on_event` the plain way instead: every arrival
//! sampled in full up front (the sampling [`crate::sample_arrivals`]
//! records), pushed onto one [`EventQueue`], and driven by
//! [`paldia_sim::run_until`]. Equal results from both show that streaming,
//! the merge order and the wake registers change nothing.
//!
//! The dispatched-event count differs: this driver also dispatches every
//! superseded wake, which the partition calendar drops.

use crate::arrivals::Sampler;
use crate::config::SimConfig;
use crate::fleet::{fleet_tenants, FleetDeployment};
use crate::harness::{solo_harness, trace_end, Ev, Harness, WorkloadSpec};
use crate::policy::Scheduler;
use crate::result::RunResult;
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{TraceSink, Tracer};
use paldia_sim::{run_until, EventQueue, SimTime, World};

/// The harness as a serial-engine [`World`].
struct Serial<'h, 'a>(&'h mut Harness<'a>);

impl World for Serial<'_, '_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
        self.0.on_event(now, ev, q);
    }
}

/// Schedule every tenant's arrivals, then seed the calendar (fault edges
/// included) and run to the horizon on the serial heap.
fn run_serial(
    mut harness: Harness<'_>,
    workloads: &[&[WorkloadSpec]],
    cfg: &SimConfig,
) -> Vec<RunResult> {
    let horizon = harness.horizon();
    let mut q = EventQueue::new();
    let mut sampler = Sampler::new(cfg.seed);
    for (dep, specs) in workloads.iter().enumerate() {
        sampler.tenant(dep, specs, |r| {
            let ev = Ev::Arrival {
                tenant: dep as u32,
                id: r.id,
                model: r.model,
            };
            q.schedule(r.arrival, ev);
        });
    }
    harness.seed_calendar(&mut q, true);
    let events = run_until(&mut Serial(&mut harness), &mut q, horizon).events();
    harness.finish(horizon, events)
}

/// [`crate::run_simulation`] (or, with a sink,
/// [`crate::run_simulation_traced`]) on the reference driver.
#[doc(hidden)]
pub fn run_simulation_reference(
    workloads: &[WorkloadSpec],
    scheduler: &mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &SimConfig,
    sink: Option<&mut dyn TraceSink>,
) -> RunResult {
    let traced = sink.is_some();
    if traced {
        scheduler.set_decision_recording(true);
    }
    let tracer = match sink {
        Some(sink) => Tracer::new(&mut *sink),
        None => Tracer::disabled(),
    };
    let models = workloads.iter().map(|s| s.model).collect();
    let end = trace_end([workloads]);
    let harness = solo_harness(
        models,
        &mut *scheduler,
        initial_hw,
        catalog,
        cfg,
        end,
        tracer,
    );
    let result = run_serial(harness, &[workloads], cfg).pop();
    if traced {
        scheduler.set_decision_recording(false);
    }
    result.expect("invariant: one tenant, one result")
}

/// [`crate::run_fleet`] on the reference driver.
#[doc(hidden)]
pub fn run_fleet_reference(
    mut deployments: Vec<FleetDeployment>,
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &SimConfig,
) -> Vec<RunResult> {
    let (tenants, workloads) = fleet_tenants(&mut deployments, cfg, false);
    let end = trace_end(workloads.iter().copied());
    let harness = Harness::new(
        cfg,
        catalog,
        units_per_kind,
        tenants,
        end,
        Tracer::disabled(),
    );
    run_serial(harness, &workloads, cfg)
}
