//! Multi-tenant fleet simulation: several deployments (each with its own
//! scheduler) co-scheduled over a **finite node inventory**.
//!
//! The paper evaluates one model deployment at a time against an elastic
//! menu of instance kinds; a provider, though, runs many functions over the
//! *same* six physical nodes (§I frames exactly this setting). A fleet is
//! the one tenant-indexed [`crate::harness`] with more than one tenant:
//! every deployment keeps its own gateway, batchers, predictors and
//! scheduler, while node leases draw from a shared per-kind inventory —
//! when another tenant holds the last V100, it simply is not in your
//! catalog this interval. A single-tenant run is a fleet of one over
//! elastic inventory, so every feature (faults, iteration-level batching,
//! retargeted transitions) behaves the same in both.
//!
//! Faults are fleet-wide ([`crate::faults`]): a node-crash window fails
//! *every* tenant's routing worker (a correlated outage of the serving
//! nodes), evicting and requeueing each tenant's work on its
//! [`crate::faults::FailoverPolicy`] replacement under the shared
//! inventory; degradation, straggler, and cold-start-storm windows hit all
//! live workers.
//!
//! Every fleet runs on the partition engine. A fleet over finite inventory
//! couples its tenants at every lease and release, so it runs as one
//! partition ([`run_fleet`]); an elastic fleet may also split its tenants
//! across shards ([`shard::run_fleet_sharded`]).

use crate::config::SimConfig;
use crate::harness::{run_harness, trace_end, Harness, Tenant, WorkloadSpec};
use crate::policy::Scheduler;
use crate::result::RunResult;
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{TraceSink, Tracer};

pub mod shard;

/// One tenant of the fleet.
pub struct FleetDeployment {
    /// Display name (prefixes the result's scheme label).
    pub name: String,
    /// The tenant's workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// The tenant's scheduling policy.
    pub scheduler: Box<dyn Scheduler>,
    /// Node the tenant starts warm on (leased from the inventory).
    pub initial_hw: InstanceKind,
}

/// Run a fleet of deployments over a shared inventory (`units_per_kind`
/// copies of each catalog kind — 1 mirrors the paper's physical cluster).
/// Returns one [`RunResult`] per deployment, in input order.
pub fn run_fleet(
    mut deployments: Vec<FleetDeployment>,
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &SimConfig,
) -> Vec<RunResult> {
    run_unsharded(
        &mut deployments,
        catalog,
        units_per_kind,
        cfg,
        Tracer::disabled(),
    )
    .0
}

/// Like [`run_fleet`], but records the observability stream into `sink`.
/// Events are scoped per tenant (`1 + deployment index`; 0 = fleet-global),
/// so a chrome-trace export shows one process lane per deployment. Metrics
/// are bit-identical to an untraced run with the same inputs.
pub fn run_fleet_traced(
    mut deployments: Vec<FleetDeployment>,
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &SimConfig,
    sink: &mut dyn TraceSink,
) -> Vec<RunResult> {
    run_unsharded(
        &mut deployments,
        catalog,
        units_per_kind,
        cfg,
        Tracer::new(sink),
    )
    .0
}

/// The fleet's tenants, borrowing each deployment's scheduler, and each
/// tenant's workloads; tenant `i` has global index `i`. Traced runs record
/// decision events.
pub(crate) fn fleet_tenants<'a>(
    deployments: &'a mut [FleetDeployment],
    cfg: &SimConfig,
    traced: bool,
) -> (Vec<Tenant<'a>>, Vec<&'a [WorkloadSpec]>) {
    let mut tenants = Vec::with_capacity(deployments.len());
    let mut workloads = Vec::with_capacity(deployments.len());
    for (i, d) in deployments.iter_mut().enumerate() {
        let FleetDeployment {
            name,
            workloads: specs,
            scheduler,
            initial_hw,
        } = d;
        if traced {
            scheduler.set_decision_recording(true);
        }
        let specs: &'a Vec<WorkloadSpec> = specs;
        let models = specs.iter().map(|s| s.model).collect();
        let label = Some(name.clone());
        tenants.push(Tenant::new(
            &mut **scheduler,
            models,
            *initial_hw,
            i,
            label,
            cfg,
        ));
        workloads.push(specs.as_slice());
    }
    (tenants, workloads)
}

/// Every tenant in one harness, run as one partition; returns the results
/// and the events dispatched.
pub(crate) fn run_unsharded<'a>(
    deployments: &'a mut [FleetDeployment],
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &'a SimConfig,
    tracer: Tracer<'a>,
) -> (Vec<RunResult>, u64) {
    let (tenants, workloads) = fleet_tenants(deployments, cfg, tracer.enabled());
    let end = trace_end(workloads.iter().copied());
    let harness = Harness::new(cfg, catalog, units_per_kind, tenants, end, tracer);
    run_harness(harness, &workloads)
}
