//! Results oracle: one FNV-1a fingerprint over every [`RunResult`] field
//! for a fixed set of runs, committed as `tests/golden/run_fingerprints.txt`.
//!
//! The decision-log gates ([`crate::diffcap`], [`crate::llm_iter`]) pin
//! *what the scheduler decided* on two scenarios; this gate pins *what the
//! cluster did with it* — every completed request's timing, hardware and
//! batch, every node lease, cost, cold starts, transitions, the routing
//! timeline — across the axes a harness refactor can break:
//!
//! * single-tenant runs: a clean GPU run, a time-sharing overload, a CPU
//!   node, a run whose transitions retarget (a surge upgrades past a
//!   pending node), and the four fault kinds alone and together;
//! * the iteration-level LLM storm;
//! * fleets over finite and elastic inventory, clean and faulted, on the
//!   unsplit path and (elastic) split across shards.
//!
//! `repro --diff-golden` re-runs every scenario and compares against the
//! committed file; `repro --bless-golden` (`scripts/rebless.sh`) rewrites
//! it. A fingerprint that moves is a behaviour change: bless it only in a
//! commit that names the rule that moved it.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

use crate::common::SchemeKind;
use crate::llm_iter::{run_llm, LlmRunOpts};
use crate::scenarios::{azure_workload_truncated, bursty_workload, poisson_workload};
use paldia_cluster::{
    run_fleet, run_fleet_sharded, run_simulation, FailoverPolicyKind, FaultPlan, FleetDeployment,
    RunResult, SimConfig, WorkloadSpec,
};
use paldia_core::PaldiaScheduler;
use paldia_hw::{Catalog, InstanceKind};
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::MlModel;

/// FNV-1a over every field of `results`, in order: equal fingerprints mean
/// bit-identical results (floats are hashed by their bits or by their
/// round-trip `Debug` text).
pub fn fingerprint(results: &[RunResult]) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            Hasher::write(self, s.as_bytes());
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for r in results {
        for c in &r.completed {
            c.id.hash(&mut h);
            c.model.hash(&mut h);
            for t in [c.arrival, c.batch_closed, c.exec_start, c.completed] {
                t.as_micros().hash(&mut h);
            }
            c.solo_ms.to_bits().hash(&mut h);
            c.hw.hash(&mut h);
            c.batch_size.hash(&mut h);
        }
        write!(
            h,
            "{}|{}|{:?}|{:?}|{:?}|{}|{}|{:?}|{:?}",
            r.scheme,
            r.unserved,
            r.arrived_per_model,
            r.cost,
            r.nodes,
            r.cold_starts,
            r.transitions,
            r.hw_timeline,
            r.trace_duration
        )
        .expect("hashing cannot fail");
    }
    h.finish()
}

/// Seed of every fingerprint scenario except the retargeting case.
const SEED: u64 = 42;
/// Trace length of the short scenarios, seconds.
const SECS: u64 = 120;

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn dur(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// The fault plans of the single-tenant fault scenarios, by name.
fn fault_plan(name: &str) -> FaultPlan {
    let crash = || FaultPlan::new().crash(secs(30), dur(20));
    match name {
        "crash" => crash(),
        "degrade" => FaultPlan::new().degrade(secs(20), dur(40), 0.6),
        "straggler" => FaultPlan::new().straggler(secs(0), dur(90), 3.0),
        "storm" => FaultPlan::new()
            .cold_start_storm(secs(40))
            .cold_start_storm(secs(80)),
        _ => crash()
            .degrade(secs(20), dur(40), 0.6)
            .straggler(secs(0), dur(90), 3.0)
            .cold_start_storm(secs(40))
            .cold_start_storm(secs(80)),
    }
}

/// One single-tenant run of `scheme` over `workloads`.
fn single(
    scheme: SchemeKind,
    workloads: &[WorkloadSpec],
    catalog: Catalog,
    cfg: &SimConfig,
) -> Vec<RunResult> {
    let mut sched = scheme.build(workloads);
    let initial = scheme.initial_hw(workloads, &catalog, cfg.slo_ms);
    vec![run_simulation(
        workloads,
        &mut *sched,
        initial,
        catalog,
        cfg,
    )]
}

/// The setting every single-tenant fault scenario runs on: ResNet-50 with
/// a 10 s burst every 30 s, so containers scale out during every window.
fn quick_resnet(plan: Option<FaultPlan>) -> Vec<RunResult> {
    let mut cfg = SimConfig::with_seed(SEED);
    if let Some(plan) = plan {
        cfg = cfg.with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
    }
    let w = [bursty_workload(
        MlModel::ResNet50,
        40.0,
        300.0,
        30,
        10,
        SECS,
    )];
    single(SchemeKind::Paldia, &w, Catalog::table_ii(), &cfg)
}

/// The retargeting case: Azure ResNet-50 at seed 7, whose surge upgrades
/// past in-flight transition targets; optionally under sampled crashes.
fn azure_retarget(crashes: bool) -> Vec<RunResult> {
    let mut cfg = SimConfig::with_seed(7);
    if crashes {
        let plan = FaultPlan::sampled_crashes(7, secs(RETARGET_SECS), 4, dur(30));
        cfg = cfg.with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
    }
    let w = [azure_workload_truncated(
        MlModel::ResNet50,
        7,
        RETARGET_SECS,
    )];
    single(SchemeKind::Paldia, &w, Catalog::table_ii(), &cfg)
}

/// Trace length of the retargeting scenario, seconds.
const RETARGET_SECS: u64 = 1_800;

/// Four Paldia tenants (two high-FBR, two low-FBR vision models) over
/// staggered Azure slices, each starting on its own cheap node.
fn fleet_deployments() -> Vec<FleetDeployment> {
    let tenants = [
        (MlModel::GoogleNet, InstanceKind::M4_xlarge),
        (MlModel::ResNet50, InstanceKind::C6i_2xlarge),
        (MlModel::Dpn92, InstanceKind::C6i_4xlarge),
        (MlModel::SeNet18, InstanceKind::G3s_xlarge),
    ];
    tenants
        .iter()
        .enumerate()
        .map(|(i, &(model, initial_hw))| {
            let base = azure_workload_truncated(model, SEED + i as u64, SECS + 60 * i as u64);
            FleetDeployment {
                name: model.name().to_string(),
                workloads: vec![WorkloadSpec::new(model, base.trace.rotate(i * 30))],
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw,
            }
        })
        .collect()
}

/// A fleet run: `units` per kind (`u32::MAX` = elastic), optionally under
/// every fault kind, on `shards` partitions (0 = the serial `run_fleet`).
fn fleet(units: u32, faulted: bool, shards: u32) -> Vec<RunResult> {
    let mut cfg = SimConfig::with_seed(SEED);
    if faulted {
        cfg = cfg.with_faults(
            fault_plan("all"),
            FailoverPolicyKind::CheapestMorePerformant,
        );
    }
    let catalog = Catalog::table_ii();
    if shards == 0 {
        run_fleet(fleet_deployments(), catalog, units, &cfg)
    } else {
        run_fleet_sharded(fleet_deployments(), catalog, units, &cfg, shards)
    }
}

/// A fingerprint scenario: its name and the runs it fingerprints.
pub type Scenario = (&'static str, fn() -> Vec<RunResult>);

/// Every fingerprint scenario, in file order.
pub fn scenarios() -> Vec<Scenario> {
    vec![
        ("single-clean-gpu", || quick_resnet(None)),
        ("single-timeshare-overload", || {
            let w = [poisson_workload(MlModel::ResNet50, 400.0, 60)];
            let cfg = SimConfig::with_seed(SEED);
            let scheme = SchemeKind::TimeSharedOnly(InstanceKind::G3s_xlarge);
            single(scheme, &w, Catalog::table_ii(), &cfg)
        }),
        ("single-cpu-node", || {
            let w = [poisson_workload(MlModel::MobileNet, 60.0, 60)];
            let cfg = SimConfig::with_seed(SEED);
            let cpus = Catalog::of(&[
                InstanceKind::M4_xlarge,
                InstanceKind::C6i_2xlarge,
                InstanceKind::C6i_4xlarge,
            ]);
            single(SchemeKind::Paldia, &w, cpus, &cfg)
        }),
        ("single-azure-retarget", || azure_retarget(false)),
        ("single-azure-retarget-crashes", || azure_retarget(true)),
        ("single-crash", || quick_resnet(Some(fault_plan("crash")))),
        ("single-degrade", || {
            quick_resnet(Some(fault_plan("degrade")))
        }),
        ("single-straggler", || {
            quick_resnet(Some(fault_plan("straggler")))
        }),
        ("single-storm", || quick_resnet(Some(fault_plan("storm")))),
        ("single-all-faults", || {
            quick_resnet(Some(fault_plan("all")))
        }),
        ("llm-storm", || vec![run_llm(&LlmRunOpts::golden())]),
        ("fleet-finite-clean", || fleet(1, false, 0)),
        ("fleet-finite-faulted", || fleet(1, true, 0)),
        ("fleet-elastic-clean", || fleet(u32::MAX, false, 0)),
        ("fleet-elastic-faulted", || fleet(u32::MAX, true, 0)),
        ("fleet-elastic-faulted-sharded", || fleet(u32::MAX, true, 2)),
    ]
}

/// Path of the committed fingerprint file, anchored to the workspace root.
pub fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/run_fingerprints.txt")
}

/// Run every scenario: `(name, fingerprint)` in file order.
pub fn compute() -> Vec<(String, u64)> {
    scenarios()
        .into_iter()
        .map(|(name, run)| (name.to_string(), fingerprint(&run())))
        .collect()
}

/// Render fingerprints in the committed line format: `name hex`.
pub fn render(prints: &[(String, u64)]) -> String {
    let mut out = String::from(
        "# Run fingerprints: FNV-1a over every RunResult field (experiments::fingerprints).\n\
         # Re-bless with scripts/rebless.sh; a moved line is a behaviour change.\n",
    );
    for (name, h) in prints {
        let _ = writeln!(out, "{name} {h:016x}");
    }
    out
}

/// Parse the committed line format (blank lines and `#` comments skipped).
pub fn parse(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("run fingerprints line {}: expected `name hex`", i + 1);
        let (name, hex) = line.split_once(' ').ok_or_else(bad)?;
        let h = u64::from_str_radix(hex.trim(), 16).map_err(|_| bad())?;
        out.push((name.to_string(), h));
    }
    Ok(out)
}

/// Regenerate the committed file; returns the number of scenarios.
pub fn write_golden(path: &Path) -> Result<usize, String> {
    let prints = compute();
    std::fs::write(path, render(&prints))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(prints.len())
}

/// The gate: re-run every scenario against the committed file. Returns the
/// mismatch descriptions (empty = every fingerprint reproduced); `Err`
/// means the file is missing or malformed.
pub fn gate() -> Result<Vec<String>, String> {
    let path = golden_path();
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "reading run fingerprints {}: {e}\n(regenerate with scripts/rebless.sh)",
            path.display()
        )
    })?;
    Ok(diff(&parse(&text)?, &compute()))
}

/// Describe every difference between committed and current fingerprints.
pub fn diff(committed: &[(String, u64)], current: &[(String, u64)]) -> Vec<String> {
    let mut out = Vec::new();
    for (name, now) in current {
        match committed.iter().find(|(n, _)| n == name) {
            None => out.push(format!("{name}: not in the committed file")),
            Some((_, was)) if was != now => {
                out.push(format!("{name}: committed {was:016x}, current {now:016x}"))
            }
            Some(_) => {}
        }
    }
    for (name, _) in committed {
        if !current.iter().any(|(n, _)| n == name) {
            out.push(format!("{name}: committed but no longer run"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        let prints = vec![("a".to_string(), 1u64), ("b-c".to_string(), u64::MAX)];
        assert_eq!(parse(&render(&prints)).unwrap(), prints);
        assert!(parse("oops").is_err());
    }

    #[test]
    fn diff_names_moved_missing_and_extra_lines() {
        let committed = vec![("a".to_string(), 1), ("gone".to_string(), 2)];
        let current = vec![("a".to_string(), 3), ("new".to_string(), 4)];
        let d = diff(&committed, &current);
        assert_eq!(d.len(), 3);
        assert!(d[0].starts_with("a: committed 0000000000000001"));
        assert!(diff(&committed, &committed).is_empty());
    }
}
