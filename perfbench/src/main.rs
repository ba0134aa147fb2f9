//! Outside-in benchmark of the Paldia reproduction.
//!
//! ```text
//! paldia-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                  [--serve-bin PATH] [--out-dir DIR] [--host TEXT]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on an untraced pass;
//! `--trace 1` measures the per-layer metrics on a traced pass and its
//! untraced twin. Both check the program's outputs and print, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! 0 only when every check held. `perfbench/run.py` builds this binary and
//! `paldia-serve` and runs it; see `perfbench/README.md`.

mod decor;
mod des;
mod drive;
mod layers;
mod report;
mod serve;
mod span;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use paldia_cluster::{RecordedTrace, RunResult, SampledArrival, SimConfig};
use paldia_core::ysearch::cache_counters;
use paldia_hw::InstanceKind;
use paldia_sim::VirtualClock;
use paldia_workloads::tokens::TokenCard;
use paldia_workloads::MlModel;

use crate::des::{fingerprint, sim_metrics, DesKind, Scenario, SimMetrics};
use crate::drive::StepKind;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::span::{summarize, write_spans, Recorder, Span};
use crate::stats::{least, median, percentile};

const USAGE: &str =
    "usage: paldia-perfbench --workload twitter-vision|fleet-faults|llm-storm|serve-replay \
--seed N --seconds S --trace 0|1 [--serve-bin PATH] [--out-dir DIR] [--host TEXT]";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Fewest untraced repetitions per run (the determinism check needs two).
const MIN_REPS: usize = 3;
/// Fewest virtual replays of the serve trace per run (each is short).
const MIN_VIRTUAL_REPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    out_dir: PathBuf,
    host: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let required = |name: &str| value(name).ok_or_else(|| format!("missing {name}"));
    let number = |name: &str| -> Result<u64, String> {
        let raw = required(name)?;
        raw.parse()
            .map_err(|_| format!("bad value for {name}: `{raw}`"))
    };
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: required("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds,
        trace,
        serve_bin: value("--serve-bin").map(PathBuf::from),
        out_dir: PathBuf::from(value("--out-dir").unwrap_or(".bench_build/perfbench")),
        host: value("--host").unwrap_or("").to_string(),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paldia-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Job and shard counts are set only through the API; an inherited
    // override would silently change what is measured.
    for var in ["PALDIA_JOBS", "PALDIA_SHARDS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("paldia-perfbench: unset {var} before measuring");
            return ExitCode::from(2);
        }
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} available_parallelism={parallelism} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.host
    );
    let budget = Duration::from_secs(args.seconds);
    let des = match args.workload.as_str() {
        "twitter-vision" => Some(DesKind::TwitterVision),
        "fleet-faults" => Some(DesKind::FleetFaults),
        "llm-storm" => Some(DesKind::LlmStorm),
        "serve-replay" => None,
        other => {
            eprintln!("paldia-perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match (des, args.trace) {
        (Some(kind), false) => des_end_to_end(kind, args.seed, budget),
        (Some(kind), true) => des_per_layer(kind, args.seed, budget, &args),
        (None, trace) => {
            let Some(bin) = args.serve_bin.as_deref() else {
                eprintln!("paldia-perfbench: serve-replay needs --serve-bin\n{USAGE}");
                return ExitCode::from(2);
            };
            if trace {
                serve_per_layer(args.seed, budget, bin, &args)
            } else {
                serve_end_to_end(args.seed, budget, bin)
            }
        }
    };
    let ok = report.print(if args.trace { PER_LAYER } else { END_TO_END });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Simulated metrics shared by both modes: the same numbers the untraced
/// run's result gives, whatever the mode.
fn set_simulated(r: &mut Report, sm: &SimMetrics) {
    r.set("slo_miss_pct", sm.slo_miss_pct);
    r.set("cost_usd", sm.cost_usd);
    r.set("p99_latency_ms", sm.p99_latency_ms);
    r.set("p99_token_ms", sm.p99_token_ms);
    r.set("cluster.batcher.batch_size_mean", sm.batch_size_mean);
    r.set("cluster.batcher.wait_ms", sm.batch_wait_ms);
    r.set("cluster.device.queue_wait_ms", sm.queue_wait_ms);
    r.set("cluster.device.interference_ms", sm.interference_ms);
    r.set("cluster.cold_starts", sm.cold_starts as f64);
    r.set("cluster.transitions", sm.transitions as f64);
}

fn check_conservation(r: &mut Report, sm: &SimMetrics) {
    r.check(sm.completed + sm.unserved == sm.arrived, || {
        format!(
            "completed {} + unserved {} != arrived {}",
            sm.completed, sm.unserved, sm.arrived
        )
    });
}

fn des_end_to_end(kind: DesKind, seed: u64, budget: Duration) -> Report {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let mut scenario = None;
    for _ in 0..SETUP_REPS {
        let (sc, cpu_s) = cpu_timed(|| {
            let sc = Scenario::build(kind, seed);
            std::hint::black_box(sc.arrivals());
            sc
        });
        setups.push(cpu_s);
        scenario = Some(sc);
    }
    let sc = scenario.expect("at least one set-up");
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut first: Option<(u64, SimMetrics)> = None;
    while runs.len() < MIN_REPS || start.elapsed() < budget {
        let ((results, _), u) = timed_untraced(|| sc.run_untraced());
        println!(
            "# repetition {}: {:.6} s CPU, {:.6} s wall",
            runs.len() + 1,
            u.cpu_s,
            u.wall_s
        );
        runs.push(u.cpu_s);
        let fp = fingerprint(&results);
        let sm = sim_metrics(&results, sc.cfg.slo_ms, seed);
        drop(results);
        check_conservation(&mut r, &sm);
        r.attempted += sm.arrived;
        r.failed += sm.unserved;
        match &first {
            None => first = Some((fp, sm)),
            Some((fp0, sm0)) => r.check(fp == *fp0 && sm == *sm0, || {
                format!("repetition {} differs from the first", runs.len())
            }),
        }
    }
    let (_, sm) = first.expect("at least one run");
    // Host run time is a per-layer metric (see the README); it is printed
    // here for reading, not reported.
    println!("# run_s {:.6} s (median CPU time)", median(&runs));
    r.set("setup_s", median(&setups));
    r.set("peak_rss_mb", sys::peak_rss_mb(None).unwrap_or(0.0));
    r.set("wait_p50_ms", sm.wait_p50_ms);
    set_simulated(&mut r, &sm);
    println!(
        "# {} repetitions, {} arrived, {} unserved per run",
        runs.len(),
        sm.arrived,
        sm.unserved
    );
    r
}

/// Run `f`, returning its value and the process CPU seconds it used.
fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let cpu0 = sys::process_cpu_s();
    let out = f();
    (out, sys::process_cpu_s() - cpu0)
}

/// Per-layer numbers from one traced pass's spans.
fn set_span_metrics(r: &mut Report, spans: &[Span]) {
    let sum = summarize(spans);
    for kind in StepKind::ALL {
        let t = sum.get(kind.span_name()).copied().unwrap_or_default();
        let name = match kind {
            StepKind::Arrival => "cluster.harness.step_self_ns.arrival",
            StepKind::Completion => "cluster.harness.step_self_ns.completion",
            StepKind::Decide => "cluster.harness.step_self_ns.decide",
            StepKind::Other => "cluster.harness.step_self_ns.other",
        };
        r.set(name, t.self_ns as f64 / t.count.max(1) as f64);
    }
    let decides: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == decor::DECIDE)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    r.set("core.decide_calls", decides.len() as f64);
    r.set("core.decide_s", decides.iter().sum::<f64>() / 1e9);
    r.set("core.decide_p99_us", percentile(&decides, 99.0) / 1e3);
    let rec = sum.get(decor::RECORD).copied().unwrap_or_default();
    r.set("obs.records", rec.count as f64);
    r.set(
        "obs.record_ns",
        rec.total_ns as f64 / rec.count.max(1) as f64,
    );
    for (name, t) in &sum {
        println!(
            "# span {name:<34} count {:>9} total {:>12.6} s self {:>12.6} s",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
}

/// The layer replays, each fed this workload's own arrivals.
fn set_layer_replays(
    r: &mut Report,
    arrivals: &[SampledArrival],
    sizes: &BTreeMap<MlModel, u32>,
    hw: InstanceKind,
    cfg: &SimConfig,
    iterative: bool,
) {
    let rec = Recorder::default();
    {
        let _s = rec.open("replay.event_queue");
        r.set("sim.queue_ns_per_event", layers::event_queue(arrivals));
    }
    {
        let _s = rec.open("replay.partition");
        r.set("sim.partition_ns_per_event", layers::partition(arrivals));
    }
    let hints: Option<Vec<f64>> = iterative.then(|| {
        arrivals
            .iter()
            .map(|sa| {
                TokenCard::for_model(sa.model)
                    .sample(cfg.seed, sa.id.0)
                    .service_hint_ms(sa.model)
            })
            .collect()
    });
    let batches = {
        let _s = rec.open("replay.batcher");
        let (ns, batches) = layers::batcher(arrivals, sizes, cfg.batch_window, hints.as_deref());
        r.set("cluster.batcher.ns_per_request", ns);
        batches
    };
    {
        let _s = rec.open("replay.shared_device");
        r.set(
            "cluster.device.shared_ns_per_batch",
            layers::shared_device(&batches, hw),
        );
    }
    {
        let _s = rec.open("replay.iterative_engine");
        let (ns, _) = layers::iterative(arrivals, hw, cfg.seed);
        r.set("cluster.device.iter_ns_per_tick", ns);
    }
    for s in rec.spans() {
        println!(
            "# span {:<34} {:>12.6} s",
            s.name,
            (s.end_ns - s.start_ns) as f64 / 1e9
        );
    }
}

fn spans_path(args: &Args, suffix: &str) -> PathBuf {
    args.out_dir
        .join(format!("spans-{}{suffix}.tsv", args.workload))
}

fn save_spans(r: &mut Report, path: &Path, spans: &[Span]) {
    let saved = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| write_spans(path, spans));
    match saved {
        Ok(()) => println!("# spans: {} -> {}", spans.len(), path.display()),
        Err(e) => r.check(false, || format!("writing {}: {e}", path.display())),
    }
}

/// One untraced run: its CPU and wall time and plan-cache deltas.
struct Untraced {
    cpu_s: f64,
    wall_s: f64,
    cache_hits: u64,
    cache_misses: u64,
}

fn timed_untraced<T>(run: impl FnOnce() -> T) -> (T, Untraced) {
    let (h0, m0) = cache_counters();
    let t = Instant::now();
    let (out, cpu_s) = cpu_timed(run);
    let wall_s = secs(t);
    let (h1, m1) = cache_counters();
    (
        out,
        Untraced {
            cpu_s,
            wall_s,
            cache_hits: h1 - h0,
            cache_misses: m1 - m0,
        },
    )
}

fn set_untraced_metrics(r: &mut Report, u: &Untraced, events: u64) {
    let lookups = u.cache_hits + u.cache_misses;
    r.set("core.plan_cache_lookups", lookups as f64);
    r.set(
        "core.plan_cache_hit_rate",
        u.cache_hits as f64 / lookups.max(1) as f64,
    );
    r.set("cluster.fleet.cpu_per_wall", u.cpu_s / u.wall_s);
    r.set("sim.events", events as f64);
    r.set("sim.events_per_s", events as f64 / u.cpu_s);
}

fn des_per_layer(kind: DesKind, seed: u64, budget: Duration, args: &Args) -> Report {
    let mut r = Report::default();
    let sc = Scenario::build(kind, seed);
    let (arrivals, sample_s) = cpu_timed(|| sc.arrivals());
    r.set("traces.sample_s", sample_s);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    while untraced.is_empty() || start.elapsed() < budget / 2 {
        let ((results, events), u) = timed_untraced(|| sc.run_untraced());
        let fp = fingerprint(&results);
        let sm = sim_metrics(&results, sc.cfg.slo_ms, seed);
        drop(results);
        check_conservation(&mut r, &sm);
        // Free the previous pass's spans before recording new ones.
        drop(last.take());
        let rec = Arc::new(Recorder::default());
        let decides = Arc::new(AtomicU64::new(0));
        let ((tresults, tevents), cpu_s) = cpu_timed(|| sc.run_traced(&rec, &decides));
        traced.push(cpu_s);
        untraced.push(u.cpu_s);
        r.check(fingerprint(&tresults) == fp, || {
            "the traced pass's results differ from the untraced pass's".into()
        });
        drop(tresults);
        r.attempted += sm.arrived;
        r.failed += sm.unserved;
        last = Some((sm, u, events.unwrap_or(tevents), rec, decides));
    }
    let (sm, u, events, rec, decides) = last.expect("at least one pair");
    let spans = rec.spans();
    drop(rec);
    set_span_metrics(&mut r, &spans);
    r.check(
        decides.load(Ordering::Relaxed) == decide_span_count(&spans),
        || "decide counter and decide spans disagree".into(),
    );
    set_untraced_metrics(&mut r, &u, events);
    r.set("run_s", median(&untraced));
    set_simulated(&mut r, &sm);
    r.set("cluster.fleet.epochs", sc.fault_edges() as f64);
    r.set(
        "trace.overhead_pct",
        100.0 * (median(&traced) / median(&untraced) - 1.0),
    );
    r.set("serve.step_s", 0.0);
    r.set("serve.pace_wait_s", 0.0);
    r.set("serve.send_late_p99_ms", 0.0);
    r.set("serve.max_rps", 0.0);
    r.set("serve.lag_p50_ms", 0.0);
    r.set("serve.lag_p99_ms", 0.0);
    save_spans(&mut r, &spans_path(args, ""), &spans);
    drop(spans);
    set_layer_replays(
        &mut r,
        &arrivals,
        &sm.batch_sizes,
        sm.main_hw,
        &sc.cfg,
        sc.iterative(),
    );
    println!(
        "# {} traced/untraced pairs: untraced {:.3} s, traced {:.3} s (medians)",
        untraced.len(),
        median(&untraced),
        median(&traced)
    );
    r
}

fn decide_span_count(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.name == decor::DECIDE).count() as u64
}

fn serve_setup(seed: u64) -> (RecordedTrace, f64) {
    let mut captures = Vec::new();
    let mut trace = None;
    for _ in 0..SETUP_REPS {
        let (captured, cpu_s) = cpu_timed(|| serve::capture(seed));
        trace = Some(captured);
        captures.push(cpu_s);
    }
    (trace.expect("captured"), median(&captures))
}

fn serve_end_to_end(seed: u64, budget: Duration, bin: &Path) -> Report {
    let mut r = Report::default();
    let (trace, capture_s) = serve_setup(seed);
    let start = Instant::now();
    let mut virt_runs = Vec::new();
    let mut first: Option<(u64, RunResult, u64)> = None;
    while virt_runs.len() < MIN_VIRTUAL_REPS || start.elapsed() < budget / 10 {
        let ((result, events), cpu_s) = cpu_timed(|| serve::replay_virtual(&trace));
        virt_runs.push(cpu_s);
        let fp = fingerprint(std::slice::from_ref(&result));
        match &first {
            None => first = Some((fp, result, events)),
            Some((fp0, _, ev0)) => r.check(fp == *fp0 && events == *ev0, || {
                "virtual replays of one trace differ".into()
            }),
        }
    }
    let (_, virt, virt_events) = first.expect("at least one replay");
    let sm = sim_metrics(
        std::slice::from_ref(&virt),
        SimConfig::default().slo_ms,
        trace.seed,
    );
    check_conservation(&mut r, &sm);

    let ladder = run_ladder(&mut r, bin, &trace, &virt, virt_events, start + budget);
    println!("# run_s {:.6} s (median CPU time)", median(&virt_runs));
    r.set("setup_s", capture_s + ladder.server_setup_s);
    r.set("peak_rss_mb", ladder.server_rss_mb);
    r.set("wait_p50_ms", sm.wait_p50_ms);
    set_simulated(&mut r, &sm);
    r
}

/// What the ladder measured, each figure from its rung's best pass.
struct Ladder {
    max_rps: f64,
    reference_p50: f64,
    reference_p99: f64,
    reference_late_p99: f64,
    /// Medians over every rung of every pass.
    server_setup_s: f64,
    server_rss_mb: f64,
}

/// Replay `trace` against a fresh server at every rung of the ladder, pass
/// after pass until `until` (at least one pass), checking every rung
/// against the virtual replay.
fn run_ladder(
    r: &mut Report,
    bin: &Path,
    trace: &RecordedTrace,
    virt: &RunResult,
    virt_events: u64,
    until: Instant,
) -> Ladder {
    let mut rungs: BTreeMap<usize, Vec<serve::Rung>> = BTreeMap::new();
    let mut passes = 0;
    while passes == 0 || Instant::now() < until {
        for (i, &speed) in serve::LADDER.iter().enumerate() {
            r.attempted += trace.arrivals.len() as u64;
            match serve::run_rung(bin, trace, speed) {
                Ok(rung) => {
                    let (bad, problems) = serve::check_rung(&rung, trace, virt, virt_events);
                    r.failed += bad;
                    r.problems.extend(problems);
                    rungs.entry(i).or_default().push(rung);
                }
                Err(e) => {
                    r.failed += trace.arrivals.len() as u64;
                    r.problems.push(format!("rung {speed}x: {e}"));
                }
            }
        }
        passes += 1;
    }
    let mut worst = Vec::new();
    let (mut setup, mut rss) = (Vec::new(), Vec::new());
    let (mut reference_p50, mut reference_p99, mut reference_late_p99) = (0.0, 0.0, 0.0);
    println!(
        "# ladder ({passes} passes, best pass per figure; keeps up: median and tail lag <= {} ms, \
         send late p99 <= {} ms):",
        serve::LAG_LIMIT_MS,
        serve::LATE_LIMIT_MS
    );
    for (i, &speed) in serve::LADDER.iter().enumerate() {
        let Some(rs) = rungs.get(&i) else { continue };
        let best = |f: &dyn Fn(&serve::Rung) -> f64| least(&rs.iter().map(f).collect::<Vec<_>>());
        let (p50, p99) = (best(&|x| x.lag_p(50.0)), best(&|x| x.lag_p(99.0)));
        let tail = best(&|x| x.tail_lag_ms());
        let late = best(&|x| x.send_late_p99());
        let rate = serve::offered_rps(trace, speed);
        // A void rung (the generator fell behind) cannot count as keeping up.
        let lag = if late > serve::LATE_LIMIT_MS {
            f64::INFINITY
        } else {
            p50.max(tail)
        };
        worst.push((rate, lag));
        if speed == serve::REFERENCE_SPEED {
            (reference_p50, reference_p99, reference_late_p99) = (p50, p99, late);
        }
        setup.extend(rs.iter().map(|x| x.setup_s));
        rss.extend(rs.iter().map(|x| x.server_rss_mb));
        println!(
            "#   {speed:>6}x {rate:>9.0} req/s  lag p50 {p50:>9.3} p99 {p99:>9.3} tail {tail:>9.3} ms  \
             send late p99 {late:>7.3} ms  {}",
            if lag <= serve::LAG_LIMIT_MS { "keeps up" } else { "falls behind" }
        );
    }
    let max_rps = serve::capacity_rps(&worst, serve::LAG_LIMIT_MS);
    println!("# ladder capacity {max_rps:.0} req/s");
    Ladder {
        max_rps,
        reference_p50,
        reference_p99,
        reference_late_p99,
        server_setup_s: median(&setup),
        server_rss_mb: median(&rss),
    }
}

fn serve_per_layer(seed: u64, budget: Duration, bin: &Path, args: &Args) -> Report {
    let mut r = Report::default();
    let (trace, sample_s) = cpu_timed(|| serve::capture(seed));
    r.set("traces.sample_s", sample_s);
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    while untraced.len() < MIN_VIRTUAL_REPS || start.elapsed() < budget / 4 {
        let ((virt, events), u) = timed_untraced(|| serve::replay_virtual(&trace));
        drop(last.take());
        let rec = Arc::new(Recorder::default());
        let decides = Arc::new(AtomicU64::new(0));
        let ((tres, tevents), cpu_s) =
            cpu_timed(|| serve::replay_traced(&trace, VirtualClock, &rec, &decides));
        traced.push(cpu_s);
        untraced.push(u.cpu_s);
        let fp = fingerprint(std::slice::from_ref(&virt));
        r.check(
            fingerprint(std::slice::from_ref(&tres)) == fp && tevents == events,
            || "the traced replay differs from run_replay_virtual".into(),
        );
        last = Some((virt, events, u, rec));
    }
    let (virt, events, u, rec) = last.expect("at least one pair");
    let spans = rec.spans();
    drop(rec);
    set_span_metrics(&mut r, &spans);
    save_spans(&mut r, &spans_path(args, ""), &spans);
    drop(spans);
    set_untraced_metrics(&mut r, &u, events);
    r.set("run_s", median(&untraced));
    let sm = sim_metrics(
        std::slice::from_ref(&virt),
        SimConfig::default().slo_ms,
        trace.seed,
    );
    check_conservation(&mut r, &sm);
    set_simulated(&mut r, &sm);
    r.set("cluster.fleet.epochs", 0.0);
    r.set(
        "trace.overhead_pct",
        100.0 * (median(&traced) / median(&untraced) - 1.0),
    );

    // The serving loop in-process, paced on the wall clock at the
    // reference speed: where its time goes between stepping and waiting.
    let rec = Arc::new(Recorder::default());
    let decides = Arc::new(AtomicU64::new(0));
    let (paced, _) = serve::replay_traced(
        &trace,
        paldia_serve::WallClock::new(serve::REFERENCE_SPEED),
        &rec,
        &decides,
    );
    r.check(
        fingerprint(std::slice::from_ref(&paced)) == fingerprint(std::slice::from_ref(&virt)),
        || "the wall-paced replay differs from run_replay_virtual".into(),
    );
    let paced_spans = rec.spans();
    let sum = summarize(&paced_spans);
    let total = |pred: &dyn Fn(&str) -> bool| -> f64 {
        sum.iter()
            .filter(|(n, _)| pred(n))
            .map(|(_, t)| t.total_ns as f64 / 1e9)
            .sum()
    };
    r.set("serve.step_s", total(&|n| n.starts_with("step.")));
    r.set("serve.pace_wait_s", total(&|n| n == decor::PACE));
    save_spans(&mut r, &spans_path(args, "-paced"), &paced_spans);
    drop(paced_spans);

    let ladder = run_ladder(&mut r, bin, &trace, &virt, events, start + budget);
    r.set("serve.max_rps", ladder.max_rps);
    r.set("serve.lag_p50_ms", ladder.reference_p50);
    r.set("serve.lag_p99_ms", ladder.reference_p99);
    r.set("serve.send_late_p99_ms", ladder.reference_late_p99);
    set_layer_replays(
        &mut r,
        &trace.arrivals,
        &sm.batch_sizes,
        sm.main_hw,
        &SimConfig::with_seed(trace.seed),
        false,
    );
    r
}
