//! `serve-replay`: `paldia-serve --listen` in its own process, fed one
//! recorded trace by an open-loop generator at a fixed ladder of speedups.
//!
//! The generator is one process with two threads (sender and reply
//! reader) over one connection. It stamps every `arr` line against the
//! instant it was due (`ready` + `at` / speed) and every `done` line
//! against the instant its completion was due (`ready` + `completed` /
//! speed), so a stall shows as lag on every later reply.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use paldia_cluster::{
    run_replay_virtual, RecordedTrace, RunResult, SimConfig, SimSession, WorkloadSpec,
};
use paldia_core::PaldiaScheduler;
use paldia_experiments::common::{scale_for_model, SchemeKind};
use paldia_experiments::scenarios::raw_azure;
use paldia_hw::Catalog;
use paldia_obs::{TraceSink, VecSink};
use paldia_serve::proto::{self, ServerLine, SummaryLine};
use paldia_serve::WallStampedSink;
use paldia_sim::{Clock, SimTime};
use paldia_workloads::MlModel;

use crate::decor::{TimedClock, TimedScheduler, TimedSink};
use crate::des::TRACE_SEED;
use crate::drive::drive;
use crate::span::Recorder;
use crate::stats::{due_ns, lag_ms, median, percentile};
use crate::sys;

/// The window of the GoogleNet Azure trace captured: the top of its first
/// surge (the 12 s plateau at the peak), the ramp back down and the quiet
/// minute after it.
const CAPTURE_FROM_S: u64 = 315;
const CAPTURE_TO_S: u64 = 435;
const SCALE: f64 = 3.0;

/// Replay speedups, lowest first, doubling: the latency limit sits in the
/// wide gap between the lag of a rung that keeps up through the surge and
/// one that falls behind, so host noise rarely moves `max_rps`.
pub const LADDER: [f64; 5] = [50.0, 100.0, 200.0, 400.0, 800.0];

/// The rung below saturation whose lag `serve.lag_p50_ms`/`serve.lag_p99_ms` report.
pub const REFERENCE_SPEED: f64 = 50.0;

/// A rung keeps up when the median lag of its `done` lines, and the median
/// lag of its last tenth (the backlog is not still growing), are at most
/// this. The median steps from ~0.3 ms to 7–35 ms across the one rung where
/// the shell starts queueing behind the surge, so the crossing is sharp;
/// the P99 at that knee swung 4× between runs on a shared host.
pub const LAG_LIMIT_MS: f64 = 2.0;

/// A rung whose generator sent later than this at P99 is void: it did not
/// offer the load it claims.
pub const LATE_LIMIT_MS: f64 = 10.0;

/// A recorded trace like `paldia-serve --capture` records (GoogleNet over
/// the Azure trace scaled to its paper peak, warm on Paldia's opening
/// hardware), cut to the surge window. The rate curve comes from
/// [`TRACE_SEED`]; `seed` draws the arrival sample and the simulation.
pub fn capture(seed: u64) -> RecordedTrace {
    let model = MlModel::GoogleNet;
    let curve = scale_for_model(&raw_azure(TRACE_SEED), model)
        .scale_by(SCALE)
        .slice(
            SimTime::from_secs(CAPTURE_FROM_S),
            SimTime::from_secs(CAPTURE_TO_S),
        );
    let workloads = vec![WorkloadSpec::new(model, curve)];
    let slo_ms = SimConfig::with_seed(seed).slo_ms;
    let hw = SchemeKind::Paldia.initial_hw(&workloads, &Catalog::table_ii(), slo_ms);
    RecordedTrace::record(&workloads, seed, hw)
}

/// Mean offered load of `trace` replayed at `speed`, requests per second.
pub fn offered_rps(trace: &RecordedTrace, speed: f64) -> f64 {
    trace.arrivals.len() as f64 * speed / trace.duration.as_secs_f64()
}

/// The DES half of the differential: the session the server builds for a
/// replay hello (`new_traced` into a stamped `VecSink`), stepped on the
/// virtual clock by `run_replay_virtual`. Returns the result and the
/// session's event count.
pub fn replay_virtual(trace: &RecordedTrace) -> (RunResult, u64) {
    let cfg = SimConfig::with_seed(trace.seed);
    let mut sched = PaldiaScheduler::new();
    let mut events = VecSink::new();
    let mut sink = WallStampedSink::new(&mut events);
    let mut session = SimSession::new_traced(
        trace.models.clone(),
        &mut sched,
        trace.initial_hw,
        Catalog::table_ii(),
        &cfg,
        SimTime::ZERO + trace.duration,
        trace.reserve,
        &mut sink,
    );
    run_replay_virtual(&mut session, &trace.arrivals);
    let n = session.events();
    (session.finish(), n)
}

/// The same replay, decorated: every step, decide, trace record and pace
/// timed into `rec`. With a `WallClock` this is the shell's serving loop
/// in-process.
pub fn replay_traced<C: Clock>(
    trace: &RecordedTrace,
    clock: C,
    rec: &Arc<Recorder>,
    decides: &Arc<AtomicU64>,
) -> (RunResult, u64) {
    let cfg = SimConfig::with_seed(trace.seed);
    let mut sched = TimedScheduler::new(
        Box::new(PaldiaScheduler::new()),
        rec.clone(),
        decides.clone(),
    );
    let mut events = VecSink::new();
    let mut stamped = WallStampedSink::new(&mut events);
    let mut sink = TimedSink::new(&mut stamped as &mut dyn TraceSink, rec.clone());
    let mut session = SimSession::new_traced(
        trace.models.clone(),
        &mut sched,
        trace.initial_hw,
        Catalog::table_ii(),
        &cfg,
        SimTime::ZERO + trace.duration,
        trace.reserve,
        &mut sink,
    );
    let mut clock = TimedClock::new(clock, rec.clone());
    drive(
        &mut session,
        &trace.arrivals,
        &mut clock,
        rec,
        decides,
        |_| {},
    );
    let n = session.events();
    (session.finish(), n)
}

/// The offered rate (req/s) at which a rung's worst lag statistic reaches
/// `limit_ms`, from `(rate, worst_lag_ms)` rungs in ascending rate: the
/// rate of the highest rung below the first one over the limit, moved
/// towards that one by log-log interpolation, so the figure follows the
/// shell's capacity continuously instead of jumping a whole rung. With
/// every rung within the limit it is the top rung's rate; with none, the
/// lowest rate scaled down by how far it missed.
pub fn capacity_rps(rungs: &[(f64, f64)], limit_ms: f64) -> f64 {
    let ln = |x: f64| x.max(1e-6).ln();
    match rungs.iter().position(|&(_, lag)| lag > limit_ms) {
        None => rungs.last().map_or(0.0, |&(rate, _)| rate),
        Some(0) => rungs[0].0 * limit_ms / rungs[0].1,
        Some(j) => {
            let ((r0, l0), (r1, l1)) = (rungs[j - 1], rungs[j]);
            let t = ((ln(limit_ms) - ln(l0)) / (ln(l1) - ln(l0))).clamp(0.0, 1.0);
            (ln(r0) + t * (ln(r1) - ln(r0))).exp()
        }
    }
}

/// A running `paldia-serve --listen`; killed and reaped on drop.
struct Server {
    child: Child,
    // Kept open so the server's per-session log line never hits a closed
    // pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(bin: &Path, speed: f64) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "--port", "0", "--speed", &speed.to_string()])
            .env_remove("PALDIA_JOBS")
            .env_remove("PALDIA_SHARDS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server banner: {e}"))?;
        // "listening on 127.0.0.1:PORT at 1000x (...)"
        server.addr = line
            .split_whitespace()
            .nth(2)
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner `{}`", line.trim()))?;
        Ok(server)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What one rung measured.
#[derive(Clone, Debug)]
pub struct Rung {
    pub speed: f64,
    /// Spawn to `ready`: process start plus session construction, s.
    pub setup_s: f64,
    pub server_rss_mb: f64,
    pub sent: usize,
    /// `(request id, completed_us)` of every `done`, in arrival order.
    pub done: Vec<(u64, u64)>,
    /// Lag of every `done`, ms, in `done` order.
    pub lag_ms: Vec<f64>,
    /// Send lateness of every `arr`, ms.
    pub send_late_ms: Vec<f64>,
    pub summary: Option<SummaryLine>,
    pub errors: Vec<String>,
}

impl Rung {
    pub fn lag_p(&self, p: f64) -> f64 {
        percentile(&self.lag_ms, p)
    }

    /// Median lag of the last tenth of replies: above the limit, the
    /// backlog was still growing when the trace ended.
    pub fn tail_lag_ms(&self) -> f64 {
        let n = self.lag_ms.len();
        median(&self.lag_ms[n - n.div_ceil(10)..])
    }

    pub fn send_late_p99(&self) -> f64 {
        percentile(&self.send_late_ms, 99.0)
    }
}

fn send(w: &mut BufWriter<TcpStream>, line: &str) -> Result<(), String> {
    writeln!(w, "{line}").map_err(|e| format!("sending to the server: {e}"))
}

fn flush(w: &mut BufWriter<TcpStream>) -> Result<(), String> {
    w.flush().map_err(|e| format!("sending to the server: {e}"))
}

/// Replay `trace` once against a fresh server at `speed`.
pub fn run_rung(bin: &Path, trace: &RecordedTrace, speed: f64) -> Result<Rung, String> {
    let spawned = Instant::now();
    let server = Server::spawn(bin, speed)?;
    let stream = TcpStream::connect(server.addr)
        .map_err(|e| format!("connecting to {}: {e}", server.addr))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("cloning the connection: {e}"))?,
    );
    let mut writer = BufWriter::new(stream);
    send(&mut writer, &proto::hello_replay_line(trace))?;
    flush(&mut writer)?;
    let mut first = String::new();
    reader
        .read_line(&mut first)
        .map_err(|e| format!("waiting for ready: {e}"))?;
    let epoch = Instant::now();
    if !matches!(
        proto::parse_server_line(first.trim()),
        Ok(ServerLine::Ready)
    ) {
        return Err(format!("expected `ready`, got `{}`", first.trim()));
    }
    let setup_s = spawned.elapsed().as_secs_f64();
    let since = |epoch: Instant| epoch.elapsed().as_nanos() as u64;

    let (sent, send_late_ms, replies) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut done = Vec::new();
            let mut seen_ns = Vec::new();
            let mut summary = None;
            let mut errors = Vec::new();
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) => {
                        errors.push(format!("reading replies: {e}"));
                        break;
                    }
                }
                let at = since(epoch);
                match proto::parse_server_line(line.trim()) {
                    Ok(ServerLine::Done(d)) => {
                        done.push((d.id, d.completed_us));
                        seen_ns.push(at);
                    }
                    Ok(ServerLine::Summary(sum)) => summary = Some(sum),
                    Ok(ServerLine::Bye) => break,
                    Ok(ServerLine::Err(e)) => errors.push(format!("server: {e}")),
                    Ok(_) => {}
                    Err(e) => errors.push(format!("bad reply `{}`: {e}", line.trim())),
                }
            }
            (done, seen_ns, summary, errors)
        });
        let mut send_late_ms = Vec::with_capacity(trace.arrivals.len());
        let mut outcome = Ok(());
        for sa in &trace.arrivals {
            let due = due_ns(sa.at.as_micros(), speed);
            let now = since(epoch) as f64;
            if due > now {
                // Everything due so far goes out before the generator sleeps.
                outcome = flush(&mut writer);
                if outcome.is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_nanos((due - now) as u64));
            }
            send_late_ms.push(lag_ms(since(epoch), sa.at.as_micros(), speed));
            outcome = send(&mut writer, &proto::arr_line(sa));
            if outcome.is_err() {
                break;
            }
        }
        let outcome = outcome
            .and_then(|()| send(&mut writer, "end"))
            .and_then(|()| flush(&mut writer));
        let replies = collector.join().expect("reply reader panicked");
        (outcome.map(|()| send_late_ms.len()), send_late_ms, replies)
    });
    let (done, seen_ns, summary, mut errors) = replies;
    let sent = sent.unwrap_or_else(|e| {
        errors.push(e);
        0
    });
    let server_rss_mb = sys::peak_rss_mb(Some(server.child.id())).unwrap_or(0.0);
    drop(server);
    let lag = done
        .iter()
        .zip(&seen_ns)
        .map(|(&(_, completed_us), &ns)| lag_ms(ns, completed_us, speed))
        .collect();
    Ok(Rung {
        speed,
        setup_s,
        server_rss_mb,
        sent,
        done,
        lag_ms: lag,
        send_late_ms,
        summary,
        errors,
    })
}

/// Check one rung against the virtual replay: every arrival answered by
/// exactly one `done` carrying the virtual run's completion time, and a
/// summary equal to the virtual run's. Returns the number of arrivals that
/// did not get exactly one correct `done`, plus protocol errors, and a
/// description of each mismatch.
pub fn check_rung(
    rung: &Rung,
    trace: &RecordedTrace,
    virt: &RunResult,
    virt_events: u64,
) -> (u64, Vec<String>) {
    let mut problems: Vec<String> = rung.errors.clone();
    let mut expected: Vec<(u64, u64)> = virt
        .completed
        .iter()
        .map(|c| (c.id.0, c.completed.as_micros()))
        .collect();
    expected.sort_unstable();
    let mut got = rung.done.clone();
    got.sort_unstable();
    let mut ids: Vec<u64> = trace.arrivals.iter().map(|sa| sa.id.0).collect();
    ids.sort_unstable();
    // Arrivals whose `done` count is not exactly one.
    let mut bad = 0u64;
    let (mut gi, mut di) = (0, 0);
    for &id in &ids {
        while gi < got.len() && got[gi].0 < id {
            gi += 1;
        }
        let start = gi;
        while gi < got.len() && got[gi].0 == id {
            gi += 1;
        }
        while di < expected.len() && expected[di].0 < id {
            di += 1;
        }
        let want = expected.get(di).filter(|e| e.0 == id);
        let ok = match (gi - start, want) {
            (1, Some(w)) => got[start] == *w,
            // Unserved in the simulation: no `done` is the right answer.
            (0, None) => true,
            _ => false,
        };
        if !ok {
            bad += 1;
        }
    }
    if bad > 0 {
        problems.push(format!(
            "{bad} of {} arrivals at {}x did not get exactly one matching `done`",
            ids.len(),
            rung.speed
        ));
    }
    if rung.sent != trace.arrivals.len() {
        problems.push(format!(
            "sent {} of {} arrivals",
            rung.sent,
            trace.arrivals.len()
        ));
    }
    let want = SummaryLine {
        completed: virt.completed.len() as u64,
        unserved: virt.unserved,
        cost_usd: format!("{:.6}", virt.total_cost())
            .parse()
            .expect("a formatted float parses"),
        cold_starts: virt.cold_starts,
        transitions: virt.transitions,
        events: virt_events,
    };
    match rung.summary {
        Some(s) if s == want => {}
        other => problems.push(format!(
            "summary at {}x {other:?} differs from run_replay_virtual {want:?}",
            rung.speed
        )),
    }
    (bad + rung.errors.len() as u64, problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_increasing_and_holds_the_reference_rung() {
        assert!(LADDER.windows(2).all(|w| w[0] < w[1]));
        assert!(LADDER.contains(&REFERENCE_SPEED));
        assert_ne!(REFERENCE_SPEED, LADDER[LADDER.len() - 1]);
    }

    #[test]
    fn capacity_interpolates_between_the_bracketing_rungs() {
        let rungs = [(1_000.0, 5.0), (2_000.0, 10.0), (4_000.0, 40.0)];
        // Lag doubles per doubling up to 10 ms, then quadruples: 20 ms is
        // half-way (in log terms) from 2 000 to 4 000 req/s.
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        assert!(close(capacity_rps(&rungs, 20.0), 2_000.0 * 2f64.sqrt()));
        // A rung exactly at the limit meets it.
        assert!(close(capacity_rps(&rungs, 10.0), 2_000.0));
        assert_eq!(capacity_rps(&rungs, 100.0), 4_000.0);
        // Even the lowest rung misses: scaled down by the miss.
        assert_eq!(capacity_rps(&rungs, 2.5), 500.0);
        assert_eq!(capacity_rps(&[], 10.0), 0.0);
    }

    #[test]
    fn tail_lag_reads_the_last_tenth() {
        let rung = Rung {
            speed: 1.0,
            setup_s: 0.0,
            server_rss_mb: 0.0,
            sent: 20,
            done: Vec::new(),
            lag_ms: (1..=20).map(f64::from).collect(),
            send_late_ms: vec![0.5; 20],
            summary: None,
            errors: Vec::new(),
        };
        // Last tenth of 20 replies = the last two, median (nearest rank) 19.
        assert_eq!(rung.tail_lag_ms(), 19.0);
        assert_eq!(rung.lag_p(50.0), 10.0);
        assert_eq!(rung.send_late_p99(), 0.5);
    }
}
