//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the self-time arithmetic over them.
//!
//! A span is opened before a call into a layer and closed after it. Its
//! parent is the span open on the same thread, or the recorder's root span
//! when the call runs on a worker thread the benchmark did not start (the
//! fleet's shard pool). Spans stay in memory until the run ends; then they
//! are written out once and summarised per name.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span, times in ns since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    static OPEN: Cell<u32> = const { Cell::new(NO_PARENT) };
}

/// Collects spans from any thread.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    root: AtomicU32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            root: AtomicU32::new(NO_PARENT),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops. The span opened last on
    /// this thread and still open is its parent, else the root span.
    pub fn open(&self, name: &'static str) -> SpanGuard<'_> {
        let outer = OPEN.with(Cell::get);
        let parent = if outer == NO_PARENT {
            self.root.load(Ordering::Relaxed)
        } else {
            outer
        };
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            (spans.len() - 1) as u32
        };
        OPEN.with(|c| c.set(id));
        SpanGuard {
            rec: self,
            id,
            outer,
            name,
        }
    }

    /// Make `guard`'s span the parent of spans opened on threads that have
    /// no span of their own open.
    pub fn set_root(&self, guard: &SpanGuard<'_>) {
        self.root.store(guard.id, Ordering::Relaxed);
    }

    /// Every span recorded so far, in opening order (index = id).
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }
}

/// An open span; dropping it records the end time.
pub struct SpanGuard<'r> {
    rec: &'r Recorder,
    id: u32,
    outer: u32,
    name: &'static str,
}

impl SpanGuard<'_> {
    /// Rename the span before it closes (a step's kind is known only
    /// after the step ran).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        if let Ok(mut spans) = self.rec.spans.lock() {
            if let Some(s) = spans.get_mut(self.id as usize) {
                s.end_ns = end;
                s.name = self.name;
            }
        }
        OPEN.with(|c| c.set(self.outer));
        let _ = self.rec.root.compare_exchange(
            self.id,
            NO_PARENT,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers. Children may overlap each
/// other (parallel shards) and may stick out of the parent; only the
/// covered part of the parent counts once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT && (s.parent as usize) < spans.len())
        .map(|s| (s.parent, s.start_ns, s.end_ns))
        .collect();
    kids.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let mut i = 0;
    while i < kids.len() {
        let p = kids[i].0;
        let parent = spans[p as usize];
        let (mut run_start, mut run_end, mut total) = (0u64, 0u64, 0u64);
        let mut open = false;
        while i < kids.len() && kids[i].0 == p {
            let s = kids[i].1.max(parent.start_ns);
            let e = kids[i].2.min(parent.end_ns);
            i += 1;
            if e <= s {
                continue;
            }
            if open && s <= run_end {
                run_end = run_end.max(e);
            } else {
                if open {
                    total += run_end - run_start;
                }
                (run_start, run_end, open) = (s, e, true);
            }
        }
        if open {
            total += run_end - run_start;
        }
        covered[p as usize] = total;
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Fold spans into per-name totals.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += own;
    }
    out
}

/// Write spans as tab-separated `id parent name start_ns end_ns self_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\tstart_ns\tend_ns\tself_ns")?;
    for (id, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{id}\t{parent}\t{}\t{}\t{}\t{own}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("fleet", NO_PARENT, 0, 100),
            // Two shards overlapping in [20, 30), one sticking out past 100.
            span("decide", 0, 10, 30),
            span("decide", 0, 20, 40),
            span("decide", 0, 90, 120),
            span("step", NO_PARENT, 200, 260),
        ];
        // Covered part of the fleet span: [10, 40) + [90, 100) = 40.
        assert_eq!(self_times(&spans), vec![60, 20, 20, 30, 60]);
        let sum = summarize(&spans);
        assert_eq!(
            sum["decide"],
            LayerTotals {
                count: 3,
                total_ns: 70,
                self_ns: 70
            }
        );
        assert_eq!(sum["fleet"].self_ns, 60);
    }

    #[test]
    fn nested_spans_charge_time_to_the_innermost_layer() {
        let spans = [
            span("step", NO_PARENT, 0, 50),
            span("decide", 0, 5, 45),
            span("record", 1, 10, 20),
            span("record", 1, 30, 35),
        ];
        assert_eq!(self_times(&spans), vec![10, 25, 10, 5]);
    }

    #[test]
    fn recorder_links_parents_per_thread_and_falls_back_to_the_root() {
        let rec = Recorder::default();
        {
            let root = rec.open("fleet");
            rec.set_root(&root);
            {
                let mut inner = rec.open("step");
                inner.rename("step.arrival");
            }
            std::thread::scope(|s| {
                s.spawn(|| drop(rec.open("decide")));
            });
        }
        drop(rec.open("after"));
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        // The spawned thread had nothing open, so its span hangs off the
        // root; once the root closed, new spans are top-level again.
        assert_eq!(
            names,
            vec![
                ("fleet", NO_PARENT),
                ("step.arrival", 0),
                ("decide", 0),
                ("after", NO_PARENT)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
