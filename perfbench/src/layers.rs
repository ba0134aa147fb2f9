//! Layer replays: each layer's public API driven directly with a workload's
//! own sampled arrivals, timed from outside.
//!
//! These isolate one layer's host cost per unit of work (ns per event, per
//! request, per batch, per iteration tick) so a change to that layer shows
//! even when the end-to-end run time is dominated by another one.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use paldia_cluster::batcher::Batcher;
use paldia_cluster::device::SharedDevice;
use paldia_cluster::{BatchId, IterSeq, IterativeEngine, Request, SampledArrival};
use paldia_hw::InstanceKind;
use paldia_sim::{
    run_partition, Calendar, EventKey, EventQueue, PartitionCalendar, PartitionWorld, Rail,
    SimDuration, SimTime, WakeEvent, World,
};
use paldia_workloads::tokens::{iteration_ms, TokenCard};
use paldia_workloads::{MlModel, Profile};

/// Batches the device replay keeps executing at once; later batches queue
/// in front of it, as they would behind the scheduler's spatial cap.
const DEVICE_CONCURRENCY: usize = 8;

/// Arrivals fed to the iteration-level engine replay (a prefix of the
/// workload's arrivals keeps the replay bounded on saturating inputs).
const ITER_ARRIVALS: usize = 50_000;

/// Workers the partition replay spreads arrivals over (by request id).
const PARTITION_WORKERS: u64 = 64;

fn ns_per(start: Instant, n: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// `EventQueue` schedule + pop of every arrival, scheduled in generation
/// order as the serial engine pre-schedules them. ns per event.
pub fn event_queue(arrivals: &[SampledArrival]) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(arrivals.len());
    let start = Instant::now();
    for sa in arrivals {
        q.schedule(sa.at, sa.id.0);
    }
    let mut sum = 0u64;
    while let Some((_, id)) = q.pop() {
        sum = sum.wrapping_add(id);
    }
    black_box(sum);
    ns_per(start, arrivals.len() as u64)
}

#[derive(Clone, Copy, Debug)]
enum Toy {
    Arrival(u32),
    Wake(u32, u64),
}

impl WakeEvent for Toy {
    fn make_wake(worker: u32, version: u64) -> Self {
        Toy::Wake(worker, version)
    }
}

/// A versioned-device world: each arrival bumps its worker's version and
/// re-arms the worker's wake one service time later; only live wakes count.
struct ToyWorld {
    versions: Vec<u64>,
    service: SimDuration,
    live_wakes: u64,
}

impl ToyWorld {
    fn on<C: Calendar<Toy>>(&mut self, now: SimTime, ev: Toy, cal: &mut C) {
        match ev {
            Toy::Arrival(w) => {
                self.versions[w as usize] += 1;
                cal.arm_wake(w, now + self.service, self.versions[w as usize]);
            }
            Toy::Wake(w, v) => {
                if self.versions[w as usize] == v {
                    self.live_wakes += 1;
                }
            }
        }
    }
}

impl World for ToyWorld {
    type Event = Toy;
    fn handle(&mut self, now: SimTime, ev: Toy, q: &mut EventQueue<Toy>) {
        self.on(now, ev, q);
    }
}

impl PartitionWorld for ToyWorld {
    fn handle_part(&mut self, now: SimTime, ev: Toy, cal: &mut PartitionCalendar<Toy>) {
        self.on(now, ev, cal);
    }
}

/// The partition engine's `Rail` (arrivals) + `PartitionCalendar` (wakes)
/// under `run_partition`, fed the arrivals. ns per dispatched event.
pub fn partition(arrivals: &[SampledArrival]) -> f64 {
    let items: Vec<(SimTime, Toy)> = arrivals
        .iter()
        .map(|sa| (sa.at, Toy::Arrival((sa.id.0 % PARTITION_WORKERS) as u32)))
        .collect();
    let mut world = ToyWorld {
        versions: vec![0; PARTITION_WORKERS as usize],
        service: SimDuration::from_millis(5),
        live_wakes: 0,
    };
    let start = Instant::now();
    let mut rail = Rail::from_schedule_order(items);
    let mut q = EventQueue::new();
    q.skip_seqs(arrivals.len() as u64);
    let mut cal = PartitionCalendar::new(q);
    let outcome = run_partition(
        &mut world,
        &mut cal,
        &mut rail,
        EventKey::new(SimTime::from_secs(u32::MAX as u64), 0),
        u64::MAX,
    );
    let ns = ns_per(start, outcome.events());
    black_box(world.live_wakes);
    ns
}

/// One batch closed by the batcher replay.
#[derive(Clone, Copy, Debug)]
pub struct ClosedBatch {
    pub at: SimTime,
    pub model: MlModel,
    pub size: u32,
}

/// The gateway batchers (`push` or `push_with_hint`, `next_deadline`,
/// `flush_if_due`) fed time-sorted arrivals at the run's batch sizes.
/// Returns ns per request and the batches closed.
pub fn batcher(
    arrivals: &[SampledArrival],
    sizes: &BTreeMap<MlModel, u32>,
    window: SimDuration,
    hints: Option<&[f64]>,
) -> (f64, Vec<ClosedBatch>) {
    let mut batchers: BTreeMap<MlModel, Batcher> = BTreeMap::new();
    for sa in arrivals {
        batchers.entry(sa.model).or_insert_with(|| {
            Batcher::new(sa.model, sizes.get(&sa.model).copied().unwrap_or(1), window)
        });
    }
    let mut closed = Vec::with_capacity(arrivals.len() / 4 + 16);
    let mut next_id = 0u64;
    let mut alloc = || {
        next_id += 1;
        BatchId(next_id)
    };
    let start = Instant::now();
    for (i, sa) in arrivals.iter().enumerate() {
        for b in batchers.values_mut() {
            if b.next_deadline().is_some_and(|d| d <= sa.at) {
                if let Some(batch) = b.flush_if_due(sa.at, &mut alloc) {
                    closed.push(ClosedBatch {
                        at: sa.at,
                        model: batch.model,
                        size: batch.size(),
                    });
                }
            }
        }
        let req = Request {
            id: sa.id,
            model: sa.model,
            arrival: sa.at,
        };
        let b = batchers
            .get_mut(&sa.model)
            .expect("a batcher exists for every model");
        let batch = match hints {
            Some(h) => b.push_with_hint(req, h[i], sa.at, &mut alloc),
            None => b.push(req, sa.at, &mut alloc),
        };
        if let Some(batch) = batch {
            closed.push(ClosedBatch {
                at: sa.at,
                model: batch.model,
                size: batch.size(),
            });
        }
    }
    let end = arrivals.last().map_or(SimTime::ZERO, |sa| sa.at);
    for b in batchers.values_mut() {
        for batch in b.flush_all(end, &mut alloc) {
            closed.push(ClosedBatch {
                at: end,
                model: batch.model,
                size: batch.size(),
            });
        }
    }
    (ns_per(start, arrivals.len() as u64), closed)
}

/// The processor-sharing `SharedDevice` (`admit`, `next_completion`,
/// `pop_completed`) executing the batcher replay's batches on `hw`, at
/// most [`DEVICE_CONCURRENCY`] at a time. ns per batch.
pub fn shared_device(batches: &[ClosedBatch], hw: InstanceKind) -> f64 {
    let jobs: Vec<(f64, f64)> = batches
        .iter()
        .map(|b| {
            (
                Profile::fbr_for_batch(b.model, hw, b.size),
                Profile::solo_ms(b.model, hw, b.size) / 1_000.0,
            )
        })
        .collect();
    let mut dev = SharedDevice::new(SimTime::ZERO, 0.0);
    let mut now = SimTime::ZERO;
    let mut done = 0usize;
    let complete_next = |dev: &mut SharedDevice, now: &mut SimTime| {
        let t = dev
            .next_completion()
            .expect("a busy device predicts a completion")
            .max(*now);
        let popped = dev.pop_completed(t).len();
        // The prediction is rounded to whole microseconds; step past it.
        *now = if popped == 0 {
            t + SimDuration::from_micros(1)
        } else {
            t
        };
        popped
    };
    let start = Instant::now();
    for (i, (b, &(fbr, solo_s))) in batches.iter().zip(&jobs).enumerate() {
        let at = b.at.max(now);
        while dev.active_count() >= DEVICE_CONCURRENCY
            || dev.next_completion().is_some_and(|t| t <= at)
        {
            done += complete_next(&mut dev, &mut now);
        }
        now = now.max(at);
        dev.admit(now, BatchId(i as u64), b.model, fbr, solo_s);
    }
    while dev.is_busy() {
        done += complete_next(&mut dev, &mut now);
    }
    let ns = ns_per(start, batches.len() as u64);
    assert_eq!(done, batches.len(), "device replay lost a batch");
    ns
}

/// A sequence built the way the harness builds one for `hw` (token card
/// drawn from `(seed, request id)`).
fn iter_seq(seed: u64, sa: &SampledArrival, hw: InstanceKind) -> IterSeq {
    let lens = TokenCard::for_model(sa.model).sample(seed, sa.id.0);
    IterSeq {
        request: sa.id,
        model: sa.model,
        arrival: sa.at,
        closed_at: sa.at,
        prefill_left: lens.prefill_iters(),
        decode_left: lens.decode,
        decode_total: lens.decode,
        kv_tokens: lens.kv_tokens(),
        share: Profile::effective_share(sa.model, hw)
            / Profile::default_batch(sa.model).max(1) as f64,
        solo_ms: lens.total_iters() as f64 * iteration_ms(sa.model, hw, 1),
    }
}

/// The `IterativeEngine` (`can_admit`, `join`, `begin_iteration`, `step`)
/// serving the first [`ITER_ARRIVALS`] arrivals on `hw`, joining waiters
/// FIFO at each boundary. Returns ns per tick and the tick count.
pub fn iterative(arrivals: &[SampledArrival], hw: InstanceKind, seed: u64) -> (f64, u64) {
    let seqs: Vec<IterSeq> = arrivals
        .iter()
        .take(ITER_ARRIVALS)
        .map(|sa| iter_seq(seed, sa, hw))
        .collect();
    let mut eng = IterativeEngine::new(hw.kv_capacity_tokens(), 0.0);
    let mut waiting: VecDeque<IterSeq> = VecDeque::new();
    let (mut next, mut now, mut ticks, mut retired) = (0usize, SimTime::ZERO, 0u64, 0usize);
    let start = Instant::now();
    loop {
        while next < seqs.len() && seqs[next].arrival <= now {
            waiting.push_back(seqs[next]);
            next += 1;
        }
        while waiting.front().is_some_and(|s| eng.can_admit(s)) {
            let s = waiting.pop_front().expect("front checked");
            eng.join(now, s);
        }
        if eng.is_busy() {
            now += eng.begin_iteration(hw);
            retired += eng.step().len();
            ticks += 1;
        } else if next < seqs.len() {
            now = seqs[next].arrival;
        } else {
            break;
        }
    }
    let ns = ns_per(start, ticks);
    assert_eq!(retired, seqs.len(), "iterative replay lost a sequence");
    (ns, ticks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_cluster::RequestId;

    fn arrivals(n: u64, gap_us: u64, model: MlModel) -> Vec<SampledArrival> {
        (0..n)
            .map(|i| SampledArrival {
                seq: i,
                id: RequestId(i + 1),
                at: SimTime::from_micros(i * gap_us),
                model,
            })
            .collect()
    }

    #[test]
    fn replays_conserve_their_work() {
        let a = arrivals(2_000, 700, MlModel::GoogleNet);
        assert!(event_queue(&a) > 0.0);
        assert!(partition(&a) > 0.0);
        let sizes = BTreeMap::from([(MlModel::GoogleNet, 16)]);
        let (_, batches) = batcher(&a, &sizes, SimDuration::from_millis(25), None);
        let total: u32 = batches.iter().map(|b| b.size).sum();
        assert_eq!(total, 2_000);
        assert!(batches.iter().all(|b| b.size <= 16));
        // Asserts internally that every batch completes.
        shared_device(&batches, InstanceKind::P3_2xlarge);
        let (_, ticks) = iterative(&a, InstanceKind::P3_2xlarge, 7);
        assert!(ticks > 0);
    }
}
