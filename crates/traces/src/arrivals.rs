//! Sampling concrete arrival timestamps from a rate trace.
//!
//! Within each bin the process is Poisson: the count is drawn from
//! `Poisson(rate × bin_width)` and the arrivals are placed uniformly at
//! random inside the bin, giving a non-homogeneous Poisson process whose
//! intensity is the piecewise-constant trace.
//!
//! Each bin is drawn by one primitive (`sample_bin`). [`generate_arrivals`]
//! applies it to every bin up front; [`ArrivalStream`] applies it one bin at
//! a time while a run consumes the arrivals, so both yield the identical
//! timestamps from the same generator.

use crate::trace::RateTrace;
use paldia_sim::{SimRng, SimTime};

/// Bin `bin`'s arrivals drawn from `rng`, unsorted, as µs since time
/// zero: the one copy of the per-bin draw order. The count is drawn up
/// front, so the iterator's length is exact.
fn draw_bin<'r>(
    trace: &RateTrace,
    bin: usize,
    rng: &'r mut SimRng,
) -> impl Iterator<Item = u64> + 'r {
    let rate = trace.rates()[bin];
    let width = trace.bin_width();
    let bin_us = width.as_micros().max(1);
    let n = if rate <= 0.0 {
        0
    } else {
        rng.poisson(rate * width.as_secs_f64())
    };
    let base = width.as_micros() * bin as u64;
    (0..n).map(move |_| base + rng.next_below(bin_us))
}

/// Append bin `bin`'s arrivals to `out`, sorted.
fn sample_bin(trace: &RateTrace, bin: usize, rng: &mut SimRng, out: &mut Vec<SimTime>) {
    let from = out.len();
    out.extend(draw_bin(trace, bin, rng).map(SimTime::from_micros));
    out[from..].sort_unstable();
}

/// Sample arrival timestamps for the whole trace. The result is sorted.
pub fn generate_arrivals(trace: &RateTrace, rng: &mut SimRng) -> Vec<SimTime> {
    // Pre-size: expected count plus slack.
    let mut out = Vec::with_capacity(trace.expected_requests() as usize + 16);
    for bin in 0..trace.num_bins() {
        sample_bin(trace, bin, rng, &mut out);
    }
    out
}

/// How many arrivals [`generate_arrivals`] samples from `trace` with `rng`:
/// the same draws, none kept.
pub fn count_arrivals(trace: &RateTrace, mut rng: SimRng) -> u64 {
    (0..trace.num_bins())
        .map(|bin| draw_bin(trace, bin, &mut rng).count() as u64)
        .sum()
}

/// A trace's arrivals, sampled one bin at a time as they are consumed:
/// the same timestamps [`generate_arrivals`] returns for the same
/// generator, with at most one bin's arrivals held at once.
pub struct ArrivalStream<'t> {
    trace: &'t RateTrace,
    rng: SimRng,
    /// The next bin to sample.
    next_bin: usize,
    /// The current bin's arrivals, sorted; `pos` indexes the next one.
    bin: Vec<SimTime>,
    pos: usize,
}

impl<'t> ArrivalStream<'t> {
    /// A stream over `trace` drawing from `rng`.
    pub fn new(trace: &'t RateTrace, rng: SimRng) -> Self {
        ArrivalStream {
            trace,
            rng,
            next_bin: 0,
            bin: Vec::new(),
            pos: 0,
        }
    }

    /// The earliest pending arrival, sampling forward to the next
    /// non-empty bin when the current one is used up.
    pub fn peek(&mut self) -> Option<SimTime> {
        while self.pos == self.bin.len() {
            if self.next_bin == self.trace.num_bins() {
                return None;
            }
            self.bin.clear();
            self.pos = 0;
            sample_bin(self.trace, self.next_bin, &mut self.rng, &mut self.bin);
            self.next_bin += 1;
        }
        Some(self.bin[self.pos])
    }

    /// Arrivals sampled but not yet consumed (never more than one bin's).
    pub fn buffered(&self) -> usize {
        self.bin.len() - self.pos
    }
}

impl Iterator for ArrivalStream<'_> {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        let at = self.peek()?;
        self.pos += 1;
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_sim::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn count_tracks_expectation() {
        let trace = RateTrace::constant(
            100.0,
            SimDuration::from_secs(100),
            SimDuration::from_secs(1),
        );
        let mut rng = SimRng::new(1);
        let arr = generate_arrivals(&trace, &mut rng);
        let expected = trace.expected_requests();
        let n = arr.len() as f64;
        // 10k expected; 3 sigma ≈ 300.
        assert!((n - expected).abs() < 400.0, "got {n}, expected {expected}");
    }

    #[test]
    fn sorted_and_in_range() {
        let trace = RateTrace::from_rates(SimDuration::from_secs(1), vec![50.0, 0.0, 200.0, 5.0]);
        let mut rng = SimRng::new(2);
        let arr = generate_arrivals(&trace, &mut rng);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]), "not sorted");
        assert!(arr.iter().all(|&t| t < SimTime::from_secs(4)));
        // The silent bin produced no arrivals.
        assert!(!arr
            .iter()
            .any(|&t| t >= SimTime::from_secs(1) && t < SimTime::from_secs(2)));
    }

    #[test]
    fn deterministic_per_seed() {
        let trace =
            RateTrace::constant(20.0, SimDuration::from_secs(10), SimDuration::from_secs(1));
        let a = generate_arrivals(&trace, &mut SimRng::new(7));
        let b = generate_arrivals(&trace, &mut SimRng::new(7));
        let c = generate_arrivals(&trace, &mut SimRng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_trace_no_arrivals() {
        let trace = RateTrace::from_rates(SimDuration::from_secs(1), vec![]);
        assert!(generate_arrivals(&trace, &mut SimRng::new(1)).is_empty());
        assert_eq!(ArrivalStream::new(&trace, SimRng::new(1)).next(), None);
    }

    /// A per-bin sampler that collects each bin into its own `Vec<u64>`,
    /// sorts it, then appends it: the reference `generate_arrivals` must
    /// reproduce.
    fn per_bin_reference(trace: &RateTrace, rng: &mut SimRng) -> Vec<SimTime> {
        let bin_us = trace.bin_width().as_micros().max(1);
        let bin_s = trace.bin_width().as_secs_f64();
        let mut out = Vec::new();
        for (start, rate) in trace.iter_bins() {
            if rate <= 0.0 {
                continue;
            }
            let n = rng.poisson(rate * bin_s);
            let base = start.as_micros();
            let mut bin: Vec<u64> = (0..n).map(|_| base + rng.next_below(bin_us)).collect();
            bin.sort_unstable();
            out.extend(bin.into_iter().map(SimTime::from_micros));
        }
        out
    }

    /// A trace whose bins average `per_bin` arrivals each (every fourth
    /// value becomes a silent bin). Means straddle the Poisson sampler's
    /// normal-approximation switch at 30, and bins as narrow as 1 µs make
    /// same-µs ties the rule.
    fn scaled_trace(bin_us: u64, per_bin: Vec<u32>) -> RateTrace {
        let width_s = bin_us as f64 / 1e6;
        let rates = per_bin
            .into_iter()
            .map(|m| match m % 4 {
                0 => 0.0,
                _ => f64::from(m) / width_s,
            })
            .collect();
        RateTrace::from_rates(SimDuration::from_micros(bin_us), rates)
    }

    proptest! {
        #[test]
        fn generate_arrivals_matches_the_per_bin_reference(
            seed in 0u64..10_000,
            bin_us in prop::sample::select(vec![1u64, 2, 3, 1_000, 1_000_000]),
            per_bin in prop::collection::vec(0u32..60, 0..40),
        ) {
            let trace = scaled_trace(bin_us, per_bin);
            let mut a = SimRng::new(seed);
            let mut b = SimRng::new(seed);
            prop_assert_eq!(generate_arrivals(&trace, &mut a), per_bin_reference(&trace, &mut b));
            // Both leave the generator in the same state.
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }

        #[test]
        fn stream_and_count_agree_with_generate_arrivals(
            seed in 0u64..10_000,
            bin_us in prop::sample::select(vec![1u64, 2, 3, 500_000]),
            per_bin in prop::collection::vec(0u32..60, 0..30),
        ) {
            let trace = scaled_trace(bin_us, per_bin);
            let all = generate_arrivals(&trace, &mut SimRng::new(seed));
            prop_assert_eq!(count_arrivals(&trace, SimRng::new(seed)), all.len() as u64);
            let mut stream = ArrivalStream::new(&trace, SimRng::new(seed));
            let mut streamed = Vec::new();
            while let Some(at) = stream.next() {
                streamed.push(at);
                // Whatever is buffered lies in the bin just consumed from.
                let bin = at.as_micros() / bin_us;
                let in_bin = all.iter().filter(|t| t.as_micros() / bin_us == bin).count();
                prop_assert!(stream.buffered() < in_bin.max(1));
            }
            prop_assert_eq!(streamed, all);
        }
    }
}
