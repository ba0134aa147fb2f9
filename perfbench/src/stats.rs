//! Percentile and serving-lag arithmetic.
//!
//! Percentiles are nearest-rank, the definition the simulator's own
//! reports use (`paldia_metrics::percentile`), so a simulated P99 printed
//! here matches the one `repro` prints for the same run.

pub use paldia_metrics::percentile;

/// Median (nearest-rank P50) of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The smallest of `xs` (infinite for an empty slice). Host time and lag
/// are reported as the least-disturbed repetition: on a shared host other
/// work only ever adds to them, and it comes and goes over seconds.
pub fn least(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean; 0 for an empty iterator.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for x in xs {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Wall offset (ns after the replay epoch) at which simulated instant
/// `virtual_us` falls due when the trace plays at `speed`× real time.
pub fn due_ns(virtual_us: u64, speed: f64) -> f64 {
    virtual_us as f64 * 1_000.0 / speed
}

/// How late (ms) something observed `observed_ns` after the epoch was
/// against the simulated instant it belongs to. Negative means early.
pub fn lag_ms(observed_ns: u64, virtual_us: u64, speed: f64) -> f64 {
    (observed_ns as f64 - due_ns(virtual_us, speed)) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Nearest rank never interpolates: P99 of 10 samples is the max.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 99.0), 10.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
        assert_eq!(least(&[3.0, 1.5, 2.0]), 1.5);
        assert!(least(&[]).is_infinite());
        assert_eq!(mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn lag_is_measured_from_the_due_time_at_the_replay_speed() {
        // Epoch = `ready`. At 1000x, simulated t = 2 s falls due 2 ms after
        // the epoch; a `done` read 5 ms after the epoch is 3 ms late.
        assert_eq!(due_ns(2_000_000, 1_000.0), 2_000_000.0);
        assert_eq!(lag_ms(5_000_000, 2_000_000, 1_000.0), 3.0);
        // An arrival sent 0.5 ms before its due time is early, not late.
        assert_eq!(lag_ms(1_500_000, 2_000_000, 1_000.0), -0.5);
        // At real time (1x) a 1 s simulated offset is 1 s of wall.
        assert_eq!(lag_ms(1_000_000_000, 1_000_000, 1.0), 0.0);
    }
}
