//! Order statistics over latency and timing samples.

use std::time::Duration;

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`, or 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Each window's `q`-quantile, over consecutive windows of `window` samples in time order; a
/// short final window joins the one before it.
pub fn window_quantiles(samples: &[f64], window: usize, q: f64) -> Vec<f64> {
    let windows = (samples.len() / window).max(1);
    (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * window
            };
            quantile(&samples[w * window..end], q)
        })
        .collect()
}

/// The lower quartile over consecutive windows of `window` samples of each window's
/// `q`-quantile.
///
/// On a shared host, stalls of the virtual machine come in bursts that reach most windows of
/// a busy period.  A window's tail then measures the host, and the quieter quarter of windows
/// measures the program; a change that lifts the tail of every window still shows.
pub fn windowed_quantile(samples: &[f64], window: usize, q: f64) -> f64 {
    quantile(&window_quantiles(samples, window, q), 0.25)
}

/// Per-call latency figures of a library workload, whose calls run back to back on one thread:
/// `(p50, p99)`.  `p50` is the mean over windows of each window's median; `p99` the median over
/// windows of each window's p99.
///
/// The shared host switches between a fast and a slow state every few seconds (the same calls
/// run about 1.5 times slower in the slow one), and a run spends a varying share of its time
/// in each.  A median or a quartile over the whole run jumps from one state's figure to the
/// other's as that share crosses its rank; a mean over windows moves in proportion to it, as
/// `ops_per_s` does.  The median over windows' p99s keeps one stalled window out.
pub fn call_latencies(samples: &[f64], window: usize) -> (f64, f64) {
    let medians = window_quantiles(samples, window, 0.5);
    (
        medians.iter().sum::<f64>() / medians.len() as f64,
        median(&window_quantiles(samples, window, 0.99)),
    )
}

pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// A deterministic 64-bit generator (SplitMix64) for deriving workload inputs from the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.5), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_quantile_takes_the_quieter_quarter_of_windows() {
        let mut samples: Vec<f64> = (0..800).map(|i| f64::from(i % 100)).collect();
        for stalled in [150, 250, 350, 450, 550] {
            samples[stalled] = 1e6;
        }
        assert_eq!(windowed_quantile(&samples, 100, 1.0), 99.0);
        // The 50 samples after the last full window join it.
        assert_eq!(windowed_quantile(&samples[..250], 100, 1.0), 99.0);
        assert_eq!(windowed_quantile(&samples[100..250], 100, 1.0), 1e6);
    }

    #[test]
    fn call_latencies_average_window_medians_and_take_the_median_window_tail() {
        // Two fast windows, then three slow ones, one with a stall.
        let mut samples: Vec<f64> = [1.0, 1.0, 3.0, 3.0, 3.0]
            .iter()
            .flat_map(|&level| std::iter::repeat_n(level, 10))
            .collect();
        samples[35] = 100.0;
        assert_eq!(call_latencies(&samples, 10), (11.0 / 5.0, 3.0));
    }
}
