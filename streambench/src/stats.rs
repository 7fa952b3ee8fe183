//! Small numeric helpers shared by the workloads.

use std::time::Duration;

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
#[must_use]
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorted in place); 0 when empty.
#[must_use]
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Microseconds in `d`, with all its digits.
#[must_use]
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's resident set (`VmRSS`) in MiB; 0 where `/proc` is not
/// available.
#[must_use]
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmRSS:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One measured phase's throughput and memory. Work is counted per
/// second of busy time, and the reported rate is the median second, the
/// typical one: on a shared host a few slow seconds move it much less than
/// the overall mean. Resident memory is read at the same one-second
/// boundaries, which fall between ops.
#[derive(Debug, Default)]
pub struct Meter {
    busy: Duration,
    ops: f64,
    /// Busy time and ops when the current second began.
    mark: (Duration, f64),
    per_second: Vec<f64>,
    rss_peak_mb: f64,
}

impl Meter {
    /// Counts `ops` done in `busy` time; call it between ops.
    pub fn add(&mut self, ops: f64, busy: Duration) {
        self.busy += busy;
        self.ops += ops;
        let span = self.busy - self.mark.0;
        if span >= Duration::from_secs(1) {
            self.per_second
                .push((self.ops - self.mark.1) / span.as_secs_f64());
            self.mark = (self.busy, self.ops);
            self.rss_peak_mb = self.rss_peak_mb.max(rss_mb());
        }
    }

    /// Busy seconds so far.
    #[must_use]
    pub fn busy_secs(&self) -> f64 {
        self.busy.as_secs_f64()
    }

    /// Median one-second rate; the overall rate if no second completed.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        if self.per_second.is_empty() {
            return self.ops / self.busy.as_secs_f64();
        }
        median(&mut self.per_second.clone())
    }

    /// Largest resident set read at a one-second boundary; the current
    /// one if no second completed.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        if self.per_second.is_empty() {
            rss_mb()
        } else {
            self.rss_peak_mb
        }
    }
}

/// Most latency samples kept per phase.
const SAMPLE_CAP: usize = 1 << 18;

/// Latency samples, thinned by reservoir sampling once more than
/// [`SAMPLE_CAP`] arrive, so the benchmark's own memory does not grow
/// with the throughput it measures. Kept values are real samples.
#[derive(Debug)]
pub struct Samples {
    seen: u64,
    kept: Vec<f64>,
    rng: SplitMix,
}

impl Default for Samples {
    fn default() -> Self {
        Self::new()
    }
}

impl Samples {
    /// An empty sample set.
    #[must_use]
    pub fn new() -> Self {
        Self {
            seen: 0,
            kept: Vec::with_capacity(SAMPLE_CAP),
            rng: SplitMix::new(SAMPLE_CAP as u64),
        }
    }

    /// Offers one sample.
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.kept.len() < SAMPLE_CAP {
            self.kept.push(v);
        } else {
            let slot = (self.rng.next_u64() % self.seen) as usize;
            if slot < SAMPLE_CAP {
                self.kept[slot] = v;
            }
        }
    }

    /// Nearest-rank quantile of the kept samples.
    #[must_use]
    pub fn quantile(&mut self, q: f64) -> f64 {
        quantile(&mut self.kept, q)
    }
}

/// Seed of the `index`-th independent input stream drawn from `seed`.
#[must_use]
pub fn mix(seed: u64, index: u64) -> u64 {
    SplitMix::new(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Salt separating set-up input streams from measured ones.
pub const SETUP_STREAMS: u64 = 0x5e70_0000_0000_0000;

/// SplitMix64: the benchmark's own generator for query parameters, so
/// request streams depend only on the seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An inclusive index range `[start, end]` inside `0..domain`.
    pub fn range(&mut self, domain: usize) -> (usize, usize) {
        let a = self.below(domain);
        let b = self.below(domain);
        (a.min(b), a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_reports_the_median_second() {
        let mut m = Meter::default();
        for ops in [10.0, 30.0, 20.0] {
            m.add(ops, Duration::from_secs(1));
        }
        m.add(5.0, Duration::from_millis(500));
        assert_eq!(m.ops_per_s(), 20.0);
        assert!((m.busy_secs() - 3.5).abs() < 1e-12);
        assert!(m.peak_rss_mb() > 0.0);
    }

    #[test]
    fn samples_keep_at_most_the_cap() {
        let mut s = Samples::new();
        for i in 0..(SAMPLE_CAP + 1000) {
            s.push(i as f64);
        }
        assert_eq!(s.kept.len(), SAMPLE_CAP);
        assert_eq!(s.seen, (SAMPLE_CAP + 1000) as u64);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&mut v), 5.0);
        assert_eq!(quantile(&mut v, 0.9), 9.0);
        assert_eq!(quantile(&mut v, 1.0), 10.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
