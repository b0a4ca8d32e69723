//! Small shared pieces: the seeded generator, order statistics, engine
//! counter sums and metric values.

use bddcf_bdd::EngineStats;
use std::collections::BTreeMap;
use std::time::Duration;

/// splitmix64: the benchmark's only source of randomness, so a seed fixes
/// every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Engine counters summed over managers (peaks take the maximum).
#[derive(Default, Clone, Copy)]
pub struct Engine {
    pub gc_runs: u64,
    pub gc_pause_ns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub unique_lookups: u64,
    pub unique_probes: u64,
    pub peak_arena_bytes: u64,
}

impl Engine {
    pub fn add(&mut self, s: &EngineStats) {
        let cache = s.cache_total();
        self.gc_runs += s.gc_runs;
        self.gc_pause_ns += s.gc_pause_ns;
        self.cache_hits += cache.hits;
        self.cache_misses += cache.misses;
        self.unique_lookups += s.unique_lookups;
        self.unique_probes += s.unique_probes;
        self.peak_arena_bytes = self.peak_arena_bytes.max(s.peak_arena_bytes);
    }

    pub fn report(&self, out: &mut Metrics) {
        let lookups = (self.cache_hits + self.cache_misses).max(1);
        out.insert("bdd.gc_runs", self.gc_runs as f64);
        out.insert("bdd.gc_pause_s", self.gc_pause_ns as f64 * 1e-9);
        out.insert(
            "bdd.cache_hit_ratio",
            self.cache_hits as f64 / lookups as f64,
        );
        out.insert("bdd.cache_lookups", lookups as f64);
        out.insert(
            "bdd.unique_probe_len",
            self.unique_probes as f64 / self.unique_lookups.max(1) as f64,
        );
        out.insert("bdd.peak_arena_bytes", self.peak_arena_bytes as f64);
    }
}

/// Metric values by name. The result line prints them in the order of
/// the metric lists in `main.rs`, with the units given there.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(failed + 1) / (attempted + 1)`: the failure share with one failure
/// and one attempt added, so a clean run reads as a small non-zero base
/// rate and any new failure shows as a relative rise.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    (failed + 1) as f64 / (attempted + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
