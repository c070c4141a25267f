//! Shared pieces: the seeded generator, digests, order statistics, and
//! the process's memory high-water mark.

/// SplitMix64 — the benchmark's only source of randomness, so a seed
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent draws
    /// (one per client) made from the same seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over a stream of strings; the oracle's digest function.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds `text` into the digest.
    pub fn update(&mut self, text: &str) {
        for &b in text.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Digest of one string.
    pub fn of(text: &str) -> String {
        let mut d = Digest::default();
        d.update(text);
        d.hex()
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One reported percentile: which one, its value, and how many samples
/// lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile reported (99, 90 or 50).
    pub p: u32,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly after its rank.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn nearest_rank(sorted: &[f64], p: u32) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((f64::from(p) / 100.0) * sorted.len() as f64)
        .ceil()
        .max(1.0) as usize;
    Percentile {
        p,
        value: sorted[rank - 1],
        beyond: sorted.len() - rank,
        count: sorted.len(),
    }
}

/// The highest of p99, p90 and p50 that has at least ten samples
/// beyond it; p50 when even that has fewer (tiny sample sets).
pub fn tail(samples: &[f64]) -> Percentile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    [99, 90, 50]
        .into_iter()
        .map(|p| nearest_rank(&sorted, p))
        .find(|q| q.beyond >= 10)
        .unwrap_or_else(|| nearest_rank(&sorted, 50))
}

/// The process's resident-set high-water mark (`VmHWM`) in KiB.
pub fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Resets `VmHWM` to the current resident set, so the next reading
/// covers only what runs after this call. Best effort: where the kernel
/// refuses, the reading covers the whole process, whose own footprint
/// before a timed phase is small (set-up runs in child processes).
pub fn reset_hwm() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_percentile_has_ten_samples_beyond_it() {
        for n in [1usize, 5, 20, 25, 99, 100, 999, 1000, 1001, 5000] {
            let samples: Vec<f64> = (0..n).rev().map(|i| i as f64).collect();
            let q = tail(&samples);
            assert_eq!(q.count, n);
            if n >= 20 {
                assert!(q.beyond >= 10, "n={n}: p{} has {} beyond", q.p, q.beyond);
                // Nothing beyond a reported value may be smaller than it.
                assert_eq!(q.value as usize + q.beyond + 1, n, "n={n}");
            }
        }
        assert_eq!(tail(&vec![1.0; 1000]).p, 99);
        assert_eq!(tail(&vec![1.0; 999]).p, 90);
        assert_eq!(tail(&vec![1.0; 100]).p, 90);
        assert_eq!(tail(&vec![1.0; 99]).p, 50);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(Digest::of(""), "cbf29ce484222325");
        assert_eq!(Digest::of("a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7, 0), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7, 0), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
