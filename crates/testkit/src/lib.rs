//! Dependency-free deterministic test support shared across the workspace.
//!
//! Every crate in this repository used to carry its own private copy of a
//! SplitMix64 `Gen` struct for seeded property tests; this crate is the
//! single home for that machinery. It has **no dependencies** (not even on
//! the other workspace crates), so any crate — including `gpgpu-isa` at the
//! bottom of the dependency graph — can dev-depend on it without cycles.
//!
//! Two types are exported:
//!
//! - [`SplitMix64`]: the raw PRNG. Its output stream is bit-stable across
//!   platforms and releases; seeded workload inputs (and therefore simulated
//!   cycle counts) must never change, so **do not alter the algorithm**.
//! - [`Gen`]: a property-test case generator layered on top, with an
//!   *unbiased* bounded-range draw and the convenience draws
//!   (`f32` special-value mix, probability knobs, vectors) that the old
//!   per-crate copies had grown independently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A tiny deterministic PRNG (SplitMix64).
///
/// Self-contained so nothing in the workspace needs an external RNG crate;
/// the stream is stable across platforms and releases, which keeps seeded
/// inputs — and therefore simulated cycle counts — reproducible.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next draw as `u32` (upper half of the 64-bit draw).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A draw in `[lo, hi)`. Uses a simple modulo reduction — fine for
    /// workload-input generation, where a sub-ppm bias is irrelevant, and
    /// kept byte-for-byte stream-compatible with historical releases so
    /// seeded workload inputs do not change. New test code should prefer
    /// [`Gen::range`], which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }
}

/// Deterministic property-test case generator.
///
/// Wraps [`SplitMix64`] with the draws test suites actually use. Unlike the
/// raw PRNG (whose stream is frozen), `Gen`'s derived draws may evolve —
/// tests pin behaviour per seed, not across releases.
#[derive(Debug, Clone)]
pub struct Gen(SplitMix64);

impl Gen {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Gen(SplitMix64::new(seed))
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// The next draw as `u32` (upper half of the 64-bit draw).
    pub fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    /// An unbiased draw in `[lo, hi)` via Lemire's widening-multiply
    /// method with rejection (deterministic: the rejection loop consumes
    /// draws from the same stream).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        if span == 1 {
            return lo;
        }
        // Lemire 2019: multiply a 64-bit draw by the span; the high word is
        // the candidate, the low word decides rejection of the biased tail.
        let threshold = span.wrapping_neg() % span;
        loop {
            let m = (self.next_u64() as u128) * (span as u128);
            if (m as u64) >= threshold {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// A draw in `[0, n)` as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range(0, n as u64) as usize
    }

    /// One element of `items`, by unbiased index.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// `true` with probability `num/denom`.
    ///
    /// # Panics
    ///
    /// Panics if `denom == 0`.
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.range(0, denom) < num
    }

    /// An `f32` mixing ordinary values with the special cases property
    /// tests care about (zeroes, infinities, NaN, denormal-adjacent).
    pub fn f32(&mut self) -> f32 {
        match self.range(0, 16) {
            0 => 0.0,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::NEG_INFINITY,
            4 => f32::NAN,
            5 => f32::MIN_POSITIVE / 2.0,
            _ => f32::from_bits(self.next_u32()),
        }
    }

    /// An LCS gamma knob in `(0, 1]`, quantized to hundredths like the
    /// paper's sweep.
    pub fn gamma(&mut self) -> f64 {
        self.range(1, 101) as f64 / 100.0
    }

    /// A vector of `len in [min_len, max_len]` draws from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `min_len > max_len` or `lo >= hi`.
    pub fn vec(&mut self, lo: u64, hi: u64, min_len: usize, max_len: usize) -> Vec<u64> {
        assert!(min_len <= max_len, "empty length range {min_len}..={max_len}");
        let len = self.range(min_len as u64, max_len as u64 + 1) as usize;
        (0..len).map(|_| self.range(lo, hi)).collect()
    }
}

/// A unique, self-cleaning scratch directory for filesystem fixtures
/// (result stores, trace outputs, server state).
///
/// The directory is created immediately under the system temp dir, named
/// by tag, process id, and a process-wide counter — so parallel tests in
/// one binary and concurrent test binaries never collide — and removed
/// (best-effort) on drop.
#[derive(Debug)]
pub struct TempDir(std::path::PathBuf);

impl TempDir {
    /// Creates `<tmp>/<tag>-<pid>-<n>/`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir creatable");
        TempDir(dir)
    }

    /// The directory path.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vector for seed 0 from the published SplitMix64 algorithm;
    /// guards the frozen stream that seeded workload inputs depend on.
    #[test]
    fn splitmix64_stream_is_frozen() {
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Gen::new(42);
        let mut b = Gen::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_is_in_bounds_and_unbiased_for_pow2_adjacent_spans() {
        let mut g = Gen::new(7);
        // A span just above a power of two is where modulo bias is worst;
        // check bounds and rough uniformity over the first/last buckets.
        let span = (1u64 << 33) + 3;
        for _ in 0..10_000 {
            let v = g.range(10, 10 + span);
            assert!((10..10 + span).contains(&v));
        }
        // Small-span uniformity: chi-square-ish sanity over 6 buckets.
        let mut counts = [0u32; 6];
        for _ in 0..60_000 {
            counts[g.range(0, 6) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c} far from 10k");
        }
    }

    #[test]
    fn range_handles_unit_and_full_spans() {
        let mut g = Gen::new(3);
        assert_eq!(g.range(5, 6), 5);
        // Full u64 span: threshold is 0, never rejects.
        for _ in 0..10 {
            let _ = g.range(0, u64::MAX);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Gen::new(0).range(4, 4);
    }

    #[test]
    fn vec_respects_length_bounds() {
        let mut g = Gen::new(9);
        for _ in 0..200 {
            let v = g.vec(0, 50, 2, 7);
            assert!((2..=7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 50));
        }
    }

    #[test]
    fn f32_hits_special_values() {
        let mut g = Gen::new(11);
        let draws: Vec<f32> = (0..4096).map(|_| g.f32()).collect();
        assert!(draws.iter().any(|v| v.is_nan()));
        assert!(draws.iter().any(|v| v.is_infinite()));
        assert!(draws.iter().any(|v| *v == 0.0));
        assert!(draws.iter().any(|v| v.is_finite() && *v != 0.0));
    }

    #[test]
    fn gamma_in_unit_interval() {
        let mut g = Gen::new(13);
        for _ in 0..500 {
            let v = g.gamma();
            assert!(v > 0.0 && v <= 1.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut g = Gen::new(17);
        for _ in 0..100 {
            assert!(!g.chance(0, 4));
            assert!(g.chance(4, 4));
        }
    }
}
