//! Deterministic random-number generation for workloads.
//!
//! Simulated runs must be bit-reproducible, so application kernels draw
//! randomness only from a [`SplitMix64`] seeded from the run configuration
//! (never from the host). SplitMix64 is tiny, fast, and passes BigCrush for
//! the purposes of workload generation (particle positions, task-queue
//! jitter, property-test shrink seeds).

/// SplitMix64 pseudo-random generator (Steele, Lea & Flood, OOPSLA '14).
///
/// # Example
///
/// ```
/// use shasta_sim::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let x = a.next_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of uniformity.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Derives an independent generator (e.g. one per simulated processor).
    pub fn fork(&mut self, salt: u64) -> SplitMix64 {
        SplitMix64::new(self.next_u64() ^ salt.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn range_f64_in_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1_000 {
            let x = r.range_f64(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SplitMix64::new(1234);
        let mut buckets = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            buckets[r.below(8) as usize] += 1;
        }
        for &b in &buckets {
            // Each bucket expects 10_000; allow ±5%.
            assert!((9_500..10_500).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = SplitMix64::new(5);
        let mut f1 = root.fork(0);
        let mut f2 = root.fork(1);
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(8);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }
}
