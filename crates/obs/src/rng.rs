//! Deterministic pseudo-random numbers without external crates.
//!
//! The generator is splitmix64 (Steele et al., "Fast splittable
//! pseudorandom number generators"), the same mixer the turn-model
//! sampler in `ebda-cdg` already hand-rolls. It passes BigCrush on its
//! own output and is more than adequate for traffic generation and
//! randomized tests; what matters here is that a seed fully determines
//! the stream on every platform.

/// A splitmix64 pseudo-random number generator.
///
/// ```
/// use ebda_obs::Rng64;
/// let mut a = Rng64::new(7);
/// let mut b = Rng64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// The integer form of a probability, for loops that draw against
    /// the same `p` many times: `rng.gen_below(Rng64::bool_threshold(p))`
    /// consumes the same one draw as `rng.gen_bool(p)` and returns the
    /// same answer. Exact, not approximate: [`Rng64::gen_f64`] is
    /// `k * 2^-53` for the 53-bit integer `k = next_u64() >> 11`, and
    /// `k * 2^-53 < p` holds iff `k < ceil(p * 2^53)` (scaling by a power
    /// of two is exact in `f64`).
    pub fn bool_threshold(p: f64) -> u64 {
        (p * (1u64 << 53) as f64).ceil() as u64
    }

    /// Bernoulli trial against a threshold from [`Rng64::bool_threshold`].
    pub fn gen_below(&mut self, threshold: u64) -> bool {
        (self.next_u64() >> 11) < threshold
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero.
    ///
    /// Uses the widening-multiply trick (Lemire); the modulo bias is at
    /// most 2⁻⁶⁴ per draw, far below anything our statistics can see.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range needs a non-empty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Uniform usize in `[0, n)`. `n` must be non-zero.
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(n as u64) as usize
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_index(i + 1);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng64::new(0xEBDA);
        let mut b = Rng64::new(0xEBDA);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn the_stream_is_pinned() {
        // Every seeded generator in the workspace draws from this stream.
        let mut r = Rng64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(3);
        for _ in 0..1000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds_and_covers() {
        let mut r = Rng64::new(4);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.gen_index(7);
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn bernoulli_rates_are_sane() {
        let mut r = Rng64::new(5);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(6);
        let mut v: Vec<u32> = (0..20).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
