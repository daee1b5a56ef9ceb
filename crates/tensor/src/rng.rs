//! Small deterministic random number generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a stateless mixer, the *counter-based* generator
//!   behind [`crate::dropout`]. Counter-based
//!   generation (hash of `(seed, index)`) is the same trick Philox-based GPU
//!   dropout kernels use: the mask for element `i` is a pure function of the
//!   seed and `i`, so fused and unfused kernels that touch elements in
//!   different orders still agree exactly.
//! * [`Pcg32`] — a small-state sequential generator for weight initialization
//!   and workload sampling.

/// The SplitMix64 mixing function, used statelessly.
///
/// The `mix` associated function is the core primitive: a bijective avalanche
/// mix of a 64-bit word, equal to the output of a sequential SplitMix64
/// generator whose state was `z` before its step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64;

impl SplitMix64 {
    /// Golden-ratio increment `mix` adds before the finalizer.
    pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Applies the SplitMix64 increment and finalizer to a single word.
    ///
    /// This is a bijection on `u64` with strong avalanche behaviour, suitable
    /// for counter-based generation: `mix(seed ^ counter_stream)`.
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(Self::GOLDEN_GAMMA);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform `f64` in `[0, 1)` derived from a counter value.
    ///
    /// This is the counter-based (stateless) interface: the result depends
    /// only on `(seed, counter)`.
    #[inline]
    pub fn uniform_at(seed: u64, counter: u64) -> f64 {
        // Decorrelate the seed and counter streams before mixing.
        let word = Self::mix(seed ^ counter.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        // Use the top 53 bits for a uniform double in [0, 1).
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// PCG-XSH-RR 32-bit generator (64-bit state).
///
/// Used for weight initialization and workload sampling where a sequential
/// stream is the natural interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    const MULTIPLIER: u64 = 6_364_136_223_846_793_005;

    /// Creates a generator from a seed and stream identifier.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.state = rng
            .state
            .wrapping_mul(Self::MULTIPLIER)
            .wrapping_add(rng.inc);
        rng.state = rng.state.wrapping_add(seed);
        rng.state = rng
            .state
            .wrapping_mul(Self::MULTIPLIER)
            .wrapping_add(rng.inc);
        rng
    }

    /// Creates a generator on the default stream.
    pub fn seeded(seed: u64) -> Self {
        Self::new(seed, 0x5851_F42D_4C95_7F2D)
    }

    /// Returns the next 32 random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(Self::MULTIPLIER).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        let hi = (self.next_u32() as u64) << 21;
        let lo = (self.next_u32() as u64) >> 11;
        (hi | lo) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)` without modulo bias.
    pub fn next_bounded(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u32();
            if r >= threshold {
                return r % bound;
            }
        }
    }

    /// Returns a standard normal sample via Box-Muller.
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid log(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `mix` is the reference SplitMix64 stream: from state `i * GAMMA`
    /// it returns the `i + 1`-th output of the generator seeded with 0.
    #[test]
    fn splitmix_is_deterministic() {
        let stream = [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4];
        for (i, want) in stream.into_iter().enumerate() {
            let state = (i as u64).wrapping_mul(SplitMix64::GOLDEN_GAMMA);
            assert_eq!(SplitMix64::mix(state), want);
        }
    }

    #[test]
    fn splitmix_counter_interface_is_order_independent() {
        let forward: Vec<f64> = (0..64).map(|i| SplitMix64::uniform_at(7, i)).collect();
        let mut backward: Vec<f64> = (0..64)
            .rev()
            .map(|i| SplitMix64::uniform_at(7, i))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn splitmix_uniform_in_unit_interval() {
        for i in 0..10_000 {
            let u = SplitMix64::uniform_at(123, i);
            assert!((0.0..1.0).contains(&u), "sample {u} out of range");
        }
    }

    #[test]
    fn pcg_streams_differ() {
        let mut a = Pcg32::new(1, 1);
        let mut b = Pcg32::new(1, 2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "independent streams should rarely collide");
    }

    #[test]
    fn pcg_bounded_respects_bound() {
        let mut rng = Pcg32::seeded(99);
        for _ in 0..10_000 {
            assert!(rng.next_bounded(17) < 17);
        }
    }

    #[test]
    fn pcg_mean_is_roughly_half() {
        let mut rng = Pcg32::seeded(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Pcg32::seeded(11);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "gaussian mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "gaussian variance {var}");
    }
}
