//! Deterministic random number generation for the simulator.
//!
//! Every stochastic component (each link direction, each congestion process,
//! each workload generator, each node's timer randomization) owns its own
//! stream, derived from the master seed with SplitMix64. Streams are
//! xoshiro256++ generators: fast, high quality, and trivially portable, so a
//! given seed produces bit-identical simulations on every platform — the
//! foundation for the workspace's reproducibility guarantees and for
//! parallel trial sweeps (one independent stream per trial).

/// SplitMix64 step — used for seeding / deriving child streams.
#[inline]
#[must_use]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ deterministic RNG stream.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal variate from Box-Muller.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Create a stream from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            s,
            spare_normal: None,
        }
    }

    /// Derive an independent child stream from this one, labelled by `tag`.
    ///
    /// The tag keeps derivations order-independent: deriving `(tag=3)` then
    /// `(tag=7)` yields the same streams as the reverse order would from the
    /// same parent state snapshot. We therefore derive all children up front
    /// from a dedicated "derivation counter" in the parent.
    #[must_use]
    pub fn child(&self, tag: u64) -> Rng {
        let mut sm = self.s[0] ^ self.s[2] ^ tag.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform u64 in `[0, bound)` (Lemire's method, unbiased enough for
    /// simulation purposes via rejection).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below bound must be positive");
        // Lemire's widening-multiply method with rejection for exactness.
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform usize index in `[0, len)`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi, "range_f64 requires lo <= hi");
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Standard normal variate (Box-Muller, cached pair).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u == 0 for the logarithm.
        let u = loop {
            let u = self.f64();
            if u > 1e-300 {
                break u;
            }
        };
        let v = self.f64();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Lognormal variate with log-space parameters `mu`, `sigma`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.normal()).exp()
    }

    /// Exponential variate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0, "exponential mean must be positive");
        let u = loop {
            let u = self.f64();
            if u > 1e-300 {
                break u;
            }
        };
        -mean * u.ln()
    }
}

/// A lognormal with *linear-space* mean 1.0 and coefficient of variation
/// `cv` (multiplicative delay jitter), keeping the log-space parameters of
/// the last `cv` it drew for. A link's `cv` changes only when its schedule
/// steps, so nearly every draw skips the `ln` and `sqrt`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitLognormal {
    cv: f64,
    mu: f64,
    sigma: f64,
}

impl UnitLognormal {
    pub(crate) fn new(cv: f64) -> Self {
        let sigma2 = (1.0 + cv * cv).ln();
        Self {
            cv,
            mu: -0.5 * sigma2,
            sigma: sigma2.sqrt(),
        }
    }

    /// One draw from `rng` at coefficient of variation `cv`. For `cv <= 0`
    /// returns exactly 1.0 and draws nothing.
    pub(crate) fn sample(&mut self, rng: &mut Rng, cv: f64) -> f64 {
        if cv <= 0.0 {
            return 1.0;
        }
        if cv != self.cv {
            *self = Self::new(cv);
        }
        rng.lognormal(self.mu, self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn child_streams_are_independent_of_derivation_order() {
        let parent = Rng::new(7);
        let c1a = parent.child(1);
        let c2a = parent.child(2);
        let c2b = parent.child(2);
        let c1b = parent.child(1);
        assert_eq!(c1a.s, c1b.s);
        assert_eq!(c2a.s, c2b.s);
        assert_ne!(c1a.s, c2a.s);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng::new(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut r = Rng::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_rate_close_to_p() {
        let mut r = Rng::new(13);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(17);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn lognormal_unit_mean_has_mean_one_and_requested_cv() {
        let mut r = Rng::new(19);
        let n = 300_000;
        let cv = 0.4;
        let mut jitter = UnitLognormal::new(0.0);
        let samples: Vec<f64> = (0..n).map(|_| jitter.sample(&mut r, cv)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!(
            (var.sqrt() / mean - cv).abs() < 0.02,
            "cv {}",
            var.sqrt() / mean
        );
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_unit_mean_zero_cv_is_one() {
        let mut r = Rng::new(23);
        let mut jitter = UnitLognormal::new(0.0);
        assert_eq!(jitter.sample(&mut r, 0.0), 1.0);
        assert_eq!(jitter.sample(&mut r, -1.0), 1.0);
        assert_eq!(r.next_u64(), Rng::new(23).next_u64(), "nothing drawn");
    }

    /// A lognormal variate with *linear-space* mean 1.0 and coefficient of
    /// variation `cv`, its log-space parameters recomputed on every draw:
    /// the model [`UnitLognormal`] caches them against.
    fn lognormal_unit_mean(rng: &mut Rng, cv: f64) -> f64 {
        if cv <= 0.0 {
            return 1.0;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = -0.5 * sigma2;
        rng.lognormal(mu, sigma2.sqrt())
    }

    /// The cache is bit-identical to recomputing the parameters on every
    /// draw, across `cv` changes, a return to an earlier `cv`, and zero.
    #[test]
    fn cached_jitter_draws_match_the_uncached_model() {
        let (mut cached, mut model) = (Rng::new(29), Rng::new(29));
        let mut jitter = UnitLognormal::new(0.0);
        for cv in [0.02, 0.02, 0.1, 0.0, 0.1, 0.02, 0.4, 0.4, 0.05] {
            for _ in 0..50 {
                let got = jitter.sample(&mut cached, cv);
                assert_eq!(got.to_bits(), lognormal_unit_mean(&mut model, cv).to_bits());
            }
        }
    }

    #[test]
    fn exponential_mean() {
        let mut r = Rng::new(29);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
    }
}
