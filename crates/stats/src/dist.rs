//! Continuous probability distributions.
//!
//! The offline crate set does not include `rand_distr`, so the distributions
//! Rocket needs are implemented here directly on [`Xoshiro256`]:
//!
//! * normal via the Marsaglia polar method,
//! * log-normal, parameterized by the *target* mean/std (the moment-matching
//!   form used when fitting Table 1's `avg ± std` stage times),
//! * gamma via Marsaglia–Tsang squeeze (with the `alpha < 1` boost),
//! * exponential, uniform, constant, and a truncation combinator.
//!
//! The simulator samples stage service times from these; the paper's Fig 7
//! histograms motivate the families (tight normal for forensics, right-skewed
//! gamma/log-normal for bioinformatics and microscopy).

use crate::rng::Xoshiro256;

/// A continuous distribution over `f64`, sampled from a [`Xoshiro256`].
/// An enum (rather than trait objects) keeps simulator configuration plain
/// data: serializable, comparable, and cheap to copy into per-node
/// samplers.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always returns the value.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Normal with the given mean and standard deviation.
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation (must be ≥ 0).
        std: f64,
    },
    /// Log-normal parameterized by the mean/std of the *resulting* variable
    /// (not of the underlying normal).
    LogNormal {
        /// Target mean of the log-normal variable.
        mean: f64,
        /// Target standard deviation of the log-normal variable.
        std: f64,
    },
    /// Gamma with shape `k` and scale `theta` (mean `k·theta`).
    Gamma {
        /// Shape parameter (k > 0).
        shape: f64,
        /// Scale parameter (θ > 0).
        scale: f64,
    },
    /// Exponential with the given mean (= 1/λ).
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Any inner distribution clamped to `[lo, hi]` by rejection (falls back
    /// to clamping after 64 rejected draws so sampling always terminates).
    Truncated {
        /// The distribution being truncated.
        inner: Box<Dist>,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
}

impl Dist {
    /// Normal truncated at zero: the standard choice for service times whose
    /// `avg ± std` comes from Table 1 of the paper.
    pub fn normal_nonneg(mean: f64, std: f64) -> Dist {
        Dist::Truncated {
            inner: Box::new(Dist::Normal { mean, std }),
            lo: 0.0,
            hi: f64::INFINITY,
        }
    }

    /// Gamma distribution matched to a target mean and standard deviation.
    ///
    /// Solves `k·θ = mean`, `k·θ² = std²`.
    pub fn gamma_from_moments(mean: f64, std: f64) -> Dist {
        assert!(mean > 0.0 && std > 0.0);
        let shape = (mean / std).powi(2);
        let scale = std * std / mean;
        Dist::Gamma { shape, scale }
    }

    /// The distribution of `c·X`: every sample (and the mean) multiplied by
    /// `c > 0`. Shape-preserving for all families.
    pub fn scaled_by(&self, c: f64) -> Dist {
        assert!(c > 0.0, "scale factor must be positive");
        match self {
            Dist::Constant(v) => Dist::Constant(v * c),
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo * c,
                hi: hi * c,
            },
            Dist::Normal { mean, std } => Dist::Normal {
                mean: mean * c,
                std: std * c,
            },
            Dist::LogNormal { mean, std } => Dist::LogNormal {
                mean: mean * c,
                std: std * c,
            },
            Dist::Gamma { shape, scale } => Dist::Gamma {
                shape: *shape,
                scale: scale * c,
            },
            Dist::Exponential { mean } => Dist::Exponential { mean: mean * c },
            Dist::Truncated { inner, lo, hi } => Dist::Truncated {
                inner: Box::new(inner.scaled_by(c)),
                lo: lo * c,
                hi: hi * c,
            },
        }
    }
}

/// Draws a standard normal via the Marsaglia polar method.
#[inline]
fn standard_normal(rng: &mut Xoshiro256) -> f64 {
    loop {
        let u = 2.0 * rng.f64() - 1.0;
        let v = 2.0 * rng.f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Marsaglia–Tsang gamma sampler for shape ≥ 1.
fn gamma_mt(rng: &mut Xoshiro256, shape: f64) -> f64 {
    debug_assert!(shape >= 1.0);
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.f64();
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

impl Dist {
    /// Draws one sample.
    pub fn sample(&self, rng: &mut Xoshiro256) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => rng.range_f64(*lo, *hi),
            Dist::Normal { mean, std } => mean + std * standard_normal(rng),
            Dist::LogNormal { mean, std } => {
                if *std <= 0.0 {
                    return *mean;
                }
                // Moment matching: if X ~ LogNormal(mu, sigma), then
                // E[X] = exp(mu + sigma^2/2), Var[X] = (exp(sigma^2)-1)E[X]^2.
                let cv2 = (std / mean).powi(2);
                let sigma2 = (1.0 + cv2).ln();
                let mu = mean.ln() - sigma2 / 2.0;
                (mu + sigma2.sqrt() * standard_normal(rng)).exp()
            }
            Dist::Gamma { shape, scale } => {
                if *shape >= 1.0 {
                    gamma_mt(rng, *shape) * scale
                } else {
                    // Boost: Gamma(k) = Gamma(k+1) · U^{1/k}.
                    let g = gamma_mt(rng, shape + 1.0);
                    let u: f64 = rng.f64().max(f64::MIN_POSITIVE);
                    g * u.powf(1.0 / shape) * scale
                }
            }
            Dist::Exponential { mean } => {
                let u = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
                -mean * u.ln()
            }
            Dist::Truncated { inner, lo, hi } => {
                for _ in 0..64 {
                    let x = inner.sample(rng);
                    if x >= *lo && x <= *hi {
                        return x;
                    }
                }
                inner.sample(rng).clamp(*lo, *hi)
            }
        }
    }

    /// The distribution mean (exact where closed-form, used by the
    /// performance model of §6.1).
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Normal { mean, .. } => *mean,
            Dist::LogNormal { mean, .. } => *mean,
            Dist::Gamma { shape, scale } => shape * scale,
            Dist::Exponential { mean } => *mean,
            // Approximation: for the mildly truncated service-time
            // distributions Rocket uses, the untruncated mean is close.
            Dist::Truncated { inner, .. } => inner.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::OnlineStats;

    fn moments(d: &Dist, n: usize, seed: u64) -> OnlineStats {
        let mut rng = Xoshiro256::seed_from(seed);
        let mut stats = OnlineStats::new();
        for _ in 0..n {
            stats.push(d.sample(&mut rng));
        }
        stats
    }

    #[test]
    fn constant_is_constant() {
        let s = moments(&Dist::Constant(3.5), 100, 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.std(), 0.0);
    }

    #[test]
    fn uniform_moments() {
        let s = moments(&Dist::Uniform { lo: 2.0, hi: 6.0 }, 100_000, 2);
        assert!((s.mean() - 4.0).abs() < 0.02);
        // std of U(2,6) = 4/sqrt(12) ≈ 1.1547
        assert!((s.std() - 1.1547).abs() < 0.02);
    }

    #[test]
    fn normal_moments() {
        let d = Dist::Normal {
            mean: 130.8,
            std: 14.11,
        };
        let s = moments(&d, 200_000, 3);
        assert!((s.mean() - 130.8).abs() < 0.2);
        assert!((s.std() - 14.11).abs() < 0.2);
    }

    #[test]
    fn lognormal_moment_matching() {
        let d = Dist::LogNormal {
            mean: 564.3,
            std: 348.0,
        };
        let s = moments(&d, 400_000, 4);
        assert!((s.mean() - 564.3).abs() / 564.3 < 0.02, "mean {}", s.mean());
        assert!((s.std() - 348.0).abs() / 348.0 < 0.05, "std {}", s.std());
        assert!(s.min() > 0.0, "log-normal produced non-positive sample");
    }

    #[test]
    fn gamma_moments_high_shape() {
        let d = Dist::Gamma {
            shape: 9.0,
            scale: 0.5,
        };
        let s = moments(&d, 200_000, 5);
        assert!((s.mean() - 4.5).abs() < 0.05);
        assert!((s.std() - 1.5).abs() < 0.05);
    }

    #[test]
    fn gamma_moments_low_shape() {
        let d = Dist::Gamma {
            shape: 0.5,
            scale: 2.0,
        };
        let s = moments(&d, 400_000, 6);
        assert!((s.mean() - 1.0).abs() < 0.03, "mean {}", s.mean());
        // std = sqrt(k)·θ = sqrt(0.5)·2 = √2
        assert!(
            (s.std() - std::f64::consts::SQRT_2).abs() < 0.05,
            "std {}",
            s.std()
        );
    }

    #[test]
    fn gamma_from_moments_roundtrip() {
        let d = Dist::gamma_from_moments(2.1, 0.79);
        let s = moments(&d, 200_000, 7);
        assert!((s.mean() - 2.1).abs() < 0.02);
        assert!((s.std() - 0.79).abs() < 0.02);
    }

    #[test]
    fn exponential_moments() {
        let d = Dist::Exponential { mean: 10.0 };
        let s = moments(&d, 200_000, 8);
        assert!((s.mean() - 10.0).abs() < 0.15);
        assert!((s.std() - 10.0).abs() < 0.2);
        assert!(s.min() >= 0.0);
    }

    #[test]
    fn truncated_respects_bounds() {
        let d = Dist::Truncated {
            inner: Box::new(Dist::Normal {
                mean: 0.0,
                std: 5.0,
            }),
            lo: -1.0,
            hi: 1.0,
        };
        let mut rng = Xoshiro256::seed_from(9);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn normal_nonneg_never_negative() {
        let d = Dist::normal_nonneg(1.1, 0.9);
        let mut rng = Xoshiro256::seed_from(10);
        for _ in 0..50_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn means_reported() {
        assert_eq!(Dist::Constant(2.0).mean(), 2.0);
        assert_eq!(Dist::Uniform { lo: 0.0, hi: 4.0 }.mean(), 2.0);
        assert_eq!(
            Dist::Gamma {
                shape: 3.0,
                scale: 2.0
            }
            .mean(),
            6.0
        );
        assert_eq!(Dist::Exponential { mean: 7.0 }.mean(), 7.0);
    }
}
