//! Normal distributions and the paper's `Prob(l, σ, p, δ)` kernel.
//!
//! §3.1: "the actual position of o follows the k-dimensional multivariate
//! normal distribution N_k(μ, Σ)" with a diagonal covariance whose marginal
//! standard deviation is `σ = U/c`. §3.3 then defines
//! `Prob(l, σ, p, δ)` — "the probability that the true location of the
//! object is within δ away from another location p". We realize the
//! δ-region as the axis-aligned square of half-width δ centered on `p`,
//! which factorizes into two 1-D interval probabilities (see DESIGN.md §5).

use super::erf::erfc;
use crate::point::Point2;
use rand::Rng;

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Standard normal CDF `Φ(x)`.
#[inline]
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * FRAC_1_SQRT_2)
}

/// `P(a < Z < b)` for a standard normal `Z`, computed to preserve relative
/// accuracy in the tails (a naive `Φ(b) − Φ(a)` cancels catastrophically
/// when both endpoints sit in the same tail).
pub fn std_normal_interval(a: f64, b: f64) -> f64 {
    if a >= b || a.is_nan() || b.is_nan() {
        return 0.0;
    }
    let p = if a >= 0.0 {
        // Right tail: erfc is small for both, difference keeps precision.
        0.5 * (erfc(a * FRAC_1_SQRT_2) - erfc(b * FRAC_1_SQRT_2))
    } else if b <= 0.0 {
        // Left tail: mirror.
        0.5 * (erfc(-b * FRAC_1_SQRT_2) - erfc(-a * FRAC_1_SQRT_2))
    } else {
        // Straddles zero: no cancellation danger.
        std_normal_cdf(b) - std_normal_cdf(a)
    };
    p.max(0.0)
}

/// A 1-D normal distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Normal1 {
    /// Mean.
    pub mean: f64,
    /// Standard deviation (must be positive and finite).
    pub sigma: f64,
}

impl Normal1 {
    /// Creates a normal distribution; returns `None` unless `sigma > 0` and
    /// both parameters are finite.
    pub fn new(mean: f64, sigma: f64) -> Option<Normal1> {
        if mean.is_finite() && sigma.is_finite() && sigma > 0.0 {
            Some(Normal1 { mean, sigma })
        } else {
            None
        }
    }

    /// CDF at `x`.
    #[inline]
    pub fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.sigma)
    }

    /// `P(lo < X < hi)`.
    #[inline]
    pub fn interval(&self, lo: f64, hi: f64) -> f64 {
        std_normal_interval((lo - self.mean) / self.sigma, (hi - self.mean) / self.sigma)
    }

    /// Draws a sample using the provided RNG (Box–Muller through
    /// [`sample_std_normal`]).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sigma * sample_std_normal(rng)
    }
}

/// The paper's `Prob(l, σ, p, δ)`: probability that the true location —
/// distributed as `N(l, σ²·I)` — lies within the square of half-width `δ`
/// centered at `p`.
///
/// The square factorizes, so this is the product of one
/// [`prob_within_delta_axis`] factor per axis — the same factors the
/// scorer's corridor tables compute once per grid column and row.
///
/// Degenerate cases: `σ = 0` means the location is known exactly, so the
/// probability is 1 if `l` is within δ of `p` (L∞) and 0 otherwise;
/// `δ = 0` has probability 0 for any `σ > 0` (a continuous distribution
/// assigns no mass to a point).
pub fn prob_within_delta(l: Point2, sigma: f64, p: Point2, delta: f64) -> f64 {
    prob_within_delta_axis(l.x, sigma, p.x, delta) * prob_within_delta_axis(l.y, sigma, p.y, delta)
}

/// One axis of [`prob_within_delta`]: `P(|X − p| < δ)` for
/// `X ~ N(l, σ²)`. `σ = 0` is the indicator `|l − p| ≤ δ`.
#[inline]
pub fn prob_within_delta_axis(l: f64, sigma: f64, p: f64, delta: f64) -> f64 {
    debug_assert!(sigma >= 0.0, "sigma must be non-negative");
    debug_assert!(delta >= 0.0, "delta must be non-negative");
    if sigma <= 0.0 {
        return if (l - p).abs() <= delta { 1.0 } else { 0.0 };
    }
    std_normal_interval((p - delta - l) / sigma, (p + delta - l) / sigma)
}

/// One draw from the standard normal via Box–Muller.
///
/// Implemented locally (rather than via `rand_distr`) to keep the
/// dependency set to the pre-approved list; the polar rejection variant is
/// avoided so the number of RNG draws per sample is fixed (2), which makes
/// generator output reproducible across refactors.
pub fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cdf_reference_points() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((std_normal_cdf(1.0) - 0.841_344_746_07).abs() < 2e-7);
        assert!((std_normal_cdf(-1.96) - 0.024_997_895_15).abs() < 2e-7);
    }

    #[test]
    fn interval_tail_has_relative_accuracy() {
        // P(4 < Z < 5) = Φ(5) − Φ(4) ≈ 3.1384590609e-5 − ... compute:
        // erfc(4/√2)/2 − erfc(5/√2)/2 ≈ 3.1671241833e-5 − 2.866515719e-7
        let p = std_normal_interval(4.0, 5.0);
        let want = 3.138_458_926e-5;
        assert!(((p - want) / want).abs() < 1e-5, "p = {p}");
    }

    #[test]
    fn interval_is_symmetric_and_ordered() {
        let p1 = std_normal_interval(-1.0, 2.0);
        let p2 = std_normal_interval(-2.0, 1.0);
        assert!((p1 - p2).abs() < 1e-12);
        assert_eq!(std_normal_interval(2.0, 1.0), 0.0);
        assert_eq!(std_normal_interval(1.0, 1.0), 0.0);
    }

    #[test]
    fn three_sigma_rule() {
        let n = Normal1::new(10.0, 2.0).unwrap();
        let p = n.interval(10.0 - 6.0, 10.0 + 6.0); // ±3σ
        assert!((p - 0.9973).abs() < 1e-3, "p = {p}");
    }

    #[test]
    fn normal1_rejects_bad_parameters() {
        assert!(Normal1::new(0.0, 0.0).is_none());
        assert!(Normal1::new(0.0, -1.0).is_none());
        assert!(Normal1::new(f64::NAN, 1.0).is_none());
        assert!(Normal1::new(0.0, f64::INFINITY).is_none());
    }

    #[test]
    fn prob_within_delta_basic_properties() {
        let l = Point2::new(0.5, 0.5);
        // Probability mass concentrates as delta grows.
        let p_small = prob_within_delta(l, 0.1, l, 0.05);
        let p_large = prob_within_delta(l, 0.1, l, 0.5);
        assert!(p_small > 0.0 && p_small < p_large && p_large <= 1.0);
        // Moving the pattern position away decreases probability.
        let far = Point2::new(0.9, 0.9);
        assert!(prob_within_delta(l, 0.1, far, 0.05) < p_small);
        // δ = 0 carries no mass under a continuous distribution.
        assert_eq!(prob_within_delta(l, 0.1, l, 0.0), 0.0);
    }

    #[test]
    fn prob_within_delta_degenerate_sigma() {
        let l = Point2::new(0.2, 0.2);
        assert_eq!(prob_within_delta(l, 0.0, Point2::new(0.25, 0.2), 0.1), 1.0);
        assert_eq!(prob_within_delta(l, 0.0, Point2::new(0.5, 0.2), 0.1), 0.0);
    }

    #[test]
    fn prob_within_delta_matches_the_unfactored_kernel() {
        // The kernel as written before the axis split: an L∞ indicator for
        // σ = 0, else one interval probability per axis.
        let unfactored = |l: Point2, sigma: f64, p: Point2, delta: f64| {
            if sigma <= 0.0 {
                return if l.linf_distance(p) <= delta {
                    1.0
                } else {
                    0.0
                };
            }
            let px = std_normal_interval((p.x - delta - l.x) / sigma, (p.x + delta - l.x) / sigma);
            let py = std_normal_interval((p.y - delta - l.y) / sigma, (p.y + delta - l.y) / sigma);
            px * py
        };
        let l = Point2::new(0.31, 0.72);
        for sigma in [0.0, 1e-6, 0.02, 0.4] {
            for p in [
                Point2::new(0.3, 0.7),
                Point2::new(0.5, 0.72),
                Point2::new(0.31, 0.9),
                Point2::new(-3.0, 4.0),
            ] {
                for delta in [0.0, 0.05, 0.2] {
                    let want = unfactored(l, sigma, p, delta);
                    assert_eq!(
                        prob_within_delta(l, sigma, p, delta).to_bits(),
                        want.to_bits()
                    );
                }
            }
        }
        assert_eq!(prob_within_delta_axis(0.2, 0.0, 0.25, 0.05), 1.0);
        assert_eq!(prob_within_delta_axis(0.2, 0.0, 0.3, 0.05), 0.0);
    }

    #[test]
    fn prob_within_delta_is_symmetric_in_l_and_p() {
        let a = Point2::new(0.1, 0.4);
        let b = Point2::new(0.3, 0.2);
        let p1 = prob_within_delta(a, 0.15, b, 0.07);
        let p2 = prob_within_delta(b, 0.15, a, 0.07);
        assert!((p1 - p2).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = Normal1::new(3.0, 2.0).unwrap();
        let m = 20_000;
        let samples: Vec<f64> = (0..m).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / m as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / m as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.15, "var = {var}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let n = Normal1::new(0.0, 1.0).unwrap();
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..8).map(|_| n.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..8).map(|_| n.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
