//! Random distributions used by the paper's workloads.
//!
//! Implemented from first principles over `rand::Rng` (the `rand_distr`
//! crate is deliberately avoided to keep the dependency set to the allowed
//! list): inverse-transform Pareto and Knuth/normal-approximation Poisson.

use rand::Rng;

/// Pareto (type I) distribution.
///
/// The paper writes "Pareto(1, 50)" without naming the parameter order; we
/// read it as `(shape α = 1, scale x_m = 50)` — a heavy-tailed popularity
/// with minimum 50 — which matches the skewed, Slashdot-prone traffic the
/// paper motivates (a shape of 50 would be nearly deterministic). See
/// DESIGN.md §3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    /// Shape α > 0 (smaller ⇒ heavier tail).
    pub(crate) shape: f64,
    /// Scale x_m > 0 (the minimum value).
    pub(crate) scale: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    /// Panics unless both parameters are positive and finite.
    pub(crate) fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "shape must be positive");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        Self { shape, scale }
    }

    /// The paper's popularity distribution, Pareto(1, 50).
    pub fn paper() -> Self {
        Self::new(1.0, 50.0)
    }

    /// Draws one sample by inverse transform: `x_m / U^(1/α)`.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> f64 {
        // Guard against U = 0 (probability ~2^-53 but would yield +inf).
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        self.scale / u.powf(1.0 / self.shape)
    }

    /// Draws `n` samples.
    pub(crate) fn sample_n(&self, rng: &mut impl Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Uses Knuth's product method below λ = 30 and a rounded normal
/// approximation (Box–Muller) above — the paper's λ ranges from 3 000 to
/// 183 000, deep in the regime where the normal approximation's relative
/// error is negligible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Mean event count per draw.
    pub(crate) lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution.
    ///
    /// # Panics
    /// Panics unless `lambda` is non-negative and finite.
    pub(crate) fn new(lambda: f64) -> Self {
        assert!(lambda >= 0.0 && lambda.is_finite(), "lambda must be ≥ 0");
        Self { lambda }
    }

    /// Draws one sample.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            // Knuth: multiply uniforms until the product drops below e^-λ.
            let limit = (-self.lambda).exp();
            let mut product: f64 = rng.gen_range(0.0..1.0);
            let mut count = 0u64;
            while product > limit {
                product *= rng.gen_range(0.0f64..1.0);
                count += 1;
            }
            count
        } else {
            // Normal approximation N(λ, λ), clamped at zero.
            let z = box_muller(rng);
            let x = self.lambda + self.lambda.sqrt() * z;
            x.round().max(0.0) as u64
        }
    }
}

/// One standard-normal sample via Box–Muller.
fn box_muller(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let d = Pareto::paper();
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 50.0);
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        let d = Pareto::new(1.0, 1.0);
        let mut r = rng();
        let samples = d.sample_n(&mut r, 50_000);
        let over_10 = samples.iter().filter(|&&x| x > 10.0).count() as f64 / 50_000.0;
        // P(X > 10) = 1/10 for α=1.
        assert!((over_10 - 0.1).abs() < 0.02, "tail mass {over_10}");
    }

    #[test]
    fn pareto_shape_controls_tail() {
        let mut r = rng();
        let heavy = Pareto::new(1.0, 1.0).sample_n(&mut r, 20_000);
        let light = Pareto::new(3.0, 1.0).sample_n(&mut r, 20_000);
        let tail = |v: &[f64]| v.iter().filter(|&&x| x > 5.0).count();
        assert!(tail(&heavy) > 4 * tail(&light));
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let d = Poisson::new(4.0);
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean_and_var() {
        let d = Poisson::new(3000.0);
        let mut r = rng();
        let n = 5_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r) as f64).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3000.0).abs() < 10.0, "mean {mean}");
        assert!(
            (var / 3000.0 - 1.0).abs() < 0.2,
            "variance ratio {}",
            var / 3000.0
        );
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let d = Poisson::new(0.0);
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let d = Pareto::paper();
        let a: Vec<f64> = d.sample_n(&mut StdRng::seed_from_u64(1), 16);
        let b: Vec<f64> = d.sample_n(&mut StdRng::seed_from_u64(1), 16);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn pareto_rejects_bad_shape() {
        let _ = Pareto::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn poisson_rejects_negative() {
        let _ = Poisson::new(-1.0);
    }
}
