//! Seeded weight initializers.
//!
//! Every initializer takes the RNG by `&mut impl Rng` so that the experiment
//! harness can derive all randomness from a single seed.

use crate::Matrix;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Gaussian `N(mean, std²)` over `f32`, sampled by Box–Muller in `f64`
/// (cosine branch, one sample per two uniform draws).
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mean: f32,
    std: f32,
}

impl Normal {
    /// Panics unless `std` is finite and non-negative.
    pub fn new(mean: f32, std: f32) -> Self {
        assert!(std >= 0.0 && std.is_finite(), "Normal: std must be finite and non-negative, got {std}");
        Normal { mean, std }
    }
}

impl Distribution<f32> for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        // `1 − u` lies in (0, 1], so the log is finite; the clamp is a guard.
        let u1 = (1.0 - rng.gen::<f64>()).max(f64::MIN_POSITIVE);
        let u2 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mean as f64 + self.std as f64 * z) as f32
    }
}

/// Uniform in `[-bound, bound]`.
pub fn uniform(rows: usize, cols: usize, bound: f32, rng: &mut impl Rng) -> Matrix {
    assert!(bound >= 0.0, "uniform: negative bound {bound}");
    if bound == 0.0 {
        return Matrix::zeros(rows, cols);
    }
    let dist = Uniform::new_inclusive(-bound, bound);
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| dist.sample(rng)).collect())
}

/// Gaussian with the given standard deviation.
pub fn normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    assert!(std >= 0.0, "normal: negative std {std}");
    if std == 0.0 {
        return Matrix::zeros(rows, cols);
    }
    let dist = Normal::new(0.0, std);
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| dist.sample(rng)).collect())
}

/// Glorot/Xavier uniform: `U[-sqrt(6/(fan_in+fan_out)), +...]`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, bound, rng)
}

/// A standard-normal sample matrix (for VAE reparameterization noise).
pub fn standard_normal(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    normal(rows, cols, 1.0, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_given_seed() {
        let a = xavier_uniform(4, 5, &mut StdRng::seed_from_u64(7));
        let b = xavier_uniform(4, 5, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = xavier_uniform(4, 5, &mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_bound() {
        let m = uniform(10, 10, 0.3, &mut StdRng::seed_from_u64(1));
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.3));
        let z = uniform(3, 3, 0.0, &mut StdRng::seed_from_u64(1));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn normal_std_roughly_matches() {
        let m = normal(100, 100, 2.0, &mut StdRng::seed_from_u64(2));
        let mean: f32 = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        let var: f32 = m.as_slice().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn normal_matches_moments_and_pinned_draw() {
        let mut rng = StdRng::seed_from_u64(0);
        // Seed 0's first two draws give u1 = 0.11668…, u2 = 0.43152…, so
        // z = sqrt(−2 ln u1)·cos(2π u2) = −1.8839083.
        let z = Normal::new(0.5, 2.0).sample(&mut rng);
        assert!((z - (0.5 + 2.0 * -1.883_908_3)).abs() < 1e-5, "{z}");

        let dist = Normal::new(0.0, 1.0);
        let draws: Vec<f64> = (0..100_000).map(|_| dist.sample(&mut rng) as f64).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var = draws.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    #[should_panic(expected = "std must be finite")]
    fn normal_rejects_non_finite_std() {
        let _ = Normal::new(0.0, f32::NAN);
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let small = xavier_uniform(4, 4, &mut StdRng::seed_from_u64(3));
        let big = xavier_uniform(400, 400, &mut StdRng::seed_from_u64(3));
        let max_small = small.as_slice().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let max_big = big.as_slice().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        assert!(max_big < max_small);
    }
}
