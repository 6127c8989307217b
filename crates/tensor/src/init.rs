//! Weight initializers.
//!
//! All initializers take an explicit RNG so results are reproducible under
//! the workspace determinism contract.

use crate::dense::Matrix;
use rand::Rng;

/// Xavier/Glorot uniform initialization: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
///
/// The convention used throughout this workspace is that a weight of shape
/// `(rows, cols)` multiplies activations as `x (n x rows) * W (rows x cols)`,
/// so `fan_in = rows`, `fan_out = cols`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    uniform(rows, cols, -a, a, rng)
}

/// Uniform initialization on `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Matrix {
    assert!(lo <= hi, "uniform: lo {lo} > hi {hi}");
    let data = (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Gaussian initialization with the given mean and standard deviation,
/// via Box-Muller (avoids a dependency on `rand_distr`).
pub fn normal(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut impl Rng) -> Matrix {
    assert!(std >= 0.0, "normal: negative std {std}");
    let n = rows * cols;
    let mut data = Vec::with_capacity(n);
    while data.len() < n {
        let (z0, z1) = box_muller(rng);
        data.push(mean + std * z0);
        if data.len() < n {
            data.push(mean + std * z1);
        }
    }
    Matrix::from_vec(rows, cols, data)
}

/// One Box-Muller draw: two independent standard normals.
pub fn box_muller(rng: &mut impl Rng) -> (f32, f32) {
    // Avoid ln(0).
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// A single standard-normal sample.
pub fn standard_normal(rng: &mut impl Rng) -> f32 {
    box_muller(rng).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = seeded(7);
        let m = xavier_uniform(64, 32, &mut rng);
        let a = (6.0f32 / 96.0).sqrt();
        assert!(m.data().iter().all(|&v| v > -a && v < a));
        // Should not be degenerate.
        assert!(m.max_abs() > a * 0.5);
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = seeded(42);
        let m = normal(200, 200, 1.5, 2.0, &mut rng);
        let mean = m.mean();
        let var = m.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / (m.len() - 1) as f32;
        assert!((mean - 1.5).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = xavier_uniform(8, 8, &mut seeded(3));
        let b = xavier_uniform(8, 8, &mut seeded(3));
        assert!(a.approx_eq(&b, 0.0));
        let c = xavier_uniform(8, 8, &mut seeded(4));
        assert!(!a.approx_eq(&c, 0.0));
    }

    #[test]
    fn uniform_respects_range() {
        let m = uniform(30, 30, -0.25, 0.75, &mut seeded(9));
        assert!(m.data().iter().all(|&v| (-0.25..0.75).contains(&v)));
    }
}
