//! Numeric utilities shared across models: stable softmax, activations,
//! and sample moments.

use crate::dense::Matrix;

/// Numerically stable sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// ReLU.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Leaky ReLU with the given negative slope.
#[inline]
pub fn leaky_relu(x: f32, slope: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        slope * x
    }
}

/// In-place numerically stable softmax over each row.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Softmax over each row, returning a new matrix.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// Sample mean of a slice (0 for empty input).
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Sample standard deviation (n-1 denominator; 0 for fewer than 2 samples).
pub fn std_dev(xs: &[f32]) -> f32 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / (xs.len() - 1) as f32).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_symmetry_and_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
        assert!(sigmoid(-100.0).is_finite());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Larger logits get larger probabilities.
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!(s.get(0, 1) > s.get(0, 0));
    }

    #[test]
    fn softmax_handles_large_values() {
        let m = Matrix::from_vec(1, 2, vec![1000.0, 1001.0]);
        let s = softmax_rows(&m);
        assert!(s.is_finite());
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-6);
        assert!((std_dev(&xs) - 1.2909944).abs() < 1e-5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }
}
