//! Property-based tests for the tensor substrate.

use gnmr_tensor::{kernels, Csr, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with dimensions in [1, 8] and small values.
fn small_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Strategy: a pair of matrices with a shared inner dimension.
fn matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..6, 1usize..6, 1usize..6).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec(-4.0f32..4.0, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d));
        let b = proptest::collection::vec(-4.0f32..4.0, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d));
        (a, b)
    })
}

/// Strategy: sparse triplets within an r x c grid.
fn sparse_triplets() -> impl Strategy<Value = (usize, usize, Vec<(u32, u32, f32)>)> {
    (2usize..10, 2usize..10).prop_flat_map(|(r, c)| {
        let entry = (0..r as u32, 0..c as u32, -3.0f32..3.0).prop_map(|(a, b, v)| (a, b, v));
        proptest::collection::vec(entry, 0..30).prop_map(move |es| (r, c, es))
    })
}

proptest! {
    #[test]
    fn transpose_is_involutive(m in small_matrix()) {
        prop_assert!(m.transpose().transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn add_commutes(m in small_matrix()) {
        let doubled = m.add(&m);
        let scaled = m.scale(2.0);
        prop_assert!(doubled.approx_eq(&scaled, 1e-5));
    }

    #[test]
    fn matmul_distributes_over_add((a, b) in matmul_pair()) {
        // a*(b+b) == a*b + a*b
        let lhs = a.matmul(&b.add(&b));
        let ab = a.matmul(&b);
        let rhs = ab.add(&ab);
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn matmul_transpose_identity((a, b) in matmul_pair()) {
        // (a*b)^T == b^T * a^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn matmul_tn_nt_consistent((a, b) in matmul_pair()) {
        let (m, n) = (a.rows(), b.cols());
        let mut tn = Matrix::zeros(m, n);
        kernels::matmul_tn_acc(&mut tn, &a.transpose(), &b); // (a^T)^T b = a b
        prop_assert!(tn.approx_eq(&a.matmul(&b), 1e-3));
        let mut nt = Matrix::zeros(m, n);
        kernels::matmul_nt_into(&mut nt, &a, &b.transpose(), kernels::Store::Assign); // a (b^T)^T = a b
        prop_assert!(nt.approx_eq(&a.matmul(&b), 1e-3));
    }

    #[test]
    fn csr_dense_equivalence((r, c, es) in sparse_triplets()) {
        let csr = Csr::from_triplets(r, c, &es);
        let dense = csr.to_dense();
        // Dense reconstruction must contain the summed triplets.
        let mut expect = Matrix::zeros(r, c);
        for (i, j, v) in &es {
            expect[(*i as usize, *j as usize)] += *v;
        }
        prop_assert!(dense.approx_eq(&expect, 1e-4));
    }

    #[test]
    fn spmm_agrees_with_dense_matmul((r, c, es) in sparse_triplets(), dcols in 1usize..5) {
        let csr = Csr::from_triplets(r, c, &es);
        let x = Matrix::from_fn(c, dcols, |i, j| ((i * 7 + j * 3) % 5) as f32 - 2.0);
        prop_assert!(csr.spmm(&x).approx_eq(&csr.to_dense().matmul(&x), 1e-3));
        let y = Matrix::from_fn(r, dcols, |i, j| ((i * 5 + j) % 7) as f32 * 0.25 - 0.5);
        prop_assert!(csr.spmm_t(&y).approx_eq(&csr.to_dense().transpose().matmul(&y), 1e-3));
    }

    #[test]
    fn csr_transpose_involutive((r, c, es) in sparse_triplets()) {
        let csr = Csr::from_triplets(r, c, &es);
        prop_assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn row_normalized_rows_sum_to_unity_or_zero((r, c, es) in sparse_triplets()) {
        // Use positive weights so rows can't cancel to zero.
        let es: Vec<_> = es.iter().map(|&(a, b, v)| (a, b, v.abs() + 0.01)).collect();
        let csr = Csr::from_triplets(r, c, &es).row_normalized();
        let sums = csr.to_dense().row_sums();
        for i in 0..r {
            let s = sums.get(i, 0);
            prop_assert!(s.abs() < 1e-4 || (s - 1.0).abs() < 1e-4, "row {} sums to {}", i, s);
        }
    }

    #[test]
    fn gather_rows_matches_manual(m in small_matrix(), seed in 0u32..100) {
        let idx: Vec<u32> = (0..4).map(|i| ((seed + i) as usize % m.rows()) as u32).collect();
        let g = m.gather_rows(&idx);
        for (o, &i) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(o), m.row(i as usize));
        }
    }
}
