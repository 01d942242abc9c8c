//! Property-based tests of the tensor kernels and autograd invariants.

use em_nn::{Matrix, Tape, TapeExec};
use proptest::prelude::*;

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(4, 2),
    ) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_is_involutive(a in small_matrix(5, 3)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_nt_matches_explicit(a in small_matrix(3, 4), b in small_matrix(5, 4)) {
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transpose());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn softmax_rows_is_a_distribution(a in small_matrix(4, 6)) {
        let s = a.softmax_rows();
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_finite(
        logits in small_matrix(3, 5),
        targets in proptest::collection::vec(0usize..5, 3),
    ) {
        let mut tape = Tape::new();
        let x = tape.constant(logits);
        let loss = tape.cross_entropy(x, &targets);
        let v = tape.value(loss).item();
        prop_assert!(v.is_finite());
        prop_assert!(v >= 0.0);
    }

    #[test]
    fn backward_never_produces_nan(
        x0 in small_matrix(3, 4),
        w0 in small_matrix(4, 3),
    ) {
        let mut tape = Tape::new();
        let x = tape.constant(x0);
        let w = tape.constant(w0);
        let h = tape.matmul(x, w);
        let g = tape.gelu(h);
        let s = tape.softmax_rows(g);
        let loss = tape.nll_probs(s, &[0, 1, 2]);
        tape.backward(loss);
        prop_assert!(!tape.grad(x).has_non_finite());
        prop_assert!(!tape.grad(w).has_non_finite());
    }

    #[test]
    fn gather_scatter_roundtrip_grad(idx in proptest::collection::vec(0usize..4, 1..6)) {
        // Sum of gathered rows: each source row's gradient equals its
        // selection count / total elements.
        let src = Matrix::from_fn(4, 2, |r, c| (r * 2 + c) as f32);
        let mut tape = Tape::new();
        let s = tape.constant(src);
        let g = tape.gather_rows(s, &idx);
        let loss = tape.mean_all(g);
        tape.backward(loss);
        let grad = tape.grad(s);
        let denom = (idx.len() * 2) as f32;
        for r in 0..4 {
            let count = idx.iter().filter(|&&i| i == r).count() as f32;
            for c in 0..2 {
                prop_assert!((grad.get(r, c) - count / denom).abs() < 1e-5);
            }
        }
    }
}
