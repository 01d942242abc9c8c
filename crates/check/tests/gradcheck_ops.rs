//! Finite-difference gradcheck coverage for every `Tape` op.
//!
//! Each op records `op → elementwise-weight → mean_all` so the scalar
//! loss has a non-degenerate gradient through every output element (a
//! plain mean would zero out e.g. softmax rows, which sum to one). The
//! tolerance is 1e-2 relative — sized for f32 central differences.

use em_check::gradcheck;
use em_nn::{Matrix, Tape, TapeExec, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f32 = 1e-2;
const TOL: f32 = 1e-2;

fn mat(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Like [`mat`] but keeps every element away from zero (for ops with a
/// kink at the origin, e.g. relu).
fn mat_off_zero(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    mat(rows, cols).prop_map(|m| m.map(|v| if v.abs() < 0.2 { v + 0.5 } else { v }))
}

/// Like [`mat`] but strictly positive (probability-like inputs).
fn mat_positive(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(0.2f32..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Like [`mat`] but with a per-column offset so no row is near-constant
/// (keeps layer-norm variance well away from zero).
fn mat_spread(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    mat(rows, cols).prop_map(move |m| {
        Matrix::from_fn(m.rows(), m.cols(), |r, c| {
            m.get(r, c) * 0.3 + [0.0f32, 1.5, -1.5, 3.0][c % 4]
        })
    })
}

/// Reduce `v` to a scalar through fixed elementwise weights, so every
/// output element contributes a distinct term to the loss.
fn weighted_mean(t: &mut Tape, v: Var) -> Var {
    let (r, c) = t.value(v).shape();
    let w = t.constant(Matrix::from_fn(r, c, |i, j| {
        0.05 * ((i * c + j) as f32) - 0.4
    }));
    let p = t.mul(v, w);
    t.mean_all(p)
}

macro_rules! check {
    ($inputs:expr, $build:expr) => {{
        let r = gradcheck($inputs, $build, EPS, TOL);
        prop_assert!(
            r.is_ok(),
            "{}",
            r.err().map(|e| e.to_string()).unwrap_or_default()
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn matmul(a in mat(2, 3), b in mat(3, 2)) {
        check!(&[a, b], |t, vs| {
            let y = t.matmul(vs[0], vs[1]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn matmul_nt(a in mat(2, 3), b in mat(4, 3)) {
        check!(&[a, b], |t, vs| {
            let y = t.matmul_nt(vs[0], vs[1]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn add(a in mat(2, 3), b in mat(2, 3)) {
        check!(&[a, b], |t, vs| {
            let y = t.add(vs[0], vs[1]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn add_row_broadcast(a in mat(3, 4), b in mat(1, 4)) {
        check!(&[a, b], |t, vs| {
            let y = t.add_row_broadcast(vs[0], vs[1]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn sub(a in mat(2, 3), b in mat(2, 3)) {
        check!(&[a, b], |t, vs| {
            let y = t.sub(vs[0], vs[1]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn mul(a in mat(2, 3), b in mat(2, 3)) {
        check!(&[a, b], |t, vs| {
            let y = t.mul(vs[0], vs[1]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn scale(a in mat(2, 3)) {
        check!(&[a], |t, vs| {
            let y = t.scale(vs[0], 1.7);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn add_const(a in mat(2, 3)) {
        check!(&[a], |t, vs| {
            let k = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.5);
            let y = t.add_const(vs[0], &k);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn transpose(a in mat(2, 3)) {
        check!(&[a], |t, vs| {
            let y = t.transpose(vs[0]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn tanh(a in mat(2, 3)) {
        check!(&[a], |t, vs| {
            let y = t.tanh(vs[0]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn sigmoid(a in mat(2, 3)) {
        check!(&[a], |t, vs| {
            let y = t.sigmoid(vs[0]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn gelu(a in mat(2, 3)) {
        check!(&[a], |t, vs| {
            let y = t.gelu(vs[0]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn relu(a in mat_off_zero(2, 3)) {
        check!(&[a], |t, vs| {
            let y = t.relu(vs[0]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn softmax_rows(a in mat(2, 4)) {
        check!(&[a], |t, vs| {
            let y = t.softmax_rows(vs[0]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn layer_norm(x in mat_spread(2, 4), gamma in mat_off_zero(1, 4), beta in mat(1, 4)) {
        check!(&[x, gamma, beta], |t, vs| {
            let y = t.layer_norm(vs[0], vs[1], vs[2], 1e-5);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn gather_rows(a in mat(4, 3)) {
        check!(&[a], |t, vs| {
            let y = t.gather_rows(vs[0], &[0, 2, 1, 2]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn dropout(a in mat(3, 4)) {
        // The builder reseeds its own RNG, so the mask is identical on
        // every (re-)evaluation and the op is piecewise linear.
        check!(&[a], |t, vs| {
            let mut rng = StdRng::seed_from_u64(11);
            let y = t.dropout(vs[0], 0.3, &mut rng);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn concat_rows(a in mat(2, 3), b in mat(1, 3)) {
        check!(&[a, b], |t, vs| {
            let y = t.concat_rows(&[vs[0], vs[1]]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn concat_cols(a in mat(2, 2), b in mat(2, 3)) {
        check!(&[a, b], |t, vs| {
            let y = t.concat_cols(&[vs[0], vs[1]]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn slice_rows(a in mat(4, 3)) {
        check!(&[a], |t, vs| {
            let y = t.slice_rows(vs[0], 1, 2);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn slice_cols(a in mat(3, 4)) {
        check!(&[a], |t, vs| {
            let y = t.slice_cols(vs[0], 1, 2);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn cols_matmul(a in mat(3, 5)) {
        check!(&[a], |t, vs| {
            let m = Matrix::from_fn(3, 2, |r, c| (r as f32 - c as f32) * 0.5 + 0.25);
            let y = t.cols_matmul(vs[0], &[0, 2, 3], &m);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn mean_rows(a in mat(3, 4)) {
        check!(&[a], |t, vs| {
            let y = t.mean_rows(vs[0]);
            weighted_mean(t, y)
        });
    }

    #[test]
    fn mean_all(a in mat(3, 4)) {
        check!(&[a], |t, vs| t.mean_all(vs[0]));
    }

    #[test]
    fn cross_entropy(logits in mat(3, 4)) {
        check!(&[logits], |t, vs| t.cross_entropy(vs[0], &[0, 3, 1]));
    }

    #[test]
    fn nll_probs(probs in mat_positive(3, 4)) {
        check!(&[probs], |t, vs| t.nll_probs(vs[0], &[2, 0, 3]));
    }

    #[test]
    fn grad_reverse_flips_and_scales(a in mat(2, 3)) {
        // Forward finite differences cannot see the reversal, so check it
        // directly: grad through grad_reverse(λ) == -λ × grad without it.
        let lambda = 0.7f32;
        let mut t1 = Tape::new();
        let x1 = t1.constant(a.clone());
        let y1 = t1.grad_reverse(x1, lambda);
        let l1 = weighted_mean(&mut t1, y1);
        t1.backward(l1);
        let g_rev = t1.grad(x1);

        let mut t2 = Tape::new();
        let x2 = t2.constant(a);
        let l2 = weighted_mean(&mut t2, x2);
        t2.backward(l2);
        let g_id = t2.grad(x2);

        for (r, i) in g_rev.data().iter().zip(g_id.data()) {
            prop_assert!((r + lambda * i).abs() < 1e-5, "{r} vs {}", -lambda * i);
        }
    }
}
