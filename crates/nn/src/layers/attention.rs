//! Multi-head scaled dot-product self-attention (encoder-style,
//! bidirectional, with an additive padding mask).

use super::linear::Linear;
use crate::optim::ParamStore;
use crate::tape::{burn_draws, TapeExec, Var};
use crate::tensor::Matrix;
use rand::Rng;
use std::ops::Range;

/// Multi-head self-attention block with learned Q/K/V/output projections.
#[derive(Clone)]
pub struct MultiHeadSelfAttention {
    /// Query projection.
    pub wq: Linear,
    /// Key projection.
    pub wk: Linear,
    /// Value projection.
    pub wv: Linear,
    /// Output projection applied to the concatenated heads.
    pub wo: Linear,
    /// Number of attention heads.
    pub heads: usize,
    /// Model width (must divide evenly into `heads`).
    pub d_model: usize,
    /// Per-head width (`d_model / heads`).
    pub d_head: usize,
    /// Dropout probability applied to attention weights.
    pub dropout: f32,
}

impl MultiHeadSelfAttention {
    /// Create a block with Xavier-initialized projections.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        d_model: usize,
        heads: usize,
        dropout: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(d_model % heads, 0, "d_model must divide evenly into heads");
        MultiHeadSelfAttention {
            wq: Linear::new(store, &format!("{name}.wq"), d_model, d_model, rng),
            wk: Linear::new(store, &format!("{name}.wk"), d_model, d_model, rng),
            wv: Linear::new(store, &format!("{name}.wv"), d_model, d_model, rng),
            wo: Linear::new(store, &format!("{name}.wo"), d_model, d_model, rng),
            heads,
            d_model,
            d_head: d_model / heads,
            dropout,
        }
    }

    /// Re-initialize head 0's query/key projections with an identity
    /// overlay, turning it into a *token-identity head*: its attention
    /// score between positions i and j is `x_i[0..d_head]·x_j[0..d_head]`,
    /// which (after embedding LayerNorm) is large exactly when the two
    /// positions hold the same token. This is an inductive-bias
    /// initialization, not a frozen feature — training refines it. Large
    /// pretrained LMs acquire such "duplicate token" heads from scale;
    /// a from-scratch mini-LM needs the head start.
    pub fn seed_identity_head(&self, store: &mut ParamStore) {
        for w in [self.wq.w, self.wk.w] {
            let m = store.value_mut(w);
            for i in 0..self.d_head {
                let cur = m.get(i, i);
                m.set(i, i, cur + 1.0);
            }
        }
    }

    /// The additive padding mask for query rows `rows` of a `seq_len`
    /// sequence whose positions `valid_len..seq_len` are padding: masked key
    /// columns get -1e9. Masking depends only on the key column, so every
    /// row is the same.
    pub fn padding_mask(rows: Range<usize>, seq_len: usize, valid_len: usize) -> Matrix {
        Matrix::from_fn(
            rows.len(),
            seq_len,
            |_, c| if c < valid_len { 0.0 } else { -1e9 },
        )
    }

    /// The output rows `rows` of self-attention over `x` `(seq, d_model)`;
    /// `mask` (optional) is the `(rows.len(), seq)` additive mask. Keys and
    /// values span all of `x`; the query projection, scores, softmax and
    /// output projection cover `rows` only, and `0..seq` is the full
    /// forward. Each output row is bit-identical to that row of the full
    /// forward, since every kernel on the path computes its output rows
    /// independently and in the same element order. The attention-weight
    /// dropout burns the draws of the rows before and after `rows` at their
    /// stream positions ([`burn_draws`]), so the RNG leaves this call in
    /// the state the full forward leaves it.
    pub fn forward(
        &self,
        tape: &mut impl TapeExec,
        store: &ParamStore,
        x: Var,
        rows: Range<usize>,
        mask: Option<&Matrix>,
        rng: &mut impl Rng,
    ) -> Var {
        let seq = tape.value(x).rows();
        let (before, after) = if tape.is_train() && self.dropout > 0.0 {
            (rows.start, seq - rows.end)
        } else {
            (0, 0)
        };
        let xq = tape.slice_row_range(x, rows);
        let q = self.wq.forward(tape, store, xq);
        let k = self.wk.forward(tape, store, x);
        let v = self.wv.forward(tape, store, x);
        let scale = 1.0 / (self.d_head as f32).sqrt();

        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let off = h * self.d_head;
            let qh = tape.slice_cols(q, off, self.d_head);
            let kh = tape.slice_cols(k, off, self.d_head);
            let vh = tape.slice_cols(v, off, self.d_head);
            let scores = tape.matmul_nt(qh, kh);
            let scores = tape.scale(scores, scale);
            let scores = match mask {
                Some(m) => tape.add_const(scores, m),
                None => scores,
            };
            let attn = tape.softmax_rows(scores);
            burn_draws(rng, before * seq);
            let attn = tape.dropout(attn, self.dropout, rng);
            burn_draws(rng, after * seq);
            head_outputs.push(tape.matmul(attn, vh));
        }
        let concat = tape.concat_cols(&head_outputs);
        self.wo.forward(tape, store, concat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tape_transpose_matches_matrix_transpose() {
        let mut tape = Tape::new();
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let x = tape.constant(m.clone());
        let t = tape.transpose(x);
        assert_eq!(tape.value(t), &m.transpose());
    }

    #[test]
    fn attention_output_shape() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let attn = MultiHeadSelfAttention::new(&mut store, "a", 8, 2, 0.0, &mut rng);
        let mut tape = Tape::inference();
        let x = tape.constant(Matrix::from_fn(5, 8, |r, c| ((r + c) as f32).sin()));
        let y = attn.forward(&mut tape, &store, x, 0..5, None, &mut rng);
        assert_eq!(tape.value(y).shape(), (5, 8));
    }

    #[test]
    fn padding_mask_blocks_padded_positions() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut store = ParamStore::new();
        let attn = MultiHeadSelfAttention::new(&mut store, "a", 4, 1, 0.0, &mut rng);

        // Two inputs identical in the first 2 (valid) positions but different
        // in the padded tail must produce identical outputs at valid rows.
        let base = Matrix::from_fn(4, 4, |r, c| ((r * 4 + c) as f32).cos());
        let mut alt = base.clone();
        for c in 0..4 {
            alt.set(3, c, 99.0);
            alt.set(2, c, -99.0);
        }
        let mask = MultiHeadSelfAttention::padding_mask(0..4, 4, 2);

        let mut t1 = Tape::inference();
        let x1 = t1.constant(base);
        let y1 = t1.forward_helper(&attn, &store, x1, &mask, &mut rng);
        let mut t2 = Tape::inference();
        let x2 = t2.constant(alt);
        let y2 = t2.forward_helper(&attn, &store, x2, &mask, &mut rng);
        for r in 0..2 {
            for c in 0..4 {
                let a = t1.value(y1).get(r, c);
                let b = t2.value(y2).get(r, c);
                assert!((a - b).abs() < 1e-5, "valid row {r} changed: {a} vs {b}");
            }
        }
    }

    trait ForwardHelper {
        fn forward_helper(
            &mut self,
            attn: &MultiHeadSelfAttention,
            store: &ParamStore,
            x: Var,
            mask: &Matrix,
            rng: &mut StdRng,
        ) -> Var;
    }

    impl ForwardHelper for Tape {
        fn forward_helper(
            &mut self,
            attn: &MultiHeadSelfAttention,
            store: &ParamStore,
            x: Var,
            mask: &Matrix,
            rng: &mut StdRng,
        ) -> Var {
            attn.forward(self, store, x, 0..4, Some(mask), rng)
        }
    }

    #[test]
    fn attention_gradients_flow_to_all_projections() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut store = ParamStore::new();
        let attn = MultiHeadSelfAttention::new(&mut store, "a", 8, 2, 0.0, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_fn(3, 8, |r, c| {
            ((r * 8 + c) as f32 * 0.1).sin()
        }));
        let y = attn.forward(&mut tape, &store, x, 0..3, None, &mut rng);
        let loss = tape.mean_all(y);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        for id in [attn.wq.w, attn.wk.w, attn.wv.w, attn.wo.w] {
            let norm = store.grad(id).frobenius_norm();
            assert!(norm > 0.0, "no gradient reached {}", store.name(id));
        }
    }
}
