//! The transformer encoder backbone (BERT/RoBERTa-style, post-LayerNorm)
//! with an entry point that accepts *pre-built* embedding rows so the
//! P-tuning prompt encoder can splice trainable prompt embeddings into the
//! input (paper §3.1, "Continuous templates"), and returns any contiguous
//! range of the final hidden rows (the `[MASK]` row for prompt-tuning).

use crate::config::LmConfig;
use crate::tokenizer::PAD;
use em_nn::layers::{Embedding, FeedForward, LayerNorm, MultiHeadSelfAttention};
use em_nn::tape::burn_draws;
use em_nn::{Matrix, ParamStore, TapeExec, Var};
use rand::Rng;
use std::ops::Range;

/// One transformer block: post-LN self-attention + feed-forward.
#[derive(Clone)]
pub struct EncoderLayer {
    /// Self-attention sub-block.
    pub attn: MultiHeadSelfAttention,
    /// Post-attention LayerNorm.
    pub ln1: LayerNorm,
    /// Feed-forward sub-block.
    pub ffn: FeedForward,
    /// Post-FFN LayerNorm.
    pub ln2: LayerNorm,
    dropout: f32,
}

impl EncoderLayer {
    fn new(store: &mut ParamStore, name: &str, cfg: &LmConfig, rng: &mut impl Rng) -> Self {
        let attn = MultiHeadSelfAttention::new(
            store,
            &format!("{name}.attn"),
            cfg.d_model,
            cfg.n_heads,
            cfg.dropout,
            rng,
        );
        // Token-identity inductive bias: entity matching is, at its core,
        // noisy-overlap detection; see seed_identity_head.
        attn.seed_identity_head(store);
        EncoderLayer {
            attn,
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), cfg.d_model),
            ffn: FeedForward::new(
                store,
                &format!("{name}.ffn"),
                cfg.d_model,
                cfg.d_ff,
                cfg.dropout,
                rng,
            ),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), cfg.d_model),
            dropout: cfg.dropout,
        }
    }

    /// The layer's output rows `rows` of `x` `(seq, d_model)`; `mask`
    /// (optional) is the `(rows.len(), seq)` additive padding mask.
    /// Attention keys and values span the whole sequence; the queries,
    /// residuals, LayerNorms and the FFN cover `rows` only, and `0..seq` is
    /// the full forward. Each of the three dropouts (post-attention,
    /// FFN-internal around the `ffn.forward` call, post-FFN) burns the
    /// draws of the rows before and after `rows` at their stream
    /// positions, so the RNG exits as after the full forward. Pinned in
    /// `tests::row_range_forward_matches_the_sliced_full_forward_bitwise`.
    fn forward(
        &self,
        tape: &mut impl TapeExec,
        store: &ParamStore,
        x: Var,
        rows: Range<usize>,
        mask: Option<&Matrix>,
        rng: &mut impl Rng,
    ) -> Var {
        let (seq, d) = tape.value(x).shape();
        let d_ff = self.ffn.fc1.out_dim;
        let (before, after) = if tape.is_train() && self.dropout > 0.0 {
            (rows.start, seq - rows.end)
        } else {
            (0, 0)
        };
        let a = self.attn.forward(tape, store, x, rows.clone(), mask, rng);
        burn_draws(rng, before * d);
        let a = tape.dropout(a, self.dropout, rng);
        burn_draws(rng, after * d);
        let xr = tape.slice_row_range(x, rows);
        let x = tape.add(xr, a);
        let x = self.ln1.forward(tape, store, x);
        burn_draws(rng, before * d_ff);
        let f = self.ffn.forward(tape, store, x, rng);
        burn_draws(rng, after * d_ff);
        burn_draws(rng, before * d);
        let f = tape.dropout(f, self.dropout, rng);
        burn_draws(rng, after * d);
        let x = tape.add(x, f);
        self.ln2.forward(tape, store, x)
    }
}

/// The full encoder: token + position embeddings, an embedding LayerNorm,
/// and a stack of [`EncoderLayer`]s.
#[derive(Clone)]
pub struct Encoder {
    /// Architecture hyperparameters.
    pub cfg: LmConfig,
    /// Token-embedding table (tied with the MLM decoder).
    pub tok_emb: Embedding,
    /// Learned positional embeddings.
    pub pos_emb: Embedding,
    /// Embedding LayerNorm.
    pub emb_ln: LayerNorm,
    /// The transformer layer stack.
    pub layers: Vec<EncoderLayer>,
}

impl Encoder {
    /// Build a randomly-initialized encoder (identity heads seeded).
    pub fn new(store: &mut ParamStore, cfg: LmConfig, rng: &mut impl Rng) -> Self {
        cfg.validate();
        let tok_emb = Embedding::new(store, "tok_emb", cfg.vocab, cfg.d_model, rng);
        let pos_emb = Embedding::new(store, "pos_emb", cfg.max_len, cfg.d_model, rng);
        let emb_ln = LayerNorm::new(store, "emb_ln", cfg.d_model);
        let layers = (0..cfg.n_layers)
            .map(|i| EncoderLayer::new(store, &format!("layer{i}"), &cfg, rng))
            .collect();
        Encoder {
            cfg,
            tok_emb,
            pos_emb,
            emb_ln,
            layers,
        }
    }

    /// Truncate ids to the model's maximum length.
    pub fn clip<'a>(&self, ids: &'a [usize]) -> &'a [usize] {
        &ids[..ids.len().min(self.cfg.max_len)]
    }

    /// Embed token ids (token + position embeddings, LayerNorm, dropout).
    pub fn embed(
        &self,
        tape: &mut impl TapeExec,
        store: &ParamStore,
        ids: &[usize],
        rng: &mut impl Rng,
    ) -> Var {
        let ids = self.clip(ids);
        let tok = self.tok_emb.forward(tape, store, ids);
        let positions: Vec<usize> = (0..ids.len()).collect();
        let pos = self.pos_emb.forward(tape, store, &positions);
        let x = tape.add(tok, pos);
        let x = self.emb_ln.forward(tape, store, x);
        tape.dropout(x, self.cfg.dropout, rng)
    }

    /// Run the layer stack over already-embedded rows and return the final
    /// hidden states of the output rows `rows` (`0..seq` for all of them).
    /// `valid_len` marks the prefix of non-padding positions (attention is
    /// masked past it). Every layer but the last runs over the whole
    /// sequence, because the next layer's attention reads every key and
    /// value row; the last runs over `rows`. The result and the RNG exit
    /// state are those of the full forward's rows, bit for bit, so
    /// [`Encoder::dropout_draws`] holds for every range.
    pub fn forward_embedded(
        &self,
        tape: &mut impl TapeExec,
        store: &ParamStore,
        mut x: Var,
        valid_len: usize,
        rows: Range<usize>,
        rng: &mut impl Rng,
    ) -> Var {
        let seq = tape.value(x).rows();
        let pad = |rows| MultiHeadSelfAttention::padding_mask(rows, seq, valid_len);
        let mask = (valid_len < seq).then(|| pad(0..seq));
        let Some((last, inner)) = self.layers.split_last() else {
            return tape.slice_row_range(x, rows);
        };
        for layer in inner {
            x = layer.forward(tape, store, x, 0..seq, mask.as_ref(), rng);
        }
        let last_mask = match mask {
            Some(_) if rows != (0..seq) => Some(pad(rows.clone())),
            full => full,
        };
        last.forward(tape, store, x, rows, last_mask.as_ref(), rng)
    }

    /// How many RNG values one train-mode forward over `seq` rows draws for
    /// its dropout masks (zero when `cfg.dropout == 0`, since the dropout
    /// kernel early-returns before touching the RNG). Per forward: one
    /// embedding-dropout mask (`seq × d_model`), then per layer one
    /// attention-weight mask per head (`seq × seq`), the post-attention and
    /// post-FFN output masks (`seq × d_model` each) and the FFN-internal
    /// mask (`seq × d_ff`). The sharded pseudo-label scorer uses this to
    /// fast-forward worker RNG streams analytically instead of replaying
    /// forwards; the formula is pinned against a real counted forward in
    /// `tests::dropout_draws_matches_a_counted_forward`.
    pub fn dropout_draws(&self, seq: u64) -> u64 {
        if self.cfg.dropout <= 0.0 {
            return 0;
        }
        let d = self.cfg.d_model as u64;
        let heads = self.cfg.n_heads as u64;
        let ff = self.cfg.d_ff as u64;
        let layers = self.cfg.n_layers as u64;
        seq * d + layers * (heads * seq * seq + 2 * seq * d + seq * ff)
    }

    /// Embed and encode a token id sequence; the standard entry point.
    pub fn forward(
        &self,
        tape: &mut impl TapeExec,
        store: &ParamStore,
        ids: &[usize],
        rng: &mut impl Rng,
    ) -> Var {
        let timed = em_obs::Stopwatch::if_enabled();
        let ids = self.clip(ids);
        let valid = ids.iter().take_while(|&&t| t != PAD).count();
        let x = self.embed(tape, store, ids, rng);
        let out = self.forward_embedded(tape, store, x, valid, 0..ids.len(), rng);
        if let Some(sw) = timed {
            use std::sync::OnceLock;
            static FORWARD_SECS: OnceLock<em_obs::metrics::Histogram> = OnceLock::new();
            FORWARD_SECS
                .get_or_init(|| em_obs::metrics::histogram("lm_encoder_forward_secs", &[]))
                .record(sw.secs());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_nn::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_encoder() -> (ParamStore, Encoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(40);
        let mut store = ParamStore::new();
        let cfg = LmConfig {
            vocab: 50,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            d_ff: 32,
            max_len: 12,
            dropout: 0.0,
        };
        let enc = Encoder::new(&mut store, cfg, &mut rng);
        (store, enc, rng)
    }

    #[test]
    fn forward_shape() {
        let (store, enc, mut rng) = small_encoder();
        let mut tape = Tape::inference();
        let y = enc.forward(&mut tape, &store, &[2, 10, 11, 3], &mut rng);
        assert_eq!(tape.value(y).shape(), (4, 16));
    }

    #[test]
    fn long_input_is_clipped() {
        let (store, enc, mut rng) = small_encoder();
        let ids: Vec<usize> = (0..40).map(|i| 7 + i % 20).collect();
        let mut tape = Tape::inference();
        let y = enc.forward(&mut tape, &store, &ids, &mut rng);
        assert_eq!(tape.value(y).rows(), 12);
    }

    #[test]
    fn inference_is_deterministic() {
        let (store, enc, mut rng) = small_encoder();
        let run = |rng: &mut StdRng| {
            let mut tape = Tape::inference();
            let y = enc.forward(&mut tape, &store, &[2, 9, 8, 3], rng);
            tape.value(y).clone()
        };
        assert_eq!(run(&mut rng), run(&mut rng));
    }

    #[test]
    fn padding_does_not_change_valid_positions() {
        let (store, enc, mut rng) = small_encoder();
        let run = |ids: &[usize], rng: &mut StdRng| {
            let mut tape = Tape::inference();
            let y = enc.forward(&mut tape, &store, ids, rng);
            tape.value(y).slice_rows(0, 4)
        };
        let a = run(&[2, 9, 8, 3], &mut rng);
        let b = run(&[2, 9, 8, 3, PAD, PAD, PAD], &mut rng);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-4, "padding leaked: {x} vs {y}");
        }
    }

    /// Counts `next_u64` calls; dropout's `gen::<f32>()` makes exactly one.
    struct CountingRng<'a> {
        inner: &'a mut StdRng,
        draws: u64,
    }

    impl rand::RngCore for CountingRng<'_> {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn dropout_draws_matches_a_counted_forward() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut store = ParamStore::new();
        let cfg = LmConfig {
            vocab: 50,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            d_ff: 32,
            max_len: 12,
            dropout: 0.1,
        };
        let enc = Encoder::new(&mut store, cfg, &mut rng);
        for ids in [&[2usize, 10, 11, 3][..], &[2, 9, 8, 7, 6, 5, 4, 3][..]] {
            let mut counter = CountingRng {
                inner: &mut rng,
                draws: 0,
            };
            let mut tape = Tape::new();
            let _ = enc.forward(&mut tape, &store, ids, &mut counter);
            assert_eq!(
                counter.draws,
                enc.dropout_draws(ids.len() as u64),
                "seq={}",
                ids.len()
            );
        }
        // Inference (or a zero-dropout config) must not touch the RNG.
        let mut counter = CountingRng {
            inner: &mut rng,
            draws: 0,
        };
        let mut tape = Tape::inference();
        let _ = enc.forward(&mut tape, &store, &[2, 10, 11, 3], &mut counter);
        assert_eq!(counter.draws, 0);
        let (store0, enc0, mut rng0) = small_encoder();
        let mut counter = CountingRng {
            inner: &mut rng0,
            draws: 0,
        };
        let mut tape = Tape::new();
        let _ = enc0.forward(&mut tape, &store0, &[2, 10, 11, 3], &mut counter);
        assert_eq!(counter.draws, 0);
        assert_eq!(enc0.dropout_draws(4), 0);
    }

    #[test]
    fn row_range_forward_matches_the_sliced_full_forward_bitwise() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut store = ParamStore::new();
        let cfg = LmConfig {
            vocab: 50,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            d_ff: 32,
            max_len: 12,
            dropout: 0.1,
        };
        let enc = Encoder::new(&mut store, cfg, &mut rng);
        let ids = [2usize, 9, 8, 7, 6, 3];
        let seq = ids.len();
        // Train-mode (dropout draws burned around the live rows), a padded
        // sequence (masked range path), and inference — each must agree
        // with the sliced full forward to the bit, including the RNG exit
        // state. Single rows at the start, middle and end, a middle range,
        // a range ending at the last row, and the whole sequence.
        for (train, valid) in [(true, seq), (true, 4), (false, seq)] {
            for rows in [0..1, 3..4, seq - 1..seq, 1..4, 2..seq, 0..seq] {
                let fresh = || StdRng::seed_from_u64(4242);
                let (mut ra, mut rb) = (fresh(), fresh());
                let mut ta = if train {
                    Tape::new()
                } else {
                    Tape::inference()
                };
                let xa = enc.embed(&mut ta, &store, &ids, &mut ra);
                let h = enc.forward_embedded(&mut ta, &store, xa, valid, 0..seq, &mut ra);
                let hr = ta.slice_rows(h, rows.start, rows.len());
                let mut tb = if train {
                    Tape::new()
                } else {
                    Tape::inference()
                };
                let xb = enc.embed(&mut tb, &store, &ids, &mut rb);
                let hb = enc.forward_embedded(&mut tb, &store, xb, valid, rows.clone(), &mut rb);
                assert_eq!(
                    ta.value(hr).data(),
                    tb.value(hb).data(),
                    "train={train} valid={valid} rows={rows:?}: values diverged"
                );
                assert_eq!(
                    ra.state(),
                    rb.state(),
                    "train={train} valid={valid} rows={rows:?}: RNG streams diverged"
                );
            }
        }
    }

    #[test]
    fn gradients_reach_embeddings() {
        let (mut store, enc, mut rng) = small_encoder();
        let mut tape = Tape::new();
        let y = enc.forward(&mut tape, &store, &[2, 9, 8, 3], &mut rng);
        let loss = tape.mean_all(y);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        assert!(store.grad(enc.tok_emb.table).frobenius_norm() > 0.0);
        assert!(store.grad(enc.pos_emb.table).frobenius_norm() > 0.0);
    }
}
