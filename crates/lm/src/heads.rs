//! Output heads: the tied masked-language-model head (used by pretraining
//! *and* prompt-tuning — that shared objective form is the whole point of
//! the paper, §2.4/§3) and the randomly-initialized classification head
//! used by vanilla fine-tuning (§2.3).

use crate::encoder::Encoder;
use em_nn::layers::{LayerNorm, Linear};
use em_nn::{Matrix, ParamId, ParamStore, TapeExec, Var};
use rand::Rng;

/// MLM head: `logits = LayerNorm(gelu(h W)) E^T + b` with the decoder
/// weights tied to the token-embedding table.
#[derive(Clone)]
pub struct MlmHead {
    /// Hidden transform before the tied decoder.
    pub transform: Linear,
    /// LayerNorm after the transform.
    pub ln: LayerNorm,
    /// Per-vocabulary-entry output bias.
    pub bias: ParamId,
}

impl MlmHead {
    /// Build the head; decoder weights are tied to `encoder`'s embeddings.
    pub fn new(store: &mut ParamStore, encoder: &Encoder, rng: &mut impl Rng) -> Self {
        let d = encoder.cfg.d_model;
        MlmHead {
            transform: Linear::new(store, "mlm.transform", d, d, rng),
            ln: LayerNorm::new(store, "mlm.ln", d),
            bias: store.register("mlm.bias", Matrix::zeros(1, encoder.cfg.vocab)),
        }
    }

    /// Vocabulary logits for a matrix of hidden rows `(n, d)` → `(n, V)`.
    pub fn logits(
        &self,
        tape: &mut impl TapeExec,
        store: &ParamStore,
        encoder: &Encoder,
        hidden: Var,
    ) -> Var {
        let h = self.transform_rows(tape, store, hidden);
        let table = tape.param(store, encoder.tok_emb.table); // (V, d)
        let scores = tape.matmul_nt(h, table); // (n, V), no transposed copy
        let bias = tape.param(store, self.bias);
        tape.add_row_broadcast(scores, bias)
    }

    /// The tied decoder `E^T` `(d, V)` for [`MlmHead::logits_with_decoder`]:
    /// transposed once, then shared by every forward of a scoring call.
    pub fn decoder_t(store: &ParamStore, encoder: &Encoder) -> Matrix {
        store.value(encoder.tok_emb.table).transpose()
    }

    /// [`MlmHead::logits`] against a decoder from [`MlmHead::decoder_t`]:
    /// the same values bit for bit, without re-transposing the `(V, d)`
    /// table on every call. Forward-only — no gradient reaches the
    /// embeddings through `decoder_t`.
    pub fn logits_with_decoder(
        &self,
        tape: &mut impl TapeExec,
        store: &ParamStore,
        hidden: Var,
        decoder_t: &Matrix,
    ) -> Var {
        let h = self.transform_rows(tape, store, hidden);
        let scores = tape.matmul_const(h, decoder_t); // (n, V)
        let bias = tape.param(store, self.bias);
        tape.add_row_broadcast(scores, bias)
    }

    /// `LayerNorm(gelu(h W))`: the hidden transform before the decoder.
    fn transform_rows(&self, tape: &mut impl TapeExec, store: &ParamStore, hidden: Var) -> Var {
        let h = self.transform.forward(tape, store, hidden);
        let h = tape.gelu(h);
        self.ln.forward(tape, store, h)
    }
}

/// Sequence classification head over the `[CLS]` embedding (§2.3): a fresh
/// randomly-initialized projection — exactly the objective-form gap
/// prompt-tuning avoids.
#[derive(Clone)]
pub struct ClsHead {
    /// The classification projection.
    pub proj: Linear,
}

impl ClsHead {
    /// A fresh randomly-initialized classification head.
    pub fn new(
        store: &mut ParamStore,
        encoder: &Encoder,
        classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        ClsHead {
            proj: Linear::new(store, "cls_head", encoder.cfg.d_model, classes, rng),
        }
    }

    /// Class logits for a matrix of pooled rows `(n, d)` → `(n, classes)`.
    pub fn logits(&self, tape: &mut impl TapeExec, store: &ParamStore, pooled: Var) -> Var {
        self.proj.forward(tape, store, pooled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LmConfig;
    use em_nn::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, Encoder, MlmHead, StdRng) {
        let mut rng = StdRng::seed_from_u64(50);
        let mut store = ParamStore::new();
        let cfg = LmConfig {
            vocab: 40,
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_len: 10,
            dropout: 0.0,
        };
        let enc = Encoder::new(&mut store, cfg, &mut rng);
        let head = MlmHead::new(&mut store, &enc, &mut rng);
        (store, enc, head, rng)
    }

    #[test]
    fn mlm_logits_cover_vocab() {
        let (store, enc, head, mut rng) = setup();
        let mut tape = Tape::inference();
        let h = enc.forward(&mut tape, &store, &[2, 8, 9, 3], &mut rng);
        let logits = head.logits(&mut tape, &store, &enc, h);
        assert_eq!(tape.value(logits).shape(), (4, 40));
    }

    #[test]
    fn cached_decoder_logits_are_bit_exact() {
        let (store, enc, head, mut rng) = setup();
        let mut tape = Tape::inference();
        let h = enc.forward(&mut tape, &store, &[2, 8, 9, 3], &mut rng);
        let per_call = head.logits(&mut tape, &store, &enc, h);
        let decoder_t = MlmHead::decoder_t(&store, &enc);
        let cached = head.logits_with_decoder(&mut tape, &store, h, &decoder_t);
        let bits =
            |v: Var| -> Vec<u32> { tape.value(v).data().iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(per_call), bits(cached));
    }

    #[test]
    fn tied_decoder_sends_gradient_to_embeddings() {
        let (mut store, enc, head, mut rng) = setup();
        let mut tape = Tape::new();
        let h = enc.forward(&mut tape, &store, &[2, 8, 9, 3], &mut rng);
        let logits = head.logits(&mut tape, &store, &enc, h);
        let loss = tape.cross_entropy(logits, &[7, 8, 9, 10]);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        // The embedding table receives gradient both from the input side and
        // from the tied decoder.
        assert!(store.grad(enc.tok_emb.table).frobenius_norm() > 0.0);
        assert!(store.grad(head.bias).frobenius_norm() > 0.0);
    }

    #[test]
    fn cls_head_shape() {
        let (mut store, enc, _, mut rng) = setup();
        let cls = ClsHead::new(&mut store, &enc, 2, &mut rng);
        let mut tape = Tape::inference();
        let h = enc.forward(&mut tape, &store, &[2, 8, 9, 3], &mut rng);
        let pooled = tape.slice_rows(h, 0, 1);
        let logits = cls.logits(&mut tape, &store, pooled);
        assert_eq!(tape.value(logits).shape(), (1, 2));
    }
}
