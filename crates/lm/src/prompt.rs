//! GEM-specific prompt-tuning (paper §3): hard-encoding templates T1/T2,
//! continuous (P-tuning) templates whose prompt tokens are trainable
//! embeddings passed through a BiLSTM, and the label-word verbalizer that
//! turns masked-LM scores into class probabilities (Eq. 1).

use crate::encoder::Encoder;
use crate::tokenizer::{Tokenizer, CLS, MASK, SEP};
use em_nn::layers::{BiLstm, Linear};
use em_nn::{init, Matrix, NoGradTape, ParamId, ParamStore, TapeExec, Var};
use rand::Rng;

/// The two templates of §3.1:
/// * `T1(x)` = `serialize(e) serialize(e') They are [MASK]`
/// * `T2(x)` = `serialize(e) is [MASK] to serialize(e')`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateId {
    /// `serialize(e) serialize(e') They are [MASK]`.
    T1,
    /// `serialize(e) is [MASK] to serialize(e')`.
    T2,
}

/// Hard templates spell the prompt with real vocabulary tokens; continuous
/// templates learn prompt embeddings directly (P-tuning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromptMode {
    /// Prompt words are real vocabulary tokens.
    Hard,
    /// Prompt tokens are trainable embeddings (P-tuning).
    Continuous,
}

/// Label word sets (§3.1): the designed set captures the *general binary
/// relationship* of GEM; the simple set is the ablation of Figure 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelWords {
    /// Words voting for the "match" class.
    pub yes: Vec<String>,
    /// Words voting for the "mismatch" class.
    pub no: Vec<String>,
}

impl LabelWords {
    /// V_yes = {matched, similar, relevant}, V_no = {mismatched, different,
    /// irrelevant}.
    pub fn designed() -> Self {
        LabelWords {
            yes: vec!["matched".into(), "similar".into(), "relevant".into()],
            no: vec!["mismatched".into(), "different".into(), "irrelevant".into()],
        }
    }

    /// The simple ablation: {matched} / {mismatched}.
    pub fn simple() -> Self {
        LabelWords {
            yes: vec!["matched".into()],
            no: vec!["mismatched".into()],
        }
    }
}

/// Resolved label words: the vocabulary ids whose mean probability is each
/// class's probability.
#[derive(Debug, Clone)]
pub struct Verbalizer {
    /// Vocabulary ids of the resolved "yes" words.
    pub yes_ids: Vec<usize>,
    /// Vocabulary ids of the resolved "no" words.
    pub no_ids: Vec<usize>,
}

impl Verbalizer {
    /// Resolve label words against a tokenizer. Words missing from the
    /// vocabulary are dropped; panics if a class loses all its words (the
    /// pretraining corpus must contain the label words).
    pub fn new(tokenizer: &Tokenizer, words: &LabelWords) -> Self {
        let resolve = |ws: &[String]| -> Vec<usize> {
            ws.iter().filter_map(|w| tokenizer.id_of(w)).collect()
        };
        let yes_ids = resolve(&words.yes);
        let no_ids = resolve(&words.no);
        assert!(
            !yes_ids.is_empty(),
            "no 'yes' label word is in the vocabulary"
        );
        assert!(
            !no_ids.is_empty(),
            "no 'no' label word is in the vocabulary"
        );
        Verbalizer { yes_ids, no_ids }
    }

    /// The nonzero rows of Eq. 1's `(V, 2)` class projection: every label
    /// id once, ascending, with `1 / ids.len()` in the column of each class
    /// that lists it (a duplicated id still counts in `ids.len()`).
    fn label_rows(&self) -> (Vec<usize>, Matrix) {
        let mut ids: Vec<usize> = self.yes_ids.iter().chain(&self.no_ids).copied().collect();
        ids.sort_unstable();
        ids.dedup();
        let classes = [&self.yes_ids, &self.no_ids];
        let weights = Matrix::from_fn(ids.len(), 2, |k, c| {
            let class = classes[c];
            if class.contains(&ids[k]) {
                1.0 / class.len() as f32
            } else {
                0.0
            }
        });
        (ids, weights)
    }

    /// Eq. 1: class probability = mean probability of the class's label
    /// words. Input `logits` is `(n, V)`; output is `(n, 2)` with column 0 =
    /// P(yes|x), column 1 = P(no|x). One [`TapeExec::cols_matmul`] over the
    /// label-word columns: the dense `(V, 2)` projection's bits, forward
    /// and backward, without its `V − |labels|` zero rows (DESIGN §18).
    pub fn class_probs(&self, tape: &mut impl TapeExec, logits: Var) -> Var {
        let probs = tape.softmax_rows(logits);
        let (ids, weights) = self.label_rows();
        tape.cols_matmul(probs, &ids, &weights)
    }

    /// The match probability `P(yes) / (P(yes) + P(no))` per row of
    /// `logits` `(n, V)`, for forward-only scoring: [`Verbalizer::class_probs`]
    /// followed by that ratio.
    pub fn match_probs(&self, tape: &mut impl TapeExec, logits: Var) -> Vec<f32> {
        let class = self.class_probs(tape, logits);
        let pm = tape.value(class);
        (0..pm.rows())
            .map(|r| {
                let (yes, no) = (pm.get(r, 0), pm.get(r, 1));
                yes / (yes + no).max(1e-12)
            })
            .collect()
    }
}

/// The P-tuning continuous prompt encoder: trainable prompt-token
/// embeddings re-parameterized through a BiLSTM + projection so prompt
/// tokens interact (§3.1, following Liu et al.). The encoder is residual —
/// `rows = table + proj(BiLSTM(table))` with a small-initialized projection
/// — so that when `table` is seeded from real word embeddings the model
/// starts at the hard template's behavior and learns deviations from there.
#[derive(Clone)]
pub struct PromptEncoder {
    /// Trainable prompt-token embeddings `(n_tokens, d_model)`.
    pub table: ParamId,
    /// BiLSTM re-parameterization across prompt tokens.
    pub lstm: BiLstm,
    /// Projection after the BiLSTM (small-initialized residual branch).
    pub proj: Linear,
    /// Number of prompt tokens.
    pub n_tokens: usize,
}

impl PromptEncoder {
    /// Build the encoder, optionally seeding the table from `init_rows`.
    pub fn new(
        store: &mut ParamStore,
        d_model: usize,
        n_tokens: usize,
        init_rows: Option<&Matrix>,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            d_model.is_multiple_of(2),
            "d_model must be even for the BiLSTM prompt encoder"
        );
        let table_init = match init_rows {
            Some(m) => {
                assert_eq!(m.shape(), (n_tokens, d_model), "prompt init shape");
                m.clone()
            }
            None => init::normal(n_tokens, d_model, 0.1, rng),
        };
        let table = store.register("prompt.table", table_init);
        let lstm = BiLstm::new(store, "prompt.lstm", d_model, d_model / 2, rng);
        let mut proj = Linear::new(store, "prompt.proj", d_model, d_model, rng);
        // Shrink the projection so the residual branch starts near zero.
        let w = store.value_mut(proj.w);
        for v in w.data_mut() {
            *v *= 0.1;
        }
        proj.in_dim = d_model;
        PromptEncoder {
            table,
            lstm,
            proj,
            n_tokens,
        }
    }

    /// Compute the `(n_tokens, d)` prompt embedding rows.
    pub fn rows(&self, tape: &mut impl TapeExec, store: &ParamStore) -> Var {
        let raw = tape.param(store, self.table);
        let h = self.lstm.forward(tape, store, raw);
        let delta = self.proj.forward(tape, store, h);
        tape.add(raw, delta)
    }
}

/// How many prompt tokens each continuous template uses.
pub fn continuous_token_count(template: TemplateId) -> usize {
    match template {
        TemplateId::T1 => 2, // replaces "they are"
        TemplateId::T2 => 4, // replaces "is … to" (2 before, 2 after [MASK])
    }
}

/// A fully-specified prompt pipeline for one (template, mode) choice.
/// Cloning copies the prompt machinery but not the parameters it points
/// at — clone the owning [`crate::PretrainedLm`]'s store alongside (the
/// [`em_nn::ParamId`]s stay valid in the cloned store).
#[derive(Clone)]
pub struct PromptTemplate {
    /// Which of the two GEM templates this is.
    pub template: TemplateId,
    /// Hard or continuous prompting.
    pub mode: PromptMode,
    /// Present iff `mode == Continuous`.
    pub encoder: Option<PromptEncoder>,
    // Hard template token ids.
    they_are: Vec<usize>,
    is_: Vec<usize>,
    to_: Vec<usize>,
}

impl PromptTemplate {
    /// Build a template with default (random or word-seeded) prompt init.
    pub fn new(
        store: &mut ParamStore,
        tokenizer: &Tokenizer,
        d_model: usize,
        template: TemplateId,
        mode: PromptMode,
        rng: &mut impl Rng,
    ) -> Self {
        Self::with_init(store, tokenizer, d_model, template, mode, None, rng)
    }

    /// Like [`PromptTemplate::new`] but seeding the continuous prompt table
    /// from given rows (typically the hard-template word embeddings — the
    /// standard P-tuning warm start).
    pub fn with_init(
        store: &mut ParamStore,
        tokenizer: &Tokenizer,
        d_model: usize,
        template: TemplateId,
        mode: PromptMode,
        init_rows: Option<&Matrix>,
        rng: &mut impl Rng,
    ) -> Self {
        let encoder = match mode {
            PromptMode::Continuous => Some(PromptEncoder::new(
                store,
                d_model,
                continuous_token_count(template),
                init_rows,
                rng,
            )),
            PromptMode::Hard => None,
        };
        PromptTemplate {
            template,
            mode,
            encoder,
            they_are: tokenizer.encode("they are"),
            is_: tokenizer.encode("is"),
            to_: tokenizer.encode("to"),
        }
    }

    /// Token ids whose embeddings should seed the continuous prompt table
    /// for this template: T1 replaces "they are", T2 replaces "is … to".
    pub fn init_word_ids(tokenizer: &Tokenizer, template: TemplateId) -> Vec<usize> {
        let take2 = |text: &str| -> Vec<usize> {
            let mut ids = tokenizer.encode(text);
            while ids.len() < 2 {
                ids.push(*ids.last().unwrap_or(&crate::tokenizer::UNK));
            }
            ids.truncate(2);
            ids
        };
        match template {
            TemplateId::T1 => take2("they are"),
            TemplateId::T2 => {
                let is_ = take2("is is");
                let to_ = take2("to to");
                is_.into_iter().chain(to_).collect()
            }
        }
    }

    /// Number of non-entity tokens the template adds (specials + prompt).
    fn overhead(&self) -> usize {
        match (self.template, self.mode) {
            (TemplateId::T1, PromptMode::Hard) => 3 + self.they_are.len() + 1,
            (TemplateId::T1, PromptMode::Continuous) => 3 + 2 + 1,
            (TemplateId::T2, PromptMode::Hard) => 2 + self.is_.len() + self.to_.len() + 1,
            (TemplateId::T2, PromptMode::Continuous) => 2 + 4 + 1,
        }
    }

    /// Precompute the prompt-encoder output rows as a plain matrix. The
    /// BiLSTM/projection stack is RNG-free and depends only on the store,
    /// so its output is identical on every forward until the next optimizer
    /// step — scoring loops compute it once and splice the cached copy via
    /// [`PromptTemplate::forward_mask_row`] instead of re-running the
    /// stack per pair (it dominates matmul call counts otherwise).
    /// `None` for hard templates.
    pub fn prompt_rows_matrix(&self, store: &ParamStore) -> Option<Matrix> {
        self.encoder.as_ref().map(|pe| {
            let mut tape = NoGradTape::inference();
            let rows = pe.rows(&mut tape, store);
            tape.value(rows).clone()
        })
    }

    /// The exact sequence length [`PromptTemplate::embed_template`] lays out
    /// for entity serializations of `la` and `lb` tokens under the
    /// encoder's `max_len`: the clipped entity budget plus the template
    /// overhead. Combined with [`Encoder::dropout_draws`] this lets the
    /// sharded scorer compute per-pair RNG consumption without running a
    /// forward.
    pub fn seq_len(&self, max_len: usize, la: usize, lb: usize) -> usize {
        let budget = max_len.saturating_sub(self.overhead());
        let (ka, kb) = split_budget(la, lb, budget);
        ka + kb + self.overhead()
    }

    /// Encode a serialized pair through the template and run the LM
    /// encoder, returning the `(1, d_model)` final hidden state of the
    /// `[MASK]` position: the only row that the verbalizer (Eq. 1), scoring
    /// and `embed` read. The last encoder layer computes just that row
    /// ([`Encoder::forward_embedded`] over `m..m + 1`), bit-identical to
    /// the full forward's mask row, RNG stream included. With `cached_rows`
    /// (from [`PromptTemplate::prompt_rows_matrix`]) the prompt encoder is
    /// not run, which is bit-exact: its stack consumes no RNG and the
    /// cached values are its exact outputs. Training paths must pass
    /// `None` so gradients reach the prompt table.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_mask_row(
        &self,
        tape: &mut impl TapeExec,
        store: &ParamStore,
        lm: &Encoder,
        ids_a: &[usize],
        ids_b: &[usize],
        cached_rows: Option<&Matrix>,
        rng: &mut impl Rng,
    ) -> Var {
        let (x, seq, m) = self.embed_template(tape, store, lm, ids_a, ids_b, cached_rows, rng);
        lm.forward_embedded(tape, store, x, seq, m..m + 1, rng)
    }

    /// The front half of [`PromptTemplate::forward_mask_row`]: lay out
    /// the segments, splice prompt rows (`cached_rows` as there), and build
    /// the embedded input. Returns the embedded rows, the sequence length
    /// (every position is valid), and the `[MASK]` row index.
    #[allow(clippy::too_many_arguments)]
    pub fn embed_template(
        &self,
        tape: &mut impl TapeExec,
        store: &ParamStore,
        lm: &Encoder,
        ids_a: &[usize],
        ids_b: &[usize],
        cached_rows: Option<&Matrix>,
        rng: &mut impl Rng,
    ) -> (Var, usize, usize) {
        let budget = lm.cfg.max_len.saturating_sub(self.overhead());
        let (ka, kb) = split_budget(ids_a.len(), ids_b.len(), budget);
        let a = &ids_a[..ka];
        let b = &ids_b[..kb];

        // Lay out the sequence as segments; prompt segments are indices into
        // the prompt-encoder rows.
        enum Seg<'s> {
            Toks(Vec<usize>),
            Ref(&'s [usize]),
            Prompt(usize, usize), // (start, len) into prompt rows
            Mask,
        }
        let segs: Vec<Seg> = match (self.template, self.mode) {
            (TemplateId::T1, PromptMode::Hard) => vec![
                Seg::Toks(vec![CLS]),
                Seg::Ref(a),
                Seg::Toks(vec![SEP]),
                Seg::Ref(b),
                Seg::Toks(vec![SEP]),
                Seg::Toks(self.they_are.clone()),
                Seg::Mask,
            ],
            (TemplateId::T1, PromptMode::Continuous) => vec![
                Seg::Toks(vec![CLS]),
                Seg::Ref(a),
                Seg::Toks(vec![SEP]),
                Seg::Ref(b),
                Seg::Toks(vec![SEP]),
                Seg::Prompt(0, 2),
                Seg::Mask,
            ],
            (TemplateId::T2, PromptMode::Hard) => vec![
                Seg::Toks(vec![CLS]),
                Seg::Ref(a),
                Seg::Toks(self.is_.clone()),
                Seg::Mask,
                Seg::Toks(self.to_.clone()),
                Seg::Ref(b),
                Seg::Toks(vec![SEP]),
            ],
            (TemplateId::T2, PromptMode::Continuous) => vec![
                Seg::Toks(vec![CLS]),
                Seg::Ref(a),
                Seg::Prompt(0, 2),
                Seg::Mask,
                Seg::Prompt(2, 2),
                Seg::Ref(b),
                Seg::Toks(vec![SEP]),
            ],
        };

        // Flatten segments into embedding rows.
        let prompt_rows = match cached_rows {
            Some(m) => Some(tape.constant(m.clone())),
            None => self.encoder.as_ref().map(|pe| pe.rows(tape, store)),
        };
        let mut parts: Vec<Var> = Vec::new();
        let mut pos = 0usize;
        let mut mask_row = 0usize;
        for seg in &segs {
            match seg {
                Seg::Toks(ids) => {
                    if ids.is_empty() {
                        continue;
                    }
                    parts.push(lm.tok_emb.forward(tape, store, ids));
                    pos += ids.len();
                }
                Seg::Ref(ids) => {
                    if ids.is_empty() {
                        continue;
                    }
                    parts.push(lm.tok_emb.forward(tape, store, ids));
                    pos += ids.len();
                }
                Seg::Prompt(start, len) => {
                    // lint:allow(unwrap) — Continuous mode always builds the encoder
                    let rows = prompt_rows.expect("continuous template without prompt encoder");
                    parts.push(tape.slice_rows(rows, *start, *len));
                    pos += len;
                }
                Seg::Mask => {
                    parts.push(lm.tok_emb.forward(tape, store, &[MASK]));
                    mask_row = pos;
                    pos += 1;
                }
            }
        }
        let tok = tape.concat_rows(&parts);
        let positions: Vec<usize> = (0..pos.min(lm.cfg.max_len)).collect();
        debug_assert_eq!(positions.len(), pos, "template overflowed max_len");
        let pos_emb = lm.pos_emb.forward(tape, store, &positions);
        let x = tape.add(tok, pos_emb);
        let x = lm.emb_ln.forward(tape, store, x);
        let x = tape.dropout(x, lm.cfg.dropout, rng);
        (x, pos, mask_row)
    }
}

/// Split a token budget proportionally between the two entity
/// serializations: `(ka, kb)` tokens of sides of lengths `la` and `lb`,
/// both whole when they fit, else `ka + kb == budget`.
pub fn split_budget(la: usize, lb: usize, budget: usize) -> (usize, usize) {
    if la + lb <= budget {
        return (la, lb);
    }
    let ka = (budget * la) / (la + lb).max(1);
    let ka = ka.min(la);
    let kb = (budget - ka).min(lb);
    let ka = (budget - kb).min(la);
    (ka, kb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LmConfig;
    use em_nn::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ParamStore, Encoder, Tokenizer, StdRng) {
        let corpus = [
            "[COL] name [VAL] blue cafe they are matched similar relevant",
            "[COL] name [VAL] red diner is mismatched different irrelevant to this",
        ];
        let tokenizer = Tokenizer::fit(corpus, 1);
        let mut rng = StdRng::seed_from_u64(70);
        let mut store = ParamStore::new();
        let cfg = LmConfig {
            vocab: tokenizer.vocab_size(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_len: 32,
            dropout: 0.0,
        };
        let enc = Encoder::new(&mut store, cfg, &mut rng);
        (store, enc, tokenizer, rng)
    }

    /// The full template forward from the public pieces: every final
    /// hidden row, and the `[MASK]` row index.
    fn full_forward(
        tmpl: &PromptTemplate,
        tape: &mut impl TapeExec,
        store: &ParamStore,
        enc: &Encoder,
        (a, b): (&[usize], &[usize]),
        rng: &mut impl Rng,
    ) -> (Var, usize) {
        let (x, seq, mask_row) = tmpl.embed_template(tape, store, enc, a, b, None, rng);
        let h = enc.forward_embedded(tape, store, x, seq, 0..seq, rng);
        (h, mask_row)
    }

    #[test]
    fn label_word_sets_match_paper() {
        let d = LabelWords::designed();
        assert_eq!(d.yes, ["matched", "similar", "relevant"]);
        assert_eq!(d.no, ["mismatched", "different", "irrelevant"]);
        let s = LabelWords::simple();
        assert_eq!(s.yes.len(), 1);
    }

    #[test]
    fn verbalizer_probs_form_sub_distribution() {
        let (mut store, enc, tok, mut rng) = setup();
        let verb = Verbalizer::new(&tok, &LabelWords::designed());
        let tmpl = PromptTemplate::new(
            &mut store,
            &tok,
            enc.cfg.d_model,
            TemplateId::T1,
            PromptMode::Hard,
            &mut rng,
        );
        let a = tok.encode("blue cafe");
        let b = tok.encode("red diner");
        let mut tape = Tape::inference();
        let hm = tmpl.forward_mask_row(&mut tape, &store, &enc, &a, &b, None, &mut rng);
        let head = crate::heads::MlmHead::new(&mut store, &enc, &mut rng);
        let logits = head.logits(&mut tape, &store, &enc, hm);
        let probs = verb.class_probs(&mut tape, logits);
        let pm = tape.value(probs);
        assert_eq!(pm.shape(), (1, 2));
        assert!(pm.get(0, 0) > 0.0 && pm.get(0, 1) > 0.0);
        assert!(pm.get(0, 0) + pm.get(0, 1) <= 1.0 + 1e-5);
    }

    #[test]
    fn gather_verbalizer_is_bit_exact_with_class_probs() {
        let (_, _, tok, mut rng) = setup();
        let words = |yes: &[&str], no: &[&str]| LabelWords {
            yes: yes.iter().map(|w| w.to_string()).collect(),
            no: no.iter().map(|w| w.to_string()).collect(),
        };
        let verbalizers = [
            LabelWords::designed(),
            LabelWords::simple(),
            // A duplicated id, and a word listed under both classes.
            words(
                &["relevant", "matched", "matched"],
                &["similar", "different"],
            ),
            words(
                &["similar", "matched"],
                &["irrelevant", "similar", "similar"],
            ),
        ];
        let vocab = tok.vocab_size();
        // Wide logits so some rows underflow label-word probabilities to
        // exactly zero: the `+0.0` terms the equality argument rests on.
        let logits = Matrix::from_fn(24, vocab, |r, _| {
            let spread = if r % 3 == 0 { 120.0 } else { 8.0 };
            rng.gen_range(-spread..spread)
        });
        let targets: Vec<usize> = (0..logits.rows()).map(|r| r % 2).collect();
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for label_words in &verbalizers {
            let verb = Verbalizer::new(&tok, label_words);
            // The oracle: Eq. 1 as the dense `(V, 2)` projection, each id
            // set once to `1 / ids.len()` in its class's column.
            let mut dense = Matrix::zeros(vocab, 2);
            for (c, ids) in [&verb.yes_ids, &verb.no_ids].into_iter().enumerate() {
                for &w in ids {
                    dense.set(w, c, 1.0 / ids.len() as f32);
                }
            }
            let run = |head: &dyn Fn(&mut Tape, Var) -> Var| {
                let mut tape = Tape::new();
                let x = tape.constant(logits.clone());
                let class = head(&mut tape, x);
                let loss = tape.nll_probs(class, &targets);
                tape.backward(loss);
                (tape.value(class).clone(), tape.grad(x))
            };
            let (want, want_grad) = run(&|t, x| {
                let probs = t.softmax_rows(x);
                let m = t.constant(dense.clone());
                t.matmul(probs, m)
            });
            let (got, got_grad) = run(&|t, x| verb.class_probs(t, x));
            assert_eq!(bits(&got), bits(&want), "class probs, {label_words:?}");
            assert_eq!(
                bits(&got_grad),
                bits(&want_grad),
                "logit grads, {label_words:?}"
            );

            let ratio: Vec<u32> = (0..want.rows())
                .map(|r| {
                    let (yes, no) = (want.get(r, 0), want.get(r, 1));
                    (yes / (yes + no).max(1e-12)).to_bits()
                })
                .collect();
            let mut free = NoGradTape::inference();
            let x = free.constant(logits.clone());
            let got: Vec<u32> = verb
                .match_probs(&mut free, x)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(got, ratio, "match probs, {label_words:?}");
        }
    }

    #[test]
    fn all_template_mode_combinations_run() {
        let (mut store, enc, tok, mut rng) = setup();
        let a = tok.encode("blue cafe name");
        let b = tok.encode("red diner");
        for template in [TemplateId::T1, TemplateId::T2] {
            for mode in [PromptMode::Hard, PromptMode::Continuous] {
                let tmpl = PromptTemplate::new(
                    &mut store,
                    &tok,
                    enc.cfg.d_model,
                    template,
                    mode,
                    &mut rng,
                );
                let mut tape = Tape::inference();
                let (h, mask_row) =
                    full_forward(&tmpl, &mut tape, &store, &enc, (&a, &b), &mut rng);
                let hm = tape.value(h);
                assert!(
                    mask_row < hm.rows(),
                    "{template:?}/{mode:?}: mask row out of range"
                );
                assert_eq!(hm.cols(), 16);
            }
        }
    }

    #[test]
    fn mask_position_is_where_the_template_says() {
        let (mut store, enc, tok, mut rng) = setup();
        let tmpl = PromptTemplate::new(
            &mut store,
            &tok,
            enc.cfg.d_model,
            TemplateId::T1,
            PromptMode::Continuous,
            &mut rng,
        );
        let a = tok.encode("blue cafe");
        let b = tok.encode("red diner");
        let mut tape = Tape::inference();
        let (h, mask_row) = full_forward(&tmpl, &mut tape, &store, &enc, (&a, &b), &mut rng);
        // T1 continuous: CLS + a + SEP + b + SEP + 2 prompt + MASK (last row)
        assert_eq!(mask_row, tape.value(h).rows() - 1);
    }

    #[test]
    fn long_entities_are_clipped_to_max_len() {
        let (mut store, enc, tok, mut rng) = setup();
        let tmpl = PromptTemplate::new(
            &mut store,
            &tok,
            enc.cfg.d_model,
            TemplateId::T2,
            PromptMode::Continuous,
            &mut rng,
        );
        let long: Vec<usize> = tok.encode("blue cafe name red diner").repeat(20);
        let mut tape = Tape::inference();
        let (h, mask_row) = full_forward(&tmpl, &mut tape, &store, &enc, (&long, &long), &mut rng);
        assert!(tape.value(h).rows() <= enc.cfg.max_len);
        assert!(mask_row < tape.value(h).rows());
    }

    #[test]
    fn mask_row_forward_matches_the_sliced_full_forward_bitwise() {
        // Dropout on, train-mode tapes: the row path must reproduce the
        // full forward's mask row AND its RNG exit state for every
        // template/mode combination (the mask sits at a different row in
        // each), or scoring decisions would drift from the historical path.
        let (_, _, tok, _) = setup();
        let mut rng = StdRng::seed_from_u64(71);
        let mut store = ParamStore::new();
        let cfg = LmConfig {
            vocab: tok.vocab_size(),
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            d_ff: 32,
            max_len: 32,
            dropout: 0.1,
        };
        let enc = Encoder::new(&mut store, cfg, &mut rng);
        let a = tok.encode("blue cafe");
        let b = tok.encode("red diner");
        for template in [TemplateId::T1, TemplateId::T2] {
            for mode in [PromptMode::Hard, PromptMode::Continuous] {
                let tmpl = PromptTemplate::new(
                    &mut store,
                    &tok,
                    enc.cfg.d_model,
                    template,
                    mode,
                    &mut rng,
                );
                let fresh = || StdRng::seed_from_u64(72);
                let (mut ra, mut rb) = (fresh(), fresh());
                let mut ta = Tape::new();
                let (h, mask_row) = full_forward(&tmpl, &mut ta, &store, &enc, (&a, &b), &mut ra);
                let hr = ta.slice_rows(h, mask_row, 1);
                let mut tb = Tape::new();
                let hb = tmpl.forward_mask_row(&mut tb, &store, &enc, &a, &b, None, &mut rb);
                assert_eq!(
                    ta.value(hr).data(),
                    tb.value(hb).data(),
                    "{template:?}/{mode:?}: mask-row values diverged"
                );
                assert_eq!(
                    ra.state(),
                    rb.state(),
                    "{template:?}/{mode:?}: RNG streams diverged"
                );
            }
        }
    }

    #[test]
    fn continuous_prompts_receive_gradient() {
        let (mut store, enc, tok, mut rng) = setup();
        let verb = Verbalizer::new(&tok, &LabelWords::designed());
        let tmpl = PromptTemplate::new(
            &mut store,
            &tok,
            enc.cfg.d_model,
            TemplateId::T1,
            PromptMode::Continuous,
            &mut rng,
        );
        let head = crate::heads::MlmHead::new(&mut store, &enc, &mut rng);
        let a = tok.encode("blue cafe");
        let b = tok.encode("red diner");
        let mut tape = Tape::new();
        let hm = tmpl.forward_mask_row(&mut tape, &store, &enc, &a, &b, None, &mut rng);
        let logits = head.logits(&mut tape, &store, &enc, hm);
        let probs = verb.class_probs(&mut tape, logits);
        let loss = tape.nll_probs(probs, &[0]);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        let pe = tmpl.encoder.as_ref().unwrap();
        assert!(
            store.grad(pe.table).frobenius_norm() > 0.0,
            "prompt table got no gradient"
        );
    }

    /// Counts `next_u64` calls made through the template forward.
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
    fn seq_len_and_dropout_draws_pin_template_forwards() {
        let corpus = [
            "[COL] name [VAL] blue cafe they are matched similar relevant",
            "[COL] name [VAL] red diner is mismatched different irrelevant to this",
        ];
        let tokenizer = Tokenizer::fit(corpus, 1);
        let mut rng = StdRng::seed_from_u64(71);
        let mut store = ParamStore::new();
        let cfg = LmConfig {
            vocab: tokenizer.vocab_size(),
            d_model: 16,
            n_layers: 1,
            n_heads: 2,
            d_ff: 32,
            max_len: 32,
            dropout: 0.1,
        };
        let enc = Encoder::new(&mut store, cfg, &mut rng);
        let short = tokenizer.encode("blue cafe");
        let long: Vec<usize> = tokenizer.encode("blue cafe name red diner").repeat(20);
        for template in [TemplateId::T1, TemplateId::T2] {
            for mode in [PromptMode::Hard, PromptMode::Continuous] {
                let tmpl = PromptTemplate::new(
                    &mut store,
                    &tokenizer,
                    enc.cfg.d_model,
                    template,
                    mode,
                    &mut rng,
                );
                for (a, b) in [(&short, &short), (&long, &short), (&long, &long)] {
                    let predicted = tmpl.seq_len(enc.cfg.max_len, a.len(), b.len());
                    let mut counter = CountingRng {
                        inner: &mut rng,
                        draws: 0,
                    };
                    let mut tape = Tape::new();
                    let (h, _) = full_forward(&tmpl, &mut tape, &store, &enc, (a, b), &mut counter);
                    assert_eq!(
                        tape.value(h).rows(),
                        predicted,
                        "{template:?}/{mode:?} la={} lb={}",
                        a.len(),
                        b.len()
                    );
                    assert_eq!(
                        counter.draws,
                        enc.dropout_draws(predicted as u64),
                        "{template:?}/{mode:?}: the prompt stack must stay RNG-free"
                    );
                }
            }
        }
    }

    #[test]
    fn split_budget_properties() {
        for (la, lb, budget) in [(50, 50, 20), (100, 5, 20), (5, 100, 20), (3, 3, 20)] {
            let (ka, kb) = split_budget(la, lb, budget);
            assert!(ka <= la && kb <= lb);
            if la + lb > budget {
                assert_eq!(ka + kb, budget);
            } else {
                assert_eq!((ka, kb), (la, lb));
            }
        }
    }
}
