//! The PromptEM model: GEM cast as a cloze-style task (paper §3). A clone
//! of the pretrained backbone is tuned end-to-end together with the
//! continuous prompt embeddings; classification happens by scoring the
//! label words at the `[MASK]` position through the *pretrained* MLM head
//! (Eq. 1) — no freshly-initialized task head anywhere.

use crate::encode::{EncodedPair, Example};
use crate::trainer::{run_training, PruneCfg, TapeModel, TrainCfg, TrainReport, TunableMatcher};
use em_lm::heads::MlmHead;
use em_lm::prompt::{LabelWords, PromptMode, PromptTemplate, TemplateId, Verbalizer};
use em_lm::PretrainedLm;
use em_nn::{Matrix, NoGradTape, ParamStore, Tape, TapeExec, Var};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

/// Scoring batch size: small enough to keep per-tape memory bounded, large
/// enough to amortize the MLM head matmul. Also the sharding granularity of
/// the parallel scorer, so it is part of the determinism contract: chunk
/// boundaries decide where worker RNG streams are split.
const SCORE_CHUNK: usize = 32;

/// One scoring call's shared state: the model parts it reads, plus two
/// per-call precomputations that every chunk (and every pool worker)
/// reuses — the prompt encoder's output rows and the transposed tied
/// decoder. Both are exact copies of what a per-chunk forward computes,
/// so scoring against them is bit-identical.
struct Scorer<'m> {
    lm: &'m PretrainedLm,
    template: &'m PromptTemplate,
    verbalizer: &'m Verbalizer,
    prompt_rows: Option<Matrix>,
    decoder_t: Matrix,
}

impl<'m> Scorer<'m> {
    fn new(lm: &'m PretrainedLm, template: &'m PromptTemplate, verbalizer: &'m Verbalizer) -> Self {
        Scorer {
            lm,
            template,
            verbalizer,
            prompt_rows: template.prompt_rows_matrix(&lm.store),
            decoder_t: MlmHead::decoder_t(&lm.store, &lm.encoder),
        }
    }

    /// Match probabilities for a batch of pairs on any executor — the
    /// recording [`Tape`] or the tape-free [`NoGradTape`]. Takes `&self`
    /// so scoring workers run it concurrently, each with its own tape and
    /// RNG stream. Only the `[MASK]` hidden state feeds the MLM head, so
    /// the forward takes the single-row last-layer path
    /// (`forward_mask_row`) — bit-exact with slicing the full forward,
    /// including its RNG draw count. The head ends in
    /// [`Verbalizer::match_probs`].
    fn probs(
        &self,
        tape: &mut impl TapeExec,
        pairs: &[&EncodedPair],
        rng: &mut impl Rng,
    ) -> Vec<f32> {
        let mut rows = Vec::with_capacity(pairs.len());
        for p in pairs {
            rows.push(self.template.forward_mask_row(
                tape,
                &self.lm.store,
                &self.lm.encoder,
                &p.ids_a,
                &p.ids_b,
                self.prompt_rows.as_ref(),
                rng,
            ));
        }
        let stacked = tape.concat_rows(&rows);
        let logits =
            self.lm
                .mlm
                .logits_with_decoder(tape, &self.lm.store, stacked, &self.decoder_t);
        self.verbalizer.match_probs(tape, logits)
    }
}

/// [`Scorer::probs`] with optional cached prompt rows and the decoder
/// transposed on the spot: the taped and tape-free runs of one chunk.
#[cfg(test)]
fn forward_probs_on(
    tape: &mut impl TapeExec,
    lm: &PretrainedLm,
    template: &PromptTemplate,
    verbalizer: &Verbalizer,
    cached_rows: Option<&Matrix>,
    pairs: &[&EncodedPair],
    rng: &mut impl Rng,
) -> Vec<f32> {
    let scorer = Scorer {
        lm,
        template,
        verbalizer,
        prompt_rows: cached_rows.cloned(),
        decoder_t: MlmHead::decoder_t(&lm.store, &lm.encoder),
    };
    scorer.probs(tape, pairs, rng)
}

/// Prompt-side options (template/mode/label words — the knobs of §5.5).
#[derive(Debug, Clone)]
pub struct PromptOpts {
    /// Which GEM template to use.
    pub template: TemplateId,
    /// Hard or continuous prompts.
    pub mode: PromptMode,
    /// The verbalizer's label words.
    pub label_words: LabelWords,
}

impl Default for PromptOpts {
    fn default() -> Self {
        // §5.5/Appendix B: continuous T2 performs best overall.
        PromptOpts {
            template: TemplateId::T2,
            mode: PromptMode::Continuous,
            label_words: LabelWords::designed(),
        }
    }
}

/// A prompt-tuned GEM matcher. Cloning snapshots the whole model (working
/// weights, prompt machinery, threshold, RNG) — the serve supervisor uses
/// this to hand each replacement worker an identical-deciding copy.
#[derive(Clone)]
pub struct PromptEmModel {
    backbone: Arc<PretrainedLm>,
    /// The working copy of the backbone (prompt-tuned in place).
    pub lm: PretrainedLm,
    /// The instantiated prompt template.
    pub template: PromptTemplate,
    /// The resolved label words.
    pub verbalizer: Verbalizer,
    opts: PromptOpts,
    threshold: f32,
    rng: StdRng,
}

impl PromptEmModel {
    /// Clone the backbone and instantiate the prompt machinery on it.
    pub fn new(backbone: Arc<PretrainedLm>, opts: PromptOpts, seed: u64) -> Self {
        let mut lm = (*backbone).clone();
        let mut rng = StdRng::seed_from_u64(seed);
        // Warm-start continuous prompts from the hard template's word
        // embeddings so tuning begins at the pretrained cloze behavior.
        let init_rows = match opts.mode {
            PromptMode::Continuous => {
                let ids = PromptTemplate::init_word_ids(&lm.tokenizer, opts.template);
                Some(lm.store.value(lm.encoder.tok_emb.table).gather_rows(&ids))
            }
            PromptMode::Hard => None,
        };
        let template = PromptTemplate::with_init(
            &mut lm.store,
            &lm.tokenizer,
            lm.encoder.cfg.d_model,
            opts.template,
            opts.mode,
            init_rows.as_ref(),
            &mut rng,
        );
        let verbalizer = Verbalizer::new(&lm.tokenizer, &opts.label_words);
        PromptEmModel {
            backbone,
            lm,
            template,
            verbalizer,
            opts,
            threshold: 0.5,
            rng,
        }
    }

    /// Class targets: 0 = match ("yes" words), 1 = mismatch ("no" words).
    fn target(label: bool) -> usize {
        if label {
            0
        } else {
            1
        }
    }

    /// RNG values one train-mode scoring pass over `chunk` consumes — the
    /// analytic mirror of what [`Scorer::probs`] draws (dropout masks
    /// only; the prompt stack and MLM head are RNG-free). Lets the parallel
    /// scorer fast-forward worker streams instead of replaying forwards.
    fn chunk_draws(&self, chunk: &[EncodedPair]) -> u64 {
        chunk
            .iter()
            .map(|p| {
                let seq = self.template.seq_len(
                    self.lm.encoder.cfg.max_len,
                    p.ids_a.len(),
                    p.ids_b.len(),
                );
                self.lm.encoder.dropout_draws(seq as u64)
            })
            .sum()
    }
}

impl TapeModel for PromptEmModel {
    fn params(&mut self) -> &mut ParamStore {
        &mut self.lm.store
    }

    fn loss(&mut self, tape: &mut Tape, batch: &[&Example]) -> Var {
        let mut rows = Vec::with_capacity(batch.len());
        let mut targets = Vec::with_capacity(batch.len());
        // One tape segment per example, so the backward runs them on the
        // pool (`Tape::segment`). The loss reads only the `[MASK]` row, so
        // the last layer computes only that row: the gradients and the RNG
        // stream of the full forward, bit for bit (DESIGN §18).
        for ex in batch {
            rows.push(tape.segment(|tape| {
                self.template.forward_mask_row(
                    tape,
                    &self.lm.store,
                    &self.lm.encoder,
                    &ex.pair.ids_a,
                    &ex.pair.ids_b,
                    None,
                    &mut self.rng,
                )
            }));
            targets.push(Self::target(ex.label));
        }
        let stacked = tape.concat_rows(&rows);
        let logits = self
            .lm
            .mlm
            .logits(tape, &self.lm.store, &self.lm.encoder, stacked);
        let probs = self.verbalizer.class_probs(tape, logits);
        tape.nll_probs(probs, &targets)
    }
}

impl TunableMatcher for PromptEmModel {
    fn fresh(&self, seed: u64) -> Self {
        PromptEmModel::new(self.backbone.clone(), self.opts.clone(), seed)
    }

    fn train(
        &mut self,
        train: &[Example],
        valid: &[Example],
        cfg: &TrainCfg,
        prune: Option<&PruneCfg>,
    ) -> TrainReport {
        run_training(self, train, valid, cfg, prune)
    }

    fn predict_proba(&mut self, pairs: &[EncodedPair]) -> Vec<f32> {
        // Inference draws nothing from the RNG (dropout is off), so chunks
        // are fully independent: shard them across the pool with throwaway
        // per-worker RNGs. Values are bit-identical to a sequential run —
        // every row-wise kernel computes each output row independently, so
        // neither chunking nor worker assignment changes a bit.
        let scorer = Scorer::new(&self.lm, &self.template, &self.verbalizer);
        let chunks: Vec<&[EncodedPair]> = pairs.chunks(SCORE_CHUNK).collect();
        em_pool::run_sharded(em_pool::threads(), chunks.len(), |i| {
            let refs: Vec<&EncodedPair> = chunks[i].iter().collect();
            let mut tape = NoGradTape::inference();
            let mut rng = StdRng::seed_from_u64(0);
            scorer.probs(&mut tape, &refs, &mut rng)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    fn stochastic_proba(&mut self, pairs: &[EncodedPair], passes: usize) -> Vec<Vec<f32>> {
        // One logical RNG stream regardless of thread count: with a single
        // worker the model's own RNG is used directly (byte-for-byte the
        // historical sequential behavior); with several, the main thread
        // computes each chunk's start state by fast-forwarding a clone with
        // the analytic draw counts, workers resume from those states, and
        // every worker's end state is checked against the next boundary —
        // any drift between formula and kernels aborts instead of silently
        // changing pseudo-label decisions. Sharding lives *inside* each
        // pass so the per-pass spans emitted by run_passes stay honest.
        let scorer = Scorer::new(&self.lm, &self.template, &self.verbalizer);
        let chunks: Vec<&[EncodedPair]> = pairs.chunks(SCORE_CHUNK).collect();
        let threads = em_pool::threads();
        let boundaries: Vec<u64> = if threads > 1 {
            chunks.iter().map(|c| self.chunk_draws(c)).collect()
        } else {
            Vec::new()
        };
        let rng = &mut self.rng;
        em_lm::mc_dropout::run_passes(passes, |_| {
            if threads <= 1 || chunks.len() <= 1 {
                let mut out = Vec::with_capacity(pairs.len());
                for chunk in &chunks {
                    let refs: Vec<&EncodedPair> = chunk.iter().collect();
                    let mut tape = NoGradTape::new(); // dropout active
                    out.extend(scorer.probs(&mut tape, &refs, rng));
                }
                return out;
            }
            let mut walker = rng.clone();
            let mut states = Vec::with_capacity(chunks.len() + 1);
            for &draws in &boundaries {
                states.push(walker.state());
                for _ in 0..draws {
                    walker.next_u64();
                }
            }
            states.push(walker.state());
            let states = &states;
            let results = em_pool::run_sharded(threads, chunks.len(), |i| {
                let refs: Vec<&EncodedPair> = chunks[i].iter().collect();
                let mut wrng = StdRng::from_state(states[i]);
                let mut tape = NoGradTape::new();
                let probs = scorer.probs(&mut tape, &refs, &mut wrng);
                (probs, wrng.state())
            });
            let mut out = Vec::with_capacity(pairs.len());
            for (i, (probs, end_state)) in results.into_iter().enumerate() {
                assert_eq!(
                    end_state,
                    states[i + 1],
                    "chunk {i}: worker RNG drifted from the analytic draw count"
                );
                out.extend(probs);
            }
            *rng = StdRng::from_state(states[chunks.len()]);
            out
        })
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }

    fn set_threshold(&mut self, t: f32) {
        self.threshold = t;
    }

    fn embed(&mut self, pairs: &[EncodedPair]) -> Vec<Vec<f32>> {
        let cached_rows = self.template.prompt_rows_matrix(&self.lm.store);
        let cached = cached_rows.as_ref();
        let mut out = Vec::with_capacity(pairs.len());
        for p in pairs {
            let mut tape = NoGradTape::inference();
            let h = self.template.forward_mask_row(
                &mut tape,
                &self.lm.store,
                &self.lm.encoder,
                &p.ids_a,
                &p.ids_b,
                cached,
                &mut self.rng,
            );
            out.push(tape.value(h).row(0).to_vec());
        }
        out
    }

    fn export_state(&self) -> Option<crate::resume::MatcherState> {
        let mut params = Vec::new();
        em_nn::io::write_params(&self.lm.store, &mut params).ok()?;
        Some(crate::resume::MatcherState {
            params,
            threshold: self.threshold,
            rng: self.rng.state(),
        })
    }

    fn import_state(&mut self, state: &crate::resume::MatcherState) -> bool {
        if em_nn::io::read_params(&mut self.lm.store, &mut &state.params[..]).is_err() {
            return false;
        }
        self.threshold = state.threshold;
        self.rng = StdRng::from_state(state.rng);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{tiny_backbone, toy_examples};
    use crate::trainer::train_step;
    use em_nn::AdamW;

    #[test]
    fn model_learns_toy_task() {
        let backbone = tiny_backbone();
        let (train, valid) = toy_examples(&backbone, 40, 1);
        let mut model = PromptEmModel::new(backbone, PromptOpts::default(), 3);
        let cfg = TrainCfg {
            epochs: 8,
            ..Default::default()
        };
        let report = model.train(&train, &valid, &cfg, None);
        assert!(report.epochs_run == 8);
        let f1 = crate::trainer::evaluate(&mut model, &valid).f1;
        assert!(f1 > 60.0, "prompt model failed to learn: F1 {f1}");
    }

    #[test]
    fn probabilities_are_valid() {
        let backbone = tiny_backbone();
        let (train, _) = toy_examples(&backbone, 10, 2);
        let mut model = PromptEmModel::new(backbone, PromptOpts::default(), 4);
        let pairs: Vec<EncodedPair> = train.iter().map(|e| e.pair.clone()).collect();
        for p in model.predict_proba(&pairs) {
            assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        }
    }

    #[test]
    fn stochastic_passes_vary_deterministic_do_not() {
        let backbone = tiny_backbone();
        let (train, _) = toy_examples(&backbone, 6, 3);
        let mut model = PromptEmModel::new(backbone, PromptOpts::default(), 5);
        let pairs: Vec<EncodedPair> = train.iter().map(|e| e.pair.clone()).collect();
        let a = model.predict_proba(&pairs);
        let b = model.predict_proba(&pairs);
        assert_eq!(a, b, "inference must be deterministic");
        let passes = model.stochastic_proba(&pairs, 4);
        let any_diff = passes.iter().any(|p| p != &passes[0]);
        assert!(any_diff, "MC-dropout passes identical — dropout inactive?");
    }

    #[test]
    fn fresh_resets_to_backbone() {
        let backbone = tiny_backbone();
        let (train, valid) = toy_examples(&backbone, 20, 6);
        let mut model = PromptEmModel::new(backbone, PromptOpts::default(), 6);
        let cfg = TrainCfg {
            epochs: 2,
            ..Default::default()
        };
        model.train(&train, &valid, &cfg, None);
        let pairs: Vec<EncodedPair> = valid.iter().map(|e| e.pair.clone()).collect();
        let tuned = model.predict_proba(&pairs);
        let mut fresh = model.fresh(999);
        let reset = fresh.predict_proba(&pairs);
        assert_ne!(tuned, reset, "fresh() did not reset the weights");
    }

    #[test]
    fn tape_free_scoring_is_bit_exact_with_the_recording_tape() {
        let backbone = tiny_backbone();
        let (train, _) = toy_examples(&backbone, 8, 11);
        let model = PromptEmModel::new(backbone, PromptOpts::default(), 7);
        let pairs: Vec<&EncodedPair> = train.iter().map(|e| &e.pair).collect();
        let rows = model.template.prompt_rows_matrix(&model.lm.store);
        // Train-mode tapes with twin RNG streams: the recording tape runs
        // the prompt stack per pair, the tape-free one splices the cached
        // rows — same values, same draws, zero nodes recorded.
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = rng_a.clone();
        let mut taped = Tape::new();
        let a = forward_probs_on(
            &mut taped,
            &model.lm,
            &model.template,
            &model.verbalizer,
            None,
            &pairs,
            &mut rng_a,
        );
        let nodes_before = em_nn::tape::nodes_recorded_on_thread();
        let mut free = NoGradTape::new();
        let b = forward_probs_on(
            &mut free,
            &model.lm,
            &model.template,
            &model.verbalizer,
            rows.as_ref(),
            &pairs,
            &mut rng_b,
        );
        assert_eq!(
            em_nn::tape::nodes_recorded_on_thread(),
            nodes_before,
            "tape-free scoring recorded tape nodes"
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "probs diverged: {x} vs {y}");
        }
        assert_eq!(rng_a.state(), rng_b.state(), "RNG streams diverged");
    }

    #[test]
    fn cached_decoder_scoring_matches_the_per_chunk_head() {
        let backbone = tiny_backbone();
        let (train, _) = toy_examples(&backbone, 120, 12); // 90 pairs: 3 chunks
        let model = PromptEmModel::new(backbone, PromptOpts::default(), 13);
        let pairs: Vec<&EncodedPair> = train.iter().map(|e| &e.pair).collect();
        let scorer = Scorer::new(&model.lm, &model.template, &model.verbalizer);
        // The head as training records it, per chunk: `MlmHead::logits`
        // (the tied decoder as one `matmul_nt`) and `class_probs` (one
        // `cols_matmul` over the label columns), with no cached decoder.
        let per_chunk = |tape: &mut NoGradTape, chunk: &[&EncodedPair], rng: &mut StdRng| {
            let (lm, rows) = (&model.lm, scorer.prompt_rows.as_ref());
            let hidden: Vec<_> = chunk
                .iter()
                .map(|p| {
                    let (a, b) = (&p.ids_a, &p.ids_b);
                    model
                        .template
                        .forward_mask_row(tape, &lm.store, &lm.encoder, a, b, rows, rng)
                })
                .collect();
            let stacked = tape.concat_rows(&hidden);
            let logits = lm.mlm.logits(tape, &lm.store, &lm.encoder, stacked);
            let class = model.verbalizer.class_probs(tape, logits);
            let pm = tape.value(class);
            (0..pm.rows())
                .map(|r| {
                    let (yes, no) = (pm.get(r, 0), pm.get(r, 1));
                    yes / (yes + no).max(1e-12)
                })
                .collect::<Vec<f32>>()
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for train_mode in [false, true] {
            let tape = || {
                if train_mode {
                    NoGradTape::new()
                } else {
                    NoGradTape::inference()
                }
            };
            let mut rng_a = StdRng::seed_from_u64(21);
            let mut rng_b = rng_a.clone();
            for chunk in pairs.chunks(SCORE_CHUNK) {
                let want = per_chunk(&mut tape(), chunk, &mut rng_a);
                let got = scorer.probs(&mut tape(), chunk, &mut rng_b);
                assert_eq!(bits(&want), bits(&got), "train mode {train_mode}");
            }
            assert_eq!(rng_a.state(), rng_b.state(), "RNG streams diverged");
        }
    }

    #[test]
    fn sharded_scoring_matches_single_thread_bit_for_bit() {
        let backbone = tiny_backbone();
        let (train, _) = toy_examples(&backbone, 120, 9); // 90 pairs: 3 chunks
        let pairs: Vec<EncodedPair> = train.iter().map(|e| e.pair.clone()).collect();
        let run = |threads: usize| {
            em_pool::set_threads(threads);
            let mut model = PromptEmModel::new(backbone.clone(), PromptOpts::default(), 5);
            let det = model.predict_proba(&pairs);
            let sto = model.stochastic_proba(&pairs, 3);
            em_pool::set_threads(0);
            (det, sto, model.rng.state())
        };
        let (det1, sto1, rng1) = run(1);
        let (det3, sto3, rng3) = run(3);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&det1), bits(&det3), "deterministic scoring diverged");
        assert_eq!(sto1.len(), sto3.len());
        for (p1, p3) in sto1.iter().zip(&sto3) {
            assert_eq!(bits(p1), bits(p3), "stochastic pass diverged");
        }
        assert_eq!(rng1, rng3, "model RNG ended in different states");
    }

    /// The full training step `train_step` must equal, written out from
    /// public ops: the full template forward with its `[MASK]` row sliced
    /// out, the tied decoder transposed on the tape, and Eq. 1 as the
    /// dense `(V, 2)` projection.
    fn full_batch_step(model: &mut PromptEmModel, batch: &[&Example], opt: &mut AdamW) -> f32 {
        let PromptEmModel {
            lm,
            template,
            verbalizer,
            rng,
            ..
        } = model;
        lm.store.zero_grads();
        let (store, mlm) = (&lm.store, &lm.mlm);
        let mut tape = Tape::new();
        let mut rows = Vec::new();
        for ex in batch {
            rows.push(tape.segment(|tape| {
                let (a, b, enc) = (&ex.pair.ids_a, &ex.pair.ids_b, &lm.encoder);
                let (x, seq, mask_row) = template.embed_template(tape, store, enc, a, b, None, rng);
                let h = enc.forward_embedded(tape, store, x, seq, 0..seq, rng);
                tape.slice_rows(h, mask_row, 1)
            }));
        }
        let stacked = tape.concat_rows(&rows);
        let h = mlm.transform.forward(&mut tape, store, stacked);
        let h = tape.gelu(h);
        let h = mlm.ln.forward(&mut tape, store, h);
        let table = tape.param(store, lm.encoder.tok_emb.table);
        let decoder = tape.transpose(table);
        let scores = tape.matmul(h, decoder);
        let bias = tape.param(store, mlm.bias);
        let logits = tape.add_row_broadcast(scores, bias);
        let probs = tape.softmax_rows(logits);
        let mut dense = Matrix::zeros(lm.tokenizer.vocab_size(), 2);
        for (c, ids) in [&verbalizer.yes_ids, &verbalizer.no_ids]
            .into_iter()
            .enumerate()
        {
            for &w in ids {
                dense.set(w, c, 1.0 / ids.len() as f32);
            }
        }
        let dense = tape.constant(dense);
        let class = tape.matmul(probs, dense);
        let targets: Vec<usize> = batch
            .iter()
            .map(|e| PromptEmModel::target(e.label))
            .collect();
        let loss = tape.nll_probs(class, &targets);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut lm.store);
        lm.store.clip_grad_norm(1.0);
        opt.step(&mut lm.store);
        tape.value(loss).item()
    }

    #[test]
    fn the_training_step_keeps_every_gradient_bit() {
        let backbone = tiny_backbone();
        let tok = &backbone.tokenizer;
        // "alpha" twice in the first example and again in later ones.
        let batches: Vec<Vec<Example>> = [
            [
                ("alpha shop alpha", "beta shop", true),
                ("gamma shop", "alpha shop", false),
                ("delta shop eta", "delta", true),
            ],
            [
                ("beta shop", "alpha shop alpha", false),
                ("zeta", "zeta shop", true),
                ("alpha eta", "theta shop", false),
            ],
            [
                ("theta shop theta", "theta", true),
                ("epsilon shop", "alpha", false),
                ("gamma beta", "gamma beta shop", true),
            ],
        ]
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|&(a, b, label)| Example {
                    pair: EncodedPair {
                        ids_a: tok.encode(a).into(),
                        ids_b: tok.encode(b).into(),
                    },
                    label,
                })
                .collect()
        })
        .collect();
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let same_state = |got: &PromptEmModel, want: &PromptEmModel, at: &str| {
            let (g, w) = (&got.lm.store, &want.lm.store);
            for id in g.ids() {
                let name = g.name(id);
                assert_eq!(bits(g.grad(id)), bits(w.grad(id)), "{name} grad, {at}");
                assert_eq!(bits(g.value(id)), bits(w.value(id)), "{name}, {at}");
            }
            assert_eq!(got.rng.state(), want.rng.state(), "RNG, {at}");
        };
        // The `[MASK]` is the last row under T1 and a middle row under T2.
        let templates = [TemplateId::T1, TemplateId::T2];
        let runs = templates.into_iter().flat_map(|template| {
            [PromptMode::Hard, PromptMode::Continuous]
                .into_iter()
                .flat_map(move |mode| [1, 2].map(|threads| (template, mode, threads)))
        });
        for (template, mode, threads) in runs {
            let opts = PromptOpts {
                template,
                mode,
                label_words: LabelWords::designed(),
            };
            em_pool::set_threads(threads);
            let mut model = PromptEmModel::new(backbone.clone(), opts, 31);
            let mut full = model.clone();
            let (mut opt, mut opt_full) = (AdamW::new(1e-3), AdamW::new(1e-3));
            for (step, batch) in batches.iter().enumerate() {
                let batch: Vec<&Example> = batch.iter().collect();
                let loss = train_step(&mut model, &batch, &mut opt, step == 0);
                let want = full_batch_step(&mut full, &batch, &mut opt_full);
                let at = format!("{template:?}/{mode:?}, {threads} threads, step {step}");
                assert_eq!(loss.to_bits(), want.to_bits(), "loss, {at}");
                same_state(&model, &full, &at);
            }
            em_pool::set_threads(0);
        }
    }

    #[test]
    fn embeddings_have_model_width() {
        let backbone = tiny_backbone();
        let d = backbone.d_model();
        let (train, _) = toy_examples(&backbone, 4, 7);
        let mut model = PromptEmModel::new(backbone, PromptOpts::default(), 8);
        let pairs: Vec<EncodedPair> = train.iter().map(|e| e.pair.clone()).collect();
        for e in model.embed(&pairs) {
            assert_eq!(e.len(), d);
        }
    }
}
