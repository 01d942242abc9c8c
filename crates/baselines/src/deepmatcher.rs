//! DeepMatcher baseline (Mudgal et al.): a pre-LM-era RNN architecture. Each
//! side's tokens are embedded (randomly initialized — *no* pretrained LM,
//! which is why the paper finds it weakest in low resource), encoded with a
//! BiLSTM, mean-pooled, and the pooled pair is classified through the
//! classic `(u, v, |u−v|, u·v)` comparator MLP (the "hybrid" model's
//! aggregate-and-compare shape).

use crate::common::{MatchTask, Matcher};
use em_nn::layers::{BiLstm, Embedding, Mlp};
use em_nn::{NoGradTape, ParamStore, Tape, TapeExec, Var};
use promptem::encode::{EncodedPair, Example};
use promptem::trainer::{run_training, PruneCfg, TapeModel, TrainCfg, TrainReport, TunableMatcher};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RNN matcher itself (also usable under LST via [`TunableMatcher`]).
pub struct DeepMatcherModel {
    store: ParamStore,
    emb: Embedding,
    rnn: BiLstm,
    head: Mlp,
    vocab: usize,
    dim: usize,
    threshold: f32,
    seed: u64,
}

impl DeepMatcherModel {
    /// Randomly-initialized model over a `vocab`-sized token space.
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, "dm.emb", vocab, dim, &mut rng);
        let rnn = BiLstm::new(&mut store, "dm.rnn", dim, dim / 2, &mut rng);
        let head = Mlp::new(&mut store, "dm.head", 4 * dim, 2 * dim, 2, &mut rng);
        DeepMatcherModel {
            store,
            emb,
            rnn,
            head,
            vocab,
            dim,
            threshold: 0.5,
            seed,
        }
    }

    fn encode_side(&self, tape: &mut impl TapeExec, ids: &[usize]) -> Var {
        let ids = if ids.is_empty() {
            &[em_lm::tokenizer::UNK][..]
        } else {
            ids
        };
        let x = self.emb.forward(tape, &self.store, ids);
        let h = self.rnn.forward(tape, &self.store, x);
        tape.mean_rows(h)
    }

    fn forward_logits(&self, tape: &mut impl TapeExec, pairs: &[&EncodedPair]) -> Var {
        let mut rows = Vec::with_capacity(pairs.len());
        for p in pairs {
            let u = self.encode_side(tape, &p.ids_a);
            let v = self.encode_side(tape, &p.ids_b);
            let diff = tape.sub(u, v);
            let neg = tape.scale(diff, -1.0);
            let r1 = tape.relu(diff);
            let r2 = tape.relu(neg);
            let absdiff = tape.add(r1, r2);
            let prod = tape.mul(u, v);
            rows.push(tape.concat_cols(&[u, v, absdiff, prod]));
        }
        let features = tape.concat_rows(&rows);
        self.head.forward(tape, &self.store, features)
    }

    fn forward_probs(&self, tape: &mut impl TapeExec, pairs: &[&EncodedPair]) -> Vec<f32> {
        let logits = self.forward_logits(tape, pairs);
        let probs = tape.softmax_rows(logits);
        let pm = tape.value(probs);
        (0..pm.rows()).map(|r| pm.get(r, 0)).collect()
    }
}

impl TapeModel for DeepMatcherModel {
    fn params(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn loss(&mut self, tape: &mut Tape, batch: &[&Example]) -> Var {
        let pairs: Vec<&EncodedPair> = batch.iter().map(|e| &e.pair).collect();
        let logits = self.forward_logits(tape, &pairs);
        let targets: Vec<usize> = batch.iter().map(|e| usize::from(!e.label)).collect();
        tape.cross_entropy(logits, &targets)
    }
}

impl TunableMatcher for DeepMatcherModel {
    fn fresh(&self, seed: u64) -> Self {
        DeepMatcherModel::new(self.vocab, self.dim, self.seed ^ seed)
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
        let mut out = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(32) {
            let refs: Vec<&EncodedPair> = chunk.iter().collect();
            let mut tape = NoGradTape::inference();
            out.extend(self.forward_probs(&mut tape, &refs));
        }
        out
    }

    fn stochastic_proba(&mut self, pairs: &[EncodedPair], passes: usize) -> Vec<Vec<f32>> {
        em_lm::mc_dropout::run_passes(passes, |_| self.predict_proba(pairs))
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }

    fn set_threshold(&mut self, t: f32) {
        self.threshold = t;
    }

    fn embed(&mut self, pairs: &[EncodedPair]) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(pairs.len());
        for p in pairs {
            let mut tape = NoGradTape::inference();
            let u = self.encode_side(&mut tape, &p.ids_a);
            let v = self.encode_side(&mut tape, &p.ids_b);
            let uv = tape.concat_cols(&[u, v]);
            out.push(tape.value(uv).row(0).to_vec());
        }
        out
    }
}

/// The [`Matcher`] wrapper used by the experiment harness.
pub struct DeepMatcherBaseline {
    /// Training budget.
    pub cfg: TrainCfg,
    model: Option<DeepMatcherModel>,
    seed: u64,
}

impl DeepMatcherBaseline {
    /// Create the baseline with a training budget.
    pub fn new(cfg: TrainCfg, seed: u64) -> Self {
        DeepMatcherBaseline {
            cfg,
            model: None,
            seed,
        }
    }
}

impl Matcher for DeepMatcherBaseline {
    fn name(&self) -> &'static str {
        "DeepMatcher"
    }

    fn fit(&mut self, task: &MatchTask) {
        // Same vocabulary as the tokenizer (fair input), but randomly
        // initialized weights: DeepMatcher predates pretrained LMs.
        let vocab = task.backbone.tokenizer.vocab_size();
        let dim = task.backbone.d_model();
        let mut model = DeepMatcherModel::new(vocab, dim, self.seed);
        model.train(&task.encoded.train, &task.encoded.valid, &self.cfg, None);
        self.model = Some(model);
    }

    fn predict(&mut self, _task: &MatchTask, pairs: &[EncodedPair]) -> Vec<bool> {
        // lint:allow(unwrap) — the Matcher contract is fit-then-predict
        self.model.as_mut().expect("fit first").predict(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::toy_task;

    #[test]
    fn deepmatcher_runs_end_to_end() {
        let (raw, encoded, backbone) = toy_task();
        let task = MatchTask {
            raw: &raw,
            encoded: &encoded,
            backbone,
        };
        let mut m = DeepMatcherBaseline::new(
            TrainCfg {
                epochs: 2,
                ..Default::default()
            },
            2,
        );
        let (scores, _) = crate::common::evaluate_matcher(&mut m, &task);
        assert!(scores.f1 >= 0.0);
    }

    #[test]
    fn scoring_records_no_tape_nodes_and_keeps_the_taped_bits() {
        let mut m = DeepMatcherModel::new(50, 16, 5);
        let pairs: Vec<EncodedPair> = (0..5)
            .map(|i| EncodedPair {
                ids_a: vec![10 + i, 11].into(),
                ids_b: vec![12, 13 + i, 14].into(),
            })
            .collect();
        let refs: Vec<&EncodedPair> = pairs.iter().collect();
        let taped = m.forward_probs(&mut Tape::inference(), &refs);
        let before = em_nn::tape::nodes_recorded_on_thread();
        let probs = m.predict_proba(&pairs);
        m.stochastic_proba(&pairs, 2);
        m.embed(&pairs);
        let recorded = em_nn::tape::nodes_recorded_on_thread() - before;
        assert_eq!(recorded, 0, "scoring recorded tape nodes");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&probs), bits(&taped));
    }

    #[test]
    fn empty_side_does_not_panic() {
        let mut m = DeepMatcherModel::new(50, 16, 3);
        let p = EncodedPair {
            ids_a: vec![].into(),
            ids_b: vec![10, 11].into(),
        };
        let probs = m.predict_proba(&[p]);
        assert!(probs[0].is_finite());
    }
}
