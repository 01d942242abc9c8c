//! SentenceBERT baseline (Reimers & Gurevych): a *siamese* architecture —
//! each record is encoded independently, the two pooled embeddings are
//! combined as `(u, v, |u−v|, u·v)` and classified by an MLP. The encoder
//! is fine-tuned jointly with the head.

use crate::common::{MatchTask, Matcher};
use em_lm::tokenizer::{CLS, SEP};
use em_lm::PretrainedLm;
use em_nn::layers::Mlp;
use em_nn::{NoGradTape, ParamStore, Tape, TapeExec, Var};
use promptem::encode::{EncodedPair, Example};
use promptem::trainer::{run_training, PruneCfg, TapeModel, TrainCfg, TrainReport, TunableMatcher};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The siamese model.
pub struct SBertModel {
    backbone: Arc<PretrainedLm>,
    /// The working copy of the backbone.
    pub lm: PretrainedLm,
    head: Mlp,
    threshold: f32,
    rng: StdRng,
}

impl SBertModel {
    /// Clone the backbone and attach the comparator MLP.
    pub fn new(backbone: Arc<PretrainedLm>, seed: u64) -> Self {
        let mut lm = (*backbone).clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let d = lm.encoder.cfg.d_model;
        let head = Mlp::new(&mut lm.store, "sbert.head", 4 * d, 2 * d, 2, &mut rng);
        SBertModel {
            backbone,
            lm,
            head,
            threshold: 0.5,
            rng,
        }
    }

    /// Mean-pooled embedding of one side: `[CLS] side [SEP]` → mean of
    /// hidden rows (SBERT's pooling).
    fn encode_side(&mut self, tape: &mut impl TapeExec, ids: &[usize]) -> Var {
        let mut framed = Vec::with_capacity(ids.len() + 2);
        framed.push(CLS);
        framed.extend_from_slice(&ids[..ids.len().min(self.lm.max_len() - 2)]);
        framed.push(SEP);
        let h = self
            .lm
            .encoder
            .forward(tape, &self.lm.store, &framed, &mut self.rng);
        tape.mean_rows(h)
    }

    fn forward_logits(&mut self, tape: &mut impl TapeExec, pairs: &[&EncodedPair]) -> Var {
        let mut rows = Vec::with_capacity(pairs.len());
        for p in pairs {
            let u = self.encode_side(tape, &p.ids_a);
            let v = self.encode_side(tape, &p.ids_b);
            let diff = tape.sub(u, v);
            let absdiff = {
                // |u - v| via relu(x) + relu(-x)
                let neg = tape.scale(diff, -1.0);
                let a = tape.relu(diff);
                let b = tape.relu(neg);
                tape.add(a, b)
            };
            let prod = tape.mul(u, v);
            rows.push(tape.concat_cols(&[u, v, absdiff, prod]));
        }
        let features = tape.concat_rows(&rows);
        self.head.forward(tape, &self.lm.store, features)
    }

    fn forward_probs(&mut self, tape: &mut impl TapeExec, pairs: &[&EncodedPair]) -> Vec<f32> {
        let logits = self.forward_logits(tape, pairs);
        let probs = tape.softmax_rows(logits);
        let pm = tape.value(probs);
        (0..pm.rows()).map(|r| pm.get(r, 0)).collect()
    }
}

impl TapeModel for SBertModel {
    fn params(&mut self) -> &mut ParamStore {
        &mut self.lm.store
    }

    fn loss(&mut self, tape: &mut Tape, batch: &[&Example]) -> Var {
        let pairs: Vec<&EncodedPair> = batch.iter().map(|e| &e.pair).collect();
        let logits = self.forward_logits(tape, &pairs);
        let targets: Vec<usize> = batch.iter().map(|e| usize::from(!e.label)).collect();
        tape.cross_entropy(logits, &targets)
    }
}

impl TunableMatcher for SBertModel {
    fn fresh(&self, seed: u64) -> Self {
        SBertModel::new(self.backbone.clone(), seed)
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
        em_lm::mc_dropout::run_passes(passes, |_| {
            let mut out = Vec::with_capacity(pairs.len());
            for chunk in pairs.chunks(32) {
                let refs: Vec<&EncodedPair> = chunk.iter().collect();
                let mut tape = NoGradTape::new(); // dropout active, zero tape nodes
                out.extend(self.forward_probs(&mut tape, &refs));
            }
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

/// The baseline wrapper.
pub struct SBertBaseline {
    /// Fine-tuning budget.
    pub cfg: TrainCfg,
    model: Option<SBertModel>,
    seed: u64,
}

impl SBertBaseline {
    /// Create the baseline with a training budget.
    pub fn new(cfg: TrainCfg, seed: u64) -> Self {
        SBertBaseline {
            cfg,
            model: None,
            seed,
        }
    }
}

impl Matcher for SBertBaseline {
    fn name(&self) -> &'static str {
        "SentenceBERT"
    }

    fn fit(&mut self, task: &MatchTask) {
        let mut model = SBertModel::new(task.backbone.clone(), self.seed);
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
    fn siamese_features_have_4d_width() {
        let (_, encoded, backbone) = toy_task();
        let d = backbone.d_model();
        let mut m = SBertModel::new(backbone, 5);
        let p = &encoded.train[0].pair;
        let mut tape = Tape::inference();
        let u = m.encode_side(&mut tape, &p.ids_a);
        assert_eq!(tape.value(u).shape(), (1, d));
    }

    #[test]
    fn scoring_records_no_tape_nodes_and_keeps_the_taped_bits() {
        let (_, encoded, backbone) = toy_task();
        let mut m = SBertModel::new(backbone, 7);
        let pairs: Vec<EncodedPair> = encoded
            .train
            .iter()
            .take(5)
            .map(|e| e.pair.clone())
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
    fn sbert_fits_and_predicts() {
        let (raw, encoded, backbone) = toy_task();
        let task = MatchTask {
            raw: &raw,
            encoded: &encoded,
            backbone,
        };
        let mut m = SBertBaseline::new(
            TrainCfg {
                epochs: 2,
                ..Default::default()
            },
            6,
        );
        let (scores, _) = crate::common::evaluate_matcher(&mut m, &task);
        assert!(scores.f1 >= 0.0 && scores.f1 <= 100.0);
    }
}
