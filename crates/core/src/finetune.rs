//! Vanilla fine-tuning (paper §2.3): `[CLS] a [SEP] b [SEP]` through the
//! encoder, then a *freshly initialized* classification head over the
//! `[CLS]` embedding. This is both the "BERT" baseline and the
//! "PromptEM w/o PT" ablation — the objective-form gap the paper's
//! Challenge I describes is exactly the difference between this model and
//! [`crate::model::PromptEmModel`].

use crate::encode::{EncodedPair, Example};
use crate::trainer::{run_training, PruneCfg, TapeModel, TrainCfg, TrainReport, TunableMatcher};
use em_lm::prompt::split_budget;
use em_lm::tokenizer::{CLS, SEP};
use em_lm::{ClsHead, PretrainedLm};
use em_nn::{NoGradTape, ParamStore, Tape, TapeExec, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A fine-tuned sequence-pair classifier on the shared backbone. Cloning
/// snapshots the whole model, like [`crate::model::PromptEmModel`].
#[derive(Clone)]
pub struct FineTuneModel {
    backbone: Arc<PretrainedLm>,
    /// The working copy of the backbone (tuned in place).
    pub lm: PretrainedLm,
    /// The freshly-initialized classification head.
    pub head: ClsHead,
    threshold: f32,
    rng: StdRng,
}

impl FineTuneModel {
    /// Clone the backbone and bolt on a fresh classification head.
    pub fn new(backbone: Arc<PretrainedLm>, seed: u64) -> Self {
        let mut lm = (*backbone).clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let head = ClsHead::new(&mut lm.store, &lm.encoder, 2, &mut rng);
        FineTuneModel {
            backbone,
            lm,
            head,
            threshold: 0.5,
            rng,
        }
    }

    /// Build `[CLS] a [SEP] b [SEP]` within the model's max length.
    pub fn pair_ids(&self, p: &EncodedPair) -> Vec<usize> {
        let budget = self.lm.max_len().saturating_sub(3);
        let (ka, kb) = split_budget(p.ids_a.len(), p.ids_b.len(), budget);
        let mut ids = Vec::with_capacity(ka + kb + 3);
        ids.push(CLS);
        ids.extend_from_slice(&p.ids_a[..ka]);
        ids.push(SEP);
        ids.extend_from_slice(&p.ids_b[..kb]);
        ids.push(SEP);
        ids
    }

    /// Class logits for a batch; one tape shared across the batch.
    fn forward_logits(&mut self, tape: &mut impl TapeExec, pairs: &[&EncodedPair]) -> Var {
        let mut pooled = Vec::with_capacity(pairs.len());
        for p in pairs {
            let ids = self.pair_ids(p);
            let h = self
                .lm
                .encoder
                .forward(tape, &self.lm.store, &ids, &mut self.rng);
            pooled.push(tape.slice_rows(h, 0, 1)); // [CLS] row
        }
        let stacked = tape.concat_rows(&pooled);
        self.head.logits(tape, &self.lm.store, stacked)
    }

    fn forward_probs(&mut self, tape: &mut impl TapeExec, pairs: &[&EncodedPair]) -> Vec<f32> {
        let logits = self.forward_logits(tape, pairs);
        let probs = tape.softmax_rows(logits);
        let pm = tape.value(probs);
        (0..pm.rows()).map(|r| pm.get(r, 0)).collect()
    }
}

impl TapeModel for FineTuneModel {
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

impl TunableMatcher for FineTuneModel {
    fn fresh(&self, seed: u64) -> Self {
        FineTuneModel::new(self.backbone.clone(), seed)
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
            let ids = self.pair_ids(p);
            let h = self
                .lm
                .encoder
                .forward(&mut tape, &self.lm.store, &ids, &mut self.rng);
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
    use crate::trainer::evaluate;

    #[test]
    fn pair_ids_frame_correctly() {
        let backbone = tiny_backbone();
        let model = FineTuneModel::new(backbone, 1);
        let p = EncodedPair {
            ids_a: vec![10, 11].into(),
            ids_b: vec![12].into(),
        };
        let ids = model.pair_ids(&p);
        assert_eq!(ids, vec![CLS, 10, 11, SEP, 12, SEP]);
    }

    #[test]
    fn pair_ids_respect_max_len() {
        let backbone = tiny_backbone();
        let model = FineTuneModel::new(backbone, 2);
        let long: Vec<usize> = (0..200).map(|i| 10 + i % 5).collect();
        let p = EncodedPair {
            ids_a: long.clone().into(),
            ids_b: long.into(),
        };
        let ids = model.pair_ids(&p);
        assert!(ids.len() <= model.lm.max_len());
        assert_eq!(ids[0], CLS);
        assert_eq!(*ids.last().unwrap(), SEP);
    }

    #[test]
    fn finetune_learns_toy_task() {
        let backbone = tiny_backbone();
        let (train, valid) = toy_examples(&backbone, 40, 4);
        let mut model = FineTuneModel::new(backbone, 3);
        let cfg = TrainCfg {
            epochs: 10,
            ..Default::default()
        };
        model.train(&train, &valid, &cfg, None);
        let f1 = evaluate(&mut model, &valid).f1;
        assert!(f1 > 55.0, "fine-tuning failed to learn: F1 {f1}");
    }

    #[test]
    fn pruning_reduces_training_set() {
        let backbone = tiny_backbone();
        let (train, valid) = toy_examples(&backbone, 30, 5);
        let mut model = FineTuneModel::new(backbone, 4);
        let cfg = TrainCfg {
            epochs: 4,
            ..Default::default()
        };
        let prune = PruneCfg {
            every: 1,
            e_r: 0.2,
            passes: 2,
        };
        let report = model.train(&train, &valid, &cfg, Some(&prune));
        assert!(report.pruned > 0, "dynamic data pruning never fired");
    }
}
