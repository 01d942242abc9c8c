//! DADER baseline (Tu et al.): entity resolution via *domain adaptation*.
//! A source EM dataset from a similar domain supplies abundant labels; the
//! feature extractor is aligned across domains with an adversarial domain
//! discriminator behind a gradient-reversal layer (the DANN core of
//! DADER's InvGAN family), then the classifier is tuned on the target's
//! low-resource labels.
//!
//! As in the paper's Appendix D: "For the source dataset, we use all the
//! training samples. For the target dataset, we use the same low-resource
//! training samples as other supervised methods."

use crate::common::{MatchTask, Matcher};
use em_data::pair::GemDataset;
use em_lm::tokenizer::{CLS, SEP};
use em_nn::layers::Mlp;
use em_nn::{AdamW, Tape, TapeExec, Var};
use promptem::encode::{encode_dataset, EncodeCfg, EncodedPair, Example};
use promptem::trainer::{calibrate_threshold, TrainCfg, TunableMatcher};
use promptem::FineTuneModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The domain-adaptation baseline.
pub struct DaderBaseline {
    /// Source/target training budget.
    pub cfg: TrainCfg,
    /// Weight of the adversarial domain loss.
    pub lambda: f32,
    /// Alignment steps (joint classifier + discriminator batches).
    pub align_steps: usize,
    source: GemDataset,
    model: Option<FineTuneModel>,
    seed: u64,
}

impl DaderBaseline {
    /// `source` should come from a similar domain (the harness pairs each
    /// benchmark with its closest sibling).
    pub fn new(cfg: TrainCfg, source: GemDataset, seed: u64) -> Self {
        DaderBaseline {
            cfg,
            lambda: 0.3,
            align_steps: 30,
            source,
            model: None,
            seed,
        }
    }

    fn cls_feature(
        model: &mut FineTuneModel,
        tape: &mut Tape,
        p: &EncodedPair,
        rng: &mut StdRng,
    ) -> Var {
        let budget = model.lm.max_len().saturating_sub(3);
        let ka = p.ids_a.len().min(budget / 2);
        let kb = p.ids_b.len().min(budget - ka);
        let mut ids = Vec::with_capacity(ka + kb + 3);
        ids.push(CLS);
        ids.extend_from_slice(&p.ids_a[..ka]);
        ids.push(SEP);
        ids.extend_from_slice(&p.ids_b[..kb]);
        ids.push(SEP);
        let h = model.lm.encoder.forward(tape, &model.lm.store, &ids, rng);
        tape.slice_rows(h, 0, 1)
    }
}

impl Matcher for DaderBaseline {
    fn name(&self) -> &'static str {
        "DADER"
    }

    fn fit(&mut self, task: &MatchTask) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xDADE);

        // Encode the SOURCE dataset with the TARGET tokenizer (the shared
        // backbone is the target's; OOV falls back to pieces).
        let source_full = self.source.sufficient();
        let source_encoded = encode_dataset(
            &source_full,
            &task.backbone.tokenizer,
            &EncodeCfg::default(),
        );

        // Stage 1: supervised training on the full source labels.
        let mut model = FineTuneModel::new(task.backbone.clone(), self.seed);
        model.train(
            &source_encoded.train,
            &source_encoded.valid,
            &self.cfg,
            None,
        );

        // Stage 2: adversarial feature alignment (DANN): a domain
        // discriminator over [CLS] features behind a gradient-reversal
        // layer; the encoder learns domain-invariant features while the
        // classifier keeps fitting source labels.
        let d = model.lm.encoder.cfg.d_model;
        let disc = Mlp::new(&mut model.lm.store, "dader.disc", d, d, 2, &mut rng);
        let mut opt = AdamW::new(self.cfg.lr);
        let src_pool: Vec<&Example> = source_encoded.train.iter().collect();
        let tgt_pool: Vec<&EncodedPair> = task
            .encoded
            .train
            .iter()
            .map(|e| &e.pair)
            .chain(task.encoded.unlabeled.iter())
            .collect();
        if !src_pool.is_empty() && !tgt_pool.is_empty() {
            for step in 0..self.align_steps {
                model.lm.store.zero_grads();
                let mut tape = Tape::new();
                let mut feats = Vec::new();
                let mut domain_targets = Vec::new();
                let mut cls_rows = Vec::new();
                let mut cls_targets = Vec::new();
                for k in 0..8 {
                    let ex = src_pool[(step * 8 + k) % src_pool.len()];
                    let f = Self::cls_feature(&mut model, &mut tape, &ex.pair, &mut rng);
                    feats.push(f);
                    domain_targets.push(0);
                    cls_rows.push(f);
                    cls_targets.push(usize::from(!ex.label));
                }
                for k in 0..8 {
                    let p = tgt_pool[(step * 8 + k) % tgt_pool.len()];
                    let f = Self::cls_feature(&mut model, &mut tape, p, &mut rng);
                    feats.push(f);
                    domain_targets.push(1);
                }
                let stacked = tape.concat_rows(&feats);
                let reversed = tape.grad_reverse(stacked, self.lambda);
                let disc_logits = disc.forward(&mut tape, &model.lm.store, reversed);
                let domain_loss = tape.cross_entropy(disc_logits, &domain_targets);

                let cls_stacked = tape.concat_rows(&cls_rows);
                let cls_logits = model.head.logits(&mut tape, &model.lm.store, cls_stacked);
                let cls_loss = tape.cross_entropy(cls_logits, &cls_targets);

                let total = tape.add(cls_loss, domain_loss);
                tape.backward(total);
                tape.accumulate_param_grads(&mut model.lm.store);
                model.lm.store.clip_grad_norm(1.0);
                opt.step(&mut model.lm.store);
            }
        }

        // Stage 3: tune on the target's low-resource labels.
        let mut tgt_cfg = self.cfg.clone();
        tgt_cfg.epochs = (self.cfg.epochs / 2).max(2);
        model.train(&task.encoded.train, &task.encoded.valid, &tgt_cfg, None);

        // Final threshold calibration on the target validation set.
        let vpairs: Vec<EncodedPair> = task.encoded.valid.iter().map(|e| e.pair.clone()).collect();
        let vgold: Vec<bool> = task.encoded.valid.iter().map(|e| e.label).collect();
        let probs = model.predict_proba(&vpairs);
        model.set_threshold(calibrate_threshold(&probs, &vgold));
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
    use crate::common::evaluate_matcher;
    use crate::testutil::toy_task;
    use em_data::synth::{build, BenchmarkId, Scale};

    #[test]
    fn dader_adapts_from_a_source_dataset() {
        let (raw, encoded, backbone) = toy_task();
        let task = MatchTask {
            raw: &raw,
            encoded: &encoded,
            backbone,
        };
        let source = build(BenchmarkId::GeoHeter, Scale::Quick, 77);
        let mut m = DaderBaseline::new(
            TrainCfg {
                epochs: 1,
                ..Default::default()
            },
            source,
            9,
        );
        m.align_steps = 3;
        let (scores, _) = evaluate_matcher(&mut m, &task);
        assert!(scores.f1 >= 0.0);
    }
}
