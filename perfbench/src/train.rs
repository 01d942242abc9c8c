//! The match stage: what `promptem match` does, one public call at a
//! time — pretrain the backbone, encode, tune (grid template → teacher →
//! MC-dropout pseudo-labels → student) and predict the test split.

use em_data::pair::GemDataset;
use em_lm::PretrainedLm;
use em_obs::Stopwatch;
use promptem::pipeline::{encode_with, pretrain_backbone, run_encoded_retained, PromptEmConfig};
use promptem::{LstReport, PairCodec, TrainedMatcher};
use std::sync::Arc;

/// One finished match and its timings.
pub struct Matched {
    /// The pretrained backbone (its tokenizer encodes later inputs).
    pub backbone: Arc<PretrainedLm>,
    /// The tuned matcher.
    pub matcher: TrainedMatcher,
    /// The record codec over the dataset's tables, as `run_trained` builds it.
    pub codec: PairCodec,
    /// Test-split decisions.
    pub test_predictions: Vec<bool>,
    /// Test F1, percent.
    pub test_f1: f64,
    /// Self-training diagnostics.
    pub lst: LstReport,
    /// Size of the unlabeled pool the pseudo-labeler scores.
    pub unlabeled: usize,
    /// Seconds in `pretrain_backbone`.
    pub pretrain_s: f64,
    /// Seconds in `encode_with`.
    pub encode_s: f64,
    /// Seconds in `run_encoded_retained` (tuning plus test predictions).
    pub tune_s: f64,
    /// Seconds for the whole match, codec included.
    pub wall_s: f64,
}

/// Run one match on `ds` under `cfg`.
pub fn run_match(ds: &GemDataset, cfg: &PromptEmConfig) -> Matched {
    let _span = em_obs::span_with(crate::SPAN_MATCH_STAGE, ds.name.clone());
    let wall = Stopwatch::new();
    let sw = Stopwatch::new();
    let backbone = pretrain_backbone(ds, cfg);
    let pretrain_s = sw.secs();
    let sw = Stopwatch::new();
    let encoded = encode_with(ds, &backbone, cfg);
    let encode_s = sw.secs();
    let codec = PairCodec::build(ds, &backbone.tokenizer, &cfg.encode);
    let sw = Stopwatch::new();
    let trained = run_encoded_retained(backbone.clone(), &encoded, cfg);
    let tune_s = sw.secs();
    Matched {
        backbone,
        matcher: trained.matcher,
        codec,
        test_predictions: trained.result.test_predictions,
        test_f1: trained.result.scores.f1,
        lst: trained.result.lst,
        unlabeled: encoded.unlabeled.len(),
        pretrain_s,
        encode_s,
        tune_s,
        wall_s: wall.secs(),
    }
}
