//! End-to-end PromptEM pipeline: corpus → backbone pretraining → encoding →
//! (prompt-)tuning with lightweight self-training → evaluation. This is the
//! public entry point a downstream user calls, and the harness behind every
//! experiment table.

use crate::encode::{encode_dataset, EncodeCfg, EncodedDataset, EncodedPair};
use crate::finetune::FineTuneModel;
use crate::model::{PromptEmModel, PromptOpts};
use crate::selftrain::{lightweight_self_train_with, LstCfg, LstReport};
use crate::trainer::{evaluate, TunableMatcher};
use em_data::corpus::{build_pretrain_corpus, CorpusCfg, RelationWords};
use em_data::pair::GemDataset;
use em_data::PrfScores;
use em_lm::{LmConfig, PretrainCfg, PretrainedLm};
use em_resilience::{ResilienceCfg, ResilienceCtx};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which model size the backbone uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmSize {
    /// The quick-scale configuration ([`LmConfig::tiny`]).
    Tiny,
    /// The full-scale configuration ([`LmConfig::base`]).
    Base,
}

impl LmSize {
    fn config(self, vocab: usize) -> LmConfig {
        match self {
            LmSize::Tiny => LmConfig::tiny(vocab),
            LmSize::Base => LmConfig::base(vocab),
        }
    }
}

/// Full pipeline configuration.
#[derive(Debug, Clone)]
pub struct PromptEmConfig {
    /// Template/mode/label-word choices.
    pub prompt: PromptOpts,
    /// Self-training configuration (Algorithm 1).
    pub lst: LstCfg,
    /// Serialization/summarization budget.
    pub encode: EncodeCfg,
    /// Backbone pretraining budget.
    pub pretrain: PretrainCfg,
    /// Pretraining corpus construction.
    pub corpus: CorpusCfg,
    /// Backbone size preset.
    pub lm_size: LmSize,
    /// Ablation: prompt-tuning (true) vs vanilla fine-tuning (false,
    /// "PromptEM w/o PT").
    pub use_prompt: bool,
    /// Ablation: lightweight self-training on/off ("PromptEM w/o LST").
    pub use_lst: bool,
    // (see grid_template below)
    /// §5.1: "the continuous template is selected from {T1(·), T2(·)}" by
    /// grid search — when true, a short probe training on each template
    /// picks the better one on the validation set before the full run.
    /// Disabled by the template-choice experiments (Figures 4/5).
    pub grid_template: bool,
    /// Master seed for model initialization and shuffling.
    pub seed: u64,
    /// Crash safety: checkpoint directory, cadence, and resume flag.
    /// `None` (the default) disables checkpointing entirely.
    pub resilience: Option<ResilienceCfg>,
}

impl Default for PromptEmConfig {
    fn default() -> Self {
        PromptEmConfig {
            prompt: PromptOpts::default(),
            lst: LstCfg::quick(),
            encode: EncodeCfg::default(),
            pretrain: PretrainCfg::default(),
            corpus: CorpusCfg::default(),
            lm_size: LmSize::Tiny,
            use_prompt: true,
            use_lst: true,
            grid_template: true,
            seed: 0xE11,
            resilience: None,
        }
    }
}

/// Open the checkpoint stream for one pipeline phase, or `None` when
/// resilience is off (or the directory cannot be created — a checkpointing
/// failure must never take down training).
fn phase_ctx(cfg: &PromptEmConfig, phase: &str) -> Option<ResilienceCtx> {
    let rc = cfg.resilience.as_ref()?;
    match ResilienceCtx::new(rc, phase) {
        Ok(ctx) => Some(ctx),
        Err(e) => {
            em_obs::warn(format!("cannot open checkpoint dir for {phase}: {e}"));
            None
        }
    }
}

/// §5.1's template grid search: train a reduced-budget teacher with each
/// continuous template and return the template with the best validation F1.
fn select_template(
    backbone: &Arc<PretrainedLm>,
    encoded: &EncodedDataset,
    cfg: &PromptEmConfig,
) -> em_lm::prompt::TemplateId {
    use em_lm::prompt::TemplateId;
    let mut probe_cfg = cfg.lst.teacher.clone();
    probe_cfg.epochs = (probe_cfg.epochs / 2).max(2);
    let mut best = (TemplateId::T1, -1.0f64);
    for template in [TemplateId::T1, TemplateId::T2] {
        let mut opts = cfg.prompt.clone();
        opts.template = template;
        let mut probe = PromptEmModel::new(backbone.clone(), opts, cfg.seed ^ 0x9D);
        let report = probe.train(&encoded.train, &encoded.valid, &probe_cfg, None);
        if report.best_valid_f1 > best.1 {
            best = (template, report.best_valid_f1);
        }
    }
    best.0
}

/// The outcome of one end-to-end run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Dataset name.
    pub dataset: String,
    /// Test-set precision/recall/F1.
    pub scores: PrfScores,
    /// Binary predictions over the test split, index-aligned.
    pub test_predictions: Vec<bool>,
    /// Self-training diagnostics.
    pub lst: LstReport,
    /// Wall-clock seconds of the tuning phase (pretraining excluded — the
    /// paper's Table 4 likewise measures method training time, with the
    /// off-the-shelf RoBerta given).
    pub train_secs: f64,
    /// Wall-clock seconds of backbone pretraining (0 when reused).
    pub pretrain_secs: f64,
}

/// Pretrain a backbone LM for one dataset. Every method that "uses a
/// pre-trained LM" shares a clone of this artifact, mirroring how all the
/// paper's LM baselines share RoBERTa-base.
pub fn pretrain_backbone(ds: &GemDataset, cfg: &PromptEmConfig) -> Arc<PretrainedLm> {
    let _span = em_obs::span_with(em_obs::names::SPAN_PRETRAIN, ds.name.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0FFEE);
    let corpus = build_pretrain_corpus(ds, &RelationWords::default(), &cfg.corpus, &mut rng);
    let size = cfg.lm_size;
    let ctx = phase_ctx(cfg, "pretrain");
    Arc::new(PretrainedLm::pretrain_resilient(
        &corpus,
        |v| size.config(v),
        &cfg.pretrain,
        cfg.seed ^ 0xBACB,
        ctx.as_ref(),
    ))
}

/// Encode a dataset with a given backbone's tokenizer.
pub fn encode_with(
    ds: &GemDataset,
    backbone: &PretrainedLm,
    cfg: &PromptEmConfig,
) -> EncodedDataset {
    let _span = em_obs::span_with(em_obs::names::SPAN_ENCODE, ds.name.clone());
    encode_dataset(ds, &backbone.tokenizer, &cfg.encode)
}

fn tune_and_eval<M: TunableMatcher>(
    proto: M,
    encoded: &EncodedDataset,
    cfg: &PromptEmConfig,
) -> (PrfScores, Vec<bool>, LstReport, f64, M) {
    let start = em_obs::Stopwatch::new();
    let (mut model, report) = if cfg.use_lst {
        let ctx = phase_ctx(cfg, "selftrain");
        lightweight_self_train_with(
            &proto,
            &encoded.train,
            &encoded.valid,
            &encoded.unlabeled,
            Some(&encoded.unlabeled_gold),
            &cfg.lst,
            ctx.as_ref(),
        )
    } else {
        // "PromptEM w/o LST": teacher training only.
        let mut model = proto.fresh(cfg.lst.seed);
        let report = LstReport {
            teacher: model.train(&encoded.train, &encoded.valid, &cfg.lst.teacher, None),
            ..Default::default()
        };
        (model, report)
    };
    let secs = start.secs();
    let scores = evaluate(&mut model, &encoded.test);
    let pairs: Vec<crate::encode::EncodedPair> =
        encoded.test.iter().map(|e| e.pair.clone()).collect();
    let predictions = model.predict(&pairs);
    (scores, predictions, report, secs, model)
}

/// One decision from [`TrainedMatcher::match_batch`]: the match probability
/// and the thresholded binary call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchDecision {
    /// `P(match)` from the tape-free forward.
    pub proba: f32,
    /// `proba > threshold` at the calibrated threshold.
    pub is_match: bool,
}

/// The tuned matcher a pipeline run produced, ready for inference. The
/// serving path keeps one of these alive across requests; cloning
/// snapshots the whole model so supervisor restarts hand replacement
/// workers an identical-deciding copy.
#[derive(Clone)]
pub enum TrainedMatcher {
    /// The prompt-tuned model (`use_prompt = true`).
    Prompt(Box<PromptEmModel>),
    /// The fine-tuned ablation model (`use_prompt = false`).
    FineTune(Box<FineTuneModel>),
}

impl TrainedMatcher {
    /// The calibrated decision threshold.
    pub fn threshold(&self) -> f32 {
        match self {
            TrainedMatcher::Prompt(m) => m.threshold(),
            TrainedMatcher::FineTune(m) => m.threshold(),
        }
    }

    /// Match probabilities over a batch of pairs via the tape-free path
    /// (`NoGradTape`; values are bit-identical regardless of batch
    /// composition or thread count — every row-wise kernel computes each
    /// output row independently).
    pub fn predict_proba(&mut self, pairs: &[EncodedPair]) -> Vec<f32> {
        match self {
            TrainedMatcher::Prompt(m) => m.predict_proba(pairs),
            TrainedMatcher::FineTune(m) => m.predict_proba(pairs),
        }
    }

    /// The batch-of-pairs serving entry point: one coalesced tape-free
    /// forward over `pairs`, returning probability + thresholded decision
    /// per pair.
    pub fn match_batch(&mut self, pairs: &[EncodedPair]) -> Vec<MatchDecision> {
        let t = self.threshold();
        self.predict_proba(pairs)
            .into_iter()
            .map(|proba| MatchDecision {
                proba,
                is_match: proba > t,
            })
            .collect()
    }
}

/// A [`RunResult`] bundled with the trained model that produced it — what
/// `promptem serve` needs: train once, then answer requests from the
/// retained matcher with decisions bit-identical to the offline run.
pub struct TrainedRun {
    /// The ordinary run outcome (scores, predictions, timings).
    pub result: RunResult,
    /// The tuned matcher, retained for inference.
    pub matcher: TrainedMatcher,
}

/// Run the pipeline on an already-pretrained backbone.
pub fn run_with_backbone(
    backbone: Arc<PretrainedLm>,
    ds: &GemDataset,
    cfg: &PromptEmConfig,
) -> RunResult {
    let encoded = encode_with(ds, &backbone, cfg);
    run_encoded(backbone, &encoded, cfg)
}

/// Run the pipeline on an already-encoded dataset (lets the harness share
/// encodings across method variants).
pub fn run_encoded(
    backbone: Arc<PretrainedLm>,
    encoded: &EncodedDataset,
    cfg: &PromptEmConfig,
) -> RunResult {
    run_encoded_retained(backbone, encoded, cfg).result
}

/// [`run_encoded`] that also hands back the trained matcher instead of
/// dropping it — the serving path's way to get bit-identical inference
/// without re-running training.
pub fn run_encoded_retained(
    backbone: Arc<PretrainedLm>,
    encoded: &EncodedDataset,
    cfg: &PromptEmConfig,
) -> TrainedRun {
    let _span = em_obs::span_with(em_obs::names::SPAN_TUNE, encoded.name.clone());
    let (scores, test_predictions, lst, train_secs, matcher) = if cfg.use_prompt {
        let mut opts = cfg.prompt.clone();
        let mut probe_secs = 0.0;
        if cfg.grid_template {
            let t0 = em_obs::Stopwatch::new();
            let _span = em_obs::span(em_obs::names::SPAN_GRID_TEMPLATE);
            opts.template = select_template(&backbone, encoded, cfg);
            em_nn::tape::flush_op_stats();
            probe_secs = t0.secs();
        }
        let proto = PromptEmModel::new(backbone, opts, cfg.seed);
        let (scores, preds, lst, secs, model) = tune_and_eval(proto, encoded, cfg);
        // The grid search is part of PromptEM's training budget (Table 4).
        (
            scores,
            preds,
            lst,
            secs + probe_secs,
            TrainedMatcher::Prompt(Box::new(model)),
        )
    } else {
        let proto = FineTuneModel::new(backbone, cfg.seed);
        let (scores, preds, lst, secs, model) = tune_and_eval(proto, encoded, cfg);
        (
            scores,
            preds,
            lst,
            secs,
            TrainedMatcher::FineTune(Box::new(model)),
        )
    };
    // Residual tape ops (non-LST training, evaluation, prediction) land on
    // the tune span itself rather than vanishing unattributed.
    em_nn::tape::flush_op_stats();
    // Record the final test score as a gauge so a shutdown metrics flush
    // makes the trace self-contained for `promptem report`.
    em_obs::metrics::gauge(em_obs::names::METRIC_TEST_F1, &[("dataset", &encoded.name)])
        .set(scores.f1);
    TrainedRun {
        result: RunResult {
            dataset: encoded.name.clone(),
            scores,
            test_predictions,
            lst,
            train_secs,
            pretrain_secs: 0.0,
        },
        matcher,
    }
}

/// The one-call entry point: pretrain a backbone and run PromptEM.
pub fn run(ds: &GemDataset, cfg: &PromptEmConfig) -> RunResult {
    let start = em_obs::Stopwatch::new();
    let backbone = pretrain_backbone(ds, cfg);
    let pretrain_secs = start.secs();
    let mut result = run_with_backbone(backbone, ds, cfg);
    result.pretrain_secs = pretrain_secs;
    result
}

/// [`run`] that also returns the trained matcher and the pair codec —
/// everything `promptem serve` needs to answer requests over arbitrary
/// record pairs with decisions bit-identical to this offline run.
pub fn run_trained(ds: &GemDataset, cfg: &PromptEmConfig) -> (TrainedRun, crate::PairCodec) {
    let start = em_obs::Stopwatch::new();
    let backbone = pretrain_backbone(ds, cfg);
    let pretrain_secs = start.secs();
    let encoded = encode_with(ds, &backbone, cfg);
    let codec = crate::PairCodec::build(ds, &backbone.tokenizer, &cfg.encode);
    let mut trained = run_encoded_retained(backbone, &encoded, cfg);
    trained.result.pretrain_secs = pretrain_secs;
    (trained, codec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::synth::{build, BenchmarkId, Scale};

    fn fast_cfg() -> PromptEmConfig {
        PromptEmConfig {
            lst: LstCfg {
                teacher: crate::trainer::TrainCfg {
                    epochs: 2,
                    ..Default::default()
                },
                student: crate::trainer::TrainCfg {
                    epochs: 2,
                    ..Default::default()
                },
                pseudo: crate::pseudo::PseudoCfg {
                    passes: 2,
                    ..Default::default()
                },
                ..LstCfg::quick()
            },
            pretrain: PretrainCfg {
                epochs: 1,
                max_steps: 40,
                ..Default::default()
            },
            corpus: CorpusCfg {
                max_record_sentences: 120,
                relation_statements: 60,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_on_rel_heter() {
        let ds = build(BenchmarkId::RelHeter, Scale::Quick, 99);
        let result = run(&ds, &fast_cfg());
        assert_eq!(result.dataset, "REL-HETER");
        assert!(result.scores.f1 >= 0.0 && result.scores.f1 <= 100.0);
        assert!(result.train_secs > 0.0);
        assert!(result.pretrain_secs > 0.0);
    }

    #[test]
    fn ablations_change_the_path() {
        let ds = build(BenchmarkId::RelHeter, Scale::Quick, 98);
        let base = fast_cfg();
        let backbone = pretrain_backbone(&ds, &base);
        let encoded = encode_with(&ds, &backbone, &base);

        let no_lst = PromptEmConfig {
            use_lst: false,
            ..base.clone()
        };
        let r = run_encoded(backbone.clone(), &encoded, &no_lst);
        assert!(
            r.lst.pseudo_selected.is_empty(),
            "w/o LST must not pseudo-label"
        );

        let no_pt = PromptEmConfig {
            use_prompt: false,
            ..base.clone()
        };
        let r2 = run_encoded(backbone, &encoded, &no_pt);
        assert!(r2.scores.f1.is_finite());
    }
}
