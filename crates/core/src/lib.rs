//! # promptem
//!
//! The paper's contribution, end to end:
//!
//! * [`encode`] — serialization + summarization + tokenization of GEM
//!   datasets into model-ready examples;
//! * [`model`] — [`model::PromptEmModel`], GEM cast as a cloze task through
//!   GEM-specific templates and label words (§3);
//! * [`finetune`] — the vanilla fine-tuning counterpart (§2.3), used by the
//!   "w/o PT" ablation and the BERT baseline;
//! * [`pseudo`] — uncertainty / confidence / clustering pseudo-label
//!   selection (§4.2, Table 5);
//! * [`pruning`] — MC-EL2N dynamic data pruning (§4.3);
//! * [`selftrain`] — Lightweight Self-Training, Algorithm 1;
//! * [`pipeline`] — the one-call pipeline used by examples and benches.
//!
//! ```no_run
//! use em_data::synth::{build, BenchmarkId, Scale};
//! use promptem::pipeline::{run, PromptEmConfig};
//!
//! let dataset = build(BenchmarkId::RelHeter, Scale::Quick, 42);
//! let result = run(&dataset, &PromptEmConfig::default());
//! println!("{} F1 = {:.1}", result.dataset, result.scores.f1);
//! ```

#![warn(missing_docs)]

pub mod active;
pub mod calibration;
pub mod encode;
pub mod explain;
pub mod finetune;
pub mod model;
pub mod pipeline;
pub mod pruning;
pub mod pseudo;
pub mod resume;
pub mod selftrain;
pub mod testutil;
pub mod trainer;

pub use active::{active_round, select_for_labeling, AcquisitionStrategy};
pub use calibration::{brier_score, expected_calibration_error};
pub use encode::{EncodeCfg, EncodedDataset, EncodedPair, Example, PairCodec};
pub use explain::{attribute_importance, AttributeImportance};
pub use finetune::FineTuneModel;
pub use model::{PromptEmModel, PromptOpts};
pub use pipeline::{
    run, run_trained, run_with_backbone, MatchDecision, PromptEmConfig, RunResult, TrainedMatcher,
    TrainedRun,
};
pub use pseudo::{PseudoCfg, SelectionStrategy};
pub use resume::MatcherState;
pub use selftrain::{lightweight_self_train, lightweight_self_train_with, LstCfg, LstReport};
pub use trainer::{run_training, PruneCfg, TapeModel, TrainCfg, TrainReport, TunableMatcher};
