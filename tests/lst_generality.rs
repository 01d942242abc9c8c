//! §4.1 claims lightweight self-training is "general enough to incorporate
//! with other approaches": verify the LST loop runs unchanged over both the
//! prompt-tuned model and the fine-tuned model (and over a stub, proving
//! the abstraction boundary is the TunableMatcher trait alone).

use promptem_repro::promptem::encode::{EncodedPair, Example};
use promptem_repro::promptem::model::{PromptEmModel, PromptOpts};
use promptem_repro::promptem::selftrain::{lightweight_self_train, LstCfg};
use promptem_repro::promptem::testutil::{tiny_backbone, toy_examples};
use promptem_repro::promptem::trainer::{PruneCfg, TrainCfg, TrainReport, TunableMatcher};
use promptem_repro::promptem::{FineTuneModel, PseudoCfg};

fn tiny_lst() -> LstCfg {
    LstCfg {
        teacher: TrainCfg {
            epochs: 2,
            ..Default::default()
        },
        student: TrainCfg {
            epochs: 2,
            ..Default::default()
        },
        pseudo: PseudoCfg {
            passes: 2,
            u_r: 0.2,
            ..Default::default()
        },
        prune: Some(PruneCfg {
            every: 1,
            e_r: 0.1,
            passes: 2,
        }),
        ..LstCfg::quick()
    }
}

#[test]
fn lst_runs_over_the_prompt_model() {
    let backbone = tiny_backbone();
    let (train, valid) = toy_examples(&backbone, 24, 1);
    let (extra, _) = toy_examples(&backbone, 20, 2);
    let unlabeled: Vec<EncodedPair> = extra.iter().map(|e| e.pair.clone()).collect();
    let proto = PromptEmModel::new(backbone, PromptOpts::default(), 3);
    let (_, report) = lightweight_self_train(&proto, &train, &valid, &unlabeled, None, &tiny_lst());
    assert_eq!(report.pseudo_selected.len(), 1);
    assert!(report.pseudo_selected[0] > 0);
}

#[test]
fn lst_runs_over_the_finetune_model() {
    let backbone = tiny_backbone();
    let (train, valid) = toy_examples(&backbone, 24, 4);
    let (extra, _) = toy_examples(&backbone, 20, 5);
    let unlabeled: Vec<EncodedPair> = extra.iter().map(|e| e.pair.clone()).collect();
    let proto = FineTuneModel::new(backbone, 6);
    let (_, report) = lightweight_self_train(&proto, &train, &valid, &unlabeled, None, &tiny_lst());
    assert_eq!(report.pseudo_selected.len(), 1);
}

/// A deterministic stub matcher: "probability" is a hash of the pair ids.
/// Proves LST depends on nothing beyond the trait.
struct StubMatcher {
    trained_on: usize,
    threshold: f32,
}

impl TunableMatcher for StubMatcher {
    fn fresh(&self, _seed: u64) -> Self {
        StubMatcher {
            trained_on: 0,
            threshold: 0.5,
        }
    }
    fn train(
        &mut self,
        train: &[Example],
        _valid: &[Example],
        _cfg: &TrainCfg,
        _prune: Option<&PruneCfg>,
    ) -> TrainReport {
        self.trained_on = train.len();
        TrainReport {
            epochs_run: 1,
            ..Default::default()
        }
    }
    fn predict_proba(&mut self, pairs: &[EncodedPair]) -> Vec<f32> {
        pairs
            .iter()
            .map(|p| {
                let h = p
                    .ids_a
                    .iter()
                    .chain(p.ids_b.iter())
                    .fold(7usize, |a, &b| a.wrapping_mul(31) ^ b);
                (h % 100) as f32 / 100.0
            })
            .collect()
    }
    fn stochastic_proba(&mut self, pairs: &[EncodedPair], passes: usize) -> Vec<Vec<f32>> {
        (0..passes).map(|_| self.predict_proba(pairs)).collect()
    }
    fn set_threshold(&mut self, t: f32) {
        self.threshold = t;
    }
    fn embed(&mut self, pairs: &[EncodedPair]) -> Vec<Vec<f32>> {
        self.predict_proba(pairs)
            .into_iter()
            .map(|p| vec![p])
            .collect()
    }
}

#[test]
fn lst_is_trait_generic() {
    let train: Vec<Example> = (0..10)
        .map(|i| Example {
            pair: EncodedPair {
                ids_a: vec![i].into(),
                ids_b: vec![i * 2].into(),
            },
            label: i % 2 == 0,
        })
        .collect();
    let valid = train.clone();
    let unlabeled: Vec<EncodedPair> = (10..30)
        .map(|i| EncodedPair {
            ids_a: vec![i].into(),
            ids_b: vec![i + 1].into(),
        })
        .collect();
    let proto = StubMatcher {
        trained_on: 0,
        threshold: 0.5,
    };
    let (student, report) =
        lightweight_self_train(&proto, &train, &valid, &unlabeled, None, &tiny_lst());
    // The student was trained on the original labels plus the selected
    // pseudo-labels (u_r = 0.2 of 20 = 4).
    assert_eq!(report.pseudo_selected, vec![4]);
    assert_eq!(student.trained_on, 14);
}

#[test]
fn multi_iteration_lst_consumes_more_of_the_pool() {
    let train: Vec<Example> = (0..10)
        .map(|i| Example {
            pair: EncodedPair {
                ids_a: vec![i].into(),
                ids_b: vec![i].into(),
            },
            label: i % 2 == 0,
        })
        .collect();
    let unlabeled: Vec<EncodedPair> = (10..50)
        .map(|i| EncodedPair {
            ids_a: vec![i].into(),
            ids_b: vec![i].into(),
        })
        .collect();
    let mut cfg = tiny_lst();
    cfg.iterations = 3;
    let proto = StubMatcher {
        trained_on: 0,
        threshold: 0.5,
    };
    let (_, report) =
        lightweight_self_train(&proto, &train, &train.clone(), &unlabeled, None, &cfg);
    assert_eq!(report.pseudo_selected.len(), 3);
    // Each iteration selects 20% of the shrinking pool: 8, then ~6, then ~5.
    assert!(report.pseudo_selected[0] > report.pseudo_selected[2]);
}
