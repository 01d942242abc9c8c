//! Uncertainty-driven *active labeling* — the dual of §4.2's pseudo-label
//! selection, and the extension the paper's related-work section points at
//! (Kasai et al., "Low-resource Deep Entity Resolution with Transfer and
//! Active Learning"). Where self-training consumes the *least* uncertain
//! unlabeled samples (safe pseudo-labels), an annotation budget is best
//! spent on the *most* uncertain ones.

use crate::encode::{EncodedPair, Example};
use crate::trainer::TunableMatcher;
use em_lm::mc_dropout::mean_std;

/// Ranking criterion for the labeling budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquisitionStrategy {
    /// Highest MC-Dropout std first (epistemic uncertainty).
    Uncertainty,
    /// Closest to the decision boundary first (|p − 0.5| ascending).
    Margin,
}

/// Pick `budget` pool indices to send to an annotator.
pub fn select_for_labeling<M: TunableMatcher>(
    model: &mut M,
    pool: &[EncodedPair],
    budget: usize,
    strategy: AcquisitionStrategy,
    passes: usize,
) -> Vec<usize> {
    if pool.is_empty() || budget == 0 {
        return Vec::new();
    }
    let scores: Vec<f32> = match strategy {
        AcquisitionStrategy::Uncertainty => {
            let per_pass = model.stochastic_proba(pool, passes);
            let (_, std) = mean_std(&per_pass);
            std
        }
        AcquisitionStrategy::Margin => model
            .predict_proba(pool)
            .iter()
            .map(|&p| -(p - 0.5).abs())
            .collect(),
    };
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order.truncate(budget.min(pool.len()));
    order
}

/// One round of simulated active learning: select, reveal gold labels,
/// retrain on the grown train set. Returns the selected indices and the new
/// validation F1 (the caller owns split bookkeeping).
#[allow(clippy::too_many_arguments)]
pub fn active_round<M: TunableMatcher>(
    model: &mut M,
    train: &mut Vec<Example>,
    pool: &mut Vec<EncodedPair>,
    pool_gold: &mut Vec<bool>,
    valid: &[Example],
    budget: usize,
    strategy: AcquisitionStrategy,
    cfg: &crate::trainer::TrainCfg,
) -> (usize, f64) {
    let picked = select_for_labeling(model, pool, budget, strategy, 5);
    // Reveal labels (simulated annotator) and move into the train set.
    let mut drop = vec![false; pool.len()];
    for &i in &picked {
        train.push(Example {
            pair: pool[i].clone(),
            label: pool_gold[i],
        });
        drop[i] = true;
    }
    let mut keep = drop.iter().copied();
    // lint:allow(unwrap) — the mask was built to pool.len()
    pool.retain(|_| !keep.next().unwrap());
    let mut keep = drop.iter().copied();
    // lint:allow(unwrap) — the mask was built to pool.len()
    pool_gold.retain(|_| !keep.next().unwrap());

    let mut fresh = model.fresh(cfg.seed ^ 0xAC71);
    fresh.train(train, valid, cfg, None);
    *model = fresh;
    let f1 = crate::trainer::evaluate(model, valid).f1;
    (picked.len(), f1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{PruneCfg, TrainCfg, TrainReport};

    /// Stub: per-index mean probability and noise level.
    struct Stub {
        mean: Vec<f32>,
        noise: Vec<f32>,
        flip: std::cell::Cell<bool>,
    }

    impl TunableMatcher for Stub {
        fn fresh(&self, _: u64) -> Self {
            Stub {
                mean: self.mean.clone(),
                noise: self.noise.clone(),
                flip: std::cell::Cell::new(false),
            }
        }
        fn train(
            &mut self,
            _: &[Example],
            _: &[Example],
            _: &TrainCfg,
            _: Option<&PruneCfg>,
        ) -> TrainReport {
            Default::default()
        }
        fn predict_proba(&mut self, pairs: &[EncodedPair]) -> Vec<f32> {
            pairs.iter().map(|p| self.mean[p.ids_a[0]]).collect()
        }
        fn stochastic_proba(&mut self, pairs: &[EncodedPair], passes: usize) -> Vec<Vec<f32>> {
            (0..passes)
                .map(|_| {
                    self.flip.set(!self.flip.get());
                    let sign = if self.flip.get() { 1.0 } else { -1.0 };
                    pairs
                        .iter()
                        .map(|p| {
                            let i = p.ids_a[0];
                            (self.mean[i] + sign * self.noise[i]).clamp(0.0, 1.0)
                        })
                        .collect()
                })
                .collect()
        }
        fn set_threshold(&mut self, _: f32) {}
        fn embed(&mut self, pairs: &[EncodedPair]) -> Vec<Vec<f32>> {
            pairs.iter().map(|p| vec![self.mean[p.ids_a[0]]]).collect()
        }
    }

    fn pool(n: usize) -> Vec<EncodedPair> {
        (0..n)
            .map(|i| EncodedPair {
                ids_a: vec![i].into(),
                ids_b: vec![i].into(),
            })
            .collect()
    }

    #[test]
    fn uncertainty_acquisition_prefers_noisy_samples() {
        let mut stub = Stub {
            mean: vec![0.9, 0.5, 0.1, 0.5],
            noise: vec![0.0, 0.3, 0.0, 0.3],
            flip: std::cell::Cell::new(false),
        };
        let picked =
            select_for_labeling(&mut stub, &pool(4), 2, AcquisitionStrategy::Uncertainty, 4);
        let mut p = picked.clone();
        p.sort_unstable();
        assert_eq!(p, vec![1, 3]);
    }

    #[test]
    fn margin_acquisition_prefers_boundary_samples() {
        let mut stub = Stub {
            mean: vec![0.9, 0.52, 0.05, 0.48],
            noise: vec![0.0; 4],
            flip: std::cell::Cell::new(false),
        };
        let picked = select_for_labeling(&mut stub, &pool(4), 2, AcquisitionStrategy::Margin, 1);
        let mut p = picked.clone();
        p.sort_unstable();
        assert_eq!(p, vec![1, 3]);
    }

    #[test]
    fn active_round_moves_samples_from_pool_to_train() {
        let mut stub = Stub {
            mean: (0..10).map(|i| i as f32 / 10.0).collect(),
            noise: vec![0.1; 10],
            flip: std::cell::Cell::new(false),
        };
        let mut train = Vec::new();
        let mut p = pool(10);
        let mut gold: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let valid: Vec<Example> = (0..4)
            .map(|i| Example {
                pair: EncodedPair {
                    ids_a: vec![i].into(),
                    ids_b: vec![i].into(),
                },
                label: true,
            })
            .collect();
        let cfg = TrainCfg {
            epochs: 1,
            ..Default::default()
        };
        let (n, f1) = active_round(
            &mut stub,
            &mut train,
            &mut p,
            &mut gold,
            &valid,
            3,
            AcquisitionStrategy::Uncertainty,
            &cfg,
        );
        assert_eq!(n, 3);
        assert_eq!(train.len(), 3);
        assert_eq!(p.len(), 7);
        assert_eq!(gold.len(), 7);
        assert!(f1.is_finite());
    }

    #[test]
    fn zero_budget_or_empty_pool_selects_nothing() {
        let mut stub = Stub {
            mean: vec![0.5],
            noise: vec![0.1],
            flip: std::cell::Cell::new(false),
        };
        assert!(
            select_for_labeling(&mut stub, &pool(1), 0, AcquisitionStrategy::Margin, 1).is_empty()
        );
        assert!(select_for_labeling(&mut stub, &[], 3, AcquisitionStrategy::Margin, 1).is_empty());
    }
}
