//! Pseudo-label selection strategies (paper §4.2 and Table 5):
//! uncertainty-aware (MC-Dropout, the PromptEM choice), confidence-based,
//! and clustering-based.

use crate::encode::{EncodedPair, Example};
use crate::trainer::TunableMatcher;
use em_lm::mc_dropout::mean_std;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// The selection strategies compared in §5.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// Eq. 2: take the `u_r` fraction with the *least* MC-Dropout
    /// uncertainty (std over stochastic passes).
    Uncertainty,
    /// Take the top fraction by prediction confidence `max(p, 1-p)`.
    Confidence,
    /// k-means (k=2) on pair embeddings; take the samples closest to their
    /// cluster centroid (following Dopierre et al.).
    Clustering,
}

/// A selected pseudo-labeled example: index into the unlabeled pool plus
/// the teacher-assigned label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PseudoLabel {
    /// Index into the unlabeled pool.
    pub index: usize,
    /// The teacher-assigned label.
    pub label: bool,
}

/// Configuration of pseudo-label selection.
#[derive(Debug, Clone)]
pub struct PseudoCfg {
    /// Which selection strategy to use.
    pub strategy: SelectionStrategy,
    /// `u_r`: fraction of the unlabeled pool to select (§4.2, Eq. 2).
    pub u_r: f64,
    /// MC-Dropout passes (10 in the paper).
    pub passes: usize,
    /// RNG seed (clustering initialization).
    pub seed: u64,
}

impl Default for PseudoCfg {
    fn default() -> Self {
        PseudoCfg {
            strategy: SelectionStrategy::Uncertainty,
            u_r: 0.15,
            passes: 10,
            seed: 11,
        }
    }
}

/// Select pseudo-labels from the unlabeled pool using the teacher model.
pub fn select_pseudo_labels<M: TunableMatcher>(
    teacher: &mut M,
    unlabeled: &[EncodedPair],
    cfg: &PseudoCfg,
) -> Vec<PseudoLabel> {
    if unlabeled.is_empty() {
        return Vec::new();
    }
    let n_p = ((unlabeled.len() as f64) * cfg.u_r).round().max(1.0) as usize;
    let n_p = n_p.min(unlabeled.len());
    match cfg.strategy {
        SelectionStrategy::Uncertainty => {
            // Child spans split the former single-blob phase: MC-Dropout
            // scoring dominates, so the op-profiler flushes inside the
            // scoring span to pin its tape ops to that child.
            let per_pass = {
                let _span = em_obs::span(em_obs::names::SPAN_PSEUDO_SCORE);
                let per_pass = teacher.stochastic_proba(unlabeled, cfg.passes);
                em_nn::tape::flush_op_stats();
                per_pass
            };
            let (mean, std) = {
                let _span = em_obs::span(em_obs::names::SPAN_PSEUDO_UNCERTAINTY);
                let (mean, std) = mean_std(&per_pass);
                if em_obs::enabled() {
                    let scores: Vec<f64> = std.iter().map(|&v| v as f64).collect();
                    em_obs::unc_hist("pseudo_uncertainty", &scores, 16);
                }
                (mean, std)
            };
            // Top-N_P by (negative) uncertainty — Eq. 2.
            let _span = em_obs::span(em_obs::names::SPAN_PSEUDO_RANK);
            let order = argsort(&std);
            order
                .into_iter()
                .take(n_p)
                .map(|i| PseudoLabel {
                    index: i,
                    label: mean[i] > 0.5,
                })
                .collect()
        }
        SelectionStrategy::Confidence => {
            let probs = teacher.predict_proba(unlabeled);
            let conf: Vec<f32> = probs.iter().map(|&p| p.max(1.0 - p)).collect();
            let mut order = argsort(&conf);
            order.reverse(); // highest confidence first
            order
                .into_iter()
                .take(n_p)
                .map(|i| PseudoLabel {
                    index: i,
                    label: probs[i] > 0.5,
                })
                .collect()
        }
        SelectionStrategy::Clustering => {
            let embeddings = teacher.embed(unlabeled);
            let probs = teacher.predict_proba(unlabeled);
            let assignment = kmeans2(&embeddings, 20, cfg.seed);
            // Distance to own centroid; closest samples are most prototypical.
            let dist: Vec<f32> = embeddings
                .iter()
                .zip(&assignment.labels)
                .map(|(e, &c)| l2(e, &assignment.centroids[c]))
                .collect();
            let order = argsort(&dist);
            order
                .into_iter()
                .take(n_p)
                .map(|i| PseudoLabel {
                    index: i,
                    label: probs[i] > 0.5,
                })
                .collect()
        }
    }
}

/// Materialize selected pseudo-labels as training examples and report which
/// pool indices were consumed (Algorithm 1 lines 6–8: D_P moves from D_U
/// into D_L).
pub fn apply_pseudo_labels(
    unlabeled: &[EncodedPair],
    selected: &[PseudoLabel],
) -> (Vec<Example>, Vec<usize>) {
    let examples = selected
        .iter()
        .map(|pl| Example {
            pair: unlabeled[pl.index].clone(),
            label: pl.label,
        })
        .collect();
    let consumed = selected.iter().map(|pl| pl.index).collect();
    (examples, consumed)
}

/// Audit pseudo-label quality against gold labels: returns (TPR, TNR) as in
/// §5.5 — TPR = fraction of *matched* selected pairs labeled correctly,
/// TNR = fraction of *mismatched* selected pairs labeled correctly.
pub fn pseudo_label_quality(selected: &[PseudoLabel], gold: &[bool]) -> (f64, f64) {
    let (mut tp, mut fn_, mut tn, mut fp) = (0usize, 0usize, 0usize, 0usize);
    for pl in selected {
        match (gold[pl.index], pl.label) {
            (true, true) => tp += 1,
            (true, false) => fn_ += 1,
            (false, false) => tn += 1,
            (false, true) => fp += 1,
        }
    }
    let tpr = if tp + fn_ == 0 {
        1.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let tnr = if tn + fp == 0 {
        1.0
    } else {
        tn as f64 / (tn + fp) as f64
    };
    (tpr, tnr)
}

fn argsort(xs: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| {
        xs[a]
            .partial_cmp(&xs[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

fn l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

struct KmeansResult {
    labels: Vec<usize>,
    centroids: Vec<Vec<f32>>,
}

/// Tiny k-means with k=2 and deterministic seeding.
fn kmeans2(points: &[Vec<f32>], iters: usize, seed: u64) -> KmeansResult {
    let n = points.len();
    let d = points[0].len();
    let mut rng = StdRng::seed_from_u64(seed);
    let first = rng.gen_range(0..n);
    // Second seed: the point farthest from the first (k-means++-ish).
    let second = (0..n)
        .max_by(|&a, &b| {
            l2(&points[a], &points[first])
                .partial_cmp(&l2(&points[b], &points[first]))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or((first + 1) % n);
    let mut centroids = vec![points[first].clone(), points[second].clone()];
    let mut labels = vec![0usize; n];
    for _ in 0..iters {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let c = if l2(p, &centroids[0]) <= l2(p, &centroids[1]) {
                0
            } else {
                1
            };
            if labels[i] != c {
                labels[i] = c;
                changed = true;
            }
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<&Vec<f32>> = points
                .iter()
                .zip(&labels)
                .filter(|(_, &l)| l == c)
                .map(|(p, _)| p)
                .collect();
            if members.is_empty() {
                continue;
            }
            let mut mean = vec![0.0f32; d];
            for m in &members {
                for (o, &v) in mean.iter_mut().zip(m.iter()) {
                    *o += v;
                }
            }
            for o in &mut mean {
                *o /= members.len() as f32;
            }
            *centroid = mean;
        }
        if !changed {
            break;
        }
    }
    KmeansResult { labels, centroids }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncodedPair;
    use crate::trainer::{PruneCfg, TrainCfg, TrainReport};

    /// Stub teacher: per-index mean probability and per-index noise scale.
    struct Stub {
        mean: Vec<f32>,
        noise: Vec<f32>,
        tick: std::cell::Cell<u64>,
    }

    impl Stub {
        fn new(mean: Vec<f32>, noise: Vec<f32>) -> Self {
            Stub {
                mean,
                noise,
                tick: std::cell::Cell::new(0),
            }
        }
    }

    impl TunableMatcher for Stub {
        fn fresh(&self, _: u64) -> Self {
            Stub::new(self.mean.clone(), self.noise.clone())
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
                    self.tick.set(self.tick.get() + 1);
                    let sign = if self.tick.get().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
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
        fn set_threshold(&mut self, _t: f32) {}
        fn embed(&mut self, pairs: &[EncodedPair]) -> Vec<Vec<f32>> {
            pairs
                .iter()
                .map(|p| vec![self.mean[p.ids_a[0]], 0.0])
                .collect()
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
    fn uncertainty_picks_least_noisy() {
        // Samples 0..3 are stable, 4..7 noisy.
        let mean = vec![0.9, 0.1, 0.8, 0.2, 0.5, 0.5, 0.6, 0.4];
        let noise = vec![0.01, 0.01, 0.01, 0.01, 0.4, 0.4, 0.4, 0.4];
        let mut stub = Stub::new(mean, noise);
        let cfg = PseudoCfg {
            u_r: 0.5,
            ..Default::default()
        };
        let sel = select_pseudo_labels(&mut stub, &pool(8), &cfg);
        assert_eq!(sel.len(), 4);
        let idx: Vec<usize> = sel.iter().map(|p| p.index).collect();
        for i in idx {
            assert!(i < 4, "picked a noisy sample {i}");
        }
        // Labels follow the mean prediction.
        for pl in &sel {
            assert_eq!(pl.label, [true, false, true, false][pl.index]);
        }
    }

    #[test]
    fn confidence_picks_extreme_probabilities() {
        let mean = vec![0.99, 0.51, 0.49, 0.01];
        let noise = vec![0.0; 4];
        let mut stub = Stub::new(mean, noise);
        let cfg = PseudoCfg {
            strategy: SelectionStrategy::Confidence,
            u_r: 0.5,
            ..Default::default()
        };
        let sel = select_pseudo_labels(&mut stub, &pool(4), &cfg);
        let mut idx: Vec<usize> = sel.iter().map(|p| p.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 3]);
    }

    #[test]
    fn clustering_selects_prototypical_points() {
        // Two tight clusters around 0.1 and 0.9, plus two outliers at 0.5.
        let mean = vec![0.1, 0.12, 0.9, 0.88, 0.5, 0.52];
        let noise = vec![0.0; 6];
        let mut stub = Stub::new(mean, noise);
        let cfg = PseudoCfg {
            strategy: SelectionStrategy::Clustering,
            u_r: 0.67,
            ..Default::default()
        };
        let sel = select_pseudo_labels(&mut stub, &pool(6), &cfg);
        let idx: Vec<usize> = sel.iter().map(|p| p.index).collect();
        assert!(
            !idx.contains(&4) || !idx.contains(&5),
            "both outliers selected: {idx:?}"
        );
    }

    #[test]
    fn apply_moves_examples_with_teacher_labels() {
        let u = pool(5);
        let sel = vec![
            PseudoLabel {
                index: 3,
                label: true,
            },
            PseudoLabel {
                index: 0,
                label: false,
            },
        ];
        let (exs, consumed) = apply_pseudo_labels(&u, &sel);
        assert_eq!(exs.len(), 2);
        assert_eq!(*exs[0].pair.ids_a, [3]);
        assert!(exs[0].label);
        assert_eq!(consumed, vec![3, 0]);
    }

    #[test]
    fn quality_metrics_match_definitions() {
        let gold = vec![true, true, false, false];
        let sel = vec![
            PseudoLabel {
                index: 0,
                label: true,
            }, // TP
            PseudoLabel {
                index: 1,
                label: false,
            }, // FN
            PseudoLabel {
                index: 2,
                label: false,
            }, // TN
            PseudoLabel {
                index: 3,
                label: true,
            }, // FP
        ];
        let (tpr, tnr) = pseudo_label_quality(&sel, &gold);
        assert!((tpr - 0.5).abs() < 1e-12);
        assert!((tnr - 0.5).abs() < 1e-12);
    }

    #[test]
    fn u_r_controls_selection_size() {
        let mut stub = Stub::new(vec![0.5; 20], vec![0.0; 20]);
        for (u_r, expect) in [(0.1, 2), (0.25, 5), (1.0, 20)] {
            let cfg = PseudoCfg {
                u_r,
                ..Default::default()
            };
            let sel = select_pseudo_labels(&mut stub, &pool(20), &cfg);
            assert_eq!(sel.len(), expect);
        }
    }

    #[test]
    fn empty_pool_returns_nothing() {
        let mut stub = Stub::new(vec![], vec![]);
        let sel = select_pseudo_labels(&mut stub, &[], &PseudoCfg::default());
        assert!(sel.is_empty());
    }
}
