//! Dynamic data pruning via MC-EL2N (paper §4.3).
//!
//! EL2N (Paul et al.) scores a training example by the L2 norm of the error
//! vector `‖p(x) − y‖₂`; PromptEM stabilizes it by averaging over `n`
//! MC-Dropout stochastic passes:
//! `MC-EL2N(x, y) = (Σᵢ ‖Mᵢ(x) − y‖₂) / n`.
//! Examples with the *lowest* scores are the easy, already-learned ones and
//! are pruned (Eq. 3).

use crate::encode::{EncodedPair, Example};
use crate::trainer::TunableMatcher;

/// MC-EL2N scores for labeled examples. For a binary model emitting a
/// normalized match probability `p`, the per-pass error norm is
/// `‖(p, 1−p) − onehot(y)‖₂ = √2·|p − y|`.
pub fn mc_el2n<M: TunableMatcher>(model: &mut M, examples: &[Example], passes: usize) -> Vec<f32> {
    let pairs: Vec<EncodedPair> = examples.iter().map(|e| e.pair.clone()).collect();
    let per_pass = model.stochastic_proba(&pairs, passes);
    let mut scores = vec![0.0f32; examples.len()];
    for pass in &per_pass {
        for ((s, &p), ex) in scores.iter_mut().zip(pass).zip(examples) {
            let y = if ex.label { 1.0 } else { 0.0 };
            *s += std::f32::consts::SQRT_2 * (p - y).abs();
        }
    }
    for s in &mut scores {
        *s /= per_pass.len() as f32;
    }
    if em_obs::enabled() {
        let as_f64: Vec<f64> = scores.iter().map(|&v| v as f64).collect();
        em_obs::unc_hist("mc_el2n", &as_f64, 16);
    }
    scores
}

/// Eq. 3: drop the `e_r` fraction with the lowest scores; returns the kept
/// examples and the number dropped. Order of survivors is preserved.
pub fn prune_lowest(examples: Vec<Example>, scores: &[f32], e_r: f64) -> (Vec<Example>, usize) {
    assert_eq!(examples.len(), scores.len());
    let n_drop = ((examples.len() as f64) * e_r).floor() as usize;
    if n_drop == 0 {
        return (examples, 0);
    }
    // Find the threshold: the n_drop-th smallest score.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut drop = vec![false; scores.len()];
    for &i in order.iter().take(n_drop) {
        drop[i] = true;
    }
    let kept: Vec<Example> = examples
        .into_iter()
        .zip(drop.iter())
        .filter(|(_, &d)| !d)
        .map(|(e, _)| e)
        .collect();
    (kept, n_drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncodedPair;

    fn ex(label: bool, tag: usize) -> Example {
        Example {
            pair: EncodedPair {
                ids_a: vec![tag].into(),
                ids_b: vec![tag].into(),
            },
            label,
        }
    }

    /// A stub matcher returning fixed probabilities keyed by ids_a[0].
    struct Stub(Vec<f32>);
    impl TunableMatcher for Stub {
        fn fresh(&self, _: u64) -> Self {
            Stub(self.0.clone())
        }
        fn train(
            &mut self,
            _: &[Example],
            _: &[Example],
            _: &crate::trainer::TrainCfg,
            _: Option<&crate::trainer::PruneCfg>,
        ) -> crate::trainer::TrainReport {
            Default::default()
        }
        fn predict_proba(&mut self, pairs: &[EncodedPair]) -> Vec<f32> {
            pairs.iter().map(|p| self.0[p.ids_a[0]]).collect()
        }
        fn stochastic_proba(&mut self, pairs: &[EncodedPair], passes: usize) -> Vec<Vec<f32>> {
            (0..passes).map(|_| self.predict_proba(pairs)).collect()
        }
        fn set_threshold(&mut self, _t: f32) {}
        fn embed(&mut self, pairs: &[EncodedPair]) -> Vec<Vec<f32>> {
            pairs.iter().map(|p| vec![self.0[p.ids_a[0]]]).collect()
        }
    }

    #[test]
    fn el2n_is_low_for_confidently_correct_examples() {
        // probs: ex0 predicted 0.95 (label true: easy), ex1 predicted 0.6
        // (label true: medium), ex2 predicted 0.1 (label true: hard/wrong).
        let mut stub = Stub(vec![0.95, 0.6, 0.1]);
        let exs = vec![ex(true, 0), ex(true, 1), ex(true, 2)];
        let scores = mc_el2n(&mut stub, &exs, 3);
        assert!(scores[0] < scores[1] && scores[1] < scores[2], "{scores:?}");
        // Exact value: sqrt(2) * |0.95 - 1| = 0.0707…
        assert!((scores[0] - std::f32::consts::SQRT_2 * 0.05).abs() < 1e-5);
    }

    #[test]
    fn prune_drops_exactly_the_requested_fraction() {
        let exs: Vec<Example> = (0..10).map(|i| ex(true, i)).collect();
        let scores: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let (kept, dropped) = prune_lowest(exs, &scores, 0.3);
        assert_eq!(dropped, 3);
        assert_eq!(kept.len(), 7);
        // The three lowest-scored (ids 0,1,2) are gone; order preserved.
        let ids: Vec<usize> = kept.iter().map(|e| e.pair.ids_a[0]).collect();
        assert_eq!(ids, vec![3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn prune_zero_fraction_is_identity() {
        let exs: Vec<Example> = (0..5).map(|i| ex(false, i)).collect();
        let scores = vec![1.0; 5];
        let (kept, dropped) = prune_lowest(exs, &scores, 0.0);
        assert_eq!(dropped, 0);
        assert_eq!(kept.len(), 5);
    }

    #[test]
    fn prune_never_exceeds_fraction() {
        for n in [1usize, 3, 7, 100] {
            let exs: Vec<Example> = (0..n).map(|i| ex(true, i)).collect();
            let scores: Vec<f32> = (0..n).map(|i| (i % 13) as f32).collect();
            let (kept, dropped) = prune_lowest(exs, &scores, 0.5);
            assert_eq!(dropped, n / 2);
            assert_eq!(kept.len(), n - n / 2);
        }
    }
}
