//! Property-based tests of the PromptEM algorithm components: Eq. 2 / Eq. 3
//! top-k selection invariants, MC-EL2N bounds, threshold calibration.

use promptem::encode::{EncodedPair, Example};
use promptem::pruning::prune_lowest;
use promptem::pseudo::{pseudo_label_quality, PseudoLabel};
use promptem::trainer::calibrate_threshold;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prune_lowest_drops_exactly_the_floor_fraction(
        scores in proptest::collection::vec(0.0f32..2.0, 1..60),
        e_r in 0.0f64..0.9,
    ) {
        let n = scores.len();
        let examples: Vec<Example> = (0..n)
            .map(|i| Example {
                pair: EncodedPair { ids_a: vec![i].into(), ids_b: vec![i].into() },
                label: i % 2 == 0,
            })
            .collect();
        let (kept, dropped) = prune_lowest(examples, &scores, e_r);
        prop_assert_eq!(dropped, ((n as f64) * e_r).floor() as usize);
        prop_assert_eq!(kept.len() + dropped, n);
        // Every kept example's score is >= every dropped score... verify via
        // threshold: max dropped <= min kept (up to ties).
        if dropped > 0 && !kept.is_empty() {
            let kept_ids: std::collections::HashSet<usize> =
                kept.iter().map(|e| e.pair.ids_a[0]).collect();
            let min_kept = kept
                .iter()
                .map(|e| scores[e.pair.ids_a[0]])
                .fold(f32::INFINITY, f32::min);
            let max_dropped = (0..n)
                .filter(|i| !kept_ids.contains(i))
                .map(|i| scores[i])
                .fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(max_dropped <= min_kept + 1e-6);
        }
    }

    #[test]
    fn calibrated_threshold_is_optimal_among_candidates(
        probs in proptest::collection::vec(0.0f32..1.0, 2..40),
        gold_bits in proptest::collection::vec(any::<bool>(), 2..40),
    ) {
        let n = probs.len().min(gold_bits.len());
        let probs = &probs[..n];
        let gold = &gold_bits[..n];
        let t = calibrate_threshold(probs, gold);
        let f1_at = |thr: f32| {
            let pred: Vec<bool> = probs.iter().map(|&p| p > thr).collect();
            em_data::Confusion::from_pairs(&pred, gold).f1()
        };
        let best = f1_at(t);
        // No grid threshold beats the calibrated one.
        for k in 0..=20 {
            let thr = k as f32 / 20.0;
            prop_assert!(f1_at(thr) <= best + 1e-9, "grid {thr} beats calibrated {t}");
        }
    }

    #[test]
    fn pseudo_quality_bounds(
        gold_bits in proptest::collection::vec(any::<bool>(), 1..40),
        labels in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let n = gold_bits.len().min(labels.len());
        let selected: Vec<PseudoLabel> = (0..n)
            .map(|i| PseudoLabel { index: i, label: labels[i] })
            .collect();
        let (tpr, tnr) = pseudo_label_quality(&selected, &gold_bits[..n]);
        prop_assert!((0.0..=1.0).contains(&tpr));
        prop_assert!((0.0..=1.0).contains(&tnr));
    }

    #[test]
    fn perfect_pseudo_labels_have_perfect_quality(
        gold_bits in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let selected: Vec<PseudoLabel> = gold_bits
            .iter()
            .enumerate()
            .map(|(i, &g)| PseudoLabel { index: i, label: g })
            .collect();
        let (tpr, tnr) = pseudo_label_quality(&selected, &gold_bits);
        prop_assert_eq!(tpr, 1.0);
        prop_assert_eq!(tnr, 1.0);
    }
}
