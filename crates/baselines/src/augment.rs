//! Data-augmentation operators over tokenized pairs, in the spirit of
//! Ditto's DA suite (token deletion/swap, span shuffle, attribute-ish
//! drops) and the augmentation pool Rotom selects from.

use promptem::encode::{EncodedPair, Example};
use rand::seq::SliceRandom;
use rand::Rng;

/// An augmentation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AugmentOp {
    /// Delete ~10% of tokens from each side.
    TokenDelete,
    /// Swap two adjacent tokens on each side.
    TokenSwap,
    /// Shuffle a short span in place.
    SpanShuffle,
    /// Swap the two sides (matching is symmetric).
    SideSwap,
}

impl AugmentOp {
    /// Every operator, for uniform sampling.
    pub const ALL: [AugmentOp; 4] = [
        AugmentOp::TokenDelete,
        AugmentOp::TokenSwap,
        AugmentOp::SpanShuffle,
        AugmentOp::SideSwap,
    ];
}

fn delete_tokens(ids: &[usize], p: f64, rng: &mut impl Rng) -> Vec<usize> {
    if ids.len() <= 2 {
        return ids.to_vec();
    }
    let kept: Vec<usize> = ids.iter().copied().filter(|_| !rng.gen_bool(p)).collect();
    if kept.is_empty() {
        ids.to_vec()
    } else {
        kept
    }
}

fn swap_adjacent(ids: &[usize], rng: &mut impl Rng) -> Vec<usize> {
    let mut out = ids.to_vec();
    if out.len() >= 2 {
        let i = rng.gen_range(0..out.len() - 1);
        out.swap(i, i + 1);
    }
    out
}

fn shuffle_span(ids: &[usize], rng: &mut impl Rng) -> Vec<usize> {
    let mut out = ids.to_vec();
    if out.len() >= 4 {
        let len = (out.len() / 3).max(2);
        let start = rng.gen_range(0..out.len() - len);
        out[start..start + len].shuffle(rng);
    }
    out
}

/// Apply one operator to a pair (label is preserved — all ops are
/// label-invariant for matching).
pub fn apply(op: AugmentOp, pair: &EncodedPair, rng: &mut impl Rng) -> EncodedPair {
    match op {
        AugmentOp::TokenDelete => EncodedPair {
            ids_a: delete_tokens(&pair.ids_a, 0.1, rng).into(),
            ids_b: delete_tokens(&pair.ids_b, 0.1, rng).into(),
        },
        AugmentOp::TokenSwap => EncodedPair {
            ids_a: swap_adjacent(&pair.ids_a, rng).into(),
            ids_b: swap_adjacent(&pair.ids_b, rng).into(),
        },
        AugmentOp::SpanShuffle => EncodedPair {
            ids_a: shuffle_span(&pair.ids_a, rng).into(),
            ids_b: shuffle_span(&pair.ids_b, rng).into(),
        },
        AugmentOp::SideSwap => EncodedPair {
            ids_a: pair.ids_b.clone(),
            ids_b: pair.ids_a.clone(),
        },
    }
}

/// Generate `k` augmented copies of each example with randomly chosen ops.
pub fn augment_set(examples: &[Example], k: usize, rng: &mut impl Rng) -> Vec<Example> {
    let mut out = Vec::with_capacity(examples.len() * k);
    for ex in examples {
        for _ in 0..k {
            let op = AugmentOp::ALL[rng.gen_range(0..AugmentOp::ALL.len())];
            out.push(Example {
                pair: apply(op, &ex.pair, rng),
                label: ex.label,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair() -> EncodedPair {
        EncodedPair {
            ids_a: (10..22).collect(),
            ids_b: (30..40).collect(),
        }
    }

    #[test]
    fn side_swap_swaps() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = pair();
        let a = apply(AugmentOp::SideSwap, &p, &mut rng);
        assert_eq!(a.ids_a, p.ids_b);
        assert_eq!(a.ids_b, p.ids_a);
    }

    #[test]
    fn token_delete_never_empties() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let a = apply(AugmentOp::TokenDelete, &pair(), &mut rng);
            assert!(!a.ids_a.is_empty() && !a.ids_b.is_empty());
        }
    }

    #[test]
    fn swap_preserves_multiset() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = pair();
        for op in [AugmentOp::TokenSwap, AugmentOp::SpanShuffle] {
            let a = apply(op, &p, &mut rng);
            let mut x = a.ids_a.to_vec();
            let mut y = p.ids_a.to_vec();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y, "{op:?} changed the token multiset");
        }
    }

    #[test]
    fn augment_set_scales_and_keeps_labels() {
        let mut rng = StdRng::seed_from_u64(4);
        let exs = vec![
            Example {
                pair: pair(),
                label: true,
            },
            Example {
                pair: pair(),
                label: false,
            },
        ];
        let aug = augment_set(&exs, 3, &mut rng);
        assert_eq!(aug.len(), 6);
        assert_eq!(aug.iter().filter(|e| e.label).count(), 3);
    }
}
