//! Shared test fixtures: a tiny pretrained backbone and a linearly
//! separable toy matching task. Compiled only for tests within this crate
//! and exported for integration tests behind the `testutil` feature-less
//! path (it is tiny and has no extra dependencies).

use crate::encode::{EncodedPair, Example};
use em_lm::{LmConfig, PretrainCfg, PretrainedLm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A corpus that covers the prompt glue words and label words plus a small
/// content vocabulary of paired "entities".
pub fn toy_corpus() -> Vec<String> {
    let mut corpus = Vec::new();
    let names = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ];
    for (i, a) in names.iter().enumerate() {
        for (j, b) in names.iter().enumerate() {
            if (i + j) % 3 == 0 {
                corpus.push(format!("[COL] name [VAL] {a} shop {b}"));
            }
        }
    }
    // Dense distant-supervision statements over name pairs: identical names
    // phrased with positive relation words, distinct names with negative
    // ones — the toy equivalent of the corpus builder's heuristics.
    let pos = ["matched", "similar", "relevant"];
    let neg = ["mismatched", "different", "irrelevant"];
    for (i, a) in names.iter().enumerate() {
        for (j, b) in names.iter().enumerate() {
            let w = if i == j {
                pos[(i + j) % 3]
            } else {
                neg[(i + j) % 3]
            };
            if i == j || (i + 2 * j) % 4 == 0 {
                corpus.push(format!("{a} shop {b} shop they are {w}"));
                corpus.push(format!("{a} shop is {w} to {b} shop"));
            }
        }
    }
    corpus
}

/// A pretrained tiny backbone shared by tests. Built once per process: the
/// configuration is the smallest one at which the MLM reliably learns the
/// cloze-style pair discrimination prompt-tuning relies on.
pub fn tiny_backbone() -> Arc<PretrainedLm> {
    static BACKBONE: std::sync::OnceLock<Arc<PretrainedLm>> = std::sync::OnceLock::new();
    BACKBONE
        .get_or_init(|| {
            let corpus = toy_corpus();
            Arc::new(PretrainedLm::pretrain(
                &corpus,
                |v| LmConfig {
                    vocab: v,
                    d_model: 32,
                    n_layers: 2,
                    n_heads: 4,
                    d_ff: 64,
                    max_len: 24,
                    dropout: 0.1,
                },
                &PretrainCfg {
                    max_steps: 1500,
                    ..Default::default()
                },
                0xBACB0E,
            ))
        })
        .clone()
}

/// A toy matching task: a pair matches iff both sides mention the same
/// entity name. Returns (train, valid).
pub fn toy_examples(lm: &PretrainedLm, n: usize, seed: u64) -> (Vec<Example>, Vec<Example>) {
    let names = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all = Vec::with_capacity(n);
    for k in 0..n {
        let i = rng.gen_range(0..names.len());
        let matched = k % 2 == 0;
        let j = if matched {
            i
        } else {
            (i + 1 + rng.gen_range(0..names.len() - 1)) % names.len()
        };
        let a = lm
            .tokenizer
            .encode(&format!("[COL] name [VAL] {} shop", names[i]));
        let b = lm.tokenizer.encode(&format!("{} shop", names[j]));
        all.push(Example {
            pair: EncodedPair {
                ids_a: a.into(),
                ids_b: b.into(),
            },
            label: i == j,
        });
    }
    let split = (n * 3) / 4;
    let valid = all.split_off(split);
    (all, valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_task_is_balanced_and_consistent() {
        let lm = tiny_backbone();
        let (train, valid) = toy_examples(&lm, 40, 9);
        assert_eq!(train.len() + valid.len(), 40);
        let pos = train.iter().filter(|e| e.label).count();
        assert!(
            pos > 5 && pos < train.len() - 5,
            "degenerate balance: {pos}"
        );
    }

    #[test]
    fn backbone_vocabulary_covers_label_words() {
        let lm = tiny_backbone();
        for w in [
            "matched",
            "similar",
            "relevant",
            "mismatched",
            "different",
            "irrelevant",
        ] {
            assert!(lm.tokenizer.id_of(w).is_some(), "{w} missing");
        }
    }
}
