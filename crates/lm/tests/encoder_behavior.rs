//! Behavioral tests of the encoder + identity-head initialization: the
//! properties the PromptEM pipeline depends on, checked at the LM level.

use em_lm::{LmConfig, PretrainCfg, PretrainedLm};
use em_nn::{Tape, TapeExec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_corpus() -> Vec<String> {
    let names = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
    let mut corpus = Vec::new();
    for (i, a) in names.iter().enumerate() {
        for (j, b) in names.iter().enumerate() {
            let w = if i == j { "similar" } else { "different" };
            corpus.push(format!("{a} store {b} store they are {w}"));
        }
    }
    corpus
}

fn pretrained() -> PretrainedLm {
    PretrainedLm::pretrain(
        &tiny_corpus(),
        |v| LmConfig {
            vocab: v,
            d_model: 32,
            n_layers: 2,
            n_heads: 4,
            d_ff: 64,
            max_len: 16,
            dropout: 0.1,
        },
        // Budget and seed are calibrated to the vendored xoshiro rand
        // stream (crates/compat/rand): discrimination emerges by ~1200
        // steps at this seed and holds through the epoch cap.
        &PretrainCfg {
            max_steps: 1600,
            ..Default::default()
        },
        42,
    )
}

fn p_match(lm: &PretrainedLm, text: &str) -> f32 {
    let mut ids = vec![em_lm::tokenizer::CLS];
    ids.extend(lm.tokenizer.encode(text));
    ids.push(em_lm::tokenizer::MASK);
    ids.push(em_lm::tokenizer::SEP);
    let mask_pos = ids.len() - 2;
    let mut rng = StdRng::seed_from_u64(1);
    let mut tape = Tape::inference();
    let h = lm.encoder.forward(&mut tape, &lm.store, &ids, &mut rng);
    let hm = tape.slice_rows(h, mask_pos, 1);
    let logits = lm.mlm.logits(&mut tape, &lm.store, &lm.encoder, hm);
    let probs = tape.softmax_rows(logits);
    let pm = tape.value(probs);
    let get = |w: &str| lm.tokenizer.id_of(w).map(|i| pm.get(0, i)).unwrap_or(0.0);
    let y = get("similar");
    let n = get("different");
    y / (y + n).max(1e-9)
}

#[test]
fn pretrained_mlm_discriminates_same_from_different() {
    let lm = pretrained();
    let same = p_match(&lm, "alpha store alpha store they are");
    let diff = p_match(&lm, "alpha store beta store they are");
    assert!(
        same > diff + 0.1,
        "cloze discrimination did not emerge: same {same:.3} vs diff {diff:.3}"
    );
}

#[test]
fn discrimination_generalizes_across_names() {
    let lm = pretrained();
    let mut wins = 0;
    let names = ["beta", "gamma", "delta", "epsilon"];
    for (i, a) in names.iter().enumerate() {
        let same = p_match(&lm, &format!("{a} store {a} store they are"));
        let diff = p_match(
            &lm,
            &format!("{a} store {} store they are", names[(i + 1) % 4]),
        );
        if same > diff {
            wins += 1;
        }
    }
    assert!(
        wins >= 3,
        "discrimination failed on {}/4 name pairs",
        4 - wins
    );
}

#[test]
fn saved_and_reloaded_model_keeps_behavior() {
    let lm = pretrained();
    let mut buf = Vec::new();
    em_lm::io::write_model(&lm, &mut buf).unwrap();
    let loaded = em_lm::io::read_model(&mut buf.as_slice()).unwrap();
    let a = p_match(&lm, "gamma store gamma store they are");
    let b = p_match(&loaded, "gamma store gamma store they are");
    assert!(
        (a - b).abs() < 1e-6,
        "behavior changed after reload: {a} vs {b}"
    );
}

#[test]
fn identity_head_is_seeded_in_every_layer() {
    // Construct an untrained model and verify the Wq/Wk diagonals carry the
    // +1 overlay on head 0.
    let corpus = tiny_corpus();
    let lm = PretrainedLm::random(&corpus, LmConfig::tiny, 3);
    for layer in &lm.encoder.layers {
        for w in [layer.attn.wq.w, layer.attn.wk.w] {
            let m = lm.store.value(w);
            let mut diag_mass = 0.0;
            for i in 0..layer.attn.d_head {
                diag_mass += m.get(i, i);
            }
            // Xavier init is bounded by ~0.3 per entry; the overlay adds
            // exactly 1.0 per diagonal entry of head 0.
            assert!(
                diag_mass > 0.5 * layer.attn.d_head as f32,
                "identity overlay missing ({} diag mass {diag_mass})",
                lm.store.name(w)
            );
        }
    }
}
