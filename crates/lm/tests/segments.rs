//! `Tape::segment` lets the backward run a batch's examples on the pool.
//! Every parameter gradient must stay what a tape without segments gives,
//! bit for bit, at any thread count.

use em_lm::prompt::{LabelWords, PromptMode, PromptTemplate, TemplateId, Verbalizer};
use em_lm::{Encoder, LmConfig, MlmHead, Tokenizer};
use em_nn::{Matrix, ParamStore, Tape, TapeExec};
use em_obs::EventKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Run `f` with `threads` pool threads. The setting is process-wide, so
/// the tests here take turns.
fn at_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static POOL: Mutex<()> = Mutex::new(());
    let _turn = POOL.lock().unwrap_or_else(|e| e.into_inner());
    em_pool::set_threads(threads);
    let out = f();
    em_pool::set_threads(0);
    out
}

/// A prompt-tuning batch step's forward and backward, the way
/// `PromptEmModel`'s loss and `promptem::trainer::train_step` record it,
/// with or without one segment per example. Returns the bits of every
/// accumulated parameter gradient.
fn batch_grads(segmented: bool) -> Vec<Vec<u32>> {
    let tok = Tokenizer::fit(
        ["alpha beta gamma delta they are is to matched similar relevant mismatched different irrelevant"],
        1,
    );
    let mut rng = StdRng::seed_from_u64(3);
    let mut store = ParamStore::new();
    let enc = Encoder::new(&mut store, LmConfig::tiny(tok.vocab_size()), &mut rng);
    let mlm = MlmHead::new(&mut store, &enc, &mut rng);
    let tmpl = PromptTemplate::new(
        &mut store,
        &tok,
        enc.cfg.d_model,
        TemplateId::T2,
        PromptMode::Continuous,
        &mut rng,
    );
    let verbalizer = Verbalizer::new(&tok, &LabelWords::designed());
    // "alpha" twice within the first example and again in the others.
    let pairs = [
        ("alpha beta alpha", "gamma"),
        ("delta", "alpha gamma"),
        ("beta gamma delta", "alpha"),
    ]
    .map(|(a, b)| (tok.encode(a), tok.encode(b)));

    let mut tape = Tape::new();
    let mut rows = Vec::new();
    for (a, b) in &pairs {
        let mut example =
            |tape: &mut Tape| tmpl.forward_mask_row(tape, &store, &enc, a, b, None, &mut rng);
        rows.push(match segmented {
            true => tape.segment(example),
            false => example(&mut tape),
        });
    }
    let stacked = tape.concat_rows(&rows);
    let logits = mlm.logits(&mut tape, &store, &enc, stacked);
    let probs = verbalizer.class_probs(&mut tape, logits);
    let loss = tape.nll_probs(probs, &[0, 1, 0]);
    tape.backward(loss);
    tape.accumulate_param_grads(&mut store);
    store
        .ids()
        .map(|id| store.grad(id).data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn segments_change_no_gradient_bit_at_one_or_two_threads() {
    let plain = batch_grads(false);
    assert!(
        plain.iter().flatten().filter(|&&b| b != 0).count() > 1000,
        "the batch must reach the parameters"
    );
    for threads in [1, 2] {
        let segmented = at_threads(threads, || batch_grads(true));
        for (i, (s, p)) in segmented.iter().zip(&plain).enumerate() {
            assert_eq!(s, p, "parameter {i} at {threads} threads");
        }
    }
}

/// The sanitizer's `(op, node, stage)` findings, in emission order, for a
/// backward whose values and gradients hold NaN.
fn nan_findings(segmented: bool) -> Vec<(String, u64, String)> {
    let mut tape = Tape::new();
    let x = tape.constant(Matrix::from_vec(2, 2, vec![0.5, f32::NAN, -1.0, 2.0]));
    let mut rows = Vec::new();
    for k in 1..=3 {
        let example = |tape: &mut Tape| {
            let y = tape.scale(x, k as f32);
            tape.tanh(y)
        };
        rows.push(match segmented {
            true => tape.segment(example),
            false => example(&mut tape),
        });
    }
    let stacked = tape.concat_rows(&rows);
    let loss = tape.mean_all(stacked);
    em_nn::tape::set_sanitize(true);
    let ((), events) = em_obs::capture(|| tape.backward(loss));
    em_nn::tape::set_sanitize(false);
    events
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::NonFinite {
                op, node, stage, ..
            } => Some((op, node, stage)),
            _ => None,
        })
        .collect()
}

#[test]
fn segment_findings_come_from_the_caller_in_walk_order() {
    let plain = nan_findings(false);
    assert!(plain.len() > 8, "{plain:?}");
    for threads in [1, 2] {
        assert_eq!(at_threads(threads, || nan_findings(true)), plain);
    }
}
