//! A batch whose loss is not finite takes no optimizer step. One
//! parameter that the loss reads is set to NaN, and the next
//! [`train_step`] must leave every parameter bit, every Adam moment and
//! the AdamW step count as they were. Covers the four matchers that train
//! through `run_training`.

use em_baselines::deepmatcher::DeepMatcherModel;
use em_baselines::sbert::SBertModel;
use em_baselines::testutil::toy_task;
use em_nn::{AdamW, Matrix, ParamStore};
use promptem::encode::Example;
use promptem::trainer::{train_step, TapeModel};
use promptem::{FineTuneModel, PromptEmModel, PromptOpts};

type Bits = Vec<u32>;

fn bits(m: &Matrix) -> Bits {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Each parameter's name, value bits and Adam moment bits.
fn state(store: &ParamStore) -> Vec<(String, Bits, Option<Bits>, Option<Bits>)> {
    store
        .ids()
        .map(|id| {
            let (m, v) = store.moments(id);
            let name = store.name(id).to_string();
            (name, bits(store.value(id)), m.map(bits), v.map(bits))
        })
        .collect()
}

fn check(model: &mut impl TapeModel, matcher: &str) {
    let (_, encoded, _) = toy_task();
    let batch: Vec<&Example> = encoded.train.iter().take(4).collect();
    let mut opt = AdamW::new(1e-3);
    let healthy = train_step(model, &batch, &mut opt, false);
    assert!(healthy.is_finite(), "{matcher}: healthy loss {healthy}");
    // The last parameter with a gradient is read by the loss, and no ReLU
    // stands between it and the loss to swallow the NaN.
    let store = model.params();
    let read = store
        .ids()
        .filter(|&id| store.grad(id).data().iter().any(|&g| g != 0.0))
        .last()
        .unwrap_or_else(|| panic!("{matcher}: no parameter has a gradient"));
    store.value_mut(read).data_mut().fill(f32::NAN);
    let before = state(store);
    let loss = train_step(model, &batch, &mut opt, false);
    assert!(!loss.is_finite(), "{matcher}: NaN parameter, loss {loss}");
    for (want, got) in before.iter().zip(state(model.params())) {
        assert!(*want == got, "{matcher}: '{}' changed", want.0);
    }
    assert_eq!(opt.steps(), 1, "{matcher}: AdamW counted the skipped step");
}

#[test]
fn a_non_finite_loss_changes_no_parameter_moment_or_step_count() {
    let (_, _, backbone) = toy_task();
    let (vocab, dim) = (backbone.tokenizer.vocab_size(), backbone.d_model());
    let mut prompt = PromptEmModel::new(backbone.clone(), PromptOpts::default(), 1);
    check(&mut prompt, "PromptEM");
    check(&mut FineTuneModel::new(backbone.clone(), 2), "fine-tuning");
    check(&mut SBertModel::new(backbone, 3), "SentenceBERT");
    check(&mut DeepMatcherModel::new(vocab, dim, 4), "DeepMatcher");
}
