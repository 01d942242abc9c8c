//! Behavioral tests of the optimizers beyond convergence: exact first-step
//! values, moment bookkeeping, and interaction with gradient clipping.

use em_nn::{AdamW, Matrix, ParamStore, Sgd, Tape, TapeExec};

#[test]
fn adamw_first_step_magnitude_is_lr() {
    // With bias correction, the very first AdamW step moves each weight by
    // almost exactly lr * sign(grad) (for eps << |grad|, wd = 0).
    let mut store = ParamStore::new();
    let w = store.register("w", Matrix::zeros(1, 3));
    store
        .grad_mut(w)
        .data_mut()
        .copy_from_slice(&[0.5, -2.0, 10.0]);
    let mut opt = AdamW::new(0.01).with_weight_decay(0.0);
    opt.step(&mut store);
    for (&v, &g) in store
        .value(w)
        .data()
        .iter()
        .zip([0.5f32, -2.0, 10.0].iter())
    {
        let expected = -0.01 * g.signum();
        assert!((v - expected).abs() < 1e-4, "step {v} vs {expected}");
    }
    assert_eq!(opt.steps(), 1);
}

#[test]
fn sgd_step_is_linear_in_gradient() {
    let mut store = ParamStore::new();
    let w = store.register("w", Matrix::zeros(1, 2));
    store.grad_mut(w).data_mut().copy_from_slice(&[1.0, -3.0]);
    let mut opt = Sgd::new(0.1);
    opt.step(&mut store);
    assert_eq!(store.value(w).data(), &[-0.1, 0.3]);
}

#[test]
fn zero_grads_resets_accumulation() {
    let mut store = ParamStore::new();
    let w = store.register("w", Matrix::zeros(2, 2));
    // Two backward passes accumulate.
    for _ in 0..2 {
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let loss = tape.mean_all(wv);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
    }
    let sum1: f32 = store.grad(w).data().iter().sum();
    assert!(
        (sum1 - 2.0).abs() < 1e-6,
        "expected accumulation, got {sum1}"
    );
    store.zero_grads();
    assert_eq!(store.grad(w).data().iter().sum::<f32>(), 0.0);
}

#[test]
fn clip_then_step_bounds_update_norm() {
    let mut store = ParamStore::new();
    let w = store.register("w", Matrix::zeros(1, 4));
    store
        .grad_mut(w)
        .data_mut()
        .copy_from_slice(&[100.0, -100.0, 100.0, -100.0]);
    store.clip_grad_norm(1.0);
    let mut opt = Sgd::new(1.0);
    opt.step(&mut store);
    let norm: f32 = store
        .value(w)
        .data()
        .iter()
        .map(|v| v * v)
        .sum::<f32>()
        .sqrt();
    assert!(norm <= 1.0 + 1e-5, "clipped update too large: {norm}");
}

#[test]
fn adamw_decay_applies_even_with_zero_grad() {
    let mut store = ParamStore::new();
    let w = store.register("w", Matrix::full(1, 1, 4.0));
    let mut opt = AdamW::new(0.1).with_weight_decay(0.1);
    opt.step(&mut store);
    // value -= lr * wd * value = 4.0 - 0.1*0.1*4.0 = 3.96
    let v = store.value(w).data()[0];
    assert!((v - 3.96).abs() < 1e-5, "{v}");
}

#[test]
fn param_store_clone_resets_moments() {
    // A cloned store starts optimizer state fresh: the first AdamW step on
    // the clone has full first-step magnitude again.
    let mut store = ParamStore::new();
    let w = store.register("w", Matrix::zeros(1, 1));
    let mut opt = AdamW::new(0.01).with_weight_decay(0.0);
    for _ in 0..5 {
        store.grad_mut(w).data_mut()[0] = 1.0;
        opt.step(&mut store);
    }
    let mut snap = store.clone();
    let mut opt2 = AdamW::new(0.01).with_weight_decay(0.0);
    let before = snap.value(w).data()[0];
    snap.grad_mut(w).data_mut()[0] = 1.0;
    opt2.step(&mut snap);
    let delta = (snap.value(w).data()[0] - before).abs();
    assert!((delta - 0.01).abs() < 1e-4, "first step on clone: {delta}");
}
