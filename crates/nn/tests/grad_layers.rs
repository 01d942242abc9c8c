//! Finite-difference gradient checks for composite layers (attention,
//! LSTM, feed-forward): the unit tests in `tape.rs` cover individual ops;
//! these cover the composition, catching wiring errors between ops.

use em_nn::layers::{BiLstm, FeedForward, Linear, Lstm, MultiHeadSelfAttention};
use em_nn::{Matrix, ParamStore, Tape, TapeExec, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Numerically verify d loss / d param for the first few entries of a
/// parameter against the analytic gradient.
fn check_param_grad(
    store: &mut ParamStore,
    param: em_nn::ParamId,
    forward: &mut dyn FnMut(&mut Tape, &ParamStore) -> Var,
    tolerance: f32,
) {
    // Analytic gradient.
    store.zero_grads();
    let mut tape = Tape::inference();
    let loss = forward(&mut tape, store);
    tape.backward(loss);
    tape.accumulate_param_grads(store);
    let analytic = store.grad(param).clone();

    let n = analytic.len().min(6);
    let eps = 1e-3f32;
    for k in 0..n {
        let orig = store.value(param).data()[k];
        store.value_mut(param).data_mut()[k] = orig + eps;
        let mut tp = Tape::inference();
        let fp = {
            let l = forward(&mut tp, store);
            tp.value(l).item()
        };
        store.value_mut(param).data_mut()[k] = orig - eps;
        let mut tm = Tape::inference();
        let fm = {
            let l = forward(&mut tm, store);
            tm.value(l).item()
        };
        store.value_mut(param).data_mut()[k] = orig;
        let numeric = (fp - fm) / (2.0 * eps);
        let a = analytic.data()[k];
        assert!(
            (a - numeric).abs() < tolerance * (1.0 + numeric.abs()),
            "param {} entry {k}: analytic {a}, numeric {numeric}",
            store.name(param)
        );
    }
}

fn probe_input(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| ((r * cols + c) as f32 * 0.7).sin() * 0.5)
}

#[test]
fn attention_projection_gradients_are_correct() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let attn = MultiHeadSelfAttention::new(&mut store, "a", 8, 2, 0.0, &mut rng);
    let x = probe_input(4, 8);
    for param in [attn.wq.w, attn.wk.w, attn.wv.w, attn.wo.w] {
        let attn_ref = &attn;
        let x_ref = x.clone();
        let mut rng2 = StdRng::seed_from_u64(2);
        check_param_grad(
            &mut store,
            param,
            &mut move |tape, store| {
                let xv = tape.constant(x_ref.clone());
                let y = attn_ref.forward(tape, store, xv, 0..4, None, &mut rng2);
                tape.mean_all(y)
            },
            3e-2,
        );
    }
}

#[test]
fn lstm_gate_gradients_are_correct() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut store = ParamStore::new();
    let lstm = Lstm::new(&mut store, "l", 3, 4, &mut rng);
    let x = probe_input(5, 3);
    for param in [lstm.w_ih, lstm.w_hh, lstm.bias] {
        let lstm_ref = &lstm;
        let x_ref = x.clone();
        check_param_grad(
            &mut store,
            param,
            &mut move |tape, store| {
                let xv = tape.constant(x_ref.clone());
                let h = lstm_ref.forward(tape, store, xv);
                tape.mean_all(h)
            },
            3e-2,
        );
    }
}

#[test]
fn bilstm_both_directions_receive_gradient() {
    let mut rng = StdRng::seed_from_u64(4);
    let mut store = ParamStore::new();
    let bi = BiLstm::new(&mut store, "b", 3, 4, &mut rng);
    let x = probe_input(5, 3);
    store.zero_grads();
    let mut tape = Tape::inference();
    let xv = tape.constant(x);
    let h = bi.forward(&mut tape, &store, xv);
    let loss = tape.mean_all(h);
    tape.backward(loss);
    tape.accumulate_param_grads(&mut store);
    assert!(store.grad(bi.fwd.w_ih).frobenius_norm() > 0.0);
    assert!(store.grad(bi.bwd.w_ih).frobenius_norm() > 0.0);
}

#[test]
fn feedforward_gradients_are_correct() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut store = ParamStore::new();
    let ffn = FeedForward::new(&mut store, "f", 6, 12, 0.0, &mut rng);
    let x = probe_input(3, 6);
    for param in [ffn.fc1.w, ffn.fc2.w, ffn.fc1.b, ffn.fc2.b] {
        let ffn_ref = &ffn;
        let x_ref = x.clone();
        let mut rng2 = StdRng::seed_from_u64(6);
        check_param_grad(
            &mut store,
            param,
            &mut move |tape, store| {
                let xv = tape.constant(x_ref.clone());
                let y = ffn_ref.forward(tape, store, xv, &mut rng2);
                tape.mean_all(y)
            },
            2e-2,
        );
    }
}

#[test]
fn linear_bias_gradient_is_row_summed() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let lin = Linear::new(&mut store, "l", 3, 2, &mut rng);
    store.zero_grads();
    let mut tape = Tape::inference();
    let x = tape.constant(probe_input(4, 3));
    let y = lin.forward(&mut tape, &store, x);
    let loss = tape.mean_all(y);
    tape.backward(loss);
    tape.accumulate_param_grads(&mut store);
    // d mean(y) / d b[j] = 4 rows * (1/8) per element = 0.5 each.
    let g = store.grad(lin.b);
    for &v in g.data() {
        assert!((v - 0.5).abs() < 1e-5, "{v}");
    }
}
