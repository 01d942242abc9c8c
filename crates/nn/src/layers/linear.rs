//! Affine layers and a small MLP helper.

use crate::init;
use crate::optim::{ParamId, ParamStore};
use crate::tape::{TapeExec, Var};
use crate::tensor::Matrix;
use rand::Rng;

/// `y = x W + b` with `W: (in, out)`, `b: (1, out)`.
#[derive(Clone)]
pub struct Linear {
    /// Weight matrix `(in_dim, out_dim)`.
    pub w: ParamId,
    /// Bias row `(1, out_dim)`.
    pub b: ParamId,
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
}

impl Linear {
    /// Create a layer with Xavier-initialized weights and zero bias.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.register(
            format!("{name}.w"),
            init::xavier_uniform(in_dim, out_dim, rng),
        );
        let b = store.register(format!("{name}.b"), Matrix::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Apply the affine map to `(rows, in_dim)` input.
    pub fn forward(&self, tape: &mut impl TapeExec, store: &ParamStore, x: Var) -> Var {
        let w = tape.param(store, self.w);
        let y = tape.matmul(x, w);
        let b = tape.param(store, self.b);
        tape.add_row_broadcast(y, b)
    }
}

/// Two-layer perceptron with ReLU, the classifier used by TDmatch* and the
/// DADER discriminator.
#[derive(Clone)]
pub struct Mlp {
    /// Hidden projection.
    pub fc1: Linear,
    /// Output projection.
    pub fc2: Linear,
}

impl Mlp {
    /// Create a two-layer ReLU MLP.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Mlp {
            fc1: Linear::new(store, &format!("{name}.fc1"), in_dim, hidden, rng),
            fc2: Linear::new(store, &format!("{name}.fc2"), hidden, out_dim, rng),
        }
    }

    /// Apply `fc2(relu(fc1(x)))`.
    pub fn forward(&self, tape: &mut impl TapeExec, store: &ParamStore, x: Var) -> Var {
        let h = self.fc1.forward(tape, store, x);
        let h = tape.relu(h);
        self.fc2.forward(tape, store, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamW;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 4, 7, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::zeros(5, 4));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 7));
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "xor", 2, 16, 2, &mut rng);
        let xs = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = [0usize, 1, 1, 0];
        let mut opt = AdamW::new(0.01).with_weight_decay(0.0);
        for _ in 0..600 {
            store.zero_grads();
            let mut tape = Tape::new();
            let x = tape.constant(xs.clone());
            let logits = mlp.forward(&mut tape, &store, x);
            let loss = tape.cross_entropy(logits, &ys);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            opt.step(&mut store);
        }
        let mut tape = Tape::inference();
        let x = tape.constant(xs);
        let logits = mlp.forward(&mut tape, &store, x);
        let lm = tape.value(logits);
        for (r, &y) in ys.iter().enumerate() {
            let pred = if lm.get(r, 1) > lm.get(r, 0) { 1 } else { 0 };
            assert_eq!(pred, y, "row {r} misclassified");
        }
    }
}
