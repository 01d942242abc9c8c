//! Named parameter storage plus the optimizers used in the paper's setup
//! (AdamW for all LM training; plain SGD is kept for tests and baselines).

use crate::tensor::Matrix;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

struct Param {
    name: String,
    value: Matrix,
    grad: Matrix,
    /// First/second Adam moments, allocated lazily on first AdamW step.
    m: Option<Matrix>,
    v: Option<Matrix>,
    /// Frozen parameters are skipped by optimizer steps.
    frozen: bool,
}

/// Owns every trainable matrix of a model, its gradient buffer and optimizer
/// state. Cloning the store snapshots the full model (used for teacher /
/// student copies and best-on-validation checkpoints).
pub struct ParamStore {
    params: Vec<Param>,
}

impl Clone for ParamStore {
    fn clone(&self) -> Self {
        ParamStore {
            params: self
                .params
                .iter()
                .map(|p| Param {
                    name: p.name.clone(),
                    value: p.value.clone(),
                    grad: Matrix::zeros(p.grad.rows(), p.grad.cols()),
                    m: None,
                    v: None,
                    frozen: p.frozen,
                })
                .collect(),
        }
    }
}

impl Default for ParamStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        ParamStore { params: Vec::new() }
    }

    /// Register a new parameter; names are for debugging and need not be
    /// unique (layers prefix them).
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows(), value.cols());
        self.params.push(Param {
            name: name.into(),
            value,
            grad,
            m: None,
            v: None,
            frozen: false,
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Debug name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable access to a parameter's value.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Mutable access to a parameter's gradient buffer.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.params[id.0].grad
    }

    /// Zero every gradient buffer (call between optimizer steps).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            for g in p.grad.data_mut() {
                *g = 0.0;
            }
        }
    }

    /// Freeze (exclude from optimizer updates) a parameter.
    pub fn set_frozen(&mut self, id: ParamId, frozen: bool) {
        self.params[id.0].frozen = frozen;
    }

    /// Whether a parameter is excluded from optimizer updates.
    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.params[id.0].frozen
    }

    /// Ids of all registered parameters.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.params.len()).map(ParamId)
    }

    /// Adam moment buffers of a parameter (`None` before the first AdamW
    /// step). Exposed for checkpointing.
    pub fn moments(&self, id: ParamId) -> (Option<&Matrix>, Option<&Matrix>) {
        let p = &self.params[id.0];
        (p.m.as_ref(), p.v.as_ref())
    }

    /// Install Adam moment buffers (checkpoint restore). Shapes must match
    /// the parameter value; both moments must be present or both absent.
    pub fn set_moments(&mut self, id: ParamId, m: Option<Matrix>, v: Option<Matrix>) {
        let p = &mut self.params[id.0];
        assert_eq!(
            m.is_some(),
            v.is_some(),
            "moments must be set or cleared together"
        );
        if let (Some(m), Some(v)) = (&m, &v) {
            assert_eq!(m.shape(), p.value.shape(), "first-moment shape mismatch");
            assert_eq!(v.shape(), p.value.shape(), "second-moment shape mismatch");
        }
        p.m = m;
        p.v = v;
    }

    /// Global gradient clipping by L2 norm; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let total: f32 = self
            .params
            .iter()
            .map(|p| p.grad.data().iter().map(|g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt();
        if total > max_norm && total > 0.0 {
            let scale = max_norm / total;
            for p in &mut self.params {
                for g in p.grad.data_mut() {
                    *g *= scale;
                }
            }
        }
        total
    }
}

/// Decoupled-weight-decay Adam (Loshchilov & Hutter), the optimizer PromptEM
/// uses ("We use AdamW as the optimizer for training", §5.1).
pub struct AdamW {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabilizer.
    pub eps: f32,
    /// Decoupled weight-decay coefficient.
    pub weight_decay: f32,
    step: u64,
}

impl AdamW {
    /// Default AdamW (β₁ 0.9, β₂ 0.999, ε 1e-8, weight decay 0.01).
    pub fn new(lr: f32) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            step: 0,
        }
    }

    /// Override the weight-decay coefficient.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Number of optimizer steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Restore the step counter from a checkpoint. Bias correction (and any
    /// schedule derived from [`AdamW::steps`]) depends on it, so a resumed
    /// optimizer must get the saved value back before its next step.
    pub fn set_steps(&mut self, steps: u64) {
        self.step = steps;
    }

    /// Apply one update using the gradients accumulated in `store`.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.step += 1;
        if em_obs::enabled() {
            use std::sync::OnceLock;
            static STEPS: OnceLock<em_obs::metrics::Counter> = OnceLock::new();
            STEPS
                .get_or_init(|| em_obs::metrics::counter("nn_optimizer_steps", &[("opt", "adamw")]))
                .inc();
        }
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        for p in &mut store.params {
            if p.frozen {
                continue;
            }
            let (rows, cols) = p.value.shape();
            let m = p.m.get_or_insert_with(|| Matrix::zeros(rows, cols));
            let v = p.v.get_or_insert_with(|| Matrix::zeros(rows, cols));
            let value = p.value.data_mut();
            let grad = p.grad.data();
            let md = m.data_mut();
            let vd = v.data_mut();
            for i in 0..value.len() {
                let g = grad[i];
                md[i] = self.beta1 * md[i] + (1.0 - self.beta1) * g;
                vd[i] = self.beta2 * vd[i] + (1.0 - self.beta2) * g * g;
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                value[i] -=
                    self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * value[i]);
            }
        }
    }
}

/// Plain stochastic gradient descent (used by tests and the TDmatch* MLP).
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Plain SGD at a fixed rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Apply `w -= lr * grad` to every unfrozen parameter.
    pub fn step(&mut self, store: &mut ParamStore) {
        if em_obs::enabled() {
            use std::sync::OnceLock;
            static STEPS: OnceLock<em_obs::metrics::Counter> = OnceLock::new();
            STEPS
                .get_or_init(|| em_obs::metrics::counter("nn_optimizer_steps", &[("opt", "sgd")]))
                .inc();
        }
        for p in &mut store.params {
            if p.frozen {
                continue;
            }
            let lr = self.lr;
            let grad = p.grad.data();
            for (w, &g) in p.value.data_mut().iter_mut().zip(grad) {
                *w -= lr * g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{Tape, TapeExec};

    /// Minimize mean((w - t)^2) and verify convergence for both optimizers.
    fn converges(mut step: impl FnMut(&mut ParamStore)) {
        let mut store = ParamStore::new();
        let target = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 3.0]);
        let w = store.register("w", Matrix::zeros(2, 2));
        for _ in 0..2000 {
            store.zero_grads();
            let mut tape = Tape::new();
            let wv = tape.param(&store, w);
            let t = tape.constant(target.clone());
            let diff = tape.sub(wv, t);
            let sq = tape.mul(diff, diff);
            let loss = tape.mean_all(sq);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut store);
            step(&mut store);
        }
        for (a, b) in store.value(w).data().iter().zip(target.data()) {
            assert!((a - b).abs() < 0.05, "no convergence: {a} vs {b}");
        }
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.5);
        converges(move |s| opt.step(s));
    }

    #[test]
    fn adamw_converges_on_quadratic() {
        let mut opt = AdamW::new(0.05).with_weight_decay(0.0);
        converges(move |s| opt.step(s));
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 4, 10.0));
        let mut opt = AdamW::new(0.1).with_weight_decay(0.5);
        // No gradient at all: only decay acts.
        for _ in 0..50 {
            store.zero_grads();
            opt.step(&mut store);
        }
        for &v in store.value(w).data() {
            assert!(
                v.abs() < 10.0 * 0.95f32.powi(40),
                "decay had no effect: {v}"
            );
        }
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 2, 1.0));
        store.set_frozen(w, true);
        store.grad_mut(w).data_mut().fill(100.0);
        let mut opt = AdamW::new(0.1);
        opt.step(&mut store);
        assert_eq!(store.value(w).data(), &[1.0, 1.0]);
    }

    #[test]
    fn clip_grad_norm_caps_norm() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::zeros(1, 3));
        store
            .grad_mut(w)
            .data_mut()
            .copy_from_slice(&[3.0, 4.0, 0.0]);
        let pre = store.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post: f32 = store
            .grad(w)
            .data()
            .iter()
            .map(|g| g * g)
            .sum::<f32>()
            .sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn moment_accessors_round_trip() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 2, 1.0));
        store.grad_mut(w).data_mut().fill(0.5);
        let mut opt = AdamW::new(0.1);
        opt.step(&mut store);
        let (m, v) = store.moments(w);
        let (m, v) = (m.cloned(), v.cloned());
        assert!(m.is_some() && v.is_some());
        let mut restored = store.clone(); // clone drops optimizer state
        assert!(restored.moments(w).0.is_none());
        restored.set_moments(w, m.clone(), v);
        assert_eq!(restored.moments(w).0, m.as_ref());
        let mut resumed = AdamW::new(0.1);
        resumed.set_steps(opt.steps());
        assert_eq!(resumed.steps(), 1);
    }

    #[test]
    fn clone_snapshots_values_but_not_grads() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 2, 3.0));
        store.grad_mut(w).data_mut().fill(9.0);
        let snap = store.clone();
        assert_eq!(snap.value(w).data(), &[3.0, 3.0]);
        assert_eq!(snap.grad(w).data(), &[0.0, 0.0]);
    }
}
