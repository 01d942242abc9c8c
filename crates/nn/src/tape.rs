//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] is built per forward pass (typically one per mini-batch). Ops
//! append nodes; [`Tape::backward`] walks the node list in reverse and fills
//! per-node gradients; [`Tape::accumulate_param_grads`] folds leaf gradients
//! back into the shared [`ParamStore`](crate::optim::ParamStore).
//!
//! Model parameters enter the tape through [`Tape::param`], which caches the
//! leaf so a parameter used by many samples in one batch is materialized only
//! once.

use crate::mathf;
use crate::optim::{ParamId, ParamStore};
use crate::tensor::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::opstats::{OpStatsTable, RelaxedWord};
use std::sync::OnceLock;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// The node index on its tape (stable; nodes are append-only).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A structural defect caught while recording (or differentiating) a tape.
///
/// Every shape constraint an op imposes is validated at record time and
/// reported through this type, carrying the op name and the offending
/// shapes, so callers and the `em-check` graph auditor get an actionable
/// diagnostic instead of a bare `assert_eq!` abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeError {
    /// Two operand shapes are incompatible for `op`.
    ShapeMismatch {
        /// Op being recorded.
        op: &'static str,
        /// Shape of the left/first operand.
        lhs: (usize, usize),
        /// Shape of the right/second operand.
        rhs: (usize, usize),
    },
    /// A single operand violated an op's shape constraint.
    BadShape {
        /// Op being recorded.
        op: &'static str,
        /// The shape that was supplied.
        got: (usize, usize),
        /// What the op required, in words.
        want: &'static str,
    },
    /// A class target index is out of range for the class dimension.
    TargetOutOfRange {
        /// Op being recorded.
        op: &'static str,
        /// The offending target.
        target: usize,
        /// Number of classes (columns) available.
        classes: usize,
    },
    /// A row/column index reaches past the end of the operand.
    IndexOutOfRange {
        /// Op being recorded.
        op: &'static str,
        /// First out-of-range index.
        index: usize,
        /// Extent of the indexed dimension.
        len: usize,
    },
}

impl std::fmt::Display for TapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TapeError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "tape op `{op}`: incompatible shapes {}x{} vs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TapeError::BadShape { op, got, want } => write!(
                f,
                "tape op `{op}`: operand is {}x{}, need {want}",
                got.0, got.1
            ),
            TapeError::TargetOutOfRange {
                op,
                target,
                classes,
            } => write!(
                f,
                "tape op `{op}`: target {target} out of {classes} classes"
            ),
            TapeError::IndexOutOfRange { op, index, len } => {
                write!(f, "tape op `{op}`: index {index} out of range 0..{len}")
            }
        }
    }
}

impl std::error::Error for TapeError {}

/// Runtime switch for the NaN/Inf sanitizer (see [`sanitize_enabled`]).
static SANITIZE_FORCE: AtomicBool = AtomicBool::new(false);

fn sanitize_env() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV
        .get_or_init(|| std::env::var("PROMPTEM_SANITIZE").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// True when the backward-pass NaN/Inf sanitizer is on: either
/// `PROMPTEM_SANITIZE=1` was set in the environment or [`set_sanitize`]
/// was called (the CLI `--sanitize` flag does the latter). The `em-check`
/// auditor hooks also audit every batch instead of just the first one
/// while this is on.
pub fn sanitize_enabled() -> bool {
    // ordering: Relaxed — a lone boolean flag; readers only need to see
    // the flip eventually, and no other data is published through it.
    SANITIZE_FORCE.load(Ordering::Relaxed) || sanitize_env()
}

/// Programmatically enable the sanitizer (cannot un-set the environment
/// variable; `set_sanitize(false)` only clears a previous programmatic
/// enable).
pub fn set_sanitize(on: bool) {
    // ordering: Relaxed — see sanitize_enabled; the flag guards no data.
    SANITIZE_FORCE.store(on, Ordering::Relaxed);
}

/// Runtime switch for the op profiler (see [`op_profile_enabled`]).
static OP_PROFILE_FORCE: AtomicBool = AtomicBool::new(false);

fn op_profile_env() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        std::env::var("PROMPTEM_OP_PROFILE").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// True when the op-level profiler is on: either `PROMPTEM_OP_PROFILE=1`
/// was set in the environment or [`set_op_profile`] was called (the CLI
/// `--op-profile` flag does the latter). While on, every op recording and
/// every backward visit adds into a process-global table of relaxed
/// atomics; [`flush_op_stats`] drains that table into `op_stats` events.
/// The disabled path is a single relaxed load per op — no clock reads, no
/// extra tape nodes, no RNG perturbation, so profiled and unprofiled runs
/// take identical optimizer steps.
pub fn op_profile_enabled() -> bool {
    // ordering: Relaxed — a lone boolean flag; a racing reader at worst
    // attributes one op to the wrong side of the flip, and the table's
    // counters are themselves single atomic RMWs.
    OP_PROFILE_FORCE.load(Ordering::Relaxed) || op_profile_env()
}

/// Programmatically enable the op profiler (cannot un-set the environment
/// variable; `set_op_profile(false)` only clears a previous programmatic
/// enable).
pub fn set_op_profile(on: bool) {
    // ordering: Relaxed — see op_profile_enabled; the flag guards no data.
    OP_PROFILE_FORCE.store(on, Ordering::Relaxed);
}

/// The profiler's accumulation table, one slot per op in
/// [`em_obs::names::ALL_OP_NAMES`] order (`Op::index` pins the
/// correspondence; a test asserts it against `Op::name`). The swap-drain
/// algorithm lives in [`crate::opstats`] behind the `StatWord` shim so
/// the `em-sched` interleaving checker can model-check the identical
/// code path (`crates/nn/tests/sched_opstats.rs`).
static OP_TABLE: OpStatsTable<RelaxedWord, { em_obs::names::ALL_OP_NAMES.len() }> =
    OpStatsTable::new_relaxed();

/// Forward-timing handle opened at recording-method entry when the
/// profiler is on; [`Tape::push_timed`] closes it once the result exists.
struct OpTimer {
    sw: em_obs::Stopwatch,
    bytes0: usize,
}

impl OpTimer {
    #[inline]
    fn start() -> Option<OpTimer> {
        if !op_profile_enabled() {
            return None;
        }
        Some(OpTimer {
            sw: em_obs::Stopwatch::new(),
            bytes0: em_obs::alloc::current_bytes(),
        })
    }

    fn finish(self, op_idx: usize, elems: usize) {
        let grown = em_obs::alloc::current_bytes().saturating_sub(self.bytes0);
        OP_TABLE.record_fwd(
            op_idx,
            (self.sw.secs() * 1e9) as u64,
            elems as u64,
            grown as u64,
        );
    }
}

/// Drain the op-profiler table: emit one `op_stats` event per op with
/// nonzero activity since the previous flush, then reset the counters.
/// Call at a stage boundary while the owning span is still open so the
/// totals nest under that phase in the trace. No-op when the profiler is
/// off.
pub fn flush_op_stats() {
    if !op_profile_enabled() {
        return;
    }
    for (i, name) in em_obs::names::ALL_OP_NAMES.iter().enumerate() {
        let row = OP_TABLE.drain(i);
        if row.is_empty() {
            continue;
        }
        em_obs::op_stats(
            name,
            row.fwd_calls,
            row.fwd_ns / 1000,
            row.bwd_calls,
            row.bwd_ns / 1000,
            row.elems,
            row.bytes,
        );
    }
}

enum Op {
    /// Constant or parameter leaf. `param` is set when the leaf mirrors a
    /// [`ParamStore`] entry and should receive gradient at the end.
    Leaf,
    Matmul(Var, Var),
    Add(Var, Var),
    /// `a (R,C) + broadcast of b (1,C)` over rows.
    AddRowBroadcast(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    /// Adds a constant matrix (no gradient through the constant); used for
    /// additive attention masks.
    AddConst(Var),
    /// Identity forward; backward multiplies the gradient by `-lambda`
    /// (the gradient-reversal layer of DANN-style domain adaptation).
    GradReverse(Var, f32),
    Transpose(Var),
    Tanh(Var),
    Sigmoid(Var),
    Gelu(Var),
    Relu(Var),
    /// Row-wise softmax; caches output for the backward pass.
    SoftmaxRows(Var),
    /// Layer normalization over each row with learnable gain/bias (1,C).
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        normed: Matrix,
        inv_std: Vec<f32>,
    },
    /// Select rows of `src` by index; backward scatter-adds.
    GatherRows {
        src: Var,
        idx: Vec<usize>,
    },
    /// Inverted dropout; `mask` holds 0.0 or `1/(1-p)` per element.
    Dropout {
        x: Var,
        mask: Matrix,
    },
    ConcatRows(Vec<Var>),
    ConcatCols(Vec<Var>),
    SliceRows {
        x: Var,
        start: usize,
    },
    SliceCols {
        x: Var,
        start: usize,
    },
    /// Mean over rows, producing (1,C).
    MeanRows(Var),
    /// Mean of every element, producing a scalar.
    MeanAll(Var),
    /// Fused softmax + negative log likelihood, mean over rows. Caches probs.
    CrossEntropy {
        logits: Var,
        targets: Vec<usize>,
        probs: Matrix,
    },
    /// Mean squared error against a constant target.
    MseLoss {
        pred: Var,
        target: Matrix,
    },
    /// Mean negative log likelihood over rows of an already-normalized
    /// probability matrix (used by verbalizer losses, where class
    /// probabilities are averages of word probabilities — Eq. 1 of the
    /// PromptEM paper).
    NllProbs {
        probs: Var,
        targets: Vec<usize>,
    },
}

impl Op {
    /// Static name of the op, used by diagnostics and telemetry.
    fn name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Matmul(..) => "matmul",
            Op::Add(..) => "add",
            Op::AddRowBroadcast(..) => "add_row_broadcast",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Scale(..) => "scale",
            Op::AddConst(..) => "add_const",
            Op::GradReverse(..) => "grad_reverse",
            Op::Transpose(..) => "transpose",
            Op::Tanh(..) => "tanh",
            Op::Sigmoid(..) => "sigmoid",
            Op::Gelu(..) => "gelu",
            Op::Relu(..) => "relu",
            Op::SoftmaxRows(..) => "softmax_rows",
            Op::LayerNorm { .. } => "layer_norm",
            Op::GatherRows { .. } => "gather_rows",
            Op::Dropout { .. } => "dropout",
            Op::ConcatRows(..) => "concat_rows",
            Op::ConcatCols(..) => "concat_cols",
            Op::SliceRows { .. } => "slice_rows",
            Op::SliceCols { .. } => "slice_cols",
            Op::MeanRows(..) => "mean_rows",
            Op::MeanAll(..) => "mean_all",
            Op::CrossEntropy { .. } => "cross_entropy",
            Op::MseLoss { .. } => "mse_loss",
            Op::NllProbs { .. } => "nll_probs",
        }
    }

    /// The op's slot in the profiler table — its position in
    /// [`em_obs::names::ALL_OP_NAMES`] (a test pins the correspondence).
    fn index(&self) -> usize {
        match self {
            Op::Leaf => 0,
            Op::Matmul(..) => 1,
            Op::Add(..) => 2,
            Op::AddRowBroadcast(..) => 3,
            Op::Sub(..) => 4,
            Op::Mul(..) => 5,
            Op::Scale(..) => 6,
            Op::AddConst(..) => 7,
            Op::GradReverse(..) => 8,
            Op::Transpose(..) => 9,
            Op::Tanh(..) => 10,
            Op::Sigmoid(..) => 11,
            Op::Gelu(..) => 12,
            Op::Relu(..) => 13,
            Op::SoftmaxRows(..) => 14,
            Op::LayerNorm { .. } => 15,
            Op::GatherRows { .. } => 16,
            Op::Dropout { .. } => 17,
            Op::ConcatRows(..) => 18,
            Op::ConcatCols(..) => 19,
            Op::SliceRows { .. } => 20,
            Op::SliceCols { .. } => 21,
            Op::MeanRows(..) => 22,
            Op::MeanAll(..) => 23,
            Op::CrossEntropy { .. } => 24,
            Op::MseLoss { .. } => 25,
            Op::NllProbs { .. } => 26,
        }
    }

    /// The vars this op reads (its graph predecessors).
    fn inputs(&self) -> Vec<Var> {
        match self {
            Op::Leaf => Vec::new(),
            Op::Matmul(a, b)
            | Op::Add(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b) => vec![*a, *b],
            Op::Scale(a, _)
            | Op::AddConst(a)
            | Op::GradReverse(a, _)
            | Op::Transpose(a)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Gelu(a)
            | Op::Relu(a)
            | Op::SoftmaxRows(a)
            | Op::MeanRows(a)
            | Op::MeanAll(a) => vec![*a],
            Op::LayerNorm { x, gamma, beta, .. } => vec![*x, *gamma, *beta],
            Op::GatherRows { src, .. } => vec![*src],
            Op::Dropout { x, .. } => vec![*x],
            Op::ConcatRows(parts) | Op::ConcatCols(parts) => parts.clone(),
            Op::SliceRows { x, .. } | Op::SliceCols { x, .. } => vec![*x],
            Op::CrossEntropy { logits, .. } => vec![*logits],
            Op::MseLoss { pred, .. } => vec![*pred],
            Op::NllProbs { probs, .. } => vec![*probs],
        }
    }
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A single-use computation graph.
pub struct Tape {
    nodes: Vec<Node>,
    param_cache: HashMap<ParamId, Var>,
    /// When false, `dropout` is the identity (inference mode).
    pub train: bool,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// A fresh training-mode tape (dropout active).
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(256),
            param_cache: HashMap::new(),
            train: true,
        }
    }

    /// A tape whose dropout layers are disabled (deterministic inference).
    pub fn inference() -> Self {
        let mut t = Self::new();
        t.train = false;
        t
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        NODES_PUSHED.with(|c| c.set(c.get() + 1));
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// [`Tape::push`] plus op-profiler accounting. `timer` was started at
    /// the recording method's entry (before the forward compute); `None`
    /// when the profiler is off, in which case this is exactly `push`.
    fn push_timed(&mut self, timer: Option<OpTimer>, value: Matrix, op: Op) -> Var {
        if let Some(t) = timer {
            t.finish(op.index(), value.len());
        }
        self.push(value, op)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient of `v` after [`Tape::backward`]; zeros if unused.
    pub fn grad(&self, v: Var) -> Matrix {
        match &self.nodes[v.0].grad {
            Some(g) => g.clone(),
            None => {
                let (r, c) = self.nodes[v.0].value.shape();
                Matrix::zeros(r, c)
            }
        }
    }

    // ---- graph topology (read-only; consumed by the em-check auditor) ----

    /// Static name of the op that produced `v`.
    pub fn op_name(&self, v: Var) -> &'static str {
        self.nodes[v.0].op.name()
    }

    /// The vars `v` was computed from (empty for leaves).
    pub fn inputs(&self, v: Var) -> Vec<Var> {
        self.nodes[v.0].op.inputs()
    }

    /// Forward shape of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// All recorded vars, in record order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.nodes.len()).map(Var)
    }

    /// True when `v` is a leaf (constant or parameter mirror).
    pub fn is_leaf(&self, v: Var) -> bool {
        matches!(self.nodes[v.0].op, Op::Leaf)
    }

    /// Every parameter leaf on the tape, sorted by [`ParamId`] so walks are
    /// deterministic.
    pub fn param_leaves(&self) -> Vec<(ParamId, Var)> {
        let mut out: Vec<(ParamId, Var)> = self.param_cache.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    // ---- op recording ----

    /// Insert a constant leaf (no gradient flows out of the tape).
    pub fn constant(&mut self, value: Matrix) -> Var {
        let prof = OpTimer::start();
        self.push_timed(prof, value, Op::Leaf)
    }

    /// Insert (or reuse) a leaf mirroring parameter `id` from `store`.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.param_cache.get(&id) {
            return v;
        }
        let prof = OpTimer::start();
        let value = store.value(id).clone();
        let v = self.push_timed(prof, value, Op::Leaf);
        self.param_cache.insert(id, v);
        v
    }

    /// Unwrap a record-time result; the panic message is the structured
    /// [`TapeError`] rendering, so even the infallible entry points abort
    /// with the op name and both shapes.
    #[track_caller]
    fn recorded(r: Result<Var, TapeError>) -> Var {
        match r {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Tape::recorded`] for unit-returning entry points.
    #[track_caller]
    fn recorded_unit(r: Result<(), TapeError>) {
        if let Err(e) = r {
            panic!("{e}")
        }
    }

    fn same_shape(&self, op: &'static str, a: Var, b: Var) -> Result<(), TapeError> {
        let (la, lb) = (self.nodes[a.0].value.shape(), self.nodes[b.0].value.shape());
        if la != lb {
            return Err(TapeError::ShapeMismatch {
                op,
                lhs: la,
                rhs: lb,
            });
        }
        Ok(())
    }

    /// Matrix product `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        Self::recorded(self.try_matmul(a, b))
    }

    /// Shape-checked [`Tape::matmul`].
    pub fn try_matmul(&mut self, a: Var, b: Var) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        let (la, lb) = (self.nodes[a.0].value.shape(), self.nodes[b.0].value.shape());
        if la.1 != lb.0 {
            return Err(TapeError::ShapeMismatch {
                op: "matmul",
                lhs: la,
                rhs: lb,
            });
        }
        let value = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        Ok(self.push_timed(prof, value, Op::Matmul(a, b)))
    }

    /// Elementwise sum (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        Self::recorded(self.try_add(a, b))
    }

    /// Shape-checked [`Tape::add`].
    pub fn try_add(&mut self, a: Var, b: Var) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        self.same_shape("add", a, b)?;
        let value = self.nodes[a.0].value.add(&self.nodes[b.0].value);
        Ok(self.push_timed(prof, value, Op::Add(a, b)))
    }

    /// `a + b` where `b` is a (1,C) row broadcast over the rows of `a`.
    pub fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        Self::recorded(self.try_add_row_broadcast(a, b))
    }

    /// Shape-checked [`Tape::add_row_broadcast`].
    pub fn try_add_row_broadcast(&mut self, a: Var, b: Var) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        let (la, lb) = (self.nodes[a.0].value.shape(), self.nodes[b.0].value.shape());
        if lb.0 != 1 {
            return Err(TapeError::BadShape {
                op: "add_row_broadcast",
                got: lb,
                want: "a (1,C) row vector",
            });
        }
        if la.1 != lb.1 {
            return Err(TapeError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: la,
                rhs: lb,
            });
        }
        let am = &self.nodes[a.0].value;
        let bm = &self.nodes[b.0].value;
        let mut value = am.clone();
        for r in 0..value.rows() {
            for (v, &x) in value.row_mut(r).iter_mut().zip(bm.row(0)) {
                *v += x;
            }
        }
        Ok(self.push_timed(prof, value, Op::AddRowBroadcast(a, b)))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        Self::recorded(self.try_sub(a, b))
    }

    /// Shape-checked [`Tape::sub`].
    pub fn try_sub(&mut self, a: Var, b: Var) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        self.same_shape("sub", a, b)?;
        let value = self.nodes[a.0].value.sub(&self.nodes[b.0].value);
        Ok(self.push_timed(prof, value, Op::Sub(a, b)))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        Self::recorded(self.try_mul(a, b))
    }

    /// Shape-checked [`Tape::mul`].
    pub fn try_mul(&mut self, a: Var, b: Var) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        self.same_shape("mul", a, b)?;
        let value = self.nodes[a.0].value.hadamard(&self.nodes[b.0].value);
        Ok(self.push_timed(prof, value, Op::Mul(a, b)))
    }

    /// Multiply every element by the constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let prof = OpTimer::start();
        let value = self.nodes[a.0].value.scale(c);
        self.push_timed(prof, value, Op::Scale(a, c))
    }

    /// Add a constant matrix elementwise (no gradient to the constant).
    pub fn add_const(&mut self, a: Var, k: &Matrix) -> Var {
        Self::recorded(self.try_add_const(a, k))
    }

    /// Shape-checked [`Tape::add_const`].
    pub fn try_add_const(&mut self, a: Var, k: &Matrix) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        let la = self.nodes[a.0].value.shape();
        if la != k.shape() {
            return Err(TapeError::ShapeMismatch {
                op: "add_const",
                lhs: la,
                rhs: k.shape(),
            });
        }
        let value = self.nodes[a.0].value.add(k);
        Ok(self.push_timed(prof, value, Op::AddConst(a)))
    }

    /// Gradient-reversal layer: forward identity, backward `-lambda * g`.
    pub fn grad_reverse(&mut self, a: Var, lambda: f32) -> Var {
        let prof = OpTimer::start();
        let value = self.nodes[a.0].value.clone();
        self.push_timed(prof, value, Op::GradReverse(a, lambda))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.nodes[a.0].value.transpose();
        self.push_timed(prof, value, Op::Transpose(a))
    }

    /// Elementwise `tanh`.
    pub fn tanh(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.nodes[a.0].value.map(mathf::tanh);
        self.push_timed(prof, value, Op::Tanh(a))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.nodes[a.0].value.map(|x| 1.0 / (1.0 + mathf::exp(-x)));
        self.push_timed(prof, value, Op::Sigmoid(a))
    }

    /// Elementwise GELU (tanh approximation, as in BERT).
    pub fn gelu(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.nodes[a.0].value.map(gelu);
        self.push_timed(prof, value, Op::Gelu(a))
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.nodes[a.0].value.map(|x| x.max(0.0));
        self.push_timed(prof, value, Op::Relu(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.nodes[a.0].value.softmax_rows();
        self.push_timed(prof, value, Op::SoftmaxRows(a))
    }

    /// Row-wise layer normalization. `gamma` and `beta` must be (1,C).
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        Self::recorded(self.try_layer_norm(x, gamma, beta, eps))
    }

    /// Shape-checked [`Tape::layer_norm`].
    pub fn try_layer_norm(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    ) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        let xm = self.nodes[x.0].value.clone();
        let (rows, cols) = xm.shape();
        for v in [gamma, beta] {
            let shape = self.nodes[v.0].value.shape();
            if shape != (1, cols) {
                return Err(TapeError::ShapeMismatch {
                    op: "layer_norm",
                    lhs: (rows, cols),
                    rhs: shape,
                });
            }
        }
        let gm = &self.nodes[gamma.0].value;
        let bm = &self.nodes[beta.0].value;
        let mut normed = Matrix::zeros(rows, cols);
        let mut inv_std = Vec::with_capacity(rows);
        let mut value = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let row = xm.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let istd = 1.0 / (var + eps).sqrt();
            inv_std.push(istd);
            for (c, &xv) in row.iter().enumerate() {
                let n = (xv - mean) * istd;
                normed.set(r, c, n);
                value.set(r, c, n * gm.get(0, c) + bm.get(0, c));
            }
        }
        Ok(self.push_timed(
            prof,
            value,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                normed,
                inv_std,
            },
        ))
    }

    /// Select rows of `src` by `idx` (duplicates allowed).
    pub fn gather_rows(&mut self, src: Var, idx: &[usize]) -> Var {
        Self::recorded(self.try_gather_rows(src, idx))
    }

    /// Shape-checked [`Tape::gather_rows`].
    pub fn try_gather_rows(&mut self, src: Var, idx: &[usize]) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        let rows = self.nodes[src.0].value.rows();
        if let Some(&bad) = idx.iter().find(|&&i| i >= rows) {
            return Err(TapeError::IndexOutOfRange {
                op: "gather_rows",
                index: bad,
                len: rows,
            });
        }
        let value = self.nodes[src.0].value.gather_rows(idx);
        Ok(self.push_timed(
            prof,
            value,
            Op::GatherRows {
                src,
                idx: idx.to_vec(),
            },
        ))
    }

    /// Inverted dropout with keep-probability `1-p`. Identity when the tape
    /// is in inference mode or `p == 0`.
    pub fn dropout(&mut self, x: Var, p: f32, rng: &mut impl rand::Rng) -> Var {
        if !self.train || p <= 0.0 {
            return x;
        }
        let prof = OpTimer::start();
        assert!(p < 1.0, "dropout probability must be < 1");
        let (rows, cols) = self.nodes[x.0].value.shape();
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let mask = Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen::<f32>() < keep {
                scale
            } else {
                0.0
            }
        });
        let value = self.nodes[x.0].value.hadamard(&mask);
        self.push_timed(prof, value, Op::Dropout { x, mask })
    }

    /// Stack vars vertically (equal column counts).
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        Self::recorded(self.try_concat_rows(parts))
    }

    /// Shape-checked [`Tape::concat_rows`].
    pub fn try_concat_rows(&mut self, parts: &[Var]) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        if let [first, rest @ ..] = parts {
            let want = self.nodes[first.0].value.cols();
            for p in rest {
                let shape = self.nodes[p.0].value.shape();
                if shape.1 != want {
                    return Err(TapeError::ShapeMismatch {
                        op: "concat_rows",
                        lhs: self.nodes[first.0].value.shape(),
                        rhs: shape,
                    });
                }
            }
        }
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.nodes[v.0].value).collect();
        let value = Matrix::vstack(&mats);
        Ok(self.push_timed(prof, value, Op::ConcatRows(parts.to_vec())))
    }

    /// Stack vars horizontally (equal row counts).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        Self::recorded(self.try_concat_cols(parts))
    }

    /// Shape-checked [`Tape::concat_cols`].
    pub fn try_concat_cols(&mut self, parts: &[Var]) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        if let [first, rest @ ..] = parts {
            let want = self.nodes[first.0].value.rows();
            for p in rest {
                let shape = self.nodes[p.0].value.shape();
                if shape.0 != want {
                    return Err(TapeError::ShapeMismatch {
                        op: "concat_cols",
                        lhs: self.nodes[first.0].value.shape(),
                        rhs: shape,
                    });
                }
            }
        }
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.nodes[v.0].value).collect();
        let value = Matrix::hstack(&mats);
        Ok(self.push_timed(prof, value, Op::ConcatCols(parts.to_vec())))
    }

    /// Copy of rows `[start, start+len)`.
    pub fn slice_rows(&mut self, x: Var, start: usize, len: usize) -> Var {
        Self::recorded(self.try_slice_rows(x, start, len))
    }

    /// Shape-checked [`Tape::slice_rows`].
    pub fn try_slice_rows(&mut self, x: Var, start: usize, len: usize) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        let rows = self.nodes[x.0].value.rows();
        if start + len > rows {
            return Err(TapeError::IndexOutOfRange {
                op: "slice_rows",
                index: start + len,
                len: rows,
            });
        }
        let value = self.nodes[x.0].value.slice_rows(start, len);
        Ok(self.push_timed(prof, value, Op::SliceRows { x, start }))
    }

    /// Copy of columns `[start, start+len)`.
    pub fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        Self::recorded(self.try_slice_cols(x, start, len))
    }

    /// Shape-checked [`Tape::slice_cols`].
    pub fn try_slice_cols(&mut self, x: Var, start: usize, len: usize) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        let cols = self.nodes[x.0].value.cols();
        if start + len > cols {
            return Err(TapeError::IndexOutOfRange {
                op: "slice_cols",
                index: start + len,
                len: cols,
            });
        }
        let value = self.nodes[x.0].value.slice_cols(start, len);
        Ok(self.push_timed(prof, value, Op::SliceCols { x, start }))
    }

    /// Mean over rows, producing a `(1, C)` row.
    pub fn mean_rows(&mut self, x: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.nodes[x.0].value.mean_rows();
        self.push_timed(prof, value, Op::MeanRows(x))
    }

    /// Mean of every element, producing a scalar var.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let prof = OpTimer::start();
        let m = &self.nodes[x.0].value;
        let value = Matrix::scalar(m.sum() / m.len() as f32);
        self.push_timed(prof, value, Op::MeanAll(x))
    }

    /// Validate a (matrix, class-target list) pairing for a loss op.
    fn check_targets(&self, op: &'static str, m: Var, targets: &[usize]) -> Result<(), TapeError> {
        let shape = self.nodes[m.0].value.shape();
        if shape.0 != targets.len() {
            return Err(TapeError::BadShape {
                op,
                got: shape,
                want: "one row per target",
            });
        }
        if let Some(&bad) = targets.iter().find(|&&t| t >= shape.1) {
            return Err(TapeError::TargetOutOfRange {
                op,
                target: bad,
                classes: shape.1,
            });
        }
        Ok(())
    }

    /// Mean cross-entropy of row-wise softmax(logits) against integer
    /// `targets`. Returns a scalar var.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        Self::recorded(self.try_cross_entropy(logits, targets))
    }

    /// Shape-checked [`Tape::cross_entropy`].
    pub fn try_cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        self.check_targets("cross_entropy", logits, targets)?;
        let lm = &self.nodes[logits.0].value;
        let probs = lm.softmax_rows();
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            loss -= probs.get(r, t).max(1e-12).ln();
        }
        loss /= targets.len() as f32;
        Ok(self.push_timed(
            prof,
            Matrix::scalar(loss),
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
        ))
    }

    /// Mean negative log likelihood of already-normalized probabilities:
    /// `-(1/n) Σ log probs[r][targets[r]]`. Scalar var.
    pub fn nll_probs(&mut self, probs: Var, targets: &[usize]) -> Var {
        Self::recorded(self.try_nll_probs(probs, targets))
    }

    /// Shape-checked [`Tape::nll_probs`].
    pub fn try_nll_probs(&mut self, probs: Var, targets: &[usize]) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        self.check_targets("nll_probs", probs, targets)?;
        let pm = &self.nodes[probs.0].value;
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            loss -= pm.get(r, t).max(1e-12).ln();
        }
        loss /= targets.len() as f32;
        Ok(self.push_timed(
            prof,
            Matrix::scalar(loss),
            Op::NllProbs {
                probs,
                targets: targets.to_vec(),
            },
        ))
    }

    /// Mean squared error against a constant target matrix. Scalar var.
    pub fn mse_loss(&mut self, pred: Var, target: &Matrix) -> Var {
        Self::recorded(self.try_mse_loss(pred, target))
    }

    /// Shape-checked [`Tape::mse_loss`].
    pub fn try_mse_loss(&mut self, pred: Var, target: &Matrix) -> Result<Var, TapeError> {
        let prof = OpTimer::start();
        let pm = &self.nodes[pred.0].value;
        if pm.shape() != target.shape() {
            return Err(TapeError::ShapeMismatch {
                op: "mse_loss",
                lhs: pm.shape(),
                rhs: target.shape(),
            });
        }
        let diff = pm.sub(target);
        let loss = diff.data().iter().map(|d| d * d).sum::<f32>() / pm.len() as f32;
        Ok(self.push_timed(
            prof,
            Matrix::scalar(loss),
            Op::MseLoss {
                pred,
                target: target.clone(),
            },
        ))
    }

    fn add_grad(&mut self, v: Var, g: Matrix) {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Run reverse-mode differentiation from scalar `loss`.
    pub fn backward(&mut self, loss: Var) {
        Self::recorded_unit(self.try_backward(loss))
    }

    /// Shape-checked [`Tape::backward`]: fails if `loss` is not scalar.
    pub fn try_backward(&mut self, loss: Var) -> Result<(), TapeError> {
        // Timing is telemetry-gated so the hot path stays free of clock
        // reads when no sink is active.
        let timed = em_obs::Stopwatch::if_enabled();
        let shape = self.nodes[loss.0].value.shape();
        if shape != (1, 1) {
            return Err(TapeError::BadShape {
                op: "backward",
                got: shape,
                want: "a scalar (1x1) loss",
            });
        }
        let sanitize = sanitize_enabled();
        let profiling = op_profile_enabled();
        self.nodes[loss.0].grad = Some(Matrix::scalar(1.0));
        for i in (0..=loss.0).rev() {
            let g = match self.nodes[i].grad.take() {
                Some(g) => g,
                None => continue,
            };
            if sanitize {
                self.sanitize_node(i, Some(&g));
            }
            if profiling {
                let sw = em_obs::Stopwatch::new();
                let idx = self.nodes[i].op.index();
                self.backprop_node(i, &g);
                OP_TABLE.record_bwd(idx, (sw.secs() * 1e9) as u64);
            } else {
                self.backprop_node(i, &g);
            }
            self.nodes[i].grad = Some(g);
        }
        if let Some(sw) = timed {
            use std::sync::OnceLock;
            static BACKWARD_SECS: OnceLock<em_obs::metrics::Histogram> = OnceLock::new();
            BACKWARD_SECS
                .get_or_init(|| em_obs::metrics::histogram("nn_tape_backward_secs", &[]))
                .record(sw.secs());
        }
        // Graph-size counters (reports divide these by optimizer steps to
        // explain per-step cost). Kept outside the telemetry gate: two
        // relaxed atomic adds, and counters must agree with step counts.
        static TAPE_NODES: std::sync::OnceLock<em_obs::metrics::Counter> =
            std::sync::OnceLock::new();
        static TAPE_PARAM_LEAVES: std::sync::OnceLock<em_obs::metrics::Counter> =
            std::sync::OnceLock::new();
        TAPE_NODES
            .get_or_init(|| em_obs::metrics::counter("nn_tape_nodes", &[]))
            .add(self.nodes.len() as u64);
        TAPE_PARAM_LEAVES
            .get_or_init(|| em_obs::metrics::counter("nn_tape_param_leaves", &[]))
            .add(self.param_cache.len() as u64);
        Ok(())
    }

    /// Check one node's value (and, if present, gradient) buffers for
    /// NaN/Inf and emit a `non_finite` event per bad buffer. Returns true
    /// when everything is finite.
    fn sanitize_node(&self, i: usize, grad: Option<&Matrix>) -> bool {
        fn count_bad(m: &Matrix) -> u64 {
            m.data().iter().filter(|x| !x.is_finite()).count() as u64
        }
        let node = &self.nodes[i];
        let mut clean = true;
        let bad = count_bad(&node.value);
        if bad > 0 {
            clean = false;
            em_obs::non_finite(
                node.op.name(),
                i as u64,
                "value",
                bad,
                node.value.len() as u64,
            );
        }
        if let Some(g) = grad {
            let bad = count_bad(g);
            if bad > 0 {
                clean = false;
                em_obs::non_finite(node.op.name(), i as u64, "grad", bad, g.len() as u64);
            }
        }
        clean
    }

    /// Sanitizer sweep over every recorded value buffer (no gradients
    /// required) — the forward-pass half of `PROMPTEM_SANITIZE=1`. Returns
    /// the number of nodes with at least one non-finite element.
    pub fn sanitize_values(&self) -> usize {
        (0..self.nodes.len())
            .filter(|&i| !self.sanitize_node(i, None))
            .count()
    }

    fn backprop_node(&mut self, i: usize, g: &Matrix) {
        // Split borrows: read the op by pointer, mutate grads via add_grad.
        // Ops are cheap to match; values needed for backward are cloned or
        // recomputed locally.
        let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
        match &op {
            Op::Leaf => {}
            Op::Matmul(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.matmul_nt(&self.nodes[b.0].value);
                let db = self.nodes[a.0].value.matmul_tn(g);
                self.add_grad(a, da);
                self.add_grad(b, db);
            }
            Op::Add(a, b) => {
                self.add_grad(*a, g.clone());
                self.add_grad(*b, g.clone());
            }
            Op::AddRowBroadcast(a, b) => {
                self.add_grad(*a, g.clone());
                // Sum over rows into a (1,C) gradient.
                let mut db = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                self.add_grad(*b, db);
            }
            Op::Sub(a, b) => {
                self.add_grad(*a, g.clone());
                self.add_grad(*b, g.scale(-1.0));
            }
            Op::Mul(a, b) => {
                let (a, b) = (*a, *b);
                let da = g.hadamard(&self.nodes[b.0].value);
                let db = g.hadamard(&self.nodes[a.0].value);
                self.add_grad(a, da);
                self.add_grad(b, db);
            }
            Op::Scale(a, c) => self.add_grad(*a, g.scale(*c)),
            Op::GradReverse(a, lambda) => self.add_grad(*a, g.scale(-*lambda)),
            Op::Transpose(a) => self.add_grad(*a, g.transpose()),
            Op::AddConst(a) => self.add_grad(*a, g.clone()),
            Op::Tanh(a) => {
                let y = &self.nodes[i].value;
                let da = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                    let t = y.get(r, c);
                    g.get(r, c) * (1.0 - t * t)
                });
                self.add_grad(*a, da);
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[i].value;
                let da = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                    let s = y.get(r, c);
                    g.get(r, c) * s * (1.0 - s)
                });
                self.add_grad(*a, da);
            }
            Op::Gelu(a) => {
                let x = &self.nodes[a.0].value;
                let data = x.data().iter().zip(g.data()).map(|(&x, &g)| g * gelu_dx(x));
                let da = Matrix::from_vec(x.rows(), x.cols(), data.collect());
                self.add_grad(*a, da);
            }
            Op::Relu(a) => {
                let x = &self.nodes[a.0].value;
                let da = Matrix::from_fn(x.rows(), x.cols(), |r, c| {
                    if x.get(r, c) > 0.0 {
                        g.get(r, c)
                    } else {
                        0.0
                    }
                });
                self.add_grad(*a, da);
            }
            Op::SoftmaxRows(a) => {
                let y = &self.nodes[i].value;
                let mut da = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let dot: f32 = y.row(r).iter().zip(g.row(r)).map(|(a, b)| a * b).sum();
                    for c in 0..y.cols() {
                        da.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                    }
                }
                self.add_grad(*a, da);
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                normed,
                inv_std,
            } => {
                let gm = self.nodes[gamma.0].value.clone();
                let (rows, cols) = normed.shape();
                let mut dx = Matrix::zeros(rows, cols);
                let mut dgamma = Matrix::zeros(1, cols);
                let mut dbeta = Matrix::zeros(1, cols);
                for (r, &istd) in inv_std.iter().enumerate() {
                    // dy-hat = g * gamma; standard layernorm backward per row.
                    let mut dyh = vec![0.0f32; cols];
                    for (c, d) in dyh.iter_mut().enumerate() {
                        let gv = g.get(r, c);
                        *d = gv * gm.get(0, c);
                        dgamma.row_mut(0)[c] += gv * normed.get(r, c);
                        dbeta.row_mut(0)[c] += gv;
                    }
                    let mean_dyh = dyh.iter().sum::<f32>() / cols as f32;
                    let mean_dyh_n = dyh
                        .iter()
                        .enumerate()
                        .map(|(c, &d)| d * normed.get(r, c))
                        .sum::<f32>()
                        / cols as f32;
                    for (c, &d) in dyh.iter().enumerate() {
                        let n = normed.get(r, c);
                        dx.set(r, c, istd * (d - mean_dyh - n * mean_dyh_n));
                    }
                }
                self.add_grad(*x, dx);
                self.add_grad(*gamma, dgamma);
                self.add_grad(*beta, dbeta);
            }
            Op::GatherRows { src, idx } => {
                let (rows, cols) = self.nodes[src.0].value.shape();
                let mut da = Matrix::zeros(rows, cols);
                for (out_r, &src_r) in idx.iter().enumerate() {
                    for (o, &x) in da.row_mut(src_r).iter_mut().zip(g.row(out_r)) {
                        *o += x;
                    }
                }
                self.add_grad(*src, da);
            }
            Op::Dropout { x, mask } => self.add_grad(*x, g.hadamard(mask)),
            Op::ConcatRows(parts) => {
                let mut start = 0;
                for &p in parts {
                    let rows = self.nodes[p.0].value.rows();
                    self.add_grad(p, g.slice_rows(start, rows));
                    start += rows;
                }
            }
            Op::ConcatCols(parts) => {
                let mut start = 0;
                for &p in parts {
                    let cols = self.nodes[p.0].value.cols();
                    self.add_grad(p, g.slice_cols(start, cols));
                    start += cols;
                }
            }
            Op::SliceRows { x, start } => {
                let (rows, cols) = self.nodes[x.0].value.shape();
                let mut da = Matrix::zeros(rows, cols);
                for r in 0..g.rows() {
                    da.row_mut(start + r).copy_from_slice(g.row(r));
                }
                self.add_grad(*x, da);
            }
            Op::SliceCols { x, start } => {
                let (rows, cols) = self.nodes[x.0].value.shape();
                let mut da = Matrix::zeros(rows, cols);
                for r in 0..g.rows() {
                    da.row_mut(r)[*start..start + g.cols()].copy_from_slice(g.row(r));
                }
                self.add_grad(*x, da);
            }
            Op::MeanRows(x) => {
                let rows = self.nodes[x.0].value.rows();
                let inv = 1.0 / rows as f32;
                let da = Matrix::from_fn(rows, g.cols(), |_, c| g.get(0, c) * inv);
                self.add_grad(*x, da);
            }
            Op::MeanAll(x) => {
                let (rows, cols) = self.nodes[x.0].value.shape();
                let v = g.item() / (rows * cols) as f32;
                self.add_grad(*x, Matrix::full(rows, cols, v));
            }
            Op::CrossEntropy {
                logits,
                targets,
                probs,
            } => {
                let gs = g.item() / targets.len() as f32;
                let mut da = probs.scale(gs);
                for (r, &t) in targets.iter().enumerate() {
                    let cur = da.get(r, t);
                    da.set(r, t, cur - gs);
                }
                self.add_grad(*logits, da);
            }
            Op::NllProbs { probs, targets } => {
                let pm = &self.nodes[probs.0].value;
                let gs = g.item() / targets.len() as f32;
                let mut da = Matrix::zeros(pm.rows(), pm.cols());
                for (r, &t) in targets.iter().enumerate() {
                    da.set(r, t, -gs / pm.get(r, t).max(1e-12));
                }
                self.add_grad(*probs, da);
            }
            Op::MseLoss { pred, target } => {
                let pm = &self.nodes[pred.0].value;
                let c = 2.0 * g.item() / pm.len() as f32;
                let da = pm.sub(target).scale(c);
                self.add_grad(*pred, da);
            }
        }
        self.nodes[i].op = op;
    }

    /// Fold parameter-leaf gradients back into the store's grad buffers.
    /// Call after [`Tape::backward`].
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for (&id, &var) in &self.param_cache {
            if let Some(g) = &self.nodes[var.0].grad {
                store.grad_mut(id).add_assign(g);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tape-free inference
// ---------------------------------------------------------------------------

thread_local! {
    /// Nodes this thread has ever pushed onto any recording [`Tape`].
    /// Diagnostics only: the tape-free tests pin this counter flat across a
    /// [`NoGradTape`] forward — the "zero tape nodes" claim is asserted, not
    /// stated (same proof pattern as the heartbeat module's `clock_reads`).
    static NODES_PUSHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total tape nodes recorded by the current thread since it started. A
/// [`NoGradTape`] forward must leave this unchanged.
pub fn nodes_recorded_on_thread() -> u64 {
    NODES_PUSHED.with(|c| c.get())
}

/// Advance `rng` past `n` dropout draws without using them. Single-row
/// forwards (`MultiHeadSelfAttention::forward_row` and the encoder row
/// path built on it) skip whole rows of each dropout mask but must leave
/// the RNG in exactly the state the full forward would: the draws for the
/// skipped rows are burned at their stream positions, so analytic draw
/// counts (`Encoder::dropout_draws`) hold for both paths. One `next_u64`
/// per element mirrors dropout's `gen::<f32>()`, which makes exactly one.
pub fn burn_draws(rng: &mut impl rand::Rng, n: usize) {
    for _ in 0..n {
        rng.next_u64();
    }
}

/// Profiler slots for the tape-free path: positions in
/// [`em_obs::names::ALL_OP_NAMES`], numerically identical to `Op::index`
/// (a test pins every constant against the registry).
mod op_idx {
    pub const LEAF: usize = 0;
    pub const MATMUL: usize = 1;
    pub const ADD: usize = 2;
    pub const ADD_ROW_BROADCAST: usize = 3;
    pub const SUB: usize = 4;
    pub const MUL: usize = 5;
    pub const SCALE: usize = 6;
    pub const ADD_CONST: usize = 7;
    pub const TRANSPOSE: usize = 9;
    pub const TANH: usize = 10;
    pub const SIGMOID: usize = 11;
    pub const GELU: usize = 12;
    pub const RELU: usize = 13;
    pub const SOFTMAX_ROWS: usize = 14;
    pub const LAYER_NORM: usize = 15;
    pub const GATHER_ROWS: usize = 16;
    pub const DROPOUT: usize = 17;
    pub const CONCAT_ROWS: usize = 18;
    pub const CONCAT_COLS: usize = 19;
    pub const SLICE_ROWS: usize = 20;
    pub const SLICE_COLS: usize = 21;
    pub const MEAN_ROWS: usize = 22;
}

/// The forward-only op surface shared by the recording [`Tape`] and the
/// tape-free [`NoGradTape`].
///
/// Model forwards (`em-layers`, `mini-lm`, `em-core`) are generic over this
/// trait, so one implementation of each layer serves both modes: training
/// instantiates it with [`Tape`] (recording, differentiable), inference with
/// [`NoGradTape`] (value-only, zero graph bookkeeping). Loss ops,
/// `backward`, and the graph-topology accessors are deliberately *not* part
/// of the trait — code that differentiates must name [`Tape`] concretely.
///
/// Both implementations run the identical numeric kernels in identical
/// order — including the RNG draw order and `x * m` products inside
/// [`TapeExec::dropout`] — so outputs are bit-exact across modes; tests
/// here and in `mini-lm`/`em-core` pin that equivalence.
pub trait TapeExec {
    /// True when dropout is active (a training-mode executor).
    fn is_train(&self) -> bool;
    /// Insert a constant leaf.
    fn constant(&mut self, value: Matrix) -> Var;
    /// Insert (or reuse) a leaf mirroring parameter `id` from `store`.
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var;
    /// The forward value of `v`.
    fn value(&self, v: Var) -> &Matrix;
    /// Matrix product `a @ b`.
    fn matmul(&mut self, a: Var, b: Var) -> Var;
    /// Matrix product `a @ k` with a borrowed constant right operand (no
    /// gradient to `k`). The tape-free executor multiplies against `k`
    /// directly, so a large operand shared by many forwards (the scoring
    /// head's transposed tied decoder) is never copied into the tape.
    fn matmul_const(&mut self, a: Var, k: &Matrix) -> Var;
    /// Elementwise sum (same shapes).
    fn add(&mut self, a: Var, b: Var) -> Var;
    /// `a + b` where `b` is a (1,C) row broadcast over the rows of `a`.
    fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var;
    /// Elementwise difference.
    fn sub(&mut self, a: Var, b: Var) -> Var;
    /// Elementwise (Hadamard) product.
    fn mul(&mut self, a: Var, b: Var) -> Var;
    /// Multiply every element by the constant `c`.
    fn scale(&mut self, a: Var, c: f32) -> Var;
    /// Add a constant matrix elementwise (no gradient to the constant).
    fn add_const(&mut self, a: Var, k: &Matrix) -> Var;
    /// Matrix transpose.
    fn transpose(&mut self, a: Var) -> Var;
    /// Elementwise `tanh`.
    fn tanh(&mut self, a: Var) -> Var;
    /// Elementwise logistic sigmoid.
    fn sigmoid(&mut self, a: Var) -> Var;
    /// Elementwise GELU (tanh approximation, as in BERT).
    fn gelu(&mut self, a: Var) -> Var;
    /// Elementwise ReLU.
    fn relu(&mut self, a: Var) -> Var;
    /// Row-wise softmax.
    fn softmax_rows(&mut self, a: Var) -> Var;
    /// Row-wise layer normalization. `gamma` and `beta` must be (1,C).
    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var;
    /// Select rows of `src` by `idx` (duplicates allowed).
    fn gather_rows(&mut self, src: Var, idx: &[usize]) -> Var;
    /// Inverted dropout with keep-probability `1-p`. Identity when the
    /// executor is in inference mode or `p == 0`.
    fn dropout(&mut self, x: Var, p: f32, rng: &mut impl rand::Rng) -> Var;
    /// Stack vars vertically (equal column counts).
    fn concat_rows(&mut self, parts: &[Var]) -> Var;
    /// Stack vars horizontally (equal row counts).
    fn concat_cols(&mut self, parts: &[Var]) -> Var;
    /// Copy of rows `[start, start+len)`.
    fn slice_rows(&mut self, x: Var, start: usize, len: usize) -> Var;
    /// Copy of columns `[start, start+len)`.
    fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var;
    /// Mean over rows, producing a `(1, C)` row.
    fn mean_rows(&mut self, x: Var) -> Var;
}

impl TapeExec for Tape {
    fn is_train(&self) -> bool {
        self.train
    }
    fn constant(&mut self, value: Matrix) -> Var {
        Tape::constant(self, value)
    }
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        Tape::param(self, store, id)
    }
    fn value(&self, v: Var) -> &Matrix {
        Tape::value(self, v)
    }
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        Tape::matmul(self, a, b)
    }
    fn matmul_const(&mut self, a: Var, k: &Matrix) -> Var {
        let k = Tape::constant(self, k.clone());
        Tape::matmul(self, a, k)
    }
    fn add(&mut self, a: Var, b: Var) -> Var {
        Tape::add(self, a, b)
    }
    fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        Tape::add_row_broadcast(self, a, b)
    }
    fn sub(&mut self, a: Var, b: Var) -> Var {
        Tape::sub(self, a, b)
    }
    fn mul(&mut self, a: Var, b: Var) -> Var {
        Tape::mul(self, a, b)
    }
    fn scale(&mut self, a: Var, c: f32) -> Var {
        Tape::scale(self, a, c)
    }
    fn add_const(&mut self, a: Var, k: &Matrix) -> Var {
        Tape::add_const(self, a, k)
    }
    fn transpose(&mut self, a: Var) -> Var {
        Tape::transpose(self, a)
    }
    fn tanh(&mut self, a: Var) -> Var {
        Tape::tanh(self, a)
    }
    fn sigmoid(&mut self, a: Var) -> Var {
        Tape::sigmoid(self, a)
    }
    fn gelu(&mut self, a: Var) -> Var {
        Tape::gelu(self, a)
    }
    fn relu(&mut self, a: Var) -> Var {
        Tape::relu(self, a)
    }
    fn softmax_rows(&mut self, a: Var) -> Var {
        Tape::softmax_rows(self, a)
    }
    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        Tape::layer_norm(self, x, gamma, beta, eps)
    }
    fn gather_rows(&mut self, src: Var, idx: &[usize]) -> Var {
        Tape::gather_rows(self, src, idx)
    }
    fn dropout(&mut self, x: Var, p: f32, rng: &mut impl rand::Rng) -> Var {
        Tape::dropout(self, x, p, rng)
    }
    fn concat_rows(&mut self, parts: &[Var]) -> Var {
        Tape::concat_rows(self, parts)
    }
    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        Tape::concat_cols(self, parts)
    }
    fn slice_rows(&mut self, x: Var, start: usize, len: usize) -> Var {
        Tape::slice_rows(self, x, start, len)
    }
    fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        Tape::slice_cols(self, x, start, len)
    }
    fn mean_rows(&mut self, x: Var) -> Var {
        Tape::mean_rows(self, x)
    }
}

/// Value-only executor: runs the same op kernels as [`Tape`] but records no
/// graph — no op payloads, no grad slots, no LayerNorm/Dropout caches — so
/// a forward pass allocates nothing beyond the value matrices themselves.
///
/// Every inference path uses this (teacher scoring, MC-dropout uncertainty,
/// grid probes, CLI `match` prediction). `train` controls dropout exactly as
/// on [`Tape`]: MC-dropout scoring runs a *training-mode* `NoGradTape`
/// (dropout active, RNG consumed in the same order as a recording tape),
/// deterministic prediction runs [`NoGradTape::inference`].
pub struct NoGradTape {
    slots: Vec<Matrix>,
    param_cache: HashMap<ParamId, Var>,
    /// When false, `dropout` is the identity (inference mode).
    pub train: bool,
}

impl Default for NoGradTape {
    fn default() -> Self {
        Self::new()
    }
}

impl NoGradTape {
    /// A fresh training-mode executor (dropout active; MC-dropout scoring).
    pub fn new() -> Self {
        NoGradTape {
            slots: Vec::with_capacity(256),
            param_cache: HashMap::new(),
            train: true,
        }
    }

    /// An executor whose dropout layers are disabled (deterministic
    /// inference).
    pub fn inference() -> Self {
        let mut t = Self::new();
        t.train = false;
        t
    }

    /// Number of values held so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no value has been computed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn push(&mut self, timer: Option<OpTimer>, op_idx: usize, value: Matrix) -> Var {
        if let Some(t) = timer {
            t.finish(op_idx, value.len());
        }
        self.slots.push(value);
        Var(self.slots.len() - 1)
    }
}

impl TapeExec for NoGradTape {
    fn is_train(&self) -> bool {
        self.train
    }

    fn constant(&mut self, value: Matrix) -> Var {
        let prof = OpTimer::start();
        self.push(prof, op_idx::LEAF, value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.param_cache.get(&id) {
            return v;
        }
        let prof = OpTimer::start();
        let value = store.value(id).clone();
        let v = self.push(prof, op_idx::LEAF, value);
        self.param_cache.insert(id, v);
        v
    }

    fn value(&self, v: Var) -> &Matrix {
        &self.slots[v.0]
    }

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].matmul(&self.slots[b.0]);
        self.push(prof, op_idx::MATMUL, value)
    }

    fn matmul_const(&mut self, a: Var, k: &Matrix) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].matmul(k);
        self.push(prof, op_idx::MATMUL, value)
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].add(&self.slots[b.0]);
        self.push(prof, op_idx::ADD, value)
    }

    fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let (am, bm) = (&self.slots[a.0], &self.slots[b.0]);
        assert_eq!(bm.rows(), 1, "add_row_broadcast needs a (1,C) row vector");
        assert_eq!(am.cols(), bm.cols(), "add_row_broadcast column mismatch");
        let mut value = am.clone();
        for r in 0..value.rows() {
            for (v, &x) in value.row_mut(r).iter_mut().zip(self.slots[b.0].row(0)) {
                *v += x;
            }
        }
        self.push(prof, op_idx::ADD_ROW_BROADCAST, value)
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].sub(&self.slots[b.0]);
        self.push(prof, op_idx::SUB, value)
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].hadamard(&self.slots[b.0]);
        self.push(prof, op_idx::MUL, value)
    }

    fn scale(&mut self, a: Var, c: f32) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].scale(c);
        self.push(prof, op_idx::SCALE, value)
    }

    fn add_const(&mut self, a: Var, k: &Matrix) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].add(k);
        self.push(prof, op_idx::ADD_CONST, value)
    }

    fn transpose(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].transpose();
        self.push(prof, op_idx::TRANSPOSE, value)
    }

    fn tanh(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].map(mathf::tanh);
        self.push(prof, op_idx::TANH, value)
    }

    fn sigmoid(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].map(|x| 1.0 / (1.0 + mathf::exp(-x)));
        self.push(prof, op_idx::SIGMOID, value)
    }

    fn gelu(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].map(gelu);
        self.push(prof, op_idx::GELU, value)
    }

    fn relu(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].map(|x| x.max(0.0));
        self.push(prof, op_idx::RELU, value)
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[a.0].softmax_rows();
        self.push(prof, op_idx::SOFTMAX_ROWS, value)
    }

    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let prof = OpTimer::start();
        let (rows, cols) = self.slots[x.0].shape();
        for v in [gamma, beta] {
            assert_eq!(
                self.slots[v.0].shape(),
                (1, cols),
                "layer_norm gain/bias must be (1,C)"
            );
        }
        // Same per-row arithmetic as the recording tape, minus the `normed`
        // and `inv_std` backward caches.
        let mut value = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let row = self.slots[x.0].row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let istd = 1.0 / (var + eps).sqrt();
            for (c, &xv) in row.iter().enumerate() {
                let n = (xv - mean) * istd;
                value.set(
                    r,
                    c,
                    n * self.slots[gamma.0].get(0, c) + self.slots[beta.0].get(0, c),
                );
            }
        }
        self.push(prof, op_idx::LAYER_NORM, value)
    }

    fn gather_rows(&mut self, src: Var, idx: &[usize]) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[src.0].gather_rows(idx);
        self.push(prof, op_idx::GATHER_ROWS, value)
    }

    fn dropout(&mut self, x: Var, p: f32, rng: &mut impl rand::Rng) -> Var {
        if !self.train || p <= 0.0 {
            return x;
        }
        let prof = OpTimer::start();
        assert!(p < 1.0, "dropout probability must be < 1");
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let xm = &self.slots[x.0];
        // Fused mask-multiply: identical draws in identical (row-major)
        // order and the same `x * m` products as the recording tape's
        // mask + hadamard, without materializing the mask. Streaming the
        // backing slice keeps the per-element cost at one draw + one
        // multiply (no index arithmetic).
        let data: Vec<f32> = xm
            .data()
            .iter()
            .map(|&v| {
                let m = if rng.gen::<f32>() < keep { scale } else { 0.0 };
                v * m
            })
            .collect();
        let value = Matrix::from_vec(xm.rows(), xm.cols(), data);
        self.push(prof, op_idx::DROPOUT, value)
    }

    fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let prof = OpTimer::start();
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.slots[v.0]).collect();
        let value = Matrix::vstack(&mats);
        self.push(prof, op_idx::CONCAT_ROWS, value)
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let prof = OpTimer::start();
        let mats: Vec<&Matrix> = parts.iter().map(|v| &self.slots[v.0]).collect();
        let value = Matrix::hstack(&mats);
        self.push(prof, op_idx::CONCAT_COLS, value)
    }

    fn slice_rows(&mut self, x: Var, start: usize, len: usize) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[x.0].slice_rows(start, len);
        self.push(prof, op_idx::SLICE_ROWS, value)
    }

    fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[x.0].slice_cols(start, len);
        self.push(prof, op_idx::SLICE_COLS, value)
    }

    fn mean_rows(&mut self, x: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.slots[x.0].mean_rows();
        self.push(prof, op_idx::MEAN_ROWS, value)
    }
}

/// GELU in its tanh approximation (as used by BERT/RoBERTa), not the
/// exact erf form: `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + mathf::tanh(C * (x + 0.044715 * x * x * x)))
}

/// Derivative of the tanh-form GELU.
#[inline(always)]
pub fn gelu_dx(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = C * (x + 0.044715 * x3);
    let t = mathf::tanh(inner);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::ParamStore;

    /// Central-difference check of `d loss / d x[r][c]` for a scalar-valued
    /// computation `f(tape, x_var)`.
    fn grad_check(x0: Matrix, f: impl Fn(&mut Tape, Var) -> Var) {
        let mut tape = Tape::new();
        let x = tape.constant(x0.clone());
        let loss = f(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x);

        let eps = 1e-3f32;
        for r in 0..x0.rows() {
            for c in 0..x0.cols() {
                let mut xp = x0.clone();
                xp.set(r, c, x0.get(r, c) + eps);
                let mut tp = Tape::new();
                let vp = tp.constant(xp);
                let lp = f(&mut tp, vp);
                let fp = tp.value(lp).item();

                let mut xm = x0.clone();
                xm.set(r, c, x0.get(r, c) - eps);
                let mut tm = Tape::new();
                let vm = tm.constant(xm);
                let lm = f(&mut tm, vm);
                let fm = tm.value(lm).item();

                let numeric = (fp - fm) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                    "grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    fn test_input() -> Matrix {
        Matrix::from_vec(2, 3, vec![0.5, -1.2, 0.3, 0.9, -0.4, 1.7])
    }

    #[test]
    fn backward_moves_graph_size_counters() {
        let nodes = em_obs::metrics::counter("nn_tape_nodes", &[]);
        let leaves = em_obs::metrics::counter("nn_tape_param_leaves", &[]);
        let (n0, l0) = (nodes.get(), leaves.get());
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 2, vec![0.5, -0.25]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        let loss = tape.mean_all(wv);
        tape.backward(loss);
        // Deltas, not absolutes: the registry is process-global and other
        // tests run backward passes in parallel.
        assert!(
            nodes.get() >= n0 + tape.len() as u64,
            "nn_tape_nodes did not move"
        );
        assert!(leaves.get() > l0, "nn_tape_param_leaves did not move");
    }

    #[test]
    fn grad_matmul() {
        let w = Matrix::from_vec(3, 2, vec![0.1, -0.2, 0.4, 0.3, -0.5, 0.2]);
        grad_check(test_input(), move |t, x| {
            let wv = t.constant(w.clone());
            let y = t.matmul(x, wv);
            t.mean_all(y)
        });
    }

    #[test]
    fn grad_matmul_rhs() {
        // Gradient w.r.t. the right operand of a matmul.
        let a = Matrix::from_vec(2, 2, vec![0.3, -0.8, 1.1, 0.2]);
        grad_check(
            Matrix::from_vec(2, 3, vec![0.5, -0.1, 0.2, 0.8, 0.4, -0.6]),
            move |t, x| {
                let av = t.constant(a.clone());
                let y = t.matmul(av, x);
                t.mean_all(y)
            },
        );
    }

    #[test]
    fn grad_elementwise_chain() {
        grad_check(test_input(), |t, x| {
            let a = t.tanh(x);
            let b = t.sigmoid(a);
            let c = t.mul(b, x);
            t.mean_all(c)
        });
    }

    #[test]
    fn grad_gelu_relu() {
        grad_check(test_input(), |t, x| {
            let a = t.gelu(x);
            let b = t.relu(a);
            t.mean_all(b)
        });
    }

    #[test]
    fn grad_softmax_rows() {
        // Weighted sum of softmax outputs so the gradient is non-trivial.
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.5, 2.0]);
        grad_check(test_input(), move |t, x| {
            let s = t.softmax_rows(x);
            let wv = t.constant(w.clone());
            let m = t.mul(s, wv);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_layer_norm() {
        let gamma = Matrix::from_vec(1, 3, vec![1.2, 0.8, 1.0]);
        let beta = Matrix::from_vec(1, 3, vec![0.1, -0.1, 0.0]);
        let w = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 0.3, 1.0, -1.0]);
        grad_check(test_input(), move |t, x| {
            let g = t.constant(gamma.clone());
            let b = t.constant(beta.clone());
            let y = t.layer_norm(x, g, b, 1e-5);
            let wv = t.constant(w.clone());
            let m = t.mul(y, wv);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_layer_norm_gamma_beta() {
        let x0 = test_input();
        let probe = Matrix::from_vec(2, 3, vec![1.0, -1.0, 2.0, 0.5, 0.2, -0.7]);
        // Check gamma gradient by treating gamma as the checked input.
        grad_check(Matrix::from_vec(1, 3, vec![1.0, 0.9, 1.1]), {
            let x0 = x0.clone();
            let probe = probe.clone();
            move |t, gamma| {
                let x = t.constant(x0.clone());
                let beta = t.constant(Matrix::zeros(1, 3));
                let y = t.layer_norm(x, gamma, beta, 1e-5);
                let p = t.constant(probe.clone());
                let m = t.mul(y, p);
                t.mean_all(m)
            }
        });
        // And the beta gradient.
        grad_check(
            Matrix::from_vec(1, 3, vec![0.0, 0.1, -0.2]),
            move |t, beta| {
                let x = t.constant(x0.clone());
                let gamma = t.constant(Matrix::full(1, 3, 1.0));
                let y = t.layer_norm(x, gamma, beta, 1e-5);
                let p = t.constant(probe.clone());
                let m = t.mul(y, p);
                t.mean_all(m)
            },
        );
    }

    #[test]
    fn grad_gather_and_slice() {
        grad_check(test_input(), |t, x| {
            let g = t.gather_rows(x, &[1, 0, 1]);
            let s = t.slice_rows(g, 1, 2);
            let c = t.slice_cols(s, 0, 2);
            t.mean_all(c)
        });
    }

    #[test]
    fn grad_concat() {
        grad_check(test_input(), |t, x| {
            let a = t.tanh(x);
            let rows = t.concat_rows(&[x, a]);
            let cols = t.concat_cols(&[rows, rows]);
            t.mean_all(cols)
        });
    }

    #[test]
    fn grad_cross_entropy() {
        grad_check(test_input(), |t, x| t.cross_entropy(x, &[2, 0]));
    }

    #[test]
    fn grad_reverse_flips_and_scales() {
        let mut tape = Tape::new();
        let x = tape.constant(test_input());
        let y = tape.grad_reverse(x, 0.5);
        assert_eq!(tape.value(y), tape.value(x));
        let loss = tape.mean_all(y);
        tape.backward(loss);
        let g = tape.grad(x);
        let expected = -0.5 / 6.0;
        for &v in g.data() {
            assert!((v - expected).abs() < 1e-6, "{v} vs {expected}");
        }
    }

    #[test]
    fn grad_nll_probs() {
        // Compose softmax + constant projection + NLL, the verbalizer path.
        let m = Matrix::from_vec(3, 2, vec![0.5, 0.0, 0.5, 0.0, 0.0, 1.0]);
        grad_check(test_input(), move |t, x| {
            let probs = t.softmax_rows(x);
            let mv = t.constant(m.clone());
            let class_probs = t.matmul(probs, mv);
            t.nll_probs(class_probs, &[0, 1])
        });
    }

    #[test]
    fn grad_mse() {
        let target = Matrix::from_vec(2, 3, vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0]);
        grad_check(test_input(), move |t, x| t.mse_loss(x, &target));
    }

    #[test]
    fn grad_mean_rows_broadcast() {
        let b = Matrix::from_vec(1, 3, vec![0.3, -0.2, 0.7]);
        grad_check(test_input(), move |t, x| {
            let bv = t.constant(b.clone());
            let y = t.add_row_broadcast(x, bv);
            let m = t.mean_rows(y);
            t.mean_all(m)
        });
    }

    #[test]
    fn grad_scale_sub_addconst() {
        let k = Matrix::from_vec(2, 3, vec![0.1; 6]);
        grad_check(test_input(), move |t, x| {
            let a = t.scale(x, 2.5);
            let b = t.sub(a, x);
            let c = t.add_const(b, &k);
            t.mean_all(c)
        });
    }

    #[test]
    fn param_grads_accumulate_into_store() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mut tape = Tape::new();
        let wv = tape.param(&store, w);
        // Parameter fetched twice must reuse the same leaf.
        let wv2 = tape.param(&store, w);
        assert_eq!(wv, wv2);
        let y = tape.mul(wv, wv2); // y = w^2 elementwise
        let loss = tape.mean_all(y);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        // d mean(w^2) / dw = 2w / 4
        let g = store.grad(w);
        for (i, expected) in [0.5f32, 1.0, 1.5, 2.0].iter().enumerate() {
            assert!((g.data()[i] - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn dropout_identity_in_inference() {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut tape = Tape::inference();
        let x = tape.constant(test_input());
        let y = tape.dropout(x, 0.5, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn op_indices_match_the_obs_registry() {
        // One of each variant; index() must be its position in
        // em_obs::names::ALL_OP_NAMES and name() the string stored there.
        let v = Var(0);
        let m = Matrix::zeros(1, 1);
        let ops = vec![
            Op::Leaf,
            Op::Matmul(v, v),
            Op::Add(v, v),
            Op::AddRowBroadcast(v, v),
            Op::Sub(v, v),
            Op::Mul(v, v),
            Op::Scale(v, 1.0),
            Op::AddConst(v),
            Op::GradReverse(v, 1.0),
            Op::Transpose(v),
            Op::Tanh(v),
            Op::Sigmoid(v),
            Op::Gelu(v),
            Op::Relu(v),
            Op::SoftmaxRows(v),
            Op::LayerNorm {
                x: v,
                gamma: v,
                beta: v,
                normed: m.clone(),
                inv_std: Vec::new(),
            },
            Op::GatherRows {
                src: v,
                idx: Vec::new(),
            },
            Op::Dropout {
                x: v,
                mask: m.clone(),
            },
            Op::ConcatRows(Vec::new()),
            Op::ConcatCols(Vec::new()),
            Op::SliceRows { x: v, start: 0 },
            Op::SliceCols { x: v, start: 0 },
            Op::MeanRows(v),
            Op::MeanAll(v),
            Op::CrossEntropy {
                logits: v,
                targets: Vec::new(),
                probs: m.clone(),
            },
            Op::MseLoss { pred: v, target: m },
            Op::NllProbs {
                probs: v,
                targets: Vec::new(),
            },
        ];
        assert_eq!(ops.len(), em_obs::names::ALL_OP_NAMES.len());
        let mut seen = vec![false; ops.len()];
        for op in &ops {
            assert_eq!(
                em_obs::names::ALL_OP_NAMES[op.index()],
                op.name(),
                "slot/name mismatch for {}",
                op.name()
            );
            assert!(!seen[op.index()], "duplicate slot {}", op.index());
            seen[op.index()] = true;
        }
    }

    #[test]
    fn op_profiler_off_is_silent_and_on_flushes_named_totals() {
        // Counter-based on purpose (wall-clock assertions are flaky): the
        // off phase asserts zero op_stats events and that flushing emits
        // nothing; the on phase asserts per-op call counts, and both
        // phases must record the identical graph.
        fn build_and_backward() -> usize {
            let mut tape = Tape::new();
            let x = tape.constant(Matrix::from_vec(2, 3, vec![0.5, -1.2, 0.3, 0.9, -0.4, 1.7]));
            let w = tape.constant(Matrix::from_vec(3, 2, vec![0.1, -0.2, 0.4, 0.3, -0.5, 0.2]));
            let y = tape.matmul(x, w);
            let a = tape.tanh(y);
            let loss = tape.mean_all(a);
            tape.backward(loss);
            tape.len()
        }
        let is_op_stats = |e: &em_obs::Event| matches!(e.kind, em_obs::EventKind::OpStats { .. });

        // Off (the default — the env override is never set under test).
        let (nodes_off, events_off) = em_obs::capture(build_and_backward);
        let ((), flush_off) = em_obs::capture(flush_op_stats);
        assert!(
            !events_off.iter().any(is_op_stats),
            "disabled profiler emitted op_stats"
        );
        assert!(
            !flush_off.iter().any(is_op_stats),
            "disabled flush emitted op_stats"
        );

        // On. Parallel tests in this process may add their own ops to the
        // global table while the switch is up, so assert lower bounds on
        // the ops this graph certainly recorded, never exact totals.
        set_op_profile(true);
        let (nodes_on, _) = em_obs::capture(build_and_backward);
        let ((), flushed) = em_obs::capture(flush_op_stats);
        set_op_profile(false);

        assert_eq!(nodes_off, nodes_on, "profiling changed the recorded graph");
        let stats = |name: &str| {
            flushed.iter().find_map(|e| match &e.kind {
                em_obs::EventKind::OpStats {
                    op,
                    fwd_calls,
                    bwd_calls,
                    elems,
                    ..
                } if op == name => Some((*fwd_calls, *bwd_calls, *elems)),
                _ => None,
            })
        };
        for (name, min_elems) in [("leaf", 12), ("matmul", 4), ("tanh", 4), ("mean_all", 1)] {
            let (fwd, bwd, elems) = stats(name).unwrap_or_else(|| panic!("{name} not flushed"));
            assert!(fwd >= 1, "{name}: no forward calls");
            assert!(elems >= min_elems, "{name}: {elems} elems");
            if name != "leaf" {
                assert!(bwd >= 1, "{name}: no backward visits");
            }
        }
        for e in &flushed {
            if let em_obs::EventKind::OpStats { op, .. } = &e.kind {
                assert!(
                    em_obs::names::ALL_OP_NAMES.contains(&op.as_str()),
                    "op name {op} not in the registry"
                );
            }
        }
    }

    #[test]
    fn dropout_scales_kept_elements() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(10, 10, 1.0));
        let y = tape.dropout(x, 0.5, &mut rng);
        for &v in tape.value(y).data() {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
    }

    // ---- tape-free inference ----

    /// One forward through every `TapeExec` op, generic over the executor,
    /// so the exact same call sequence can run taped and tape-free.
    fn exercise_all_ops<T: TapeExec>(
        exec: &mut T,
        store: &ParamStore,
        w: ParamId,
        rng: &mut rand::rngs::StdRng,
    ) -> Matrix {
        let x = exec.constant(Matrix::from_vec(
            3,
            4,
            vec![
                0.5, -1.2, 0.3, 0.9, -0.4, 1.7, 0.05, -0.6, 1.1, -0.2, 0.8, -1.5,
            ],
        ));
        let wv = exec.param(store, w);
        let h = exec.matmul(x, wv);
        let bias = exec.constant(Matrix::from_vec(1, 4, vec![0.1, -0.1, 0.2, -0.2]));
        let h = exec.add_row_broadcast(h, bias);
        let g = exec.gelu(h);
        let gamma = exec.constant(Matrix::full(1, 4, 1.0));
        let beta = exec.constant(Matrix::full(1, 4, 0.0));
        let n = exec.layer_norm(g, gamma, beta, 1e-5);
        let d = exec.dropout(n, 0.3, rng);
        let s = exec.softmax_rows(d);
        let t = exec.transpose(s);
        let t = exec.transpose(t);
        let a = exec.tanh(t);
        let b = exec.sigmoid(t);
        let m = exec.mul(a, b);
        let m = exec.relu(m);
        let m2 = exec.scale(m, 1.5);
        let sum = exec.add(m, m2);
        let diff = exec.sub(sum, m);
        let k = Matrix::full(3, 4, 0.25);
        let shifted = exec.add_const(diff, &k);
        let mix = Matrix::from_fn(4, 4, |r, c| (r as f32 - c as f32) * 0.3);
        let mixed = exec.matmul_const(shifted, &mix);
        let picked = exec.gather_rows(mixed, &[2, 0, 1, 2]);
        let top = exec.slice_rows(picked, 0, 2);
        let left = exec.slice_cols(top, 0, 2);
        let right = exec.slice_cols(top, 2, 2);
        let wide = exec.concat_cols(&[left, right]);
        let tall = exec.concat_rows(&[wide, top]);
        let pooled = exec.mean_rows(tall);
        let out = exec.concat_rows(&[tall, pooled]);
        exec.value(out).clone()
    }

    #[test]
    fn tape_free_forward_is_bit_exact_and_records_zero_nodes() {
        use rand::SeedableRng;
        let mut store = ParamStore::new();
        let w = store.register(
            "w",
            Matrix::from_vec(
                4,
                4,
                vec![
                    0.2, -0.4, 0.6, 0.1, -0.3, 0.5, -0.2, 0.7, 0.4, -0.6, 0.3, -0.1, 0.8, 0.2,
                    -0.5, 0.4,
                ],
            ),
        );

        let mut taped = Tape::new();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(7);
        let y_taped = exercise_all_ops(&mut taped, &store, w, &mut rng_a);

        let pushed_before = nodes_recorded_on_thread();
        let mut free = NoGradTape::new();
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(7);
        let y_free = exercise_all_ops(&mut free, &store, w, &mut rng_b);
        assert_eq!(
            nodes_recorded_on_thread(),
            pushed_before,
            "a NoGradTape forward must record zero tape nodes"
        );
        assert!(!free.is_empty());

        // Bit-exact, not approximately equal: compare f32 bit patterns so
        // even a ±0.0 divergence in the fused dropout would be caught.
        assert_eq!(y_taped.shape(), y_free.shape());
        for (i, (a, b)) in y_taped.data().iter().zip(y_free.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "logit {i} diverged: taped {a} vs tape-free {b}"
            );
        }
        // Both executors must consume the RNG identically (same number of
        // draws in the same order), or downstream passes would diverge.
        assert_eq!(rng_a.state(), rng_b.state(), "RNG streams diverged");
    }

    #[test]
    fn nograd_op_indices_match_the_obs_registry() {
        for (idx, name) in [
            (op_idx::LEAF, "leaf"),
            (op_idx::MATMUL, "matmul"),
            (op_idx::ADD, "add"),
            (op_idx::ADD_ROW_BROADCAST, "add_row_broadcast"),
            (op_idx::SUB, "sub"),
            (op_idx::MUL, "mul"),
            (op_idx::SCALE, "scale"),
            (op_idx::ADD_CONST, "add_const"),
            (op_idx::TRANSPOSE, "transpose"),
            (op_idx::TANH, "tanh"),
            (op_idx::SIGMOID, "sigmoid"),
            (op_idx::GELU, "gelu"),
            (op_idx::RELU, "relu"),
            (op_idx::SOFTMAX_ROWS, "softmax_rows"),
            (op_idx::LAYER_NORM, "layer_norm"),
            (op_idx::GATHER_ROWS, "gather_rows"),
            (op_idx::DROPOUT, "dropout"),
            (op_idx::CONCAT_ROWS, "concat_rows"),
            (op_idx::CONCAT_COLS, "concat_cols"),
            (op_idx::SLICE_ROWS, "slice_rows"),
            (op_idx::SLICE_COLS, "slice_cols"),
            (op_idx::MEAN_ROWS, "mean_rows"),
        ] {
            assert_eq!(
                em_obs::names::ALL_OP_NAMES[idx],
                name,
                "tape-free profiler slot {idx} drifted from the registry"
            );
        }
    }

    #[test]
    fn nograd_inference_dropout_is_identity_and_draws_nothing() {
        let mut exec = NoGradTape::inference();
        let x = exec.constant(Matrix::full(2, 2, 1.0));
        // A step RNG that would visibly perturb the mask if consumed.
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let y = exec.dropout(x, 0.5, &mut rng);
        assert_eq!(x, y, "inference-mode dropout must be the identity");
        assert_eq!(exec.len(), 1, "identity dropout must not push a value");
    }

    #[test]
    fn nograd_param_cache_reuses_leaves() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(2, 2, 0.5));
        let mut exec = NoGradTape::inference();
        let a = exec.param(&store, w);
        let b = exec.param(&store, w);
        assert_eq!(a, b);
        assert_eq!(exec.len(), 1);
    }
}
