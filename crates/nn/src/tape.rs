//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] is built per forward pass (typically one per mini-batch). Ops
//! append nodes; [`Tape::backward`] walks the node list in reverse and fills
//! per-node gradients; [`Tape::accumulate_param_grads`] folds leaf gradients
//! back into the shared [`ParamStore`](crate::optim::ParamStore). A batch
//! that records each example as a [`Tape::segment`] gets its backward run
//! on the `em-pool` workers, with the same gradient bits.
//!
//! Each forward op is written once, as a provided method of [`TapeExec`]:
//! it checks shapes, computes with a [`Matrix`] kernel and hands the value
//! to the executor's recording hook. The recording [`Tape`] pushes a node
//! with the op's payload; the tape-free [`NoGradTape`] only stores the
//! value. The two executors agree bit for bit by construction.
//!
//! Model parameters enter the tape through [`TapeExec::param`], which caches
//! the leaf so a parameter used by many samples in one batch is materialized
//! only once.

use crate::mathf;
use crate::optim::{ParamId, ParamStore};
use crate::tensor::{dropout_mask_elem, layer_norm_stats, Matrix};
use std::collections::HashMap;
use std::ops::Range;
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
/// Every shape constraint an op imposes is checked once, at record time,
/// for both executors. A violation panics with this type's rendering, which
/// names the op and the offending shapes (e.g. "tape op `add`: incompatible
/// shapes 2x3 vs 3x2"), instead of a bare `assert_eq!` abort.
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
    /// An op recorded inside a [`Tape::segment`] reads a non-leaf var from
    /// outside that segment.
    OutsideSegment {
        /// Op being recorded.
        op: &'static str,
        /// Node index of the var it reads.
        var: usize,
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
            TapeError::OutsideSegment { op, var } => write!(
                f,
                "tape op `{op}`: reads node {var}, a non-leaf var outside its segment"
            ),
        }
    }
}

/// Panic with `e`'s rendering. Every record-time check ends here, so a
/// malformed call fails with the same message on either executor.
fn reject(e: TapeError) -> ! {
    panic!("{e}")
}

/// Record-time check for ops whose two operands must share one shape.
fn check_same_shape(op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) {
    if lhs != rhs {
        reject(TapeError::ShapeMismatch { op, lhs, rhs });
    }
}

/// Record-time check for the product `lhs @ rhs`, or `lhs @ rhsᵀ` when
/// `rhs_t`.
fn check_matmul(lhs: (usize, usize), rhs: (usize, usize), rhs_t: bool) {
    if lhs.1 != if rhs_t { rhs.1 } else { rhs.0 } {
        reject(TapeError::ShapeMismatch {
            op: "matmul",
            lhs,
            rhs,
        });
    }
}

/// Record-time check for a concatenation: every part's `dim` must equal
/// the first part's.
fn check_concat(
    op: &'static str,
    mut shapes: impl Iterator<Item = (usize, usize)>,
    dim: fn((usize, usize)) -> usize,
) {
    if let Some(lhs) = shapes.next() {
        if let Some(rhs) = shapes.find(|&s| dim(s) != dim(lhs)) {
            reject(TapeError::ShapeMismatch { op, lhs, rhs });
        }
    }
}

/// Record-time check that the slice `[.., end)` fits in `len`.
fn check_slice(op: &'static str, end: usize, len: usize) {
    if end > len {
        reject(TapeError::IndexOutOfRange {
            op,
            index: end,
            len,
        });
    }
}

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

/// The executor hook behind [`TapeExec`]'s provided ops. The module is
/// private, so its [`Record`](hook::Record) trait seals `TapeExec`: only
/// [`Tape`] and [`NoGradTape`] implement it. `Op` and `OpTimer` are `pub`
/// here because the hook's signature names them.
mod hook {
    use super::{op_profile_enabled, Var, OP_TABLE};
    use crate::optim::ParamId;
    use crate::tensor::Matrix;
    use std::collections::HashMap;

    /// Forward-timing handle opened at an op's entry when the profiler is
    /// on; [`Record::record`] closes it once the result exists.
    pub struct OpTimer {
        sw: em_obs::Stopwatch,
        bytes0: usize,
    }

    impl OpTimer {
        /// A running timer, or `None` when the profiler is off.
        #[inline]
        pub fn start() -> Option<OpTimer> {
            if !op_profile_enabled() {
                return None;
            }
            Some(OpTimer {
                sw: em_obs::Stopwatch::new(),
                bytes0: em_obs::alloc::current_bytes(),
            })
        }

        /// Add this op's wall time, output size and heap growth to `slot`
        /// of the profiler table.
        pub fn finish(self, slot: usize, elems: usize) {
            let grown = em_obs::alloc::current_bytes().saturating_sub(self.bytes0);
            OP_TABLE.record_fwd(
                slot,
                (self.sw.secs() * 1e9) as u64,
                elems as u64,
                grown as u64,
            );
        }
    }

    /// One recorded op: the vars it read and whatever its backward needs.
    pub enum Op {
        /// Constant or parameter leaf. Parameter leaves are the ones in the
        /// executor's parameter cache; they receive gradient at the end.
        Leaf,
        /// `a @ b`, or `a @ bᵀ` when the flag is set: one node either way,
        /// and `b` stays in its own layout forward and backward.
        Matmul(Var, Var, bool),
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
        /// Backward recomputes the row statistics from `x`.
        LayerNorm {
            x: Var,
            gamma: Var,
            beta: Var,
            eps: f32,
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
        /// Mean negative log likelihood over rows of an already-normalized
        /// probability matrix (used by verbalizer losses, where class
        /// probabilities are averages of word probabilities — Eq. 1 of the
        /// PromptEM paper).
        NllProbs {
            probs: Var,
            targets: Vec<usize>,
        },
        /// `x[:, cols] @ m` for a constant `m`; backward scatters
        /// `g @ mᵀ` into the selected columns.
        ColsMatmul {
            x: Var,
            cols: Vec<usize>,
            m: Matrix,
        },
    }

    impl Op {
        /// Static name of the op, used by diagnostics and telemetry: its
        /// entry in [`em_obs::names::ALL_OP_NAMES`].
        pub fn name(&self) -> &'static str {
            em_obs::names::ALL_OP_NAMES[self.index()]
        }

        /// The op's slot in the profiler table — its position in
        /// [`em_obs::names::ALL_OP_NAMES`] (a test pins the correspondence).
        pub fn index(&self) -> usize {
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
                Op::NllProbs { .. } => 25,
                Op::ColsMatmul { .. } => 26,
            }
        }

        /// Call `f` on each var this op reads (its graph predecessors), in
        /// order.
        pub fn for_each_input(&self, mut f: impl FnMut(Var)) {
            match self {
                Op::Leaf => {}
                Op::Matmul(a, b, _)
                | Op::Add(a, b)
                | Op::AddRowBroadcast(a, b)
                | Op::Sub(a, b)
                | Op::Mul(a, b) => {
                    f(*a);
                    f(*b);
                }
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
                | Op::MeanAll(a)
                | Op::GatherRows { src: a, .. }
                | Op::Dropout { x: a, .. }
                | Op::SliceRows { x: a, .. }
                | Op::SliceCols { x: a, .. }
                | Op::CrossEntropy { logits: a, .. }
                | Op::NllProbs { probs: a, .. }
                | Op::ColsMatmul { x: a, .. } => f(*a),
                Op::LayerNorm { x, gamma, beta, .. } => {
                    f(*x);
                    f(*gamma);
                    f(*beta);
                }
                Op::ConcatRows(parts) | Op::ConcatCols(parts) => parts.iter().copied().for_each(f),
            }
        }
    }

    /// How an executor takes the result of one forward op.
    pub trait Record {
        /// Take `value`, the result of the op `op` describes, and return its
        /// var; `timer` is the op's profiler handle. The recording tape
        /// builds the op and keeps it for backward. The tape-free executor
        /// builds it only under the profiler, to read its slot.
        fn record(&mut self, timer: Option<OpTimer>, value: Matrix, op: impl FnOnce() -> Op)
            -> Var;

        /// The parameter leaves this executor holds, by parameter.
        fn param_cache(&mut self) -> &mut HashMap<ParamId, Var>;
    }
}

use hook::{Op, OpTimer, Record};

/// The forward op surface shared by the recording [`Tape`] and the
/// tape-free [`NoGradTape`].
///
/// Model forwards (`em-layers`, `mini-lm`, `em-core`) are generic over this
/// trait, so one implementation of each layer serves both modes: training
/// instantiates it with [`Tape`] (recording, differentiable), inference with
/// [`NoGradTape`] (value-only, zero graph bookkeeping). Loss ops,
/// `backward`, and the graph-topology accessors are deliberately *not* part
/// of the trait — code that differentiates must name [`Tape`] concretely.
///
/// Each op is written once, as a provided method: one record-time shape
/// check (a panic with the [`TapeError`] text), one [`Matrix`] kernel, and
/// the executor's sealed recording hook. The executors therefore agree bit
/// for bit by construction. Only [`TapeExec::dropout`] and
/// [`TapeExec::matmul_const`] have a body per executor, because recording
/// changes what they materialize (the mask; a leaf for the constant); both
/// bodies call the same kernels, and both dropouts draw each element
/// through one `tensor::dropout_mask_elem`, so they consume the RNG
/// identically.
pub trait TapeExec: Record {
    /// True when dropout is active (a training-mode executor).
    fn is_train(&self) -> bool;

    /// Insert a constant leaf.
    fn constant(&mut self, value: Matrix) -> Var {
        let prof = OpTimer::start();
        self.record(prof, value, || Op::Leaf)
    }

    /// Insert (or reuse) a leaf mirroring parameter `id` from `store`.
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        if let Some(&v) = self.param_cache().get(&id) {
            return v;
        }
        let prof = OpTimer::start();
        let v = self.record(prof, store.value(id).clone(), || Op::Leaf);
        self.param_cache().insert(id, v);
        v
    }

    /// The forward value of `v`.
    fn value(&self, v: Var) -> &Matrix;

    /// Matrix product `a @ b`.
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let (am, bm) = (self.value(a), self.value(b));
        check_matmul(am.shape(), bm.shape(), false);
        let value = am.matmul(bm);
        self.record(prof, value, || Op::Matmul(a, b, false))
    }

    /// Matrix product `a @ bᵀ` as one node. `b` is read in its own
    /// row-major layout, forward and backward, and never copied
    /// transposed; the bits are those of `transpose` + `matmul`.
    fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let (am, bm) = (self.value(a), self.value(b));
        check_matmul(am.shape(), bm.shape(), true);
        let value = am.matmul_nt(bm);
        self.record(prof, value, || Op::Matmul(a, b, true))
    }

    /// Matrix product `a @ k` with a borrowed constant right operand (no
    /// gradient to `k`). The tape-free executor multiplies against `k`
    /// directly, so a large operand shared by many forwards (the scoring
    /// head's transposed tied decoder) is never copied into the tape.
    fn matmul_const(&mut self, a: Var, k: &Matrix) -> Var;

    /// Elementwise sum (same shapes).
    fn add(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let (am, bm) = (self.value(a), self.value(b));
        check_same_shape("add", am.shape(), bm.shape());
        let value = am.add(bm);
        self.record(prof, value, || Op::Add(a, b))
    }

    /// `a + b` where `b` is a (1,C) row broadcast over the rows of `a`.
    fn add_row_broadcast(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let (am, bm) = (self.value(a), self.value(b));
        if bm.rows() != 1 {
            reject(TapeError::BadShape {
                op: "add_row_broadcast",
                got: bm.shape(),
                want: "a (1,C) row vector",
            });
        }
        if am.cols() != bm.cols() {
            reject(TapeError::ShapeMismatch {
                op: "add_row_broadcast",
                lhs: am.shape(),
                rhs: bm.shape(),
            });
        }
        let value = am.add_row_broadcast(bm);
        self.record(prof, value, || Op::AddRowBroadcast(a, b))
    }

    /// Elementwise difference.
    fn sub(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let (am, bm) = (self.value(a), self.value(b));
        check_same_shape("sub", am.shape(), bm.shape());
        let value = am.sub(bm);
        self.record(prof, value, || Op::Sub(a, b))
    }

    /// Elementwise (Hadamard) product.
    fn mul(&mut self, a: Var, b: Var) -> Var {
        let prof = OpTimer::start();
        let (am, bm) = (self.value(a), self.value(b));
        check_same_shape("mul", am.shape(), bm.shape());
        let value = am.hadamard(bm);
        self.record(prof, value, || Op::Mul(a, b))
    }

    /// Multiply every element by the constant `c`.
    fn scale(&mut self, a: Var, c: f32) -> Var {
        let prof = OpTimer::start();
        let value = self.value(a).scale(c);
        self.record(prof, value, || Op::Scale(a, c))
    }

    /// Add a constant matrix elementwise (no gradient to the constant).
    fn add_const(&mut self, a: Var, k: &Matrix) -> Var {
        let prof = OpTimer::start();
        let am = self.value(a);
        check_same_shape("add_const", am.shape(), k.shape());
        let value = am.add(k);
        self.record(prof, value, || Op::AddConst(a))
    }

    /// Matrix transpose.
    fn transpose(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.value(a).transpose();
        self.record(prof, value, || Op::Transpose(a))
    }

    /// Elementwise `tanh`.
    fn tanh(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.value(a).map(mathf::tanh);
        self.record(prof, value, || Op::Tanh(a))
    }

    /// Elementwise logistic sigmoid.
    fn sigmoid(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.value(a).map(|x| 1.0 / (1.0 + mathf::exp(-x)));
        self.record(prof, value, || Op::Sigmoid(a))
    }

    /// Elementwise GELU (tanh approximation, as in BERT).
    fn gelu(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.value(a).map(gelu);
        self.record(prof, value, || Op::Gelu(a))
    }

    /// Elementwise ReLU.
    fn relu(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.value(a).map(|x| x.max(0.0));
        self.record(prof, value, || Op::Relu(a))
    }

    /// Row-wise softmax.
    fn softmax_rows(&mut self, a: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.value(a).softmax_rows();
        self.record(prof, value, || Op::SoftmaxRows(a))
    }

    /// Row-wise layer normalization. `gamma` and `beta` must be (1,C).
    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let prof = OpTimer::start();
        let xm = self.value(x);
        for v in [gamma, beta] {
            let shape = self.value(v).shape();
            if shape != (1, xm.cols()) {
                reject(TapeError::ShapeMismatch {
                    op: "layer_norm",
                    lhs: xm.shape(),
                    rhs: shape,
                });
            }
        }
        let value = xm.layer_norm(self.value(gamma), self.value(beta), eps);
        self.record(prof, value, || Op::LayerNorm {
            x,
            gamma,
            beta,
            eps,
        })
    }

    /// Select rows of `src` by `idx` (duplicates allowed).
    fn gather_rows(&mut self, src: Var, idx: &[usize]) -> Var {
        let prof = OpTimer::start();
        let sm = self.value(src);
        if let Some(&bad) = idx.iter().find(|&&i| i >= sm.rows()) {
            reject(TapeError::IndexOutOfRange {
                op: "gather_rows",
                index: bad,
                len: sm.rows(),
            });
        }
        let value = sm.gather_rows(idx);
        self.record(prof, value, || Op::GatherRows {
            src,
            idx: idx.to_vec(),
        })
    }

    /// Inverted dropout with keep-probability `1-p`. Identity when the
    /// executor is in inference mode or `p == 0`.
    fn dropout(&mut self, x: Var, p: f32, rng: &mut impl rand::Rng) -> Var;

    /// Stack vars vertically (equal column counts).
    fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let prof = OpTimer::start();
        let shapes = parts.iter().map(|&p| self.value(p).shape());
        check_concat("concat_rows", shapes, |s| s.1);
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Matrix::vstack(&mats);
        self.record(prof, value, || Op::ConcatRows(parts.to_vec()))
    }

    /// Stack vars horizontally (equal row counts).
    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let prof = OpTimer::start();
        let shapes = parts.iter().map(|&p| self.value(p).shape());
        check_concat("concat_cols", shapes, |s| s.0);
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let value = Matrix::hstack(&mats);
        self.record(prof, value, || Op::ConcatCols(parts.to_vec()))
    }

    /// Copy of rows `[start, start+len)`.
    fn slice_rows(&mut self, x: Var, start: usize, len: usize) -> Var {
        let prof = OpTimer::start();
        let xm = self.value(x);
        check_slice("slice_rows", start + len, xm.rows());
        let value = xm.slice_rows(start, len);
        self.record(prof, value, || Op::SliceRows { x, start })
    }

    /// Rows `rows` of `x`: `x` itself, recording no node, when `rows`
    /// spans all of it; else a [`TapeExec::slice_rows`] copy.
    fn slice_row_range(&mut self, x: Var, rows: Range<usize>) -> Var {
        if rows == (0..self.value(x).rows()) {
            return x;
        }
        self.slice_rows(x, rows.start, rows.len())
    }

    /// Copy of columns `[start, start+len)`.
    fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let prof = OpTimer::start();
        let xm = self.value(x);
        check_slice("slice_cols", start + len, xm.cols());
        let value = xm.slice_cols(start, len);
        self.record(prof, value, || Op::SliceCols { x, start })
    }

    /// Mean over rows, producing a `(1, C)` row.
    fn mean_rows(&mut self, x: Var) -> Var {
        let prof = OpTimer::start();
        let value = self.value(x).mean_rows();
        self.record(prof, value, || Op::MeanRows(x))
    }

    /// `x[:, cols] @ m` for a constant `m` with one row per entry of
    /// `cols`: the product of `x` with the `(x.cols, m.cols)` matrix whose
    /// row `cols[k]` is row `k` of `m` and whose other rows are zero,
    /// without forming that matrix or reading the other columns. With
    /// `cols` ascending and distinct it keeps the dense product's bits on
    /// finite `x`, forward and backward (DESIGN §18). No gradient to `m`.
    fn cols_matmul(&mut self, x: Var, cols: &[usize], m: &Matrix) -> Var {
        let prof = OpTimer::start();
        let xm = self.value(x);
        if let Some(&bad) = cols.iter().find(|&&c| c >= xm.cols()) {
            reject(TapeError::IndexOutOfRange {
                op: "cols_matmul",
                index: bad,
                len: xm.cols(),
            });
        }
        if m.rows() != cols.len() {
            reject(TapeError::BadShape {
                op: "cols_matmul",
                got: m.shape(),
                want: "one row per selected column",
            });
        }
        let picked = Matrix::from_fn(xm.rows(), cols.len(), |r, k| xm.get(r, cols[k]));
        let value = picked.matmul(m);
        self.record(prof, value, || Op::ColsMatmul {
            x,
            cols: cols.to_vec(),
            m: m.clone(),
        })
    }
}

struct Node {
    value: Matrix,
    op: Op,
}

/// One gradient contribution a backward step makes to one of its inputs.
enum Grad {
    /// A gradient of the input's full shape.
    Dense(Matrix),
    /// Row `rows[k]` of the input receives row `k` of `sums`; no other row
    /// receives anything.
    Rows { rows: Vec<usize>, sums: Matrix },
}

/// Add `g` into the gradient slot of a var of `shape`. A dense first
/// contribution becomes the gradient; a sparse one lands in a zeroed
/// matrix.
fn accumulate(slot: &mut Option<Matrix>, shape: (usize, usize), g: Grad) {
    match (slot, g) {
        (Some(acc), Grad::Dense(g)) => acc.add_assign(&g),
        (slot @ None, Grad::Dense(g)) => *slot = Some(g),
        (slot, Grad::Rows { rows, sums }) => {
            let acc = slot.get_or_insert_with(|| Matrix::zeros(shape.0, shape.1));
            for (k, &r) in rows.iter().enumerate() {
                for (o, &x) in acc.row_mut(r).iter_mut().zip(sums.row(k)) {
                    *o += x;
                }
            }
        }
    }
}

/// A single-use computation graph.
pub struct Tape {
    nodes: Vec<Node>,
    /// Per-node gradients, filled by [`Tape::backward`].
    grads: Vec<Option<Matrix>>,
    param_cache: HashMap<ParamId, Var>,
    /// Node ranges recorded by [`Tape::segment`], in record order.
    segments: Vec<Range<usize>>,
    /// First node of the segment being recorded, if one is open.
    open_segment: Option<usize>,
    /// When false, `dropout` is the identity (inference mode).
    pub train: bool,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Record for Tape {
    fn record(&mut self, timer: Option<OpTimer>, value: Matrix, op: impl FnOnce() -> Op) -> Var {
        let op = op();
        if let Some(start) = self.open_segment {
            op.for_each_input(|v| {
                if v.0 < start && !self.is_leaf(v) {
                    reject(TapeError::OutsideSegment {
                        op: op.name(),
                        var: v.0,
                    });
                }
            });
        }
        if let Some(t) = timer {
            t.finish(op.index(), value.len());
        }
        NODES_PUSHED.with(|c| c.set(c.get() + 1));
        self.nodes.push(Node { value, op });
        self.grads.push(None);
        Var(self.nodes.len() - 1)
    }

    fn param_cache(&mut self) -> &mut HashMap<ParamId, Var> {
        &mut self.param_cache
    }
}

impl TapeExec for Tape {
    fn is_train(&self) -> bool {
        self.train
    }

    fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn matmul_const(&mut self, a: Var, k: &Matrix) -> Var {
        let k = self.constant(k.clone());
        self.matmul(a, k)
    }

    fn dropout(&mut self, x: Var, p: f32, rng: &mut impl rand::Rng) -> Var {
        if !self.train || p <= 0.0 {
            return x;
        }
        let prof = OpTimer::start();
        assert!(p < 1.0, "dropout probability must be < 1");
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let xm = &self.nodes[x.0].value;
        let draws = xm
            .data()
            .iter()
            .map(|_| dropout_mask_elem(rng, keep, scale));
        let mask = Matrix::from_vec(xm.rows(), xm.cols(), draws.collect());
        let value = xm.hadamard(&mask);
        self.record(prof, value, move || Op::Dropout { x, mask })
    }
}

impl Tape {
    /// A fresh training-mode tape (dropout active).
    pub fn new() -> Self {
        Tape {
            nodes: Vec::with_capacity(256),
            grads: Vec::with_capacity(256),
            param_cache: HashMap::new(),
            segments: Vec::new(),
            open_segment: None,
            train: true,
        }
    }

    /// A tape whose dropout layers are disabled (deterministic inference).
    pub fn inference() -> Self {
        let mut t = Self::new();
        t.train = false;
        t
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The gradient of `v` after [`Tape::backward`]; zeros if unused.
    pub fn grad(&self, v: Var) -> Matrix {
        match &self.grads[v.0] {
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
        let mut out = Vec::new();
        self.nodes[v.0].op.for_each_input(|x| out.push(x));
        out
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

    // ---- ops only a differentiating tape records ----

    /// Gradient-reversal layer: forward identity, backward `-lambda * g`.
    pub fn grad_reverse(&mut self, a: Var, lambda: f32) -> Var {
        let prof = OpTimer::start();
        let value = self.nodes[a.0].value.clone();
        self.record(prof, value, || Op::GradReverse(a, lambda))
    }

    /// Mean of every element, producing a scalar var.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let prof = OpTimer::start();
        let m = &self.nodes[x.0].value;
        let value = Matrix::scalar(m.sum() / m.len() as f32);
        self.record(prof, value, || Op::MeanAll(x))
    }

    /// Record-time check of a (matrix, class-target list) pairing for a
    /// loss op.
    fn check_targets(&self, op: &'static str, m: Var, targets: &[usize]) {
        let shape = self.nodes[m.0].value.shape();
        if shape.0 != targets.len() {
            reject(TapeError::BadShape {
                op,
                got: shape,
                want: "one row per target",
            });
        }
        if let Some(&bad) = targets.iter().find(|&&t| t >= shape.1) {
            reject(TapeError::TargetOutOfRange {
                op,
                target: bad,
                classes: shape.1,
            });
        }
    }

    /// Mean cross-entropy of row-wise softmax(logits) against integer
    /// `targets`. Returns a scalar var. Each probability is floored at 1e-12
    /// by `clamp`, which keeps a NaN where `max` would drop it.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let prof = OpTimer::start();
        self.check_targets("cross_entropy", logits, targets);
        let probs = self.nodes[logits.0].value.softmax_rows();
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            loss -= probs.get(r, t).clamp(1e-12, f32::INFINITY).ln();
        }
        loss /= targets.len() as f32;
        self.record(prof, Matrix::scalar(loss), || Op::CrossEntropy {
            logits,
            targets: targets.to_vec(),
            probs,
        })
    }

    /// Mean negative log likelihood of already-normalized probabilities:
    /// `-(1/n) Σ log probs[r][targets[r]]`. Scalar var. Floors each
    /// probability like [`Tape::cross_entropy`].
    pub fn nll_probs(&mut self, probs: Var, targets: &[usize]) -> Var {
        let prof = OpTimer::start();
        self.check_targets("nll_probs", probs, targets);
        let pm = &self.nodes[probs.0].value;
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            loss -= pm.get(r, t).clamp(1e-12, f32::INFINITY).ln();
        }
        loss /= targets.len() as f32;
        self.record(prof, Matrix::scalar(loss), || Op::NllProbs {
            probs,
            targets: targets.to_vec(),
        })
    }

    /// Record the ops `f` runs as one segment of the tape, and return what
    /// `f` returns. A segment is typically one example's forward in a
    /// batch.
    ///
    /// [`Tape::backward`] runs adjacent segments on the `em-pool` workers
    /// (`--threads`), and every var still gets the gradient it would get
    /// without segments, bit for bit. An op inside a segment may read a
    /// leaf from anywhere, but a non-leaf var only from its own segment.
    /// Any other read panics with the [`TapeError`] text when the op is
    /// recorded. Segments do not nest.
    pub fn segment<R>(&mut self, f: impl FnOnce(&mut Tape) -> R) -> R {
        assert!(self.open_segment.is_none(), "tape segments do not nest");
        let start = self.nodes.len();
        self.open_segment = Some(start);
        let out = f(self);
        self.open_segment = None;
        self.segments.push(start..self.nodes.len());
        out
    }

    /// Run reverse-mode differentiation from scalar `loss`. Panics with the
    /// [`TapeError`] text if `loss` is not `1x1`.
    ///
    /// The walk goes from `loss` down. Nodes outside segments run serially
    /// on the caller's thread. Each run of adjacent segments starts once
    /// every node above it is done; its segments then run on the pool.
    /// Contributions to leaves come back to the caller, who adds them in
    /// the order a walk without segments adds them (DESIGN §17).
    pub fn backward(&mut self, loss: Var) {
        // Timing is telemetry-gated so the hot path stays free of clock
        // reads when no sink is active.
        let timed = em_obs::Stopwatch::if_enabled();
        let shape = self.nodes[loss.0].value.shape();
        if shape != (1, 1) {
            reject(TapeError::BadShape {
                op: "backward",
                got: shape,
                want: "a scalar (1x1) loss",
            });
        }
        let sanitize = sanitize_enabled();
        let profiling = op_profile_enabled();
        self.grads[loss.0] = Some(Matrix::scalar(1.0));
        let segments = self.segments.clone();
        let mut top = loss.0 + 1;
        let mut below = &segments[..segments.partition_point(|s| s.end <= top)];
        while let Some(last) = below.last() {
            let mut first = below.len() - 1;
            while first > 0 && below[first - 1].end == below[first].start {
                first -= 1;
            }
            self.backprop_serial(last.end..top, sanitize, profiling);
            self.backprop_segments(&below[first..], sanitize, profiling);
            top = below[first].start;
            below = &below[..first];
        }
        self.backprop_serial(0..top, sanitize, profiling);
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
    }

    /// The walk over `range`, top down, on the caller's thread.
    fn backprop_serial(&mut self, range: Range<usize>, sanitize: bool, profiling: bool) {
        let Tape { nodes, grads, .. } = self;
        for i in range.rev() {
            let Some(g) = grads[i].take() else {
                continue;
            };
            if sanitize {
                check_finite(&nodes[i], i, Some(&g));
            }
            backprop(nodes, i, &g, profiling, |v, c| {
                accumulate(&mut grads[v.0], nodes[v.0].value.shape(), c);
            });
            grads[i] = Some(g);
        }
    }

    /// Walk the adjacent segments `group` on the pool, then add each
    /// segment's leaf contributions, from the last segment to the first.
    fn backprop_segments(&mut self, group: &[Range<usize>], sanitize: bool, profiling: bool) {
        let tape = &*self;
        let walked = em_pool::run_sharded(em_pool::threads(), group.len(), |k| {
            tape.backprop_segment(group[k].clone(), profiling)
        });
        for (seg, (local, to_leaves)) in group.iter().zip(walked).rev() {
            // Walked gradients replace their seeds. Leaf slots come back
            // empty and keep what the walk above added to them.
            for (slot, g) in self.grads[seg.clone()].iter_mut().zip(local) {
                if g.is_some() {
                    *slot = g;
                }
            }
            for (v, g) in to_leaves {
                accumulate(&mut self.grads[v.0], self.nodes[v.0].value.shape(), g);
            }
            // Each node of `seg` now holds the gradient a walk without
            // segments holds when it visits the node: check and count the
            // visits here, in that walk's order.
            for i in seg.clone().rev() {
                let Some(g) = &self.grads[i] else {
                    continue;
                };
                if sanitize {
                    check_finite(&self.nodes[i], i, Some(g));
                }
                if profiling && self.is_leaf(Var(i)) {
                    OP_TABLE.record_bwd(Op::Leaf.index(), 0);
                }
            }
        }
    }

    /// One segment's walk, on a pool worker. Returns the gradients of the
    /// segment's non-leaf nodes, and its contributions to leaves in the
    /// order the walk made them. They stay separate: adding two of them
    /// here would change the order of the additions.
    fn backprop_segment(
        &self,
        seg: Range<usize>,
        profiling: bool,
    ) -> (Vec<Option<Matrix>>, Vec<(Var, Grad)>) {
        // What the walk above put into the segment seeds it; leaf slots
        // belong to the caller.
        let mut local: Vec<Option<Matrix>> = seg
            .clone()
            .map(|i| {
                if self.is_leaf(Var(i)) {
                    None
                } else {
                    self.grads[i].clone()
                }
            })
            .collect();
        let mut to_leaves = Vec::new();
        for i in seg.clone().rev() {
            let Some(g) = local[i - seg.start].take() else {
                continue;
            };
            backprop(&self.nodes, i, &g, profiling, |v, c| {
                if self.is_leaf(v) {
                    to_leaves.push((v, c));
                } else {
                    // Recording kept every non-leaf input in the segment.
                    let shape = self.nodes[v.0].value.shape();
                    accumulate(&mut local[v.0 - seg.start], shape, c);
                }
            });
            local[i - seg.start] = Some(g);
        }
        (local, to_leaves)
    }

    /// Sanitizer sweep over every recorded value buffer (no gradients
    /// required) — the forward-pass half of `PROMPTEM_SANITIZE=1`. Returns
    /// the number of nodes with at least one non-finite element.
    pub fn sanitize_values(&self) -> usize {
        (0..self.nodes.len())
            .filter(|&i| !check_finite(&self.nodes[i], i, None))
            .count()
    }

    /// Fold parameter-leaf gradients back into the store's grad buffers.
    /// Call after [`Tape::backward`].
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for (&id, &var) in &self.param_cache {
            if let Some(g) = &self.grads[var.0] {
                store.grad_mut(id).add_assign(g);
            }
        }
    }
}

impl From<Matrix> for Grad {
    fn from(m: Matrix) -> Self {
        Grad::Dense(m)
    }
}

/// Node `i`'s backward: given its gradient `g`, hand each input its
/// contribution through `emit`, in the order the walk adds them. Timed
/// into the op profiler's table when `profiling`.
fn backprop(
    nodes: &[Node],
    i: usize,
    g: &Matrix,
    profiling: bool,
    mut emit: impl FnMut(Var, Grad),
) {
    let sw = profiling.then(em_obs::Stopwatch::new);
    match &nodes[i].op {
        Op::Leaf => {}
        Op::Matmul(a, b, b_t) => {
            let (a, b) = (*a, *b);
            let (am, bm) = (&nodes[a.0].value, &nodes[b.0].value);
            // For `a @ bᵀ`, `da = g @ b` reads `b` as stored and
            // `db = gᵀ @ a` lands in `b`'s own layout: the products of
            // `transpose` + `matmul`'s backward, commuted (DESIGN §18).
            let (da, db) = if *b_t {
                (g.matmul(bm), g.matmul_tn(am))
            } else {
                (g.matmul_nt(bm), am.matmul_tn(g))
            };
            emit(a, da.into());
            emit(b, db.into());
        }
        Op::Add(a, b) => {
            emit(*a, g.clone().into());
            emit(*b, g.clone().into());
        }
        Op::AddRowBroadcast(a, b) => {
            emit(*a, g.clone().into());
            // Sum over rows into a (1,C) gradient.
            let mut db = Matrix::zeros(1, g.cols());
            for r in 0..g.rows() {
                for (o, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                    *o += x;
                }
            }
            emit(*b, db.into());
        }
        Op::Sub(a, b) => {
            emit(*a, g.clone().into());
            emit(*b, g.scale(-1.0).into());
        }
        Op::Mul(a, b) => {
            let (a, b) = (*a, *b);
            let da = g.hadamard(&nodes[b.0].value);
            let db = g.hadamard(&nodes[a.0].value);
            emit(a, da.into());
            emit(b, db.into());
        }
        Op::Scale(a, c) => emit(*a, g.scale(*c).into()),
        Op::GradReverse(a, lambda) => emit(*a, g.scale(-*lambda).into()),
        Op::Transpose(a) => emit(*a, g.transpose().into()),
        Op::AddConst(a) => emit(*a, g.clone().into()),
        Op::Tanh(a) => {
            let y = &nodes[i].value;
            let da = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                let t = y.get(r, c);
                g.get(r, c) * (1.0 - t * t)
            });
            emit(*a, da.into());
        }
        Op::Sigmoid(a) => {
            let y = &nodes[i].value;
            let da = Matrix::from_fn(y.rows(), y.cols(), |r, c| {
                let s = y.get(r, c);
                g.get(r, c) * s * (1.0 - s)
            });
            emit(*a, da.into());
        }
        Op::Gelu(a) => {
            let x = &nodes[a.0].value;
            let data = x.data().iter().zip(g.data()).map(|(&x, &g)| g * gelu_dx(x));
            let da = Matrix::from_vec(x.rows(), x.cols(), data.collect());
            emit(*a, da.into());
        }
        Op::Relu(a) => {
            let x = &nodes[a.0].value;
            let da = Matrix::from_fn(x.rows(), x.cols(), |r, c| {
                if x.get(r, c) > 0.0 {
                    g.get(r, c)
                } else {
                    0.0
                }
            });
            emit(*a, da.into());
        }
        Op::SoftmaxRows(a) => {
            let y = &nodes[i].value;
            let mut da = Matrix::zeros(y.rows(), y.cols());
            for r in 0..y.rows() {
                let dot: f32 = y.row(r).iter().zip(g.row(r)).map(|(a, b)| a * b).sum();
                for c in 0..y.cols() {
                    da.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                }
            }
            emit(*a, da.into());
        }
        Op::LayerNorm {
            x,
            gamma,
            beta,
            eps,
        } => {
            let (xm, gm) = (&nodes[x.0].value, nodes[gamma.0].value.row(0));
            let (rows, cols) = xm.shape();
            let mut dx = Matrix::zeros(rows, cols);
            let mut dgamma = vec![0.0f32; cols];
            let mut dbeta = vec![0.0f32; cols];
            let mut normed = vec![0.0f32; cols];
            let mut dyh = vec![0.0f32; cols];
            for r in 0..rows {
                // The forward's normalized row, recomputed bit for bit
                // from `x` with the forward's own statistics.
                let (mean, istd) = layer_norm_stats(xm.row(r), *eps);
                for (n, &xv) in normed.iter_mut().zip(xm.row(r)) {
                    *n = (xv - mean) * istd;
                }
                // dy-hat = g * gamma; standard layernorm backward per row.
                for (c, &gv) in g.row(r).iter().enumerate() {
                    dyh[c] = gv * gm[c];
                    dgamma[c] += gv * normed[c];
                    dbeta[c] += gv;
                }
                let mean_dyh = dyh.iter().sum::<f32>() / cols as f32;
                let mean_dyh_n =
                    dyh.iter().zip(&normed).map(|(&d, &n)| d * n).sum::<f32>() / cols as f32;
                for ((o, &d), &n) in dx.row_mut(r).iter_mut().zip(&dyh).zip(&normed) {
                    *o = istd * (d - mean_dyh - n * mean_dyh_n);
                }
            }
            emit(*x, dx.into());
            emit(*gamma, Matrix::row_vector(dgamma).into());
            emit(*beta, Matrix::row_vector(dbeta).into());
        }
        Op::GatherRows { src, idx } => {
            // Each distinct source row's gradient, summed from +0.0 in
            // output order: the dense scatter's sums, without zeroing and
            // adding a whole `(V, d)` table per lookup (DESIGN §17).
            let mut rows = idx.clone();
            rows.sort_unstable();
            rows.dedup();
            let mut sums = Matrix::zeros(rows.len(), g.cols());
            for (out_r, src_r) in idx.iter().enumerate() {
                // `rows` holds every index of `idx`: the search always hits.
                let (Ok(k) | Err(k)) = rows.binary_search(src_r);
                for (o, &x) in sums.row_mut(k).iter_mut().zip(g.row(out_r)) {
                    *o += x;
                }
            }
            emit(*src, Grad::Rows { rows, sums });
        }
        Op::Dropout { x, mask } => emit(*x, g.hadamard(mask).into()),
        Op::ConcatRows(parts) => {
            let mut start = 0;
            for &p in parts {
                let rows = nodes[p.0].value.rows();
                emit(p, g.slice_rows(start, rows).into());
                start += rows;
            }
        }
        Op::ConcatCols(parts) => {
            let mut start = 0;
            for &p in parts {
                let cols = nodes[p.0].value.cols();
                emit(p, g.slice_cols(start, cols).into());
                start += cols;
            }
        }
        Op::SliceRows { x, start } => {
            let (rows, cols) = nodes[x.0].value.shape();
            let mut da = Matrix::zeros(rows, cols);
            for r in 0..g.rows() {
                da.row_mut(start + r).copy_from_slice(g.row(r));
            }
            emit(*x, da.into());
        }
        Op::SliceCols { x, start } => {
            let (rows, cols) = nodes[x.0].value.shape();
            let mut da = Matrix::zeros(rows, cols);
            for r in 0..g.rows() {
                da.row_mut(r)[*start..start + g.cols()].copy_from_slice(g.row(r));
            }
            emit(*x, da.into());
        }
        Op::MeanRows(x) => {
            let rows = nodes[x.0].value.rows();
            let inv = 1.0 / rows as f32;
            let da = Matrix::from_fn(rows, g.cols(), |_, c| g.get(0, c) * inv);
            emit(*x, da.into());
        }
        Op::MeanAll(x) => {
            let (rows, cols) = nodes[x.0].value.shape();
            let v = g.item() / (rows * cols) as f32;
            emit(*x, Matrix::full(rows, cols, v).into());
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
            emit(*logits, da.into());
        }
        Op::NllProbs { probs, targets } => {
            let pm = &nodes[probs.0].value;
            let gs = g.item() / targets.len() as f32;
            let mut da = Matrix::zeros(pm.rows(), pm.cols());
            for (r, &t) in targets.iter().enumerate() {
                da.set(r, t, -gs / pm.get(r, t).clamp(1e-12, f32::INFINITY));
            }
            emit(*probs, da.into());
        }
        Op::ColsMatmul { x, cols, m } => {
            // The dense backward `g @ Mᵀ` is +0.0 off `cols`; on them it is
            // `g @ mᵀ`, each element summed over the same classes in the
            // same order. A gemm sum is never −0.0, so `+=` onto +0.0 is a
            // copy for distinct columns.
            let dg = g.matmul_nt(m);
            let (rows, width) = nodes[x.0].value.shape();
            let mut dx = Matrix::zeros(rows, width);
            for r in 0..rows {
                let out = dx.row_mut(r);
                for (&c, &v) in cols.iter().zip(dg.row(r)) {
                    out[c] += v;
                }
            }
            emit(*x, dx.into());
        }
    }
    if let Some(sw) = sw {
        OP_TABLE.record_bwd(nodes[i].op.index(), (sw.secs() * 1e9) as u64);
    }
}

/// Check a node's value (and, if given, its gradient) for NaN/Inf and emit
/// a `non_finite` event per bad buffer; `i` is the node's index. Returns
/// true when everything is finite.
fn check_finite(node: &Node, i: usize, grad: Option<&Matrix>) -> bool {
    fn count_bad(m: &Matrix) -> u64 {
        m.data().iter().filter(|x| !x.is_finite()).count() as u64
    }
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

/// Advance `rng` past `n` dropout draws without using them (none when `n`
/// is 0). A forward over a range of output rows
/// (`MultiHeadSelfAttention::forward` and the encoder layer built on it)
/// skips the rows of each dropout mask outside the range but must leave
/// the RNG in exactly the state the full forward would: the draws for the
/// skipped rows are burned at their stream positions, so analytic draw
/// counts (`Encoder::dropout_draws`) hold for every range. One `next_u64`
/// per element mirrors dropout's `gen::<f32>()`, which makes exactly one.
pub fn burn_draws(rng: &mut impl rand::Rng, n: usize) {
    for _ in 0..n {
        rng.next_u64();
    }
}

/// Value-only executor: runs the same op bodies as [`Tape`] but records no
/// graph — no op payloads, no grad slots, no dropout masks — so a forward
/// pass allocates nothing beyond the value matrices themselves.
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
}

impl Record for NoGradTape {
    fn record(&mut self, timer: Option<OpTimer>, value: Matrix, op: impl FnOnce() -> Op) -> Var {
        if let Some(t) = timer {
            // A statement of its own, so the op is dropped before `finish`
            // reads the heap: its payload is not this executor's cost.
            let slot = op().index();
            t.finish(slot, value.len());
        }
        self.slots.push(value);
        Var(self.slots.len() - 1)
    }

    fn param_cache(&mut self) -> &mut HashMap<ParamId, Var> {
        &mut self.param_cache
    }
}

impl TapeExec for NoGradTape {
    fn is_train(&self) -> bool {
        self.train
    }

    fn value(&self, v: Var) -> &Matrix {
        &self.slots[v.0]
    }

    fn matmul_const(&mut self, a: Var, k: &Matrix) -> Var {
        let prof = OpTimer::start();
        let am = &self.slots[a.0];
        check_matmul(am.shape(), k.shape(), false);
        let value = am.matmul(k);
        // `k` has no var here; the op only names the profiler slot.
        self.record(prof, value, || Op::Matmul(a, a, false))
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
        // The recording tape's draws and `x * m` products, fused into one
        // pass over the backing slice without materializing the mask.
        let data = xm
            .data()
            .iter()
            .map(|&v| v * dropout_mask_elem(rng, keep, scale));
        let value = Matrix::from_vec(xm.rows(), xm.cols(), data.collect());
        // No mask exists here; the op only names the profiler slot.
        self.record(prof, value, || Op::Dropout {
            x,
            mask: Matrix::zeros(0, 0),
        })
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
        // One of each variant, in registry order: the k-th op's index()
        // must be k, so each variant reads its own name from
        // em_obs::names::ALL_OP_NAMES.
        let v = Var(0);
        let m = Matrix::zeros(1, 1);
        let ops = vec![
            Op::Leaf,
            Op::Matmul(v, v, false),
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
                eps: 1e-5,
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
            Op::NllProbs {
                probs: v,
                targets: Vec::new(),
            },
            Op::ColsMatmul {
                x: v,
                cols: Vec::new(),
                m,
            },
        ];
        assert_eq!(ops.len(), em_obs::names::ALL_OP_NAMES.len());
        for (k, op) in ops.iter().enumerate() {
            let name = em_obs::names::ALL_OP_NAMES[k];
            assert_eq!(op.index(), k, "the {name} op is not in slot {k}");
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
    fn recorded_forward_and_backward_keep_their_golden_bits() {
        use rand::SeedableRng;
        let mut store = ParamStore::new();
        let w = store.register(
            "w",
            Matrix::from_fn(4, 4, |r, c| (r as f32 - 1.5) * 0.3 + c as f32 * 0.11 - 0.2),
        );
        let mut tape = Tape::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let y = exercise_all_ops(&mut tape, &store, w, &mut rng);
        // `x` is the first leaf on the fresh tape and `out` its last node.
        let (x, out) = (Var(0), Var(tape.len() - 1));
        assert_eq!(tape.value(out), &y);
        let loss = tape.mean_all(out);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);

        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        // Recorded from the build that introduced this pin; any kernel or
        // executor change that moves one output or gradient bit fails here.
        assert_eq!(bits(&y), GOLDEN_OUT, "forward output");
        assert_eq!(bits(&tape.grad(x)), GOLDEN_GRAD_X, "grad(x)");
        assert_eq!(bits(store.grad(w)), GOLDEN_GRAD_W, "accumulated grad(w)");
    }

    const GOLDEN_OUT: [u32; 20] = [
        0x3f7ced37, 0x3ede3668, 0xbdf5b674, 0xbf2c88d2, 0x3f3f647a, 0x3e4926ee, 0xbeb5a206,
        0xbf67ebc2, 0x3f7ced37, 0x3ede3668, 0xbdf5b674, 0xbf2c88d2, 0x3f3f647a, 0x3e4926ee,
        0xbeb5a206, 0xbf67ebc2, 0x3f5e28d8, 0x3ea164f0, 0xbe730fa3, 0xbf4a3a4a,
    ];
    const GOLDEN_GRAD_X: [u32; 12] = [
        0x3e193388, 0x3e15fbef, 0x3e12c456, 0x3e0f8cc0, 0x00000000, 0x00000000, 0x00000000,
        0x00000000, 0xbe2d4cfb, 0xbe1b74b4, 0xbe099c69, 0xbdef883c,
    ];
    const GOLDEN_GRAD_W: [u32; 16] = [
        0xbe90dd13, 0x3f4e0042, 0x3da620ef, 0xbf0b5167, 0x3f24d334, 0xbe324801, 0xbe85fc4b,
        0xbe541362, 0xbe2fe789, 0x3f156921, 0x3d379b38, 0xbed3a2a0, 0xbeeb0cd5, 0xbf87618a,
        0x3e7760fa, 0x3f96dc98,
    ];

    #[test]
    fn embedding_gradient_keeps_its_golden_bits() {
        // One table read three ways, as a tied embedding is: two gathers
        // (row 1 three times in all, rows 0, 2 and 5 never) and a product
        // through its transpose, which reaches every row.
        let mut store = ParamStore::new();
        let e = store.register(
            "e",
            Matrix::from_fn(6, 4, |r, c| (r as f32 * 0.37 - c as f32 * 0.23).sin()),
        );
        let mut tape = Tape::new();
        let table = tape.param(&store, e);
        let first = tape.gather_rows(table, &[1, 3, 1]);
        let second = tape.gather_rows(table, &[4, 1]);
        let x = tape.concat_rows(&[first, second]);
        let h = tape.tanh(x);
        let decoder = tape.transpose(table);
        let logits = tape.matmul(h, decoder);
        let loss = tape.cross_entropy(logits, &[0, 2, 5, 1, 3]);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        let bits: Vec<u32> = store.grad(e).data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, GOLDEN_GRAD_E, "accumulated grad(e)");
    }

    const GOLDEN_GRAD_E: [u32; 24] = [
        0xbcf87ffb, 0xbc1f5d71, 0x3c5022d6, 0x3d095433, 0xbdbe3f0a, 0xbe00ecfa, 0xbe217518,
        0xbe36331f, 0xbda45795, 0xbdb946a9, 0xbdc4c352, 0xbdbcec1b, 0x3d294efa, 0x3d9d836f,
        0x3df08e1a, 0x3e20d947, 0x3e2e0bd0, 0x3e27b674, 0x3e2028f1, 0x3e1abbcc, 0x3d91a4a1,
        0x3db39fc4, 0x3dd03bbd, 0x3ddd99f4,
    ];

    #[test]
    fn the_one_node_transposed_product_keeps_the_embedding_golden_bits() {
        // `embedding_gradient_keeps_its_golden_bits`' graph with the tied
        // product as one `matmul_nt` node: the logits of `transpose` +
        // `matmul`, and the table's golden gradient.
        let mut store = ParamStore::new();
        let e = store.register(
            "e",
            Matrix::from_fn(6, 4, |r, c| (r as f32 * 0.37 - c as f32 * 0.23).sin()),
        );
        let mut tape = Tape::new();
        let table = tape.param(&store, e);
        let first = tape.gather_rows(table, &[1, 3, 1]);
        let second = tape.gather_rows(table, &[4, 1]);
        let x = tape.concat_rows(&[first, second]);
        let h = tape.tanh(x);
        let logits = tape.matmul_nt(h, table);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let want = tape.value(h).matmul(&tape.value(table).transpose());
        assert_eq!(bits(tape.value(logits)), bits(&want), "logits");
        let loss = tape.cross_entropy(logits, &[0, 2, 5, 1, 3]);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        assert_eq!(bits(store.grad(e)), GOLDEN_GRAD_E, "accumulated grad(e)");
    }

    /// Record malformed call number `case` on `exec`; every case panics.
    fn malformed_call<T: TapeExec>(exec: &mut T, case: usize) {
        let a = exec.constant(Matrix::zeros(2, 3));
        let b = exec.constant(Matrix::zeros(2, 3));
        let wide = exec.constant(Matrix::zeros(1, 4));
        match case {
            0 => exec.matmul(a, b),
            1 => exec.matmul_const(a, &Matrix::zeros(2, 3)),
            2 => {
                let t = exec.transpose(b);
                exec.add(a, t)
            }
            3 => exec.add_row_broadcast(a, b),
            4 => {
                let beta = exec.constant(Matrix::zeros(1, 3));
                exec.layer_norm(a, wide, beta, 1e-5)
            }
            5 => exec.gather_rows(a, &[1, 2]),
            6 => exec.slice_cols(a, 2, 2),
            7 => exec.slice_rows(a, 1, 2),
            _ => exec.concat_rows(&[a, wide]),
        };
    }

    #[test]
    fn both_executors_reject_malformed_calls_with_one_message() {
        fn message(call: impl FnOnce()) -> String {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(call))
                .expect_err("a malformed call must panic");
            match payload.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => p
                    .downcast::<&str>()
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
            }
        }
        let want = [
            "tape op `matmul`: incompatible shapes 2x3 vs 2x3",
            "tape op `matmul`: incompatible shapes 2x3 vs 2x3",
            "tape op `add`: incompatible shapes 2x3 vs 3x2",
            "tape op `add_row_broadcast`: operand is 2x3, need a (1,C) row vector",
            "tape op `layer_norm`: incompatible shapes 2x3 vs 1x4",
            "tape op `gather_rows`: index 2 out of range 0..2",
            "tape op `slice_cols`: index 4 out of range 0..3",
            "tape op `slice_rows`: index 3 out of range 0..2",
            "tape op `concat_rows`: incompatible shapes 2x3 vs 1x4",
        ];
        for (case, want) in want.iter().enumerate() {
            let taped = message(|| malformed_call(&mut Tape::new(), case));
            let free = message(|| malformed_call(&mut NoGradTape::new(), case));
            assert_eq!(&taped, want, "recording tape, case {case}");
            assert_eq!(&free, want, "tape-free executor, case {case}");
        }
    }

    #[test]
    fn a_segment_reading_another_segments_var_panics() {
        let mut tape = Tape::new();
        let x = tape.constant(test_input());
        // Leaves may be read from any segment; non-leaf vars may not.
        let h = tape.segment(|t| t.tanh(x));
        tape.segment(|t| t.sigmoid(x));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tape.segment(|t| t.relu(h));
        }))
        .expect_err("reading another segment's var must panic");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("tape op `relu`: reads node 1, a non-leaf var outside its segment")
        );
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
