//! # em-nn
//!
//! A minimal, dependency-light neural-network substrate written for the
//! PromptEM reproduction: a dense `f32` [`tensor::Matrix`], a tape-based
//! reverse-mode autograd engine ([`tape::Tape`]), standard layers
//! (linear, embedding, layer-norm, multi-head attention, feed-forward,
//! (Bi)LSTM) and the AdamW/SGD optimizers.
//!
//! Design notes:
//! * one [`tape::Tape`] per mini-batch; parameters enter the tape once via
//!   [`tape::TapeExec::param`] and their gradients are folded back into the
//!   shared [`optim::ParamStore`] with
//!   [`tape::Tape::accumulate_param_grads`];
//! * each forward op is written once, in [`tape::TapeExec`], and shared by
//!   the recording [`tape::Tape`] and the tape-free [`tape::NoGradTape`],
//!   so training and scoring agree bit for bit by construction;
//! * everything is CPU-only `f32`; every matrix product runs one
//!   register-blocked GEMM kernel ([`tensor`]) that autovectorizes under
//!   `-C target-cpu=native` and is bit-identical to a plain ikj loop;
//! * `tanh`, `sigmoid`, GELU and softmax run the branch-free [`mathf`]
//!   ports of glibc's `tanhf`/`expf`, which vectorize and return the
//!   library's bits;
//! * every op has a finite-difference gradient test (see `tape::tests`).

#![warn(missing_docs)]

pub mod init;
pub mod io;
pub mod layers;
pub mod mathf;
pub mod opstats;
pub mod optim;
pub mod tape;
pub mod tensor;

pub use optim::{AdamW, ParamId, ParamStore, Sgd};
pub use tape::{NoGradTape, Tape, TapeExec, Var};
pub use tensor::Matrix;
