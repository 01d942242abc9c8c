//! `em-check`: static analysis for the PromptEM reproduction.
//!
//! Three analyzers, all dependency-free:
//!
//! * [`audit`] — a structural pass over a recorded [`em_nn::Tape`] that
//!   reports dead nodes (computed but unreachable from the loss),
//!   detached parameters (on the tape with no gradient path to the
//!   loss — the classic "fine-tuned head never updates" bug), and
//!   registered-but-unrecorded trainable parameters. Diagnostics are
//!   typed ([`audit::Diag`]) instead of panics, and
//!   [`audit::audit_and_report`] mirrors the summary into `em-obs`.
//! * [`gradcheck`] — a central-finite-difference harness that compares
//!   the tape's reverse-mode gradients against numeric derivatives for
//!   any scalar-valued graph builder. The integration tests run it over
//!   every tape op.
//! * [`lint`] — a token-level source scanner (built on the [`lex`]
//!   module's minimal Rust lexer) enforcing repo invariants: no
//!   `unwrap`/`expect` in library code, no raw clocks outside
//!   `em-obs`/`em-bench`, no unseeded RNG, no `process::exit` outside
//!   the CLI, plus the concurrency family (`atomic-ordering`,
//!   `thread-spawn`, `unsafe-safety`, `lock-unwrap`) that gates the
//!   parallel arc. Escapes via `// lint:allow(<rule>)`. `cargo run -p
//!   em-check --bin em-lint` runs it over the repo and is wired into
//!   `scripts/ci.sh` as a hard gate.
//!
//! The record-time shape validation half of the story lives in `em-nn`
//! itself (one check per [`em_nn::TapeExec`] op, panicking with an
//! [`em_nn::tape::TapeError`] message), as does the
//! `PROMPTEM_SANITIZE=1` NaN/Inf sanitizer — this crate supplies the
//! passes that need whole-graph or whole-repo visibility.

#![warn(missing_docs)]

pub mod audit;
pub mod gradcheck;
pub mod lex;
pub mod lint;
#[doc(hidden)]
pub mod lint_legacy;

pub use audit::{audit_and_report, AuditReport, Diag};
pub use gradcheck::gradcheck;
pub use lint::{lint_repo, lint_source, Rule, Violation};
