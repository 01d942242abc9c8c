//! The registry of JSONL event type tags, span names, the metric names
//! `em-prof` reads, and tape op names.
//!
//! Every `"type"` tag written into a trace and every span name opened by
//! the workspace lives here as a `const`, so the schema is greppable in one
//! place and `em-prof` / `em-lint` can enumerate it. The `em-lint`
//! `event_name` rule rejects ad-hoc event-tag string literals anywhere
//! else in library code; span names are not string-matched (several are
//! ordinary words), but call sites are expected to use these consts.

/// `span_open` — a span began.
pub const EV_SPAN_OPEN: &str = "span_open";
/// `span_close` — a span ended (wall/heap deltas).
pub const EV_SPAN_CLOSE: &str = "span_close";
/// `epoch_summary` — one finished training epoch (loss, dev F1, size).
pub const EV_EPOCH_SUMMARY: &str = "epoch_summary";
/// `pseudo_select` — pseudo-labels moved into the train set (paper §4.2).
pub const EV_PSEUDO_SELECT: &str = "pseudo_select";
/// `prune` — dynamic data pruning dropped examples (paper §4.3).
pub const EV_PRUNE: &str = "prune";
/// `pretrain_step` — one MLM pretraining optimizer step.
pub const EV_PRETRAIN_STEP: &str = "pretrain_step";
/// `block` — a blocking query batch completed.
pub const EV_BLOCK: &str = "block";
/// `non_finite` — the tape sanitizer caught a NaN/Inf buffer.
pub const EV_NON_FINITE: &str = "non_finite";
/// `audit` — graph-audit summary at loss construction.
pub const EV_AUDIT: &str = "audit";
/// `message` — free-form log line.
pub const EV_MESSAGE: &str = "message";
/// `unc_hist` — a histogram of MC-Dropout uncertainty scores.
pub const EV_UNC_HIST: &str = "unc_hist";
/// `metric` — one registry metric sampled into the trace (at shutdown).
pub const EV_METRIC: &str = "metric";
/// `ckpt_save` — a training checkpoint was durably written.
pub const EV_CKPT_SAVE: &str = "ckpt_save";
/// `ckpt_restore` — a run resumed from a checkpoint; carries the work
/// counters the resumed process skips so manifests stay comparable.
pub const EV_CKPT_RESTORE: &str = "ckpt_restore";
/// `recovered_batch` — a non-finite batch loss was skipped (graceful
/// degradation instead of an abort).
pub const EV_RECOVERED_BATCH: &str = "recovered_batch";
/// `io_retry` — a transient I/O failure triggered a bounded retry.
pub const EV_IO_RETRY: &str = "io_retry";
/// `op_stats` — aggregated tape-op counters flushed at a stage boundary
/// (one event per op name with nonzero activity since the last flush).
pub const EV_OP_STATS: &str = "op_stats";
/// `progress` — a periodic trainer heartbeat (throughput, ETA, running
/// loss, tape/heap gauges) emitted every `--progress-every` ticks.
pub const EV_PROGRESS: &str = "progress";
/// `run_meta` — the run's identity card (seed, config fingerprint, git
/// SHA, build profile, schema version), emitted as the first trace line.
pub const EV_RUN_META: &str = "run_meta";
/// `request` — one serve request reached a terminal outcome (ok,
/// deadline_exceeded, failed, …); carries pair count and wall time.
pub const EV_REQUEST: &str = "request";
/// `reject` — admission control shed a serve request (queue full,
/// draining, duplicate id) instead of queuing it unboundedly.
pub const EV_REJECT: &str = "reject";
/// `worker_restart` — the serve supervisor replaced a panicked or wedged
/// worker actor (carries the consecutive-restart count and backoff).
pub const EV_WORKER_RESTART: &str = "worker_restart";
/// `drain` — the serve process finished a graceful drain (terminal
/// request tallies; the service answers nothing after this).
pub const EV_DRAIN: &str = "drain";

/// Every event type tag, in schema order.
pub const ALL_EVENT_TAGS: [&str; 23] = [
    EV_SPAN_OPEN,
    EV_SPAN_CLOSE,
    EV_EPOCH_SUMMARY,
    EV_PSEUDO_SELECT,
    EV_PRUNE,
    EV_PRETRAIN_STEP,
    EV_BLOCK,
    EV_NON_FINITE,
    EV_AUDIT,
    EV_MESSAGE,
    EV_UNC_HIST,
    EV_METRIC,
    EV_CKPT_SAVE,
    EV_CKPT_RESTORE,
    EV_RECOVERED_BATCH,
    EV_IO_RETRY,
    EV_OP_STATS,
    EV_PROGRESS,
    EV_RUN_META,
    EV_REQUEST,
    EV_REJECT,
    EV_WORKER_RESTART,
    EV_DRAIN,
];

/// One CLI `match` invocation (detail: dataset name).
pub const SPAN_MATCH: &str = "match";
/// MLM pretraining over the serialized corpus.
pub const SPAN_PRETRAIN: &str = "pretrain";
/// Dataset encoding (tokenize + serialize).
pub const SPAN_ENCODE: &str = "encode";
/// Prompt-model tuning (teacher/student epochs live inside).
pub const SPAN_TUNE: &str = "tune";
/// Template grid search inside tuning.
pub const SPAN_GRID_TEMPLATE: &str = "grid_template";
/// Lightweight Self-Training (paper Algorithm 1) outer span.
pub const SPAN_LST: &str = "lst";
/// One LST iteration.
pub const SPAN_LST_ITER: &str = "lst_iter";
/// Teacher training inside LST.
pub const SPAN_TEACHER: &str = "teacher";
/// Pseudo-label selection inside LST.
pub const SPAN_PSEUDO_SELECT: &str = "pseudo_select";
/// MC-Dropout scoring passes inside pseudo-label selection.
pub const SPAN_PSEUDO_SCORE: &str = "pseudo_score";
/// One stochastic MC-Dropout forward pass (detail: `pass <i>/<n>`). Child
/// of `pseudo_score`, so its wall time stops reading as pure self time.
pub const SPAN_PSEUDO_PASS: &str = "pseudo_pass";
/// Uncertainty estimation over the scoring passes.
pub const SPAN_PSEUDO_UNCERTAINTY: &str = "pseudo_uncertainty";
/// Threshold + sort that turns scores into selected pseudo-labels.
pub const SPAN_PSEUDO_RANK: &str = "pseudo_rank";
/// Student training inside LST.
pub const SPAN_STUDENT: &str = "student";
/// Candidate blocking over a dataset.
pub const SPAN_BLOCK: &str = "block";
/// One baseline matcher run (detail: matcher name).
pub const SPAN_BASELINE: &str = "baseline";
/// Baseline fit phase.
pub const SPAN_FIT: &str = "fit";
/// Baseline predict phase.
pub const SPAN_PREDICT: &str = "predict";
/// One bench-harness method run (detail: method/dataset).
pub const SPAN_METHOD: &str = "method";
/// One `promptem serve` process lifetime (detail: bound address).
pub const SPAN_SERVE: &str = "serve";
/// One coalesced serve forward — a micro-batch of match requests pushed
/// through the tape-free path (detail: `<requests> req / <pairs> pairs`).
pub const SPAN_SERVE_BATCH: &str = "serve_batch";

/// Every span name the workspace opens, in rough pipeline order.
pub const ALL_SPAN_NAMES: [&str; 21] = [
    SPAN_MATCH,
    SPAN_PRETRAIN,
    SPAN_ENCODE,
    SPAN_TUNE,
    SPAN_GRID_TEMPLATE,
    SPAN_LST,
    SPAN_LST_ITER,
    SPAN_TEACHER,
    SPAN_PSEUDO_SELECT,
    SPAN_PSEUDO_SCORE,
    SPAN_PSEUDO_PASS,
    SPAN_PSEUDO_UNCERTAINTY,
    SPAN_PSEUDO_RANK,
    SPAN_STUDENT,
    SPAN_BLOCK,
    SPAN_BASELINE,
    SPAN_FIT,
    SPAN_PREDICT,
    SPAN_METHOD,
    SPAN_SERVE,
    SPAN_SERVE_BATCH,
];

/// `core_test_f1` — the pipeline's test F1 gauge (labelled
/// `{dataset="..."}`); `em-prof` reads a run's test F1 from it.
pub const METRIC_TEST_F1: &str = "core_test_f1";
/// `serve_request_secs` — the histogram em-serve feeds once per answered
/// request; `em-prof` reads serving latency percentiles from it.
pub const METRIC_SERVE_REQUEST_SECS: &str = "serve_request_secs";

/// Every autodiff tape op name, in tape recording order. The index of an
/// op in this array is its slot in the op-profiler's accumulation table
/// (`em-nn` pins the correspondence with a test), and the `em-lint`
/// `op_name` rule requires `op_stats` op strings to come from here.
pub const ALL_OP_NAMES: [&str; 27] = [
    "leaf",
    "matmul",
    "add",
    "add_row_broadcast",
    "sub",
    "mul",
    "scale",
    "add_const",
    "grad_reverse",
    "transpose",
    "tanh",
    "sigmoid",
    "gelu",
    "relu",
    "softmax_rows",
    "layer_norm",
    "gather_rows",
    "dropout",
    "concat_rows",
    "concat_cols",
    "slice_rows",
    "slice_cols",
    "mean_rows",
    "mean_all",
    "cross_entropy",
    "nll_probs",
    "cols_matmul",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_and_snake_case() {
        for (i, a) in ALL_EVENT_TAGS.iter().enumerate() {
            assert!(
                a.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "tag {a} not snake_case"
            );
            for b in &ALL_EVENT_TAGS[i + 1..] {
                assert_ne!(a, b, "duplicate event tag");
            }
        }
    }

    #[test]
    fn span_names_are_unique() {
        for (i, a) in ALL_SPAN_NAMES.iter().enumerate() {
            for b in &ALL_SPAN_NAMES[i + 1..] {
                assert_ne!(a, b, "duplicate span name");
            }
        }
    }

    #[test]
    fn op_names_are_unique_and_snake_case() {
        for (i, a) in ALL_OP_NAMES.iter().enumerate() {
            assert!(
                a.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "op name {a} not snake_case"
            );
            for b in &ALL_OP_NAMES[i + 1..] {
                assert_ne!(a, b, "duplicate op name");
            }
        }
    }
}
