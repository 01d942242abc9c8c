//! The typed event schema and its JSONL encoding.
//!
//! Every event is one JSON object per line. Common fields:
//!
//! | field  | type   | meaning                                             |
//! |--------|--------|-----------------------------------------------------|
//! | `seq`  | u64    | process-wide monotonic sequence number              |
//! | `seed` | u64    | the run seed (set via [`crate::set_run_seed`])      |
//! | `t_us` | u64    | microseconds since telemetry start                  |
//! | `span` | u64?   | id of the enclosing span, if any                    |
//! | `type` | string | the variant tag (see [`EventKind`])                 |
//!
//! Variant fields are documented on each [`EventKind`] variant. Optional
//! numeric fields encode as `null` when absent. The encoding is stable and
//! round-trips through [`Event::parse`], which the sink tests assert.

use crate::json::{FlatObject, ObjectWriter};
use crate::level::Level;
use crate::names;
use std::fmt::Write as _;

/// One telemetry event, ready for a sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Process-wide monotonic sequence number (1-based).
    pub seq: u64,
    /// The run seed, so traces from two runs are diffable.
    pub seed: u64,
    /// Microseconds since telemetry start.
    pub t_us: u64,
    /// Enclosing span id, when the event fired inside a span.
    pub span: Option<u64>,
    /// The payload.
    pub kind: EventKind,
}

/// The event payload variants.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span began. Fields: `id`, `parent` (nullable), `name`, `detail`
    /// (nullable free-form label, e.g. `"PromptEM/REL-HETER"`).
    SpanOpen {
        /// Span id (process-wide unique).
        id: u64,
        /// Parent span id, if nested.
        parent: Option<u64>,
        /// Static span name (`"pretrain"`, `"teacher"`, ...).
        name: String,
        /// Optional dynamic label.
        detail: Option<String>,
    },
    /// A span ended. Fields: `id`, `name`, `wall_us`, `heap_delta` (bytes,
    /// signed; 0 unless the counting allocator is installed), `heap_peak`
    /// (process peak bytes at close).
    SpanClose {
        /// Span id matching the open event.
        id: u64,
        /// Static span name (repeated for grep-ability).
        name: String,
        /// Wall-clock duration in microseconds.
        wall_us: u64,
        /// Live-heap delta across the span, in bytes.
        heap_delta: i64,
        /// Process peak heap at close, in bytes.
        heap_peak: u64,
    },
    /// One training epoch finished. Fields: `epoch`, `train_loss`,
    /// `valid_f1` (nullable, percent), `threshold` (nullable), `examples`
    /// (training examples seen this epoch, after balancing/pruning),
    /// `batches` (optimizer steps this epoch), `wall_us` (epoch duration).
    EpochSummary {
        /// 0-based epoch index.
        epoch: u64,
        /// Mean batch loss of the epoch.
        train_loss: f64,
        /// Validation F1 (percent) at the calibrated threshold, when
        /// validation ran this epoch.
        valid_f1: Option<f64>,
        /// The calibrated decision threshold, when validation ran.
        threshold: Option<f64>,
        /// Training examples seen this epoch (post balancing/pruning).
        examples: u64,
        /// Optimizer steps (batches) taken this epoch.
        batches: u64,
        /// Wall-clock duration of the epoch in microseconds.
        wall_us: u64,
    },
    /// Pseudo-labels were selected (paper §4.2). Fields: `count`, `tpr`
    /// (nullable), `tnr` (nullable) — quality is only known when gold
    /// labels were supplied for auditing (Table 5).
    PseudoSelect {
        /// Pseudo-labels moved from D_U into D_L.
        count: u64,
        /// True-positive rate against audit labels.
        tpr: Option<f64>,
        /// True-negative rate against audit labels.
        tnr: Option<f64>,
    },
    /// Dynamic data pruning fired (paper §4.3). Fields: `dropped`,
    /// `passes` (MC-Dropout passes used for MC-EL2N).
    Prune {
        /// Training examples removed by this pruning event.
        dropped: u64,
        /// MC-Dropout passes used to score them.
        passes: u64,
    },
    /// One MLM pretraining optimizer step. Fields: `step`, `mlm_loss`.
    PretrainStep {
        /// 0-based optimizer step.
        step: u64,
        /// The step's masked-LM loss.
        mlm_loss: f64,
    },
    /// A blocking query batch completed. Fields: `candidates`.
    Block {
        /// Candidate pairs produced.
        candidates: u64,
    },
    /// The tape sanitizer found a non-finite value or gradient during
    /// backward (`PROMPTEM_SANITIZE=1`). Fields: `op` (tape op name),
    /// `node` (tape node index), `stage` (`"value"` or `"grad"`), `bad`
    /// (non-finite element count), `total` (element count).
    NonFinite {
        /// Name of the tape op that produced the poisoned buffer.
        op: String,
        /// Tape node index (stable within one tape).
        node: u64,
        /// Which buffer is poisoned: `"value"` or `"grad"`.
        stage: String,
        /// Number of NaN/Inf elements.
        bad: u64,
        /// Total elements in the buffer.
        total: u64,
    },
    /// A graph audit ran over a recorded tape at loss construction.
    /// Fields: `nodes` (tape size), `dead` (nodes unreachable from the
    /// loss), `detached` (parameter leaves with no gradient path to the
    /// loss), `unused` (unfrozen store parameters never placed on the tape).
    Audit {
        /// Total recorded tape nodes.
        nodes: u64,
        /// Nodes computed but unreachable from the loss.
        dead: u64,
        /// On-tape parameter leaves with no gradient path from the loss.
        detached: u64,
        /// Unfrozen store parameters that never entered the tape.
        unused: u64,
    },
    /// Free-form log line. Fields: `level`, `text`.
    Message {
        /// Severity.
        level: Level,
        /// The message.
        text: String,
    },
    /// A histogram of MC-Dropout uncertainty scores (paper §4.2/§4.3).
    /// Fields: `source` (which scorer, e.g. `"pseudo_uncertainty"`),
    /// `lo`/`hi` (value range covered), `mean`, `counts` (linear bins
    /// over `[lo, hi]`; total observations is their sum).
    UncHist {
        /// Which uncertainty scorer produced the values.
        source: String,
        /// Smallest observed value (left edge of bin 0).
        lo: f64,
        /// Largest observed value (right edge of the last bin).
        hi: f64,
        /// Mean of the observed values.
        mean: f64,
        /// Observation counts per linear bin across `[lo, hi]`.
        counts: Vec<u64>,
    },
    /// One registry metric sampled into the trace (emitted at shutdown so
    /// traces are self-contained). Fields: `name` (label-folded, e.g.
    /// `nn_optimizer_steps{opt="adamw"}`), `kind` (`counter`/`gauge`/
    /// `histogram`), `value` (counter total, gauge value, or histogram
    /// mean), `count` (histogram observations; null otherwise), and
    /// `p50`/`p95`/`p99` (histogram percentiles; null otherwise).
    Metric {
        /// Metric name with labels folded in.
        name: String,
        /// `"counter"`, `"gauge"`, or `"histogram"`.
        kind: String,
        /// Counter total, gauge value, or histogram mean.
        value: f64,
        /// Histogram observation count.
        count: Option<u64>,
        /// Estimated 50th percentile (histograms only).
        p50: Option<f64>,
        /// Estimated 95th percentile (histograms only).
        p95: Option<f64>,
        /// Estimated 99th percentile (histograms only).
        p99: Option<f64>,
    },
    /// A training checkpoint was durably written (atomic temp → fsync →
    /// rename). Fields: `step` (optimizer-step or round tag), `bytes`
    /// (encoded size), `kept` (files remaining after rotation).
    CkptSave {
        /// Monotone tag: optimizer step (pretrain) or round (self-train).
        step: u64,
        /// Encoded checkpoint size in bytes.
        bytes: u64,
        /// Checkpoint files kept on disk after rotation.
        kept: u64,
    },
    /// A run resumed from a checkpoint. The counters record the work the
    /// resumed process *skips*, so a manifest built from its trace matches
    /// an uninterrupted same-seed run (`em-prof` adds them back in).
    /// Fields: `step`, `pretrain_steps`, `epochs`, `batches`.
    CkptRestore {
        /// The checkpoint tag resumed from.
        step: u64,
        /// Pretrain optimizer steps already taken before the checkpoint.
        pretrain_steps: u64,
        /// Epoch summaries the dead process had already emitted.
        epochs: u64,
        /// Batches accounted in those epoch summaries.
        batches: u64,
    },
    /// A non-finite batch loss was detected and the batch skipped instead
    /// of aborting the run. Fields: `phase` (e.g. `"pretrain"`,
    /// `"finetune"`), `step` (batch counter in that phase), `consecutive`
    /// (run length of bad batches so far).
    RecoveredBatch {
        /// Which training phase recovered.
        phase: String,
        /// The phase's batch/step counter at the failure.
        step: u64,
        /// Consecutive bad batches including this one.
        consecutive: u64,
    },
    /// A transient I/O failure triggered a bounded retry with deterministic
    /// backoff. Fields: `op` (operation name, e.g. `"ckpt_write"`),
    /// `attempt` (1-based failed attempt), `delay_ms` (backoff before the
    /// next attempt; 0 on the terminal event), `gave_up` (true on the
    /// terminal event emitted when the bounded retry is exhausted and the
    /// error is returned to the caller).
    IoRetry {
        /// The retried operation.
        op: String,
        /// The attempt that just failed (1-based).
        attempt: u64,
        /// Backoff applied before the next attempt, in milliseconds.
        delay_ms: u64,
        /// True when the retry budget is exhausted and the caller gets the
        /// error — the trace-visible alternative to failing silently.
        gave_up: bool,
    },
    /// Aggregated tape-op counters flushed at a stage boundary, one event
    /// per op name with nonzero activity since the previous flush. The
    /// enclosing `span` field attributes the totals to their phase.
    /// Fields: `op` (tape op name from [`names::ALL_OP_NAMES`]),
    /// `fwd_calls`/`fwd_us` (forward recordings and their wall time),
    /// `bwd_calls`/`bwd_us` (backward visits and their wall time),
    /// `elems` (output elements produced forward), `bytes` (net heap
    /// allocated across forward recordings; 0 without the counting
    /// allocator).
    OpStats {
        /// Tape op name (`"matmul"`, `"softmax_rows"`, ...).
        op: String,
        /// Forward recordings of this op since the last flush.
        fwd_calls: u64,
        /// Wall time of those forward recordings, in microseconds.
        fwd_us: u64,
        /// Backward visits of this op since the last flush.
        bwd_calls: u64,
        /// Wall time of those backward visits, in microseconds.
        bwd_us: u64,
        /// Output elements produced by the forward recordings.
        elems: u64,
        /// Net heap bytes allocated across the forward recordings.
        bytes: u64,
    },
    /// A periodic trainer heartbeat (emitted every `--progress-every`
    /// ticks; see [`crate::heartbeat`]). Fields: `phase` (training phase
    /// name, e.g. `"pretrain"`, `"tune"`, `"mc_dropout"`), `done`/`total`
    /// (ticks completed / expected; `total` is 0 when unknown), `examples`
    /// (examples processed so far), `ex_per_sec` (examples per second
    /// since the heartbeat started), `loss` (mean loss over the ticks
    /// since the previous beat; null when the phase has no loss),
    /// `eta_us` (projected microseconds to completion; null when `total`
    /// is unknown or the rate is zero), `tape_nodes` (cumulative autodiff
    /// tape nodes recorded process-wide), `heap_peak` (process peak heap
    /// bytes; 0 without the counting allocator).
    Progress {
        /// Training phase name.
        phase: String,
        /// Ticks (batches/steps/passes) completed so far.
        done: u64,
        /// Expected total ticks; 0 when unknown.
        total: u64,
        /// Examples processed so far.
        examples: u64,
        /// Examples per second since the heartbeat started.
        ex_per_sec: f64,
        /// Mean loss over the ticks since the previous beat.
        loss: Option<f64>,
        /// Projected microseconds to completion.
        eta_us: Option<u64>,
        /// Cumulative autodiff tape nodes recorded process-wide.
        tape_nodes: u64,
        /// Process peak heap bytes (0 without the counting allocator).
        heap_peak: u64,
    },
    /// The run's identity card, emitted once as the first trace line so
    /// every trace (and the bench-history entries distilled from it) is
    /// self-describing. Fields: `seed`, `config` (FNV-1a fingerprint of
    /// the resolved config, hex), `git_sha` (nullable; read from
    /// `.git/HEAD` when the process runs inside a checkout), `build`
    /// (`"debug"` or `"release"`), `schema` (run-meta schema version).
    RunMeta {
        /// The run seed (repeated from the envelope for grep-ability).
        seed: u64,
        /// FNV-1a 64 fingerprint of the resolved config, as hex.
        config: String,
        /// Git commit SHA of the working tree, when discoverable.
        git_sha: Option<String>,
        /// Build profile: `"debug"` or `"release"`.
        build: String,
        /// Schema version of this event (see [`crate::RUN_META_SCHEMA`]).
        schema: u64,
    },
    /// One serve request reached a terminal outcome. Fields: `id` (the
    /// client-chosen request id), `pairs` (match pairs in the request),
    /// `queue` (mailbox depth at admission), `wall_us` (admission →
    /// reply), `outcome` (`"ok"`, `"deadline_exceeded"`, `"failed"`, or
    /// `"bad_request"`).
    Request {
        /// Client-chosen request id.
        id: String,
        /// Match pairs carried by the request.
        pairs: u64,
        /// Mailbox depth observed at admission.
        queue: u64,
        /// Microseconds from admission to the reply being written.
        wall_us: u64,
        /// Terminal outcome tag.
        outcome: String,
    },
    /// Admission control shed a serve request instead of queuing it
    /// unboundedly. Fields: `id`, `reason` (`"queue_full"`, `"draining"`,
    /// `"duplicate_id"`, ...), `retry_after_ms` (client backoff hint).
    Reject {
        /// Client-chosen request id.
        id: String,
        /// Why the request was shed.
        reason: String,
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The serve supervisor replaced a dead or wedged worker actor.
    /// Fields: `worker` (slot index), `restarts` (consecutive restarts of
    /// this slot, 1-based), `backoff_ms` (bounded exponential backoff slept
    /// before the respawn), `reason` (`"panic"` or `"wedged"`).
    WorkerRestart {
        /// Worker slot index.
        worker: u64,
        /// Consecutive restarts of this slot including this one.
        restarts: u64,
        /// Backoff slept before respawning, in milliseconds.
        backoff_ms: u64,
        /// What the supervisor detected: `"panic"` or `"wedged"`.
        reason: String,
    },
    /// A graceful serve drain completed: terminal request tallies at the
    /// moment the service stopped answering. Fields: `completed`,
    /// `rejected`, `failed`, `restarts`.
    Drain {
        /// Requests answered with a match decision.
        completed: u64,
        /// Requests shed by admission control.
        rejected: u64,
        /// Requests answered with a typed failure (deadline, worker loss).
        failed: u64,
        /// Worker restarts over the process lifetime.
        restarts: u64,
    },
}

impl EventKind {
    /// The `type` tag used in the JSONL encoding.
    pub fn type_tag(&self) -> &'static str {
        match self {
            EventKind::SpanOpen { .. } => names::EV_SPAN_OPEN,
            EventKind::SpanClose { .. } => names::EV_SPAN_CLOSE,
            EventKind::EpochSummary { .. } => names::EV_EPOCH_SUMMARY,
            EventKind::PseudoSelect { .. } => names::EV_PSEUDO_SELECT,
            EventKind::Prune { .. } => names::EV_PRUNE,
            EventKind::PretrainStep { .. } => names::EV_PRETRAIN_STEP,
            EventKind::Block { .. } => names::EV_BLOCK,
            EventKind::NonFinite { .. } => names::EV_NON_FINITE,
            EventKind::Audit { .. } => names::EV_AUDIT,
            EventKind::Message { .. } => names::EV_MESSAGE,
            EventKind::UncHist { .. } => names::EV_UNC_HIST,
            EventKind::Metric { .. } => names::EV_METRIC,
            EventKind::CkptSave { .. } => names::EV_CKPT_SAVE,
            EventKind::CkptRestore { .. } => names::EV_CKPT_RESTORE,
            EventKind::RecoveredBatch { .. } => names::EV_RECOVERED_BATCH,
            EventKind::IoRetry { .. } => names::EV_IO_RETRY,
            EventKind::OpStats { .. } => names::EV_OP_STATS,
            EventKind::Progress { .. } => names::EV_PROGRESS,
            EventKind::RunMeta { .. } => names::EV_RUN_META,
            EventKind::Request { .. } => names::EV_REQUEST,
            EventKind::Reject { .. } => names::EV_REJECT,
            EventKind::WorkerRestart { .. } => names::EV_WORKER_RESTART,
            EventKind::Drain { .. } => names::EV_DRAIN,
        }
    }

    /// The severity a stderr filter applies to this event.
    pub fn level(&self) -> Level {
        match self {
            EventKind::Message { level, .. } => *level,
            EventKind::NonFinite { .. } => Level::Error,
            // An audit that found nothing is routine; one with findings is
            // actionable.
            EventKind::Audit { dead, detached, .. } => {
                if *dead > 0 || *detached > 0 {
                    Level::Warn
                } else {
                    Level::Debug
                }
            }
            // Skipping a batch, retrying I/O, shedding a request, or losing
            // a worker is a recovery, not business as usual — surface it.
            EventKind::RecoveredBatch { .. }
            | EventKind::IoRetry { .. }
            | EventKind::Reject { .. }
            | EventKind::WorkerRestart { .. } => Level::Warn,
            EventKind::EpochSummary { .. }
            | EventKind::PseudoSelect { .. }
            | EventKind::Prune { .. }
            | EventKind::CkptRestore { .. }
            | EventKind::Drain { .. }
            | EventKind::RunMeta { .. } => Level::Info,
            EventKind::CkptSave { .. } => Level::Debug,
            EventKind::SpanOpen { .. }
            | EventKind::SpanClose { .. }
            | EventKind::PretrainStep { .. }
            | EventKind::Block { .. }
            | EventKind::UncHist { .. }
            | EventKind::Metric { .. }
            | EventKind::OpStats { .. }
            | EventKind::Request { .. }
            | EventKind::Progress { .. } => Level::Debug,
        }
    }
}

impl Event {
    /// Encode as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        self.encode(false)
    }

    /// Encode in canonical form: every measured field (a time, a size or a
    /// rate) reads `0` or `null`, so two runs that made the same decisions
    /// encode to the same bytes. The policy table is in [`crate::json`].
    pub fn to_canonical_json(&self) -> String {
        self.encode(true)
    }

    fn encode(&self, canonical: bool) -> String {
        let mut w = ObjectWriter::new(canonical);
        w.field("seq", &self.seq)
            .field("seed", &self.seed)
            .measured("t_us", &self.t_us)
            .field("span", &self.span)
            .field("type", self.kind.type_tag());
        match &self.kind {
            EventKind::SpanOpen {
                id,
                parent,
                name,
                detail,
            } => {
                w.field("id", id)
                    .field("parent", parent)
                    .field("name", name)
                    .field("detail", detail);
            }
            EventKind::SpanClose {
                id,
                name,
                wall_us,
                heap_delta,
                heap_peak,
            } => {
                w.field("id", id)
                    .field("name", name)
                    .measured("wall_us", wall_us)
                    .measured("heap_delta", heap_delta)
                    .measured("heap_peak", heap_peak);
            }
            EventKind::EpochSummary {
                epoch,
                train_loss,
                valid_f1,
                threshold,
                examples,
                batches,
                wall_us,
            } => {
                w.field("epoch", epoch)
                    .field("train_loss", train_loss)
                    .field("valid_f1", valid_f1)
                    .field("threshold", threshold)
                    .field("examples", examples)
                    .field("batches", batches)
                    .measured("wall_us", wall_us);
            }
            EventKind::PseudoSelect { count, tpr, tnr } => {
                w.field("count", count).field("tpr", tpr).field("tnr", tnr);
            }
            EventKind::Prune { dropped, passes } => {
                w.field("dropped", dropped).field("passes", passes);
            }
            EventKind::PretrainStep { step, mlm_loss } => {
                w.field("step", step).field("mlm_loss", mlm_loss);
            }
            EventKind::Block { candidates } => {
                w.field("candidates", candidates);
            }
            EventKind::NonFinite {
                op,
                node,
                stage,
                bad,
                total,
            } => {
                w.field("op", op)
                    .field("node", node)
                    .field("stage", stage)
                    .field("bad", bad)
                    .field("total", total);
            }
            EventKind::Audit {
                nodes,
                dead,
                detached,
                unused,
            } => {
                w.field("nodes", nodes)
                    .field("dead", dead)
                    .field("detached", detached)
                    .field("unused", unused);
            }
            EventKind::Message { level, text } => {
                w.field("level", level.name()).field("text", text);
            }
            EventKind::UncHist {
                source,
                lo,
                hi,
                mean,
                counts,
            } => {
                w.field("source", source)
                    .field("lo", lo)
                    .field("hi", hi)
                    .field("mean", mean)
                    .array("counts", counts);
            }
            EventKind::Metric {
                name,
                kind,
                value,
                count,
                p50,
                p95,
                p99,
            } => {
                w.field("name", name).field("kind", kind);
                // A histogram's value is its mean, a timing statistic; a
                // counter's or gauge's value is what the run did.
                if kind == "histogram" {
                    w.measured("value", value);
                } else {
                    w.field("value", value);
                }
                w.measured("count", count)
                    .measured("p50", p50)
                    .measured("p95", p95)
                    .measured("p99", p99);
            }
            EventKind::CkptSave { step, bytes, kept } => {
                w.field("step", step)
                    .measured("bytes", bytes)
                    .field("kept", kept);
            }
            EventKind::CkptRestore {
                step,
                pretrain_steps,
                epochs,
                batches,
            } => {
                w.field("step", step)
                    .field("pretrain_steps", pretrain_steps)
                    .field("epochs", epochs)
                    .field("batches", batches);
            }
            EventKind::RecoveredBatch {
                phase,
                step,
                consecutive,
            } => {
                w.field("phase", phase)
                    .field("step", step)
                    .field("consecutive", consecutive);
            }
            EventKind::IoRetry {
                op,
                attempt,
                delay_ms,
                gave_up,
            } => {
                w.field("op", op)
                    .field("attempt", attempt)
                    .field("delay_ms", delay_ms)
                    .field("gave_up", gave_up);
            }
            EventKind::OpStats {
                op,
                fwd_calls,
                fwd_us,
                bwd_calls,
                bwd_us,
                elems,
                bytes,
            } => {
                w.field("op", op)
                    .field("fwd_calls", fwd_calls)
                    .measured("fwd_us", fwd_us)
                    .field("bwd_calls", bwd_calls)
                    .measured("bwd_us", bwd_us)
                    .field("elems", elems)
                    .measured("bytes", bytes);
            }
            EventKind::Progress {
                phase,
                done,
                total,
                examples,
                ex_per_sec,
                loss,
                eta_us,
                tape_nodes,
                heap_peak,
            } => {
                w.field("phase", phase)
                    .field("done", done)
                    .field("total", total)
                    .field("examples", examples)
                    .measured("ex_per_sec", ex_per_sec)
                    .field("loss", loss)
                    .measured("eta_us", eta_us)
                    .field("tape_nodes", tape_nodes)
                    .measured("heap_peak", heap_peak);
            }
            EventKind::RunMeta {
                seed,
                config,
                git_sha,
                build,
                schema,
            } => {
                w.field("run_seed", seed)
                    .field("config", config)
                    .field("git_sha", git_sha)
                    .field("build", build)
                    .field("schema", schema);
            }
            EventKind::Request {
                id,
                pairs,
                queue,
                wall_us,
                outcome,
            } => {
                w.field("id", id)
                    .field("pairs", pairs)
                    .field("queue", queue)
                    .field("wall_us", wall_us)
                    .field("outcome", outcome);
            }
            EventKind::Reject {
                id,
                reason,
                retry_after_ms,
            } => {
                w.field("id", id)
                    .field("reason", reason)
                    .field("retry_after_ms", retry_after_ms);
            }
            EventKind::WorkerRestart {
                worker,
                restarts,
                backoff_ms,
                reason,
            } => {
                w.field("worker", worker)
                    .field("restarts", restarts)
                    .field("backoff_ms", backoff_ms)
                    .field("reason", reason);
            }
            EventKind::Drain {
                completed,
                rejected,
                failed,
                restarts,
            } => {
                w.field("completed", completed)
                    .field("rejected", rejected)
                    .field("failed", failed)
                    .field("restarts", restarts);
            }
        }
        w.finish()
    }

    /// Parse one JSONL line produced by [`Event::to_json`].
    pub fn parse(line: &str) -> Result<Event, String> {
        let f = FlatObject::parse(line)?;
        let kind = match f.str("type")?.as_str() {
            names::EV_SPAN_OPEN => EventKind::SpanOpen {
                id: f.u64("id")?,
                parent: f.opt_u64("parent")?,
                name: f.str("name")?,
                detail: f.opt_str("detail")?,
            },
            names::EV_SPAN_CLOSE => EventKind::SpanClose {
                id: f.u64("id")?,
                name: f.str("name")?,
                wall_us: f.u64("wall_us")?,
                heap_delta: f.i64("heap_delta")?,
                heap_peak: f.u64("heap_peak")?,
            },
            names::EV_EPOCH_SUMMARY => EventKind::EpochSummary {
                epoch: f.u64("epoch")?,
                train_loss: f.num("train_loss")?,
                valid_f1: f.opt_num("valid_f1")?,
                threshold: f.opt_num("threshold")?,
                examples: f.u64("examples")?,
                batches: f.u64("batches")?,
                wall_us: f.u64("wall_us")?,
            },
            names::EV_PSEUDO_SELECT => EventKind::PseudoSelect {
                count: f.u64("count")?,
                tpr: f.opt_num("tpr")?,
                tnr: f.opt_num("tnr")?,
            },
            names::EV_PRUNE => EventKind::Prune {
                dropped: f.u64("dropped")?,
                passes: f.u64("passes")?,
            },
            names::EV_PRETRAIN_STEP => EventKind::PretrainStep {
                step: f.u64("step")?,
                mlm_loss: f.num("mlm_loss")?,
            },
            names::EV_BLOCK => EventKind::Block {
                candidates: f.u64("candidates")?,
            },
            names::EV_NON_FINITE => EventKind::NonFinite {
                op: f.str("op")?,
                node: f.u64("node")?,
                stage: f.str("stage")?,
                bad: f.u64("bad")?,
                total: f.u64("total")?,
            },
            names::EV_AUDIT => EventKind::Audit {
                nodes: f.u64("nodes")?,
                dead: f.u64("dead")?,
                detached: f.u64("detached")?,
                unused: f.u64("unused")?,
            },
            names::EV_MESSAGE => EventKind::Message {
                level: Level::from_name(&f.str("level")?)
                    .ok_or_else(|| format!("bad level in {line}"))?,
                text: f.str("text")?,
            },
            names::EV_UNC_HIST => EventKind::UncHist {
                source: f.str("source")?,
                lo: f.num("lo")?,
                hi: f.num("hi")?,
                mean: f.num("mean")?,
                counts: f.u64s("counts")?,
            },
            names::EV_METRIC => EventKind::Metric {
                name: f.str("name")?,
                kind: f.str("kind")?,
                value: f.num("value")?,
                count: f.opt_u64("count")?,
                p50: f.opt_num("p50")?,
                p95: f.opt_num("p95")?,
                p99: f.opt_num("p99")?,
            },
            names::EV_CKPT_SAVE => EventKind::CkptSave {
                step: f.u64("step")?,
                bytes: f.u64("bytes")?,
                kept: f.u64("kept")?,
            },
            names::EV_CKPT_RESTORE => EventKind::CkptRestore {
                step: f.u64("step")?,
                pretrain_steps: f.u64("pretrain_steps")?,
                epochs: f.u64("epochs")?,
                batches: f.u64("batches")?,
            },
            names::EV_RECOVERED_BATCH => EventKind::RecoveredBatch {
                phase: f.str("phase")?,
                step: f.u64("step")?,
                consecutive: f.u64("consecutive")?,
            },
            names::EV_IO_RETRY => EventKind::IoRetry {
                op: f.str("op")?,
                attempt: f.u64("attempt")?,
                delay_ms: f.u64("delay_ms")?,
                gave_up: f.bool("gave_up")?,
            },
            names::EV_OP_STATS => EventKind::OpStats {
                op: f.str("op")?,
                fwd_calls: f.u64("fwd_calls")?,
                fwd_us: f.u64("fwd_us")?,
                bwd_calls: f.u64("bwd_calls")?,
                bwd_us: f.u64("bwd_us")?,
                elems: f.u64("elems")?,
                bytes: f.u64("bytes")?,
            },
            names::EV_PROGRESS => EventKind::Progress {
                phase: f.str("phase")?,
                done: f.u64("done")?,
                total: f.u64("total")?,
                examples: f.u64("examples")?,
                ex_per_sec: f.num("ex_per_sec")?,
                loss: f.opt_num("loss")?,
                eta_us: f.opt_u64("eta_us")?,
                tape_nodes: f.u64("tape_nodes")?,
                heap_peak: f.u64("heap_peak")?,
            },
            names::EV_RUN_META => EventKind::RunMeta {
                seed: f.u64("run_seed")?,
                config: f.str("config")?,
                git_sha: f.opt_str("git_sha")?,
                build: f.str("build")?,
                schema: f.u64("schema")?,
            },
            names::EV_REQUEST => EventKind::Request {
                id: f.str("id")?,
                pairs: f.u64("pairs")?,
                queue: f.u64("queue")?,
                wall_us: f.u64("wall_us")?,
                outcome: f.str("outcome")?,
            },
            names::EV_REJECT => EventKind::Reject {
                id: f.str("id")?,
                reason: f.str("reason")?,
                retry_after_ms: f.u64("retry_after_ms")?,
            },
            names::EV_WORKER_RESTART => EventKind::WorkerRestart {
                worker: f.u64("worker")?,
                restarts: f.u64("restarts")?,
                backoff_ms: f.u64("backoff_ms")?,
                reason: f.str("reason")?,
            },
            names::EV_DRAIN => EventKind::Drain {
                completed: f.u64("completed")?,
                rejected: f.u64("rejected")?,
                failed: f.u64("failed")?,
                restarts: f.u64("restarts")?,
            },
            other => return Err(format!("unknown event type '{other}'")),
        };
        Ok(Event {
            seq: f.u64("seq")?,
            seed: f.u64("seed")?,
            t_us: f.u64("t_us")?,
            span: f.opt_u64("span")?,
            kind,
        })
    }

    /// A one-line human rendering for the stderr sink.
    pub fn render_human(&self) -> String {
        let prefix = format!(
            "[{:>5} {:>9.3}s]",
            self.kind.level(),
            self.t_us as f64 / 1e6
        );
        let body = match &self.kind {
            EventKind::SpanOpen {
                id,
                parent,
                name,
                detail,
            } => {
                let detail = detail
                    .as_deref()
                    .map(|d| format!(" ({d})"))
                    .unwrap_or_default();
                match parent {
                    Some(p) => format!("span {name}#{id} open{detail} (parent #{p})"),
                    None => format!("span {name}#{id} open{detail}"),
                }
            }
            EventKind::SpanClose {
                id,
                name,
                wall_us,
                heap_delta,
                ..
            } => format!(
                "span {name}#{id} close: {:.1}ms, heap {:+}B",
                *wall_us as f64 / 1e3,
                heap_delta
            ),
            EventKind::EpochSummary {
                epoch,
                train_loss,
                valid_f1,
                threshold,
                examples,
                batches,
                wall_us,
            } => {
                let mut s = format!("epoch {epoch}: loss {train_loss:.4}");
                if let Some(f1) = valid_f1 {
                    let _ = write!(s, ", valid F1 {f1:.1}");
                }
                if let Some(t) = threshold {
                    let _ = write!(s, ", threshold {t:.3}");
                }
                let _ = write!(
                    s,
                    " ({examples} ex / {batches} steps, {:.1}ms)",
                    *wall_us as f64 / 1e3
                );
                s
            }
            EventKind::PseudoSelect { count, tpr, tnr } => match (tpr, tnr) {
                (Some(tpr), Some(tnr)) => {
                    format!("pseudo-select: {count} labels (TPR {tpr:.2}, TNR {tnr:.2})")
                }
                _ => format!("pseudo-select: {count} labels"),
            },
            EventKind::Prune { dropped, passes } => {
                format!("prune: dropped {dropped} examples ({passes} MC passes)")
            }
            EventKind::PretrainStep { step, mlm_loss } => {
                format!("pretrain step {step}: mlm loss {mlm_loss:.4}")
            }
            EventKind::Block { candidates } => format!("blocking: {candidates} candidate pairs"),
            EventKind::NonFinite {
                op,
                node,
                stage,
                bad,
                total,
            } => format!("sanitizer: {bad}/{total} non-finite {stage} elements in {op}#{node}"),
            EventKind::Audit {
                nodes,
                dead,
                detached,
                unused,
            } => format!(
                "graph audit: {nodes} nodes, {dead} dead, {detached} detached params, {unused} unused params"
            ),
            EventKind::Message { text, .. } => text.clone(),
            EventKind::UncHist {
                source,
                lo,
                hi,
                mean,
                counts,
            } => {
                let n: u64 = counts.iter().sum();
                format!("uncertainty[{source}]: {n} scores in [{lo:.4}, {hi:.4}], mean {mean:.4}")
            }
            EventKind::Metric {
                name,
                kind,
                value,
                count,
                p50,
                p95,
                p99,
            } => {
                let mut s = format!("metric {name} ({kind}) = {value}");
                if let Some(n) = count {
                    let _ = write!(s, ", count {n}");
                }
                if let (Some(p50), Some(p95), Some(p99)) = (p50, p95, p99) {
                    let _ = write!(s, ", p50 {p50:.6} p95 {p95:.6} p99 {p99:.6}");
                }
                s
            }
            EventKind::CkptSave { step, bytes, kept } => {
                format!("checkpoint saved at step {step} ({bytes} bytes, {kept} kept)")
            }
            EventKind::CkptRestore {
                step,
                pretrain_steps,
                epochs,
                batches,
            } => format!(
                "resumed from checkpoint {step} (skipping {pretrain_steps} pretrain steps, {epochs} epochs / {batches} batches)"
            ),
            EventKind::RecoveredBatch {
                phase,
                step,
                consecutive,
            } => format!(
                "recovered batch: non-finite loss in {phase} at step {step} ({consecutive} consecutive), batch skipped"
            ),
            EventKind::IoRetry {
                op,
                attempt,
                delay_ms,
                gave_up,
            } => {
                if *gave_up {
                    format!("I/O retry: {op} gave up after {attempt} bounded attempts")
                } else {
                    format!("I/O retry: {op} attempt {attempt} failed, backing off {delay_ms}ms")
                }
            }
            EventKind::OpStats {
                op,
                fwd_calls,
                fwd_us,
                bwd_calls,
                bwd_us,
                elems,
                bytes,
            } => format!(
                "op {op}: fwd {fwd_calls}x {:.1}ms, bwd {bwd_calls}x {:.1}ms, {elems} elems, {bytes}B",
                *fwd_us as f64 / 1e3,
                *bwd_us as f64 / 1e3
            ),
            EventKind::Progress {
                phase,
                done,
                total,
                ex_per_sec,
                loss,
                eta_us,
                ..
            } => {
                let mut s = match total {
                    0 => format!("progress {phase}: {done} done"),
                    t => format!("progress {phase}: {done}/{t}"),
                };
                let _ = write!(s, ", {ex_per_sec:.0} ex/s");
                if let Some(l) = loss {
                    let _ = write!(s, ", loss {l:.4}");
                }
                if let Some(eta) = eta_us {
                    let _ = write!(s, ", eta {:.1}s", *eta as f64 / 1e6);
                }
                s
            }
            EventKind::RunMeta {
                seed,
                config,
                git_sha,
                build,
                ..
            } => format!(
                "run: seed {seed}, config {config}, git {}, {build} build",
                git_sha.as_deref().unwrap_or("unknown")
            ),
            EventKind::Request {
                id,
                pairs,
                wall_us,
                outcome,
                ..
            } => format!(
                "request {id}: {pairs} pairs, {outcome} in {:.1}ms",
                *wall_us as f64 / 1e3
            ),
            EventKind::Reject {
                id,
                reason,
                retry_after_ms,
            } => format!("shed request {id}: {reason}, retry after {retry_after_ms}ms"),
            EventKind::WorkerRestart {
                worker,
                restarts,
                backoff_ms,
                reason,
            } => format!(
                "worker {worker} restarted ({reason}, restart {restarts}, backoff {backoff_ms}ms)"
            ),
            EventKind::Drain {
                completed,
                rejected,
                failed,
                restarts,
            } => format!(
                "drained: {completed} completed, {rejected} rejected, {failed} failed, {restarts} worker restarts"
            ),
        };
        format!("{prefix} {body}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `line` is the encoding pinned byte for byte: a writer change that
    /// moves one byte of a trace fails here.
    fn round_trip(kind: EventKind, line: &str) {
        let e = Event {
            seq: 17,
            seed: 42,
            t_us: 123_456,
            span: Some(3),
            kind,
        };
        assert_eq!(e.to_json(), line);
        let parsed = Event::parse(line).unwrap_or_else(|err| panic!("{err}\nline: {line}"));
        assert_eq!(parsed, e, "round trip changed the event; line: {line}");
    }

    #[test]
    fn every_kind_round_trips() {
        round_trip(
            EventKind::SpanOpen {
                id: 9,
                parent: Some(2),
                name: "teacher".into(),
                detail: Some("PromptEM/REL-HETER \"quoted\"\n".into()),
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"span_open","id":9,"parent":2,"name":"teacher","detail":"PromptEM/REL-HETER \"quoted\"\n"}"#,
        );
        round_trip(
            EventKind::SpanOpen {
                id: 1,
                parent: None,
                name: "pretrain".into(),
                detail: None,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"span_open","id":1,"parent":null,"name":"pretrain","detail":null}"#,
        );
        round_trip(
            EventKind::SpanClose {
                id: 9,
                name: "teacher".into(),
                wall_us: 88_123,
                heap_delta: -4096,
                heap_peak: 1 << 30,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"span_close","id":9,"name":"teacher","wall_us":88123,"heap_delta":-4096,"heap_peak":1073741824}"#,
        );
        round_trip(
            EventKind::EpochSummary {
                epoch: 7,
                train_loss: 0.6931471824645996,
                valid_f1: Some(81.25),
                threshold: Some(0.4375),
                examples: 128,
                batches: 8,
                wall_us: 2_500_000,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"epoch_summary","epoch":7,"train_loss":0.6931471824645996,"valid_f1":81.25,"threshold":0.4375,"examples":128,"batches":8,"wall_us":2500000}"#,
        );
        round_trip(
            EventKind::EpochSummary {
                epoch: 0,
                train_loss: 1.5,
                valid_f1: None,
                threshold: None,
                examples: 0,
                batches: 0,
                wall_us: 0,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"epoch_summary","epoch":0,"train_loss":1.5,"valid_f1":null,"threshold":null,"examples":0,"batches":0,"wall_us":0}"#,
        );
        round_trip(
            EventKind::PseudoSelect {
                count: 6,
                tpr: Some(1.0),
                tnr: Some(0.875),
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"pseudo_select","count":6,"tpr":1,"tnr":0.875}"#,
        );
        round_trip(
            EventKind::PseudoSelect {
                count: 0,
                tpr: None,
                tnr: None,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"pseudo_select","count":0,"tpr":null,"tnr":null}"#,
        );
        round_trip(
            EventKind::Prune {
                dropped: 12,
                passes: 10,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"prune","dropped":12,"passes":10}"#,
        );
        round_trip(
            EventKind::PretrainStep {
                step: 4999,
                mlm_loss: 2.25,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"pretrain_step","step":4999,"mlm_loss":2.25}"#,
        );
        round_trip(
            EventKind::Block { candidates: 480 },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"block","candidates":480}"#,
        );
        round_trip(
            EventKind::NonFinite {
                op: "layer_norm".into(),
                node: 37,
                stage: "grad".into(),
                bad: 3,
                total: 96,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"non_finite","op":"layer_norm","node":37,"stage":"grad","bad":3,"total":96}"#,
        );
        round_trip(
            EventKind::Audit {
                nodes: 512,
                dead: 2,
                detached: 1,
                unused: 0,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"audit","nodes":512,"dead":2,"detached":1,"unused":0}"#,
        );
        round_trip(
            EventKind::Message {
                level: Level::Warn,
                text: "tab\there \\ \"q\"".into(),
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"message","level":"warn","text":"tab\there \\ \"q\""}"#,
        );
        round_trip(
            EventKind::UncHist {
                source: "pseudo_uncertainty".into(),
                lo: 0.0,
                hi: 0.25,
                mean: 0.0625,
                counts: vec![4, 0, 9, 1],
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"unc_hist","source":"pseudo_uncertainty","lo":0,"hi":0.25,"mean":0.0625,"counts":[4,0,9,1]}"#,
        );
        round_trip(
            EventKind::UncHist {
                source: "mc_el2n".into(),
                lo: 0.0,
                hi: 0.0,
                mean: 0.0,
                counts: vec![],
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"unc_hist","source":"mc_el2n","lo":0,"hi":0,"mean":0,"counts":[]}"#,
        );
        round_trip(
            EventKind::Metric {
                name: "nn_optimizer_steps{opt=\"adamw\"}".into(),
                kind: "counter".into(),
                value: 412.0,
                count: None,
                p50: None,
                p95: None,
                p99: None,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"metric","name":"nn_optimizer_steps{opt=\"adamw\"}","kind":"counter","value":412,"count":null,"p50":null,"p95":null,"p99":null}"#,
        );
        round_trip(
            EventKind::Metric {
                name: "nn_tape_backward_secs".into(),
                kind: "histogram".into(),
                value: 0.125,
                count: Some(37),
                p50: Some(0.09375),
                p95: Some(0.375),
                p99: Some(0.75),
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"metric","name":"nn_tape_backward_secs","kind":"histogram","value":0.125,"count":37,"p50":0.09375,"p95":0.375,"p99":0.75}"#,
        );
        round_trip(
            EventKind::CkptSave {
                step: 250,
                bytes: 1_048_576,
                kept: 3,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"ckpt_save","step":250,"bytes":1048576,"kept":3}"#,
        );
        round_trip(
            EventKind::CkptRestore {
                step: 250,
                pretrain_steps: 250,
                epochs: 12,
                batches: 96,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"ckpt_restore","step":250,"pretrain_steps":250,"epochs":12,"batches":96}"#,
        );
        round_trip(
            EventKind::RecoveredBatch {
                phase: "pretrain".into(),
                step: 117,
                consecutive: 2,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"recovered_batch","phase":"pretrain","step":117,"consecutive":2}"#,
        );
        round_trip(
            EventKind::IoRetry {
                op: "ckpt_write".into(),
                attempt: 1,
                delay_ms: 25,
                gave_up: false,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"io_retry","op":"ckpt_write","attempt":1,"delay_ms":25,"gave_up":false}"#,
        );
        round_trip(
            EventKind::IoRetry {
                op: "ckpt_write".into(),
                attempt: 3,
                delay_ms: 0,
                gave_up: true,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"io_retry","op":"ckpt_write","attempt":3,"delay_ms":0,"gave_up":true}"#,
        );
        round_trip(
            EventKind::OpStats {
                op: "matmul".into(),
                fwd_calls: 1200,
                fwd_us: 845_000,
                bwd_calls: 600,
                bwd_us: 512_000,
                elems: 9_830_400,
                bytes: 39_321_600,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"op_stats","op":"matmul","fwd_calls":1200,"fwd_us":845000,"bwd_calls":600,"bwd_us":512000,"elems":9830400,"bytes":39321600}"#,
        );
        round_trip(
            EventKind::Progress {
                phase: "pretrain".into(),
                done: 35,
                total: 40,
                examples: 560,
                ex_per_sec: 212.5,
                loss: Some(2.0625),
                eta_us: Some(420_000),
                tape_nodes: 91_000,
                heap_peak: 30_000_000,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"progress","phase":"pretrain","done":35,"total":40,"examples":560,"ex_per_sec":212.5,"loss":2.0625,"eta_us":420000,"tape_nodes":91000,"heap_peak":30000000}"#,
        );
        round_trip(
            EventKind::Progress {
                phase: "mc_dropout".into(),
                done: 3,
                total: 0,
                examples: 0,
                ex_per_sec: 0.0,
                loss: None,
                eta_us: None,
                tape_nodes: 0,
                heap_peak: 0,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"progress","phase":"mc_dropout","done":3,"total":0,"examples":0,"ex_per_sec":0,"loss":null,"eta_us":null,"tape_nodes":0,"heap_peak":0}"#,
        );
        round_trip(
            EventKind::RunMeta {
                seed: 7,
                config: "9e1c7a5d00bf3321".into(),
                git_sha: Some("272a3fc0".into()),
                build: "release".into(),
                schema: 1,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"run_meta","run_seed":7,"config":"9e1c7a5d00bf3321","git_sha":"272a3fc0","build":"release","schema":1}"#,
        );
        round_trip(
            EventKind::RunMeta {
                seed: 0,
                config: "0".into(),
                git_sha: None,
                build: "debug".into(),
                schema: 1,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"run_meta","run_seed":0,"config":"0","git_sha":null,"build":"debug","schema":1}"#,
        );
        round_trip(
            EventKind::Request {
                id: "conn3-17".into(),
                pairs: 8,
                queue: 2,
                wall_us: 4_250,
                outcome: "ok".into(),
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"request","id":"conn3-17","pairs":8,"queue":2,"wall_us":4250,"outcome":"ok"}"#,
        );
        round_trip(
            EventKind::Reject {
                id: "conn1-4".into(),
                reason: "queue_full".into(),
                retry_after_ms: 25,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"reject","id":"conn1-4","reason":"queue_full","retry_after_ms":25}"#,
        );
        round_trip(
            EventKind::WorkerRestart {
                worker: 0,
                restarts: 2,
                backoff_ms: 10,
                reason: "panic".into(),
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"worker_restart","worker":0,"restarts":2,"backoff_ms":10,"reason":"panic"}"#,
        );
        round_trip(
            EventKind::Drain {
                completed: 96,
                rejected: 7,
                failed: 1,
                restarts: 2,
            },
            r#"{"seq":17,"seed":42,"t_us":123456,"span":3,"type":"drain","completed":96,"rejected":7,"failed":1,"restarts":2}"#,
        );
    }

    #[test]
    fn no_span_encodes_as_null() {
        let e = Event {
            seq: 1,
            seed: 0,
            t_us: 0,
            span: None,
            kind: EventKind::Block { candidates: 3 },
        };
        let line = e.to_json();
        assert!(line.contains("\"span\":null"), "{line}");
        assert_eq!(Event::parse(&line).unwrap(), e);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::parse("not json").is_err());
        assert!(Event::parse("{\"seq\":1}").is_err());
        assert!(
            Event::parse("{\"seq\":1,\"seed\":0,\"t_us\":0,\"span\":null,\"type\":\"nope\"}")
                .is_err()
        );
    }

    #[test]
    fn integer_fields_reject_negative_fractional_and_huge_numbers() {
        let block = |c: &str| {
            format!(r#"{{"seq":1,"seed":0,"t_us":0,"span":null,"type":"block","candidates":{c}}}"#)
        };
        for bad in ["-3", "3.7", "1e300"] {
            let err = Event::parse(&block(bad)).expect_err(bad);
            assert!(err.contains("'candidates'"), "{bad}: {err}");
        }
        let close = r#"{"seq":1,"seed":0,"t_us":0,"span":null,"type":"span_close","id":9,"name":"t","wall_us":1,"heap_delta":-7.9,"heap_peak":1}"#;
        let err = Event::parse(close).expect_err("fractional heap_delta");
        assert!(err.contains("'heap_delta'"), "{err}");
        let hist = r#"{"seq":1,"seed":0,"t_us":0,"span":null,"type":"unc_hist","source":"s","lo":0,"hi":1,"mean":0.5,"counts":[1,-2]}"#;
        let err = Event::parse(hist).expect_err("negative bucket count");
        assert!(err.contains("'counts'"), "{err}");
    }

    #[test]
    fn integer_extremes_read_back_as_themselves() {
        // An `f64` rounds these to 2⁶⁴, 2⁶⁴ and 2⁵³.
        let extremes = [u64::MAX, u64::MAX - 1, (1 << 53) + 1];
        let kinds = [
            EventKind::Block {
                candidates: u64::MAX,
            },
            EventKind::SpanClose {
                id: u64::MAX,
                name: "t".into(),
                wall_us: 0,
                heap_delta: i64::MIN,
                heap_peak: u64::MAX,
            },
            EventKind::SpanClose {
                id: 0,
                name: "t".into(),
                wall_us: u64::MAX,
                heap_delta: i64::MAX,
                heap_peak: 0,
            },
            EventKind::UncHist {
                source: "s".into(),
                lo: 0.0,
                hi: 1.0,
                mean: 0.5,
                counts: extremes.to_vec(),
            },
        ];
        for n in extremes {
            for kind in kinds.clone() {
                let e = Event {
                    seq: n,
                    seed: n,
                    t_us: 0,
                    span: Some(n),
                    kind,
                };
                let line = e.to_json();
                assert_eq!(Event::parse(&line).as_ref(), Ok(&e), "{line}");
            }
        }
    }

    #[test]
    fn float_precision_survives() {
        let e = Event {
            seq: 1,
            seed: 2,
            t_us: 3,
            span: None,
            kind: EventKind::PretrainStep {
                step: 0,
                mlm_loss: 0.1 + 0.2,
            },
        };
        match Event::parse(&e.to_json()).unwrap().kind {
            EventKind::PretrainStep { mlm_loss, .. } => {
                assert_eq!(mlm_loss.to_bits(), (0.1f64 + 0.2).to_bits());
            }
            other => panic!("wrong kind {other:?}"),
        }
    }
}
