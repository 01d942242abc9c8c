//! Boil a whole trace down to one comparable record.
//!
//! The manifest is the unit the diff engine and `BENCH_report.json`
//! operate on: everything a perf/quality gate needs, nothing that varies
//! between identical runs except wall-clock and heap fields (which the
//! gate compares under explicit tolerances).

use crate::flame::{self, FlameRow};
use crate::ops::{self, OpRow};
use crate::tree::SpanTree;
use em_obs::names::{METRIC_SERVE_REQUEST_SECS, METRIC_TEST_F1};
use em_obs::{Event, EventKind};

/// The distilled record of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// The run seed (from the trace events; 0 when never set).
    pub seed: u64,
    /// Total events in the trace.
    pub events: u64,
    /// Wall time covered by the trace: last event minus first, µs.
    pub total_wall_us: u64,
    /// Largest process peak heap seen at any span close, bytes. Stays 0
    /// when the counting allocator was not installed in the traced binary.
    pub peak_heap: u64,
    /// MLM pretraining optimizer steps (`pretrain_step` events).
    pub pretrain_steps: u64,
    /// Fine-tuning optimizer steps (summed `batches` of epoch summaries).
    pub epoch_batches: u64,
    /// Total optimizer steps: pretraining plus fine-tuning.
    pub optimizer_steps: u64,
    /// Finished training epochs across all phases.
    pub epochs: u64,
    /// Best validation F1 (percent) any epoch reported.
    pub best_valid_f1: Option<f64>,
    /// Training loss of the last reported epoch.
    pub final_train_loss: Option<f64>,
    /// Test F1 (percent), from the `core_test_f1` gauge sampled into the
    /// trace at shutdown.
    pub test_f1: Option<f64>,
    /// Pseudo-labels selected across all LST iterations.
    pub pseudo_selected: u64,
    /// Pseudo-label true-positive rate (last audited selection).
    pub pseudo_tpr: Option<f64>,
    /// Pseudo-label true-negative rate (last audited selection).
    pub pseudo_tnr: Option<f64>,
    /// Training examples dropped by dynamic pruning.
    pub pruned: u64,
    /// NaN/Inf sanitizer findings (should be 0 on a healthy run).
    pub non_finite_events: u64,
    /// Checkpoints written during the run.
    pub ckpt_saves: u64,
    /// Checkpoint restores (0 on an uninterrupted run).
    pub ckpt_restores: u64,
    /// Batches skipped by the non-finite-loss guard.
    pub recovered_batches: u64,
    /// I/O retries taken by the atomic writer.
    pub io_retries: u64,
    /// Serve requests answered (any terminal outcome).
    pub serve_requests: u64,
    /// Serve requests answered with outcome `"ok"`.
    pub serve_ok: u64,
    /// Serve requests shed by admission control.
    pub serve_rejects: u64,
    /// Serve worker restarts performed by the supervisor.
    pub serve_restarts: u64,
    /// Graceful serve drains completed (0 for a non-serving run).
    pub serve_drains: u64,
    /// Serve request latency percentiles (p50, p95, p99) in seconds,
    /// from the `serve_request_secs` histogram snapshot the drain
    /// epilogue flushes into the trace.
    pub serve_latency: Option<(f64, f64, f64)>,
    /// Spans whose close event never arrived (0 on a complete trace).
    pub unclosed_spans: u64,
    /// Spans whose recorded parent the trace never opened.
    pub orphan_spans: u64,
    /// The run's identity card, when the trace carries a `run_meta` line.
    pub meta: Option<MetaInfo>,
    /// Per-span-name profile rows, sorted by total time descending.
    pub phases: Vec<FlameRow>,
    /// Per-(phase, op) tape profiler rows, sorted by total time
    /// descending. Empty unless the run was traced with `--op-profile`.
    pub ops: Vec<OpRow>,
}

/// The run identity distilled from a `run_meta` event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetaInfo {
    /// FNV-1a fingerprint of the resolved config, as hex.
    pub config: String,
    /// Git commit SHA of the traced checkout, when discoverable.
    pub git_sha: Option<String>,
    /// Build profile: `"debug"` or `"release"`.
    pub build: String,
    /// `run_meta` schema version.
    pub schema: u64,
}

/// Distill a trace into its manifest.
pub fn manifest(events: &[Event]) -> RunManifest {
    let tree = SpanTree::build(events);
    let mut m = RunManifest {
        events: events.len() as u64,
        unclosed_spans: tree.unclosed_count(),
        orphan_spans: tree.orphan_count(),
        phases: flame::aggregate(&tree),
        ops: ops::aggregate(events, &tree),
        ..RunManifest::default()
    };
    let mut t_range: Option<(u64, u64)> = None;
    for e in events {
        m.seed = m.seed.max(e.seed);
        t_range = Some(match t_range {
            None => (e.t_us, e.t_us),
            Some((lo, hi)) => (lo.min(e.t_us), hi.max(e.t_us)),
        });
        match &e.kind {
            EventKind::SpanClose { heap_peak, .. } => {
                m.peak_heap = m.peak_heap.max(*heap_peak);
            }
            EventKind::PretrainStep { .. } => m.pretrain_steps += 1,
            EventKind::EpochSummary {
                train_loss,
                valid_f1,
                batches,
                ..
            } => {
                m.epochs += 1;
                m.epoch_batches += batches;
                m.final_train_loss = Some(*train_loss);
                if let Some(f1) = valid_f1 {
                    m.best_valid_f1 = Some(m.best_valid_f1.map_or(*f1, |best: f64| best.max(*f1)));
                }
            }
            EventKind::PseudoSelect { count, tpr, tnr } => {
                m.pseudo_selected += count;
                if tpr.is_some() {
                    m.pseudo_tpr = *tpr;
                }
                if tnr.is_some() {
                    m.pseudo_tnr = *tnr;
                }
            }
            EventKind::Prune { dropped, .. } => m.pruned += dropped,
            EventKind::NonFinite { .. } => m.non_finite_events += 1,
            EventKind::CkptSave { .. } => m.ckpt_saves += 1,
            // A restore carries the work the interrupted run had already
            // banked: fold it back in so a resumed trace accounts for the
            // same optimizer steps as an uninterrupted one.
            EventKind::CkptRestore {
                pretrain_steps,
                epochs,
                batches,
                ..
            } => {
                m.ckpt_restores += 1;
                m.pretrain_steps += pretrain_steps;
                m.epochs += epochs;
                m.epoch_batches += batches;
            }
            EventKind::RecoveredBatch { .. } => m.recovered_batches += 1,
            EventKind::IoRetry { .. } => m.io_retries += 1,
            EventKind::Request { outcome, .. } => {
                m.serve_requests += 1;
                if outcome == "ok" {
                    m.serve_ok += 1;
                }
            }
            EventKind::Reject { .. } => m.serve_rejects += 1,
            EventKind::WorkerRestart { .. } => m.serve_restarts += 1,
            EventKind::Drain { .. } => m.serve_drains += 1,
            EventKind::RunMeta {
                config,
                git_sha,
                build,
                schema,
                ..
            } => {
                m.meta = Some(MetaInfo {
                    config: config.clone(),
                    git_sha: git_sha.clone(),
                    build: build.clone(),
                    schema: *schema,
                });
            }
            // Gauge names carry folded labels: `core_test_f1{dataset="x"}`.
            EventKind::Metric { name, value, .. }
                if name == METRIC_TEST_F1 || name.starts_with(&format!("{METRIC_TEST_F1}{{")) =>
            {
                m.test_f1 = Some(*value);
            }
            EventKind::Metric {
                name,
                p50,
                p95,
                p99,
                ..
            } if name == METRIC_SERVE_REQUEST_SECS
                || name.starts_with(&format!("{METRIC_SERVE_REQUEST_SECS}{{")) =>
            {
                if let (Some(a), Some(b), Some(c)) = (p50, p95, p99) {
                    m.serve_latency = Some((*a, *b, *c));
                }
            }
            _ => {}
        }
    }
    m.optimizer_steps = m.pretrain_steps + m.epoch_batches;
    if let Some((lo, hi)) = t_range {
        m.total_wall_us = hi - lo;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, t_us: u64, kind: EventKind) -> Event {
        Event {
            seq,
            seed: 13,
            t_us,
            span: None,
            kind,
        }
    }

    #[test]
    fn manifest_distills_the_training_story() {
        let events = vec![
            ev(
                0,
                100,
                EventKind::RunMeta {
                    seed: 13,
                    config: "abc123".into(),
                    git_sha: Some("272a3fc0".into()),
                    build: "release".into(),
                    schema: 1,
                },
            ),
            ev(
                1,
                100,
                EventKind::SpanOpen {
                    id: 1,
                    parent: None,
                    name: "tune".into(),
                    detail: None,
                },
            ),
            ev(
                2,
                150,
                EventKind::PretrainStep {
                    step: 0,
                    mlm_loss: 3.0,
                },
            ),
            ev(
                3,
                200,
                EventKind::EpochSummary {
                    epoch: 0,
                    train_loss: 0.9,
                    valid_f1: Some(70.0),
                    threshold: Some(0.5),
                    examples: 32,
                    batches: 4,
                    wall_us: 90,
                },
            ),
            ev(
                4,
                300,
                EventKind::EpochSummary {
                    epoch: 1,
                    train_loss: 0.4,
                    valid_f1: Some(85.0),
                    threshold: Some(0.45),
                    examples: 32,
                    batches: 4,
                    wall_us: 80,
                },
            ),
            ev(
                5,
                350,
                EventKind::PseudoSelect {
                    count: 6,
                    tpr: Some(1.0),
                    tnr: Some(0.9),
                },
            ),
            ev(
                6,
                380,
                EventKind::Prune {
                    dropped: 3,
                    passes: 2,
                },
            ),
            ev(
                7,
                400,
                EventKind::SpanClose {
                    id: 1,
                    name: "tune".into(),
                    wall_us: 300,
                    heap_delta: -10,
                    heap_peak: 5000,
                },
            ),
            ev(
                8,
                410,
                EventKind::CkptRestore {
                    step: 5,
                    pretrain_steps: 5,
                    epochs: 1,
                    batches: 4,
                },
            ),
            ev(
                9,
                420,
                EventKind::Metric {
                    name: "core_test_f1{dataset=\"rel-heter\"}".into(),
                    kind: "gauge".into(),
                    value: 88.5,
                    count: None,
                    p50: None,
                    p95: None,
                    p99: None,
                },
            ),
            // An op-profiler flush inside the tune span (span id 1).
            Event {
                seq: 10,
                seed: 13,
                t_us: 390,
                span: Some(1),
                kind: EventKind::OpStats {
                    op: "matmul".into(),
                    fwd_calls: 8,
                    fwd_us: 120,
                    bwd_calls: 4,
                    bwd_us: 60,
                    elems: 512,
                    bytes: 4096,
                },
            },
        ];
        let m = manifest(&events);
        assert_eq!(m.seed, 13);
        assert_eq!(m.events, 11);
        let meta = m.meta.as_ref().expect("run_meta distilled");
        assert_eq!(meta.config, "abc123");
        assert_eq!(meta.git_sha.as_deref(), Some("272a3fc0"));
        assert_eq!(meta.build, "release");
        assert_eq!((m.unclosed_spans, m.orphan_spans), (0, 0));
        assert_eq!(m.total_wall_us, 320, "420 - 100");
        assert_eq!(m.peak_heap, 5000);
        assert_eq!(m.pretrain_steps, 6, "1 live + 5 banked in the restore");
        assert_eq!(m.epoch_batches, 12, "8 live + 4 banked");
        assert_eq!(m.optimizer_steps, 18);
        assert_eq!(m.epochs, 3, "2 live + 1 banked");
        assert_eq!(m.ckpt_restores, 1);
        assert_eq!(m.best_valid_f1, Some(85.0));
        assert_eq!(m.final_train_loss, Some(0.4));
        assert_eq!(m.test_f1, Some(88.5));
        assert_eq!((m.pseudo_selected, m.pruned), (6, 3));
        assert_eq!((m.pseudo_tpr, m.pseudo_tnr), (Some(1.0), Some(0.9)));
        assert_eq!(m.non_finite_events, 0);
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].name, "tune");
        assert_eq!(m.ops.len(), 1);
        assert_eq!(m.ops[0].phase, "tune");
        assert_eq!(m.ops[0].op, "matmul");
        assert_eq!((m.ops[0].fwd_us, m.ops[0].bwd_us), (120, 60));
    }

    #[test]
    fn empty_trace_yields_a_zero_manifest() {
        let m = manifest(&[]);
        assert_eq!(m, RunManifest::default());
    }

    #[test]
    fn manifest_tallies_the_serving_story() {
        let events = vec![
            ev(
                0,
                100,
                EventKind::Request {
                    id: "r1".into(),
                    pairs: 4,
                    queue: 0,
                    wall_us: 800,
                    outcome: "ok".into(),
                },
            ),
            ev(
                1,
                200,
                EventKind::Request {
                    id: "r2".into(),
                    pairs: 1,
                    queue: 2,
                    wall_us: 90,
                    outcome: "deadline".into(),
                },
            ),
            ev(
                2,
                300,
                EventKind::Reject {
                    id: "r3".into(),
                    reason: "queue_full".into(),
                    retry_after_ms: 25,
                },
            ),
            ev(
                3,
                400,
                EventKind::WorkerRestart {
                    worker: 0,
                    restarts: 1,
                    backoff_ms: 10,
                    reason: "panic".into(),
                },
            ),
            // The drain epilogue flushes the latency histogram snapshot.
            ev(
                4,
                500,
                EventKind::Metric {
                    name: "serve_request_secs".into(),
                    kind: "histogram".into(),
                    value: 0.0009,
                    count: Some(2),
                    p50: Some(0.0008),
                    p95: Some(0.0009),
                    p99: Some(0.0009),
                },
            ),
            ev(
                5,
                600,
                EventKind::Drain {
                    completed: 2,
                    rejected: 1,
                    failed: 0,
                    restarts: 1,
                },
            ),
        ];
        let m = manifest(&events);
        assert_eq!((m.serve_requests, m.serve_ok), (2, 1));
        assert_eq!(m.serve_rejects, 1);
        assert_eq!(m.serve_restarts, 1);
        assert_eq!(m.serve_drains, 1);
        assert_eq!(m.serve_latency, Some((0.0008, 0.0009, 0.0009)));
    }
}
