//! Property tests: every `em-obs` event kind survives the writer → reader
//! round trip losslessly, and its canonical line zeroes exactly the
//! fields the canonical policy names. The writer is `Event::to_json`
//! (what the JSONL sink emits); the reader is `em_prof::parse_trace`
//! (what `promptem report` consumes). Any field a new event variant adds
//! must round-trip or this test catches it.

use em_obs::{Event, EventKind, Level};
use proptest::prelude::*;

/// Build one event kind from shared raw material. `idx` selects the
/// variant; `opt` bits toggle the optional fields so both the `null` and
/// the populated encodings get exercised.
#[allow(clippy::too_many_arguments)]
fn make_kind(
    idx: usize,
    a: u64,
    b: u64,
    x: f64,
    y: f64,
    text: String,
    counts: Vec<u64>,
    opt: u8,
) -> EventKind {
    let opt_f = |bit: u8, v: f64| (opt & bit != 0).then_some(v);
    let opt_u = |bit: u8, v: u64| (opt & bit != 0).then_some(v);
    match idx {
        0 => EventKind::SpanOpen {
            id: a,
            parent: opt_u(1, b),
            name: text.clone(),
            detail: (opt & 2 != 0).then_some(text),
        },
        1 => EventKind::SpanClose {
            id: a,
            name: text,
            wall_us: b,
            heap_delta: a as i64 - b as i64,
            heap_peak: a.wrapping_mul(3),
        },
        2 => EventKind::EpochSummary {
            epoch: a,
            train_loss: x,
            valid_f1: opt_f(1, y),
            threshold: opt_f(2, y / 2.0),
            examples: b,
            batches: a % 97,
            wall_us: b.wrapping_mul(7),
        },
        3 => EventKind::PseudoSelect {
            count: a,
            tpr: opt_f(1, y),
            tnr: opt_f(2, y / 3.0),
        },
        4 => EventKind::Prune {
            dropped: a,
            passes: b,
        },
        5 => EventKind::PretrainStep {
            step: a,
            mlm_loss: x,
        },
        6 => EventKind::Block { candidates: a },
        7 => EventKind::NonFinite {
            op: text,
            node: a,
            stage: if opt & 1 != 0 { "value" } else { "grad" }.into(),
            bad: a.min(b),
            total: a.max(b),
        },
        8 => EventKind::Audit {
            nodes: a,
            dead: b,
            detached: a % 13,
            unused: b % 17,
        },
        9 => EventKind::Message {
            level: [
                Level::Error,
                Level::Warn,
                Level::Info,
                Level::Debug,
                Level::Trace,
            ][(a % 5) as usize],
            text,
        },
        10 => EventKind::UncHist {
            source: text,
            lo: x.min(y),
            hi: x.max(y),
            mean: (x + y) / 2.0,
            counts,
        },
        11 => EventKind::RunMeta {
            seed: a,
            config: format!("{b:016x}"),
            git_sha: (opt & 1 != 0).then(|| format!("{a:07x}")),
            build: if opt & 2 != 0 { "release" } else { "debug" }.into(),
            schema: b % 5,
        },
        12 => EventKind::CkptSave {
            step: a,
            bytes: b,
            kept: a % 7,
        },
        13 => EventKind::CkptRestore {
            step: a,
            pretrain_steps: b,
            epochs: a % 11,
            batches: b % 19,
        },
        14 => EventKind::RecoveredBatch {
            phase: text,
            step: a,
            consecutive: b % 5,
        },
        15 => EventKind::IoRetry {
            op: text,
            attempt: a % 4,
            delay_ms: b % 1000,
            gave_up: opt & 1 != 0,
        },
        16 => EventKind::OpStats {
            op: text,
            fwd_calls: a,
            fwd_us: b,
            bwd_calls: a % 23,
            bwd_us: b % 29,
            elems: a.wrapping_mul(5),
            bytes: b.wrapping_mul(11),
        },
        17 => EventKind::Progress {
            phase: text,
            done: a,
            total: b,
            examples: a.wrapping_mul(16),
            ex_per_sec: x.abs(),
            loss: opt_f(1, y),
            eta_us: opt_u(2, b.wrapping_mul(3)),
            tape_nodes: a % 31,
            heap_peak: b % 37,
        },
        18 => EventKind::Metric {
            name: text,
            kind: ["counter", "gauge", "histogram"][(a % 3) as usize].into(),
            value: x,
            count: opt_u(1, b),
            p50: opt_f(2, y),
            p95: opt_f(4, y * 2.0),
            p99: opt_f(8, y * 3.0),
        },
        19 => EventKind::Request {
            id: text,
            pairs: a % 64,
            queue: b % 128,
            wall_us: a.wrapping_mul(13),
            outcome: if opt & 1 != 0 { "ok" } else { "deadline" }.into(),
        },
        20 => EventKind::Reject {
            id: text,
            reason: if opt & 1 != 0 {
                "queue_full"
            } else {
                "draining"
            }
            .into(),
            retry_after_ms: b % 1000,
        },
        21 => EventKind::WorkerRestart {
            worker: a % 8,
            restarts: b % 32,
            backoff_ms: a % 500,
            reason: if opt & 1 != 0 { "panic" } else { "wedged" }.into(),
        },
        _ => EventKind::Drain {
            completed: a,
            rejected: b % 100,
            failed: a % 9,
            restarts: b % 7,
        },
    }
}

/// Wrap a `make_kind` payload in an envelope; `opt` bit 8 sets `span`.
fn make_event(
    kind_idx: usize,
    ints: (u64, u64, u64, u8),
    floats: (f64, f64),
    text: String,
    counts: Vec<u64>,
) -> Event {
    let (a, b, t_us, opt) = ints;
    let (x, y) = floats;
    Event {
        seq: a + 1,
        seed: b,
        t_us,
        span: (opt & 8 != 0).then_some(a % 1000),
        kind: make_kind(kind_idx, a, b, x, y, text, counts, opt),
    }
}

/// The canonical policy written out field by field, independently of the
/// writer's `measured` marks: a copy of `e` with every time, size and
/// rate zeroed. `Event::to_canonical_json` must encode what this builds.
fn canonical_oracle(e: &Event) -> Event {
    let kind = match e.kind.clone() {
        EventKind::SpanClose { id, name, .. } => EventKind::SpanClose {
            id,
            name,
            wall_us: 0,
            heap_delta: 0,
            heap_peak: 0,
        },
        EventKind::EpochSummary {
            epoch,
            train_loss,
            valid_f1,
            threshold,
            examples,
            batches,
            ..
        } => EventKind::EpochSummary {
            epoch,
            train_loss,
            valid_f1,
            threshold,
            examples,
            batches,
            wall_us: 0,
        },
        EventKind::OpStats {
            op,
            fwd_calls,
            bwd_calls,
            elems,
            ..
        } => EventKind::OpStats {
            op,
            fwd_calls,
            fwd_us: 0,
            bwd_calls,
            bwd_us: 0,
            elems,
            bytes: 0,
        },
        EventKind::Progress {
            phase,
            done,
            total,
            examples,
            loss,
            tape_nodes,
            ..
        } => EventKind::Progress {
            phase,
            done,
            total,
            examples,
            ex_per_sec: 0.0,
            loss,
            eta_us: None,
            tape_nodes,
            heap_peak: 0,
        },
        EventKind::Metric {
            name, kind, value, ..
        } => EventKind::Metric {
            value: if kind == "histogram" { 0.0 } else { value },
            name,
            kind,
            count: None,
            p50: None,
            p95: None,
            p99: None,
        },
        EventKind::CkptSave { step, kept, .. } => EventKind::CkptSave {
            step,
            bytes: 0,
            kept,
        },
        other => other,
    };
    Event {
        t_us: 0,
        kind,
        ..e.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_event_kind_round_trips_through_the_reader(
        kind_idx in 0usize..23,
        ints in (0u64..1_000_000_000, 0u64..1_000_000, 0u64..1 << 40, 0u8..16),
        floats in (-1e9f64..1e9, 0.0f64..100.0),
        text in "[a-zA-Z0-9_ .\"\\\\/-]{0,16}",
        counts in proptest::collection::vec(0u64..100_000, 0..9),
    ) {
        let event = make_event(kind_idx, ints, floats, text, counts);
        let body = format!("{}\n", event.to_json());
        let parsed = em_prof::parse_trace(&body)
            .unwrap_or_else(|e| panic!("{e}\nbody: {body}"));
        prop_assert_eq!(&parsed, &vec![event.clone()]);
    }

    #[test]
    fn canonical_lines_zero_exactly_the_oracle_fields(
        kind_idx in 0usize..23,
        ints in (0u64..1_000_000_000, 0u64..1_000_000, 0u64..1 << 40, 0u8..16),
        floats in (-1e9f64..1e9, 0.0f64..100.0),
        text in "[a-zA-Z0-9_ .\"\\\\/-]{0,16}",
        counts in proptest::collection::vec(0u64..100_000, 0..9),
    ) {
        let event = make_event(kind_idx, ints, floats, text, counts);
        prop_assert_eq!(
            em_prof::canonical_lines(std::slice::from_ref(&event)),
            vec![canonical_oracle(&event).to_json()]
        );
    }

    #[test]
    fn multi_line_traces_preserve_order(
        steps in proptest::collection::vec((0u64..1000, -10.0f64..10.0), 1..20),
    ) {
        let events: Vec<Event> = steps
            .iter()
            .enumerate()
            .map(|(i, &(step, loss))| Event {
                seq: i as u64 + 1,
                seed: 7,
                t_us: i as u64,
                span: None,
                kind: EventKind::PretrainStep { step, mlm_loss: loss },
            })
            .collect();
        let body: String = events.iter().map(|e| e.to_json() + "\n").collect();
        let parsed = em_prof::parse_trace(&body).unwrap();
        prop_assert_eq!(parsed, events);
    }
}
