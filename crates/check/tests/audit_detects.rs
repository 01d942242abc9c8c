//! The auditor must catch the bugs it exists for: dead subgraphs,
//! detached parameters, unrecorded trainable parameters — and the
//! sanitizer must pinpoint a planted NaN during backward.

use em_check::audit::{audit, audit_and_report, Diag};
use em_nn::tape::{sanitize_enabled, set_sanitize};
use em_nn::{Matrix, ParamStore, Tape, TapeExec};
use em_obs::EventKind;

#[test]
fn clean_graph_has_no_findings() {
    let mut store = ParamStore::new();
    let w = store.register("w", Matrix::full(3, 2, 0.1));
    let mut tape = Tape::new();
    let x = tape.constant(Matrix::full(2, 3, 1.0));
    let wv = tape.param(&store, w);
    let h = tape.matmul(x, wv);
    let loss = tape.mean_all(h);
    let report = audit(&tape, loss, &store);
    assert!(report.is_clean(), "unexpected findings: {:?}", report.diags);
    assert_eq!(report.nodes, report.live);
}

#[test]
fn detects_dead_node() {
    let store = ParamStore::new();
    let mut tape = Tape::new();
    let a = tape.constant(Matrix::full(2, 2, 1.0));
    let b = tape.constant(Matrix::full(2, 2, 2.0));
    let dead = tape.add(a, b); // computed, then never used
    let live = tape.tanh(a);
    let loss = tape.mean_all(live);
    let report = audit(&tape, loss, &store);
    assert_eq!(report.dead_nodes(), 1);
    assert!(report
        .diags
        .iter()
        .any(|d| matches!(d, Diag::DeadNode { var, op: "add", .. } if *var == dead.index())));
}

#[test]
fn detects_detached_parameter() {
    let mut store = ParamStore::new();
    let used = store.register("head.weight", Matrix::full(2, 2, 0.1));
    let detached = store.register("head.bias", Matrix::full(1, 2, 0.0));
    let mut tape = Tape::new();
    let x = tape.constant(Matrix::full(2, 2, 1.0));
    let wv = tape.param(&store, used);
    let _bv = tape.param(&store, detached); // on the tape, never wired in
    let h = tape.matmul(x, wv);
    let loss = tape.mean_all(h);
    let report = audit(&tape, loss, &store);
    assert_eq!(report.detached_params(), 1);
    assert!(report
        .diags
        .iter()
        .any(|d| matches!(d, Diag::DetachedParam { name, .. } if name == "head.bias")));
}

#[test]
fn detects_unused_trainable_parameter() {
    let mut store = ParamStore::new();
    let used = store.register("w", Matrix::full(2, 2, 0.1));
    let forgotten = store.register("classifier.weight", Matrix::full(2, 2, 0.1));
    let frozen = store.register("embeddings", Matrix::full(2, 2, 0.1));
    store.set_frozen(frozen, true);
    let mut tape = Tape::new();
    let x = tape.constant(Matrix::full(2, 2, 1.0));
    let wv = tape.param(&store, used);
    let h = tape.matmul(x, wv);
    let loss = tape.mean_all(h);
    let report = audit(&tape, loss, &store);
    assert_eq!(report.unused_params(), 1, "{:?}", report.diags);
    assert!(report
        .diags
        .iter()
        .any(|d| matches!(d, Diag::UnusedParam { name, .. } if name == "classifier.weight")));
    let _ = forgotten;
}

#[test]
fn audit_and_report_emits_summary_event() {
    let mut store = ParamStore::new();
    let w = store.register("w", Matrix::full(2, 2, 0.1));
    let (report, events) = em_obs::capture(|| {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(2, 2, 1.0));
        let wv = tape.param(&store, w);
        let a = tape.constant(Matrix::full(2, 2, 3.0));
        let _dead = tape.sigmoid(a);
        let h = tape.matmul(x, wv);
        let loss = tape.mean_all(h);
        audit_and_report(&tape, loss, &store)
    });
    assert_eq!(report.dead_nodes(), 1);
    let summary = events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::Audit {
                nodes,
                dead,
                detached,
                unused,
            } => Some((*nodes, *dead, *detached, *unused)),
            _ => None,
        })
        .expect("audit event must be emitted");
    assert_eq!(summary, (report.nodes as u64, 1, 0, 0));
    assert!(
        events.iter().any(
            |e| matches!(&e.kind, EventKind::Message { text, .. } if text.contains("dead node"))
        ),
        "per-finding warning expected"
    );
}

#[test]
fn sanitizer_pinpoints_planted_nan() {
    set_sanitize(true);
    assert!(sanitize_enabled());
    let ((), events) = em_obs::capture(|| {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::full(2, 2, 1.0));
        let poison = tape.constant(Matrix::from_vec(2, 2, vec![0.0, f32::NAN, 0.0, 0.0]));
        let h = tape.add(x, poison);
        let s = tape.tanh(h);
        let loss = tape.mean_all(s);
        tape.backward(loss);
    });
    set_sanitize(false);
    let hits: Vec<(String, String)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::NonFinite { op, stage, .. } => Some((op.clone(), stage.clone())),
            _ => None,
        })
        .collect();
    // The NaN propagates forward (add → tanh leaves tanh(NaN)=NaN) and
    // backward into gradients; at minimum the poisoned ops' values fire.
    assert!(
        hits.iter()
            .any(|(op, stage)| op == "add" && stage == "value"),
        "expected a value hit on `add`, got {hits:?}"
    );
    assert!(
        hits.iter().any(|(_, stage)| stage == "grad"),
        "expected at least one gradient hit, got {hits:?}"
    );
}

#[test]
fn sanitize_values_counts_poisoned_nodes() {
    let mut tape = Tape::new();
    let clean = tape.constant(Matrix::full(2, 2, 1.0));
    let poison = tape.constant(Matrix::from_vec(1, 2, vec![f32::INFINITY, 0.0]));
    let _ = tape.tanh(clean);
    let _ = poison;
    // Only the poisoned leaf is non-finite (tanh(1) is finite).
    assert_eq!(tape.sanitize_values(), 1);
}
