//! End-to-end over checked-in traces: two same-seed `promptem match`
//! runs (seed 7, REL-HETER export, 40 pretrain steps, 2 epochs) captured
//! with `--metrics-out --op-profile`. They differ only in
//! wall-clock/heap noise, so the manifest must distill both to the same
//! training story and the diff gate must pass clean under default
//! thresholds — including the per-op wall/byte gates.

use std::path::Path;

fn fixture(name: &str) -> Vec<em_obs::Event> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    em_prof::load_trace(&path).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn every_complete_fixture_line_re_encodes_to_its_own_bytes() {
    // Real traces pin the writer byte for byte: each complete line parses
    // and `to_json` gives it back unchanged. live_partial's torn final
    // line has no newline and is not a line yet.
    for (name, complete) in [
        ("run_a.jsonl", 199),
        ("run_b.jsonl", 199),
        ("live_partial.jsonl", 133),
    ] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body
            .split_inclusive('\n')
            .filter_map(|l| l.strip_suffix('\n'))
            .collect();
        assert_eq!(lines.len(), complete, "{name}");
        for line in lines {
            let e = em_obs::Event::parse(line).unwrap_or_else(|err| panic!("{name}: {err}"));
            assert_eq!(e.to_json(), line, "{name}");
        }
    }
}

#[test]
fn fixture_manifest_tells_the_training_story() {
    let m = em_prof::manifest::manifest(&fixture("run_a.jsonl"));
    assert_eq!(m.seed, 7);
    assert!(
        m.events > 50,
        "suspiciously small trace: {} events",
        m.events
    );
    assert!(m.total_wall_us > 0);
    assert!(m.peak_heap > 0, "CLI installs the counting allocator");
    assert_eq!(m.pretrain_steps, 40);
    assert!(m.epoch_batches > 0);
    assert_eq!(m.optimizer_steps, m.pretrain_steps + m.epoch_batches);
    assert!(m.epochs >= 4, "pretrain + teacher + student epochs");
    assert!(m.best_valid_f1.is_some(), "teacher/student report valid F1");
    assert!(m.final_train_loss.is_some());
    assert!(
        m.test_f1.is_some(),
        "core_test_f1 gauge sampled at shutdown"
    );
    assert!(m.pseudo_selected > 0, "LST selected pseudo-labels");
    assert_eq!(m.non_finite_events, 0);

    let names: Vec<&str> = m.phases.iter().map(|p| p.name.as_str()).collect();
    for phase in ["match", "pretrain", "tune", "lst", "teacher", "student"] {
        assert!(names.contains(&phase), "phase {phase} missing: {names:?}");
    }
    // `match` wraps the whole pipeline, so it must top the table.
    assert_eq!(m.phases[0].name, "match");
    assert!(m.phases[0].self_us < m.phases[0].total_us);
}

#[test]
fn same_seed_fixtures_diff_clean() {
    let a = em_prof::manifest::manifest(&fixture("run_a.jsonl"));
    let b = em_prof::manifest::manifest(&fixture("run_b.jsonl"));
    // Everything deterministic matches exactly...
    assert_eq!(a.optimizer_steps, b.optimizer_steps);
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.pseudo_selected, b.pseudo_selected);
    assert_eq!(a.best_valid_f1, b.best_valid_f1);
    assert_eq!(a.test_f1, b.test_f1);
    // ...and the gate agrees, in both directions.
    let t = em_prof::Thresholds::default();
    let forward = em_prof::diff(&a, &b, &t);
    assert_eq!(forward.regressions(), 0, "{}", forward.render());
    let backward = em_prof::diff(&b, &a, &t);
    assert_eq!(backward.regressions(), 0, "{}", backward.render());
}

#[test]
fn fixture_ops_explain_the_pseudo_select_blob() {
    let m = em_prof::manifest::manifest(&fixture("run_a.jsonl"));
    assert!(!m.ops.is_empty(), "op-profiled run must carry op rows");
    for r in &m.ops {
        assert!(
            em_obs::names::ALL_OP_NAMES.contains(&r.op.as_str()),
            "op {} not in the registry",
            r.op
        );
        assert!(r.phase != "(unattributed)", "flush outside a span: {r:?}");
    }
    // The MC-Dropout scoring child span owns the bulk of pseudo_select,
    // and its named tape ops account for ≥90% of its wall time — the
    // blob is explained, not just renamed.
    let score = m
        .phases
        .iter()
        .find(|p| p.name == "pseudo_score")
        .expect("scoring child span present");
    let attributed: u64 = m
        .ops
        .iter()
        .filter(|r| r.phase == "pseudo_score")
        .map(|r| r.total_us())
        .sum();
    assert!(
        attributed * 10 >= score.total_us * 9,
        "ops explain {attributed}µs of the {}µs scoring phase (<90%)",
        score.total_us
    );
    // And pseudo_select itself is no longer a single self-time leaf.
    let select = m
        .phases
        .iter()
        .find(|p| p.name == "pseudo_select")
        .expect("pseudo_select span present");
    assert!(
        select.self_us * 10 <= select.total_us,
        "pseudo_select still holds {}µs of {}µs as self time",
        select.self_us,
        select.total_us
    );
}

#[test]
fn fixture_bench_report_is_populated() {
    let m = em_prof::manifest::manifest(&fixture("run_a.jsonl"));
    let json = em_prof::report::bench_report_json(&m);
    assert!(json.contains("\"schema\": \"promptem-bench-report/v2\""));
    assert!(json.contains("\"seed\": 7"));
    assert!(json.contains("\"name\": \"pretrain\""));
    assert!(!json.contains("\"total_wall_us\": 0,"), "{json}");
    assert!(!json.contains("\"peak_heap_bytes\": 0,"), "{json}");
    assert!(!json.contains("\"test_f1\": null"), "{json}");
}

#[test]
fn live_partial_fixture_renders_the_dashboard_mid_write() {
    // A real traced run cut off mid-write: 133 complete lines and a torn
    // final line (the writer was mid-flush when the reader polled). The
    // stream must surface every complete event and the dashboard must
    // render a coherent frame from them.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/live_partial.jsonl");
    let mut stream = em_prof::TraceStream::open(&path);
    let mut state = em_prof::LiveState::new();
    state.apply_all(stream.poll().unwrap_or_else(|e| panic!("{e}")));
    assert_eq!(state.events(), 133, "torn line must wait, not fail");
    assert_eq!(stream.poll().unwrap(), vec![], "no growth, no events");

    let frame = state.render(5);
    assert!(
        frame.contains("promptem top — seed 7 · 133 events"),
        "{frame}"
    );
    assert!(frame.contains("identity: config "), "{frame}");
    assert!(frame.contains("release build"), "{frame}");
    // The active stack at the cut: the student is training inside LST.
    assert!(
        frame.contains("live: match(cli) > tune(cli) > lst > lst_iter(iter 0) > student"),
        "{frame}"
    );
    // Heartbeat rows for every phase that beat before the cut, with the
    // finished pretrain pinned at its full tick count.
    for phase in ["pretrain", "mc_dropout", "tune"] {
        assert!(frame.contains(phase), "no {phase} row in: {frame}");
    }
    assert!(frame.contains("20/20"), "{frame}");
    // The flame table exists but flags the spans still in flight.
    assert!(frame.contains("span(s) still open"), "{frame}");
    // Op-profiled run: the op table has rows.
    assert!(frame.contains("matmul"), "{frame}");
    // The fold is pure: rendering is deterministic.
    assert_eq!(frame, state.render(5));
}
