//! The cross-run bench ledger: `BENCH_history.jsonl`.
//!
//! Where `BENCH_report.json` is a single point and `--diff` compares two
//! chosen traces, the history file is a trajectory: one flat JSON line
//! per run, distilled from its [`RunManifest`] and keyed by the
//! `run_meta` identity (seed, config fingerprint, git SHA, build
//! profile). `promptem history --gate` compares the newest entry against
//! a rolling baseline — the median of the previous `window` entries —
//! under the same [`Thresholds`] the pairwise diff uses, so a slow drift
//! that each individual PR slips under still trips the gate once the
//! trend crosses the slack.
//!
//! Only wall, heap, and the two F1 figures gate. Optimizer steps are
//! *recorded* but deliberately not gated across runs: the ledger spans
//! commits that legitimately change step counts, unlike a same-commit
//! base/new diff where zero step drift is the right default.

use crate::diff::{self, DiffReport, Thresholds};
use crate::manifest::RunManifest;
use em_obs::json::{FlatObject, ObjectWriter};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// The `schema` field value of every history line.
pub const HISTORY_SCHEMA: &str = "promptem-bench-history/v1";

/// One distilled run in the ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistoryEntry {
    /// The run seed.
    pub seed: u64,
    /// Config fingerprint from `run_meta` (empty when the trace predates
    /// the event).
    pub config: String,
    /// Git SHA from `run_meta`, when the traced binary ran in a checkout.
    pub git_sha: Option<String>,
    /// Build profile from `run_meta` (`"debug"`/`"release"`/`"unknown"`).
    pub build: String,
    /// Events in the source trace.
    pub events: u64,
    /// Trace wall coverage, µs.
    pub total_wall_us: u64,
    /// Peak heap, bytes (0 without the counting allocator).
    pub peak_heap: u64,
    /// Total optimizer steps (recorded, not gated).
    pub optimizer_steps: u64,
    /// Finished epochs.
    pub epochs: u64,
    /// Best validation F1 (percent).
    pub best_valid_f1: Option<f64>,
    /// Test F1 (percent).
    pub test_f1: Option<f64>,
    /// Pseudo-labels selected.
    pub pseudo_selected: u64,
    /// Sanitizer findings (health flag).
    pub non_finite_events: u64,
    /// Unclosed spans in the source trace (health flag).
    pub unclosed_spans: u64,
    /// Orphaned spans in the source trace (health flag).
    pub orphan_spans: u64,
}

/// Distill a manifest (and its `run_meta`, if the trace carried one)
/// into a ledger entry.
pub fn distill(m: &RunManifest) -> HistoryEntry {
    let (config, git_sha, build) = match &m.meta {
        Some(meta) => (
            meta.config.clone(),
            meta.git_sha.clone(),
            meta.build.clone(),
        ),
        None => (String::new(), None, "unknown".to_string()),
    };
    HistoryEntry {
        seed: m.seed,
        config,
        git_sha,
        build,
        events: m.events,
        total_wall_us: m.total_wall_us,
        peak_heap: m.peak_heap,
        optimizer_steps: m.optimizer_steps,
        epochs: m.epochs,
        best_valid_f1: m.best_valid_f1,
        test_f1: m.test_f1,
        pseudo_selected: m.pseudo_selected,
        non_finite_events: m.non_finite_events,
        unclosed_spans: m.unclosed_spans,
        orphan_spans: m.orphan_spans,
    }
}

impl HistoryEntry {
    /// Encode as one flat JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new(false);
        w.field("schema", HISTORY_SCHEMA)
            .field("seed", &self.seed)
            .field("config", &self.config)
            .field("git_sha", &self.git_sha)
            .field("build", &self.build)
            .field("events", &self.events)
            .field("total_wall_us", &self.total_wall_us)
            .field("peak_heap", &self.peak_heap)
            .field("optimizer_steps", &self.optimizer_steps)
            .field("epochs", &self.epochs)
            .field("best_valid_f1", &self.best_valid_f1)
            .field("test_f1", &self.test_f1)
            .field("pseudo_selected", &self.pseudo_selected)
            .field("non_finite_events", &self.non_finite_events)
            .field("unclosed_spans", &self.unclosed_spans)
            .field("orphan_spans", &self.orphan_spans);
        w.finish()
    }

    /// Parse one ledger line.
    pub fn parse(line: &str) -> Result<HistoryEntry, String> {
        let f = FlatObject::parse(line)?;
        let schema = f.str("schema")?;
        if schema != HISTORY_SCHEMA {
            return Err(format!(
                "unsupported history schema '{schema}' (want {HISTORY_SCHEMA})"
            ));
        }
        Ok(HistoryEntry {
            seed: f.u64("seed")?,
            config: f.str("config")?,
            git_sha: f.opt_str("git_sha")?,
            build: f.str("build")?,
            events: f.u64("events")?,
            total_wall_us: f.u64("total_wall_us")?,
            peak_heap: f.u64("peak_heap")?,
            optimizer_steps: f.u64("optimizer_steps")?,
            epochs: f.u64("epochs")?,
            best_valid_f1: f.opt_num("best_valid_f1")?,
            test_f1: f.opt_num("test_f1")?,
            pseudo_selected: f.u64("pseudo_selected")?,
            non_finite_events: f.u64("non_finite_events")?,
            unclosed_spans: f.u64("unclosed_spans")?,
            orphan_spans: f.u64("orphan_spans")?,
        })
    }
}

/// Load a ledger file, oldest entry first. A missing file is an empty
/// ledger, not an error (the first append creates it).
pub fn load(path: &Path) -> Result<Vec<HistoryEntry>, String> {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut out = Vec::new();
    for (idx, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let entry = HistoryEntry::parse(line)
            .map_err(|e| format!("{} line {}: {e}", path.display(), idx + 1))?;
        out.push(entry);
    }
    Ok(out)
}

/// Append one entry to the ledger (creating the file on first use). The
/// ledger is an append-only stream like the trace itself, so a plain
/// append is the right durability model — each line is whole or absent.
pub fn append(path: &Path, entry: &HistoryEntry) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{}", entry.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}

fn median_u64(mut vs: Vec<u64>) -> u64 {
    vs.sort_unstable();
    let n = vs.len();
    if n == 0 {
        return 0;
    }
    if n % 2 == 1 {
        vs[n / 2]
    } else {
        (vs[n / 2 - 1] + vs[n / 2]) / 2
    }
}

fn median_f64(mut vs: Vec<f64>) -> Option<f64> {
    if vs.is_empty() {
        return None;
    }
    vs.sort_by(|a, b| a.total_cmp(b));
    let n = vs.len();
    Some(if n % 2 == 1 {
        vs[n / 2]
    } else {
        (vs[n / 2 - 1] + vs[n / 2]) / 2.0
    })
}

/// Gate the newest entry against the median of the up-to-`window`
/// entries preceding it. Needs at least two entries; wall and heap gate
/// on relative increase, the F1 figures on absolute point drops.
pub fn gate(entries: &[HistoryEntry], window: usize, t: &Thresholds) -> Result<DiffReport, String> {
    let (newest, prior) = match entries {
        [] => return Err("history is empty — append a run first".into()),
        [_] => {
            return Err("history has a single entry — nothing to gate against".into());
        }
        [prior @ .., newest] => (newest, prior),
    };
    let window = window.max(1);
    let base = &prior[prior.len().saturating_sub(window)..];
    let base_wall = median_u64(base.iter().map(|e| e.total_wall_us).collect());
    let base_heap = median_u64(base.iter().map(|e| e.peak_heap).collect());
    let base_valid = median_f64(base.iter().filter_map(|e| e.best_valid_f1).collect());
    let base_test = median_f64(base.iter().filter_map(|e| e.test_f1).collect());
    let rows = vec![
        diff::increase_row(
            format!("total_wall_us (median of {})", base.len()),
            base_wall,
            newest.total_wall_us,
            t.wall_frac,
        ),
        diff::increase_row(
            format!("peak_heap (median of {})", base.len()),
            base_heap,
            newest.peak_heap,
            t.heap_frac,
        ),
        diff::f1_row(
            "best_valid_f1",
            base_valid,
            newest.best_valid_f1,
            t.f1_points,
        ),
        diff::f1_row("test_f1", base_test, newest.test_f1, t.f1_points),
    ];
    let mut warnings = Vec::new();
    if newest.unclosed_spans > 0 || newest.orphan_spans > 0 {
        warnings.push(format!(
            "newest entry came from a partial trace ({} unclosed, {} orphaned span(s))",
            newest.unclosed_spans, newest.orphan_spans
        ));
    }
    if newest.non_finite_events > 0 {
        warnings.push(format!(
            "newest entry recorded {} non-finite sanitizer event(s)",
            newest.non_finite_events
        ));
    }
    Ok(DiffReport { rows, warnings })
}

/// Render the trajectory as an aligned table, oldest first.
pub fn render_trend(entries: &[HistoryEntry]) -> String {
    let fmt_f1 = |v: Option<f64>| match v {
        Some(v) => format!("{v:.2}"),
        None => "-".to_string(),
    };
    let mut lines = vec![vec![
        "#".to_string(),
        "git".to_string(),
        "build".to_string(),
        "seed".to_string(),
        "wall ms".to_string(),
        "peak heap".to_string(),
        "steps".to_string(),
        "test F1".to_string(),
        "valid F1".to_string(),
    ]];
    for (i, e) in entries.iter().enumerate() {
        let sha = e.git_sha.as_deref().unwrap_or("-");
        lines.push(vec![
            format!("{}", i + 1),
            sha.chars().take(9).collect(),
            e.build.clone(),
            format!("{}", e.seed),
            format!("{:.1}", e.total_wall_us as f64 / 1e3),
            em_obs::alloc::format_bytes(e.peak_heap as usize),
            format!("{}", e.optimizer_steps),
            fmt_f1(e.test_f1),
            fmt_f1(e.best_valid_f1),
        ]);
    }
    let cols = lines[0].len();
    let mut widths = vec![0usize; cols];
    for line in &lines {
        for (w, cell) in widths.iter_mut().zip(line) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for line in &lines {
        for (col, (cell, w)) in line.iter().zip(&widths).enumerate() {
            if col == 0 {
                let _ = write!(out, "{cell:>w$}");
            } else {
                let _ = write!(out, "  {cell:>w$}");
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(wall: u64, f1: f64) -> HistoryEntry {
        HistoryEntry {
            seed: 7,
            config: "abc123".into(),
            git_sha: Some("272a3fc".into()),
            build: "release".into(),
            events: 100,
            total_wall_us: wall,
            peak_heap: 1_000_000,
            optimizer_steps: 60,
            epochs: 5,
            best_valid_f1: Some(f1),
            test_f1: Some(f1),
            pseudo_selected: 6,
            non_finite_events: 0,
            unclosed_spans: 0,
            orphan_spans: 0,
        }
    }

    #[test]
    fn entries_round_trip() {
        let e = entry(1_000_000, 88.5);
        assert_eq!(HistoryEntry::parse(&e.to_json()).unwrap(), e);
        let mut bare = e.clone();
        bare.git_sha = None;
        bare.test_f1 = None;
        bare.config = String::new();
        assert_eq!(HistoryEntry::parse(&bare.to_json()).unwrap(), bare);
    }

    #[test]
    fn checked_in_ledger_re_encodes_to_its_own_bytes() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_history.jsonl");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.lines().count() >= 2, "{}", path.display());
        for line in body.lines() {
            assert_eq!(HistoryEntry::parse(line).unwrap().to_json(), line);
        }
    }

    #[test]
    fn parse_rejects_other_schemas() {
        let line = entry(1, 1.0).to_json().replace("/v1", "/v9");
        let err = HistoryEntry::parse(&line).unwrap_err();
        assert!(err.contains("unsupported history schema"), "{err}");
    }

    #[test]
    fn append_and_load_keep_order() {
        let dir = std::env::temp_dir().join(format!("em_prof_history_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        std::fs::remove_file(&path).ok();
        assert_eq!(load(&path).unwrap(), vec![], "missing file = empty ledger");
        append(&path, &entry(100, 80.0)).unwrap();
        append(&path, &entry(200, 81.0)).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].total_wall_us, 100);
        assert_eq!(loaded[1].total_wall_us, 200);
    }

    #[test]
    fn gate_needs_two_entries() {
        assert!(gate(&[], 5, &Thresholds::default()).is_err());
        assert!(gate(&[entry(1, 1.0)], 5, &Thresholds::default()).is_err());
    }

    #[test]
    fn self_append_passes_and_wall_blowup_fails() {
        let base: Vec<HistoryEntry> = (0..4).map(|_| entry(1_000_000, 85.0)).collect();
        let t = Thresholds::default();
        let clean = gate(&base, 8, &t).unwrap();
        assert_eq!(clean.regressions(), 0, "{}", clean.render());
        // +200% wall against a flat baseline: must trip the +75% gate.
        let mut with_spike = base.clone();
        with_spike.push(entry(3_000_000, 85.0));
        let tripped = gate(&with_spike, 8, &t).unwrap();
        assert_eq!(tripped.regressions(), 1, "{}", tripped.render());
        assert!(tripped.rows[0].regressed, "wall row must be the trip");
    }

    #[test]
    fn baseline_is_a_rolling_median_not_the_whole_file() {
        // Ancient slow entries fall outside the window; only the recent
        // fast ones anchor the gate.
        let mut entries: Vec<HistoryEntry> = (0..4).map(|_| entry(9_000_000, 85.0)).collect();
        entries.extend((0..3).map(|_| entry(1_000_000, 85.0)));
        entries.push(entry(2_500_000, 85.0)); // +150% vs recent median
        let t = Thresholds::default();
        assert_eq!(gate(&entries, 3, &t).unwrap().regressions(), 1);
        // With a window wide enough that the slow era dominates the
        // median, the same entry reads as an improvement and passes.
        assert_eq!(gate(&entries, 7, &t).unwrap().regressions(), 0);
    }

    #[test]
    fn f1_trend_drop_gates() {
        let mut entries: Vec<HistoryEntry> = (0..3).map(|_| entry(1_000_000, 85.0)).collect();
        entries.push(entry(1_000_000, 82.0)); // -3 pts > 1.0 allowed
        let report = gate(&entries, 8, &Thresholds::default()).unwrap();
        assert_eq!(report.regressions(), 2, "both F1 rows trip");
    }

    #[test]
    fn partial_trace_entries_warn_in_the_gate() {
        let mut e = entry(1_000_000, 85.0);
        e.unclosed_spans = 2;
        let entries = vec![entry(1_000_000, 85.0), e];
        let report = gate(&entries, 8, &Thresholds::default()).unwrap();
        assert_eq!(report.regressions(), 0);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
    }

    #[test]
    fn distill_prefers_run_meta_identity() {
        let mut m = RunManifest {
            seed: 7,
            total_wall_us: 5,
            ..RunManifest::default()
        };
        let bare = distill(&m);
        assert_eq!(bare.build, "unknown");
        assert_eq!(bare.config, "");
        m.meta = Some(crate::manifest::MetaInfo {
            config: "deadbeef".into(),
            git_sha: Some("272a3fc".into()),
            build: "release".into(),
            schema: 1,
        });
        let keyed = distill(&m);
        assert_eq!(keyed.config, "deadbeef");
        assert_eq!(keyed.git_sha.as_deref(), Some("272a3fc"));
        assert_eq!(keyed.build, "release");
    }

    #[test]
    fn trend_table_lists_every_entry() {
        let table = render_trend(&[entry(100_000, 80.0), entry(200_000, 81.0)]);
        assert!(table.contains("wall ms"), "{table}");
        assert!(table.contains("100.0"), "{table}");
        assert!(table.contains("200.0"), "{table}");
        assert!(table.contains("272a3fc"), "{table}");
    }
}
