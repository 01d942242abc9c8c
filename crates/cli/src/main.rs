//! `promptem` — run low-resource generalized entity matching on your own
//! files.
//!
//! ```text
//! promptem stats --left left.csv --right right.jsonl
//! promptem match --left left.csv --right right.jsonl \
//!     --labels labels.csv [--output predictions.csv] [--seed 42] \
//!     [--template t1|t2] [--mode hard|continuous] [--no-lst]
//! ```
//!
//! `labels.csv` columns: `left,right,label` — 0-based row indices into the
//! two tables and a 0/1 label. A fraction of the labels is held out for
//! validation; the remaining candidate pairs of the blocker become the
//! unlabeled pool for self-training.

mod args;
mod serve_cmd;

#[cfg(test)]
mod cli_e2e;

use args::Args;
use em_data::blocking::{record_tokens, TokenIndex};
use em_data::ingest;
use em_data::pair::{three_way_split, GemDataset, LabeledPair, Pair};
use em_data::record::Table;
use em_lm::prompt::{PromptMode, TemplateId};
use promptem::pipeline::{run, PromptEmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// Track live/peak heap so span-close events and `promptem report` carry
/// real memory numbers instead of zeros.
#[global_allocator]
static ALLOC: em_obs::alloc::CountingAllocator = em_obs::alloc::CountingAllocator;

/// A CLI failure: the message, plus whether the usage blurb would help.
/// Flag mistakes want the usage text; a perf-regression verdict or a
/// trace parse error does not.
#[derive(Debug)]
pub(crate) struct Failure {
    message: String,
    usage: bool,
}

impl Failure {
    /// A failure where usage text is just noise.
    fn plain(message: impl Into<String>) -> Failure {
        Failure {
            message: message.into(),
            usage: false,
        }
    }

    /// Substring check mirroring `str::contains`, for test assertions.
    #[cfg(test)]
    pub(crate) fn contains(&self, needle: &str) -> bool {
        self.message.contains(needle)
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure {
            message,
            usage: true,
        }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(raw) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.usage {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  promptem stats --left <file> --right <file>
  promptem match --left <file> --right <file> --labels <csv>
                 [--output <csv>] [--seed <u64>] [--rate <0..1>]
                 [--template t1|t2] [--mode hard|continuous] [--no-lst]
                 [--pretrain-steps <n>] [--epochs <n>]
                 [--checkpoint-dir <dir>] [--checkpoint-every <n>] [--resume]
  promptem serve --left <file> --right <file> --labels <csv>
                 [--port <p>] [--port-file <path>] [--workers <n>]
                 [--batch-max <n>] [--queue-cap <n>] [--inflight-cap <n>]
                 [--deadline-ms <n>] [--wedge-ms <n>]
                 (plus every training flag `match` takes)
  promptem drive --pairs <csv> (--addr <host:port> | --port-file <path>)
                 [--connections <n>] [--out <csv>] [--shutdown]
  promptem ckpt inspect <checkpoint-or-dir>
  promptem export --benchmark <name> --dir <path> [--seed <u64>] [--full]
  promptem report <trace.jsonl> [--top <n>] [--bench-out <path.json>]
  promptem report --diff <base.jsonl> <new.jsonl>
                 [--max-wall-frac <f>] [--max-heap-frac <f>]
                 [--max-steps-frac <f>] [--max-f1-drop <points>]
                 [--max-op-wall-frac <f>] [--max-op-bytes-frac <f>]
                 [--canonical]   (byte-exact equivalence after stripping
                                  timing/heap fields, instead of thresholds)
  promptem top <trace.jsonl> [--interval-ms <n>] [--top <n>]
                 [--once] [--max-seconds <n>]
  promptem history <ledger.jsonl> [--append <trace.jsonl>] [--gate]
                 [--window <k>] [--max-wall-frac <f>] [--max-heap-frac <f>]
                 [--max-f1-drop <points>]

global flags:
  --trace <off|error|warn|info|debug|trace>   stderr verbosity (default info;
                                              PROMPTEM_LOG overrides default)
  --metrics-out <path.jsonl>                  write a structured JSONL trace
  --sanitize                                  audit the autograd graph and check
                                              every value/gradient for NaN/Inf
                                              each step (PROMPTEM_SANITIZE=1)
  --op-profile                                accumulate per-op tape counters and
                                              flush op_stats events at stage
                                              boundaries (PROMPTEM_OP_PROFILE=1)
  --progress-every <n>                        emit a `progress` heartbeat every n
                                              batches/steps/passes in each training
                                              phase (PROMPTEM_PROGRESS_EVERY; 0 off)
  --threads <n>                               worker threads for pseudo-label
                                              scoring and the training backward
                                              (PROMPTEM_THREADS; default 1;
                                              results are bit-identical for any n)

file formats by extension: .csv (relational), .jsonl/.ndjson (semi-structured),
anything else (one textual record per line).
benchmark names: REL-HETER SEMI-HOMO SEMI-HETER SEMI-REL SEMI-TEXT-c
SEMI-TEXT-w REL-TEXT GEO-HETER";

fn run_cli(raw: Vec<String>) -> Result<(), Failure> {
    let args = Args::parse(raw)?;
    init_telemetry(&args)?;
    let result = match args.positional.first().map(|s| s.as_str()) {
        Some("stats") => cmd_stats(&args).map_err(Failure::from),
        Some("match") => cmd_match(&args).map_err(Failure::from),
        Some("serve") => serve_cmd::cmd_serve(&args).map_err(Failure::from),
        Some("drive") => serve_cmd::cmd_drive(&args).map_err(Failure::from),
        Some("export") => cmd_export(&args).map_err(Failure::from),
        Some("report") => cmd_report(&args),
        Some("top") => cmd_top(&args),
        Some("history") => cmd_history(&args),
        Some("ckpt") => cmd_ckpt(&args),
        Some(other) => Err(Failure::from(format!("unknown command '{other}'"))),
        None => Err(Failure::from("no command given".to_string())),
    };
    em_obs::shutdown();
    result
}

/// Wire the em-obs sinks: `--trace` (falling back to `PROMPTEM_LOG`, then
/// to `info` so progress messages stay visible by default) and
/// `--metrics-out` for the structured JSONL trace.
fn init_telemetry(args: &Args) -> Result<(), String> {
    let default = Some(em_obs::Level::Info);
    let level = match args.get("trace") {
        Some(raw) => em_obs::parse_filter(raw, default).map_err(|e| format!("--trace: {e}"))?,
        None => match std::env::var("PROMPTEM_LOG") {
            Ok(raw) => {
                em_obs::parse_filter(&raw, default).map_err(|e| format!("PROMPTEM_LOG: {e}"))?
            }
            Err(_) => default,
        },
    };
    em_obs::init_stderr(level);
    if let Some(path) = args.get("metrics-out") {
        em_obs::init_jsonl(std::path::Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    }
    if args.switch("sanitize") {
        em_nn::tape::set_sanitize(true);
    }
    if args.switch("op-profile") {
        em_nn::tape::set_op_profile(true);
    }
    if args.get("threads").is_some() {
        let n: usize = args.get_parse("threads", 1)?;
        if n == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        em_pool::set_threads(n);
    }
    em_obs::set_progress_every(args.get_parse("progress-every", 0u64)?);
    Ok(())
}

fn load_table(path: &str, name: &str) -> Result<Table, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ext = std::path::Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("txt");
    ingest::table_from_extension(name, ext, &body).map_err(|e| format!("{path}: {e}"))
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let left = load_table(args.require("left")?, "left")?;
    let right = load_table(args.require("right")?, "right")?;
    for t in [&left, &right] {
        println!(
            "{}: {} records, format {}, mean arity {:.2}",
            t.name,
            t.len(),
            t.format,
            t.mean_arity()
        );
    }
    // Blocking preview: how many candidate pairs a token blocker yields.
    let index = TokenIndex::build(&right.records, right.format);
    let mut candidates = 0usize;
    for r in &left.records {
        candidates += index
            .candidates(&record_tokens(r, left.format), 2, None)
            .len()
            .min(10);
    }
    println!("token blocker: ~{candidates} candidate pairs (top-10 per left record)");
    Ok(())
}

/// Everything `match` and `serve` share ahead of training: load the two
/// tables and the labels, carve the splits, augment the unlabeled pool
/// from the token blocker, and resolve the pipeline config flags.
fn prepare_run(args: &Args) -> Result<(GemDataset, PromptEmConfig), String> {
    let left = load_table(args.require("left")?, "left")?;
    let right = load_table(args.require("right")?, "right")?;
    let labels_path = args.require("labels")?;
    let labels_body =
        std::fs::read_to_string(labels_path).map_err(|e| format!("{labels_path}: {e}"))?;
    let labeled = parse_labels(&labels_body, left.len(), right.len())?;
    if labeled.len() < 8 {
        return Err(format!(
            "need at least 8 labeled pairs, found {}",
            labeled.len()
        ));
    }

    let seed: u64 = args.get_parse("seed", 42)?;
    let rate: f64 = args.get_parse("rate", 0.6)?;
    let mut rng = StdRng::seed_from_u64(seed);

    // Splits: valid/test from the labels, train = `rate` of the remainder,
    // leftover labeled pairs (labels hidden) + blocker candidates = D_U.
    let (mut pool, valid, test) = three_way_split(labeled, 0.2, 0.2, &mut rng);
    let want = (((pool.len() as f64) * rate).round() as usize).min(pool.len());
    let (train, mut unlabeled) = em_data::pair::stratified_split(&mut pool, want, &mut rng);
    // Augment the unlabeled pool with blocker candidates not already labeled.
    let index = TokenIndex::build(&right.records, right.format);
    let known: std::collections::HashSet<(usize, usize)> = train
        .iter()
        .chain(&valid)
        .chain(&test)
        .chain(&unlabeled)
        .map(|lp| (lp.pair.left, lp.pair.right))
        .collect();
    for (i, r) in left.records.iter().enumerate() {
        for (j, _) in index
            .candidates(&record_tokens(r, left.format), 3, None)
            .into_iter()
            .take(2)
        {
            if !known.contains(&(i, j)) {
                // Unknown gold label: recorded as negative, but the gold is
                // only used for audit metrics the CLI does not print.
                unlabeled.push(LabeledPair {
                    pair: Pair { left: i, right: j },
                    label: false,
                });
            }
        }
    }

    let name = "cli".to_string();
    let rate = train.len() as f64
        / (train.len() + valid.len() + test.len() + unlabeled.len()).max(1) as f64;
    let ds = GemDataset {
        name: name.clone(),
        domain: "user".into(),
        left,
        right,
        train,
        valid,
        test,
        unlabeled,
        rate,
    };

    let mut cfg = PromptEmConfig {
        seed,
        ..Default::default()
    };
    cfg.prompt.template = match args.get("template") {
        Some("t1") => TemplateId::T1,
        Some("t2") | None => TemplateId::T2,
        Some(other) => return Err(format!("unknown template '{other}'")),
    };
    cfg.prompt.mode = match args.get("mode") {
        Some("hard") => PromptMode::Hard,
        Some("continuous") | None => PromptMode::Continuous,
        Some(other) => return Err(format!("unknown mode '{other}'")),
    };
    cfg.use_lst = !args.switch("no-lst");
    // Budget overrides (useful for quick runs and tests).
    cfg.pretrain.max_steps = args.get_parse("pretrain-steps", cfg.pretrain.max_steps)?;
    cfg.lst.teacher.epochs = args.get_parse("epochs", cfg.lst.teacher.epochs)?;
    cfg.lst.student.epochs = args.get_parse("epochs", cfg.lst.student.epochs)?;
    if let Some(dir) = args.get("checkpoint-dir") {
        cfg.resilience = Some(em_resilience::ResilienceCfg {
            dir: dir.into(),
            every: args.get_parse("checkpoint-every", 25u64)?,
            resume: args.switch("resume"),
        });
    } else if args.switch("resume") || args.get("checkpoint-every").is_some() {
        return Err("--resume/--checkpoint-every need --checkpoint-dir".to_string());
    }
    Ok((ds, cfg))
}

/// Trace identity plus the training banner, shared by `match` and
/// `serve`. `run_meta` must be the first line of the trace so
/// `promptem history` can key the run before any other event lands.
fn announce_run(ds: &GemDataset, cfg: &PromptEmConfig) {
    em_obs::set_run_seed(cfg.seed);
    em_obs::run_meta(cfg.seed, config_fingerprint(cfg), em_obs::detect_git_sha());
    em_obs::info(format!(
        "training on {} labels ({} valid / {} test held out, {} unlabeled)...",
        ds.train.len(),
        ds.valid.len(),
        ds.test.len(),
        ds.unlabeled.len()
    ));
}

fn cmd_match(args: &Args) -> Result<(), String> {
    let (ds, cfg) = prepare_run(args)?;
    announce_run(&ds, &cfg);
    let result = {
        let _span = em_obs::span_with(em_obs::names::SPAN_MATCH, ds.name.clone());
        let result = run(&ds, &cfg);
        // Catch any tape ops not flushed at an inner stage boundary.
        em_nn::tape::flush_op_stats();
        result
    };
    println!("test scores: {}", result.scores);
    println!(
        "pretrain {:.1}s, tune {:.1}s, pseudo-labels {:?}, pruned {}",
        result.pretrain_secs, result.train_secs, result.lst.pseudo_selected, result.lst.pruned
    );

    if let Some(out_path) = args.get("output") {
        let mut out = String::from("left,right,gold,predicted\n");
        for (lp, &pred) in ds.test.iter().zip(&result.test_predictions) {
            out.push_str(&format!(
                "{},{},{},{}\n",
                lp.pair.left,
                lp.pair.right,
                u8::from(lp.label),
                u8::from(pred)
            ));
        }
        em_resilience::atomic_write(std::path::Path::new(out_path), out.as_bytes())
            .map_err(|e| format!("{out_path}: {e}"))?;
        em_obs::info(format!("wrote {out_path}"));
    }
    Ok(())
}

/// Fingerprint the resolved pipeline config: FNV-1a 64 over its `Debug`
/// form. Two runs share a fingerprint exactly when every knob matches, so
/// history readers can tell config drift from performance drift.
fn config_fingerprint(cfg: &PromptEmConfig) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in format!("{cfg:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

/// Export a synthetic benchmark to files a user (or another tool) can read:
/// the two tables in their natural formats plus labeled splits.
fn cmd_export(args: &Args) -> Result<(), String> {
    use em_data::ingest::{extension_for, labels_to_csv, table_to_string};
    use em_data::synth::{build, BenchmarkId, Scale};
    let name = args.require("benchmark")?;
    let id = BenchmarkId::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown benchmark '{name}'"))?;
    let dir = std::path::PathBuf::from(args.require("dir")?);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let scale = if args.switch("full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let seed: u64 = args.get_parse("seed", 42)?;
    let ds = build(id, scale, seed);

    let write = |file: String, body: String| -> Result<(), String> {
        let path = dir.join(file);
        em_resilience::atomic_write(&path, body.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        em_obs::info(format!("wrote {}", path.display()));
        Ok(())
    };
    write(
        format!("left.{}", extension_for(ds.left.format)),
        table_to_string(&ds.left),
    )?;
    write(
        format!("right.{}", extension_for(ds.right.format)),
        table_to_string(&ds.right),
    )?;
    write("train.csv".into(), labels_to_csv(&ds.train))?;
    write("valid.csv".into(), labels_to_csv(&ds.valid))?;
    write("test.csv".into(), labels_to_csv(&ds.test))?;
    println!(
        "{}: {} + {} records, {} train / {} valid / {} test labels",
        ds.name,
        ds.left.len(),
        ds.right.len(),
        ds.train.len(),
        ds.valid.len(),
        ds.test.len()
    );
    Ok(())
}

/// Inspect a checkpoint: magic, sections, sizes, and per-section CRCs.
/// Given a directory, the newest checkpoint in it is inspected.
fn cmd_ckpt(args: &Args) -> Result<(), Failure> {
    match args.positional.get(1).map(|s| s.as_str()) {
        Some("inspect") => {}
        Some(other) => return Err(Failure::from(format!("unknown ckpt action '{other}'"))),
        None => return Err(Failure::from("ckpt needs an action (inspect)".to_string())),
    }
    let target = args
        .positional
        .get(2)
        .ok_or_else(|| Failure::from("ckpt inspect needs a checkpoint file or dir".to_string()))?;
    let mut path = std::path::PathBuf::from(target);
    if path.is_dir() {
        let dir = em_resilience::CheckpointDir::new(&path, em_resilience::DEFAULT_KEEP)
            .map_err(|e| Failure::plain(format!("{target}: {e}")))?;
        let (tag, newest) = dir
            .list()
            .into_iter()
            .next_back()
            .ok_or_else(|| Failure::plain(format!("{target}: no checkpoints found")))?;
        println!("newest checkpoint: tag {tag}");
        path = newest;
    }
    let summary =
        em_resilience::CheckpointDir::inspect(&path).map_err(|e| Failure::plain(e.to_string()))?;
    print!("{summary}");
    Ok(())
}

/// Analyze a `--metrics-out` trace: print the run report (optionally
/// writing `BENCH_report.json`), or with `--diff` compare two traces
/// under regression thresholds and fail when any metric breaches.
/// `--diff --canonical` instead demands byte-exact equivalence of the
/// timing-stripped traces (the thread-count determinism gate).
fn cmd_report(args: &Args) -> Result<(), Failure> {
    let thresholds = em_prof::Thresholds {
        wall_frac: args.get_parse("max-wall-frac", 0.75)?,
        heap_frac: args.get_parse("max-heap-frac", 0.50)?,
        steps_frac: args.get_parse("max-steps-frac", 0.0)?,
        f1_points: args.get_parse("max-f1-drop", 1.0)?,
        op_wall_frac: args.get_parse("max-op-wall-frac", 1.0)?,
        op_bytes_frac: args.get_parse("max-op-bytes-frac", 1.0)?,
    };
    let load = |path: &str| -> Result<em_prof::RunManifest, Failure> {
        let events = em_prof::load_trace(std::path::Path::new(path)).map_err(Failure::plain)?;
        Ok(em_prof::manifest::manifest(&events))
    };

    if let Some(base_path) = args.get("diff") {
        let new_path = args.positional.get(1).ok_or_else(|| {
            Failure::from("report --diff needs two traces: --diff <base> <new>".to_string())
        })?;
        if args.switch("canonical") {
            // Determinism gate: the two runs must have made byte-identical
            // decisions once timing/heap fields are stripped — this is how
            // CI proves `--threads N` equals `--threads 1`.
            let raw = |path: &str| {
                em_prof::load_trace(std::path::Path::new(path)).map_err(Failure::plain)
            };
            let base = raw(base_path)?;
            let new = raw(new_path)?;
            return match em_prof::first_divergence(&base, &new) {
                None => {
                    println!(
                        "canonical traces identical: {} events, {base_path} == {new_path}",
                        base.len()
                    );
                    Ok(())
                }
                Some(d) => Err(Failure::plain(format!(
                    "canonical trace divergence between {base_path} and {new_path}\n{d}"
                ))),
            };
        }
        let report = em_prof::diff(&load(base_path)?, &load(new_path)?, &thresholds);
        print!("{}", report.render());
        let breaches = report.regressions();
        if breaches > 0 {
            return Err(Failure::plain(format!(
                "{breaches} performance regression(s) in {new_path} against {base_path}"
            )));
        }
        return Ok(());
    }

    let trace_path = args
        .positional
        .get(1)
        .ok_or_else(|| Failure::from("report needs a trace file".to_string()))?;
    let manifest = load(trace_path)?;
    let top: usize = args.get_parse("top", 12)?;
    print!("{}", em_prof::report::render_report(&manifest, top));
    if let Some(out_path) = args.get("bench-out") {
        em_resilience::atomic_write(
            std::path::Path::new(out_path),
            em_prof::report::bench_report_json(&manifest).as_bytes(),
        )
        .map_err(|e| Failure::plain(format!("{out_path}: {e}")))?;
        println!("wrote {out_path}");
    }
    Ok(())
}

/// Tail a live `--metrics-out` trace and render the `promptem top`
/// dashboard. On a TTY each frame repaints the screen; otherwise frames
/// print as plain text blocks (so piping to a file stays readable).
/// `--once` renders one frame from the current file contents and exits —
/// also the mode the snapshot tests drive.
fn cmd_top(args: &Args) -> Result<(), Failure> {
    use std::io::{IsTerminal as _, Write as _};
    let trace_path = args
        .positional
        .get(1)
        .ok_or_else(|| Failure::from("top needs a trace file".to_string()))?;
    let interval_ms: u64 = args.get_parse("interval-ms", 500)?;
    let top: usize = args.get_parse("top", 8)?;
    let once = args.switch("once");
    let max_seconds: u64 = args.get_parse("max-seconds", 0)?;

    let mut stream = em_prof::TraceStream::open(trace_path);
    let mut state = em_prof::LiveState::new();
    let tty = std::io::stdout().is_terminal();
    let watch = em_obs::Stopwatch::new();
    loop {
        let fresh = stream.poll().map_err(Failure::plain)?;
        let grew = !fresh.is_empty();
        state.apply_all(fresh);
        if grew || once {
            let frame = state.render(top);
            let mut out = std::io::stdout().lock();
            let drawn = if tty {
                // Clear + home, then the frame: a repainting dashboard.
                write!(out, "\x1b[2J\x1b[H{frame}")
            } else {
                writeln!(out, "{frame}")
            };
            drawn
                .and_then(|()| out.flush())
                .map_err(|e| Failure::plain(format!("stdout: {e}")))?;
        }
        if once || (max_seconds > 0 && watch.secs() >= max_seconds as f64) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(10)));
    }
}

/// The cross-run ledger: `--append` distills a trace into one
/// `BENCH_history.jsonl` line; the trajectory table always prints; and
/// `--gate` compares the newest entry against the rolling median of the
/// previous `--window` entries, failing the process on a trend breach.
fn cmd_history(args: &Args) -> Result<(), Failure> {
    let ledger = args
        .positional
        .get(1)
        .ok_or_else(|| Failure::from("history needs a ledger file".to_string()))?;
    let ledger = std::path::Path::new(ledger);
    if let Some(trace_path) = args.get("append") {
        let events =
            em_prof::load_trace(std::path::Path::new(trace_path)).map_err(Failure::plain)?;
        let entry = em_prof::history::distill(&em_prof::manifest::manifest(&events));
        em_prof::history::append(ledger, &entry).map_err(Failure::plain)?;
        println!(
            "appended run (seed {}, {:.1}s wall) to {}",
            entry.seed,
            entry.total_wall_us as f64 / 1e6,
            ledger.display()
        );
    }
    let entries = em_prof::history::load(ledger).map_err(Failure::plain)?;
    if entries.is_empty() {
        println!("{}: empty ledger (append a run first)", ledger.display());
        return Ok(());
    }
    print!("{}", em_prof::history::render_trend(&entries));
    if args.switch("gate") {
        let thresholds = em_prof::Thresholds {
            wall_frac: args.get_parse("max-wall-frac", 0.75)?,
            heap_frac: args.get_parse("max-heap-frac", 0.50)?,
            f1_points: args.get_parse("max-f1-drop", 1.0)?,
            ..em_prof::Thresholds::default()
        };
        let window: usize = args.get_parse("window", 5)?;
        let report =
            em_prof::history::gate(&entries, window, &thresholds).map_err(Failure::plain)?;
        println!();
        print!("{}", report.render());
        let breaches = report.regressions();
        if breaches > 0 {
            return Err(Failure::plain(format!(
                "{breaches} trend regression(s) in the newest {} entry",
                ledger.display()
            )));
        }
    }
    Ok(())
}

/// Parse `left,right,label` rows (header optional).
fn parse_labels(body: &str, n_left: usize, n_right: usize) -> Result<Vec<LabeledPair>, String> {
    let rows = ingest::parse_csv(body).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (k, row) in rows.iter().enumerate() {
        if k == 0 && row.iter().any(|f| f.parse::<usize>().is_err()) {
            continue; // header
        }
        if row.len() != 3 {
            return Err(format!("labels row {} must have 3 fields", k + 1));
        }
        let left: usize = row[0]
            .trim()
            .parse()
            .map_err(|_| format!("bad left index on row {}", k + 1))?;
        let right: usize = row[1]
            .trim()
            .parse()
            .map_err(|_| format!("bad right index on row {}", k + 1))?;
        let label = matches!(row[2].trim(), "1" | "true" | "yes");
        if left >= n_left || right >= n_right {
            return Err(format!("label row {} out of range", k + 1));
        }
        out.push(LabeledPair {
            pair: Pair { left, right },
            label,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_labels_with_header() {
        let l = parse_labels("left,right,label\n0,1,1\n2,0,0\n", 5, 5).unwrap();
        assert_eq!(l.len(), 2);
        assert!(l[0].label);
        assert!(!l[1].label);
    }

    #[test]
    fn parse_labels_range_check() {
        assert!(parse_labels("0,9,1\n", 5, 5).is_err());
    }

    #[test]
    fn unknown_command_is_an_error() {
        let _g = crate::cli_e2e::lock();
        assert!(run_cli(vec!["bogus".into()]).is_err());
    }
}
