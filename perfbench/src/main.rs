//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lowres_match|bulk_match|serve_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the same three stages on its own dataset and
//! budget, giving the most time to the stage it exists for:
//!
//! 1. match — pretrain → encode → tune → test predictions (`train`);
//! 2. bulk — ingest → block → encode → decide two whole tables (`bulk`);
//! 3. serve — an in-process server under open- and closed-loop load
//!    (`serve`).
//!
//! `--trace 0` measures untraced and prints the end-to-end metrics;
//! `--trace 1` runs the workload's main stage once untraced and once
//! traced (spans and `op_stats` captured in memory, op profiler on) and
//! prints the per-layer metrics. The last stdout line is the result JSON.
//! See `perfbench/README.md` for the workloads and the metric → layer map.

mod bulk;
mod layers;
mod serve;
mod stats;
mod train;

use em_data::synth::{build, BenchmarkId, Scale};
use em_data::GemDataset;
use em_obs::Stopwatch;
use layers::Trace;
use promptem::pipeline::PromptEmConfig;
use stats::{median, Metrics, SplitMix};
use std::path::Path;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: em_obs::alloc::CountingAllocator = em_obs::alloc::CountingAllocator;

/// Span around one match stage.
pub(crate) const SPAN_MATCH_STAGE: &str = "bench.match";
/// Span around one bulk pass and its four steps.
pub(crate) const SPAN_BULK_PASS: &str = "bench.bulk_pass";
/// See [`SPAN_BULK_PASS`].
pub(crate) const SPAN_INGEST: &str = "bench.ingest";
/// See [`SPAN_BULK_PASS`].
pub(crate) const SPAN_BLOCKING: &str = "bench.blocking";
/// See [`SPAN_BULK_PASS`].
pub(crate) const SPAN_CODEC: &str = "bench.codec";
/// See [`SPAN_BULK_PASS`].
pub(crate) const SPAN_FORWARD: &str = "bench.forward";
/// Span around the serve stage.
const SPAN_SERVE_STAGE: &str = "bench.serve";

/// The end-to-end metrics every `--trace 0` run prints.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "match_wall_s",
    "tune_wall_s",
    "test_f1",
    "peak_heap_mb",
    "bulk_pairs_per_s",
    "serve_light_p50_ms",
    "serve_sat_rps",
];

/// Tape ops whose profiler rows are reported per layer.
const OPS: [&str; 8] = [
    "matmul",
    "gelu",
    "softmax_rows",
    "dropout",
    "layer_norm",
    "transpose",
    "slice_cols",
    "add_row_broadcast",
];

/// Per-layer metrics besides the per-op and per-serve-phase rows.
const LAYERS: [&str; 23] = [
    "lm.pretrain_s",
    "lm.pretrain_steps",
    "core.encode_s",
    "core.grid_template_s",
    "core.teacher_s",
    "core.student_s",
    "core.train_batches",
    "core.pseudo_score_s",
    "core.pseudo_pairs_scored",
    "core.pseudo_selected",
    "core.pseudo_tpr",
    "core.pseudo_tnr",
    "data.ingest_s",
    "data.block_s",
    "data.candidates",
    "data.candidate_recall",
    "core.codec_encode_s",
    "core.forward_s",
    "core.forward_pairs",
    "gen.lag_ms_tail",
    "gen.lag_tail_pct",
    "gen.lag_ms_max",
    "trace.overhead_frac",
];

/// Per-phase serve rows, as `serve.<phase>.<row>`.
const SERVE_ROWS: [&str; 12] = [
    "sent",
    "ok",
    "rejected",
    "failed",
    "pre_forward_ms_p50",
    "forward_ms_p50",
    "post_forward_ms_p50",
    "batch_pairs_mean",
    "forward_busy_frac",
    "tail_ms",
    "tail_pct",
    "samples",
];

/// Every per-layer metric a `--trace 1` run prints.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = LAYERS.iter().map(|s| s.to_string()).collect();
    for phase in ["light", "sat"] {
        names.extend(SERVE_ROWS.iter().map(|r| format!("serve.{phase}.{r}")));
    }
    for op in OPS {
        names.extend(["fwd_us", "bwd_us", "calls"].map(|k| format!("nn.{op}.{k}")));
    }
    names
}

/// Seed of the benchmark tables and the backbone: both are fixed, like the
/// paper's datasets and its off-the-shelf LM, so every run does the same
/// work. `--seed` varies what a run draws on top (the `lowres_match`
/// self-training draws, see [`Workload::config`], the serve request order
/// and the bulk check sample).
const DATA_SEED: u64 = 42;
/// Set-up repeats per run, at least this many and for at least
/// [`SETUP_MIN_S`] seconds; `setup_s` is their median. A REL-HETER set-up
/// takes about 10 ms, and nine of them left its median moving by a quarter
/// between runs.
const SETUP_MIN_REPEATS: usize = 9;
/// See [`SETUP_MIN_REPEATS`].
const SETUP_MIN_S: f64 = 1.0;
/// Pool threads for training and bulk scoring (`nproc` = 2).
const POOL_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    /// The paper's low-resource setting on REL-HETER, end to end.
    LowresMatch,
    /// Blocking and scoring two whole SEMI-HETER tables.
    BulkMatch,
    /// Open- and closed-loop load on the matching service.
    ServeOpen,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "lowres_match" => Ok(Workload::LowresMatch),
            "bulk_match" => Ok(Workload::BulkMatch),
            "serve_open" => Ok(Workload::ServeOpen),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LowresMatch => "lowres_match",
            Workload::BulkMatch => "bulk_match",
            Workload::ServeOpen => "serve_open",
        }
    }

    /// The dataset. `bulk_match` takes SEMI-HETER (semi-structured JSON on
    /// both sides) rather than SEMI-HOMO: SEMI-HOMO's 4230-record right
    /// table made blocking half of every pass, and on a shared 2-core host
    /// its time swung between 1.1 and 2.3 s with the neighbours' cache
    /// use, which spread `bulk_pairs_per_s` by up to 0.28 between runs.
    fn benchmark(self) -> BenchmarkId {
        match self {
            Workload::LowresMatch | Workload::ServeOpen => BenchmarkId::RelHeter,
            Workload::BulkMatch => BenchmarkId::SemiHeter,
        }
    }

    /// The pipeline budget: the paper's setting for `lowres_match`, a
    /// small matcher elsewhere. The pipeline seed (pretraining corpus and
    /// masking, backbone, template probe) stays at [`DATA_SEED`], so every
    /// run does the same work. On `lowres_match`, `seed` drives the
    /// self-training draws: teacher and student initialisation, shuffling,
    /// MC-dropout masks. Elsewhere the small matcher is a fixture like the
    /// backbone: with its draws seeded as well, its test F1 spread by 0.13
    /// over five seeds.
    fn config(self, seed: u64) -> PromptEmConfig {
        let mut cfg = PromptEmConfig {
            seed: DATA_SEED,
            ..PromptEmConfig::default()
        };
        if self == Workload::LowresMatch {
            cfg.lst.seed = seed;
            cfg.lst.teacher.seed = seed ^ 0x7EAC;
            cfg.lst.student.seed = seed ^ 0x57D0;
            cfg.lst.pseudo.seed = seed ^ 0x95E0;
            cfg.pretrain.max_steps = 100;
        } else {
            cfg.pretrain.max_steps = 20;
            cfg.grid_template = false;
            cfg.lst.teacher.epochs = 2;
            cfg.lst.student.epochs = 2;
            cfg.lst.pseudo.passes = 4;
        }
        cfg
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// How a section of a run is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tracing {
    /// Untraced.
    Off,
    /// This thread's events captured into the run's trace.
    On,
    /// Captured, with the op profiler on and its rows flushed at the end.
    Profiled,
}

impl Tracing {
    fn run<R>(self, trace: &mut Trace, f: impl FnOnce() -> R) -> R {
        if self == Tracing::Off {
            return f();
        }
        let profile = self == Tracing::Profiled;
        em_nn::tape::set_op_profile(profile);
        let (out, events) = em_obs::capture(|| {
            let out = f();
            if profile {
                em_nn::tape::flush_op_stats();
            }
            out
        });
        em_nn::tape::set_op_profile(false);
        trace.extend(events);
        out
    }
}

/// The run's inputs, made from the seed before anything is timed.
struct Setup {
    ds: GemDataset,
    text: bulk::TextTables,
    cfg: PromptEmConfig,
}

fn setup(w: Workload, seed: u64) -> Setup {
    let ds = build(w.benchmark(), Scale::Full, DATA_SEED);
    let text = bulk::TextTables::render(&ds);
    Setup {
        ds,
        text,
        cfg: w.config(seed),
    }
}

/// The labeled pairs of `ds`, shuffled by the seed: the serve requests.
fn serve_pairs(ds: &GemDataset, seed: u64) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = ds
        .train
        .iter()
        .chain(&ds.valid)
        .chain(&ds.test)
        .chain(&ds.unlabeled)
        .map(|lp| (lp.pair.left as u32, lp.pair.right as u32))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    SplitMix::new(seed ^ 0x5E_4E).shuffle(&mut pairs);
    pairs
}

/// What a run accumulates across its stages, and prints.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    trace: Trace,
    /// Main stage, traced against untraced (see `trace.overhead_frac`).
    overhead_frac: f64,
}

impl Outcome {
    /// Count `n` failed operations, explained by `problem`.
    fn fail(&mut self, n: u64, problem: String) {
        self.failed += n;
        self.problems.push(problem);
    }
}

fn run(o: &Opts) -> Result<Outcome, String> {
    em_pool::set_threads(POOL_THREADS);
    let mut setup_s = Vec::new();
    let mut s = None;
    let clock = Stopwatch::new();
    while setup_s.len() < SETUP_MIN_REPEATS || clock.secs() < SETUP_MIN_S {
        let sw = Stopwatch::new();
        s = Some(setup(o.workload, o.seed));
        setup_s.push(sw.secs());
    }
    let s = s.ok_or("no setup ran")?;
    em_obs::alloc::reset_peak();

    let mut out = Outcome::default();
    out.metrics.put("setup_s", median(&setup_s), "s");
    let mut bulk = BulkStage::default();
    let mut matched = match_stage(o, &s, &mut out, |m, out| {
        if o.trace {
            return Ok(());
        }
        let secs = bulk_secs(o.workload, o.seconds) / planned_match_reps(o.workload) as f64;
        bulk.time(o, &s, m, secs, 1, Tracing::Off, out)
    })?;
    bulk.finish(o, &s, &mut matched, &mut out)?;
    serve_stage(o, &s, &mut matched, &mut out)?;

    let m = &mut out.metrics;
    m.put(
        "peak_heap_mb",
        em_obs::alloc::peak_bytes() as f64 / 1e6,
        "MB",
    );
    if o.trace {
        let ops = out.trace.ops();
        for op in OPS {
            let row = ops.get(op).copied().unwrap_or_default();
            m.put(format!("nn.{op}.fwd_us"), row.fwd_us as f64, "us");
            m.put(format!("nn.{op}.bwd_us"), row.bwd_us as f64, "us");
            m.put(
                format!("nn.{op}.calls"),
                (row.fwd_calls + row.bwd_calls) as f64,
                "count",
            );
        }
        m.put("trace.overhead_frac", out.overhead_frac, "frac");
    }
    Ok(out)
}

/// Untraced match repeats: at least two on `lowres_match` (more until
/// `--seconds` have passed), three elsewhere. A match outside
/// `lowres_match` is short, and the median of two let one slow repeat
/// move `tune_wall_s` by a fifth.
fn planned_match_reps(w: Workload) -> usize {
    if w == Workload::LowresMatch {
        2
    } else {
        3
    }
}

/// Seconds of timed bulk passes in a run: twice `--seconds` on
/// `bulk_match`, and most of `--seconds` elsewhere, because pass times
/// wander by a fifth over tens of seconds on a shared 2-core host and the
/// median pass should sample as much of the run as it can.
fn bulk_secs(w: Workload, seconds: f64) -> f64 {
    if w == Workload::BulkMatch {
        seconds * 2.0
    } else {
        seconds * 0.8
    }
}

/// Stage 1: match, twice or more so same-seed decisions can be compared
/// and the times are medians. `after_rep` runs after each repeat: an
/// untraced run times a slice of its bulk passes there, so the bulk median
/// samples the whole run rather than one window of it. A traced
/// `lowres_match` run makes one untraced and one profiled repeat;
/// elsewhere a traced run makes one.
fn match_stage(
    o: &Opts,
    s: &Setup,
    out: &mut Outcome,
    mut after_rep: impl FnMut(&mut train::Matched, &mut Outcome) -> Result<(), String>,
) -> Result<train::Matched, String> {
    let main = o.workload == Workload::LowresMatch;
    let planned = planned_match_reps(o.workload);
    let clock = Stopwatch::new();
    let mut reps: Vec<train::Matched> = Vec::new();
    loop {
        let rep = reps.len();
        let done = match (main, o.trace) {
            (true, true) => rep == 2,
            (true, false) => rep >= planned && clock.secs() >= o.seconds,
            (false, true) => rep == 1,
            (false, false) => rep == planned,
        };
        if done {
            break;
        }
        let how = match (o.trace, main, rep) {
            (false, _, _) | (true, true, 0) => Tracing::Off,
            (true, true, _) => Tracing::Profiled,
            (true, false, _) => Tracing::On,
        };
        let mut matched = how.run(&mut out.trace, || train::run_match(&s.ds, &s.cfg));
        em_obs::info(format!(
            "match {rep}: {:.2}s (tune {:.2}s), test F1 {:.2}",
            matched.wall_s, matched.tune_s, matched.test_f1
        ));
        after_rep(&mut matched, out)?;
        reps.push(matched);
    }
    out.attempted += reps.len() as u64;
    let first = &reps[0];
    for (k, r) in reps.iter().enumerate().skip(1) {
        if r.test_predictions != first.test_predictions || r.test_f1 != first.test_f1 {
            out.fail(1, format!("match repeat {k} changed the test decisions"));
        }
    }
    if first.test_f1 <= 0.0 {
        out.fail(0, format!("test F1 is {}", first.test_f1));
    }
    let untraced = if main && o.trace {
        &reps[..1]
    } else {
        &reps[..]
    };
    let med = |f: fn(&train::Matched) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    out.metrics.put("match_wall_s", med(|r| r.wall_s), "s");
    out.metrics.put("tune_wall_s", med(|r| r.tune_s), "s");
    out.metrics.put("test_f1", first.test_f1, "pct");
    if main && o.trace {
        out.overhead_frac = reps[1].wall_s / reps[0].wall_s - 1.0;
    }
    let matched = reps.pop().ok_or("no match ran")?;
    if o.trace {
        match_layers(&mut out.metrics, &out.trace, &matched);
    }
    Ok(matched)
}

/// Stage 2: bulk. The first timing makes an untimed warm-up pass, which
/// also feeds the one-pair-at-a-time check; every timing then runs passes
/// for a given time and checks they decide as the warm-up pass did.
#[derive(Default)]
struct BulkStage {
    warm: Option<bulk::Pass>,
    runs: Vec<bulk::BulkRun>,
}

impl BulkStage {
    /// Time bulk passes with the matcher of `m` for `secs` seconds.
    #[allow(clippy::too_many_arguments)]
    fn time(
        &mut self,
        o: &Opts,
        s: &Setup,
        m: &mut train::Matched,
        secs: f64,
        min_passes: usize,
        how: Tracing,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let tokenizer = &m.backbone.tokenizer;
        let matcher = &mut m.matcher;
        let warm = match self.warm.take() {
            Some(w) => w,
            None => {
                let w = bulk::run_pass(&s.text, tokenizer, &s.cfg.encode, matcher)?;
                out.attempted += w.candidates.len() as u64;
                let mismatches = bulk::one_at_a_time_mismatches(&w, matcher, o.seed) as u64;
                if mismatches > 0 {
                    out.fail(
                        mismatches,
                        format!(
                            "{mismatches} batched decisions differ from one-pair-at-a-time decisions"
                        ),
                    );
                }
                w
            }
        };
        let run = how.run(&mut out.trace, || {
            bulk::timed_passes(
                &s.ds,
                &s.text,
                tokenizer,
                &s.cfg.encode,
                matcher,
                &warm,
                secs,
                min_passes,
            )
        });
        self.warm = Some(warm);
        let run = run?;
        out.attempted += run.decided;
        if run.unstable_passes > 0 {
            out.fail(
                run.unstable_passes,
                format!("{} bulk passes changed decisions", run.unstable_passes),
            );
        }
        self.runs.push(run);
        Ok(())
    }

    /// Finish on the last match. A traced run times its passes here: on
    /// `bulk_match` once untraced and once profiled, for
    /// `trace.overhead_frac`, elsewhere once traced. `bulk_pairs_per_s` is
    /// the median pass of the untraced timings.
    fn finish(
        mut self,
        o: &Opts,
        s: &Setup,
        m: &mut train::Matched,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let main = o.workload == Workload::BulkMatch;
        if o.trace {
            let secs = bulk_secs(o.workload, o.seconds);
            if main {
                self.time(o, s, m, secs, 3, Tracing::Off, out)?;
                self.time(o, s, m, secs, 3, Tracing::Profiled, out)?;
                out.overhead_frac =
                    self.runs[0].pairs_per_s_median() / self.runs[1].pairs_per_s_median() - 1.0;
            } else {
                self.time(o, s, m, secs, 3, Tracing::On, out)?;
            }
            let b = self.runs.last().ok_or("no bulk run")?;
            let m = &mut out.metrics;
            m.put("data.ingest_s", b.ingest_s, "s");
            m.put("data.block_s", b.block_s, "s");
            m.put("data.candidates", b.candidates as f64, "count");
            m.put("data.candidate_recall", b.recall, "frac");
            m.put("core.codec_encode_s", b.codec_s, "s");
            m.put("core.forward_s", b.forward_s, "s");
            m.put("core.forward_pairs", b.candidates as f64, "count");
        }
        let untraced = if o.trace {
            &self.runs[..1]
        } else {
            &self.runs[..]
        };
        let rates: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.pairs_per_s.iter().copied())
            .collect();
        out.metrics.put("bulk_pairs_per_s", median(&rates), "1/s");
        Ok(())
    }
}

/// Stage 3: serve, with pool threads = 1 as `promptem serve` runs.
fn serve_stage(
    o: &Opts,
    s: &Setup,
    matched: &mut train::Matched,
    out: &mut Outcome,
) -> Result<(), String> {
    let main = o.workload == Workload::ServeOpen;
    let plan = if main {
        serve::PassPlan {
            light_s: o.seconds / 3.0,
            sat_s: o.seconds / 3.0,
        }
    } else {
        serve::PassPlan {
            light_s: o.seconds / 5.0,
            sat_s: o.seconds / 10.0,
        }
    };
    let passes = if main && o.trace {
        vec![(plan, false), (plan, true)]
    } else {
        vec![(plan, o.trace)]
    };
    em_pool::set_threads(1);
    let inputs = serve::ServeInputs::new(
        serve_pairs(&s.ds, o.seed),
        &mut matched.matcher,
        &matched.codec,
    )?;
    let stage = || {
        let _span = em_obs::span(SPAN_SERVE_STAGE);
        serve::run_stage(
            &matched.matcher,
            &matched.codec,
            &inputs,
            &passes,
            main && o.trace,
        )
    };
    let how = if o.trace { Tracing::On } else { Tracing::Off };
    let sv = how.run(&mut out.trace, stage);
    em_pool::set_threads(POOL_THREADS);
    let sv = sv?;
    out.metrics
        .put("serve_light_p50_ms", sv.light_p50_ms[0], "ms");
    out.metrics.put("serve_sat_rps", sv.sat_rps[0], "1/s");
    if main && o.trace {
        out.overhead_frac = sv.sat_rps[0] / sv.sat_rps[1] - 1.0;
    }
    out.attempted += sv.sent;
    if sv.failed > 0 {
        out.fail(
            sv.failed,
            format!("{} of {} serve requests failed", sv.failed, sv.sent),
        );
    }
    for a in &sv.accounting {
        out.fail(0, format!("serve accounting: {a}"));
    }
    for (name, value, unit) in sv.layers.iter() {
        out.metrics.put(name, value, unit);
    }
    Ok(())
}

/// Per-layer rows of the traced match: timed calls plus the program's
/// spans, epochs and self-training report.
fn match_layers(m: &mut Metrics, trace: &Trace, r: &train::Matched) {
    use em_obs::names::{
        SPAN_GRID_TEMPLATE, SPAN_PSEUDO_PASS, SPAN_PSEUDO_SCORE, SPAN_STUDENT, SPAN_TEACHER,
        SPAN_TUNE,
    };
    m.put("lm.pretrain_s", r.pretrain_s, "s");
    m.put("lm.pretrain_steps", trace.pretrain_steps() as f64, "count");
    m.put("core.encode_s", r.encode_s, "s");
    m.put(
        "core.grid_template_s",
        trace.span_secs(SPAN_GRID_TEMPLATE),
        "s",
    );
    m.put("core.teacher_s", trace.span_secs(SPAN_TEACHER), "s");
    m.put("core.student_s", trace.span_secs(SPAN_STUDENT), "s");
    m.put(
        "core.train_batches",
        trace.batches_within(SPAN_TUNE) as f64,
        "count",
    );
    m.put(
        "core.pseudo_score_s",
        trace.span_secs(SPAN_PSEUDO_SCORE),
        "s",
    );
    m.put(
        "core.pseudo_pairs_scored",
        (trace.span_count_within(SPAN_PSEUDO_PASS, SPAN_PSEUDO_SCORE) * r.unlabeled) as f64,
        "count",
    );
    m.put(
        "core.pseudo_selected",
        r.lst.pseudo_selected.iter().sum::<usize>() as f64,
        "count",
    );
    let (tpr, tnr) = r.lst.pseudo_quality.last().copied().unwrap_or((0.0, 0.0));
    m.put("core.pseudo_tpr", tpr, "frac");
    m.put("core.pseudo_tnr", tnr, "frac");
}

/// Keep only the metrics this mode prints, and insist every one is there.
fn select(m: &Metrics, trace: bool) -> Result<Metrics, String> {
    let names: Vec<String> = if trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let mut out = Metrics::default();
    for name in names {
        let (_, value, unit) = m
            .iter()
            .find(|(n, _, _)| *n == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        out.put(name, value, unit);
    }
    Ok(out)
}

/// Write the captured events and the per-layer table under `.perfbench/`.
fn write_trace(o: &Opts, out: &Outcome) -> Result<(), String> {
    let dir = Path::new(".perfbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", o.workload.name(), o.seed);
    let mut jsonl = String::new();
    for e in out.trace.events() {
        jsonl.push_str(&e.to_json());
        jsonl.push('\n');
    }
    let table = out.trace.table(&stem, out.overhead_frac);
    eprint!("{table}");
    for (file, body) in [
        (format!("{stem}.trace.jsonl"), jsonl),
        (format!("{stem}.layers.txt"), table),
    ] {
        let path = dir.join(file);
        em_resilience::atomic_write(&path, body.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    em_obs::init_stderr(Some(em_obs::Level::Warn));
    em_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <lowres_match|bulk_match|serve_open> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    em_obs::set_run_seed(o.seed);
    let out = match run(&o) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", o.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if o.trace {
        if let Err(e) = write_trace(&o, &out) {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    let printed = match select(&out.metrics, o.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in printed.iter() {
        eprintln!("{name:<36} {value:>14.4} {unit}");
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = out.problems.is_empty() && out.failed == 0;
    match printed.result_json(correct, out.attempted, out.failed) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_and_reject() {
        let o = parse_args(&args(
            "--workload bulk_match --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Workload::BulkMatch);
        assert_eq!((o.seed, o.seconds, o.trace), (9, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_open --seed 1 --seconds 0 --trace 0",
            "--workload serve_open --seed 1 --seconds 1 --trace 2",
            "--workload serve_open --seed 1 --seconds 1",
            "--workload serve_open --seed x --seconds 1 --trace 0",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"name\":").count();
        let per_layer = per_layer_names();
        assert_eq!(declared, 3 + END_TO_END.len() + per_layer.len());
        for w in ["lowres_match", "bulk_match", "serve_open"] {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        for name in END_TO_END.iter().map(|s| s.to_string()).chain(per_layer) {
            assert!(stats::valid_metric_name(&name), "{name}");
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
