//! The bulk stage: match two whole tables given as text — parse them,
//! block with the token index, encode every candidate pair and decide
//! them all in large batches with the tape-free forward.

use crate::stats::{median, SplitMix};
use em_data::blocking::{record_tokens, TokenIndex};
use em_data::ingest;
use em_data::{GemDataset, Table};
use em_obs::Stopwatch;
use promptem::{EncodeCfg, EncodedPair, MatchDecision, PairCodec, TrainedMatcher};
use std::collections::HashSet;

/// Candidates kept per left record.
const TOP_K: usize = 5;
/// Tokens a candidate must share with its left record.
const MIN_OVERLAP: usize = 2;
/// Pairs per `match_batch` call.
const BATCH: usize = 256;
/// Candidates re-decided one at a time to check batching changes nothing.
const SAMPLE_CHECKS: usize = 24;

/// The tables as text, in their natural formats.
pub struct TextTables {
    /// Left table body.
    pub left: String,
    /// Right table body.
    pub right: String,
    left_ext: &'static str,
    right_ext: &'static str,
}

impl TextTables {
    /// Render both tables of `ds` as the text a user would hand over.
    pub fn render(ds: &GemDataset) -> TextTables {
        TextTables {
            left: ingest::table_to_string(&ds.left),
            right: ingest::table_to_string(&ds.right),
            left_ext: ingest::extension_for(ds.left.format),
            right_ext: ingest::extension_for(ds.right.format),
        }
    }
}

/// Timings and outputs of one pass over the tables.
pub struct Pass {
    /// Seconds parsing both tables.
    pub ingest_s: f64,
    /// Seconds building the index and taking the top-k candidates.
    pub block_s: f64,
    /// Seconds building the codec and encoding every candidate.
    pub codec_s: f64,
    /// Seconds in `match_batch`.
    pub forward_s: f64,
    /// Candidate pairs, `(left, right)`.
    pub candidates: Vec<(usize, usize)>,
    /// One decision per candidate.
    pub decisions: Vec<MatchDecision>,
    /// The encoded candidates (kept for the one-at-a-time check).
    pub encoded: Vec<EncodedPair>,
}

impl Pass {
    /// Wall seconds of the four steps.
    pub fn wall_s(&self) -> f64 {
        self.ingest_s + self.block_s + self.codec_s + self.forward_s
    }

    /// Candidate pairs decided per second.
    pub fn pairs_per_s(&self) -> f64 {
        self.candidates.len() as f64 / self.wall_s()
    }
}

/// One pass: ingest → block → encode → decide.
pub fn run_pass(
    text: &TextTables,
    tokenizer: &em_lm::Tokenizer,
    encode: &EncodeCfg,
    matcher: &mut TrainedMatcher,
) -> Result<Pass, String> {
    let _span = em_obs::span(crate::SPAN_BULK_PASS);
    let sw = Stopwatch::new();
    let (left, right) = {
        let _span = em_obs::span(crate::SPAN_INGEST);
        let parse = |name: &str, ext: &str, body: &str| -> Result<Table, String> {
            ingest::table_from_extension(name, ext, body).map_err(|e| format!("{name}: {e}"))
        };
        (
            parse("left", text.left_ext, &text.left)?,
            parse("right", text.right_ext, &text.right)?,
        )
    };
    let ingest_s = sw.secs();

    let sw = Stopwatch::new();
    let candidates: Vec<(usize, usize)> = {
        let _span = em_obs::span(crate::SPAN_BLOCKING);
        let index = TokenIndex::build(&right.records, right.format);
        left.records
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                index
                    .candidates(&record_tokens(r, left.format), MIN_OVERLAP, None)
                    .into_iter()
                    .take(TOP_K)
                    .map(move |(j, _)| (i, j))
            })
            .collect()
    };
    let block_s = sw.secs();

    let sw = Stopwatch::new();
    let encoded: Vec<EncodedPair> = {
        let _span = em_obs::span(crate::SPAN_CODEC);
        let ds = GemDataset {
            name: "bulk".into(),
            domain: "bulk".into(),
            left,
            right,
            train: Vec::new(),
            valid: Vec::new(),
            test: Vec::new(),
            unlabeled: Vec::new(),
            rate: 0.0,
        };
        let codec = PairCodec::build(&ds, tokenizer, encode);
        candidates
            .iter()
            .map(|&(l, r)| codec.encode(l, r).ok_or("candidate out of range"))
            .collect::<Result<_, _>>()?
    };
    let codec_s = sw.secs();

    let sw = Stopwatch::new();
    let decisions: Vec<MatchDecision> = {
        let _span = em_obs::span(crate::SPAN_FORWARD);
        encoded
            .chunks(BATCH)
            .flat_map(|chunk| matcher.match_batch(chunk))
            .collect()
    };
    let forward_s = sw.secs();
    if decisions.len() != candidates.len() {
        return Err(format!(
            "{} decisions for {} candidates",
            decisions.len(),
            candidates.len()
        ));
    }
    Ok(Pass {
        ingest_s,
        block_s,
        codec_s,
        forward_s,
        candidates,
        decisions,
        encoded,
    })
}

/// Re-decide a seeded sample of candidates one pair at a time; returns how
/// many differ (probability bits or decision) from the batched pass.
pub fn one_at_a_time_mismatches(pass: &Pass, matcher: &mut TrainedMatcher, seed: u64) -> usize {
    let mut rng = SplitMix::new(seed ^ 0xB01C);
    (0..SAMPLE_CHECKS.min(pass.encoded.len()))
        .map(|_| rng.below(pass.encoded.len()))
        .filter(|&i| {
            let single = matcher.match_batch(std::slice::from_ref(&pass.encoded[i]));
            let batched = pass.decisions[i];
            single.len() != 1
                || single[0].proba.to_bits() != batched.proba.to_bits()
                || single[0].is_match != batched.is_match
        })
        .count()
}

/// Share of the dataset's labeled matches that blocking kept.
pub fn candidate_recall(ds: &GemDataset, candidates: &[(usize, usize)]) -> f64 {
    let kept: HashSet<(usize, usize)> = candidates.iter().copied().collect();
    let gold: Vec<(usize, usize)> = ds
        .train
        .iter()
        .chain(&ds.valid)
        .chain(&ds.test)
        .chain(&ds.unlabeled)
        .filter(|lp| lp.label)
        .map(|lp| (lp.pair.left, lp.pair.right))
        .collect();
    gold.iter().filter(|p| kept.contains(p)).count() as f64 / gold.len().max(1) as f64
}

/// Summary of the timed passes of one stage.
pub struct BulkRun {
    /// Per-pass throughput, pairs per second.
    pub pairs_per_s: Vec<f64>,
    /// Medians of the step timings over the timed passes.
    pub ingest_s: f64,
    /// See [`BulkRun::ingest_s`].
    pub block_s: f64,
    /// See [`BulkRun::ingest_s`].
    pub codec_s: f64,
    /// See [`BulkRun::ingest_s`].
    pub forward_s: f64,
    /// Candidates per pass.
    pub candidates: usize,
    /// Share of labeled matches among the candidates.
    pub recall: f64,
    /// Pairs decided in the timed passes.
    pub decided: u64,
    /// Passes whose decisions differed from the warm-up pass.
    pub unstable_passes: u64,
}

impl BulkRun {
    /// Median throughput over the timed passes.
    pub fn pairs_per_s_median(&self) -> f64 {
        median(&self.pairs_per_s)
    }
}

/// Repeat timed passes for at least `secs` seconds (and at least
/// `min_passes` passes) after the caller's warm-up pass `warm`.
#[allow(clippy::too_many_arguments)]
pub fn timed_passes(
    ds: &GemDataset,
    text: &TextTables,
    tokenizer: &em_lm::Tokenizer,
    encode: &EncodeCfg,
    matcher: &mut TrainedMatcher,
    warm: &Pass,
    secs: f64,
    min_passes: usize,
) -> Result<BulkRun, String> {
    let clock = Stopwatch::new();
    let mut passes = Vec::new();
    let mut unstable = 0;
    while passes.len() < min_passes || clock.secs() < secs {
        let p = run_pass(text, tokenizer, encode, matcher)?;
        em_obs::info(format!(
            "bulk pass {}: {:.0} pairs/s (ingest {:.3}s, block {:.3}s, encode {:.3}s, forward {:.3}s)",
            passes.len(),
            p.pairs_per_s(),
            p.ingest_s,
            p.block_s,
            p.codec_s,
            p.forward_s
        ));
        let same = p.candidates == warm.candidates
            && p.decisions
                .iter()
                .zip(&warm.decisions)
                .all(|(a, b)| a.proba.to_bits() == b.proba.to_bits() && a.is_match == b.is_match);
        unstable += u64::from(!same);
        passes.push(p);
    }
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    Ok(BulkRun {
        pairs_per_s: passes.iter().map(Pass::pairs_per_s).collect(),
        ingest_s: med(|p| p.ingest_s),
        block_s: med(|p| p.block_s),
        codec_s: med(|p| p.codec_s),
        forward_s: med(|p| p.forward_s),
        candidates: warm.candidates.len(),
        recall: candidate_recall(ds, &warm.candidates),
        decided: passes.len() as u64 * warm.candidates.len() as u64,
        unstable_passes: unstable,
    })
}
