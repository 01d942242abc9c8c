//! Token-overlap blocking. The paper focuses on the matching step of the
//! classic EM workflow (§2.1) and takes candidate pairs as given; the
//! synthetic benchmark generators use this blocker to produce *hard*
//! negatives — candidate pairs that share tokens yet refer to different
//! entities — mirroring how the Machamp candidates were built.

use crate::record::{Format, Record};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// Tokens of a record's attribute *values*, lowercased. Attribute names and
/// structural tags are excluded — they are schema, not content, and would
/// make every record of a table overlap with every other.
pub fn record_tokens(record: &Record, format: Format) -> HashSet<String> {
    let _ = format; // all formats tokenize values the same way
    let mut out = HashSet::new();
    for (_, v) in &record.attrs {
        for t in v.to_text().split_whitespace() {
            out.insert(t.to_lowercase());
        }
    }
    out
}

/// Jaccard similarity between two token sets.
pub fn jaccard(a: &HashSet<String>, b: &HashSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// An inverted token index over one side of a dataset.
pub struct TokenIndex {
    postings: HashMap<String, Vec<usize>>,
    tokens: Vec<HashSet<String>>,
}

// (fields private; constructor below)

impl TokenIndex {
    /// Index the token sets of every record.
    pub fn build(records: &[Record], format: Format) -> Self {
        let mut postings: HashMap<String, Vec<usize>> = HashMap::new();
        let mut tokens = Vec::with_capacity(records.len());
        for (i, r) in records.iter().enumerate() {
            let toks = record_tokens(r, format);
            for t in &toks {
                postings.entry(t.clone()).or_default().push(i);
            }
            tokens.push(toks);
        }
        TokenIndex { postings, tokens }
    }

    /// `(index, overlap)` of the records sharing at least
    /// `max(min_overlap, 1)` tokens with the query set, excluding `skip`
    /// (a `skip` outside the index skips nothing), ranked by overlap
    /// descending, then index ascending.
    ///
    /// One count slot per indexed record: the survivors come out of the
    /// scan in index order, so a stable sort on the count alone gives the
    /// ranking (DESIGN §19).
    pub fn candidates(
        &self,
        query: &HashSet<String>,
        min_overlap: usize,
        skip: Option<usize>,
    ) -> Vec<(usize, usize)> {
        let mut counts = vec![0usize; self.tokens.len()];
        for t in query {
            if let Some(ids) = self.postings.get(t) {
                for &i in ids {
                    counts[i] += 1;
                }
            }
        }
        if let Some(c) = skip.and_then(|i| counts.get_mut(i)) {
            *c = 0;
        }
        let floor = min_overlap.max(1);
        let mut out: Vec<(usize, usize)> = counts
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c >= floor)
            .collect();
        out.sort_by_key(|&(_, c)| Reverse(c));
        out
    }

    /// The indexed token set of record `i`.
    pub fn tokens_of(&self, i: usize) -> &HashSet<String> {
        &self.tokens[i]
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Quality report of a blocking configuration against gold matches
/// (the paper focuses on matching and cites Thirumuruganathan et al. for
/// blocking; this evaluator closes the loop for end-to-end users).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingReport {
    /// Fraction of gold matched pairs surviving blocking.
    pub recall: f64,
    /// Total candidate pairs emitted.
    pub candidates: usize,
    /// 1 − candidates / (|L|·|R|): how much of the quadratic space blocking
    /// removed.
    pub reduction_ratio: f64,
}

/// Evaluate top-`k` token-overlap blocking on a dataset: how many of the
/// gold matches (across every split) survive, and at what candidate cost.
pub fn evaluate_blocking(
    ds: &crate::pair::GemDataset,
    k: usize,
    min_overlap: usize,
) -> BlockingReport {
    let _span = em_obs::span_with(em_obs::names::SPAN_BLOCK, ds.name.clone());
    let index = TokenIndex::build(&ds.right.records, ds.right.format);
    let mut survivors: HashSet<(usize, usize)> = HashSet::new();
    let mut candidates = 0usize;
    for (i, r) in ds.left.records.iter().enumerate() {
        let q = record_tokens(r, ds.left.format);
        for (j, _) in index.candidates(&q, min_overlap, None).into_iter().take(k) {
            survivors.insert((i, j));
            candidates += 1;
        }
    }
    em_obs::block(candidates as u64);
    let gold: Vec<(usize, usize)> = ds
        .train
        .iter()
        .chain(&ds.valid)
        .chain(&ds.test)
        .chain(&ds.unlabeled)
        .filter(|lp| lp.label)
        .map(|lp| (lp.pair.left, lp.pair.right))
        .collect();
    let hit = gold.iter().filter(|p| survivors.contains(p)).count();
    let recall = if gold.is_empty() {
        1.0
    } else {
        hit as f64 / gold.len() as f64
    };
    let total = (ds.left.records.len() * ds.right.records.len()).max(1);
    BlockingReport {
        recall,
        candidates,
        reduction_ratio: 1.0 - candidates as f64 / total as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Value;

    fn rec(text: &str) -> Record {
        Record::new().with("name", Value::Text(text.into()))
    }

    #[test]
    fn tokens_exclude_tags_and_lowercase() {
        let t = record_tokens(&rec("Blue Bottle Coffee"), Format::Relational);
        assert!(t.contains("blue"));
        assert!(t.contains("coffee"));
        assert!(!t.contains("[COL]"));
        assert!(!t.contains("[col]"));
    }

    #[test]
    fn jaccard_bounds() {
        let a: HashSet<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let b: HashSet<String> = ["y", "z"].iter().map(|s| s.to_string()).collect();
        let j = jaccard(&a, &b);
        assert!(j > 0.0 && j < 1.0);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&HashSet::new(), &HashSet::new()), 0.0);
    }

    #[test]
    fn index_finds_overlapping_records() {
        let records = vec![rec("alpha beta"), rec("beta gamma"), rec("delta epsilon")];
        let idx = TokenIndex::build(&records, Format::Relational);
        let query = record_tokens(&rec("beta zeta"), Format::Relational);
        let cands = idx.candidates(&query, 1, None);
        let ids: Vec<usize> = cands.iter().map(|&(i, _)| i).collect();
        assert!(ids.contains(&0));
        assert!(ids.contains(&1));
        assert!(!ids.contains(&2));
    }

    #[test]
    fn skip_excludes_self() {
        let records = vec![rec("same tokens"), rec("same tokens")];
        let idx = TokenIndex::build(&records, Format::Relational);
        let cands = idx.candidates(idx.tokens_of(0), 1, Some(0));
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].0, 1);
    }

    #[test]
    fn blocking_report_on_a_benchmark() {
        let ds = crate::synth::build(
            crate::synth::BenchmarkId::RelHeter,
            crate::synth::Scale::Quick,
            7,
        );
        let r = evaluate_blocking(&ds, 10, 2);
        // Positives share many tokens by construction: a top-10 blocker
        // must keep most of them while pruning most of the space.
        assert!(r.recall > 0.8, "blocking recall too low: {}", r.recall);
        assert!(
            r.reduction_ratio > 0.8,
            "no reduction: {}",
            r.reduction_ratio
        );
        assert!(r.candidates > 0);
    }

    #[test]
    fn wider_k_never_reduces_recall() {
        let ds = crate::synth::build(
            crate::synth::BenchmarkId::SemiHeter,
            crate::synth::Scale::Quick,
            8,
        );
        let narrow = evaluate_blocking(&ds, 2, 2);
        let wide = evaluate_blocking(&ds, 20, 2);
        assert!(wide.recall >= narrow.recall);
        assert!(wide.candidates >= narrow.candidates);
    }

    /// FNV-1a 64 over a stream of integers, each as 8 little-endian bytes.
    fn fnv(values: impl IntoIterator<Item = usize>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in values {
            for b in (v as u64).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn semi_heter_full_candidates_and_splits_keep_their_hashes() {
        use crate::synth::{build, BenchmarkId, Scale};
        let ds = build(BenchmarkId::SemiHeter, Scale::Full, 42);
        let index = TokenIndex::build(&ds.right.records, ds.right.format);
        let candidates = ds.left.records.iter().flat_map(|r| {
            let c = index.candidates(&record_tokens(r, ds.left.format), 2, None);
            std::iter::once(c.len()).chain(c.into_iter().flat_map(|(j, n)| [j, n]))
        });
        let splits = [&ds.train, &ds.valid, &ds.test, &ds.unlabeled]
            .into_iter()
            .flat_map(|s| {
                std::iter::once(s.len()).chain(
                    s.iter()
                        .flat_map(|lp| [lp.pair.left, lp.pair.right, usize::from(lp.label)]),
                )
            });
        // Recorded with the hash-map blocker the dense count replaced.
        assert_eq!(
            (fnv(candidates), fnv(splits)),
            (0x7ef2_7d42_3d59_208a, 0xf286_20ff_c8fe_31d3)
        );
    }

    /// The blocker before dense counts: a hash map of overlaps and a
    /// comparison sort on (count descending, index ascending). The oracle
    /// of [`TokenIndex::candidates`].
    fn hash_map_candidates(
        index: &TokenIndex,
        query: &HashSet<String>,
        min_overlap: usize,
        skip: Option<usize>,
    ) -> Vec<(usize, usize)> {
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for t in query {
            if let Some(ids) = index.postings.get(t) {
                for &i in ids {
                    if Some(i) != skip {
                        *counts.entry(i).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut out: Vec<(usize, usize)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_overlap)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Small indexes over a six-letter vocabulary, so records share
        /// tokens and overlaps tie; queries may be empty or hold letters
        /// no record has.
        #[test]
        fn dense_counts_match_the_hash_map_oracle(
            words in proptest::collection::vec(proptest::collection::vec("[a-f]", 0..5), 0..9),
            query in proptest::collection::vec("[a-g]", 0..6),
        ) {
            let records: Vec<Record> = words.iter().map(|w| rec(&w.join(" "))).collect();
            let index = TokenIndex::build(&records, Format::Relational);
            let query = record_tokens(&rec(&query.join(" ")), Format::Relational);
            let skips = std::iter::once(None).chain((0..records.len() + 2).map(Some));
            for skip in skips {
                for min_overlap in [0, 1, 2, 5] {
                    let (got, want) = (
                        index.candidates(&query, min_overlap, skip),
                        hash_map_candidates(&index, &query, min_overlap, skip),
                    );
                    proptest::prop_assert!(
                        got == want,
                        "records {words:?}, query {query:?}, min_overlap {min_overlap}, \
                         skip {skip:?}: {got:?} != {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranking_is_by_overlap() {
        let records = vec![rec("a b c d"), rec("a b"), rec("a")];
        let idx = TokenIndex::build(&records, Format::Relational);
        let query = record_tokens(&rec("a b c d"), Format::Relational);
        let cands = idx.candidates(&query, 1, None);
        assert_eq!(cands[0].0, 0);
        assert!(cands[0].1 > cands[1].1);
    }
}
