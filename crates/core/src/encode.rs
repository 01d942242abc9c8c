//! Turning a [`GemDataset`] into token-level examples: serialization
//! (§2.2), TF-IDF summarization of long entries (Appendix F), and
//! tokenization. Every downstream model consumes [`EncodedPair`]s.

use em_data::pair::GemDataset;
use em_data::record::Format;
use em_data::serialize::serialize;
use em_data::summarize::TfIdf;
use em_lm::Tokenizer;
use std::sync::Arc;

/// A tokenized candidate pair. The ids are shared: every pair that
/// [`PairCodec::encode`] makes for one record points at that record's one
/// copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedPair {
    /// Token ids of the left record's summary.
    pub ids_a: Arc<[usize]>,
    /// Token ids of the right record's summary.
    pub ids_b: Arc<[usize]>,
}

/// A labeled tokenized pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Example {
    /// The tokenized candidate pair.
    pub pair: EncodedPair,
    /// Gold (or pseudo) label.
    pub label: bool,
}

/// A fully-encoded dataset. The unlabeled pool keeps its gold labels in a
/// *separate* vector so pseudo-label quality can be audited (Table 5)
/// without models ever seeing them.
#[derive(Debug, Clone)]
pub struct EncodedDataset {
    /// The source dataset's name.
    pub name: String,
    /// Low-resource labeled training split.
    pub train: Vec<Example>,
    /// Validation split.
    pub valid: Vec<Example>,
    /// Held-out test split.
    pub test: Vec<Example>,
    /// Unlabeled pool for self-training.
    pub unlabeled: Vec<EncodedPair>,
    /// Gold labels of `unlabeled`, index-aligned; for evaluation only.
    pub unlabeled_gold: Vec<bool>,
}

/// Encoding parameters.
#[derive(Debug, Clone)]
pub struct EncodeCfg {
    /// Token budget per record after summarization.
    pub side_tokens: usize,
    /// Apply TF-IDF summarization to any table whose serializations exceed
    /// the budget (Appendix F, applied uniformly). When false, long entries
    /// are head-truncated instead — the strategy the appendix argues
    /// against; kept for the ablation.
    pub summarize_text: bool,
}

impl Default for EncodeCfg {
    fn default() -> Self {
        EncodeCfg {
            side_tokens: 16,
            summarize_text: true,
        }
    }
}

/// Serialize and (for long textual tables) summarize every record of one
/// table, returning per-record strings.
fn table_texts(
    records: &[em_data::record::Record],
    format: Format,
    cfg: &EncodeCfg,
) -> Vec<String> {
    let raw: Vec<String> = records.iter().map(|r| serialize(r, format)).collect();
    let _ = format;
    let needs_summary = cfg.summarize_text
        && raw
            .iter()
            .any(|s| s.split_whitespace().count() > cfg.side_tokens);
    if needs_summary {
        let tfidf = TfIdf::fit(raw.iter().map(|s| s.as_str()));
        raw.iter()
            .map(|s| tfidf.summarize(s, cfg.side_tokens))
            .collect()
    } else {
        raw
    }
}

/// Per-record token ids for both tables: encodes any `(left, right)`
/// record pair exactly as [`encode_dataset`] would (which goes through
/// this type, so the equivalence holds by construction). The serve path
/// uses it to encode ad-hoc request pairs bit-identically to the offline
/// dataset encoding.
#[derive(Clone)]
pub struct PairCodec {
    left_ids: Vec<Arc<[usize]>>,
    right_ids: Vec<Arc<[usize]>>,
}

impl PairCodec {
    /// Serialize, summarize, and tokenize every record of both tables.
    pub fn build(ds: &GemDataset, tokenizer: &Tokenizer, cfg: &EncodeCfg) -> Self {
        let clip = |mut ids: Vec<usize>| -> Arc<[usize]> {
            ids.truncate(cfg.side_tokens);
            ids.into()
        };
        PairCodec {
            left_ids: table_texts(&ds.left.records, ds.left.format, cfg)
                .iter()
                .map(|t| clip(tokenizer.encode(t)))
                .collect(),
            right_ids: table_texts(&ds.right.records, ds.right.format, cfg)
                .iter()
                .map(|t| clip(tokenizer.encode(t)))
                .collect(),
        }
    }

    /// Records per table, `(left, right)`.
    pub fn sizes(&self) -> (usize, usize) {
        (self.left_ids.len(), self.right_ids.len())
    }

    /// Encode one record pair, sharing each record's ids; `None` when
    /// either index is out of range.
    pub fn encode(&self, left: usize, right: usize) -> Option<EncodedPair> {
        Some(EncodedPair {
            ids_a: self.left_ids.get(left)?.clone(),
            ids_b: self.right_ids.get(right)?.clone(),
        })
    }
}

/// Encode the full dataset. Serialization/summarization/tokenization run
/// once per record, not once per pair.
pub fn encode_dataset(ds: &GemDataset, tokenizer: &Tokenizer, cfg: &EncodeCfg) -> EncodedDataset {
    let codec = PairCodec::build(ds, tokenizer, cfg);
    let enc_pair = |p: em_data::pair::Pair| {
        // lint:allow(unwrap) — GemDataset construction range-checks every
        // pair against its tables; an out-of-range index here is a bug in
        // the dataset builder, not a recoverable input error.
        codec
            .encode(p.left, p.right)
            .expect("dataset pair indexes a missing record")
    };
    let enc_labeled = |ps: &[em_data::pair::LabeledPair]| -> Vec<Example> {
        ps.iter()
            .map(|lp| Example {
                pair: enc_pair(lp.pair),
                label: lp.label,
            })
            .collect()
    };
    EncodedDataset {
        name: ds.name.clone(),
        train: enc_labeled(&ds.train),
        valid: enc_labeled(&ds.valid),
        test: enc_labeled(&ds.test),
        unlabeled: ds.unlabeled.iter().map(|lp| enc_pair(lp.pair)).collect(),
        unlabeled_gold: ds.unlabeled.iter().map(|lp| lp.label).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_data::synth::{build, BenchmarkId, Scale};

    fn encoded(id: BenchmarkId) -> EncodedDataset {
        let ds = build(id, Scale::Quick, 17);
        let corpus: Vec<String> = ds
            .left
            .records
            .iter()
            .map(|r| serialize(r, ds.left.format))
            .chain(
                ds.right
                    .records
                    .iter()
                    .map(|r| serialize(r, ds.right.format)),
            )
            .collect();
        let tok = Tokenizer::fit(corpus.iter().map(|s| s.as_str()), 1);
        encode_dataset(&ds, &tok, &EncodeCfg::default())
    }

    #[test]
    fn pairs_share_their_records_ids() {
        let ds = build(BenchmarkId::RelHeter, Scale::Quick, 17);
        let corpus: Vec<String> = ds
            .left
            .records
            .iter()
            .map(|r| serialize(r, ds.left.format))
            .collect();
        let tok = Tokenizer::fit(corpus.iter().map(|s| s.as_str()), 1);
        let codec = PairCodec::build(&ds, &tok, &EncodeCfg::default());
        let first = codec.encode(3, 5).expect("in range");
        let again = codec.encode(3, 5).expect("in range");
        assert!(Arc::ptr_eq(&first.ids_a, &again.ids_a));
        assert!(Arc::ptr_eq(&first.ids_b, &again.ids_b));
        let other = codec.encode(3, 6).expect("in range");
        assert!(Arc::ptr_eq(&first.ids_a, &other.ids_a));
        assert_eq!(codec.encode(3, ds.right.records.len()), None);
    }

    #[test]
    fn splits_carry_over() {
        let ds = build(BenchmarkId::RelHeter, Scale::Quick, 17);
        let e = encoded(BenchmarkId::RelHeter);
        assert_eq!(e.train.len(), ds.train.len());
        assert_eq!(e.valid.len(), ds.valid.len());
        assert_eq!(e.test.len(), ds.test.len());
        assert_eq!(e.unlabeled.len(), e.unlabeled_gold.len());
    }

    #[test]
    fn sides_respect_token_budget() {
        let e = encoded(BenchmarkId::SemiTextW);
        for ex in e.train.iter().chain(&e.valid).chain(&e.test) {
            assert!(ex.pair.ids_a.len() <= 16);
            assert!(ex.pair.ids_b.len() <= 16);
        }
    }

    #[test]
    fn no_empty_sides() {
        for id in [
            BenchmarkId::RelHeter,
            BenchmarkId::RelText,
            BenchmarkId::SemiHeter,
        ] {
            let e = encoded(id);
            for ex in e.train.iter().chain(&e.test) {
                assert!(!ex.pair.ids_a.is_empty(), "{id:?}: empty left side");
                assert!(!ex.pair.ids_b.is_empty(), "{id:?}: empty right side");
            }
        }
    }

    #[test]
    fn summarization_only_affects_textual_tables() {
        let ds = build(BenchmarkId::SemiTextC, Scale::Quick, 18);
        let corpus: Vec<String> = ds
            .right
            .records
            .iter()
            .map(|r| serialize(r, ds.right.format))
            .collect();
        let tok = Tokenizer::fit(corpus.iter().map(|s| s.as_str()), 1);
        let with = encode_dataset(
            &ds,
            &tok,
            &EncodeCfg {
                summarize_text: true,
                side_tokens: 20,
            },
        );
        let without = encode_dataset(
            &ds,
            &tok,
            &EncodeCfg {
                summarize_text: false,
                side_tokens: 20,
            },
        );
        // Both respect the budget, but summaries pick different tokens than
        // head truncation for at least some records.
        let differs = with
            .test
            .iter()
            .zip(&without.test)
            .any(|(a, b)| a.pair.ids_b != b.pair.ids_b);
        assert!(differs, "summarization had no effect on the textual side");
    }
}
