//! Attribute-level attribution for match decisions: leave-one-attribute-out
//! importance. Appendix C's error analysis argues digit attributes
//! (ISBN, dates) are decisive but under-used by LMs — this module measures
//! that per pair: how much does P(match) move when one attribute is
//! removed from a side?

use crate::encode::{EncodeCfg, EncodedPair};
use crate::trainer::TunableMatcher;
use em_data::record::{Format, Record};
use em_data::serialize::serialize;
use em_data::summarize::TfIdf;
use em_lm::Tokenizer;
use std::sync::Arc;

/// Importance of one attribute for one pair's decision.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeImportance {
    /// "left:{name}" or "right:{name}".
    pub attribute: String,
    /// P(match) with the attribute present minus with it removed.
    /// Positive = the attribute pushes toward "match".
    pub delta: f32,
}

/// Encode one record side under the pipeline's rules.
fn encode_side(
    record: &Record,
    format: Format,
    tokenizer: &Tokenizer,
    cfg: &EncodeCfg,
) -> Arc<[usize]> {
    let raw = serialize(record, format);
    let text = if cfg.summarize_text && raw.split_whitespace().count() > cfg.side_tokens {
        // Single-document TF-IDF degenerates to TF ordering, which is still
        // a reasonable per-record summary for attribution purposes.
        TfIdf::fit([raw.as_str()]).summarize(&raw, cfg.side_tokens)
    } else {
        raw
    };
    let mut ids = tokenizer.encode(&text);
    ids.truncate(cfg.side_tokens);
    ids.into()
}

fn without_attr(record: &Record, name: &str) -> Record {
    Record {
        attrs: record
            .attrs
            .iter()
            .filter(|(k, _)| k != name)
            .cloned()
            .collect(),
    }
}

/// Leave-one-attribute-out importances for a candidate pair, sorted by
/// |delta| descending.
///
/// ```no_run
/// use promptem::explain::attribute_importance;
/// use promptem::model::{PromptEmModel, PromptOpts};
/// use promptem::pipeline::{pretrain_backbone, PromptEmConfig};
/// use em_data::synth::{build, BenchmarkId, Scale};
///
/// let ds = build(BenchmarkId::SemiHeter, Scale::Quick, 1);
/// let cfg = PromptEmConfig::default();
/// let backbone = pretrain_backbone(&ds, &cfg);
/// let mut model = PromptEmModel::new(backbone.clone(), PromptOpts::default(), 1);
/// let pair = ds.test[0].pair;
/// let (l, r) = ds.records(pair);
/// for imp in attribute_importance(
///     &mut model, &backbone.tokenizer,
///     l, ds.left.format, r, ds.right.format, &cfg.encode,
/// ) {
///     println!("{}: {:+.3}", imp.attribute, imp.delta);
/// }
/// ```
#[allow(clippy::too_many_arguments)]
pub fn attribute_importance<M: TunableMatcher>(
    model: &mut M,
    tokenizer: &Tokenizer,
    left: &Record,
    left_format: Format,
    right: &Record,
    right_format: Format,
    cfg: &EncodeCfg,
) -> Vec<AttributeImportance> {
    let base_pair = EncodedPair {
        ids_a: encode_side(left, left_format, tokenizer, cfg),
        ids_b: encode_side(right, right_format, tokenizer, cfg),
    };
    // Build every ablated variant, then score them in one batch.
    let mut names = Vec::new();
    let mut variants = vec![base_pair.clone()];
    for (k, _) in &left.attrs {
        names.push(format!("left:{k}"));
        variants.push(EncodedPair {
            ids_a: encode_side(&without_attr(left, k), left_format, tokenizer, cfg),
            ids_b: base_pair.ids_b.clone(),
        });
    }
    for (k, _) in &right.attrs {
        names.push(format!("right:{k}"));
        variants.push(EncodedPair {
            ids_a: base_pair.ids_a.clone(),
            ids_b: encode_side(&without_attr(right, k), right_format, tokenizer, cfg),
        });
    }
    let probs = model.predict_proba(&variants);
    let base = probs[0];
    let mut out: Vec<AttributeImportance> = names
        .into_iter()
        .zip(probs.into_iter().skip(1))
        .map(|(attribute, p)| AttributeImportance {
            attribute,
            delta: base - p,
        })
        .collect();
    out.sort_by(|a, b| {
        b.delta
            .abs()
            .partial_cmp(&a.delta.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{PruneCfg, TrainCfg, TrainReport};
    use em_data::record::Value;

    /// Stub model whose match probability is the token-id Jaccard overlap of
    /// the pair — so removing a shared attribute must reduce P(match).
    struct OverlapStub;

    impl TunableMatcher for OverlapStub {
        fn fresh(&self, _: u64) -> Self {
            OverlapStub
        }
        fn train(
            &mut self,
            _: &[crate::encode::Example],
            _: &[crate::encode::Example],
            _: &TrainCfg,
            _: Option<&PruneCfg>,
        ) -> TrainReport {
            Default::default()
        }
        fn predict_proba(&mut self, pairs: &[EncodedPair]) -> Vec<f32> {
            pairs
                .iter()
                .map(|p| {
                    let a: std::collections::HashSet<_> = p.ids_a.iter().collect();
                    let b: std::collections::HashSet<_> = p.ids_b.iter().collect();
                    if a.is_empty() && b.is_empty() {
                        return 0.0;
                    }
                    a.intersection(&b).count() as f32 / a.union(&b).count().max(1) as f32
                })
                .collect()
        }
        fn stochastic_proba(&mut self, pairs: &[EncodedPair], passes: usize) -> Vec<Vec<f32>> {
            (0..passes).map(|_| self.predict_proba(pairs)).collect()
        }
        fn set_threshold(&mut self, _: f32) {}
        fn embed(&mut self, pairs: &[EncodedPair]) -> Vec<Vec<f32>> {
            pairs.iter().map(|_| vec![0.0]).collect()
        }
    }

    fn tokenizer() -> Tokenizer {
        Tokenizer::fit(
            ["[COL] name [VAL] blue cafe [COL] city [VAL] boston [COL] isbn [VAL] 1234"],
            1,
        )
    }

    #[test]
    fn shared_attribute_has_positive_importance() {
        let tok = tokenizer();
        let left = Record::new()
            .with("name", Value::Text("blue cafe".into()))
            .with("city", Value::Text("boston".into()));
        let right = Record::new()
            .with("name", Value::Text("blue cafe".into()))
            .with("city", Value::Text("austin".into()));
        let mut model = OverlapStub;
        let imp = attribute_importance(
            &mut model,
            &tok,
            &left,
            Format::Relational,
            &right,
            Format::Relational,
            &EncodeCfg {
                summarize_text: false,
                side_tokens: 32,
            },
        );
        let name_imp = imp.iter().find(|i| i.attribute == "left:name").unwrap();
        assert!(
            name_imp.delta > 0.0,
            "removing the shared name should drop P(match)"
        );
        // The ranking puts an informative attribute first.
        assert!(imp[0].delta.abs() >= imp.last().unwrap().delta.abs());
    }

    #[test]
    fn disagreeing_attribute_has_negative_or_small_importance() {
        let tok = tokenizer();
        let left = Record::new()
            .with("name", Value::Text("blue cafe".into()))
            .with("isbn", Value::Text("1234".into()));
        let right = Record::new()
            .with("name", Value::Text("blue cafe".into()))
            .with("isbn", Value::Text("9999".into()));
        let mut model = OverlapStub;
        let imp = attribute_importance(
            &mut model,
            &tok,
            &left,
            Format::Relational,
            &right,
            Format::Relational,
            &EncodeCfg {
                summarize_text: false,
                side_tokens: 32,
            },
        );
        // The agreeing name contributes far more to the match score than the
        // disagreeing ISBN (whose only shared token is the attribute name
        // itself), so its leave-out delta must dominate.
        let isbn = imp.iter().find(|i| i.attribute == "left:isbn").unwrap();
        let name = imp.iter().find(|i| i.attribute == "left:name").unwrap();
        assert!(
            name.delta > isbn.delta,
            "agreeing attribute should matter more: name {} vs isbn {}",
            name.delta,
            isbn.delta
        );
    }

    #[test]
    fn covers_every_attribute_of_both_sides() {
        let tok = tokenizer();
        let left = Record::new()
            .with("a", Value::Text("x".into()))
            .with("b", Value::Text("y".into()));
        let right = Record::new().with("c", Value::Text("z".into()));
        let mut model = OverlapStub;
        let imp = attribute_importance(
            &mut model,
            &tok,
            &left,
            Format::Relational,
            &right,
            Format::Relational,
            &EncodeCfg::default(),
        );
        assert_eq!(imp.len(), 3);
        let names: Vec<&str> = imp.iter().map(|i| i.attribute.as_str()).collect();
        for n in ["left:a", "left:b", "right:c"] {
            assert!(names.contains(&n), "{n} missing");
        }
    }
}
