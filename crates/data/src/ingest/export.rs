//! Export of tables and datasets — the inverse of ingestion. Relational
//! tables become CSV (with a unified header across records), semi-structured
//! tables become JSON-Lines, textual tables become plain text; labeled
//! splits export as `left,right,label` CSV.

use crate::pair::LabeledPair;
use crate::record::{Format, Record, Table, Value};

/// Render a value as JSON.
pub fn value_to_json(v: &Value) -> String {
    match v {
        Value::Text(s) => json_string(s),
        Value::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Value::List(items) => {
            let inner: Vec<String> = items.iter().map(value_to_json).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Nested(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), value_to_json(v)))
                .collect();
            format!("{{{}}}", inner.join(", "))
        }
        Value::Null => "null".to_string(),
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    em_obs::json::push_str(&mut out, s);
    out
}

/// One record as a JSON object line.
pub fn record_to_json(r: &Record) -> String {
    let fields: Vec<String> = r
        .attrs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), value_to_json(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn csv_quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Export a table body in its natural format: CSV for relational (header =
/// union of attribute names in first-seen order), JSONL for semi-structured,
/// plain lines for textual.
pub fn table_to_string(t: &Table) -> String {
    match t.format {
        Format::Relational => {
            let mut header: Vec<String> = Vec::new();
            for r in &t.records {
                for (k, _) in &r.attrs {
                    if !header.contains(k) {
                        header.push(k.clone());
                    }
                }
            }
            let mut out = header
                .iter()
                .map(|h| csv_quote(h))
                .collect::<Vec<_>>()
                .join(",");
            out.push('\n');
            for r in &t.records {
                let row: Vec<String> = header
                    .iter()
                    .map(|h| {
                        r.get(h)
                            .map(|v| csv_quote(&v.to_text()))
                            .unwrap_or_default()
                    })
                    .collect();
                out.push_str(&row.join(","));
                out.push('\n');
            }
            out
        }
        Format::SemiStructured => {
            let mut out = String::new();
            for r in &t.records {
                out.push_str(&record_to_json(r));
                out.push('\n');
            }
            out
        }
        Format::Textual => {
            let mut out = String::new();
            for r in &t.records {
                out.push_str(
                    &r.attrs
                        .iter()
                        .map(|(_, v)| v.to_text())
                        .collect::<Vec<_>>()
                        .join(" "),
                );
                out.push('\n');
            }
            out
        }
    }
}

/// Export labeled pairs as `left,right,label` CSV.
pub fn labels_to_csv(pairs: &[LabeledPair]) -> String {
    let mut out = String::from("left,right,label\n");
    for lp in pairs {
        out.push_str(&format!(
            "{},{},{}\n",
            lp.pair.left,
            lp.pair.right,
            u8::from(lp.label)
        ));
    }
    out
}

/// The natural file extension for a table's format.
pub fn extension_for(format: Format) -> &'static str {
    match format {
        Format::Relational => "csv",
        Format::SemiStructured => "jsonl",
        Format::Textual => "txt",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{records_from_csv, records_from_jsonl};
    use crate::pair::Pair;

    #[test]
    fn relational_roundtrip_through_csv() {
        let mut t = Table::new("x", Format::Relational);
        t.records.push(
            Record::new()
                .with("name", Value::Text("blue, cafe".into()))
                .with("year", Value::Number(2003.0)),
        );
        t.records.push(
            Record::new()
                .with("name", Value::Text("he said \"hi\"".into()))
                .with("year", Value::Number(1999.0)),
        );
        let body = table_to_string(&t);
        let parsed = records_from_csv(&body).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[0].get("name"),
            Some(&Value::Text("blue, cafe".into()))
        );
        assert_eq!(parsed[1].get("year"), Some(&Value::Number(1999.0)));
    }

    #[test]
    fn semi_roundtrip_through_jsonl() {
        let mut t = Table::new("x", Format::SemiStructured);
        t.records.push(
            Record::new()
                .with("title", Value::Text("a \"quoted\" title".into()))
                .with("authors", Value::List(vec![Value::Text("x y".into())]))
                .with(
                    "pub",
                    Value::Nested(vec![("venue".into(), Value::Text("vldb".into()))]),
                ),
        );
        let body = table_to_string(&t);
        let parsed = records_from_jsonl(&body).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(
            parsed[0].get("title"),
            Some(&Value::Text("a \"quoted\" title".into()))
        );
        match parsed[0].get("pub") {
            Some(Value::Nested(f)) => assert_eq!(f[0].0, "venue"),
            other => panic!("nested lost: {other:?}"),
        }
    }

    #[test]
    fn textual_export_is_one_line_per_record() {
        let mut t = Table::new("x", Format::Textual);
        t.records.push(Record::textual("first doc"));
        t.records.push(Record::textual("second doc"));
        assert_eq!(table_to_string(&t), "first doc\nsecond doc\n");
    }

    #[test]
    fn labels_csv_shape() {
        let pairs = vec![
            LabeledPair {
                pair: Pair { left: 0, right: 3 },
                label: true,
            },
            LabeledPair {
                pair: Pair { left: 1, right: 2 },
                label: false,
            },
        ];
        assert_eq!(labels_to_csv(&pairs), "left,right,label\n0,3,1\n1,2,0\n");
    }

    #[test]
    fn benchmark_exports_and_reimports() {
        let ds = crate::synth::build(
            crate::synth::BenchmarkId::SemiHomo,
            crate::synth::Scale::Quick,
            12,
        );
        let left_body = table_to_string(&ds.left);
        let reparsed = records_from_jsonl(&left_body).unwrap();
        assert_eq!(reparsed.len(), ds.left.len());
    }
}
