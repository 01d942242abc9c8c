//! Per-layer analysis of a traced run: the span tree and `op_stats` rows
//! the program emits, captured in memory, folded into self times, span
//! totals and per-op sums, and written out as a table when the run ends.

use em_obs::{Event, EventKind};
use std::collections::{BTreeMap, HashMap};

/// One span, reassembled from its open and close events.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: Option<u64>,
    wall_us: u64,
}

/// Accumulated `op_stats` for one tape op.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpRow {
    /// Forward calls.
    pub fwd_calls: u64,
    /// Forward wall time, µs.
    pub fwd_us: u64,
    /// Backward calls.
    pub bwd_calls: u64,
    /// Backward wall time, µs.
    pub bwd_us: u64,
}

/// Every event captured in a traced run, in emission order.
#[derive(Debug, Default)]
pub struct Trace {
    events: Vec<Event>,
}

impl Trace {
    /// Append the events of one captured section.
    pub fn extend(&mut self, events: Vec<Event>) {
        self.events.extend(events);
    }

    /// The events, for writing out.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    fn spans(&self) -> HashMap<u64, Span> {
        let mut spans: HashMap<u64, Span> = HashMap::new();
        for e in &self.events {
            match &e.kind {
                EventKind::SpanOpen {
                    id, parent, name, ..
                } => {
                    spans.insert(
                        *id,
                        Span {
                            name: name.clone(),
                            parent: *parent,
                            wall_us: 0,
                        },
                    );
                }
                EventKind::SpanClose { id, wall_us, .. } => {
                    if let Some(s) = spans.get_mut(id) {
                        s.wall_us = *wall_us;
                    }
                }
                _ => {}
            }
        }
        spans
    }

    /// Whether span `id` or one of its ancestors is named `name`.
    fn within(spans: &HashMap<u64, Span>, mut id: Option<u64>, name: &str) -> bool {
        while let Some(s) = id.and_then(|i| spans.get(&i)) {
            if s.name == name {
                return true;
            }
            id = s.parent;
        }
        false
    }

    /// Total seconds of every span named `name`.
    pub fn span_secs(&self, name: &str) -> f64 {
        self.spans()
            .values()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.wall_us as f64 / 1e6)
    }

    /// Spans named `name` nested (at any depth) under a span named `under`.
    pub fn span_count_within(&self, name: &str, under: &str) -> usize {
        let spans = self.spans();
        spans
            .values()
            .filter(|s| s.name == name && Self::within(&spans, s.parent, under))
            .count()
    }

    /// Optimizer steps of the epochs that ran inside a span named `under`.
    pub fn batches_within(&self, under: &str) -> u64 {
        let spans = self.spans();
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::EpochSummary { batches, .. } if Self::within(&spans, e.span, under) => {
                    Some(batches)
                }
                _ => None,
            })
            .sum()
    }

    /// Backbone pretraining steps.
    pub fn pretrain_steps(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PretrainStep { .. }))
            .count() as u64
    }

    /// Per-op sums over every `op_stats` row.
    pub fn ops(&self) -> BTreeMap<String, OpRow> {
        let mut out: BTreeMap<String, OpRow> = BTreeMap::new();
        for e in &self.events {
            if let EventKind::OpStats {
                op,
                fwd_calls,
                fwd_us,
                bwd_calls,
                bwd_us,
                ..
            } = &e.kind
            {
                let row = out.entry(op.clone()).or_default();
                row.fwd_calls += fwd_calls;
                row.fwd_us += fwd_us;
                row.bwd_calls += bwd_calls;
                row.bwd_us += bwd_us;
            }
        }
        out
    }

    /// `(name, calls, total µs, self µs)` per span name, largest self time
    /// first. Self time is a span's wall time minus its children's.
    pub fn self_times(&self) -> Vec<(String, u64, u64, u64)> {
        let spans = self.spans();
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for s in spans.values() {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.wall_us;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (id, s) in &spans {
            let row = by_name.entry(&s.name).or_default();
            row.0 += 1;
            row.1 += s.wall_us;
            row.2 += s
                .wall_us
                .saturating_sub(child_us.get(id).copied().unwrap_or(0));
        }
        let mut rows: Vec<(String, u64, u64, u64)> = by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n.to_string(), c, t, s))
            .collect();
        rows.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    /// The per-layer table: self time per span, then per-op rows.
    pub fn table(&self, title: &str, overhead_frac: f64) -> String {
        let mut out = format!("per-layer table — {title}\n");
        out.push_str(&format!(
            "{:<22} {:>7} {:>12} {:>12}\n",
            "span", "calls", "total_ms", "self_ms"
        ));
        for (name, calls, total, own) in self.self_times() {
            out.push_str(&format!(
                "{name:<22} {calls:>7} {:>12.3} {:>12.3}\n",
                total as f64 / 1e3,
                own as f64 / 1e3
            ));
        }
        out.push_str(&format!(
            "{:<22} {:>10} {:>12} {:>10} {:>12}\n",
            "op", "fwd_calls", "fwd_ms", "bwd_calls", "bwd_ms"
        ));
        let mut ops: Vec<(String, OpRow)> = self.ops().into_iter().collect();
        ops.sort_by_key(|(_, r)| std::cmp::Reverse(r.fwd_us + r.bwd_us));
        for (op, r) in ops {
            out.push_str(&format!(
                "{op:<22} {:>10} {:>12.3} {:>10} {:>12.3}\n",
                r.fwd_calls,
                r.fwd_us as f64 / 1e3,
                r.bwd_calls,
                r.bwd_us as f64 / 1e3
            ));
        }
        out.push_str(&format!("trace.overhead_frac {overhead_frac:.4}\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, span: Option<u64>, kind: EventKind) -> Event {
        Event {
            seq,
            seed: 0,
            t_us: seq,
            span,
            kind,
        }
    }

    fn open(id: u64, parent: Option<u64>, name: &str) -> Event {
        ev(
            id,
            parent,
            EventKind::SpanOpen {
                id,
                parent,
                name: name.into(),
                detail: None,
            },
        )
    }

    fn close(id: u64, name: &str, wall_us: u64) -> Event {
        ev(
            100 + id,
            Some(id),
            EventKind::SpanClose {
                id,
                name: name.into(),
                wall_us,
                heap_delta: 0,
                heap_peak: 0,
            },
        )
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Trace::default();
        t.extend(vec![
            open(1, None, "tune"),
            open(2, Some(1), "teacher"),
            close(2, "teacher", 300),
            open(3, Some(1), "pseudo_score"),
            open(4, Some(3), "pseudo_pass"),
            close(4, "pseudo_pass", 50),
            open(5, Some(3), "pseudo_pass"),
            close(5, "pseudo_pass", 60),
            close(3, "pseudo_score", 200),
            close(1, "tune", 1000),
        ]);
        let rows = t.self_times();
        let get = |n: &str| rows.iter().find(|r| r.0 == n).cloned().unwrap();
        assert_eq!(get("tune"), ("tune".into(), 1, 1000, 500));
        assert_eq!(get("pseudo_score"), ("pseudo_score".into(), 1, 200, 90));
        assert_eq!(get("pseudo_pass"), ("pseudo_pass".into(), 2, 110, 110));
        assert_eq!(rows[0].0, "tune");
        assert_eq!(t.span_count_within("pseudo_pass", "pseudo_score"), 2);
        assert_eq!(t.span_count_within("pseudo_pass", "teacher"), 0);
        assert!((t.span_secs("pseudo_pass") - 110e-6).abs() < 1e-12);
    }

    #[test]
    fn ops_and_batches_accumulate() {
        let op = |fwd_us| EventKind::OpStats {
            op: "matmul".into(),
            fwd_calls: 2,
            fwd_us,
            bwd_calls: 1,
            bwd_us: 5,
            elems: 0,
            bytes: 0,
        };
        let epoch = |batches| EventKind::EpochSummary {
            epoch: 0,
            train_loss: 0.0,
            valid_f1: None,
            threshold: None,
            examples: 0,
            batches,
            wall_us: 0,
        };
        let mut t = Trace::default();
        t.extend(vec![
            open(1, None, "pretrain"),
            ev(2, Some(1), epoch(7)),
            close(1, "pretrain", 10),
            open(3, None, "tune"),
            ev(4, Some(3), epoch(4)),
            ev(5, Some(3), op(10)),
            ev(6, None, op(20)),
            close(3, "tune", 10),
        ]);
        assert_eq!(t.batches_within("tune"), 4);
        let ops = t.ops();
        assert_eq!(
            ops["matmul"],
            OpRow {
                fwd_calls: 4,
                fwd_us: 30,
                bwd_calls: 2,
                bwd_us: 10
            }
        );
        assert!(t.table("x", 0.01).contains("matmul"));
    }
}
