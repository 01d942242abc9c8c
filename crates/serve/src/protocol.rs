//! The wire protocol: one flat JSON object per line, both directions.
//!
//! The schema is deliberately flat (scalars plus number arrays) so both
//! sides use `em_obs::json` — the writer and reader of the trace itself —
//! instead of growing a second JSON dialect.
//!
//! Requests:
//!
//! ```json
//! {"op":"match","id":"r1","left":[0,2],"right":[1,3],"deadline_ms":500}
//! {"op":"ping","id":"p1"}
//! {"op":"stats","id":"s1"}
//! {"op":"shutdown","id":"q1"}
//! ```
//!
//! Responses carry the request `id` plus an `"ok"` flag; failures name a
//! typed `"error"` (`"rejected"`, `"deadline_exceeded"`, `"duplicate_id"`,
//! `"failed"`, `"bad_request"`). Parsing is total: torn or invalid lines
//! return `Err`, never panic.

use em_obs::json::{parse_flat_object, FlatObject, JsonVal, ObjectWriter};

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Score `(left, right)` record-index pairs against the served model.
    Match {
        /// Caller-chosen request id, echoed on the response. Ids must be
        /// unique per connection; reuse is answered with `duplicate_id`.
        id: String,
        /// Record index pairs `(left table, right table)`.
        pairs: Vec<(u32, u32)>,
        /// Optional per-request deadline in milliseconds from admission.
        deadline_ms: Option<u64>,
    },
    /// Liveness probe.
    Ping {
        /// Request id, echoed back.
        id: String,
    },
    /// Counter snapshot.
    Stats {
        /// Request id, echoed back.
        id: String,
    },
    /// Graceful drain: stop admitting, finish in-flight work, then exit.
    Shutdown {
        /// Request id, echoed back on the final `Drained` response.
        id: String,
    },
}

/// Server counter snapshot carried by [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsBody {
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests answered with a match result.
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Requests answered `failed` or `deadline_exceeded`.
    pub failed: u64,
    /// Worker restarts performed by the supervisor.
    pub restarts: u64,
}

/// A server-to-client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Scores for every pair of the request, in request order.
    Matched {
        /// The request id.
        id: String,
        /// Match probability per pair.
        proba: Vec<f32>,
        /// Thresholded decision per pair.
        decision: Vec<bool>,
    },
    /// Shed by admission control; safe to retry after the hinted delay.
    Rejected {
        /// The request id.
        id: String,
        /// Why admission refused it (`queue_full`, `overloaded`,
        /// `draining`, or an injected fault).
        reason: String,
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The request's deadline passed before a worker could serve it.
    DeadlineExceeded {
        /// The request id.
        id: String,
    },
    /// A request id was reused on the same connection.
    Duplicate {
        /// The offending request id.
        id: String,
    },
    /// Terminal failure: the scorer errored, or the request was lost to
    /// a crashed worker twice (replays happen at most once).
    Failed {
        /// The request id.
        id: String,
        /// What went wrong.
        reason: String,
    },
    /// The request line did not parse or failed validation.
    BadRequest {
        /// The request id when one could be recovered, else empty.
        id: String,
        /// The parse or validation error.
        reason: String,
    },
    /// Reply to [`Request::Ping`].
    Pong {
        /// The request id.
        id: String,
    },
    /// Reply to [`Request::Stats`].
    Stats {
        /// The request id.
        id: String,
        /// Counter snapshot.
        body: StatsBody,
    },
    /// Final reply to [`Request::Shutdown`], sent once the mailbox and
    /// all in-flight work have drained.
    Drained {
        /// The request id.
        id: String,
        /// Total requests completed over the server's lifetime.
        completed: u64,
    },
}

/// Best-effort id recovery from a line that may not fully parse, so a
/// `bad_request` reply can still name the request it answers.
pub fn line_id(line: &str) -> String {
    parse_flat_object(line)
        .ok()
        .and_then(|obj| {
            obj.into_iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("id", JsonVal::Str(s)) => Some(s),
                _ => None,
            })
        })
        .unwrap_or_default()
}

impl Request {
    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let (op, id) = match self {
            Request::Match { id, .. } => ("match", id),
            Request::Ping { id } => ("ping", id),
            Request::Stats { id } => ("stats", id),
            Request::Shutdown { id } => ("shutdown", id),
        };
        let mut w = ObjectWriter::new(false);
        w.field("op", op).field("id", id);
        if let Request::Match {
            pairs, deadline_ms, ..
        } = self
        {
            w.array("left", pairs.iter().map(|p| u64::from(p.0)))
                .array("right", pairs.iter().map(|p| u64::from(p.1)));
            if let Some(d) = deadline_ms {
                w.field("deadline_ms", d);
            }
        }
        w.finish()
    }

    /// Parse one request line. Total: every malformed input is an `Err`.
    pub fn parse(line: &str) -> Result<Request, String> {
        let f = FlatObject::parse(line)?;
        let op = f.str("op")?;
        let id = f.str("id")?;
        if id.is_empty() {
            return Err("empty request id".into());
        }
        match op.as_str() {
            "match" => {
                let left = f.nums("left")?;
                let right = f.nums("right")?;
                if left.len() != right.len() {
                    return Err(format!(
                        "left/right length mismatch: {} vs {}",
                        left.len(),
                        right.len()
                    ));
                }
                if left.is_empty() {
                    return Err("empty pair list".into());
                }
                let to_u32 = |v: f64, side: &str| -> Result<u32, String> {
                    if v < 0.0 || v > f64::from(u32::MAX) || v.fract() != 0.0 {
                        return Err(format!("bad {side} record index {v}"));
                    }
                    Ok(v as u32)
                };
                let pairs = left
                    .iter()
                    .zip(&right)
                    .map(|(&l, &r)| Ok((to_u32(l, "left")?, to_u32(r, "right")?)))
                    .collect::<Result<Vec<_>, String>>()?;
                // `deadline_ms` is optional: absent and `null` both mean none.
                let deadline_ms = if f.has("deadline_ms") {
                    f.opt_u64("deadline_ms")?
                } else {
                    None
                };
                Ok(Request::Match {
                    id,
                    pairs,
                    deadline_ms,
                })
            }
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown op '{other}'")),
        }
    }
}

impl Response {
    /// Encode as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut w = ObjectWriter::new(false);
        w.field("id", self.id());
        match self {
            Response::Matched {
                proba, decision, ..
            } => {
                w.field("ok", &true)
                    .array("proba", proba)
                    .array("match", decision.iter().map(|&d| u64::from(d)));
            }
            Response::Rejected {
                reason,
                retry_after_ms,
                ..
            } => {
                w.field("ok", &false)
                    .field("error", "rejected")
                    .field("reason", reason)
                    .field("retry_after_ms", retry_after_ms);
            }
            Response::DeadlineExceeded { .. } => {
                w.field("ok", &false).field("error", "deadline_exceeded");
            }
            Response::Duplicate { .. } => {
                w.field("ok", &false).field("error", "duplicate_id");
            }
            Response::Failed { reason, .. } => {
                w.field("ok", &false)
                    .field("error", "failed")
                    .field("reason", reason);
            }
            Response::BadRequest { reason, .. } => {
                w.field("ok", &false)
                    .field("error", "bad_request")
                    .field("reason", reason);
            }
            Response::Pong { .. } => {
                w.field("ok", &true);
            }
            Response::Stats { body, .. } => {
                w.field("ok", &true)
                    .field("admitted", &body.admitted)
                    .field("completed", &body.completed)
                    .field("rejected", &body.rejected)
                    .field("failed", &body.failed)
                    .field("restarts", &body.restarts);
            }
            Response::Drained { completed, .. } => {
                w.field("ok", &true).field("drained", completed);
            }
        }
        w.finish()
    }

    /// Parse one response line. Total: every malformed input is an `Err`.
    pub fn parse(line: &str) -> Result<Response, String> {
        let f = FlatObject::parse(line)?;
        let id = f.str("id")?;
        if f.bool("ok")? {
            if f.has("proba") {
                let proba: Vec<f32> = f.nums("proba")?.iter().map(|&v| v as f32).collect();
                let decision: Vec<bool> = f.nums("match")?.iter().map(|&v| v != 0.0).collect();
                if proba.len() != decision.len() {
                    return Err("proba/match length mismatch".into());
                }
                return Ok(Response::Matched {
                    id,
                    proba,
                    decision,
                });
            }
            if f.has("admitted") {
                return Ok(Response::Stats {
                    id,
                    body: StatsBody {
                        admitted: f.u64("admitted")?,
                        completed: f.u64("completed")?,
                        rejected: f.u64("rejected")?,
                        failed: f.u64("failed")?,
                        restarts: f.u64("restarts")?,
                    },
                });
            }
            if f.has("drained") {
                return Ok(Response::Drained {
                    id,
                    completed: f.u64("drained")?,
                });
            }
            return Ok(Response::Pong { id });
        }
        match f.str("error")?.as_str() {
            "rejected" => Ok(Response::Rejected {
                id,
                reason: f.str("reason")?,
                retry_after_ms: f.u64("retry_after_ms")?,
            }),
            "deadline_exceeded" => Ok(Response::DeadlineExceeded { id }),
            "duplicate_id" => Ok(Response::Duplicate { id }),
            "failed" => Ok(Response::Failed {
                id,
                reason: f.str("reason")?,
            }),
            "bad_request" => Ok(Response::BadRequest {
                id,
                reason: f.str("reason")?,
            }),
            other => Err(format!("unknown error kind '{other}'")),
        }
    }

    /// The request id this response answers.
    pub fn id(&self) -> &str {
        match self {
            Response::Matched { id, .. }
            | Response::Rejected { id, .. }
            | Response::DeadlineExceeded { id }
            | Response::Duplicate { id }
            | Response::Failed { id, .. }
            | Response::BadRequest { id, .. }
            | Response::Pong { id }
            | Response::Stats { id, .. }
            | Response::Drained { id, .. } => id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            (
                Request::Match {
                    id: "r-1".into(),
                    pairs: vec![(0, 1), (7, 3)],
                    deadline_ms: Some(250),
                },
                r#"{"op":"match","id":"r-1","left":[0,7],"right":[1,3],"deadline_ms":250}"#,
            ),
            (
                Request::Match {
                    id: "r \"quoted\"\n".into(),
                    pairs: vec![(u32::MAX, 0)],
                    deadline_ms: None,
                },
                r#"{"op":"match","id":"r \"quoted\"\n","left":[4294967295],"right":[0]}"#,
            ),
            (
                Request::Ping { id: "p".into() },
                r#"{"op":"ping","id":"p"}"#,
            ),
            (
                Request::Stats { id: "s".into() },
                r#"{"op":"stats","id":"s"}"#,
            ),
            (
                Request::Shutdown { id: "q".into() },
                r#"{"op":"shutdown","id":"q"}"#,
            ),
        ];
        for (r, pinned) in reqs {
            let line = r.encode();
            assert_eq!(line, pinned);
            assert_eq!(Request::parse(&line).as_ref(), Ok(&r), "{line}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = vec![
            (
                Response::Matched {
                    id: "r-1".into(),
                    proba: vec![0.25, 1.0, 1e-7],
                    decision: vec![false, true, false],
                },
                r#"{"id":"r-1","ok":true,"proba":[0.25,1,0.0000001],"match":[0,1,0]}"#,
            ),
            (
                Response::Rejected {
                    id: "r-2".into(),
                    reason: "queue_full".into(),
                    retry_after_ms: 25,
                },
                r#"{"id":"r-2","ok":false,"error":"rejected","reason":"queue_full","retry_after_ms":25}"#,
            ),
            (
                Response::DeadlineExceeded { id: "r-3".into() },
                r#"{"id":"r-3","ok":false,"error":"deadline_exceeded"}"#,
            ),
            (
                Response::Duplicate { id: "r-4".into() },
                r#"{"id":"r-4","ok":false,"error":"duplicate_id"}"#,
            ),
            (
                Response::Failed {
                    id: "r-5".into(),
                    reason: "worker_lost".into(),
                },
                r#"{"id":"r-5","ok":false,"error":"failed","reason":"worker_lost"}"#,
            ),
            (
                Response::BadRequest {
                    id: String::new(),
                    reason: "unknown op 'x'".into(),
                },
                r#"{"id":"","ok":false,"error":"bad_request","reason":"unknown op 'x'"}"#,
            ),
            (Response::Pong { id: "p".into() }, r#"{"id":"p","ok":true}"#),
            (
                Response::Stats {
                    id: "s".into(),
                    body: StatsBody {
                        admitted: 10,
                        completed: 7,
                        rejected: 2,
                        failed: 1,
                        restarts: 3,
                    },
                },
                r#"{"id":"s","ok":true,"admitted":10,"completed":7,"rejected":2,"failed":1,"restarts":3}"#,
            ),
            (
                Response::Drained {
                    id: "q".into(),
                    completed: 7,
                },
                r#"{"id":"q","ok":true,"drained":7}"#,
            ),
        ];
        for (r, pinned) in resps {
            let line = r.encode();
            assert_eq!(line, pinned);
            assert_eq!(Response::parse(&line).as_ref(), Ok(&r), "{line}");
        }
    }

    #[test]
    fn invalid_lines_are_typed_errors() {
        for bad in [
            "",
            "{",
            "{}",
            "not json at all",
            "{\"op\":\"match\",\"id\":\"x\",\"left\":[1],\"right\":[1,2]}",
            "{\"op\":\"match\",\"id\":\"x\",\"left\":[],\"right\":[]}",
            "{\"op\":\"match\",\"id\":\"\",\"left\":[1],\"right\":[2]}",
            "{\"op\":\"nope\",\"id\":\"x\"}",
            "{\"op\":\"match\",\"id\":\"x\",\"left\":[1.5],\"right\":[2]}",
            "{\"op\":\"match\",\"id\":\"x\",\"left\":[-1],\"right\":[2]}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?}");
        }
        for bad in ["", "{}", "{\"id\":\"x\"}", "{\"id\":\"x\",\"ok\":false}"] {
            assert!(Response::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn deadline_must_be_a_whole_number_of_ms() {
        let with = |d: &str| {
            format!(r#"{{"op":"match","id":"x","left":[1],"right":[2],"deadline_ms":{d}}}"#)
        };
        for bad in ["-5", "2.5", "1e300", "18446744073709551616"] {
            let err = Request::parse(&with(bad)).expect_err(bad);
            assert!(err.contains("'deadline_ms'"), "{bad}: {err}");
        }
        for (d, want) in [
            ("0", Some(0)),
            ("null", None),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551614", Some(u64::MAX - 1)),
            ("9007199254740993", Some((1 << 53) + 1)),
        ] {
            match Request::parse(&with(d)) {
                Ok(Request::Match { deadline_ms, .. }) => assert_eq!(deadline_ms, want, "{d}"),
                other => panic!("{d}: {other:?}"),
            }
        }
    }

    #[test]
    fn line_id_recovers_when_possible() {
        assert_eq!(line_id("{\"op\":\"nope\",\"id\":\"x7\"}"), "x7");
        assert_eq!(line_id("garbage"), "");
    }
}
