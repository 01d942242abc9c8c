//! Worker actors: each worker owns one scorer (one cloned trained
//! model), pulls micro-batches from the shared mailbox, and answers
//! every request it takes exactly once.
//!
//! Determinism note: scorers compute each pair's probability
//! row-independently (`predict_proba` draws nothing from the RNG and
//! chunking never changes a bit), so neither micro-batch composition nor
//! worker assignment affects any decision — completed responses are
//! bit-identical to an offline run over the same pairs.

use crate::lock;
use crate::mailbox::Mailbox;
use crate::protocol::Response;
use crate::server::ServeStats;
use em_obs::Stopwatch;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A trained matcher the service can call. `score` must be
/// deterministic and row-independent: the same pair always yields the
/// same `(probability, decision)` regardless of batch composition.
pub trait MatchScorer: Send + 'static {
    /// Score record-index pairs; `Err` fails the whole batch with the
    /// given reason (it is the scorer's error channel, not a panic).
    fn score(&mut self, pairs: &[(u32, u32)]) -> Result<Vec<(f32, bool)>, String>;
}

/// Builds one fresh scorer per (re)started worker. Factories clone a
/// trained model, so replacements decide identically to the worker they
/// replace.
pub type ScorerFactory = Arc<dyn Fn() -> Box<dyn MatchScorer> + Send + Sync>;

/// Where a [`Job`]'s single terminal response is written.
#[derive(Clone)]
pub enum ReplySink {
    /// A live client connection (writes are line-atomic via the mutex).
    Tcp(Arc<Mutex<TcpStream>>),
    /// In-process collection for tests.
    Collect(Arc<Mutex<Vec<Response>>>),
}

impl ReplySink {
    fn deliver(&self, resp: &Response) {
        match self {
            ReplySink::Tcp(stream) => {
                let mut s = lock(stream);
                // A vanished client must not take the worker down; the
                // accounting in `Job::reply` already happened.
                let _ = s.write_all(resp.encode().as_bytes());
                let _ = s.write_all(b"\n");
                let _ = s.flush();
            }
            ReplySink::Collect(sink) => lock(sink).push(resp.clone()),
        }
    }
}

/// How a job terminated, for stats and the `request` trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with a match result.
    Ok,
    /// Answered `deadline_exceeded`.
    Deadline,
    /// Answered `failed`.
    Failed,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Deadline => "deadline_exceeded",
            Outcome::Failed => "failed",
        }
    }
}

/// One admitted match request: the unit the mailbox queues, workers
/// batch, and the supervisor replays after a crash.
#[derive(Clone)]
pub struct Job {
    /// The request id (unique per connection, enforced at admission).
    pub id: String,
    /// The record-index pairs to score.
    pub pairs: Vec<(u32, u32)>,
    /// Deadline in milliseconds from admission, if any.
    pub deadline_ms: Option<u64>,
    /// Crash replays so far; at most one is allowed.
    pub attempts: u32,
    /// Started at admission; drives deadlines and the latency histogram.
    pub admitted: Stopwatch,
    /// Mailbox depth observed at admission (trace context).
    pub queue_at_admit: u64,
    answered: Arc<AtomicBool>,
    sink: ReplySink,
    stats: Arc<ServeStats>,
}

impl Job {
    /// A freshly admitted job. The caller must have already counted it
    /// in `stats.admitted` / `stats.outstanding`.
    pub fn new(
        id: String,
        pairs: Vec<(u32, u32)>,
        deadline_ms: Option<u64>,
        queue_at_admit: u64,
        sink: ReplySink,
        stats: Arc<ServeStats>,
    ) -> Job {
        Job {
            id,
            pairs,
            deadline_ms,
            attempts: 0,
            admitted: Stopwatch::new(),
            queue_at_admit,
            answered: Arc::new(AtomicBool::new(false)),
            sink,
            stats,
        }
    }

    /// Whether the job's deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline_ms
            .is_some_and(|d| self.admitted.secs() * 1000.0 > d as f64)
    }

    /// Whether some path already delivered the terminal response.
    pub fn is_answered(&self) -> bool {
        self.answered.load(Ordering::Relaxed)
    }

    /// Deliver the terminal response exactly once; a second delivery
    /// attempt (a superseded wedged worker racing its replacement) is
    /// suppressed and returns `false`. Accounting — outstanding
    /// decrement, outcome counter, latency histogram, `request` trace
    /// event — happens with the winning delivery only.
    pub fn reply(&self, resp: &Response, outcome: Outcome) -> bool {
        if self
            .answered
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            self.stats.duplicates.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.sink.deliver(resp);
        let secs = self.admitted.secs();
        em_obs::metrics::histogram(em_obs::names::METRIC_SERVE_REQUEST_SECS, &[]).record(secs);
        em_obs::request(
            self.id.clone(),
            self.pairs.len() as u64,
            self.queue_at_admit,
            self.admitted.micros(),
            outcome.as_str(),
        );
        match outcome {
            Outcome::Ok => self.stats.completed.fetch_add(1, Ordering::Relaxed),
            Outcome::Deadline => self.stats.deadline_exceeded.fetch_add(1, Ordering::Relaxed),
            Outcome::Failed => self.stats.failed.fetch_add(1, Ordering::Relaxed),
        };
        self.stats.outstanding.fetch_sub(1, Ordering::Relaxed);
        true
    }
}

/// Everything one worker thread needs; built by the supervisor.
pub(crate) struct WorkerCtx {
    /// Stable slot index (trace identity across restarts).
    pub worker_id: u64,
    /// This incarnation's generation.
    pub gen: u64,
    /// The slot's current generation; when it moves past `gen` this
    /// incarnation has been superseded and must exit without touching
    /// shared state.
    pub slot_gen: Arc<AtomicU64>,
    /// Progress counter the supervisor watches for wedge detection.
    pub liveness: Arc<AtomicU64>,
    /// Batch currently being served, stashed for crash replay.
    pub in_flight: Arc<Mutex<Vec<Job>>>,
    /// The shared request queue.
    pub mailbox: Mailbox<Job>,
    /// Set just before a *normal* return so the supervisor can tell a
    /// clean exit from a panic.
    pub done: Arc<AtomicBool>,
    /// Micro-batch size cap.
    pub batch_max: usize,
}

/// The worker actor body. Runs until the mailbox closes (drain) or the
/// slot generation moves past this incarnation (supersession).
pub(crate) fn worker_loop(ctx: WorkerCtx, mut scorer: Box<dyn MatchScorer>) {
    let mut hb = em_obs::heartbeat("serve_worker", 0);
    loop {
        if ctx.slot_gen.load(Ordering::Relaxed) != ctx.gen {
            ctx.done.store(true, Ordering::Relaxed);
            return;
        }
        let Some(batch) = ctx.mailbox.recv_batch(ctx.batch_max) else {
            ctx.done.store(true, Ordering::Relaxed);
            return;
        };
        if ctx.slot_gen.load(Ordering::Relaxed) != ctx.gen {
            // Superseded while blocked: hand the batch to the replacement.
            for job in batch.into_iter().rev() {
                ctx.mailbox.push_front(job);
            }
            ctx.done.store(true, Ordering::Relaxed);
            return;
        }
        ctx.liveness.fetch_add(1, Ordering::Relaxed);
        // Stash before any fallible work: a panic from here on finds the
        // whole batch in the replay buffer.
        *lock(&ctx.in_flight) = batch.clone();
        let mut live = Vec::with_capacity(batch.len());
        for job in batch {
            if job.expired() {
                job.reply(
                    &Response::DeadlineExceeded { id: job.id.clone() },
                    Outcome::Deadline,
                );
            } else {
                live.push(job);
            }
        }
        let mut injected_err = false;
        match em_resilience::failpoint::check("worker_forward") {
            Some(em_resilience::failpoint::Action::Panic) => {
                panic!("failpoint worker_forward: injected panic")
            }
            Some(em_resilience::failpoint::Action::Delay) => {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            Some(_) => injected_err = true,
            None => {}
        }
        if !live.is_empty() {
            let pairs: Vec<(u32, u32)> =
                live.iter().flat_map(|j| j.pairs.iter().copied()).collect();
            let result = {
                let _span = em_obs::span_with(
                    em_obs::names::SPAN_SERVE_BATCH,
                    format!(
                        "worker {}: {} requests, {} pairs",
                        ctx.worker_id,
                        live.len(),
                        pairs.len()
                    ),
                );
                if injected_err {
                    Err("failpoint worker_forward: injected error".to_string())
                } else {
                    scorer.score(&pairs)
                }
            };
            match result {
                Ok(scores) if scores.len() == pairs.len() => {
                    let mut offset = 0;
                    for job in &live {
                        let slice = &scores[offset..offset + job.pairs.len()];
                        offset += job.pairs.len();
                        job.reply(
                            &Response::Matched {
                                id: job.id.clone(),
                                proba: slice.iter().map(|s| s.0).collect(),
                                decision: slice.iter().map(|s| s.1).collect(),
                            },
                            Outcome::Ok,
                        );
                    }
                }
                Ok(scores) => {
                    let reason = format!(
                        "scorer returned {} scores for {} pairs",
                        scores.len(),
                        pairs.len()
                    );
                    for job in &live {
                        job.reply(
                            &Response::Failed {
                                id: job.id.clone(),
                                reason: reason.clone(),
                            },
                            Outcome::Failed,
                        );
                    }
                }
                Err(reason) => {
                    for job in &live {
                        job.reply(
                            &Response::Failed {
                                id: job.id.clone(),
                                reason: reason.clone(),
                            },
                            Outcome::Failed,
                        );
                    }
                }
            }
            if let Some(h) = hb.as_mut() {
                h.tick(pairs.len() as u64, None);
            }
        }
        lock(&ctx.in_flight).clear();
        ctx.liveness.fetch_add(1, Ordering::Relaxed);
    }
}
