//! The TCP front end: a polling accept loop, one reader thread per
//! connection, admission control ahead of the shared mailbox, and the
//! graceful drain sequence.
//!
//! Admission sheds load in three typed ways, all carrying a
//! `retry_after_ms` hint: `draining` (shutdown in progress),
//! `overloaded` (too many admitted-but-unanswered requests), and
//! `queue_full` (mailbox at capacity). Admitted requests are never shed
//! — they end in exactly one terminal response.

use crate::lock;
use crate::mailbox::{Mailbox, SendError};
use crate::protocol::{line_id, Request, Response, StatsBody};
use crate::supervisor::{Supervisor, SupervisorCfg};
use crate::worker::{Job, ReplySink, ScorerFactory};
use em_resilience::failpoint::{self, Action};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeCfg {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker actor count.
    pub workers: usize,
    /// Micro-batch size cap (requests coalesced per forward).
    pub batch_max: usize,
    /// Mailbox capacity; `try_send` beyond it sheds with `queue_full`.
    pub queue_cap: usize,
    /// Cap on admitted-but-unanswered requests; beyond it admission
    /// sheds with `overloaded`.
    pub inflight_cap: usize,
    /// Deadline applied to requests that carry none.
    pub default_deadline_ms: Option<u64>,
    /// Retry hint attached to every rejection.
    pub retry_after_ms: u64,
    /// Wedge threshold: no worker progress for this long while work is
    /// pending triggers a restart.
    pub wedge_ms: u64,
    /// Worker restart backoff base (doubles per consecutive restart).
    pub backoff_base_ms: u64,
    /// Worker restart backoff ceiling.
    pub backoff_max_ms: u64,
}

impl Default for ServeCfg {
    fn default() -> Self {
        ServeCfg {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            batch_max: 16,
            queue_cap: 64,
            inflight_cap: 256,
            default_deadline_ms: None,
            retry_after_ms: 25,
            wedge_ms: 2_000,
            backoff_base_ms: 10,
            backoff_max_ms: 500,
        }
    }
}

/// Lifetime counters, shared by admission, workers, and the supervisor.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests admitted past admission control.
    pub admitted: AtomicU64,
    /// Requests answered with a match result.
    pub completed: AtomicU64,
    /// Requests shed by admission control.
    pub rejected: AtomicU64,
    /// Requests answered `failed`.
    pub failed: AtomicU64,
    /// Requests answered `deadline_exceeded`.
    pub deadline_exceeded: AtomicU64,
    /// Lines that failed to parse or validate.
    pub bad_lines: AtomicU64,
    /// Request ids reused on one connection.
    pub duplicate_ids: AtomicU64,
    /// Suppressed second deliveries (superseded worker raced its
    /// replacement); the client saw exactly one of the two.
    pub duplicates: AtomicU64,
    /// Worker restarts performed by the supervisor.
    pub restarts: AtomicU64,
    /// Admitted requests not yet answered (the in-flight gauge).
    pub outstanding: AtomicU64,
}

impl ServeStats {
    /// Snapshot for the `stats` op and the final drain accounting.
    pub fn snapshot(&self) -> StatsBody {
        StatsBody {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed)
                + self.deadline_exceeded.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
        }
    }
}

/// What the drained server hands back to its caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Requests answered with a match result.
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Requests answered `failed` or `deadline_exceeded`.
    pub failed: u64,
    /// Worker restarts over the server's lifetime.
    pub restarts: u64,
}

struct Flags {
    draining: AtomicBool,
    stop: AtomicBool,
}

/// A bound, not-yet-running server. `bind` first (so the caller can
/// learn the picked port), then `run` until drained.
pub struct Server {
    listener: TcpListener,
    cfg: Arc<ServeCfg>,
    mailbox: Mailbox<Job>,
    supervisor: Supervisor,
    stats: Arc<ServeStats>,
    flags: Arc<Flags>,
}

impl Server {
    /// Bind the listener and spawn the worker actors + supervisor.
    pub fn bind(cfg: ServeCfg, factory: ScorerFactory) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let mailbox: Mailbox<Job> = Mailbox::new(cfg.queue_cap);
        let stats = Arc::new(ServeStats::default());
        let supervisor = Supervisor::start(
            mailbox.clone(),
            factory,
            Arc::clone(&stats),
            SupervisorCfg {
                workers: cfg.workers,
                batch_max: cfg.batch_max,
                wedge_ms: cfg.wedge_ms,
                backoff_base_ms: cfg.backoff_base_ms,
                backoff_max_ms: cfg.backoff_max_ms,
            },
        );
        Ok(Server {
            listener,
            cfg: Arc::new(cfg),
            mailbox,
            supervisor,
            stats,
            flags: Arc::new(Flags {
                draining: AtomicBool::new(false),
                stop: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (the real port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Lifetime counters (shared; live while the server runs).
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// Serve until a `shutdown` request completes the graceful drain:
    /// accept loop + per-connection reader threads, then close the
    /// mailbox, join every worker and reader, emit the terminal `drain`
    /// event, and return the final accounting.
    pub fn run(self) -> std::io::Result<DrainSummary> {
        let _span = em_obs::span(em_obs::names::SPAN_SERVE);
        self.listener.set_nonblocking(true)?;
        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if self.flags.stop.load(Ordering::Relaxed) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    match failpoint::check("serve_accept") {
                        Some(Action::Panic) => panic!("failpoint serve_accept: injected panic"),
                        Some(Action::Delay) => std::thread::sleep(Duration::from_millis(50)),
                        Some(_) => {
                            // Injected accept fault: drop the connection.
                            drop(stream);
                            continue;
                        }
                        None => {}
                    }
                    let mailbox = self.mailbox.clone();
                    let stats = Arc::clone(&self.stats);
                    let flags = Arc::clone(&self.flags);
                    let cfg = Arc::clone(&self.cfg);
                    readers.push(std::thread::spawn(move || {
                        conn_loop(stream, mailbox, stats, flags, cfg);
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain epilogue. Admission is already refusing (draining flag)
        // and every admitted request is answered (outstanding hit 0
        // before the stop flag was set), so closing the mailbox lets the
        // workers run dry and exit.
        self.mailbox.close();
        self.supervisor.stop();
        for h in readers {
            let _ = h.join();
        }
        let s = self.stats.snapshot();
        em_obs::drain(s.completed, s.rejected, s.failed, s.restarts);
        em_obs::flush_metrics();
        Ok(DrainSummary {
            completed: s.completed,
            rejected: s.rejected,
            failed: s.failed,
            restarts: s.restarts,
        })
    }
}

fn write_response(writer: &Arc<Mutex<TcpStream>>, resp: &Response) {
    let mut s = lock(writer);
    // A vanished client is its own problem; the server carries on.
    let _ = s.write_all(resp.encode().as_bytes());
    let _ = s.write_all(b"\n");
    let _ = s.flush();
}

/// One connection's reader: line in, response (or admission) out. The
/// read timeout doubles as the stop-flag poll so no reader outlives the
/// drain by more than ~100ms.
fn conn_loop(
    stream: TcpStream,
    mailbox: Mailbox<Job>,
    stats: Arc<ServeStats>,
    flags: Arc<Flags>,
    cfg: Arc<ServeCfg>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = Arc::new(Mutex::new(write_half));
    let mut reader = BufReader::new(stream);
    let mut seen_ids: HashSet<String> = HashSet::new();
    let mut line = String::new();
    loop {
        if flags.stop.load(Ordering::Relaxed) {
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF (any partial tail is torn; drop it)
            Ok(_) => {
                handle_line(
                    line.trim(),
                    &mut seen_ids,
                    &writer,
                    &mailbox,
                    &stats,
                    &flags,
                    &cfg,
                );
                line.clear();
            }
            // Timeout: bytes read so far stay appended to `line`; keep
            // accumulating until the newline arrives.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                // Undecodable bytes (invalid UTF-8) or a dead socket:
                // answer once if possible, then drop the connection.
                stats.bad_lines.fetch_add(1, Ordering::Relaxed);
                write_response(
                    &writer,
                    &Response::BadRequest {
                        id: String::new(),
                        reason: format!("unreadable line: {e}"),
                    },
                );
                return;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_line(
    line: &str,
    seen_ids: &mut HashSet<String>,
    writer: &Arc<Mutex<TcpStream>>,
    mailbox: &Mailbox<Job>,
    stats: &Arc<ServeStats>,
    flags: &Arc<Flags>,
    cfg: &Arc<ServeCfg>,
) {
    if line.is_empty() {
        return;
    }
    match Request::parse(line) {
        Err(reason) => {
            stats.bad_lines.fetch_add(1, Ordering::Relaxed);
            write_response(
                writer,
                &Response::BadRequest {
                    id: line_id(line),
                    reason,
                },
            );
        }
        Ok(Request::Ping { id }) => write_response(writer, &Response::Pong { id }),
        Ok(Request::Stats { id }) => write_response(
            writer,
            &Response::Stats {
                id,
                body: stats.snapshot(),
            },
        ),
        Ok(Request::Shutdown { id }) => {
            flags.draining.store(true, Ordering::Relaxed);
            while stats.outstanding.load(Ordering::Relaxed) > 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            write_response(
                writer,
                &Response::Drained {
                    id,
                    completed: stats.completed.load(Ordering::Relaxed),
                },
            );
            flags.stop.store(true, Ordering::Relaxed);
        }
        Ok(Request::Match {
            id,
            pairs,
            deadline_ms,
        }) => admit(
            id,
            pairs,
            deadline_ms,
            seen_ids,
            writer,
            mailbox,
            stats,
            flags,
            cfg,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn admit(
    id: String,
    pairs: Vec<(u32, u32)>,
    deadline_ms: Option<u64>,
    seen_ids: &mut HashSet<String>,
    writer: &Arc<Mutex<TcpStream>>,
    mailbox: &Mailbox<Job>,
    stats: &Arc<ServeStats>,
    flags: &Arc<Flags>,
    cfg: &Arc<ServeCfg>,
) {
    if flags.draining.load(Ordering::Relaxed) {
        return shed(writer, stats, cfg, &id, "draining");
    }
    if !seen_ids.insert(id.clone()) {
        stats.duplicate_ids.fetch_add(1, Ordering::Relaxed);
        write_response(writer, &Response::Duplicate { id });
        return;
    }
    match failpoint::check("mailbox_enqueue") {
        Some(Action::Panic) => panic!("failpoint mailbox_enqueue: injected panic"),
        Some(Action::Delay) => std::thread::sleep(Duration::from_millis(20)),
        Some(_) => return shed(writer, stats, cfg, &id, "injected_fault"),
        None => {}
    }
    if stats.outstanding.load(Ordering::Relaxed) >= cfg.inflight_cap as u64 {
        return shed(writer, stats, cfg, &id, "overloaded");
    }
    let job = Job::new(
        id.clone(),
        pairs,
        deadline_ms.or(cfg.default_deadline_ms),
        mailbox.len() as u64,
        ReplySink::Tcp(Arc::clone(writer)),
        Arc::clone(stats),
    );
    stats.admitted.fetch_add(1, Ordering::Relaxed);
    stats.outstanding.fetch_add(1, Ordering::Relaxed);
    match mailbox.try_send(job) {
        Ok(()) => {}
        Err((_job, SendError::Full { depth })) => {
            stats.admitted.fetch_sub(1, Ordering::Relaxed);
            stats.outstanding.fetch_sub(1, Ordering::Relaxed);
            shed(
                writer,
                stats,
                cfg,
                &id,
                &format!("queue_full at depth {depth}"),
            );
        }
        Err((_job, SendError::Closed)) => {
            stats.admitted.fetch_sub(1, Ordering::Relaxed);
            stats.outstanding.fetch_sub(1, Ordering::Relaxed);
            shed(writer, stats, cfg, &id, "draining");
        }
    }
}

/// Shed one request: count it, trace it, answer it `rejected`.
fn shed(
    writer: &Arc<Mutex<TcpStream>>,
    stats: &Arc<ServeStats>,
    cfg: &ServeCfg,
    id: &str,
    reason: &str,
) {
    stats.rejected.fetch_add(1, Ordering::Relaxed);
    em_obs::reject(id, reason, cfg.retry_after_ms);
    write_response(
        writer,
        &Response::Rejected {
            id: id.to_string(),
            reason: reason.to_string(),
            retry_after_ms: cfg.retry_after_ms,
        },
    );
}
