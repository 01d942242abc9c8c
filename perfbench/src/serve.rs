//! The serve stage: an in-process em-serve `Server` answering single-pair
//! match requests over its line protocol, driven from this process in two
//! phases over one connection.
//!
//! * `light` — an open loop. A clock-driven sender writes request `i` at
//!   `i / rate` seconds, each line in one write, and never waits for a
//!   reply; a separate receiver reads the answers. Latency is timed from
//!   each request's due time, so a stall also charges the requests queued
//!   behind it (no coordinated omission), and the sender's lateness is
//!   reported as generator lag.
//! * `sat` — a closed loop holding a fixed number of requests outstanding,
//!   which fills micro-batches and measures capacity.
//!
//! The scorer mirrors the CLI's `PipelineScorer` (encode with `PairCodec`,
//! decide with `match_batch`) and, in a traced pass, notes when each batch
//! started and ended so a request's latency splits into the time before
//! the forward, the forward, and the reply path.

use crate::stats::{mean, median, tail, Metrics, Schedule};
use em_obs::Stopwatch;
use em_serve::{Client, MatchScorer, Request, Response, ScorerFactory, ServeCfg, Server};
use promptem::{PairCodec, TrainedMatcher};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

// lint:allow(net-use) — the open-loop generator needs a raw socket: one
// write per request line, and a reader independent of the sender.
type Conn = std::net::TcpStream;

/// Open-loop arrival rate of the `light` phase, requests per second.
const LIGHT_RATE: f64 = 200.0;
/// Requests the `sat` phase keeps outstanding.
const SAT_WINDOW: usize = 64;
/// Worker actors, as `promptem serve` defaults.
const WORKERS: usize = 2;
/// Closed-loop requests sent before anything is timed.
const WARMUP: usize = 200;
/// A request answered later than this counts as failed.
const LATENCY_LIMIT_S: f64 = 0.5;
/// A phase that hears nothing for this long fails the run.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One scorer call seen by the probe, in seconds on the probe clock.
struct Call {
    start: f64,
    end: f64,
    pairs: Vec<(u32, u32)>,
}

/// The shared clock and, when recording, the log of scorer calls.
struct Probe {
    origin: Stopwatch,
    recording: AtomicBool,
    calls: Mutex<Vec<Call>>,
}

impl Probe {
    fn now(&self) -> f64 {
        self.origin.secs()
    }

    fn take_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The worker scorer: `PairCodec` + `match_batch`, as `promptem serve` has it.
struct BenchScorer {
    matcher: TrainedMatcher,
    codec: PairCodec,
    probe: Arc<Probe>,
}

impl MatchScorer for BenchScorer {
    fn score(&mut self, pairs: &[(u32, u32)]) -> Result<Vec<(f32, bool)>, String> {
        let start = self.probe.now();
        let encoded = pairs
            .iter()
            .map(|&(l, r)| {
                self.codec
                    .encode(l as usize, r as usize)
                    .ok_or_else(|| format!("pair ({l},{r}) out of range"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let out = self
            .matcher
            .match_batch(&encoded)
            .into_iter()
            .map(|d| (d.proba, d.is_match))
            .collect();
        if self.probe.recording.load(Ordering::Relaxed) {
            let call = Call {
                start,
                end: self.probe.now(),
                pairs: pairs.to_vec(),
            };
            self.probe
                .calls
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(call);
        }
        Ok(out)
    }
}

/// How one request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Answer {
    /// Matched, bit-equal to the offline decision.
    Good,
    /// Matched, but not what the offline `match_batch` said.
    Wrong,
    Rejected,
    /// `failed` or `deadline_exceeded`.
    Failed,
}

/// One request of a phase, times in seconds from the phase start.
#[derive(Debug, Clone, Copy)]
struct Req {
    pair: (u32, u32),
    due: f64,
    sent: f64,
    recv: Option<f64>,
    answer: Option<Answer>,
}

impl Req {
    fn latency(&self) -> Option<f64> {
        self.recv.map(|r| r - self.due)
    }

    fn ok(&self) -> bool {
        self.answer == Some(Answer::Good) && self.latency().is_some_and(|l| l <= LATENCY_LIMIT_S)
    }
}

/// What one phase measured.
struct Phase {
    name: &'static str,
    reqs: Vec<Req>,
    /// Seconds from the phase start to its last answer.
    wall: f64,
    /// Phase start on the probe clock.
    t0: f64,
    /// Scorer calls during the phase (traced passes only).
    calls: Vec<Call>,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.reqs
            .iter()
            .filter_map(Req::latency)
            .map(|l| l * 1e3)
            .collect()
    }

    fn ok(&self) -> usize {
        self.reqs.iter().filter(|r| r.ok()).count()
    }

    fn count(&self, a: Answer) -> usize {
        self.reqs.iter().filter(|r| r.answer == Some(a)).count()
    }

    /// Per-layer rows: admission counts, the latency split around the
    /// forward, batching, worker busy share, the tail with its evidence.
    fn layer_metrics(&self, m: &mut Metrics) {
        let p = |k: &str| format!("serve.{}.{k}", self.name);
        m.put(p("sent"), self.reqs.len() as f64, "count");
        m.put(p("ok"), self.ok() as f64, "count");
        m.put(p("rejected"), self.count(Answer::Rejected) as f64, "count");
        m.put(
            p("failed"),
            (self.reqs.len() - self.ok() - self.count(Answer::Rejected)) as f64,
            "count",
        );
        let lat = self.latencies_ms();
        if let Some(t) = tail(&lat) {
            m.put(p("tail_ms"), t.value, "ms");
            m.put(p("tail_pct"), t.pct, "pct");
        }
        m.put(p("samples"), lat.len() as f64, "count");

        // Match each request to the scorer call that carried its pair:
        // pairs are unique among in-flight requests, so the k-th request
        // for a pair rode in the k-th call containing it.
        let mut by_pair: HashMap<(u32, u32), VecDeque<usize>> = HashMap::new();
        let mut order: Vec<usize> = (0..self.calls.len()).collect();
        order.sort_by(|&a, &b| self.calls[a].start.total_cmp(&self.calls[b].start));
        for &c in &order {
            for &pair in &self.calls[c].pairs {
                by_pair.entry(pair).or_default().push_back(c);
            }
        }
        let mut reqs: Vec<&Req> = self.reqs.iter().collect();
        reqs.sort_by(|a, b| a.sent.total_cmp(&b.sent));
        let (mut pre, mut post) = (Vec::new(), Vec::new());
        for r in reqs {
            let Some(c) = by_pair.get_mut(&r.pair).and_then(VecDeque::pop_front) else {
                continue;
            };
            let call = &self.calls[c];
            pre.push((call.start - self.t0 - r.sent) * 1e3);
            if let Some(recv) = r.recv {
                post.push((recv - (call.end - self.t0)) * 1e3);
            }
        }
        let fwd: Vec<f64> = self.calls.iter().map(|c| (c.end - c.start) * 1e3).collect();
        let busy: f64 = fwd.iter().sum::<f64>() / 1e3;
        m.put(p("pre_forward_ms_p50"), median(&pre), "ms");
        m.put(p("forward_ms_p50"), median(&fwd), "ms");
        m.put(p("post_forward_ms_p50"), median(&post), "ms");
        m.put(
            p("batch_pairs_mean"),
            mean(
                &self
                    .calls
                    .iter()
                    .map(|c| c.pairs.len() as f64)
                    .collect::<Vec<_>>(),
            ),
            "pairs",
        );
        m.put(
            p("forward_busy_frac"),
            busy / (self.wall * WORKERS as f64),
            "frac",
        );
    }
}

fn request_line(id: String, pair: (u32, u32)) -> Vec<u8> {
    let mut line = Request::Match {
        id,
        pairs: vec![pair],
        deadline_ms: None,
    }
    .encode()
    .into_bytes();
    line.push(b'\n');
    line
}

/// The fixed inputs of the stage: the pairs to send and what the offline
/// matcher says about each.
pub struct ServeInputs {
    pairs: Vec<(u32, u32)>,
    reference: HashMap<(u32, u32), (u32, bool)>,
}

impl ServeInputs {
    /// Offline `match_batch` decisions for `pairs` (sent in this order,
    /// cyclically).
    pub fn new(
        pairs: Vec<(u32, u32)>,
        matcher: &mut TrainedMatcher,
        codec: &PairCodec,
    ) -> Result<ServeInputs, String> {
        let encoded = pairs
            .iter()
            .map(|&(l, r)| {
                codec
                    .encode(l as usize, r as usize)
                    .ok_or("pair out of range")
            })
            .collect::<Result<Vec<_>, _>>()?;
        let reference = pairs
            .iter()
            .zip(matcher.match_batch(&encoded))
            .map(|(&p, d)| (p, (d.proba.to_bits(), d.is_match)))
            .collect();
        if pairs.len() <= SAT_WINDOW {
            return Err(format!("need more than {SAT_WINDOW} distinct pairs"));
        }
        Ok(ServeInputs { pairs, reference })
    }

    fn judge(&self, resp: &Response, pair: (u32, u32)) -> Answer {
        match resp {
            Response::Matched {
                proba, decision, ..
            } => {
                let want = self.reference.get(&pair);
                let got = (proba.len() == 1 && decision.len() == 1)
                    .then(|| (proba[0].to_bits(), decision[0]));
                if got.is_some() && got == want.copied() {
                    Answer::Good
                } else {
                    Answer::Wrong
                }
            }
            Response::Rejected { .. } => Answer::Rejected,
            _ => Answer::Failed,
        }
    }
}

/// Phase lengths for one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassPlan {
    /// Seconds of `light`.
    pub light_s: f64,
    /// Seconds of `sat` sending (the drain comes on top).
    pub sat_s: f64,
}

/// Everything the stage measured.
pub struct ServeRun {
    /// `light` p50 latency of each pass, ms.
    pub light_p50_ms: Vec<f64>,
    /// `sat` completed requests per second of each pass.
    pub sat_rps: Vec<f64>,
    /// Requests sent, warm-up included.
    pub sent: u64,
    /// Requests that did not end well (refused, failed, wrong, too slow).
    pub failed: u64,
    /// Disagreements between the server's accounting and the client's.
    pub accounting: Vec<String>,
    /// Per-layer rows of the last traced pass (empty when untraced).
    pub layers: Metrics,
}

/// Bind a server over `matcher`, run the passes (`plans[i].1` says whether
/// pass `i` is traced: scorer calls recorded, and with `profile_ops` the
/// op profiler on and flushed on this thread), drain it, and check its
/// accounting.
pub fn run_stage(
    matcher: &TrainedMatcher,
    codec: &PairCodec,
    inputs: &ServeInputs,
    plans: &[(PassPlan, bool)],
    profile_ops: bool,
) -> Result<ServeRun, String> {
    let probe = Arc::new(Probe {
        origin: Stopwatch::new(),
        recording: AtomicBool::new(false),
        calls: Mutex::new(Vec::new()),
    });
    let factory: ScorerFactory = {
        let (matcher, codec, probe) = (matcher.clone(), codec.clone(), Arc::clone(&probe));
        Arc::new(move || {
            Box::new(BenchScorer {
                matcher: matcher.clone(),
                codec: codec.clone(),
                probe: Arc::clone(&probe),
            })
        })
    };
    let cfg = ServeCfg {
        workers: WORKERS,
        ..ServeCfg::default()
    };
    let server = Server::bind(cfg, factory).map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let stats = server.stats();

    std::thread::scope(|s| {
        // lint:allow(thread-spawn) — the server's accept loop blocks until
        // the drain, so it runs beside the load generator.
        let server_thread = s.spawn(move || server.run());
        let driven = drive(&addr, &probe, inputs, plans, profile_ops);
        let drained = shutdown(&addr);
        let summary = server_thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("serve: {e}"))?;
        let (mut run, all) = driven?;
        drained?;

        let tally = |f: fn(&Req) -> bool| all.iter().filter(|r| f(r)).count() as u64;
        let client_completed = tally(|r| matches!(r.answer, Some(Answer::Good | Answer::Wrong)));
        let client_rejected = tally(|r| r.answer == Some(Answer::Rejected));
        let client_failed = tally(|r| r.answer == Some(Answer::Failed));
        let mut agree = |what: &str, server: u64, client: u64| {
            if server != client {
                run.accounting
                    .push(format!("{what}: server {server}, client {client}"));
            }
        };
        agree("completed", summary.completed, client_completed);
        agree("rejected", summary.rejected, client_rejected);
        agree("failed", summary.failed, client_failed);
        agree("restarts", summary.restarts, 0);
        agree("duplicates", stats.duplicates.load(Ordering::Relaxed), 0);
        agree(
            "duplicate ids",
            stats.duplicate_ids.load(Ordering::Relaxed),
            0,
        );
        agree("bad lines", stats.bad_lines.load(Ordering::Relaxed), 0);
        run.sent = all.len() as u64;
        run.failed = tally(|r| !r.ok());
        Ok(run)
    })
}

/// Warm up, then run every pass; returns the stage's measurements and
/// every request sent, warm-up included.
fn drive(
    addr: &str,
    probe: &Probe,
    inputs: &ServeInputs,
    plans: &[(PassPlan, bool)],
    profile_ops: bool,
) -> Result<(ServeRun, Vec<Req>), String> {
    let mut all = Vec::new();
    let mut run = ServeRun {
        light_p50_ms: Vec::new(),
        sat_rps: Vec::new(),
        sent: 0,
        failed: 0,
        accounting: Vec::new(),
        layers: Metrics::default(),
    };
    let mut next = 0;
    for (k, &(plan, traced)) in plans.iter().enumerate() {
        probe.recording.store(traced, Ordering::Relaxed);
        em_nn::tape::set_op_profile(traced && profile_ops);
        let conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        conn.set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        // The generator's own writes must not wait on Nagle's algorithm.
        conn.set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
        if k == 0 {
            let warm = closed_loop(&conn, &mut reader, probe, inputs, &mut next, "w", None)?;
            all.extend(warm.reqs);
        }
        let light = light(
            &conn,
            &mut reader,
            probe,
            inputs,
            &mut next,
            plan.light_s,
            k,
        )?;
        let tag = format!("p{k}s");
        let sat = closed_loop(
            &conn,
            &mut reader,
            probe,
            inputs,
            &mut next,
            &tag,
            Some(plan.sat_s),
        )?;
        probe.recording.store(false, Ordering::Relaxed);
        em_nn::tape::flush_op_stats();
        em_nn::tape::set_op_profile(false);
        run.light_p50_ms.push(median(&light.latencies_ms()));
        run.sat_rps.push(sat.ok() as f64 / sat.wall);
        if traced {
            light.layer_metrics(&mut run.layers);
            sat.layer_metrics(&mut run.layers);
            let sched = Schedule::new(LIGHT_RATE);
            let lag: Vec<f64> = light
                .reqs
                .iter()
                .enumerate()
                .map(|(i, r)| sched.lag(i, r.sent) * 1e3)
                .collect();
            if let Some(t) = tail(&lag) {
                run.layers.put("gen.lag_ms_tail", t.value, "ms");
                run.layers.put("gen.lag_tail_pct", t.pct, "pct");
            }
            run.layers.put(
                "gen.lag_ms_max",
                lag.iter().copied().fold(0.0, f64::max),
                "ms",
            );
        }
        all.extend(light.reqs);
        all.extend(sat.reqs);
    }
    Ok((run, all))
}

/// Read one answer and file it under the request its id names.
/// The receive time is read once the line is complete, in seconds from
/// `t0` on the probe clock.
fn read_answer(
    reader: &mut BufReader<Conn>,
    tag: &str,
    reqs: &mut [Req],
    inputs: &ServeInputs,
    probe: &Probe,
    t0: f64,
) -> Result<(), String> {
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("{tag}: waiting for an answer: {e}"))?;
        if n == 0 {
            return Err(format!("{tag}: server closed the connection"));
        }
        if !line.trim().is_empty() {
            break;
        }
    }
    let now = probe.now() - t0;
    let resp = Response::parse(line.trim()).map_err(|e| format!("{tag}: {e}"))?;
    let id = match &resp {
        Response::Matched { id, .. }
        | Response::Rejected { id, .. }
        | Response::DeadlineExceeded { id }
        | Response::Failed { id, .. } => id.clone(),
        other => return Err(format!("{tag}: unexpected answer {other:?}")),
    };
    let i: usize = id
        .strip_prefix(tag)
        .and_then(|s| s.parse().ok())
        .filter(|&i| i < reqs.len())
        .ok_or_else(|| format!("{tag}: answer for unknown id {id:?}"))?;
    let r = &mut reqs[i];
    if r.recv.is_some() {
        return Err(format!("{tag}: second answer for {id}"));
    }
    r.recv = Some(now);
    r.answer = Some(inputs.judge(&resp, r.pair));
    Ok(())
}

/// The open-loop phase at [`LIGHT_RATE`] for `secs` seconds.
fn light(
    conn: &Conn,
    reader: &mut BufReader<Conn>,
    probe: &Probe,
    inputs: &ServeInputs,
    next: &mut usize,
    secs: f64,
    pass: usize,
) -> Result<Phase, String> {
    let tag = format!("p{pass}l");
    let sched = Schedule::new(LIGHT_RATE);
    let n = sched.count(secs);
    let pairs: Vec<(u32, u32)> = (0..n)
        .map(|i| inputs.pairs[(*next + i) % inputs.pairs.len()])
        .collect();
    *next += n;
    let lines: Vec<Vec<u8>> = pairs
        .iter()
        .enumerate()
        .map(|(i, &p)| request_line(format!("{tag}{i}"), p))
        .collect();
    let mut reqs: Vec<Req> = pairs
        .iter()
        .enumerate()
        .map(|(i, &pair)| Req {
            pair,
            due: sched.due(i),
            sent: f64::NAN,
            recv: None,
            answer: None,
        })
        .collect();
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let _ = probe.take_calls();
    let t0 = probe.now();
    let sent = std::thread::scope(|s| -> Result<Vec<f64>, String> {
        // lint:allow(thread-spawn) — the sender follows the clock alone and
        // never waits on replies, so it needs its own thread.
        let sender = s.spawn(move || -> Result<Vec<f64>, String> {
            let mut sent = Vec::with_capacity(n);
            for (i, line) in lines.iter().enumerate() {
                let wait = sched.wait(i, probe.now() - t0);
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                writer
                    .write_all(line)
                    .map_err(|e| format!("light: send: {e}"))?;
                sent.push(probe.now() - t0);
            }
            Ok(sent)
        });
        let mut received = Ok(());
        for _ in 0..n {
            received = read_answer(reader, &tag, &mut reqs, inputs, probe, t0);
            if received.is_err() {
                break;
            }
        }
        let sent = sender
            .join()
            .map_err(|_| "light: sender panicked".to_string())??;
        received.map(|()| sent)
    })?;
    for (r, s) in reqs.iter_mut().zip(sent) {
        r.sent = s;
    }
    let wall = probe.now() - t0;
    Ok(Phase {
        name: "light",
        reqs,
        wall,
        t0,
        calls: probe.take_calls(),
    })
}

/// A closed loop holding [`SAT_WINDOW`] requests outstanding: the `sat`
/// phase when given `secs` (new requests for that long, then every
/// outstanding one drained), else the [`WARMUP`] requests sent before
/// anything is timed.
fn closed_loop(
    conn: &Conn,
    reader: &mut BufReader<Conn>,
    probe: &Probe,
    inputs: &ServeInputs,
    next: &mut usize,
    tag: &str,
    secs: Option<f64>,
) -> Result<Phase, String> {
    let mut writer = conn.try_clone().map_err(|e| e.to_string())?;
    let mut reqs: Vec<Req> = Vec::new();
    let _ = probe.take_calls();
    let t0 = probe.now();
    let mut send = |reqs: &mut Vec<Req>| -> Result<(), String> {
        let pair = inputs.pairs[*next % inputs.pairs.len()];
        *next += 1;
        let line = request_line(format!("{tag}{}", reqs.len()), pair);
        writer
            .write_all(&line)
            .map_err(|e| format!("{tag}: send: {e}"))?;
        let at = probe.now() - t0;
        reqs.push(Req {
            pair,
            due: at,
            sent: at,
            recv: None,
            answer: None,
        });
        Ok(())
    };
    let more = |reqs: &Vec<Req>| match secs {
        Some(s) => probe.now() - t0 < s,
        None => reqs.len() < WARMUP,
    };
    let mut outstanding = 0;
    while outstanding < SAT_WINDOW && more(&reqs) {
        send(&mut reqs)?;
        outstanding += 1;
    }
    while outstanding > 0 {
        read_answer(reader, tag, &mut reqs, inputs, probe, t0)?;
        outstanding -= 1;
        if more(&reqs) {
            send(&mut reqs)?;
            outstanding += 1;
        }
    }
    let wall = probe.now() - t0;
    Ok(Phase {
        name: if secs.is_some() { "sat" } else { "warmup" },
        reqs,
        wall,
        t0,
        calls: probe.take_calls(),
    })
}

/// Ask the server to drain; it answers once every admitted request is done.
fn shutdown(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match client.call(&Request::Shutdown {
        id: "bench-shutdown".into(),
    }) {
        Ok(Response::Drained { .. }) => Ok(()),
        Ok(other) => Err(format!("unexpected shutdown answer {other:?}")),
        Err(e) => Err(format!("shutdown: {e}")),
    }
}
