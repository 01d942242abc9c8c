//! Trainer heartbeats: periodic `progress` events from inside training
//! loops (throughput, ETA, running loss, tape/heap gauges).
//!
//! The gate follows the op profiler's relaxed-load pattern: one interval
//! word, settable programmatically (`--progress-every`) or via
//! `PROMPTEM_PROGRESS_EVERY`, read with a single `Relaxed` load. When the
//! interval is 0 (the default) [`heartbeat`] returns `None` before
//! touching a clock, so a heartbeat-free run pays one atomic load per
//! training phase and nothing per batch. [`clock_reads`] counts every
//! clock access the module makes, which is how the zero-cost claim is
//! proven rather than asserted (see the tests here and the op profiler's
//! equivalent in `em-nn`).
//!
//! Ticks are *work units* (batches, optimizer steps, MC passes), not
//! wall-clock intervals: emission every N ticks keeps the decision
//! deterministic and clock-free.

use crate::event::EventKind;
use crate::{alloc, enabled, metrics, Stopwatch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Programmatic interval override (0 = not forced; fall back to the env).
static FORCED_EVERY: AtomicU64 = AtomicU64::new(0);

/// Clock reads performed by this module, ever. Diagnostics only: the
/// zero-cost test pins this to be flat across a disabled training loop.
static CLOCK_READS: AtomicU64 = AtomicU64::new(0);

/// The metric the autodiff tape ticks per recorded node; sampled into
/// each beat so a dashboard can watch graph growth without op profiling.
const TAPE_NODES_METRIC: &str = "nn_tape_nodes";

fn env_every() -> u64 {
    static ENV: OnceLock<u64> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("PROMPTEM_PROGRESS_EVERY")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    })
}

/// The active heartbeat interval in ticks (0 = heartbeats off). The
/// programmatic setting wins over `PROMPTEM_PROGRESS_EVERY`.
pub fn progress_every() -> u64 {
    match FORCED_EVERY.load(Ordering::Relaxed) {
        0 => env_every(),
        n => n,
    }
}

/// Set the heartbeat interval programmatically (the CLI's
/// `--progress-every`). 0 clears the override, falling back to the env.
pub fn set_progress_every(every: u64) {
    FORCED_EVERY.store(every, Ordering::Relaxed);
}

/// Total clock reads this module has ever performed (diagnostics; the
/// disabled path must keep this flat).
pub fn clock_reads() -> u64 {
    CLOCK_READS.load(Ordering::Relaxed)
}

fn read_clock_secs(watch: &Stopwatch) -> f64 {
    CLOCK_READS.fetch_add(1, Ordering::Relaxed);
    watch.secs()
}

/// Start a heartbeat for one training phase, or `None` when heartbeats
/// are off or no sink would observe them. `total` is the expected tick
/// count (0 when unknown; fix it up later with
/// [`Heartbeat::set_total`]).
pub fn heartbeat(phase: &'static str, total: u64) -> Option<Heartbeat> {
    let every = progress_every();
    if every == 0 || !enabled() {
        return None;
    }
    CLOCK_READS.fetch_add(1, Ordering::Relaxed);
    Some(Heartbeat {
        phase,
        every,
        total,
        done: 0,
        examples: 0,
        loss_sum: 0.0,
        loss_ticks: 0,
        watch: Stopwatch::new(),
    })
}

/// A live heartbeat: call [`tick`](Heartbeat::tick) once per work unit;
/// every `progress_every()` ticks it emits one `progress` event.
pub struct Heartbeat {
    phase: &'static str,
    every: u64,
    total: u64,
    done: u64,
    examples: u64,
    loss_sum: f64,
    loss_ticks: u64,
    watch: Stopwatch,
}

impl Heartbeat {
    /// Update the expected tick count once it becomes known (e.g. after
    /// the first epoch reveals the batch count).
    pub fn set_total(&mut self, total: u64) {
        self.total = total;
    }

    /// Record one finished work unit covering `examples` examples with an
    /// optional batch loss; emits a `progress` event every N ticks.
    pub fn tick(&mut self, examples: u64, loss: Option<f64>) {
        self.done += 1;
        self.examples += examples;
        if let Some(l) = loss {
            self.loss_sum += l;
            self.loss_ticks += 1;
        }
        if self.done.is_multiple_of(self.every) {
            self.beat();
        }
    }

    fn beat(&mut self) {
        let secs = read_clock_secs(&self.watch);
        let ex_per_sec = if secs > 0.0 {
            self.examples as f64 / secs
        } else {
            0.0
        };
        let eta_us = (self.total > self.done && self.done > 0 && secs > 0.0).then(|| {
            let per_tick = secs / self.done as f64;
            (per_tick * (self.total - self.done) as f64 * 1e6) as u64
        });
        let loss = (self.loss_ticks > 0).then(|| self.loss_sum / self.loss_ticks as f64);
        self.loss_sum = 0.0;
        self.loss_ticks = 0;
        crate::emit(EventKind::Progress {
            phase: self.phase.into(),
            done: self.done,
            total: self.total,
            examples: self.examples,
            ex_per_sec,
            loss,
            eta_us,
            tape_nodes: metrics::counter(TAPE_NODES_METRIC, &[]).get(),
            heap_peak: alloc::peak_bytes() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture;
    use crate::event::EventKind;
    use crate::names;

    /// Serializes tests that touch the global interval word; parallel
    /// mutation would make the gate assertions racy.
    static EVERY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_is_zero_cost_and_enabled_beats_every_n_ticks() {
        let _events = crate::tests::test_lock();
        let _guard = EVERY_LOCK.lock().unwrap();
        // Disabled (the default): no Heartbeat, no clock reads, no events
        // — even under a capture, which otherwise forces `enabled()`.
        let ((), events) = capture(|| {
            let reads_before = clock_reads();
            let mut hb = heartbeat("tune", 100);
            assert!(hb.is_none(), "interval 0 must not build a heartbeat");
            for _ in 0..50 {
                if let Some(h) = hb.as_mut() {
                    h.tick(16, Some(0.5));
                }
            }
            assert_eq!(
                clock_reads(),
                reads_before,
                "disabled heartbeats must not read the clock"
            );
        });
        assert!(
            events
                .iter()
                .all(|e| e.kind.type_tag() != names::EV_PROGRESS),
            "disabled heartbeats must not emit progress events"
        );

        // Enabled: every 4th tick beats, with running loss reset per beat.
        set_progress_every(4);
        let ((), events) = capture(|| {
            let mut hb = heartbeat("tune", 12).expect("interval set");
            for i in 0..12 {
                hb.tick(8, Some(i as f64));
            }
        });
        set_progress_every(0);
        let beats: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Progress {
                    phase,
                    done,
                    total,
                    examples,
                    loss,
                    ..
                } => Some((phase.clone(), *done, *total, *examples, *loss)),
                _ => None,
            })
            .collect();
        assert_eq!(beats.len(), 3, "12 ticks at every=4");
        assert_eq!(beats[0], ("tune".into(), 4, 12, 32, Some(1.5)));
        assert_eq!(beats[1], ("tune".into(), 8, 12, 64, Some(5.5)));
        assert_eq!(beats[2], ("tune".into(), 12, 12, 96, Some(9.5)));
    }

    #[test]
    fn unknown_total_suppresses_eta() {
        let _events = crate::tests::test_lock();
        let _guard = EVERY_LOCK.lock().unwrap();
        set_progress_every(2);
        let ((), events) = capture(|| {
            let mut hb = heartbeat("mc_dropout", 0).expect("interval set");
            hb.tick(0, None);
            hb.tick(0, None);
        });
        set_progress_every(0);
        let beat = events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::Progress {
                    total,
                    eta_us,
                    loss,
                    ..
                } => Some((*total, *eta_us, *loss)),
                _ => None,
            })
            .expect("one beat");
        assert_eq!(beat, (0, None, None));
    }
}
