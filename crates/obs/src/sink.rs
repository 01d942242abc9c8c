//! Event sinks: no-op (default), human-readable stderr, JSONL file, and a
//! thread-local capture sink for tests.
//!
//! The no-op path is the hot one: with no sink configured and no capture
//! active, [`crate::enabled`] is two relaxed atomic loads plus one
//! thread-local read, and nothing else runs.

use crate::event::Event;
use crate::level::Level;
use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Stderr filter level: 0 = off, else `Level as u32 + 1`.
static STDERR_LEVEL: AtomicU32 = AtomicU32::new(0);

/// 1 when a JSONL writer is installed (fast check before taking the lock).
static JSONL_ACTIVE: AtomicU32 = AtomicU32::new(0);

static JSONL: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

thread_local! {
    static CAPTURE: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

/// True when any sink (or a capture on this thread) would observe an event.
pub(crate) fn any_active() -> bool {
    STDERR_LEVEL.load(Ordering::Relaxed) != 0
        || JSONL_ACTIVE.load(Ordering::Relaxed) != 0
        || CAPTURING.with(|c| c.get())
}

/// Enable (or, with `None`, disable) the stderr sink at the given level.
pub fn set_stderr_level(level: Option<Level>) {
    STDERR_LEVEL.store(level.map_or(0, |l| l as u32 + 1), Ordering::Relaxed);
}

/// The active stderr filter level, if any.
pub fn stderr_level() -> Option<Level> {
    match STDERR_LEVEL.load(Ordering::Relaxed) {
        0 => None,
        n => [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ]
        .get((n - 1) as usize)
        .copied(),
    }
}

/// Open (truncating) a JSONL trace file; every event is appended as one
/// JSON object per line in the schema documented in [`crate::event`].
pub fn open_jsonl(path: &Path) -> std::io::Result<()> {
    // A trace is an append-only stream, not a document: there is nothing
    // atomic to rename into place, and a truncated tail is recoverable.
    let file = File::create(path)?; // lint:allow(atomic-io)
                                    // A poisoned sink mutex only means a writer panicked mid-dispatch;
                                    // the BufWriter inside is still replaceable, so recover the guard.
    *JSONL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(BufWriter::new(file));
    JSONL_ACTIVE.store(1, Ordering::Relaxed);
    Ok(())
}

/// Flush and close the JSONL sink (idempotent; no-op when none is open).
pub fn close_jsonl() {
    JSONL_ACTIVE.store(0, Ordering::Relaxed);
    // Recover from poison: flushing a writer a panicked thread abandoned
    // is strictly better than dropping the tail of the trace.
    if let Some(mut w) = JSONL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
    {
        let _ = w.flush();
    }
}

/// Fan one event out to whichever sinks are active.
pub(crate) fn dispatch(event: &Event) {
    if CAPTURING.with(|c| c.get()) {
        CAPTURE.with(|buf| buf.borrow_mut().push(event.clone()));
    }
    if let Some(max) = stderr_level() {
        if event.kind.level() <= max {
            eprintln!("{}", event.render_human());
        }
    }
    if JSONL_ACTIVE.load(Ordering::Relaxed) != 0 {
        // Recover from poison: each line is written and flushed whole, so
        // the stream stays parseable even if a previous writer panicked.
        if let Some(w) = JSONL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_mut()
        {
            // Write-and-flush per event keeps the trace intact on panic;
            // event volume is modest (hundreds per run), so this is cheap.
            let _ = writeln!(w, "{}", event.to_json());
            let _ = w.flush();
        }
    }
}

/// Run `f` while capturing every event emitted *on this thread*; returns
/// `f`'s result plus the captured events in emission order. Captures keep
/// telemetry enabled regardless of global sinks, and being thread-local
/// they do not interfere with parallel tests. Nesting is not supported.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    CAPTURING.with(|c| {
        assert!(!c.get(), "nested em_obs::capture is not supported");
        c.set(true);
    });
    // Poisoning-safe: restore the flag even if `f` panics.
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            CAPTURING.with(|c| c.set(false));
            CAPTURE.with(|buf| buf.borrow_mut().clear());
        }
    }
    let reset = Reset;
    let out = f();
    let events = CAPTURE.with(|buf| std::mem::take(&mut *buf.borrow_mut()));
    drop(reset);
    (out, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn capture_collects_in_order_and_restores_disabled_state() {
        let _events = crate::tests::test_lock();
        assert!(!CAPTURING.with(|c| c.get()));
        let (value, events) = capture(|| {
            crate::emit(EventKind::Block { candidates: 10 });
            crate::emit(EventKind::Prune {
                dropped: 2,
                passes: 5,
            });
            "done"
        });
        assert_eq!(value, "done");
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0].kind,
            EventKind::Block { candidates: 10 }
        ));
        assert!(matches!(
            events[1].kind,
            EventKind::Prune {
                dropped: 2,
                passes: 5
            }
        ));
        assert!(events[0].seq < events[1].seq);
        assert!(!CAPTURING.with(|c| c.get()));
    }

    #[test]
    fn capture_survives_panic() {
        let _events = crate::tests::test_lock();
        let caught = std::panic::catch_unwind(|| {
            capture(|| panic!("boom"));
        });
        assert!(caught.is_err());
        assert!(
            !CAPTURING.with(|c| c.get()),
            "capture flag leaked after panic"
        );
        // A later capture starts from a clean buffer.
        let ((), events) = capture(|| crate::emit(EventKind::Block { candidates: 1 }));
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn jsonl_round_trips_through_a_file() {
        let _events = crate::tests::test_lock();
        let dir = std::env::temp_dir().join(format!("em_obs_jsonl_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        open_jsonl(&path).unwrap();
        crate::set_run_seed(7);
        crate::emit(EventKind::EpochSummary {
            epoch: 0,
            train_loss: 0.25,
            valid_f1: Some(90.0),
            threshold: Some(0.5),
            examples: 16,
            batches: 2,
            wall_us: 1234,
        });
        crate::emit(EventKind::Message {
            level: Level::Info,
            text: "hi \"there\"".into(),
        });
        close_jsonl();

        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<Event> = text
            .lines()
            .map(|l| Event::parse(l).expect("parse"))
            .collect();
        // Parallel tests on other threads may interleave their own events
        // into the global sink, so look ours up rather than indexing.
        let epoch = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::EpochSummary { .. }))
            .expect("epoch event missing");
        assert!(matches!(
            epoch.kind,
            EventKind::EpochSummary { epoch: 0, valid_f1: Some(f1), .. } if f1 == 90.0
        ));
        assert_eq!(epoch.seed, 7);
        let msg = events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Message { text, .. } if text == "hi \"there\""))
            .expect("message event missing");
        assert!(epoch.seq < msg.seq);
        std::fs::remove_dir_all(&dir).ok();
    }
}
