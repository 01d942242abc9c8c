//! Hierarchical spans with RAII guards.
//!
//! A span brackets one phase of the pipeline (`pretrain`, `teacher`,
//! `epoch`-free inner phases, ...). Opening a span emits a `span_open`
//! event; dropping the guard emits `span_close` carrying the wall-clock
//! duration, the live-heap delta across the span, and the process heap peak
//! (both zero unless [`crate::alloc::CountingAllocator`] is installed).
//!
//! Nesting is tracked per thread: events emitted while a guard is live carry
//! the innermost span's id in their `span` field. When telemetry is
//! disabled, [`crate::span`] returns an inert guard and costs two relaxed
//! atomic loads.

use crate::event::EventKind;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The innermost live span id on this thread, if any.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// RAII guard for one span; see the module docs.
#[must_use = "a span closes when its guard drops — bind it with `let _span = ...`"]
pub struct SpanGuard {
    id: u64,
    name: &'static str,
    start: Option<Instant>,
    heap_start: usize,
}

impl SpanGuard {
    /// The span id carried by this guard's open/close events (0 when the
    /// guard is inert because telemetry was disabled at open).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn open(name: &'static str, detail: Option<String>) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard {
                id: 0,
                name,
                start: None,
                heap_start: 0,
            };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = current();
        crate::emit(EventKind::SpanOpen {
            id,
            parent,
            name: name.to_string(),
            detail,
        });
        STACK.with(|s| s.borrow_mut().push(id));
        SpanGuard {
            id,
            name,
            start: Some(Instant::now()),
            heap_start: crate::alloc::current_bytes(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let wall_us = start.elapsed().as_micros() as u64;
        let heap_now = crate::alloc::current_bytes();
        // Pop this span (and, defensively, anything opened above it that
        // leaked past its scope) so the close event reports the parent.
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            while let Some(top) = stack.pop() {
                if top == self.id {
                    break;
                }
            }
        });
        crate::emit(EventKind::SpanClose {
            id: self.id,
            name: self.name.to_string(),
            wall_us,
            heap_delta: heap_now as i64 - self.heap_start as i64,
            heap_peak: crate::alloc::peak_bytes() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn inert_guard_when_disabled() {
        let _events = crate::tests::test_lock();
        // No sink and no capture on this thread: the guard must do nothing.
        let g = crate::span("idle");
        assert_eq!(g.id(), 0);
        drop(g);
        assert_eq!(current(), None);
    }

    #[test]
    fn nested_spans_emit_ordered_events_with_parents() {
        let _events = crate::tests::test_lock();
        let ((), events) = crate::capture(|| {
            let outer = crate::span("outer");
            let outer_id = outer.id();
            {
                let inner = crate::span_with("inner", "detail-text");
                assert_ne!(inner.id(), outer_id);
                crate::emit(EventKind::Block { candidates: 1 });
            }
            crate::emit(EventKind::Block { candidates: 2 });
        });

        assert_eq!(events.len(), 6, "{events:#?}");
        // Sequence numbers are strictly monotonic.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "{events:#?}");
        }

        let (outer_id, inner_id) = match (&events[0].kind, &events[1].kind) {
            (
                EventKind::SpanOpen {
                    id: o,
                    parent: None,
                    name: outer,
                    ..
                },
                EventKind::SpanOpen {
                    id: i,
                    parent: Some(p),
                    name: inner,
                    detail,
                },
            ) => {
                assert_eq!(outer, "outer");
                assert_eq!(inner, "inner");
                assert_eq!(p, o);
                assert_eq!(detail.as_deref(), Some("detail-text"));
                (*o, *i)
            }
            other => panic!("wrong opening events: {other:?}"),
        };
        // The open events themselves carry the *enclosing* span.
        assert_eq!(events[0].span, None);
        assert_eq!(events[1].span, Some(outer_id));
        // Block inside inner belongs to inner; after inner closes, to outer.
        assert_eq!(events[2].span, Some(inner_id));
        assert!(matches!(events[3].kind, EventKind::SpanClose { id, .. } if id == inner_id));
        assert_eq!(events[3].span, Some(outer_id));
        assert_eq!(events[4].span, Some(outer_id));
        assert!(matches!(events[5].kind, EventKind::SpanClose { id, .. } if id == outer_id));
        assert_eq!(events[5].span, None);
    }
}
