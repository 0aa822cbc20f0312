//! Thread-local registry binding — how instrumented code finds its cells.
//!
//! Instrumentation sites call the free functions ([`counter_add`],
//! [`gauge_add`], [`observe`], [`span`]) via the `tm_*!` macros; each
//! consults a thread-local `Option<Arc<Registry>>`. When no registry is
//! bound (the default, and always in loom/proptest runs) an update is a
//! TLS load plus one predictable branch — effectively free — which is how
//! the bench measures "enabled vs. disabled" overhead in a single binary.
//!
//! [`bind`] installs a registry for the current thread and returns a
//! guard restoring the previous binding on drop, so nested scopes (tests
//! running under a bound harness) compose. Pipeline workers bind their
//! per-shard registry for the lifetime of their thread.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use crate::metric::Metric;
use crate::registry::Registry;

thread_local! {
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Restores the previously bound registry (if any) when dropped.
/// Deliberately `!Send`: a binding belongs to one thread.
#[must_use = "dropping the guard immediately unbinds the registry"]
pub struct BindGuard {
    prev: Option<Arc<Registry>>,
    restore: bool,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for BindGuard {
    fn drop(&mut self) {
        if self.restore {
            let prev = self.prev.take();
            let _ = CURRENT.try_with(|c| {
                if let Ok(mut slot) = c.try_borrow_mut() {
                    *slot = prev;
                }
            });
        }
    }
}

/// Bind `registry` as the current thread's metric sink until the guard
/// drops.
pub fn bind(registry: Arc<Registry>) -> BindGuard {
    let prev = CURRENT
        .try_with(|c| match c.try_borrow_mut() {
            Ok(mut slot) => Some(slot.replace(registry)),
            Err(_) => None,
        })
        .ok()
        .flatten();
    match prev {
        Some(prev) => BindGuard {
            prev,
            restore: true,
            _thread_bound: PhantomData,
        },
        // TLS unavailable (thread teardown) or re-entrant borrow: nothing
        // was installed, so there is nothing to restore.
        None => BindGuard {
            prev: None,
            restore: false,
            _thread_bound: PhantomData,
        },
    }
}

/// Whether the current thread has a registry bound (telemetry enabled).
#[inline]
pub fn is_bound() -> bool {
    CURRENT
        .try_with(|c| c.try_borrow().map(|slot| slot.is_some()).unwrap_or(false))
        .unwrap_or(false)
}

#[inline]
fn with_registry(f: impl FnOnce(&Registry)) {
    let _ = CURRENT.try_with(|c| {
        if let Ok(slot) = c.try_borrow() {
            if let Some(reg) = slot.as_deref() {
                f(reg);
            }
        }
    });
}

/// Add `n` to a counter on the bound registry; no-op when unbound.
#[inline]
pub fn counter_add(m: Metric, n: u64) {
    with_registry(|r| r.counter_add(m, n));
}

/// Apply a signed delta to a gauge on the bound registry.
#[inline]
pub fn gauge_add(m: Metric, delta: i64) {
    with_registry(|r| r.gauge_add(m, delta));
}

/// Record a histogram observation on the bound registry.
#[inline]
pub fn observe(m: Metric, v: u64) {
    with_registry(|r| r.observe(m, v));
}

/// Fold another registry's cells into the current thread's bound registry
/// (element-wise add); no-op when unbound. `ParallelSniffer::finish` uses
/// this to sum its joined threads' registries into the caller's.
pub fn merge_into_bound(other: &Registry) {
    with_registry(|r| r.merge_from(other));
}

/// A lightweight stage timer: measures wall time from construction to
/// drop and adds the elapsed nanoseconds to a counter metric. When no
/// registry is bound at construction the clock is never read.
pub struct Span {
    metric: Metric,
    start: Option<Instant>,
}

impl Span {
    /// Abandon the span without recording (e.g. on an error path).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t0) = self.start.take() {
            let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            counter_add(self.metric, nanos);
        }
    }
}

/// Start a [`Span`] accumulating into counter metric `m`.
#[inline]
pub fn span(m: Metric) -> Span {
    Span {
        metric: m,
        start: if is_bound() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbound_updates_are_noops() {
        assert!(!is_bound());
        counter_add(Metric::IngestFrames, 1);
        gauge_add(Metric::FlowTableSize, 1);
        observe(Metric::RingOccupancy, 1);
        drop(span(Metric::MergeNanos));
        assert!(!is_bound());
    }

    #[test]
    fn bind_routes_updates_and_nests() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        {
            let _g1 = bind(outer.clone());
            assert!(is_bound());
            counter_add(Metric::TagHits, 1);
            {
                let _g2 = bind(inner.clone());
                counter_add(Metric::TagHits, 10);
            }
            // Inner guard dropped: back on the outer registry.
            counter_add(Metric::TagHits, 2);
        }
        assert!(!is_bound());
        counter_add(Metric::TagHits, 100); // lost: nothing bound
        assert_eq!(outer.snapshot().get(Metric::TagHits), 3);
        assert_eq!(inner.snapshot().get(Metric::TagHits), 10);
    }

    #[test]
    fn span_records_elapsed_nanos() {
        let reg = Arc::new(Registry::new());
        {
            let _g = bind(reg.clone());
            let s = span(Metric::MergeNanos);
            std::hint::black_box(0u64);
            drop(s);
            let cancelled = span(Metric::DispatchBusyNanos);
            cancelled.cancel();
        }
        // Elapsed time is nonnegative; the cell was touched exactly once.
        let s = reg.snapshot();
        assert_eq!(s.get(Metric::DispatchBusyNanos), 0);
        // A span across ~nothing can still legitimately read 0ns on a
        // coarse clock, so only assert it did not underflow.
        assert!(s.get(Metric::MergeNanos) < u64::MAX);
    }

    #[test]
    fn bindings_are_per_thread() {
        let reg = Arc::new(Registry::new());
        let _g = bind(reg.clone());
        counter_add(Metric::IngestFrames, 1);
        let reg2 = reg.clone();
        std::thread::spawn(move || {
            assert!(!is_bound());
            counter_add(Metric::IngestFrames, 50); // unbound thread: lost
            let _g = bind(reg2);
            counter_add(Metric::IngestFrames, 7);
        })
        .join()
        .expect("worker thread");
        assert_eq!(reg.snapshot().get(Metric::IngestFrames), 8);
    }
}
