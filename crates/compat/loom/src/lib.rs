//! Offline shim for `loom`-style concurrency testing.
//!
//! Real loom exhaustively enumerates thread interleavings under the C11
//! memory model. Without crates.io access that engine is unavailable, so
//! this shim approximates it with **randomized schedule exploration**: the
//! test body runs many times (`LOOM_MAX_ITER`, default 128), and every
//! synchronization point (`Mutex::lock`, `thread::yield_now`, spawn) injects
//! a seeded random delay — nothing, a spin, an OS yield, or a short sleep —
//! so each iteration executes a materially different interleaving. This is
//! the same stress-scheduling idea behind tools like rr chaos mode: far
//! weaker than exhaustive model checking, but it reliably surfaces lost
//! updates and ordering bugs with windows wider than a few instructions
//! (see `crates/core/tests/loom_ring.rs` for a demonstration against a
//! deliberately racy ring drain).
//!
//! The API mirrors the subset of loom the workspace uses: `loom::model`,
//! `loom::thread::{spawn, yield_now}`, `loom::sync::{Arc, Mutex, atomic}`.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global per-iteration schedule seed, set by [`model`].
static SCHEDULE_SEED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_STREAM: Cell<u64> = const { Cell::new(0) };
}

fn splitmix(z: u64) -> u64 {
    let mut x = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Inject a scheduling perturbation. Called by every shim sync primitive;
/// test code may call it directly to widen a race window under scrutiny.
pub fn explore_preempt() {
    let global = SCHEDULE_SEED.load(Ordering::Relaxed);
    let local = THREAD_STREAM.with(|stream| {
        let next = splitmix(stream.get() ^ global);
        stream.set(next);
        next
    });
    match local % 16 {
        0..=7 => {}
        8..=10 => std::hint::spin_loop(),
        11..=13 => std::thread::yield_now(),
        _ => std::thread::sleep(std::time::Duration::from_micros(local % 97)),
    }
}

fn max_iterations() -> u64 {
    std::env::var("LOOM_MAX_ITER")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(128)
}

/// Run `f` once per explored schedule. Panics propagate out of the failing
/// iteration, as with real loom.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    for iteration in 0..max_iterations() {
        SCHEDULE_SEED.store(splitmix(iteration), Ordering::Relaxed);
        f();
    }
}

pub mod thread {
    pub use std::thread::JoinHandle;

    /// Spawn a thread, seeding its perturbation stream.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        std::thread::spawn(move || {
            super::explore_preempt();
            f()
        })
    }

    /// A loom-visible scheduling point.
    pub fn yield_now() {
        super::explore_preempt();
        std::thread::yield_now();
    }
}

pub mod sync {
    pub use std::sync::atomic;
    pub use std::sync::Arc;
    use std::sync::MutexGuard;

    /// A mutex whose `lock` is a schedule-exploration point.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        pub fn new(value: T) -> Self {
            Mutex {
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Acquire the lock; never poisons (parking_lot-compatible so the
        /// resolver's `cfg(loom)` shim can swap it in transparently).
        pub fn lock(&self) -> MutexGuard<'_, T> {
            super::explore_preempt();
            match self.inner.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            }
        }

        pub fn get_mut(&mut self) -> &mut T {
            match self.inner.get_mut() {
                Ok(value) => value,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::{Arc, Mutex};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn model_runs_many_schedules() {
        let ran = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let ran2 = Arc::clone(&ran);
        super::model(move || {
            ran2.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ran.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn locked_counter_is_exact() {
        super::model(|| {
            let counter = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    super::thread::spawn(move || {
                        for _ in 0..50 {
                            *counter.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("no panics under correct locking");
            }
            assert_eq!(*counter.lock(), 100);
        });
    }

    #[test]
    fn racy_read_modify_write_loses_updates() {
        // The shim's reason to exist: a read-modify-write split across two
        // lock acquisitions must be caught as a lost update.
        let violated = Arc::new(AtomicBool::new(false));
        let violated2 = Arc::clone(&violated);
        super::model(move || {
            let counter = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let counter = Arc::clone(&counter);
                    super::thread::spawn(move || {
                        for _ in 0..25 {
                            let snapshot = *counter.lock(); // guard dropped!
                            super::explore_preempt();
                            *counter.lock() = snapshot + 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("threads complete");
            }
            if *counter.lock() != 50 {
                violated2.store(true, Ordering::Relaxed);
            }
        });
        assert!(
            violated.load(Ordering::Relaxed),
            "schedule exploration failed to surface the lost update"
        );
    }
}
