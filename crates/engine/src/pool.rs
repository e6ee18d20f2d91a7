//! The [`WorkPool`]: one global slot budget shared between the scenario
//! runner and intra-scenario parallelism.
//!
//! The runner sizes the budget to the configured thread count and holds
//! one slot per worker; everything left over is lendable to scenarios
//! through [`WorkPool::par_map`] (surfaced as `ScenarioCtx::par_map`).
//! Retiring runner workers hand their slot back, so a heavy scenario
//! that outlives the rest of the suite widens automatically — and nested
//! parallelism can never oversubscribe the machine, because every helper
//! thread anywhere is backed by a slot from the same budget.
//!
//! `par_map` writes results by item index and the caller always
//! participates, so the item→result mapping is independent of how many
//! helpers the budget lends at that moment: output is byte-identical
//! across `--threads` settings (and across racing sibling scenarios).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Returns borrowed slots on drop — including during a panic unwind, so
/// a panicking work item can never leak its helpers out of the budget
/// (the leak would starve, and eventually deadlock, sibling scenarios).
struct SlotGuard<'a> {
    pool: &'a WorkPool,
    n: usize,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.pool.release(self.n);
    }
}

/// Shared budget of borrowable helper slots. Cloning is cheap and all
/// clones draw on the same budget.
#[derive(Clone, Debug, Default)]
pub struct WorkPool {
    extra: Arc<AtomicUsize>,
}

impl WorkPool {
    /// A pool lending up to `extra_slots` helper threads.
    pub fn new(extra_slots: usize) -> WorkPool {
        WorkPool {
            extra: Arc::new(AtomicUsize::new(extra_slots)),
        }
    }

    /// A pool that never lends a helper: every [`WorkPool::par_map`]
    /// runs serially on the caller.
    pub fn serial() -> WorkPool {
        WorkPool::new(0)
    }

    /// Helper slots currently borrowable.
    pub fn available(&self) -> usize {
        self.extra.load(Ordering::Relaxed)
    }

    /// Borrows up to `want` helper slots without blocking, returning how
    /// many were obtained. Pair with [`WorkPool::release`].
    pub fn acquire_up_to(&self, want: usize) -> usize {
        let mut cur = self.extra.load(Ordering::Relaxed);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return 0;
            }
            match self.extra.compare_exchange_weak(
                cur,
                cur - take,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => cur = now,
            }
        }
    }

    /// Returns `n` borrowed slots to the budget (also used by runner
    /// workers handing their own slot back as they retire).
    pub fn release(&self, n: usize) {
        self.extra.fetch_add(n, Ordering::AcqRel);
    }

    /// Maps `f` over `items` on the caller plus up to `items.len() - 1`
    /// borrowed helper threads, returning results in submission order.
    ///
    /// `f` receives `(index, &item)`; derive any per-item randomness from
    /// the index (e.g. `ScenarioCtx::item_seed`), never from thread
    /// identity, and the output is byte-identical for every budget size —
    /// including zero, where the call degenerates to a serial map.
    ///
    /// A grant of exactly one helper slot is returned unused and the map
    /// runs inline: on an oversubscribed or single-CPU host the spawn +
    /// per-item synchronization of a lone helper costs more than the
    /// second lane buys (the `strategies` exhibit measured *slower*
    /// parallel than serial on the 1-CPU container), and the
    /// `inline_and_pooled_par_map_byte_identical` test pins that both
    /// paths produce identical output, so the cutover is free.
    ///
    /// # Fault isolation
    ///
    /// Every work item runs under `catch_unwind`: a panicking item stops
    /// further pickup, the borrowed helper slots go back to the budget
    /// (guard-backed — returned even while the panic unwinds), and the
    /// *first* panic payload is re-raised on the caller once all workers
    /// have parked. A panic can therefore never leak slots or strand
    /// sibling scenarios waiting on the shared budget.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let helpers = if n > 2 { self.acquire_up_to(n - 1) } else { 0 };
        if helpers == 1 {
            self.release(1);
        }
        if helpers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let guard = SlotGuard {
            pool: self,
            n: helpers,
        };
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(n, || None);
        let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
        {
            let next = AtomicUsize::new(0);
            let stop = AtomicBool::new(false);
            let slots_shared = Mutex::new(&mut slots);
            let worker = || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
                    Ok(r) => {
                        slots_shared.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(r);
                    }
                    Err(payload) => {
                        stop.store(true, Ordering::Relaxed);
                        let mut first = panicked.lock().unwrap_or_else(|e| e.into_inner());
                        if first.is_none() {
                            *first = Some(payload);
                        }
                    }
                }
            };
            std::thread::scope(|scope| {
                for _ in 0..helpers {
                    // The closure only captures references, so it is Copy
                    // and each helper gets its own handle.
                    scope.spawn(worker);
                }
                worker();
            });
        }
        drop(guard);
        if let Some(payload) = panicked.into_inner().unwrap_or_else(|e| e.into_inner()) {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|r| r.expect("par_map slot filled"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_roundtrip() {
        let pool = WorkPool::new(3);
        assert_eq!(pool.available(), 3);
        assert_eq!(pool.acquire_up_to(2), 2);
        assert_eq!(pool.acquire_up_to(5), 1);
        assert_eq!(pool.acquire_up_to(1), 0);
        pool.release(3);
        assert_eq!(pool.available(), 3);
        // Clones share the budget.
        let clone = pool.clone();
        assert_eq!(clone.acquire_up_to(3), 3);
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn par_map_preserves_submission_order() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
        for extra in [0usize, 1, 3, 7] {
            let pool = WorkPool::new(extra);
            let got = pool.par_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expect, "extra={extra}");
            assert_eq!(pool.available(), extra, "slots returned, extra={extra}");
        }
    }

    #[test]
    fn single_slot_grant_runs_inline_and_returns_the_slot() {
        let pool = WorkPool::new(1);
        let items: Vec<usize> = (0..16).collect();
        let main_thread = std::thread::current().id();
        let got = pool.par_map(&items, |_, &x| {
            // The lone helper slot must be declined: every item runs on
            // the calling thread.
            assert_eq!(std::thread::current().id(), main_thread);
            x + 1
        });
        assert_eq!(got, (1..=16).collect::<Vec<_>>());
        assert_eq!(pool.available(), 1, "declined slot must be returned");
    }

    #[test]
    fn inline_and_pooled_par_map_byte_identical() {
        // The same work item set must produce identical results whether
        // the map runs inline (0 or 1 slot) or across real helpers.
        let items: Vec<usize> = (0..64).collect();
        let run = |extra: usize| {
            let pool = WorkPool::new(extra);
            pool.par_map(&items, |i, &x| format!("{i}:{}", x * 31))
        };
        let inline = run(0);
        assert_eq!(inline, run(1), "single-slot (inline) path diverged");
        assert_eq!(inline, run(3), "pooled path diverged");
        assert_eq!(inline, run(16), "wide pooled path diverged");
    }

    #[test]
    fn par_map_never_exceeds_budget() {
        let pool = WorkPool::new(2); // caller + 2 helpers = 3 concurrent max
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        pool.par_map(&items, |_, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn panicking_item_returns_every_slot_and_repropagates() {
        // Regression: a panicking worker used to unwind through
        // `thread::scope` past the release call, leaking its helper
        // slots from the shared budget for the rest of the process.
        let pool = WorkPool::new(3);
        let items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |_, &x| {
                if x == 7 {
                    panic!("injected item failure");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "injected item failure");
        assert_eq!(pool.available(), 3, "budget must be whole after a panic");
        // The pool stays usable: the same call shape succeeds afterwards.
        let ok = pool.par_map(&items, |_, &x| x * 2);
        assert_eq!(ok[63], 126);
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn nested_par_map_draws_on_the_same_budget() {
        let pool = WorkPool::new(4);
        let outer: Vec<usize> = (0..4).collect();
        let sums = pool.par_map(&outer, |_, &o| {
            let inner: Vec<usize> = (0..8).collect();
            pool.par_map(&inner, |_, &i| o * 100 + i)
                .iter()
                .sum::<usize>()
        });
        let expect: Vec<usize> = (0..4).map(|o| o * 800 + 28).collect();
        assert_eq!(sums, expect);
        assert_eq!(pool.available(), 4);
    }
}
