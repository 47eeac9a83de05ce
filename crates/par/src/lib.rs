//! # nbwp-par — deterministic parallel execution for the partitioning pipeline
//!
//! A small scoped worker pool built only on `std::thread`, designed around
//! one contract: **parallelism changes wall-clock time, never results**.
//! Every API here is an *ordered reduction* — outputs are combined in
//! submission order regardless of which worker computed what, so callers
//! (corpus runs, sensitivity sweeps, repeated estimates) produce
//! byte-identical results for any thread count.
//!
//! ## Grain
//!
//! The pool maps whole jobs: a dataset of a corpus, a factor of a sweep, a
//! repeat of an estimate. A job's threshold search and kernels run on the
//! thread that runs the job, so nothing below the job grain is handed to a
//! worker (DESIGN.md "Parallel execution & the determinism contract" has
//! the measurements behind that choice).
//!
//! ## Scheduling
//!
//! Workers claim the next unclaimed index from one shared atomic counter
//! until it passes the end. Every job is coarse, so one `fetch_add` per job
//! is negligible, and a worker that draws cheap jobs simply claims more of
//! them: irregular per-job costs (a corpus mixing small and large inputs)
//! balance without any cost model.
//!
//! ## Determinism
//!
//! * [`Pool::map`] / [`Pool::map_chunks`] return results indexed by
//!   submission position; execution order is unconstrained.
//! * `threads == 1` (or trivially small inputs) takes a plain serial path —
//!   the reference the property tests compare against.
//! * Nested calls from inside a pool worker run serially on that worker
//!   (no recursive thread explosion; the outer ordering guarantee already
//!   covers the nested region).
//! * A job that panics re-raises its panic in the caller once every
//!   worker has stopped; the pool holds no state, so it stays usable.
//!
//! ## Configuration
//!
//! [`Pool::global`] is shared, lazily built, and sized by the
//! `NBWP_THREADS` environment variable (falling back to
//! `std::thread::available_parallelism`). Explicit sizes are available via
//! [`Pool::new`] for tests and benchmarks that compare pool sizes in one
//! process.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set while the current thread is executing inside a pool worker;
    /// nested pool calls on such a thread degrade to the serial path.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// A deterministic scoped worker pool. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Pool {
    threads: usize,
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// A pool that runs every dispatch on up to `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        Pool { threads }
    }

    /// A pool sized by the `NBWP_THREADS` environment variable, falling
    /// back to the machine's available parallelism (and to 1 if even that
    /// is unknown). `NBWP_THREADS=0` or garbage falls back the same way.
    #[must_use]
    pub fn from_env() -> Self {
        let configured = std::env::var("NBWP_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let threads = configured.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        Pool::new(threads)
    }

    /// The process-wide shared pool ([`Pool::from_env`], built once).
    #[must_use]
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(Pool::from_env)
    }

    /// Worker count this pool dispatches on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ordered parallel map over `0..n`: `out[i] == f(i)` for every `i`,
    /// exactly as the serial loop would produce, for any thread count.
    ///
    /// # Panics
    /// Re-raises the first panic of `f`, in the caller, after every worker
    /// has stopped.
    pub fn map_indices<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 || IN_WORKER.with(Cell::get) {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let harvest = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        IN_WORKER.with(|w| w.set(true));
                        let mut out = Vec::new();
                        loop {
                            // Relaxed: the counter publishes no data. Each
                            // index goes to exactly one `fetch_add`, and
                            // results come back through `join`.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                return out;
                            }
                            out.push((i, f(i)));
                        }
                    })
                })
                .collect();
            // Join by hand so the job's own panic payload reaches the
            // caller (`scope` would replace it with a generic one).
            let mut harvest = Vec::with_capacity(workers);
            let mut panicked = None;
            for handle in handles {
                match handle.join() {
                    Ok(out) => harvest.push(out),
                    Err(payload) => {
                        panicked.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
            harvest
        });
        // Ordered reduction: place every result at its submission index.
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(n, || None);
        for (i, r) in harvest.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index computed exactly once"))
            .collect()
    }

    /// Ordered parallel map over a slice.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indices(items.len(), |i| f(&items[i]))
    }

    /// Splits `0..n` into about `parts` contiguous ranges and maps them in
    /// parallel, returning the per-range results in range order. Finer
    /// `parts` than workers lets the claim counter re-balance irregular
    /// range costs.
    pub fn map_chunks<R, F>(&self, n: usize, parts: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let parts = parts.clamp(1, n.max(1));
        let chunk = n.div_ceil(parts);
        let ranges: Vec<Range<usize>> = (0..parts)
            .map(|p| (p * chunk).min(n)..((p + 1) * chunk).min(n))
            .filter(|r| !r.is_empty())
            .collect();
        self.map(&ranges, |r| f(r.clone()))
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// A fixed set of per-worker resource slots with lock-free-ish checkout.
///
/// Long-lived reusable resources (profile scratch arenas) want to follow
/// workers, not allocations: each concurrent
/// builder should grab *a* warm instance, use it exclusively, and return
/// it. `SlotPool` holds `slots` independent `Mutex<Option<T>>` cells;
/// [`take`](SlotPool::take) scans with `try_lock` so a contended or
/// occupied-empty slot is simply skipped — callers never block on each
/// other, they just fall back to a fresh `T::default()` when every slot is
/// busy or cold. [`put`](SlotPool::put) returns an instance to the first
/// free slot (dropping it when all slots are full — the pool bounds
/// retained memory by construction).
///
/// Reuse statistics are exposed via [`reuses`](SlotPool::reuses) /
/// [`misses`](SlotPool::misses) so callers can surface a
/// `*.scratch_reuse` metric.
#[derive(Debug)]
pub struct SlotPool<T> {
    slots: Box<[std::sync::Mutex<Option<T>>]>,
    reuses: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl<T: Default> SlotPool<T> {
    /// A pool of `slots` cells, all initially cold (empty).
    ///
    /// # Panics
    /// Panics if `slots == 0`.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        assert!(slots >= 1, "a slot pool needs at least one slot");
        let mut v = Vec::with_capacity(slots);
        v.resize_with(slots, || std::sync::Mutex::new(None));
        SlotPool {
            slots: v.into_boxed_slice(),
            reuses: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// A pool sized for `pool`'s worker count (one slot per worker).
    #[must_use]
    pub fn for_pool(pool: &Pool) -> Self {
        SlotPool::new(pool.threads())
    }

    /// Checks out a pooled instance, or a fresh `T::default()` when every
    /// slot is empty or momentarily contended. The boolean is `true` when
    /// the instance came out of a slot (a warm reuse).
    #[must_use]
    pub fn take(&self) -> (T, bool) {
        use std::sync::atomic::Ordering;
        for slot in &self.slots {
            if let Ok(mut guard) = slot.try_lock() {
                if let Some(t) = guard.take() {
                    self.reuses.fetch_add(1, Ordering::Relaxed);
                    return (t, true);
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        (T::default(), false)
    }

    /// Returns an instance to the first free slot; drops it when every
    /// slot is already occupied or contended.
    pub fn put(&self, value: T) {
        let mut value = Some(value);
        for slot in &self.slots {
            if let Ok(mut guard) = slot.try_lock() {
                if guard.is_none() {
                    *guard = value.take();
                    return;
                }
            }
        }
        // `value` dropped here: the pool is full, retained memory stays
        // bounded at `slots` instances.
    }

    /// How many `take` calls were served from a slot.
    #[must_use]
    pub fn reuses(&self) -> u64 {
        self.reuses.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// How many `take` calls fell back to a fresh instance.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_submission_order() {
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            let out = pool.map_indices(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_over_slice_matches_serial() {
        let items: Vec<u64> = (0..57).map(|i| i * 3 + 1).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x % 7).collect();
        for threads in [1, 4] {
            assert_eq!(Pool::new(threads).map(&items, |&x| x % 7), serial);
        }
    }

    #[test]
    fn irregular_costs_are_balanced_without_reordering() {
        // Item i sleeps ~(i % 13) microseconds of busywork; ordering must
        // still be submission order.
        let pool = Pool::new(4);
        let out = pool.map_indices(200, |i| {
            let mut acc = i as u64;
            for _ in 0..(i % 13) * 500 {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            }
            (i, acc)
        });
        for (pos, (i, _)) in out.iter().enumerate() {
            assert_eq!(pos, *i);
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = Pool::new(8);
        let out = pool.map_indices(1000, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn map_chunks_covers_the_range_in_order() {
        let pool = Pool::new(4);
        let ranges = pool.map_chunks(103, 9, |r| r);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 103);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn map_chunks_results_concatenate_to_serial() {
        let data: Vec<i64> = (0..250).map(|i| (i * 7 % 31) - 15).collect();
        let serial: Vec<i64> = data.iter().map(|x| x * 2).collect();
        for threads in [1, 3, 8] {
            let parts: Vec<Vec<i64>> =
                Pool::new(threads).map_chunks(data.len(), threads * 4, |r| {
                    data[r].iter().map(|x| x * 2).collect()
                });
            let stitched: Vec<i64> = parts.into_iter().flatten().collect();
            assert_eq!(stitched, serial, "threads = {threads}");
        }
    }

    #[test]
    fn nested_maps_degrade_to_serial_and_stay_correct() {
        let pool = Pool::new(4);
        let out = pool.map_indices(16, |i| {
            // Nested dispatch from inside a worker: must not deadlock or
            // spawn recursively, and must keep ordering.
            Pool::new(4).map_indices(8, move |j| i * 8 + j)
        });
        for (i, inner) in out.iter().enumerate() {
            assert_eq!(*inner, (0..8).map(|j| i * 8 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = Pool::new(4);
        assert!(pool.map_indices(0, |i| i).is_empty());
        assert_eq!(pool.map_indices(1, |i| i + 41), vec![41]);
        assert!(pool.map_chunks(0, 4, |r| r).is_empty());
    }

    #[test]
    fn a_panicking_job_reaches_the_caller_and_the_pool_maps_again() {
        let pool = Pool::new(2);
        let caught = std::panic::catch_unwind(|| {
            pool.map_indices(16, |i| {
                assert_ne!(i, 5, "job 5 failed");
                i
            })
        });
        let payload = caught.expect_err("the job's panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("job 5 failed"), "{message:?}");
        assert_eq!(
            pool.map_indices(16, |i| i * 2),
            (0..16).map(|i| i * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Pool::new(0);
    }

    #[test]
    fn global_pool_is_stable() {
        let a = Pool::global().threads();
        let b = Pool::global().threads();
        assert_eq!(a, b);
        assert!(a >= 1);
    }

    #[test]
    fn slot_pool_round_trips_and_counts_reuse() {
        let pool: SlotPool<Vec<u64>> = SlotPool::new(2);
        let (v, warm) = pool.take();
        assert!(!warm, "cold pool cannot serve a reuse");
        assert_eq!(pool.misses(), 1);
        let mut v = v;
        v.push(7);
        pool.put(v);
        let (v, warm) = pool.take();
        assert!(warm);
        assert_eq!(v, vec![7], "slot returns the instance it was given");
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn slot_pool_overflow_drops_instead_of_growing() {
        let pool: SlotPool<Vec<u64>> = SlotPool::new(1);
        pool.put(vec![1]);
        pool.put(vec![2]); // no free slot: dropped
        let (v, warm) = pool.take();
        assert!(warm);
        assert_eq!(v, vec![1]);
        let (_, warm) = pool.take();
        assert!(!warm, "second take finds the pool cold again");
    }

    #[test]
    fn slot_pool_is_safe_under_concurrent_checkout() {
        let pool: SlotPool<Vec<u64>> = SlotPool::new(4);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        let (mut v, _) = pool.take();
                        v.push(1);
                        pool.put(v);
                    }
                });
            }
        });
        // Every take was either a reuse or a miss; totals must add up.
        assert_eq!(pool.reuses() + pool.misses(), 800);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slot_pool_rejected() {
        let _: SlotPool<Vec<u64>> = SlotPool::new(0);
    }
}
