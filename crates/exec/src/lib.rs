//! # soff-exec
//!
//! The execution layer of the SOFF benchmark sweeps: a dependency-free
//! scoped thread pool with per-task panic isolation.
//!
//! Benchmark sweeps (Table II, Fig. 11/12, ablations) are
//! embarrassingly parallel grids of *independent* simulations — each
//! cell builds its own context and global memory, so fanning cells
//! across threads preserves bit-identical per-cell results while
//! multiplying throughput by core count. [`run_tasks`] is the one
//! entry point: it takes an ordered work list, executes it on `jobs`
//! workers, and returns results **in input order**, so callers are
//! oblivious to scheduling. Each worker claims the next input index
//! from one shared cursor and writes that index's result slot; no
//! queue is dealt up front, so a slow task never strands work behind
//! it.
//!
//! Two properties the sweep drivers rely on:
//!
//! * **Determinism** — results are keyed by input index, never by
//!   completion order. `jobs = 1` executes the items in order on the
//!   caller's thread (no pool is spawned), reproducing a plain
//!   sequential `for` loop exactly.
//! * **Panic isolation** — every task runs under `catch_unwind`; a
//!   panicking task becomes `Err(`[`TaskError::Panicked`]`)` in its own
//!   slot while sibling tasks keep running. A buggy benchmark cell
//!   produces one failure row, not a torn-down sweep (composing with
//!   the hang/fault tolerance of the workload harness).
//!
//! The crate also holds [`RetryPolicy`], the bounded, deterministically
//! jittered backoff schedule the serve layer retries faulted jobs with.
//!
//! ## Example
//!
//! ```
//! let results = soff_exec::run_tasks(4, vec![1u64, 2, 3, 4], |_, n| n * n);
//! let squares: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Why a task produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task panicked; the payload's message (if it was a string).
    Panicked {
        /// The panic payload rendered as text.
        message: String,
    },
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Panicked { message } => write!(f, "task panicked: {message}"),
        }
    }
}

impl Error for TaskError {}

/// Renders a panic payload (almost always a `&str` or `String`).
/// Public so other layers that `catch_unwind` (the serve layer's fault
/// containment) report panics identically to this pool.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

/// The number of workers to use when the caller does not say: the
/// machine's available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Per-task queue latency (pool start → claimed by a worker, in
/// microseconds — the direct measure of pool backlog), registered once
/// on the global `soff-obs` registry.
fn task_wait_us() -> &'static soff_obs::Histogram {
    static HIST: OnceLock<soff_obs::Histogram> = OnceLock::new();
    HIST.get_or_init(|| soff_obs::global().histogram("soff_exec_task_wait_us", &[]))
}

/// Executes `f(index, item)` for every item on a pool of `jobs`
/// workers and returns the results **in input order**.
///
/// Each worker repeatedly claims the next unclaimed input index from a
/// shared atomic cursor, runs it, and stores the result in that index's
/// slot; a worker that finds the cursor past the end exits. The work
/// list is fixed up front, so every index is claimed exactly once.
///
/// A panicking task yields `Err(TaskError::Panicked)` in its slot;
/// all other slots are unaffected. With `jobs <= 1` (or fewer than two
/// items) no threads are spawned and items run in order on the calling
/// thread — byte-for-byte the sequential loop it replaces, except that
/// panics are still converted into per-task errors.
pub fn run_tasks<I, T, F>(jobs: usize, items: Vec<I>, f: F) -> Vec<Result<T, TaskError>>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let run_one = |index: usize, item: I| {
        catch_unwind(AssertUnwindSafe(|| f(index, item)))
            .map_err(|p| TaskError::Panicked { message: panic_message(p.as_ref()) })
    };
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| run_one(i, item)).collect();
    }
    // No lock below is held across a task, so none can be poisoned. The
    // cursor only hands out indices (the slot mutexes and the scope's join
    // publish the data), so `Relaxed` suffices for it.
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let outputs: Vec<Mutex<Option<Result<T, TaskError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let pool_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                task_wait_us().record(pool_start.elapsed().as_micros() as u64);
                let item = inputs[index].lock().unwrap_or_else(PoisonError::into_inner).take();
                let result = run_one(index, item.expect("each index is claimed once"));
                *outputs[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    outputs
        .into_iter()
        .map(|slot| {
            let result = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            result.expect("scope joined all workers, every index ran")
        })
        .collect()
}

/// Bounded exponential backoff with deterministic, seeded jitter, for
/// retrying work that fails *transiently* (the serve layer retries a
/// job whose slice faulted, e.g. on an injected hardware fault a later
/// attempt dodges).
///
/// The delay before retry `attempt` (1-based: the wait after the
/// `attempt`-th failure) is `base_delay_ms · 2^(attempt-1)`, capped at
/// `max_delay_ms`, with the top half of the interval replaced by jitter
/// derived from `(seed, task index, attempt)` — fully deterministic, so
/// two runs retry on the identical schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per task (1 = no retries). `0` is treated as `1`.
    pub max_attempts: u32,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, base_delay_ms: 10, max_delay_ms: 500, seed: 0 }
    }
}

impl RetryPolicy {
    /// The delay (ms) before retry `attempt` of task `index`.
    pub fn backoff_ms(&self, index: usize, attempt: u32) -> u64 {
        let cap = self.max_delay_ms.max(self.base_delay_ms);
        let raw = self
            .base_delay_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(32))
            .min(cap);
        // Decorrelate workers without losing determinism: keep the lower
        // half of the exponential delay, jitter the upper half.
        let half = raw / 2;
        let mut h = soff_obs::fnv1a(soff_obs::FNV_OFFSET, &self.seed.to_le_bytes());
        h = soff_obs::fnv1a(h, &(index as u64).to_le_bytes());
        h = soff_obs::fnv1a(h, &u64::from(attempt).to_le_bytes());
        (half + h % (half + 1)).min(cap)
    }
}

// Compile-time audit: sweep results cross thread boundaries, so the
// error type must be freely shareable, and the serve layer shares its
// retry policy across workers by reference.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TaskError>();
    assert_send_sync::<RetryPolicy>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        for jobs in [1, 2, 4, 9] {
            let items: Vec<usize> = (0..37).collect();
            let results = run_tasks(jobs, items, |i, item| {
                assert_eq!(i, item, "index matches the item's input position");
                item * 10
            });
            let got: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..37).map(|i| i * 10).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let results = run_tasks(4, vec![(); 100], |_, ()| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn a_panicking_task_does_not_lose_its_siblings() {
        let results = run_tasks(3, (0..10).collect::<Vec<u32>>(), |_, n| {
            if n == 4 {
                panic!("injected failure on {n}");
            }
            n + 1
        });
        for (i, r) in results.iter().enumerate() {
            if i == 4 {
                match r {
                    Err(TaskError::Panicked { message }) => {
                        assert!(message.contains("injected failure on 4"), "got: {message}")
                    }
                    other => panic!("expected a panic error, got {other:?}"),
                }
            } else {
                assert_eq!(*r, Ok(i as u32 + 1));
            }
        }
    }

    #[test]
    fn panics_are_not_retried() {
        for jobs in [1, 4] {
            let tries = AtomicUsize::new(0);
            let results = run_tasks(jobs, vec![(); 6], |i, ()| {
                tries.fetch_add(1, Ordering::Relaxed);
                if i % 2 == 0 {
                    panic!("boom {i}");
                }
            });
            assert_eq!(tries.load(Ordering::Relaxed), 6, "jobs={jobs}: each task runs once");
            assert_eq!(results.iter().filter(|r| r.is_err()).count(), 3, "jobs={jobs}");
        }
    }

    #[test]
    fn sequential_mode_spawns_no_threads() {
        // Observable proxy: the closure always runs on the caller's thread.
        let caller = std::thread::current().id();
        let results = run_tasks(1, vec![0; 8], |_, _| std::thread::current().id());
        assert!(results.into_iter().all(|r| r.unwrap() == caller));
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let results = run_tasks(64, vec![1, 2], |_, n| n * 2);
        let got: Vec<i32> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![2, 4]);
    }

    #[test]
    fn empty_work_list_is_fine() {
        let results = run_tasks(4, Vec::<u8>::new(), |_, n| n);
        assert!(results.is_empty());
    }

    #[test]
    fn backoff_schedule_is_deterministic_bounded_and_grows() {
        let p = RetryPolicy { max_attempts: 8, base_delay_ms: 10, max_delay_ms: 500, seed: 42 };
        for index in 0..4 {
            for attempt in 1..8 {
                let a = p.backoff_ms(index, attempt);
                let b = p.backoff_ms(index, attempt);
                assert_eq!(a, b, "same (seed, index, attempt) must give the same delay");
                assert!(a <= p.max_delay_ms);
                // The deterministic lower half guarantees growth until the cap.
                let raw = (p.base_delay_ms << (attempt - 1)).min(p.max_delay_ms);
                assert!(a >= raw / 2, "delay {a} below the exponential floor {raw}/2");
            }
        }
        let other = RetryPolicy { seed: 43, ..p };
        assert!(
            (1..8).any(|at| p.backoff_ms(0, at) != other.backoff_ms(0, at)),
            "different seeds should jitter differently"
        );
    }
}
