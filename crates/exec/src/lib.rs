//! # soff-exec
//!
//! The execution layer of the SOFF benchmark sweeps: a dependency-free
//! scoped thread pool with work-stealing deques ([`deque`]) and
//! per-task panic isolation.
//!
//! Benchmark sweeps (Table II, Fig. 11/12, ablations) are
//! embarrassingly parallel grids of *independent* simulations — each
//! cell builds its own context and global memory, so fanning cells
//! across threads preserves bit-identical per-cell results while
//! multiplying throughput by core count. [`run_tasks`] is the one
//! entry point: it takes an ordered work list, executes it on `jobs`
//! workers, and returns results **in input order**, so callers are
//! oblivious to scheduling.
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
//! ## Example
//!
//! ```
//! let results = soff_exec::run_tasks(4, vec![1u64, 2, 3, 4], |_, n| n * n);
//! let squares: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

pub mod deque;

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a task produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task panicked; the payload's message (if it was a string).
    Panicked {
        /// The panic payload rendered as text.
        message: String,
    },
    /// The pool-wide [`CancelFlag`] was raised before this task started
    /// (or between its retry attempts); the task never produced a value.
    Cancelled,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::Panicked { message } => write!(f, "task panicked: {message}"),
            TaskError::Cancelled => write!(f, "task cancelled before it ran"),
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

/// Pool metrics, registered once on the global `soff-obs` registry:
/// successful steals (how often the round-robin deal was unbalanced
/// enough for idle workers to poach) and per-task queue latency (push
/// into a deque → dequeued for execution, in microseconds — the direct
/// measure of pool backlog).
struct PoolMetrics {
    steals: soff_obs::Counter,
    task_wait_us: soff_obs::Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = soff_obs::global();
        PoolMetrics {
            steals: r.counter("soff_exec_steals_total", &[]),
            task_wait_us: r.histogram("soff_exec_task_wait_us", &[]),
        }
    })
}

/// Executes `f(index, item)` for every item on a pool of `jobs`
/// workers and returns the results **in input order**.
///
/// Items are dealt round-robin onto per-worker deques; an idle worker
/// first drains its own deque (LIFO), then steals the oldest task from
/// a sibling (FIFO). Because the work list is fixed up front, "all
/// deques empty" is a sound termination condition — no task can appear
/// after a worker observes emptiness and exits.
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
    // `run_tasks_ctl` lends items by reference; a take-once slot hands each
    // task its item by value (no retries, so every slot is taken once).
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let take = |index: usize, slot: &Mutex<Option<I>>, _: &TaskCtx| {
        let item = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
        f(index, item.expect("each task runs once"))
    };
    run_tasks_ctl(jobs, &slots, &TaskOptions::default(), take, |_| false)
        .into_iter()
        .map(|r| r.map(|c| c.value))
        .collect()
}

/// A cloneable, thread-safe, one-way pool-wide cancellation flag.
///
/// The sweep driver keeps one clone and hands another to
/// [`TaskOptions::cancel`]; raising it makes every not-yet-started task
/// come back as `Err(`[`TaskError::Cancelled`]`)` while tasks already
/// running finish normally (they can poll the flag through their
/// [`TaskCtx`] to stop early and cooperatively).
#[derive(Debug, Clone, Default)]
pub struct CancelFlag {
    flag: Arc<AtomicBool>,
}

impl CancelFlag {
    /// A fresh, un-raised flag.
    pub fn new() -> CancelFlag {
        CancelFlag::default()
    }

    /// Requests cancellation (idempotent).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Bounded exponential backoff with deterministic, seeded jitter, for
/// retrying tasks that fail *transiently* (e.g. a sweep cell wedged by an
/// injected fault window that a later attempt dodges).
///
/// The delay before retry `attempt` (1-based: the wait after the
/// `attempt`-th failure) is `base_delay_ms · 2^(attempt-1)`, capped at
/// `max_delay_ms`, with the top half of the interval replaced by jitter
/// derived from `(seed, task index, attempt)` — fully deterministic, so
/// two runs of the same sweep retry on the identical schedule.
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
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self
            .seed
            .to_le_bytes()
            .into_iter()
            .chain((index as u64).to_le_bytes())
            .chain(u64::from(attempt).to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (half + h % (half + 1)).min(cap)
    }
}

/// Budgets and cancellation for [`run_tasks_ctl`]. The default is
/// unlimited and retry-free — exactly [`run_tasks`] semantics.
#[derive(Debug, Clone, Default)]
pub struct TaskOptions {
    /// Pool-wide cancellation (`None` = not cancellable).
    pub cancel: Option<CancelFlag>,
    /// Per-task wall-clock budget, measured from the task's first
    /// attempt; it bounds retries (no retry starts past the deadline) and
    /// is surfaced to the task via [`TaskCtx::deadline`] so cooperative
    /// tasks can stop themselves in time.
    pub task_deadline: Option<Duration>,
    /// Retry transiently-failing tasks (`None` = single attempt).
    pub retry: Option<RetryPolicy>,
}

/// Per-attempt context handed to a [`run_tasks_ctl`] task.
#[derive(Debug, Clone)]
pub struct TaskCtx {
    /// 1-based attempt number (1 = first try).
    pub attempt: u32,
    /// The pool-wide cancellation flag, if one was set.
    pub cancel: Option<CancelFlag>,
    /// This task's wall-clock deadline, if one was set.
    pub deadline: Option<Instant>,
}

impl TaskCtx {
    /// Whether the pool has been cancelled (cooperative tasks poll this).
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelFlag::is_cancelled)
    }

    /// Wall-clock budget left before this task's deadline (`None` = no
    /// deadline; zero = already past it).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// A task value plus how many attempts it took to produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completed<T> {
    /// The task's (final) return value.
    pub value: T,
    /// 1-based attempt count (1 = succeeded first try).
    pub attempts: u32,
}

/// [`run_tasks`] with budgets: pool-wide cancellation, per-task
/// deadlines, and bounded deterministic retry.
///
/// Items are taken by reference (they must survive retries), and every
/// attempt receives a [`TaskCtx`] describing its attempt number, the
/// cancel flag, and the deadline. After each attempt, `transient(&value)`
/// decides whether the value is a transient failure worth retrying;
/// retries follow the [`RetryPolicy`] backoff schedule and never start
/// past the deadline or after cancellation. Panics are *not* retried —
/// they are bugs, not transient conditions — and come back as
/// [`TaskError::Panicked`] exactly as in [`run_tasks`].
///
/// Results return **in input order**; `jobs <= 1` (or fewer than two
/// items) runs sequentially on the calling thread.
pub fn run_tasks_ctl<I, T, F, R>(
    jobs: usize,
    items: &[I],
    opts: &TaskOptions,
    f: F,
    transient: R,
) -> Vec<Result<Completed<T>, TaskError>>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I, &TaskCtx) -> T + Sync,
    R: Fn(&T) -> bool + Sync,
{
    let n = items.len();
    let cancelled = || opts.cancel.as_ref().is_some_and(CancelFlag::is_cancelled);
    let exec_one = |index: usize| -> Result<Completed<T>, TaskError> {
        if cancelled() {
            return Err(TaskError::Cancelled);
        }
        let deadline = opts.task_deadline.map(|d| Instant::now() + d);
        let max_attempts = opts.retry.map_or(1, |r| r.max_attempts.max(1));
        let mut attempt = 1u32;
        loop {
            let ctx = TaskCtx { attempt, cancel: opts.cancel.clone(), deadline };
            let value = catch_unwind(AssertUnwindSafe(|| f(index, &items[index], &ctx)))
                .map_err(|p| TaskError::Panicked { message: panic_message(p.as_ref()) })?;
            let retryable = attempt < max_attempts
                && transient(&value)
                && !cancelled()
                && deadline.is_none_or(|d| Instant::now() < d);
            if !retryable {
                return Ok(Completed { value, attempts: attempt });
            }
            let policy = opts.retry.expect("retryable implies a policy");
            let mut pause = Duration::from_millis(policy.backoff_ms(index, attempt));
            if let Some(d) = deadline {
                pause = pause.min(d.saturating_duration_since(Instant::now()));
            }
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
            attempt += 1;
        }
    };

    if jobs <= 1 || n <= 1 {
        return (0..n).map(exec_one).collect();
    }
    let jobs = jobs.min(n);
    let workers: Vec<deque::Worker<usize>> = (0..jobs).map(|_| deque::Worker::new()).collect();
    let stealers: Vec<deque::Stealer<usize>> = workers.iter().map(|w| w.stealer()).collect();
    for i in 0..n {
        workers[i % jobs].push(i);
    }
    let (tx, rx) = mpsc::channel::<(usize, Result<Completed<T>, TaskError>)>();
    let metrics = pool_metrics();
    let pool_start = Instant::now();
    std::thread::scope(|scope| {
        for (wid, worker) in workers.into_iter().enumerate() {
            let tx = tx.clone();
            let (exec_one, stealers) = (&exec_one, &stealers);
            scope.spawn(move || loop {
                let next = worker.pop().or_else(|| {
                    (1..stealers.len()).find_map(|off| {
                        match stealers[(wid + off) % stealers.len()].steal() {
                            deque::Steal::Success(i) => {
                                metrics.steals.inc();
                                Some(i)
                            }
                            deque::Steal::Empty => None,
                        }
                    })
                });
                let Some(index) = next else { break };
                metrics.task_wait_us.record(pool_start.elapsed().as_micros() as u64);
                // The receiver outlives the scope; send cannot fail.
                let _ = tx.send((index, exec_one(index)));
            });
        }
        drop(tx); // workers hold the remaining clones
    });
    let mut out: Vec<Option<Result<Completed<T>, TaskError>>> = (0..n).map(|_| None).collect();
    for (index, result) in rx {
        out[index] = Some(result);
    }
    out.into_iter()
        .map(|slot| slot.expect("scope joined all workers, every task reported"))
        .collect()
}

// Compile-time audit: sweep cells and their results cross thread
// boundaries, so the error type must be freely shareable, and the
// resilience knobs are shared by reference across workers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TaskError>();
    assert_send_sync::<CancelFlag>();
    assert_send_sync::<TaskOptions>();
    assert_send_sync::<RetryPolicy>();
    assert_send_sync::<Completed<u64>>();
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
    fn ctl_defaults_match_run_tasks_semantics() {
        for jobs in [1, 4] {
            let items: Vec<usize> = (0..23).collect();
            let results = run_tasks_ctl(
                jobs,
                &items,
                &TaskOptions::default(),
                |i, item, ctx| {
                    assert_eq!(i, *item);
                    assert_eq!(ctx.attempt, 1);
                    item * 3
                },
                |_| false,
            );
            let got: Vec<usize> =
                results.into_iter().map(|r| r.unwrap()).map(|c| c.value).collect();
            assert_eq!(got, (0..23).map(|i| i * 3).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn cancelled_pool_reports_typed_errors_for_unstarted_tasks() {
        let flag = CancelFlag::new();
        flag.cancel();
        let opts = TaskOptions { cancel: Some(flag), ..TaskOptions::default() };
        let results = run_tasks_ctl(4, &[1u32, 2, 3], &opts, |_, n, _| n * 2, |_| false);
        assert!(results.iter().all(|r| matches!(r, Err(TaskError::Cancelled))));
    }

    #[test]
    fn transient_failures_retry_up_to_the_bound() {
        // The task returns its attempt number; values below 3 are
        // "transient", so the pool must retry twice and settle at 3.
        let opts = TaskOptions {
            retry: Some(RetryPolicy { max_attempts: 3, base_delay_ms: 0, ..RetryPolicy::default() }),
            ..TaskOptions::default()
        };
        for jobs in [1, 4] {
            let results =
                run_tasks_ctl(jobs, &[(); 7], &opts, |_, (), ctx| ctx.attempt, |&a| a < 3);
            for r in results {
                let c = r.unwrap();
                assert_eq!((c.value, c.attempts), (3, 3), "jobs={jobs}");
            }
        }
        // An always-transient value still stops at the bound.
        let results = run_tasks_ctl(1, &[()], &opts, |_, (), ctx| ctx.attempt, |_| true);
        assert_eq!(results[0].as_ref().unwrap().attempts, 3);
    }

    #[test]
    fn panics_are_not_retried() {
        let tries = AtomicUsize::new(0);
        let opts = TaskOptions {
            retry: Some(RetryPolicy { max_attempts: 5, base_delay_ms: 0, ..RetryPolicy::default() }),
            ..TaskOptions::default()
        };
        let results = run_tasks_ctl(
            1,
            &[()],
            &opts,
            |_, (), _| {
                tries.fetch_add(1, Ordering::Relaxed);
                panic!("boom");
            },
            |_: &()| true,
        );
        assert!(matches!(&results[0], Err(TaskError::Panicked { .. })));
        assert_eq!(tries.load(Ordering::Relaxed), 1, "a panic must not be retried");
    }

    #[test]
    fn deadline_bounds_retries() {
        // Transient forever, but the per-task deadline is already tighter
        // than one backoff pause — the pool must give up after the first
        // attempt instead of burning the full retry budget.
        let opts = TaskOptions {
            task_deadline: Some(Duration::from_millis(0)),
            retry: Some(RetryPolicy {
                max_attempts: 50,
                base_delay_ms: 1000,
                ..RetryPolicy::default()
            }),
            ..TaskOptions::default()
        };
        let start = Instant::now();
        let results = run_tasks_ctl(1, &[()], &opts, |_, (), ctx| ctx.attempt, |_| true);
        assert_eq!(results[0].as_ref().unwrap().attempts, 1);
        assert!(start.elapsed() < Duration::from_secs(5));
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
