//! A hand-rolled scoped worker pool over `std::thread`.
//!
//! The build environment has no crates.io access, so instead of `rayon`
//! this module provides the minimal primitive the engine needs: run a
//! batch of borrowing closures across persistent worker threads and block
//! until every one of them has finished ([`WorkerPool::run`]). The
//! completion barrier is what makes the borrows sound — no job can
//! outlive the call that submitted it, exactly like `std::thread::scope`,
//! but without paying a thread spawn per fixpoint round.
//!
//! Design points:
//!
//! - **Persistent workers.** `WorkerPool::new(threads)` spawns
//!   `threads - 1` workers that sleep on a condvar between batches; the
//!   calling thread is the remaining worker — it drains the queue itself
//!   before blocking on the completion barrier, so `threads == 1` means
//!   no worker threads, no queue traffic, and jobs running inline in
//!   submission order (the sequential fallback).
//! - **Deterministic results.** Each job writes into its own result slot,
//!   so `run` returns results in submission order no matter which worker
//!   ran what.
//! - **Re-entrant.** A job may itself call `run` on the same pool: the
//!   inner call participates in draining the shared queue, so nested
//!   batches (the synthesizer checks candidates in parallel and each
//!   check runs a parallel fixpoint) cannot deadlock — a caller only
//!   blocks once the queue is empty, and every queued task terminates.
//! - **Panic-transparent.** A panicking job is caught on the worker,
//!   carried back in its result slot, and resumed on the calling thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A type-erased job. Lifetime-erased by [`WorkerPool::run`], which is
/// sound because `run` does not return until the job has completed.
type Task = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signals workers that tasks arrived (or shutdown began).
    work_ready: Condvar,
}

/// A fixed-size pool of worker threads executing borrowed job batches.
///
/// ```
/// use dynamite_datalog::pool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let data = vec![1u64, 2, 3, 4, 5];
/// let squares = pool.run((0..data.len()).map(|i| {
///     let data = &data; // borrowed, not moved — `run` scopes the borrow
///     move || data[i] * data[i]
/// }));
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool with `threads` total workers (including the calling
    /// thread), spawning `threads - 1` background threads. `threads` is
    /// clamped to at least 1; if the OS refuses a spawn the pool degrades
    /// to the threads it got.
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
        });
        let workers: Vec<JoinHandle<()>> = (1..threads)
            .map_while(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("dynamite-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .ok()
            })
            .collect();
        let threads = workers.len() + 1;
        WorkerPool {
            shared,
            workers,
            threads,
        }
    }

    /// Total worker count, including the calling thread. `1` means every
    /// `run` executes its jobs inline, sequentially.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job in `jobs`, returning their results in submission
    /// order. Blocks until all jobs have completed — jobs may therefore
    /// borrow from the caller's stack. If a job panics, the panic is
    /// resumed on the calling thread after the batch drains.
    pub fn run<'scope, T, F, I>(&self, jobs: I) -> Vec<T>
    where
        T: Send + 'scope,
        F: FnOnce() -> T + Send + 'scope,
        I: IntoIterator<Item = F>,
    {
        let jobs: Vec<F> = jobs.into_iter().collect();
        if self.threads == 1 || jobs.len() <= 1 {
            return jobs.into_iter().map(|f| f()).collect();
        }
        let n = jobs.len();
        // Per-job result slots (submission-ordered) and the completion
        // barrier. Both live behind `Arc`s so tasks never borrow this
        // stack frame: the lifetime being erased below is exactly the
        // borrows *inside* the jobs, which `run` scopes by blocking.
        let slots: Arc<Vec<Mutex<Option<std::thread::Result<T>>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let barrier = Arc::new(DoneBarrier {
            pending: AtomicUsize::new(n),
            lock: Mutex::new(()),
            done: Condvar::new(),
        });
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            for (i, job) in jobs.into_iter().enumerate() {
                let slots = slots.clone();
                let barrier = barrier.clone();
                let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(job));
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                    // Drop every handle to scoped data *before* signalling
                    // completion, so the caller's return implies no worker
                    // still holds a borrow.
                    drop(slots);
                    barrier.complete_one();
                });
                // SAFETY: `run` blocks until `pending` reaches zero, i.e.
                // until every submitted task has finished executing and
                // dropped its captures, so no `'scope` borrow inside the
                // task outlives this call. `T: Send` and `F: Send` make
                // the cross-thread moves sound; the transmute only erases
                // the lifetime.
                let task: Task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
                q.tasks.push_back(task);
            }
            self.shared.work_ready.notify_all();
        }
        // The calling thread is a worker too: drain tasks (possibly other
        // batches' — any queued task terminates, so helping is always
        // sound) until this batch has completed or the queue is empty,
        // then wait for stragglers. The pending check bounds helping to
        // the batch's own lifetime — once our results are in, we return
        // instead of picking up foreign work.
        while barrier.pending.load(Ordering::Acquire) > 0 {
            let task = {
                let mut q = self.shared.queue.lock().expect("pool queue poisoned");
                q.tasks.pop_front()
            };
            match task {
                Some(t) => t(),
                None => break,
            }
        }
        barrier.wait();
        let results: Vec<std::thread::Result<T>> = slots
            .iter()
            .map(|s| {
                s.lock()
                    .expect("result slot poisoned")
                    .take()
                    .expect("completed job left its slot empty")
            })
            .collect();
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Counts outstanding tasks of one batch; the submitting thread blocks in
/// [`DoneBarrier::wait`] until the count reaches zero.
struct DoneBarrier {
    pending: AtomicUsize,
    lock: Mutex<()>,
    done: Condvar,
}

impl DoneBarrier {
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Pair the notify with the mutex so a waiter cannot check the
            // counter and block between our decrement and our notify.
            let _g = self.lock.lock().expect("barrier poisoned");
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.lock.lock().expect("barrier poisoned");
        while self.pending.load(Ordering::Acquire) > 0 {
            g = self.done.wait(g).expect("barrier poisoned");
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(t) = q.tasks.pop_front() {
                    break t;
                }
                if q.shutdown {
                    return;
                }
                q = shared.work_ready.wait(q).expect("pool queue poisoned");
            }
        };
        task();
    }
}

// -------------------------------------------------------- global pool --

/// The number of workers requested by the environment: a valid
/// `DYNAMITE_THREADS`, otherwise the machine's available parallelism.
/// Cached — lazy contexts consult this every round, and
/// `available_parallelism` is a syscall.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        crate::env::overrides()
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    })
}

/// Resolves a configured thread count: a *valid* `DYNAMITE_THREADS`
/// environment override wins, then the explicit request, then available
/// parallelism.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = crate::env::overrides().threads {
        return n;
    }
    requested.map_or_else(default_threads, |n| n.max(1))
}

/// The process-wide shared pool, sized by [`default_threads`]. Contexts
/// that do not ask for a specific thread count share this pool, so
/// ambient `Evaluator`s never multiply worker threads.
pub fn global() -> &'static Arc<WorkerPool> {
    static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(WorkerPool::new(default_threads())))
}

/// A pool with `requested` workers: the [`global`] pool when the resolved
/// count matches its size (no extra threads), a fresh pool otherwise.
pub fn with_threads(requested: Option<usize>) -> Arc<WorkerPool> {
    let n = resolve_threads(requested);
    // Size check before touching `global()`: resolving a count that
    // differs from the global pool's must not instantiate (i.e. spawn)
    // the global pool as a side effect.
    if n == default_threads() {
        global().clone()
    } else {
        Arc::new(WorkerPool::new(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run((0..64usize).map(|i| move || i * 2));
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        let ids = pool.run((0..8).map(|_| move || std::thread::current().id()));
        assert!(ids.iter().all(|&id| id == tid));
    }

    #[test]
    fn jobs_may_borrow_caller_data() {
        let pool = WorkerPool::new(3);
        let data: Vec<String> = (0..32).map(|i| format!("row-{i}")).collect();
        let lens = pool.run(data.iter().map(|s| move || s.len()));
        assert_eq!(lens, data.iter().map(String::len).collect::<Vec<_>>());
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(3));
        let outer = pool.clone();
        let sums = outer.run((0..4u64).map(|i| {
            let pool = pool.clone();
            move || {
                pool.run((0..8u64).map(|j| move || i * 10 + j))
                    .iter()
                    .sum::<u64>()
            }
        }));
        let expect: Vec<u64> = (0..4u64)
            .map(|i| (0..8u64).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let out: Vec<u8> = pool.run(std::iter::empty::<fn() -> u8>());
        assert!(out.is_empty());
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..4).map(|i| {
                move || {
                    if i == 2 {
                        panic!("job {i} exploded");
                    }
                    i
                }
            }))
        }));
        assert!(r.is_err());
        // The pool survives a panicking batch.
        let out = pool.run((0..4).map(|i| move || i + 1));
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run([|| 7].into_iter()), vec![7]);
    }

    #[test]
    fn panicking_job_does_not_deadlock_and_siblings_still_complete() {
        // The completion barrier counts a panicked job as done (the
        // catch_unwind result lands in its slot like any other), so the
        // caller neither deadlocks nor abandons sibling jobs: every
        // non-panicking job runs to completion before the panic resumes.
        let pool = WorkerPool::new(4);
        let completed = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..16).map(|i| {
                let completed = &completed;
                move || {
                    if i == 3 {
                        panic!("job {i} exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                }
            }))
        }));
        assert!(r.is_err());
        assert_eq!(completed.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn first_panic_in_submission_order_is_the_one_resumed() {
        // With several panicking jobs, the batch still drains fully and
        // the caller observes the earliest slot's panic payload —
        // deterministic regardless of which worker ran what.
        let pool = WorkerPool::new(4);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..8).map(|i| {
                move || {
                    if i == 2 || i == 5 {
                        panic!("boom-{i}");
                    }
                    i
                }
            }))
        }));
        let payload = r.expect_err("a job panicked");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries its message");
        assert_eq!(msg, "boom-2");
    }

    #[test]
    fn pool_stays_usable_across_repeated_panicking_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..3 {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run((0..6).map(|i| {
                    move || {
                        if i == round {
                            panic!("round {round} job {i}");
                        }
                        i * 10
                    }
                }))
            }));
            assert!(r.is_err(), "round {round} must propagate its panic");
            // The very next batch on the same pool behaves normally.
            let out = pool.run((0..6).map(|i| move || i * 10));
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        }
    }

    #[test]
    fn inline_path_panics_propagate_too() {
        // threads == 1 runs jobs inline; the panic surfaces directly and
        // the pool remains usable.
        let pool = WorkerPool::new(1);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..3).map(|i| {
                move || {
                    if i == 1 {
                        panic!("inline");
                    }
                    i
                }
            }))
        }));
        assert!(r.is_err());
        assert_eq!(pool.run((0..3).map(|i| move || i)), vec![0, 1, 2]);
    }
}
