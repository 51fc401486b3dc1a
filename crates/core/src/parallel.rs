//! Minimal scoped-thread work-stealing-free parallel map.
//!
//! The experiment sweeps (figures 11-17, `repro_all`, `bench_sim`) run
//! hundreds of independent kernel × architecture simulations; this module
//! fans them out across OS threads with `std::thread::scope`, avoiding
//! any external dependency. Work is handed out through an atomic cursor,
//! so long-running points (e.g. GEMM on a von Neumann model) do not
//! serialize behind short ones.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

thread_local! {
    /// True on a thread that is already executing inside a [`par_map`]
    /// worker: a nested `par_map` (e.g. the runner fanning annealing
    /// chains out from within a sweep point) runs inline instead of
    /// oversubscribing the machine with worker-per-worker threads.
    static IN_SWEEP_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads a sweep should use: the
/// `MARIONETTE_THREADS` environment variable when set (a value of `1`
/// forces serial execution), otherwise the machine's available
/// parallelism.
pub fn sweep_threads() -> usize {
    if let Ok(v) = std::env::var("MARIONETTE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item on up to `threads` OS threads, preserving
/// input order in the returned vector.
///
/// Items are claimed dynamically (atomic cursor), so an uneven cost
/// distribution still load-balances. With `threads <= 1` (or a single
/// item) the map runs inline on the caller's thread, which keeps
/// deterministic single-threaded debugging trivial. A `par_map` called
/// from inside another `par_map`'s worker also runs inline: the outer
/// sweep already owns the machine's cores, and results are
/// order-preserving either way.
///
/// # Panics
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 {
        // An explicitly-serial sweep must stay serial all the way down:
        // mark this thread as a worker for the duration so nested
        // par_map calls (e.g. the runner's annealing-chain fan-out)
        // cannot spawn threads behind a `threads = 1` request.
        let prev = IN_SWEEP_WORKER.with(|w| w.replace(true));
        struct Reset(bool);
        impl Drop for Reset {
            fn drop(&mut self) {
                IN_SWEEP_WORKER.with(|w| w.set(self.0));
            }
        }
        let _reset = Reset(prev);
        return items.into_iter().map(f).collect();
    }
    if n <= 1 || IN_SWEEP_WORKER.with(Cell::get) {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| {
                IN_SWEEP_WORKER.with(|w| w.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i].lock().unwrap().take().expect("item claimed once");
                    let r = f(item);
                    *results[i].lock().unwrap() = Some(r);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled slot"))
        .collect()
}

// ---- persistent worker pool ----------------------------------------------

/// Why a job was not accepted by [`WorkerPool::try_submit`].
///
/// The rejected job rides back to the caller so nothing is silently
/// dropped — a server turns this into an admission-control response
/// (HTTP 429) instead of queueing unboundedly.
#[derive(Debug)]
pub enum SubmitError<J> {
    /// The bounded queue is at capacity; the job is returned.
    QueueFull(J),
    /// The pool is shutting down; the job is returned.
    ShuttingDown(J),
}

struct PoolState<J> {
    queue: VecDeque<J>,
    shutdown: bool,
}

struct PoolShared<J> {
    state: Mutex<PoolState<J>>,
    capacity: usize,
    wake: Condvar,
}

/// A persistent worker pool over a **bounded** job queue.
///
/// Unlike [`par_map`] — which fans a known batch out and joins — this
/// pool serves an open-ended stream of jobs (a daemon's request
/// traffic). Backpressure is explicit: [`WorkerPool::try_submit`] never
/// blocks and returns [`SubmitError::QueueFull`] once `capacity` jobs
/// are waiting, so the caller decides what rejection means (the `mard`
/// server answers HTTP 429). Workers park on a condvar between jobs and
/// exit once [`WorkerPool::shutdown`] drained the queue. A job whose
/// handler panics is abandoned, and its worker goes on to the next job,
/// so one bad job cannot take a worker out of service.
pub struct WorkerPool<J: Send + 'static> {
    shared: Arc<PoolShared<J>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Spawns `workers` threads running `handler` on submitted jobs.
    /// `capacity` bounds the number of *waiting* jobs (in-flight jobs do
    /// not count); both are clamped to at least 1.
    ///
    /// # Panics
    /// Panics if a worker thread cannot be spawned.
    pub fn new<F>(workers: usize, capacity: usize, handler: F) -> Self
    where
        F: Fn(J) + Send + Sync + 'static,
    {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            capacity: capacity.max(1),
            wake: Condvar::new(),
        });
        let handler = Arc::new(handler);
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut st = shared.state.lock().unwrap();
                        loop {
                            if let Some(j) = st.queue.pop_front() {
                                break j;
                            }
                            if st.shutdown {
                                return;
                            }
                            st = shared.wake.wait(st).unwrap();
                        }
                    };
                    // The panic message is still printed by the hook.
                    let _ = std::panic::catch_unwind(AssertUnwindSafe(|| handler(job)));
                })
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues `job` without blocking.
    ///
    /// # Errors
    /// Returns the job inside [`SubmitError::QueueFull`] when `capacity`
    /// jobs are already waiting, or [`SubmitError::ShuttingDown`] after
    /// [`WorkerPool::shutdown`] began.
    pub fn try_submit(&self, job: J) -> Result<(), SubmitError<J>> {
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown(job));
        }
        if st.queue.len() >= self.shared.capacity {
            return Err(SubmitError::QueueFull(job));
        }
        st.queue.push_back(job);
        drop(st);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Number of jobs waiting in the queue (excludes jobs already being
    /// executed by a worker).
    pub fn depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Drains the queue, then joins every worker. Jobs already submitted
    /// are still executed.
    ///
    /// # Panics
    /// Propagates a worker panic on join.
    pub fn shutdown(mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.wake.notify_all();
        for w in self.workers.drain(..) {
            w.join().unwrap();
        }
    }
}

impl<J: Send + 'static> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        // Best-effort shutdown for the non-explicit path: mark and wake,
        // but do not join (the explicit `shutdown` already joined, and a
        // panicking test must not deadlock in drop).
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let xs: Vec<u64> = (0..257).collect();
        let ys = par_map(xs.clone(), 8, |x| x * 2);
        assert_eq!(ys, xs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel() {
        let xs: Vec<u64> = (0..40).collect();
        assert_eq!(par_map(xs.clone(), 1, |x| x + 7), par_map(xs, 6, |x| x + 7));
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), 4, |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![9u32], 4, |x| x + 1), vec![10]);
    }

    #[test]
    fn balances_uneven_work() {
        // Front-loaded costs: dynamic claiming must still complete and
        // preserve order.
        let xs: Vec<u64> = (0..64).collect();
        let ys = par_map(xs, 4, |x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x
        });
        assert_eq!(ys, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn threads_env_overrides() {
        // Can't set env safely in parallel tests; just sanity-check the
        // default is at least one.
        assert!(sweep_threads() >= 1);
    }

    #[test]
    fn pool_executes_every_submitted_job() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool = WorkerPool::new(3, 64, move |x: usize| {
            d.fetch_add(x, Ordering::SeqCst);
        });
        for i in 1..=10 {
            pool.try_submit(i).unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 55);
    }

    #[test]
    fn pool_rejects_above_capacity_and_returns_the_job() {
        // A single worker blocked on a gate keeps the queue full, so
        // admission is deterministic: 1 in flight + 2 waiting, then full.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let started = Arc::new((Mutex::new(false), Condvar::new()));
        let s = Arc::clone(&started);
        let pool = WorkerPool::new(1, 2, move |_x: u32| {
            let (lk, cv) = &*s;
            *lk.lock().unwrap() = true;
            cv.notify_all();
            let (lk, cv) = &*g;
            let mut open = lk.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        pool.try_submit(0).unwrap();
        // Wait until the worker holds job 0 so the queue is empty.
        {
            let (lk, cv) = &*started;
            let mut st = lk.lock().unwrap();
            while !*st {
                st = cv.wait(st).unwrap();
            }
        }
        pool.try_submit(1).unwrap();
        pool.try_submit(2).unwrap();
        assert_eq!(pool.depth(), 2);
        match pool.try_submit(7) {
            Err(SubmitError::QueueFull(j)) => assert_eq!(j, 7),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Open the gate so shutdown can drain.
        {
            let (lk, cv) = &*gate;
            *lk.lock().unwrap() = true;
            cv.notify_all();
        }
        pool.shutdown();
    }

    #[test]
    fn pool_worker_survives_a_panicking_job() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool = WorkerPool::new(1, 4, move |x: usize| {
            assert!(x != 1, "job 1 panics");
            d.fetch_add(x, Ordering::SeqCst);
        });
        pool.try_submit(1).unwrap();
        pool.try_submit(2).unwrap();
        pool.shutdown();
        assert_eq!(
            done.load(Ordering::SeqCst),
            2,
            "job 2 ran on the same worker"
        );
    }

    #[test]
    fn pool_shutdown_drains_then_rejects() {
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let pool = WorkerPool::new(2, 16, move |_: ()| {
            d.fetch_add(1, Ordering::SeqCst);
        });
        for _ in 0..8 {
            pool.try_submit(()).unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn nested_par_map_runs_inline_and_preserves_results() {
        let xs: Vec<u64> = (0..16).collect();
        let ys = par_map(xs, 4, |x| {
            // Inner fan-out from a worker thread must not spawn another
            // thread layer; results are identical either way.
            let inner = par_map(vec![x, x + 1], 4, |y| y * 10);
            inner[0] + inner[1]
        });
        assert_eq!(
            ys,
            (0..16).map(|x| x * 10 + (x + 1) * 10).collect::<Vec<u64>>()
        );
    }
}
