//! A bounded worker pool for the broker's registry sweeps.
//!
//! With a sharded registry, `refresh_if_stale` and `hydrate` submit one
//! job per shard through [`WorkerPool::run_collect`], so a slow refresh
//! on one shard never serializes the sweep of the others (and never
//! blocks queries, which only need that one shard's write lock).
//! [`WorkerPool`] fixes the concurrency at construction time: `threads`
//! long-lived workers drain a shared queue, and the pool's parallelism
//! never exceeds that bound.
//!
//! Query dispatch does not use the pool. An in-process search takes
//! microseconds, less than a hand-off to a worker and back, so the
//! broker searches a plan's engines on the calling thread, and asks
//! remote engines from it too.
//!
//! Failure isolation: jobs run under `catch_unwind`, so a panicking job
//! neither kills its worker nor poisons the sweep — the caller sees
//! [`JobStatus::Panicked`] for that job and results from everyone else.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Instrument handles cached once per process.
///
/// The gauges are process-global: when several pools coexist (e.g. two
/// brokers in one process), `broker_pool_workers` and
/// `broker_pool_queue_depth` report the *sum* across all of them, not
/// any single pool's value. Each pool therefore adjusts the gauges by
/// deltas (`add`) rather than overwriting them (`set`), and undoes its
/// own contribution when it drops, so the aggregate stays consistent.
struct PoolMetrics {
    workers: Arc<seu_obs::Gauge>,
    queue_depth: Arc<seu_obs::Gauge>,
    jobs: Arc<seu_obs::Counter>,
    job_seconds: Arc<seu_obs::Histogram>,
    queue_wait_seconds: Arc<seu_obs::Histogram>,
}

fn metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        workers: seu_obs::gauge("broker_pool_workers"),
        queue_depth: seu_obs::gauge("broker_pool_queue_depth"),
        jobs: seu_obs::counter("broker_pool_jobs_total"),
        job_seconds: seu_obs::histogram("broker_pool_job_seconds"),
        queue_wait_seconds: seu_obs::histogram("broker_pool_queue_wait_seconds"),
    })
}

/// Runs `job` under `catch_unwind`, observing its wall-clock duration
/// into `hist` **exactly once**. The timer is created outside the
/// unwind boundary and stopped explicitly after `catch_unwind` returns:
/// a panicking job unwinds only up to the boundary, so the timer is
/// never dropped mid-unwind (which would record) *and* stopped again
/// afterwards (which would double-count).
fn run_job_timed<T>(
    job: Box<dyn FnOnce() -> T + Send + 'static>,
    hist: &Arc<seu_obs::Histogram>,
) -> Option<T> {
    let timer = hist.start_timer();
    let result = catch_unwind(AssertUnwindSafe(job)).ok();
    timer.stop();
    result
}

/// Forces creation of the pool's instruments so snapshots include the
/// whole family even before the first sweep.
pub(crate) fn register_metrics() {
    let _ = metrics();
}

/// Concurrency accounting shared between the workers and the pool
/// handle.
#[derive(Debug, Default)]
struct PoolState {
    /// Jobs currently running.
    active: AtomicU64,
    /// High-water mark of `active` — the concurrency-bound witness.
    peak: AtomicU64,
    /// Jobs submitted but not yet picked up by a worker. Mirrors this
    /// pool's contribution to the shared `broker_pool_queue_depth`
    /// gauge, so `Drop` can subtract whatever never drained.
    queued: AtomicU64,
}

/// The pool can no longer accept jobs: every worker has exited, so a
/// submitted job would never run. Returned by [`WorkerPool::submit`]
/// instead of panicking the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolClosed;

impl std::fmt::Display for PoolClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool closed: no workers are alive to run the job")
    }
}

impl std::error::Error for PoolClosed {}

/// How one job submitted through [`WorkerPool::run_collect`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus<T> {
    /// The job returned a value.
    Done(T),
    /// The job panicked; the worker survived.
    Panicked,
    /// The job did not report back within the deadline (it may still be
    /// running; its eventual result is discarded).
    TimedOut,
    /// The pool refused the job because no worker was alive to run it
    /// (see [`PoolClosed`]).
    Rejected,
}

impl<T> JobStatus<T> {
    /// The value, if the job completed.
    pub fn into_done(self) -> Option<T> {
        match self {
            JobStatus::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// A fixed-size pool of worker threads draining a shared job queue.
#[derive(Debug)]
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    state: Arc<PoolState>,
    threads: usize,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least 1). The pool's
    /// queue depth and worker count contribute to the process-wide sums
    /// `broker_pool_queue_depth` and `broker_pool_workers`.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        metrics().workers.add(threads as f64);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let state = Arc::new(PoolState::default());
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                // Named, or it reads as whichever thread built the pool.
                std::thread::Builder::new()
                    .name(format!("seu-pool-{i}"))
                    .spawn(move || worker_loop(&rx, &state))
                    .expect("spawning a pool worker")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            state,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The largest number of jobs ever observed running at once — by
    /// construction at most [`WorkerPool::threads`].
    pub fn peak_active(&self) -> u64 {
        self.state.peak.load(Ordering::SeqCst)
    }

    /// Enqueues a fire-and-forget job. Errs with [`PoolClosed`] —
    /// instead of panicking — if every worker has exited and the job
    /// could never run.
    pub fn submit(&self, job: Job) -> Result<(), PoolClosed> {
        let m = metrics();
        m.jobs.inc();
        m.queue_depth.add(1.0);
        self.state.queued.fetch_add(1, Ordering::SeqCst);
        let sent = self
            .tx
            .as_ref()
            .expect("pool sender lives until drop")
            .send(job);
        if sent.is_err() {
            // The receiver is gone: every worker exited. Undo the queue
            // accounting for the job that never entered the queue.
            m.queue_depth.add(-1.0);
            self.state.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(PoolClosed);
        }
        Ok(())
    }

    /// Runs every job on the pool and collects their results in input
    /// order. Panicking jobs yield [`JobStatus::Panicked`]; jobs that
    /// miss the `timeout` deadline (measured across the whole batch)
    /// yield [`JobStatus::TimedOut`]; jobs the pool could not accept
    /// (every worker dead) yield [`JobStatus::Rejected`].
    pub fn run_collect<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
        timeout: Option<Duration>,
    ) -> Vec<JobStatus<T>> {
        let n = jobs.len();
        let deadline = timeout.map(|t| Instant::now() + t);
        let (tx, rx) = channel::<(usize, Option<T>)>();
        let mut rejected: Vec<usize> = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            let enqueued = Instant::now();
            let submitted = self.submit(Box::new(move || {
                let m = metrics();
                m.queue_wait_seconds
                    .observe(enqueued.elapsed().as_secs_f64());
                let result = run_job_timed(job, &m.job_seconds);
                let _ = tx.send((i, result));
            }));
            if submitted.is_err() {
                rejected.push(i);
            }
        }
        drop(tx);

        let mut out: Vec<JobStatus<T>> = (0..n).map(|_| JobStatus::TimedOut).collect();
        for &i in &rejected {
            out[i] = JobStatus::Rejected;
        }
        let n = n - rejected.len();
        let mut received = 0usize;
        while received < n {
            let message = match deadline {
                None => rx.recv().ok(),
                Some(deadline) => {
                    let now = Instant::now();
                    let Some(budget) = deadline.checked_duration_since(now) else {
                        break;
                    };
                    match rx.recv_timeout(budget) {
                        Ok(m) => Some(m),
                        Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                            None
                        }
                    }
                }
            };
            let Some((i, result)) = message else { break };
            out[i] = match result {
                Some(v) => JobStatus::Done(v),
                None => JobStatus::Panicked,
            };
            received += 1;
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker loop once the queue
        // drains.
        self.tx = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Workers normally drain the queue before exiting, but if they
        // died early any still-queued job was never dequeued — subtract
        // this pool's residual contribution so the process-global gauge
        // does not drift upward across pool lifetimes.
        let leaked = self.state.queued.swap(0, Ordering::SeqCst);
        let m = metrics();
        if leaked > 0 {
            m.queue_depth.add(-(leaked as f64));
        }
        // Remove this pool's workers from the shared gauge (other pools'
        // workers stay counted).
        m.workers.add(-(self.threads as f64));
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, state: &PoolState) {
    loop {
        // Take the lock only to receive, never while running a job, so
        // one slow engine cannot serialize the whole pool. A poisoned
        // lock (a sibling worker panicked while holding it) is
        // recovered, not fatal: the receiver itself is still sound, and
        // exiting here would silently shrink the pool until `submit`
        // had no workers left.
        let job = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = job else { return };
        metrics().queue_depth.add(-1.0);
        state.queued.fetch_sub(1, Ordering::SeqCst);
        let active = state.active.fetch_add(1, Ordering::SeqCst) + 1;
        state.peak.fetch_max(active, Ordering::SeqCst);
        let _ = catch_unwind(AssertUnwindSafe(job));
        state.active.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_jobs_and_collects_in_order() {
        let pool = WorkerPool::new(3);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16)
            .map(|i: usize| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let results = pool.run_collect(jobs, None);
        for (i, status) in results.into_iter().enumerate() {
            assert_eq!(status, JobStatus::Done(i * i));
        }
    }

    #[test]
    fn concurrency_never_exceeds_the_worker_count() {
        let pool = WorkerPool::new(4);
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..64)
            .map(|_| {
                let active = Arc::clone(&active);
                let peak = Arc::clone(&peak);
                Box::new(move || {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    active.fetch_sub(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let results = pool.run_collect(jobs, None);
        assert_eq!(results.len(), 64);
        assert!(results.iter().all(|s| matches!(s, JobStatus::Done(()))));
        let observed = peak.load(Ordering::SeqCst);
        assert!(observed <= 4, "peak concurrency {observed} > 4 workers");
        assert!(pool.peak_active() <= 4);
    }

    #[test]
    fn panicking_job_is_isolated() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("engine exploded")),
            Box::new(|| 3),
        ];
        let results = pool.run_collect(jobs, None);
        assert_eq!(results[0], JobStatus::Done(1));
        assert_eq!(results[1], JobStatus::Panicked);
        assert_eq!(results[2], JobStatus::Done(3));
        // The pool still works afterwards.
        let again = pool.run_collect(
            vec![Box::new(|| 7u32) as Box<dyn FnOnce() -> u32 + Send>],
            None,
        );
        assert_eq!(again[0], JobStatus::Done(7));
    }

    #[test]
    fn timeout_marks_unfinished_jobs() {
        let pool = WorkerPool::new(1);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(250));
                2
            }),
            Box::new(|| 3),
        ];
        let results = pool.run_collect(jobs, Some(Duration::from_millis(40)));
        assert_eq!(results[0], JobStatus::Done(1));
        assert_eq!(results[1], JobStatus::TimedOut);
        // Job 3 sits behind the sleeper on the single worker.
        assert_eq!(results[2], JobStatus::TimedOut);
    }

    #[test]
    fn panicking_job_records_duration_exactly_once() {
        // Deterministic: a private histogram sees only this job, so the
        // exactly-once property is provable even while sibling tests
        // hammer the global `broker_pool_job_seconds`.
        let hist = Arc::new(seu_obs::Histogram::new());
        let result: Option<u32> = run_job_timed(Box::new(|| panic!("engine exploded")), &hist);
        assert!(result.is_none());
        assert_eq!(hist.count(), 1, "panic unwind must not double-record");

        let ok = run_job_timed(Box::new(|| 5u32), &hist);
        assert_eq!(ok, Some(5));
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn pool_jobs_feed_duration_and_queue_wait_histograms() {
        let job_seconds = seu_obs::histogram("broker_pool_job_seconds");
        let queue_wait = seu_obs::histogram("broker_pool_queue_wait_seconds");
        let before_jobs = job_seconds.count();
        let before_wait = queue_wait.count();
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let results = pool.run_collect(jobs, None);
        assert_eq!(results[1], JobStatus::Panicked);
        // Every job (including the panicking one) recorded once.
        assert!(job_seconds.count() >= before_jobs + 3);
        assert!(queue_wait.count() >= before_wait + 3);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let results = pool.run_collect(
            vec![Box::new(|| 42u32) as Box<dyn FnOnce() -> u32 + Send>],
            None,
        );
        assert_eq!(results[0], JobStatus::Done(42));
    }
}
