//! A fixed-size work-stealing pool for harness jobs.
//!
//! The previous harness spawned one OS thread per experiment, which both
//! oversubscribed small machines and offered no way to bound parallelism.
//! [`execute_jobs`] instead runs an arbitrary batch of closures on exactly
//! `workers` threads: each worker owns a deque seeded round-robin, drains it
//! front-to-back, and steals from the back of its siblings' deques when its
//! own runs dry. Results come back **in submission order** regardless of
//! which worker ran what — the property the runner relies on to keep
//! exported JSON byte-identical across `--jobs` settings.
//!
//! Both the batch API and the persistent [`WorkerPool`] report into a
//! [`MetricsRegistry`]: queue depth and running jobs as gauges, completed
//! jobs / panics / steals as counters, and per-job wall time as the
//! `pool.job_us` histogram. The plain constructors use a disabled registry,
//! which costs one dead branch per event.
//!
//! Worker threads survive panicking jobs: the panic is caught at the job
//! boundary, counted (`pool.job_panics`, [`WorkerPool::failed_jobs`]), and
//! the worker moves on. Queue locks recover from poisoning, so a panic can
//! never wedge `try_submit`, `shutdown`, or `in_flight` — the failure mode
//! this replaced was a daemon that hung on drain after one bad job.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use hypersweep_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

/// The default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Lock that shrugs off poisoning: the pool's queue invariants hold at
/// every release point, so a panic elsewhere never invalidates the data —
/// propagating the poison would just turn one failed job into a wedged
/// pool.
fn recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run every job on a pool of `workers` threads and return their results in
/// submission order. Panics in a job propagate to the caller.
pub fn execute_jobs<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    execute_jobs_metered(jobs, workers, &MetricsRegistry::disabled())
}

/// [`execute_jobs`] with instrumentation: per-job wall time lands in the
/// `pool.job_us` histogram, completed jobs in `pool.jobs`, and cross-deque
/// steals in `pool.steals`.
pub fn execute_jobs_metered<T, F>(
    jobs: Vec<F>,
    workers: usize,
    registry: &MetricsRegistry,
) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let job_us = registry.histogram("pool.job_us");
    let jobs_counter = registry.counter("pool.jobs");
    let steals = registry.counter("pool.steals");

    let workers = workers.max(1).min(total);
    if workers == 1 {
        // No threads needed; run inline in order.
        return jobs
            .into_iter()
            .map(|job| {
                let started = Instant::now();
                let result = job();
                job_us.record_duration(started.elapsed());
                jobs_counter.inc();
                result
            })
            .collect();
    }

    // Seed the deques round-robin so every worker starts with local work.
    let mut deques: Vec<Mutex<VecDeque<(usize, F)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (index, job) in jobs.into_iter().enumerate() {
        deques[index % workers]
            .get_mut()
            .unwrap()
            .push_back((index, job));
    }
    let deques = &deques;

    let (sender, receiver) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let sender = sender.clone();
            let job_us = job_us.clone();
            let jobs_counter = jobs_counter.clone();
            let steals = steals.clone();
            scope.spawn(move || {
                loop {
                    // Own work first (front), then steal (back) walking the
                    // other deques starting after ours.
                    let mut next = recover(&deques[me]).pop_front();
                    if next.is_none() {
                        for offset in 1..workers {
                            let victim = (me + offset) % workers;
                            next = recover(&deques[victim]).pop_back();
                            if next.is_some() {
                                steals.inc();
                                break;
                            }
                        }
                    }
                    match next {
                        Some((index, job)) => {
                            let started = Instant::now();
                            let result = job();
                            job_us.record_duration(started.elapsed());
                            jobs_counter.inc();
                            // The receiver outlives the scope; a send can
                            // only fail if the main thread is unwinding.
                            let _ = sender.send((index, result));
                        }
                        None => return,
                    }
                }
            });
        }
        drop(sender);
    });

    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    let mut received = 0;
    while let Ok((index, result)) = receiver.recv() {
        assert!(slots[index].is_none(), "job {index} completed twice");
        slots[index] = Some(result);
        received += 1;
    }
    assert_eq!(received, total, "pool lost results");
    slots
        .into_iter()
        .map(|slot| slot.expect("every job completed"))
        .collect()
}

/// The shared early-exit bound of a streamed index range: the lowest
/// violating index any worker has found so far (`u64::MAX` until one is).
///
/// Workers skip whole slices, and break inside a slice, once every index
/// they would run exceeds the bound. The skip is **deterministic for the
/// winner**: the bound only ever holds indices of *actual* violations, so
/// it can never sink below the global minimum violating index `v*` — and
/// therefore no index up to and including `v*` is ever skipped: each runs
/// exactly once under any worker count. Quiet ranges (no violation
/// anywhere) never move the bound and are explored exhaustively.
pub struct StreamCutoff(AtomicU64);

impl StreamCutoff {
    fn new() -> Self {
        StreamCutoff(AtomicU64::new(u64::MAX))
    }

    /// Record a violating index; the bound only decreases.
    pub fn record(&self, index: u64) {
        self.0.fetch_min(index, Ordering::SeqCst);
    }

    /// The current bound: no index above it needs to run.
    pub fn bound(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Stream the index range `0..total` through `workers` threads in
/// fixed-width slices claimed from a shared atomic counter — nothing is
/// materialized up front, so a 100k-schedule campaign enqueues **zero**
/// heap-allocated jobs regardless of its size.
///
/// Each worker builds one `S` via `init` (its reusable arena state, kept
/// across every slice it claims), then calls `run(&mut state, &mut tally,
/// index)` for each index, where `tally` is a fresh `T` per slice. `run`
/// returns `true` when the index *violated*; the executor records it in
/// the [`StreamCutoff`] and stops the slice. Slices whose low end exceeds
/// the cutoff are skipped whole (counted in `{prefix}.slices_skipped`);
/// claimed slices land in `{prefix}.slices`.
///
/// Returns, in index order, the tallies of the slices that start at or
/// below the lowest violating index (every slice when the range is quiet).
/// Those slices ran every index from their low end up to their first
/// violation, and no other, under any worker count (see [`StreamCutoff`]),
/// so whatever the caller folds over them — the winner and every count —
/// is the same for any `workers`. Slices above the winner ran as far as
/// timing let them; their tallies are dropped. One tally per claimed slice
/// is kept until the end (3,125 for a 100k-schedule campaign).
pub fn execute_schedule_stream<S, T, I, R>(
    total: u64,
    slice_width: u64,
    workers: usize,
    registry: &MetricsRegistry,
    prefix: &str,
    init: I,
    run: R,
) -> Vec<T>
where
    T: Default + Send,
    I: Fn(usize) -> S + Sync,
    R: Fn(&mut S, &mut T, u64) -> bool + Sync,
{
    let slice_width = slice_width.max(1);
    let slices_counter = registry.counter(&format!("{prefix}.slices"));
    let skipped_counter = registry.counter(&format!("{prefix}.slices_skipped"));
    let workers = workers.max(1).min(total.max(1) as usize);
    let next = AtomicU64::new(0);
    let cutoff = StreamCutoff::new();
    let (next, cutoff, init, run) = (&next, &cutoff, &init, &run);

    let worker_body = |me: usize| -> Vec<(u64, T)> {
        let mut state = init(me);
        let mut tallies = Vec::new();
        loop {
            let slice = next.fetch_add(1, Ordering::SeqCst);
            let Some(lo) = slice.checked_mul(slice_width) else {
                break;
            };
            if lo >= total {
                break;
            }
            let hi = (lo + slice_width).min(total);
            if lo > cutoff.bound() {
                skipped_counter.inc();
                continue;
            }
            slices_counter.inc();
            let mut tally = T::default();
            for index in lo..hi {
                if index > cutoff.bound() {
                    break;
                }
                if run(&mut state, &mut tally, index) {
                    cutoff.record(index);
                    break;
                }
            }
            tallies.push((lo, tally));
        }
        tallies
    };

    let mut tallies: Vec<(u64, T)> = if workers == 1 {
        worker_body(0)
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|me| scope.spawn(move || worker_body(me)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("stream worker panicked"))
                .collect()
        })
    };
    let winner = cutoff.bound();
    tallies.retain(|&(lo, _)| lo <= winner);
    tallies.sort_unstable_by_key(|&(lo, _)| lo);
    tallies.into_iter().map(|(_, tally)| tally).collect()
}

/// The submission was rejected because the pool's queue is at capacity —
/// the caller should shed load (e.g. answer `busy`) instead of buffering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolSaturated;

impl std::fmt::Display for PoolSaturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool queue is at capacity")
    }
}

impl std::error::Error for PoolSaturated {}

type PoolJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: VecDeque<PoolJob>,
    shutting_down: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    job_ready: Condvar,
    /// Maximum queued (not yet running) jobs — the backpressure bound.
    capacity: usize,
    /// Jobs currently executing on a worker.
    running: AtomicUsize,
    /// Jobs that panicked instead of completing (also `pool.job_panics`).
    failed: AtomicU64,
    metrics: PoolMetrics,
}

/// Handles resolved once at pool construction; all no-ops when the pool
/// was built without a registry.
struct PoolMetrics {
    queued: Gauge,
    running: Gauge,
    jobs: Counter,
    panics: Counter,
    job_us: Histogram,
}

impl PoolMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        PoolMetrics {
            queued: registry.gauge("pool.queued"),
            running: registry.gauge("pool.running"),
            jobs: registry.counter("pool.jobs"),
            panics: registry.counter("pool.job_panics"),
            job_us: registry.histogram("pool.job_us"),
        }
    }
}

/// A persistent, bounded sibling of [`execute_jobs`] for long-running
/// services: `workers` threads drain a shared queue of at most
/// `queue_capacity` pending jobs. [`WorkerPool::try_submit`] never blocks —
/// a full queue is reported to the caller as [`PoolSaturated`] so services
/// answer *busy* under overload instead of buffering unboundedly.
///
/// [`WorkerPool::shutdown`] drains: already-queued jobs still execute, the
/// workers then exit, and the call returns only once every worker thread
/// has been joined (no leaked threads). A job that panics is caught at the
/// job boundary and counted; it cannot take a worker down or poison the
/// queue against later submitters.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (at least one) serving a queue bounded at
    /// `queue_capacity` pending jobs, with telemetry disabled.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        WorkerPool::with_telemetry(workers, queue_capacity, &MetricsRegistry::disabled())
    }

    /// [`WorkerPool::new`] reporting into `registry`: `pool.queued` /
    /// `pool.running` gauges, `pool.jobs` / `pool.job_panics` counters,
    /// and the `pool.job_us` latency histogram.
    pub fn with_telemetry(
        workers: usize,
        queue_capacity: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutting_down: false,
            }),
            job_ready: Condvar::new(),
            capacity: queue_capacity.max(1),
            running: AtomicUsize::new(0),
            failed: AtomicU64::new(0),
            metrics: PoolMetrics::resolve(registry),
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Worker threads serving the queue (0 once shut down).
    pub fn workers(&self) -> usize {
        recover(&self.handles).len()
    }

    /// Enqueue `job`, or refuse immediately if the queue is full or the
    /// pool is shutting down.
    pub fn try_submit<F>(&self, job: F) -> Result<(), PoolSaturated>
    where
        F: FnOnce() + Send + 'static,
    {
        let mut queue = recover(&self.shared.queue);
        if queue.shutting_down || queue.jobs.len() >= self.shared.capacity {
            return Err(PoolSaturated);
        }
        queue.jobs.push_back(Box::new(job));
        drop(queue);
        self.shared.metrics.queued.inc();
        self.shared.job_ready.notify_one();
        Ok(())
    }

    /// Jobs queued or currently executing.
    pub fn in_flight(&self) -> usize {
        let queued = recover(&self.shared.queue).jobs.len();
        queued + self.shared.running.load(Ordering::SeqCst)
    }

    /// Jobs that panicked instead of completing, over the pool's lifetime.
    pub fn failed_jobs(&self) -> u64 {
        self.shared.failed.load(Ordering::SeqCst)
    }

    /// Stop accepting work, finish everything already queued, and join
    /// every worker thread. Idempotent; callable through a shared handle
    /// (e.g. an `Arc` a server shares with its connection threads).
    pub fn shutdown(&self) {
        {
            let mut queue = recover(&self.shared.queue);
            queue.shutting_down = true;
        }
        self.shared.job_ready.notify_all();
        let handles: Vec<_> = recover(&self.handles).drain(..).collect();
        for handle in handles {
            // Workers catch job panics, so join only fails if a worker
            // itself died abnormally; drain must still complete then.
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Pools dropped without an explicit drain still join their
        // workers; after an explicit `shutdown` this is a no-op.
        self.shutdown();
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut queue = recover(&shared.queue);
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            shared.running.fetch_add(1, Ordering::SeqCst);
            drop(queue);
            shared.metrics.queued.dec();
            shared.metrics.running.inc();
            // Counted at pickup, not completion: a job that replies to a
            // caller mid-execution (the server's reactor) must already be
            // visible in `pool.jobs` when that reply lands. Panicked jobs
            // stay included, exactly as when this counted completions.
            shared.metrics.jobs.inc();
            let started = Instant::now();
            // The job owns everything it captured, and the pool shares no
            // state with it beyond the (recovering) queue lock — catching
            // the unwind cannot observe broken invariants.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(job));
            shared.metrics.job_us.record_duration(started.elapsed());
            shared.metrics.running.dec();
            if outcome.is_err() {
                shared.failed.fetch_add(1, Ordering::SeqCst);
                shared.metrics.panics.inc();
            }
            shared.running.fetch_sub(1, Ordering::SeqCst);
            queue = recover(&shared.queue);
            continue;
        }
        if queue.shutting_down {
            return;
        }
        queue = shared
            .job_ready
            .wait(queue)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 4, 8] {
            let jobs: Vec<_> = (0..50)
                .map(|i| {
                    move || {
                        // Stagger so completion order differs from
                        // submission order.
                        if i % 7 == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        i * 10
                    }
                })
                .collect();
            let results = execute_jobs(jobs, workers);
            assert_eq!(results, (0..50).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn bounded_concurrency() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..32)
            .map(|_| {
                || {
                    let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
                    PEAK.fetch_max(live, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    LIVE.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        execute_jobs(jobs, 3);
        assert!(
            PEAK.load(Ordering::SeqCst) <= 3,
            "more than 3 jobs ran at once"
        );
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(execute_jobs(none, 4).is_empty());
        assert_eq!(execute_jobs(vec![|| 7], 4), vec![7]);
    }

    #[test]
    fn stealing_drains_uneven_queues() {
        // One deque gets all the slow jobs (round-robin seeding then a
        // worker count that doesn't divide the job count would still spread
        // them, so force the imbalance through job durations instead): the
        // fast workers must steal the stragglers for this to finish quickly.
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16)
            .map(|i| {
                let job: Box<dyn FnOnce() -> usize + Send> = if i % 4 == 0 {
                    Box::new(move || {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        i
                    })
                } else {
                    Box::new(move || i)
                };
                job
            })
            .collect();
        let results = execute_jobs(jobs, 4);
        assert_eq!(results, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn metered_batch_reports_jobs_latency_and_steals() {
        let registry = MetricsRegistry::new();
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16)
            .map(|i| {
                let job: Box<dyn FnOnce() -> usize + Send> = if i % 4 == 0 {
                    Box::new(move || {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        i
                    })
                } else {
                    Box::new(move || i)
                };
                job
            })
            .collect();
        let results = execute_jobs_metered(jobs, 4, &registry);
        assert_eq!(results, (0..16).collect::<Vec<_>>());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pool.jobs"), Some(16));
        assert_eq!(snap.histogram("pool.job_us").map(|h| h.count), Some(16));
        assert!(
            snap.counter("pool.steals").unwrap_or(0) > 0,
            "the skewed durations must force at least one steal"
        );
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn worker_pool_runs_submitted_jobs() {
        static DONE: AtomicUsize = AtomicUsize::new(0);
        let pool = WorkerPool::new(2, 64);
        for _ in 0..16 {
            pool.try_submit(|| {
                DONE.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(DONE.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn worker_pool_refuses_when_saturated() {
        use std::sync::mpsc::channel;
        let pool = WorkerPool::new(1, 1);
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        // Occupy the single worker...
        pool.try_submit(move || {
            gate.lock().unwrap().recv().ok();
        })
        .unwrap();
        // ...wait until it is actually running, so the queue is empty...
        while pool.shared.running.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // ...then fill the queue slot; the next submit must be refused.
        pool.try_submit(|| {}).unwrap();
        assert_eq!(pool.try_submit(|| {}), Err(PoolSaturated));
        assert_eq!(pool.in_flight(), 2);
        release.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_and_joins() {
        static DONE: AtomicUsize = AtomicUsize::new(0);
        let pool = WorkerPool::new(1, 32);
        for _ in 0..8 {
            pool.try_submit(|| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                DONE.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(
            DONE.load(Ordering::SeqCst),
            8,
            "shutdown must drain, not drop, queued work"
        );
    }

    /// The satellite regression: a panicking job must not take down its
    /// worker, wedge later submissions, or hang `shutdown` — and it must
    /// show up in `failed_jobs` and `pool.job_panics`.
    #[test]
    fn panicking_job_does_not_wedge_the_pool() {
        static DONE: AtomicUsize = AtomicUsize::new(0);
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::with_telemetry(1, 32, &registry);

        pool.try_submit(|| panic!("job exploded (expected in this test)"))
            .unwrap();
        // The single worker just panicked a job; it must still serve these.
        for _ in 0..4 {
            pool.try_submit(|| {
                DONE.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();

        assert_eq!(DONE.load(Ordering::SeqCst), 4);
        assert_eq!(pool.failed_jobs(), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pool.job_panics"), Some(1));
        assert_eq!(snap.counter("pool.jobs"), Some(5));
        // Both gauges must have unwound to zero.
        assert_eq!(snap.gauge("pool.queued"), Some(0));
        assert_eq!(snap.gauge("pool.running"), Some(0));
    }

    /// `in_flight` and a second `try_submit` keep working while a panicked
    /// job is mid-unwind (the poisoned-lock recovery path).
    #[test]
    fn pool_survives_many_panics_under_contention() {
        let registry = MetricsRegistry::new();
        let pool = WorkerPool::with_telemetry(4, 64, &registry);
        for i in 0..32 {
            let submitted = pool.try_submit(move || {
                if i % 3 == 0 {
                    panic!("scheduled failure {i}");
                }
            });
            assert!(submitted.is_ok(), "submission {i} was refused");
        }
        pool.shutdown();
        assert_eq!(pool.failed_jobs(), 11);
        assert_eq!(registry.snapshot().counter("pool.jobs"), Some(32));
        assert_eq!(pool.in_flight(), 0);
    }
}
