//! Memoized strategy runs shared across experiments and daemon requests.
//!
//! Several experiments execute the *same* strategy run: T2, T3, E11 and E13
//! all trace Algorithm CLEAN's fast path over the fast dimensions; T7 and
//! T10 both run the visibility strategy on the synchronous engine; and so
//! on. A [`RunCache`] keys every engine/fast execution by
//! [`RunKey`] and guarantees each unique configuration executes exactly
//! once per harness invocation, no matter how many experiments request it
//! or from how many worker threads. The daemon serves its `audit` replies
//! from one too.
//!
//! The cache is hash-partitioned on the full key `(strategy, dim, exec)`:
//! each shard has its own lock, condvar, LRU clock and slice of the
//! capacity, so concurrent requests for different configurations do not
//! contend on one lock. Everything else is shared: one set of `cache.*`
//! series (plus a `cache.shard<i>.requests` counter per shard, so skew is
//! observable), one timings log, one runner and one insert listener.
//! `report` builds one shard; the daemon builds `--cache-shards` of them.
//!
//! Strategy runs are deterministic per key (random adversaries are seeded),
//! so a cached [`SearchOutcome`] is indistinguishable from a fresh one and
//! exported JSON is unaffected by caching or execution order.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use hypersweep_baselines::{FloodStrategy, FrontierStrategy};
use hypersweep_core::{
    CleanStrategy, CloningStrategy, DispatchOrder, NavigationMode, SearchOutcome, SearchStrategy,
    SynchronousStrategy, VisibilityStrategy,
};
use hypersweep_sim::Policy;
use hypersweep_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use hypersweep_topology::Hypercube;

/// Which strategy (including ablation variants) a run executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Algorithm CLEAN with via-meet navigation (the paper's version).
    Clean,
    /// Algorithm CLEAN with the naive through-root navigation (E13's
    /// ablation).
    CleanThroughRoot,
    /// CLEAN WITH VISIBILITY.
    Visibility,
    /// The cloning variant (§5), largest-subtree-first dispatch.
    Cloning,
    /// The cloning variant with smallest-subtree-first dispatch (E13's
    /// ablation).
    CloningSmallestFirst,
    /// The synchronous variant without visibility (§5).
    Synchronous,
    /// The flood baseline (one agent per node).
    Flood,
    /// The double-frontier baseline.
    Frontier,
}

impl StrategyKind {
    /// Every variant, in declaration order (drives label round-trips and
    /// persisted-record validation).
    pub const ALL: [StrategyKind; 8] = [
        StrategyKind::Clean,
        StrategyKind::CleanThroughRoot,
        StrategyKind::Visibility,
        StrategyKind::Cloning,
        StrategyKind::CloningSmallestFirst,
        StrategyKind::Synchronous,
        StrategyKind::Flood,
        StrategyKind::Frontier,
    ];

    /// Short stable label for timing reports.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Clean => "clean",
            StrategyKind::CleanThroughRoot => "clean-through-root",
            StrategyKind::Visibility => "visibility",
            StrategyKind::Cloning => "cloning",
            StrategyKind::CloningSmallestFirst => "cloning-smallest-first",
            StrategyKind::Synchronous => "synchronous",
            StrategyKind::Flood => "flood",
            StrategyKind::Frontier => "frontier",
        }
    }

    /// Inverse of [`StrategyKind::label`], used when warm-loading persisted
    /// cache records.
    pub fn from_label(label: &str) -> Option<StrategyKind> {
        StrategyKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// How a run executes: the procedural fast path or the discrete-event
/// engine under a scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Exec {
    /// `SearchStrategy::fast(false)` — procedural, no event trace kept.
    Fast,
    /// `SearchStrategy::fast(true)` — procedural, with the synthesized
    /// trace streamed through the contamination monitor (the server's
    /// `audit` requests).
    Audited,
    /// `SearchStrategy::run(policy)` — full engine with monitors.
    Engine(Policy),
}

/// One unique strategy execution. Equal keys produce identical
/// [`SearchOutcome`]s, which is what makes memoization sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// The strategy to execute.
    pub strategy: StrategyKind,
    /// The hypercube dimension.
    pub dim: u32,
    /// Fast path or engine-with-policy.
    pub exec: Exec,
}

impl RunKey {
    /// A fast-path run.
    pub fn fast(strategy: StrategyKind, dim: u32) -> Self {
        RunKey {
            strategy,
            dim,
            exec: Exec::Fast,
        }
    }

    /// An engine run under `policy`.
    pub fn engine(strategy: StrategyKind, dim: u32, policy: Policy) -> Self {
        RunKey {
            strategy,
            dim,
            exec: Exec::Engine(policy),
        }
    }

    /// A fast-path run streamed through the contamination auditor.
    pub fn audited(strategy: StrategyKind, dim: u32) -> Self {
        RunKey {
            strategy,
            dim,
            exec: Exec::Audited,
        }
    }

    /// Stable label for timing reports, e.g. `clean/d6/fifo`.
    pub fn label(&self) -> String {
        match self.exec {
            Exec::Fast => format!("{}/d{}/fast", self.strategy.label(), self.dim),
            Exec::Audited => format!("{}/d{}/audited", self.strategy.label(), self.dim),
            Exec::Engine(p) => format!("{}/d{}/{}", self.strategy.label(), self.dim, p.name()),
        }
    }
}

/// Execute `key` from scratch. This is the cache's default runner; tests
/// inject their own via [`RunCache::with_runner`].
pub fn execute_run(key: RunKey) -> SearchOutcome {
    let cube = Hypercube::new(key.dim);
    if key.strategy == StrategyKind::Frontier {
        // The frontier baseline has no engine embedding; only its
        // procedural trace is meaningful.
        match key.exec {
            Exec::Fast => return FrontierStrategy::new(cube).outcome(false),
            Exec::Audited => return FrontierStrategy::new(cube).outcome(true),
            Exec::Engine(_) => panic!("the frontier baseline has no engine run ({key:?})"),
        }
    }
    let strategy: Box<dyn SearchStrategy> = match key.strategy {
        StrategyKind::Clean => Box::new(CleanStrategy::new(cube)),
        StrategyKind::CleanThroughRoot => Box::new(CleanStrategy::with_navigation(
            cube,
            NavigationMode::ThroughRoot,
        )),
        StrategyKind::Visibility => Box::new(VisibilityStrategy::new(cube)),
        StrategyKind::Cloning => Box::new(CloningStrategy::new(cube)),
        StrategyKind::CloningSmallestFirst => Box::new(CloningStrategy::with_dispatch_order(
            cube,
            DispatchOrder::SmallestSubtreeFirst,
        )),
        StrategyKind::Synchronous => Box::new(SynchronousStrategy::new(cube)),
        StrategyKind::Flood => Box::new(FloodStrategy::new(cube)),
        StrategyKind::Frontier => unreachable!("handled above"),
    };
    match key.exec {
        Exec::Fast => strategy.fast(false),
        Exec::Audited => strategy.fast(true),
        Exec::Engine(policy) => strategy
            .run(policy)
            .unwrap_or_else(|e| panic!("{} failed: {e}", key.label())),
    }
}

/// Wall-clock record of one executed (cache-missed) run.
#[derive(Clone, Debug)]
pub struct JobTiming {
    /// The run that executed.
    pub key: RunKey,
    /// How long it took.
    pub elapsed: Duration,
}

enum Entry {
    /// Some thread is computing this key; wait on the condvar.
    InFlight,
    /// Computed; `last_used` orders entries for LRU eviction.
    Ready {
        outcome: Arc<SearchOutcome>,
        last_used: u64,
    },
}

/// One shard's map plus its LRU bookkeeping, guarded by the shard's mutex.
struct CacheState {
    entries: HashMap<RunKey, Entry>,
    /// Monotonic access counter driving `last_used`.
    tick: u64,
    /// Maximum number of `Ready` entries kept; `None` = unbounded.
    capacity: Option<usize>,
}

impl CacheState {
    /// Evict least-recently-used `Ready` entries until the bound holds.
    /// In-flight entries are never evicted (someone is waiting on them).
    /// Returns how many entries were dropped.
    fn enforce_capacity(&mut self) -> u64 {
        let Some(cap) = self.capacity else { return 0 };
        let mut evicted = 0;
        loop {
            let ready = self
                .entries
                .values()
                .filter(|e| matches!(e, Entry::Ready { .. }))
                .count();
            if ready <= cap {
                return evicted;
            }
            let oldest = self
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready { last_used, .. } => Some((*last_used, *k)),
                    Entry::InFlight => None,
                })
                .min_by_key(|(last_used, _)| *last_used)
                .map(|(_, k)| k);
            match oldest {
                Some(key) => {
                    self.entries.remove(&key);
                    evicted += 1;
                }
                None => return evicted,
            }
        }
    }
}

/// One hash partition of a [`RunCache`]: its own lock, wake-up, LRU clock
/// and capacity slice, so requests for keys on different shards never
/// contend.
struct Shard {
    state: Mutex<CacheState>,
    ready: Condvar,
    /// The live `cache.shard<i>.requests` counter, so skew is observable.
    requests: Counter,
}

type Runner = dyn Fn(RunKey) -> SearchOutcome + Send + Sync;

/// Callback observing every *computed* insert (cache misses that finished
/// executing). Warm-load inserts via [`RunCache::insert_ready`] do not fire
/// it — the persistence layer would otherwise re-append every record it
/// just loaded.
pub type InsertListener = Arc<dyn Fn(RunKey, &Arc<SearchOutcome>) + Send + Sync>;

/// Lock that recovers from poisoning. The cache's invariants hold at every
/// release point (runs execute outside the lock), so poison only means
/// some *other* thread panicked — which must not wedge this one.
fn recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Live cache counters; these *are* the accounting (the accessors read
/// them back), registered either in a caller-provided registry so a daemon
/// sees them in its snapshots, or in a private one.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    entries: Gauge,
    run_us: Histogram,
}

impl CacheMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        CacheMetrics {
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            evictions: registry.counter("cache.evictions"),
            entries: registry.gauge("cache.entries"),
            run_us: registry.histogram("cache.run_us"),
        }
    }

    /// Account for `added` new `Ready` entries in one shard and the
    /// `evicted` ones its capacity pass then dropped. The entries gauge
    /// moves by deltas, not `set(len)`: each shard updates it under its
    /// own lock, and deltas keep the one cell the total across all of them.
    fn note_ready(&self, added: i64, evicted: u64) {
        self.evictions.add(evicted);
        self.entries.add(added - evicted as i64);
    }
}

/// Removes the `InFlight` marker if the runner unwinds, waking waiters so
/// one of them retries instead of blocking forever on an entry nobody is
/// computing. Disarmed on the successful path before `Ready` goes in.
struct InFlightGuard<'a> {
    shard: &'a Shard,
    key: RunKey,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = recover(&self.shard.state);
            if matches!(state.entries.get(&self.key), Some(Entry::InFlight)) {
                state.entries.remove(&self.key);
            }
            drop(state);
            self.shard.ready.notify_all();
        }
    }
}

/// Executed-run timing records kept at most this long; beyond it the
/// fastest half is dropped. A long-running daemon re-executes evicted runs
/// indefinitely, so the log must not grow without bound.
const TIMINGS_HIGH_WATER: usize = 512;

/// Largest accepted shard count; beyond this the per-shard capacity slices
/// get too thin to be useful and the poll set bookkeeping dominates.
pub const MAX_CACHE_SHARDS: usize = 64;

/// Validate a `--cache-shards` request: `1..=MAX_CACHE_SHARDS`. Returns
/// the count unchanged, or a message naming the valid range.
pub fn validate_cache_shards(shards: usize) -> Result<usize, String> {
    if shards == 0 {
        Err(format!(
            "--cache-shards 0 would leave no shard to serve from; \
             valid range is 1..={MAX_CACHE_SHARDS}"
        ))
    } else if shards > MAX_CACHE_SHARDS {
        Err(format!(
            "--cache-shards {shards} exceeds the supported limit {MAX_CACHE_SHARDS}; \
             valid range is 1..={MAX_CACHE_SHARDS}"
        ))
    } else {
        Ok(shards)
    }
}

/// Shard `i`'s slice of a total capacity: `total / n` plus one of the
/// remainder. A total below the shard count leaves the tail shards at
/// capacity zero (they still dedupe in-flight runs, they just retain
/// nothing) — callers wanting retention everywhere should keep
/// `capacity >= shards`.
fn shard_capacity(total: Option<usize>, shards: usize, i: usize) -> Option<usize> {
    total.map(|c| c / shards + usize::from(i < c % shards))
}

/// Concurrent memo table over [`RunKey`]s, hash-partitioned into shards.
///
/// The first requester of a key executes it; concurrent requesters of the
/// same key block until the result is ready instead of duplicating work.
/// An optional capacity bounds the number of retained outcomes with
/// least-recently-used eviction within each shard, so a long-running
/// server stays in bounded memory (an evicted key simply re-executes on
/// its next request).
pub struct RunCache {
    shards: Vec<Shard>,
    metrics: CacheMetrics,
    /// The registry `metrics` lives in; the daemon folds this into its own
    /// snapshot when the cache was built with a private registry.
    registry: MetricsRegistry,
    timings: Mutex<Vec<JobTiming>>,
    runner: Box<Runner>,
    /// Fired (outside the shard locks) after each computed insert; see
    /// [`InsertListener`].
    insert_listener: Mutex<Option<InsertListener>>,
}

/// Another name for [`RunCache`], which is sharded itself; the standalone
/// `perfbench/trace` package names the daemon's cache this way.
pub type ShardedRunCache = RunCache;

impl Default for RunCache {
    fn default() -> Self {
        Self::new()
    }
}

impl RunCache {
    /// An unbounded one-shard cache backed by [`execute_run`].
    pub fn new() -> Self {
        Self::with_runner(execute_run)
    }

    /// A one-shard cache backed by [`execute_run`] keeping at most
    /// `capacity` computed outcomes (`None` = unbounded).
    pub fn with_capacity(capacity: Option<usize>) -> Self {
        let cache = Self::new();
        cache.set_capacity(capacity);
        cache
    }

    /// `shards` shards backed by [`execute_run`], splitting `capacity`
    /// across them, with the `cache.*` series in `registry` so a daemon's
    /// metrics snapshot sees them directly.
    pub fn with_capacity_and_telemetry(
        shards: usize,
        capacity: Option<usize>,
        registry: &MetricsRegistry,
    ) -> Self {
        Self::with_runner_capacity_and_telemetry(shards, execute_run, capacity, registry)
    }

    /// An empty unbounded one-shard cache backed by a custom runner (for
    /// tests).
    pub fn with_runner(runner: impl Fn(RunKey) -> SearchOutcome + Send + Sync + 'static) -> Self {
        // A private registry keeps the accounting accessors live even for
        // callers that never look at telemetry.
        Self::with_runner_capacity_and_telemetry(1, runner, None, &MetricsRegistry::new())
    }

    /// `shards` shards (clamped to `1..=MAX_CACHE_SHARDS`) over a custom
    /// runner, splitting `capacity` across them, accounting into
    /// `registry`.
    pub fn with_runner_capacity_and_telemetry(
        shards: usize,
        runner: impl Fn(RunKey) -> SearchOutcome + Send + Sync + 'static,
        capacity: Option<usize>,
        registry: &MetricsRegistry,
    ) -> Self {
        // A disabled registry would silently zero the accounting the
        // harness relies on; fall back to a private live one.
        let registry = if registry.is_enabled() {
            registry.clone()
        } else {
            MetricsRegistry::new()
        };
        let n = shards.clamp(1, MAX_CACHE_SHARDS);
        let shards = (0..n)
            .map(|i| Shard {
                state: Mutex::new(CacheState {
                    entries: HashMap::new(),
                    tick: 0,
                    capacity: shard_capacity(capacity, n, i),
                }),
                ready: Condvar::new(),
                requests: registry.counter(&format!("cache.shard{i}.requests")),
            })
            .collect();
        RunCache {
            shards,
            metrics: CacheMetrics::resolve(&registry),
            registry,
            timings: Mutex::new(Vec::new()),
            runner: Box::new(runner),
            insert_listener: Mutex::new(None),
        }
    }

    /// The registry holding this cache's `cache.*` series.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `key`: `DefaultHasher` over the key, modulo the
    /// shard count. The hash has fixed keys, so repeated requests always
    /// land on the same shard.
    fn shard_index(&self, key: &RunKey) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &RunKey) -> &Shard {
        &self.shards[self.shard_index(key)]
    }

    /// Bound (or unbound, with `None`) the total number of retained
    /// outcomes, re-split across the shards. Shrinking evicts immediately.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        let n = self.shards.len();
        for (i, shard) in self.shards.iter().enumerate() {
            let mut state = recover(&shard.state);
            state.capacity = shard_capacity(capacity, n, i);
            self.metrics.note_ready(0, state.enforce_capacity());
        }
    }

    /// The total capacity bound: the sum of the shards' slices (`None` =
    /// unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.shards
            .iter()
            .map(|shard| recover(&shard.state).capacity)
            .sum()
    }

    /// The outcome for `key`, executing it exactly once across all callers
    /// (the shard owning the key dedupes concurrent requesters).
    ///
    /// If the executing runner panics, the panic propagates to *its*
    /// caller, the in-flight marker is removed, and one blocked waiter
    /// retries the run (counting a fresh miss) — waiters never hang on an
    /// entry nobody is computing.
    pub fn get_or_run(&self, key: RunKey) -> Arc<SearchOutcome> {
        let shard = self.shard(&key);
        shard.requests.inc();
        {
            let mut state = recover(&shard.state);
            loop {
                match state.entries.get(&key) {
                    Some(Entry::Ready { .. }) => {
                        state.tick += 1;
                        let tick = state.tick;
                        let CacheState { entries, .. } = &mut *state;
                        let Some(Entry::Ready { outcome, last_used }) = entries.get_mut(&key)
                        else {
                            unreachable!("entry observed ready under the same lock");
                        };
                        *last_used = tick;
                        self.metrics.hits.inc();
                        return Arc::clone(outcome);
                    }
                    Some(Entry::InFlight) => {
                        state = shard
                            .ready
                            .wait(state)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                    None => {
                        state.entries.insert(key, Entry::InFlight);
                        self.metrics.misses.inc();
                        break;
                    }
                }
            }
        }
        // Execute outside the lock so unrelated keys proceed concurrently.
        // The guard undoes the in-flight marker if the runner unwinds.
        let mut guard = InFlightGuard {
            shard,
            key,
            armed: true,
        };
        let start = Instant::now();
        let outcome = Arc::new((self.runner)(key));
        let elapsed = start.elapsed();
        guard.armed = false;
        self.record_timing(JobTiming { key, elapsed });
        self.metrics.run_us.record_duration(elapsed);
        let mut state = recover(&shard.state);
        state.tick += 1;
        let tick = state.tick;
        state.entries.insert(
            key,
            Entry::Ready {
                outcome: Arc::clone(&outcome),
                last_used: tick,
            },
        );
        // The insert replaced this key's `InFlight` marker with one `Ready`
        // entry.
        self.metrics.note_ready(1, state.enforce_capacity());
        drop(state);
        shard.ready.notify_all();
        let listener = recover(&self.insert_listener).clone();
        if let Some(listener) = listener {
            listener(key, &outcome);
        }
        outcome
    }

    /// Observe every computed insert (see [`InsertListener`]). Later
    /// installs replace earlier ones; `None`-clearing is not needed in
    /// practice (the listener lives as long as the daemon).
    pub fn set_insert_listener(&self, listener: InsertListener) {
        *recover(&self.insert_listener) = Some(listener);
    }

    /// Insert an already-computed outcome for `key` into its shard without
    /// counting a miss or firing the insert listener — the warm-load path.
    /// Returns `false` (and leaves the cache unchanged) if the key is
    /// already present, computed or in flight.
    pub fn insert_ready(&self, key: RunKey, outcome: SearchOutcome) -> bool {
        let mut state = recover(&self.shard(&key).state);
        if state.entries.contains_key(&key) {
            return false;
        }
        state.tick += 1;
        let tick = state.tick;
        state.entries.insert(
            key,
            Entry::Ready {
                outcome: Arc::new(outcome),
                last_used: tick,
            },
        );
        self.metrics.note_ready(1, state.enforce_capacity());
        true
    }

    /// Every computed entry currently held, unordered. Touches no LRU
    /// state — snapshotting for compaction must not perturb eviction order.
    pub fn entries_snapshot(&self) -> Vec<(RunKey, Arc<SearchOutcome>)> {
        let mut snapshot = Vec::new();
        for shard in &self.shards {
            snapshot.extend(
                recover(&shard.state)
                    .entries
                    .iter()
                    .filter_map(|(k, e)| match e {
                        Entry::Ready { outcome, .. } => Some((*k, Arc::clone(outcome))),
                        Entry::InFlight => None,
                    }),
            );
        }
        snapshot
    }

    fn record_timing(&self, timing: JobTiming) {
        let mut timings = recover(&self.timings);
        timings.push(timing);
        if timings.len() > TIMINGS_HIGH_WATER {
            // Keep the slowest half: the summary only ever reports the
            // slowest runs, and totals stop being meaningful on a daemon
            // anyway once eviction forces re-execution.
            timings.sort_by_key(|t| std::cmp::Reverse(t.elapsed));
            timings.truncate(TIMINGS_HIGH_WATER / 2);
        }
    }

    /// Requests served from an already-computed entry (the live
    /// `cache.hits` counter).
    pub fn hits(&self) -> u64 {
        self.metrics.hits.get()
    }

    /// Requests that executed the run (once per unique key; the live
    /// `cache.misses` counter).
    pub fn misses(&self) -> u64 {
        self.metrics.misses.get()
    }

    /// Outcomes dropped by the LRU capacity bound (the live
    /// `cache.evictions` counter).
    pub fn evictions(&self) -> u64 {
        self.metrics.evictions.get()
    }

    /// Computed outcomes currently held, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| ready_count(&recover(&shard.state)))
            .sum()
    }

    /// Whether the cache currently holds no computed outcome.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct runs executed so far (bounded on long-running
    /// daemons; see [`RunCache::timings`]).
    pub fn unique_runs(&self) -> usize {
        recover(&self.timings).len()
    }

    /// Wall-clock records of executed runs, slowest first. On a
    /// long-running daemon only the slowest records are retained.
    pub fn timings(&self) -> Vec<JobTiming> {
        let mut t = recover(&self.timings).clone();
        t.sort_by_key(|timing| std::cmp::Reverse(timing.elapsed));
        t
    }

    /// Total time spent executing runs (sum over retained records).
    pub fn total_run_time(&self) -> Duration {
        recover(&self.timings).iter().map(|t| t.elapsed).sum()
    }
}

/// `Ready` entries in one shard's table (in-flight markers are not
/// outcomes).
fn ready_count(state: &CacheState) -> usize {
    state
        .entries
        .values()
        .filter(|e| matches!(e, Entry::Ready { .. }))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn dummy_outcome() -> SearchOutcome {
        // Any real run works; the cheapest possible one keeps tests fast.
        execute_run(RunKey::fast(StrategyKind::Clean, 1))
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = RunCache::with_runner(|_| dummy_outcome());
        let a = RunKey::fast(StrategyKind::Clean, 3);
        let b = RunKey::engine(StrategyKind::Clean, 3, Policy::Fifo);
        cache.get_or_run(a);
        cache.get_or_run(a);
        cache.get_or_run(b);
        cache.get_or_run(a);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.unique_runs(), 2);
    }

    #[test]
    fn concurrent_requests_execute_once() {
        static EXECUTIONS: AtomicUsize = AtomicUsize::new(0);
        let cache = Arc::new(RunCache::with_runner(|_| {
            EXECUTIONS.fetch_add(1, Ordering::SeqCst);
            // Widen the race window: all waiters should pile up on the
            // in-flight entry.
            std::thread::sleep(Duration::from_millis(20));
            dummy_outcome()
        }));
        let key = RunKey::fast(StrategyKind::Visibility, 4);
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_run(key)
                })
            })
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(EXECUTIONS.load(Ordering::SeqCst), 1, "ran more than once");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), threads as u64 - 1);
        // Everyone got the same shared outcome.
        for o in &outcomes {
            assert!(Arc::ptr_eq(o, &outcomes[0]));
        }
    }

    #[test]
    fn cached_outcome_equals_recomputed() {
        let cache = RunCache::new();
        let key = RunKey::engine(StrategyKind::Clean, 3, Policy::Random(7));
        let cached = cache.get_or_run(key);
        let fresh = execute_run(key);
        assert_eq!(cached.metrics.worker_moves, fresh.metrics.worker_moves);
        assert_eq!(cached.metrics.team_size, fresh.metrics.team_size);
        assert_eq!(
            cached.metrics.coordinator_moves,
            fresh.metrics.coordinator_moves
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            RunKey::fast(StrategyKind::Clean, 6).label(),
            "clean/d6/fast"
        );
        assert_eq!(
            RunKey::engine(StrategyKind::Visibility, 4, Policy::Random(2)).label(),
            "visibility/d4/random[2]"
        );
    }

    #[test]
    fn audited_exec_runs_the_monitor() {
        let cache = RunCache::new();
        let outcome = cache.get_or_run(RunKey::audited(StrategyKind::Clean, 4));
        assert!(outcome.is_complete());
        let summary = outcome.trace_summary.expect("audited runs are streamed");
        assert!(summary.events > 0);
        assert_eq!(summary.moves, outcome.metrics.total_moves());
        // The unaudited fast run is a distinct key with a vacuous verdict
        // and no summary.
        let fast = cache.get_or_run(RunKey::fast(StrategyKind::Clean, 4));
        assert!(fast.trace_summary.is_none());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn lru_capacity_evicts_least_recently_used() {
        let cache = RunCache::with_runner(|_| dummy_outcome());
        cache.set_capacity(Some(2));
        let a = RunKey::fast(StrategyKind::Clean, 2);
        let b = RunKey::fast(StrategyKind::Clean, 3);
        let c = RunKey::fast(StrategyKind::Clean, 4);
        cache.get_or_run(a);
        cache.get_or_run(b);
        cache.get_or_run(a); // a is now more recent than b
        cache.get_or_run(c); // evicts b
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        cache.get_or_run(a);
        assert_eq!(cache.misses(), 3, "a and c must still be resident");
        cache.get_or_run(b); // b was evicted: re-executes
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.evictions(), 2, "b's return evicts the next victim");
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let cache = RunCache::with_runner(|_| dummy_outcome());
        for d in 1..=5 {
            cache.get_or_run(RunKey::fast(StrategyKind::Flood, d));
        }
        assert_eq!(cache.len(), 5);
        cache.set_capacity(Some(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 3);
        // Unbounding again stops eviction.
        cache.set_capacity(None);
        for d in 6..=9 {
            cache.get_or_run(RunKey::fast(StrategyKind::Flood, d));
        }
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.evictions(), 3);
    }

    #[test]
    fn evicted_outcome_recomputes_identically() {
        let cache = RunCache::with_capacity(Some(1));
        let key = RunKey::audited(StrategyKind::Visibility, 3);
        let first = cache.get_or_run(key);
        cache.get_or_run(RunKey::audited(StrategyKind::Cloning, 3)); // evicts
        let second = cache.get_or_run(key);
        assert!(!Arc::ptr_eq(&first, &second), "must have re-executed");
        assert_eq!(first.metrics.worker_moves, second.metrics.worker_moves);
        assert_eq!(first.trace_summary, second.trace_summary);
    }

    /// A runner that panics must not strand its `InFlight` marker: blocked
    /// waiters wake up, one retries, and (here) the retry succeeds.
    #[test]
    fn panicking_runner_does_not_strand_waiters() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let cache = Arc::new(RunCache::with_runner(|_| {
            if CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
                // Give the waiter time to block on the in-flight entry
                // before the executor unwinds.
                std::thread::sleep(Duration::from_millis(30));
                panic!("first run fails (expected in this test)");
            }
            dummy_outcome()
        }));
        let key = RunKey::fast(StrategyKind::Clean, 5);

        let executor = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cache.get_or_run(key)))
            })
        };
        // Let the executor claim the key first, then pile on a waiter.
        std::thread::sleep(Duration::from_millis(10));
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.get_or_run(key))
        };

        assert!(executor.join().unwrap().is_err(), "first run must panic");
        let outcome = waiter.join().expect("waiter must not deadlock or die");
        assert!(outcome.is_complete());
        assert_eq!(CALLS.load(Ordering::SeqCst), 2, "waiter retried the run");
        // Both attempts counted as misses; the retry's result is cached.
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 1);
        // The cache stays fully usable afterwards.
        cache.get_or_run(key);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn telemetry_registry_sees_live_cache_series() {
        let registry = MetricsRegistry::new();
        let cache = RunCache::with_capacity_and_telemetry(1, Some(2), &registry);
        assert!(cache.registry().ptr_eq(&registry));
        for d in 1..=3 {
            cache.get_or_run(RunKey::fast(StrategyKind::Clean, d));
        }
        cache.get_or_run(RunKey::fast(StrategyKind::Clean, 3));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.misses"), Some(3));
        assert_eq!(snap.counter("cache.hits"), Some(1));
        assert_eq!(snap.counter("cache.evictions"), Some(1));
        assert_eq!(snap.gauge("cache.entries"), Some(2));
        assert_eq!(snap.histogram("cache.run_us").map(|h| h.count), Some(3));
        // The accessors read the same cells.
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn strategy_labels_round_trip() {
        for kind in StrategyKind::ALL {
            assert_eq!(StrategyKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(StrategyKind::from_label("no-such-strategy"), None);
    }

    #[test]
    fn insert_ready_serves_hits_without_execution() {
        static EXECUTIONS: AtomicUsize = AtomicUsize::new(0);
        let cache = RunCache::with_runner(|_| {
            EXECUTIONS.fetch_add(1, Ordering::SeqCst);
            dummy_outcome()
        });
        let key = RunKey::audited(StrategyKind::Clean, 4);
        assert!(cache.insert_ready(key, execute_run(key)));
        assert!(!cache.insert_ready(key, execute_run(key)), "key occupied");
        let outcome = cache.get_or_run(key);
        assert_eq!(EXECUTIONS.load(Ordering::SeqCst), 0, "served warm");
        assert!(outcome.is_complete());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_ready_respects_capacity() {
        let cache = RunCache::with_capacity(Some(2));
        for d in 1..=4 {
            let key = RunKey::fast(StrategyKind::Flood, d);
            assert!(cache.insert_ready(key, execute_run(key)));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn insert_listener_fires_on_computed_inserts_only() {
        let seen = Arc::new(Mutex::new(Vec::<RunKey>::new()));
        let cache = RunCache::with_runner(|_| dummy_outcome());
        let sink = Arc::clone(&seen);
        cache.set_insert_listener(Arc::new(move |key, _outcome| {
            sink.lock().unwrap().push(key);
        }));
        let warm = RunKey::fast(StrategyKind::Clean, 2);
        cache.insert_ready(warm, dummy_outcome());
        assert!(seen.lock().unwrap().is_empty(), "warm loads must not fire");
        let computed = RunKey::fast(StrategyKind::Clean, 3);
        cache.get_or_run(computed);
        cache.get_or_run(computed); // hit: no second event
        assert_eq!(seen.lock().unwrap().as_slice(), [computed]);
    }

    #[test]
    fn entries_snapshot_returns_ready_entries() {
        let cache = RunCache::with_runner(|_| dummy_outcome());
        let a = RunKey::fast(StrategyKind::Clean, 2);
        let b = RunKey::audited(StrategyKind::Flood, 3);
        cache.get_or_run(a);
        cache.get_or_run(b);
        let mut keys: Vec<_> = cache
            .entries_snapshot()
            .into_iter()
            .map(|(k, _)| k.label())
            .collect();
        keys.sort();
        assert_eq!(keys, ["clean/d2/fast", "flood/d3/audited"]);
    }

    #[test]
    fn timings_record_every_unique_run() {
        let cache = RunCache::with_runner(|_| dummy_outcome());
        for d in 1..=4 {
            cache.get_or_run(RunKey::fast(StrategyKind::Cloning, d));
        }
        cache.get_or_run(RunKey::fast(StrategyKind::Cloning, 1));
        let timings = cache.timings();
        assert_eq!(timings.len(), 4);
        assert!(cache.total_run_time() >= timings[0].elapsed);
    }

    fn sharded(shards: usize, capacity: Option<usize>) -> RunCache {
        RunCache::with_runner_capacity_and_telemetry(
            shards,
            |_| dummy_outcome(),
            capacity,
            &MetricsRegistry::new(),
        )
    }

    /// Keys of three strategies across many dims, a representative request
    /// mix.
    fn keys(n: u32) -> Vec<RunKey> {
        (1..=n)
            .flat_map(|d| {
                [
                    RunKey::fast(StrategyKind::Clean, d),
                    RunKey::audited(StrategyKind::Visibility, d),
                    RunKey::audited(StrategyKind::Cloning, d),
                ]
            })
            .collect()
    }

    /// Outcomes resident in shard `i`.
    fn shard_len(cache: &RunCache, i: usize) -> usize {
        ready_count(&recover(&cache.shards[i].state))
    }

    #[test]
    fn shard_count_validation_bounds() {
        assert!(validate_cache_shards(0).is_err());
        assert_eq!(validate_cache_shards(1), Ok(1));
        assert_eq!(
            validate_cache_shards(MAX_CACHE_SHARDS),
            Ok(MAX_CACHE_SHARDS)
        );
        assert!(validate_cache_shards(MAX_CACHE_SHARDS + 1).is_err());
    }

    #[test]
    fn keys_spread_across_shards_and_routing_is_stable() {
        let cache = sharded(8, None);
        let keys = keys(20);
        let mut seen = vec![0usize; cache.shard_count()];
        for key in &keys {
            let idx = cache.shard_index(key);
            assert_eq!(idx, cache.shard_index(key), "routing must be stable");
            seen[idx] += 1;
        }
        let populated = seen.iter().filter(|&&c| c > 0).count();
        assert!(
            populated >= cache.shard_count() / 2,
            "60 keys landed on only {populated}/8 shards: {seen:?}"
        );
    }

    /// Pins the routing (`DefaultHasher` over the key, modulo the shard
    /// count) and the capacity split on churn's audit keyspace: the
    /// benchmark's recompute work per pass depends on exactly which keys
    /// share a shard.
    #[test]
    fn churn_audit_keys_route_and_miss_as_pinned() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let cache = ShardedRunCache::with_runner_capacity_and_telemetry(
            8,
            |_| {
                RUNS.fetch_add(1, Ordering::SeqCst);
                dummy_outcome()
            },
            Some(16),
            &MetricsRegistry::new(),
        );
        let keys: Vec<RunKey> = StrategyKind::ALL
            .into_iter()
            .flat_map(|kind| (11..=13).map(move |d| RunKey::audited(kind, d)))
            .collect();
        let shards: Vec<usize> = keys.iter().map(|key| cache.shard_index(key)).collect();
        assert_eq!(
            shards,
            [5, 0, 7, 6, 4, 1, 7, 5, 4, 0, 7, 7, 4, 1, 7, 0, 6, 5, 0, 0, 2, 1, 0, 0]
        );
        let mut misses = Vec::new();
        for _ in 0..4 {
            let before = RUNS.load(Ordering::SeqCst);
            for key in &keys {
                cache.get_or_run(*key);
            }
            misses.push(RUNS.load(Ordering::SeqCst) - before);
        }
        assert_eq!(misses, [24, 21, 21, 21]);
        assert_eq!(cache.misses(), 87);
    }

    #[test]
    fn aggregate_accounting_matches_single_cache_semantics() {
        let registry = MetricsRegistry::new();
        let cache =
            RunCache::with_runner_capacity_and_telemetry(4, |_| dummy_outcome(), None, &registry);
        let keys = keys(10);
        for key in &keys {
            cache.get_or_run(*key);
        }
        for key in &keys {
            cache.get_or_run(*key);
        }
        assert_eq!(cache.misses(), keys.len() as u64);
        assert_eq!(cache.hits(), keys.len() as u64);
        assert_eq!(cache.len(), keys.len());
        assert_eq!(cache.unique_runs(), keys.len());
        // The registry's cells hold the aggregates directly (this is what
        // keeps the daemon's `cache.*` series meaningful), and the
        // delta-maintained entries gauge agrees with `len()`.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("cache.misses"), Some(keys.len() as u64));
        assert_eq!(snap.counter("cache.hits"), Some(keys.len() as u64));
        assert_eq!(snap.gauge("cache.entries"), Some(keys.len() as i64));
        // Per-shard request counters cover every request exactly once.
        let requests: u64 = (0..cache.shard_count())
            .map(|i| {
                snap.counter(&format!("cache.shard{i}.requests"))
                    .expect("every shard registers its request counter")
            })
            .sum();
        assert_eq!(requests, 2 * keys.len() as u64);
    }

    #[test]
    fn eviction_is_per_shard_lru() {
        let cache = sharded(2, Some(2));
        // Find three keys owned by the same shard, so its 1-entry slice
        // (2 total / 2 shards) must evict.
        let owned: Vec<RunKey> = keys(20)
            .into_iter()
            .filter(|k| cache.shard_index(k) == 0)
            .take(3)
            .collect();
        assert_eq!(owned.len(), 3, "need three keys on shard 0");
        assert_eq!(cache.capacity(), Some(2));
        for key in &owned {
            cache.get_or_run(*key);
        }
        // Shard 0 holds one entry; the other shard was never touched.
        assert_eq!(cache.evictions(), 2);
        assert_eq!(shard_len(&cache, 0), 1);
        assert_eq!(shard_len(&cache, 1), 0);
        // The survivor is the most recently used key.
        cache.get_or_run(owned[2]);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn capacity_resplits_across_shards() {
        let cache = sharded(3, Some(7));
        let caps: Vec<_> = cache
            .shards
            .iter()
            .map(|shard| recover(&shard.state).capacity)
            .collect();
        assert_eq!(caps, vec![Some(3), Some(2), Some(2)]);
        cache.set_capacity(None);
        assert_eq!(cache.capacity(), None);
        cache.set_capacity(Some(3));
        assert_eq!(cache.capacity(), Some(3));
    }

    #[test]
    fn warm_inserts_route_to_owning_shards_and_listener_fans_out() {
        let cache = sharded(4, None);
        let seen = Arc::new(Mutex::new(Vec::<RunKey>::new()));
        let sink = Arc::clone(&seen);
        cache.set_insert_listener(Arc::new(move |key, _| {
            sink.lock().unwrap().push(key);
        }));
        // Warm inserts land on the owning shard and never fire the listener.
        let warm = keys(6);
        for key in &warm {
            assert!(cache.insert_ready(*key, dummy_outcome()));
            assert!(shard_len(&cache, cache.shard_index(key)) > 0);
        }
        assert!(seen.lock().unwrap().is_empty());
        assert_eq!(cache.len(), warm.len());
        // Warm entries serve as hits; a fresh key computes and fires.
        cache.get_or_run(warm[0]);
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        let fresh = RunKey::fast(StrategyKind::Synchronous, 9);
        cache.get_or_run(fresh);
        assert_eq!(seen.lock().unwrap().as_slice(), [fresh]);
        // The snapshot covers every shard.
        assert_eq!(cache.entries_snapshot().len(), warm.len() + 1);
    }

    #[test]
    fn concurrent_mixed_shard_traffic_dedupes_per_key() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let cache = Arc::new(RunCache::with_runner_capacity_and_telemetry(
            8,
            |_| {
                RUNS.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                dummy_outcome()
            },
            None,
            &MetricsRegistry::new(),
        ));
        let keys = keys(8);
        std::thread::scope(|scope| {
            for _ in 0..6 {
                let cache = Arc::clone(&cache);
                let keys = keys.clone();
                scope.spawn(move || {
                    for key in &keys {
                        cache.get_or_run(*key);
                    }
                });
            }
        });
        assert_eq!(
            RUNS.load(Ordering::SeqCst),
            keys.len(),
            "each unique key must execute exactly once across shards"
        );
        assert_eq!(cache.misses(), keys.len() as u64);
        assert_eq!(cache.hits(), 5 * keys.len() as u64);
    }
}
