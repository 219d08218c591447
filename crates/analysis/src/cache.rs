//! Memoized strategy runs shared across experiments and daemon requests.
//!
//! Several experiments execute the *same* strategy run: T2, T3, E11 and E13
//! all trace Algorithm CLEAN's fast path over the fast dimensions; T7 and
//! T10 both run the visibility strategy on the synchronous engine; and so
//! on. A [`RunCache`] keys every engine/fast execution by
//! [`RunKey`] and guarantees each unique configuration executes exactly
//! once per harness invocation, no matter how many experiments request it
//! or from how many worker threads. The daemon serves its `audit` replies
//! from one too, and keeps each reply's serialized line on the entry it
//! was rendered from ([`RunCache::line_if_ready`]).
//!
//! The cache is hash-partitioned on the full key `(strategy, dim, exec)`:
//! each shard has its own lock, condvar, eviction state and slice of the
//! capacity, so concurrent requests for different configurations do not
//! contend on one lock. Everything else is shared: one set of `cache.*`
//! series (plus a `cache.shard<i>.requests` counter per shard, so skew is
//! observable), one timings log, one runner and one insert listener.
//! `report` builds one shard; the daemon builds `--cache-shards` of them.
//!
//! A capped shard evicts by GreedyDual (N. Young, 1994; Cao and Irani's
//! cost-aware proxy caching, 1997), because its entries differ in what
//! they cost to recompute: an audit costs its trace's event count, which
//! the paper's theorems fix per strategy (CLEAN's `O(n log n)` moves
//! against the cloning variant's `n − 1`). Each shard keeps an inflation
//! value `L`. An entry's credit becomes `L` plus its recompute cost (its
//! activations plus its team size) whenever it is inserted or hit. The
//! shard evicts the entry with the lowest credit (the least recently used
//! among equals), never the entry it just inserted, and sets `L` to that
//! credit. So a cheap key cannot push out an expensive one until `L` has
//! risen past the expensive key's credit, and when every cost is equal
//! the rule evicts exactly as LRU does. Costs are counts, never clock
//! readings, so a request sequence misses the same way on every run.
//!
//! Strategy runs are deterministic per key (random adversaries are seeded),
//! so a cached [`SearchOutcome`] is indistinguishable from a fresh one and
//! exported JSON is unaffected by caching or execution order.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use hypersweep_baselines::{FloodStrategy, FrontierStrategy};
use hypersweep_core::{
    CleanStrategy, CloningStrategy, DispatchOrder, NavigationMode, SearchOutcome, SearchStrategy,
    SynchronousStrategy, VisibilityStrategy,
};
use hypersweep_sim::Policy;
use hypersweep_telemetry::{Counter, Gauge, Histogram, MetricsRegistry};
use hypersweep_topology::Hypercube;

use crate::pool::recover;

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

    /// Inverse of [`StrategyKind::label`]: the wire's, the CLI's and
    /// persisted cache records' strategy names.
    pub fn from_label(label: &str) -> Option<StrategyKind> {
        StrategyKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// The strategy this kind names, on `cube`.
    pub fn strategy(self, cube: Hypercube) -> Box<dyn SearchStrategy> {
        match self {
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
            StrategyKind::Frontier => Box::new(FrontierStrategy::new(cube)),
        }
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
    let strategy = key.strategy.strategy(Hypercube::new(key.dim));
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
    /// Computed.
    Ready(Ready),
}

/// A computed entry: the outcome, the reply line rendered from it once
/// someone asked for one ([`RunCache::line_if_ready`]), and its eviction
/// rank.
struct Ready {
    outcome: Arc<SearchOutcome>,
    line: Option<Arc<str>>,
    /// GreedyDual credit: the shard's inflation at the entry's last insert
    /// or hit, plus its [`recompute_cost`].
    credit: u64,
    /// Access stamp; among equal credits the older entry goes first.
    last_used: u64,
}

/// What recomputing `outcome` costs, in the units eviction compares: its
/// activations plus its team size, about its trace's event count. Every
/// outcome and every persisted record carries both, so a warm-loaded
/// entry ranks as its computed twin does. Saturates rather than wraps on
/// a hostile record.
fn recompute_cost(outcome: &SearchOutcome) -> u64 {
    outcome
        .metrics
        .activations
        .saturating_add(outcome.metrics.team_size)
}

/// What one capacity pass dropped.
#[derive(Default)]
struct Evicted {
    entries: u64,
    /// The dropped entries' summed [`recompute_cost`] (saturating).
    work: u64,
}

/// One shard's map plus its eviction state, guarded by the shard's mutex.
struct CacheState {
    entries: HashMap<RunKey, Entry>,
    /// Monotonic access counter driving `last_used`.
    tick: u64,
    /// GreedyDual's inflation `L`: the credit of the last entry evicted.
    /// Credits are set from it, so an entry nobody asks for again falls
    /// behind the ones renewed after it.
    inflation: u64,
    /// Maximum number of `Ready` entries kept; `None` = unbounded.
    capacity: Option<usize>,
}

impl CacheState {
    /// The entry for `key` when it is `Ready`, its credit renewed as a hit
    /// renews it.
    fn touch(&mut self, key: &RunKey) -> Option<&mut Ready> {
        let Some(Entry::Ready(ready)) = self.entries.get_mut(key) else {
            return None;
        };
        self.tick += 1;
        ready.last_used = self.tick;
        ready.credit = self
            .inflation
            .saturating_add(recompute_cost(&ready.outcome));
        Some(ready)
    }

    /// Hold `outcome` as `key`'s `Ready` entry (replacing its `InFlight`
    /// marker, if any), with no line rendered yet and a fresh credit, then
    /// evict down to the capacity.
    fn admit(&mut self, key: RunKey, outcome: Arc<SearchOutcome>) -> Evicted {
        self.tick += 1;
        let ready = Ready {
            credit: self.inflation.saturating_add(recompute_cost(&outcome)),
            outcome,
            line: None,
            last_used: self.tick,
        };
        self.entries.insert(key, Entry::Ready(ready));
        self.enforce_capacity(Some(key))
    }

    /// Evict the `Ready` entry of lowest `(credit, last_used)` until the
    /// bound holds, raising the inflation to each victim's credit.
    /// `admitted`, the entry just inserted, goes last: only a shard that
    /// keeps nothing evicts it. In-flight entries are never evicted
    /// (someone is waiting on them). Stamps are unique within a shard, so
    /// the victim never depends on the map's iteration order.
    fn enforce_capacity(&mut self, admitted: Option<RunKey>) -> Evicted {
        let mut evicted = Evicted::default();
        let Some(cap) = self.capacity else {
            return evicted;
        };
        while ready_count(self) > cap {
            let victim = self
                .entries
                .iter()
                .filter_map(|(k, e)| match e {
                    Entry::Ready(r) => Some(((Some(*k) == admitted, r.credit, r.last_used), *k)),
                    Entry::InFlight => None,
                })
                .min_by_key(|(rank, _)| *rank)
                .map(|(_, k)| k);
            let Some(Entry::Ready(victim)) = victim.and_then(|k| self.entries.remove(&k)) else {
                break;
            };
            self.inflation = victim.credit;
            evicted.entries += 1;
            evicted.work = evicted.work.saturating_add(recompute_cost(&victim.outcome));
        }
        evicted
    }
}

/// One hash partition of a [`RunCache`]: its own lock, wake-up, eviction
/// state and capacity slice, so requests for keys on different shards
/// never contend.
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

/// Live cache counters; these *are* the accounting (the accessors read
/// them back), registered either in a caller-provided registry so a daemon
/// sees them in its snapshots, or in a private one.
struct CacheMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    /// The evicted entries' summed recompute cost.
    evicted_work: Counter,
    entries: Gauge,
    run_us: Histogram,
}

impl CacheMetrics {
    fn resolve(registry: &MetricsRegistry) -> Self {
        CacheMetrics {
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            evictions: registry.counter("cache.evictions"),
            evicted_work: registry.counter("cache.evicted_work"),
            entries: registry.gauge("cache.entries"),
            run_us: registry.histogram("cache.run_us"),
        }
    }

    /// Account for `added` new `Ready` entries in one shard and the
    /// `evicted` ones its capacity pass then dropped. The entries gauge
    /// moves by deltas, not `set(len)`: each shard updates it under its
    /// own lock, and deltas keep the one cell the total across all of them.
    fn note_ready(&self, added: i64, evicted: Evicted) {
        self.evictions.add(evicted.entries);
        self.evicted_work.add(evicted.work);
        self.entries.add(added - evicted.entries as i64);
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
/// An optional capacity bounds the number of retained outcomes, each
/// shard evicting by GreedyDual (see the module docs: the entry cheapest
/// to recompute, aged by an inflation value, goes first), so a
/// long-running server stays in bounded memory (an evicted key simply
/// re-executes on its next request).
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
                    inflation: 0,
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
            self.metrics.note_ready(0, state.enforce_capacity(None));
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
                if let Some(ready) = state.touch(&key) {
                    self.metrics.hits.inc();
                    return Arc::clone(&ready.outcome);
                }
                if matches!(state.entries.get(&key), Some(Entry::InFlight)) {
                    // Another thread is computing it: wait for its insert.
                    state = shard
                        .ready
                        .wait(state)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                } else {
                    state.entries.insert(key, Entry::InFlight);
                    self.metrics.misses.inc();
                    break;
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
        // The insert replaces this key's `InFlight` marker with one `Ready`
        // entry.
        let evicted = state.admit(key, Arc::clone(&outcome));
        self.metrics.note_ready(1, evicted);
        drop(state);
        shard.ready.notify_all();
        let listener = recover(&self.insert_listener).clone();
        if let Some(listener) = listener {
            listener(key, &outcome);
        }
        outcome
    }

    /// The reply line stored with `key`'s outcome if the outcome is
    /// already computed, without blocking or executing anything. The
    /// entry's first call renders the line from the outcome with `render`
    /// and stores it; later calls return the stored line. Eviction drops
    /// the line with its outcome, so the capacity bounds lines exactly as
    /// it bounds outcomes, and a recomputed entry renders afresh. A
    /// returned line counts exactly what a [`RunCache::get_or_run`] hit
    /// counts (`cache.hits`, the shard's `requests` counter and the
    /// entry's renewed eviction credit); an absent or in-flight key counts
    /// nothing and yields `None`.
    ///
    /// The cache keeps one line per entry and does not know what it
    /// encodes, so a caller must render a key the same way every time.
    pub fn line_if_ready(
        &self,
        key: RunKey,
        render: impl FnOnce(&SearchOutcome) -> String,
    ) -> Option<Arc<str>> {
        let shard = self.shard(&key);
        let line = {
            let mut state = recover(&shard.state);
            let Ready { outcome, line, .. } = state.touch(&key)?;
            Arc::clone(line.get_or_insert_with(|| render(outcome).into()))
        };
        shard.requests.inc();
        self.metrics.hits.inc();
        Some(line)
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
        let evicted = state.admit(key, Arc::new(outcome));
        self.metrics.note_ready(1, evicted);
        true
    }

    /// Every computed entry currently held, unordered. Touches no
    /// eviction state — snapshotting for compaction must not perturb
    /// eviction order.
    pub fn entries_snapshot(&self) -> Vec<(RunKey, Arc<SearchOutcome>)> {
        let mut snapshot = Vec::new();
        for shard in &self.shards {
            snapshot.extend(
                recover(&shard.state)
                    .entries
                    .iter()
                    .filter_map(|(k, e)| match e {
                        Entry::Ready(ready) => Some((*k, Arc::clone(&ready.outcome))),
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

    /// Outcomes dropped by the capacity bound (the live `cache.evictions`
    /// counter).
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
        .filter(|e| matches!(e, Entry::Ready(_)))
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

    /// The line a test renders for an outcome: its worker-move count.
    fn moves_line(outcome: &SearchOutcome) -> String {
        format!("moves={}", outcome.metrics.worker_moves)
    }

    /// `line_if_ready` counts a hit exactly as `get_or_run` does and counts
    /// nothing on an absent or in-flight key.
    #[test]
    fn line_if_ready_counts_hits_only() {
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let registry = MetricsRegistry::new();
        let cache = Arc::new(RunCache::with_runner_capacity_and_telemetry(
            1,
            move |_| {
                gate.lock().unwrap().recv().ok();
                dummy_outcome()
            },
            Some(2),
            &registry,
        ));
        let key = RunKey::audited(StrategyKind::Clean, 4);
        let requests = || registry.snapshot().counter("cache.shard0.requests");
        assert!(cache.line_if_ready(key, moves_line).is_none());
        assert_eq!((cache.hits(), cache.misses(), requests()), (0, 0, Some(0)));

        // In flight: still `None`, still uncounted.
        let runner = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.get_or_run(key))
        };
        while cache.misses() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(cache.line_if_ready(key, moves_line).is_none());
        assert_eq!((cache.hits(), requests()), (0, Some(1)));
        release.send(()).unwrap();
        let computed = runner.join().unwrap();

        // Ready: the line of the computed outcome, counted as a hit on the
        // owning shard.
        let hit = cache.line_if_ready(key, moves_line).expect("computed");
        assert_eq!(*hit, moves_line(&computed));
        assert_eq!((cache.hits(), cache.misses(), requests()), (1, 1, Some(2)));

        // The hit renewed the key's credit: every outcome here costs the
        // same, so filling the 2-entry cache evicts the other, least
        // recently used key, not this one.
        let other = RunKey::audited(StrategyKind::Clean, 5);
        assert!(cache.insert_ready(other, dummy_outcome()));
        assert!(cache.line_if_ready(key, moves_line).is_some());
        assert!(cache.insert_ready(RunKey::audited(StrategyKind::Clean, 6), dummy_outcome()));
        assert!(
            cache.line_if_ready(key, moves_line).is_some(),
            "recently used key kept"
        );
        assert!(
            cache.line_if_ready(other, moves_line).is_none(),
            "LRU key evicted"
        );
    }

    /// A line renders once per entry lifetime: hits after the first return
    /// the stored line, and an evicted entry renders again once it is
    /// recomputed (or warm-loaded).
    #[test]
    fn lines_render_once_per_entry_lifetime() {
        static RENDERS: AtomicUsize = AtomicUsize::new(0);
        let counted = |outcome: &SearchOutcome| {
            RENDERS.fetch_add(1, Ordering::SeqCst);
            moves_line(outcome)
        };
        let cache = RunCache::with_capacity(Some(1));
        let a = RunKey::audited(StrategyKind::Visibility, 3);
        let b = RunKey::audited(StrategyKind::Cloning, 3);
        let first = cache.get_or_run(a);
        let line = cache.line_if_ready(a, counted).expect("computed");
        assert_eq!(*line, moves_line(&first));
        for _ in 0..3 {
            let again = cache.line_if_ready(a, counted).expect("resident");
            assert!(Arc::ptr_eq(&again, &line), "a hit returns the stored line");
        }
        // A hit through `get_or_run` neither renders nor drops the line.
        cache.get_or_run(a);
        let kept = cache.line_if_ready(a, counted).expect("resident");
        assert!(Arc::ptr_eq(&kept, &line));
        assert_eq!(RENDERS.load(Ordering::SeqCst), 1);

        // Evicting `a` drops its line; the recomputed entry renders anew,
        // to the same bytes.
        cache.get_or_run(b);
        assert!(cache.line_if_ready(a, counted).is_none(), "evicted");
        cache.get_or_run(a);
        assert_eq!(cache.misses(), 3);
        let rerendered = cache.line_if_ready(a, counted).expect("recomputed");
        assert!(!Arc::ptr_eq(&rerendered, &line));
        assert_eq!(rerendered, line);
        cache.line_if_ready(a, counted);
        assert_eq!(RENDERS.load(Ordering::SeqCst), 2);

        // A warm-loaded entry renders on its first hit too.
        assert!(cache.insert_ready(b, execute_run(b)));
        cache.line_if_ready(b, counted).expect("warm");
        cache.line_if_ready(b, counted).expect("warm");
        assert_eq!(RENDERS.load(Ordering::SeqCst), 3);
        assert_eq!(cache.evictions(), 3);
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

    /// An outcome that costs `cost` to recompute: `cost` activations and
    /// no team.
    fn costing(cost: u64) -> SearchOutcome {
        let mut outcome = dummy_outcome();
        outcome.metrics.activations = cost;
        outcome.metrics.team_size = 0;
        outcome
    }

    /// Whether `key` is resident, without touching it.
    fn is_resident(cache: &RunCache, key: &RunKey) -> bool {
        let state = recover(&cache.shard(key).state);
        matches!(state.entries.get(key), Some(Entry::Ready(_)))
    }

    /// The cheap keys the next two tests cycle through, and their
    /// expensive neighbour (which the runners pick out by its dimension).
    fn cheap(i: u32) -> RunKey {
        RunKey::audited(StrategyKind::Cloning, 1 + i % 3)
    }
    const EXPENSIVE: RunKey = RunKey {
        strategy: StrategyKind::Clean,
        dim: 9,
        exec: Exec::Audited,
    };

    #[test]
    fn cheap_keys_do_not_evict_an_expensive_resident() {
        let cache = RunCache::with_runner(|key| costing(if key.dim == 9 { 1_000 } else { 1 }));
        cache.set_capacity(Some(2));
        cache.get_or_run(EXPENSIVE);
        // Thirty cheap misses in a cycle of three: each evicts the other
        // cheap resident, which LRU would have spared for the older,
        // expensive one.
        for i in 0..30 {
            cache.get_or_run(cheap(i));
        }
        assert_eq!((cache.misses(), cache.evictions()), (31, 29));
        cache.get_or_run(EXPENSIVE);
        assert_eq!(cache.hits(), 1, "the expensive resident was kept");
    }

    #[test]
    fn an_expensive_key_never_asked_again_goes_once_inflation_reaches_its_credit() {
        let cache = RunCache::with_runner(|key| costing(if key.dim == 9 { 50 } else { 1 }));
        cache.set_capacity(Some(2));
        cache.get_or_run(EXPENSIVE);
        let inflation = || recover(&cache.shards[0].state).inflation;
        let mut i = 0;
        while is_resident(&cache, &EXPENSIVE) {
            assert!(inflation() < 50, "a cheap victim's credit reached 50");
            cache.get_or_run(cheap(i));
            i += 1;
            assert!(i < 1_000, "the expensive key was never evicted");
        }
        // Each cheap victim raised the inflation by at most one, so the
        // expensive key outlived dozens of them, and its own credit became
        // the inflation when it went.
        assert!(i > 50, "evicted after only {i} cheap requests");
        assert_eq!(inflation(), 50);
        assert_eq!(
            recover(&cache.shards[0].state).entries.len(),
            2,
            "the cheap key that pushed it out is resident"
        );
        cache.get_or_run(EXPENSIVE);
        assert_eq!(cache.hits(), 0, "an evicted key recomputes");
    }

    #[test]
    fn zero_capacity_shard_keeps_nothing() {
        // One entry split over two shards leaves shard 1 keeping none.
        let cache = sharded(2, Some(1));
        let (kept, empty): (Vec<RunKey>, Vec<RunKey>) = keys(20)
            .into_iter()
            .partition(|k| cache.shard_index(k) == 0);
        cache.get_or_run(empty[0]);
        cache.get_or_run(empty[0]);
        assert_eq!((cache.misses(), cache.evictions()), (2, 2));
        assert!(cache.insert_ready(empty[1], dummy_outcome()));
        assert!(cache.line_if_ready(empty[1], moves_line).is_none());
        assert_eq!(shard_len(&cache, 1), 0);
        assert_eq!(cache.evictions(), 3);
        // Shard 0 keeps its one entry.
        cache.get_or_run(kept[0]);
        cache.get_or_run(kept[0]);
        assert_eq!((cache.hits(), cache.len()), (1, 1));
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
