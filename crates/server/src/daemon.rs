//! The daemon: bind, serve through the reactor, drain gracefully.
//!
//! Serving is event-driven: one reactor thread (see [`crate::reactor`])
//! multiplexes every connection over non-blocking sockets — TCP plus an
//! optional Unix-domain socket ([`ServerLimits::uds_path`]) — with
//! request pipelining and in-order replies. Every request that needs no
//! computation resolves inline: `plan`/`predict` from the answer table,
//! and audits and scenario references from their memos, each as a line
//! serialized on its entry's first request.
//! Only computations run on a bounded [`WorkerPool`] — a full queue turns
//! into an immediate `busy` error, and a slow run turns into a `timeout`
//! error after [`ServerLimits::request_timeout`] (the run itself still
//! completes and warms the cache). Audits deduplicate through one
//! [`RunCache`], hash-partitioned on the run key into
//! [`ServerLimits::cache_shards`] shards.
//!
//! Shutdown is cooperative: a SIGINT (when [`install_sigint_handler`] is
//! active) or a `shutdown` request raises one flag; the reactor stops
//! accepting, unlinks the Unix socket, finishes or times out pooled
//! computations, flushes every reply, the pool drains, and a final
//! status line is emitted.

use std::fs::File;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypersweep_analysis::{CacheStore, PersistAppender, RunCache, WorkerPool};
use hypersweep_telemetry::{log_line, Histogram, MetricsRegistry};

use crate::dispatch::Dispatcher;
use crate::limits::ServerLimits;
use crate::protocol::{MetricsReply, Request, Response, StatusReply};
use crate::reactor::Reactor;

/// How long the exporter sleeps between shutdown-flag checks.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The final status snapshot [`Server::run`] returns after draining.
pub type ServerStats = StatusReply;

/// SIGINT/SIGTERM handling without a libc dependency: registers a handler
/// that flips one atomic the reactor polls. SIGTERM is what `hypersweep
/// daemon stop` sends, so a managed daemon drains exactly like a Ctrl-C'd
/// foreground one.
#[allow(unsafe_code)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SEEN: AtomicBool = AtomicBool::new(false);
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        SEEN.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        unsafe {
            signal(SIGINT, on_sigint);
            signal(SIGTERM, on_sigint);
        }
    }

    pub(super) fn seen() -> bool {
        SEEN.load(Ordering::SeqCst)
    }
}

/// Route SIGINT and SIGTERM into a graceful drain instead of process
/// death. Called by the CLI before [`Server::run`]; tests skip it and use
/// [`Server::shutdown_flag`] instead.
pub fn install_sigint_handler() {
    sigint::install();
}

/// Whether a SIGINT arrived (reactor drain trigger).
pub(crate) fn sigint_seen() -> bool {
    sigint::seen()
}

/// Per-request-kind latency histograms (`server.latency.<kind>_us`),
/// resolved once at bind so the per-request cost is one `Instant` pair and
/// one lock-free record. Disabled telemetry makes every record a no-op.
pub(crate) struct LatencyMetrics {
    pub(crate) plan: Histogram,
    pub(crate) predict: Histogram,
    pub(crate) audit: Histogram,
    pub(crate) status: Histogram,
    pub(crate) metrics: Histogram,
}

impl LatencyMetrics {
    /// The histogram of a compute request's kind (`plan`, `predict` or
    /// `audit`, scenario forms included).
    pub(crate) fn of(&self, request: &Request) -> &Histogram {
        match request {
            Request::Plan { .. } | Request::ScenarioPlan { .. } => &self.plan,
            Request::Predict { .. } | Request::ScenarioPredict { .. } => &self.predict,
            _ => &self.audit,
        }
    }

    fn resolve(registry: &MetricsRegistry) -> Self {
        LatencyMetrics {
            plan: registry.histogram("server.latency.plan_us"),
            predict: registry.histogram("server.latency.predict_us"),
            audit: registry.histogram("server.latency.audit_us"),
            status: registry.histogram("server.latency.status_us"),
            metrics: registry.histogram("server.latency.metrics_us"),
        }
    }
}

/// Everything the reactor and its pool jobs share.
pub(crate) struct Shared {
    pub(crate) dispatcher: Dispatcher,
    pub(crate) pool: WorkerPool,
    pub(crate) limits: ServerLimits,
    pub(crate) latency: LatencyMetrics,
    pub(crate) shutdown: AtomicBool,
    started: Instant,
}

impl Shared {
    fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    pub(crate) fn status(&self) -> StatusReply {
        self.dispatcher.status_reply(
            self.uptime_ms(),
            self.pool.in_flight() as u64,
            self.pool.workers() as u64,
        )
    }

    pub(crate) fn metrics(&self) -> MetricsReply {
        self.dispatcher
            .metrics_reply(self.uptime_ms(), self.limits.telemetry)
    }

    /// A snapshot for the file exporter: identical shape to a `metrics`
    /// reply but not counted as a served request, so exporter ticks never
    /// inflate `served.metrics`.
    fn export(&self) -> MetricsReply {
        self.dispatcher
            .export_reply(self.uptime_ms(), self.limits.telemetry)
    }
}

/// The cache persistence pipeline, alive for the daemon's lifetime:
/// warm-loaded at bind, appending computed inserts while serving, and
/// flushed + compacted at graceful drain.
struct Persist {
    store: CacheStore,
    appender: PersistAppender,
    cache: Arc<RunCache>,
}

/// The daemon: bind, then [`Server::run`] until shutdown.
pub struct Server {
    listener: TcpListener,
    uds: Option<UnixListener>,
    shared: Arc<Shared>,
    persist: Option<Persist>,
}

impl Server {
    /// Bind `addr` with a fresh run cache ([`ServerLimits::cache_shards`]
    /// shards splitting [`ServerLimits::cache_capacity`]), accounting into
    /// the daemon's own telemetry registry (one unmerged snapshot serves
    /// `metrics`).
    pub fn bind(addr: impl ToSocketAddrs, limits: ServerLimits) -> io::Result<Server> {
        let registry = Self::registry_for(&limits);
        let cache = Arc::new(RunCache::with_capacity_and_telemetry(
            limits.cache_shards,
            limits.cache_capacity,
            &registry,
        ));
        Self::build(addr, limits, cache, registry)
    }

    /// Bind `addr` serving from a caller-provided cache (tests inject slow
    /// or pre-warmed runners this way), with the shards it was built with.
    /// The cache keeps its own registry; `metrics` replies merge it into
    /// the daemon's snapshot.
    pub fn with_cache(
        addr: impl ToSocketAddrs,
        limits: ServerLimits,
        cache: Arc<RunCache>,
    ) -> io::Result<Server> {
        let registry = Self::registry_for(&limits);
        Self::build(addr, limits, cache, registry)
    }

    fn registry_for(limits: &ServerLimits) -> MetricsRegistry {
        if limits.telemetry {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        }
    }

    fn build(
        addr: impl ToSocketAddrs,
        limits: ServerLimits,
        cache: Arc<RunCache>,
        registry: MetricsRegistry,
    ) -> io::Result<Server> {
        cache.set_capacity(limits.cache_capacity);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let uds = match &limits.uds_path {
            Some(path) => Some(bind_uds(path)?),
            None => None,
        };
        if limits.telemetry {
            // Streamed audits meter their event flow through the process
            // global (`sink.events`); point it at this daemon's registry.
            hypersweep_telemetry::install_global(&registry);
        }
        let persist = match &limits.persist_path {
            Some(path) => {
                let store = CacheStore::new(path);
                let stats = store.warm_load(&cache, &registry)?;
                log_line(&format!(
                    "cache: warm-loaded {} records from {} ({} skipped, {} duplicate)",
                    stats.loaded,
                    path.display(),
                    stats.skipped,
                    stats.duplicates,
                ));
                let appender = store.appender(&registry)?;
                cache.set_insert_listener(appender.listener());
                Some(Persist {
                    store,
                    appender,
                    cache: Arc::clone(&cache),
                })
            }
            None => None,
        };
        Ok(Server {
            listener,
            uds,
            persist,
            shared: Arc::new(Shared {
                dispatcher: Dispatcher::with_sharded(cache, limits.max_dim, &registry),
                pool: WorkerPool::with_telemetry(limits.workers, limits.queue_capacity, &registry),
                latency: LatencyMetrics::resolve(&registry),
                limits,
                shutdown: AtomicBool::new(false),
                started: Instant::now(),
            }),
        })
    }

    /// The bound TCP address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes [`Server::run`] drain and return when raised.
    pub fn shutdown_flag(&self) -> Arc<impl Fn() + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || shared.shutdown.store(true, Ordering::SeqCst))
    }

    /// Serve until SIGINT or a `shutdown` request, then drain in-flight
    /// work, join every thread, and return the final stats.
    pub fn run(self) -> io::Result<ServerStats> {
        let Server {
            listener,
            uds,
            shared,
            persist,
        } = self;
        let exporter = match &shared.limits.metrics_file {
            Some(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                let shared = Arc::clone(&shared);
                Some(std::thread::spawn(move || export_metrics(file, &shared)))
            }
            None => None,
        };
        let uds_path = shared.limits.uds_path.clone();
        let reactor = Reactor::new(listener, uds, uds_path, Arc::clone(&shared))?;
        let served = reactor.run();
        // Drain: the reactor has already flushed and closed every
        // connection; finish queued work, then join everything.
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.pool.shutdown();
        if let Some(persist) = persist {
            // Every pool job has completed, so every insert listener has
            // enqueued; flush forces the appender through its queue and
            // fsyncs before the snapshot rewrite.
            persist.appender.flush();
            match persist.store.compact(&persist.cache) {
                Ok(records) => log_line(&format!(
                    "cache: compacted {} records into {}",
                    records,
                    persist.store.path().display()
                )),
                Err(e) => log_line(&format!("cache: compaction failed: {e}")),
            }
        }
        if let Some(handle) = exporter {
            // The exporter notices the flag within one poll interval and
            // appends its final post-drain snapshot before exiting.
            let _ = handle.join();
        }
        served?;
        Ok(shared.status())
    }
}

/// Bind the Unix-domain listener, reclaiming a stale socket file: if the
/// path exists but no daemon accepts on it (a previous process died
/// without unlinking), remove it and bind. A live daemon keeps its
/// socket — that surfaces as `AddrInUse`.
fn bind_uds(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Ok(listener) => Ok(listener),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} is in use by a live daemon", path.display()),
                ));
            }
            std::fs::remove_file(path)?;
            UnixListener::bind(path)
        }
        Err(e) => Err(e),
    }
}

/// The `--metrics-file` exporter loop: append one `metrics` JSON line per
/// interval (each line parses with [`Response::parse`]), plus a final
/// snapshot when the daemon drains. Write failures end the export quietly —
/// observability must never take the serving path down.
fn export_metrics(mut file: File, shared: &Arc<Shared>) {
    let interval = shared.limits.metrics_interval;
    loop {
        let mut waited = Duration::ZERO;
        while waited < interval && !shared.shutdown.load(Ordering::SeqCst) {
            let step = POLL_INTERVAL.min(interval - waited);
            std::thread::sleep(step);
            waited += step;
        }
        let line = Response::Metrics(shared.export()).to_line();
        if writeln!(file, "{line}")
            .and_then(|()| file.flush())
            .is_err()
        {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}
