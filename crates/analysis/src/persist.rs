//! Crash-safe persistence for the run cache: a checksummed JSONL
//! append-log plus warm-load and compaction, so a daemonized server
//! restarts with yesterday's audited answers instead of a cold cache.
//!
//! The store is one record per line, `<fnv64-hex> <payload-json>\n`,
//! modeled on workgraph's one-object-per-line `graph.jsonl`. Three
//! operations cover the daemon's life cycle:
//!
//! - **Append** ([`CacheStore::appender`]): a background thread receives
//!   every *computed* cache insert through the cache's [`InsertListener`],
//!   batches records, and appends them; `fsync` happens on
//!   [`PersistAppender::flush`] (the drain path), not per record, so the
//!   hot path never blocks on disk.
//! - **Warm-load** ([`CacheStore::warm_load`]): on start, every line is
//!   checksum- and schema-validated; valid records are inserted with
//!   [`RunCache::insert_ready`] and corrupt or truncated lines are
//!   *skipped*, never fatal — a `kill -9` mid-append leaves at worst a
//!   half-written tail, and the valid prefix must still serve.
//! - **Compact** ([`CacheStore::compact`]): on graceful drain the resident
//!   entries are rewritten as a sorted snapshot via temp-file + atomic
//!   rename, dropping duplicate and evicted records the append log
//!   accumulated.
//!
//! Only deterministic, violation-free `fast`/`audited` outcomes are
//! persisted: engine runs under an explicit policy are cheap to rerun and
//! their keys embed a policy enum with no stable wire form, and a record
//! with violations would need the full violation list to reconstruct its
//! reply byte-identically. Telemetry: `cache.persist_appends`,
//! `cache.warm_loaded`, `cache.persist_skipped`.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use hypersweep_core::SearchOutcome;
use hypersweep_intruder::{CaptureStatus, Verdict};
use hypersweep_sim::{Metrics, TraceSummary};
use hypersweep_telemetry::MetricsRegistry;
use hypersweep_topology::Node;
use serde::{Deserialize, Serialize};

use crate::cache::{Exec, InsertListener, RunCache, RunKey, StrategyKind};

/// Widest dimension a persisted record may claim. Guards warm-load against
/// a corrupt-but-checksummed record conjuring an absurd key; matches the
/// topology crate's `u32` node-id ceiling.
const PERSIST_MAX_DIM: u32 = 32;

/// Appender queue depth. The producer side (pool workers finishing runs)
/// drops records rather than blocking when the writer falls this far
/// behind — persistence must never backpressure the serving path.
const APPEND_QUEUE: usize = 4096;

/// Records per write batch before the buffer is handed to the OS.
const APPEND_BATCH: usize = 256;

/// FNV-1a 64-bit over the payload bytes. Not cryptographic — it guards
/// against torn writes and bit rot, not adversaries (the state dir is
/// operator-owned).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// `CaptureStatus` with a stable wire form (`Node` stays a bare `u32`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum CaptureRecord {
    /// Still at large on the given node.
    Free {
        /// The node it occupies.
        node: u32,
    },
    /// Captured at an event.
    Captured {
        /// Index of the capturing event.
        at_event: u64,
        /// The last node it occupied.
        node: u32,
    },
}

impl CaptureRecord {
    fn from_status(status: CaptureStatus) -> Self {
        match status {
            CaptureStatus::Free(node) => CaptureRecord::Free { node: node.0 },
            CaptureStatus::Captured { at_event, node } => CaptureRecord::Captured {
                at_event,
                node: node.0,
            },
        }
    }

    fn into_status(self) -> CaptureStatus {
        match self {
            CaptureRecord::Free { node } => CaptureStatus::Free(Node(node)),
            CaptureRecord::Captured { at_event, node } => CaptureStatus::Captured {
                at_event,
                node: Node(node),
            },
        }
    }
}

/// One persisted run: the key plus everything the dispatcher reads when
/// building a reply, so a warm-loaded entry answers byte-identically.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PersistRecord {
    strategy: String,
    dim: u32,
    exec: String,
    metrics: Metrics,
    monotone: bool,
    contiguous: bool,
    all_clean: bool,
    capture: Option<CaptureRecord>,
    events: u64,
    trace: Option<TraceSummary>,
}

/// Encode a cache entry, or `None` for entries the store does not cover
/// (engine runs, outcomes with violations).
fn record_of(key: &RunKey, outcome: &SearchOutcome) -> Option<PersistRecord> {
    let exec = match key.exec {
        Exec::Fast => "fast",
        Exec::Audited => "audited",
        Exec::Engine(_) => return None,
    };
    if !outcome.verdict.violations.is_empty() {
        return None;
    }
    Some(PersistRecord {
        strategy: key.strategy.label().to_string(),
        dim: key.dim,
        exec: exec.to_string(),
        metrics: outcome.metrics,
        monotone: outcome.verdict.monotone,
        contiguous: outcome.verdict.contiguous,
        all_clean: outcome.verdict.all_clean,
        capture: outcome.verdict.capture.map(CaptureRecord::from_status),
        events: outcome.verdict.events,
        trace: outcome.trace_summary,
    })
}

/// Decode a record back into a cache entry, or `None` if any field fails
/// validation (unknown strategy/exec, out-of-range dimension).
fn entry_of(record: PersistRecord) -> Option<(RunKey, SearchOutcome)> {
    let strategy = StrategyKind::from_label(&record.strategy)?;
    let exec = match record.exec.as_str() {
        "fast" => Exec::Fast,
        "audited" => Exec::Audited,
        _ => return None,
    };
    if record.dim == 0 || record.dim > PERSIST_MAX_DIM {
        return None;
    }
    let key = RunKey {
        strategy,
        dim: record.dim,
        exec,
    };
    let outcome = SearchOutcome {
        metrics: record.metrics,
        verdict: Verdict {
            monotone: record.monotone,
            contiguous: record.contiguous,
            all_clean: record.all_clean,
            capture: record.capture.map(CaptureRecord::into_status),
            violations: Vec::new(),
            events: record.events,
        },
        trace_summary: record.trace,
    };
    Some((key, outcome))
}

/// One checksummed line, no trailing newline.
fn encode_line(record: &PersistRecord) -> Option<String> {
    let payload = serde_json::to_string(record).ok()?;
    Some(format!("{:016x} {payload}", fnv1a(payload.as_bytes())))
}

/// Parse and validate one line. `None` covers every corruption mode:
/// missing separator, bad hex, checksum mismatch (torn write), JSON that
/// does not parse, and schema-valid records with nonsense fields.
fn decode_line(line: &str) -> Option<(RunKey, SearchOutcome)> {
    let (checksum, payload) = line.split_once(' ')?;
    if checksum.len() != 16 {
        return None;
    }
    let expected = u64::from_str_radix(checksum, 16).ok()?;
    if fnv1a(payload.as_bytes()) != expected {
        return None;
    }
    let record: PersistRecord = serde_json::from_str(payload).ok()?;
    entry_of(record)
}

/// What warm-loading found in the append log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmLoadStats {
    /// Records inserted into the cache.
    pub loaded: u64,
    /// Corrupt, truncated, or invalid lines skipped.
    pub skipped: u64,
    /// Valid records whose key was already resident (duplicate append-log
    /// entries; benign, not corruption).
    pub duplicates: u64,
}

/// The on-disk cache store: one path, three operations (append,
/// warm-load, compact). Constructing it touches no files.
#[derive(Clone, Debug)]
pub struct CacheStore {
    path: PathBuf,
}

impl CacheStore {
    /// A store at `path` (conventionally `<state-dir>/cache.jsonl`).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CacheStore { path: path.into() }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Load every valid record into `cache`, skipping (never failing on)
    /// corrupt lines. A missing file is an empty store. Counts into
    /// `registry` as `cache.warm_loaded` / `cache.persist_skipped`.
    pub fn warm_load(
        &self,
        cache: &RunCache,
        registry: &MetricsRegistry,
    ) -> io::Result<WarmLoadStats> {
        let file = match File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WarmLoadStats::default()),
            Err(e) => return Err(e),
        };
        let mut stats = WarmLoadStats::default();
        let mut reader = BufReader::new(file);
        let mut line = String::new();
        loop {
            line.clear();
            // read_line (not `lines()`) so a final line without `\n` — the
            // torn-tail case after kill -9 — still reaches the decoder and
            // is counted as skipped rather than silently dropped.
            let n = reader.read_line(&mut line)?;
            if n == 0 {
                break;
            }
            let trimmed = line.trim_end_matches('\n');
            if trimmed.is_empty() {
                continue;
            }
            match decode_line(trimmed) {
                Some((key, outcome)) => {
                    if cache.insert_ready(key, outcome) {
                        stats.loaded += 1;
                    } else {
                        stats.duplicates += 1;
                    }
                }
                None => stats.skipped += 1,
            }
        }
        registry.counter("cache.warm_loaded").add(stats.loaded);
        registry.counter("cache.persist_skipped").add(stats.skipped);
        Ok(stats)
    }

    /// Open the append log (creating parent directories) and start the
    /// writer thread. Hook the returned appender's
    /// [`listener`](PersistAppender::listener) into the cache.
    pub fn appender(&self, registry: &MetricsRegistry) -> io::Result<PersistAppender> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let appends = registry.counter("cache.persist_appends");
        let (tx, rx) = mpsc::sync_channel(APPEND_QUEUE);
        let thread = std::thread::Builder::new()
            .name("cache-persist".into())
            .spawn(move || writer_loop(file, rx, appends))?;
        // The writer thread is intentionally detached: it exits when the
        // last sender (held by the cache's insert listener) drops with the
        // cache itself, after the final flush below has already synced.
        drop(thread);
        Ok(PersistAppender { tx })
    }

    /// Rewrite the log as a sorted snapshot of `cache`'s resident entries
    /// (temp file + fsync + atomic rename), dropping duplicates and
    /// evicted records. Returns how many records the snapshot holds.
    pub fn compact(&self, cache: &RunCache) -> io::Result<u64> {
        let mut lines: Vec<(String, String)> = cache
            .entries_snapshot()
            .iter()
            .filter_map(|(key, outcome)| {
                let line = encode_line(&record_of(key, outcome)?)?;
                Some((key.label(), line))
            })
            .collect();
        lines.sort();
        let tmp = self.path.with_extension("jsonl.tmp");
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut writer = BufWriter::new(File::create(&tmp)?);
        for (_, line) in &lines {
            writeln!(writer, "{line}")?;
        }
        writer.flush()?;
        writer.get_ref().sync_all()?;
        fs::rename(&tmp, &self.path)?;
        Ok(lines.len() as u64)
    }
}

enum Msg {
    Record(String),
    Flush(Sender<()>),
}

/// Handle to the background append thread. Clone-cheap senders feed it
/// through [`PersistAppender::listener`]; [`PersistAppender::flush`] is
/// the drain barrier (write everything queued, `fsync`, ack).
pub struct PersistAppender {
    tx: SyncSender<Msg>,
}

impl PersistAppender {
    /// An [`InsertListener`] that encodes and enqueues every persistable
    /// computed insert. Enqueueing never blocks: if the writer is
    /// `APPEND_QUEUE` records behind, the record is dropped (it will be
    /// recomputed after the next restart — correctness is unaffected).
    pub fn listener(&self) -> InsertListener {
        let tx = self.tx.clone();
        Arc::new(move |key, outcome| {
            let Some(record) = record_of(&key, outcome) else {
                return;
            };
            let Some(line) = encode_line(&record) else {
                return;
            };
            match tx.try_send(Msg::Record(line)) {
                Ok(()) | Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {}
            }
        })
    }

    /// Write everything queued, `fsync`, and wait for the ack (bounded;
    /// gives up after 5s if the writer thread died). The drain path calls
    /// this before compacting.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.tx.send(Msg::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv_timeout(Duration::from_secs(5));
        }
    }
}

fn writer_loop(file: File, rx: Receiver<Msg>, appends: hypersweep_telemetry::Counter) {
    let mut writer = BufWriter::new(file);
    let write_record = |writer: &mut BufWriter<File>, line: String| {
        if writeln!(writer, "{line}").is_ok() {
            appends.inc();
        }
    };
    loop {
        match rx.recv() {
            Ok(Msg::Record(line)) => {
                write_record(&mut writer, line);
                // Drain whatever else is already queued into this batch.
                let mut batched = 1;
                while batched < APPEND_BATCH {
                    match rx.try_recv() {
                        Ok(Msg::Record(line)) => {
                            write_record(&mut writer, line);
                            batched += 1;
                        }
                        Ok(Msg::Flush(ack)) => {
                            let _ = writer.flush();
                            let _ = writer.get_ref().sync_all();
                            let _ = ack.send(());
                        }
                        Err(_) => break,
                    }
                }
                let _ = writer.flush();
            }
            Ok(Msg::Flush(ack)) => {
                let _ = writer.flush();
                let _ = writer.get_ref().sync_all();
                let _ = ack.send(());
            }
            // All senders gone: the cache (and its listener) dropped.
            Err(_) => {
                let _ = writer.flush();
                let _ = writer.get_ref().sync_all();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::execute_run;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sharded_counting(registry: &MetricsRegistry, executions: &'static AtomicUsize) -> RunCache {
        RunCache::with_runner_capacity_and_telemetry(
            4,
            |key| {
                executions.fetch_add(1, Ordering::SeqCst);
                execute_run(key)
            },
            None,
            registry,
        )
    }

    fn temp_store(name: &str) -> CacheStore {
        let path =
            std::env::temp_dir().join(format!("hypersweep-persist-{name}-{}", std::process::id()));
        let _ = fs::remove_file(&path);
        CacheStore::new(path)
    }

    /// Run a small audited workload against a persisting cache and return
    /// the store (flushed) plus what was computed.
    fn populate(store: &CacheStore, registry: &MetricsRegistry) -> Vec<RunKey> {
        let cache = RunCache::with_capacity_and_telemetry(4, None, registry);
        let appender = store.appender(registry).expect("open append log");
        cache.set_insert_listener(appender.listener());
        let keys = vec![
            RunKey::audited(StrategyKind::Clean, 4),
            RunKey::audited(StrategyKind::Visibility, 3),
            RunKey::fast(StrategyKind::Flood, 5),
        ];
        for key in &keys {
            cache.get_or_run(*key);
        }
        appender.flush();
        keys
    }

    #[test]
    fn round_trip_is_byte_identical() {
        static EXECUTIONS: AtomicUsize = AtomicUsize::new(0);
        let store = temp_store("round-trip");
        let registry = MetricsRegistry::new();
        let keys = populate(&store, &registry);

        let warm_registry = MetricsRegistry::new();
        let warm = sharded_counting(&warm_registry, &EXECUTIONS);
        let stats = store.warm_load(&warm, &warm_registry).expect("warm load");
        assert_eq!(stats.loaded, keys.len() as u64);
        assert_eq!(stats.skipped, 0);

        for key in &keys {
            let warm_outcome = warm.get_or_run(*key);
            let fresh = execute_run(*key);
            assert_eq!(EXECUTIONS.load(Ordering::SeqCst), 0, "must serve warm");
            // Byte-identity at the record level: every field the reply
            // reads round-trips exactly.
            let a = encode_line(&record_of(key, &warm_outcome).unwrap()).unwrap();
            let b = encode_line(&record_of(key, &fresh).unwrap()).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(warm.hits(), keys.len() as u64);
        let snap = warm_registry.snapshot();
        assert_eq!(snap.counter("cache.warm_loaded"), Some(keys.len() as u64));
        assert_eq!(snap.counter("cache.persist_skipped"), Some(0));
        let _ = fs::remove_file(store.path());
    }

    #[test]
    fn truncated_tail_loads_valid_prefix() {
        static EXECUTIONS: AtomicUsize = AtomicUsize::new(0);
        let store = temp_store("truncated");
        let registry = MetricsRegistry::new();
        let keys = populate(&store, &registry);
        // Tear the last record in half, as a kill -9 mid-append would.
        let contents = fs::read_to_string(store.path()).unwrap();
        let torn = &contents[..contents.len() - 25];
        assert!(!torn.ends_with('\n'));
        fs::write(store.path(), torn).unwrap();

        let warm_registry = MetricsRegistry::new();
        let warm = sharded_counting(&warm_registry, &EXECUTIONS);
        let stats = store.warm_load(&warm, &warm_registry).expect("never fails");
        assert_eq!(stats.loaded, keys.len() as u64 - 1);
        assert_eq!(stats.skipped, 1);
        assert!(warm_registry.snapshot().counter("cache.persist_skipped") > Some(0));
        let _ = fs::remove_file(store.path());
    }

    #[test]
    fn garbage_and_checksum_mismatch_lines_are_skipped() {
        static EXECUTIONS: AtomicUsize = AtomicUsize::new(0);
        let store = temp_store("garbage");
        let registry = MetricsRegistry::new();
        let keys = populate(&store, &registry);
        let contents = fs::read_to_string(store.path()).unwrap();
        let mut lines: Vec<String> = contents.lines().map(str::to_string).collect();
        // A garbage line mid-file…
        lines.insert(1, "not a record at all".to_string());
        // …and a checksum mismatch: valid shape, one payload byte flipped.
        let mut tampered = lines[0].clone();
        tampered.truncate(tampered.len() - 1);
        tampered.push('}');
        tampered.push(' ');
        lines.push(tampered);
        fs::write(store.path(), lines.join("\n")).unwrap();

        let warm_registry = MetricsRegistry::new();
        let warm = sharded_counting(&warm_registry, &EXECUTIONS);
        let stats = store.warm_load(&warm, &warm_registry).expect("never fails");
        assert_eq!(stats.loaded, keys.len() as u64);
        assert_eq!(stats.skipped, 2);
        assert_eq!(
            warm_registry.snapshot().counter("cache.persist_skipped"),
            Some(2)
        );
        let _ = fs::remove_file(store.path());
    }

    #[test]
    fn compact_drops_duplicates_and_round_trips() {
        let store = temp_store("compact");
        let registry = MetricsRegistry::new();
        let keys = populate(&store, &registry);
        // Append the same workload again: the log now has duplicates.
        let registry2 = MetricsRegistry::new();
        populate(&store, &registry2);
        let dirty = fs::read_to_string(store.path()).unwrap();
        assert_eq!(dirty.lines().count(), 2 * keys.len());

        // Warm-load (duplicates are benign), then compact.
        let warm_registry = MetricsRegistry::new();
        let warm = RunCache::with_capacity_and_telemetry(4, None, &warm_registry);
        let stats = store.warm_load(&warm, &warm_registry).unwrap();
        assert_eq!(stats.loaded, keys.len() as u64);
        assert_eq!(stats.duplicates, keys.len() as u64);
        assert_eq!(stats.skipped, 0);
        let written = store.compact(&warm).unwrap();
        assert_eq!(written, keys.len() as u64);
        let clean = fs::read_to_string(store.path()).unwrap();
        assert_eq!(clean.lines().count(), keys.len());

        // The compacted snapshot still warm-loads everything.
        let again = RunCache::with_capacity_and_telemetry(4, None, &MetricsRegistry::new());
        let stats = store.warm_load(&again, &MetricsRegistry::new()).unwrap();
        assert_eq!(stats.loaded, keys.len() as u64);
        assert_eq!(stats.skipped, 0);
        let _ = fs::remove_file(store.path());
    }

    #[test]
    fn missing_file_is_an_empty_store() {
        let store = temp_store("missing");
        let cache = RunCache::with_capacity_and_telemetry(2, None, &MetricsRegistry::new());
        let stats = store.warm_load(&cache, &MetricsRegistry::new()).unwrap();
        assert_eq!(stats, WarmLoadStats::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn engine_and_violating_outcomes_are_not_persisted() {
        let engine_key = RunKey::engine(StrategyKind::Clean, 3, hypersweep_sim::Policy::Fifo);
        let outcome = execute_run(RunKey::fast(StrategyKind::Clean, 3));
        assert!(record_of(&engine_key, &outcome).is_none());

        let fast_key = RunKey::fast(StrategyKind::Clean, 3);
        let mut bad = execute_run(fast_key);
        bad.verdict
            .violations
            .push(hypersweep_intruder::ViolationReport {
                step: 0,
                event: 1,
                kind: hypersweep_intruder::ViolationKind::ContiguityBroken,
            });
        assert!(record_of(&fast_key, &bad).is_none());
        assert!(record_of(&fast_key, &execute_run(fast_key)).is_some());
    }

    /// A checksummed record claiming `u64::MAX` activations and team size
    /// loads, and its eviction credit saturates: a wrapped sum would panic
    /// in a debug build, or in a release build rank the record cheapest.
    #[test]
    fn a_record_of_saturated_metrics_warm_loads_and_ranks_highest() {
        let store = temp_store("saturated");
        let key = RunKey::audited(StrategyKind::Clean, 3);
        let mut record = record_of(&key, &execute_run(key)).unwrap();
        record.metrics.activations = u64::MAX;
        record.metrics.team_size = u64::MAX;
        let others = [
            RunKey::audited(StrategyKind::Visibility, 3),
            RunKey::audited(StrategyKind::Cloning, 3),
            RunKey::audited(StrategyKind::Cloning, 4),
        ];
        let mut lines = vec![encode_line(&record).unwrap()];
        for other in others {
            lines.push(encode_line(&record_of(&other, &execute_run(other)).unwrap()).unwrap());
        }
        fs::write(store.path(), lines.join("\n") + "\n").unwrap();

        let registry = MetricsRegistry::new();
        let cache = RunCache::with_capacity_and_telemetry(1, Some(2), &registry);
        let stats = store.warm_load(&cache, &registry).unwrap();
        assert_eq!((stats.loaded, stats.skipped), (4, 0));
        assert_eq!((cache.len(), cache.evictions()), (2, 2));
        // Hits renew its credit from a raised inflation; recomputing the
        // others around it never evicts it.
        for _ in 0..3 {
            assert_eq!(cache.get_or_run(key).metrics.activations, u64::MAX);
            for other in others {
                cache.get_or_run(other);
            }
        }
        assert_eq!(cache.hits(), 3, "the saturated record stayed resident");
        let _ = fs::remove_file(store.path());
    }

    #[test]
    fn decode_rejects_out_of_range_and_unknown_fields() {
        let key = RunKey::audited(StrategyKind::Clean, 3);
        let outcome = execute_run(key);
        let mut record = record_of(&key, &outcome).unwrap();
        record.dim = PERSIST_MAX_DIM + 1;
        assert!(decode_line(&encode_line(&record).unwrap()).is_none());
        record.dim = 3;
        record.strategy = "unknown".to_string();
        assert!(decode_line(&encode_line(&record).unwrap()).is_none());
        record.strategy = "clean".to_string();
        record.exec = "engine".to_string();
        assert!(decode_line(&encode_line(&record).unwrap()).is_none());
    }
}
