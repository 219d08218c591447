//! Traced in-process replay of one hypersweep benchmark workload.
//!
//! ```text
//! perfbench-trace SPEC SPANS
//! ```
//!
//! `perfbench/run.py --trace 1` writes SPEC from the inputs its untraced
//! phases just sent the binary, one directive per line:
//!
//! ```text
//! max_dim 8                 # the daemon's --max-dim
//! cache_cap 4096|none       # the daemon's --cache-cap
//! persist FILE              # the daemon's --persist cache file, if any
//! warmup FILE               # untimed requests, one wire line each
//! stream FILE               # one per connection, replayed interleaved
//! campaign <check argv...>  # one per `check` campaign
//! shrink <check argv...>    # the mutant drill
//! report <report argv...>   # the report invocation
//! greedy_dim D              # greedy-vs-lazy evader comparison point
//! kernel_dim D              # NodeSet kernel size
//! clean_fast_dim D          # CLEAN fast-synthesis point
//! ```
//!
//! Spans are recorded here, around the calls this program makes into each
//! crate's public API: name, start, end, parent and request or schedule
//! id. They stay in memory and go to SPANS when the run ends. Per-step
//! stages inside a schedule are summed into one aggregate per schedule
//! span (a schedule at d=10 takes ~10^6 steps). Stdout carries the
//! per-layer metrics (`metric NAME VALUE`), each phase's time by layer
//! (`share PHASE LAYER SECONDS`), traced wall times (`wall PHASE SECONDS`),
//! fidelity checks (`fidelity WHAT MISMATCHES OF`), campaign columns
//! (`columns ARGV... = SCHEDULES STEPS EVENTS VIOLATIONS`) and reply
//! digests (`digest HEX LINE`) for the runner to compare with the
//! untraced run.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypersweep_analysis::experiments::ALL_IDS;
use hypersweep_analysis::{
    execute_run, run_ids_pooled_with, CacheStore, ExperimentConfig, RunKey, ShardedRunCache,
    StrategyKind,
};
use hypersweep_check::{
    explore_schedule, explore_schedule_in, shrink, Adversary, CheckArena, CheckConfig,
    CheckStrategy, ScheduleRun, StepOracle, ViolationKind, ViolationReport,
};
use hypersweep_core::clean::CleanAgent;
use hypersweep_core::cloning::CloningAgent;
use hypersweep_core::synchronous::SynchronousAgent;
use hypersweep_core::visibility::VisibilityAgent;
use hypersweep_core::CleanStrategy;
use hypersweep_intruder::{verify_trace, FieldScratch, MonitorConfig};
use hypersweep_scenario::{run_scenario_campaign, GridStrategy, ScenarioId};
use hypersweep_server::{AnswerTable, Dispatcher, Request, Response, ServerLimits};
use hypersweep_sim::{AgentProgram, Engine, EngineConfig, Policy, Role};
use hypersweep_telemetry::MetricsRegistry;
use hypersweep_topology::{wide, GridInstance, Hypercube, Node, NodeSet};

/// The checker's shrink budget (`hypersweep check` shrinks with this).
const SHRINK_BUDGET: u64 = 2_000;

const NO_PARENT: u32 = u32::MAX;

struct SpanRec {
    name: &'static str,
    id: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct AggRec {
    span: u32,
    name: &'static str,
    count: u64,
    total_ns: u64,
}

/// In-memory span store, written out once at the end.
struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    aggs: Vec<AggRec>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            aggs: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Reserve a span whose end is filled in by [`Tracer::close`].
    fn open(&mut self, name: &'static str, id: u64, parent: u32, start: Instant) -> u32 {
        let start_ns = self.ns(start);
        self.spans.push(SpanRec {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[span as usize].end_ns = end_ns;
    }

    fn span(&mut self, name: &'static str, id: u64, parent: u32, start: Instant, end: Instant) {
        let s = self.open(name, id, parent, start);
        self.close(s, end);
    }

    fn agg(&mut self, span: u32, name: &'static str, count: u64, total: Duration) {
        if count > 0 {
            self.aggs.push(AggRec {
                span,
                name,
                count,
                total_ns: total.as_nanos() as u64,
            });
        }
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "#span\tindex\tparent\tname\tid\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "span\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "#agg\tspan\tname\tcount\ttotal_ns")?;
        for a in &self.aggs {
            writeln!(w, "agg\t{}\t{}\t{}\t{}", a.span, a.name, a.count, a.total_ns)?;
        }
        w.flush()
    }
}

/// Everything the runner prints, collected in order.
#[derive(Default)]
struct Out {
    text: String,
}

impl Out {
    fn line(&mut self, s: String) {
        self.text.push_str(&s);
        self.text.push('\n');
    }

    fn metric(&mut self, name: &str, value: f64) {
        self.line(format!("metric {name} {value}"));
    }

    fn shares(&mut self, phase: &str, layers: &BTreeMap<&'static str, Duration>) {
        for (layer, d) in layers {
            self.line(format!("share {phase} {layer} {}", d.as_secs_f64()));
        }
    }
}

#[derive(Default)]
struct Spec {
    max_dim: u32,
    cache_cap: Option<usize>,
    persist: Option<String>,
    warmup: Vec<String>,
    streams: Vec<Vec<String>>,
    campaigns: Vec<Vec<String>>,
    shrink: Vec<String>,
    report: Vec<String>,
    greedy_dim: u32,
    kernel_dim: u32,
    clean_fast_dim: u32,
}

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text.lines().map(str::to_string).collect())
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad {what}: '{s}'"))
}

fn parse_spec(path: &str) -> Result<Spec, String> {
    let mut spec = Spec::default();
    for line in read_lines(path)? {
        let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let Some((key, rest)) = words.split_first() else {
            continue;
        };
        let one = || rest.first().cloned().ok_or(format!("'{key}' needs a value"));
        match key.as_str() {
            "max_dim" => spec.max_dim = parse_num(&one()?, "max_dim")?,
            "cache_cap" => {
                let v = one()?;
                spec.cache_cap = if v == "none" {
                    None
                } else {
                    Some(parse_num(&v, "cache_cap")?)
                };
            }
            "persist" => spec.persist = Some(one()?),
            "warmup" => spec.warmup = read_lines(&one()?)?,
            "stream" => spec.streams.push(read_lines(&one()?)?),
            "campaign" => spec.campaigns.push(rest.to_vec()),
            "shrink" => spec.shrink = rest.to_vec(),
            "report" => spec.report = rest.to_vec(),
            "greedy_dim" => spec.greedy_dim = parse_num(&one()?, "greedy_dim")?,
            "kernel_dim" => spec.kernel_dim = parse_num(&one()?, "kernel_dim")?,
            "clean_fast_dim" => spec.clean_fast_dim = parse_num(&one()?, "clean_fast_dim")?,
            other => return Err(format!("unknown spec directive '{other}'")),
        }
    }
    Ok(spec)
}

/// The value after `flag` in a CLI argument list.
fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn per(total: Duration, count: u64, unit: f64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total.as_secs_f64() * unit / count as f64
    }
}

// ------------------------------------------------------------------ serve

/// Where one traced request's `handle` time went.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Served {
    Table,
    Status,
    MemoHit,
    Computed,
    ScenarioHit,
    ScenarioInline,
}

#[derive(Default)]
struct ServeAcc {
    requests: u64,
    busy: Duration,
    parse: Duration,
    table: Duration,
    table_calls: u64,
    table_served: u64,
    handle_hit: Duration,
    handle_hits: u64,
    audit_handle: Duration,
    audits: u64,
    computed: u64,
    inline_miss: Duration,
    serialize: Duration,
    serializations: u64,
    layers: BTreeMap<&'static str, Duration>,
}

impl ServeAcc {
    fn charge(&mut self, layer: &'static str, d: Duration) {
        *self.layers.entry(layer).or_default() += d;
    }
}

struct ServeCtx<'a> {
    dispatcher: &'a Dispatcher,
    cache: &'a ShardedRunCache,
    scenario_misses: hypersweep_telemetry::Counter,
    started: Instant,
}

/// Answer one wire line the way the reactor does, timing each layer.
fn answer(
    cx: &ServeCtx<'_>,
    line: &str,
    tr: Option<(&mut Tracer, u32, u64)>,
    acc: &mut ServeAcc,
) -> (String, Served) {
    let t0 = Instant::now();
    let request = Request::parse(line);
    let t1 = Instant::now();
    let mut served = Served::Table;
    let mut handle_span = None;
    let mut table_span = None;
    let mut serialize_span = None;
    let reply = match request {
        Err(e) => Response::Error(e).to_line(),
        Ok(Request::Status) => {
            served = Served::Status;
            let reply = Response::Status(cx.dispatcher.status_reply(
                cx.started.elapsed().as_millis() as u64,
                0,
                1,
            ))
            .to_line();
            handle_span = Some((t1, Instant::now()));
            reply
        }
        Ok(request) => {
            let is_audit = matches!(
                request,
                Request::Audit { .. } | Request::ScenarioAudit { .. }
            );
            let is_scenario = matches!(
                request,
                Request::ScenarioPlan { .. }
                    | Request::ScenarioPredict { .. }
                    | Request::ScenarioAudit { .. }
            );
            let mut t = t1;
            let mut table_line = None;
            if !is_audit {
                table_line = cx.dispatcher.answer_line(&request).map(str::to_string);
                let t2 = Instant::now();
                table_span = Some((t, t2));
                acc.table += t2 - t;
                acc.table_calls += !is_scenario as u64;
                t = t2;
            }
            match table_line {
                Some(line) => {
                    acc.table_served += 1;
                    line
                }
                None => {
                    let misses = cx.cache.misses();
                    let scenario_misses = cx.scenario_misses.get();
                    let response = cx.dispatcher.handle(request);
                    let t3 = Instant::now();
                    let handle_time = t3 - t;
                    handle_span = Some((t, t3));
                    let computed = cx.cache.misses() > misses;
                    let scenario_computed = cx.scenario_misses.get() > scenario_misses;
                    served = match (is_scenario, computed || scenario_computed) {
                        (false, false) => Served::MemoHit,
                        (false, true) => Served::Computed,
                        (true, false) => Served::ScenarioHit,
                        (true, true) if is_audit => Served::Computed,
                        (true, true) => Served::ScenarioInline,
                    };
                    let reply = response.to_line();
                    let t4 = Instant::now();
                    serialize_span = Some((t3, t4));
                    acc.serialize += t4 - t3;
                    acc.serializations += 1;
                    if is_audit {
                        acc.audit_handle += handle_time;
                        acc.audits += 1;
                        if served != Served::Computed {
                            acc.handle_hit += handle_time;
                            acc.handle_hits += 1;
                        }
                    }
                    if served == Served::ScenarioInline {
                        acc.inline_miss += handle_time;
                    }
                    if matches!(served, Served::Computed | Served::ScenarioInline) {
                        acc.computed += 1;
                    }
                    reply
                }
            }
        }
    };
    let end = Instant::now();
    acc.busy += end - t0;
    acc.requests += 1;
    acc.parse += t1 - t0;
    acc.charge("server.parse", t1 - t0);
    if let Some((a, b)) = table_span {
        acc.charge("server.table", b - a);
    }
    if let Some((a, b)) = serialize_span {
        acc.charge("server.serialize", b - a);
    }
    let handle_layer = match served {
        Served::Table => "server.dispatch",
        Served::Status => "server.status",
        Served::MemoHit | Served::ScenarioHit => "server.dispatch",
        Served::Computed => "analysis+core+intruder (computed)",
        Served::ScenarioInline => "scenario.reference (inline)",
    };
    if let Some((a, b)) = handle_span {
        acc.charge(handle_layer, b - a);
    }
    if let Some((tr, parent, id)) = tr {
        let req = tr.open("server.request", id, parent, t0);
        tr.span("server.parse", id, req, t0, t1);
        if let Some((a, b)) = table_span {
            tr.span("server.table", id, req, a, b);
        }
        if let Some((a, b)) = handle_span {
            tr.span("server.handle", id, req, a, b);
        }
        if let Some((a, b)) = serialize_span {
            tr.span("server.serialize", id, req, a, b);
        }
        tr.close(req, end);
    }
    (reply, served)
}

fn serve(spec: &Spec, tr: &mut Tracer, out: &mut Out) -> Result<(), String> {
    let registry = MetricsRegistry::new();
    let limits = ServerLimits::default();
    let cache = Arc::new(ShardedRunCache::with_capacity_and_telemetry(
        limits.cache_shards,
        spec.cache_cap,
        &registry,
    ));
    let warm_ms = match &spec.persist {
        Some(path) => {
            let t = Instant::now();
            CacheStore::new(path)
                .warm_load(&cache, &registry)
                .map_err(|e| format!("warm-load {path}: {e}"))?;
            t.elapsed().as_secs_f64() * 1e3
        }
        None => 0.0,
    };
    out.metric("analysis.warm_load_ms", warm_ms);
    let builds: Vec<Duration> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let table = AnswerTable::build(spec.max_dim);
            std::hint::black_box(table.len());
            t.elapsed()
        })
        .collect();
    out.metric(
        "server.table_build_ms",
        median(builds).as_secs_f64() * 1e3,
    );
    let dispatcher = Dispatcher::with_sharded(Arc::clone(&cache), spec.max_dim, &registry);
    let cx = ServeCtx {
        dispatcher: &dispatcher,
        cache: &cache,
        scenario_misses: registry.counter("scenario.cache_misses"),
        started: Instant::now(),
    };
    let mut scratch = ServeAcc::default();
    for line in &spec.warmup {
        answer(&cx, line, None, &mut scratch);
    }

    // The timed streams, interleaved one request per connection in turn.
    let longest = spec.streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut acc = ServeAcc::default();
    let mut digests: HashMap<String, u64> = HashMap::new();
    let mut mismatched = 0u64;
    let evictions = cache.evictions();
    let start = Instant::now();
    let phase = tr.open("serve.phase", 0, NO_PARENT, start);
    let mut id = 0u64;
    for i in 0..longest {
        for stream in &spec.streams {
            if let Some(line) = stream.get(i) {
                let (reply, served) = answer(&cx, line, Some((tr, phase, id)), &mut acc);
                id += 1;
                if served != Served::Status {
                    let digest = fnv1a64(reply.as_bytes());
                    if *digests.entry(line.clone()).or_insert(digest) != digest {
                        mismatched += 1;
                    }
                }
            }
        }
    }
    let end = Instant::now();
    tr.close(phase, end);
    let wall = end - start;
    let evicted = cache.evictions() - evictions;

    let n = acc.requests;
    out.metric("server.parse_ns", per(acc.parse, n, 1e9));
    out.metric("server.table_ns", per(acc.table, acc.table_calls, 1e9));
    out.metric("server.table_share", acc.table_served as f64 / n.max(1) as f64);
    out.metric("server.handle_hit_us", per(acc.handle_hit, acc.handle_hits, 1e6));
    out.metric(
        "server.serialize_ns",
        per(acc.serialize, acc.serializations, 1e9),
    );
    out.metric(
        "server.reactor_inline_ms",
        acc.inline_miss.as_secs_f64() * 1e3,
    );
    out.line(format!(
        "aux audit_handle_us {}",
        per(acc.audit_handle, acc.audits, 1e6)
    ));
    out.line(format!(
        "aux serve_requests {n} table {} memo_hit {} computed {} evicted {evicted}",
        acc.table_served,
        acc.handle_hits,
        acc.computed
    ));
    // Attribution covers the time spent answering requests; the replay
    // loop's own bookkeeping (reply digests) is tracing overhead.
    let mut layers = acc.layers.clone();
    let named: Duration = layers.values().sum();
    layers.insert("other (request self time)", acc.busy.saturating_sub(named));
    out.shares("serve", &layers);
    out.line(format!("wall serve {}", wall.as_secs_f64()));
    out.line(format!("fidelity serve-repeats {mismatched} {n}"));
    let mut sorted: Vec<_> = digests.into_iter().collect();
    sorted.sort();
    for (line, digest) in sorted {
        out.line(format!("digest {digest:016x} {line}"));
    }

    // Audit keys the phase touched: fast path vs streamed audit.
    let mut keys: Vec<(StrategyKind, u32)> = Vec::new();
    for line in spec.warmup.iter().chain(spec.streams.iter().flatten()) {
        if let Ok(Request::Audit { strategy, dim }) = Request::parse(line) {
            if !keys.contains(&(strategy, dim)) {
                keys.push((strategy, dim));
            }
        }
    }
    let (mut fast, mut audit, mut events) = (Duration::ZERO, Duration::ZERO, 0u64);
    for &(strategy, dim) in &keys {
        let t = Instant::now();
        std::hint::black_box(execute_run(RunKey::fast(strategy, dim)));
        let t1 = Instant::now();
        let audited = execute_run(RunKey::audited(strategy, dim));
        let t2 = Instant::now();
        fast += t1 - t;
        audit += (t2 - t1).saturating_sub(t1 - t);
        events += audited.trace_summary.map(|s| s.events).unwrap_or(0);
    }
    out.metric("core.fast_ms", fast.as_secs_f64() * 1e3);
    out.metric("intruder.audit_ms", audit.as_secs_f64() * 1e3);
    out.metric(
        "intruder.events_per_s",
        if audit.is_zero() {
            0.0
        } else {
            events as f64 / audit.as_secs_f64()
        },
    );

    // Scenario reference runs, once per distinct key (the serve miss path).
    let mut scen: Vec<(ScenarioId, u32, GridInstance)> = Vec::new();
    for line in spec.warmup.iter().chain(spec.streams.iter().flatten()) {
        if let Ok(
            Request::ScenarioPlan {
                scenario,
                side,
                instance,
            }
            | Request::ScenarioAudit {
                scenario,
                side,
                instance,
            },
        ) = Request::parse(line)
        {
            if !scen.contains(&(scenario, side, instance)) {
                scen.push((scenario, side, instance));
            }
        }
    }
    let mut reference = Duration::ZERO;
    for &(id, side, instance) in &scen {
        let s = hypersweep_scenario::resolve(id).ok_or("unregistered scenario")?;
        let t = Instant::now();
        std::hint::black_box(s.reference(side, instance));
        reference += t.elapsed();
    }
    out.metric(
        "scenario.reference_ms",
        per(reference, scen.len() as u64, 1e3),
    );
    Ok(())
}

// ------------------------------------------------------------------ check

#[derive(Clone, Copy, Default)]
struct StepAcc {
    schedules: u64,
    steps: u64,
    rounds: u64,
    events: u64,
    runnable_len: u64,
    total: Duration,
    setup: Duration,
    oracle_setup: Duration,
    terminated: Duration,
    runnable: Duration,
    adversary: Duration,
    step: Duration,
    round: Duration,
    oracle: Duration,
}

impl StepAcc {
    fn named(&self) -> Duration {
        self.setup
            + self.oracle_setup
            + self.terminated
            + self.runnable
            + self.adversary
            + self.step
            + self.round
            + self.oracle
    }

    fn minus(&self, o: &StepAcc) -> StepAcc {
        StepAcc {
            schedules: self.schedules - o.schedules,
            steps: self.steps - o.steps,
            rounds: self.rounds - o.rounds,
            events: self.events - o.events,
            runnable_len: self.runnable_len - o.runnable_len,
            total: self.total - o.total,
            setup: self.setup - o.setup,
            oracle_setup: self.oracle_setup - o.oracle_setup,
            terminated: self.terminated - o.terminated,
            runnable: self.runnable - o.runnable,
            adversary: self.adversary - o.adversary,
            step: self.step - o.step,
            round: self.round - o.round,
            oracle: self.oracle - o.oracle,
        }
    }

    fn add(&mut self, o: &StepAcc) {
        let sum = StepAcc {
            schedules: self.schedules + o.schedules,
            steps: self.steps + o.steps,
            rounds: self.rounds + o.rounds,
            events: self.events + o.events,
            runnable_len: self.runnable_len + o.runnable_len,
            total: self.total + o.total,
            setup: self.setup + o.setup,
            oracle_setup: self.oracle_setup + o.oracle_setup,
            terminated: self.terminated + o.terminated,
            runnable: self.runnable + o.runnable,
            adversary: self.adversary + o.adversary,
            step: self.step + o.step,
            round: self.round + o.round,
            oracle: self.oracle + o.oracle,
        };
        *self = sum;
    }
}

/// `CheckConfig::max_steps == 0`'s derived budget (mirrors the checker).
fn max_steps(cfg: &CheckConfig) -> u64 {
    if cfg.max_steps > 0 {
        return cfg.max_steps;
    }
    200 * (1u64 << cfg.dim) * u64::from(cfg.dim) + 10_000
}

/// Apply all events newer than `*seen` to the oracle; first violation wins.
fn feed_oracle<P: AgentProgram>(
    engine: &Engine<P>,
    oracle: &mut StepOracle<'_>,
    seen: &mut usize,
    step: u64,
) -> Option<ViolationReport> {
    let events = engine.events();
    while *seen < events.len() {
        let ev = events[*seen];
        *seen += 1;
        if let Err(v) = oracle.observe(&ev, step) {
            return Some(v);
        }
    }
    None
}

/// The checker's asynchronous step loop, rebuilt from the public engine,
/// adversary and oracle hooks with a timer around each stage. The stage
/// timestamps are contiguous, so the stages tile the loop.
fn drive_async<P: AgentProgram>(
    mut engine: Engine<P>,
    cube: Hypercube,
    cfg: &CheckConfig,
    adversary: &mut Adversary,
    scratch: &mut Option<FieldScratch>,
    acc: &mut StepAcc,
) -> ScheduleRun {
    let t = Instant::now();
    let mut oracle = StepOracle::new_in(&cube, Node::ROOT, 1, scratch.take().unwrap_or_default());
    let mut prev = Instant::now();
    acc.oracle_setup += prev - t;
    let max_steps = max_steps(cfg);
    let mut decisions: Vec<u32> = Vec::new();
    let mut seen = 0usize;
    let mut step: u64 = 0;
    let violation = loop {
        let done = engine.all_terminated();
        let t1 = Instant::now();
        acc.terminated += t1 - prev;
        if done {
            let v = oracle.finish(step).err();
            let t2 = Instant::now();
            acc.oracle += t2 - t1;
            break v;
        }
        let runnable = engine.runnable_agents();
        let t2 = Instant::now();
        acc.runnable += t2 - t1;
        acc.runnable_len += runnable.len() as u64;
        if runnable.is_empty() {
            break Some(ViolationReport {
                step,
                event: oracle.events_applied(),
                kind: ViolationKind::Deadlock {
                    waiting: engine.live_agents() as u64,
                },
            });
        }
        if step >= max_steps {
            break Some(ViolationReport {
                step,
                event: oracle.events_applied(),
                kind: ViolationKind::StepLimit,
            });
        }
        let raw = adversary.choose(&runnable, step);
        let t3 = Instant::now();
        acc.adversary += t3 - t2;
        let idx = (raw as usize) % runnable.len();
        decisions.push(idx as u32);
        let agent = runnable[idx];
        drop(runnable);
        let t4 = Instant::now();
        acc.runnable += t4 - t3;
        let stepped = engine.step_agent(agent);
        let t5 = Instant::now();
        acc.step += t5 - t4;
        if let Err(e) = stepped {
            break Some(ViolationReport {
                step,
                event: oracle.events_applied(),
                kind: ViolationKind::EngineError {
                    message: e.to_string(),
                },
            });
        }
        let fed = feed_oracle(&engine, &mut oracle, &mut seen, step);
        prev = Instant::now();
        acc.oracle += prev - t5;
        match fed {
            Some(v) => break Some(v),
            None => step += 1,
        }
    };
    let events = oracle.events_applied();
    *scratch = Some(oracle.into_scratch());
    acc.steps += step;
    acc.events += events;
    ScheduleRun {
        decisions,
        steps: step,
        events,
        violation,
    }
}

/// The checker's synchronous (lock-step round) loop, timed per round.
fn drive_sync<P: AgentProgram>(
    mut engine: Engine<P>,
    cube: Hypercube,
    cfg: &CheckConfig,
    scratch: &mut Option<FieldScratch>,
    acc: &mut StepAcc,
) -> ScheduleRun {
    let t = Instant::now();
    let mut oracle = StepOracle::new_in(&cube, Node::ROOT, 1, scratch.take().unwrap_or_default());
    let mut prev = Instant::now();
    acc.oracle_setup += prev - t;
    let max_steps = max_steps(cfg);
    let mut seen = 0usize;
    let mut step: u64 = 0;
    let violation = loop {
        if step >= max_steps {
            break Some(ViolationReport {
                step,
                event: oracle.events_applied(),
                kind: ViolationKind::StepLimit,
            });
        }
        let outcome = engine.step_round();
        let t1 = Instant::now();
        acc.round += t1 - prev;
        acc.rounds += 1;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                break Some(ViolationReport {
                    step,
                    event: oracle.events_applied(),
                    kind: ViolationKind::EngineError {
                        message: e.to_string(),
                    },
                });
            }
        };
        let fed = feed_oracle(&engine, &mut oracle, &mut seen, step);
        if fed.is_some() {
            prev = Instant::now();
            acc.oracle += prev - t1;
            break fed;
        }
        if outcome.done {
            let v = oracle.finish(step).err();
            prev = Instant::now();
            acc.oracle += prev - t1;
            break v;
        }
        prev = Instant::now();
        acc.oracle += prev - t1;
        if !outcome.acted && !outcome.wrote {
            break Some(ViolationReport {
                step,
                event: oracle.events_applied(),
                kind: ViolationKind::Deadlock {
                    waiting: engine.live_agents() as u64,
                },
            });
        }
        step += 1;
    };
    let events = oracle.events_applied();
    *scratch = Some(oracle.into_scratch());
    acc.steps += step;
    acc.events += events;
    ScheduleRun {
        decisions: Vec::new(),
        steps: step,
        events,
        violation,
    }
}

/// One traced schedule: the checker's engine set-up per strategy, then
/// the matching step loop.
fn traced_schedule(
    cfg: &CheckConfig,
    seed: u64,
    schedule: u64,
    scratch: &mut Option<FieldScratch>,
    acc: &mut StepAcc,
) -> ScheduleRun {
    let cube = Hypercube::new(cfg.dim);
    let engine_cfg = |visibility: bool, policy: Policy| EngineConfig {
        policy,
        visibility,
        record_events: true,
        ..EngineConfig::default()
    };
    let mut adversary = Adversary::for_schedule(seed, schedule);
    let half = 1u64 << (cfg.dim - 1);
    let t = Instant::now();
    match cfg.strategy {
        CheckStrategy::Clean => {
            let mut engine = Engine::new(cube, engine_cfg(false, Policy::Fifo));
            let team = CleanStrategy::new(cube).team_size();
            engine.spawn(CleanAgent::synchronizer(), Node::ROOT, Role::Coordinator);
            for _ in 1..team {
                engine.spawn(CleanAgent::worker(), Node::ROOT, Role::Worker);
            }
            acc.setup += t.elapsed();
            drive_async(engine, cube, cfg, &mut adversary, scratch, acc)
        }
        CheckStrategy::Visibility => {
            let mut engine = Engine::new(cube, engine_cfg(true, Policy::Fifo));
            for _ in 0..half {
                engine.spawn(VisibilityAgent, Node::ROOT, Role::Worker);
            }
            acc.setup += t.elapsed();
            drive_async(engine, cube, cfg, &mut adversary, scratch, acc)
        }
        CheckStrategy::Cloning => {
            let mut engine = Engine::new(cube, engine_cfg(true, Policy::Fifo));
            engine.spawn(CloningAgent::new(), Node::ROOT, Role::Worker);
            acc.setup += t.elapsed();
            drive_async(engine, cube, cfg, &mut adversary, scratch, acc)
        }
        CheckStrategy::Synchronous => {
            let mut engine = Engine::new(cube, engine_cfg(false, Policy::Synchronous));
            for _ in 0..half {
                engine.spawn(SynchronousAgent, Node::ROOT, Role::Worker);
            }
            acc.setup += t.elapsed();
            drive_sync(engine, cube, cfg, scratch, acc)
        }
        CheckStrategy::MutantEagerGuard => {
            unreachable!("the mutant drill is traced through shrink, not the step loop")
        }
    }
}

fn check(spec: &Spec, tr: &mut Tracer, out: &mut Out) -> Result<(), String> {
    let mut async_acc = StepAcc::default();
    let mut sync_acc = StepAcc::default();
    let mut layers: BTreeMap<&'static str, Duration> = BTreeMap::new();
    let mut wall = Duration::ZERO;
    let mut mismatches = 0u64;
    let mut traced = 0u64;
    let mut dynamic_mutations = 0.0;
    for (c, args) in spec.campaigns.iter().enumerate() {
        let dim: u32 = parse_num(flag(args, "--dim").ok_or("campaign without --dim")?, "dim")?;
        let schedules: u64 = parse_num(
            flag(args, "--campaign-size").ok_or("campaign without --campaign-size")?,
            "campaign size",
        )?;
        let seed: u64 = parse_num(flag(args, "--seed").ok_or("campaign without --seed")?, "seed")?;
        let label = args.join(" ");
        if let Some(name) = flag(args, "--scenario") {
            let id = ScenarioId::parse(name).ok_or(format!("unknown scenario {name}"))?;
            let scenario = hypersweep_scenario::resolve(id).ok_or("unregistered scenario")?;
            let instance = match flag(args, "--instance") {
                Some(text) => GridInstance::parse(text).ok_or(format!("bad instance {text}"))?,
                None => scenario.default_instance(),
            };
            let campaign =
                scenario.campaign(GridStrategy::Sweep, dim, instance, schedules, seed, 0);
            let registry = MetricsRegistry::new();
            let start = Instant::now();
            let outcome = run_scenario_campaign(&campaign, 1, &registry);
            let end = Instant::now();
            tr.span("scenario.campaign", c as u64, NO_PARENT, start, end);
            wall += end - start;
            *layers.entry("scenario.campaign").or_default() += end - start;
            out.line(format!(
                "columns {label} = {} {} {} {}",
                outcome.schedules_run, outcome.steps, outcome.events, outcome.violations
            ));
            if id == ScenarioId::Dynamic {
                dynamic_mutations =
                    (outcome.mutations + outcome.rejected) as f64 / schedules.max(1) as f64;
            }
            continue;
        }
        let strategy_name = flag(args, "--strategy").ok_or("campaign without --strategy")?;
        let strategy = CheckStrategy::parse(strategy_name)
            .ok_or(format!("unknown check strategy {strategy_name}"))?;
        let cfg = CheckConfig::new(strategy, dim);
        let mut acc = StepAcc::default();
        let mut scratch = None;
        let mut arena = CheckArena::new();
        let start = Instant::now();
        let campaign = tr.open("check.campaign", c as u64, NO_PARENT, start);
        let mut violations = 0u64;
        for schedule in 0..schedules {
            let before = acc;
            let s0 = Instant::now();
            let run = traced_schedule(&cfg, seed, schedule, &mut scratch, &mut acc);
            let s1 = Instant::now();
            acc.total += s1 - s0;
            acc.schedules += 1;
            violations += run.violation.is_some() as u64;
            let d = acc.minus(&before);
            let span = tr.open("check.schedule", schedule, campaign, s0);
            tr.close(span, s1);
            tr.agg(span, "sim.setup", 1, d.setup);
            tr.agg(span, "check.oracle_setup", 1, d.oracle_setup);
            tr.agg(span, "sim.all_terminated", d.steps + 1, d.terminated);
            tr.agg(span, "sim.runnable_agents", d.steps + 1, d.runnable);
            tr.agg(span, "check.adversary", d.steps, d.adversary);
            tr.agg(span, "sim.step_agent", d.steps, d.step);
            tr.agg(span, "sim.step_round", d.rounds, d.round);
            tr.agg(span, "check.oracle", d.events, d.oracle);
            // Fidelity: the copy must reproduce the checker's own run.
            let reference = explore_schedule_in(&cfg, seed, schedule, &mut arena);
            traced += 1;
            mismatches += (reference != run) as u64;
        }
        let end = Instant::now();
        tr.close(campaign, end);
        out.line(format!(
            "columns {label} = {} {} {} {violations}",
            acc.schedules, acc.steps, acc.events
        ));
        wall += acc.total;
        for (layer, d) in [
            ("sim.setup", acc.setup),
            ("check.oracle", acc.oracle + acc.oracle_setup),
            ("sim.all_terminated", acc.terminated),
            ("sim.runnable_agents", acc.runnable),
            ("check.adversary", acc.adversary),
            ("sim.step_agent", acc.step),
            ("sim.step_round", acc.round),
        ] {
            *layers.entry(layer).or_default() += d;
        }
        *layers.entry("other (step loop)").or_default() += acc.total.saturating_sub(acc.named());
        if strategy.is_synchronous() {
            sync_acc.add(&acc);
        } else {
            async_acc.add(&acc);
        }
    }
    let mut all = async_acc;
    all.add(&sync_acc);
    let steps = async_acc.steps;
    out.metric("sim.setup_us", per(all.setup, all.schedules, 1e6));
    out.metric("sim.runnable_ns", per(async_acc.runnable, steps, 1e9));
    out.metric("sim.terminated_ns", per(async_acc.terminated, steps, 1e9));
    out.metric(
        "sim.runnable_len",
        async_acc.runnable_len as f64 / steps.max(1) as f64,
    );
    out.metric("sim.step_ns", per(async_acc.step, steps, 1e9));
    out.metric("sim.round_us", per(sync_acc.round, sync_acc.rounds, 1e6));
    out.metric("check.adversary_ns", per(async_acc.adversary, steps, 1e9));
    out.metric(
        "check.oracle_ns",
        per(all.oracle + all.oracle_setup, all.events, 1e9),
    );
    out.metric(
        "check.loop_other_ns",
        per(all.total.saturating_sub(all.named()), all.steps, 1e9),
    );
    out.metric(
        "check.steps",
        async_acc.steps as f64 / async_acc.schedules.max(1) as f64,
    );
    out.metric(
        "check.events",
        all.events as f64 / all.schedules.max(1) as f64,
    );
    out.metric("scenario.dynamic_mutations", dynamic_mutations);
    out.shares("check", &layers);
    out.line(format!("wall check {}", wall.as_secs_f64()));
    out.line(format!("fidelity check-step-loop {mismatches} {traced}"));
    Ok(())
}

// ---------------------------------------------------------- shrink, report

fn shrink_drill(spec: &Spec, tr: &mut Tracer, out: &mut Out) -> Result<(), String> {
    let dim: u32 = parse_num(flag(&spec.shrink, "--dim").ok_or("shrink without --dim")?, "dim")?;
    let seed: u64 = parse_num(flag(&spec.shrink, "--seed").ok_or("shrink without --seed")?, "seed")?;
    let cfg = CheckConfig::new(CheckStrategy::MutantEagerGuard, dim);
    let start = Instant::now();
    let run = explore_schedule(&cfg, seed, 0);
    let found = Instant::now();
    if run.violation.is_none() {
        return Err(format!("the d={dim} mutant escaped schedule 0"));
    }
    let (_, stats) = shrink(&cfg, run, SHRINK_BUDGET);
    let end = Instant::now();
    let drill = tr.open("check.shrink_drill", 0, NO_PARENT, start);
    tr.span("check.explore", 0, drill, start, found);
    tr.span("check.shrink", 0, drill, found, end);
    tr.close(drill, end);
    out.metric("check.shrink_attempts", stats.attempts as f64);
    out.metric(
        "check.shrink_rerun_ms",
        per(end - found, stats.attempts, 1e3),
    );
    let mut layers = BTreeMap::new();
    layers.insert("check.explore", found - start);
    layers.insert("check.shrink", end - found);
    out.shares("shrink", &layers);
    out.line(format!("wall shrink {}", (end - start).as_secs_f64()));
    Ok(())
}

fn report(spec: &Spec, tr: &mut Tracer, out: &mut Out) -> Result<(), String> {
    let args = &spec.report;
    let mut cfg = if args.iter().any(|a| a == "--full") {
        ExperimentConfig::full()
    } else {
        ExperimentConfig::quick()
    };
    if let Some(m) = flag(args, "--max-dim") {
        cfg.clamp_max_dim(parse_num(m, "max-dim")?);
    }
    let cap = flag(args, "--cache-cap")
        .map(|c| parse_num(c, "cache-cap"))
        .transpose()?;
    // `report <id...|all> --flags`: the ids run up to the first flag.
    let ids: Vec<&str> = args[1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let ids: &[&str] = if ids == ["all"] { ALL_IDS } else { &ids };
    let registry = MetricsRegistry::new();
    let start = Instant::now();
    let report = run_ids_pooled_with(ids, &cfg, 1, cap, &registry);
    let end = Instant::now();
    tr.span("analysis.report", 0, NO_PARENT, start, end);
    let snap = registry.snapshot();
    let span_s = |name: &str| {
        snap.histogram(name)
            .map(|h| h.sum as f64 / 1e6)
            .unwrap_or(0.0)
    };
    let s = &report.summary;
    let lookups = s.cache_hits + s.cache_misses;
    out.metric("analysis.report_warm_s", span_s("span.report.warm_us"));
    out.metric(
        "analysis.report_experiments_s",
        span_s("span.report.experiments_us"),
    );
    out.metric(
        "analysis.report_dedup_share",
        s.cache_hits as f64 / lookups.max(1) as f64,
    );
    // Runs re-executed after eviction: misses beyond the distinct runs,
    // which the same report on an uncapped memo misses exactly once each.
    // (`summary.unique_runs` counts executions, not distinct runs.)
    let distinct = match cap {
        Some(_) => {
            run_ids_pooled_with(ids, &cfg, 1, None, &MetricsRegistry::disabled())
                .summary
                .cache_misses
        }
        None => s.cache_misses,
    };
    out.metric(
        "analysis.report_reexec",
        s.cache_misses.saturating_sub(distinct) as f64,
    );
    let mut layers = BTreeMap::new();
    layers.insert("analysis.warm (runs)", s.warm_wall);
    layers.insert("analysis.experiments", s.experiments_wall);
    out.shares("report", &layers);
    out.line(format!("wall report {}", (end - start).as_secs_f64()));
    let mut rendered = String::new();
    for r in &report.results {
        let _ = writeln!(rendered, "{}", r.render());
    }
    out.line(format!("aux report_stdout_fnv {:016x}", fnv1a64(rendered.as_bytes())));
    Ok(())
}

// ---------------------------------------------------------- single kernels

fn kernels(spec: &Spec, out: &mut Out) {
    // Greedy vs lazy evader on the same CLEAN trace, with the intruder
    // starting at the far corner as in `hypersweep audit` (the audit path
    // picks greedy only up to n = 1024).
    let cube = Hypercube::new(spec.greedy_dim);
    let events = CleanStrategy::new(cube)
        .synthesize(true)
        .1
        .expect("events were recorded");
    let far = Node(cube.node_count() as u32 - 1);
    let time_verify = |greedy: bool| {
        let cfg = MonitorConfig {
            greedy_evader: greedy,
            ..MonitorConfig::with_intruder(far)
        };
        median(
            (0..5)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(verify_trace(&cube, Node::ROOT, &events, cfg));
                    t.elapsed()
                })
                .collect(),
        )
    };
    let greedy = time_verify(true);
    let lazy = time_verify(false);
    out.metric(
        "intruder.greedy_evader_ms",
        (greedy.as_secs_f64() - lazy.as_secs_f64()) * 1e3,
    );

    // CLEAN's fast synthesis at the report's largest dimension.
    let runs: Vec<(Duration, u64)> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let o = execute_run(RunKey::fast(StrategyKind::Clean, spec.clean_fast_dim));
            (t.elapsed(), o.metrics.total_moves())
        })
        .collect();
    let moves = runs[0].1;
    let t = median(runs.into_iter().map(|r| r.0).collect());
    out.metric("core.clean_fast_ns_per_event", per(t, moves, 1e9));

    // NodeSet expand + flood step at the workload's largest n. Bytes are
    // computed from the slices each call reads and writes.
    let d = spec.kernel_dim;
    let n = 1usize << d;
    let mut set = NodeSet::new(n);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..n / 4 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        set.insert(Node((x % n as u64) as u32));
    }
    let mut next = NodeSet::new(n);
    let mut acc = NodeSet::new(n);
    let blocked = NodeSet::new(n);
    let set_bytes = (n.div_ceil(64) * 8) as f64;
    let expand_bytes = if d >= 8 {
        2.0 * set_bytes + 3.0 * set_bytes * (d - 8) as f64
    } else {
        2.0 * set_bytes * f64::from(d)
    };
    let flood_bytes = 5.0 * set_bytes;
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(200) {
        for _ in 0..64 {
            set.hypercube_expand_into(d, &mut next);
            std::hint::black_box(wide::flood_step(
                next.words_mut(),
                acc.words_mut(),
                blocked.words(),
            ));
        }
        iters += 64;
    }
    let secs = start.elapsed().as_secs_f64();
    out.metric(
        "topology.kernel_gbps",
        iters as f64 * (expand_bytes + flood_bytes) / secs / 1e9,
    );
}

fn run(args: &[String]) -> Result<(), String> {
    let [spec_path, spans_path] = args else {
        return Err("usage: perfbench-trace SPEC SPANS".into());
    };
    let spec = parse_spec(spec_path)?;
    let mut tr = Tracer::new();
    let mut out = Out::default();
    serve(&spec, &mut tr, &mut out)?;
    check(&spec, &mut tr, &mut out)?;
    shrink_drill(&spec, &mut tr, &mut out)?;
    report(&spec, &mut tr, &mut out)?;
    kernels(&spec, &mut out);
    tr.write(spans_path)
        .map_err(|e| format!("{spans_path}: {e}"))?;
    print!("{}", out.text);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
