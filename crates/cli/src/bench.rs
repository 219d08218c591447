//! The benchmark commands and the one gate they share.
//!
//! * `bench-audit`: events/s of Algorithm CLEAN's canonical trace through
//!   the [`Verifier`] for `d ∈ {10, 14, 16, 18}` (override with
//!   `BENCH_AUDIT_DIMS=15,16,20`), once with contiguity and frontier checks
//!   after every event (the harness's default) and once sampling them every
//!   [`SAMPLED_STRIDE`] events;
//! * `bench-check`: campaign throughput (schedules/s and oracle events/s)
//!   of the asynchronous paper strategies;
//! * `bench-serve`: one load-generator run against a serving daemon;
//! * `telemetry-gate`: two `bench-serve` reports, one taken with telemetry
//!   on and one with `--no-telemetry`, against the 5% overhead bound.
//!
//! `bench-audit` and `bench-check` time each figure as the fastest of
//! rounds run to a budget (`BENCH_{AUDIT,CHECK}_BUDGET_MS`, default 300).
//! The first three commands write their report to `--out`; with
//! `BENCH_{AUDIT,CHECK,SERVE}_BASELINE=<path>` set they compare it against
//! that committed baseline instead and fail when any gated figure falls
//! more than 25% below it.

use std::str::FromStr;
use std::time::{Duration, Instant};

use hypersweep_analysis::{run_campaign, CheckCampaign};
use hypersweep_check::{CheckConfig, CheckStrategy};
use hypersweep_core::{CleanStrategy, SearchStrategy};
use hypersweep_intruder::Verifier;
use hypersweep_server::{run_bench, BenchConfig};
use hypersweep_telemetry::MetricsRegistry;
use hypersweep_topology::{Hypercube, Node};
use serde::{Deserialize, Serialize, Value};

/// A gated figure fails below this share of its baseline: a drop of more
/// than 25%.
const GATE_RATIO: f64 = 0.75;

/// The telemetry overhead an enabled registry may cost before
/// `telemetry-gate` fails, in percent of bench-serve throughput.
const TELEMETRY_GATE_PCT: f64 = 5.0;

/// `bench-audit`'s sampled stride, kept for comparability with the v1
/// baselines (which predate the incremental connectivity kernel and could
/// not afford per-event checks above `n = 1024`).
const SAMPLED_STRIDE: u64 = 64;

const AUDIT_SCHEMA: &str = "hypersweep-audit-bench/v3";
const CHECK_SCHEMA: &str = "hypersweep-check-bench/v2";

/// What `bench-check` measures: each asynchronous paper strategy at its
/// dimensions (`BENCH_CHECK_DIMS` overrides them all). CLEAN stops at
/// `d = 12`, where one 64-schedule campaign already takes about 9 s.
const BENCH_CHECK_DEFAULTS: [(CheckStrategy, &[u32]); 3] = [
    (CheckStrategy::Cloning, &[10, 12, 14]),
    (CheckStrategy::Clean, &[10, 12]),
    (CheckStrategy::Visibility, &[10, 12, 14]),
];

/// A numeric environment knob, or `default` when it is unset or does not
/// parse.
fn env_or<T: FromStr>(var: &str, default: T) -> T {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A comma-separated list of dimensions, or `None` when `var` is unset.
fn env_dims(var: &str) -> Result<Option<Vec<u32>>, String> {
    let Ok(list) = std::env::var(var) else {
        return Ok(None);
    };
    let dim = |t: &str| {
        t.trim()
            .parse()
            .map_err(|e| format!("{var} entry '{t}': {e}"))
    };
    list.split(',').map(dim).collect::<Result<_, _>>().map(Some)
}

/// Run `round` until `budget` is spent (at least once) and return its
/// fastest time with what that round returned. The minimum is far more
/// stable than the mean on shared machines, which matters for the gate.
fn fastest<T>(
    budget: Duration,
    mut round: impl FnMut() -> Result<T, String>,
) -> Result<(Duration, T), String> {
    let started = Instant::now();
    let mut best = (Duration::MAX, None);
    loop {
        let t = Instant::now();
        let value = std::hint::black_box(round()?);
        let elapsed = t.elapsed();
        if elapsed < best.0 {
            best = (elapsed, Some(value));
        }
        if started.elapsed() >= budget {
            return Ok((best.0, best.1.expect("one round ran")));
        }
    }
}

/// A field of a JSON object; `Null` when it is absent or `value` is not
/// an object.
fn field<'a>(value: &'a Value, name: &str) -> &'a Value {
    serde::get_field(value.as_object().unwrap_or_default(), name)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str_value(&text).map_err(|e| format!("{path} is not JSON: {e}"))
}

/// The committed baseline `var` names, refused unless it declares
/// `schema`; `None` when `var` is unset.
fn baseline<T: Deserialize>(var: &str, schema: &str) -> Result<Option<T>, String> {
    let Ok(path) = std::env::var(var) else {
        return Ok(None);
    };
    let value = read_json(&path)?;
    let found = field(&value, "schema").as_str().unwrap_or_default();
    if found != schema {
        return Err(format!(
            "baseline schema '{found}' != '{schema}'; regenerate {path}"
        ));
    }
    T::deserialize_value(&value)
        .map(Some)
        .map_err(|e| format!("baseline {path} does not parse: {e}"))
}

/// `throughput_rps` of a `bench-serve` report.
fn throughput_rps(path: &str) -> Result<f64, String> {
    f64::deserialize_value(field(&read_json(path)?, "throughput_rps"))
        .map_err(|_| format!("{path} lacks throughput_rps"))
}

fn write_report(out: &str, json: serde_json::Result<String>) -> Result<(), String> {
    let json = json.map_err(|e| e.to_string())?;
    std::fs::write(out, json + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("wrote {out}");
    Ok(())
}

/// One figure a gate compares with its baseline: the name of its ratio
/// line, the measured and the baseline rate, and the line that reports a
/// regression.
struct Figure {
    name: String,
    got: f64,
    expected: f64,
    regression: String,
}

/// Print each figure's share of its baseline; fail, naming every figure
/// that fell below [`GATE_RATIO`], if any did.
fn gate(figures: impl IntoIterator<Item = Figure>) -> Result<(), String> {
    let mut regressions = Vec::new();
    for f in figures {
        let ratio = f.got / f.expected;
        println!("{}: {ratio:.2}x of baseline", f.name);
        if ratio < GATE_RATIO {
            regressions.push(f.regression);
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(regressions.join("\n"))
    }
}

/// `bench-audit`'s figures at one dimension.
#[derive(Serialize, Deserialize)]
struct AuditEntry {
    d: u32,
    events: u64,
    /// The default configuration: contiguity/frontier after every event.
    packed_stride1_events_per_sec: f64,
    /// Checks every [`SAMPLED_STRIDE`] events.
    packed_events_per_sec: f64,
}

/// The committed `BENCH_audit.json` shape.
#[derive(Serialize, Deserialize)]
struct AuditReport {
    schema: String,
    /// Stride of the sampled column (the stride-1 column is, by
    /// definition, 1).
    contiguity_every: u64,
    dims: Vec<AuditEntry>,
}

fn audit_dim(d: u32, budget: Duration) -> Result<AuditEntry, String> {
    let cube = Hypercube::new(d);
    let mut events = Vec::new();
    CleanStrategy::new(cube).synthesize_into(&mut events);
    let n_events = events.len() as u64;
    let rate = |stride: u64| -> Result<f64, String> {
        let (best, ()) = fastest(budget, || {
            let mut verifier = Verifier::new(&cube, Node::ROOT, stride);
            verifier.observe_all(&events);
            if verifier.verdict().monotone {
                Ok(())
            } else {
                Err(format!("the verifier rejected CLEAN's trace on H_{d}"))
            }
        })?;
        Ok(n_events as f64 / best.as_secs_f64())
    };
    let stride1 = rate(1)?;
    println!("audit_throughput/packed-stride1/d{d}: {stride1:.3e} elem/s ({n_events} events)");
    let sampled = rate(SAMPLED_STRIDE)?;
    println!("audit_throughput/packed/d{d}: {sampled:.3e} elem/s");
    Ok(AuditEntry {
        d,
        events: n_events,
        packed_stride1_events_per_sec: stride1,
        packed_events_per_sec: sampled,
    })
}

/// `hypersweep bench-audit`: measure every dimension, then gate against
/// `BENCH_AUDIT_BASELINE` or write the report to `out`.
pub(crate) fn cmd_bench_audit(out: &str) -> Result<(), String> {
    let budget = Duration::from_millis(env_or("BENCH_AUDIT_BUDGET_MS", 300));
    let dims = env_dims("BENCH_AUDIT_DIMS")?.unwrap_or_else(|| vec![10, 14, 16, 18]);
    let report = AuditReport {
        schema: AUDIT_SCHEMA.into(),
        contiguity_every: SAMPLED_STRIDE,
        dims: dims
            .into_iter()
            .map(|d| audit_dim(d, budget))
            .collect::<Result<_, _>>()?,
    };
    let Some(base) = baseline::<AuditReport>("BENCH_AUDIT_BASELINE", AUDIT_SCHEMA)? else {
        return write_report(out, serde_json::to_string_pretty(&report));
    };
    let mut figures = Vec::new();
    for e in &report.dims {
        let Some(b) = base.dims.iter().find(|b| b.d == e.d) else {
            continue;
        };
        // Gate both columns: the sampled column guards the raw
        // event-application kernels, the stride-1 column guards the
        // incremental connectivity queries layered on top.
        let columns = [
            (
                "stride1",
                e.packed_stride1_events_per_sec,
                b.packed_stride1_events_per_sec,
            ),
            ("sampled", e.packed_events_per_sec, b.packed_events_per_sec),
        ];
        for (label, got, expected) in columns {
            figures.push(Figure {
                name: format!("audit_throughput/check/{label}/d{}", e.d),
                got,
                expected,
                regression: format!(
                    "REGRESSION ({label}) at d={}: {got:.3e} events/s vs baseline {expected:.3e} \
                     (>25% slower)",
                    e.d
                ),
            });
        }
    }
    gate(figures)
        .map_err(|e| format!("{e}\naudit throughput regressed against the committed baseline"))
}

/// `bench-check`'s figures for one strategy at one dimension.
#[derive(Serialize, Deserialize)]
struct CheckEntry {
    strategy: String,
    d: u32,
    schedules: u64,
    schedules_per_sec: f64,
    /// Oracle events streamed through the invariant monitors per second.
    events_per_sec: f64,
}

/// The committed `BENCH_check.json` shape.
#[derive(Serialize, Deserialize)]
struct CheckReport {
    schema: String,
    /// Events between region checks: always 1, since the checker runs
    /// them after every event.
    stride: u64,
    jobs: usize,
    runs: Vec<CheckEntry>,
}

fn check_run(
    strategy: CheckStrategy,
    d: u32,
    schedules: u64,
    jobs: usize,
    budget: Duration,
) -> Result<CheckEntry, String> {
    let cfg = CheckConfig::new(strategy, d);
    cfg.validate()?;
    let campaign = CheckCampaign {
        cfg,
        schedules,
        seed: 0,
        planted: None,
    };
    let (best, events) = fastest(budget, || {
        let outcome = run_campaign(&campaign, jobs, &MetricsRegistry::new());
        match outcome.counterexample {
            None => Ok(outcome.events),
            Some(c) => Err(format!(
                "bench campaign found a real violation in {} at d={d} schedule {} — \
                 fix the checker before benchmarking it",
                strategy.name(),
                c.schedule
            )),
        }
    })?;
    let entry = CheckEntry {
        strategy: strategy.name().to_string(),
        d,
        schedules,
        schedules_per_sec: schedules as f64 / best.as_secs_f64(),
        events_per_sec: events as f64 / best.as_secs_f64(),
    };
    println!(
        "bench-check/{}/d{}: {:.3e} schedules/s, {:.3e} oracle events/s ({} schedules, {} events)",
        entry.strategy, d, entry.schedules_per_sec, entry.events_per_sec, schedules, events
    );
    Ok(entry)
}

/// `hypersweep bench-check`: campaign throughput of every strategy in
/// [`BENCH_CHECK_DEFAULTS`], then gate against `BENCH_CHECK_BASELINE` or
/// write the report to `out`.
pub(crate) fn cmd_bench_check(out: &str, jobs: usize) -> Result<(), String> {
    let budget = Duration::from_millis(env_or("BENCH_CHECK_BUDGET_MS", 300));
    let dims = env_dims("BENCH_CHECK_DIMS")?;
    let schedules = env_or("BENCH_CHECK_SCHEDULES", 64);
    let mut runs = Vec::new();
    for (strategy, own) in BENCH_CHECK_DEFAULTS {
        for &d in dims.as_deref().unwrap_or(own) {
            runs.push(check_run(strategy, d, schedules, jobs, budget)?);
        }
    }
    let report = CheckReport {
        schema: CHECK_SCHEMA.into(),
        stride: 1,
        jobs,
        runs,
    };
    let Some(base) = baseline::<CheckReport>("BENCH_CHECK_BASELINE", CHECK_SCHEMA)? else {
        return write_report(out, serde_json::to_string_pretty(&report));
    };
    let mut figures = Vec::new();
    for e in &report.runs {
        let same = |b: &&CheckEntry| b.strategy == e.strategy && b.d == e.d;
        let Some(b) = base.runs.iter().find(same) else {
            continue;
        };
        let columns = [
            ("schedules", e.schedules_per_sec, b.schedules_per_sec),
            ("events", e.events_per_sec, b.events_per_sec),
        ];
        for (label, got, expected) in columns {
            figures.push(Figure {
                name: format!("bench-check/gate/{}/{label}/d{}", e.strategy, e.d),
                got,
                expected,
                regression: format!(
                    "REGRESSION ({label}) in {} at d={}: {got:.3e}/s vs baseline \
                     {expected:.3e}/s (>25% slower)",
                    e.strategy, e.d
                ),
            });
        }
    }
    gate(figures).map_err(|e| format!("{e}\nbench-check regressed against the committed baseline"))
}

/// `hypersweep bench-serve`: one load run, then gate its throughput
/// against `BENCH_SERVE_BASELINE` or write the report to `out`.
pub(crate) fn cmd_bench_serve(cfg: &BenchConfig, out: &str) -> Result<(), String> {
    let report = run_bench(cfg).map_err(|e| format!("bench against {} failed: {e}", cfg.addr))?;
    println!(
        "bench-serve: {} connections x {} requests over {} (depth {}) -> {:.0} req/s \
         (p50 {:.0}us, p99 {:.0}us, {:.0}% cache hits, {:.0}% table hits, {} busy, {} errors)",
        report.clients,
        report.requests_per_client,
        report.transport,
        report.pipeline_depth,
        report.throughput_rps,
        report.p50_us,
        report.p99_us,
        report.cache_hit_rate * 100.0,
        report.table_hit_rate * 100.0,
        report.busy,
        report.errors,
    );
    let Ok(path) = std::env::var("BENCH_SERVE_BASELINE") else {
        return write_report(out, Ok(report.to_json()));
    };
    let (got, expected) = (report.throughput_rps, throughput_rps(&path)?);
    gate([Figure {
        name: "bench-serve/check".into(),
        got,
        expected,
        regression: format!("REGRESSION: {got:.0} req/s vs baseline {expected:.0} (>25% slower)"),
    }])
}

/// The `BENCH_telemetry.json` shape.
#[derive(Serialize)]
struct TelemetryReport {
    telemetry_on_rps: f64,
    telemetry_off_rps: f64,
    overhead_pct: f64,
    gate_pct: f64,
    pass: bool,
}

/// `hypersweep telemetry-gate`: compare two `bench-serve` reports, one
/// taken with telemetry on and one with `--no-telemetry`, and fail if the
/// instrumented daemon lost more than [`TELEMETRY_GATE_PCT`] of its
/// throughput. Writes the comparison to `out` (CI commits it as
/// `BENCH_telemetry.json`).
pub(crate) fn cmd_telemetry_gate(
    with_path: &str,
    without_path: &str,
    out: &str,
) -> Result<(), String> {
    let with_rps = throughput_rps(with_path)?;
    let without_rps = throughput_rps(without_path)?;
    if without_rps <= 0.0 {
        return Err(format!("baseline {without_path} reports zero throughput"));
    }
    let overhead_pct = (1.0 - with_rps / without_rps) * 100.0;
    println!(
        "telemetry-gate: {with_rps:.0} req/s instrumented vs {without_rps:.0} req/s bare \
         ({overhead_pct:+.1}% overhead, gate {TELEMETRY_GATE_PCT:.0}%)"
    );
    let report = TelemetryReport {
        telemetry_on_rps: with_rps,
        telemetry_off_rps: without_rps,
        overhead_pct,
        gate_pct: TELEMETRY_GATE_PCT,
        pass: overhead_pct <= TELEMETRY_GATE_PCT,
    };
    write_report(out, serde_json::to_string(&report))?;
    if overhead_pct > TELEMETRY_GATE_PCT {
        return Err(format!(
            "REGRESSION: telemetry costs {overhead_pct:.1}% of throughput \
             (gate: {TELEMETRY_GATE_PCT:.0}%)"
        ));
    }
    Ok(())
}
