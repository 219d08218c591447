//! `hypersweep` — command-line interface regenerating the paper's tables
//! and figures.
//!
//! ```text
//! hypersweep list                         # experiment index
//! hypersweep report all [--full] [--json DIR]
//! hypersweep report t3 t5 [--full]
//! hypersweep figures                      # f1–f4 only
//! hypersweep run clean 6 --policy random:7
//! hypersweep run visibility 8 --policy synchronous
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use hypersweep_analysis::experiments::ALL_IDS;
use hypersweep_analysis::{
    default_jobs, run_ids_pooled_with, runner, validate_cache_cap, validate_cache_shards,
    validate_max_dim, ExperimentConfig,
};
use hypersweep_check::{CheckConfig, CheckStrategy, ReplayFile};
use hypersweep_core::{
    CleanStrategy, CloningStrategy, SearchStrategy, SynchronousStrategy, VisibilityStrategy,
};
use hypersweep_intruder::{render_film, verify_trace, MonitorConfig};
use hypersweep_scenario::{GridStrategy, ScenarioId};
use hypersweep_server::{run_bench, BenchConfig, Server, ServerLimits};
use hypersweep_sim::{Event, Policy};
use hypersweep_topology::{GridInstance, Hypercube, Node};
use serde::Deserialize as _;

fn usage() -> &'static str {
    "usage:\n\
     \thypersweep list\n\
     \thypersweep report <id...|all> [--full] [--max-dim N] [--json DIR] [--jobs N] [--cache-cap N] [--timings]\n\
     \thypersweep figures [--full]\n\
     \thypersweep run <clean|visibility|cloning|synchronous> <d> [--policy P] [--fast]\n\
     \thypersweep watch <strategy> <d> [--stride N]\n\
     \thypersweep trace <strategy> <d> <out.json>\n\
     \thypersweep audit <d> <trace.json>\n\
     \thypersweep check [--strategy S|all] [--dim D] [--campaign-size N] [--seed K] [--jobs N]\n\
     \t                 [--max-steps N] [--stride N] [--plant I] [--timings] [--out FILE]\n\
     \t                 [--scenario hypercube|grid|dynamic] [--instance full|holes:<seed>|corridor]\n\
     \thypersweep check --replay FILE\n\
     \thypersweep bench-check [--jobs N] [--out FILE]   (env: BENCH_CHECK_DIMS, BENCH_CHECK_SCHEDULES,\n\
     \t                 BENCH_CHECK_STRATEGY, BENCH_CHECK_BUDGET_MS, BENCH_CHECK_BASELINE)\n\
     \thypersweep serve [--addr HOST:PORT] [--uds PATH] [--max-dim N] [--jobs N] [--cache-cap N]\n\
     \t                 [--cache-shards N] [--timeout-ms N] [--metrics-file FILE]\n\
     \t                 [--metrics-interval-ms N] [--no-telemetry] [--persist FILE]\n\
     \t                 [--state-file FILE] [--log-file FILE]\n\
     \thypersweep daemon <start|status|stop|restart> [--state-dir DIR] [--force]\n\
     \t                 [+ any serve flag, forwarded to the managed daemon]\n\
     \thypersweep bench-serve [--addr HOST:PORT] [--uds PATH] [--connections N] [--requests N]\n\
     \t                       [--pipeline-depth N] [--max-dim N] [--out FILE]\n\
     \thypersweep telemetry-gate <with.json> <without.json> [--out FILE]\n\
     \n\
     policies: fifo, lifo, round-robin, random:<seed>, synchronous\n\
     check strategies: clean, visibility, cloning, synchronous, mutant-eager-guard, all\n\
     scenario strategies (--scenario grid|dynamic): sweep, mutant-grid-leaky-guard, all\n\
     experiment ids: f1 f2 f3 f4 t2 t3 t4 t5 t6 t7 t8 t9 t10 e11 e12 e13 e14 e15 e16\n\
     report ids also accept: scenarios (registry comparison table)"
}

fn parse_policy(s: &str) -> Result<Policy, String> {
    match s {
        "fifo" => Ok(Policy::Fifo),
        "lifo" => Ok(Policy::Lifo),
        "round-robin" => Ok(Policy::RoundRobin),
        "synchronous" => Ok(Policy::Synchronous),
        other => {
            if let Some(seed) = other.strip_prefix("random:") {
                seed.parse()
                    .map(Policy::Random)
                    .map_err(|e| format!("bad seed in '{other}': {e}"))
            } else {
                Err(format!("unknown policy '{other}'"))
            }
        }
    }
}

fn cmd_list() {
    println!("experiments (see DESIGN.md section 3):");
    for id in ALL_IDS {
        let what = match *id {
            "f1" => "Figure 1 - broadcast tree T(d) / heap-queue structure",
            "f2" => "Figure 2 - cleaning order of Algorithm CLEAN",
            "f3" => "Figure 3 - msb classes C_0..C_d",
            "f4" => "Figure 4 - visibility strategy wavefronts",
            "t2" => "Theorem 2 - CLEAN team size",
            "t3" => "Theorem 3 - CLEAN moves",
            "t4" => "Theorem 4 - CLEAN ideal time",
            "t5" => "Theorem 5 - visibility agents = n/2",
            "t6" => "Theorems 1/6 - monotonicity under every adversary",
            "t7" => "Theorem 7 - visibility time = log n",
            "t8" => "Theorem 8 - visibility moves",
            "t9" => "section 5 - cloning variant (n-1 moves)",
            "t10" => "section 5 - synchronous variant",
            "e11" => "strategy trade-off comparison",
            "e12" => "baselines and exact bounds",
            "e13" => "ablations: navigation and dispatch order",
            "e14" => "the open problem: team-size bounds",
            "e15" => "capture dynamics across schedules",
            "e16" => "contiguous search on classic networks",
            _ => "",
        };
        println!("  {id:>4}  {what}");
    }
}

fn cmd_report(
    ids: &[String],
    full: bool,
    max_dim: Option<u32>,
    json_dir: Option<PathBuf>,
    jobs: usize,
    cache_cap: Option<usize>,
    timings: bool,
) -> Result<(), String> {
    let mut cfg = if full {
        ExperimentConfig::full()
    } else {
        ExperimentConfig::quick()
    };
    if let Some(cap) = max_dim {
        cfg.clamp_max_dim(cap);
    }
    let ids: Vec<String> = if ids.iter().any(|i| i == "all") {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        ids.to_vec()
    };
    for id in &ids {
        if !ALL_IDS.contains(&id.as_str()) {
            return Err(format!("unknown experiment '{id}'"));
        }
    }
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    // Telemetry is recorded only when the phase table was asked for; the
    // disabled registry keeps the default path zero-cost.
    let registry = if timings {
        hypersweep_telemetry::MetricsRegistry::new()
    } else {
        hypersweep_telemetry::MetricsRegistry::disabled()
    };
    let report = run_ids_pooled_with(&id_refs, &cfg, jobs, cache_cap, &registry);
    for r in &report.results {
        println!("{}", r.render());
    }
    // Pool/cache statistics go to stderr so stdout stays the report alone.
    eprintln!("{}", report.summary.render());
    for (id, t) in &report.summary.experiment_timings {
        eprintln!("  {id:>4}: {:.0}ms", t.as_secs_f64() * 1e3);
    }
    if timings {
        render_timings(&registry.snapshot(), &report.summary);
    }
    if let Some(dir) = json_dir {
        let paths = runner::export_json(&report.results, &dir).map_err(|e| e.to_string())?;
        eprintln!("wrote {} JSON files under {}", paths.len(), dir.display());
    }
    Ok(())
}

/// The `report --timings` phase table, rendered from the telemetry spans
/// the harness recorded (`span.report.*_us`, `experiment.<id>_us`) plus
/// the pool's job-latency histogram.
fn render_timings(
    snapshot: &hypersweep_telemetry::MetricsSnapshot,
    summary: &hypersweep_analysis::RunSummary,
) {
    let span_ms = |name: &str| {
        snapshot
            .histogram(name)
            .map(|h| h.sum as f64 / 1e3)
            .unwrap_or(0.0)
    };
    eprintln!("phase timings (telemetry spans):");
    eprintln!("  {:<16} {:>10}", "phase", "wall");
    eprintln!("  {:<16} {:>8.0}ms", "warm", span_ms("span.report.warm_us"));
    eprintln!(
        "  {:<16} {:>8.0}ms",
        "experiments",
        span_ms("span.report.experiments_us")
    );
    eprintln!("  {:<16} {:>8.0}ms", "report", span_ms("span.report_us"));
    eprintln!("per-experiment spans:");
    for (id, _) in &summary.experiment_timings {
        eprintln!(
            "  {:<16} {:>8.1}ms",
            id,
            span_ms(&format!("experiment.{id}_us"))
        );
    }
    if let Some(jobs) = snapshot.histogram("pool.job_us") {
        eprintln!(
            "pool: {} jobs, mean {:.1}ms/job",
            jobs.count,
            jobs.mean().unwrap_or(0.0) / 1e3
        );
    }
}

fn cmd_run(strategy: &str, d: u32, policy: Policy, fast: bool) -> Result<(), String> {
    let cube = Hypercube::new(d);
    let s = make_strategy(strategy, cube)?;
    let outcome = if fast {
        s.fast(d <= ExperimentConfig::quick().audit_max_dim)
    } else {
        s.run(policy).map_err(|e| e.to_string())?
    };
    println!(
        "{} on H_{d} (n = {}) under {}:",
        s.name(),
        cube.node_count(),
        if fast {
            "fast path".into()
        } else {
            policy.name()
        }
    );
    let m = &outcome.metrics;
    println!("  agents          : {}", m.team_size);
    println!("  worker moves    : {}", m.worker_moves);
    println!("  synchronizer    : {}", m.coordinator_moves);
    println!("  total moves     : {}", m.total_moves());
    if let Some(t) = m.ideal_time {
        println!("  ideal time      : {t}");
    }
    println!("  peak away       : {}", m.peak_away);
    println!("  whiteboard bits : {}", m.peak_board_bits);
    let v = &outcome.verdict;
    println!(
        "  verdict         : monotone={} contiguous={} all_clean={} capture={:?}",
        v.monotone, v.contiguous, v.all_clean, v.capture
    );
    if !outcome.is_complete() {
        return Err("search did not complete correctly".into());
    }
    Ok(())
}

fn make_strategy(name: &str, cube: Hypercube) -> Result<Box<dyn SearchStrategy>, String> {
    Ok(match name {
        "clean" => Box::new(CleanStrategy::new(cube)),
        "visibility" => Box::new(VisibilityStrategy::new(cube)),
        "cloning" => Box::new(CloningStrategy::new(cube)),
        "synchronous" => Box::new(SynchronousStrategy::new(cube)),
        other => return Err(format!("unknown strategy '{other}'")),
    })
}

fn strategy_trace(name: &str, cube: Hypercube) -> Result<Vec<Event>, String> {
    let events = match name {
        "clean" => CleanStrategy::new(cube).synthesize(true).1,
        "visibility" | "synchronous" => VisibilityStrategy::new(cube).synthesize(true).1,
        "cloning" => CloningStrategy::new(cube).synthesize(true).1,
        other => return Err(format!("unknown strategy '{other}'")),
    };
    events.ok_or_else(|| "trace recording disabled".into())
}

fn cmd_watch(strategy: &str, d: u32, stride: usize) -> Result<(), String> {
    let cube = Hypercube::new(d);
    let events = strategy_trace(strategy, cube)?;
    let far = Node(cube.node_count() as u32 - 1);
    let frames = render_film(cube, &events, stride, Some(far));
    for frame in &frames {
        println!(
            "--- after event {} ({} contaminated) ---",
            frame.events_applied, frame.contaminated
        );
        print!("{}", frame.text);
    }
    println!("{} frames, {} events total", frames.len(), events.len());
    Ok(())
}

fn cmd_trace(strategy: &str, d: u32, path: &str) -> Result<(), String> {
    let cube = Hypercube::new(d);
    let events = strategy_trace(strategy, cube)?;
    let json = serde_json::to_string(&events).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| e.to_string())?;
    eprintln!("wrote {} events to {path}", events.len());
    Ok(())
}

fn cmd_audit(d: u32, path: &str) -> Result<(), String> {
    let cube = Hypercube::new(d);
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let events: Vec<Event> = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let far = Node(cube.node_count() as u32 - 1);
    let verdict = verify_trace(
        &cube,
        Node::ROOT,
        &events,
        MonitorConfig::with_intruder(far),
    );
    println!(
        "audit of {path} on H_{d}: monotone={} contiguous={} all_clean={} capture={:?}          ({} events, {} violations)",
        verdict.monotone,
        verdict.contiguous,
        verdict.all_clean,
        verdict.capture,
        verdict.events,
        verdict.violations.len()
    );
    for v in verdict.violations.iter().take(10) {
        println!("  violation: {v:?}");
    }
    if verdict.is_complete() {
        Ok(())
    } else {
        Err("trace is not a correct complete search".into())
    }
}

/// Campaign knobs for `hypersweep check` beyond the checking problem
/// itself (`--campaign-size`/`--schedules`, `--seed`, `--jobs`,
/// `--max-steps`, `--stride`, `--plant`, `--timings`).
struct CheckCampaignOpts {
    schedules: u64,
    seed: u64,
    jobs: usize,
    max_steps: u64,
    stride: u64,
    planted: Option<u64>,
    timings: bool,
}

/// The `check --timings` phase table: campaign/shrink spans, the
/// per-schedule latency histogram, and the streaming executor's slice
/// accounting, all under the given telemetry prefix (`check` for the
/// hypercube checker, `scenario` for the scenario driver).
fn render_campaign_timings(snapshot: &hypersweep_telemetry::MetricsSnapshot, prefix: &str) {
    let span_ms = |name: &str| {
        snapshot
            .histogram(name)
            .map(|h| h.sum as f64 / 1e3)
            .unwrap_or(0.0)
    };
    eprintln!("campaign phase timings (telemetry spans):");
    eprintln!(
        "  {:<16} {:>8.0}ms",
        "campaigns",
        span_ms(&format!("span.{prefix}.campaign_us"))
    );
    eprintln!(
        "  {:<16} {:>8.0}ms",
        "shrink",
        span_ms(&format!("span.{prefix}.shrink_us"))
    );
    if let Some(h) = snapshot.histogram(&format!("{prefix}.schedule_us")) {
        eprintln!(
            "  {:<16} {} schedules, mean {:.2}ms, max {:.2}ms",
            "schedules",
            h.count,
            h.mean().unwrap_or(0.0) / 1e3,
            h.max.unwrap_or(0) as f64 / 1e3,
        );
    }
    eprintln!(
        "  {:<16} {} claimed, {} skipped past the cutoff",
        "slices",
        snapshot.counter(&format!("{prefix}.slices")).unwrap_or(0),
        snapshot
            .counter(&format!("{prefix}.slices_skipped"))
            .unwrap_or(0),
    );
}

/// `hypersweep check`: explore adversarial schedules against the paper's
/// invariants; any counterexample is shrunk and written as a replay file.
fn cmd_check(
    strategy: &str,
    dim: u32,
    opts: &CheckCampaignOpts,
    out: Option<&str>,
) -> Result<(), String> {
    let CheckCampaignOpts {
        schedules,
        seed,
        jobs,
        max_steps,
        stride,
        planted,
        timings,
    } = *opts;
    let schedules = hypersweep_analysis::validate_campaign_size(schedules)?;
    if stride > 0 {
        hypersweep_analysis::validate_stride(stride)?;
    }
    if let Some(p) = planted {
        if p >= schedules {
            return Err(format!(
                "--plant {p} is outside the campaign (valid range is 0..{schedules})"
            ));
        }
    }
    let strategies: Vec<CheckStrategy> = if strategy == "all" {
        CheckStrategy::PAPER.to_vec()
    } else {
        vec![CheckStrategy::parse(strategy)
            .ok_or_else(|| format!("unknown check strategy '{strategy}'"))?]
    };
    let registry = hypersweep_telemetry::MetricsRegistry::new();
    let mut outcomes = Vec::new();
    for s in strategies {
        let mut cfg = CheckConfig::new(s, dim);
        cfg.max_steps = max_steps;
        cfg.stride = stride;
        cfg.validate()?;
        outcomes.push(hypersweep_analysis::run_campaign(
            &hypersweep_analysis::CheckCampaign {
                cfg,
                schedules,
                seed,
                planted,
            },
            jobs,
            &registry,
        ));
    }
    println!(
        "{}",
        hypersweep_analysis::campaign_table(&outcomes).render()
    );
    let snap = registry.snapshot();
    eprintln!(
        "check: {} schedules, {} steps, {} events, {} violations \
         (mean {:.2}ms/schedule, {jobs} jobs)",
        snap.counter("check.schedules").unwrap_or(0),
        snap.counter("check.steps").unwrap_or(0),
        snap.counter("check.events").unwrap_or(0),
        snap.counter("check.violations").unwrap_or(0),
        snap.histogram("check.schedule_us")
            .and_then(|h| h.mean())
            .unwrap_or(0.0)
            / 1e3,
    );
    if timings {
        render_campaign_timings(&snap, "check");
    }
    let failed: Vec<&hypersweep_analysis::CampaignOutcome> = outcomes
        .iter()
        .filter(|o| o.counterexample.is_some())
        .collect();
    if let Some(first) = failed.first() {
        let replay = first.counterexample.as_ref().expect("filtered");
        let path = out.unwrap_or("counterexample.json");
        std::fs::write(path, replay.to_json() + "\n").map_err(|e| e.to_string())?;
        eprintln!(
            "wrote shrunk counterexample ({} decisions) to {path}; \
             reproduce with: hypersweep check --replay {path}",
            replay.decisions.len()
        );
        return Err(format!(
            "{} of {} campaigns found invariant violations",
            failed.len(),
            outcomes.len()
        ));
    }
    Ok(())
}

/// `hypersweep check --scenario grid|dynamic`: explore adversarial
/// schedules with the scenario campaign driver instead of the hypercube
/// checker. `--dim` doubles as the grid side; `--instance` picks the
/// topology generator.
fn cmd_check_scenario(
    id: ScenarioId,
    strategy: &str,
    side: u32,
    instance: Option<&str>,
    opts: &CheckCampaignOpts,
) -> Result<(), String> {
    let CheckCampaignOpts {
        schedules,
        seed,
        jobs,
        max_steps,
        stride,
        planted,
        timings,
    } = *opts;
    let schedules = hypersweep_analysis::validate_campaign_size(schedules)?;
    if stride > 1 {
        return Err(
            "--stride applies only to the hypercube checker; scenario oracles verify every event"
                .into(),
        );
    }
    if planted.is_some() {
        return Err(
            "--plant applies only to the hypercube checker; scenario campaigns have no \
             planted-violation harness"
                .into(),
        );
    }
    let instance = match instance {
        None => None,
        Some(text) => Some(GridInstance::parse(text).ok_or_else(|| {
            format!("bad --instance '{text}': expected full|holes:<seed>|corridor")
        })?),
    };
    let scenario =
        hypersweep_scenario::validate_scenario(id, side, instance.unwrap_or(GridInstance::Full))?
            .expect("hypercube is routed to cmd_check");
    let instance = instance.unwrap_or_else(|| scenario.default_instance());
    let strategies: Vec<GridStrategy> = match strategy {
        // "all" is the hypercube default; for scenarios it means the
        // shipping strategy (the mutant is an explicit negative control).
        "all" | "sweep" => vec![GridStrategy::Sweep],
        other => vec![GridStrategy::parse(other).ok_or_else(|| {
            format!(
                "unknown scenario strategy '{other}' (expected sweep or mutant-grid-leaky-guard)"
            )
        })?],
    };
    let registry = hypersweep_telemetry::MetricsRegistry::new();
    let mut outcomes = Vec::new();
    for s in strategies {
        let campaign = scenario.campaign(s, side, instance, schedules, seed, max_steps);
        outcomes.push(hypersweep_scenario::run_scenario_campaign(
            &campaign, jobs, &registry,
        ));
    }
    println!(
        "{}",
        hypersweep_scenario::scenario_table(&outcomes).render()
    );
    let snap = registry.snapshot();
    eprintln!(
        "scenario: {} schedules, {} steps, {} events, {} violations, \
         {} mutations ({} rejected) (mean {:.2}ms/schedule, {jobs} jobs)",
        snap.counter("scenario.schedules").unwrap_or(0),
        snap.counter("scenario.steps").unwrap_or(0),
        snap.counter("scenario.events").unwrap_or(0),
        snap.counter("scenario.violations").unwrap_or(0),
        snap.counter("scenario.dynamic.mutations").unwrap_or(0),
        snap.counter("scenario.dynamic.rejected").unwrap_or(0),
        snap.histogram("scenario.schedule_us")
            .and_then(|h| h.mean())
            .unwrap_or(0.0)
            / 1e3,
    );
    if timings {
        render_campaign_timings(&snap, "scenario");
    }
    let failed: Vec<&hypersweep_scenario::ScenarioOutcome> = outcomes
        .iter()
        .filter(|o| o.counterexample.is_some())
        .collect();
    if let Some(first) = failed.first() {
        let c = first.counterexample.as_ref().expect("filtered");
        eprintln!(
            "first counterexample: schedule {} under the {} adversary, \
             {} decisions, violation: {}",
            c.schedule,
            c.adversary,
            c.decisions.len(),
            c.violation
        );
        return Err(format!(
            "{} of {} scenario campaigns found invariant violations",
            failed.len(),
            outcomes.len()
        ));
    }
    Ok(())
}

/// `hypersweep report scenarios`: the registry comparison table —
/// closed-form team predictions (where the literature gives one) against
/// the measured reference run for every scenario/instance pair.
fn cmd_report_scenarios(side: u32) -> Result<(), String> {
    let mut table = hypersweep_analysis::Table::new(
        format!("scenario registry @ side {side}"),
        &[
            "scenario",
            "strategy",
            "instance",
            "nodes",
            "team",
            "closed-form",
            "moves",
            "rounds",
            "churn",
            "verdict",
        ],
    );
    for scenario in hypersweep_scenario::registry() {
        scenario.validate(side)?;
        let instances = match scenario.id() {
            ScenarioId::Grid => vec![
                GridInstance::Full,
                scenario.default_instance(),
                GridInstance::Corridor,
            ],
            _ => vec![scenario.default_instance()],
        };
        for instance in instances {
            let r = scenario.reference(side, instance);
            table.push_row(vec![
                scenario.id().label().to_string(),
                scenario.strategy_label().to_string(),
                instance.label(),
                r.nodes.to_string(),
                r.team.to_string(),
                scenario
                    .closed_form_team(side, instance)
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                r.moves.to_string(),
                r.rounds.to_string(),
                if r.mutations + r.rejected > 0 {
                    format!("{}/{}", r.mutations, r.mutations + r.rejected)
                } else {
                    "-".to_string()
                },
                if r.captured && r.violations == 0 {
                    "ok".to_string()
                } else {
                    "FAIL".to_string()
                },
            ]);
        }
    }
    println!("{}", table.render());
    for scenario in hypersweep_scenario::registry() {
        println!("  {}: {}", scenario.id().label(), scenario.summary());
    }
    Ok(())
}

/// `hypersweep check --replay`: re-execute a recorded counterexample and
/// demand the recorded violation, step-exact. Output is deterministic —
/// two consecutive runs print identical bytes.
fn cmd_check_replay(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let replay = ReplayFile::from_json(&text).map_err(|e| e.to_string())?;
    println!(
        "replay {path}: {} on H_{} (campaign seed {}, schedule {}, adversary {}, {} decisions)",
        replay.strategy,
        replay.dim,
        replay.campaign_seed,
        replay.schedule,
        replay.adversary,
        replay.decisions.len()
    );
    println!("expected violation: {}", replay.violation);
    let run = replay.verify().map_err(|e| e.to_string())?;
    println!(
        "reproduced exactly: {} steps, {} events, violation at step {} event {}",
        run.steps, run.events, replay.violation.step, replay.violation.event
    );
    Ok(())
}

fn cmd_serve(
    addr: &str,
    limits: ServerLimits,
    state_file: Option<PathBuf>,
    log_file: Option<PathBuf>,
) -> Result<(), String> {
    // Route the reactor/pool/cache log lines into the rotating daemon log
    // before binding, so the warm-load report lands there too.
    if let Some(path) = &log_file {
        let log = std::sync::Arc::new(
            hypersweep_daemon::RotatingLog::open(path)
                .map_err(|e| format!("cannot open log file {}: {e}", path.display()))?,
        );
        hypersweep_telemetry::install_logger(std::sync::Arc::new(move |line: &str| {
            log.log(line);
        }));
    }
    let server =
        Server::bind(addr, limits.clone()).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    // Publish the managed-daemon state once bound: `hypersweep daemon
    // start` polls for this file as the readiness signal, and `status`/
    // `stop` operate on it.
    if let Some(path) = &state_file {
        let state = hypersweep_daemon::DaemonState {
            pid: std::process::id(),
            addr: bound.to_string(),
            uds: limits.uds_path.as_ref().map(|p| p.display().to_string()),
            started_unix_ms: hypersweep_daemon::now_unix_ms(),
            version: env!("CARGO_PKG_VERSION").to_string(),
        };
        state
            .write(path)
            .map_err(|e| format!("cannot write state file {}: {e}", path.display()))?;
        hypersweep_telemetry::log_line(&format!(
            "daemon: pid {} serving {bound}, state in {}",
            state.pid,
            path.display()
        ));
    }
    eprintln!(
        "hypersweep-server listening on {bound} \
         ({} workers, max dim {}, cache cap {} x{} shards, telemetry {})",
        limits.workers,
        limits.max_dim,
        limits
            .cache_capacity
            .map(|c| c.to_string())
            .unwrap_or_else(|| "unbounded".into()),
        limits.cache_shards,
        if limits.telemetry { "on" } else { "off" },
    );
    if let Some(path) = &limits.uds_path {
        eprintln!("also listening on unix socket {}", path.display());
    }
    if let Some(path) = &limits.metrics_file {
        eprintln!(
            "exporting metrics to {} every {:.1}s",
            path.display(),
            limits.metrics_interval.as_secs_f64()
        );
    }
    hypersweep_server::daemon::install_sigint_handler();
    let outcome = server.run().map_err(|e| e.to_string());
    // A graceful drain (even one that errored) retires this process's
    // claim; crashes leave the file behind for stale-state cleanup.
    if let Some(path) = &state_file {
        let _ = hypersweep_daemon::DaemonState::remove(path);
        hypersweep_telemetry::log_line("daemon: drained, state file removed");
    }
    let stats = outcome?;
    eprintln!(
        "drained after {:.1}s: {} plan / {} predict / {} audit / {} status / {} metrics, \
         {} errors, {} busy, {} timeouts",
        stats.uptime_ms as f64 / 1e3,
        stats.served.plan,
        stats.served.predict,
        stats.served.audit,
        stats.served.status,
        stats.served.metrics,
        stats.served.errors,
        stats.served.busy,
        stats.served.timeouts,
    );
    Ok(())
}

/// Flags that consume a value — used when re-walking the raw argv to
/// forward serve flags to a managed daemon child.
const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--uds",
    "--max-dim",
    "--jobs",
    "--cache-cap",
    "--cache-shards",
    "--timeout-ms",
    "--metrics-file",
    "--metrics-interval-ms",
    "--persist",
    "--state-file",
    "--log-file",
    "--state-dir",
];

/// Everything from the raw argv that should reach the managed daemon's
/// `serve` child: serve flags pass through, daemon-only flags
/// (`--state-dir`, `--force`) and the positionals (`daemon <action>`)
/// are dropped.
fn forwarded_serve_args(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg == "--state-dir" {
            i += 2;
        } else if arg == "--force" {
            i += 1;
        } else if VALUE_FLAGS.contains(&arg) {
            out.push(args[i].clone());
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
            i += 2;
        } else if arg.starts_with("--") {
            // Boolean serve flags (--no-telemetry).
            out.push(args[i].clone());
            i += 1;
        } else {
            // Positionals: `daemon` and its action.
            i += 1;
        }
    }
    out
}

/// Append `flag default` unless the forwarded args already carry it.
fn ensure_flag(args: &mut Vec<String>, flag: &str, default: &std::path::Path) {
    if !args.iter().any(|a| a == flag) {
        args.push(flag.to_string());
        args.push(default.display().to_string());
    }
}

/// `hypersweep daemon <start|status|stop|restart>`: managed lifecycle
/// over a state directory. `status` exits 0 when running and 3 when not,
/// so scripts can branch without parsing output.
fn cmd_daemon(
    action: &str,
    state_dir: PathBuf,
    force: bool,
    mut forwarded: Vec<String>,
) -> Result<ExitCode, String> {
    use hypersweep_daemon as daemon;
    let paths = daemon::DaemonPaths::new(state_dir);
    match action {
        "status" => match daemon::status(&paths).map_err(|e| e.to_string())? {
            daemon::StatusOutcome::Running(state) => {
                let uptime_s = hypersweep_daemon::now_unix_ms()
                    .saturating_sub(state.started_unix_ms) as f64
                    / 1e3;
                let uds = state
                    .uds
                    .as_deref()
                    .map(|u| format!(", uds {u}"))
                    .unwrap_or_default();
                println!(
                    "running: pid {} on {} (v{}, up {uptime_s:.1}s{uds})",
                    state.pid, state.addr, state.version
                );
                Ok(ExitCode::SUCCESS)
            }
            daemon::StatusOutcome::Stale(state) => {
                println!(
                    "not running (stale state: pid {} on {})",
                    state.pid, state.addr
                );
                Ok(ExitCode::from(3))
            }
            daemon::StatusOutcome::NotRunning => {
                println!("not running");
                Ok(ExitCode::from(3))
            }
        },
        "stop" => match daemon::stop(&paths, daemon::DEFAULT_STOP_GRACE)? {
            daemon::StopOutcome::Stopped { pid, forced } => {
                println!(
                    "stopped pid {pid}{}",
                    if forced {
                        " (SIGKILL after the grace period)"
                    } else {
                        ""
                    }
                );
                Ok(ExitCode::SUCCESS)
            }
            daemon::StopOutcome::WasStale => {
                println!("cleaned up stale state; nothing was running");
                Ok(ExitCode::SUCCESS)
            }
            daemon::StopOutcome::NotRunning => {
                println!("nothing to stop");
                Ok(ExitCode::SUCCESS)
            }
        },
        "start" | "restart" => {
            let exe = std::env::current_exe()
                .map_err(|e| format!("cannot resolve own executable: {e}"))?;
            // The managed defaults live under the state dir; explicit
            // serve flags win.
            ensure_flag(&mut forwarded, "--uds", &paths.socket_file());
            ensure_flag(&mut forwarded, "--state-file", &paths.state_file());
            ensure_flag(&mut forwarded, "--log-file", &paths.log_file());
            ensure_flag(&mut forwarded, "--persist", &paths.cache_file());
            let mut args = vec!["serve".to_string()];
            args.append(&mut forwarded);
            let mut opts = daemon::StartOptions::new(exe, args);
            opts.force = force;
            let state = if action == "restart" {
                daemon::restart(&paths, &opts)?
            } else {
                daemon::start(&paths, &opts)?
            };
            println!(
                "started: pid {} on {} (state dir {}, log {})",
                state.pid,
                state.addr,
                paths.dir().display(),
                paths.log_file().display()
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown daemon action '{other}' (expected start|status|stop|restart)"
        )),
    }
}

/// Pull `throughput_rps` out of a `bench-serve` report file.
fn read_bench_rps(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read bench report {path}: {e}"))?;
    let value = serde_json::from_str_value(&text)
        .map_err(|e| format!("bench report {path} is not JSON: {e}"))?;
    value
        .as_object()
        .map(|fields| serde::get_field(fields, "throughput_rps"))
        .and_then(|v| f64::deserialize_value(v).ok())
        .ok_or_else(|| format!("bench report {path} lacks throughput_rps"))
}

/// The telemetry overhead an enabled registry may cost before the gate
/// fails, in percent of bench-serve throughput.
const TELEMETRY_GATE_PCT: f64 = 5.0;

/// Compare two `bench-serve` reports — one taken with telemetry on, one
/// with `--no-telemetry` — and fail if the instrumented daemon lost more
/// than [`TELEMETRY_GATE_PCT`] of its throughput. Writes the comparison to
/// `out` (CI commits it as `BENCH_telemetry.json`).
fn cmd_telemetry_gate(with_path: &str, without_path: &str, out: &str) -> Result<(), String> {
    use serde::{Serialize as _, Value};
    let with_rps = read_bench_rps(with_path)?;
    let without_rps = read_bench_rps(without_path)?;
    if without_rps <= 0.0 {
        return Err(format!("baseline {without_path} reports zero throughput"));
    }
    let overhead_pct = (1.0 - with_rps / without_rps) * 100.0;
    println!(
        "telemetry-gate: {with_rps:.0} req/s instrumented vs {without_rps:.0} req/s bare \
         ({overhead_pct:+.1}% overhead, gate {TELEMETRY_GATE_PCT:.0}%)"
    );
    let json = Value::Object(vec![
        ("telemetry_on_rps".to_string(), with_rps.serialize_value()),
        (
            "telemetry_off_rps".to_string(),
            without_rps.serialize_value(),
        ),
        ("overhead_pct".to_string(), overhead_pct.serialize_value()),
        ("gate_pct".to_string(), TELEMETRY_GATE_PCT.serialize_value()),
        (
            "pass".to_string(),
            Value::Bool(overhead_pct <= TELEMETRY_GATE_PCT),
        ),
    ]);
    let text = serde_json::to_string(&json).map_err(|e| e.to_string())?;
    std::fs::write(out, text + "\n").map_err(|e| e.to_string())?;
    eprintln!("wrote {out}");
    if overhead_pct > TELEMETRY_GATE_PCT {
        return Err(format!(
            "REGRESSION: telemetry costs {overhead_pct:.1}% of throughput \
             (gate: {TELEMETRY_GATE_PCT:.0}%)"
        ));
    }
    Ok(())
}

/// Per-(strategy, dimension) `bench-check` measurement.
#[derive(serde::Serialize, serde::Deserialize)]
struct CheckBenchEntry {
    strategy: String,
    d: u32,
    schedules: u64,
    schedules_per_sec: f64,
    /// Oracle events streamed through the invariant monitors per second.
    events_per_sec: f64,
}

/// The committed `BENCH_check.json` shape.
#[derive(serde::Serialize, serde::Deserialize)]
struct CheckBenchReport {
    schema: String,
    stride: u64,
    jobs: usize,
    runs: Vec<CheckBenchEntry>,
}

/// What `bench-check` measures by default: each asynchronous paper
/// strategy at its dimensions. CLEAN stops at `d = 12`, where one
/// 64-schedule campaign already takes about 9 s.
const BENCH_CHECK_DEFAULTS: [(CheckStrategy, &[u32]); 3] = [
    (CheckStrategy::Cloning, &[10, 12, 14]),
    (CheckStrategy::Clean, &[10, 12]),
    (CheckStrategy::Visibility, &[10, 12, 14]),
];

/// A comma-separated environment list, or `None` when the variable is unset.
fn env_list<T>(
    var: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    match std::env::var(var) {
        Ok(s) => s
            .split(',')
            .map(|t| parse(t.trim()).map_err(|e| format!("{var} entry '{t}': {e}")))
            .collect::<Result<_, _>>()
            .map(Some),
        Err(_) => Ok(None),
    }
}

/// `hypersweep bench-check`: campaign throughput (schedules/s and oracle
/// events/s) of every strategy in `BENCH_CHECK_STRATEGY` at
/// `BENCH_CHECK_DIMS` (default [`BENCH_CHECK_DEFAULTS`]), written to
/// `BENCH_check.json`. With `BENCH_CHECK_BASELINE=<path>` it compares
/// against a committed baseline instead and fails on a >25% regression —
/// the same contract as the audit-throughput and bench-serve gates.
fn cmd_bench_check(out: &str, jobs: usize) -> Result<(), String> {
    use std::time::{Duration, Instant};
    let budget = Duration::from_millis(
        std::env::var("BENCH_CHECK_BUDGET_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(300),
    );
    let dims = env_list("BENCH_CHECK_DIMS", |t| {
        t.parse::<u32>().map_err(|e| e.to_string())
    })?;
    let schedules: u64 = std::env::var("BENCH_CHECK_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let strategies = env_list("BENCH_CHECK_STRATEGY", |t| {
        CheckStrategy::parse(t).ok_or_else(|| "unknown strategy".to_string())
    })?
    .unwrap_or_else(|| BENCH_CHECK_DEFAULTS.iter().map(|&(s, _)| s).collect());
    let mut plan = Vec::new();
    for strategy in strategies {
        let own = BENCH_CHECK_DEFAULTS
            .iter()
            .find(|&&(s, _)| s == strategy)
            .map_or(&[10, 12, 14][..], |&(_, d)| d);
        for &d in dims.as_deref().unwrap_or(own) {
            plan.push((strategy, d));
        }
    }

    let mut entries = Vec::new();
    for (strategy, d) in plan {
        let mut cfg = CheckConfig::new(strategy, d);
        cfg.stride = 1;
        cfg.validate()?;
        let campaign = hypersweep_analysis::CheckCampaign {
            cfg,
            schedules,
            seed: 0,
            planted: None,
        };
        // Fastest run within the budget: the minimum is far more stable
        // than the mean on shared machines, which matters for the gate.
        let started = Instant::now();
        let mut best = Duration::MAX;
        let mut events = 0u64;
        loop {
            let registry = hypersweep_telemetry::MetricsRegistry::new();
            let t0 = Instant::now();
            let outcome = hypersweep_analysis::run_campaign(&campaign, jobs, &registry);
            let elapsed = t0.elapsed();
            if let Some(c) = &outcome.counterexample {
                return Err(format!(
                    "bench campaign found a real violation in {} at d={d} schedule {} — \
                     fix the checker before benchmarking it",
                    strategy.name(),
                    c.schedule
                ));
            }
            if elapsed < best {
                best = elapsed;
                events = registry.snapshot().counter("check.events").unwrap_or(0);
            }
            if started.elapsed() >= budget {
                break;
            }
        }
        let entry = CheckBenchEntry {
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
        entries.push(entry);
    }
    let report = CheckBenchReport {
        schema: "hypersweep-check-bench/v2".into(),
        stride: 1,
        jobs,
        runs: entries,
    };

    if let Ok(baseline_path) = std::env::var("BENCH_CHECK_BASELINE") {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
        let baseline: CheckBenchReport = serde_json::from_str(&text)
            .map_err(|e| format!("baseline {baseline_path} does not parse: {e}"))?;
        if baseline.schema != report.schema {
            return Err(format!(
                "baseline schema '{}' != '{}'; regenerate {baseline_path}",
                baseline.schema, report.schema
            ));
        }
        let mut regressed = false;
        for entry in &report.runs {
            let Some(base) = baseline
                .runs
                .iter()
                .find(|b| b.strategy == entry.strategy && b.d == entry.d)
            else {
                continue;
            };
            let checks = [
                ("schedules", entry.schedules_per_sec, base.schedules_per_sec),
                ("events", entry.events_per_sec, base.events_per_sec),
            ];
            for (label, got, expected) in checks {
                let ratio = got / expected;
                println!(
                    "bench-check/gate/{}/{label}/d{}: {ratio:.2}x of baseline",
                    entry.strategy, entry.d
                );
                if ratio < 0.75 {
                    eprintln!(
                        "REGRESSION ({label}) in {} at d={}: {got:.3e}/s vs baseline \
                         {expected:.3e}/s (>25% slower)",
                        entry.strategy, entry.d
                    );
                    regressed = true;
                }
            }
        }
        if regressed {
            return Err("bench-check regressed against the committed baseline".into());
        }
    } else {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(out, json + "\n").map_err(|e| e.to_string())?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

fn cmd_bench_serve(cfg: &BenchConfig, out: &str) -> Result<(), String> {
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
    // CI regression gate, mirroring the audit-throughput bench: with a
    // committed baseline in the environment, compare instead of rewriting.
    if let Ok(baseline_path) = std::env::var("BENCH_SERVE_BASELINE") {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
        let value = serde_json::from_str_value(&text)
            .map_err(|e| format!("baseline {baseline_path} is not JSON: {e}"))?;
        let baseline_rps = value
            .as_object()
            .map(|fields| serde::get_field(fields, "throughput_rps"))
            .and_then(|v| f64::deserialize_value(v).ok())
            .ok_or_else(|| format!("baseline {baseline_path} lacks throughput_rps"))?;
        let ratio = report.throughput_rps / baseline_rps;
        println!("bench-serve/check: {ratio:.2}x of baseline");
        if ratio < 0.75 {
            return Err(format!(
                "REGRESSION: {:.0} req/s vs baseline {baseline_rps:.0} (>25% slower)",
                report.throughput_rps
            ));
        }
    } else {
        std::fs::write(out, report.to_json() + "\n").map_err(|e| e.to_string())?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<String> = Vec::new();
    let mut full = false;
    let mut fast = false;
    let mut timings = false;
    let mut json_dir: Option<PathBuf> = None;
    let mut policy = Policy::Fifo;
    let mut stride: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut max_dim: Option<u32> = None;
    let mut cache_cap: Option<usize> = None;
    let mut addr = "127.0.0.1:7071".to_string();
    let mut uds: Option<PathBuf> = None;
    let mut clients: usize = 4;
    let mut requests: usize = 64;
    let mut pipeline_depth: usize = 1;
    let mut cache_shards: Option<usize> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut metrics_file: Option<PathBuf> = None;
    let mut metrics_interval_ms: Option<u64> = None;
    let mut no_telemetry = false;
    let mut persist: Option<PathBuf> = None;
    let mut state_file: Option<PathBuf> = None;
    let mut log_file: Option<PathBuf> = None;
    let mut state_dir: Option<PathBuf> = None;
    let mut force = false;
    let mut check_strategy = "all".to_string();
    let mut check_dim: u32 = 6;
    let mut scenario = "hypercube".to_string();
    let mut instance: Option<String> = None;
    let mut schedules: u64 = 200;
    let mut seed: u64 = 0;
    let mut max_steps: u64 = 0;
    let mut planted: Option<u64> = None;
    let mut replay_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--fast" => fast = true,
            "--timings" => timings = true,
            "--no-telemetry" => no_telemetry = true,
            "--force" => force = true,
            "--persist" => {
                i += 1;
                match args.get(i) {
                    Some(p) => persist = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--persist needs a file path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--state-file" => {
                i += 1;
                match args.get(i) {
                    Some(p) => state_file = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--state-file needs a file path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--log-file" => {
                i += 1;
                match args.get(i) {
                    Some(p) => log_file = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--log-file needs a file path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--state-dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => state_dir = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--state-dir needs a directory\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--metrics-file" => {
                i += 1;
                match args.get(i) {
                    Some(p) => metrics_file = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--metrics-file needs a file path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--metrics-interval-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(v) if v >= 1 => metrics_interval_ms = Some(v),
                    _ => {
                        eprintln!(
                            "--metrics-interval-ms needs a positive integer\n{}",
                            usage()
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => json_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--json needs a directory\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--jobs" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) if v >= 1 => jobs = Some(v),
                    _ => {
                        eprintln!("--jobs needs a positive integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--max-dim" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u32>().ok()) {
                    Some(v) => match validate_max_dim(v) {
                        Ok(v) => max_dim = Some(v),
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::FAILURE;
                        }
                    },
                    None => {
                        eprintln!("--max-dim needs an integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--cache-cap" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(v) => match validate_cache_cap(v) {
                        Ok(v) => cache_cap = Some(v),
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::FAILURE;
                        }
                    },
                    None => {
                        eprintln!("--cache-cap needs an integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) => addr = a.clone(),
                    None => {
                        eprintln!("--addr needs a host:port\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--uds" => {
                i += 1;
                match args.get(i) {
                    Some(p) => uds = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("--uds needs a socket path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            // `--connections` is the pipelined-bench spelling; `--clients`
            // stays as the original alias.
            "--clients" | "--connections" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) if v >= 1 => clients = v,
                    _ => {
                        eprintln!("--connections needs a positive integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--pipeline-depth" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) if v >= 1 => pipeline_depth = v,
                    _ => {
                        eprintln!("--pipeline-depth needs a positive integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--cache-shards" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(v) => match validate_cache_shards(v) {
                        Ok(v) => cache_shards = Some(v),
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::FAILURE;
                        }
                    },
                    None => {
                        eprintln!("--cache-shards needs an integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--requests" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) if v >= 1 => requests = v,
                    _ => {
                        eprintln!("--requests needs a positive integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--timeout-ms" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(v) if v >= 1 => timeout_ms = Some(v),
                    _ => {
                        eprintln!("--timeout-ms needs a positive integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = Some(p.clone()),
                    None => {
                        eprintln!("--out needs a file path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--strategy" => {
                i += 1;
                match args.get(i) {
                    Some(s) => check_strategy = s.clone(),
                    None => {
                        eprintln!("--strategy needs a value\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--scenario" => {
                i += 1;
                match args.get(i) {
                    Some(s) => scenario = s.clone(),
                    None => {
                        eprintln!("--scenario needs a value\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--instance" => {
                i += 1;
                match args.get(i) {
                    Some(s) => instance = Some(s.clone()),
                    None => {
                        eprintln!("--instance needs a value\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--dim" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u32>().ok()) {
                    Some(v) if v >= 1 => check_dim = v,
                    _ => {
                        eprintln!("--dim needs a positive integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--schedules" | "--campaign-size" => {
                let flag = args[i].clone();
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(v) => match hypersweep_analysis::validate_campaign_size(v) {
                        Ok(v) => schedules = v,
                        Err(e) => {
                            eprintln!("{flag}: {e}");
                            return ExitCode::FAILURE;
                        }
                    },
                    None => {
                        eprintln!("{flag} needs a positive integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--plant" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(v) => planted = Some(v),
                    None => {
                        eprintln!("--plant needs a schedule index\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(v) => seed = v,
                    None => {
                        eprintln!("--seed needs an integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--max-steps" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(v) => max_steps = v,
                    None => {
                        eprintln!("--max-steps needs an integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--replay" => {
                i += 1;
                match args.get(i) {
                    Some(p) => replay_path = Some(p.clone()),
                    None => {
                        eprintln!("--replay needs a file path\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--stride" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(v) => match hypersweep_analysis::validate_stride(v) {
                        Ok(v) => stride = Some(v as usize),
                        Err(e) => {
                            eprintln!("--stride: {e}");
                            return ExitCode::FAILURE;
                        }
                    },
                    None => {
                        eprintln!("--stride needs a positive integer\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--policy" => {
                i += 1;
                match args.get(i).map(|s| parse_policy(s)) {
                    Some(Ok(p)) => policy = p,
                    Some(Err(e)) => {
                        eprintln!("{e}\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                    None => {
                        eprintln!("--policy needs a value\n{}", usage());
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    let result = match positional.first().map(String::as_str) {
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("report") if positional.len() == 2 && positional[1] == "scenarios" => {
            cmd_report_scenarios(check_dim)
        }
        Some("report") if positional.len() >= 2 => cmd_report(
            &positional[1..],
            full,
            max_dim,
            json_dir,
            jobs.unwrap_or_else(default_jobs),
            cache_cap,
            timings,
        ),
        Some("figures") => cmd_report(
            &["f1", "f2", "f3", "f4"].map(String::from),
            full,
            max_dim,
            json_dir,
            jobs.unwrap_or_else(default_jobs),
            cache_cap,
            timings,
        ),
        Some("check") if positional.len() == 1 => match &replay_path {
            Some(path) => cmd_check_replay(path),
            None => {
                let opts = CheckCampaignOpts {
                    schedules,
                    seed,
                    jobs: jobs.unwrap_or_else(default_jobs),
                    max_steps,
                    stride: stride.map(|v| v as u64).unwrap_or(0),
                    planted,
                    timings,
                };
                match ScenarioId::parse(&scenario) {
                    None => Err(format!(
                        "unknown scenario '{scenario}' (known: hypercube, grid, dynamic)"
                    )),
                    Some(ScenarioId::Hypercube) if instance.is_some() => Err(
                        "--instance applies only to scenario campaigns (--scenario grid|dynamic); \
                         the hypercube has one instance"
                            .into(),
                    ),
                    Some(ScenarioId::Hypercube) => {
                        cmd_check(&check_strategy, check_dim, &opts, out.as_deref())
                    }
                    Some(_) if out.is_some() => Err(
                        "--out applies only to the hypercube checker; scenario campaigns have no \
                         replay format"
                            .into(),
                    ),
                    Some(id) => cmd_check_scenario(
                        id,
                        &check_strategy,
                        check_dim,
                        instance.as_deref(),
                        &opts,
                    ),
                }
            }
        },
        Some("serve") if positional.len() == 1 => {
            let mut limits = ServerLimits::default();
            if let Some(v) = max_dim {
                limits.max_dim = v;
            }
            if let Some(v) = jobs {
                limits.workers = v;
            }
            if let Some(v) = cache_cap {
                limits.cache_capacity = Some(v);
            }
            if let Some(v) = timeout_ms {
                limits.request_timeout = std::time::Duration::from_millis(v);
            }
            limits.telemetry = !no_telemetry;
            limits.metrics_file = metrics_file.clone();
            if let Some(v) = metrics_interval_ms {
                limits.metrics_interval = std::time::Duration::from_millis(v);
            }
            if let Some(v) = cache_shards {
                limits.cache_shards = v;
            }
            limits.uds_path = uds.clone();
            limits.persist_path = persist.clone();
            cmd_serve(&addr, limits, state_file.clone(), log_file.clone())
        }
        Some("daemon") if positional.len() == 2 => {
            let dir = state_dir
                .clone()
                .unwrap_or_else(|| PathBuf::from(".hypersweep-daemon"));
            return match cmd_daemon(&positional[1], dir, force, forwarded_serve_args(&args)) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("bench-check") if positional.len() == 1 => cmd_bench_check(
            out.as_deref().unwrap_or("BENCH_check.json"),
            jobs.unwrap_or_else(default_jobs),
        ),
        Some("bench-serve") if positional.len() == 1 => cmd_bench_serve(
            &BenchConfig {
                addr: addr.clone(),
                uds: uds.clone(),
                clients,
                requests,
                pipeline_depth,
                max_dim: max_dim.unwrap_or(8),
            },
            out.as_deref().unwrap_or("BENCH_serve.json"),
        ),
        Some("telemetry-gate") if positional.len() == 3 => cmd_telemetry_gate(
            &positional[1],
            &positional[2],
            out.as_deref().unwrap_or("BENCH_telemetry.json"),
        ),
        Some("run") if positional.len() == 3 => match positional[2].parse::<u32>() {
            Ok(d) if (1..=hypersweep_topology::MAX_DIMENSION).contains(&d) => {
                cmd_run(&positional[1], d, policy, fast)
            }
            _ => Err(format!("bad dimension '{}'", positional[2])),
        },
        Some("watch") if positional.len() == 3 => match positional[2].parse::<u32>() {
            Ok(d) if (1..=8).contains(&d) => cmd_watch(&positional[1], d, stride.unwrap_or(8)),
            _ => Err(format!(
                "watch needs a dimension in 1..=8, got '{}'",
                positional[2]
            )),
        },
        Some("trace") if positional.len() == 4 => match positional[2].parse::<u32>() {
            Ok(d) if (1..=14).contains(&d) => cmd_trace(&positional[1], d, &positional[3]),
            _ => Err(format!(
                "trace needs a dimension in 1..=14, got '{}'",
                positional[2]
            )),
        },
        Some("audit") if positional.len() == 3 => match positional[1].parse::<u32>() {
            Ok(d) if (1..=14).contains(&d) => cmd_audit(d, &positional[2]),
            _ => Err(format!(
                "audit needs a dimension in 1..=14, got '{}'",
                positional[1]
            )),
        },
        _ => Err(usage().to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
