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

mod args;
mod bench;

use std::path::PathBuf;
use std::process::ExitCode;

use hypersweep_analysis::experiments::ALL_IDS;
use hypersweep_analysis::{run_ids_pooled_with, runner, ExperimentConfig, StrategyKind};
use hypersweep_check::{CheckConfig, CheckStrategy, ReplayFile};
use hypersweep_core::outcome::default_monitor_config;
use hypersweep_core::SearchStrategy;
use hypersweep_intruder::{render_film, Verifier, ViolationKind, ViolationReport};
use hypersweep_scenario::{GridStrategy, ScenarioId};
use hypersweep_server::{Response, Server, ServerLimits};
use hypersweep_sim::{Event, Policy};
use hypersweep_topology::{GridInstance, Hypercube, Node};

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
    let s = strategy_named(strategy, cube)?;
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

/// The strategy a `run`/`watch`/`trace` label names: any wire label.
fn strategy_named(name: &str, cube: Hypercube) -> Result<Box<dyn SearchStrategy>, String> {
    let kind =
        StrategyKind::from_label(name).ok_or_else(|| format!("unknown strategy '{name}'"))?;
    Ok(kind.strategy(cube))
}

fn cmd_watch(strategy: &str, d: u32, stride: usize) -> Result<(), String> {
    let cube = Hypercube::new(d);
    let mut events = Vec::new();
    strategy_named(strategy, cube)?.synthesize_into(&mut events);
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
    let mut events = Vec::new();
    strategy_named(strategy, cube)?.synthesize_into(&mut events);
    let json = serde_json::to_string(&events).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| e.to_string())?;
    eprintln!("wrote {} events to {path}", events.len());
    Ok(())
}

fn cmd_audit(d: u32, path: &str) -> Result<(), String> {
    let cube = Hypercube::new(d);
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let events: Vec<Event> = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let mut verifier = Verifier::with_config(&cube, Node::ROOT, default_monitor_config(cube));
    for (i, e) in events.iter().enumerate() {
        if let Err(ViolationReport {
            kind: ViolationKind::IllegalEvent(why),
            ..
        }) = verifier.observe(e, e.time)
        {
            return Err(format!(
                "{path}: event {i} ({:?}) is illegal on H_{d}: {why}",
                e.kind
            ));
        }
    }
    let verdict = verifier.verdict();
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
        println!("  violation: {v}");
    }
    if verdict.is_complete() {
        Ok(())
    } else {
        Err("trace is not a correct complete search".into())
    }
}

/// Campaign knobs for `hypersweep check` beyond the checking problem
/// itself (`--campaign-size`/`--schedules`, `--seed`, `--jobs`,
/// `--max-steps`, `--plant`, `--timings`).
struct CheckCampaignOpts {
    schedules: u64,
    seed: u64,
    jobs: usize,
    max_steps: u64,
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
        planted,
        timings,
    } = *opts;
    if let Some(p) = planted {
        if p >= schedules {
            return Err(format!(
                "--plant {p} is outside the campaign (valid range is 0..{schedules})"
            ));
        }
    }
    let configs: Vec<CheckConfig> = if strategy == "all" {
        CheckStrategy::PAPER
            .iter()
            .map(|&s| CheckConfig::new(s, dim))
            .collect()
    } else {
        vec![CheckConfig::named(strategy, dim)
            .ok_or_else(|| format!("unknown check strategy '{strategy}'"))?]
    };
    let registry = hypersweep_telemetry::MetricsRegistry::new();
    let mut outcomes = Vec::new();
    for mut cfg in configs {
        cfg.max_steps = max_steps;
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
        timings,
        ..
    } = *opts;
    let instance = match instance {
        None => None,
        Some(text) => Some(GridInstance::parse(text).ok_or_else(|| {
            format!("bad --instance '{text}': expected full|holes:<seed>|corridor")
        })?),
    };
    let scenario = hypersweep_scenario::validate_scenario(id, side)?
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

/// `hypersweep report scenarios`: the registry comparison table.
fn cmd_report_scenarios(side: u32) -> Result<(), String> {
    print!("{}", hypersweep_scenario::registry_report(side)?);
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
    if let Ok(stats) = &outcome {
        println!("{}", Response::Status(stats.clone()).to_line());
    }
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

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
