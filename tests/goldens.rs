//! Goldens: the committed bytes of every output the project promises to
//! keep across refactors, compared through library calls.
//!
//! Each test renders one family of outputs and compares it with its files
//! under `tests/golden/` ([`hypersweep_testutil::golden`]). A mismatch
//! fails with the first differing line. `HYPERSWEEP_BLESS=1 cargo test
//! --test goldens` rewrites the files instead and prints the name of every
//! file it changed; the release-only golden needs `HYPERSWEEP_BLESS=1 cargo
//! test --release --test goldens -- --ignored`. `check --replay`'s stdout
//! and exit code need the binary, so `crates/cli/tests/cli.rs` pins them.
//!
//! Covered: `report all` (quick config, `--jobs 1`) stdout and its 19
//! JSON exports; every strategy kind's fast, audited and engine runs at
//! d=1..8; an FNV digest of every synthesized trace at d=1..10; the
//! `watch visibility 3 --stride 4` film; `check` campaign tables for the
//! four paper strategies at d=6 and d=8 and for the grid and dynamic
//! scenarios (`sched/s` blanked), at d=6 and at the benchmark's sides; the
//! eager-guard mutant's shrunk replays at d=4..10; `report
//! scenarios --dim 6` stdout; every corpus replay's verification; the
//! dispatcher's reply to a fixed request transcript and its scenario
//! replies at the benchmark's sides; and, ignored in debug builds, `report
//! all --full --max-dim 14 --jobs 1` stdout.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use hypersweep::analysis::experiments::ALL_IDS;
use hypersweep::analysis::{
    execute_run, run_ids_pooled_with, runner, ExperimentConfig, RunCache, RunKey, StrategyKind,
};
use hypersweep::check::{CheckConfig, CheckStrategy, ReplayFile};
use hypersweep::intruder::render_film;
use hypersweep::scenario::{
    campaign_table, registry_report, run_scenario_campaign, GridStrategy, ScenarioCampaign,
    ScenarioId,
};
use hypersweep::server::{Dispatcher, Request, Response, ServerLimits};
use hypersweep::sim::{Event, EventSink, Policy};
use hypersweep::telemetry::MetricsRegistry;
use hypersweep::topology::{GridInstance, Hypercube, Node};
use hypersweep_testutil::golden;

/// `report <ids> --jobs 1` stdout for `cfg`, plus the results themselves.
fn report_stdout(cfg: &ExperimentConfig) -> (String, Vec<hypersweep::analysis::ExperimentResult>) {
    let report = run_ids_pooled_with(ALL_IDS, cfg, 1, None, &MetricsRegistry::disabled());
    let mut stdout = String::new();
    for r in &report.results {
        writeln!(stdout, "{}", r.render()).unwrap();
    }
    (stdout, report.results)
}

#[test]
fn report_all_quick() {
    let (stdout, results) = report_stdout(&ExperimentConfig::quick());
    golden("report/stdout.txt", &stdout);
    let dir = std::env::temp_dir().join(format!("hypersweep-goldens-{}", std::process::id()));
    let paths = runner::export_json(&results, &dir).expect("export JSON");
    assert_eq!(paths.len(), ALL_IDS.len());
    for (path, id) in paths.iter().zip(ALL_IDS) {
        let json = std::fs::read_to_string(path).expect("read exported JSON");
        golden(&format!("report/{id}.json"), &json);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `report all --full --max-dim 14 --jobs 1` stdout. About 1.5 s in a
/// release build, far longer in a debug one, so CI runs it with
/// `cargo test --release --test goldens -- --ignored`.
#[test]
#[ignore = "release-only: run with cargo test --release --test goldens -- --ignored"]
fn report_all_full_to_d14() {
    let mut cfg = ExperimentConfig::full();
    cfg.clamp_max_dim(14);
    golden("report-full-d14.txt", &report_stdout(&cfg).0);
}

/// `report scenarios --dim 6` stdout: every registered scenario's
/// reference run on each of its instances, against its closed form.
#[test]
fn scenario_report() {
    let stdout = registry_report(6).expect("every scenario accepts side 6");
    golden("report-scenarios-d6.txt", &stdout);
}

#[test]
fn strategy_runs() {
    let mut out = String::new();
    for kind in StrategyKind::ALL {
        for dim in 1..=8 {
            let mut keys = vec![RunKey::fast(kind, dim), RunKey::audited(kind, dim)];
            match kind {
                StrategyKind::Frontier => {}
                StrategyKind::Synchronous => {
                    keys.push(RunKey::engine(kind, dim, Policy::Synchronous));
                }
                _ => {
                    keys.push(RunKey::engine(kind, dim, Policy::Fifo));
                    keys.push(RunKey::engine(kind, dim, Policy::Random(7)));
                }
            }
            for key in keys {
                let o = execute_run(key);
                let v = &o.verdict;
                writeln!(
                    out,
                    "{}: {:?}\n  verdict monotone={} contiguous={} all_clean={} \
                     capture={:?} events={} violations={:?}\n  summary {:?}",
                    key.label(),
                    o.metrics,
                    v.monotone,
                    v.contiguous,
                    v.all_clean,
                    v.capture,
                    v.events,
                    v.violations,
                    o.trace_summary,
                )
                .unwrap();
            }
        }
    }
    golden("runs.txt", &out);
}

/// 64-bit FNV-1a over the JSON form of every event, as `trace` writes it.
struct Fnv {
    hash: u64,
    events: u64,
}

impl EventSink for Fnv {
    fn emit(&mut self, event: Event) {
        let json = serde_json::to_string(&event).expect("events serialize");
        for b in json.bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        self.events += 1;
    }
}

#[test]
fn trace_digests() {
    let mut out = String::new();
    for kind in StrategyKind::ALL {
        for dim in 1..=10 {
            let mut fnv = Fnv {
                hash: 0xcbf2_9ce4_8422_2325,
                events: 0,
            };
            let metrics = kind.strategy(Hypercube::new(dim)).synthesize_into(&mut fnv);
            writeln!(
                out,
                "{} d={dim}: {} events fnv={:016x} moves={}",
                kind.label(),
                fnv.events,
                fnv.hash,
                metrics.total_moves()
            )
            .unwrap();
        }
    }
    golden("trace-digests.txt", &out);
}

/// `watch visibility 3 --stride 4` stdout.
#[test]
fn visibility_film() {
    let cube = Hypercube::new(3);
    let mut events = Vec::new();
    StrategyKind::Visibility
        .strategy(cube)
        .synthesize_into(&mut events);
    let far = Node(cube.node_count() as u32 - 1);
    let frames = render_film(cube, &events, 4, Some(far));
    let mut out = String::new();
    for frame in &frames {
        writeln!(
            out,
            "--- after event {} ({} contaminated) ---",
            frame.events_applied, frame.contaminated
        )
        .unwrap();
        out.push_str(&frame.text);
    }
    writeln!(
        out,
        "{} frames, {} events total",
        frames.len(),
        events.len()
    )
    .unwrap();
    golden("watch-visibility-3.txt", &out);
}

/// `check --strategy all --dim 6` and `check --scenario grid|dynamic
/// --dim 6` tables at the CLI's defaults (200 schedules, seed 0), with the
/// wall-clock `sched/s` column reading 0.
#[test]
fn campaign_tables() {
    let registry = MetricsRegistry::new();
    let mut outcomes: Vec<_> = CheckStrategy::PAPER
        .iter()
        .map(|&s| {
            let campaign = ScenarioCampaign::hypercube(CheckConfig::new(s, 6), 200, 0, None);
            run_scenario_campaign(&campaign, 1, &registry)
        })
        .collect();
    for o in &mut outcomes {
        o.elapsed = Duration::ZERO;
    }
    let mut out = campaign_table(&outcomes).render();
    out.push('\n');
    for id in [ScenarioId::Grid, ScenarioId::Dynamic] {
        let scenario = hypersweep::scenario::resolve(id).expect("registered scenario");
        let campaign = scenario.campaign(
            GridStrategy::Sweep,
            6,
            scenario.default_instance(),
            200,
            0,
            0,
        );
        let mut outcome = run_scenario_campaign(&campaign, 1, &registry);
        outcome.elapsed = Duration::ZERO;
        out.push_str(&campaign_table(&[outcome]).render());
        out.push('\n');
    }
    golden("campaigns.txt", &out);
}

/// `check --strategy all --dim 8 --schedules 25 --seed 20050404`, the
/// campaign CI's check-smoke runs, with `sched/s` reading 0.
#[test]
fn campaign_table_d8() {
    let registry = MetricsRegistry::disabled();
    let outcomes: Vec<_> = CheckStrategy::PAPER
        .iter()
        .map(|&s| {
            let campaign = ScenarioCampaign::hypercube(CheckConfig::new(s, 8), 25, 20050404, None);
            let mut outcome = run_scenario_campaign(&campaign, 1, &registry);
            outcome.elapsed = Duration::ZERO;
            outcome
        })
        .collect();
    golden("campaigns-d8.txt", &campaign_table(&outcomes).render());
}

/// The replay file `check --strategy mutant-eager-guard --dim D
/// --schedules 5 --seed S --jobs 1` writes, at d=4..10 for seeds 1–3.
/// Each campaign stops at a recontamination, and the shrink's region
/// checks rebuild the connectivity forest after it.
#[test]
fn eager_guard_shrunk_replays() {
    let registry = MetricsRegistry::disabled();
    let mut out = String::new();
    for dim in 4..=10 {
        for seed in 1..=3 {
            let cfg = CheckConfig::new(CheckStrategy::MutantEagerGuard, dim);
            let campaign = ScenarioCampaign::hypercube(cfg, 5, seed, None);
            let outcome = run_scenario_campaign(&campaign, 1, &registry);
            let replay = outcome.replay.expect("the mutant is caught");
            writeln!(out, "# d={dim} seed={seed}\n{}", replay.to_json()).unwrap();
        }
    }
    golden("eager-guard-replays.txt", &out);
}

/// `check --scenario grid|dynamic` tables at the benchmark's sizes, 25
/// schedules each at seed 0, with `sched/s` reading 0: grid `holes:3` at
/// side 10, grid `full` and `corridor` at side 16, dynamic `full` at sides
/// 8 and 10.
#[test]
fn scenario_campaign_tables() {
    let registry = MetricsRegistry::disabled();
    let mut out = String::new();
    for (id, side, instance) in [
        (ScenarioId::Grid, 10, "holes:3"),
        (ScenarioId::Grid, 16, "full"),
        (ScenarioId::Grid, 16, "corridor"),
        (ScenarioId::Dynamic, 8, "full"),
        (ScenarioId::Dynamic, 10, "full"),
    ] {
        let scenario = hypersweep::scenario::resolve(id).expect("registered scenario");
        let instance = GridInstance::parse(instance).expect("a valid instance");
        let campaign = scenario.campaign(GridStrategy::Sweep, side, instance, 25, 0, 0);
        let mut outcome = run_scenario_campaign(&campaign, 1, &registry);
        outcome.elapsed = Duration::ZERO;
        out.push_str(&campaign_table(&[outcome]).render());
        out.push('\n');
    }
    golden("scenario-campaigns.txt", &out);
}

/// The dispatcher's scenario `plan` and `audit` replies at the benchmark's
/// sizes: grid sides 8–16 on the `full`, `holes:1` and `corridor`
/// instances, dynamic sides 6–12.
#[test]
fn served_scenarios() {
    let dispatcher = Dispatcher::new(Arc::new(RunCache::new()), ServerLimits::default().max_dim);
    let mut lines = Vec::new();
    for side in 8..=16 {
        for instance in ["full", "holes:1", "corridor"] {
            for tag in ["plan", "audit"] {
                lines.push(format!(
                    r#"{{"type":"{tag}","scenario":"grid","dim":{side},"instance":"{instance}"}}"#
                ));
            }
        }
    }
    for side in 6..=12 {
        for tag in ["plan", "audit"] {
            lines.push(format!(
                r#"{{"type":"{tag}","scenario":"dynamic","dim":{side}}}"#
            ));
        }
    }
    let mut out = String::new();
    for line in lines {
        let request = Request::parse(&line).expect("a valid scenario request");
        let reply = dispatcher.handle(request).to_line();
        writeln!(out, "> {line}\n< {reply}").unwrap();
    }
    golden("served-scenarios.txt", &out);
}

#[test]
fn corpus_replays() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut out = String::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let name = path.file_name().expect("a file").to_string_lossy();
        let verified = ReplayFile::from_json(&text).map(|r| r.verify());
        writeln!(out, "{name}: {verified:?}").unwrap();
    }
    golden("corpus-replays.txt", &out);
}

/// The fixed request transcript: every wire strategy's `plan`, `predict`
/// and `audit` at d ≤ 8, the scenario forms, refused lines, and a final
/// `status`.
fn transcript() -> Vec<String> {
    let mut lines = Vec::new();
    for kind in StrategyKind::ALL {
        for dim in 1..=8 {
            for tag in ["plan", "predict", "audit"] {
                lines.push(format!(
                    r#"{{"type":"{tag}","strategy":"{}","dim":{dim}}}"#,
                    kind.label()
                ));
            }
        }
    }
    for scenario in ["grid", "dynamic"] {
        for tag in ["plan", "predict", "audit"] {
            lines.push(format!(
                r#"{{"type":"{tag}","scenario":"{scenario}","dim":5}}"#
            ));
        }
    }
    for instance in ["full", "holes:7", "corridor"] {
        lines.push(format!(
            r#"{{"type":"audit","scenario":"grid","dim":4,"instance":"{instance}"}}"#
        ));
    }
    for refused in [
        "not json",
        "[1,2]",
        r#"{"type":"plan","strategy":"clean"}"#,
        r#"{"type":"plan","strategy":"clean","dim":0}"#,
        r#"{"type":"audit","strategy":"clean","dim":21}"#,
        r#"{"type":"plan","strategy":"clean","dim":6,"dim":7}"#,
        r#"{"type":"plan","strategy":"clean","dim":6,"bogus":1}"#,
        r#"{"type":"plan","strategy":7,"dim":6}"#,
        r#"{"type":"audit","strategy":"nonsense","dim":4}"#,
        r#"{"type":"fly","strategy":"clean","dim":4}"#,
        r#"{"type":"plan","scenario":"torus","dim":4}"#,
        r#"{"type":"plan","scenario":"grid","dim":0}"#,
        r#"{"type":"plan","scenario":"grid","dim":4,"instance":"swiss"}"#,
        r#"{"type":"plan","scenario":"hypercube","strategy":"clean","dim":3}"#,
    ] {
        lines.push(refused.to_string());
    }
    lines.push(r#"{"type":"status"}"#.to_string());
    lines
}

/// Each transcript line answered the way the reactor answers it: parse
/// errors as error lines, `status` inline (with `uptime_ms` 0), and
/// compute requests from the memo if they can be, else computed.
#[test]
fn served_transcript() {
    let limits = ServerLimits::default();
    let dispatcher = Dispatcher::new(Arc::new(RunCache::new()), limits.max_dim);
    let mut out = String::new();
    for line in transcript() {
        let reply = match Request::parse(&line) {
            Err(e) => {
                dispatcher.note_error();
                Response::Error(e).to_line()
            }
            Ok(Request::Status) => Response::Status(dispatcher.status_reply(0, 0, 1)).to_line(),
            Ok(request) => match dispatcher.answer_now(&request) {
                Some(line) => line.to_string(),
                None => dispatcher.handle(request).to_line(),
            },
        };
        writeln!(out, "> {line}\n< {reply}").unwrap();
    }
    golden("served.txt", &out);
}
