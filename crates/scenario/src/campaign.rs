//! Campaigns: the checker's streamed, pooled schedule exploration, for the
//! paper's strategies on `H_d` and for the scenario workloads alike, with
//! one telemetry recording and the render table `hypersweep check` prints.
//!
//! Workers claim fixed-width slices of the schedule range from a shared
//! atomic counter ([`execute_schedule_stream`]): nothing is materialized up
//! front, so a 100k-schedule campaign enqueues zero heap-allocated jobs.
//! Each worker recycles one arena for its whole lifetime, so a schedule
//! allocates no field buffers, and a shared cutoff lets workers skip every
//! slice above the lowest violation found so far. The reported
//! counterexample is always the one with the **lowest schedule index**,
//! deterministic for a fixed campaign regardless of parallelism (see
//! [`hypersweep_analysis::StreamCutoff`] for why the cutoff cannot skip the
//! winner). The outcome's tallies count only the schedules up to and
//! including the winner, which every worker count runs exactly once, so
//! the campaign table reads the same under any `--jobs`. A hypercube
//! winner is shrunk into a [`ReplayFile`]; scenarios have no replay format
//! and report theirs as found.
//!
//! Telemetry counts the work actually done, including schedules a pooled
//! campaign ran past the winner, under the prefix `check` on the hypercube
//! and `scenario` otherwise: the `<prefix>.schedules`, `.steps`, `.events`,
//! `.violations`, `.slices` and `.slices_skipped` counters, the
//! per-schedule `<prefix>.schedule_us` wall-time histogram and the
//! per-campaign `span.<prefix>.campaign_us` span (rendered by `check
//! --timings`). The hypercube adds the `span.check.shrink_us` span;
//! scenarios add the `scenario.dynamic.mutations` and
//! `scenario.dynamic.rejected` counters.

use std::time::{Duration, Instant};

use hypersweep_analysis::{execute_schedule_stream, Table};
use hypersweep_check::{
    explore_schedule_in, shrunk_replay, Adversary, CheckArena, CheckConfig, ReplayFile,
    ScheduleRun, ViolationReport,
};
use hypersweep_intruder::FieldScratch;
use hypersweep_telemetry::MetricsRegistry;
use hypersweep_topology::graph::AdjGraph;
use hypersweep_topology::{GridInstance, Node, PartialGrid, Topology};

use crate::dynamic::run_dynamic;
use crate::sweep::{run_static, ScheduleStats};
use crate::{GridStrategy, ScenarioId};

/// Schedules per streamed slice, independent of the worker count so
/// *which* schedules a slice covers never depends on `--jobs`. Small
/// enough to load-balance a contended pool, large enough to amortise
/// per-claim overhead.
const SLICE: u64 = 32;

/// What to explore: `schedules` seeded schedules of one workload.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioCampaign {
    /// What every schedule runs.
    pub workload: Workload,
    /// Schedules to explore (`0..schedules`).
    pub schedules: u64,
    /// Base seed; schedule `i` runs under the checker's
    /// `Adversary::for_schedule(seed, i)`.
    pub seed: u64,
}

/// What every schedule of a campaign runs.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// [`ScenarioId::Hypercube`]: the paper's checker on `H_d`.
    Hypercube {
        /// The checking problem (strategy, dimension, step budget).
        cfg: CheckConfig,
        /// Negative control: force the schedule at this index to violate
        /// by running it under a 1-step budget (a guaranteed `StepLimit`).
        /// The campaign must then report exactly this index (or a lower
        /// natural violation) for **any** job count, which proves the
        /// streaming cutoff cannot lose the winner.
        planted: Option<u64>,
    },
    /// A registered scenario, [`ScenarioId::Grid`] or
    /// [`ScenarioId::Dynamic`].
    Scenario {
        /// Which scenario.
        scenario: ScenarioId,
        /// Strategy under test.
        strategy: GridStrategy,
        /// Grid side length (the instance is `side x side`).
        side: u32,
        /// Instance generator.
        instance: GridInstance,
        /// Per-schedule decision-step budget; 0 picks a generous default.
        max_steps: u64,
    },
}

impl ScenarioCampaign {
    /// A campaign of the checking problem `cfg` on `H_d`.
    pub fn hypercube(cfg: CheckConfig, schedules: u64, seed: u64, planted: Option<u64>) -> Self {
        ScenarioCampaign {
            workload: Workload::Hypercube { cfg, planted },
            schedules,
            seed,
        }
    }

    /// The prefix of the campaign's telemetry series: `check` on the
    /// hypercube, `scenario` otherwise.
    pub fn prefix(&self) -> &'static str {
        match self.workload {
            Workload::Hypercube { .. } => "check",
            Workload::Scenario { .. } => "scenario",
        }
    }
}

/// The lowest-schedule violation a campaign found: on the hypercube, as
/// shrunk into its replay file.
#[derive(Clone, Debug)]
pub struct ScenarioCounterexample {
    /// Failing schedule index.
    pub schedule: u64,
    /// Adversary family that produced it.
    pub adversary: String,
    /// The oracle's report.
    pub violation: ViolationReport,
    /// The decision trace up to the violation.
    pub decisions: Vec<u32>,
}

/// What a campaign found.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The campaign that ran.
    pub campaign: ScenarioCampaign,
    /// Nodes in the instance (`2^d` on the hypercube).
    pub nodes: u64,
    /// Schedules explored up to and including the counterexample (all of
    /// them when there is none), the same for any worker count.
    pub schedules_run: u64,
    /// Decision steps executed across those schedules.
    pub steps: u64,
    /// Events fed through the oracle across those schedules.
    pub events: u64,
    /// Edge traversals (scenarios).
    pub moves: u64,
    /// Smallest team any schedule needed (scenarios).
    pub team_min: u64,
    /// Largest team any schedule needed (scenarios).
    pub team_max: u64,
    /// Accepted topology mutations (dynamic).
    pub mutations: u64,
    /// Rejected mutation proposals (dynamic).
    pub rejected: u64,
    /// Violating schedules among them: 1 with a counterexample, else 0.
    pub violations: u64,
    /// The lowest-schedule counterexample; `None` means every explored
    /// schedule upheld every invariant.
    pub counterexample: Option<ScenarioCounterexample>,
    /// On the hypercube, the counterexample as the replay file `check
    /// --replay` re-executes.
    pub replay: Option<ReplayFile>,
    /// Campaign wall time.
    pub elapsed: Duration,
}

/// What one streamed slice of schedules accumulated.
struct SliceTally {
    schedules_run: u64,
    steps: u64,
    events: u64,
    moves: u64,
    team_min: u64,
    team_max: u64,
    mutations: u64,
    rejected: u64,
    /// The slice's violating schedule (its last), with its stats.
    violation: Option<(u64, ScheduleStats)>,
}

impl Default for SliceTally {
    fn default() -> Self {
        SliceTally {
            schedules_run: 0,
            steps: 0,
            events: 0,
            moves: 0,
            team_min: u64::MAX,
            team_max: 0,
            mutations: 0,
            rejected: 0,
            violation: None,
        }
    }
}

/// What every schedule of a campaign starts from, built once per campaign.
enum Instance {
    /// The checking problem on `H_d`, and the planted schedule.
    Cube(CheckConfig, Option<u64>),
    /// The grid itself.
    Grid(PartialGrid, SweepSetup),
    /// The dynamic scenario's base graph: each schedule mutates its own
    /// copy, so every copy starts with the same adjacency order.
    Dynamic(AdjGraph, SweepSetup),
}

/// A scenario sweep's homebase, whether it is the leaky mutant, and its
/// per-schedule step budget.
struct SweepSetup {
    homebase: Node,
    leaky: bool,
    max_steps: u64,
}

/// The config a hypercube schedule runs under: the campaign's, except
/// that the planted schedule gets a 1-step budget.
fn cube_cfg(mut cfg: CheckConfig, planted: Option<u64>, schedule: u64) -> CheckConfig {
    if planted == Some(schedule) {
        cfg.max_steps = 1;
    }
    cfg
}

/// Explore `campaign.schedules` adversarial schedules across `jobs`
/// workers, recording telemetry into `registry`. Deterministic for a
/// given campaign under any worker count: the lowest failing schedule
/// wins, and the tallies count exactly the schedules up to and including
/// it (every schedule when the campaign is quiet). The telemetry counters
/// count every schedule actually run.
pub fn run_scenario_campaign(
    campaign: &ScenarioCampaign,
    jobs: usize,
    registry: &MetricsRegistry,
) -> ScenarioOutcome {
    let start = Instant::now();
    let seed = campaign.seed;
    let (instance, nodes) = match campaign.workload {
        Workload::Hypercube { cfg, planted } => (Instance::Cube(cfg, planted), 1 << cfg.dim),
        Workload::Scenario {
            scenario,
            strategy,
            side,
            instance,
            max_steps,
        } => {
            let grid = instance.build(side);
            let nodes = grid.node_count() as u64;
            let sweep = SweepSetup {
                homebase: grid.homebase(),
                leaky: strategy == GridStrategy::LeakyGuard,
                max_steps: if max_steps > 0 {
                    max_steps
                } else {
                    1_000 * nodes + 10_000
                },
            };
            let instance = match scenario {
                ScenarioId::Dynamic => Instance::Dynamic(AdjGraph::from_topology(&grid), sweep),
                _ => Instance::Grid(grid, sweep),
            };
            (instance, nodes)
        }
    };

    let prefix = campaign.prefix();
    let counter = |name: &str| registry.counter(&format!("{prefix}.{name}"));
    let schedules_ctr = counter("schedules");
    let steps_ctr = counter("steps");
    let events_ctr = counter("events");
    let violations_ctr = counter("violations");
    // Only scenarios churn: a hypercube registry gains no `*.dynamic.*`.
    let churn = matches!(campaign.workload, Workload::Scenario { .. });
    let churn_ctrs = churn.then(|| [counter("dynamic.mutations"), counter("dynamic.rejected")]);
    let schedule_us = registry.histogram(&format!("{prefix}.schedule_us"));

    let slices = execute_schedule_stream(
        campaign.schedules,
        SLICE,
        jobs.max(1),
        registry,
        prefix,
        |_worker| (CheckArena::new(), FieldScratch::default()),
        |(arena, scratch), out: &mut SliceTally, schedule| {
            let t0 = Instant::now();
            let stats = match &instance {
                Instance::Cube(cfg, planted) => {
                    let cfg = cube_cfg(*cfg, *planted, schedule);
                    let run = explore_schedule_in(&cfg, seed, schedule, arena);
                    ScheduleStats {
                        steps: run.steps,
                        events: run.events,
                        decisions: run.decisions,
                        violation: run.violation,
                        ..ScheduleStats::default()
                    }
                }
                Instance::Grid(grid, s) => {
                    let adversary = &mut Adversary::for_schedule(seed, schedule);
                    run_static(grid, s.homebase, s.leaky, adversary, s.max_steps, scratch)
                }
                Instance::Dynamic(base, s) => {
                    let (schedule, budget) = ((seed, schedule), s.max_steps);
                    run_dynamic(base, s.homebase, s.leaky, schedule, budget, scratch)
                }
            };
            schedule_us.record(t0.elapsed().as_micros() as u64);
            out.schedules_run += 1;
            out.steps += stats.steps;
            out.events += stats.events;
            out.moves += stats.moves;
            out.team_min = out.team_min.min(stats.team);
            out.team_max = out.team_max.max(stats.team);
            out.mutations += stats.mutations;
            out.rejected += stats.rejected;
            schedules_ctr.add(1);
            steps_ctr.add(stats.steps);
            events_ctr.add(stats.events);
            if let Some([mutations_ctr, rejected_ctr]) = &churn_ctrs {
                mutations_ctr.add(stats.mutations);
                rejected_ctr.add(stats.rejected);
            }
            if stats.violation.is_some() {
                violations_ctr.add(1);
                out.violation = Some((schedule, stats));
                true
            } else {
                false
            }
        },
    );

    let mut total = SliceTally::default();
    for slice in slices {
        total.schedules_run += slice.schedules_run;
        total.steps += slice.steps;
        total.events += slice.events;
        total.moves += slice.moves;
        total.team_min = total.team_min.min(slice.team_min);
        total.team_max = total.team_max.max(slice.team_max);
        total.mutations += slice.mutations;
        total.rejected += slice.rejected;
        // Only the last slice can hold a violation: the winner.
        total.violation = slice.violation;
    }
    let mut outcome = ScenarioOutcome {
        campaign: *campaign,
        nodes,
        schedules_run: total.schedules_run,
        steps: total.steps,
        events: total.events,
        moves: total.moves,
        // 0 when no schedule ran: the tally starts at `u64::MAX`, the largest team at 0.
        team_min: total.team_min.min(total.team_max),
        team_max: total.team_max,
        mutations: total.mutations,
        rejected: total.rejected,
        violations: 0,
        counterexample: None,
        replay: None,
        elapsed: Duration::ZERO,
    };
    if let Some((schedule, stats)) = total.violation {
        let adversary = Adversary::for_schedule(seed, schedule)
            .kind()
            .name()
            .to_string();
        let mut violation = stats.violation.expect("winner carries a violation");
        let mut decisions = stats.decisions;
        if let Instance::Cube(cfg, planted) = instance {
            let t0 = Instant::now();
            let run = ScheduleRun {
                decisions,
                steps: stats.steps,
                events: stats.events,
                violation: Some(violation),
            };
            let replay = shrunk_replay(&cube_cfg(cfg, planted, schedule), seed, schedule, run);
            registry
                .histogram("span.check.shrink_us")
                .record(t0.elapsed().as_micros() as u64);
            (violation, decisions) = (replay.violation.clone(), replay.decisions.clone());
            outcome.replay = Some(replay);
        }
        outcome.violations = 1;
        outcome.counterexample = Some(ScenarioCounterexample {
            schedule,
            adversary,
            violation,
            decisions,
        });
    }
    outcome.elapsed = start.elapsed();
    registry
        .histogram(&format!("span.{prefix}.campaign_us"))
        .record(outcome.elapsed.as_micros() as u64);
    outcome
}

/// Render campaign outcomes as the table `hypersweep check` prints: the
/// hypercube's layout when the first outcome ran on `H_d`, else the
/// scenarios'.
pub fn campaign_table(outcomes: &[ScenarioOutcome]) -> Table {
    let (title, columns) = match outcomes.first().map(|o| o.campaign.workload) {
        Some(Workload::Hypercube { .. }) => (
            "schedule-exploration campaigns",
            "strategy dim schedules steps events sched/s violations verdict",
        ),
        _ => (
            "scenario campaigns",
            "scenario strategy instance side nodes schedules steps moves team churn sched/s verdict",
        ),
    };
    let mut table = Table::new(title, &columns.split(' ').collect::<Vec<_>>());
    for o in outcomes {
        let secs = o.elapsed.as_secs_f64();
        let rate = if secs > 0.0 {
            o.schedules_run as f64 / secs
        } else {
            0.0
        };
        let row = match o.campaign.workload {
            Workload::Hypercube { cfg, .. } => vec![
                cfg.name().to_string(),
                cfg.dim.to_string(),
                o.schedules_run.to_string(),
                o.steps.to_string(),
                o.events.to_string(),
                format!("{rate:.0}"),
                o.violations.to_string(),
                match &o.counterexample {
                    Some(c) => format!("FAIL @ schedule {} ({})", c.schedule, c.violation),
                    None => "ok".to_string(),
                },
            ],
            Workload::Scenario {
                scenario,
                strategy,
                side,
                instance,
                ..
            } => vec![
                scenario.label().to_string(),
                strategy.name().to_string(),
                instance.label(),
                side.to_string(),
                o.nodes.to_string(),
                o.schedules_run.to_string(),
                o.steps.to_string(),
                o.moves.to_string(),
                if o.team_min == o.team_max {
                    o.team_min.to_string()
                } else {
                    format!("{}-{}", o.team_min, o.team_max)
                },
                if o.mutations + o.rejected > 0 {
                    format!("{}/{}", o.mutations, o.mutations + o.rejected)
                } else {
                    "-".to_string()
                },
                format!("{rate:.0}"),
                match &o.counterexample {
                    Some(c) => format!(
                        "FAIL @ schedule {} [{}] ({})",
                        c.schedule, c.adversary, c.violation
                    ),
                    None => "ok".to_string(),
                },
            ],
        };
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersweep_check::CheckStrategy;

    fn cube(strategy: CheckStrategy, schedules: u64, planted: Option<u64>) -> ScenarioCampaign {
        ScenarioCampaign::hypercube(CheckConfig::new(strategy, 4), schedules, 0xFEED, planted)
    }

    fn scenario(
        id: ScenarioId,
        strategy: GridStrategy,
        side: u32,
        instance: GridInstance,
        schedules: u64,
    ) -> ScenarioCampaign {
        let scenario = crate::resolve(id).expect("a registered scenario");
        scenario.campaign(strategy, side, instance, schedules, 0, 0)
    }

    fn grid_campaign(strategy: GridStrategy, schedules: u64) -> ScenarioCampaign {
        scenario(
            ScenarioId::Grid,
            strategy,
            6,
            GridInstance::Holes(42),
            schedules,
        )
    }

    #[test]
    fn clean_campaign_is_quiet_and_deterministic_across_jobs() {
        let c = cube(CheckStrategy::Clean, 80, None);
        let reg = MetricsRegistry::disabled();
        let serial = run_scenario_campaign(&c, 1, &reg);
        let pooled = run_scenario_campaign(&c, 8, &reg);
        assert_eq!(serial.violations, 0);
        assert_eq!(serial.replay.as_ref().map(|r| r.to_json()), None);
        assert_eq!(serial.schedules_run, pooled.schedules_run);
        assert_eq!(serial.steps, pooled.steps);
        assert_eq!(serial.events, pooled.events);
    }

    #[test]
    fn mutant_campaign_reports_the_lowest_counterexample_for_any_jobs() {
        let c = cube(CheckStrategy::MutantEagerGuard, 200, None);
        let reg = MetricsRegistry::disabled();
        let serial = run_scenario_campaign(&c, 1, &reg);
        let pooled = run_scenario_campaign(&c, 8, &reg);
        let a = serial.replay.expect("mutant caught serially");
        let b = pooled.replay.expect("mutant caught pooled");
        assert_eq!(a.to_json(), b.to_json(), "verdict depends on --jobs");
        assert!(serial.violations >= 1);
    }

    #[test]
    fn campaign_telemetry_lands_in_check_series() {
        let reg = MetricsRegistry::new();
        let c = cube(CheckStrategy::Visibility, 12, None);
        let out = run_scenario_campaign(&c, 2, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("check.schedules"), Some(out.schedules_run));
        assert_eq!(snap.counter("check.steps"), Some(out.steps));
        assert_eq!(snap.counter("check.violations"), Some(0));
        assert_eq!(
            snap.histogram("check.schedule_us").map(|h| h.count),
            Some(out.schedules_run)
        );
        let names = snap.entries().iter().map(|(name, _)| name.as_str());
        let foreign: Vec<&str> = names.filter(|n| !n.contains("check.")).collect();
        assert!(foreign.is_empty(), "{foreign:?}");
    }

    #[test]
    fn planted_violation_is_found_at_exactly_its_index_for_any_jobs() {
        // A mid-campaign planted mutant on an otherwise quiet strategy:
        // the campaign must converge on exactly the planted index no
        // matter how many workers race the stream.
        for planted in [0u64, 37, 79] {
            let c = cube(CheckStrategy::Clean, 80, Some(planted));
            let reg = MetricsRegistry::disabled();
            let mut jsons = Vec::new();
            for jobs in [1usize, 2, 8] {
                let out = run_scenario_campaign(&c, jobs, &reg);
                let replay = out
                    .replay
                    .unwrap_or_else(|| panic!("planted @ {planted} missed at jobs={jobs}"));
                assert_eq!(replay.schedule, planted, "jobs = {jobs}");
                jsons.push(replay.to_json());
            }
            assert!(
                jsons.windows(2).all(|w| w[0] == w[1]),
                "planted counterexample must serialize identically across jobs"
            );
        }
    }

    /// A failing campaign's tallies cover exactly the schedules up to the
    /// winner, so its table row is the same under any `--jobs`, however far
    /// pooled workers ran past the winner before the cutoff stopped them.
    #[test]
    fn planted_campaign_tallies_are_equal_for_any_jobs() {
        let cfg = CheckConfig::new(CheckStrategy::Cloning, 6);
        let c = ScenarioCampaign::hypercube(cfg, 100_000, 2005, Some(1337));
        let rows: Vec<Vec<String>> = [1usize, 2, 4]
            .into_iter()
            .map(|jobs| {
                let out = run_scenario_campaign(&c, jobs, &MetricsRegistry::disabled());
                assert_eq!(
                    (out.schedules_run, out.violations),
                    (1338, 1),
                    "jobs = {jobs}"
                );
                let mut row = campaign_table(&[out]).rows.remove(0);
                row[5].clear(); // sched/s is wall clock
                row
            })
            .collect();
        assert!(rows.windows(2).all(|w| w[0] == w[1]), "{rows:?}");
    }

    #[test]
    fn streaming_cutoff_skips_work_and_records_slice_telemetry() {
        // With a violation planted at schedule 0, every slice past the
        // first should be skipped (modulo races), and the slice counters
        // must account for all slices either way.
        let c = cube(CheckStrategy::Clean, 640, Some(0));
        let reg = MetricsRegistry::new();
        let out = run_scenario_campaign(&c, 1, &reg);
        assert_eq!(out.replay.unwrap().schedule, 0);
        let snap = reg.snapshot();
        let claimed = snap.counter("check.slices").unwrap_or(0);
        let skipped = snap.counter("check.slices_skipped").unwrap_or(0);
        assert_eq!(claimed + skipped, 640 / 32, "every slice accounted for");
        assert!(
            skipped >= 640 / 32 - 1,
            "serial stream past a schedule-0 violation must skip the rest (skipped {skipped})"
        );
        // Serial + planted-at-0 ⇒ exactly one schedule ran.
        assert_eq!(out.schedules_run, 1);
    }

    #[test]
    fn campaign_spans_are_recorded() {
        let reg = MetricsRegistry::new();
        run_scenario_campaign(&cube(CheckStrategy::Clean, 16, None), 2, &reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.histogram("span.check.campaign_us").map(|h| h.count),
            Some(1)
        );
        assert_eq!(
            snap.histogram("span.check.shrink_us"),
            None,
            "quiet: no shrink"
        );
        let m = cube(CheckStrategy::MutantEagerGuard, 16, None);
        run_scenario_campaign(&m, 2, &reg);
        assert_eq!(
            reg.snapshot()
                .histogram("span.check.shrink_us")
                .map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn table_renders_one_row_per_campaign() {
        let reg = MetricsRegistry::disabled();
        let outcomes: Vec<_> = [CheckStrategy::Clean, CheckStrategy::MutantEagerGuard]
            .into_iter()
            .map(|s| run_scenario_campaign(&cube(s, 120, None), 4, &reg))
            .collect();
        let table = campaign_table(&outcomes);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0].last().unwrap(), "ok");
        assert!(table.rows[1].last().unwrap().starts_with("FAIL @ schedule"));
    }

    #[test]
    fn grid_campaign_is_quiet_and_jobs_invariant() {
        let campaign = grid_campaign(GridStrategy::Sweep, 96);
        let serial = run_scenario_campaign(&campaign, 1, &MetricsRegistry::disabled());
        let pooled = run_scenario_campaign(&campaign, 4, &MetricsRegistry::disabled());
        assert_eq!(serial.violations, 0, "{:?}", serial.counterexample);
        assert_eq!(serial.schedules_run, 96);
        assert_eq!(serial.steps, pooled.steps);
        assert_eq!(serial.moves, pooled.moves);
        assert_eq!(serial.team_min, pooled.team_min);
        assert_eq!(serial.team_max, pooled.team_max);
    }

    #[test]
    fn leaky_guard_mutant_fails_at_schedule_zero() {
        // The grid's holes decide where its guard leaks; the dynamic
        // scenario's full grid leaks at the homebase on every side.
        for (id, instance, sides, leak) in [
            (ScenarioId::Grid, GridInstance::Holes(42), 6..=6, 4),
            (ScenarioId::Dynamic, GridInstance::Full, 4..=12, 0),
        ] {
            for side in sides {
                let campaign = scenario(id, GridStrategy::LeakyGuard, side, instance, 64);
                let outcome = run_scenario_campaign(&campaign, 3, &MetricsRegistry::disabled());
                let at = format!("{id:?} side {side}");
                assert_eq!((outcome.schedules_run, outcome.violations), (1, 1), "{at}");
                assert!(
                    outcome.replay.is_none(),
                    "{at}: scenarios have no replay format"
                );
                let c = outcome.counterexample.expect("mutant must be caught");
                assert_eq!(
                    c.schedule, 0,
                    "{at}: mutant must die on the very first schedule"
                );
                assert_eq!(
                    c.violation.to_string(),
                    format!("step 1 event 4: recontamination at node {leak}"),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn failing_campaign_tallies_are_jobs_invariant() {
        let campaign = grid_campaign(GridStrategy::LeakyGuard, 640);
        let rows: Vec<Vec<String>> = [1usize, 2, 4]
            .into_iter()
            .map(|jobs| {
                let out = run_scenario_campaign(&campaign, jobs, &MetricsRegistry::disabled());
                assert_eq!((out.schedules_run, out.violations), (1, 1), "jobs = {jobs}");
                let mut row = campaign_table(&[out]).rows.remove(0);
                row[10].clear(); // sched/s is wall clock
                row
            })
            .collect();
        assert!(rows.windows(2).all(|w| w[0] == w[1]), "{rows:?}");
    }

    #[test]
    fn dynamic_campaign_is_quiet_and_jobs_invariant() {
        let campaign = scenario(
            ScenarioId::Dynamic,
            GridStrategy::Sweep,
            5,
            GridInstance::Full,
            64,
        );
        let serial = run_scenario_campaign(&campaign, 1, &MetricsRegistry::disabled());
        let pooled = run_scenario_campaign(&campaign, 5, &MetricsRegistry::disabled());
        assert_eq!(serial.violations, 0, "{:?}", serial.counterexample);
        assert!(serial.mutations > 0, "churn never landed");
        assert_eq!(serial.steps, pooled.steps);
        assert_eq!(serial.mutations, pooled.mutations);
        assert_eq!(serial.rejected, pooled.rejected);
    }

    #[test]
    fn telemetry_series_are_recorded() {
        let registry = MetricsRegistry::new();
        let campaign = grid_campaign(GridStrategy::Sweep, 8);
        run_scenario_campaign(&campaign, 2, &registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("scenario.schedules"), Some(8));
        assert!(snap.counter("scenario.steps").unwrap_or(0) > 0);
        assert_eq!(snap.counter("scenario.violations"), Some(0));
    }
}
