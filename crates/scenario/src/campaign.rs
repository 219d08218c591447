//! Scenario campaigns: the checker's sliced, pooled schedule
//! exploration applied to scenario workloads, with `scenario.*`
//! telemetry and a render table for the CLI.

use std::time::{Duration, Instant};

use hypersweep_analysis::{execute_schedule_stream, Table};
use hypersweep_check::{Adversary, ViolationReport};
use hypersweep_telemetry::MetricsRegistry;
use hypersweep_topology::Topology;

use crate::dynamic::run_dynamic;
use crate::sweep::{run_static, ScheduleStats};
use crate::{GridStrategy, ScenarioId};

/// Schedules per streamed slice; small enough to load-balance, large
/// enough to amortise per-claim overhead. Merging keeps the
/// lowest-schedule counterexample, so results are identical under any
/// `--jobs`.
const SLICE: u64 = 32;

/// What to explore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScenarioCampaign {
    /// Which scenario (must not be [`ScenarioId::Hypercube`] — the
    /// classic campaign driver owns that).
    pub scenario: ScenarioId,
    /// Strategy under test.
    pub strategy: GridStrategy,
    /// Grid side length (the instance is `side x side`).
    pub side: u32,
    /// Instance generator.
    pub instance: hypersweep_topology::GridInstance,
    /// Schedules to explore.
    pub schedules: u64,
    /// Base seed; schedule `i` uses the checker's `for_schedule(seed, i)`.
    pub seed: u64,
    /// Per-schedule decision-step budget; 0 picks a generous default.
    pub max_steps: u64,
}

impl ScenarioCampaign {
    /// The effective per-schedule step budget.
    pub fn effective_max_steps(&self, nodes: u64) -> u64 {
        if self.max_steps > 0 {
            self.max_steps
        } else {
            1_000 * nodes + 10_000
        }
    }
}

/// The first failing schedule, with enough context to re-run it.
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

/// Aggregated campaign result.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Scenario label.
    pub scenario: String,
    /// Strategy label.
    pub strategy: String,
    /// Instance label.
    pub instance: String,
    /// Grid side.
    pub side: u32,
    /// Live nodes in the instance.
    pub nodes: u64,
    /// Schedules explored up to and including the counterexample (all of
    /// them when there is none), the same for any worker count.
    pub schedules_run: u64,
    /// Total decision steps.
    pub steps: u64,
    /// Total events through the oracle.
    pub events: u64,
    /// Total edge traversals.
    pub moves: u64,
    /// Smallest team any schedule needed.
    pub team_min: u64,
    /// Largest team any schedule needed.
    pub team_max: u64,
    /// Total rounds (dynamic; == schedules for static).
    pub rounds: u64,
    /// Accepted topology mutations (dynamic).
    pub mutations: u64,
    /// Rejected mutation proposals (dynamic).
    pub rejected: u64,
    /// Violations found (0 or 1 — exploration stops at the first).
    pub violations: u64,
    /// The lowest-schedule counterexample, if any.
    pub counterexample: Option<ScenarioCounterexample>,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl ScenarioOutcome {
    /// Schedules per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.schedules_run as f64 / secs
        } else {
            0.0
        }
    }
}

/// What one streamed slice of schedules accumulated.
struct SliceOutcome {
    schedules_run: u64,
    steps: u64,
    events: u64,
    moves: u64,
    team_min: u64,
    team_max: u64,
    rounds: u64,
    mutations: u64,
    rejected: u64,
    /// The slice's violating schedule (its last), with its stats.
    violation: Option<(u64, ScheduleStats)>,
}

impl Default for SliceOutcome {
    fn default() -> Self {
        SliceOutcome {
            schedules_run: 0,
            steps: 0,
            events: 0,
            moves: 0,
            team_min: u64::MAX,
            team_max: 0,
            rounds: 0,
            mutations: 0,
            rejected: 0,
            violation: None,
        }
    }
}

fn run_one(campaign: &ScenarioCampaign, schedule: u64, max_steps: u64) -> ScheduleStats {
    match campaign.scenario {
        ScenarioId::Grid => {
            let grid = campaign.instance.build(campaign.side);
            let mut adversary = Adversary::for_schedule(campaign.seed, schedule);
            run_static(
                &grid,
                grid.homebase(),
                campaign.strategy == GridStrategy::LeakyGuard,
                &mut adversary,
                max_steps,
            )
        }
        ScenarioId::Dynamic => run_dynamic(
            campaign.side,
            campaign.instance,
            campaign.seed,
            schedule,
            max_steps,
        ),
        ScenarioId::Hypercube => unreachable!("hypercube campaigns use the classic driver"),
    }
}

/// Explore `campaign.schedules` adversarial schedules across `jobs`
/// workers. Schedules stream through fixed-width slices claimed from a
/// shared counter — nothing is materialized up front, so a 100k-schedule
/// campaign enqueues zero heap-allocated jobs. Deterministic for a given
/// campaign under any worker count: the lowest failing schedule wins, and
/// the tallies count exactly the schedules up to and including it (every
/// schedule when the campaign is quiet). The `scenario.*` counters count
/// every schedule actually run.
pub fn run_scenario_campaign(
    campaign: &ScenarioCampaign,
    jobs: usize,
    registry: &MetricsRegistry,
) -> ScenarioOutcome {
    let start = Instant::now();
    let nodes = campaign.instance.build(campaign.side).node_count() as u64;
    let max_steps = campaign.effective_max_steps(nodes);

    let schedules_ctr = registry.counter("scenario.schedules");
    let steps_ctr = registry.counter("scenario.steps");
    let events_ctr = registry.counter("scenario.events");
    let violations_ctr = registry.counter("scenario.violations");
    let mutations_ctr = registry.counter("scenario.dynamic.mutations");
    let rejected_ctr = registry.counter("scenario.dynamic.rejected");
    let schedule_us = registry.histogram("scenario.schedule_us");

    let slices = execute_schedule_stream(
        campaign.schedules,
        SLICE,
        jobs.max(1),
        registry,
        "scenario",
        |_worker| (),
        |_, out: &mut SliceOutcome, schedule| {
            let t0 = Instant::now();
            let stats = run_one(campaign, schedule, max_steps);
            schedule_us.record(t0.elapsed().as_micros() as u64);
            out.schedules_run += 1;
            out.steps += stats.steps;
            out.events += stats.events;
            out.moves += stats.moves;
            out.team_min = out.team_min.min(stats.team);
            out.team_max = out.team_max.max(stats.team);
            out.rounds += stats.rounds;
            out.mutations += stats.mutations;
            out.rejected += stats.rejected;
            schedules_ctr.add(1);
            steps_ctr.add(stats.steps);
            events_ctr.add(stats.events);
            mutations_ctr.add(stats.mutations);
            rejected_ctr.add(stats.rejected);
            if stats.violation.is_some() {
                violations_ctr.add(1);
                out.violation = Some((schedule, stats));
                true
            } else {
                false
            }
        },
    );

    let mut outcome = ScenarioOutcome {
        scenario: campaign.scenario.label().to_string(),
        strategy: campaign.strategy.name().to_string(),
        instance: campaign.instance.label(),
        side: campaign.side,
        nodes,
        schedules_run: 0,
        steps: 0,
        events: 0,
        moves: 0,
        team_min: u64::MAX,
        team_max: 0,
        rounds: 0,
        mutations: 0,
        rejected: 0,
        violations: 0,
        counterexample: None,
        elapsed: Duration::ZERO,
    };
    // Only the last slice can hold a violation: the winner.
    let mut winner = None;
    for slice in slices {
        outcome.schedules_run += slice.schedules_run;
        outcome.steps += slice.steps;
        outcome.events += slice.events;
        outcome.moves += slice.moves;
        outcome.team_min = outcome.team_min.min(slice.team_min);
        outcome.team_max = outcome.team_max.max(slice.team_max);
        outcome.rounds += slice.rounds;
        outcome.mutations += slice.mutations;
        outcome.rejected += slice.rejected;
        winner = slice.violation;
    }
    if outcome.team_min == u64::MAX {
        outcome.team_min = 0;
    }
    if let Some((schedule, stats)) = winner {
        outcome.violations = 1;
        let adversary = Adversary::for_schedule(campaign.seed, schedule)
            .kind()
            .name()
            .to_string();
        outcome.counterexample = Some(ScenarioCounterexample {
            schedule,
            adversary,
            violation: stats.violation.expect("winner carries a violation"),
            decisions: stats.decisions,
        });
    }
    outcome.elapsed = start.elapsed();
    registry
        .histogram("span.scenario.campaign_us")
        .record(outcome.elapsed.as_micros() as u64);
    outcome
}

/// Render campaign outcomes as the CLI's standard table.
pub fn scenario_table(outcomes: &[ScenarioOutcome]) -> Table {
    let mut table = Table::new(
        "scenario campaigns",
        &[
            "scenario",
            "strategy",
            "instance",
            "side",
            "nodes",
            "schedules",
            "steps",
            "moves",
            "team",
            "churn",
            "sched/s",
            "verdict",
        ],
    );
    for o in outcomes {
        let team = if o.team_min == o.team_max {
            o.team_min.to_string()
        } else {
            format!("{}-{}", o.team_min, o.team_max)
        };
        let churn = if o.mutations + o.rejected > 0 {
            format!("{}/{}", o.mutations, o.mutations + o.rejected)
        } else {
            "-".to_string()
        };
        let verdict = match &o.counterexample {
            None => "ok".to_string(),
            Some(c) => format!(
                "FAIL @ schedule {} [{}] ({})",
                c.schedule, c.adversary, c.violation
            ),
        };
        table.push_row(vec![
            o.scenario.clone(),
            o.strategy.clone(),
            o.instance.clone(),
            o.side.to_string(),
            o.nodes.to_string(),
            o.schedules_run.to_string(),
            o.steps.to_string(),
            o.moves.to_string(),
            team,
            churn,
            format!("{:.0}", o.throughput()),
            verdict,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersweep_topology::GridInstance;

    fn grid_campaign(strategy: GridStrategy, schedules: u64) -> ScenarioCampaign {
        ScenarioCampaign {
            scenario: ScenarioId::Grid,
            strategy,
            side: 6,
            instance: GridInstance::Holes(42),
            schedules,
            seed: 0,
            max_steps: 0,
        }
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
        let campaign = grid_campaign(GridStrategy::LeakyGuard, 64);
        let outcome = run_scenario_campaign(&campaign, 3, &MetricsRegistry::disabled());
        assert_eq!(outcome.violations, 1);
        let c = outcome.counterexample.expect("mutant must be caught");
        assert_eq!(c.schedule, 0, "mutant must die on the very first schedule");
    }

    #[test]
    fn failing_campaign_tallies_are_jobs_invariant() {
        let campaign = grid_campaign(GridStrategy::LeakyGuard, 640);
        let rows: Vec<Vec<String>> = [1usize, 2, 4]
            .into_iter()
            .map(|jobs| {
                let out = run_scenario_campaign(&campaign, jobs, &MetricsRegistry::disabled());
                assert_eq!((out.schedules_run, out.violations), (1, 1), "jobs = {jobs}");
                let mut row = scenario_table(&[out]).rows.remove(0);
                row[10].clear(); // sched/s is wall clock
                row
            })
            .collect();
        assert!(rows.windows(2).all(|w| w[0] == w[1]), "{rows:?}");
    }

    #[test]
    fn dynamic_campaign_is_quiet_and_jobs_invariant() {
        let campaign = ScenarioCampaign {
            scenario: ScenarioId::Dynamic,
            strategy: GridStrategy::Sweep,
            side: 5,
            instance: GridInstance::Full,
            schedules: 64,
            seed: 0,
            max_steps: 0,
        };
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
