//! Parallel schedule-exploration campaigns on the harness worker pool.
//!
//! `hypersweep-check` explores one schedule at a time; a campaign is
//! thousands — now hundreds of thousands — of them, embarrassingly
//! parallel. This module **streams** the schedule range through
//! [`execute_schedule_stream`]: workers claim fixed-width slices from a
//! shared atomic counter (nothing materialized up front, so a 100k-schedule
//! campaign enqueues zero heap-allocated jobs), each worker keeps **one**
//! [`CheckArena`] for its whole lifetime (the oracle field's `O(n)`
//! allocations are paid once per worker, not once per slice), and a shared
//! cutoff lets workers skip every slice above the lowest violation found so
//! far. The reported counterexample is always the one with the **lowest
//! schedule index**, deterministic for a fixed `(strategy, dim, schedules,
//! seed)` regardless of parallelism — see
//! [`crate::pool::StreamCutoff`] for why the cutoff cannot skip the
//! winner. The outcome's tallies count only the schedules up to and
//! including the winner, which every worker count runs exactly once, so
//! the campaign table reads the same under any `--jobs`.
//!
//! Telemetry counts the work actually done, including schedules a pooled
//! campaign ran past the winner. It lands in the `check.*` series:
//! `check.schedules`, `check.steps`, `check.events`, `check.violations`,
//! `check.slices`, `check.slices_skipped` counters, the per-schedule
//! `check.schedule_us` wall-time histogram, and per-campaign
//! `span.check.campaign_us` / `span.check.shrink_us` phase spans (rendered
//! by `check --timings`).

use std::time::{Duration, Instant};

use hypersweep_check::{explore_schedule_in, shrunk_replay, CheckArena, CheckConfig, ReplayFile};
use hypersweep_telemetry::MetricsRegistry;

use crate::pool::execute_schedule_stream;
use crate::table::Table;

/// Fixed slice width for the fan-out, independent of the worker count so
/// *which* schedules a slice covers never depends on `--jobs`. Small
/// enough to load-balance a contended pool, large enough that per-slice
/// claim overhead stays negligible. Streaming means slice count never
/// translates into queued memory: a 100k-schedule campaign holds exactly
/// one claim counter, not 3125 queued closures.
const SLICE: u64 = 32;

/// Upper bound on `--campaign-size`: beyond this even the cheapest
/// strategies need days, so larger requests are almost certainly typos.
pub const MAX_CAMPAIGN_SCHEDULES: u64 = 10_000_000;

/// Validate a campaign size the way `validate_max_dim` validates `--max-dim`:
/// reject 0 (an empty campaign proves nothing) and absurd sizes.
pub fn validate_campaign_size(schedules: u64) -> Result<u64, String> {
    if schedules == 0 {
        Err(format!(
            "--campaign-size must be at least 1 (a 0-schedule campaign explores nothing); \
             valid range is 1..={MAX_CAMPAIGN_SCHEDULES}"
        ))
    } else if schedules > MAX_CAMPAIGN_SCHEDULES {
        Err(format!(
            "--campaign-size {schedules} exceeds the supported limit {MAX_CAMPAIGN_SCHEDULES} \
             (larger campaigns take days even at wide-kernel throughput); \
             valid range is 1..={MAX_CAMPAIGN_SCHEDULES}"
        ))
    } else {
        Ok(schedules)
    }
}

/// One campaign: explore `schedules` seeded schedules of `cfg`.
#[derive(Clone, Copy, Debug)]
pub struct CheckCampaign {
    /// The checking problem (strategy, dimension, bounds).
    pub cfg: CheckConfig,
    /// How many schedules to explore (`0..schedules`).
    pub schedules: u64,
    /// Campaign seed; schedule `s` runs under the adversary
    /// `Adversary::for_schedule(seed, s)`.
    pub seed: u64,
    /// Negative control: force the schedule at this index to violate by
    /// running it under a 1-step budget (a guaranteed `StepLimit`). The
    /// campaign must then report exactly this index (or a lower natural
    /// violation) for **any** job count — a seeded mid-campaign mutant
    /// that proves the streaming cutoff cannot lose the winner.
    pub planted: Option<u64>,
}

/// What a campaign found.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Strategy name.
    pub strategy: String,
    /// Hypercube dimension.
    pub dim: u32,
    /// Schedules explored up to and including the counterexample (all of
    /// them when there is none), the same for any worker count.
    pub schedules_run: u64,
    /// Decision steps executed across those schedules.
    pub steps: u64,
    /// Events fed through the oracles across those schedules.
    pub events: u64,
    /// Violating schedules among them: 1 with a counterexample, else 0.
    pub violations: u64,
    /// The lowest-index counterexample, shrunk and ready to serialize.
    /// `None` means every explored schedule upheld every invariant.
    pub counterexample: Option<ReplayFile>,
    /// Campaign wall time.
    pub elapsed: Duration,
}

impl CampaignOutcome {
    /// Schedules per second of wall time.
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
#[derive(Default)]
struct SliceTally {
    schedules_run: u64,
    steps: u64,
    events: u64,
    /// The slice's violating schedule (its last), with its run.
    violation: Option<(u64, hypersweep_check::ScheduleRun)>,
}

/// The config a specific schedule runs under: the campaign config, except
/// a planted schedule gets a 1-step budget (guaranteed `StepLimit`).
fn schedule_cfg(campaign: &CheckCampaign, schedule: u64) -> CheckConfig {
    let mut cfg = campaign.cfg;
    if campaign.planted == Some(schedule) {
        cfg.max_steps = 1;
    }
    cfg
}

/// Run one campaign on `jobs` streaming workers, recording `check.*`
/// telemetry into `registry`. Deterministic for any `jobs`: the returned
/// counterexample is the lowest-index violating schedule, and the tallies
/// count exactly the schedules up to and including it (every schedule when
/// the campaign is quiet). The `check.*` counters count every schedule
/// actually run, including those a pooled campaign ran past the winner.
pub fn run_campaign(
    campaign: &CheckCampaign,
    jobs: usize,
    registry: &MetricsRegistry,
) -> CampaignOutcome {
    let started = Instant::now();
    let cfg = campaign.cfg;
    let seed = campaign.seed;
    let schedules_counter = registry.counter("check.schedules");
    let steps_counter = registry.counter("check.steps");
    let events_counter = registry.counter("check.events");
    let violations_counter = registry.counter("check.violations");
    let schedule_us = registry.histogram("check.schedule_us");

    let slices = execute_schedule_stream(
        campaign.schedules,
        SLICE,
        jobs.max(1),
        registry,
        "check",
        // One arena per *worker* for the whole campaign: every slice it
        // claims recycles the oracle field's allocations.
        |_worker| CheckArena::new(),
        |arena, tally: &mut SliceTally, schedule| {
            let run_cfg = schedule_cfg(campaign, schedule);
            let t0 = Instant::now();
            let run = explore_schedule_in(&run_cfg, seed, schedule, arena);
            schedule_us.record(t0.elapsed().as_micros() as u64);
            tally.schedules_run += 1;
            tally.steps += run.steps;
            tally.events += run.events;
            schedules_counter.add(1);
            steps_counter.add(run.steps);
            events_counter.add(run.events);
            if run.violation.is_some() {
                violations_counter.add(1);
                tally.violation = Some((schedule, run));
                true
            } else {
                false
            }
        },
    );

    let mut outcome = CampaignOutcome {
        strategy: cfg.name().to_string(),
        dim: cfg.dim,
        schedules_run: 0,
        steps: 0,
        events: 0,
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
        winner = slice.violation;
    }
    if let Some((schedule, run)) = winner {
        outcome.violations = 1;
        let shrink_cfg = schedule_cfg(campaign, schedule);
        let t0 = Instant::now();
        outcome.counterexample = Some(shrunk_replay(&shrink_cfg, seed, schedule, run));
        registry
            .histogram("span.check.shrink_us")
            .record(t0.elapsed().as_micros() as u64);
    }
    outcome.elapsed = started.elapsed();
    registry
        .histogram("span.check.campaign_us")
        .record(outcome.elapsed.as_micros() as u64);
    outcome
}

/// Render campaign outcomes as the summary table `hypersweep check` prints.
pub fn campaign_table(outcomes: &[CampaignOutcome]) -> Table {
    let mut table = Table::new(
        "schedule-exploration campaigns",
        &[
            "strategy",
            "dim",
            "schedules",
            "steps",
            "events",
            "sched/s",
            "violations",
            "verdict",
        ],
    );
    for o in outcomes {
        let verdict = match &o.counterexample {
            Some(replay) => format!("FAIL @ schedule {} ({})", replay.schedule, replay.violation),
            None => "ok".to_string(),
        };
        table.push_row(vec![
            o.strategy.clone(),
            o.dim.to_string(),
            o.schedules_run.to_string(),
            o.steps.to_string(),
            o.events.to_string(),
            format!("{:.0}", o.throughput()),
            o.violations.to_string(),
            verdict,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersweep_check::CheckStrategy;

    fn campaign(strategy: CheckStrategy, schedules: u64) -> CheckCampaign {
        CheckCampaign {
            cfg: CheckConfig::new(strategy, 4),
            schedules,
            seed: 0xFEED,
            planted: None,
        }
    }

    #[test]
    fn clean_campaign_is_quiet_and_deterministic_across_jobs() {
        let c = campaign(CheckStrategy::Clean, 80);
        let reg = MetricsRegistry::disabled();
        let serial = run_campaign(&c, 1, &reg);
        let pooled = run_campaign(&c, 8, &reg);
        assert_eq!(serial.violations, 0);
        assert_eq!(serial.counterexample.as_ref().map(|r| r.to_json()), None);
        assert_eq!(serial.schedules_run, pooled.schedules_run);
        assert_eq!(serial.steps, pooled.steps);
        assert_eq!(serial.events, pooled.events);
    }

    #[test]
    fn mutant_campaign_reports_the_lowest_counterexample_for_any_jobs() {
        let c = campaign(CheckStrategy::MutantEagerGuard, 200);
        let reg = MetricsRegistry::disabled();
        let serial = run_campaign(&c, 1, &reg);
        let pooled = run_campaign(&c, 8, &reg);
        let a = serial.counterexample.expect("mutant caught serially");
        let b = pooled.counterexample.expect("mutant caught pooled");
        assert_eq!(a.to_json(), b.to_json(), "verdict depends on --jobs");
        assert!(serial.violations >= 1);
    }

    #[test]
    fn campaign_telemetry_lands_in_check_series() {
        let reg = MetricsRegistry::new();
        let c = campaign(CheckStrategy::Visibility, 12);
        let out = run_campaign(&c, 2, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("check.schedules"), Some(out.schedules_run));
        assert_eq!(snap.counter("check.steps"), Some(out.steps));
        assert_eq!(snap.counter("check.violations"), Some(0));
        assert_eq!(
            snap.histogram("check.schedule_us").map(|h| h.count),
            Some(out.schedules_run)
        );
    }

    #[test]
    fn planted_violation_is_found_at_exactly_its_index_for_any_jobs() {
        // A mid-campaign planted mutant on an otherwise quiet strategy:
        // the campaign must converge on exactly the planted index no
        // matter how many workers race the stream.
        for planted in [0u64, 37, 79] {
            let mut c = campaign(CheckStrategy::Clean, 80);
            c.planted = Some(planted);
            let reg = MetricsRegistry::disabled();
            let mut jsons = Vec::new();
            for jobs in [1usize, 2, 8] {
                let out = run_campaign(&c, jobs, &reg);
                let replay = out
                    .counterexample
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
        let c = CheckCampaign {
            cfg: CheckConfig::new(CheckStrategy::Cloning, 6),
            schedules: 100_000,
            seed: 2005,
            planted: Some(1337),
        };
        let rows: Vec<Vec<String>> = [1usize, 2, 4]
            .into_iter()
            .map(|jobs| {
                let out = run_campaign(&c, jobs, &MetricsRegistry::disabled());
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
        let mut c = campaign(CheckStrategy::Clean, 640);
        c.planted = Some(0);
        let reg = MetricsRegistry::new();
        let out = run_campaign(&c, 1, &reg);
        assert_eq!(out.counterexample.unwrap().schedule, 0);
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
        let c = campaign(CheckStrategy::Clean, 16);
        run_campaign(&c, 2, &reg);
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
        let mut m = campaign(CheckStrategy::MutantEagerGuard, 16);
        m.planted = None;
        run_campaign(&m, 2, &reg);
        assert_eq!(
            reg.snapshot()
                .histogram("span.check.shrink_us")
                .map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn campaign_size_validation_rejects_zero_and_absurd() {
        assert!(validate_campaign_size(0).is_err());
        assert_eq!(validate_campaign_size(1), Ok(1));
        assert_eq!(
            validate_campaign_size(MAX_CAMPAIGN_SCHEDULES),
            Ok(MAX_CAMPAIGN_SCHEDULES)
        );
        let err = validate_campaign_size(MAX_CAMPAIGN_SCHEDULES + 1).unwrap_err();
        assert!(err.contains("valid range"), "structured message: {err}");
    }

    #[test]
    fn table_renders_one_row_per_campaign() {
        let reg = MetricsRegistry::disabled();
        let outcomes: Vec<_> = [CheckStrategy::Clean, CheckStrategy::MutantEagerGuard]
            .into_iter()
            .map(|s| run_campaign(&campaign(s, 120), 4, &reg))
            .collect();
        let table = campaign_table(&outcomes);
        assert_eq!(table.rows.len(), 2);
        assert_eq!(table.rows[0].last().unwrap(), "ok");
        assert!(table.rows[1].last().unwrap().starts_with("FAIL @ schedule"));
    }
}
