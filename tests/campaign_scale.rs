//! Campaigns at 100k-schedule scale: the streaming executor's contract.
//!
//! PR 9's campaigns materialized one boxed closure per 32-schedule slice,
//! which at 100k schedules is thousands of queued allocations and no way
//! to stop early. The streaming executor claims slices from an atomic
//! counter and shares a lowest-violation cutoff, so a 100k-schedule
//! campaign is cheap **whenever a counterexample exists** — every slice
//! past the winner is skipped — and exhaustive when quiet. These tests
//! pin the determinism half of that bargain at full scale: the reported
//! counterexample index and its serialized replay must be byte-identical
//! across worker counts and repeated same-seed runs.

use hypersweep::check::{CheckConfig, CheckStrategy};
use hypersweep::scenario::{run_scenario_campaign, GridStrategy, ScenarioCampaign, ScenarioId};
use hypersweep::telemetry::MetricsRegistry;
use hypersweep::topology::GridInstance;

/// The scale the streaming engine is specified at.
const CAMPAIGN: u64 = 100_000;

/// Fixed seed: verdicts must be reproducible.
const SEED: u64 = 2005;

fn campaign_at_scale(strategy: CheckStrategy, dim: u32, planted: Option<u64>) -> ScenarioCampaign {
    ScenarioCampaign::hypercube(CheckConfig::new(strategy, dim), CAMPAIGN, SEED, planted)
}

/// A 100k-schedule campaign at d=8 with a violation planted mid-stream
/// reports the planted index — and a byte-identical shrunk replay — for
/// `--jobs` 1, 2, and 8 *and* across two same-seed runs of the same job
/// count. The cutoff makes this affordable: only schedules up to the
/// planted index ever run.
#[test]
fn campaign_100k_at_d8_is_byte_identical_across_jobs_and_reruns() {
    const PLANTED: u64 = 137;
    let c = campaign_at_scale(CheckStrategy::Cloning, 8, Some(PLANTED));
    let reg = MetricsRegistry::disabled();
    let mut jsons = Vec::new();
    for jobs in [1usize, 2, 8] {
        let out = run_scenario_campaign(&c, jobs, &reg);
        let replay = out
            .replay
            .unwrap_or_else(|| panic!("planted violation missed at jobs={jobs}"));
        assert_eq!(
            replay.schedule, PLANTED,
            "jobs={jobs} must converge on the planted index"
        );
        jsons.push(replay.to_json());
    }
    // Second same-seed run at the most contended width.
    let rerun = run_scenario_campaign(&c, 8, &reg)
        .replay
        .expect("rerun finds the planted violation");
    jsons.push(rerun.to_json());
    assert!(
        jsons.windows(2).all(|w| w[0] == w[1]),
        "counterexample replay must serialize byte-identically across jobs and reruns"
    );
}

/// Shrinking at the new campaign size is deterministic too: the replay the
/// 100k campaign writes is already shrunk, and re-running the whole
/// campaign (which re-shrinks from scratch) reproduces it byte for byte.
#[test]
fn shrunk_replay_is_byte_identical_at_campaign_scale() {
    let c = campaign_at_scale(CheckStrategy::MutantEagerGuard, 6, None);
    let reg = MetricsRegistry::disabled();
    let first = run_scenario_campaign(&c, 4, &reg)
        .replay
        .expect("mutant caught at scale");
    let second = run_scenario_campaign(&c, 4, &reg)
        .replay
        .expect("mutant caught again");
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "shrink must be deterministic at campaign scale"
    );
    let reexecuted = first.verify().expect("shrunk replay reproduces");
    assert_eq!(reexecuted.violation, Some(first.violation.clone()));
}

/// Negative control at scale: the eager-guard mutant is still caught at
/// schedule 0 under streaming, and the cutoff then discharges the
/// remaining 99,968 schedules without running them — the slice telemetry
/// proves the skip actually happened.
#[test]
fn eager_guard_mutant_is_caught_at_schedule_zero_in_a_100k_campaign() {
    let c = campaign_at_scale(CheckStrategy::MutantEagerGuard, 6, None);
    let reg = MetricsRegistry::new();
    let out = run_scenario_campaign(&c, 1, &reg);
    let replay = out.replay.expect("mutant must be caught");
    assert_eq!(replay.schedule, 0, "mutant must die on the first schedule");
    assert_eq!(
        out.schedules_run, 1,
        "serial: nothing past the violation runs"
    );
    let snap = reg.snapshot();
    let claimed = snap.counter("check.slices").unwrap_or(0);
    let skipped = snap.counter("check.slices_skipped").unwrap_or(0);
    assert_eq!(
        claimed + skipped,
        CAMPAIGN / 32,
        "every slice accounted for"
    );
    assert!(
        skipped >= CAMPAIGN / 32 - 1,
        "the cutoff must skip (not run) the tail: skipped {skipped}"
    );
}

/// The grid mutant under the scenario driver's streaming path: caught at
/// schedule 0 of a 100k-schedule campaign, tail skipped.
#[test]
fn grid_leaky_guard_mutant_is_caught_at_schedule_zero_in_a_100k_campaign() {
    let grid = hypersweep::scenario::resolve(ScenarioId::Grid).expect("a registered scenario");
    let campaign = grid.campaign(
        GridStrategy::LeakyGuard,
        6,
        GridInstance::Holes(42),
        CAMPAIGN,
        0,
        0,
    );
    let reg = MetricsRegistry::new();
    let out = run_scenario_campaign(&campaign, 1, &reg);
    let c = out.counterexample.expect("grid mutant must be caught");
    assert_eq!(c.schedule, 0, "mutant must die on the first schedule");
    assert_eq!(out.schedules_run, 1);
    let snap = reg.snapshot();
    let claimed = snap.counter("scenario.slices").unwrap_or(0);
    let skipped = snap.counter("scenario.slices_skipped").unwrap_or(0);
    assert_eq!(claimed + skipped, CAMPAIGN / 32);
    assert!(skipped >= CAMPAIGN / 32 - 1);
}

/// A seeded mid-campaign mutant at a *deep* index is found at exactly that
/// index regardless of job count — racing workers can overshoot the
/// planted schedule but can never lose it to the cutoff.
#[test]
fn planted_deep_index_is_exact_for_every_job_count_at_scale() {
    const PLANTED: u64 = 421;
    let c = campaign_at_scale(CheckStrategy::Visibility, 6, Some(PLANTED));
    let reg = MetricsRegistry::disabled();
    for jobs in [1usize, 3, 8] {
        let out = run_scenario_campaign(&c, jobs, &reg);
        assert_eq!(
            out.replay.expect("planted violation found").schedule,
            PLANTED,
            "jobs={jobs}"
        );
    }
}
