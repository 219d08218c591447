//! Checker campaigns at scale: d=12 with the stride-1 default.
//!
//! PR 5's checker had to stride-sample the contiguity/frontier oracles
//! above d=10 to stay affordable; the incremental clean-region
//! connectivity kernel makes them `O(1)` per event, so the default stride
//! is now 1 at every dimension. These tests pin that down where it
//! matters: `H_12` (4096 nodes), every adversary family, every event
//! checked.

use hypersweep::check::{
    explore_schedule, explore_schedule_in, shrunk_replay_with_budget, Adversary, AdversaryKind,
    CheckArena, CheckConfig, CheckStrategy,
};

/// Campaign seed for the scale-up tests (arbitrary but fixed: the verdict
/// must be deterministic).
const SEED: u64 = 3;

/// All five adversary families stay quiet on every asynchronous paper
/// strategy at d=12 under per-event (stride-1 default) oracle checking.
/// Schedules `0..5` rotate through the full family list
/// (`Adversary::for_schedule`), so one schedule per family suffices for
/// coverage. CLEAN takes close to a million decision steps per schedule at
/// 2^12 nodes; the engine's incremental runnable set keeps that affordable
/// even in a debug build.
#[test]
fn stride1_campaign_at_d12_is_quiet_across_all_adversary_families() {
    let mut arena = CheckArena::new();
    for strategy in [
        CheckStrategy::Cloning,
        CheckStrategy::Clean,
        CheckStrategy::Visibility,
    ] {
        let cfg = CheckConfig::new(strategy, 12);
        assert_eq!(cfg.stride, 0, "0 must derive the stride-1 default");
        let mut families: Vec<AdversaryKind> = Vec::new();
        for schedule in 0..AdversaryKind::ALL.len() as u64 {
            families.push(Adversary::for_schedule(SEED, schedule).kind());
            let run = explore_schedule_in(&cfg, SEED, schedule, &mut arena);
            assert_eq!(
                run.violation,
                None,
                "{} d=12 schedule {schedule} ({:?} adversary): {:?}",
                strategy.name(),
                families.last().unwrap(),
                run.violation
            );
            assert!(
                run.events as usize >= 1 << 12,
                "a full d=12 sweep applies at least n events, saw {}",
                run.events
            );
        }
        families.sort_by_key(|k| k.name());
        families.dedup();
        assert_eq!(
            families.len(),
            AdversaryKind::ALL.len(),
            "schedules 0..5 must cover every adversary family, got {families:?}"
        );
    }
}

/// The synchronous variant at d=12 under per-event checking (its schedule
/// is canonical, so one run is the whole campaign).
#[test]
fn stride1_synchronous_campaign_at_d12_is_quiet() {
    let cfg = CheckConfig::new(CheckStrategy::Synchronous, 12);
    let run = explore_schedule(&cfg, SEED, 0);
    assert_eq!(run.violation, None, "synchronous d=12: {:?}", run.violation);
    assert!(run.events as usize >= 1 << 12);
}

/// The eager-guard mutant is still caught at *schedule 0* at d=12 — the
/// very first interleaving the campaign tries — and shrinking the
/// counterexample is deterministic: two shrinks of the same run serialize
/// to byte-identical replay files, and the replay re-executes to the
/// recorded violation. (The shrink budget is small here: each candidate
/// re-execution walks thousands of steps at d=12, and byte-determinism is
/// independent of how minimal the result is.)
#[test]
fn mutant_caught_at_schedule_zero_at_d12_with_byte_identical_shrunk_replay() {
    let cfg = CheckConfig::new(CheckStrategy::MutantEagerGuard, 12);
    let run = explore_schedule(&cfg, SEED, 0);
    assert!(
        run.violation.is_some(),
        "mutant must be caught at schedule 0 at d=12"
    );

    const BUDGET: u64 = 6;
    let first = shrunk_replay_with_budget(&cfg, SEED, 0, run.clone(), BUDGET);
    let second = shrunk_replay_with_budget(&cfg, SEED, 0, run, BUDGET);
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "shrinking the same run twice must produce byte-identical replays"
    );

    let reexecuted = first
        .verify()
        .expect("shrunk d=12 replay reproduces its violation");
    assert_eq!(reexecuted.violation, Some(first.violation.clone()));
}
