//! Counterexample minimization.
//!
//! The vendored proptest stand-in has no shrinking, so the checker rolls
//! its own, exploiting the decision-trace encoding: decision `0` (the
//! lowest-id runnable agent) is the canonical choice and replays pad
//! exhausted traces with it, so a minimal counterexample is one with as
//! few non-canonical decisions as possible, then as short as possible.
//!
//! The first candidate is the all-canonical trace `[]`. If it still
//! violates, nothing can be more minimal, and it is the shrunk run after
//! one re-execution; a bug the canonical schedule already exposes (the
//! eager-guard mutant's) never pays for more.
//!
//! Otherwise a greedy fixpoint runs from the original run: for each
//! non-zero decision, try zeroing it and re-executing; keep the candidate
//! if *any* violation still occurs (re-runs are deterministic, so
//! acceptance is stable). Each acceptance strictly decreases the non-zero
//! count — the decisions before the changed index are untouched, so the
//! run's prefix is identical and recorded decisions can only lose
//! non-zeros — hence termination without a fuel parameter, though a
//! budget caps pathological cases anyway. The canonical candidate counts
//! against the same budget.

use crate::explore::{run_with_trace_in, CheckArena, CheckConfig, ScheduleRun};

/// What the shrinker did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate re-executions attempted.
    pub attempts: u64,
    /// Candidates accepted: the canonical trace, or a candidate that
    /// removed at least one non-canonical decision.
    pub accepted: u64,
}

/// Shrink a violating run to a minimal decision trace. `run` must carry a
/// violation; the returned run is the shrunk execution (still violating),
/// with trailing canonical decisions trimmed. `budget` caps candidate
/// re-executions; with `0` the run comes back unshrunk.
pub fn shrink(cfg: &CheckConfig, run: ScheduleRun, budget: u64) -> (ScheduleRun, ShrinkStats) {
    // Candidate re-executions recycle one arena: the shrinker re-runs the
    // trace up to `budget` times, so per-run `O(n)` allocations would
    // dominate small-dimension shrinks.
    let mut arena = CheckArena::new();
    shrink_with(run, budget, |trace| {
        run_with_trace_in(cfg, trace, &mut arena)
    })
}

/// [`shrink`] with the re-execution of a decision trace passed in, so that
/// a test can substitute a synthetic executor.
fn shrink_with(
    run: ScheduleRun,
    budget: u64,
    mut execute: impl FnMut(&[u32]) -> ScheduleRun,
) -> (ScheduleRun, ShrinkStats) {
    assert!(run.violation.is_some(), "only violating runs can be shrunk");
    let mut stats = ShrinkStats::default();
    if budget > 0 {
        stats.attempts += 1;
        let canonical = execute(&[]);
        if canonical.violation.is_some() {
            stats.accepted += 1;
            return (trim(canonical), stats);
        }
    }
    let mut best = run;
    'outer: loop {
        for i in 0..best.decisions.len() {
            if best.decisions[i] == 0 {
                continue;
            }
            if stats.attempts >= budget {
                break 'outer;
            }
            let mut candidate = best.decisions.clone();
            candidate[i] = 0;
            stats.attempts += 1;
            let result = execute(&candidate);
            if result.violation.is_some() {
                best = result;
                stats.accepted += 1;
                // The trace may have shortened; restart the scan.
                continue 'outer;
            }
        }
        // A full scan with no acceptance: fixpoint reached.
        break;
    }
    // Trimming trailing canonical decisions is free: replays pad exhausted
    // traces with 0, so the execution is unchanged. Re-execute once to
    // normalize the run's recorded steps/events, then trim again (the
    // re-execution records the padding it was fed).
    let best = trim(best);
    (trim(execute(&best.decisions)), stats)
}

/// `run` with its trailing canonical decisions dropped.
fn trim(mut run: ScheduleRun) -> ScheduleRun {
    while run.decisions.last() == Some(&0) {
        run.decisions.pop();
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_schedule, CheckStrategy};
    use crate::oracle::{ViolationKind, ViolationReport};
    use crate::replay::replay_file;

    fn find_violating_run(cfg: &CheckConfig, seed: u64) -> (u64, ScheduleRun) {
        for schedule in 0..400 {
            let run = explore_schedule(cfg, seed, schedule);
            if run.violation.is_some() {
                return (schedule, run);
            }
        }
        panic!("{} not caught in 400 schedules", cfg.name());
    }

    /// The greedy pass as it ran before the canonical candidate existed,
    /// kept verbatim (apart from taking its executor as a closure) as the
    /// reference the shrinker must agree with.
    fn reference_shrink(
        run: ScheduleRun,
        budget: u64,
        mut execute: impl FnMut(&[u32]) -> ScheduleRun,
    ) -> (ScheduleRun, ShrinkStats) {
        assert!(run.violation.is_some(), "only violating runs can be shrunk");
        let mut best = run;
        let mut stats = ShrinkStats::default();
        'outer: loop {
            for i in 0..best.decisions.len() {
                if best.decisions[i] == 0 {
                    continue;
                }
                if stats.attempts >= budget {
                    break 'outer;
                }
                let mut candidate = best.decisions.clone();
                candidate[i] = 0;
                stats.attempts += 1;
                let result = execute(&candidate);
                if result.violation.is_some() {
                    best = result;
                    stats.accepted += 1;
                    // The trace may have shortened; restart the scan.
                    continue 'outer;
                }
            }
            // A full scan with no acceptance: fixpoint reached.
            break;
        }
        while best.decisions.last() == Some(&0) {
            best.decisions.pop();
        }
        let mut normalized = execute(&best.decisions);
        while normalized.decisions.last() == Some(&0) {
            normalized.decisions.pop();
        }
        (normalized, stats)
    }

    /// splitmix64, for generating synthetic problems.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A stand-in for the checker with the same trace contract: step `t`
    /// reduces the trace's decision modulo a runnable-set size, pads an
    /// exhausted trace with `0`, records what it executed, and stops at
    /// the first step whose decision prefix the violation predicate
    /// (a seeded hash, firing with probability `1/rarity` per step)
    /// accepts.
    struct Synthetic {
        sizes: Vec<u32>,
        salt: u64,
        rarity: u64,
    }

    impl Synthetic {
        fn random(gen: &mut Gen) -> Self {
            let horizon = 1 + gen.below(24) as usize;
            let width = 1 + gen.below(6) as u32;
            Synthetic {
                sizes: (0..horizon)
                    .map(|_| 1 + gen.below(u64::from(width)) as u32)
                    .collect(),
                salt: gen.next(),
                rarity: 1 + gen.below(2 * horizon as u64),
            }
        }

        fn execute(&self, trace: &[u32]) -> ScheduleRun {
            let mut decisions = Vec::new();
            let mut hash = self.salt;
            for (step, &size) in self.sizes.iter().enumerate() {
                let idx = trace.get(step).copied().unwrap_or(0) % size;
                decisions.push(idx);
                hash = Gen(hash ^ u64::from(idx)).next();
                if hash % self.rarity == 0 {
                    let step = step as u64;
                    return ScheduleRun {
                        steps: step,
                        events: hash % 97,
                        violation: Some(ViolationReport {
                            step,
                            event: hash % 97,
                            kind: ViolationKind::Recontamination {
                                node: (hash >> 32) as u32,
                            },
                        }),
                        decisions,
                    };
                }
            }
            ScheduleRun {
                steps: self.sizes.len() as u64,
                events: 0,
                violation: None,
                decisions,
            }
        }
    }

    /// Over random synthetic problems and random violating runs: the
    /// canonical trace is accepted after exactly one attempt whenever it
    /// violates; otherwise the result is the reference's, at one more
    /// attempt, whenever the reference reached its fixpoint within the
    /// budget (and exactly the reference's under one less budget in every
    /// case); budget 0 attempts nothing.
    #[test]
    fn agrees_with_the_reference_greedy_pass_on_synthetic_runs() {
        let mut gen = Gen(0x5412_1F00);
        let (mut canonical, mut greedy, mut capped) = (0, 0, 0);
        for _ in 0..3_000 {
            let problem = Synthetic::random(&mut gen);
            let trace: Vec<u32> = (0..problem.sizes.len())
                .map(|_| gen.below(8) as u32)
                .collect();
            let run = problem.execute(&trace);
            if run.violation.is_none() {
                continue;
            }
            let exec = |t: &[u32]| problem.execute(t);
            let (fixpoint, full) = reference_shrink(run.clone(), u64::MAX, exec);
            for budget in [0, 1, 2, 3, 5, full.attempts, full.attempts + 1, 2_000] {
                let (got, stats) = shrink_with(run.clone(), budget, exec);
                assert!(got.violation.is_some());
                if budget == 0 {
                    assert_eq!(stats, ShrinkStats::default());
                    assert_eq!((got, stats), reference_shrink(run.clone(), 0, exec));
                } else if problem.execute(&[]).violation.is_some() {
                    canonical += 1;
                    assert_eq!(
                        stats,
                        ShrinkStats {
                            attempts: 1,
                            accepted: 1
                        }
                    );
                    assert!(got.decisions.is_empty(), "{:?}", got.decisions);
                    assert_eq!(got, trim(problem.execute(&[])));
                } else {
                    let (want, ref_stats) = reference_shrink(run.clone(), budget - 1, exec);
                    let one_more = ShrinkStats {
                        attempts: ref_stats.attempts + 1,
                        ..ref_stats
                    };
                    assert_eq!((&got, stats), (&want, one_more));
                    if full.attempts < budget {
                        greedy += 1;
                        assert_eq!(got, fixpoint);
                        assert_eq!(stats.attempts, full.attempts + 1);
                    } else {
                        capped += 1;
                    }
                }
            }
        }
        // The generator reaches every branch.
        assert!(canonical > 100 && greedy > 100 && capped > 100);
    }

    #[test]
    fn shrunk_traces_still_violate_and_lose_nonzeros() {
        let cfg = CheckConfig::new(CheckStrategy::MutantEagerGuard, 4);
        let (_, run) = find_violating_run(&cfg, 11);
        let nonzeros_before = run.decisions.iter().filter(|&&d| d != 0).count();
        let (shrunk, stats) = shrink(&cfg, run, 2_000);
        assert!(shrunk.violation.is_some());
        let nonzeros_after = shrunk.decisions.iter().filter(|&&d| d != 0).count();
        assert!(nonzeros_after <= nonzeros_before);
        assert!(stats.attempts >= stats.accepted);
        assert_ne!(shrunk.decisions.last(), Some(&0), "tail is trimmed");
        // The shrunk trace is self-reproducing: padding restores the
        // trimmed zeros, so the re-execution hits the same violation at
        // the same step and event.
        let rerun = crate::explore::run_with_trace(&cfg, &shrunk.decisions);
        assert_eq!(rerun.violation, shrunk.violation);
        assert_eq!(rerun.steps, shrunk.steps);
        assert_eq!(rerun.events, shrunk.events);
    }

    /// On the real checker, both passes write the same replay bytes: the
    /// eager-guard mutant (caught by the canonical trace, so one attempt)
    /// at d=4..7 and the wake-up mutant (which needs the greedy pass).
    #[test]
    fn real_shrinks_serialize_like_the_reference() {
        let mut problems: Vec<(CheckConfig, u64)> = Vec::new();
        for dim in 4..=7 {
            for seed in 1..=3 {
                problems.push((CheckConfig::new(CheckStrategy::MutantEagerGuard, dim), seed));
            }
        }
        for dim in 3..=5 {
            let cfg = CheckConfig::named("mutant-wakeup-clone", dim).expect("a mutant");
            problems.push((cfg, 1));
        }
        for (cfg, seed) in problems {
            let (schedule, run) = find_violating_run(&cfg, seed);
            let mut arena = CheckArena::new();
            let (want, _) = reference_shrink(run.clone(), 2_000, |t| {
                run_with_trace_in(&cfg, t, &mut arena)
            });
            let (got, stats) = shrink(&cfg, run, 2_000);
            let canonical = cfg.mutant.is_none();
            assert_eq!(
                stats.attempts == 1,
                canonical,
                "{} d={}",
                cfg.name(),
                cfg.dim
            );
            assert_eq!(got.decisions.is_empty(), canonical);
            assert_eq!(
                replay_file(&cfg, seed, schedule, got).to_json(),
                replay_file(&cfg, seed, schedule, want).to_json(),
                "{} d={} seed {seed}",
                cfg.name(),
                cfg.dim
            );
        }
    }
}
