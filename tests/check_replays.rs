//! The checker's replay contract: shrunk counterexamples round-trip
//! through serde and re-execute to the identical violation, both for
//! freshly-found failures (property-tested) and for the committed corpus
//! under `tests/corpus/` (regression-tested on every `cargo test`).

use std::path::PathBuf;

use hypersweep::analysis::{run_campaign, CheckCampaign};
use hypersweep::check::{
    explore_schedule, run_with_trace, shrunk_replay, CheckConfig, CheckStrategy, ReplayFile,
};
use hypersweep::telemetry::MetricsRegistry;
use proptest::prelude::*;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

/// Every committed counterexample still parses, re-executes, and
/// reproduces its recorded violation step-exactly — and its serialized
/// form is byte-stable (parse → serialize is the identity).
#[test]
fn committed_corpus_replays_reproduce_their_violations() {
    let files = corpus_files();
    assert!(
        files.len() >= 3,
        "the corpus must hold at least 3 replays, found {}",
        files.len()
    );
    for path in files {
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let replay =
            ReplayFile::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let run = replay
            .verify()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(run.violation.as_ref(), Some(&replay.violation));
        assert_eq!(
            replay.to_json() + "\n",
            text,
            "{}: corpus file is not in canonical form",
            path.display()
        );
    }
}

/// The corpus spans several adversary families, not five copies of one.
#[test]
fn corpus_covers_multiple_adversary_families() {
    let mut families: Vec<String> = corpus_files()
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).unwrap();
            ReplayFile::from_json(&text).unwrap().adversary
        })
        .collect();
    families.sort();
    families.dedup();
    assert!(
        families.len() >= 3,
        "corpus covers only {families:?}; regenerate with more variety"
    );
}

/// Negative control: the eager-guard mutant (guard released one step
/// early) is caught within a bounded schedule budget at every small
/// dimension — while the correct strategy stays quiet under the identical
/// budget, so the catch is the mutation's fault, not oracle noise.
#[test]
fn mutant_is_caught_and_correct_strategy_is_not_under_the_same_budget() {
    const BUDGET: u64 = 100;
    for dim in 3..=5 {
        let mutant = CheckConfig::new(CheckStrategy::MutantEagerGuard, dim);
        let caught = (0..BUDGET).find(|&s| explore_schedule(&mutant, 3, s).violation.is_some());
        assert!(
            caught.is_some(),
            "d={dim}: mutant not caught within {BUDGET} schedules"
        );

        let correct = CheckConfig::new(CheckStrategy::Visibility, dim);
        for schedule in 0..BUDGET {
            let run = explore_schedule(&correct, 3, schedule);
            assert_eq!(
                run.violation, None,
                "d={dim} schedule {schedule}: false positive on the correct strategy"
            );
        }
    }
}

/// The wake-up mutant (a §5 cloning agent that dispatches when woken,
/// whatever woke it) needs the adversary: the all-canonical schedule
/// upholds every invariant, while some family catches it within 10
/// schedules. Its shrunk replay keeps non-canonical decisions (the greedy
/// pass ran after the canonical candidate failed), is byte-identical under
/// `--jobs` 1, 2 and 4, and is the committed corpus file.
#[test]
fn wakeup_mutant_needs_the_adversary_and_shrinks_to_the_committed_replay() {
    const BUDGET: u64 = 10;
    for dim in 3..=8 {
        let cfg = CheckConfig::named("mutant-wakeup-clone", dim).expect("a mutant");
        let canonical = run_with_trace(&cfg, &[]);
        assert_eq!(
            canonical.violation, None,
            "d={dim}: the canonical schedule already exposes the mutant"
        );
        // Every canonical activation clones, moves or terminates (one event
        // per step, plus the seed agent's spawn): no clone ever waits.
        assert_eq!(canonical.events, canonical.steps + 1, "d={dim}");
        for seed in 1..=3 {
            assert!(
                (0..BUDGET).any(|s| explore_schedule(&cfg, seed, s).violation.is_some()),
                "d={dim} seed {seed}: mutant not caught within {BUDGET} schedules"
            );
        }
    }
    let campaign = CheckCampaign {
        cfg: CheckConfig::named("mutant-wakeup-clone", 5).expect("a mutant"),
        schedules: 50,
        seed: 1,
        planted: None,
    };
    let jsons: Vec<String> = [1usize, 2, 4]
        .into_iter()
        .map(|jobs| {
            let out = run_campaign(&campaign, jobs, &MetricsRegistry::disabled());
            out.counterexample.expect("mutant caught").to_json() + "\n"
        })
        .collect();
    assert!(
        jsons.windows(2).all(|w| w[0] == w[1]),
        "replay depends on --jobs"
    );
    let replay = ReplayFile::from_json(&jsons[0]).expect("parses");
    assert!(
        replay.decisions.iter().any(|&d| d != 0),
        "the shrunk replay kept no non-canonical decision"
    );
    let committed = corpus_dir().join("mutant-wakeup-clone-d5-round-robin-skew.json");
    assert_eq!(
        jsons[0],
        std::fs::read_to_string(committed).expect("committed replay")
    );
}

/// The split/merge corpus subset: schedules whose violation lands on or
/// next to the homebase, where the safe region is densest and the
/// incremental connectivity kernel does the most splitting and merging.
/// Each must be a genuine incident (a recontamination within Hamming
/// distance ≤ 2 of the homebase) found by a long schedule (enough moves to
/// have grown and vacated guards around node 0 repeatedly).
#[test]
fn splitmerge_corpus_stresses_connectivity_around_the_homebase() {
    let files: Vec<PathBuf> = corpus_files()
        .into_iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains("splitmerge"))
        })
        .collect();
    assert!(
        files.len() >= 3,
        "the corpus must hold at least 3 split/merge replays, found {}",
        files.len()
    );
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable corpus file");
        let replay = ReplayFile::from_json(&text).unwrap();
        let node = match &replay.violation.kind {
            hypersweep::check::ViolationKind::Recontamination { node } => *node,
            other => panic!(
                "{}: split/merge corpus must pin recontaminations, got {other:?}",
                path.display()
            ),
        };
        assert!(
            node.count_ones() <= 2,
            "{}: violation node {node} is not near the homebase",
            path.display()
        );
        assert!(
            !replay.decisions.is_empty(),
            "{}: split/merge replays keep the full adversarial schedule \
             (a canonicalized trace would not stress connectivity churn)",
            path.display()
        );
        let run = replay.verify().expect("split/merge replay re-executes");
        assert_eq!(run.violation.as_ref(), Some(&replay.violation));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A freshly-found counterexample, shrunk and serialized, parses back
    /// equal and re-executes to the identical violation (same step, same
    /// event, same kind).
    #[test]
    fn shrunk_replays_roundtrip_and_reexecute(seed in 0u64..200, dim in 3u32..=5) {
        let cfg = CheckConfig::new(CheckStrategy::MutantEagerGuard, dim);
        let Some(schedule) = (0..50u64)
            .find(|&s| explore_schedule(&cfg, seed, s).violation.is_some())
        else {
            return Err("mutant never caught in 50 schedules".to_string());
        };
        let run = explore_schedule(&cfg, seed, schedule);
        let replay = shrunk_replay(&cfg, seed, schedule, run);

        let parsed = ReplayFile::from_json(&replay.to_json())
            .expect("shrunk replay serializes losslessly");
        prop_assert_eq!(&parsed, &replay);

        let reexecuted = parsed.verify().expect("replay reproduces the violation");
        prop_assert_eq!(reexecuted.violation, Some(replay.violation));
    }
}

/// Regenerates `tests/corpus/` (run manually:
/// `cargo test --test check_replays -- --ignored regenerate_corpus`).
/// Picks the first violating schedule of each adversary family so the
/// corpus exercises all five.
#[test]
#[ignore]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    // (dim, seed, starting schedule); stepping by 5 keeps the family.
    for (dim, seed, start) in [(4, 1, 0), (4, 1, 1), (4, 1, 2), (5, 7, 3), (3, 2, 4)] {
        let cfg = CheckConfig::new(CheckStrategy::MutantEagerGuard, dim);
        let mut schedule = start;
        let run = loop {
            let run = explore_schedule(&cfg, seed, schedule);
            if run.violation.is_some() {
                break run;
            }
            schedule += 5;
            assert!(schedule < start + 500, "family never caught the mutant");
        };
        let replay = shrunk_replay(&cfg, seed, schedule, run);
        let name = format!("mutant-d{}-{}.json", dim, replay.adversary);
        std::fs::write(dir.join(&name), replay.to_json() + "\n").expect("write corpus file");
        println!(
            "wrote {name} (schedule {schedule}, {} decisions)",
            replay.decisions.len()
        );
    }
}

/// Regenerates the split/merge corpus subset (run manually:
/// `cargo test --test check_replays -- --ignored regenerate_splitmerge_corpus`).
/// Scans mutant schedules for recontaminations within Hamming distance 2
/// of the homebase — the violations that arise where the safe region is
/// densest and the connectivity forest churns hardest — and keeps the
/// three longest-scheduled hits across distinct (dim, seed) problems.
#[test]
#[ignore]
fn regenerate_splitmerge_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    let mut written = 0;
    // One pick per (dim, seed, adversary family): among that family's
    // schedules (family rotation is `schedule % 5`), keep the *longest*
    // near-homebase hit — the schedule that built and tore down the most
    // guard structure around node 0 before the oracle fired. Distinct
    // families keep the file names distinct.
    for (dim, seed, family) in [(5u32, 21u64, 0u64), (6, 22, 3), (6, 23, 4)] {
        let cfg = CheckConfig::new(CheckStrategy::MutantEagerGuard, dim);
        let found = (0..40u64)
            .map(|i| family + 5 * i)
            .filter_map(|schedule| {
                let run = explore_schedule(&cfg, seed, schedule);
                let near_home = matches!(
                    run.violation.as_ref().map(|v| &v.kind),
                    Some(hypersweep::check::ViolationKind::Recontamination { node })
                        if node.count_ones() <= 2
                );
                near_home.then_some((schedule, run))
            })
            .max_by_key(|(schedule, run)| (run.steps, u64::MAX - schedule));
        let Some((schedule, run)) = found else {
            panic!("d={dim} seed={seed}: no near-homebase recontamination in family {family}");
        };
        // Budget 0: these replays exist to exercise the *schedule*, not to
        // minimize it — full canonicalization would collapse the mutant to
        // the all-zeros trace (as the plain corpus entries show) and throw
        // away exactly the split/merge churn this subset is for.
        let replay = hypersweep::check::shrunk_replay_with_budget(&cfg, seed, schedule, run, 0);
        assert!(
            !replay.decisions.is_empty(),
            "an unshrunk adversarial schedule must keep non-canonical decisions"
        );
        let name = format!("mutant-d{dim}-splitmerge-{}.json", replay.adversary);
        std::fs::write(dir.join(&name), replay.to_json() + "\n").expect("write corpus file");
        println!(
            "wrote {name} (schedule {schedule}, {} decisions, violation {})",
            replay.decisions.len(),
            replay.violation
        );
        written += 1;
    }
    assert_eq!(written, 3);
}
