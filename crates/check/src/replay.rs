//! Serialized counterexamples: found once, reproducible forever.

use serde::{Deserialize, Serialize};

use crate::adversary::Adversary;
use crate::explore::{run_with_trace, CheckConfig, ScheduleRun};
use crate::oracle::ViolationReport;
use crate::shrink::shrink;

/// Current replay-file format version.
pub const REPLAY_VERSION: u32 = 1;

/// Re-execution budget used when shrinking a fresh counterexample.
pub(crate) const SHRINK_BUDGET: u64 = 2_000;

/// A shrunk counterexample on disk: everything needed to re-execute the
/// violating schedule deterministically, plus provenance (which campaign
/// and adversary found it) and the violation the replay must reproduce.
#[derive(Clone, Debug, PartialEq, Deserialize)]
pub struct ReplayFile {
    /// Format version ([`REPLAY_VERSION`]).
    pub version: u32,
    /// Strategy or mutant name (see [`CheckConfig::named`]).
    pub strategy: String,
    /// Hypercube dimension.
    pub dim: u32,
    /// Campaign seed that found the violation.
    pub campaign_seed: u64,
    /// Schedule index within the campaign.
    pub schedule: u64,
    /// Adversary family that produced the original schedule.
    pub adversary: String,
    /// The shrunk decision trace.
    pub decisions: Vec<u32>,
    /// Step budget the violation was found under (`None` = the strategy
    /// default). A `StepLimit` violation found under `--max-steps` — or a
    /// planted drill's 1-step budget — only reproduces under the same
    /// budget, so the replay records it. Absent in older files, which all
    /// ran at the default.
    pub max_steps: Option<u64>,
    /// The violation the trace must reproduce, step-exact.
    pub violation: ViolationReport,
}

/// Why a replay failed.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayError {
    /// The file did not parse.
    Parse(String),
    /// Unknown format version.
    UnsupportedVersion(u32),
    /// Unknown strategy name.
    UnknownStrategy(String),
    /// The file's configuration is outside what the checker runs (a
    /// dimension outside `1..=16`).
    InvalidConfig(String),
    /// The re-execution did not reproduce the recorded violation.
    Diverged {
        /// The recorded violation.
        expected: ViolationReport,
        /// What the re-execution produced instead.
        actual: Option<ViolationReport>,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Parse(m) => write!(f, "replay file did not parse: {m}"),
            ReplayError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported replay version {v} (this build reads {REPLAY_VERSION})"
                )
            }
            ReplayError::UnknownStrategy(s) => write!(f, "unknown strategy {s:?}"),
            ReplayError::InvalidConfig(m) => write!(f, "invalid replay file: {m}"),
            ReplayError::Diverged { expected, actual } => match actual {
                Some(a) => write!(f, "replay diverged: expected [{expected}], got [{a}]"),
                None => write!(
                    f,
                    "replay diverged: expected [{expected}], got no violation"
                ),
            },
        }
    }
}

impl std::error::Error for ReplayError {}

// Hand-written so a default-budget replay (`max_steps: None`) serializes
// without the key at all: corpus files written before the field existed
// stay in canonical form (parse → serialize is the identity on them).
impl Serialize for ReplayFile {
    fn serialize_value(&self) -> serde::Value {
        let mut fields = vec![
            ("version".to_string(), self.version.serialize_value()),
            ("strategy".to_string(), self.strategy.serialize_value()),
            ("dim".to_string(), self.dim.serialize_value()),
            (
                "campaign_seed".to_string(),
                self.campaign_seed.serialize_value(),
            ),
            ("schedule".to_string(), self.schedule.serialize_value()),
            ("adversary".to_string(), self.adversary.serialize_value()),
            ("decisions".to_string(), self.decisions.serialize_value()),
        ];
        if let Some(budget) = self.max_steps {
            fields.push(("max_steps".to_string(), budget.serialize_value()));
        }
        fields.push(("violation".to_string(), self.violation.serialize_value()));
        serde::Value::Object(fields)
    }
}

impl ReplayFile {
    /// Serialize as pretty JSON (the on-disk format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("replay files always serialize")
    }

    /// Parse from JSON, validating version and strategy.
    pub fn from_json(text: &str) -> Result<ReplayFile, ReplayError> {
        let file: ReplayFile =
            serde_json::from_str(text).map_err(|e| ReplayError::Parse(e.to_string()))?;
        if file.version != REPLAY_VERSION {
            return Err(ReplayError::UnsupportedVersion(file.version));
        }
        file.check_config()?;
        Ok(file)
    }

    /// The checking problem this replay belongs to, validated as a
    /// campaign's is (a file must not ask for a cube `check` refuses).
    pub fn check_config(&self) -> Result<CheckConfig, ReplayError> {
        let mut cfg = CheckConfig::named(&self.strategy, self.dim)
            .ok_or_else(|| ReplayError::UnknownStrategy(self.strategy.clone()))?;
        cfg.validate().map_err(ReplayError::InvalidConfig)?;
        cfg.max_steps = self.max_steps.unwrap_or(0);
        Ok(cfg)
    }

    /// Re-execute the recorded trace.
    pub fn replay(&self) -> Result<ScheduleRun, ReplayError> {
        Ok(run_with_trace(&self.check_config()?, &self.decisions))
    }

    /// Re-execute and demand the recorded violation, step-exact.
    pub fn verify(&self) -> Result<ScheduleRun, ReplayError> {
        let run = self.replay()?;
        if run.violation.as_ref() != Some(&self.violation) {
            return Err(ReplayError::Diverged {
                expected: self.violation.clone(),
                actual: run.violation,
            });
        }
        Ok(run)
    }
}

/// Shrink a violating run (found as schedule number `schedule` of the
/// campaign seeded with `seed`) and wrap it as a replay file.
pub fn shrunk_replay(cfg: &CheckConfig, seed: u64, schedule: u64, run: ScheduleRun) -> ReplayFile {
    shrunk_replay_with_budget(cfg, seed, schedule, run, SHRINK_BUDGET)
}

/// [`shrunk_replay`] with an explicit shrink budget (cap on candidate
/// re-executions). Large dimensions re-execute thousands of steps per
/// candidate, so scale tests shrink with a small budget — the replay is
/// just as valid, only less minimal.
pub fn shrunk_replay_with_budget(
    cfg: &CheckConfig,
    seed: u64,
    schedule: u64,
    run: ScheduleRun,
    budget: u64,
) -> ReplayFile {
    let (shrunk, _stats) = shrink(cfg, run, budget);
    replay_file(cfg, seed, schedule, shrunk)
}

/// Wrap an already shrunk violating run as a replay file.
pub(crate) fn replay_file(
    cfg: &CheckConfig,
    seed: u64,
    schedule: u64,
    shrunk: ScheduleRun,
) -> ReplayFile {
    let violation = shrunk
        .violation
        .clone()
        .expect("shrinking preserves the violation");
    ReplayFile {
        version: REPLAY_VERSION,
        strategy: cfg.name().to_string(),
        dim: cfg.dim,
        campaign_seed: seed,
        schedule,
        adversary: Adversary::for_schedule(seed, schedule)
            .kind()
            .name()
            .to_string(),
        decisions: shrunk.decisions,
        max_steps: (cfg.max_steps > 0).then_some(cfg.max_steps),
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_schedule_in, CheckArena, CheckStrategy};
    use crate::oracle::ViolationKind;
    use hypersweep_intruder::IllegalEvent;

    /// The eager-guard mutant's first counterexample on `H_4` under
    /// campaign seed 2, shrunk.
    fn caught() -> ReplayFile {
        let cfg = CheckConfig::new(CheckStrategy::MutantEagerGuard, 4);
        let mut arena = CheckArena::new();
        (0..400)
            .find_map(|schedule| {
                let run = explore_schedule_in(&cfg, 2, schedule, &mut arena);
                let caught = run.violation.is_some();
                caught.then(|| shrunk_replay(&cfg, 2, schedule, run))
            })
            .expect("mutant caught")
    }

    #[test]
    fn counterexample_roundtrips_and_verifies() {
        let replay = caught();
        let json = replay.to_json();
        let parsed = ReplayFile::from_json(&json).expect("parses");
        assert_eq!(parsed, replay);
        parsed.verify().expect("reproduces the violation");
        // Byte-identical round-trip: serialize → parse → serialize.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn step_budget_violations_record_their_budget_and_verify() {
        // A 1-step budget manufactures a StepLimit violation on any
        // schedule (this is how planted campaign drills work). The replay
        // must carry that budget or re-execution finds no violation.
        let mut cfg = CheckConfig::new(CheckStrategy::Cloning, 4);
        cfg.max_steps = 1;
        let run = crate::explore_schedule(&cfg, 7, 0);
        assert!(run.violation.is_some(), "1-step budget must trip StepLimit");
        let replay = shrunk_replay(&cfg, 7, 0, run);
        assert_eq!(replay.max_steps, Some(1));
        let parsed = ReplayFile::from_json(&replay.to_json()).expect("parses");
        parsed.verify().expect("budget-limited replay reproduces");
    }

    #[test]
    fn replays_without_a_recorded_budget_still_parse() {
        // Files written before `max_steps` existed omit the key entirely;
        // they must keep parsing (as the strategy-default budget).
        let replay = caught();
        let json = replay.to_json();
        let stripped: String = json
            .lines()
            .filter(|l| !l.contains("\"max_steps\""))
            .collect::<Vec<_>>()
            .join("\n");
        let parsed = ReplayFile::from_json(&stripped).expect("legacy file parses");
        assert_eq!(parsed.max_steps, None);
        parsed.verify().expect("legacy replay still reproduces");
    }

    #[test]
    fn illegal_event_violations_roundtrip() {
        let mut replay = caught();
        replay.violation.kind =
            ViolationKind::IllegalEvent(IllegalEvent::NotAdjacent { from: 0, to: 3 });
        let json = replay.to_json();
        let parsed = ReplayFile::from_json(&json).expect("parses");
        assert_eq!(parsed, replay);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn tampered_violation_is_flagged_as_divergence() {
        let mut replay = caught();
        replay.violation.step += 1;
        assert!(matches!(replay.verify(), Err(ReplayError::Diverged { .. })));
    }

    #[test]
    fn version_and_strategy_are_validated() {
        let replay = caught();

        let mut bad_version = replay.clone();
        bad_version.version = 99;
        assert!(matches!(
            ReplayFile::from_json(&bad_version.to_json()),
            Err(ReplayError::UnsupportedVersion(99))
        ));

        let mut bad_strategy = replay;
        bad_strategy.strategy = "warp-drive".to_string();
        assert!(matches!(
            ReplayFile::from_json(&bad_strategy.to_json()),
            Err(ReplayError::UnknownStrategy(_))
        ));
    }

    #[test]
    fn dimensions_outside_the_checked_range_are_refused() {
        let mut replay = caught();
        for dim in [0, 17, 29, u32::MAX] {
            replay.dim = dim;
            let errors = [
                ReplayFile::from_json(&replay.to_json()).err(),
                replay.replay().err(),
                replay.verify().err(),
            ];
            for error in errors {
                let named =
                    matches!(&error, Some(ReplayError::InvalidConfig(m)) if m.contains("1..=16"));
                assert!(named, "dim {dim}: {error:?}");
            }
        }
    }
}
