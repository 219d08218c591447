//! `hypersweep-check`: a deterministic schedule-exploration checker.
//!
//! The paper proves monotonicity, contiguity and capture against an
//! *arbitrarily fast* intruder and *asynchronous* agents, but an engine run
//! only ever executes one interleaving per `(strategy, dim, policy)` — the
//! exact gap where asynchronous-model bugs hide. This crate closes it
//! FoundationDB-style: a seeded deterministic scheduler drives each
//! strategy step-by-step through the engine's step-granular hooks
//! ([`hypersweep_sim::Engine::runnable_count`] /
//! [`hypersweep_sim::Engine::runnable_nth`] /
//! [`hypersweep_sim::Engine::runnable_rank`] /
//! [`hypersweep_sim::Engine::step_agent`]), choosing the activation order
//! adversarially and checking invariant oracles after *every* step:
//!
//! * **monotone clean set** — no recontamination, ever;
//! * **contiguous clean region** — connected and containing the homebase;
//! * **guard coverage of the frontier** — every clean node bordering
//!   contamination is guarded;
//! * **eventual capture** — at termination the worst-case reachability
//!   intruder embodied by [`hypersweep_intruder::ContaminationField`] has
//!   nowhere left to hide.
//!
//! A schedule is reified as a *decision trace*: at step `t` the adversary
//! picks an index into the ascending list of runnable agents. The engine
//! keeps that list as an incrementally updated bitset with a live-agent
//! counter, and adversaries read it through [`RunnableView`] (count,
//! select, rank), so no step scans every agent or allocates the list.
//! Failing schedules are [shrunk](shrink()) to a minimal trace (the
//! all-canonical trace if it still violates, else greedy canonicalization
//! towards decision `0`, plus tail truncation) and serialized as a
//! [`ReplayFile`] that reproduces the violation byte-for-byte, independent
//! of the adversary that found it. The [`Mutant`]s and
//! [`CheckStrategy::MutantEagerGuard`] are negative controls: deliberately
//! broken strategies the campaign must catch.
//!
//! Like `hypersweep-telemetry`, the crate is std-only: the only
//! dependencies beyond the workspace's own crates are the vendored
//! `serde`/`serde_json` stand-ins used for replay files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod explore;
mod mutant;
mod oracle;
mod replay;
mod shrink;

pub use adversary::{Adversary, AdversaryKind, RunnableView};
pub use explore::{
    explore_schedule, explore_schedule_in, run_with_adversary_in, run_with_trace,
    run_with_trace_in, CheckArena, CheckConfig, CheckStrategy, ScheduleRun,
};
pub use mutant::{EagerVisibilityAgent, Mutant, WakeupCloningAgent};
pub use oracle::{StepOracle, ViolationKind, ViolationReport};
pub use replay::{
    shrunk_replay, shrunk_replay_with_budget, ReplayError, ReplayFile, REPLAY_VERSION,
};
pub use shrink::{shrink, ShrinkStats};
