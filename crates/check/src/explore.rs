//! The schedule driver: builds an engine per strategy, lets a decision
//! source pick every activation, and folds the oracles over the resulting
//! event stream under a virtual clock (the decision step counter).

use hypersweep_core::{CleanStrategy, CloningStrategy, SynchronousStrategy, VisibilityStrategy};
use hypersweep_intruder::FieldScratch;
use hypersweep_sim::{AgentProgram, Engine, EngineConfig, Policy, Role};
use hypersweep_topology::{Hypercube, Node};

use crate::adversary::Adversary;
use crate::mutant::{EagerVisibilityAgent, Mutant, WakeupCloningAgent};
use crate::oracle::{StepOracle, ViolationKind, ViolationReport};

/// Which strategy the checker drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckStrategy {
    /// §3's CLEAN (synchronizer + workers, whiteboards only).
    Clean,
    /// §4's CLEAN WITH VISIBILITY (`n/2` local agents).
    Visibility,
    /// §5's cloning variant (one seed agent).
    Cloning,
    /// §5's synchronous variant (lock-step rounds).
    Synchronous,
    /// Negative control: the visibility mutant that releases its guard one
    /// step early (see [`EagerVisibilityAgent`]).
    MutantEagerGuard,
}

impl CheckStrategy {
    /// The four paper strategies (no mutants).
    pub const PAPER: [CheckStrategy; 4] = [
        CheckStrategy::Clean,
        CheckStrategy::Visibility,
        CheckStrategy::Cloning,
        CheckStrategy::Synchronous,
    ];

    /// Stable name, as accepted by [`CheckStrategy::parse`].
    pub fn name(self) -> &'static str {
        match self {
            CheckStrategy::Clean => "clean",
            CheckStrategy::Visibility => "visibility",
            CheckStrategy::Cloning => "cloning",
            CheckStrategy::Synchronous => "synchronous",
            CheckStrategy::MutantEagerGuard => "mutant-eager-guard",
        }
    }

    /// Parse a strategy name.
    pub fn parse(name: &str) -> Option<CheckStrategy> {
        match name {
            "clean" => Some(CheckStrategy::Clean),
            "visibility" => Some(CheckStrategy::Visibility),
            "cloning" => Some(CheckStrategy::Cloning),
            "synchronous" => Some(CheckStrategy::Synchronous),
            "mutant-eager-guard" => Some(CheckStrategy::MutantEagerGuard),
            _ => None,
        }
    }

    /// Whether schedules are explored per lock-step round rather than per
    /// activation (the synchronous variant has a single canonical
    /// schedule; the oracles still check every round).
    pub fn is_synchronous(self) -> bool {
        matches!(self, CheckStrategy::Synchronous)
    }
}

/// One checking problem: a strategy on `H_dim` plus exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    /// The strategy under check.
    pub strategy: CheckStrategy,
    /// Run this mutant of `strategy` in its place (a negative control);
    /// `None` runs the strategy itself. Set only by [`CheckConfig::named`],
    /// so `strategy` is always the one the mutant breaks.
    pub(crate) mutant: Option<Mutant>,
    /// Hypercube dimension (`1..=16`; team sizes are exponential in it).
    pub dim: u32,
    /// Step budget per schedule; `0` derives a generous default from the
    /// dimension.
    pub max_steps: u64,
    /// Run the contiguity/frontier oracles every `stride` events; `0`
    /// derives the default, which is 1 at every dimension — the oracles
    /// are served from incrementally maintained state, so per-event
    /// checking costs `O(1)` per query. Strides > 1 remain available for
    /// experiments but no longer buy meaningful throughput.
    pub stride: u64,
}

impl CheckConfig {
    /// A config with derived bounds.
    pub fn new(strategy: CheckStrategy, dim: u32) -> Self {
        CheckConfig {
            strategy,
            mutant: None,
            dim,
            max_steps: 0,
            stride: 0,
        }
    }

    /// A config with derived bounds for the strategy or mutant called
    /// `name` (see [`CheckStrategy::parse`] and [`Mutant::parse`]).
    pub fn named(name: &str, dim: u32) -> Option<Self> {
        if let Some(strategy) = CheckStrategy::parse(name) {
            return Some(CheckConfig::new(strategy, dim));
        }
        let mutant = Mutant::parse(name)?;
        Some(CheckConfig {
            mutant: Some(mutant),
            ..CheckConfig::new(mutant.strategy(), dim)
        })
    }

    /// The name [`CheckConfig::named`] reads: the mutant's, if any, else
    /// the strategy's.
    pub fn name(&self) -> &'static str {
        self.mutant.map_or(self.strategy.name(), Mutant::name)
    }

    /// Validate the dimension range.
    pub fn validate(&self) -> Result<(), String> {
        if !(1..=16).contains(&self.dim) {
            return Err(format!(
                "check supports dimensions 1..=16, got {} (team sizes grow as 2^d)",
                self.dim
            ));
        }
        Ok(())
    }

    fn effective_max_steps(&self) -> u64 {
        if self.max_steps > 0 {
            return self.max_steps;
        }
        let n = 1u64 << self.dim;
        // Every step either emits an event (bounded by O(n log n) moves)
        // or parks an agent; 200·n·d dominates both with a wide margin.
        200 * n * u64::from(self.dim) + 10_000
    }
}

/// The outcome of one explored schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleRun {
    /// The decision trace actually executed (index into the runnable set
    /// per step, already reduced modulo its size). Empty for the
    /// synchronous variant, whose schedule is canonical.
    pub decisions: Vec<u32>,
    /// Decision steps executed (rounds, for the synchronous variant).
    pub steps: u64,
    /// Events applied to the oracle.
    pub events: u64,
    /// The first invariant violation, if any.
    pub violation: Option<ViolationReport>,
}

/// Where the next decision comes from.
enum Source<'s> {
    /// Generative: an adversary invents the schedule.
    Adversary(&'s mut Adversary),
    /// Replay: a recorded trace, padded with `0` (lowest runnable id) once
    /// exhausted.
    Trace(&'s [u32]),
}

/// Reusable per-schedule allocations for the drivers: the oracle field's
/// buffers (bitsets, counters, the connectivity forest) survive from one
/// explored schedule to the next instead of being reallocated `O(n)`-sized
/// per run. One arena per campaign worker; schedules on the same worker
/// recycle it.
#[derive(Default)]
pub struct CheckArena {
    field: Option<FieldScratch>,
}

impl CheckArena {
    /// An empty arena (first use allocates, later uses recycle).
    pub fn new() -> Self {
        CheckArena::default()
    }

    fn take_field(&mut self) -> FieldScratch {
        self.field.take().unwrap_or_default()
    }

    fn put_field(&mut self, scratch: FieldScratch) {
        self.field = Some(scratch);
    }
}

/// Explore one schedule with `adversary` inventing the decisions, reusing
/// `arena`'s allocations.
pub fn run_with_adversary_in(
    cfg: &CheckConfig,
    adversary: &mut Adversary,
    arena: &mut CheckArena,
) -> ScheduleRun {
    run_impl(cfg, Source::Adversary(adversary), arena)
}

/// Deterministically re-execute a recorded decision trace. Decisions are
/// reduced modulo the runnable-set size and the trace is padded with `0`
/// once exhausted, so shrunk (shortened) traces stay executable.
pub fn run_with_trace(cfg: &CheckConfig, trace: &[u32]) -> ScheduleRun {
    run_with_trace_in(cfg, trace, &mut CheckArena::new())
}

/// [`run_with_trace`] with arena reuse (the shrinker re-executes a trace
/// hundreds of times against one arena).
pub fn run_with_trace_in(cfg: &CheckConfig, trace: &[u32], arena: &mut CheckArena) -> ScheduleRun {
    run_impl(cfg, Source::Trace(trace), arena)
}

/// Explore schedule number `schedule` of the campaign seeded with `seed`
/// (see [`Adversary::for_schedule`] for the family rotation).
pub fn explore_schedule(cfg: &CheckConfig, seed: u64, schedule: u64) -> ScheduleRun {
    explore_schedule_in(cfg, seed, schedule, &mut CheckArena::new())
}

/// [`explore_schedule`] with arena reuse across schedules.
pub fn explore_schedule_in(
    cfg: &CheckConfig,
    seed: u64,
    schedule: u64,
    arena: &mut CheckArena,
) -> ScheduleRun {
    let mut adversary = Adversary::for_schedule(seed, schedule);
    run_with_adversary_in(cfg, &mut adversary, arena)
}

/// Build the engine for `cfg` and drive it. The paper's strategies run the
/// very engine their `run` executes (their `engine(policy)`); only the
/// mutants set up their own.
fn run_impl(cfg: &CheckConfig, source: Source<'_>, arena: &mut CheckArena) -> ScheduleRun {
    let cube = Hypercube::new(cfg.dim);
    let mutant_cfg = EngineConfig {
        visibility: true,
        ..EngineConfig::default()
    };
    if let Some(mutant) = cfg.mutant {
        return match mutant {
            Mutant::WakeupClone => {
                let mut engine = Engine::new(cube, mutant_cfg);
                engine.spawn(WakeupCloningAgent::default(), Node::ROOT, Role::Worker);
                drive_async(engine, cfg, source, arena)
            }
        };
    }
    match cfg.strategy {
        CheckStrategy::Clean => {
            let engine = CleanStrategy::new(cube).engine(Policy::Fifo);
            drive_async(engine, cfg, source, arena)
        }
        CheckStrategy::Visibility => {
            let engine = VisibilityStrategy::new(cube).engine(Policy::Fifo);
            drive_async(engine, cfg, source, arena)
        }
        CheckStrategy::Cloning => {
            let engine = CloningStrategy::new(cube).engine(Policy::Fifo);
            drive_async(engine, cfg, source, arena)
        }
        CheckStrategy::MutantEagerGuard => {
            let mut engine = Engine::new(cube, mutant_cfg);
            for _ in 0..1u64 << (cfg.dim - 1) {
                engine.spawn(EagerVisibilityAgent, Node::ROOT, Role::Worker);
            }
            drive_async(engine, cfg, source, arena)
        }
        CheckStrategy::Synchronous => {
            let engine = SynchronousStrategy::new(cube).engine(Policy::Synchronous);
            drive_sync(engine, cfg, arena)
        }
    }
}

/// Asynchronous driver: one decision per activation.
fn drive_async<P: AgentProgram>(
    mut engine: Engine<P>,
    cfg: &CheckConfig,
    mut source: Source<'_>,
    arena: &mut CheckArena,
) -> ScheduleRun {
    let cube = engine.cube();
    let mut oracle = StepOracle::new_in(&cube, Node::ROOT, cfg.stride.max(1), arena.take_field());
    let max_steps = cfg.effective_max_steps();
    let mut decisions: Vec<u32> = Vec::new();
    let mut seen = 0usize;
    let mut step: u64 = 0;
    let violation = loop {
        if engine.all_terminated() {
            break oracle.finish(step).err();
        }
        let runnable = engine.runnable_count();
        if runnable == 0 {
            break Some(oracle.report(
                step,
                ViolationKind::Deadlock {
                    waiting: engine.live_agents() as u64,
                },
            ));
        }
        if step >= max_steps {
            break Some(oracle.report(step, ViolationKind::StepLimit));
        }
        let raw = match &mut source {
            Source::Adversary(a) => a.choose_from(&engine, step),
            Source::Trace(t) => t.get(step as usize).copied().unwrap_or(0),
        };
        let idx = (raw as usize) % runnable;
        decisions.push(idx as u32);
        if let Err(e) = engine.step_agent(engine.runnable_nth(idx)) {
            break Some(oracle.report(
                step,
                ViolationKind::EngineError {
                    message: e.to_string(),
                },
            ));
        }
        match feed_oracle(&engine, &mut oracle, &mut seen, step) {
            Some(v) => break Some(v),
            None => step += 1,
        }
    };
    let events = oracle.events_applied();
    arena.put_field(oracle.into_scratch());
    ScheduleRun {
        decisions,
        steps: step,
        events,
        violation,
    }
}

/// Synchronous driver: one decision step per lock-step round. There is
/// nothing for an adversary to choose (the round schedule is canonical),
/// but every round still passes through the oracles.
fn drive_sync<P: AgentProgram>(
    mut engine: Engine<P>,
    cfg: &CheckConfig,
    arena: &mut CheckArena,
) -> ScheduleRun {
    let cube = engine.cube();
    let mut oracle = StepOracle::new_in(&cube, Node::ROOT, cfg.stride.max(1), arena.take_field());
    let max_steps = cfg.effective_max_steps();
    let mut seen = 0usize;
    let mut step: u64 = 0;
    let violation = loop {
        if step >= max_steps {
            break Some(oracle.report(step, ViolationKind::StepLimit));
        }
        let outcome = match engine.step_round() {
            Ok(o) => o,
            Err(e) => {
                break Some(oracle.report(
                    step,
                    ViolationKind::EngineError {
                        message: e.to_string(),
                    },
                ));
            }
        };
        if let Some(v) = feed_oracle(&engine, &mut oracle, &mut seen, step) {
            break Some(v);
        }
        if outcome.done {
            break oracle.finish(step).err();
        }
        if !outcome.acted && !outcome.wrote {
            break Some(oracle.report(
                step,
                ViolationKind::Deadlock {
                    waiting: engine.live_agents() as u64,
                },
            ));
        }
        step += 1;
    };
    let events = oracle.events_applied();
    arena.put_field(oracle.into_scratch());
    ScheduleRun {
        decisions: Vec::new(),
        steps: step,
        events,
        violation,
    }
}

/// Apply all events newer than `*seen` to the oracle; first violation wins.
fn feed_oracle<P: AgentProgram>(
    engine: &Engine<P>,
    oracle: &mut StepOracle<'_>,
    seen: &mut usize,
    step: u64,
) -> Option<ViolationReport> {
    let events = engine.events();
    while *seen < events.len() {
        let ev = events[*seen];
        *seen += 1;
        if let Err(v) = oracle.observe(&ev, step) {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::AdversaryKind;

    #[test]
    fn all_paper_strategies_pass_a_small_campaign() {
        for strategy in CheckStrategy::PAPER {
            let cfg = CheckConfig::new(strategy, 4);
            for schedule in 0..25 {
                let run = explore_schedule(&cfg, 0xC0FFEE, schedule);
                assert_eq!(
                    run.violation,
                    None,
                    "{} schedule {schedule}: {:?}",
                    strategy.name(),
                    run.violation
                );
                assert!(run.events > 0);
            }
        }
    }

    #[test]
    fn schedules_are_deterministic() {
        let cfg = CheckConfig::new(CheckStrategy::Clean, 4);
        let a = explore_schedule(&cfg, 7, 3);
        let b = explore_schedule(&cfg, 7, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_trace_replays_to_the_same_run() {
        for strategy in [CheckStrategy::Clean, CheckStrategy::Visibility] {
            let cfg = CheckConfig::new(strategy, 4);
            for schedule in 0..10 {
                let run = explore_schedule(&cfg, 99, schedule);
                let replayed = run_with_trace(&cfg, &run.decisions);
                assert_eq!(run, replayed, "{} schedule {schedule}", strategy.name());
            }
        }
    }

    #[test]
    fn mutant_is_caught_by_some_adversary() {
        let cfg = CheckConfig::new(CheckStrategy::MutantEagerGuard, 4);
        let caught = (0..200).any(|s| explore_schedule(&cfg, 1, s).violation.is_some());
        assert!(
            caught,
            "the eager-guard mutant must be caught within 200 schedules"
        );
    }

    /// The engine's view drives the same schedule as the materialized
    /// runnable list: at every step of a CLEAN and a visibility run, every
    /// family picks the same position with the same adversary state
    /// either way.
    #[test]
    fn engine_view_and_runnable_list_choose_alike() {
        fn lockstep<P: AgentProgram>(mut engine: Engine<P>, mut adversary: Adversary) {
            let mut step = 0;
            while !engine.all_terminated() {
                let mut by_list = adversary.clone();
                let listed = by_list.choose(&engine.runnable_agents(), step);
                let viewed = adversary.choose_from(&engine, step);
                assert_eq!((listed, &by_list), (viewed, &adversary), "step {step}");
                engine
                    .step_agent(engine.runnable_nth(viewed as usize))
                    .expect("valid step");
                step += 1;
            }
        }
        let cube = Hypercube::new(5);
        for schedule in 0..AdversaryKind::ALL.len() as u64 {
            let engine = CleanStrategy::new(cube).engine(Policy::Fifo);
            lockstep(engine, Adversary::for_schedule(11, schedule));
            let engine = VisibilityStrategy::new(cube).engine(Policy::Fifo);
            lockstep(engine, Adversary::for_schedule(11, schedule));
        }
    }

    #[test]
    fn adversary_families_rotate_with_the_schedule_index() {
        for (s, kind) in AdversaryKind::ALL.iter().enumerate() {
            assert_eq!(Adversary::for_schedule(5, s as u64).kind(), *kind);
        }
    }
}
