//! The §5 synchronous variant: visibility replaced by the global clock.
//!
//! "Instead of waiting for all smaller neighbors to become clean or
//! guarded, the agents on a node wait for the appropriate time to move …
//! in the synchronous model, the agents on `x` can move when time
//! `t = m(x)`. … when they move to the bigger neighbors according to the
//! rule: one agent is sent to the bigger neighbor of type `T(0)`, and
//! `2^{i−1}` agents are sent to the bigger neighbor of type `T(i)`, no
//! re-contamination can occur."
//!
//! The agents need **no visibility** and **no waiting on counts**; the
//! round number alone certifies that the smaller neighbours are safe
//! (because the whole class `C_t` moves at time `t` — Theorem 7's wavefront
//! argument). The strategy is only defined under the synchronous schedule;
//! requesting an asynchronous adversary is an error.

use hypersweep_sim::{
    Action, AgentProgram, Ctx, Engine, EngineConfig, EventSink, Metrics, Policy, Role,
};
use hypersweep_topology::Hypercube;
use hypersweep_topology::Node;

use crate::outcome::{audited_run, SearchOutcome, SearchStrategy, StrategyError};
use crate::visibility::{slot_child_type, VisBoard, VisibilityStrategy};

/// The synchronous agent: moves exactly at round `m(x) + 1` (the paper's
/// time `t = m(x)`, with our rounds numbered from 1).
pub struct SynchronousAgent;

impl AgentProgram for SynchronousAgent {
    type Board = VisBoard;

    fn step(&mut self, ctx: &mut Ctx<'_, VisBoard>) -> Action {
        let round = ctx
            .round()
            .expect("the synchronous variant requires the synchronous schedule");
        let x = ctx.node();
        let d = ctx.cube().dim();
        let m = x.msb_position();
        if m == d {
            return Action::Terminate; // leaf guard
        }
        if round != u64::from(m) + 1 {
            return Action::Wait;
        }
        // Our time has come; claim a dispatch slot. No visibility check —
        // synchrony certifies safety.
        let slot = ctx.board().next_slot;
        ctx.board_mut().next_slot = slot + 1;
        let child_type = slot_child_type(slot);
        Action::Move(d - child_type)
    }
}

/// The §5 synchronous strategy: `n/2` agents, no visibility, lock-step.
#[derive(Clone, Copy, Debug)]
pub struct SynchronousStrategy {
    cube: Hypercube,
}

impl SynchronousStrategy {
    /// Build the strategy for `cube` (`d ≥ 1`).
    pub fn new(cube: Hypercube) -> Self {
        assert!(cube.dim() >= 1, "H_0 has nothing to search");
        SynchronousStrategy { cube }
    }

    /// Team size: `n/2`, as for the visibility strategy.
    pub fn team_size(&self) -> u64 {
        1 << (self.cube.dim() - 1)
    }

    /// The engine, without visibility, and the team of
    /// [`SynchronousStrategy::team_size`] agents spawned at the homebase.
    /// The agents read the round number, so only the synchronous schedule
    /// can run it.
    pub fn engine(&self, policy: Policy) -> Engine<SynchronousAgent> {
        let mut engine = Engine::new(
            self.cube,
            EngineConfig {
                policy,
                visibility: false, // the whole point: no visibility needed
                ..EngineConfig::default()
            },
        );
        for _ in 0..self.team_size() {
            engine.spawn(SynchronousAgent, Node::ROOT, Role::Worker);
        }
        engine
    }
}

impl SearchStrategy for SynchronousStrategy {
    fn name(&self) -> &'static str {
        "synchronous-variant"
    }

    fn cube(&self) -> Hypercube {
        self.cube
    }

    fn run(&self, policy: Policy) -> Result<SearchOutcome, StrategyError> {
        if !policy.is_synchronous() {
            return Err(StrategyError::UnsupportedPolicy {
                strategy: self.name(),
                policy,
            });
        }
        audited_run(self.engine(policy))
    }

    /// The canonical trace is identical to the visibility strategy's: the
    /// wavefront `C_t` dispatches at time `t` either way.
    fn synthesize_into(&self, sink: &mut dyn EventSink) -> Metrics {
        VisibilityStrategy::new(self.cube).synthesize_into(sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictions::synchronous_prediction;

    #[test]
    fn synchronous_variant_matches_visibility_complexities() {
        for d in 1..=8 {
            let s = SynchronousStrategy::new(Hypercube::new(d));
            let outcome = s.run(Policy::Synchronous).expect("completes");
            assert!(
                outcome.is_complete(),
                "d={d}: {:?}",
                outcome.verdict.violations
            );
            let p = synchronous_prediction(d);
            assert_eq!(u128::from(outcome.metrics.team_size), p.agents);
            assert_eq!(
                outcome.metrics.ideal_time.map(u128::from),
                Some(p.ideal_time)
            );
            assert_eq!(u128::from(outcome.metrics.total_moves()), p.moves);
        }
    }

    #[test]
    fn asynchronous_schedules_are_rejected() {
        let s = SynchronousStrategy::new(Hypercube::new(4));
        for policy in Policy::adversaries(2) {
            match s.run(policy) {
                Err(StrategyError::UnsupportedPolicy { .. }) => {}
                other => panic!("expected UnsupportedPolicy, got {other:?}"),
            }
        }
    }

    #[test]
    fn agrees_with_visibility_strategy_outcome() {
        for d in 2..=7 {
            let cube = Hypercube::new(d);
            let a = SynchronousStrategy::new(cube)
                .run(Policy::Synchronous)
                .unwrap();
            let b = crate::VisibilityStrategy::new(cube)
                .run(Policy::Synchronous)
                .unwrap();
            assert_eq!(a.metrics.total_moves(), b.metrics.total_moves());
            assert_eq!(a.metrics.team_size, b.metrics.team_size);
            assert_eq!(a.metrics.ideal_time, b.metrics.ideal_time);
        }
    }

    #[test]
    fn fast_path_is_the_visibility_trace() {
        let s = SynchronousStrategy::new(Hypercube::new(6));
        let o = s.fast(true);
        assert!(o.is_complete());
        assert_eq!(o.metrics.total_moves(), 112);
    }
}
