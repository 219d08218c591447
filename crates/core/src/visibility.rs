//! Algorithm 2 — `CLEAN WITH VISIBILITY` (§4.2).
//!
//! The fully local rule for the agents on a node `x` of type `T(k)`:
//!
//! * if fewer than `2^{k−1}` agents are on `x`, wait;
//! * when `2^{k−1}` agents are on `x` **and** every smaller neighbour of
//!   `x` is clean or guarded: one agent moves to the bigger neighbour of
//!   type `T(0)`, and `2^{i−1}` agents move to each bigger neighbour of
//!   type `T(i)` for `0 < i < k`;
//! * if there are no bigger neighbours (a leaf), terminate — the agent
//!   stays as the leaf's guard.
//!
//! Slot arithmetic: dispatching agents claim consecutive slots `s` from the
//! whiteboard; slot `0` goes to the `T(0)` child, and slot `s ≥ 1` to the
//! `T(msb(s))` child — exactly `2^{i−1}` slots land on `T(i)`. The child of
//! type `T(i)` lies across port `d − i`.

use hypersweep_sim::{
    Action, AgentProgram, Board, Ctx, Engine, EngineConfig, Event, EventKind, EventSink, Metrics,
    Policy, Role,
};
use hypersweep_topology::combinatorics as comb;
use hypersweep_topology::{BroadcastTree, Hypercube, Node};

use crate::outcome::{audited_run, SearchOutcome, SearchStrategy, StrategyError};

/// Whiteboard of the visibility strategy: a dispatch-started flag and the
/// next slot counter — `O(log n)` bits.
#[derive(Clone, Default)]
pub struct VisBoard {
    /// Set by the first agent that validated the dispatch condition.
    pub dispatch_started: bool,
    /// Next dispatch slot to be claimed.
    pub next_slot: u32,
}

impl Board for VisBoard {
    fn bits_used(&self) -> u32 {
        1 + 32 - self.next_slot.leading_zeros()
    }
}

/// Map a dispatch slot to the type of the receiving child: slot `0` → type
/// `0`; slot `s ≥ 1` → type `msb(s)` (so type `i` receives `2^{i−1}`
/// slots).
#[inline]
pub fn slot_child_type(slot: u32) -> u32 {
    if slot == 0 {
        0
    } else {
        32 - slot.leading_zeros()
    }
}

/// The visibility agent program.
pub struct VisibilityAgent;

impl AgentProgram for VisibilityAgent {
    type Board = VisBoard;

    fn step(&mut self, ctx: &mut Ctx<'_, VisBoard>) -> Action {
        let x = ctx.node();
        let d = ctx.cube().dim();
        let k = d - x.msb_position();
        if k == 0 {
            // A leaf: terminate and guard forever.
            return Action::Terminate;
        }
        if !ctx.board().dispatch_started {
            let need = comb::visibility_need(k);
            if u128::from(ctx.active_here()) < need {
                return Action::Wait;
            }
            if !ctx.smaller_neighbors_safe() {
                return Action::Wait;
            }
            ctx.board_mut().dispatch_started = true;
        }
        let slot = ctx.board().next_slot;
        ctx.board_mut().next_slot = slot + 1;
        let child_type = slot_child_type(slot);
        debug_assert!(child_type < k, "slot {slot} exceeds the dispatch of T({k})");
        Action::Move(d - child_type)
    }

    fn local_bits(&self) -> u32 {
        0 // the rule is stateless; everything lives on whiteboards
    }
}

/// §4's strategy: `n/2` identical agents at the homebase, visibility model.
#[derive(Clone, Copy, Debug)]
pub struct VisibilityStrategy {
    cube: Hypercube,
}

impl VisibilityStrategy {
    /// Build the strategy for `cube` (`d ≥ 1`).
    pub fn new(cube: Hypercube) -> Self {
        assert!(cube.dim() >= 1, "H_0 has nothing to search");
        VisibilityStrategy { cube }
    }

    /// The team size: `n/2` (Theorem 5).
    pub fn team_size(&self) -> u64 {
        1 << (self.cube.dim() - 1)
    }

    /// The engine, with visibility, and the team of
    /// [`VisibilityStrategy::team_size`] agents spawned at the homebase.
    pub fn engine(&self, policy: Policy) -> Engine<VisibilityAgent> {
        let mut engine = Engine::new(
            self.cube,
            EngineConfig {
                policy,
                visibility: true,
                ..EngineConfig::default()
            },
        );
        for _ in 0..self.team_size() {
            engine.spawn(VisibilityAgent, Node::ROOT, Role::Worker);
        }
        engine
    }
}

impl SearchStrategy for VisibilityStrategy {
    fn name(&self) -> &'static str {
        "clean-with-visibility"
    }

    fn cube(&self) -> Hypercube {
        self.cube
    }

    fn run(&self, policy: Policy) -> Result<SearchOutcome, StrategyError> {
        audited_run(self.engine(policy))
    }

    /// Synthesize the canonical synchronous trace directly, streaming every
    /// event into `sink`: class `C_i` dispatches at round `i + 1`.
    fn synthesize_into(&self, sink: &mut dyn EventSink) -> Metrics {
        let cube = self.cube;
        let d = cube.dim();
        let tree = BroadcastTree::new(cube);
        let n = cube.node_count();
        let team = self.team_size();
        // Agent groups stationed per node (ids), populated as waves arrive.
        let mut station: Vec<Vec<u32>> = vec![Vec::new(); n];
        station[Node::ROOT.index()] = (0..team as u32).collect();
        for id in 0..team as u32 {
            sink.emit(Event {
                time: 0,
                kind: EventKind::Spawn {
                    agent: id,
                    node: Node::ROOT,
                    role: Role::Worker,
                },
            });
        }
        let mut worker_moves: u64 = 0;
        // Wavefront: class C_i dispatches in round i+1. Within a class we
        // process nodes in increasing order; each dispatch is atomic per
        // agent, children in slot order.
        for i in 0..=d {
            let class = tree.msb_class_nodes(i);
            for x in class {
                let k = tree.node_type(x);
                if k == 0 {
                    continue; // leaves keep their guard
                }
                let group = std::mem::take(&mut station[x.index()]);
                debug_assert_eq!(group.len() as u128, comb::visibility_need(k));
                for (slot, id) in group.into_iter().enumerate() {
                    let child_type = slot_child_type(slot as u32);
                    let to = x.flip(d - child_type);
                    worker_moves += 1;
                    sink.emit(Event {
                        time: u64::from(i) + 1,
                        kind: EventKind::Move {
                            agent: id,
                            from: x,
                            to,
                            role: Role::Worker,
                        },
                    });
                    station[to.index()].push(id);
                }
            }
        }
        // All survivors sit on leaves; emit terminations.
        for x in tree.leaves() {
            for &id in &station[x.index()] {
                sink.emit(Event {
                    time: u64::from(d) + 1,
                    kind: EventKind::Terminate { agent: id, node: x },
                });
            }
        }
        Metrics {
            worker_moves,
            coordinator_moves: 0,
            team_size: team,
            peak_away: team,
            ideal_time: Some(u64::from(d)),
            activations: worker_moves,
            peak_board_bits: 0,
            peak_local_bits: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictions::visibility_prediction;

    #[test]
    fn slot_mapping_gives_each_child_its_share() {
        // For k = 5: slots 0..16 must send 1,1,2,4,8 agents to types
        // 0,1,2,3,4.
        let mut per_type = [0u32; 5];
        for s in 0..16 {
            per_type[slot_child_type(s) as usize] += 1;
        }
        assert_eq!(per_type, [1, 1, 2, 4, 8]);
    }

    #[test]
    fn synchronous_run_matches_theorems_5_7_8() {
        for d in 1..=8 {
            let cube = Hypercube::new(d);
            let s = VisibilityStrategy::new(cube);
            let outcome = s.run(Policy::Synchronous).expect("completes");
            let p = visibility_prediction(d);
            assert!(
                outcome.is_complete(),
                "d={d}: {:?}",
                outcome.verdict.violations
            );
            assert_eq!(u128::from(outcome.metrics.team_size), p.agents, "d={d}");
            assert_eq!(
                outcome.metrics.ideal_time.map(u128::from),
                Some(p.ideal_time),
                "d={d}"
            );
            assert_eq!(u128::from(outcome.metrics.total_moves()), p.moves, "d={d}");
        }
    }

    #[test]
    fn asynchronous_runs_are_correct_under_every_adversary() {
        for policy in Policy::adversaries(4) {
            for d in 1..=7 {
                let cube = Hypercube::new(d);
                let s = VisibilityStrategy::new(cube);
                let outcome = s.run(policy).expect("completes");
                assert!(
                    outcome.is_complete(),
                    "d={d} policy={policy:?}: {:?}",
                    outcome.verdict.violations
                );
                let p = visibility_prediction(d);
                assert_eq!(u128::from(outcome.metrics.total_moves()), p.moves);
                assert_eq!(u128::from(outcome.metrics.team_size), p.agents);
            }
        }
    }

    #[test]
    fn fast_path_matches_engine_metrics() {
        for d in 1..=8 {
            let cube = Hypercube::new(d);
            let s = VisibilityStrategy::new(cube);
            let engine_outcome = s.run(Policy::Synchronous).unwrap();
            let fast_outcome = s.fast(true);
            assert!(fast_outcome.is_complete(), "d={d}");
            assert_eq!(
                fast_outcome.metrics.total_moves(),
                engine_outcome.metrics.total_moves(),
                "d={d}"
            );
            assert_eq!(
                fast_outcome.metrics.ideal_time,
                engine_outcome.metrics.ideal_time
            );
            assert_eq!(
                fast_outcome.metrics.team_size,
                engine_outcome.metrics.team_size
            );
        }
    }

    #[test]
    fn fast_path_scales_to_large_dimensions() {
        let s = VisibilityStrategy::new(Hypercube::new(18));
        let outcome = s.fast(false);
        let p = visibility_prediction(18);
        assert_eq!(u128::from(outcome.metrics.total_moves()), p.moves);
        assert_eq!(u128::from(outcome.metrics.team_size), p.agents);
    }

    #[test]
    fn final_guards_sit_exactly_on_the_leaves() {
        let cube = Hypercube::new(6);
        let engine = VisibilityStrategy::new(cube).engine(Policy::Fifo);
        let report = engine.run().unwrap();
        let tree = BroadcastTree::new(cube);
        for x in cube.nodes() {
            let expect = u32::from(tree.is_leaf(x));
            assert_eq!(report.occupancy[x.index()], expect, "node {x}");
        }
    }

    #[test]
    fn whiteboard_stays_logarithmic() {
        let cube = Hypercube::new(8);
        let engine = VisibilityStrategy::new(cube).engine(Policy::Random(7));
        let report = engine.run().unwrap();
        // next_slot ≤ n/2 → at most 1 + log2(n/2) bits.
        assert!(report.metrics.peak_board_bits <= 1 + 8);
    }
}
