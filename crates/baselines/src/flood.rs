//! The trivial flooding baseline: one permanent guard per node.
//!
//! `n` agents start at the homebase; on a node of type `T(k)` they wait for
//! the full complement of `2^k` agents (the size of the sub-heap-queue),
//! leave one guard forever and push `2^i` agents to each child of type
//! `T(i)`. Every node ends permanently guarded: maximal team (`n`), minimal
//! wall-clock (`log n`), and `(n/2)·log n` moves. It anchors the
//! team-size axis of the comparison experiments from above.

use hypersweep_core::outcome::{audited_run, SearchOutcome, SearchStrategy, StrategyError};
use hypersweep_core::visibility::VisBoard;
use hypersweep_sim::{
    Action, AgentProgram, Ctx, Engine, EngineConfig, Event, EventKind, EventSink, Metrics, Policy,
    Role,
};
use hypersweep_topology::{BroadcastTree, Hypercube, Node};

/// Map a flood dispatch slot to its destination: slot `0` stays as the
/// guard; slot `s ≥ 1` goes to the child of type `floor(log2 s)` (so type
/// `i` receives `2^i` agents).
#[inline]
pub fn flood_slot_child_type(slot: u32) -> Option<u32> {
    if slot == 0 {
        None
    } else {
        Some(31 - slot.leading_zeros())
    }
}

/// The flooding agent.
pub struct FloodAgent;

impl AgentProgram for FloodAgent {
    type Board = VisBoard;

    fn step(&mut self, ctx: &mut Ctx<'_, VisBoard>) -> Action {
        let x = ctx.node();
        let d = ctx.cube().dim();
        let k = d - x.msb_position();
        if k == 0 {
            return Action::Terminate;
        }
        if !ctx.board().dispatch_started {
            let need = 1u64 << k; // the subtree size 2^k
            if u64::from(ctx.active_here()) < need {
                return Action::Wait;
            }
            if !ctx.smaller_neighbors_safe() {
                return Action::Wait;
            }
            ctx.board_mut().dispatch_started = true;
        }
        let slot = ctx.board().next_slot;
        ctx.board_mut().next_slot = slot + 1;
        match flood_slot_child_type(slot) {
            None => Action::Terminate, // stay as x's permanent guard
            Some(i) => Action::Move(d - i),
        }
    }
}

/// The flooding strategy: `n` agents, a guard everywhere.
#[derive(Clone, Copy, Debug)]
pub struct FloodStrategy {
    cube: Hypercube,
}

impl FloodStrategy {
    /// Build the strategy for `cube` (`d ≥ 1`).
    pub fn new(cube: Hypercube) -> Self {
        assert!(cube.dim() >= 1, "H_0 has nothing to search");
        FloodStrategy { cube }
    }

    /// Team size: `n`.
    pub fn team_size(&self) -> u64 {
        self.cube.node_count() as u64
    }

    /// The engine, with visibility, and the team of
    /// [`FloodStrategy::team_size`] agents spawned at the homebase.
    pub fn engine(&self, policy: Policy) -> Engine<FloodAgent> {
        let mut engine = Engine::new(
            self.cube,
            EngineConfig {
                policy,
                visibility: true,
                ..EngineConfig::default()
            },
        );
        for _ in 0..self.team_size() {
            engine.spawn(FloodAgent, Node::ROOT, Role::Worker);
        }
        engine
    }
}

impl SearchStrategy for FloodStrategy {
    fn name(&self) -> &'static str {
        "flood"
    }

    fn cube(&self) -> Hypercube {
        self.cube
    }

    fn run(&self, policy: Policy) -> Result<SearchOutcome, StrategyError> {
        audited_run(self.engine(policy))
    }

    /// Canonical trace streamed into `sink`: class `C_i` dispatches at
    /// round `i + 1`, exactly as the visibility wave, but with
    /// subtree-sized squads.
    fn synthesize_into(&self, sink: &mut dyn EventSink) -> Metrics {
        let cube = self.cube;
        let d = cube.dim();
        let tree = BroadcastTree::new(cube);
        let n = cube.node_count();
        let team = self.team_size();
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
        let mut moves: u64 = 0;
        for i in 0..=d {
            for x in tree.msb_class_nodes(i) {
                let k = tree.node_type(x);
                if k == 0 {
                    continue;
                }
                let group = std::mem::take(&mut station[x.index()]);
                debug_assert_eq!(group.len() as u64, 1 << k);
                for (slot, id) in group.into_iter().enumerate() {
                    match flood_slot_child_type(slot as u32) {
                        None => station[x.index()].push(id), // the guard stays
                        Some(t) => {
                            let to = x.flip(d - t);
                            moves += 1;
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
            }
        }
        for x in cube.nodes() {
            for &id in &station[x.index()] {
                sink.emit(Event {
                    time: u64::from(d) + 1,
                    kind: EventKind::Terminate { agent: id, node: x },
                });
            }
        }
        Metrics {
            worker_moves: moves,
            coordinator_moves: 0,
            team_size: team,
            peak_away: team - 1, // everyone but the root's own guard
            ideal_time: Some(u64::from(d)),
            activations: moves,
            peak_board_bits: 0,
            peak_local_bits: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_mapping_shares() {
        // k = 3: slots 0..8 → guard,T0,T1,T1,T2,T2,T2,T2.
        assert_eq!(flood_slot_child_type(0), None);
        assert_eq!(flood_slot_child_type(1), Some(0));
        assert_eq!(flood_slot_child_type(2), Some(1));
        assert_eq!(flood_slot_child_type(3), Some(1));
        for s in 4..8 {
            assert_eq!(flood_slot_child_type(s), Some(2));
        }
    }

    #[test]
    fn flood_guards_everything_with_n_agents() {
        for d in 1..=7 {
            let cube = Hypercube::new(d);
            let s = FloodStrategy::new(cube);
            for policy in [
                Policy::Fifo,
                Policy::Lifo,
                Policy::Random(5),
                Policy::Synchronous,
            ] {
                let outcome = s.run(policy).expect("completes");
                assert!(
                    outcome.is_complete(),
                    "d={d} {policy:?}: {:?}",
                    outcome.verdict.violations
                );
                assert_eq!(outcome.metrics.team_size, 1 << d);
                assert_eq!(
                    outcome.metrics.total_moves(),
                    u64::from(d) << (d - 1),
                    "moves = (n/2)·d at d={d}"
                );
            }
        }
    }

    #[test]
    fn flood_time_is_log_n() {
        for d in 1..=8 {
            let s = FloodStrategy::new(Hypercube::new(d));
            let o = s.run(Policy::Synchronous).unwrap();
            assert_eq!(o.metrics.ideal_time, Some(u64::from(d)));
        }
    }

    #[test]
    fn every_node_ends_guarded() {
        let cube = Hypercube::new(6);
        let engine = FloodStrategy::new(cube).engine(Policy::RoundRobin);
        let report = engine.run().unwrap();
        assert!(report.occupancy.iter().all(|&o| o == 1));
    }

    #[test]
    fn fast_path_agrees_with_engine() {
        for d in 1..=7 {
            let s = FloodStrategy::new(Hypercube::new(d));
            let fast = s.fast(true);
            assert!(fast.is_complete(), "d={d}");
            let eng = s.run(Policy::Synchronous).unwrap();
            assert_eq!(fast.metrics.total_moves(), eng.metrics.total_moves());
            assert_eq!(fast.metrics.team_size, eng.metrics.team_size);
            assert_eq!(fast.metrics.ideal_time, eng.metrics.ideal_time);
        }
    }
}
