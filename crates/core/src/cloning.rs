//! The §5 cloning variant of the visibility strategy.
//!
//! One agent starts at the homebase. On a node `x` of type `T(k)` whose
//! smaller neighbours are all clean or guarded, the agent clones itself
//! towards the children of types `T(k−1), …, T(1)` (one clone each — the
//! clone subsequently clones further down its own subtree) and finally
//! moves itself to the `T(0)` child, where it terminates as the leaf's
//! guard. Every broadcast-tree edge is crossed exactly once, so the total
//! number of moves is `n − 1`; the team still grows to `n/2` agents
//! (§5: "cloning … the number of moves performed by the agents is reduced
//! to `n − 1`").
//!
//! Dispatch order matters for the `log n` time bound: cloning towards the
//! *largest* subtree first keeps every chain advancing one level per time
//! unit (the completion time recursion `g(k) = max_i (k−i) + g(i)` solves
//! to `g(k) = k` only for the decreasing-type order).

use hypersweep_sim::{
    Action, AgentProgram, Ctx, Engine, EngineConfig, Event, EventKind, EventSink, Metrics, Policy,
    Role,
};
use hypersweep_topology::{BroadcastTree, Hypercube, Node};

use crate::outcome::{audited_run, SearchOutcome, SearchStrategy, StrategyError};
use crate::visibility::VisBoard;

/// Which child a dispatching agent serves first.
///
/// §5's `log n` bound needs the *largest* subtree first: the completion
/// recursion `g(k) = max_i (k−i) + g(i)` solves to `g(k) = k` in that
/// order. Smallest-first is provided as an ablation — still correct and
/// still `n − 1` moves, but the critical path degrades to
/// `g'(k) = max_i (i+1) + g'(i) = Θ(k²)`, i.e. `Θ(log² n)` time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DispatchOrder {
    /// The §5 order: types `T(k−1), …, T(1)` cloned first, the agent
    /// finishes on the `T(0)` child.
    #[default]
    LargestSubtreeFirst,
    /// Ablation: `T(0)` cloned first, the agent finishes on the `T(k−1)`
    /// child.
    SmallestSubtreeFirst,
}

/// The cloning agent. Local state: the next child port to clone towards
/// (`0` = dispatch not started) — `O(log n)` bits.
#[derive(Clone)]
pub struct CloningAgent {
    next_port: u32,
    order: DispatchOrder,
}

impl CloningAgent {
    /// A fresh agent (as spawned at the homebase or materialized by a
    /// clone).
    pub fn new() -> Self {
        CloningAgent {
            next_port: 0,
            order: DispatchOrder::LargestSubtreeFirst,
        }
    }

    /// A fresh agent using the given dispatch order.
    pub fn with_order(order: DispatchOrder) -> Self {
        CloningAgent {
            next_port: 0,
            order,
        }
    }
}

impl Default for CloningAgent {
    fn default() -> Self {
        Self::new()
    }
}

impl AgentProgram for CloningAgent {
    type Board = VisBoard;

    fn step(&mut self, ctx: &mut Ctx<'_, VisBoard>) -> Action {
        let x = ctx.node();
        let d = ctx.cube().dim();
        let m = x.msb_position();
        if m == d {
            // Type T(0): a leaf. Guard forever.
            return Action::Terminate;
        }
        if self.next_port == 0 {
            if !ctx.smaller_neighbors_safe() {
                return Action::Wait;
            }
            // Children sit across ports m+1..=d with types k−1..0.
            self.next_port = match self.order {
                DispatchOrder::LargestSubtreeFirst => m + 1,
                DispatchOrder::SmallestSubtreeFirst => d,
            };
        }
        let port = self.next_port;
        match self.order {
            DispatchOrder::LargestSubtreeFirst => {
                // Clone towards increasing ports (decreasing subtree type),
                // then move to the T(0) child across port d.
                if port == d {
                    self.next_port = 0;
                    Action::Move(port)
                } else {
                    self.next_port = port + 1;
                    Action::Clone(port)
                }
            }
            DispatchOrder::SmallestSubtreeFirst => {
                // Clone towards decreasing ports, then move to the T(k−1)
                // child across port m+1.
                if port == m + 1 {
                    self.next_port = 0;
                    Action::Move(port)
                } else {
                    self.next_port = port - 1;
                    Action::Clone(port)
                }
            }
        }
    }

    fn clone_program(&self) -> Self {
        CloningAgent::with_order(self.order)
    }

    fn local_bits(&self) -> u32 {
        32 - self.next_port.leading_zeros()
    }
}

/// The cloning strategy: a single seed agent, `n − 1` total moves.
///
/// ```
/// use hypersweep_core::{CloningStrategy, SearchStrategy};
/// use hypersweep_sim::Policy;
/// use hypersweep_topology::Hypercube;
///
/// let outcome = CloningStrategy::new(Hypercube::new(5))
///     .run(Policy::Fifo)
///     .unwrap();
/// assert!(outcome.is_complete());
/// assert_eq!(outcome.metrics.total_moves(), 31); // n − 1
/// assert_eq!(outcome.metrics.team_size, 16);     // n/2 after cloning
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CloningStrategy {
    cube: Hypercube,
    order: DispatchOrder,
}

impl CloningStrategy {
    /// Build the strategy for `cube` (`d ≥ 1`).
    pub fn new(cube: Hypercube) -> Self {
        assert!(cube.dim() >= 1, "H_0 has nothing to search");
        CloningStrategy {
            cube,
            order: DispatchOrder::LargestSubtreeFirst,
        }
    }

    /// Ablation constructor: pick the dispatch order (see
    /// [`DispatchOrder`]).
    pub fn with_dispatch_order(cube: Hypercube, order: DispatchOrder) -> Self {
        assert!(cube.dim() >= 1, "H_0 has nothing to search");
        CloningStrategy { cube, order }
    }

    /// The engine, with visibility, and the single seed agent spawned at
    /// the homebase.
    pub fn engine(&self, policy: Policy) -> Engine<CloningAgent> {
        let mut engine = Engine::new(
            self.cube,
            EngineConfig {
                policy,
                visibility: true,
                ..EngineConfig::default()
            },
        );
        engine.spawn(
            CloningAgent::with_order(self.order),
            Node::ROOT,
            Role::Worker,
        );
        engine
    }
}

impl SearchStrategy for CloningStrategy {
    fn name(&self) -> &'static str {
        "cloning"
    }

    fn cube(&self) -> Hypercube {
        self.cube
    }

    fn run(&self, policy: Policy) -> Result<SearchOutcome, StrategyError> {
        audited_run(self.engine(policy))
    }

    /// Synthesize the canonical trace, streaming every event into `sink`:
    /// node `x` dispatches at round `m(x) + 1`; clone `j` of the dispatch
    /// materializes in that round.
    fn synthesize_into(&self, sink: &mut dyn EventSink) -> Metrics {
        let cube = self.cube;
        let d = cube.dim();
        let tree = BroadcastTree::new(cube);
        let n = cube.node_count();
        let mut agent_at: Vec<Option<u32>> = vec![None; n];
        agent_at[Node::ROOT.index()] = Some(0);
        let mut next_agent: u32 = 1;
        sink.emit(Event {
            time: 0,
            kind: EventKind::Spawn {
                agent: 0,
                node: Node::ROOT,
                role: Role::Worker,
            },
        });
        let mut moves: u64 = 0;
        for i in 0..=d {
            for x in tree.msb_class_nodes(i) {
                let k = tree.node_type(x);
                if k == 0 {
                    continue;
                }
                let id = agent_at[x.index()].expect("dispatching node is guarded");
                let m = x.msb_position();
                for port in m + 1..=d {
                    let to = x.flip(port);
                    moves += 1;
                    if port == d {
                        // The original moves to the T(0) child.
                        sink.emit(Event {
                            time: u64::from(i) + 1,
                            kind: EventKind::Move {
                                agent: id,
                                from: x,
                                to,
                                role: Role::Worker,
                            },
                        });
                        agent_at[x.index()] = None;
                        agent_at[to.index()] = Some(id);
                    } else {
                        let child = next_agent;
                        next_agent += 1;
                        sink.emit(Event {
                            time: u64::from(i) + 1,
                            kind: EventKind::CloneSpawn {
                                parent: id,
                                child,
                                from: x,
                                to,
                            },
                        });
                        agent_at[to.index()] = Some(child);
                    }
                }
            }
        }
        for x in tree.leaves() {
            if let Some(id) = agent_at[x.index()] {
                sink.emit(Event {
                    time: u64::from(d) + 1,
                    kind: EventKind::Terminate { agent: id, node: x },
                });
            }
        }
        Metrics {
            worker_moves: moves,
            coordinator_moves: 0,
            team_size: u64::from(next_agent),
            peak_away: u64::from(next_agent), // every agent ends away from the root
            ideal_time: Some(u64::from(d)),
            activations: moves,
            peak_board_bits: 0,
            peak_local_bits: 32 - (d.leading_zeros()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictions::cloning_prediction;
    use hypersweep_topology::combinatorics as comb;

    #[test]
    fn cloning_uses_n_minus_1_moves_and_n_half_agents() {
        for d in 1..=8 {
            let cube = Hypercube::new(d);
            let s = CloningStrategy::new(cube);
            for policy in [
                Policy::Fifo,
                Policy::Lifo,
                Policy::Random(3),
                Policy::Synchronous,
            ] {
                let outcome = s.run(policy).expect("completes");
                assert!(
                    outcome.is_complete(),
                    "d={d} {policy:?}: {:?}",
                    outcome.verdict.violations
                );
                let p = cloning_prediction(d);
                assert_eq!(u128::from(outcome.metrics.total_moves()), p.moves, "d={d}");
                assert_eq!(u128::from(outcome.metrics.team_size), p.agents, "d={d}");
            }
        }
    }

    #[test]
    fn cloning_ideal_time_is_log_n() {
        for d in 1..=9 {
            let s = CloningStrategy::new(Hypercube::new(d));
            let outcome = s.run(Policy::Synchronous).unwrap();
            assert_eq!(outcome.metrics.ideal_time, Some(u64::from(d)), "d={d}");
        }
    }

    #[test]
    fn dispatch_order_ablation_time_is_exactly_triangular() {
        // Largest-first: g(d) = d. Smallest-first: g'(d) = d(d+1)/2 —
        // measured exactly by the lock-step engine, validating the
        // completion recursion that justifies §5's dispatch order.
        for d in 2..=9u32 {
            let cube = Hypercube::new(d);
            let fast = CloningStrategy::new(cube).run(Policy::Synchronous).unwrap();
            assert_eq!(fast.metrics.ideal_time, Some(u64::from(d)));
            let slow =
                CloningStrategy::with_dispatch_order(cube, DispatchOrder::SmallestSubtreeFirst)
                    .run(Policy::Synchronous)
                    .unwrap();
            assert!(slow.is_complete(), "the ablation stays correct");
            assert_eq!(
                slow.metrics.ideal_time,
                Some(u64::from(d) * (u64::from(d) + 1) / 2),
                "d={d}"
            );
            // Moves are unchanged: n − 1 either way.
            assert_eq!(slow.metrics.total_moves(), fast.metrics.total_moves());
        }
    }

    #[test]
    fn fast_path_agrees_with_engine() {
        for d in 1..=8 {
            let s = CloningStrategy::new(Hypercube::new(d));
            let fast = s.fast(true);
            let engine = s.run(Policy::Synchronous).unwrap();
            assert!(fast.is_complete(), "d={d}");
            assert_eq!(fast.metrics.total_moves(), engine.metrics.total_moves());
            assert_eq!(fast.metrics.team_size, engine.metrics.team_size);
            assert_eq!(fast.metrics.ideal_time, engine.metrics.ideal_time);
        }
    }

    #[test]
    fn fast_path_large_dimension_closed_forms() {
        let s = CloningStrategy::new(Hypercube::new(20));
        let o = s.fast(false);
        assert_eq!(u128::from(o.metrics.total_moves()), comb::pow2(20) - 1);
        assert_eq!(u128::from(o.metrics.team_size), comb::pow2(19));
    }

    #[test]
    fn every_leaf_ends_guarded_by_exactly_one_agent() {
        let cube = Hypercube::new(7);
        let report = CloningStrategy::new(cube)
            .engine(Policy::RoundRobin)
            .run()
            .unwrap();
        let tree = BroadcastTree::new(cube);
        for x in cube.nodes() {
            assert_eq!(
                report.occupancy[x.index()],
                u32::from(tree.is_leaf(x)),
                "node {x}"
            );
        }
    }
}
