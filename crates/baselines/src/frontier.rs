//! The naive frontier sweep — a level-synchronous baseline without the
//! paper's leaf-recall trick.
//!
//! Phase `l`: with level `l` fully guarded, fresh agents from the root pool
//! walk up (through clean levels, passing through the guarded frontier)
//! and occupy *every* node of level `l + 1`; only then do the level-`l`
//! guards retire to the root pool. Correct and simple, but the team must
//! hold two adjacent full levels at once:
//! `max_l [C(d,l) + C(d,l+1)]` agents — versus CLEAN's
//! `max_l [C(d,l+1) + C(d−1,l−1)]` (Lemma 4). Every node is visited by a
//! dedicated round-trip journey, so moves total `Σ_v 2·level(v) = n·log n`
//! — versus CLEAN's `(n/2)(log n + 1)`.

use hypersweep_core::outcome::{SearchOutcome, SearchStrategy, StrategyError};
use hypersweep_sim::{Event, EventKind, EventSink, Metrics, Policy, Role};
use hypersweep_topology::combinatorics as comb;
use hypersweep_topology::{BroadcastTree, Hypercube, Node};

/// The frontier-sweep baseline (centralized plan; audited like any trace).
#[derive(Clone, Copy, Debug)]
pub struct FrontierStrategy {
    cube: Hypercube,
}

impl FrontierStrategy {
    /// Build the strategy for `cube` (`d ≥ 1`).
    pub fn new(cube: Hypercube) -> Self {
        assert!(cube.dim() >= 1, "H_0 has nothing to search");
        FrontierStrategy { cube }
    }

    /// Exact team size: `1 + max_l [C(d,l) + C(d,l+1)]` — the `+1` keeps a
    /// guard on the homebase through phase 1 so contiguity never hinges on
    /// the pool being non-empty.
    pub fn team_size(&self) -> u64 {
        let d = self.cube.dim();
        let peak = (0..d)
            .map(|l| comb::nodes_at_level(d, l) + comb::nodes_at_level(d, l + 1))
            .max()
            .unwrap_or(1);
        u64::try_from(peak).expect("team fits in u64") + 1
    }

    /// Exact total moves: one round trip per node, `Σ_v 2·level(v) = n·d`.
    pub fn predicted_moves(&self) -> u128 {
        let d = self.cube.dim();
        comb::pow2(d) * u128::from(d)
    }
}

impl SearchStrategy for FrontierStrategy {
    fn name(&self) -> &'static str {
        "frontier"
    }

    fn cube(&self) -> Hypercube {
        self.cube
    }

    /// The plan is centralized: there is no agent program to run on the
    /// engine, so every schedule is refused.
    fn run(&self, policy: Policy) -> Result<SearchOutcome, StrategyError> {
        Err(StrategyError::UnsupportedPolicy {
            strategy: self.name(),
            policy,
        })
    }

    /// Synthesize the plan, streaming every event into `sink`.
    fn synthesize_into(&self, sink: &mut dyn EventSink) -> Metrics {
        let cube = self.cube;
        let d = cube.dim();
        let tree = BroadcastTree::new(cube);
        let n = cube.node_count();
        let team = self.team_size();
        let mut time: u64 = 0;
        let mut moves: u64 = 0;
        let mut away: u64 = 0;
        let mut peak_away: u64 = 0;
        let mut pool: Vec<u32> = (0..team as u32).rev().collect();
        let mut guard: Vec<Option<u32>> = vec![None; n];

        macro_rules! emit {
            ($kind:expr) => {
                time += 1;
                sink.emit(Event { time, kind: $kind });
            };
        }
        macro_rules! mv {
            ($id:expr, $from:expr, $to:expr) => {
                moves += 1;
                match ($from == Node::ROOT, $to == Node::ROOT) {
                    (true, false) => {
                        away += 1;
                        peak_away = peak_away.max(away);
                    }
                    (false, true) => away -= 1,
                    _ => {}
                }
                emit!(EventKind::Move {
                    agent: $id,
                    from: $from,
                    to: $to,
                    role: Role::Worker,
                });
            };
        }

        for id in 0..team as u32 {
            emit!(EventKind::Spawn {
                agent: id,
                node: Node::ROOT,
                role: Role::Worker,
            });
        }
        // The homebase's own guard.
        let home_guard = pool.pop().expect("team ≥ 1");
        guard[Node::ROOT.index()] = Some(home_guard);

        for l in 0..d {
            // Guard all of level l+1 with fresh journeys from the root.
            for x in cube.level_nodes(l + 1) {
                let w = pool.pop().expect("frontier team suffices");
                let mut pos = Node::ROOT;
                for hop in tree.root_path(x) {
                    mv!(w, pos, hop);
                    pos = hop;
                }
                guard[x.index()] = Some(w);
            }
            // Retire all of level l.
            for x in cube.level_nodes(l) {
                let w = guard[x.index()].take().expect("level l was guarded");
                let mut pos = x;
                while pos != Node::ROOT {
                    let next = pos.flip(pos.msb_position());
                    mv!(w, pos, next);
                    pos = next;
                }
                pool.push(w);
            }
        }
        // Everyone terminates: pooled agents at the root, level-d guards in
        // place (the far corner stays guarded like every search's endgame).
        for x in cube.level_nodes(d) {
            if let Some(w) = guard[x.index()] {
                emit!(EventKind::Terminate { agent: w, node: x });
            }
        }
        for &w in &pool {
            emit!(EventKind::Terminate {
                agent: w,
                node: Node::ROOT,
            });
        }

        Metrics {
            worker_moves: moves,
            coordinator_moves: 0,
            team_size: team,
            peak_away,
            ideal_time: None,
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
    fn frontier_sweep_is_a_correct_search() {
        for d in 1..=8 {
            let s = FrontierStrategy::new(Hypercube::new(d));
            let o = s.fast(true);
            assert!(o.is_complete(), "d={d}: {:?}", o.verdict.violations);
        }
    }

    #[test]
    fn every_schedule_is_refused_without_an_engine() {
        let s = FrontierStrategy::new(Hypercube::new(4));
        for policy in [Policy::Fifo, Policy::Synchronous, Policy::Random(7)] {
            let err = s.run(policy).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("frontier does not support the {} schedule", policy.name())
            );
        }
    }

    #[test]
    fn moves_equal_one_round_trip_per_node() {
        for d in 1..=10 {
            let s = FrontierStrategy::new(Hypercube::new(d));
            let metrics = s.fast(false).metrics;
            // Σ_v 2·level(v) = d·n, but level-d guards never walk back:
            // subtract their return legs Σ_{v: level d} level(v) = d.
            let expect = s.predicted_moves() - u128::from(d);
            assert_eq!(u128::from(metrics.worker_moves), expect, "d={d}");
        }
    }

    #[test]
    fn team_is_two_adjacent_levels() {
        let s = FrontierStrategy::new(Hypercube::new(6));
        // C(6,3)+C(6,2) = 20+15 = 35, plus the homebase guard.
        assert_eq!(s.team_size(), 36);
    }

    #[test]
    fn frontier_needs_more_agents_than_clean() {
        for d in 4..=14u32 {
            let frontier = FrontierStrategy::new(Hypercube::new(d)).team_size();
            let clean = comb::clean_team_size(d);
            assert!(
                u128::from(frontier) > clean,
                "d={d}: frontier {frontier} vs clean {clean}"
            );
        }
    }

    #[test]
    fn peak_away_stays_within_team() {
        for d in 2..=8 {
            let s = FrontierStrategy::new(Hypercube::new(d));
            let m = s.fast(false).metrics;
            assert!(m.peak_away <= m.team_size);
        }
    }
}
