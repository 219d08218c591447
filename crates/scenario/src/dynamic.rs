//! Dynamic-graph decontamination: the sweep from [`crate::sweep`]
//! driven in rounds, with a seeded adversary inserting and deleting
//! edges between rounds.
//!
//! Each round snapshots the contamination state (safe set + occupancy),
//! applies a batch of validated mutations to the working [`AdjGraph`],
//! restores the snapshot onto the mutated adjacency via
//! [`ContaminationField::with_state`], and immediately re-verifies the
//! region invariants with [`StepOracle::verify_region`] — contiguity
//! and frontier-guard coverage must survive the mutation before any
//! agent moves. The sweep then re-plans its duties against the new
//! adjacency and drives [`ROUND_LEN`] more decision steps.
//!
//! A mutation proposal is *rejected* (and counted) when it would break
//! an invariant by construction rather than by strategy error:
//! inserting an edge from contamination to an unguarded clean node
//! (instant recontamination nobody could have prevented), or deleting
//! an edge that disconnects the graph or the clean region. Everything
//! else — including insertions that suddenly turn interior nodes back
//! into frontier — is fair game the strategy must absorb.

use hypersweep_check::{Adversary, StepOracle, ViolationKind};
use hypersweep_intruder::ContaminationField;
use hypersweep_topology::graph::AdjGraph;
use hypersweep_topology::rng::SplitMix64;
use hypersweep_topology::{GridInstance, Node, NodeSet, Topology};

use crate::sweep::{Progress, ScheduleStats, Sweep};

/// Decision steps driven between mutation batches.
pub const ROUND_LEN: u64 = 6;

/// Edge-churn proposals per mutation batch.
pub const MUTATIONS_PER_ROUND: u32 = 2;

/// Would removing `(a, b)` leave the whole graph or the clean region
/// disconnected? (`graph` is inspected *after* the tentative removal.)
fn still_connected(graph: &AdjGraph, safe: &NodeSet, homebase: Node) -> bool {
    if !graph.is_connected() {
        return false;
    }
    let cleaned = safe.count_ones();
    if cleaned == 0 {
        return true;
    }
    if !safe.contains(homebase) {
        return false;
    }
    // BFS from the homebase restricted to safe nodes.
    let n = graph.node_count();
    let mut seen = NodeSet::new(n);
    let mut queue = std::collections::VecDeque::new();
    let mut nbrs = Vec::new();
    seen.insert(homebase);
    queue.push_back(homebase);
    let mut reached = 1usize;
    while let Some(x) = queue.pop_front() {
        graph.neighbors_into(x, &mut nbrs);
        for &y in &nbrs {
            if safe.contains(y) && seen.insert(y) {
                reached += 1;
                queue.push_back(y);
            }
        }
    }
    reached == cleaned
}

/// Apply one proposal if it passes validation. Returns whether the
/// graph changed.
fn try_mutate(
    graph: &mut AdjGraph,
    safe: &NodeSet,
    occupancy: &[u32],
    homebase: Node,
    a: Node,
    b: Node,
    insert: bool,
) -> bool {
    if a == b {
        return false;
    }
    if insert {
        if graph.has_edge(a, b) {
            return false;
        }
        let a_clean = safe.contains(a);
        let b_clean = safe.contains(b);
        // Contamination reaching an unguarded clean node the instant
        // the edge lands is the adversary cheating, not the strategy
        // failing — reject it.
        if !a_clean && b_clean && occupancy[b.index()] == 0 {
            return false;
        }
        if !b_clean && a_clean && occupancy[a.index()] == 0 {
            return false;
        }
        graph.add_edge(a, b);
        true
    } else {
        if !graph.remove_edge(a, b) {
            return false;
        }
        if still_connected(graph, safe, homebase) {
            true
        } else {
            graph.add_edge(a, b);
            false
        }
    }
}

/// Drive one full dynamic schedule: rounds of sweep steps separated by
/// validated edge churn, every round re-verified by the oracle.
pub(crate) fn run_dynamic(
    side: u32,
    instance: GridInstance,
    seed: u64,
    schedule: u64,
    max_steps: u64,
) -> ScheduleStats {
    let grid = instance.build(side);
    let mut graph = AdjGraph::from_topology(&grid);
    let homebase = grid.homebase();
    let n = graph.node_count();

    let mut adversary = Adversary::for_schedule(seed, schedule);
    // Churn stream decoupled from the scheduling adversary but derived
    // the same way, so every (seed, schedule) pair is reproducible
    // under any worker count.
    let mut churn = SplitMix64::new(
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(schedule) ^ 0x6A09_E667_F3BC_C908,
    );

    let mut sweep = Sweep::new(n, homebase, false);
    let mut safe = NodeSet::new(n);
    let mut occupancy = vec![0u32; n];
    let mut step = 0u64;
    let mut rounds = 0u64;
    let mut mutations = 0u64;
    let mut rejected = 0u64;

    let violation = 'outer: loop {
        rounds += 1;
        {
            let field = ContaminationField::with_state(&graph, homebase, &safe, &occupancy);
            let mut oracle = StepOracle::from_field(field, 1);
            // The previous batch's mutations must leave the region
            // invariants standing before anyone moves.
            if let Err(v) = oracle.verify_region(step) {
                break 'outer Some(v);
            }
            sweep.replan(&graph, oracle.field());
            let mut done = false;
            for _ in 0..ROUND_LEN {
                if step >= max_steps {
                    break 'outer Some(oracle.report(step, ViolationKind::StepLimit));
                }
                match sweep.step(&graph, &mut oracle, &mut adversary, step) {
                    Ok(Progress::Done) => {
                        done = true;
                        break;
                    }
                    Ok(Progress::Advanced) => step += 1,
                    Err(v) => break 'outer Some(v),
                }
            }
            let field = oracle.field();
            safe.clear();
            for i in 0..n as u32 {
                if !field.is_contaminated(Node(i)) {
                    safe.insert(Node(i));
                }
            }
            occupancy.copy_from_slice(field.occupancy());
            if done {
                break 'outer None;
            }
        }
        for _ in 0..MUTATIONS_PER_ROUND {
            let a = Node(churn.below(n as u64) as u32);
            let b = Node(churn.below(n as u64) as u32);
            let insert = churn.next_u64() & 1 == 0;
            if try_mutate(&mut graph, &safe, &occupancy, homebase, a, b, insert) {
                mutations += 1;
            } else {
                rejected += 1;
            }
        }
    };

    let mut stats = sweep.stats;
    stats.steps = step;
    stats.rounds = rounds;
    stats.mutations = mutations;
    stats.rejected = rejected;
    stats.violation = violation;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_schedules_stay_quiet_and_churn_happens() {
        let mut total_mutations = 0;
        for schedule in 0..40 {
            let stats = run_dynamic(6, GridInstance::Full, 0, schedule, 100_000);
            assert!(
                stats.violation.is_none(),
                "schedule {schedule}: {:?}",
                stats.violation
            );
            assert!(stats.rounds >= 1);
            total_mutations += stats.mutations;
        }
        assert!(
            total_mutations > 0,
            "the adversary never managed a single accepted mutation"
        );
    }

    #[test]
    fn dynamic_runs_are_deterministic_per_schedule() {
        for schedule in [0u64, 3, 17] {
            let a = run_dynamic(5, GridInstance::Holes(42), 7, schedule, 100_000);
            let b = run_dynamic(5, GridInstance::Holes(42), 7, schedule, 100_000);
            assert_eq!(a.decisions, b.decisions);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.mutations, b.mutations);
            assert_eq!(a.rejected, b.rejected);
            assert_eq!(a.team, b.team);
        }
    }

    #[test]
    fn insert_into_unguarded_clean_region_is_rejected() {
        let grid = GridInstance::Full.build(3);
        let mut graph = AdjGraph::from_topology(&grid);
        let n = graph.node_count();
        let mut safe = NodeSet::new(n);
        let occupancy = vec![0u32; n];
        // Node 0 clean and unguarded, node 8 contaminated.
        safe.insert(Node(0));
        assert!(!try_mutate(
            &mut graph,
            &safe,
            &occupancy,
            Node(0),
            Node(8),
            Node(0),
            true
        ));
        // Same insert with a guard standing on node 0 is fair game.
        let mut guarded = occupancy.clone();
        guarded[0] = 1;
        assert!(try_mutate(
            &mut graph,
            &safe,
            &guarded,
            Node(0),
            Node(8),
            Node(0),
            true
        ));
    }

    #[test]
    fn disconnecting_deletions_are_rejected() {
        // A 1x3 path: removing any edge disconnects the graph.
        let grid = GridInstance::Full.build(1);
        assert_eq!(grid.node_count(), 1);
        let path = AdjGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut graph = path;
        let safe = NodeSet::new(3);
        let occupancy = vec![0u32; 3];
        assert!(!try_mutate(
            &mut graph,
            &safe,
            &occupancy,
            Node(0),
            Node(0),
            Node(1),
            false
        ));
        assert!(
            graph.has_edge(Node(0), Node(1)),
            "rejected delete must be undone"
        );
    }
}
