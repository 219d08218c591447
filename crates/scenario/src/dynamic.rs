//! Dynamic-graph decontamination: the sweep from [`crate::sweep`]
//! driven in rounds, with a seeded adversary inserting and deleting
//! edges between rounds.
//!
//! One verifier watches the whole schedule. Between rounds
//! [`run_dynamic`] applies a batch of validated mutations to its
//! [`AdjGraph`], and reports each accepted one to the verifier's field
//! through its edge hooks ([`StepOracle::edge_inserted`],
//! [`StepOracle::edge_removed`]):
//! the endpoints' degrees, safe-neighbour counts and frontier membership
//! move in `O(1)`, and only a removed safe–safe edge costs more, one
//! forest rebuild at the next contiguity query. Before any agent moves,
//! [`StepOracle::verify_region`] re-checks the region invariants on the
//! new adjacency — contiguity and frontier-guard coverage must survive
//! the mutation. The sweep then re-plans its duties against the new
//! adjacency and drives [`ROUND_LEN`] more decision steps.
//!
//! The verifier holds the graph by shared reference for the whole
//! schedule, so [`run_dynamic`] mutates it through a [`RefCell`] behind
//! the [`Topology`] it hands over ([`Churned`]).
//!
//! A mutation proposal is *rejected* (and counted) when it would break
//! an invariant by construction rather than by strategy error:
//! inserting an edge from contamination to an unguarded clean node
//! (instant recontamination nobody could have prevented), or deleting
//! an edge that disconnects the graph or the clean region. Everything
//! else — including insertions that suddenly turn interior nodes back
//! into frontier — is fair game the strategy must absorb.

use std::cell::RefCell;

use hypersweep_check::{Adversary, StepOracle, ViolationKind};
use hypersweep_intruder::FieldScratch;
use hypersweep_topology::graph::AdjGraph;
use hypersweep_topology::rng::SplitMix64;
use hypersweep_topology::{Node, NodeSet, Topology};

use crate::sweep::{Progress, ScheduleStats, Sweep};

/// Decision steps driven between mutation batches.
pub const ROUND_LEN: u64 = 6;

/// Edge-churn proposals per mutation batch.
pub const MUTATIONS_PER_ROUND: u32 = 2;

/// The graph one dynamic schedule mutates: shared with its verifier for
/// the whole schedule, and changed only between rounds, while nothing
/// reads it.
pub(crate) struct Churned(RefCell<AdjGraph>);

impl Topology for Churned {
    fn node_count(&self) -> usize {
        self.0.borrow().node_count()
    }

    fn neighbors_into(&self, x: Node, out: &mut Vec<Node>) {
        self.0.borrow().neighbors_into(x, out);
    }
}

/// Would removing `(a, b)` leave the whole graph or the clean region
/// disconnected? (`graph` is inspected *after* the tentative removal.)
fn still_connected(graph: &AdjGraph, contaminated: &NodeSet, homebase: Node) -> bool {
    if !graph.is_connected() {
        return false;
    }
    let cleaned = contaminated.universe() - contaminated.count_ones();
    if cleaned == 0 {
        return true;
    }
    if contaminated.contains(homebase) {
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
            if !contaminated.contains(y) && seen.insert(y) {
                reached += 1;
                queue.push_back(y);
            }
        }
    }
    reached == cleaned
}

/// Apply one proposal if it passes validation against the live field,
/// and patch the field if it does. Returns whether the graph changed.
fn try_mutate(
    graph: &Churned,
    oracle: &mut StepOracle<'_, Churned>,
    homebase: Node,
    a: Node,
    b: Node,
    insert: bool,
) -> bool {
    if a == b {
        return false;
    }
    let field = oracle.field();
    let mut g = graph.0.borrow_mut();
    if insert {
        if g.has_edge(a, b) {
            return false;
        }
        // Contamination reaching an unguarded clean node the instant
        // the edge lands is the adversary cheating, not the strategy
        // failing — reject it.
        let exposes = |from: Node, to: Node| field.is_contaminated(from) && field.is_clean(to);
        if exposes(a, b) || exposes(b, a) {
            return false;
        }
        g.add_edge(a, b);
        drop(g);
        oracle.edge_inserted(a, b);
        true
    } else {
        if !g.remove_edge(a, b) {
            return false;
        }
        if still_connected(&g, field.contaminated_set(), homebase) {
            drop(g);
            oracle.edge_removed(a, b);
            true
        } else {
            g.add_edge(a, b);
            false
        }
    }
}

/// Drive one full dynamic schedule on a copy of `base`: rounds of sweep
/// steps separated by validated edge churn, every round re-verified by
/// the oracle. The verifier's field is built in `scratch` and handed back
/// in it.
pub(crate) fn run_dynamic(
    base: &AdjGraph,
    homebase: Node,
    leaky: bool,
    (seed, schedule): (u64, u64),
    max_steps: u64,
    scratch: &mut FieldScratch,
) -> ScheduleStats {
    run_dynamic_observed(
        base,
        homebase,
        leaky,
        (seed, schedule),
        max_steps,
        scratch,
        |_, _| {},
    )
}

/// [`run_dynamic`], calling `after_mutation` with the graph and the
/// verifier after every accepted mutation.
fn run_dynamic_observed(
    base: &AdjGraph,
    homebase: Node,
    leaky: bool,
    (seed, schedule): (u64, u64),
    max_steps: u64,
    scratch: &mut FieldScratch,
    mut after_mutation: impl FnMut(&Churned, &mut StepOracle<'_, Churned>),
) -> ScheduleStats {
    let graph = Churned(RefCell::new(base.clone()));
    let n = base.node_count();

    let mut adversary = Adversary::for_schedule(seed, schedule);
    // Churn stream decoupled from the scheduling adversary but derived
    // the same way, so every (seed, schedule) pair is reproducible
    // under any worker count.
    let mut churn = SplitMix64::new(
        seed.wrapping_mul(0x9E37_79B9).wrapping_add(schedule) ^ 0x6A09_E667_F3BC_C908,
    );

    let mut sweep = Sweep::new(n, homebase, leaky);
    let mut oracle = StepOracle::new_in(&graph, homebase, 1, std::mem::take(scratch));
    let mut step = 0u64;
    let mut rounds = 0u64;
    let mut mutations = 0u64;
    let mut rejected = 0u64;

    let violation = 'outer: loop {
        rounds += 1;
        // The previous batch's mutations must leave the region
        // invariants standing before anyone moves.
        if let Err(v) = oracle.verify_region(step) {
            break Some(v);
        }
        sweep.replan(&graph, oracle.field());
        for _ in 0..ROUND_LEN {
            if step >= max_steps {
                break 'outer Some(oracle.report(step, ViolationKind::StepLimit));
            }
            match sweep.step(&graph, &mut oracle, &mut adversary, step) {
                Ok(Progress::Done) => break 'outer None,
                Ok(Progress::Advanced) => step += 1,
                Err(v) => break 'outer Some(v),
            }
        }
        for _ in 0..MUTATIONS_PER_ROUND {
            let a = Node(churn.below(n as u64) as u32);
            let b = Node(churn.below(n as u64) as u32);
            let insert = churn.next_u64() & 1 == 0;
            if try_mutate(&graph, &mut oracle, homebase, a, b, insert) {
                mutations += 1;
                after_mutation(&graph, &mut oracle);
            } else {
                rejected += 1;
            }
        }
    };
    *scratch = oracle.into_scratch();

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
    use hypersweep_intruder::ContaminationField;
    use hypersweep_sim::{Event, EventKind, Role};
    use hypersweep_testutil::{move_event, oracles, spawn_event};
    use hypersweep_topology::GridInstance;

    fn base(side: u32, instance: GridInstance) -> AdjGraph {
        AdjGraph::from_topology(&instance.build(side))
    }

    fn run(side: u32, instance: GridInstance, seed: u64, schedule: u64) -> ScheduleStats {
        let mut scratch = FieldScratch::default();
        let base = base(side, instance);
        run_dynamic(
            &base,
            Node(0),
            false,
            (seed, schedule),
            100_000,
            &mut scratch,
        )
    }

    /// A verifier on `graph` that has observed `events` from the homebase
    /// `0` without a violation.
    fn oracle_after<'a>(graph: &'a Churned, events: &[Event]) -> StepOracle<'a, Churned> {
        let mut oracle = StepOracle::new(graph, Node(0), 1);
        for (step, e) in (0..).zip(events) {
            oracle.observe(e, step).expect("a legal sweep");
        }
        oracle
    }

    /// Hold a patched `field` to the whole-field references of
    /// [`oracles`] on `topo`'s current adjacency: every node's
    /// safe-neighbour count and boundary test, the frontier (whose witness
    /// must be a clean node on the boundary), contiguity and the component
    /// count.
    fn assert_matches_oracles<T: Topology + ?Sized>(
        topo: &T,
        field: &mut ContaminationField<'_, T>,
        at: &str,
    ) {
        let counts = oracles::safe_neighbour_scan(topo, field);
        for (x, &(safe, degree)) in (0..).map(Node).zip(&counts) {
            assert_eq!(
                field.safe_neighbours(x),
                safe,
                "{at}: safe neighbours of {x:?}"
            );
            assert_eq!(
                field.borders_contamination(x),
                safe < degree,
                "{at}: boundary test of {x:?}"
            );
        }
        let frontier = field.unguarded_frontier();
        assert_eq!(
            frontier.is_some(),
            oracles::unguarded_frontier_scan(topo, field).is_some(),
            "{at}: frontier scan"
        );
        if let Some(x) = frontier {
            let (safe, degree) = counts[x.index()];
            assert!(
                field.is_clean(x) && safe < degree,
                "{at}: frontier witness {x:?}"
            );
        }
        assert_eq!(
            field.is_contiguous(),
            oracles::is_contiguous_bfs(topo, field),
            "{at}: contiguity BFS"
        );
        assert_eq!(
            field.clean_components(),
            oracles::clean_components_bfs(topo, field),
            "{at}: components"
        );
    }

    #[test]
    fn dynamic_schedules_stay_quiet_and_churn_happens() {
        let mut total_mutations = 0;
        for schedule in 0..40 {
            let stats = run(6, GridInstance::Full, 0, schedule);
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
            let a = run(5, GridInstance::Holes(42), 7, schedule);
            let b = run(5, GridInstance::Holes(42), 7, schedule);
            assert_eq!(a.decisions, b.decisions);
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.mutations, b.mutations);
            assert_eq!(a.rejected, b.rejected);
            assert_eq!(a.team, b.team);
        }
    }

    #[test]
    fn insert_into_unguarded_clean_region_is_rejected() {
        let graph = Churned(RefCell::new(base(3, GridInstance::Full)));
        // Node 0 clean and unguarded behind guards on its neighbours 1 and
        // 3, node 8 contaminated.
        let sweep = [
            spawn_event(0),
            spawn_event(1),
            move_event(1, 0, 1),
            move_event(0, 0, 3),
        ];
        let mut oracle = oracle_after(&graph, &sweep);
        assert!(oracle.field().is_clean(Node(0)));
        assert!(!try_mutate(
            &graph,
            &mut oracle,
            Node(0),
            Node(8),
            Node(0),
            true
        ));
        // Same insert with a guard standing on node 0 is fair game, and
        // the patched field sees node 0 border the new contaminated
        // neighbour.
        let mut oracle = oracle_after(&graph, &[spawn_event(0)]);
        assert_eq!(oracle.field().safe_neighbours(Node(8)), 0);
        assert!(try_mutate(
            &graph,
            &mut oracle,
            Node(0),
            Node(8),
            Node(0),
            true
        ));
        assert!(graph.0.borrow().has_edge(Node(8), Node(0)));
        assert_eq!(oracle.field().safe_neighbours(Node(8)), 1);
        assert_matches_oracles(&graph, oracle.field_for_tests(), "after the insert");
    }

    #[test]
    fn disconnecting_deletions_are_rejected() {
        // A 1x3 path: removing any edge disconnects the graph.
        let grid = GridInstance::Full.build(1);
        assert_eq!(grid.node_count(), 1);
        let graph = Churned(RefCell::new(AdjGraph::from_edges(3, &[(0, 1), (1, 2)])));
        let mut oracle = oracle_after(&graph, &[]);
        assert!(!try_mutate(
            &graph,
            &mut oracle,
            Node(0),
            Node(0),
            Node(1),
            false
        ));
        assert!(
            graph.0.borrow().has_edge(Node(0), Node(1)),
            "rejected delete must be undone"
        );
        // A 4-cycle with {0, 1} clean: cutting 0-1 splits the clean region.
        let graph = Churned(RefCell::new(AdjGraph::from_edges(
            4,
            &[(0, 1), (1, 2), (2, 3), (3, 0)],
        )));
        let sweep = [spawn_event(0), spawn_event(1), move_event(1, 0, 1)];
        let mut oracle = oracle_after(&graph, &sweep);
        assert!(!try_mutate(
            &graph,
            &mut oracle,
            Node(0),
            Node(0),
            Node(1),
            false
        ));
        assert!(try_mutate(
            &graph,
            &mut oracle,
            Node(0),
            Node(2),
            Node(3),
            false
        ));
        assert_matches_oracles(&graph, oracle.field_for_tests(), "after the delete");
    }

    /// The edge hooks against the whole-field rebuild of every answer in
    /// [`oracles`], on the churn real schedules make: after every accepted
    /// mutation of seeded schedules at sides 4–8, on full and random-hole
    /// grids.
    #[test]
    fn patched_field_matches_the_rebuild_after_every_accepted_mutation() {
        let mut checked = 0;
        for side in 4..=8 {
            for instance in [GridInstance::Full, GridInstance::Holes(u64::from(side))] {
                let base = base(side, instance);
                for schedule in 0..5 {
                    let mut scratch = FieldScratch::default();
                    let stats = run_dynamic_observed(
                        &base,
                        Node(0),
                        false,
                        (u64::from(side), schedule),
                        100_000,
                        &mut scratch,
                        |graph, oracle| {
                            checked += 1;
                            let at = format!("side {side} {instance} schedule {schedule}");
                            assert_matches_oracles(graph, oracle.field_for_tests(), &at);
                        },
                    );
                    assert!(stats.violation.is_none(), "{:?}", stats.violation);
                }
            }
        }
        assert!(checked > 500, "only {checked} mutations were checked");
    }

    /// The edge hooks against the whole-field rebuild of every answer in
    /// [`oracles`] under churn `try_mutate` would reject — inserts next to
    /// unguarded clean nodes, deletions that split the clean region or the
    /// graph — interleaved with random agent moves and the recontamination
    /// they cause, checked after every change.
    #[test]
    fn patched_field_matches_the_rebuild_under_unvalidated_churn() {
        let mut rng = SplitMix64::new(0x0ED6_E5C4_A7B1);
        for side in 3..=6 {
            for _ in 0..6 {
                let graph = Churned(RefCell::new(base(
                    side,
                    GridInstance::Holes(rng.next_u64()),
                )));
                let n = graph.node_count() as u64;
                let mut field = ContaminationField::new(&graph, Node(0));
                let mut positions: Vec<Node> = Vec::new();
                let mut nbrs = Vec::new();
                for i in 0..150u64 {
                    let (a, b) = (Node(rng.below(n) as u32), Node(rng.below(n) as u32));
                    let kind = match rng.below(5) {
                        0 => EventKind::Spawn {
                            agent: positions.len() as u32,
                            node: if rng.below(4) == 0 { a } else { Node(0) },
                            role: Role::Worker,
                        },
                        1 | 2 if !positions.is_empty() => {
                            let agent = rng.below(positions.len() as u64) as usize;
                            let from = positions[agent];
                            graph.neighbors_into(from, &mut nbrs);
                            let Some(&to) = nbrs.get(rng.below(4) as usize % nbrs.len().max(1))
                            else {
                                continue;
                            };
                            EventKind::Move {
                                agent: agent as u32,
                                from,
                                to,
                                role: Role::Worker,
                            }
                        }
                        _ if a != b => {
                            let mut g = graph.0.borrow_mut();
                            if g.has_edge(a, b) {
                                g.remove_edge(a, b);
                                drop(g);
                                field.edge_removed(a, b);
                            } else {
                                g.add_edge(a, b);
                                drop(g);
                                field.edge_inserted(a, b);
                            }
                            assert_matches_oracles(&graph, &mut field, &format!("change {i}"));
                            continue;
                        }
                        _ => continue,
                    };
                    match kind {
                        EventKind::Spawn { node, .. } => positions.push(node),
                        EventKind::Move { agent, to, .. } => positions[agent as usize] = to,
                        _ => unreachable!(),
                    }
                    field.apply(&Event { time: i, kind });
                    assert_matches_oracles(&graph, &mut field, &format!("event {i}"));
                }
            }
        }
    }
}
