//! Differential property tests for the incremental clean-region
//! connectivity kernel: on randomized event streams over five fabrics
//! (hypercube, ring, torus, cube-connected cycles, de Bruijn), the
//! incrementally maintained oracles must agree with the whole-field
//! references of [`oracles`] after *every* event —
//!
//! * [`ContaminationField::is_contiguous`] (union-find components, dirty
//!   rebuilds) vs. [`oracles::is_contiguous_bfs`] (the pre-incremental
//!   whole-field BFS);
//! * [`ContaminationField::unguarded_frontier`] (maintained frontier set)
//!   vs. [`oracles::unguarded_frontier_scan`] (the pre-incremental
//!   expand-and-mask scan);
//! * [`ContaminationField::clean_components`] vs. a component count
//!   re-derived in this test from the contamination bitset by independent
//!   BFS;
//! * [`ContaminationField::safe_neighbours`] and
//!   [`ContaminationField::borders_contamination`] of every node vs. a scan
//!   of its adjacency.
//!
//! The traces deliberately include island spawns (split safe regions that
//! later merge) and vacate-triggered recontamination cascades (deletions,
//! which dirty the forest and exercise the rebuild path), next to the
//! cleanings of the one safe component that take the forest's fast path.
//! Every strategy's synthesized trace at `H_1..H_10` goes through the
//! contiguity and frontier comparisons too.

use std::collections::VecDeque;

use hypersweep_analysis::StrategyKind;
use hypersweep_intruder::ContaminationField;
use hypersweep_sim::{Event, EventKind, Role};
use hypersweep_testutil::{move_event, oracles, spawn_event};
use hypersweep_topology::graph::{AdjGraph, CubeConnectedCycles, DeBruijn, Ring, Torus};
use hypersweep_topology::rng::SplitMix64;
use hypersweep_topology::{GridInstance, Hypercube, Node, NodeSet, Topology};

use proptest::prelude::*;

/// Decode random draws into a well-formed trace on any fabric: draw 0
/// spawns a new agent (at the homebase, or — with low probability —
/// anywhere, to force split safe regions), other draws move an existing
/// agent to a random neighbour.
fn decode_trace<T: Topology + ?Sized>(topo: &T, draws: &[u64]) -> Vec<Event> {
    let n = topo.node_count();
    let mut positions: Vec<Node> = Vec::new();
    let mut events = Vec::new();
    for (i, &draw) in draws.iter().enumerate() {
        let time = i as u64;
        let spawn = positions.is_empty() || draw % 5 == 0;
        if spawn {
            let node = if draw % 11 == 0 {
                Node((draw / 16) as u32 % n as u32) // an island spawn
            } else {
                Node(0)
            };
            events.push(Event {
                time,
                kind: EventKind::Spawn {
                    agent: positions.len() as u32,
                    node,
                    role: Role::Worker,
                },
            });
            positions.push(node);
        } else {
            let a = (draw / 8) as usize % positions.len();
            let from = positions[a];
            let nbrs = topo.neighbors_vec(from);
            let to = nbrs[(draw / 64) as usize % nbrs.len()];
            events.push(Event {
                time,
                kind: EventKind::Move {
                    agent: a as u32,
                    from,
                    to,
                    role: Role::Worker,
                },
            });
            positions[a] = to;
        }
    }
    events
}

/// Independent component count of the safe region: BFS floods over the
/// complement of the contamination bitset, written against the `Topology`
/// trait with none of the field's machinery.
fn reference_components<T: Topology + ?Sized>(topo: &T, contaminated: &NodeSet) -> usize {
    let n = topo.node_count();
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    let mut components = 0;
    for i in 0..n as u32 {
        let seed = Node(i);
        if contaminated.contains(seed) || seen[seed.index()] {
            continue;
        }
        components += 1;
        seen[seed.index()] = true;
        queue.push_back(seed);
        while let Some(x) = queue.pop_front() {
            for y in topo.neighbors_vec(x) {
                if !contaminated.contains(y) && !seen[y.index()] {
                    seen[y.index()] = true;
                    queue.push_back(y);
                }
            }
        }
    }
    components
}

/// How the cleanings and deletions of a replayed trace met the forest.
#[derive(Default)]
struct Paths {
    /// Cleanings next to the one safe component: the adopt fast path.
    one_component: usize,
    /// Cleanings with a safe neighbour while the region was split or
    /// empty: the union loop.
    unions: usize,
    /// Events after which a dirty forest was rebuilt.
    rebuilds: usize,
}

/// Replay `draws` on `topo` and hold the incremental oracles equal to the
/// retained references after every single event.
fn assert_incremental_matches_reference<T: Topology + ?Sized>(topo: &T, draws: &[u64]) -> Paths {
    replay(topo, draws, 1)
}

/// Replay `draws` on `topo`, query the field after every `every`-th event
/// and the last, and hold each answer to its reference. Between sparse
/// queries a recontamination leaves the forest dirty, so cleanings meet a
/// dirty forest too. The returned counts assume `every == 1`.
fn replay<T: Topology + ?Sized>(topo: &T, draws: &[u64], every: usize) -> Paths {
    let events = decode_trace(topo, draws);
    let mut field = ContaminationField::new(topo, Node(0));
    let mut paths = Paths::default();
    let mut components = 0;
    let mut nbrs = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let before = field.contaminated_set().clone();
        field.apply(event);
        let after = field.contaminated_set();
        for x in before.iter().filter(|&x| !after.contains(x)) {
            topo.neighbors_into(x, &mut nbrs);
            if nbrs.iter().any(|&y| !before.contains(y)) {
                if components == 1 {
                    paths.one_component += 1;
                } else {
                    paths.unions += 1;
                }
            }
        }
        let deleted = after.iter().any(|x| !before.contains(x));
        paths.rebuilds += usize::from(deleted && after.count_ones() < topo.node_count());
        if (i + 1) % every != 0 && i + 1 != events.len() {
            continue;
        }
        for x in (0..topo.node_count() as u32).map(Node) {
            topo.neighbors_into(x, &mut nbrs);
            let safe = nbrs.iter().filter(|&&y| !after.contains(y)).count();
            assert_eq!(
                field.safe_neighbours(x) as usize,
                safe,
                "event {i}: safe neighbours of {x:?}"
            );
            assert_eq!(
                field.borders_contamination(x),
                safe < nbrs.len(),
                "event {i}: boundary test of {x:?}"
            );
        }
        let incremental = field.is_contiguous();
        let reference = oracles::is_contiguous_bfs(topo, &field);
        assert_eq!(
            incremental, reference,
            "event {i}: contiguity verdicts diverged (incremental {incremental}, BFS {reference})"
        );
        assert_eq!(
            field.unguarded_frontier().is_some(),
            oracles::unguarded_frontier_scan(topo, &field).is_some(),
            "event {i}: frontier oracles diverged"
        );
        components = field.clean_components();
        let expected = reference_components(topo, field.contaminated_set());
        assert_eq!(
            components, expected,
            "event {i}: component count diverged (incremental {components}, reference {expected})"
        );
    }
    paths
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hypercube_incremental_matches_reference(
        d in 1u32..=6,
        draws in collection::vec(0u64..u64::MAX, 1..120usize),
    ) {
        assert_incremental_matches_reference(&Hypercube::new(d), &draws);
    }

    #[test]
    fn ring_incremental_matches_reference(
        n in 3usize..=24,
        draws in collection::vec(0u64..u64::MAX, 1..100usize),
    ) {
        assert_incremental_matches_reference(&Ring::new(n), &draws);
    }

    #[test]
    fn torus_incremental_matches_reference(
        rows in 3usize..=6,
        cols in 3usize..=6,
        draws in collection::vec(0u64..u64::MAX, 1..100usize),
    ) {
        assert_incremental_matches_reference(&Torus::new(rows, cols), &draws);
    }

    #[test]
    fn cube_connected_cycles_incremental_matches_reference(
        d in 3u32..=4,
        draws in collection::vec(0u64..u64::MAX, 1..100usize),
    ) {
        assert_incremental_matches_reference(&CubeConnectedCycles::new(d), &draws);
    }

    #[test]
    fn de_bruijn_incremental_matches_reference(
        k in 2u32..=5,
        draws in collection::vec(0u64..u64::MAX, 1..100usize),
    ) {
        assert_incremental_matches_reference(&DeBruijn::new(k), &draws);
    }

    /// Partial grids of every instance family: adjacency is symmetric,
    /// duplicate-free, sorted, degree-bounded by 4, and every edge joins
    /// two live cells at Manhattan distance exactly 1.
    #[test]
    fn partial_grid_neighbors_are_symmetric_and_degree_bounded(
        side in 1u32..=10,
        seed in 0u64..u64::MAX,
        kind in 0u8..3,
    ) {
        let instance = match kind {
            0 => GridInstance::Full,
            1 => GridInstance::Holes(seed),
            _ => GridInstance::Corridor,
        };
        let grid = instance.build(side);
        prop_assert_eq!(grid.homebase(), Node(0));
        prop_assert_eq!(grid.cell_of(Node(0)), (0, 0));
        let mut nbrs = Vec::new();
        for i in 0..grid.node_count() as u32 {
            let x = Node(i);
            grid.neighbors_into(x, &mut nbrs);
            prop_assert!(nbrs.len() <= 4, "node {i} has degree {}", nbrs.len());
            prop_assert_eq!(nbrs.len(), grid.degree(x));
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "node {i}: unsorted or duplicated adjacency");
            let (r, c) = grid.cell_of(x);
            for &y in &nbrs {
                prop_assert!(y.index() < grid.node_count());
                let (yr, yc) = grid.cell_of(y);
                let dist = r.abs_diff(yr) + c.abs_diff(yc);
                prop_assert_eq!(dist, 1, "edge {x:?}-{y:?} spans cells ({r},{c})-({yr},{yc})");
                prop_assert!(grid.neighbors_vec(y).contains(&x), "edge {x:?}-{y:?} is not symmetric");
            }
        }
    }

    /// The incremental connectivity kernel against the whole-field BFS
    /// references on random-hole partial grids.
    #[test]
    fn random_hole_grid_incremental_matches_reference(
        side in 2u32..=8,
        seed in 0u64..u64::MAX,
        draws in collection::vec(0u64..u64::MAX, 1..100usize),
    ) {
        assert_incremental_matches_reference(&GridInstance::Holes(seed).build(side), &draws);
    }

    /// The incremental kernel on *mutated* graphs: start from a
    /// random-hole grid, churn edges the way the dynamic scenario does
    /// (inserts plus connectivity-preserving deletions), then replay a
    /// random trace and hold the oracles to the references.
    #[test]
    fn mutated_graph_incremental_matches_reference(
        side in 2u32..=7,
        seed in 0u64..u64::MAX,
        churn in collection::vec(0u64..u64::MAX, 0..40usize),
        draws in collection::vec(0u64..u64::MAX, 1..100usize),
    ) {
        let mut graph = AdjGraph::from_topology(&GridInstance::Holes(seed).build(side));
        let n = graph.node_count() as u64;
        for &m in &churn {
            let a = Node((m % n) as u32);
            let b = Node(((m / 7) % n) as u32);
            if a == b {
                continue;
            }
            if m % 3 == 0 {
                graph.add_edge(a, b);
            } else if graph.remove_edge(a, b) && !graph.is_connected() {
                graph.add_edge(a, b); // keep the trace decoder total
            }
        }
        assert_incremental_matches_reference(&graph, &draws);
    }
}

/// Deterministic split/merge torture around the homebase on `H_4`: grow
/// islands at mutually distant corners, watch components rise, then stitch
/// them together over the homebase and watch contiguity restore — with a
/// recontamination cascade (forest rebuild) in the middle.
#[test]
fn split_merge_islands_on_the_hypercube() {
    let h = Hypercube::new(4);
    let mut f = ContaminationField::new(&h, Node::ROOT);
    let spawn = |agent: u32, node: u32| Event {
        time: 0,
        kind: EventKind::Spawn {
            agent,
            node: Node(node),
            role: Role::Worker,
        },
    };
    let mv = |agent: u32, from: u32, to: u32| Event {
        time: 0,
        kind: EventKind::Move {
            agent,
            from: Node(from),
            to: Node(to),
            role: Role::Worker,
        },
    };

    // Three islands: homebase, and two corners at pairwise distance ≥ 2.
    f.apply(&spawn(0, 0b0000));
    f.apply(&spawn(1, 0b1111));
    f.apply(&spawn(2, 0b0110));
    assert_eq!(f.clean_components(), 3);
    assert!(!f.is_contiguous());
    assert_eq!(f.is_contiguous(), oracles::is_contiguous_bfs(&h, &f));

    // Merge island 2 into the homebase island: 0110 → 0100 lands adjacent
    // to nothing safe (0110 is vacated and recontaminated — a deletion),
    // then 0100 → 0000 merges with the homebase... but 0100 is then
    // vacated next to contamination and caught too. Every step must agree
    // with the reference.
    f.apply(&mv(2, 0b0110, 0b0100));
    assert_eq!(
        f.clean_components(),
        reference_components(&h, f.contaminated_set())
    );
    assert_eq!(f.is_contiguous(), oracles::is_contiguous_bfs(&h, &f));
    assert!(
        !f.recontaminations().is_empty(),
        "0110 was vacated unguarded"
    );

    // Bridge the far island toward the homebase along one geodesic.
    f.apply(&spawn(3, 0b0000));
    f.apply(&mv(3, 0b0000, 0b0001));
    f.apply(&mv(3, 0b0001, 0b0011));
    f.apply(&mv(3, 0b0011, 0b0111));
    assert_eq!(
        f.clean_components(),
        reference_components(&h, f.contaminated_set())
    );
    assert_eq!(f.is_contiguous(), oracles::is_contiguous_bfs(&h, &f));
    assert_eq!(
        f.unguarded_frontier().is_some(),
        oracles::unguarded_frontier_scan(&h, &f).is_some()
    );
}

/// Seeded streams on `H_1..H_7` drive every insertion path of the forest
/// (a cleaning next to the one safe component, which adopts the node under
/// the component's root, and the union loop for islands and merges) and
/// its rebuild after a recontamination, with the field held to the
/// references after every event. Each stream is replayed again with a
/// query after every fourth event only, so that cleanings also meet a
/// forest left dirty.
#[test]
fn every_insertion_path_matches_the_references() {
    let mut rng = SplitMix64::new(0xA77A_C4ED);
    let mut total = Paths::default();
    for d in 1..=7 {
        let cube = Hypercube::new(d);
        for _ in 0..30 {
            let draws: Vec<u64> = (0..200).map(|_| rng.next_u64()).collect();
            replay(&cube, &draws, 4);
            let paths = assert_incremental_matches_reference(&cube, &draws);
            total.one_component += paths.one_component;
            total.unions += paths.unions;
            total.rebuilds += paths.rebuilds;
        }
    }
    let Paths {
        one_component,
        unions,
        rebuilds,
    } = total;
    assert!(
        one_component > 0 && unions > 0 && rebuilds > 0,
        "one component {one_component}, unions {unions}, rebuilds {rebuilds}"
    );
}

/// Every strategy's synthesized trace at `H_1..H_10`: after every event
/// the incremental contiguity and frontier answers equal the whole-field
/// references.
#[test]
fn synthesized_traces_match_the_whole_field_references() {
    for d in 1..=10 {
        let cube = Hypercube::new(d);
        for kind in StrategyKind::ALL {
            let mut events = Vec::new();
            kind.strategy(cube).synthesize_into(&mut events);
            let mut field = ContaminationField::new(&cube, Node::ROOT);
            for (i, event) in events.iter().enumerate() {
                field.apply(event);
                let what = format!("{} on H_{d}, event {i}", kind.label());
                let reference = oracles::is_contiguous_bfs(&cube, &field);
                assert_eq!(field.is_contiguous(), reference, "{what}");
                assert_eq!(
                    field.unguarded_frontier(),
                    oracles::unguarded_frontier_scan(&cube, &field),
                    "{what}"
                );
            }
            assert!(field.all_clean(), "{} on H_{d}", kind.label());
        }
    }
}

/// A guarded sweep of `H_3`: the maintained frontier and the scan agree
/// after every event.
#[test]
fn maintained_frontier_matches_the_scan() {
    let h = Hypercube::new(3);
    let mut f = ContaminationField::new(&h, Node::ROOT);
    let moves = [(1, 0, 1), (1, 1, 3), (1, 3, 2)].map(|(a, x, y)| move_event(a, x, y));
    for e in [spawn_event(0), spawn_event(1)].iter().chain(&moves) {
        f.apply(e);
        let scan = oracles::unguarded_frontier_scan(&h, &f);
        assert_eq!(f.unguarded_frontier().is_some(), scan.is_some());
    }
}

/// The trace of `contamination.rs`'s
/// `hypercube_cascade_floods_the_unguarded_region`: vacating 001 next to
/// contaminated 101 floods the clean chain 001–011–010 and dirties the
/// forest, and the rebuilt forest agrees with the BFS.
#[test]
fn hypercube_cascade_rebuild_matches_the_bfs() {
    let h = Hypercube::new(3);
    let mut f = ContaminationField::new(&h, Node::ROOT);
    (0..4).for_each(|a| f.apply(&spawn_event(a)));
    for (a, x, y) in [
        (1, 0, 1),
        (2, 0, 1),
        (2, 1, 3),
        (3, 0, 2),
        (0, 0, 4),
        (3, 2, 6),
        (2, 3, 7),
    ] {
        f.apply(&move_event(a, x, y));
    }
    f.apply(&move_event(1, 0b001, 0b000)); // vacates 001 next to contaminated 101
    assert_eq!(f.recontaminations().len(), 3);
    assert_eq!(f.is_contiguous(), oracles::is_contiguous_bfs(&h, &f));
}

/// The restored fields of `contamination.rs`'s
/// `with_state_keeps_interior_clean_nodes_off_the_frontier` pass the
/// frontier scan: path 0-1-2-3 swept to 2, and `H_2` with 00 and 11
/// guarding contaminated 10.
#[test]
fn restored_interior_clean_nodes_pass_the_frontier_scan() {
    let g = AdjGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
    let mut f = ContaminationField::new(&g, Node(0));
    for e in [
        spawn_event(0),
        spawn_event(1),
        move_event(1, 0, 1),
        move_event(1, 1, 2),
    ] {
        f.apply(&e);
    }
    let mut safe = NodeSet::new(4);
    for x in (0..4).map(Node).filter(|&x| !f.is_contaminated(x)) {
        safe.insert(x);
    }
    let restored = ContaminationField::with_state(&g, Node(0), &safe, f.occupancy());
    assert_eq!(oracles::unguarded_frontier_scan(&g, &restored), None);
    let h = Hypercube::new(2);
    let mut safe = NodeSet::new(4);
    for x in [0b00, 0b01, 0b11] {
        safe.insert(Node(x));
    }
    let restored = ContaminationField::with_state(&h, Node::ROOT, &safe, &[1, 0, 0, 1]);
    assert_eq!(oracles::unguarded_frontier_scan(&h, &restored), None);
}
