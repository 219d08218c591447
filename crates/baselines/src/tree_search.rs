//! Contiguous search on trees — the previously solved case (\[1\] in the
//! paper: Barrière, Flocchini, Fraigniaud, Santoro, *Capture of an intruder
//! by mobile agents*).
//!
//! On a tree the optimal contiguous monotone strategy from a fixed
//! homebase follows a simple recurrence: a leaf needs one agent; an
//! internal node whose children's subtrees need `n_1 ≥ n_2 ≥ …` agents
//! needs `max(n_1, n_2 + 1)` (clean the cheaper subtrees first, keeping a
//! guard on the node, and descend with everything into the most expensive
//! subtree last); with a single child no extra guard is needed.
//!
//! Two uses here:
//!
//! * **Baseline** ([`TreeSearchPlan`]): generate the optimal strategy for
//!   any tree, replay it through the monitors, and measure moves — the
//!   known-good reference for the search problem the paper generalizes.
//! * **Negative control** ([`chord_blind_trace`]): run the same plan on
//!   the hypercube's broadcast tree while the *world* is the full
//!   hypercube. The plan ignores the chords, and the monitors catch
//!   recontamination immediately — demonstrating why the paper's
//!   chord-aware sweep order (Lemma 1) is essential.

use hypersweep_sim::{Event, EventKind, Metrics, Role};
use hypersweep_topology::graph::AdjGraph;
use hypersweep_topology::{BroadcastTree, Hypercube, Node, Topology};

/// Agents needed for each subtree of `tree` rooted at `root`
/// (`need[v]` for the subtree hanging below `v`).
pub fn tree_search_numbers(tree: &AdjGraph, root: Node) -> Vec<u32> {
    let n = tree.node_count();
    let parent = tree.bfs_spanning_tree(root);
    // Children lists and a post-order.
    let mut children: Vec<Vec<Node>> = vec![Vec::new(); n];
    for i in 0..n as u32 {
        let v = Node(i);
        let p = parent[v.index()];
        if v != root {
            children[p.index()].push(v);
        }
    }
    let mut order: Vec<Node> = Vec::with_capacity(n);
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        order.push(v);
        stack.extend(children[v.index()].iter().copied());
    }
    let mut need = vec![1u32; n];
    for &v in order.iter().rev() {
        let ch = &children[v.index()];
        if ch.is_empty() {
            need[v.index()] = 1;
            continue;
        }
        let mut needs: Vec<u32> = ch.iter().map(|c| need[c.index()]).collect();
        needs.sort_unstable_by(|a, b| b.cmp(a));
        need[v.index()] = if needs.len() == 1 {
            needs[0]
        } else {
            needs[0].max(needs[1] + 1)
        };
    }
    need
}

/// The optimal team size for contiguously searching `tree` from `root`.
pub fn tree_search_number(tree: &AdjGraph, root: Node) -> u32 {
    tree_search_numbers(tree, root)[root.index()]
}

/// A generated optimal tree-search plan: the trace plus its metrics.
#[derive(Clone, Debug)]
pub struct TreeSearchPlan {
    /// Team size (= the tree search number).
    pub team: u32,
    /// Total moves.
    pub moves: u64,
    /// The full event trace (spawns, moves, terminations).
    pub events: Vec<Event>,
}

/// Generate the optimal contiguous strategy for `tree` from `root`.
///
/// All agents spawn at the root; subtrees are cleaned cheapest-first with a
/// guard held on the branching node, and the whole squad descends into the
/// most expensive subtree last. Every agent ends parked somewhere in the
/// tree (agents cannot leave the network).
pub fn tree_search_plan(tree: &AdjGraph, root: Node) -> TreeSearchPlan {
    let n = tree.node_count();
    let need = tree_search_numbers(tree, root);
    let team = need[root.index()];
    let parent = tree.bfs_spanning_tree(root);
    let mut children: Vec<Vec<Node>> = vec![Vec::new(); n];
    for i in 0..n as u32 {
        let v = Node(i);
        if v != root {
            children[parent[v.index()].index()].push(v);
        }
    }
    let mut events = Vec::new();
    for id in 0..team {
        events.push(Event {
            time: 0,
            kind: EventKind::Spawn {
                agent: id,
                node: root,
                role: Role::Worker,
            },
        });
    }
    let mut moves: u64 = 0;

    // Clean each non-last subtree with its required squad and walk
    // everyone back to v, then descend with the full squad into the last
    // (most expensive) subtree.
    fn clean(
        v: Node,
        squad: &mut Vec<u32>,
        is_final_descent: bool,
        children: &[Vec<Node>],
        need: &[u32],
        events: &mut Vec<Event>,
        moves: &mut u64,
    ) {
        let mut ch = children[v.index()].clone();
        if ch.is_empty() {
            if is_final_descent {
                // End of the line: everyone rests here.
                for &id in squad.iter() {
                    events.push(Event {
                        time: 0,
                        kind: EventKind::Terminate { agent: id, node: v },
                    });
                }
            }
            return;
        }
        ch.sort_by_key(|c| need[c.index()]);
        let last = *ch.last().expect("non-empty");
        for &c in ch.iter().take(ch.len() - 1) {
            let take = need[c.index()] as usize;
            debug_assert!(squad.len() > take, "a guard must remain on {v}");
            let mut sub: Vec<u32> = squad.split_off(squad.len() - take);
            move_group(&sub, v, c, events, moves);
            clean(c, &mut sub, false, children, need, events, moves);
            move_group(&sub, c, v, events, moves);
            squad.append(&mut sub);
        }
        // Final subtree: descend with the whole squad (the guard of v goes
        // along; v stays clean because all other neighbours are clean).
        let sub = squad.clone();
        move_group(&sub, v, last, events, moves);
        clean(last, squad, is_final_descent, children, need, events, moves);
        if !is_final_descent {
            // We must come back up to return to our caller.
            move_group(squad, last, v, events, moves);
        }
    }

    fn move_group(group: &[u32], from: Node, to: Node, events: &mut Vec<Event>, moves: &mut u64) {
        for &id in group {
            *moves += 1;
            events.push(Event {
                time: 0,
                kind: EventKind::Move {
                    agent: id,
                    from,
                    to,
                    role: Role::Worker,
                },
            });
        }
    }

    let mut squad: Vec<u32> = (0..team).collect();
    clean(
        root,
        &mut squad,
        true,
        &children,
        &need,
        &mut events,
        &mut moves,
    );

    TreeSearchPlan {
        team,
        moves,
        events,
    }
}

/// Replay the optimal plan for the hypercube's broadcast tree while the
/// *actual* graph is the hypercube — the chord-blind negative control.
/// Returns the trace; auditing it against the hypercube shows
/// recontamination (the plan is only correct on the tree itself).
pub fn chord_blind_trace(cube: Hypercube) -> Vec<Event> {
    let tree = BroadcastTree::new(cube);
    let mut g = AdjGraph::with_nodes(cube.node_count());
    for x in cube.nodes() {
        for c in tree.children(x) {
            g.add_edge(x, c);
        }
    }
    tree_search_plan(&g, Node::ROOT).events
}

/// Convenience: metrics for a plan (for comparison tables).
pub fn plan_metrics(plan: &TreeSearchPlan) -> Metrics {
    Metrics {
        worker_moves: plan.moves,
        coordinator_moves: 0,
        team_size: u64::from(plan.team),
        peak_away: u64::from(plan.team),
        ideal_time: None,
        activations: plan.moves,
        peak_board_bits: 0,
        peak_local_bits: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersweep_intruder::{verify_trace, MonitorConfig};
    use hypersweep_topology::graph::{Path, Star};

    #[test]
    fn path_needs_two_agents_from_an_end() {
        // From an endpoint, a path is cleaned by a walker plus nothing —
        // wait: a single agent moving right vacates nodes whose right
        // neighbour is contaminated. The recurrence: every internal node
        // has one child → need = 1. And indeed one agent suffices: when it
        // leaves v, v's only contaminated-side neighbour is the one it just
        // guarded. Check via the monitors.
        let g = AdjGraph::from_topology(&Path::new(6));
        assert_eq!(tree_search_number(&g, Node(0)), 1);
        let plan = tree_search_plan(&g, Node(0));
        let verdict = verify_trace(&g, Node(0), &plan.events, MonitorConfig::default());
        assert!(verdict.is_complete(), "{:?}", verdict.violations);
        assert_eq!(plan.moves, 5);
    }

    #[test]
    fn star_needs_two_agents_from_the_center() {
        let g = AdjGraph::from_topology(&Star::new(8));
        assert_eq!(tree_search_number(&g, Node(0)), 2);
        let plan = tree_search_plan(&g, Node(0));
        let verdict = verify_trace(&g, Node(0), &plan.events, MonitorConfig::default());
        assert!(verdict.is_complete(), "{:?}", verdict.violations);
    }

    #[test]
    fn complete_binary_tree_search_number_grows_logarithmically() {
        // A complete binary tree of height h needs h+1 agents from the
        // root (recurrence: f(h) = f(h−1) + 1 with two equal children).
        for h in 1..=6u32 {
            let levels = h + 1;
            let n = (1usize << levels) - 1;
            let mut g = AdjGraph::with_nodes(n);
            for i in 1..n as u32 {
                g.add_edge(Node(i), Node((i - 1) / 2));
            }
            assert_eq!(tree_search_number(&g, Node(0)), h + 1, "height {h}");
            let plan = tree_search_plan(&g, Node(0));
            let verdict = verify_trace(&g, Node(0), &plan.events, MonitorConfig::default());
            assert!(verdict.is_complete(), "h={h}: {:?}", verdict.violations);
        }
    }

    #[test]
    fn broadcast_tree_of_hd_needs_d_over_2_plus_1_agents() {
        // The binomial tree B_d: needs(B_k) = max over its sub-binomial
        // trees; the recurrence yields ⌈d/2⌉ + 1 for d ≥ 2. Check the
        // implementation against the plan's own audit on the tree world.
        for d in 2..=9u32 {
            let cube = Hypercube::new(d);
            let tree = BroadcastTree::new(cube);
            let mut g = AdjGraph::with_nodes(cube.node_count());
            for x in cube.nodes() {
                for c in tree.children(x) {
                    g.add_edge(x, c);
                }
            }
            let number = tree_search_number(&g, Node::ROOT);
            assert_eq!(number, d / 2 + 1, "B_{d}");
            let plan = tree_search_plan(&g, Node::ROOT);
            let verdict = verify_trace(&g, Node::ROOT, &plan.events, MonitorConfig::default());
            assert!(verdict.is_complete(), "d={d}: {:?}", verdict.violations);
        }
    }

    #[test]
    fn chord_blind_plan_recontaminates_the_hypercube() {
        // The same trace is perfect on the tree but catastrophically wrong
        // on the hypercube: the monitors must flag recontamination.
        for d in 3..=6 {
            let cube = Hypercube::new(d);
            let trace = chord_blind_trace(cube);
            let verdict = verify_trace(&cube, Node::ROOT, &trace, MonitorConfig::default());
            assert!(
                !verdict.monotone,
                "d={d}: chord-blind plan must recontaminate"
            );
        }
    }

    #[test]
    fn plans_use_exactly_the_computed_team() {
        let g = AdjGraph::from_topology(&Star::new(12));
        let plan = tree_search_plan(&g, Node(3)); // homebase at a leaf
        let verdict = verify_trace(&g, Node(3), &plan.events, MonitorConfig::default());
        assert!(verdict.is_complete(), "{:?}", verdict.violations);
        assert_eq!(u64::from(plan.team), plan_metrics(&plan).team_size);
    }
}
