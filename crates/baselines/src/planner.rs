//! A generic planner for contiguous monotone search on arbitrary graphs.
//!
//! The paper's strategies are hand-crafted for the hypercube; this module
//! provides the natural general-purpose alternative: grow the
//! decontaminated set `S` from the homebase one node at a time, greedily
//! picking the expansion that minimizes the next inner boundary `|∂(S∪{u})|`
//! (a bottleneck-greedy heuristic for the exact optimum computed by
//! [`crate::bounds::boundary_optimum`] on small graphs). The plan layer
//! then realizes the growth order with actual agents:
//!
//! * every node of `S` adjacent to contaminated territory keeps a guard;
//! * an expansion to `u` is served by **sliding** an adjacent guard that
//!   the expansion itself releases, else by routing a **free** agent (an
//!   ex-guard with no contaminated neighbours) through `S`, else by hiring
//!   a new agent at the homebase;
//! * all movement stays inside the decontaminated region, so the plan is
//!   contiguous and monotone by construction — and every plan is audited
//!   by the monitors in the tests anyway.
//!
//! The planner is a *baseline*, not a contribution of the paper: the
//! experiments use it to ask how far generic greed lands from Algorithm
//! CLEAN's tailored team on the hypercube, and from the exact optimum on
//! small graphs.

use std::collections::VecDeque;

use hypersweep_sim::{Event, EventKind, Role};
use hypersweep_topology::{Node, Topology};

/// A generated generic plan.
#[derive(Clone, Debug)]
pub struct GreedyPlan {
    /// Agents hired.
    pub team: u32,
    /// Total moves.
    pub moves: u64,
    /// The audited-ready trace.
    pub events: Vec<Event>,
    /// The growth order (after the homebase).
    pub order: Vec<Node>,
    /// Peak inner boundary along the growth (= guards needed, ignoring the
    /// routing agent).
    pub peak_boundary: u32,
}

struct PlanState<'a, T: Topology + ?Sized> {
    topo: &'a T,
    in_s: Vec<bool>,
    /// Number of contaminated neighbours per node.
    dirty_neighbors: Vec<u32>,
    /// Guard agent id per node (guards sit on boundary nodes).
    guard: Vec<Option<u32>>,
    /// Free agents: (id, position); position is inside `S`.
    free: Vec<(u32, Node)>,
    events: Vec<Event>,
    moves: u64,
    team: u32,
    homebase: Node,
}

impl<'a, T: Topology + ?Sized> PlanState<'a, T> {
    fn spawn(&mut self) -> u32 {
        let id = self.team;
        self.team += 1;
        self.events.push(Event {
            time: 0,
            kind: EventKind::Spawn {
                agent: id,
                node: self.homebase,
                role: Role::Worker,
            },
        });
        id
    }

    fn mv(&mut self, agent: u32, from: Node, to: Node) {
        self.moves += 1;
        self.events.push(Event {
            time: 0,
            kind: EventKind::Move {
                agent,
                from,
                to,
                role: Role::Worker,
            },
        });
    }

    /// BFS path inside `S` from `from` to `to` (`to` may be outside `S` if
    /// adjacent to it). Panics if unreachable — `S` is connected by
    /// construction.
    fn route(&self, from: Node, to: Node) -> Vec<Node> {
        if from == to {
            return Vec::new();
        }
        let n = self.topo.node_count();
        let mut prev = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        prev[from.index()] = from.0;
        queue.push_back(from);
        let mut nbrs = Vec::new();
        'bfs: while let Some(x) = queue.pop_front() {
            self.topo.neighbors_into(x, &mut nbrs);
            for &y in &nbrs {
                if prev[y.index()] != u32::MAX {
                    continue;
                }
                if y == to {
                    prev[y.index()] = x.0;
                    break 'bfs;
                }
                if self.in_s[y.index()] {
                    prev[y.index()] = x.0;
                    queue.push_back(y);
                }
            }
        }
        assert_ne!(prev[to.index()], u32::MAX, "target unreachable inside S");
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = Node(prev[cur.index()]);
            path.push(cur);
        }
        path.pop(); // drop `from`
        path.reverse();
        path
    }

    /// Walk `agent` from `from` along `path` (already computed).
    fn walk(&mut self, agent: u32, from: Node, path: &[Node]) {
        let mut pos = from;
        for &hop in path {
            self.mv(agent, pos, hop);
            pos = hop;
        }
    }

    /// After `u` joined `S`, demote guards with no contaminated neighbours
    /// to free agents.
    fn release_guards_around(&mut self, u: Node) {
        let mut nbrs = Vec::new();
        self.topo.neighbors_into(u, &mut nbrs);
        let mut candidates = nbrs.clone();
        candidates.push(u);
        for v in candidates {
            if self.dirty_neighbors[v.index()] == 0 {
                if let Some(id) = self.guard[v.index()].take() {
                    self.free.push((id, v));
                }
            }
        }
    }
}

/// Plan a contiguous monotone search of `topo` from `homebase` using
/// bottleneck-greedy growth.
///
/// ```
/// use hypersweep_baselines::greedy_plan;
/// use hypersweep_topology::{graph::Ring, Node};
///
/// let plan = greedy_plan(&Ring::new(12), Node(0));
/// assert_eq!(plan.team, 2);         // two walkers meet halfway
/// assert_eq!(plan.moves, 11);       // one slide per remaining node
/// assert_eq!(plan.peak_boundary, 2);
/// ```
pub fn greedy_plan<T: Topology + ?Sized>(topo: &T, homebase: Node) -> GreedyPlan {
    let n = topo.node_count();
    let mut st = PlanState {
        topo,
        in_s: vec![false; n],
        dirty_neighbors: vec![0; n],
        guard: vec![None; n],
        free: Vec::new(),
        events: Vec::new(),
        moves: 0,
        team: 0,
        homebase,
    };
    let mut nbrs = Vec::new();
    for i in 0..n as u32 {
        st.dirty_neighbors[i as usize] = topo.degree(Node(i)) as u32;
    }

    // Seed: one agent guards the homebase.
    let first = st.spawn();
    st.in_s[homebase.index()] = true;
    topo.neighbors_into(homebase, &mut nbrs);
    for &y in &nbrs.clone() {
        st.dirty_neighbors[y.index()] -= 1;
    }
    if st.dirty_neighbors[homebase.index()] > 0 {
        st.guard[homebase.index()] = Some(first);
    } else {
        st.free.push((first, homebase));
    }

    let mut order = Vec::with_capacity(n - 1);
    let mut peak_boundary: u32 = 0;
    let mut boundary_now: u32 = u32::from(st.dirty_neighbors[homebase.index()] > 0);
    peak_boundary = peak_boundary.max(boundary_now);
    let mut frontier: Vec<Node> = {
        topo.neighbors_into(homebase, &mut nbrs);
        let mut f: Vec<Node> = nbrs.clone();
        f.sort();
        f.dedup();
        f
    };

    loop {
        if frontier.is_empty() {
            // Every node reachable from the homebase has been searched
            // (equals all nodes on connected graphs; the live component on
            // induced subgraphs).
            break;
        }
        // Pick the frontier node whose addition minimizes the next inner
        // boundary; ties to the smallest id for determinism.
        let mut best: Option<(u32, Node)> = None;
        for &u in &frontier {
            if st.in_s[u.index()] {
                continue;
            }
            // Boundary after adding u = current boundary
            //   − guards released among u's neighbours and u itself
            //   + (1 if u still has contaminated neighbours)
            //   (a neighbour v of u leaves the boundary iff u was its last
            //   contaminated neighbour).
            let mut after = boundary_now;
            topo.neighbors_into(u, &mut nbrs);
            for &v in &nbrs {
                if st.in_s[v.index()]
                    && st.dirty_neighbors[v.index()] == 1
                    && st.guard[v.index()].is_some()
                {
                    after -= 1;
                }
            }
            if st.dirty_neighbors[u.index()] > u32::from(false) {
                // u's own contaminated neighbours, after it joins S,
                // equal dirty_neighbors[u] (its S-neighbours are not
                // contaminated); u joins the boundary if any remain.
                if st.dirty_neighbors[u.index()] > 0 {
                    after += 1;
                }
            }
            match best {
                None => best = Some((after, u)),
                Some((b, bn)) => {
                    if after < b || (after == b && u < bn) {
                        best = Some((after, u));
                    } else {
                        best = Some((b, bn));
                    }
                }
            }
        }
        let (_, u) = best.expect("connected graph keeps a frontier");

        // Serve the expansion: slide > free > hire.
        topo.neighbors_into(u, &mut nbrs);
        let slide_from = nbrs
            .iter()
            .copied()
            .filter(|&v| {
                st.in_s[v.index()]
                    && st.guard[v.index()].is_some()
                    && st.dirty_neighbors[v.index()] == 1
            })
            .min();
        let (agent, arrived_from) = if let Some(v) = slide_from {
            let id = st.guard[v.index()].take().expect("guard present");
            st.mv(id, v, u);
            (id, v)
        } else if !st.free.is_empty() {
            // Nearest free agent (by routed distance — approximate with
            // the first found; routes are short in practice).
            let (id, pos) = st.free.pop().expect("non-empty");
            let path = st.route(pos, u);
            st.walk(id, pos, &path);
            (id, pos)
        } else {
            let id = st.spawn();
            let path = st.route(homebase, u);
            st.walk(id, homebase, &path);
            (id, homebase)
        };
        let _ = arrived_from;

        // u joins S.
        st.in_s[u.index()] = true;
        order.push(u);
        topo.neighbors_into(u, &mut nbrs);
        for &y in &nbrs.clone() {
            st.dirty_neighbors[y.index()] -= 1;
        }
        st.guard[u.index()] = Some(agent);
        st.release_guards_around(u);
        // Update frontier.
        topo.neighbors_into(u, &mut nbrs);
        for &y in &nbrs {
            if !st.in_s[y.index()] && !frontier.contains(&y) {
                frontier.push(y);
            }
        }
        frontier.retain(|&x| !st.in_s[x.index()]);
        // Recompute the boundary count.
        boundary_now = st
            .guard
            .iter()
            .enumerate()
            .filter(|(i, g)| g.is_some() && st.dirty_neighbors[*i] > 0)
            .count() as u32;
        peak_boundary = peak_boundary.max(boundary_now);
    }

    // Everyone terminates in place.
    let mut positions: Vec<(u32, Node)> = st
        .guard
        .iter()
        .enumerate()
        .filter_map(|(i, g)| g.map(|id| (id, Node(i as u32))))
        .collect();
    positions.extend(st.free.iter().copied());
    positions.sort();
    for (id, node) in positions {
        st.events.push(Event {
            time: 0,
            kind: EventKind::Terminate { agent: id, node },
        });
    }

    GreedyPlan {
        team: st.team,
        moves: st.moves,
        events: st.events,
        order,
        peak_boundary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::boundary_optimum;
    use hypersweep_intruder::{verify_trace, MonitorConfig};
    use hypersweep_topology::graph::{AdjGraph, Complete, Path, Ring, Star, Torus};
    use hypersweep_topology::{combinatorics as comb, Hypercube};

    fn audit<T: Topology + ?Sized>(topo: &T, home: Node, plan: &GreedyPlan) {
        let far = Node(topo.node_count() as u32 - 1);
        let cfg = if far == home {
            MonitorConfig::default()
        } else {
            MonitorConfig::with_intruder(far)
        };
        let verdict = verify_trace(topo, home, &plan.events, cfg);
        assert!(
            verdict.is_complete(),
            "plan not a correct search: {:?}",
            verdict.violations
        );
    }

    #[test]
    fn greedy_handles_elementary_graphs() {
        let p = Path::new(9);
        let plan = greedy_plan(&p, Node(0));
        audit(&p, Node(0), &plan);
        assert_eq!(plan.team, 1);

        let r = Ring::new(11);
        let plan = greedy_plan(&r, Node(0));
        audit(&r, Node(0), &plan);
        assert!(plan.team <= 3, "ring team {}", plan.team);

        let s = Star::new(12);
        let plan = greedy_plan(&s, Node(0));
        audit(&s, Node(0), &plan);
        assert_eq!(plan.team, 2);

        let k = Complete::new(7);
        let plan = greedy_plan(&k, Node(0));
        audit(&k, Node(0), &plan);
        assert!(plan.team >= 6);
    }

    #[test]
    fn greedy_on_small_hypercubes_vs_exact_optimum() {
        for d in 1..=4u32 {
            let cube = Hypercube::new(d);
            let plan = greedy_plan(&cube, Node::ROOT);
            audit(&cube, Node::ROOT, &plan);
            let opt = boundary_optimum(&cube, Node::ROOT).peak_boundary;
            assert!(
                plan.peak_boundary >= opt,
                "d={d}: greedy boundary below the optimum?!"
            );
            assert!(
                plan.team <= 2 * opt + 2,
                "d={d}: greedy team {} far above optimum {opt}",
                plan.team
            );
        }
    }

    #[test]
    fn greedy_is_competitive_with_clean_on_medium_cubes() {
        for d in 5..=8u32 {
            let cube = Hypercube::new(d);
            let plan = greedy_plan(&cube, Node::ROOT);
            audit(&cube, Node::ROOT, &plan);
            let clean = comb::clean_team_size(d);
            // No claim of superiority either way — just that generic greed
            // stays within a factor 2 of the tailored strategy.
            assert!(
                u128::from(plan.team) <= 2 * clean,
                "d={d}: greedy {} vs clean {clean}",
                plan.team
            );
        }
    }

    #[test]
    fn greedy_on_torus_beats_or_matches_the_column_sweep() {
        let torus = Torus::new(4, 6);
        let plan = greedy_plan(&torus, Node(0));
        audit(&torus, Node(0), &plan);
        let (sweep, _) = crate::other_topologies::torus_plan(torus, 4, 6);
        assert!(
            u64::from(plan.team) <= sweep.team_size + 2,
            "greedy {} vs column sweep {}",
            plan.team,
            sweep.team_size
        );
    }

    #[test]
    fn greedy_plans_on_random_trees_match_the_recurrence_within_slack() {
        // On trees, greedy should land close to the optimal recurrence.
        let g = AdjGraph::from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 5),
                (2, 6),
                (5, 7),
                (5, 8),
            ],
        );
        let plan = greedy_plan(&g, Node(0));
        audit(&g, Node(0), &plan);
        let opt = crate::tree_search::tree_search_number(&g, Node(0));
        assert!(
            plan.team <= opt + 2,
            "greedy {} vs tree dp {opt}",
            plan.team
        );
    }

    #[test]
    fn greedy_handles_constant_degree_networks() {
        use hypersweep_topology::graph::{CubeConnectedCycles, DeBruijn};
        // de Bruijn: degree ≤ 4, so the boundary — and hence the team —
        // stays small relative to n.
        for k in 3..=7u32 {
            let g = DeBruijn::new(k);
            let plan = greedy_plan(&g, Node(0));
            audit(&g, Node(0), &plan);
            assert!(
                (plan.team as usize) < g.node_count() / 2,
                "DB(2,{k}): team {}",
                plan.team
            );
        }
        // CCC: 3-regular.
        for d in 3..=5u32 {
            let g = CubeConnectedCycles::new(d);
            let plan = greedy_plan(&g, Node(0));
            audit(&g, Node(0), &plan);
            assert!(
                (plan.team as usize) < g.node_count() / 2,
                "CCC({d}): team {}",
                plan.team
            );
        }
    }

    #[test]
    fn greedy_searches_a_faulty_hypercube() {
        use hypersweep_topology::graph::InducedSubgraph;
        // Knock out three hosts of H_5; the paper's strategies no longer
        // apply, the generic planner still cleans the live fabric.
        let cube = Hypercube::new(5);
        let faulty = [Node(9), Node(20), Node(27)];
        let g = InducedSubgraph::new(cube, &faulty);
        assert!(g.live_connected());
        let plan = greedy_plan(&g, Node::ROOT);
        let verdict = hypersweep_intruder::verify_trace(
            &g,
            Node::ROOT,
            &plan.events,
            hypersweep_intruder::MonitorConfig::default(),
        );
        // Removed nodes are isolated: they stay "contaminated" in the
        // field but are unreachable; completeness is over live nodes.
        assert!(verdict.monotone, "{:?}", verdict.violations);
        assert_eq!(
            plan.order.len() + 1,
            g.live_count(),
            "every live node is searched"
        );
    }

    #[test]
    fn growth_order_is_connected() {
        let cube = Hypercube::new(5);
        let plan = greedy_plan(&cube, Node::ROOT);
        let mut in_s = vec![false; cube.node_count()];
        in_s[Node::ROOT.index()] = true;
        for u in &plan.order {
            assert!(
                cube.neighbors(*u).any(|y| in_s[y.index()]),
                "{u} added disconnected"
            );
            in_s[u.index()] = true;
        }
        assert!(in_s.iter().all(|&b| b));
    }
}
