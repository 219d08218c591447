//! The intruder: an explicit, arbitrarily fast, omniscient evader.
//!
//! §1.1: "the intruder moves as if it can see the whereabouts of the team
//! of agents, thus avoiding them as much as possible"; it "has the
//! capability of escaping arbitrarily fast". We realize this by letting the
//! intruder relocate *after every atomic event* anywhere within its current
//! contaminated component. It is detected (captured) exactly when that
//! component is extinguished.
//!
//! The greedy evader's move is a farthest-node query: flood the
//! contaminated component, then find its node farthest from every guard.
//! On `H_d` both steps run word-parallel on [`NodeSet`]s, 64 nodes per
//! word operation: the component is a flood masked by the contaminated
//! set ([`NodeSet::hypercube_flood_within`]), and the distances are balls
//! grown around the guards until they cover the component
//! ([`NodeSet::hypercube_ball_step`]). A reaction costs `O(waves · d ·
//! n/64)` words, where a wave is one flood pass or one ball step. Every
//! other topology runs the per-node BFS reference, `O(n · Δ)` per
//! reaction. Either way the buffers live in the intruder, so after the
//! first reaction the query allocates nothing (only the trail grows).
//!
//! Most events need no query at all. While the frontier is empty (every
//! safe node that borders contamination is guarded), the answer on a given
//! graph is a function of the contaminated set alone: the first safe node
//! on a shortest path from a contaminated node to the safe region borders
//! contamination, so it is guarded, and the node's nearest guard is its
//! nearest safe node. Under the field's instant spread the frontier stays
//! empty after every event of a field that starts fully contaminated, and
//! the verifier checks that after every event (frontier coverage). So a
//! greedy answer given with an empty frontier stands until some node's
//! contaminated status flips or the graph gains or loses an edge (the
//! field's edge hooks), and an event that only spawns, moves, clones or
//! terminates agents inside the safe region skips the query (see
//! [`ContaminationField::contamination_changes`]).

use std::collections::VecDeque;

use hypersweep_topology::{Node, NodeSet, Topology};

use crate::contamination::ContaminationField;

/// Where the intruder stands, or when it was captured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaptureStatus {
    /// Still at large on the given node.
    Free(Node),
    /// Captured: its contaminated component vanished.
    Captured {
        /// Index of the event whose application captured it.
        at_event: u64,
        /// The last node it occupied.
        node: Node,
    },
}

impl CaptureStatus {
    /// Whether the intruder has been captured.
    pub fn is_captured(&self) -> bool {
        matches!(self, CaptureStatus::Captured { .. })
    }
}

/// Relocation policy of the evader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvaderPolicy {
    /// Move only when the current node stops being contaminated, to an
    /// arbitrary (lowest-id) contaminated neighbour.
    Lazy,
    /// After every event, relocate within the contaminated component to a
    /// node maximizing the BFS distance from the nearest agent —
    /// the strongest heuristic evader (ties broken by lowest id). On `H_d`
    /// one reaction costs `O(waves · d · n/64)` words (see the module
    /// docs); elsewhere a per-node BFS, `O(n · Δ)`.
    Greedy,
}

/// The evading intruder.
#[derive(Clone, Debug)]
pub struct Intruder {
    status: CaptureStatus,
    policy: EvaderPolicy,
    /// Nodes visited while fleeing (for demos and tests).
    trail: Vec<Node>,
    /// The field's [`ContaminationField::contamination_changes`] when the
    /// greedy answer was last computed with an empty frontier (`None`
    /// otherwise). Until the count moves, the contaminated set is the one
    /// that answer saw, so it still stands (see the module docs).
    answered_at: Option<u64>,
    scratch: Scratch,
}

/// The buffers of the farthest-node query, kept across reactions.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// The contaminated component being searched.
    component: NodeSet,
    /// The ball around the guards grown so far (word-parallel path).
    reached: NodeSet,
    /// The next ball (word-parallel path).
    next: NodeSet,
    /// Distance from the nearest guard (per-node path).
    dist: Vec<u32>,
    queue: VecDeque<Node>,
    nbrs: Vec<Node>,
}

/// Make `set` a set over `0..n`, keeping its words when the universe
/// already matches (their contents are then left as they were).
fn fit(set: &mut NodeSet, n: usize) {
    if set.universe() != n {
        *set = NodeSet::new(n);
    }
}

impl Intruder {
    /// Drop the intruder on `start` (it must be contaminated at the time —
    /// i.e. anywhere except the homebase before the first event).
    pub fn new(start: Node, policy: EvaderPolicy) -> Self {
        Intruder {
            status: CaptureStatus::Free(start),
            policy,
            trail: vec![start],
            answered_at: None,
            scratch: Scratch::default(),
        }
    }

    /// Current status.
    pub fn status(&self) -> CaptureStatus {
        self.status
    }

    /// The sequence of nodes occupied.
    pub fn trail(&self) -> &[Node] {
        &self.trail
    }

    /// Whether [`Intruder::react`] can change anything after the event just
    /// applied to `field`. It cannot once the intruder is captured, nor
    /// while its node is still contaminated and its last answer stands: the
    /// lazy evader then stays put, and a greedy one skips its query while
    /// the field's [`ContaminationField::contamination_changes`] stands
    /// still. The verifier asks this before it calls the out-of-line
    /// reaction.
    #[inline]
    pub(crate) fn may_move<T: Topology + ?Sized>(&self, field: &ContaminationField<'_, T>) -> bool {
        match self.status {
            CaptureStatus::Captured { .. } => false,
            CaptureStatus::Free(pos) => !field.is_contaminated(pos) || !self.answer_stands(field),
        }
    }

    /// Whether the intruder's position is still its answer, given that its
    /// node is contaminated.
    #[inline]
    fn answer_stands<T: Topology + ?Sized>(&self, field: &ContaminationField<'_, T>) -> bool {
        self.policy == EvaderPolicy::Lazy || self.answered_at == Some(field.contamination_changes())
    }

    /// Record that a greedy answer was just computed on `field`. Only an
    /// answer given with an empty frontier depends on the contaminated set
    /// alone, so only such an answer may be reused.
    fn note_answer<T: Topology + ?Sized>(&mut self, field: &ContaminationField<'_, T>) {
        self.answered_at = field
            .unguarded_frontier()
            .is_none()
            .then(|| field.contamination_changes());
    }

    /// React to the world after one event has been applied to `field`.
    /// `event_index` is the number of events applied so far. An intruder
    /// follows one field: a greedy one skips the farthest-node query while
    /// its last answer stands (see the module docs).
    pub fn react<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        field: &ContaminationField<'_, T>,
        event_index: u64,
    ) {
        let CaptureStatus::Free(pos) = self.status else {
            return;
        };
        if field.is_contaminated(pos) {
            if !self.answer_stands(field) {
                self.note_answer(field);
                let best = self.best_in_component(topo, field, pos);
                if best != pos {
                    self.status = CaptureStatus::Free(best);
                    self.trail.push(best);
                }
            }
            return;
        }
        // The node was just decontaminated. Being arbitrarily fast, the
        // intruder slips to a contaminated neighbour "just before" the
        // agent arrives — if one exists.
        topo.neighbors_into(pos, &mut self.scratch.nbrs);
        let mut contaminated = self
            .scratch
            .nbrs
            .iter()
            .copied()
            .filter(|&y| field.is_contaminated(y));
        let escape = match self.policy {
            EvaderPolicy::Lazy => contaminated.next(),
            // Enter the component, then optimize inside it.
            EvaderPolicy::Greedy => contaminated.min().map(|entry| {
                self.note_answer(field);
                self.best_in_component(topo, field, entry)
            }),
        };
        match escape {
            Some(to) => {
                self.status = CaptureStatus::Free(to);
                self.trail.push(to);
            }
            None => {
                self.status = CaptureStatus::Captured {
                    at_event: event_index,
                    node: pos,
                };
            }
        }
    }

    /// Within the contaminated component of `from` (which must be
    /// contaminated), the node farthest from the nearest guarded node,
    /// ties broken by lowest id; with no guard at all, the component's
    /// lowest id.
    fn best_in_component<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        field: &ContaminationField<'_, T>,
        from: Node,
    ) -> Node {
        match field.hyper_dim() {
            Some(d) => self.best_in_component_hyper(d, field, from),
            None => self.best_in_component_bfs(topo, field, from),
        }
    }

    /// The word-parallel query on `H_d`.
    fn best_in_component_hyper<T: Topology + ?Sized>(
        &mut self,
        d: u32,
        field: &ContaminationField<'_, T>,
        from: Node,
    ) -> Node {
        let n = 1usize << d;
        let s = &mut self.scratch;
        for set in [&mut s.component, &mut s.reached, &mut s.next] {
            fit(set, n);
        }
        s.component.clear();
        s.component.insert(from);
        s.component
            .hypercube_flood_within(d, field.contaminated_set());
        let guarded = field.guarded_set();
        if guarded.is_empty() {
            return s.component.iter().next().unwrap_or(from);
        }
        // Grow balls around the guards. The farthest nodes are the ones
        // the last ball that misses part of the component still misses.
        s.reached.words_mut().copy_from_slice(guarded.words());
        while s.reached.hypercube_ball_step(d, &mut s.next, &s.component) {
            std::mem::swap(&mut s.reached, &mut s.next);
        }
        let (wi, w) = s
            .component
            .words()
            .iter()
            .zip(s.reached.words())
            .map(|(&c, &r)| c & !r)
            .enumerate()
            .find(|&(_, w)| w != 0)
            .expect("the component holds no guard, so the first ball misses it");
        Node((wi as u32) << 6 | w.trailing_zeros())
    }

    /// The per-node reference: a multi-source BFS from the guards over the
    /// whole graph, then a BFS of the component.
    fn best_in_component_bfs<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        field: &ContaminationField<'_, T>,
        from: Node,
    ) -> Node {
        let n = topo.node_count();
        let s = &mut self.scratch;
        s.dist.clear();
        s.dist.resize(n, u32::MAX);
        s.queue.clear();
        for (i, slot) in s.dist.iter_mut().enumerate() {
            if field.is_guarded(Node(i as u32)) {
                *slot = 0;
                s.queue.push_back(Node(i as u32));
            }
        }
        while let Some(x) = s.queue.pop_front() {
            topo.neighbors_into(x, &mut s.nbrs);
            for &y in &s.nbrs {
                if s.dist[y.index()] == u32::MAX {
                    s.dist[y.index()] = s.dist[x.index()] + 1;
                    s.queue.push_back(y);
                }
            }
        }
        let mut best = (s.dist[from.index()], from);
        fit(&mut s.component, n);
        s.component.clear();
        s.component.insert(from);
        s.queue.push_back(from);
        while let Some(x) = s.queue.pop_front() {
            let dx = s.dist[x.index()];
            if dx > best.0 || (dx == best.0 && x < best.1) {
                best = (dx, x);
            }
            topo.neighbors_into(x, &mut s.nbrs);
            for &y in &s.nbrs {
                if field.is_contaminated(y) && s.component.insert(y) {
                    s.queue.push_back(y);
                }
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;
    use crate::contamination::tests::Live;
    use hypersweep_sim::{Event, EventKind, Role};
    use hypersweep_topology::graph::Path;
    use hypersweep_topology::Hypercube;

    fn spawn(agent: u32, node: u32) -> Event {
        Event {
            time: 0,
            kind: EventKind::Spawn {
                agent,
                node: Node(node),
                role: Role::Worker,
            },
        }
    }

    fn mv(agent: u32, from: u32, to: u32) -> Event {
        Event {
            time: 0,
            kind: EventKind::Move {
                agent,
                from: Node(from),
                to: Node(to),
                role: Role::Worker,
            },
        }
    }

    #[test]
    fn intruder_flees_along_a_path_and_is_cornered() {
        // Path 0-1-2-3, agents sweep left to right with two agents — the
        // intruder retreats to 3 and is captured when 3 is taken.
        let p = Path::new(4);
        let mut field = ContaminationField::new(&p, Node(0));
        let mut evader = Intruder::new(Node(3), EvaderPolicy::Greedy);
        let script = [
            spawn(0, 0),
            spawn(1, 0),
            mv(1, 0, 1),
            mv(0, 0, 1),
            mv(1, 1, 2),
            mv(0, 1, 2),
            mv(1, 2, 3),
        ];
        for e in &script {
            field.apply(e);
            evader.react(&p, &field, field.events_applied());
        }
        assert!(field.all_clean());
        match evader.status() {
            CaptureStatus::Captured { node, .. } => assert_eq!(node, Node(3)),
            s => panic!("expected capture, got {s:?}"),
        }
    }

    #[test]
    fn greedy_evader_keeps_distance() {
        let h = Hypercube::new(3);
        let mut field = ContaminationField::new(&h, Node::ROOT);
        let mut evader = Intruder::new(Node(0b111), EvaderPolicy::Greedy);
        field.apply(&spawn(0, 0));
        evader.react(&h, &field, 1);
        // Guard at 000; farthest contaminated node is 111.
        assert_eq!(evader.status(), CaptureStatus::Free(Node(0b111)));
    }

    #[test]
    fn an_answer_given_with_an_exposed_frontier_is_not_reused() {
        // A path 0-1-2-5-4-3 swept from 0 to 2 by one agent, then closed
        // into the 6-cycle 0-1-2-5-4-3-0 by the edge 3-0: {0, 1, 2} safe
        // and a guard on 2 only, so node 0 borders contaminated 3
        // unguarded. The greedy answer then counts 2 as the only guard and
        // picks 3. A spawn on 0 flips no contaminated status but makes 0 a
        // guard, which moves the answer to 4; the first answer must not be
        // reused.
        use hypersweep_topology::graph::AdjGraph;
        let g = Live(RefCell::new(AdjGraph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 5), (5, 4), (4, 3)],
        )));
        let mut field = ContaminationField::new(&g, Node(0));
        for e in [spawn(0, 0), mv(0, 0, 1), mv(0, 1, 2)] {
            field.apply(&e);
        }
        g.0.borrow_mut().add_edge(Node(3), Node(0));
        field.edge_inserted(Node(3), Node(0));
        assert_eq!(field.unguarded_frontier(), Some(Node(0)));
        let mut evader = Intruder::new(Node(4), EvaderPolicy::Greedy);
        evader.react(&g, &field, 0);
        assert_eq!(evader.status(), CaptureStatus::Free(Node(3)));
        let changes = field.contamination_changes();
        field.apply(&spawn(1, 0));
        assert_eq!(field.contamination_changes(), changes);
        assert!(evader.may_move(&field));
        evader.react(&g, &field, 1);
        assert_eq!(evader.status(), CaptureStatus::Free(Node(4)));
    }

    #[test]
    fn an_answer_is_not_reused_across_an_edge_change() {
        // A path 0-1-2-3-4 with a guard on 0 and 1..=4 contaminated: the
        // frontier is empty and the greedy answer is 4, four hops from the
        // guard. The edge 0-4 flips no contaminated status but puts 4 next
        // to the guard, which moves the answer to 2; the first answer must
        // not be reused.
        use hypersweep_topology::graph::AdjGraph;
        let g = Live(RefCell::new(AdjGraph::from_edges(
            5,
            &[(0, 1), (1, 2), (2, 3), (3, 4)],
        )));
        let mut field = ContaminationField::new(&g, Node(0));
        field.apply(&spawn(0, 0));
        assert_eq!(field.unguarded_frontier(), None);
        let mut evader = Intruder::new(Node(1), EvaderPolicy::Greedy);
        evader.react(&g, &field, 0);
        assert_eq!(evader.status(), CaptureStatus::Free(Node(4)));
        let changes = field.contamination_changes();
        g.0.borrow_mut().add_edge(Node(0), Node(4));
        field.edge_inserted(Node(0), Node(4));
        assert_ne!(field.contamination_changes(), changes);
        assert!(evader.may_move(&field));
        evader.react(&g, &field, 1);
        assert_eq!(evader.status(), CaptureStatus::Free(Node(2)));
    }

    #[test]
    fn lazy_evader_moves_only_when_forced() {
        let p = Path::new(3);
        let mut field = ContaminationField::new(&p, Node(0));
        let mut evader = Intruder::new(Node(1), EvaderPolicy::Lazy);
        field.apply(&spawn(0, 0));
        evader.react(&p, &field, 1);
        assert_eq!(evader.status(), CaptureStatus::Free(Node(1)));
        field.apply(&spawn(1, 0));
        field.apply(&mv(1, 0, 1));
        evader.react(&p, &field, 3);
        // 1 became guarded; the only contaminated neighbour is 2.
        assert_eq!(evader.status(), CaptureStatus::Free(Node(2)));
    }

    #[test]
    fn captured_status_is_terminal() {
        let p = Path::new(2);
        let mut field = ContaminationField::new(&p, Node(0));
        let mut evader = Intruder::new(Node(1), EvaderPolicy::Lazy);
        field.apply(&spawn(0, 0));
        field.apply(&spawn(1, 0));
        field.apply(&mv(1, 0, 1));
        evader.react(&p, &field, 3);
        assert!(evader.status().is_captured());
        // Further reactions do nothing.
        evader.react(&p, &field, 4);
        assert!(evader.status().is_captured());
    }
}
