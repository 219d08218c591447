//! The true contamination state, maintained event by event.

use std::collections::VecDeque;

use hypersweep_topology::{wide, Node, NodeSet, Topology};

use hypersweep_sim::{Event, EventKind};
use serde::{Deserialize, Serialize};

use crate::connectivity::SafeForest;

/// Why an event cannot happen. Only a hand-written or corrupted trace
/// holds one: the executors and the synthesized paths never emit them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum IllegalEvent {
    /// The event names a node outside `0..nodes`.
    OutOfRange {
        /// The offending node id.
        node: u32,
        /// The topology's node count.
        nodes: u64,
    },
    /// A move or clone leaves a node where no agent stands.
    Vacant {
        /// The empty node.
        node: u32,
    },
    /// A move or clone on `H_d` lands on a node that is not a neighbour of
    /// the one it leaves.
    NotAdjacent {
        /// The node left.
        from: u32,
        /// The node reached.
        to: u32,
    },
}

impl std::fmt::Display for IllegalEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IllegalEvent::OutOfRange { node, nodes } => {
                write!(f, "node {node} is outside 0..{nodes}")
            }
            IllegalEvent::Vacant { node } => {
                write!(f, "no agent stands on node {node} to leave it")
            }
            IllegalEvent::NotAdjacent { from, to } => {
                write!(f, "node {to} is not a neighbour of node {from}")
            }
        }
    }
}

/// The reusable allocations of a [`ContaminationField`]: every per-node
/// buffer, traversal scratch, and the incremental connectivity forest.
///
/// A field is built *in* a scratch ([`ContaminationField::new_in`]) and can
/// be dismantled back into one ([`ContaminationField::into_scratch`]), so a
/// caller auditing many runs in a row — the checker explores thousands of
/// schedules per campaign — pays the `O(n)` allocations once instead of
/// once per run.
#[derive(Default)]
pub struct FieldScratch {
    contaminated: NodeSet,
    occupancy: Vec<u32>,
    guarded: NodeSet,
    recontaminations: Vec<(u64, Node)>,
    forest: Option<SafeForest>,
    safe_nbrs: Vec<u32>,
    degree: Vec<u32>,
    frontier: NodeSet,
    scratch_frontier: NodeSet,
    scratch_next: NodeSet,
    scratch_reached: NodeSet,
    scratch_nbrs: Vec<Node>,
    scratch_adj: Vec<Node>,
    scratch_queue: VecDeque<Node>,
}

/// Reset `set` to the empty set over `0..n`, reusing its words when the
/// universe matches.
fn reset_set(set: &mut NodeSet, n: usize) {
    if set.universe() == n {
        set.clear();
    } else {
        *set = NodeSet::new(n);
    }
}

/// Ground-truth node states during a search.
///
/// Unlike the executors' optimistic view (which assumes monotonicity), this
/// structure implements the adversarial semantics faithfully: contamination
/// spreads through any unguarded path the instant a guard is lifted.
///
/// Node predicates are packed [`NodeSet`] bitsets. On the hypercube (any
/// topology reporting [`Topology::hypercube_dim`]) the recontamination
/// flood runs word-parallel — whole 64-node frontier words are expanded per
/// step via the cube's XOR structure — and all traversal scratch lives in
/// the field, so applying events allocates nothing.
///
/// The paper's *region* invariants are maintained incrementally rather than
/// re-derived by scanning:
///
/// * **Contiguity** — a [`SafeForest`] tracks the connected components of
///   the decontaminated region as nodes are cleaned (union-find insertion,
///   `O(α · Δ)` per event) so [`ContaminationField::is_contiguous`] is two
///   integer comparisons. On `H_d`, a node cleaned next to the region
///   while it is one component is adopted under the component's root with
///   one find and no union. Recontamination (a deletion, which only
///   happens on monotonicity violations) marks the forest dirty; the next
///   query rebuilds it from the contamination bitset — word-parallel
///   floods on the hypercube, per-node BFS elsewhere.
/// * **Frontier guard coverage** — per-node counts of safe neighbours feed
///   a maintained frontier bitset, so
///   [`ContaminationField::unguarded_frontier`] is an `O(1)` counter check
///   instead of a whole-field expand-and-mask scan. Cleaning a node only
///   raises its neighbours' counts, which cannot add them to the frontier,
///   so their refresh is skipped while the frontier is empty.
///
/// Off the cube the topology may change between events: the edge hooks
/// ([`ContaminationField::edge_inserted`],
/// [`ContaminationField::edge_removed`]) patch both endpoints' counts and
/// frontier membership, and a removed edge inside the safe region dirties
/// the forest like a deletion does.
///
/// The pre-incremental whole-field BFS and frontier scan live on as the
/// references in `hypersweep-testutil`'s `oracles` module, written against
/// [`ContaminationField::contaminated_set`],
/// [`ContaminationField::occupancy`] and [`ContaminationField::homebase`];
/// the differential test suites hold the incremental answers equal to them
/// on every sampled event stream.
///
/// Complexity: applying an event is `O(Δ)` unless the event vacates a node
/// next to contamination, in which case the spread flood costs up to
/// `O(d · n/64)` words plus `O(Δ)` per recontaminated node; monotone
/// strategies never trigger the spread, so auditing a full run of any
/// correct strategy costs `O(moves · Δ)` where `Δ` is the maximum degree —
/// *including* per-event contiguity and frontier checks. On `H_d` the `Δ`
/// of a cleaning event is `d` safe-count increments and one find; events
/// that clean nothing cost `O(1)` beyond the vacate test.
pub struct ContaminationField<'a, T: Topology + ?Sized> {
    topo: &'a T,
    /// `Some(d)` when `topo` is `H_d`: enables the word-parallel kernels.
    hyper_dim: Option<u32>,
    contaminated: NodeSet,
    occupancy: Vec<u32>,
    /// Nodes with `occupancy > 0`, as a bitset (mirrors `occupancy`).
    guarded: NodeSet,
    /// Count of contaminated nodes (for O(1) "all clean" checks).
    dirty_count: usize,
    /// Bumped whenever a node's contaminated status flips or an edge
    /// changes.
    contamination_changes: u64,
    /// Recontamination incidents: (event index, node).
    recontaminations: Vec<(u64, Node)>,
    events_applied: u64,
    homebase: Node,
    /// Incrementally maintained connectivity over the safe region.
    forest: SafeForest,
    /// Per-node count of currently-safe neighbours (maintained for every
    /// node, safe or not). A node borders contamination iff
    /// `safe_nbrs < degree`.
    safe_nbrs: Vec<u32>,
    /// Per-node degree — only materialized for non-hypercube fabrics (on
    /// `H_d` every degree is `d`).
    degree: Vec<u32>,
    /// Maintained frontier: clean (safe, unguarded) nodes bordering
    /// contamination. Under instant-spread semantics this set returns to
    /// empty after every fully-applied event.
    frontier: NodeSet,
    frontier_count: usize,
    // Reusable traversal scratch (word-parallel frontiers and the
    // per-node fallback queues).
    scratch_frontier: NodeSet,
    scratch_next: NodeSet,
    scratch_reached: NodeSet,
    scratch_nbrs: Vec<Node>,
    /// Dedicated adjacency scratch for the incremental-connectivity hooks,
    /// which run while `scratch_nbrs` is checked out by a flood.
    scratch_adj: Vec<Node>,
    scratch_queue: VecDeque<Node>,
}

impl<'a, T: Topology + ?Sized> ContaminationField<'a, T> {
    /// Start a search on `topo`: every node contaminated except nothing —
    /// even the homebase counts as contaminated until the first agent
    /// spawns on it.
    pub fn new(topo: &'a T, homebase: Node) -> Self {
        Self::new_in(topo, homebase, FieldScratch::default())
    }

    /// Like [`ContaminationField::new`], but reusing the allocations of a
    /// previous field (see [`FieldScratch`]).
    pub fn new_in(topo: &'a T, homebase: Node, mut s: FieldScratch) -> Self {
        let n = topo.node_count();
        let hyper_dim = topo.hypercube_dim();
        reset_set(&mut s.contaminated, n);
        s.contaminated.insert_all();
        s.occupancy.clear();
        s.occupancy.resize(n, 0);
        reset_set(&mut s.guarded, n);
        s.recontaminations.clear();
        let mut forest = s.forest.take().unwrap_or_else(|| SafeForest::new(0));
        forest.reset(n);
        s.safe_nbrs.clear();
        s.safe_nbrs.resize(n, 0);
        s.degree.clear();
        if hyper_dim.is_none() {
            s.degree.reserve(n);
            for i in 0..n {
                topo.neighbors_into(Node(i as u32), &mut s.scratch_nbrs);
                s.degree.push(s.scratch_nbrs.len() as u32);
            }
        }
        reset_set(&mut s.frontier, n);
        reset_set(&mut s.scratch_frontier, n);
        reset_set(&mut s.scratch_next, n);
        reset_set(&mut s.scratch_reached, n);
        s.scratch_nbrs.clear();
        s.scratch_adj.clear();
        s.scratch_queue.clear();
        ContaminationField {
            topo,
            hyper_dim,
            contaminated: s.contaminated,
            occupancy: s.occupancy,
            guarded: s.guarded,
            dirty_count: n,
            contamination_changes: 0,
            recontaminations: s.recontaminations,
            events_applied: 0,
            homebase,
            forest,
            safe_nbrs: s.safe_nbrs,
            degree: s.degree,
            frontier: s.frontier,
            frontier_count: 0,
            scratch_frontier: s.scratch_frontier,
            scratch_next: s.scratch_next,
            scratch_reached: s.scratch_reached,
            scratch_nbrs: s.scratch_nbrs,
            scratch_adj: s.scratch_adj,
            scratch_queue: s.scratch_queue,
        }
    }

    /// Rebuild a field from an externally-held snapshot: the set of safe
    /// (decontaminated) nodes and the per-node occupancy. Occupied nodes
    /// are made safe whether or not the snapshot lists them.
    ///
    /// The rebuilt field derives the connectivity forest, safe-neighbour
    /// counts and maintained frontier from `topo`'s current adjacency, one
    /// node at a time: `O(n · Δ)`. That makes it the reference for the
    /// `O(1)` edge hooks ([`ContaminationField::edge_inserted`] and
    /// [`ContaminationField::edge_removed`]), which the dynamic-graph
    /// scenario uses to keep one field current across its edge churn: the
    /// differential tests hold a patched field equal to this rebuild after
    /// every accepted mutation.
    pub fn with_state(topo: &'a T, homebase: Node, safe: &NodeSet, occupancy: &[u32]) -> Self {
        let n = topo.node_count();
        assert_eq!(safe.universe(), n, "safe set universe mismatch");
        assert_eq!(occupancy.len(), n, "occupancy length mismatch");
        let mut field = Self::new(topo, homebase);
        for x in safe.iter() {
            field.decontaminate(x);
        }
        for (i, &occ) in occupancy.iter().enumerate() {
            if occ > 0 {
                let x = Node(i as u32);
                field.decontaminate(x);
                field.occupancy[i] = occ;
                field.guarded.insert(x);
                field.refresh_frontier(x);
            }
        }
        field
    }

    /// Dismantle the field into its reusable allocations.
    pub fn into_scratch(self) -> FieldScratch {
        FieldScratch {
            contaminated: self.contaminated,
            occupancy: self.occupancy,
            guarded: self.guarded,
            recontaminations: self.recontaminations,
            forest: Some(self.forest),
            safe_nbrs: self.safe_nbrs,
            degree: self.degree,
            frontier: self.frontier,
            scratch_frontier: self.scratch_frontier,
            scratch_next: self.scratch_next,
            scratch_reached: self.scratch_reached,
            scratch_nbrs: self.scratch_nbrs,
            scratch_adj: self.scratch_adj,
            scratch_queue: self.scratch_queue,
        }
    }

    /// The topology being searched.
    pub(crate) fn topology(&self) -> &'a T {
        self.topo
    }

    /// `Some(d)` when the topology is `H_d`.
    pub(crate) fn hyper_dim(&self) -> Option<u32> {
        self.hyper_dim
    }

    /// The currently guarded nodes, as a packed set.
    pub(crate) fn guarded_set(&self) -> &NodeSet {
        &self.guarded
    }

    /// The homebase node.
    pub fn homebase(&self) -> Node {
        self.homebase
    }

    /// Whether `x` is currently contaminated.
    pub fn is_contaminated(&self, x: Node) -> bool {
        self.contaminated.contains(x)
    }

    /// Whether `x` is currently guarded (occupied by at least one agent,
    /// terminated guards included).
    pub fn is_guarded(&self, x: Node) -> bool {
        self.occupancy[x.index()] > 0
    }

    /// Whether `x` is clean: visited, unguarded, not contaminated.
    pub fn is_clean(&self, x: Node) -> bool {
        !self.contaminated.contains(x) && self.occupancy[x.index()] == 0
    }

    /// Number of currently contaminated nodes.
    pub fn contaminated_count(&self) -> usize {
        self.dirty_count
    }

    /// Whether the whole graph is decontaminated.
    pub fn all_clean(&self) -> bool {
        self.dirty_count == 0
    }

    /// Recontamination incidents observed so far (each one is a
    /// monotonicity violation).
    pub fn recontaminations(&self) -> &[(u64, Node)] {
        &self.recontaminations
    }

    /// A count that moves whenever some node's contaminated status flips or
    /// the topology gains or loses an edge, and only then. While the
    /// frontier is empty the greedy evader's answer is a function of the
    /// contaminated set and the adjacency alone (see [`crate::evader`]), so
    /// it skips every reaction after which this count stands still.
    pub fn contamination_changes(&self) -> u64 {
        self.contamination_changes
    }

    /// Events applied so far.
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Degree of `x` in the underlying topology.
    #[inline]
    fn degree_of(&self, x: Node) -> u32 {
        match self.hyper_dim {
            Some(d) => d,
            None => self.degree[x.index()],
        }
    }

    /// How many neighbours of `x` are safe (decontaminated), whether or not
    /// `x` itself is.
    #[inline]
    pub fn safe_neighbours(&self, x: Node) -> u32 {
        self.safe_nbrs[x.index()]
    }

    /// Whether some neighbour of `x` is contaminated. `O(1)` from the
    /// maintained safe-neighbour count, where an adjacency scan costs `O(Δ)`
    /// and, off the cube, a copy of the list.
    #[inline]
    pub fn borders_contamination(&self, x: Node) -> bool {
        self.safe_nbrs[x.index()] < self.degree_of(x)
    }

    /// The topology gained the edge `a`–`b` since the last event: patch the
    /// field to the new adjacency. Both endpoints' degree and safe-neighbour
    /// count move by one and their frontier membership is refreshed; a
    /// safe–safe edge unions its endpoints' components. Moves
    /// [`ContaminationField::contamination_changes`], since a greedy
    /// evader's answer depends on the edges too. `O(α)`, where
    /// [`ContaminationField::with_state`] replays every node.
    ///
    /// The caller reports exactly the edges its topology changed, once each.
    ///
    /// # Panics
    ///
    /// On `H_d`, whose edges never change, and on a self-loop.
    pub fn edge_inserted(&mut self, a: Node, b: Node) {
        self.patch_edge(a, b, true);
    }

    /// The topology lost the edge `a`–`b` since the last event: the
    /// counterpart of [`ContaminationField::edge_inserted`]. A removed
    /// safe–safe edge may split the region, so it marks the forest dirty and
    /// the next contiguity query rebuilds it from the new adjacency.
    ///
    /// # Panics
    ///
    /// On `H_d` and on a self-loop.
    pub fn edge_removed(&mut self, a: Node, b: Node) {
        self.patch_edge(a, b, false);
    }

    fn patch_edge(&mut self, a: Node, b: Node, inserted: bool) {
        assert!(self.hyper_dim.is_none(), "the edges of H_d never change");
        assert_ne!(a, b, "no self loops");
        let (a_safe, b_safe) = (
            !self.contaminated.contains(a),
            !self.contaminated.contains(b),
        );
        for (x, other_safe) in [(a, b_safe), (b, a_safe)] {
            let (degree, safe) = (&mut self.degree[x.index()], &mut self.safe_nbrs[x.index()]);
            if inserted {
                *degree += 1;
                *safe += u32::from(other_safe);
            } else {
                *degree -= 1;
                *safe -= u32::from(other_safe);
            }
        }
        if a_safe && b_safe {
            if inserted {
                self.forest.union(a, b);
            } else {
                self.forest.mark_dirty();
            }
        }
        self.refresh_frontier(a);
        self.refresh_frontier(b);
        self.contamination_changes += 1;
    }

    /// Whether the decontaminated region (guarded ∪ clean) is connected and
    /// contains the homebase — the *contiguity* requirement. An entirely
    /// contaminated graph trivially satisfies it.
    ///
    /// Served from the incrementally maintained [`SafeForest`]: `O(1)`
    /// unless a recontamination dirtied the forest since the last query, in
    /// which case the components are rebuilt from the contamination bitset
    /// first. Takes `&mut self` only for the rebuild path and find-path
    /// compression; the logical state is untouched.
    pub fn is_contiguous(&mut self) -> bool {
        let n = self.topo.node_count();
        let safe_total = n - self.dirty_count;
        if safe_total == 0 {
            return true;
        }
        if self.contaminated.contains(self.homebase) {
            return false;
        }
        if self.forest.is_dirty() {
            self.rebuild_forest();
        }
        self.forest.components() == 1
    }

    /// Number of connected components of the decontaminated region (`0`
    /// when everything is contaminated). Rebuilds the forest if dirty.
    pub fn clean_components(&mut self) -> usize {
        if self.dirty_count == self.topo.node_count() {
            return 0;
        }
        if self.forest.is_dirty() {
            self.rebuild_forest();
        }
        self.forest.components()
    }

    /// Rebuild the [`SafeForest`] from the contamination bitset after a
    /// deletion: one flood per safe component, each member adopted directly
    /// under its component's seed (so post-rebuild finds are one hop).
    fn rebuild_forest(&mut self) {
        self.forest.begin_rebuild();
        match self.hyper_dim {
            Some(d) => self.rebuild_forest_hyper(d),
            None => self.rebuild_forest_generic(),
        }
    }

    /// Word-parallel rebuild: flood each component 64 nodes per word
    /// operation, adopting each wave's nodes under the component's seed.
    fn rebuild_forest_hyper(&mut self, d: u32) {
        let mut reached = std::mem::take(&mut self.scratch_reached);
        let mut frontier = std::mem::take(&mut self.scratch_frontier);
        let mut next = std::mem::take(&mut self.scratch_next);
        reached.clear();
        let n = self.topo.node_count();
        let words = self.contaminated.words().len();
        for wi in 0..words {
            loop {
                let mut unseen = !self.contaminated.words()[wi] & !reached.words()[wi];
                if (wi + 1) * 64 > n {
                    unseen &= (1u64 << (n & 63)) - 1;
                }
                if unseen == 0 {
                    break;
                }
                let seed = Node((wi as u32) << 6 | unseen.trailing_zeros());
                self.forest.add_node(seed);
                reached.insert(seed);
                frontier.clear();
                frontier.insert(seed);
                loop {
                    frontier.hypercube_expand_into(d, &mut next);
                    let grew = wide::flood_step(
                        next.words_mut(),
                        reached.words_mut(),
                        self.contaminated.words(),
                    );
                    if !grew {
                        break;
                    }
                    for y in next.iter() {
                        self.forest.adopt(y, seed);
                    }
                    std::mem::swap(&mut frontier, &mut next);
                }
            }
        }
        self.scratch_reached = reached;
        self.scratch_frontier = frontier;
        self.scratch_next = next;
    }

    /// Per-node rebuild for non-hypercube fabrics.
    fn rebuild_forest_generic(&mut self) {
        let mut reached = std::mem::take(&mut self.scratch_reached);
        let mut queue = std::mem::take(&mut self.scratch_queue);
        let mut nbrs = std::mem::take(&mut self.scratch_nbrs);
        reached.clear();
        queue.clear();
        for i in 0..self.topo.node_count() as u32 {
            let seed = Node(i);
            if self.contaminated.contains(seed) || reached.contains(seed) {
                continue;
            }
            self.forest.add_node(seed);
            reached.insert(seed);
            queue.push_back(seed);
            while let Some(x) = queue.pop_front() {
                self.topo.neighbors_into(x, &mut nbrs);
                for &y in &nbrs {
                    if !self.contaminated.contains(y) && reached.insert(y) {
                        self.forest.adopt(y, seed);
                        queue.push_back(y);
                    }
                }
            }
        }
        self.scratch_reached = reached;
        self.scratch_queue = queue;
        self.scratch_nbrs = nbrs;
    }

    /// Frontier guard-coverage oracle: every decontaminated node adjacent
    /// to the contaminated region must be guarded, else the intruder walks
    /// straight in. Returns a witness — some clean (visited, unguarded)
    /// node with a contaminated neighbour — or `None` when the frontier is
    /// fully covered.
    ///
    /// Under this field's instant-spread semantics the invariant holds by
    /// construction after every applied event, so the oracle is a
    /// self-consistency check: a `Some` means the field itself (or a
    /// hand-mutated trace) broke the adversarial semantics. Served from the
    /// maintained frontier set — an `O(1)` counter check per call.
    pub fn unguarded_frontier(&self) -> Option<Node> {
        if self.frontier_count == 0 {
            return None;
        }
        self.frontier.iter().next()
    }

    /// Recompute `x`'s membership in the maintained frontier set from its
    /// current state (safe? unguarded? bordering contamination?).
    #[inline]
    fn refresh_frontier(&mut self, x: Node) {
        let member = !self.contaminated.contains(x)
            && self.occupancy[x.index()] == 0
            && self.safe_nbrs[x.index()] < self.degree_of(x);
        if member {
            if self.frontier.insert(x) {
                self.frontier_count += 1;
            }
        } else if self.frontier.remove(x) {
            self.frontier_count -= 1;
        }
    }

    /// `x` just flipped contaminated → safe: register it with the forest,
    /// join it to every already-safe neighbour, and propagate the
    /// safe-neighbour counts.
    ///
    /// Raising a neighbour's safe count can only take it out of the
    /// frontier, so the neighbours' refresh is skipped while the frontier
    /// is empty — which, under instant spread, is after every event.
    fn connect_safe(&mut self, x: Node) {
        match self.hyper_dim {
            Some(d) => {
                // The smallest port to a safe neighbour (0: none).
                let mut port = 0;
                for p in 1..=d {
                    let y = x.flip(p);
                    self.safe_nbrs[y.index()] += 1;
                    if port == 0 && !self.contaminated.contains(y) {
                        port = p;
                    }
                }
                if port != 0 && !self.forest.is_dirty() && self.forest.components() == 1 {
                    // Every safe neighbour is in the one component, so `x`
                    // joins it under its root: one find instead of d
                    // unions. Monotone, contiguous runs (Theorems 1 and 6)
                    // clean every node but the homebase this way.
                    let root = self.forest.find(x.flip(port));
                    self.forest.adopt(x, root);
                } else {
                    // The first spawn, islands and a forest a deletion
                    // dirtied: union with each safe neighbour.
                    self.forest.add_node(x);
                    if port != 0 {
                        for p in port..=d {
                            let y = x.flip(p);
                            if !self.contaminated.contains(y) {
                                self.forest.union(x, y);
                            }
                        }
                    }
                }
                if self.frontier_count > 0 {
                    for p in 1..=d {
                        self.refresh_frontier(x.flip(p));
                    }
                }
            }
            None => {
                self.forest.add_node(x);
                let mut adj = std::mem::take(&mut self.scratch_adj);
                self.topo.neighbors_into(x, &mut adj);
                for &y in &adj {
                    self.safe_nbrs[y.index()] += 1;
                    if !self.contaminated.contains(y) {
                        self.forest.union(x, y);
                    }
                    if self.frontier_count > 0 {
                        self.refresh_frontier(y);
                    }
                }
                self.scratch_adj = adj;
            }
        }
        self.refresh_frontier(x);
    }

    /// `x` just flipped safe → contaminated: the forest may have split
    /// (mark it dirty) and the neighbours lost a safe neighbour — which may
    /// push them onto the frontier.
    fn disconnect_safe(&mut self, x: Node) {
        self.forest.mark_dirty();
        match self.hyper_dim {
            Some(d) => {
                for p in 1..=d {
                    let y = x.flip(p);
                    self.safe_nbrs[y.index()] -= 1;
                    self.refresh_frontier(y);
                }
            }
            None => {
                let mut adj = std::mem::take(&mut self.scratch_adj);
                self.topo.neighbors_into(x, &mut adj);
                for &y in &adj {
                    self.safe_nbrs[y.index()] -= 1;
                    self.refresh_frontier(y);
                }
                self.scratch_adj = adj;
            }
        }
        self.refresh_frontier(x);
    }

    fn decontaminate(&mut self, x: Node) {
        if self.contaminated.remove(x) {
            self.dirty_count -= 1;
            self.contamination_changes += 1;
            self.connect_safe(x);
        }
    }

    fn occupy(&mut self, x: Node) {
        self.occupancy[x.index()] += 1;
        self.guarded.insert(x);
        self.decontaminate(x);
        self.refresh_frontier(x);
    }

    /// Contamination floods into `x` (just vacated) if a contaminated
    /// neighbour exists, then cascades through unguarded nodes.
    fn maybe_recontaminate(&mut self, x: Node) {
        if self.contaminated.contains(x) || self.occupancy[x.index()] > 0 {
            return;
        }
        if self.safe_nbrs[x.index()] == self.degree_of(x) {
            return;
        }
        self.contaminated.insert(x);
        self.dirty_count += 1;
        // The spread that follows flips more nodes; one bump covers them.
        self.contamination_changes += 1;
        self.recontaminations.push((self.events_applied, x));
        self.disconnect_safe(x);
        match self.hyper_dim {
            Some(d) => self.spread_hyper(d, x),
            None => self.spread_generic(x),
        }
    }

    /// Word-parallel spread: each wave contaminates every unguarded safe
    /// neighbour of the previous wave, 64 nodes per word operation.
    fn spread_hyper(&mut self, d: u32, x: Node) {
        let mut frontier = std::mem::take(&mut self.scratch_frontier);
        let mut next = std::mem::take(&mut self.scratch_next);
        frontier.clear();
        frontier.insert(x);
        loop {
            frontier.hypercube_expand_into(d, &mut next);
            let grew = wide::flood_step(
                next.words_mut(),
                self.contaminated.words_mut(),
                self.guarded.words(),
            );
            if !grew {
                break;
            }
            self.dirty_count += next.count_ones();
            for y in next.iter() {
                self.recontaminations.push((self.events_applied, y));
                self.disconnect_safe(y);
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        self.scratch_frontier = frontier;
        self.scratch_next = next;
    }

    /// Per-node spread BFS through unguarded, currently-safe nodes.
    fn spread_generic(&mut self, x: Node) {
        let mut queue = std::mem::take(&mut self.scratch_queue);
        let mut nbrs = std::mem::take(&mut self.scratch_nbrs);
        queue.clear();
        queue.push_back(x);
        while let Some(u) = queue.pop_front() {
            self.topo.neighbors_into(u, &mut nbrs);
            for &y in &nbrs {
                if !self.contaminated.contains(y) && self.occupancy[y.index()] == 0 {
                    self.contaminated.insert(y);
                    self.dirty_count += 1;
                    self.recontaminations.push((self.events_applied, y));
                    self.disconnect_safe(y);
                    queue.push_back(y);
                }
            }
        }
        self.scratch_queue = queue;
        self.scratch_nbrs = nbrs;
    }

    /// Apply one event.
    ///
    /// # Panics
    ///
    /// If the event cannot happen where the agents stand (see
    /// [`IllegalEvent`]). [`Verifier::observe`](crate::Verifier::observe)
    /// refuses such an event instead.
    pub fn apply(&mut self, event: &Event) {
        if let Err(why) = self.try_apply(event) {
            panic!("illegal event {:?}: {why}", event.kind);
        }
    }

    /// Apply one event, or leave the field untouched and say why the event
    /// cannot happen where the agents stand.
    pub(crate) fn try_apply(&mut self, event: &Event) -> Result<(), IllegalEvent> {
        match event.kind {
            EventKind::Spawn { node, .. } => {
                self.check_node(node)?;
                self.events_applied += 1;
                self.occupy(node);
            }
            EventKind::Move { from, to, .. } => {
                self.check_leave(from, to)?;
                self.events_applied += 1;
                self.occupy(to);
                self.occupancy[from.index()] -= 1;
                if self.occupancy[from.index()] == 0 {
                    self.guarded.remove(from);
                    self.refresh_frontier(from);
                    self.maybe_recontaminate(from);
                }
            }
            EventKind::CloneSpawn { from, to, .. } => {
                self.check_leave(from, to)?;
                self.events_applied += 1;
                self.occupy(to);
            }
            EventKind::Terminate { node, .. } => {
                self.check_node(node)?;
                // The agent remains as a guard; nothing changes.
                self.events_applied += 1;
            }
        }
        Ok(())
    }

    /// `x` must be a node of the topology.
    #[inline]
    fn check_node(&self, x: Node) -> Result<(), IllegalEvent> {
        let nodes = self.occupancy.len();
        if x.index() < nodes {
            Ok(())
        } else {
            Err(IllegalEvent::OutOfRange {
                node: x.0,
                nodes: nodes as u64,
            })
        }
    }

    /// A move or clone from `from` to `to` must name two nodes of the
    /// topology, leave a node where an agent stands and, on `H_d`, cross
    /// one edge. Other topologies get no neighbour check, so the grid and
    /// dynamic-graph checkers pay no adjacency scan per event.
    #[inline]
    fn check_leave(&self, from: Node, to: Node) -> Result<(), IllegalEvent> {
        let legal = to.index() < self.occupancy.len()
            && self.occupancy.get(from.index()).is_some_and(|&k| k > 0)
            && (self.hyper_dim.is_none() || (from.0 ^ to.0).count_ones() == 1);
        if legal {
            Ok(())
        } else {
            Err(self.leave_illegality(from, to))
        }
    }

    /// Which rule an illegal move or clone breaks, in the order
    /// [`ContaminationField::check_leave`] lists them (`from` before `to`
    /// when both are out of range).
    #[cold]
    fn leave_illegality(&self, from: Node, to: Node) -> IllegalEvent {
        if let Err(out_of_range) = self.check_node(from).and(self.check_node(to)) {
            return out_of_range;
        }
        if self.occupancy[from.index()] == 0 {
            IllegalEvent::Vacant { node: from.0 }
        } else {
            IllegalEvent::NotAdjacent {
                from: from.0,
                to: to.0,
            }
        }
    }

    /// Occupancy of each node.
    pub fn occupancy(&self) -> &[u32] {
        &self.occupancy
    }

    /// The currently contaminated nodes, as a packed set.
    pub fn contaminated_set(&self) -> &NodeSet {
        &self.contaminated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersweep_sim::Role;
    use hypersweep_topology::Hypercube;

    fn ev(kind: EventKind) -> Event {
        Event { time: 0, kind }
    }

    fn spawn(agent: u32, node: u32) -> Event {
        ev(EventKind::Spawn {
            agent,
            node: Node(node),
            role: Role::Worker,
        })
    }

    fn mv(agent: u32, from: u32, to: u32) -> Event {
        ev(EventKind::Move {
            agent,
            from: Node(from),
            to: Node(to),
            role: Role::Worker,
        })
    }

    #[test]
    fn initial_state_fully_contaminated() {
        let h = Hypercube::new(3);
        let mut f = ContaminationField::new(&h, Node::ROOT);
        assert_eq!(f.contaminated_count(), 8);
        assert!(
            f.is_contiguous(),
            "empty safe region is trivially contiguous"
        );
        assert_eq!(f.clean_components(), 0);
    }

    #[test]
    fn spawn_decontaminates_the_homebase() {
        let h = Hypercube::new(3);
        let mut f = ContaminationField::new(&h, Node::ROOT);
        f.apply(&spawn(0, 0));
        assert!(!f.is_contaminated(Node::ROOT));
        assert!(f.is_guarded(Node::ROOT));
        assert_eq!(f.contaminated_count(), 7);
        assert_eq!(f.clean_components(), 1);
    }

    #[test]
    fn vacating_into_contamination_recontaminates() {
        // H_2: agent spawns at 00, moves to 01. 00 is vacated with
        // contaminated neighbour 10 → 00 is recontaminated.
        let h = Hypercube::new(2);
        let mut f = ContaminationField::new(&h, Node::ROOT);
        f.apply(&spawn(0, 0));
        f.apply(&mv(0, 0, 1));
        assert!(f.is_contaminated(Node(0)), "00 must be recontaminated");
        assert_eq!(f.recontaminations().len(), 1);
        assert!(!f.is_contaminated(Node(1)));
    }

    #[test]
    fn unguarded_frontier_agrees_with_instant_spread_semantics() {
        // Under the field's instant-spread rule a clean unguarded node
        // bordering contamination can never persist (it is recontaminated
        // the moment it arises), so the frontier oracle must stay empty
        // through a well-guarded sweep — on both the word-parallel
        // hypercube path and the generic-graph path.
        let h = Hypercube::new(2);
        let mut f = ContaminationField::new(&h, Node::ROOT);
        assert_eq!(f.unguarded_frontier(), None, "fully contaminated start");
        f.apply(&spawn(0, 0));
        f.apply(&spawn(1, 0));
        f.apply(&mv(1, 0, 1));
        assert_eq!(f.unguarded_frontier(), None, "both clean nodes guarded");
        f.apply(&mv(1, 1, 3));
        f.apply(&mv(1, 3, 2));
        assert!(f.all_clean());
        assert_eq!(f.unguarded_frontier(), None, "no contamination left");

        let g =
            hypersweep_topology::graph::AdjGraph::from_edges(4, &[(0, 1), (1, 3), (3, 2), (2, 0)]);
        let mut f = ContaminationField::new(&g, Node(0));
        f.apply(&spawn(0, 0));
        f.apply(&spawn(1, 0));
        f.apply(&mv(1, 0, 1));
        assert_eq!(f.unguarded_frontier(), None, "generic path agrees");
    }

    #[test]
    fn guard_blocks_recontamination() {
        // H_2 with two agents: one holds 00, the other tours. No
        // recontamination can occur while 00 stays guarded and the tour
        // only leaves nodes whose neighbours are safe.
        let h = Hypercube::new(2);
        let mut f = ContaminationField::new(&h, Node::ROOT);
        f.apply(&spawn(0, 0));
        f.apply(&spawn(1, 0));
        f.apply(&mv(1, 0, 1)); // 00 still guarded by agent 0
        f.apply(&mv(1, 1, 3)); // 01 vacated; neighbours 00 (guarded), 11 (now guarded) — but 11 only now occupied…
                               // Applying the move: 11 becomes occupied first, then 01 is vacated,
                               // so 01's neighbours are 00 (guarded, safe) and 11 (guarded):
                               // no recontamination.
        assert!(f.recontaminations().is_empty());
        assert!(f.is_clean(Node(1)));
        f.apply(&mv(1, 3, 2)); // 11 vacated; neighbours 01 (clean), 10 (now guarded)
        assert!(f.recontaminations().is_empty());
        assert!(f.all_clean());
    }

    #[test]
    fn cascade_spreads_through_unguarded_region() {
        // Path 0-1-2-3: guard at 1 separates {0} from {2,3}. Clean 0, then
        // lift the guard at 1 while 2 is contaminated: contamination floods
        // 1 and 0.
        let p = hypersweep_topology::graph::Path::new(4);
        let mut f = ContaminationField::new(&p, Node(0));
        f.apply(&spawn(0, 0));
        f.apply(&spawn(1, 0));
        f.apply(&mv(1, 0, 1));
        assert_eq!(f.contaminated_count(), 2); // 2 and 3
        f.apply(&mv(0, 0, 1)); // both agents at 1; 0 vacated but neighbour 1 is guarded
        assert!(!f.is_contaminated(Node(0)));
        f.apply(&mv(0, 1, 0));
        f.apply(&mv(1, 1, 0)); // 1 vacated: neighbour 2 contaminated → 1 catches, spreads to nothing else (0 guarded)
        assert!(f.is_contaminated(Node(1)));
        assert!(!f.is_contaminated(Node(0)));
        assert_eq!(f.contaminated_count(), 3);
    }

    #[test]
    fn hypercube_cascade_floods_the_unguarded_region() {
        // H_3: build a clean unguarded chain 000–010–011 behind guards,
        // then vacate 001 next to contaminated 101 — the flood must cascade
        // through the whole chain (two waves) via the word-parallel spread.
        let h = Hypercube::new(3);
        let mut f = ContaminationField::new(&h, Node::ROOT);
        for a in 0..4 {
            f.apply(&spawn(a, 0));
        }
        f.apply(&mv(1, 0b000, 0b001));
        f.apply(&mv(2, 0b000, 0b001));
        f.apply(&mv(2, 0b001, 0b011));
        f.apply(&mv(3, 0b000, 0b010));
        f.apply(&mv(0, 0b000, 0b100)); // 000 clean, unguarded; no spread
        f.apply(&mv(3, 0b010, 0b110)); // 010 clean, unguarded; no spread
        f.apply(&mv(2, 0b011, 0b111)); // 011 clean, unguarded; no spread
        assert!(f.recontaminations().is_empty());
        assert_eq!(f.contaminated_count(), 1); // only 101 left

        // 001 is vacated while 101 is contaminated: 001 catches, then the
        // flood runs 001 → 011 → 010 (000 stays guarded).
        f.apply(&mv(1, 0b001, 0b000));
        assert_eq!(f.recontaminations().len(), 3);
        assert!(f.is_contaminated(Node(0b001)));
        assert!(f.is_contaminated(Node(0b011)));
        assert!(f.is_contaminated(Node(0b010)));
        assert!(!f.is_contaminated(Node(0b000)));
        assert_eq!(f.contaminated_count(), 4);
    }

    #[test]
    fn contiguity_detects_split_regions() {
        // Ring of 6: clean nodes 0 and 3 without connecting them.
        let r = hypersweep_topology::graph::Ring::new(6);
        let mut f = ContaminationField::new(&r, Node(0));
        f.apply(&spawn(0, 0));
        assert!(f.is_contiguous());
        // Illegal teleport-style trace (only possible in a hand-written
        // trace — engines forbid it): an agent "spawns" at 3.
        f.apply(&spawn(1, 3));
        assert!(!f.is_contiguous(), "two islands must be flagged");
        assert_eq!(f.clean_components(), 2);
    }

    #[test]
    fn hypercube_contiguity_detects_split_regions() {
        // H_3: clean 000 and the far corner 111 without connecting them.
        let h = Hypercube::new(3);
        let mut f = ContaminationField::new(&h, Node::ROOT);
        f.apply(&spawn(0, 0));
        assert!(f.is_contiguous());
        f.apply(&spawn(1, 0b111));
        assert!(!f.is_contiguous(), "two islands must be flagged");
        assert_eq!(f.clean_components(), 2);
        // Bridging the islands merges the components incrementally.
        f.apply(&spawn(2, 0b001));
        f.apply(&spawn(3, 0b011));
        assert!(f.is_contiguous(), "bridge 000-001-011-111 reconnects");
        assert_eq!(f.clean_components(), 1);
    }

    #[test]
    #[should_panic(expected = "no agent stands on node 2 to leave it")]
    fn apply_panics_on_an_illegal_event() {
        // The verifier refuses illegal events; a direct caller gets a
        // panic, not an occupancy count wrapped below zero.
        let h = Hypercube::new(3);
        let mut f = ContaminationField::new(&h, Node::ROOT);
        f.apply(&spawn(0, 0));
        f.apply(&mv(1, 2, 3));
    }

    #[test]
    #[should_panic(expected = "the edges of H_d never change")]
    fn edge_hooks_refuse_the_hypercube() {
        let h = Hypercube::new(3);
        let mut f = ContaminationField::new(&h, Node::ROOT);
        f.apply(&spawn(0, 0));
        f.edge_inserted(Node(0), Node(3));
    }

    #[test]
    #[should_panic(expected = "the edges of H_d never change")]
    fn verifier_edge_hooks_refuse_the_hypercube() {
        let h = Hypercube::new(3);
        crate::Verifier::new(&h, Node::ROOT, 1).edge_removed(Node(0), Node(1));
    }

    #[test]
    fn terminate_keeps_the_guard() {
        let h = Hypercube::new(2);
        let mut f = ContaminationField::new(&h, Node::ROOT);
        f.apply(&spawn(0, 0));
        f.apply(&ev(EventKind::Terminate {
            agent: 0,
            node: Node(0),
        }));
        assert!(f.is_guarded(Node::ROOT));
        assert!(!f.is_contaminated(Node::ROOT));
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        // Run a trace, recycle the scratch into a new field (same and then
        // different universe), and demand identical behaviour.
        let trace = [spawn(0, 0), spawn(1, 0), mv(1, 0, 1), mv(1, 1, 3)];
        let h = Hypercube::new(2);
        let mut fresh = ContaminationField::new(&h, Node::ROOT);
        for e in &trace {
            fresh.apply(e);
        }
        let scratch = fresh.into_scratch();
        let mut reused = ContaminationField::new_in(&h, Node::ROOT, scratch);
        let mut fresh2 = ContaminationField::new(&h, Node::ROOT);
        for e in &trace {
            reused.apply(e);
            fresh2.apply(e);
            assert_eq!(reused.contaminated_count(), fresh2.contaminated_count());
            assert_eq!(reused.is_contiguous(), fresh2.is_contiguous());
            assert_eq!(reused.unguarded_frontier(), fresh2.unguarded_frontier());
        }
        // And across universes: H_2 scratch reused on H_3.
        let h3 = Hypercube::new(3);
        let mut grown = ContaminationField::new_in(&h3, Node::ROOT, reused.into_scratch());
        grown.apply(&spawn(0, 0));
        assert_eq!(grown.contaminated_count(), 7);
        assert!(grown.is_contiguous());
    }

    /// `(safe set, occupancy)` snapshot of a field, as the dynamic-graph
    /// scenario takes between rounds.
    fn snapshot<T: Topology + ?Sized>(f: &ContaminationField<'_, T>) -> (NodeSet, Vec<u32>) {
        let n = f.occupancy().len();
        let mut safe = NodeSet::new(n);
        for i in 0..n as u32 {
            if !f.is_contaminated(Node(i)) {
                safe.insert(Node(i));
            }
        }
        (safe, f.occupancy().to_vec())
    }

    #[test]
    fn with_state_restores_a_snapshot_onto_the_same_adjacency() {
        use hypersweep_topology::graph::AdjGraph;
        let g = AdjGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut f = ContaminationField::new(&g, Node(0));
        f.apply(&spawn(0, 0));
        f.apply(&spawn(1, 0));
        f.apply(&mv(1, 0, 1)); // 0 guarded by agent 0, 1 guarded by agent 1
        let (safe, occupancy) = snapshot(&f);

        let mut same = ContaminationField::with_state(&g, Node(0), &safe, &occupancy);
        assert_eq!(same.contaminated_count(), f.contaminated_count());
        assert_eq!(same.is_contiguous(), f.is_contiguous());
        assert_eq!(same.unguarded_frontier(), f.unguarded_frontier());
        assert!(same.is_guarded(Node(1)));
        assert_eq!(same.clean_components(), 1);
    }

    #[test]
    fn with_state_sees_mutation_exposed_frontier() {
        // Path 0-1-2-3: after the sweep reaches 2, node 1 is safe,
        // unguarded, and interior. An adversarial edge insertion 1-3
        // puts contaminated 3 next to it — the restored field must
        // surface node 1 as an unguarded frontier immediately.
        use hypersweep_topology::graph::AdjGraph;
        let g = AdjGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut f = ContaminationField::new(&g, Node(0));
        f.apply(&spawn(0, 0));
        f.apply(&spawn(1, 0));
        f.apply(&mv(1, 0, 1));
        f.apply(&mv(1, 1, 2)); // 1 vacated: nbrs 0 (guarded), 2 (now guarded)
        assert!(f.recontaminations().is_empty());
        let (safe, occupancy) = snapshot(&f);
        assert_eq!(f.unguarded_frontier(), None, "1 is interior");

        let mut mutated = AdjGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        mutated.add_edge(Node(1), Node(3));
        let restored = ContaminationField::with_state(&mutated, Node(0), &safe, &occupancy);
        assert_eq!(
            restored.unguarded_frontier(),
            Some(Node(1)),
            "the inserted edge 1-3 must expose node 1"
        );
    }

    #[test]
    fn with_state_keeps_interior_clean_nodes_off_the_frontier() {
        // Restoring a snapshot cleans nodes one at a time while the
        // frontier is not empty, so each cleaning must take its neighbours
        // off the frontier once they stop bordering contamination. Path
        // 0-1-2-3 swept to 2: node 1 is clean, unguarded and interior.
        use hypersweep_topology::graph::AdjGraph;
        let g = AdjGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut f = ContaminationField::new(&g, Node(0));
        f.apply(&spawn(0, 0));
        f.apply(&spawn(1, 0));
        f.apply(&mv(1, 0, 1));
        f.apply(&mv(1, 1, 2));
        let (safe, occupancy) = snapshot(&f);
        let restored = ContaminationField::with_state(&g, Node(0), &safe, &occupancy);
        assert_eq!(restored.unguarded_frontier(), None);
        // The same on H_2: 00 and 11 guard contaminated 10, 01 is interior.
        let h = Hypercube::new(2);
        let mut safe = NodeSet::new(4);
        for x in [0b00, 0b01, 0b11] {
            safe.insert(Node(x));
        }
        let mut restored = ContaminationField::with_state(&h, Node::ROOT, &safe, &[1, 0, 0, 1]);
        assert_eq!(restored.unguarded_frontier(), None);
        assert!(restored.is_contiguous());
    }
}
