//! Incremental connectivity over the decontaminated (clean ∪ guarded)
//! region.
//!
//! The paper's *contiguity* requirement (§1.2) asks, after every event,
//! whether the decontaminated region is connected and contains the
//! homebase. Re-deriving that with a whole-field BFS costs `O(d · n/64)`
//! words per query even word-parallel, which is what made packed audit
//! throughput decay superlinearly with the dimension (BENCH_audit.json:
//! 45M events/s at `d = 10`, 414k at `d = 16` — the periodic BFS dominated
//! everything else).
//!
//! A [`SafeForest`] instead *maintains* the connected components of the
//! safe region as events are applied:
//!
//! * **Insertions** (a node is decontaminated) are handled with a
//!   union-find (path-halving find, union by rank): the new node starts
//!   its own component and is unioned with each already-safe neighbour,
//!   `O(α · Δ)` per event. On the hypercube the caller enumerates
//!   neighbours by port flips, so the insert path allocates nothing.
//!   While the region is one clean component, a hypercube insertion with
//!   a safe neighbour skips the unions: the node is adopted directly under
//!   the component's root ([`SafeForest::adopt`]), one find in all. Every
//!   insertion of a monotone, contiguous run but the first takes this path,
//!   so such a run pays `O(d)` counter updates and one short find per
//!   cleaned node.
//! * **Deletions** (recontamination) can split components, which
//!   union-find cannot track incrementally; the forest instead marks
//!   itself *dirty* and is rebuilt from the contamination bitset on the
//!   next query. Monotone strategies never recontaminate, so correct runs
//!   never pay the rebuild; adversarial traces pay it at most once per
//!   query, which is no worse than a whole-field BFS on *every* query.
//!
//! With the component count maintained, the contiguity oracle collapses to
//! two integer comparisons: `components == 1` and "the homebase is safe".
//! The whole-field BFS survives as the differential tests' reference, in
//! `hypersweep-testutil`.

use hypersweep_topology::Node;

/// Union-find over the safe region, with component counting and a dirty
/// flag for deletion-triggered rebuilds.
#[derive(Clone, Debug)]
pub struct SafeForest {
    /// Union-find parent; `parent[i] == i` for component roots. Entries of
    /// nodes outside the region are stale and must not be consulted.
    parent: Vec<u32>,
    /// Union-by-rank heuristic.
    rank: Vec<u8>,
    /// Number of connected components among tracked nodes. Meaningless
    /// while [`SafeForest::is_dirty`].
    components: usize,
    /// Set when a tracked node was deleted; cleared by a rebuild.
    dirty: bool,
}

impl SafeForest {
    /// An empty forest over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        SafeForest {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: 0,
            dirty: false,
        }
    }

    /// Reset to the empty forest over `0..n`, reusing allocations.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.components = 0;
        self.dirty = false;
    }

    /// Number of connected components among tracked (safe) nodes. Only
    /// meaningful when the forest is not dirty.
    #[inline]
    pub fn components(&self) -> usize {
        self.components
    }

    /// Whether a deletion invalidated the structure (a rebuild is due).
    #[inline]
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// A tracked node was deleted: component structure is unknown until
    /// the next [`SafeForest::begin_rebuild`].
    #[inline]
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Start tracking `x` as its own singleton component.
    #[inline]
    pub fn add_node(&mut self, x: Node) {
        let i = x.index();
        self.parent[i] = x.0;
        self.rank[i] = 0;
        self.components += 1;
    }

    /// Root of `x`'s component, with path halving.
    #[inline]
    pub fn find(&mut self, x: Node) -> Node {
        let mut i = x.index();
        loop {
            let p = self.parent[i] as usize;
            if p == i {
                return Node(i as u32);
            }
            let gp = self.parent[p];
            self.parent[i] = gp;
            i = gp as usize;
        }
    }

    /// Merge the components of `x` and `y`; returns whether they were
    /// distinct (and decrements the component count if so).
    pub fn union(&mut self, x: Node, y: Node) -> bool {
        let rx = self.find(x);
        let ry = self.find(y);
        if rx == ry {
            return false;
        }
        let (hi, lo) = if self.rank[rx.index()] >= self.rank[ry.index()] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.parent[lo.index()] = hi.0;
        if self.rank[hi.index()] == self.rank[lo.index()] {
            self.rank[hi.index()] += 1;
        }
        self.components -= 1;
        true
    }

    /// Begin a rebuild: forget all components (tracked nodes are about to
    /// be re-added via [`SafeForest::add_node`] / [`SafeForest::adopt`])
    /// and clear the dirty flag.
    pub fn begin_rebuild(&mut self) {
        self.components = 0;
        self.dirty = false;
    }

    /// Place `x` directly under component root `root` (which must already
    /// be added), without touching the component count. The rebuild adopts
    /// each flooded node under its component's seed; an insertion into the
    /// only component adopts the new node under that component's root.
    #[inline]
    pub fn adopt(&mut self, x: Node, root: Node) {
        self.parent[x.index()] = root.0;
        self.rank[x.index()] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions_track_components() {
        let mut f = SafeForest::new(8);
        assert_eq!(f.components(), 0);
        for i in 0..4 {
            f.add_node(Node(i));
        }
        assert_eq!(f.components(), 4);
        assert!(f.union(Node(0), Node(1)));
        assert!(f.union(Node(2), Node(3)));
        assert_eq!(f.components(), 2);
        assert!(!f.union(Node(1), Node(0)), "already merged");
        assert!(f.union(Node(1), Node(3)));
        assert_eq!(f.components(), 1);
        assert_eq!(f.find(Node(0)), f.find(Node(3)));
    }

    #[test]
    fn dirty_flag_survives_until_rebuild() {
        let mut f = SafeForest::new(4);
        f.add_node(Node(0));
        f.add_node(Node(1));
        f.mark_dirty();
        assert!(f.is_dirty());
        f.begin_rebuild();
        assert!(!f.is_dirty());
        assert_eq!(f.components(), 0);
    }

    #[test]
    fn reset_reuses_the_forest_for_a_new_universe() {
        let mut f = SafeForest::new(4);
        f.add_node(Node(0));
        f.mark_dirty();
        f.reset(8);
        assert_eq!(f.components(), 0);
        assert!(!f.is_dirty());
        f.add_node(Node(7));
        assert_eq!(f.find(Node(7)), Node(7));
    }
}
