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
//!   neighbours by port flips, so the insert path allocates nothing, and
//!   the forest additionally records the *attachment port* — the port
//!   (`1..=d`) over which each node first touched the existing region — as
//!   one byte per node. The attachment ports form a spanning forest of the
//!   insertion order whose root-ward walks stay inside the safe region, a
//!   compact certificate that the differential tests cross-validate.
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
//!   query, which is no worse than the whole-field BFS they previously
//!   paid on *every* query.
//!
//! With the component count maintained, the contiguity oracle collapses to
//! two integer comparisons: `components == 1` and "the homebase is safe".

use hypersweep_topology::Node;

/// Attachment-port marker: the node is a root of its attachment tree (it
/// had no safe neighbour when it was decontaminated). Real ports are
/// `1..=d`.
pub const PORT_ROOT: u8 = 0;

/// Attachment-port marker: the node is not currently tracked as safe.
pub const PORT_NONE: u8 = u8::MAX;

/// Union-find over the safe region, with component counting, a dirty flag
/// for deletion-triggered rebuilds, and (on the hypercube) the per-node
/// attachment-port record.
#[derive(Clone, Debug)]
pub struct SafeForest {
    /// Union-find parent; `parent[i] == i` for component roots. Entries of
    /// nodes outside the region are stale and must not be consulted.
    parent: Vec<u32>,
    /// Union-by-rank heuristic.
    rank: Vec<u8>,
    /// Hypercube only (empty otherwise): the port over which each node
    /// attached to the region, [`PORT_ROOT`] for attachment roots,
    /// [`PORT_NONE`] outside the region.
    attach_port: Vec<u8>,
    /// Number of connected components among tracked nodes. Meaningless
    /// while [`SafeForest::is_dirty`].
    components: usize,
    /// Set when a tracked node was deleted; cleared by a rebuild.
    dirty: bool,
}

impl SafeForest {
    /// An empty forest over the universe `0..n`. `hypercube` enables the
    /// attachment-port record.
    pub fn new(n: usize, hypercube: bool) -> Self {
        SafeForest {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            attach_port: if hypercube {
                vec![PORT_NONE; n]
            } else {
                Vec::new()
            },
            components: 0,
            dirty: false,
        }
    }

    /// Reset to the empty forest over `0..n`, reusing allocations.
    pub fn reset(&mut self, n: usize, hypercube: bool) {
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.attach_port.clear();
        if hypercube {
            self.attach_port.resize(n, PORT_NONE);
        }
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
        if !self.attach_port.is_empty() {
            self.attach_port[i] = PORT_ROOT;
        }
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

    /// Record that `x` first touched the region over `port` (hypercube
    /// only; no-op otherwise). Only the first attachment is kept, so the
    /// record stays a forest of the insertion order.
    #[inline]
    pub fn set_attach_port(&mut self, x: Node, port: u32) {
        if let Some(slot) = self.attach_port.get_mut(x.index()) {
            if *slot == PORT_ROOT {
                *slot = port as u8;
            }
        }
    }

    /// The recorded attachment port of `x`: `None` outside the region or
    /// on non-hypercube fabrics, `Some(0)` for attachment roots,
    /// `Some(1..=d)` otherwise.
    pub fn attach_port(&self, x: Node) -> Option<u32> {
        match self.attach_port.get(x.index()) {
            None | Some(&PORT_NONE) => None,
            Some(&p) => Some(u32::from(p)),
        }
    }

    /// Begin a rebuild: forget all components (tracked nodes are about to
    /// be re-added via [`SafeForest::add_node`] / [`SafeForest::adopt`])
    /// and clear the dirty flag.
    pub fn begin_rebuild(&mut self) {
        self.components = 0;
        self.dirty = false;
        for p in &mut self.attach_port {
            *p = PORT_NONE;
        }
    }

    /// Place `x` directly under component root `root` (which must already
    /// be added) and record its attachment `port`, without touching the
    /// component count. Unlike [`SafeForest::set_attach_port`], the port is
    /// written unconditionally. The rebuild adopts each flooded node (after
    /// [`SafeForest::begin_rebuild`] every slot is [`PORT_NONE`] and the
    /// flood visits each node exactly once); an insertion into the only
    /// component adopts the new node under that component's root.
    #[inline]
    pub fn adopt(&mut self, x: Node, root: Node, port: u8) {
        self.parent[x.index()] = root.0;
        self.rank[x.index()] = 0;
        if !self.attach_port.is_empty() {
            self.attach_port[x.index()] = port;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions_track_components() {
        let mut f = SafeForest::new(8, false);
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
        let mut f = SafeForest::new(4, true);
        f.add_node(Node(0));
        f.add_node(Node(1));
        f.set_attach_port(Node(1), 1);
        assert_eq!(f.attach_port(Node(1)), Some(1));
        assert_eq!(f.attach_port(Node(2)), None);
        f.mark_dirty();
        assert!(f.is_dirty());
        f.begin_rebuild();
        assert!(!f.is_dirty());
        assert_eq!(f.components(), 0);
        assert_eq!(f.attach_port(Node(1)), None, "rebuild clears attachments");
    }

    #[test]
    fn attach_port_keeps_the_first_attachment() {
        let mut f = SafeForest::new(4, true);
        f.add_node(Node(2));
        f.set_attach_port(Node(2), 3);
        f.set_attach_port(Node(2), 1);
        assert_eq!(f.attach_port(Node(2)), Some(3));
    }

    #[test]
    fn reset_reuses_the_forest_for_a_new_universe() {
        let mut f = SafeForest::new(4, true);
        f.add_node(Node(0));
        f.mark_dirty();
        f.reset(8, false);
        assert_eq!(f.components(), 0);
        assert!(!f.is_dirty());
        assert_eq!(f.attach_port(Node(0)), None);
        f.add_node(Node(7));
        assert_eq!(f.find(Node(7)), Node(7));
    }
}
