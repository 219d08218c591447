//! Whole-field references for the contamination field's region oracles.
//!
//! [`ContaminationField`] answers contiguity and frontier coverage from
//! incrementally maintained state. These functions re-derive both from the
//! field's public contaminated set, occupancy and homebase, so differential
//! tests can hold the two equal after every event. On `H_d` they run
//! word-parallel, which keeps the synthesized-trace sweep to `d = 10`
//! affordable; elsewhere they walk one node at a time.

use std::collections::VecDeque;

use hypersweep_intruder::ContaminationField;
use hypersweep_topology::{wide, Node, NodeSet, Topology};

/// Whether the decontaminated region of `field` on `topo` is connected and
/// contains the homebase (trivially so when everything is contaminated),
/// by a BFS over the safe region from the homebase: the reference for
/// [`ContaminationField::is_contiguous`].
pub fn is_contiguous_bfs<T: Topology + ?Sized>(
    topo: &T,
    field: &ContaminationField<'_, T>,
) -> bool {
    let (contaminated, home) = (field.contaminated_set(), field.homebase());
    let n = topo.node_count();
    if contaminated.count_ones() == n {
        return true;
    }
    if contaminated.contains(home) {
        return false;
    }
    let mut reached = NodeSet::new(n);
    reached.insert(home);
    match topo.hypercube_dim() {
        // Expand whole frontier words through the safe region to a fixpoint.
        Some(d) => {
            let (mut frontier, mut next) = (reached.clone(), NodeSet::new(n));
            loop {
                frontier.hypercube_expand_into(d, &mut next);
                if !wide::flood_step(next.words_mut(), reached.words_mut(), contaminated.words()) {
                    break;
                }
                std::mem::swap(&mut frontier, &mut next);
            }
        }
        None => {
            let (mut queue, mut nbrs) = (VecDeque::from([home]), Vec::new());
            while let Some(x) = queue.pop_front() {
                topo.neighbors_into(x, &mut nbrs);
                for &y in &nbrs {
                    if !contaminated.contains(y) && reached.insert(y) {
                        queue.push_back(y);
                    }
                }
            }
        }
    }
    reached.count_ones() + contaminated.count_ones() == n
}

/// Some clean (decontaminated, unguarded) node of `field` on `topo` with a
/// contaminated neighbour, or `None` when guards cover the whole frontier:
/// the reference for [`ContaminationField::unguarded_frontier`], up to the
/// choice of witness. On `H_d` the contaminated set's neighbourhood is
/// masked by the contaminated and guarded sets a word at a time.
pub fn unguarded_frontier_scan<T: Topology + ?Sized>(
    topo: &T,
    field: &ContaminationField<'_, T>,
) -> Option<Node> {
    let (contaminated, occupancy) = (field.contaminated_set(), field.occupancy());
    let Some(d) = topo.hypercube_dim() else {
        let mut nbrs = Vec::new();
        let clean = |y: &Node| !contaminated.contains(*y) && occupancy[y.index()] == 0;
        return contaminated.iter().find_map(|x| {
            topo.neighbors_into(x, &mut nbrs);
            nbrs.iter().copied().find(clean)
        });
    };
    let (mut guarded, mut next) = (NodeSet::new(occupancy.len()), NodeSet::new(occupancy.len()));
    for i in (0..occupancy.len()).filter(|&i| occupancy[i] > 0) {
        guarded.insert(Node(i as u32));
    }
    contaminated.hypercube_expand_into(d, &mut next);
    wide::mask_clear2(next.words_mut(), contaminated.words(), guarded.words());
    let hit = next.iter().next();
    hit
}
