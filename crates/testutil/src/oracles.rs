//! Whole-field references for the contamination field's answers.
//!
//! [`ContaminationField`] answers contiguity, frontier coverage, component
//! count and every node's safe-neighbour count from incrementally
//! maintained state. These functions re-derive each from the field's
//! public contaminated set, occupancy and homebase on the topology's
//! current adjacency, so differential tests can hold the two equal after
//! every event and every edge change. On `H_d` the contiguity and frontier
//! references run word-parallel, which keeps the synthesized-trace sweep
//! to `d = 10` affordable; elsewhere they walk one node at a time.

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

/// Every node's count of decontaminated neighbours and its degree, by a
/// scan of each adjacency list of `topo`: the reference for
/// [`ContaminationField::safe_neighbours`], and, as "fewer safe
/// neighbours than neighbours", for
/// [`ContaminationField::borders_contamination`].
pub fn safe_neighbour_scan<T: Topology + ?Sized>(
    topo: &T,
    field: &ContaminationField<'_, T>,
) -> Vec<(u32, u32)> {
    let contaminated = field.contaminated_set();
    let mut nbrs = Vec::new();
    (0..topo.node_count() as u32)
        .map(|i| {
            topo.neighbors_into(Node(i), &mut nbrs);
            let safe = nbrs.iter().filter(|&&y| !contaminated.contains(y)).count();
            (safe as u32, nbrs.len() as u32)
        })
        .collect()
}

/// The number of connected components of the decontaminated region of
/// `field` on `topo` (`0` when everything is contaminated), by one BFS per
/// component: the reference for [`ContaminationField::clean_components`].
pub fn clean_components_bfs<T: Topology + ?Sized>(
    topo: &T,
    field: &ContaminationField<'_, T>,
) -> usize {
    let contaminated = field.contaminated_set();
    let mut reached = NodeSet::new(topo.node_count());
    let (mut queue, mut nbrs) = (VecDeque::new(), Vec::new());
    let mut components = 0;
    for seed in (0..topo.node_count() as u32).map(Node) {
        if contaminated.contains(seed) || !reached.insert(seed) {
            continue;
        }
        components += 1;
        queue.push_back(seed);
        while let Some(x) = queue.pop_front() {
            topo.neighbors_into(x, &mut nbrs);
            for &y in &nbrs {
                if !contaminated.contains(y) && reached.insert(y) {
                    queue.push_back(y);
                }
            }
        }
    }
    components
}
