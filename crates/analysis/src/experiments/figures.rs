//! F1–F4: the paper's structural figures, regenerated.

use hypersweep_core::{CleanStrategy, SearchStrategy, VisibilityStrategy};
use hypersweep_sim::EventKind;
use hypersweep_topology::{
    combinatorics as comb, render, BroadcastTree, HeapQueue, Hypercube, Node,
};

use crate::cache::{RunCache, RunKey};
use crate::result::ExperimentResult;
use crate::runner::ExperimentConfig;
use crate::series::Series;
use crate::table::Table;

/// Dimension of the structural figures F1 and F3 and of T2's per-phase
/// table: the paper draws `H_6`.
pub(crate) const FIGURE_DIM: u32 = 6;

/// Dimension of the order and wavefront figures F2 and F4: the paper draws
/// `H_4`.
const SMALL_FIGURE_DIM: u32 = 4;

/// Cap on F1's heap-queue isomorphism sweep (`O(n log n)` work per
/// dimension; structural, so large `d` adds cost without insight).
const HEAP_ISO_MAX_DIM: u32 = 12;

/// The figure experiments keep no cached runs: F1/F3 are structural and
/// F2/F4 need raw event traces (`synthesize`), which the cache does not
/// store.
pub fn required_runs(_id: &str, _cfg: &ExperimentConfig) -> Vec<RunKey> {
    Vec::new()
}

/// F1 (Figure 1): the broadcast tree of `H_d` is the heap queue `T(d)`.
pub fn f1_broadcast_tree(cfg: &ExperimentConfig, _runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "f1",
        "broadcast tree T(d) of H_d (Figure 1)",
        "the broadcast spanning tree of a hypercube of size n is a heap queue T(log n), \
         with Property 1's type census per level",
    );
    // Structural isomorphism for every fast dimension.
    let mut iso_ok = true;
    for d in 0..=cfg.fast_max_dim().min(HEAP_ISO_MAX_DIM) {
        let tree = BroadcastTree::new(Hypercube::new(d));
        let hq = HeapQueue::build(d);
        iso_ok &= hq.matches_broadcast_subtree(&tree, Node::ROOT);
    }
    r.notes.push(format!(
        "heap-queue isomorphism verified for d = 0..={}: {}",
        cfg.fast_max_dim().min(HEAP_ISO_MAX_DIM),
        if iso_ok { "OK" } else { "FAILED" }
    ));
    // The figure itself (the paper draws d = 6).
    let d = FIGURE_DIM;
    r.artifacts
        .push(render::render_broadcast_tree(Hypercube::new(d)));
    r.artifacts
        .push(render::render_type_census(Hypercube::new(d)));
    // Property 1 table: measured census vs C(d−k−1, l−1).
    let cube = Hypercube::new(d);
    let tree = BroadcastTree::new(cube);
    let mut table = Table::new(
        format!("type census of the broadcast tree of H_{d} vs Property 1"),
        &["level", "type", "measured", "predicted"],
    );
    let mut census = vec![vec![0u64; d as usize + 1]; d as usize + 1];
    for x in cube.nodes() {
        census[x.level() as usize][tree.node_type(x) as usize] += 1;
    }
    for l in 0..=d {
        for k in 0..=d {
            let predicted = comb::type_count_at_level(d, l, k);
            let measured = census[l as usize][k as usize];
            if predicted > 0 || measured > 0 {
                table.push_row(vec![
                    l.to_string(),
                    format!("T({k})"),
                    measured.to_string(),
                    predicted.to_string(),
                ]);
            }
        }
    }
    r.tables.push(table);
    // Series: leaves per level (Property 2's shape).
    let mut s = Series::new(format!("leaves of T({d}) per level"));
    for l in 0..=d {
        s.push(u64::from(l), comb::leaves_at_level(d, l) as f64);
    }
    r.series.push(s);
    r
}

/// First-visit order of nodes from a trace.
fn first_visit_order(events: &[hypersweep_sim::Event]) -> Vec<(u64, Node)> {
    let mut seen = std::collections::HashSet::new();
    let mut order = Vec::new();
    for e in events {
        let node = match e.kind {
            EventKind::Spawn { node, .. } => node,
            EventKind::Move { to, .. } => to,
            EventKind::CloneSpawn { to, .. } => to,
            EventKind::Terminate { .. } => continue,
        };
        if seen.insert(node) {
            order.push((e.time, node));
        }
    }
    order
}

/// F2 (Figure 2): the order in which Algorithm CLEAN cleans `H_4`.
pub fn f2_clean_order(_cfg: &ExperimentConfig, _runs: &RunCache) -> ExperimentResult {
    let d = SMALL_FIGURE_DIM;
    let mut r = ExperimentResult::new(
        "f2",
        format!("cleaning order of Algorithm CLEAN on H_{d} (Figure 2)"),
        "the synchronizer sweeps each level in lexicographic order; nodes are first visited \
         level by level",
    );
    let strategy = CleanStrategy::new(Hypercube::new(d));
    let outcome = strategy.fast(true);
    assert!(outcome.is_complete(), "CLEAN must complete for the figure");
    let mut events = Vec::new();
    strategy.synthesize_into(&mut events);
    let order = first_visit_order(&events);
    let mut artifact = format!("first-visit order of H_{d} under CLEAN:\n");
    for (rank, (_, node)) in order.iter().enumerate() {
        artifact.push_str(&format!(
            "{:>3}. {}  (level {})\n",
            rank,
            node.bitstring(d),
            node.level()
        ));
    }
    r.artifacts.push(artifact);
    // Check the figure's invariant: visit ranks are sorted by level.
    let levels: Vec<u32> = order.iter().map(|(_, n)| n.level()).collect();
    let monotone_levels = levels.windows(2).all(|w| w[1] >= w[0]);
    r.notes.push(format!(
        "nodes are first visited in non-decreasing level order: {}",
        if monotone_levels { "OK" } else { "VIOLATED" }
    ));
    r
}

/// F3 (Figure 3): the msb classes `C_0 … C_d`.
pub fn f3_msb_classes(_cfg: &ExperimentConfig, _runs: &RunCache) -> ExperimentResult {
    let d = FIGURE_DIM;
    let mut r = ExperimentResult::new(
        "f3",
        format!("msb classes C_i of H_{d} (Figure 3)"),
        "|C_0| = 1 and |C_i| = 2^(i-1) (Property 5); all broadcast-tree leaves lie in C_d \
         (Property 6)",
    );
    r.artifacts
        .push(render::render_msb_classes(Hypercube::new(d)));
    let cube = Hypercube::new(d);
    let tree = BroadcastTree::new(cube);
    let mut table = Table::new(
        format!("msb class sizes of H_{d}"),
        &["i", "measured |C_i|", "predicted", "leaves in C_i"],
    );
    for i in 0..=d {
        let members = tree.msb_class_nodes(i);
        let leaves = members.iter().filter(|x| tree.is_leaf(**x)).count();
        table.push_row(vec![
            i.to_string(),
            members.len().to_string(),
            comb::msb_class_size(i).to_string(),
            leaves.to_string(),
        ]);
    }
    r.tables.push(table);
    let mut s = Series::new(format!("|C_i| in H_{d}"));
    for i in 0..=d {
        s.push(u64::from(i), comb::msb_class_size(i) as f64);
    }
    r.series.push(s);
    r
}

/// F4 (Figure 4): the visibility strategy's wavefront cleaning order.
pub fn f4_visibility_wavefront(_cfg: &ExperimentConfig, _runs: &RunCache) -> ExperimentResult {
    let d = SMALL_FIGURE_DIM;
    let mut r = ExperimentResult::new(
        "f4",
        format!("wavefront order of CLEAN WITH VISIBILITY on H_{d} (Figure 4)"),
        "nodes are cleaned in parallel waves: exactly the class C_i is reached at time i \
         (Theorem 7's wavefront)",
    );
    let strategy = VisibilityStrategy::new(Hypercube::new(d));
    let mut events = Vec::new();
    strategy.synthesize_into(&mut events);
    let tree = BroadcastTree::new(Hypercube::new(d));
    // A node becomes *clean* when its agents depart (its dispatch round);
    // the leaves C_d become clean at the final time d, when the whole top
    // class is guarded. Our rounds are the paper's times shifted by one.
    let mut vacated: std::collections::BTreeMap<Node, u64> = Default::default();
    for e in &events {
        if let EventKind::Move { from, .. } = e.kind {
            let t = vacated.entry(from).or_insert(e.time);
            *t = (*t).max(e.time);
        }
    }
    let mut by_time: std::collections::BTreeMap<u64, Vec<Node>> = Default::default();
    for (n, round) in &vacated {
        by_time.entry(round - 1).or_default().push(*n);
    }
    by_time
        .entry(u64::from(d))
        .or_default()
        .extend(tree.leaves());
    let mut artifact = format!("cleaning wavefronts of H_{d} under CLEAN WITH VISIBILITY:\n");
    let mut wave_ok = true;
    for (t, nodes) in &by_time {
        let labels: Vec<String> = nodes.iter().map(|n| n.bitstring(d)).collect();
        artifact.push_str(&format!("t = {t}: {}\n", labels.join(" ")));
        for n in nodes {
            // Theorem 7: the wave cleaned at time t is exactly class C_t.
            wave_ok &= u64::from(tree.msb_class(*n)) == *t;
        }
    }
    r.artifacts.push(artifact);
    r.notes.push(format!(
        "the wave cleaned at time t is exactly class C_t (leaves settle at t = d): {}",
        if wave_ok { "OK" } else { "VIOLATED" }
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::quick()
    }

    #[test]
    fn f1_verifies_isomorphism_and_census() {
        let r = f1_broadcast_tree(&cfg(), &RunCache::new());
        assert!(r.notes[0].contains("OK"));
        assert!(!r.tables[0].rows.is_empty());
        assert_eq!(r.artifacts.len(), 2);
    }

    #[test]
    fn f2_visits_levels_in_order() {
        let r = f2_clean_order(&cfg(), &RunCache::new());
        assert!(r.notes[0].contains("OK"), "{:?}", r.notes);
        // H_4: 16 visit lines + header.
        assert_eq!(r.artifacts[0].lines().count(), 17);
    }

    #[test]
    fn f3_class_sizes_match() {
        let r = f3_msb_classes(&cfg(), &RunCache::new());
        for row in &r.tables[0].rows {
            assert_eq!(row[1], row[2], "measured vs predicted |C_i|");
        }
    }

    #[test]
    fn f4_wavefront_is_exactly_the_classes() {
        let r = f4_visibility_wavefront(&cfg(), &RunCache::new());
        assert!(r.notes[0].contains("OK"), "{:?}", r.notes);
    }
}
