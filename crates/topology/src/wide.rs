//! Word kernels over packed node sets.
//!
//! `NodeSet` population counts and the `ContaminationField` spread and
//! rebuild wave floods bottom out in these passes over `&[u64]` words.
//! Each is one loop over single words on purpose: the paper's strategies
//! never recontaminate, so the floods run only on negative controls and
//! reference checks, and unrolling them measured no end-to-end gain (see
//! EXPERIMENTS.md). The per-node checks in
//! `topology/tests/per_node_kernels.rs` hold every kernel to its per-bit
//! semantics.

/// Population count over a word slice.
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// One wave of an accumulating flood: `next &= !acc & !blocked; acc |=
/// next`. Returns whether any bit survived (the flood grew).
///
/// This is the fused inner step of every hypercube wave flood: the
/// connectivity forest's rebuild and the reference contiguity BFS (`acc` =
/// reached, `blocked` = contaminated), and the adversarial spread cascade
/// (`acc` = contaminated, `blocked` = guarded — note `!(c | g) == !c &
/// !g`).
pub fn flood_step(next: &mut [u64], acc: &mut [u64], blocked: &[u64]) -> bool {
    assert_eq!(next.len(), acc.len(), "word-slice length mismatch");
    assert_eq!(next.len(), blocked.len(), "word-slice length mismatch");
    let mut grew = false;
    for ((nw, aw), &bw) in next.iter_mut().zip(acc.iter_mut()).zip(blocked) {
        *nw &= !*aw & !bw;
        *aw |= *nw;
        grew |= *nw != 0;
    }
    grew
}

/// Non-accumulating wave mask: `next &= !a & !b`. Returns whether any bit
/// survived. The reference unguarded-frontier scan in `hypersweep-testutil`
/// masks the contaminated region's neighbourhood with it (`a` =
/// contaminated, `b` = guarded).
pub fn mask_clear2(next: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    assert_eq!(next.len(), a.len(), "word-slice length mismatch");
    assert_eq!(next.len(), b.len(), "word-slice length mismatch");
    let mut grew = false;
    for ((nw, &aw), &bw) in next.iter_mut().zip(a).zip(b) {
        *nw &= !aw & !bw;
        grew |= *nw != 0;
    }
    grew
}
