//! Packed node sets: one bit per node, 64 nodes per machine word.
//!
//! The audit kernel and the engines track several dense node predicates
//! (contaminated, visited, guarded, …). Storing them as `Vec<bool>` costs a
//! byte per node and forces per-node loops; a [`NodeSet`] packs the same
//! predicate into `u64` words so membership updates are single bit
//! operations, population counts are `popcnt` loops, and — crucially for
//! the hypercube — *neighbourhood expansion of a whole set* becomes a
//! word-parallel shuffle.
//!
//! The hypercube trick: flipping bit `p−1` of a node id either stays inside
//! a word (port `p ≤ 6`, a masked shift by `2^{p−1}`) or lands in exactly
//! one partner word (port `p > 6`, word index XOR `2^{p−7}`). Expanding a
//! frontier of `n` nodes therefore costs `O(d · n/64)` word operations with
//! no per-node work at all — see [`NodeSet::hypercube_expand_into`].

use crate::node::Node;
use crate::wide;

/// Bits of each word whose `s`-th bit (s = 2^k) is 0, for k = 0..6 —
/// the classic bit-shuffle masks. `SHUFFLE_MASKS[k]` selects, within every
/// aligned block of `2^{k+1}` bits, the lower half.
const SHUFFLE_MASKS: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// A set of [`Node`]s over a fixed universe `0..len`, packed 64 per word.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// The empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        NodeSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The full set over the universe `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = NodeSet::new(len);
        s.insert_all();
        s
    }

    /// Size of the universe (not the cardinality; see
    /// [`NodeSet::count_ones`]).
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Whether `x` is in the set.
    #[inline]
    pub fn contains(&self, x: Node) -> bool {
        let i = x.index();
        debug_assert!(i < self.len);
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Add `x`; returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, x: Node) -> bool {
        let i = x.index();
        debug_assert!(i < self.len);
        let w = &mut self.words[i >> 6];
        let bit = 1u64 << (i & 63);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Remove `x`; returns whether it was present.
    #[inline]
    pub fn remove(&mut self, x: Node) -> bool {
        let i = x.index();
        debug_assert!(i < self.len);
        let w = &mut self.words[i >> 6];
        let bit = 1u64 << (i & 63);
        let present = *w & bit != 0;
        *w &= !bit;
        present
    }

    /// Number of members.
    pub fn count_ones(&self) -> usize {
        wide::count_ones(&self.words)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Insert every node of the universe.
    pub fn insert_all(&mut self) {
        self.words.fill(u64::MAX);
        self.mask_tail();
    }

    /// Zero any bits beyond the universe in the last word.
    fn mask_tail(&mut self) {
        let tail = self.len & 63;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The packed words (low bit of word `i` is node `64·i`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the packed words. Callers must keep bits beyond
    /// the universe zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Iterate the members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = Node> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = (wi as u32) << 6;
            WordBits(w).map(move |b| Node(base + b))
        })
    }

    /// Union of the `d` hypercube neighbourhoods of every member, written
    /// into `out` (overwritten). Both sets must live on the universe of
    /// `H_dim`, i.e. `len == 2^dim`.
    ///
    /// Port `p` flips bit `p−1` of the node id: for `p ≤ 6` that is an
    /// in-word shuffle by `2^{p−1}`; for `p > 6` it swaps whole words at
    /// index distance `2^{p−7}`.
    pub fn hypercube_expand_into(&self, dim: u32, out: &mut NodeSet) {
        debug_assert_eq!(self.len, 1usize << dim);
        debug_assert_eq!(out.len, self.len);
        out.clear();
        let in_word = dim.min(6);
        for k in 0..in_word {
            let s = 1u32 << k;
            let m = SHUFFLE_MASKS[k as usize];
            for (o, &w) in out.words.iter_mut().zip(&self.words) {
                *o |= ((w & m) << s) | ((w >> s) & m);
            }
        }
        for p in 7..=dim {
            let stride = 1usize << (p - 7);
            for i in 0..self.words.len() {
                out.words[i] |= self.words[i ^ stride];
            }
        }
    }

    /// Flood the set through `within` on `H_dim` until it stops growing:
    /// afterwards it also holds every member of `within` joined to one of
    /// its members by a path inside `within`.
    ///
    /// Words are updated in place: a pass closes each word under its
    /// in-word ports and carries the flood on to words later in the scan,
    /// and passes repeat until one adds nothing. So a flood costs a few
    /// passes of `O(d · n/64)`, not one pass per BFS layer.
    pub fn hypercube_flood_within(&mut self, dim: u32, within: &NodeSet) {
        debug_assert_eq!(self.len, 1usize << dim);
        debug_assert_eq!(within.len, self.len);
        loop {
            let mut grew = false;
            for i in 0..self.words.len() {
                let allowed = within.words[i];
                let mut w = self.words[i];
                for p in 7..=dim {
                    w |= self.words[i ^ (1usize << (p - 7))] & allowed;
                }
                loop {
                    let wider = w | (in_word_neighbours(w, dim) & allowed);
                    if wider == w {
                        break;
                    }
                    w = wider;
                }
                if w != self.words[i] {
                    self.words[i] = w;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
    }

    /// One ball step on `H_dim`: `out` (overwritten) becomes the set plus
    /// every neighbour of a member. Returns whether `target` still has a
    /// member outside `out`.
    pub fn hypercube_ball_step(&self, dim: u32, out: &mut NodeSet, target: &NodeSet) -> bool {
        debug_assert_eq!(self.len, 1usize << dim);
        debug_assert_eq!(out.len, self.len);
        debug_assert_eq!(target.len, self.len);
        let mut outside = false;
        for i in 0..self.words.len() {
            let w = self.words[i];
            let mut ball = w | in_word_neighbours(w, dim);
            for p in 7..=dim {
                ball |= self.words[i ^ (1usize << (p - 7))];
            }
            out.words[i] = ball;
            outside |= target.words[i] & !ball != 0;
        }
        outside
    }
}

/// The neighbours of the members of word `w` over the in-word ports
/// `1..=min(dim, 6)`.
#[inline]
fn in_word_neighbours(w: u64, dim: u32) -> u64 {
    let mut out = 0;
    for k in 0..dim.min(6) {
        let s = 1u32 << k;
        let m = SHUFFLE_MASKS[k as usize];
        out |= ((w & m) << s) | ((w >> s) & m);
    }
    out
}

/// Iterator over the set bit positions of a single word.
struct WordBits(u64);

impl Iterator for WordBits {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::Hypercube;

    #[test]
    fn insert_remove_count() {
        let mut s = NodeSet::new(100);
        assert!(s.is_empty());
        assert!(s.insert(Node(3)));
        assert!(!s.insert(Node(3)));
        assert!(s.insert(Node(99)));
        assert!(s.contains(Node(3)));
        assert!(s.contains(Node(99)));
        assert!(!s.contains(Node(64)));
        assert_eq!(s.count_ones(), 2);
        assert!(s.remove(Node(3)));
        assert!(!s.remove(Node(3)));
        assert_eq!(s.count_ones(), 1);
    }

    #[test]
    fn full_and_clear_respect_the_universe() {
        for len in [1, 63, 64, 65, 128, 1000] {
            let mut s = NodeSet::full(len);
            assert_eq!(s.count_ones(), len);
            s.clear();
            assert!(s.is_empty());
        }
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = NodeSet::new(200);
        for i in [199, 0, 64, 63, 65, 1] {
            s.insert(Node(i));
        }
        let got: Vec<u32> = s.iter().map(|n| n.id()).collect();
        assert_eq!(got, vec![0, 1, 63, 64, 65, 199]);
    }

    #[test]
    fn expansion_matches_per_node_neighbours() {
        for d in 0..=9u32 {
            let cube = Hypercube::new(d);
            let n = cube.node_count();
            // A deterministic scatter of members.
            let mut s = NodeSet::new(n);
            for i in 0..n {
                if (i * 2654435761) % 7 < 3 {
                    s.insert(Node(i as u32));
                }
            }
            let mut fast = NodeSet::new(n);
            s.hypercube_expand_into(d, &mut fast);
            let mut slow = NodeSet::new(n);
            for x in s.iter() {
                for y in cube.neighbors(x) {
                    slow.insert(y);
                }
            }
            assert_eq!(fast, slow, "d = {d}");
        }
    }

    #[test]
    fn expansion_of_a_singleton_is_its_neighbourhood() {
        let d = 8;
        let cube = Hypercube::new(d);
        let mut s = NodeSet::new(cube.node_count());
        s.insert(Node(0b1010_1010));
        let mut out = NodeSet::new(cube.node_count());
        s.hypercube_expand_into(d, &mut out);
        assert_eq!(out.count_ones(), d as usize);
        for y in cube.neighbors(Node(0b1010_1010)) {
            assert!(out.contains(y));
        }
    }
}
