//! Per-node checks for the word kernels: whole-set hypercube expansion,
//! ball steps and masked floods against per-node neighbour enumeration
//! and BFS, population counts against per-node membership, and the flood
//! kernels against per-bit truth. Random universes of up to 2048 nodes
//! reach every tail length.

use hypersweep_topology::rng::SplitMix64;
use hypersweep_topology::{wide, Hypercube, Node, NodeSet};

use proptest::prelude::*;

/// Deterministic word fill from a seed.
fn fill(words: &mut [u64], seed: u64) {
    let mut rng = SplitMix64::new(seed);
    for w in words.iter_mut() {
        *w = rng.next_u64();
    }
}

/// A random member set over `0..n`, about half full, tail kept clean.
fn random_set(n: usize, seed: u64) -> NodeSet {
    let mut s = NodeSet::new(n);
    fill(s.words_mut(), seed);
    let tail = n & 63;
    if tail != 0 {
        if let Some(last) = s.words_mut().last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
    s
}

/// A random member set thinned to density about `2^-(thin+1)`: a sparse
/// set leaves most neighbourhoods partly uncovered, so a dropped or
/// misrouted port shows up in the expansion.
fn thinned_set(n: usize, seed: u64, thin: u32) -> NodeSet {
    let mut s = random_set(n, seed);
    for k in 0..thin {
        let mask = random_set(n, seed ^ (0xA5A5 + u64::from(k)));
        for (w, &m) in s.words_mut().iter_mut().zip(mask.words()) {
            *w &= m;
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole-set expansion agrees with per-node neighbour enumeration on
    /// every dimension and density: d ≤ 6 runs only in-word shuffles,
    /// d ≥ 7 adds the word-stride ports.
    #[test]
    fn hypercube_expansion_matches_per_node_neighbours(
        d in 1u32..=12,
        seed in 0u64..u64::MAX,
        thin in 0u32..5,
    ) {
        let cube = Hypercube::new(d);
        let n = cube.node_count();
        let s = thinned_set(n, seed, thin);
        let mut fast = NodeSet::new(n);
        s.hypercube_expand_into(d, &mut fast);
        let mut slow = NodeSet::new(n);
        for x in s.iter() {
            for y in cube.neighbors(x) {
                slow.insert(y);
            }
        }
        prop_assert_eq!(&fast, &slow, "d = {}", d);
    }

    /// A ball step is the set plus every neighbour of a member, and its
    /// flag says whether the target has a member outside the ball.
    #[test]
    fn hypercube_ball_step_matches_per_node_neighbours(
        d in 1u32..=12,
        seed in 0u64..u64::MAX,
        thin in 0u32..5,
    ) {
        let cube = Hypercube::new(d);
        let n = cube.node_count();
        let s = thinned_set(n, seed, thin);
        let target = thinned_set(n, seed ^ 0x7A26, 1);
        let mut fast = NodeSet::new(n);
        let outside = s.hypercube_ball_step(d, &mut fast, &target);
        let mut slow = s.clone();
        for x in s.iter() {
            for y in cube.neighbors(x) {
                slow.insert(y);
            }
        }
        prop_assert_eq!(&fast, &slow, "d = {}", d);
        prop_assert_eq!(outside, target.iter().any(|x| !slow.contains(x)), "d = {}", d);
    }

    /// A masked flood reaches exactly what a per-node BFS from the seeds
    /// through `within` reaches, seeds included.
    #[test]
    fn hypercube_flood_within_matches_per_node_bfs(
        d in 1u32..=12,
        seed in 0u64..u64::MAX,
        density in 0u32..3,
    ) {
        let cube = Hypercube::new(d);
        let n = cube.node_count();
        let seeds = thinned_set(n, seed, 6);
        let within = thinned_set(n, seed ^ 0x5107, density);
        let mut fast = seeds.clone();
        fast.hypercube_flood_within(d, &within);
        let mut slow = seeds.clone();
        let mut stack: Vec<Node> = seeds.iter().collect();
        while let Some(x) = stack.pop() {
            for y in cube.neighbors(x) {
                if within.contains(y) && slow.insert(y) {
                    stack.push(y);
                }
            }
        }
        prop_assert_eq!(&fast, &slow, "d = {}", d);
    }

    #[test]
    fn count_ones_matches_per_node_membership(
        n in 1usize..=2048,
        seed in 0u64..u64::MAX,
    ) {
        let s = random_set(n, seed);
        let members = (0..n as u32).filter(|&i| s.contains(Node(i))).count();
        prop_assert_eq!(s.count_ones(), members);
    }

    /// Every bit `flood_step` and `mask_clear2` write matches
    /// its boolean formula, and the grow flag says whether any bit survived.
    #[test]
    fn flood_kernels_match_per_bit_semantics(
        words in 1usize..=32,
        seed in 0u64..u64::MAX,
    ) {
        let random_words = |salt: u64| {
            let mut v = vec![0u64; words];
            fill(&mut v, seed ^ (salt << 32));
            v
        };
        let (x, y, z) = (random_words(1), random_words(2), random_words(3));
        let bit = |v: &[u64], i: usize| (v[i >> 6] >> (i & 63)) & 1 == 1;

        let (mut next, mut acc) = (x.clone(), y.clone());
        let grew = wide::flood_step(&mut next, &mut acc, &z);
        let mut masked = x.clone();
        let kept = wide::mask_clear2(&mut masked, &y, &z);

        let mut any = false;
        for i in 0..words * 64 {
            let fresh = bit(&x, i) && !bit(&y, i) && !bit(&z, i);
            any |= fresh;
            prop_assert_eq!(bit(&next, i), fresh, "flood_step next bit {}", i);
            prop_assert_eq!(bit(&acc, i), bit(&y, i) || fresh, "flood_step acc bit {}", i);
            prop_assert_eq!(bit(&masked, i), fresh, "mask_clear2 bit {}", i);
        }
        prop_assert_eq!((grew, kept), (any, any));

        // A wave already folded into the accumulator adds nothing.
        let mut again = next.clone();
        prop_assert!(!wide::flood_step(&mut again, &mut acc, &z));
        prop_assert!(again.iter().all(|&w| w == 0));
        let mut again = next;
        prop_assert!(!wide::mask_clear2(&mut again, &acc, &z));
    }
}
