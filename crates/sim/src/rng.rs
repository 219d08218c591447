//! The ChaCha8 keystream behind [`Policy::Random`](crate::Policy::Random),
//! keyed by four [`SplitMix64`] draws so a run is reproducible from its
//! seed alone.

use hypersweep_topology::rng::SplitMix64;

/// A deterministic generator over the ChaCha stream cipher with 8 rounds
/// (the nonce words stay zero).
pub(crate) struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    /// The current 16-word keystream block.
    block: [u32; 16],
    /// The next unread word of `block`; 16 means it is used up.
    word: usize,
}

/// "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8 {
    /// Key the stream from four draws of `SplitMix64::new(seed)`, each
    /// split into its low and high 32-bit halves.
    pub(crate) fn new(seed: u64) -> Self {
        let mut seeder = SplitMix64::new(seed);
        let mut key = [0u32; 8];
        for half in key.chunks_exact_mut(2) {
            let draw = seeder.next_u64();
            half[0] = draw as u32;
            half[1] = (draw >> 32) as u32;
        }
        ChaCha8 {
            key,
            counter: 0,
            block: [0; 16],
            word: 16,
        }
    }

    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        let input = state;
        for _ in 0..4 {
            // A double round: four column quarter rounds, four diagonal.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(input) {
            *out = out.wrapping_add(inp);
        }
        self.block = state;
        self.word = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    /// The next keystream word.
    pub(crate) fn next_u32(&mut self) -> u32 {
        if self.word >= 16 {
            self.refill();
        }
        let w = self.block[self.word];
        self.word += 1;
        w
    }

    /// An unbiased draw in `0..n` by Lemire's method: multiply a 64-bit
    /// candidate (two words, the first in the low half) by `n`, keep the
    /// high half, and redraw when the low half falls in the biased
    /// fragment below `2^64 mod n`. Panics if `n` is 0.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot draw from an empty range");
        let threshold = n.wrapping_neg() % n;
        loop {
            let candidate = u64::from(self.next_u32()) | u64::from(self.next_u32()) << 32;
            let m = u128::from(candidate) * u128::from(n);
            if m as u64 >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bounds the pinned `below` draws cycle through: small, word-sized
    /// and huge. `(1 << 63) + 1` rejects about half its candidates.
    #[rustfmt::skip]
    const BOUNDS: [u64; 13] = [
        1, 2, 3, 5, 7, 10, 64, 100, 1000, 65_537, (1 << 32) + 1, (1 << 63) + 1, u64::MAX,
    ];

    /// The first 40 words for seeds 0 and 2005: words 0, 16 and 32 each
    /// start a fresh block.
    #[rustfmt::skip]
    const WORDS: [(u64, [u32; 40]); 2] = [
        (0, [
            0x2d8ee5e8, 0xbf94d133, 0xa6da5a01, 0x3a738775, 0xc143ee06, 0x3d46ff10, 0xe9f6424f,
            0x17c6ab23, 0x2fb6898b, 0x5ce2479b, 0x86bff662, 0x0ae8099f, 0xc72f90bd, 0x5f2f09fd,
            0x28e5a01f, 0x95d53efa, 0x94efaf48, 0x1131e62b, 0x17d7a4e4, 0x9eec7e55, 0xcd4c18d1,
            0xe553e127, 0x3505e613, 0xb9d551f1, 0xd28d82a2, 0x0a1ffcc2, 0xf64a441d, 0xfc9216ba,
            0x4b017931, 0xb3c61fd5, 0x23eb502b, 0xe857b19d, 0x1bfcd6d6, 0x5a512cb9, 0x44766985,
            0x029e3799, 0x3c8b61fe, 0xca6410bd, 0xbfdc08ce, 0xa2c1439d,
        ]),
        (2005, [
            0x99580573, 0x5f6a94d3, 0x4da433ea, 0x4c3875d2, 0xf4634275, 0x9417b777, 0xc06d1f8a,
            0x8cd09f76, 0xfd101cba, 0x18d7e3c6, 0xcdba7e5f, 0x5fa8aa90, 0x2a5ccf0c, 0x97272eb8,
            0x5fb5da9c, 0x8b170c59, 0x8000ada7, 0x088f56fe, 0x2bebfcf7, 0x2faf5b98, 0xb6527e0e,
            0xa76a225e, 0x3dedf6c3, 0xf622cc46, 0xb73b892b, 0x9d99e72a, 0x4dc8d2b3, 0x7fb6677f,
            0x589c398f, 0x39f028d5, 0x1571b359, 0xbcf6c564, 0x1c140e6b, 0xa371fdc5, 0x8d61cdd8,
            0x4f8b66c8, 0xc4f4db9a, 0x4a119722, 0xebd1aa95, 0x34944e61,
        ]),
    ];

    /// 100 draws per seed, bound `i` being `BOUNDS[i % 13]`. Seed 0 spends
    /// 113 `u64`s on them and seed 2005 spends 110: the rejection path runs.
    #[rustfmt::skip]
    const DRAWS: [(u64, [u64; 100]); 2] = [
        (0, [
            0, 0, 0, 0, 2, 0, 23, 58, 67, 40685, 3847479592, 94324682907137218,
            14583799898283139581, 0, 0, 1, 2, 0, 1, 56, 99, 68, 12249, 9671454,
            6280902621815723054, 5343967865647435596, 0, 0, 1, 2, 5, 2, 15, 89, 361, 1112,
            2244740494, 7657734067933710746, 8350115825331722786, 0, 0, 0, 4, 5, 2, 55, 33, 284,
            21828, 571834936, 4342904989586578306, 14808250436176949815, 0, 0, 2, 1, 3, 3, 60, 35,
            904, 30417, 1539753114, 7586956017966232373, 11154010089355708278, 0, 0, 1, 3, 0, 1,
            43, 5, 980, 64650, 1647676555, 2029178788012581738, 14641158892650044429, 0, 1, 1, 2,
            5, 2, 13, 4, 108, 60156, 1538279507, 5943400309606657081, 11839748703002579332, 0, 0,
            2, 4, 2, 1, 14, 42, 699,
        ]),
        (2005, [
            0, 0, 1, 2, 0, 3, 37, 54, 33, 12207, 2808750687, 4601328342520850777,
            4174881751352228238, 0, 1, 0, 1, 1, 0, 28, 97, 460, 670, 1278282364,
            113408249736772612, 7148737817075165323, 0, 1, 2, 2, 1, 1, 18, 22, 657, 11241,
            1459881140, 6162183326730549875, 3844396305431095515, 0, 1, 2, 4, 0, 8, 31, 88, 597,
            7399, 1148697629, 3430170051888793910, 2929440567694315373, 0, 0, 1, 3, 1, 8, 54, 14,
            143, 35255, 2171421403, 1759978555450312130, 4391361920853944884, 0, 1, 1, 3, 6, 4, 18,
            39, 368, 43975, 581434465, 2195036374293954054, 747852665290326481, 0, 0, 2, 0, 5, 7,
            0, 60, 140, 33101, 2421377628, 7744791256940877094, 6343496573617419223, 0, 1, 2, 2, 1,
            6, 54, 82, 455,
        ]),
    ];

    #[test]
    fn keystream_words_are_pinned_across_refills() {
        for (seed, want) in WORDS {
            let mut rng = ChaCha8::new(seed);
            let got: Vec<u32> = (0..40).map(|_| rng.next_u32()).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn below_draws_are_pinned() {
        for (seed, want) in DRAWS {
            let mut rng = ChaCha8::new(seed);
            let got: Vec<u64> = (0..100).map(|i| rng.below(BOUNDS[i % 13])).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }
}
