//! The workspace's one seeded generator: grid holes, adversary decisions,
//! edge churn and the key of the engine's `Policy::Random` stream all come
//! from a [`SplitMix64`] seeded by a `u64`.

/// SplitMix64 (Steele, Lea and Flood, 2014): a 64-bit counter stepped by
/// the golden-ratio gamma, each state passed through a MurmurHash3-style
/// finalizer, so small or sequential seeds still give well-spread streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is determined by `seed` alone.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `0..n`: the next output reduced modulo `n`, so one draw
    /// costs exactly one output. Each value's probability is off from
    /// `1 / n` by at most `2^-64`. Panics if `n` is 0.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_pinned() {
        #[rustfmt::skip]
        let pinned: [(u64, [u64; 8]); 2] = [
            (0, [
                0xe220_a839_7b1d_cdaf, 0x6e78_9e6a_a1b9_65f4, 0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec, 0x1b39_896a_51a8_749b, 0x53cb_9f0c_747e_a2ea,
                0x2c82_9abe_1f45_32e1, 0xc584_133a_c916_ab3c,
            ]),
            (2005, [
                0xa0da_b038_7542_e050, 0xb5d6_3d57_8f63_4f2f, 0x2f8f_8019_ae7c_4018,
                0x57be_4abd_e1d0_ca81, 0xc897_b085_4b16_ed28, 0x24bd_ed56_0a7c_9669,
                0x095d_6d41_f55a_43f6, 0xea82_4124_325c_9797,
            ]),
        ];
        for (seed, want) in pinned {
            let mut rng = SplitMix64::new(seed);
            let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn below_draws_are_pinned() {
        // Small, word-sized and huge bounds.
        #[rustfmt::skip]
        let bounds: [u64; 13] = [
            1, 2, 3, 5, 7, 10, 64, 100, 1000, 65_537, (1 << 32) + 1, (1 << 63) + 1, u64::MAX,
        ];
        #[rustfmt::skip]
        let pinned: [(u64, [u64; 13]); 2] = [
            (0, [
                0, 0, 1, 4, 2, 0, 33, 40, 299, 52975, 3610398765, 4815235170193628917,
                9665182471527586683,
            ]),
            (2005, [
                0, 1, 0, 4, 2, 7, 54, 19, 87, 60096, 2870697002, 8171174116857442044,
                8877070323237422833,
            ]),
        ];
        for (seed, want) in pinned {
            let mut rng = SplitMix64::new(seed);
            let got: Vec<u64> = bounds.iter().map(|&n| rng.below(n)).collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }
}
