//! Fixed CPU work that measures the host's speed during a benchmark run.
//!
//! ```text
//! perfbench-calibrate [--noop]
//! ```
//!
//! Stdout gets `<ns> <checksum hex>`: the wall time of a fixed mix of the
//! kinds of work hypersweep does — random loads and stores over a 1 MiB
//! table, word-parallel XOR and popcount sweeps like the bitset kernels, a
//! sort and hash-map updates — and a checksum of its result, which never
//! varies.
//! The work never changes with the program, so its time moves only with the
//! host: `perfbench/run.py` scales the end-to-end timings by it. With
//! `--noop` the process exits at once and prints nothing; the runner times
//! that start-to-exit from outside and scales the daemon's set-up time by it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const WORDS: usize = 1 << 17;
const ROUNDS: usize = 200;

fn kernel() -> u64 {
    let mut table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0u64;
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for _ in 0..ROUNDS {
        for _ in 0..8192 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & (WORDS - 1);
            table[j] = table[j].rotate_left(5) ^ x;
            acc = acc.wrapping_add(table[j ^ 1]);
        }
        let (lo, hi) = table.split_at_mut(WORDS / 2);
        for (a, b) in lo.iter_mut().zip(hi.iter()) {
            *a ^= b >> 1;
            acc = acc.wrapping_add(u64::from(a.count_ones()));
        }
        let mut v: Vec<u32> = (0..2048u32)
            .map(|i| i.wrapping_mul(2_654_435_761) ^ x as u32)
            .collect();
        v.sort_unstable();
        for w in v.iter().step_by(8) {
            *counts.entry(w >> 20).or_insert(0) += 1;
        }
        acc = acc.wrapping_add(u64::from(v[1024]));
    }
    acc ^ counts.len() as u64
}

fn main() {
    // `--noop`: exit at once, so the caller times a bare process start.
    if std::env::args().nth(1).as_deref() == Some("--noop") {
        return;
    }
    let start = Instant::now();
    let checksum = black_box(kernel());
    let ns = start.elapsed().as_nanos();
    println!("{ns} {checksum:016x}");
}
