//! The agents / moves / time trade-off across all strategies and baselines
//! (the comparison §1.3 motivates), as a sweep over hypercube dimensions.
//!
//! ```sh
//! cargo run --release --example strategy_tradeoffs
//! ```

use hypersweep::baselines::{FloodStrategy, FrontierStrategy};
use hypersweep::prelude::*;

fn main() {
    println!(
        "{:>3} {:>8} | {:>24} | {:>28} | {:>16}",
        "d", "n", "agents (clean/vis/front)", "moves (clean/vis/clone/front)", "time (vis, clean~)"
    );
    println!("{}", "-".repeat(92));
    for d in 4..=14u32 {
        let cube = Hypercube::new(d);
        let clean = CleanStrategy::new(cube).fast(false).metrics;
        let vis = VisibilityStrategy::new(cube).fast(false).metrics;
        let cloning = CloningStrategy::new(cube).fast(false).metrics;
        let frontier = FrontierStrategy::new(cube).fast(false).metrics;
        println!(
            "{:>3} {:>8} | {:>7}/{:>7}/{:>8} | {:>8}/{:>7}/{:>6}/{:>8} | {:>4} / ~{:>9}",
            d,
            cube.node_count(),
            clean.team_size,
            vis.team_size,
            frontier.team_size,
            clean.total_moves(),
            vis.total_moves(),
            cloning.total_moves(),
            frontier.total_moves(),
            vis.ideal_time.unwrap(),
            clean.coordinator_moves, // Theorem 4: time ≈ the synchronizer's walk
        );
    }

    println!("\nwho wins what:");
    println!("  fewest agents : Algorithm CLEAN  (≈ n/sqrt(log n), Lemma 4 exactly)");
    println!("  fewest moves  : cloning variant  (n − 1, one crossing per tree edge)");
    println!("  fastest       : visibility/cloning (log n waves) — CLEAN is Θ(n log n) sequential");
    println!("  most agents   : flood baseline   (n, a permanent guard everywhere)");

    // One audited run each at d = 8 to show none of this trades away
    // correctness.
    let cube = Hypercube::new(8);
    for (name, outcome) in [
        ("clean", CleanStrategy::new(cube).run(Policy::Random(42))),
        (
            "visibility",
            VisibilityStrategy::new(cube).run(Policy::Random(42)),
        ),
        (
            "cloning",
            CloningStrategy::new(cube).run(Policy::Random(42)),
        ),
        ("flood", FloodStrategy::new(cube).run(Policy::Random(42))),
    ] {
        let outcome = outcome.expect("strategy completes");
        assert!(outcome.is_complete(), "{name} failed audit");
        println!(
            "audited {name:>10} on H_8 under a random adversary: OK ({} moves)",
            outcome.metrics.total_moves()
        );
    }
}
