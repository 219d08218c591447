//! Asynchrony stress: the same strategies under every scheduling adversary,
//! including real OS threads.
//!
//! The paper's model lets every action take "a finite but otherwise
//! unpredictable amount of time"; correctness must therefore survive any
//! schedule. This example runs the visibility strategy and the cloning
//! variant under FIFO/LIFO/round-robin/random adversaries on the
//! discrete-event engine, then once more on the real-thread executor of the
//! test fixtures (`hypersweep-testutil`, a dev-dependency) where the OS
//! scheduler is the adversary — and checks that every run is monotone,
//! contiguous, complete, and move-for-move identical in its totals.
//!
//! ```sh
//! cargo run --release --example adversarial_schedules
//! ```

use hypersweep::core::visibility::VisibilityAgent;
use hypersweep::prelude::*;
use hypersweep::sim::Role;
use hypersweep_testutil::threaded::{run_threaded, ThreadedConfig};

fn main() {
    let d = 7;
    let cube = Hypercube::new(d);
    let strategy = VisibilityStrategy::new(cube);
    let expected_moves = strategy.fast(false).metrics.total_moves();
    println!(
        "H_{d}: visibility strategy, {} agents, expecting exactly {} moves under EVERY schedule",
        strategy.team_size(),
        expected_moves
    );

    // 1. Discrete-event adversaries.
    for policy in Policy::adversaries(8) {
        let outcome = strategy.run(policy).expect("completes");
        assert!(outcome.is_complete(), "{policy:?} broke the search");
        assert_eq!(outcome.metrics.total_moves(), expected_moves);
        println!(
            "  DES {:<12} OK — intruder {:?}",
            policy.name(),
            outcome.verdict.capture.unwrap()
        );
    }

    // 2. Real threads: one per agent, std::sync whiteboards, the OS as
    //    the adversary. Repeat a few times — each run is a different
    //    interleaving.
    for round in 0..3 {
        let programs: Vec<(VisibilityAgent, Role)> = (0..strategy.team_size())
            .map(|_| (VisibilityAgent, Role::Worker))
            .collect();
        let report = run_threaded(
            cube,
            programs,
            ThreadedConfig {
                visibility: true,
                ..ThreadedConfig::default()
            },
        )
        .expect("threaded run completes");
        let verdict = verify_trace(
            &cube,
            Node::ROOT,
            &report.events,
            MonitorConfig::with_intruder(Node(cube.node_count() as u32 - 1)),
        );
        assert!(
            verdict.is_complete(),
            "threads broke the search: {:?}",
            verdict.violations
        );
        assert_eq!(report.metrics.total_moves(), expected_moves);
        println!(
            "  threads run #{round}     OK — {} agents on {} OS threads, {} moves",
            report.metrics.team_size,
            report.metrics.team_size,
            report.metrics.total_moves()
        );
    }

    // 3. The cloning variant under a depth-first (LIFO) adversary — the
    //    nastiest case for a strategy that builds its own team online.
    let cloning = CloningStrategy::new(cube);
    let outcome = cloning.run(Policy::Lifo).expect("completes");
    assert!(outcome.is_complete());
    println!(
        "  cloning under LIFO OK — {} clones made, {} moves (n-1 = {})",
        outcome.metrics.team_size - 1,
        outcome.metrics.total_moves(),
        cube.node_count() - 1
    );
    println!("\nall schedules produced correct, identical-cost searches");
}
