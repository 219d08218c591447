//! The paper's motivating scenario (§1.1): a virus moves arbitrarily fast
//! through a hypercube interconnect; a team of software agents deployed
//! from one host must corner it without ever reopening cleaned territory.
//!
//! This example drives the verifier directly so the virus's flight is
//! visible: we replay Algorithm CLEAN's trace event by event against a
//! greedy evader and print where it runs.
//!
//! ```sh
//! cargo run --example virus_containment
//! ```

use hypersweep::prelude::*;

fn main() {
    let d = 5;
    let cube = Hypercube::new(d);
    println!(
        "network: H_{d} — {} hosts, {} links; homebase 00000; virus starts at 11111",
        cube.node_count(),
        cube.edge_count()
    );

    // Generate CLEAN's full trace.
    let strategy = CleanStrategy::new(cube);
    let mut events = Vec::new();
    let metrics = strategy.synthesize_into(&mut events);
    println!(
        "team: {} agents (1 synchronizer + {} workers)\n",
        metrics.team_size,
        metrics.team_size - 1
    );

    // Replay through the verifier with a greedy evader and narrate its moves.
    let far = Node(cube.node_count() as u32 - 1);
    let mut verifier = Verifier::with_config(&cube, Node::ROOT, MonitorConfig::with_intruder(far));
    let mut last_pos = far;
    let mut hops = 0u32;
    for event in &events {
        verifier
            .observe(event, event.time)
            .expect("CLEAN keeps every invariant");
        let status = verifier.intruder().expect("tracked").status();
        match status {
            CaptureStatus::Free(pos) if pos != last_pos => {
                hops += 1;
                let contaminated = verifier.field().contaminated_count();
                println!(
                    "virus flees {} -> {}   ({} hosts still contaminated)",
                    last_pos.bitstring(d),
                    pos.bitstring(d),
                    contaminated
                );
                last_pos = pos;
            }
            CaptureStatus::Captured { node, at_event } => {
                println!(
                    "\nvirus CAPTURED at {} after event {} ({} evasive hops)",
                    node.bitstring(d),
                    at_event,
                    hops
                );
                break;
            }
            _ => {}
        }
    }
    let verdict = verifier.verdict();
    assert!(
        verdict.is_complete(),
        "violations: {:?}",
        verdict.violations
    );
    println!(
        "audit: monotone={} contiguous={} all_clean={} ({} events)",
        verdict.monotone, verdict.contiguous, verdict.all_clean, verdict.events
    );

    // For scale: how the team would grow with the fabric.
    println!("\nteam sizes for larger fabrics (Algorithm CLEAN vs n/2 visibility):");
    for d in [6u32, 8, 10, 12, 14] {
        let clean = hypersweep::topology::combinatorics::clean_team_size(d);
        let vis = hypersweep::topology::combinatorics::visibility_agents(d);
        println!(
            "  H_{d:<2} ({:>6} hosts): CLEAN {:>6} agents | visibility {:>6} agents",
            1u64 << d,
            clean,
            vis
        );
    }
}
