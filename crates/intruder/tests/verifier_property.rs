//! Property tests for the run verifier: on random event streams over
//! `H_2..H_6`, a ring and random-hole partial grids, at strides 1 and 3,
//!
//! * every `Err` that [`Verifier::observe`] returns is the first violation
//!   the verdict records for that event — so the first `Err` of a run is
//!   `verdict().violations[0]`;
//! * the verdict holds exactly one violation per recontaminated node, plus
//!   one per sampled event on which the whole-field references
//!   ([`oracles::is_contiguous_bfs`], [`oracles::unguarded_frontier_scan`])
//!   report a failure.
//!
//! The streams spawn agents (mostly at the homebase, sometimes anywhere,
//! which splits the clean region) and move them along random edges, so
//! lone guards walk off frontier nodes and recontaminate them.

use hypersweep_intruder::{ContaminationField, Verifier, ViolationKind, ViolationReport};
use hypersweep_sim::{Event, EventKind, Role};
use hypersweep_testutil::oracles;
use hypersweep_topology::graph::Ring;
use hypersweep_topology::{GridInstance, Hypercube, Node, Topology};

use proptest::prelude::*;

/// Decode random draws into a stream of spawns and moves along edges.
fn decode_trace<T: Topology + ?Sized>(topo: &T, homebase: Node, draws: &[u64]) -> Vec<Event> {
    let n = topo.node_count() as u64;
    let mut positions: Vec<Node> = Vec::new();
    let mut events = Vec::new();
    for (i, &draw) in draws.iter().enumerate() {
        let mover = (!positions.is_empty() && draw % 4 != 0)
            .then(|| (draw / 8) as usize % positions.len())
            .map(|a| (a, topo.neighbors_vec(positions[a])))
            .filter(|(_, nbrs)| !nbrs.is_empty());
        let kind = match mover {
            Some((a, nbrs)) => {
                let to = nbrs[(draw / 64) as usize % nbrs.len()];
                let from = std::mem::replace(&mut positions[a], to);
                EventKind::Move {
                    agent: a as u32,
                    from,
                    to,
                    role: Role::Worker,
                }
            }
            None => {
                let node = if draw % 7 == 0 {
                    Node(((draw / 16) % n) as u32)
                } else {
                    homebase
                };
                positions.push(node);
                EventKind::Spawn {
                    agent: positions.len() as u32 - 1,
                    node,
                    role: Role::Worker,
                }
            }
        };
        events.push(Event {
            time: i as u64,
            kind,
        });
    }
    events
}

/// The frontier witness may differ between the maintained set and the
/// reference scan; compare frontier violations by kind only.
fn normalized(violations: &[ViolationReport]) -> Vec<ViolationReport> {
    let mut out = violations.to_vec();
    for v in &mut out {
        if let ViolationKind::UnguardedFrontier { node } = &mut v.kind {
            *node = 0;
        }
    }
    out
}

/// Feed `events` through a verifier at `stride` (decision step = event
/// index) and through a reference field in lockstep; hold the verifier's
/// returns and verdict to the properties above. Returns the expected
/// violations, so callers can tell what the streams exercised.
fn check_stream<T: Topology + ?Sized>(
    topo: &T,
    homebase: Node,
    events: &[Event],
    stride: u64,
) -> Vec<ViolationReport> {
    let mut verifier = Verifier::new(topo, homebase, stride);
    let mut reference = ContaminationField::new(topo, homebase);
    let mut returned = Vec::new();
    let mut expected = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let step = i as u64;
        if let Err(v) = verifier.observe(event, step) {
            returned.push(v);
        }
        let seen = reference.recontaminations().len();
        reference.apply(event);
        let at = reference.events_applied();
        let report = |kind| ViolationReport {
            step,
            event: at,
            kind,
        };
        for &(_, node) in &reference.recontaminations()[seen..] {
            expected.push(report(ViolationKind::Recontamination { node: node.0 }));
        }
        if at % stride == 0 {
            if !oracles::is_contiguous_bfs(topo, &reference) {
                expected.push(report(ViolationKind::ContiguityBroken));
            }
            if let Some(node) = oracles::unguarded_frontier_scan(topo, &reference) {
                expected.push(report(ViolationKind::UnguardedFrontier { node: node.0 }));
            }
        }
    }
    let verdict = verifier.verdict();
    assert_eq!(verdict.events, events.len() as u64);
    assert_eq!(
        returned.first(),
        verdict.violations.first(),
        "the first Err is the verdict's first violation"
    );
    let first_per_event: Vec<ViolationReport> = verdict
        .violations
        .iter()
        .enumerate()
        .filter(|&(i, v)| i == 0 || verdict.violations[i - 1].event != v.event)
        .map(|(_, v)| v.clone())
        .collect();
    assert_eq!(
        returned, first_per_event,
        "each Err is the first violation its event recorded"
    );
    assert_eq!(
        verdict.violations.len(),
        expected.len(),
        "one violation per recontaminated node and per failed sampled reference check"
    );
    assert_eq!(normalized(&verdict.violations), normalized(&expected));
    assert_eq!(verdict.monotone, reference.recontaminations().is_empty());
    expected
}

fn check_both_strides<T: Topology + ?Sized>(topo: &T, homebase: Node, draws: &[u64]) {
    let events = decode_trace(topo, homebase, draws);
    for stride in [1, 3] {
        check_stream(topo, homebase, &events, stride);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hypercube_streams_verify_like_the_references(
        d in 2u32..=6,
        draws in collection::vec(0u64..u64::MAX, 1..120usize),
    ) {
        check_both_strides(&Hypercube::new(d), Node::ROOT, &draws);
    }

    #[test]
    fn ring_streams_verify_like_the_references(
        n in 3usize..=24,
        draws in collection::vec(0u64..u64::MAX, 1..100usize),
    ) {
        check_both_strides(&Ring::new(n), Node(0), &draws);
    }

    #[test]
    fn partial_grid_streams_verify_like_the_references(
        side in 3u32..=8,
        seed in 0u64..u64::MAX,
        draws in collection::vec(0u64..u64::MAX, 1..100usize),
    ) {
        let grid = GridInstance::Holes(seed).build(side);
        check_both_strides(&grid, grid.homebase(), &draws);
    }
}

/// The generator is not vacuous: over a fixed batch of streams it
/// recontaminates and splits the clean region on every fabric.
#[test]
fn streams_recontaminate_and_split_on_every_fabric() {
    let mut rng = TestRng::for_test("verifier-streams");
    let mut batch = |topo: &dyn Topology, homebase: Node| {
        let (mut recontaminations, mut splits) = (0, 0);
        for _ in 0..16 {
            let draws: Vec<u64> = (0..80).map(|_| rng.next_u64()).collect();
            let events = decode_trace(topo, homebase, &draws);
            for v in check_stream(topo, homebase, &events, 1) {
                match v.kind {
                    ViolationKind::Recontamination { .. } => recontaminations += 1,
                    ViolationKind::ContiguityBroken => splits += 1,
                    _ => {}
                }
            }
        }
        assert!(
            recontaminations > 0 && splits > 0,
            "{recontaminations} / {splits}"
        );
    };
    batch(&Hypercube::new(5), Node::ROOT);
    batch(&Ring::new(12), Node(0));
    let grid = GridInstance::Holes(7).build(6);
    batch(&grid, grid.homebase());
}
