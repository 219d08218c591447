//! Differential test of the greedy evader: a [`Verifier`] on
//! `Hypercube::new(d)` moves the intruder with the word-parallel kernel,
//! one on `AdjGraph::from_topology(&cube)` (the same graph, not known to
//! be a cube) with the per-node BFS reference. Fed the same events, the two
//! must agree on the intruder's status after every event, its whole trail
//! and the final verdict.
//!
//! Inputs: every strategy's synthesized trace at `H_1..H_8`, engine traces
//! under `Policy::adversaries(4)` (the synchronous variant under
//! `Policy::Synchronous`) at `H_1..H_6`, and SplitMix64-seeded random
//! streams on `H_1..H_8` from random intruder starts. Half the streams open
//! with a wall of agents across one level of the cube, which splits the
//! contaminated region; moves off guarded frontiers recontaminate and
//! merge it again.

use hypersweep_analysis::StrategyKind;
use hypersweep_baselines::FloodStrategy;
use hypersweep_core::{CleanStrategy, CloningStrategy, SynchronousStrategy, VisibilityStrategy};
use hypersweep_intruder::{
    CaptureStatus, EvaderPolicy, Intruder, MonitorConfig, Verdict, Verifier,
};
use hypersweep_sim::{AgentProgram, Engine, Event, EventKind, Policy, Role};
use hypersweep_topology::graph::AdjGraph;
use hypersweep_topology::rng::SplitMix64;
use hypersweep_topology::{Hypercube, Node, Topology};

/// What one verifier made of a stream.
#[derive(Debug, PartialEq)]
struct Run {
    statuses: Vec<CaptureStatus>,
    trail: Vec<Node>,
    verdict: String,
}

/// Feed `events` through a greedy-evader verifier on `topo`.
fn run<T: Topology + ?Sized>(topo: &T, start: Node, events: &[Event]) -> (Run, Verdict) {
    let mut verifier = Verifier::with_config(topo, Node::ROOT, MonitorConfig::with_intruder(start));
    let mut statuses = Vec::with_capacity(events.len());
    for e in events {
        let _ = verifier.observe(e, e.time);
        statuses.push(verifier.intruder().expect("tracked").status());
    }
    let trail = verifier.intruder().expect("tracked").trail().to_vec();
    let verdict = verifier.verdict();
    let run = Run {
        statuses,
        trail,
        verdict: format!("{verdict:?}"),
    };
    (run, verdict)
}

/// Hold the kernel to the reference on one stream; returns the verdict.
fn agree(cube: Hypercube, start: Node, events: &[Event], what: &str) -> Verdict {
    let graph = AdjGraph::from_topology(&cube);
    assert_eq!(
        graph.hypercube_dim(),
        None,
        "the reference must not see a cube"
    );
    let (kernel, verdict) = run(&cube, start, events);
    let (reference, _) = run(&graph, start, events);
    assert_eq!(kernel, reference, "{what}");
    verdict
}

fn far(cube: Hypercube) -> Node {
    Node(cube.node_count() as u32 - 1)
}

/// Every strategy's synthesized trace.
fn fast_traces(cube: Hypercube) -> Vec<(&'static str, Vec<Event>)> {
    StrategyKind::ALL
        .into_iter()
        .map(|kind| {
            let mut events = Vec::new();
            kind.strategy(cube).synthesize_into(&mut events);
            (kind.label(), events)
        })
        .collect()
}

/// The event log of an engine run to completion.
fn engine_trace<P: AgentProgram>(engine: Engine<P>) -> Vec<Event> {
    engine.run().expect("the engine completes").events
}

#[test]
fn synthesized_traces_move_the_evader_like_the_reference() {
    for d in 1..=8 {
        let cube = Hypercube::new(d);
        for (name, events) in fast_traces(cube) {
            let verdict = agree(cube, far(cube), &events, &format!("{name} on H_{d}"));
            assert!(verdict.is_complete(), "{name} on H_{d}: {verdict:?}");
        }
    }
}

#[test]
fn engine_traces_move_the_evader_like_the_reference() {
    for d in 1..=6 {
        let cube = Hypercube::new(d);
        for policy in Policy::adversaries(4) {
            let runs = [
                (
                    "clean",
                    engine_trace(CleanStrategy::new(cube).engine(policy)),
                ),
                (
                    "visibility",
                    engine_trace(VisibilityStrategy::new(cube).engine(policy)),
                ),
                (
                    "cloning",
                    engine_trace(CloningStrategy::new(cube).engine(policy)),
                ),
                (
                    "flood",
                    engine_trace(FloodStrategy::new(cube).engine(policy)),
                ),
            ];
            for (name, events) in runs {
                let what = format!("{name} on H_{d} under {}", policy.name());
                assert!(
                    agree(cube, far(cube), &events, &what).is_complete(),
                    "{what}"
                );
            }
        }
        let events = engine_trace(SynchronousStrategy::new(cube).engine(Policy::Synchronous));
        let what = format!("synchronous on H_{d}");
        assert!(
            agree(cube, far(cube), &events, &what).is_complete(),
            "{what}"
        );
    }
}

/// A random legal stream on `cube` of `len` events after an optional
/// wall: every node of one random level spawns an agent, which cuts the
/// contaminated region in two. Then spawns (a third at the homebase, the
/// rest anywhere), moves and clones along random edges, and the odd
/// terminate; agents walking off the wall merge the pieces again.
fn random_stream(cube: Hypercube, rng: &mut SplitMix64, len: usize) -> Vec<Event> {
    let d = u64::from(cube.dim());
    let n = cube.node_count() as u64;
    let mut at: Vec<Node> = Vec::new();
    let mut events = Vec::with_capacity(len);
    if d > 1 && rng.below(2) == 0 {
        for node in cube.level_nodes(1 + rng.below(d - 1) as u32) {
            at.push(node);
            events.push(Event {
                time: 0,
                kind: EventKind::Spawn {
                    agent: at.len() as u32 - 1,
                    node,
                    role: Role::Worker,
                },
            });
        }
    }
    for time in 0..len as u64 {
        let draw = rng.below(16);
        let kind = if at.is_empty() || draw < 3 {
            let node = if draw < 2 {
                Node(rng.below(n) as u32)
            } else {
                Node::ROOT
            };
            at.push(node);
            EventKind::Spawn {
                agent: at.len() as u32 - 1,
                node,
                role: Role::Worker,
            }
        } else {
            let agent = rng.below(at.len() as u64) as usize;
            let from = at[agent];
            let to = from.flip(1 + rng.below(d) as u32);
            match draw {
                3 => {
                    at.push(to);
                    EventKind::CloneSpawn {
                        parent: agent as u32,
                        child: at.len() as u32 - 1,
                        from,
                        to,
                    }
                }
                4 => EventKind::Terminate {
                    agent: agent as u32,
                    node: from,
                },
                _ => {
                    at[agent] = to;
                    EventKind::Move {
                        agent: agent as u32,
                        from,
                        to,
                        role: Role::Worker,
                    }
                }
            }
        };
        events.push(Event { time, kind });
    }
    events
}

/// Whether, after some event, the intruder is still free and the
/// contaminated region is in more than one piece, so its component is not
/// the whole contaminated set.
fn splits_while_free(cube: Hypercube, start: Node, events: &[Event]) -> bool {
    let mut verifier =
        Verifier::with_config(&cube, Node::ROOT, MonitorConfig::with_intruder(start));
    let mut seen = vec![false; cube.node_count()];
    let mut stack = Vec::new();
    for e in events {
        let _ = verifier.observe(e, e.time);
        if verifier.intruder().expect("tracked").status().is_captured() {
            return false;
        }
        let field = verifier.field();
        seen.fill(false);
        let mut components = 0;
        for x in cube.nodes() {
            if seen[x.index()] || !field.is_contaminated(x) {
                continue;
            }
            components += 1;
            if components > 1 {
                return true;
            }
            seen[x.index()] = true;
            stack.push(x);
            while let Some(y) = stack.pop() {
                for z in cube.neighbors(y) {
                    if field.is_contaminated(z) && !seen[z.index()] {
                        seen[z.index()] = true;
                        stack.push(z);
                    }
                }
            }
        }
    }
    false
}

#[test]
fn random_streams_move_the_evader_like_the_reference() {
    let mut rng = SplitMix64::new(0x5EED_E7AD);
    let (mut streams, mut recontaminating, mut split) = (0, 0, 0);
    for d in 1..=8 {
        let cube = Hypercube::new(d);
        let n = cube.node_count() as u64;
        for _ in 0..40 {
            let start = Node(1 + rng.below(n - 1) as u32);
            let len = 8 + rng.below(4 * n.min(64)) as usize;
            let events = random_stream(cube, &mut rng, len);
            let verdict = agree(cube, start, &events, &format!("H_{d} from {start:?}"));
            streams += 1;
            recontaminating += usize::from(!verdict.monotone);
            split += usize::from(splits_while_free(cube, start, &events));
        }
    }
    // The streams are not vacuous: most recontaminate, and many make the
    // free intruder pick a node while the contaminated region is split.
    assert!(
        recontaminating * 2 > streams,
        "{recontaminating} of {streams}"
    );
    assert!(split * 3 > streams, "{split} of {streams}");
}

/// Reactions, skips and skips after a guard change, tallied by
/// [`hold_to_fresh_answers`].
#[derive(Default)]
struct Skips {
    reactions: usize,
    skipped: usize,
    guarded_only: usize,
}

/// Feed `events` to a greedy-evader verifier and hold every reaction to a
/// fresh evader's answer from the node the intruder stood on before it.
fn hold_to_fresh_answers(cube: Hypercube, start: Node, events: &[Event], tally: &mut Skips) {
    let mut verifier =
        Verifier::with_config(&cube, Node::ROOT, MonitorConfig::with_intruder(start));
    let mut guarded = vec![false; cube.node_count()];
    for (i, e) in events.iter().enumerate() {
        let CaptureStatus::Free(before) = verifier.intruder().expect("tracked").status() else {
            break;
        };
        let changes = verifier.field().contamination_changes();
        for x in cube.nodes() {
            guarded[x.index()] = verifier.field().is_guarded(x);
        }
        let _ = verifier.observe(e, e.time);
        let field = verifier.field();
        let mut fresh = Intruder::new(before, EvaderPolicy::Greedy);
        fresh.react(&cube, field, field.events_applied());
        let after = verifier.intruder().expect("tracked").status();
        assert_eq!(
            after,
            fresh.status(),
            "H_{} event {i}: {:?}",
            cube.dim(),
            e.kind
        );
        tally.reactions += 1;
        let skip =
            i > 0 && field.contamination_changes() == changes && field.is_contaminated(before);
        tally.skipped += usize::from(skip);
        let guards_moved = cube
            .nodes()
            .any(|x| field.is_guarded(x) != guarded[x.index()]);
        tally.guarded_only += usize::from(skip && guards_moved);
    }
}

/// The greedy evader skips its query after an event that flips no node's
/// contaminated status (`ContaminationField::contamination_changes`
/// stands still), even when the event moved, added or lifted a guard. On
/// the random streams and on every strategy's synthesized trace, every
/// reaction, skipped or not, lands where a fresh evader placed on the old
/// node lands; skips happen, and on the synthesized traces most of them
/// follow an event that changed the guarded set.
#[test]
fn skipped_reactions_answer_like_fresh_ones() {
    let mut rng = SplitMix64::new(0x5EED_E7AD);
    let mut random = Skips::default();
    let mut synthesized = Skips::default();
    for d in 1..=8 {
        let cube = Hypercube::new(d);
        let n = cube.node_count() as u64;
        for _ in 0..40 {
            let start = Node(1 + rng.below(n - 1) as u32);
            let len = 8 + rng.below(4 * n.min(64)) as usize;
            let events = random_stream(cube, &mut rng, len);
            hold_to_fresh_answers(cube, start, &events, &mut random);
        }
        for (_, events) in fast_traces(cube) {
            hold_to_fresh_answers(cube, far(cube), &events, &mut synthesized);
        }
    }
    let Skips {
        reactions,
        skipped,
        guarded_only,
    } = random;
    assert!(skipped * 10 > reactions, "{skipped} of {reactions}");
    assert!(guarded_only > 0, "{guarded_only} of {reactions}");
    let Skips {
        reactions,
        skipped,
        guarded_only,
    } = synthesized;
    assert!(skipped * 2 > reactions, "{skipped} of {reactions}");
    assert!(guarded_only * 2 > skipped, "{guarded_only} of {skipped}");
}
