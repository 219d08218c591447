//! Failure injection: deliberately broken strategies must be *caught* by
//! the monitors, not silently reported as successes. These tests establish
//! that the verification layer has teeth — without them, "all runs were
//! monotone" would be unfalsifiable.

use hypersweep::check::{StepOracle, ViolationKind, ViolationReport};
use hypersweep::core::visibility::VisBoard;
use hypersweep::prelude::*;
use hypersweep::sim::{Action, AgentProgram, Ctx, Engine, EngineConfig, Event, Role};
use hypersweep::topology::combinatorics as comb;
use hypersweep_testutil::{move_event, spawn_event};

/// Fold a recorded trace through the checker's per-step oracles
/// (monotonicity after every event, contiguity and frontier coverage at
/// stride 1) and return the first violation, if any.
fn first_oracle_violation(cube: &Hypercube, events: &[Event]) -> Option<ViolationReport> {
    let mut oracle = StepOracle::new(cube, Node::ROOT, 1);
    for (step, event) in events.iter().enumerate() {
        if let Err(v) = oracle.observe(event, step as u64) {
            return Some(v);
        }
    }
    None
}

/// A visibility agent with the guard condition removed: it dispatches as
/// soon as the team is complete, without checking that the smaller
/// neighbours are clean or guarded.
struct RecklessVisibilityAgent;

impl AgentProgram for RecklessVisibilityAgent {
    type Board = VisBoard;

    fn step(&mut self, ctx: &mut Ctx<'_, VisBoard>) -> Action {
        let x = ctx.node();
        let d = ctx.cube().dim();
        let k = d - x.msb_position();
        if k == 0 {
            return Action::Terminate;
        }
        if !ctx.board().dispatch_started {
            let need = comb::visibility_need(k);
            if u128::from(ctx.active_here()) < need {
                return Action::Wait;
            }
            // BUG: no smaller_neighbors_safe() check.
            ctx.board_mut().dispatch_started = true;
        }
        let slot = ctx.board().next_slot;
        ctx.board_mut().next_slot = slot + 1;
        let child_type = hypersweep::core::visibility::slot_child_type(slot);
        Action::Move(d - child_type)
    }
}

#[test]
fn reckless_dispatch_is_flagged_as_recontamination() {
    // Under a depth-first (LIFO) adversary one branch races ahead and
    // vacates nodes whose smaller neighbours are still contaminated.
    let mut caught = false;
    for d in 3..=6 {
        let cube = Hypercube::new(d);
        let mut engine = Engine::new(
            cube,
            EngineConfig {
                policy: Policy::Lifo,
                visibility: true,
                ..EngineConfig::default()
            },
        );
        for _ in 0..cube.node_count() / 2 {
            engine.spawn(RecklessVisibilityAgent, Node::ROOT, Role::Worker);
        }
        let report = engine.run().expect("the buggy strategy still terminates");
        let verdict = verify_trace(&cube, Node::ROOT, &report.events, MonitorConfig::default());
        if !verdict.monotone {
            caught = true;
            assert!(!verdict.is_complete());
            // The checker's per-step oracles must agree with the batch
            // monitor, and pin the violation to a specific event.
            let violation = first_oracle_violation(&cube, &report.events)
                .expect("d={d}: the step oracle missed what the monitor saw");
            assert!(
                matches!(violation.kind, ViolationKind::Recontamination { .. }),
                "d={d}: {violation}"
            );
            assert!(violation.event >= 1 && violation.event <= report.events.len() as u64);
        }
    }
    assert!(
        caught,
        "the monitors never flagged the reckless strategy on any dimension"
    );
}

/// A "CLEAN" that sweeps levels in *decreasing* numeric order — violating
/// the Lemma 1 prerequisite for releasing nodes safely.
#[test]
fn reverse_sweep_order_is_flagged() {
    // Hand-build the offending fragment on H_3: guard level 1 fully, then
    // dispatch from the *largest* level-1 node first and vacate it — its
    // non-tree up-neighbour is still contaminated.
    let cube = Hypercube::new(3);
    let mut events = Vec::new();
    for agent in 0..4u32 {
        events.push(spawn_event(agent));
    }
    // Guard level 1: agents 1,2,3 to nodes 1,2,4.
    events.push(move_event(1, 0, 1));
    events.push(move_event(2, 0, 2));
    events.push(move_event(3, 0, 4));
    // Reverse order: dispatch node 2 (type T(1), child 6) and vacate it,
    // while its non-tree up-neighbour 3 (child of node 1!) is still
    // contaminated → node 2 must be recontaminated.
    events.push(move_event(2, 2, 6));
    let verdict = verify_trace(&cube, Node::ROOT, &events, MonitorConfig::default());
    assert!(!verdict.monotone, "reverse sweep must recontaminate");
    // The audit and the step oracle are one verifier: both pin node 2 on
    // the final event.
    let violation = first_oracle_violation(&cube, &events).expect("oracle fires");
    assert_eq!(violation.event, events.len() as u64);
    assert_eq!(violation.kind, ViolationKind::Recontamination { node: 2 });
    assert_eq!(verdict.violations[0].kind, violation.kind);
    assert_eq!(verdict.violations[0].event, violation.event);
}

/// Too few agents: the visibility strategy with n/2 − 1 agents deadlocks
/// (the last dispatch never assembles) — the engine reports it rather than
/// hanging or faking success.
#[test]
fn underprovisioned_team_deadlocks_cleanly() {
    use hypersweep::core::visibility::VisibilityAgent;
    for d in 2..=6 {
        let cube = Hypercube::new(d);
        let mut engine = Engine::new(
            cube,
            EngineConfig {
                policy: Policy::Fifo,
                visibility: true,
                ..EngineConfig::default()
            },
        );
        let team = (cube.node_count() / 2 - 1) as u32;
        for _ in 0..team {
            engine.spawn(VisibilityAgent, Node::ROOT, Role::Worker);
        }
        match engine.run() {
            Err(hypersweep::sim::RunError::Deadlock { waiting }) => {
                assert!(waiting >= 1, "d={d}");
            }
            other => panic!("d={d}: expected deadlock, got {other:?}"),
        }
    }
}

/// An abandoned search (agents terminate mid-way) fails the coverage and
/// capture checks without tripping monotonicity.
#[test]
fn premature_termination_fails_coverage_not_monotonicity() {
    // One agent anchors the homebase forever; the other advances one hop
    // and gives up. Nothing is ever vacated, so monotonicity holds — but
    // 14 of the 16 nodes stay contaminated and the evader roams free.
    struct Quitter {
        anchor: bool,
    }
    impl AgentProgram for Quitter {
        type Board = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Action {
            if !self.anchor && ctx.node() == Node::ROOT {
                self.anchor = true; // terminate on arrival next activation
                return Action::Move(1);
            }
            Action::Terminate
        }
    }
    let cube = Hypercube::new(4);
    let mut engine = Engine::new(cube, EngineConfig::default());
    engine.spawn(Quitter { anchor: true }, Node::ROOT, Role::Worker);
    engine.spawn(Quitter { anchor: false }, Node::ROOT, Role::Worker);
    let report = engine.run().unwrap();
    let verdict = verify_trace(
        &cube,
        Node::ROOT,
        &report.events,
        MonitorConfig::with_intruder(Node(15)),
    );
    assert!(verdict.monotone, "nothing was vacated unsafely");
    assert!(!verdict.all_clean);
    assert!(matches!(verdict.capture, Some(CaptureStatus::Free(_))));
    assert!(!verdict.is_complete());

    // Per-step: no oracle fires mid-trace (the abandonment violates no
    // step invariant), but the terminal capture oracle must.
    let mut oracle = StepOracle::new(&cube, Node::ROOT, 1);
    for (step, event) in report.events.iter().enumerate() {
        oracle
            .observe(event, step as u64)
            .expect("an abandoned search breaks no per-step invariant");
    }
    let terminal = oracle
        .finish(report.events.len() as u64)
        .expect_err("the capture oracle must flag the abandoned search");
    assert!(matches!(
        terminal.kind,
        ViolationKind::CaptureEscaped { contaminated: 14 }
    ));
}

/// The engine rejects moves through non-existent ports instead of
/// corrupting state.
#[test]
fn invalid_ports_are_hard_errors() {
    struct OutOfRange;
    impl AgentProgram for OutOfRange {
        type Board = ();
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Action {
            Action::Move(7) // H_3 has ports 1..=3
        }
    }
    let mut engine = Engine::new(Hypercube::new(3), EngineConfig::default());
    engine.spawn(OutOfRange, Node::ROOT, Role::Worker);
    assert!(matches!(
        engine.run(),
        Err(hypersweep::sim::RunError::InvalidAction { .. })
    ));
}
