//! Cross-executor agreement: the discrete-event engine, the procedural
//! trace generators, and the real-thread executor must tell the same
//! story.

use hypersweep::core::clean::CleanAgent;
use hypersweep::core::cloning::CloningAgent;
use hypersweep::core::visibility::VisibilityAgent;
use hypersweep::prelude::*;
use hypersweep::sim::Role;
use hypersweep_testutil::audit_far_corner as audit;
use hypersweep_testutil::threaded::{run_threaded, ThreadedConfig};

#[test]
fn threaded_visibility_matches_des() {
    for d in 2..=7 {
        let cube = Hypercube::new(d);
        let strategy = VisibilityStrategy::new(cube);
        let des = strategy.run(Policy::Fifo).unwrap();

        let programs: Vec<(VisibilityAgent, Role)> = (0..strategy.team_size())
            .map(|_| (VisibilityAgent, Role::Worker))
            .collect();
        let threaded = run_threaded(
            cube,
            programs,
            ThreadedConfig {
                visibility: true,
                ..ThreadedConfig::default()
            },
        )
        .unwrap();

        assert_eq!(
            threaded.metrics.total_moves(),
            des.metrics.total_moves(),
            "d={d}: thread schedule changed the move count"
        );
        assert_eq!(threaded.metrics.team_size, des.metrics.team_size);
        let verdict = audit(cube, &threaded.events);
        assert!(verdict.is_complete(), "d={d}: {:?}", verdict.violations);
    }
}

#[test]
fn threaded_cloning_matches_des() {
    for d in 2..=7 {
        let cube = Hypercube::new(d);
        let threaded = run_threaded(
            cube,
            vec![(CloningAgent::new(), Role::Worker)],
            ThreadedConfig {
                visibility: true,
                ..ThreadedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            threaded.metrics.total_moves(),
            (cube.node_count() - 1) as u64,
            "d={d}: cloning must cross each tree edge once"
        );
        assert_eq!(threaded.metrics.team_size, (cube.node_count() / 2) as u64);
        let verdict = audit(cube, &threaded.events);
        assert!(verdict.is_complete(), "d={d}: {:?}", verdict.violations);
    }
}

#[test]
fn synchronous_variant_agrees_across_executors() {
    // The synchronous agent is only defined under the global clock, which
    // real threads don't provide; its canonical trace is the visibility
    // wavefront (§5 of the paper), so the threaded leg executes the
    // equivalent visibility team and all three executors must agree.
    for d in 2..=6 {
        let cube = Hypercube::new(d);
        let strategy = SynchronousStrategy::new(cube);

        let engine = strategy.run(Policy::Synchronous).unwrap();
        assert!(
            engine.is_complete(),
            "d={d}: {:?}",
            engine.verdict.violations
        );

        let fast = strategy.fast(true);
        assert!(fast.is_complete(), "d={d}: {:?}", fast.verdict.violations);
        assert_eq!(engine.metrics.total_moves(), fast.metrics.total_moves());
        assert_eq!(engine.metrics.team_size, fast.metrics.team_size);
        assert_eq!(engine.metrics.ideal_time, fast.metrics.ideal_time);

        let programs: Vec<(VisibilityAgent, Role)> = (0..strategy.team_size())
            .map(|_| (VisibilityAgent, Role::Worker))
            .collect();
        let threaded = run_threaded(
            cube,
            programs,
            ThreadedConfig {
                visibility: true,
                ..ThreadedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            threaded.metrics.total_moves(),
            engine.metrics.total_moves(),
            "d={d}: thread schedule changed the move count"
        );
        assert_eq!(threaded.metrics.team_size, engine.metrics.team_size);
        let verdict = audit(cube, &threaded.events);
        assert!(verdict.is_complete(), "d={d}: {:?}", verdict.violations);
    }
}

#[test]
fn cloning_agrees_across_executors() {
    for d in 2..=7 {
        let cube = Hypercube::new(d);
        let strategy = CloningStrategy::new(cube);

        let engine = strategy.run(Policy::Fifo).unwrap();
        assert!(
            engine.is_complete(),
            "d={d}: {:?}",
            engine.verdict.violations
        );

        let fast = strategy.fast(true);
        assert!(fast.is_complete(), "d={d}: {:?}", fast.verdict.violations);
        assert_eq!(engine.metrics.total_moves(), fast.metrics.total_moves());
        assert_eq!(engine.metrics.team_size, fast.metrics.team_size);

        let threaded = run_threaded(
            cube,
            vec![(CloningAgent::new(), Role::Worker)],
            ThreadedConfig {
                visibility: true,
                ..ThreadedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            threaded.metrics.total_moves(),
            engine.metrics.total_moves(),
            "d={d}: thread schedule changed the move count"
        );
        assert_eq!(threaded.metrics.team_size, engine.metrics.team_size);
        let verdict = audit(cube, &threaded.events);
        assert!(verdict.is_complete(), "d={d}: {:?}", verdict.violations);
    }
}

#[test]
fn threaded_clean_meters_logarithmic_whiteboards_and_local_memory() {
    // The executor meters whiteboard and agent-local bits after every
    // activation. On real threads CLEAN must use some of both, within the
    // O(log n) bounds `full_captures.rs` holds the engine to (§2).
    for d in [4u32, 6, 8] {
        let cube = Hypercube::new(d);
        let team = CleanStrategy::new(cube).team_size();
        let mut programs = vec![(CleanAgent::synchronizer(), Role::Coordinator)];
        programs.extend((1..team).map(|_| (CleanAgent::worker(), Role::Worker)));
        let threaded = run_threaded(cube, programs, ThreadedConfig::default())
            .unwrap_or_else(|e| panic!("d={d}: {e}"));
        let (board, local) = (
            threaded.metrics.peak_board_bits,
            threaded.metrics.peak_local_bits,
        );
        assert!(
            board > 0 && board <= 16 * d + 64,
            "d={d}: whiteboard {board} bits"
        );
        assert!(local > 0 && local <= 64, "d={d}: local state {local} bits");
        let verdict = audit(cube, &threaded.events);
        assert!(verdict.is_complete(), "d={d}: {:?}", verdict.violations);
    }
}

#[test]
fn threaded_runs_are_repeatedly_correct() {
    // Different OS interleavings every time; the audit must hold for all.
    let cube = Hypercube::new(6);
    for _ in 0..5 {
        let programs: Vec<(VisibilityAgent, Role)> =
            (0..32).map(|_| (VisibilityAgent, Role::Worker)).collect();
        let report = run_threaded(
            cube,
            programs,
            ThreadedConfig {
                visibility: true,
                ..ThreadedConfig::default()
            },
        )
        .unwrap();
        let verdict = audit(cube, &report.events);
        assert!(verdict.is_complete(), "{:?}", verdict.violations);
    }
}

#[test]
fn synthesized_traces_audit_clean() {
    for d in 1..=8 {
        let cube = Hypercube::new(d);
        let strategies: [&dyn SearchStrategy; 3] = [
            &CleanStrategy::new(cube),
            &VisibilityStrategy::new(cube),
            &CloningStrategy::new(cube),
        ];
        for s in strategies {
            let mut ev = Vec::new();
            s.synthesize_into(&mut ev);
            let verdict = audit(cube, &ev);
            let name = s.name();
            assert!(
                verdict.is_complete(),
                "{name} d={d}: {:?}",
                verdict.violations
            );
        }
    }
}

#[test]
fn final_occupancy_is_identical_across_executors() {
    // Visibility leaves exactly one guard on every broadcast-tree leaf in
    // every executor.
    let cube = Hypercube::new(6);
    let tree = BroadcastTree::new(cube);
    let programs: Vec<(VisibilityAgent, Role)> =
        (0..32).map(|_| (VisibilityAgent, Role::Worker)).collect();
    let threaded = run_threaded(
        cube,
        programs,
        ThreadedConfig {
            visibility: true,
            ..ThreadedConfig::default()
        },
    )
    .unwrap();
    for x in cube.nodes() {
        assert_eq!(
            threaded.occupancy[x.index()],
            u32::from(tree.is_leaf(x)),
            "node {x}"
        );
    }
}

#[test]
fn threaded_logs_audit_complete_over_many_runs() {
    // Each move publishes the state other agents read under the log lock.
    // Published before it, an agent could react to a move and log the
    // reaction first: a node then reads as vacated before its neighbour's
    // guard arrives, and the audit sees recontamination. That happened in
    // about 1 run in 40 (cloning) and 1 in 100 (visibility) at d=5.
    let cube = Hypercube::new(5);
    let cfg = ThreadedConfig {
        visibility: true,
        ..ThreadedConfig::default()
    };
    for run in 0..200 {
        let cloning = run_threaded(cube, vec![(CloningAgent::new(), Role::Worker)], cfg).unwrap();
        let verdict = audit(cube, &cloning.events);
        assert!(
            verdict.is_complete(),
            "cloning run {run}: {:?}",
            verdict.violations
        );
        let team = (0..16).map(|_| (VisibilityAgent, Role::Worker)).collect();
        let visibility = run_threaded(cube, team, cfg).unwrap();
        let verdict = audit(cube, &visibility.events);
        assert!(
            verdict.is_complete(),
            "visibility run {run}: {:?}",
            verdict.violations
        );
    }
}
