//! Determinism guarantees and serialization round-trips.

use hypersweep::core::clean::CleanAgent;
use hypersweep::prelude::*;
use hypersweep::sim::{Event, Role};
use hypersweep_testutil::threaded::{run_threaded, ThreadedConfig};

#[test]
fn engine_runs_are_deterministic_per_policy() {
    // Same strategy + same policy (incl. seed) ⇒ byte-identical event
    // streams.
    for policy in [
        Policy::Fifo,
        Policy::Lifo,
        Policy::RoundRobin,
        Policy::Random(123),
        Policy::Synchronous,
    ] {
        let run = || {
            let cube = Hypercube::new(5);
            VisibilityStrategy::new(cube).run(policy).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics, b.metrics, "{policy:?}");
        assert_eq!(a.verdict.events, b.verdict.events);
        assert_eq!(a.verdict.capture, b.verdict.capture, "{policy:?}");
    }
}

#[test]
fn different_seeds_usually_schedule_differently() {
    // Sanity: the random adversary actually varies with the seed (capture
    // event indices differ for at least one pair).
    let capture_at = |seed| {
        let outcome = VisibilityStrategy::new(Hypercube::new(6))
            .run(Policy::Random(seed))
            .unwrap();
        match outcome.verdict.capture.unwrap() {
            CaptureStatus::Captured { at_event, .. } => at_event,
            _ => panic!("must capture"),
        }
    };
    let values: Vec<u64> = (0..6).map(capture_at).collect();
    assert!(
        values.windows(2).any(|w| w[0] != w[1]),
        "all seeds produced identical schedules: {values:?}"
    );
}

#[test]
fn events_round_trip_through_json() {
    let mut events = Vec::new();
    CloningStrategy::new(Hypercube::new(5)).synthesize_into(&mut events);
    let json = serde_json::to_string(&events).unwrap();
    let back: Vec<Event> = serde_json::from_str(&json).unwrap();
    assert_eq!(events, back);
    // A trace that survives serialization still audits identically.
    let cube = Hypercube::new(5);
    let v1 = verify_trace(&cube, Node::ROOT, &events, MonitorConfig::default());
    let v2 = verify_trace(&cube, Node::ROOT, &back, MonitorConfig::default());
    assert_eq!(v1.monotone, v2.monotone);
    assert_eq!(v1.all_clean, v2.all_clean);
    assert_eq!(v1.events, v2.events);
}

#[test]
fn metrics_round_trip_through_json() {
    let m = VisibilityStrategy::new(Hypercube::new(7))
        .fast(false)
        .metrics;
    let json = serde_json::to_string(&m).unwrap();
    let back: hypersweep::sim::Metrics = serde_json::from_str(&json).unwrap();
    assert_eq!(m, back);
}

#[test]
fn threaded_clean_with_coordinator_is_correct() {
    // The synchronizer-coordinated strategy on real threads: the
    // whiteboard protocol (orders, claims, done flag) must survive true
    // concurrency.
    for d in 2..=5 {
        let cube = Hypercube::new(d);
        let team = CleanStrategy::new(cube).team_size();
        let mut programs = vec![(CleanAgent::synchronizer(), Role::Coordinator)];
        for _ in 1..team {
            programs.push((CleanAgent::worker(), Role::Worker));
        }
        let report = run_threaded(cube, programs, ThreadedConfig::default())
            .unwrap_or_else(|e| panic!("d={d}: {e}"));
        let verdict = verify_trace(
            &cube,
            Node::ROOT,
            &report.events,
            MonitorConfig::with_intruder(Node(cube.node_count() as u32 - 1)),
        );
        assert!(verdict.is_complete(), "d={d}: {:?}", verdict.violations);
        assert_eq!(
            u128::from(report.metrics.worker_moves),
            hypersweep::topology::combinatorics::clean_agent_moves(d),
            "d={d}: Theorem 3 holds on real threads too"
        );
    }
}

#[test]
fn fast_traces_are_reproducible() {
    let trace = || {
        let mut events = Vec::new();
        let metrics = CleanStrategy::new(Hypercube::new(6)).synthesize_into(&mut events);
        (metrics, events)
    };
    let (a, b) = (trace(), trace());
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}
