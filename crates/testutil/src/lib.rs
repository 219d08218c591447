//! Shared fixtures for the integration test suites.
//!
//! Used as a dev-dependency only; nothing here ships in release builds.
//! The helpers were promoted out of `crates/server/tests/serve.rs`,
//! `tests/cross_engine.rs`, and `tests/pool_determinism.rs`, where each
//! suite kept a private near-identical copy. [`golden`] compares outputs
//! with the files under the workspace's `tests/golden/` for the root
//! `goldens` suite and the CLI's tests. [`oracles`] holds the whole-field
//! references for the contamination field's answers. [`threaded`] runs
//! agent programs on real OS threads, the cross-check the cross-engine
//! suites hold the discrete-event engine to. [`greedy_dual`] is the
//! reference model of the run cache's eviction rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod golden;
pub mod greedy_dual;
pub mod oracles;
pub mod threaded;

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hypersweep_analysis::{RunCache, StrategyKind};
use hypersweep_intruder::{verify_trace, MonitorConfig, Verdict};
use hypersweep_server::{Request, Server, ServerLimits, ServerStats};
use hypersweep_sim::{Event, EventKind, Role};
use hypersweep_topology::{Hypercube, Node};

pub use golden::golden;

/// A shutdown trigger for a spawned daemon; call it to begin draining.
pub type Shutdown = Arc<dyn Fn() + Send + Sync>;

/// Spawn a daemon on an ephemeral port over an explicit run cache; returns
/// its address, a shutdown trigger, and the join handle yielding the final
/// stats.
pub fn spawn_server(
    limits: ServerLimits,
    cache: Arc<RunCache>,
) -> (String, Shutdown, JoinHandle<ServerStats>) {
    let server = Server::with_cache("127.0.0.1:0", limits, cache).expect("bind");
    finish_spawn(server)
}

/// Spawn a daemon on an ephemeral port through [`Server::bind`], the path
/// `hypersweep serve` takes (the run cache accounts into the daemon's own
/// telemetry registry).
pub fn spawn_bound_server(limits: ServerLimits) -> (String, Shutdown, JoinHandle<ServerStats>) {
    let server = Server::bind("127.0.0.1:0", limits).expect("bind");
    finish_spawn(server)
}

fn finish_spawn(server: Server) -> (String, Shutdown, JoinHandle<ServerStats>) {
    let addr = server.local_addr().expect("addr").to_string();
    let flag = server.shutdown_flag();
    let shutdown: Shutdown = Arc::new(move || flag());
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, shutdown, handle)
}

/// Default limits with a test-friendly 10s request timeout.
pub fn quick_limits() -> ServerLimits {
    ServerLimits {
        request_timeout: Duration::from_secs(10),
        ..ServerLimits::default()
    }
}

/// The standard mixed request stream used by the determinism suites:
/// plan/predict/audit across all four paper strategies, plus a frontier
/// audit.
pub fn standard_workload() -> Vec<Request> {
    let mut w = Vec::new();
    for strategy in [
        StrategyKind::Clean,
        StrategyKind::Visibility,
        StrategyKind::Cloning,
        StrategyKind::Synchronous,
    ] {
        w.push(Request::Plan { strategy, dim: 6 });
        w.push(Request::Predict { strategy, dim: 8 });
        w.push(Request::Audit { strategy, dim: 6 });
    }
    w.push(Request::Audit {
        strategy: StrategyKind::Frontier,
        dim: 5,
    });
    w
}

/// Audit a trace with the full verifier and the worst-case
/// intruder seeded at the far corner (the node furthest from the
/// homebase).
pub fn audit_far_corner(cube: Hypercube, events: &[Event]) -> Verdict {
    verify_trace(
        &cube,
        Node::ROOT,
        events,
        MonitorConfig::with_intruder(Node(cube.node_count() as u32 - 1)),
    )
}

/// A hand-built spawn event at the homebase (worker role, time 0).
pub fn spawn_event(agent: u32) -> Event {
    Event {
        time: 0,
        kind: EventKind::Spawn {
            agent,
            node: Node::ROOT,
            role: Role::Worker,
        },
    }
}

/// A hand-built move event (worker role, time 0) for trace fragments.
pub fn move_event(agent: u32, from: u32, to: u32) -> Event {
    Event {
        time: 0,
        kind: EventKind::Move {
            agent,
            from: Node(from),
            to: Node(to),
            role: Role::Worker,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_covers_every_paper_strategy() {
        let w = standard_workload();
        assert_eq!(w.len(), 13);
    }

    #[test]
    fn far_corner_audit_accepts_a_synthesized_clean_trace() {
        let cube = Hypercube::new(4);
        let mut ev = Vec::new();
        StrategyKind::Clean.strategy(cube).synthesize_into(&mut ev);
        let verdict = audit_far_corner(cube, &ev);
        assert!(verdict.is_complete(), "{:?}", verdict.violations);
    }
}
