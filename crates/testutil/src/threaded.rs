//! True-concurrency executor: one OS thread per agent, the cross-check
//! the cross-engine suites hold `hypersweep-sim`'s discrete-event engine
//! to.
//!
//! The engine *models* asynchrony; this executor *is* asynchronous: each
//! agent runs on its own thread, whiteboards are `std::sync` mutexes (the
//! paper's "access to a whiteboard is gained fairly in mutual exclusion"),
//! waiting agents block on per-node condition variables, and moves are
//! atomic slides performed under both endpoint locks (taken in address
//! order to avoid deadlock). The OS scheduler plays the adversary.
//!
//! Events are appended to a global log while both endpoint locks are held,
//! and the lock-free state mirrors change under the same log lock, giving
//! a linearization the `hypersweep-intruder` verifier can audit just like
//! an engine trace. Intended for moderate dimensions (`d ≤ 10`, i.e.
//! at most a few hundred threads).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use hypersweep_sim::{
    Action, AgentId, AgentProgram, Board, Ctx, Event, EventKind, Metrics, NodeState, Role,
    RunError, RunReport,
};
use hypersweep_topology::{Hypercube, Node, NodeSet};

struct NodeCell<B> {
    board: B,
    /// Non-terminated agents present.
    active: u32,
}

struct Log {
    events: Vec<Event>,
    away_now: u64,
    peak_away: u64,
    clock: u64,
}

struct Shared<B> {
    cube: Hypercube,
    cells: Vec<Mutex<NodeCell<B>>>,
    signals: Vec<Condvar>,
    /// Mirrors for lock-free visibility reads.
    occupancy: Vec<AtomicU32>,
    visited: Vec<AtomicBool>,
    visibility: bool,
    log: Mutex<Log>,
    worker_moves: AtomicU64,
    coordinator_moves: AtomicU64,
    team_size: AtomicU32,
    next_id: AtomicU32,
    peak_board_bits: AtomicU32,
    peak_local_bits: AtomicU32,
    failed: AtomicBool,
    deadline: Instant,
}

/// Lock that ignores poisoning: an agent thread that panics (a buggy
/// program) must not wedge the others, which then time out or finish.
/// The scope re-raises the panic, so no report reads a half-updated cell.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<B: Board> Shared<B> {
    fn state_of(&self, node: Node) -> NodeState {
        if self.occupancy[node.index()].load(Ordering::Acquire) > 0 {
            NodeState::Guarded
        } else if self.visited[node.index()].load(Ordering::Acquire) {
            NodeState::Clean
        } else {
            NodeState::Contaminated
        }
    }

    fn notify_visible(&self, node: Node) {
        self.signals[node.index()].notify_all();
        if self.visibility {
            for p in 1..=self.cube.dim() {
                self.signals[node.flip(p).index()].notify_all();
            }
        }
    }

    /// Append an event, first running `publish` (the `occupancy`/`visited`
    /// updates that other agents read without a lock) under the log lock.
    /// Published any earlier, an agent could see the new state and log
    /// its reaction ahead of this event, and the log would no longer be a
    /// linearization.
    fn emit(&self, kind: EventKind, away_delta: i64, publish: impl FnOnce()) {
        let mut log = lock(&self.log);
        publish();
        log.clock += 1;
        let time = log.clock;
        log.events.push(Event { time, kind });
        if away_delta != 0 {
            log.away_now = (log.away_now as i64 + away_delta) as u64;
            let now = log.away_now;
            if now > log.peak_away {
                log.peak_away = now;
            }
        }
    }
}

/// Configuration for the threaded executor.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Whether agents may observe neighbour states.
    pub visibility: bool,
    /// Wall-clock budget; exceeding it aborts the run with
    /// [`RunError::ActivationLimit`] (used to surface deadlocks).
    pub timeout: Duration,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            visibility: false,
            timeout: Duration::from_secs(60),
        }
    }
}

/// Run `programs` (each with a role, all starting at the homebase `00…0`)
/// on real threads until every agent terminates, recording every event.
pub fn run_threaded<P: AgentProgram>(
    cube: Hypercube,
    programs: Vec<(P, Role)>,
    cfg: ThreadedConfig,
) -> Result<RunReport, RunError> {
    let n = cube.node_count();
    let shared = Shared::<P::Board> {
        cube,
        cells: (0..n)
            .map(|_| {
                Mutex::new(NodeCell {
                    board: P::Board::default(),
                    active: 0,
                })
            })
            .collect(),
        signals: (0..n).map(|_| Condvar::new()).collect(),
        occupancy: (0..n).map(|_| AtomicU32::new(0)).collect(),
        visited: (0..n).map(|_| AtomicBool::new(false)).collect(),
        visibility: cfg.visibility,
        log: Mutex::new(Log {
            events: Vec::new(),
            away_now: 0,
            peak_away: 0,
            clock: 0,
        }),
        worker_moves: AtomicU64::new(0),
        coordinator_moves: AtomicU64::new(0),
        team_size: AtomicU32::new(0),
        next_id: AtomicU32::new(0),
        peak_board_bits: AtomicU32::new(0),
        peak_local_bits: AtomicU32::new(0),
        failed: AtomicBool::new(false),
        deadline: Instant::now() + cfg.timeout,
    };

    // The whole team stands on the homebase before any agent runs, as in
    // the engine: an agent started early could leave the homebase before
    // the next spawn is logged, and the log would show it vacated.
    let team: Vec<(P, Role, AgentId)> = programs
        .into_iter()
        .map(|(program, role)| {
            let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
            shared.team_size.fetch_add(1, Ordering::Relaxed);
            {
                let mut cell = lock(&shared.cells[Node::ROOT.index()]);
                cell.active += 1;
            }
            shared.emit(
                EventKind::Spawn {
                    agent: id,
                    node: Node::ROOT,
                    role,
                },
                0,
                || {
                    shared.occupancy[Node::ROOT.index()].fetch_add(1, Ordering::AcqRel);
                    shared.visited[Node::ROOT.index()].store(true, Ordering::Release);
                },
            );
            (program, role, id)
        })
        .collect();
    std::thread::scope(|scope| {
        for (program, role, id) in team {
            let shared_ref = &shared;
            scope.spawn(move || agent_main(shared_ref, scope, program, id, role, Node::ROOT));
        }
    });

    if shared.failed.load(Ordering::Acquire) {
        return Err(RunError::ActivationLimit);
    }
    let log = shared.log.into_inner().unwrap_or_else(|e| e.into_inner());
    let metrics = Metrics {
        worker_moves: shared.worker_moves.load(Ordering::Acquire),
        coordinator_moves: shared.coordinator_moves.load(Ordering::Acquire),
        team_size: u64::from(shared.team_size.load(Ordering::Acquire)),
        peak_away: log.peak_away,
        ideal_time: None,
        activations: log.clock,
        peak_board_bits: shared.peak_board_bits.load(Ordering::Acquire),
        peak_local_bits: shared.peak_local_bits.load(Ordering::Acquire),
    };
    Ok(RunReport {
        metrics,
        events: log.events,
        visited: {
            let mut set = NodeSet::new(shared.visited.len());
            for (i, v) in shared.visited.iter().enumerate() {
                if v.load(Ordering::Acquire) {
                    set.insert(Node(i as u32));
                }
            }
            set
        },
        occupancy: shared
            .occupancy
            .iter()
            .map(|o| o.load(Ordering::Acquire))
            .collect(),
    })
}

fn agent_main<'scope, 'env, P: AgentProgram>(
    shared: &'scope Shared<P::Board>,
    scope: &'scope std::thread::Scope<'scope, 'env>,
    mut program: P,
    id: AgentId,
    role: Role,
    start: Node,
) {
    let mut pos = start;
    loop {
        if Instant::now() >= shared.deadline {
            shared.failed.store(true, Ordering::Release);
            // Wake everyone so they also observe the failure and exit.
            for s in &shared.signals {
                s.notify_all();
            }
            return;
        }
        if shared.failed.load(Ordering::Acquire) {
            return;
        }

        let neighbor_states: Option<Vec<NodeState>> = if shared.visibility {
            Some(
                (1..=shared.cube.dim())
                    .map(|p| shared.state_of(pos.flip(p)))
                    .collect(),
            )
        } else {
            None
        };

        let mut cell = lock(&shared.cells[pos.index()]);
        let alive_here = cell.active;
        let action = program.step(&mut Ctx::new(
            shared.cube,
            pos,
            id,
            alive_here,
            &mut cell.board,
            neighbor_states.as_deref(),
            None,
        ));
        // Metered after every activation, as the engine meters.
        shared
            .peak_board_bits
            .fetch_max(cell.board.bits_used(), Ordering::Relaxed);
        shared
            .peak_local_bits
            .fetch_max(program.local_bits(), Ordering::Relaxed);

        match action {
            Action::Wait => {
                // Timed wait: visibility changes at neighbours do signal us,
                // but the timeout makes missed wake-ups harmless. The guard
                // comes back, poisoned or not, only to be released.
                drop(shared.signals[pos.index()].wait_timeout(cell, Duration::from_millis(1)));
            }
            Action::Move(port) => {
                drop(cell);
                let to = pos.flip(port);
                let (first, second) = if pos < to { (pos, to) } else { (to, pos) };
                let mut a = lock(&shared.cells[first.index()]);
                let mut b = lock(&shared.cells[second.index()]);
                let (from_cell, to_cell) = if pos < to {
                    (&mut *a, &mut *b)
                } else {
                    (&mut *b, &mut *a)
                };
                from_cell.active -= 1;
                to_cell.active += 1;
                let away = match (pos == Node::ROOT, to == Node::ROOT) {
                    (true, false) => 1,
                    (false, true) => -1,
                    _ => 0,
                };
                shared.emit(
                    EventKind::Move {
                        agent: id,
                        from: pos,
                        to,
                        role,
                    },
                    away,
                    || {
                        shared.occupancy[pos.index()].fetch_sub(1, Ordering::AcqRel);
                        shared.occupancy[to.index()].fetch_add(1, Ordering::AcqRel);
                        shared.visited[to.index()].store(true, Ordering::Release);
                    },
                );
                match role {
                    Role::Coordinator => shared.coordinator_moves.fetch_add(1, Ordering::Relaxed),
                    Role::Worker => shared.worker_moves.fetch_add(1, Ordering::Relaxed),
                };
                drop(a);
                drop(b);
                shared.notify_visible(pos);
                shared.notify_visible(to);
                pos = to;
            }
            Action::Clone(port) => {
                drop(cell);
                let to = pos.flip(port);
                let child_id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                shared.team_size.fetch_add(1, Ordering::Relaxed);
                {
                    let mut to_cell = lock(&shared.cells[to.index()]);
                    to_cell.active += 1;
                    shared.emit(
                        EventKind::CloneSpawn {
                            parent: id,
                            child: child_id,
                            from: pos,
                            to,
                        },
                        i64::from(to != Node::ROOT),
                        || {
                            shared.occupancy[to.index()].fetch_add(1, Ordering::AcqRel);
                            shared.visited[to.index()].store(true, Ordering::Release);
                        },
                    );
                    shared.worker_moves.fetch_add(1, Ordering::Relaxed);
                }
                shared.notify_visible(to);
                let child_program = program.clone_program();
                scope.spawn(move || {
                    agent_main(shared, scope, child_program, child_id, Role::Worker, to)
                });
            }
            Action::Terminate => {
                cell.active -= 1;
                drop(cell);
                shared.emit(
                    EventKind::Terminate {
                        agent: id,
                        node: pos,
                    },
                    0,
                    || {},
                );
                shared.notify_visible(pos);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct WalkTo {
        target: Node,
    }

    impl AgentProgram for WalkTo {
        type Board = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Action {
            let here = ctx.node();
            if here == self.target {
                return Action::Terminate;
            }
            for p in 1..=ctx.cube().dim() {
                if self.target.bit(p) && !here.bit(p) {
                    return Action::Move(p);
                }
            }
            Action::Terminate
        }
    }

    #[test]
    fn threaded_walkers_reach_targets() {
        let cube = Hypercube::new(4);
        let programs: Vec<(WalkTo, Role)> = [3u32, 5, 9, 14, 15]
            .iter()
            .map(|&t| (WalkTo { target: Node(t) }, Role::Worker))
            .collect();
        let report = run_threaded(cube, programs, ThreadedConfig::default()).unwrap();
        for t in [3u32, 5, 9, 14, 15] {
            assert_eq!(report.occupancy[t as usize], 1);
        }
        assert_eq!(report.metrics.team_size, 5);
        let expected_moves: u32 = [3u32, 5, 9, 14, 15].iter().map(|t| t.count_ones()).sum();
        assert_eq!(report.metrics.worker_moves, u64::from(expected_moves));
    }

    /// Wait until the neighbour across port 1 is guarded, then walk there…
    /// exercising visibility wake-ups across threads.
    struct WaitForNeighbor {
        done: bool,
    }

    impl AgentProgram for WaitForNeighbor {
        type Board = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Action {
            if self.done {
                return Action::Terminate;
            }
            if ctx.node() == Node::ROOT {
                if ctx.neighbor_state(1) == NodeState::Guarded {
                    self.done = true;
                    return Action::Move(2);
                }
                Action::Wait
            } else {
                Action::Terminate
            }
        }
    }

    struct Settler;
    impl AgentProgram for Settler {
        type Board = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Action {
            if ctx.node() == Node::ROOT {
                Action::Move(1)
            } else {
                Action::Terminate
            }
        }
    }

    enum Either {
        A(WaitForNeighbor),
        B(Settler),
    }
    impl AgentProgram for Either {
        type Board = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Action {
            match self {
                Either::A(a) => a.step(ctx),
                Either::B(b) => b.step(ctx),
            }
        }
    }

    #[test]
    fn visibility_across_threads() {
        let cube = Hypercube::new(2);
        let programs = vec![
            (Either::A(WaitForNeighbor { done: false }), Role::Worker),
            (Either::B(Settler), Role::Worker),
        ];
        let cfg = ThreadedConfig {
            visibility: true,
            ..ThreadedConfig::default()
        };
        let report = run_threaded(cube, programs, cfg).unwrap();
        assert_eq!(report.occupancy[1], 1);
        assert_eq!(report.occupancy[2], 1);
    }

    #[derive(Clone)]
    struct CloneChain {
        hops_left: u32,
        child_hops: u32,
    }

    impl AgentProgram for CloneChain {
        type Board = ();
        fn step(&mut self, ctx: &mut Ctx<'_, ()>) -> Action {
            if self.hops_left == 0 {
                return Action::Terminate;
            }
            let port = ctx.node().level() + 1;
            self.child_hops = self.hops_left - 1;
            self.hops_left = 0;
            Action::Clone(port)
        }
        fn clone_program(&self) -> Self {
            CloneChain {
                hops_left: self.child_hops,
                child_hops: 0,
            }
        }
    }

    #[test]
    fn threaded_cloning_spawns_threads() {
        // A chain of clones 0 → 1 → 11 → 111 on H_3.
        let cube = Hypercube::new(3);
        let programs = vec![(
            CloneChain {
                hops_left: 3,
                child_hops: 0,
            },
            Role::Worker,
        )];
        let report = run_threaded(cube, programs, ThreadedConfig::default()).unwrap();
        assert_eq!(report.metrics.team_size, 4);
        assert_eq!(report.metrics.worker_moves, 3);
        assert_eq!(report.occupancy[0b111], 1);
    }

    #[test]
    fn timeout_surfaces_deadlock() {
        struct Forever;
        impl AgentProgram for Forever {
            type Board = ();
            fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Action {
                Action::Wait
            }
        }
        let cube = Hypercube::new(2);
        let cfg = ThreadedConfig {
            timeout: Duration::from_millis(50),
            ..ThreadedConfig::default()
        };
        let res = run_threaded(cube, vec![(Forever, Role::Worker)], cfg);
        assert!(matches!(res, Err(RunError::ActivationLimit)));
    }
}
