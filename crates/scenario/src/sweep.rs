//! The connected frontier-sweep strategy, generic over the topology.
//!
//! The strategy maintains one invariant at every instant: **every clean
//! node bordering contamination holds a dedicated guard**. Clean
//! interior nodes (all neighbours safe) need no guard — monotone
//! cleaning can only grow the interior, so an interior node stays
//! interior and vacating it is always safe. Movers therefore walk
//! freely through the clean region: any safe node they vacate is either
//! interior or still occupied by its dedicated guard (a Move occupies
//! the destination before vacating the source).
//!
//! Work is organised as *cleaning tasks*: pick a contaminated node
//! adjacent to the clean region, walk a free agent through the clean
//! region to a safe neighbour, then slide across the final edge — the
//! arrival decontaminates the target, and the arriving mover pins there
//! as its guard if the target still borders contamination. Guards whose
//! nodes turn interior are released in place (no move) and reused as
//! movers. Agents are spawned at the homebase only when no task is in
//! flight and no free agent exists, so the team size tracks the peak
//! boundary plus the movers — the scenario's searcher-count accountant.
//!
//! Up to [`MAX_MOVERS`] tasks run concurrently with disjoint targets,
//! and the checker's adversary picks which mover steps next — the
//! strategy must be correct under every interleaving, which is exactly
//! what the campaign explores.

use std::collections::VecDeque;

use hypersweep_check::{Adversary, RunnableView, StepOracle, ViolationKind, ViolationReport};
use hypersweep_intruder::{ContaminationField, FieldScratch};
use hypersweep_sim::{AgentId, Event, EventKind, Role};
use hypersweep_topology::{Node, Topology};

/// Concurrent cleaning tasks. More than one so the adversary's
/// interleaving choice is meaningful.
pub(crate) const MAX_MOVERS: usize = 2;

/// Everything one explored schedule produced, shared by the grid and
/// dynamic scenarios (the dynamic extras stay zero on static runs).
#[derive(Clone, Debug, Default)]
pub struct ScheduleStats {
    /// Adversary decision steps taken.
    pub steps: u64,
    /// Events fed through the oracle.
    pub events: u64,
    /// Edge traversals.
    pub moves: u64,
    /// Agents spawned (== final team size).
    pub team: u64,
    /// Terminate events at capture.
    pub terminates: u64,
    /// Largest event timestamp.
    pub max_time: u64,
    /// `cleaned_by_team[k]` = nodes cleaned while the team had `k + 1`
    /// agents; the serving plan's phases derive from this.
    pub cleaned_by_team: Vec<u64>,
    /// Rounds driven (dynamic mode; 1 for static runs).
    pub rounds: u64,
    /// Accepted topology mutations (dynamic mode).
    pub mutations: u64,
    /// Rejected mutation proposals (dynamic mode).
    pub rejected: u64,
    /// The adversary decision trace (for reporting a counterexample).
    pub decisions: Vec<u32>,
    /// The first invariant violation, if any.
    pub violation: Option<ViolationReport>,
}

/// One in-flight cleaning task: `agent` walks `path` (through the clean
/// region, final hop onto the contaminated `target`).
struct Task {
    agent: AgentId,
    path: VecDeque<Node>,
    target: Node,
}

/// The movers of the in-flight tasks, in task order: what the adversary
/// picks from.
struct TaskAgents<'a>(&'a [Task]);

impl RunnableView for TaskAgents<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn nth(&self, idx: usize) -> AgentId {
        self.0[idx].agent
    }

    fn rank(&self, id: AgentId) -> Option<usize> {
        self.0.iter().position(|t| t.agent == id)
    }
}

/// Whether the driver made progress or ran to completion.
pub(crate) enum Progress {
    /// One decision step executed.
    Advanced,
    /// Capture reached; terminates emitted, oracle finished.
    Done,
}

/// The sweep's mutable agent book-keeping. Holds no topology reference,
/// so the dynamic scenario can re-plan it against a mutated graph
/// between rounds.
pub(crate) struct Sweep {
    homebase: Node,
    /// Agent -> current node.
    positions: Vec<Node>,
    /// Dedicated boundary guards as `(node, agent)`.
    pinned: Vec<(Node, AgentId)>,
    /// Agent -> currently pinned as a guard.
    is_pinned: Vec<bool>,
    /// Unassigned agents, kept sorted ascending.
    free: Vec<AgentId>,
    tasks: Vec<Task>,
    /// Node -> currently targeted by a task.
    targeted: Vec<bool>,
    /// The negative-control mutant: frees a boundary guard while its
    /// node still borders contamination.
    leaky: bool,
    leaked: bool,
    time: u64,
    pub(crate) stats: ScheduleStats,
    nbrs: Vec<Node>,
    /// [`Sweep::plan_path`]'s search, kept across tasks: node -> its BFS
    /// predecessor, valid where `seen` holds the current `epoch`.
    prev: Vec<Node>,
    seen: Vec<u32>,
    epoch: u32,
    queue: VecDeque<Node>,
}

impl Sweep {
    pub(crate) fn new(node_count: usize, homebase: Node, leaky: bool) -> Self {
        Sweep {
            homebase,
            positions: Vec::new(),
            pinned: Vec::new(),
            is_pinned: Vec::new(),
            free: Vec::new(),
            tasks: Vec::new(),
            targeted: vec![false; node_count],
            leaky,
            leaked: false,
            time: 0,
            stats: ScheduleStats::default(),
            nbrs: Vec::new(),
            prev: vec![homebase; node_count],
            seen: vec![0; node_count],
            epoch: 0,
            queue: VecDeque::new(),
        }
    }

    fn emit<T: Topology + ?Sized>(
        &mut self,
        oracle: &mut StepOracle<'_, T>,
        kind: EventKind,
        step: u64,
    ) -> Result<(), ViolationReport> {
        let event = Event {
            time: self.time,
            kind,
        };
        self.stats.max_time = self.time;
        self.time += 1;
        self.stats.events += 1;
        self.stats.moves += kind.move_cost();
        if matches!(kind, EventKind::Terminate { .. }) {
            self.stats.terminates += 1;
        }
        oracle.observe(&event, step)
    }

    /// Spawn a new agent at the homebase (event emitted by the caller).
    fn new_agent(&mut self) -> AgentId {
        let agent = self.positions.len() as AgentId;
        self.positions.push(self.homebase);
        self.is_pinned.push(false);
        self.stats.team += 1;
        agent
    }

    /// Credit one cleaned node to the current team size.
    fn credit_clean(&mut self) {
        let team = self.positions.len();
        if self.stats.cleaned_by_team.len() < team {
            self.stats.cleaned_by_team.resize(team, 0);
        }
        self.stats.cleaned_by_team[team - 1] += 1;
    }

    /// After `agent` arrives on a freshly-safe node (spawn or task
    /// completion): pin it as the node's guard if the node borders
    /// contamination and has no guard yet, otherwise free it.
    fn assign_duty<T: Topology + ?Sized>(&mut self, oracle: &StepOracle<'_, T>, agent: AgentId) {
        let node = self.positions[agent as usize];
        let boundary = oracle.field().borders_contamination(node);
        let guarded = self.pinned.iter().any(|&(n, _)| n == node);
        if boundary && !guarded {
            self.pinned.push((node, agent));
            self.is_pinned[agent as usize] = true;
        } else {
            self.free.push(agent);
            self.free.sort_unstable();
        }
    }

    /// Release every guard whose node turned interior. No event: the
    /// freed agent stays put and its next task path starts there.
    fn release_guards<T: Topology + ?Sized>(&mut self, oracle: &StepOracle<'_, T>) {
        let mut i = 0;
        while i < self.pinned.len() {
            let (node, agent) = self.pinned[i];
            if oracle.field().borders_contamination(node) {
                i += 1;
            } else {
                self.pinned.remove(i);
                self.is_pinned[agent as usize] = false;
                self.free.push(agent);
            }
        }
        self.free.sort_unstable();
    }

    /// The mutant's leak: the lowest-node boundary guard standing alone
    /// on its node, moved onto a safe neighbour — vacating a boundary
    /// node, which the oracle catches as an instant recontamination.
    fn find_leak<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        oracle: &StepOracle<'_, T>,
    ) -> Option<(AgentId, Node, Node)> {
        let field = oracle.field();
        let mut best: Option<(AgentId, Node, Node)> = None;
        for i in 0..self.pinned.len() {
            let (node, agent) = self.pinned[i];
            if field.occupancy()[node.index()] != 1 {
                continue;
            }
            topo.neighbors_into(node, &mut self.nbrs);
            let safe_nbr = self
                .nbrs
                .iter()
                .copied()
                .find(|&y| !field.is_contaminated(y));
            if let Some(to) = safe_nbr {
                if best.is_none_or(|(_, n, _)| node < n) {
                    best = Some((agent, node, to));
                }
            }
        }
        best
    }

    /// Smallest untargeted contaminated node adjacent to the clean
    /// region, with its first safe neighbour in adjacency order as the
    /// approach parent.
    fn pick_target<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        field: &ContaminationField<'_, T>,
    ) -> Option<(Node, Node)> {
        for x in field.contaminated_set().iter() {
            if self.targeted[x.index()] || field.safe_neighbours(x) == 0 {
                continue;
            }
            topo.neighbors_into(x, &mut self.nbrs);
            if let Some(&parent) = self.nbrs.iter().find(|&&y| !field.is_contaminated(y)) {
                return Some((x, parent));
            }
        }
        None
    }

    /// Shortest path from `start` to `parent` through safe nodes, then
    /// the final hop onto `target`. The clean region is connected
    /// (contiguity invariant), so this only fails on corrupted state.
    fn plan_path<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        field: &ContaminationField<'_, T>,
        start: Node,
        parent: Node,
        target: Node,
    ) -> Option<VecDeque<Node>> {
        let mut path = VecDeque::new();
        if start != parent {
            // A new epoch marks every node unseen without touching `seen`.
            self.epoch += 1;
            let epoch = self.epoch;
            self.seen[start.index()] = epoch;
            self.queue.clear();
            self.queue.push_back(start);
            'bfs: while let Some(x) = self.queue.pop_front() {
                topo.neighbors_into(x, &mut self.nbrs);
                for &y in &self.nbrs {
                    if field.is_contaminated(y) || self.seen[y.index()] == epoch {
                        continue;
                    }
                    self.seen[y.index()] = epoch;
                    self.prev[y.index()] = x;
                    if y == parent {
                        break 'bfs;
                    }
                    self.queue.push_back(y);
                }
            }
            if self.seen[parent.index()] != epoch {
                return None;
            }
            let mut cur = parent;
            while cur != start {
                path.push_front(cur);
                cur = self.prev[cur.index()];
            }
        }
        path.push_back(target);
        Some(path)
    }

    /// Keep up to [`MAX_MOVERS`] tasks in flight. Spawns (at most one
    /// per call) only when nothing is in flight and nobody is free.
    fn refill<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        oracle: &mut StepOracle<'_, T>,
        step: u64,
    ) -> Result<(), ViolationReport> {
        // First contact: nothing is safe yet, so the first spawn cleans
        // the homebase.
        if oracle.field().contaminated_count() == topo.node_count() {
            let agent = self.new_agent();
            self.emit(
                oracle,
                EventKind::Spawn {
                    agent,
                    node: self.homebase,
                    role: Role::Worker,
                },
                step,
            )?;
            self.credit_clean();
            self.assign_duty(oracle, agent);
        }
        while self.tasks.len() < MAX_MOVERS {
            let Some((target, parent)) = self.pick_target(topo, oracle.field()) else {
                break;
            };
            let mover = if !self.free.is_empty() {
                self.free.remove(0)
            } else if self.tasks.is_empty() {
                let agent = self.new_agent();
                self.emit(
                    oracle,
                    EventKind::Spawn {
                        agent,
                        node: self.homebase,
                        role: Role::Worker,
                    },
                    step,
                )?;
                agent
            } else {
                break;
            };
            let start = self.positions[mover as usize];
            let Some(path) = self.plan_path(topo, oracle.field(), start, parent, target) else {
                return Err(oracle.report(
                    step,
                    ViolationKind::EngineError {
                        message: format!("no safe path from {start:?} to {parent:?}"),
                    },
                ));
            };
            self.targeted[target.index()] = true;
            self.tasks.push(Task {
                agent: mover,
                path,
                target,
            });
        }
        Ok(())
    }

    /// One decision step: release interior guards, (mutant) leak, check
    /// for capture, refill tasks, let the adversary pick a mover, and
    /// execute its next move under the oracle.
    pub(crate) fn step<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        oracle: &mut StepOracle<'_, T>,
        adversary: &mut Adversary,
        step: u64,
    ) -> Result<Progress, ViolationReport> {
        self.release_guards(oracle);
        if self.leaky && !self.leaked {
            if let Some((agent, from, to)) = self.find_leak(topo, oracle) {
                self.leaked = true;
                self.pinned.retain(|&(_, a)| a != agent);
                self.is_pinned[agent as usize] = false;
                self.positions[agent as usize] = to;
                self.emit(
                    oracle,
                    EventKind::Move {
                        agent,
                        from,
                        to,
                        role: Role::Worker,
                    },
                    step,
                )?;
                self.free.push(agent);
                self.free.sort_unstable();
                return Ok(Progress::Advanced);
            }
        }
        self.refill(topo, oracle, step)?;
        if self.tasks.is_empty() {
            // No target left: either capture (terminate everyone and run
            // the final oracles) or a genuine deadlock.
            if oracle.field().all_clean() {
                for agent in 0..self.positions.len() as AgentId {
                    let node = self.positions[agent as usize];
                    self.emit(oracle, EventKind::Terminate { agent, node }, step)?;
                }
                oracle.finish(step)?;
                return Ok(Progress::Done);
            }
            return Err(oracle.report(
                step,
                ViolationKind::Deadlock {
                    waiting: self.positions.len() as u64,
                },
            ));
        }
        let raw = adversary.choose_from(&TaskAgents(&self.tasks), step);
        let idx = (raw as usize) % self.tasks.len();
        self.stats.decisions.push(idx as u32);
        let agent = self.tasks[idx].agent;
        let from = self.positions[agent as usize];
        let to = self.tasks[idx]
            .path
            .pop_front()
            .expect("task paths are non-empty");
        self.positions[agent as usize] = to;
        let completed = self.tasks[idx].path.is_empty();
        let target = self.tasks[idx].target;
        if completed {
            self.tasks.swap_remove(idx);
            self.targeted[target.index()] = false;
        }
        self.emit(
            oracle,
            EventKind::Move {
                agent,
                from,
                to,
                role: Role::Worker,
            },
            step,
        )?;
        if completed {
            self.credit_clean();
            self.assign_duty(oracle, agent);
        }
        Ok(Progress::Advanced)
    }

    /// Rebuild all duties from the field's state after a topology
    /// mutation: abort in-flight tasks, pin one agent on every boundary
    /// node (the mutation validator guarantees one is standing there),
    /// free the rest. The aborted movers' wasted walks are the measured
    /// cost of monotonicity under churn.
    pub(crate) fn replan<T: Topology + ?Sized>(
        &mut self,
        topo: &T,
        field: &ContaminationField<'_, T>,
    ) {
        self.tasks.clear();
        self.targeted.iter_mut().for_each(|t| *t = false);
        self.pinned.clear();
        self.is_pinned.iter_mut().for_each(|p| *p = false);
        self.free.clear();
        for x in 0..topo.node_count() as u32 {
            let node = Node(x);
            if field.is_contaminated(node) || !field.borders_contamination(node) {
                continue;
            }
            let guard = (0..self.positions.len())
                .find(|&a| self.positions[a] == node && !self.is_pinned[a]);
            // An unguarded boundary node would already be a violation;
            // leave that to the oracle rather than masking it here.
            if let Some(a) = guard {
                self.pinned.push((node, a as AgentId));
                self.is_pinned[a] = true;
            }
        }
        for a in 0..self.positions.len() {
            if !self.is_pinned[a] {
                self.free.push(a as AgentId);
            }
        }
    }
}

/// Drive one full static-topology schedule to capture (or violation). The
/// verifier's field is built in `scratch` and handed back in it.
pub(crate) fn run_static<T: Topology + ?Sized>(
    topo: &T,
    homebase: Node,
    leaky: bool,
    adversary: &mut Adversary,
    max_steps: u64,
    scratch: &mut FieldScratch,
) -> ScheduleStats {
    let mut oracle = StepOracle::new_in(topo, homebase, 1, std::mem::take(scratch));
    let mut sweep = Sweep::new(topo.node_count(), homebase, leaky);
    let mut step = 0u64;
    let violation = loop {
        if step >= max_steps {
            break Some(oracle.report(step, ViolationKind::StepLimit));
        }
        match sweep.step(topo, &mut oracle, adversary, step) {
            Ok(Progress::Done) => break None,
            Ok(Progress::Advanced) => step += 1,
            Err(v) => break Some(v),
        }
    };
    *scratch = oracle.into_scratch();
    let mut stats = sweep.stats;
    stats.steps = step;
    stats.rounds = 1;
    stats.violation = violation;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersweep_topology::PartialGrid;

    fn run(grid: &PartialGrid, leaky: bool, schedule: u64) -> ScheduleStats {
        let mut adversary = Adversary::for_schedule(0, schedule);
        let mut scratch = FieldScratch::default();
        run_static(
            grid,
            grid.homebase(),
            leaky,
            &mut adversary,
            100_000,
            &mut scratch,
        )
    }

    #[test]
    fn full_grid_sweep_captures_cleanly() {
        let grid = PartialGrid::full(6, 6);
        for schedule in 0..25 {
            let stats = run(&grid, false, schedule);
            assert!(
                stats.violation.is_none(),
                "schedule {schedule}: {:?}",
                stats.violation
            );
            assert_eq!(stats.terminates, stats.team);
            assert!(stats.team >= 2, "a 6x6 sweep needs at least two agents");
        }
    }

    #[test]
    fn random_hole_sweep_captures_cleanly() {
        for seed in [1u64, 7, 42] {
            let grid = PartialGrid::random_holes(6, 6, 9, seed);
            for schedule in 0..10 {
                let stats = run(&grid, false, schedule);
                assert!(
                    stats.violation.is_none(),
                    "holes seed {seed} schedule {schedule}: {:?}",
                    stats.violation
                );
            }
        }
    }

    #[test]
    fn corridor_sweep_uses_a_constant_team() {
        let grid = PartialGrid::corridor(7, 5);
        let stats = run(&grid, false, 0);
        assert!(stats.violation.is_none(), "{:?}", stats.violation);
        // A path graph needs only the frontier guard plus one mover
        // (plus the initial homebase guard until it turns interior).
        assert!(
            stats.team <= 3,
            "corridor team blew up to {} agents",
            stats.team
        );
    }

    #[test]
    fn leaky_guard_mutant_is_caught_on_every_schedule() {
        let grid = PartialGrid::random_holes(6, 6, 9, 42);
        for schedule in 0..10 {
            let stats = run(&grid, true, schedule);
            let v = stats.violation.expect("mutant must be caught");
            assert!(
                matches!(v.kind, ViolationKind::Recontamination { .. }),
                "schedule {schedule}: wrong kind {v}"
            );
        }
    }

    #[test]
    fn single_cell_grid_is_trivially_captured() {
        let grid = PartialGrid::full(1, 1);
        let stats = run(&grid, false, 0);
        assert!(stats.violation.is_none());
        assert_eq!(stats.team, 1);
    }
}
