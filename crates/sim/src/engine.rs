//! The deterministic discrete-event executor.
//!
//! The engine owns the agents, the per-node whiteboards and the node
//! occupancy, and repeatedly activates one agent chosen by the configured
//! [`Policy`]. An activation runs the agent's [`AgentProgram::step`] under
//! the node's (implicit) whiteboard mutual exclusion and applies the
//! returned [`Action`] atomically. Moves are atomic slides; the event
//! stream is therefore a linearization against which the
//! `hypersweep-intruder` monitors verify contamination semantics.
//!
//! Under [`Policy::Synchronous`] the engine instead runs lock-step rounds:
//! all agents decide against the round-start snapshot, then all moves apply
//! simultaneously. The number of rounds containing at least one edge
//! traversal is the paper's *ideal time*.

use std::collections::VecDeque;

use hypersweep_topology::{Hypercube, Node, NodeSet};

use crate::event::{AgentId, Event, EventKind, Role};
use crate::metrics::Metrics;
use crate::policy::Policy;
use crate::program::{Action, AgentProgram, Board, Ctx};
use crate::rng::ChaCha8;
use crate::state::NodeState;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Which adversary schedules the agents.
    pub policy: Policy,
    /// Whether agents may observe neighbour states (§4's model). Without
    /// it, [`Ctx::neighbor_state`] panics.
    pub visibility: bool,
    /// Record the full event stream (needed by the monitors; disable for
    /// large benchmark runs).
    pub record_events: bool,
    /// Hard cap on activations, to turn accidental livelocks into errors.
    pub max_activations: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: Policy::Fifo,
            visibility: false,
            record_events: true,
            max_activations: 500_000_000,
        }
    }
}

/// Why a run ended unsuccessfully.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// No agent can make progress but some have not terminated.
    Deadlock {
        /// Agents still alive (not terminated).
        waiting: usize,
    },
    /// The activation cap was reached (livelock or runaway strategy).
    ActivationLimit,
    /// An agent attempted an invalid action (bad port, clone without
    /// support, …).
    InvalidAction {
        /// The offending agent.
        agent: AgentId,
        /// Description of the violation.
        message: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { waiting } => {
                write!(f, "deadlock: {waiting} agents parked forever")
            }
            RunError::ActivationLimit => write!(f, "activation limit reached"),
            RunError::InvalidAction { agent, message } => {
                write!(f, "agent {agent} performed an invalid action: {message}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Outcome of a completed run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Aggregate counters.
    pub metrics: Metrics,
    /// The linearized event stream (empty if recording was disabled).
    pub events: Vec<Event>,
    /// Nodes that ended the run visited, as a packed bitset.
    pub visited: NodeSet,
    /// Final occupancy (guards, including terminated agents) per node.
    pub occupancy: Vec<u32>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AgentStatus {
    Runnable,
    Parked,
    Terminated,
}

struct AgentSlot<P> {
    program: P,
    pos: Node,
    role: Role,
    status: AgentStatus,
}

/// An action decided during a lock-step round, applied at the boundary.
enum Deferred {
    Move(AgentId, u32),
    Clone(AgentId, u32),
    Terminate(AgentId),
}

/// Round-scoped buffers for [`Engine::sync_round`], owned by the engine and
/// reused across rounds.
#[derive(Default)]
struct SyncBufs {
    snapshot: Vec<NodeState>,
    active_snapshot: Vec<u32>,
    neighbor_scratch: Vec<NodeState>,
    deferred: Vec<Deferred>,
}

/// The runnable agents as an ascending-id bitset plus its population, so
/// the step-granular hooks count, select and rank without scanning every
/// agent: per-block member counts let select and rank skip whole blocks,
/// then finish inside one block (one cache line of words).
#[derive(Default)]
struct RunnableSet {
    words: Vec<u64>,
    /// Members per block of [`BLOCK_WORDS`] words.
    blocks: Vec<u32>,
    len: usize,
}

const BLOCK_WORDS: usize = 8;

impl RunnableSet {
    fn insert(&mut self, id: AgentId) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.blocks.resize(w / BLOCK_WORDS + 1, 0);
        }
        debug_assert_eq!(self.words[w] & bit, 0, "agent {id} already runnable");
        self.words[w] |= bit;
        self.blocks[w / BLOCK_WORDS] += 1;
        self.len += 1;
    }

    fn remove(&mut self, id: AgentId) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        debug_assert_ne!(self.words[w] & bit, 0, "agent {id} not runnable");
        self.words[w] &= !bit;
        self.blocks[w / BLOCK_WORDS] -= 1;
        self.len -= 1;
    }

    /// The `k`-th member in ascending id order.
    fn nth(&self, mut k: usize) -> Option<AgentId> {
        let mut first = 0;
        for &count in &self.blocks {
            if k < count as usize {
                break;
            }
            k -= count as usize;
            first += BLOCK_WORDS;
        }
        for (w, &word) in self.words.get(first..)?.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if k < ones {
                return Some((first + w) as AgentId * 64 + select_in_word(word, k as u32));
            }
            k -= ones;
        }
        None
    }

    /// How many members have an id below `id`, if `id` is a member.
    fn rank(&self, id: AgentId) -> Option<usize> {
        let (w, b) = (id as usize / 64, id % 64);
        let word = *self.words.get(w)?;
        if word >> b & 1 == 0 {
            return None;
        }
        let first = w / BLOCK_WORDS * BLOCK_WORDS;
        let below: u32 = self.blocks[..w / BLOCK_WORDS].iter().sum::<u32>()
            + self.words[first..w]
                .iter()
                .map(|x| x.count_ones())
                .sum::<u32>()
            + (word & ((1u64 << b) - 1)).count_ones();
        Some(below as usize)
    }

    fn iter(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros();
                    rest &= rest - 1;
                    w as AgentId * 64 + b
                })
            })
        })
    }
}

/// Position of the `k`-th set bit of `word` (which has more than `k`).
fn select_in_word(mut word: u64, mut k: u32) -> u32 {
    let mut pos = 0;
    for half in [32, 16, 8, 4, 2, 1] {
        let low = (word & ((1u64 << half) - 1)).count_ones();
        if k >= low {
            k -= low;
            word >>= half;
            pos += half;
        }
    }
    pos
}

/// What one lock-step round did (see [`Engine::step_round`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundOutcome {
    /// At least one edge was traversed (a move or a clone materialized).
    pub moved: bool,
    /// At least one agent returned a non-`Wait` action.
    pub acted: bool,
    /// At least one whiteboard write happened.
    pub wrote: bool,
    /// Every agent has terminated after this round.
    pub done: bool,
}

/// The discrete-event executor. See the module docs.
pub struct Engine<P: AgentProgram> {
    cube: Hypercube,
    cfg: EngineConfig,
    agents: Vec<AgentSlot<P>>,
    boards: Vec<P::Board>,
    /// All occupants (terminated guards included).
    occupancy: Vec<u32>,
    /// Non-terminated occupants.
    active_here: Vec<u32>,
    visited: NodeSet,
    /// Reusable buffer for visibility snapshots in [`Engine::activate`].
    nbr_scratch: Vec<NodeState>,
    parked_at: Vec<Vec<AgentId>>,
    /// Agents whose status is `Runnable` (the step-granular hooks' view).
    runnable_set: RunnableSet,
    /// Agents not yet terminated.
    live: usize,
    /// The policy scheduler's queue (entries may be stale; see `pick`).
    runnable: VecDeque<AgentId>,
    in_runnable: Vec<bool>,
    rr_cursor: usize,
    sync_bufs: SyncBufs,
    rng: ChaCha8,
    events: Vec<Event>,
    metrics: Metrics,
    away_now: u64,
    clock: u64,
}

impl<P: AgentProgram> Engine<P> {
    /// Create an engine over `cube` with the given configuration.
    pub fn new(cube: Hypercube, cfg: EngineConfig) -> Self {
        let n = cube.node_count();
        let seed = match cfg.policy {
            Policy::Random(s) => s,
            _ => 0,
        };
        Engine {
            cube,
            cfg,
            agents: Vec::new(),
            boards: (0..n).map(|_| P::Board::default()).collect(),
            occupancy: vec![0; n],
            active_here: vec![0; n],
            visited: NodeSet::new(n),
            nbr_scratch: Vec::new(),
            parked_at: vec![Vec::new(); n],
            runnable_set: RunnableSet::default(),
            live: 0,
            runnable: VecDeque::new(),
            in_runnable: Vec::new(),
            rr_cursor: 0,
            sync_bufs: SyncBufs::default(),
            rng: ChaCha8::new(seed),
            events: Vec::new(),
            metrics: Metrics::default(),
            away_now: 0,
            clock: 0,
        }
    }

    /// The hypercube being searched.
    pub fn cube(&self) -> Hypercube {
        self.cube
    }

    /// Place a new agent on `node` (the paper always spawns at the
    /// homebase `00…0`, but tests may spawn elsewhere).
    pub fn spawn(&mut self, program: P, node: Node, role: Role) -> AgentId {
        let id = self.admit(program, node, role);
        self.emit(EventKind::Spawn {
            agent: id,
            node,
            role,
        });
        id
    }

    /// Add a runnable agent on `node` (a spawn or a clone's materializing
    /// slide) and account for its presence there.
    fn admit(&mut self, program: P, node: Node, role: Role) -> AgentId {
        let id = self.agents.len() as AgentId;
        self.agents.push(AgentSlot {
            program,
            pos: node,
            role,
            status: AgentStatus::Runnable,
        });
        self.runnable_set.insert(id);
        self.live += 1;
        self.in_runnable.push(true);
        self.runnable.push_back(id);
        self.occupancy[node.index()] += 1;
        self.active_here[node.index()] += 1;
        self.visited.insert(node);
        if node != Node::ROOT {
            self.away_now += 1;
        }
        self.metrics.team_size += 1;
        self.metrics.peak_away = self.metrics.peak_away.max(self.away_now);
        id
    }

    /// Change an agent's status, keeping the runnable set and the live
    /// counter in step with it.
    fn set_status(&mut self, id: AgentId, status: AgentStatus) {
        let old = std::mem::replace(&mut self.agents[id as usize].status, status);
        if old == status {
            return;
        }
        match old {
            AgentStatus::Runnable => self.runnable_set.remove(id),
            AgentStatus::Parked => {}
            AgentStatus::Terminated => self.live += 1,
        }
        match status {
            AgentStatus::Runnable => self.runnable_set.insert(id),
            AgentStatus::Parked => {}
            AgentStatus::Terminated => self.live -= 1,
        }
    }

    fn emit(&mut self, kind: EventKind) {
        if self.cfg.record_events {
            self.events.push(Event {
                time: self.clock,
                kind,
            });
        }
    }

    /// Engine-reported node state: optimistic for monotone strategies (see
    /// [`NodeState`] docs); independently audited by the monitors.
    pub fn node_state(&self, node: Node) -> NodeState {
        if self.occupancy[node.index()] > 0 {
            NodeState::Guarded
        } else if self.visited.contains(node) {
            NodeState::Clean
        } else {
            NodeState::Contaminated
        }
    }

    fn make_runnable(&mut self, id: AgentId) {
        if self.agents[id as usize].status == AgentStatus::Parked {
            self.set_status(id, AgentStatus::Runnable);
        }
        if self.agents[id as usize].status == AgentStatus::Runnable
            && !self.in_runnable[id as usize]
        {
            self.in_runnable[id as usize] = true;
            // Round-robin scans the flags directly; pushing would let the
            // queue grow without bound since that policy never pops it.
            if !matches!(self.cfg.policy, Policy::RoundRobin) {
                self.runnable.push_back(id);
            }
        }
    }

    /// Wake every agent parked at `node`.
    fn wake_at(&mut self, node: Node) {
        let parked = std::mem::take(&mut self.parked_at[node.index()]);
        for id in parked {
            self.make_runnable(id);
        }
    }

    /// Wake after a *state-visible* change at `node`: agents there, and —
    /// in the visibility model — agents on every neighbour.
    fn wake_visible(&mut self, node: Node) {
        self.wake_at(node);
        if self.cfg.visibility {
            for p in 1..=self.cube.dim() {
                self.wake_at(node.flip(p));
            }
        }
    }

    fn park(&mut self, id: AgentId) {
        if self.agents[id as usize].status == AgentStatus::Runnable {
            self.set_status(id, AgentStatus::Parked);
            let pos = self.agents[id as usize].pos;
            self.parked_at[pos.index()].push(id);
        }
    }

    fn pick(&mut self) -> Option<AgentId> {
        match self.cfg.policy {
            Policy::Fifo => loop {
                let id = self.runnable.pop_front()?;
                if self.in_runnable[id as usize] {
                    self.in_runnable[id as usize] = false;
                    return Some(id);
                }
            },
            Policy::Lifo => loop {
                let id = self.runnable.pop_back()?;
                if self.in_runnable[id as usize] {
                    self.in_runnable[id as usize] = false;
                    return Some(id);
                }
            },
            Policy::Random(_) => {
                // Drop stale entries lazily, then pick uniformly.
                while let Some(&front) = self.runnable.front() {
                    if self.in_runnable[front as usize] {
                        break;
                    }
                    self.runnable.pop_front();
                }
                if self.runnable.is_empty() {
                    return None;
                }
                loop {
                    let i = self.rng.below(self.runnable.len() as u64) as usize;
                    let id = self.runnable[i];
                    if self.in_runnable[id as usize] {
                        self.runnable.remove(i);
                        self.in_runnable[id as usize] = false;
                        return Some(id);
                    }
                    self.runnable.remove(i);
                    if self.runnable.is_empty() {
                        return None;
                    }
                }
            }
            Policy::RoundRobin => {
                let n = self.agents.len();
                for off in 0..n {
                    let idx = (self.rr_cursor + off) % n;
                    if self.in_runnable[idx] {
                        self.rr_cursor = (idx + 1) % n;
                        self.in_runnable[idx] = false;
                        // Leave any queue entry stale; other policies skip
                        // stale entries.
                        return Some(idx as AgentId);
                    }
                }
                None
            }
            Policy::Synchronous => unreachable!("synchronous policy uses run_synchronous"),
        }
    }

    /// Fill `out` with the states of `node`'s neighbours, port order.
    /// Writes into a caller-provided buffer so the per-activation
    /// visibility snapshot allocates nothing after warm-up.
    fn neighbor_states_into(&self, node: Node, out: &mut Vec<NodeState>) {
        out.clear();
        out.extend((1..=self.cube.dim()).map(|p| self.node_state(node.flip(p))));
    }

    fn meter(&mut self, node: Node, agent: AgentId) {
        let bb = self.boards[node.index()].bits_used();
        self.metrics.peak_board_bits = self.metrics.peak_board_bits.max(bb);
        let lb = self.agents[agent as usize].program.local_bits();
        self.metrics.peak_local_bits = self.metrics.peak_local_bits.max(lb);
    }

    /// One activation of agent `id` (asynchronous mode). Returns the
    /// action taken.
    fn activate(&mut self, id: AgentId) -> Result<Action, RunError> {
        self.metrics.activations += 1;
        let pos = self.agents[id as usize].pos;
        let mut nbr_scratch = std::mem::take(&mut self.nbr_scratch);
        let neighbor_states = if self.cfg.visibility {
            self.neighbor_states_into(pos, &mut nbr_scratch);
            Some(&nbr_scratch[..])
        } else {
            None
        };
        let cube = self.cube;
        let alive_here = self.active_here[pos.index()];

        // Split borrows: program and board live in different fields.
        let slot = &mut self.agents[id as usize];
        let board = &mut self.boards[pos.index()];
        let mut ctx = Ctx::new(cube, pos, id, alive_here, board, neighbor_states, None);
        let action = slot.program.step(&mut ctx);
        let dirty = ctx.dirty;
        self.nbr_scratch = nbr_scratch;
        self.meter(pos, id);
        self.clock += 1;

        match action {
            Action::Wait => {
                if dirty {
                    // The write may enable others; the writer stays
                    // runnable once more so no wake-up is lost.
                    self.wake_at(pos);
                    self.make_runnable(id);
                } else {
                    self.park(id);
                }
            }
            Action::Move(port) => {
                self.check_port(id, port)?;
                if dirty {
                    self.wake_at(pos);
                }
                self.apply_move(id, port);
                self.make_runnable(id);
            }
            Action::Clone(port) => {
                self.check_port(id, port)?;
                if dirty {
                    self.wake_at(pos);
                }
                self.apply_clone(id, port);
                self.make_runnable(id);
            }
            Action::Terminate => {
                if dirty {
                    self.wake_at(pos);
                }
                self.apply_terminate(id);
            }
        }
        Ok(action)
    }

    fn check_port(&self, id: AgentId, port: u32) -> Result<(), RunError> {
        if port == 0 || port > self.cube.dim() {
            return Err(RunError::InvalidAction {
                agent: id,
                message: format!("port {port} out of range 1..={}", self.cube.dim()),
            });
        }
        Ok(())
    }

    fn apply_move(&mut self, id: AgentId, port: u32) {
        let from = self.agents[id as usize].pos;
        let to = from.flip(port);
        let role = self.agents[id as usize].role;
        self.occupancy[from.index()] -= 1;
        self.active_here[from.index()] -= 1;
        self.occupancy[to.index()] += 1;
        self.active_here[to.index()] += 1;
        self.visited.insert(to);
        self.agents[id as usize].pos = to;
        match (from == Node::ROOT, to == Node::ROOT) {
            (true, false) => self.away_now += 1,
            (false, true) => self.away_now -= 1,
            _ => {}
        }
        self.metrics.peak_away = self.metrics.peak_away.max(self.away_now);
        match role {
            Role::Coordinator => self.metrics.coordinator_moves += 1,
            Role::Worker => self.metrics.worker_moves += 1,
        }
        self.emit(EventKind::Move {
            agent: id,
            from,
            to,
            role,
        });
        self.wake_visible(from);
        self.wake_visible(to);
    }

    fn apply_clone(&mut self, id: AgentId, port: u32) {
        let from = self.agents[id as usize].pos;
        let to = from.flip(port);
        let program = self.agents[id as usize].program.clone_program();
        let child = self.admit(program, to, Role::Worker);
        self.metrics.worker_moves += 1; // the clone's materializing slide
        self.emit(EventKind::CloneSpawn {
            parent: id,
            child,
            from,
            to,
        });
        self.wake_visible(to);
        self.wake_at(from);
    }

    fn apply_terminate(&mut self, id: AgentId) {
        let pos = self.agents[id as usize].pos;
        self.set_status(id, AgentStatus::Terminated);
        self.active_here[pos.index()] -= 1;
        self.emit(EventKind::Terminate {
            agent: id,
            node: pos,
        });
        // Occupancy unchanged: a terminated agent guards its node forever.
        self.wake_at(pos);
    }

    /// Run to completion. All agents must eventually [`Action::Terminate`];
    /// anything else is a deadlock or livelock and is reported as an error.
    pub fn run(mut self) -> Result<RunReport, RunError> {
        if self.cfg.policy.is_synchronous() {
            return self.run_synchronous();
        }
        loop {
            if self.metrics.activations >= self.cfg.max_activations {
                return Err(RunError::ActivationLimit);
            }
            let Some(id) = self.pick() else {
                break;
            };
            self.activate(id)?;
        }
        let waiting = self.live_agents();
        if waiting > 0 {
            return Err(RunError::Deadlock { waiting });
        }
        Ok(self.report())
    }

    /// Lock-step execution (the paper's ideal-time model): each round every
    /// active agent decides against the round-start snapshot; moves apply
    /// simultaneously at the round boundary.
    fn run_synchronous(mut self) -> Result<RunReport, RunError> {
        let mut rounds_with_moves: u64 = 0;
        loop {
            let out = self.step_round()?;
            if out.moved {
                rounds_with_moves += 1;
            }
            if out.done {
                break;
            }
            if !out.acted && !out.wrote {
                return Err(RunError::Deadlock {
                    waiting: self.live_agents(),
                });
            }
        }
        self.metrics.ideal_time = Some(rounds_with_moves);
        Ok(self.report())
    }

    /// One lock-step round against the round-start snapshot; moves apply
    /// simultaneously at the round boundary. `bufs` is the engine's own
    /// [`SyncBufs`], taken out for the round by [`Engine::step_round`].
    fn sync_round(&mut self, bufs: &mut SyncBufs) -> Result<RoundOutcome, RunError> {
        self.clock += 1;
        let round = self.clock;
        // Drop what a round cut short by an error left undone.
        bufs.deferred.clear();
        // Snapshot of node states for visibility decisions.
        if self.cfg.visibility {
            bufs.snapshot.clear();
            bufs.snapshot
                .extend((0..self.cube.node_count() as u32).map(|i| self.node_state(Node(i))));
        }
        bufs.active_snapshot.clear();
        bufs.active_snapshot.extend_from_slice(&self.active_here);

        let mut wrote = false;

        for idx in 0..self.agents.len() {
            if self.agents[idx].status == AgentStatus::Terminated {
                continue;
            }
            if self.metrics.activations >= self.cfg.max_activations {
                return Err(RunError::ActivationLimit);
            }
            self.metrics.activations += 1;
            let id = idx as AgentId;
            let pos = self.agents[idx].pos;
            let neighbor_states: Option<&[NodeState]> = if self.cfg.visibility {
                bufs.neighbor_scratch.clear();
                bufs.neighbor_scratch
                    .extend((1..=self.cube.dim()).map(|p| bufs.snapshot[pos.flip(p).index()]));
                Some(&bufs.neighbor_scratch[..])
            } else {
                None
            };
            let cube = self.cube;
            let alive_here = bufs.active_snapshot[pos.index()];
            let slot = &mut self.agents[idx];
            let board = &mut self.boards[pos.index()];
            let mut ctx = Ctx::new(
                cube,
                pos,
                id,
                alive_here,
                board,
                neighbor_states,
                Some(round),
            );
            let action = slot.program.step(&mut ctx);
            wrote |= ctx.dirty;
            self.meter(pos, id);
            match action {
                Action::Wait => {}
                Action::Move(port) => {
                    self.check_port(id, port)?;
                    bufs.deferred.push(Deferred::Move(id, port));
                }
                Action::Clone(port) => {
                    self.check_port(id, port)?;
                    bufs.deferred.push(Deferred::Clone(id, port));
                }
                Action::Terminate => bufs.deferred.push(Deferred::Terminate(id)),
            }
        }

        let mut moved = false;
        let acted = !bufs.deferred.is_empty();
        for d in bufs.deferred.drain(..) {
            match d {
                Deferred::Move(id, port) => {
                    self.apply_move(id, port);
                    moved = true;
                }
                Deferred::Clone(id, port) => {
                    self.apply_clone(id, port);
                    moved = true;
                }
                Deferred::Terminate(id) => self.apply_terminate(id),
            }
        }
        Ok(RoundOutcome {
            moved,
            acted,
            wrote,
            done: self.live == 0,
        })
    }

    fn report(self) -> RunReport {
        RunReport {
            metrics: self.metrics,
            events: self.events,
            visited: self.visited,
            occupancy: self.occupancy,
        }
    }
}

/// Step-granular hooks: an external scheduler (the `hypersweep-check`
/// adversary) drives activations one at a time instead of delegating the
/// pick to the configured [`Policy`]. The engine still owns all state
/// transitions — wake-ups, parking, occupancy — so any schedule expressed
/// through these hooks is a schedule some [`Policy`] adversary could have
/// produced.
impl<P: AgentProgram> Engine<P> {
    /// Ids of agents that can act right now (spawned or woken, not parked,
    /// not terminated), in ascending id order. The order is part of the
    /// deterministic contract: external schedulers index into this list.
    /// [`Engine::runnable_count`], [`Engine::runnable_nth`] and
    /// [`Engine::runnable_rank`] answer the same questions without
    /// building it.
    pub fn runnable_agents(&self) -> Vec<AgentId> {
        self.runnable_set.iter().collect()
    }

    /// How many agents are runnable: `runnable_agents().len()`.
    pub fn runnable_count(&self) -> usize {
        self.runnable_set.len
    }

    /// The runnable agent at position `idx` of [`Engine::runnable_agents`].
    ///
    /// # Panics
    ///
    /// If `idx >= runnable_count()`, like indexing the list would.
    pub fn runnable_nth(&self, idx: usize) -> AgentId {
        self.runnable_set
            .nth(idx)
            .expect("runnable index below runnable_count()")
    }

    /// The position of `id` in [`Engine::runnable_agents`], or `None` if
    /// the agent is not runnable.
    pub fn runnable_rank(&self, id: AgentId) -> Option<usize> {
        self.runnable_set.rank(id)
    }

    /// Activate one specific runnable agent. Mirrors exactly what the
    /// internal scheduler loop does for a picked agent, including the
    /// activation cap; choosing a non-runnable agent is an error.
    pub fn step_agent(&mut self, id: AgentId) -> Result<Action, RunError> {
        if self.metrics.activations >= self.cfg.max_activations {
            return Err(RunError::ActivationLimit);
        }
        match self.agents.get(id as usize).map(|a| a.status) {
            Some(AgentStatus::Runnable) => {}
            _ => {
                return Err(RunError::InvalidAction {
                    agent: id,
                    message: "stepped agent is not runnable".to_string(),
                });
            }
        }
        // Keep the queue bookkeeping consistent with `pick` so a later
        // wake re-enqueues the agent instead of being dropped as stale.
        self.in_runnable[id as usize] = false;
        self.activate(id)
    }

    /// One lock-step round (synchronous model), for round-granular external
    /// checking. Unlike [`Engine::run`] this does not accumulate
    /// `ideal_time`; callers wanting it count rounds with
    /// [`RoundOutcome::moved`] themselves.
    pub fn step_round(&mut self) -> Result<RoundOutcome, RunError> {
        let mut bufs = std::mem::take(&mut self.sync_bufs);
        let out = self.sync_round(&mut bufs);
        self.sync_bufs = bufs;
        out
    }

    /// Agents not yet terminated (runnable or parked).
    pub fn live_agents(&self) -> usize {
        self.live
    }

    /// Whether every agent has terminated (the run is complete).
    pub fn all_terminated(&self) -> bool {
        self.live == 0
    }

    /// The event stream recorded so far; step-granular callers read the
    /// suffix since their last observation to feed per-step oracles.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Aggregate counters so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersweep_topology::rng::SplitMix64;

    /// A trivial strategy: walk the ascending tree path to a fixed target,
    /// then terminate.
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
            // Set the lowest missing bit of the target.
            for p in 1..=ctx.cube().dim() {
                if self.target.bit(p) && !here.bit(p) {
                    return Action::Move(p);
                }
            }
            Action::Terminate
        }
    }

    #[test]
    fn single_walker_reaches_target() {
        for policy in Policy::adversaries(3) {
            let cube = Hypercube::new(4);
            let mut eng = Engine::new(
                cube,
                EngineConfig {
                    policy,
                    ..EngineConfig::default()
                },
            );
            eng.spawn(
                WalkTo {
                    target: Node(0b1011),
                },
                Node::ROOT,
                Role::Worker,
            );
            let report = eng.run().expect("run succeeds");
            assert_eq!(report.metrics.worker_moves, 3);
            assert_eq!(report.occupancy[0b1011], 1);
            assert_eq!(report.metrics.team_size, 1);
            assert_eq!(report.metrics.peak_away, 1);
        }
    }

    #[test]
    fn synchronous_mode_counts_rounds() {
        let cube = Hypercube::new(5);
        let mut eng = Engine::new(
            cube,
            EngineConfig {
                policy: Policy::Synchronous,
                ..EngineConfig::default()
            },
        );
        // Two walkers with different path lengths; rounds with moves = max.
        eng.spawn(
            WalkTo {
                target: Node(0b11111),
            },
            Node::ROOT,
            Role::Worker,
        );
        eng.spawn(
            WalkTo {
                target: Node(0b00001),
            },
            Node::ROOT,
            Role::Worker,
        );
        let report = eng.run().expect("run succeeds");
        assert_eq!(report.metrics.ideal_time, Some(5));
        assert_eq!(report.metrics.worker_moves, 6);
    }

    /// Waits forever.
    struct Stuck;

    impl AgentProgram for Stuck {
        type Board = ();
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Action {
            Action::Wait
        }
    }

    #[test]
    fn parked_forever_is_deadlock() {
        let cube = Hypercube::new(2);
        let mut eng = Engine::new(cube, EngineConfig::default());
        eng.spawn(Stuck, Node::ROOT, Role::Worker);
        match eng.run() {
            Err(RunError::Deadlock { waiting }) => assert_eq!(waiting, 1),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn synchronous_deadlock_detected() {
        let cube = Hypercube::new(2);
        let mut eng = Engine::new(
            cube,
            EngineConfig {
                policy: Policy::Synchronous,
                ..EngineConfig::default()
            },
        );
        eng.spawn(Stuck, Node::ROOT, Role::Worker);
        assert!(matches!(eng.run(), Err(RunError::Deadlock { .. })));
    }

    /// Moves out of range.
    struct BadPort;

    impl AgentProgram for BadPort {
        type Board = ();
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Action {
            Action::Move(99)
        }
    }

    #[test]
    fn invalid_port_is_reported() {
        let cube = Hypercube::new(3);
        let mut eng = Engine::new(cube, EngineConfig::default());
        eng.spawn(BadPort, Node::ROOT, Role::Worker);
        assert!(matches!(eng.run(), Err(RunError::InvalidAction { .. })));
    }

    /// Clones once onto port 1, then both terminate.
    #[derive(Clone)]
    struct CloneOnce {
        is_clone: bool,
        done: bool,
    }

    impl AgentProgram for CloneOnce {
        type Board = ();
        fn step(&mut self, _ctx: &mut Ctx<'_, ()>) -> Action {
            if self.is_clone || self.done {
                return Action::Terminate;
            }
            self.done = true;
            Action::Clone(1)
        }
        fn clone_program(&self) -> Self {
            CloneOnce {
                is_clone: true,
                done: false,
            }
        }
    }

    #[test]
    fn cloning_creates_an_agent_and_counts_one_move() {
        let cube = Hypercube::new(3);
        let mut eng = Engine::new(cube, EngineConfig::default());
        eng.spawn(
            CloneOnce {
                is_clone: false,
                done: false,
            },
            Node::ROOT,
            Role::Worker,
        );
        let report = eng.run().expect("run succeeds");
        assert_eq!(report.metrics.team_size, 2);
        assert_eq!(report.metrics.worker_moves, 1);
        assert_eq!(report.occupancy[1], 1);
        assert_eq!(report.occupancy[0], 1);
    }

    #[test]
    fn event_stream_is_recorded_in_order() {
        let cube = Hypercube::new(3);
        let mut eng = Engine::new(cube, EngineConfig::default());
        eng.spawn(
            WalkTo {
                target: Node(0b101),
            },
            Node::ROOT,
            Role::Worker,
        );
        let report = eng.run().expect("run succeeds");
        let kinds: Vec<_> = report.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Spawn {
                    agent: 0,
                    node: Node(0),
                    role: Role::Worker
                },
                EventKind::Move {
                    agent: 0,
                    from: Node(0),
                    to: Node(1),
                    role: Role::Worker
                },
                EventKind::Move {
                    agent: 0,
                    from: Node(1),
                    to: Node(0b101),
                    role: Role::Worker
                },
                EventKind::Terminate {
                    agent: 0,
                    node: Node(0b101)
                },
            ]
        );
    }

    /// Two agents rendezvous through the whiteboard: the first writes a
    /// token at the root, the second waits for it, then both terminate.
    #[derive(Clone, Default)]
    struct TokenBoard {
        token: bool,
    }

    impl Board for TokenBoard {
        fn bits_used(&self) -> u32 {
            1
        }
    }

    struct Writer;
    impl AgentProgram for Writer {
        type Board = TokenBoard;
        fn step(&mut self, ctx: &mut Ctx<'_, TokenBoard>) -> Action {
            ctx.board_mut().token = true;
            Action::Terminate
        }
    }

    struct Reader;
    impl AgentProgram for Reader {
        type Board = TokenBoard;
        fn step(&mut self, ctx: &mut Ctx<'_, TokenBoard>) -> Action {
            if ctx.board().token {
                Action::Terminate
            } else {
                Action::Wait
            }
        }
    }

    /// Composite program so both roles share a board type.
    enum Rw {
        W(Writer),
        R(Reader),
    }
    impl AgentProgram for Rw {
        type Board = TokenBoard;
        fn step(&mut self, ctx: &mut Ctx<'_, TokenBoard>) -> Action {
            match self {
                Rw::W(w) => w.step(ctx),
                Rw::R(r) => r.step(ctx),
            }
        }
    }

    #[test]
    fn whiteboard_wakes_waiting_agent() {
        // LIFO runs the reader first (spawned last), which parks; the
        // writer's write must wake it.
        let cube = Hypercube::new(2);
        let mut eng = Engine::new(
            cube,
            EngineConfig {
                policy: Policy::Lifo,
                ..EngineConfig::default()
            },
        );
        eng.spawn(Rw::W(Writer), Node::ROOT, Role::Worker);
        eng.spawn(Rw::R(Reader), Node::ROOT, Role::Worker);
        let report = eng.run().expect("no deadlock: the write wakes the reader");
        assert_eq!(report.metrics.team_size, 2);
        assert_eq!(report.metrics.peak_board_bits, 1);
    }

    /// Regression: an agent whose wait condition is satisfied by a write
    /// performed in the SAME activation that parks another agent must still
    /// be woken (no lost wake-ups). Constructed so the waiter parks before
    /// the writer acts under FIFO.
    #[derive(Clone, Default)]
    struct CounterBoard {
        value: u32,
    }
    impl Board for CounterBoard {
        fn bits_used(&self) -> u32 {
            32 - self.value.leading_zeros()
        }
    }

    enum Collab {
        /// Waits until the counter reaches `target`, then terminates.
        Waiter { target: u32 },
        /// Increments the counter once per activation, `times` times.
        Incrementer { times: u32 },
    }
    impl AgentProgram for Collab {
        type Board = CounterBoard;
        fn step(&mut self, ctx: &mut Ctx<'_, CounterBoard>) -> Action {
            match self {
                Collab::Waiter { target } => {
                    if ctx.board().value >= *target {
                        Action::Terminate
                    } else {
                        Action::Wait
                    }
                }
                Collab::Incrementer { times } => {
                    if *times == 0 {
                        return Action::Terminate;
                    }
                    *times -= 1;
                    ctx.board_mut().value += 1;
                    Action::Wait
                }
            }
        }
    }

    #[test]
    fn no_lost_wakeups_through_whiteboard_writes() {
        for policy in Policy::adversaries(5) {
            let mut eng = Engine::new(
                Hypercube::new(2),
                EngineConfig {
                    policy,
                    ..EngineConfig::default()
                },
            );
            eng.spawn(Collab::Waiter { target: 3 }, Node::ROOT, Role::Worker);
            eng.spawn(Collab::Incrementer { times: 3 }, Node::ROOT, Role::Worker);
            let report = eng.run().unwrap_or_else(|e| panic!("{policy:?}: {e}"));
            assert_eq!(report.metrics.peak_board_bits, 2);
        }
    }

    #[test]
    fn activation_cap_turns_livelock_into_an_error() {
        /// Writes the board forever — a livelock the cap must break.
        struct Spinner;
        impl AgentProgram for Spinner {
            type Board = CounterBoard;
            fn step(&mut self, ctx: &mut Ctx<'_, CounterBoard>) -> Action {
                ctx.board_mut().value = ctx.board().value.wrapping_add(1);
                Action::Wait
            }
        }
        let mut eng = Engine::new(
            Hypercube::new(2),
            EngineConfig {
                max_activations: 1_000,
                ..EngineConfig::default()
            },
        );
        eng.spawn(Spinner, Node::ROOT, Role::Worker);
        assert!(matches!(eng.run(), Err(RunError::ActivationLimit)));
    }

    #[test]
    fn disabling_event_recording_keeps_metrics() {
        let run = |record: bool| {
            let mut eng = Engine::new(
                Hypercube::new(4),
                EngineConfig {
                    record_events: record,
                    ..EngineConfig::default()
                },
            );
            eng.spawn(
                WalkTo {
                    target: Node(0b1111),
                },
                Node::ROOT,
                Role::Worker,
            );
            eng.run().unwrap()
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(with.metrics, without.metrics);
        assert!(!with.events.is_empty());
        assert!(without.events.is_empty());
        assert_eq!(with.visited, without.visited);
    }

    #[test]
    fn node_state_view_tracks_occupancy_and_visits() {
        let mut eng = Engine::<WalkTo>::new(Hypercube::new(3), EngineConfig::default());
        assert_eq!(eng.node_state(Node(0)), NodeState::Contaminated);
        eng.spawn(WalkTo { target: Node(1) }, Node::ROOT, Role::Worker);
        assert_eq!(eng.node_state(Node(0)), NodeState::Guarded);
        let _ = eng; // (run consumes the engine; the view is pre-run here)
    }

    /// Each activation draws from its own SplitMix64 stream whether to
    /// wait (with or without a board write), move, clone or terminate.
    struct Chaos {
        rng: SplitMix64,
        clones_left: u32,
    }

    impl AgentProgram for Chaos {
        type Board = CounterBoard;
        fn step(&mut self, ctx: &mut Ctx<'_, CounterBoard>) -> Action {
            let z = self.rng.next_u64();
            let port = 1 + (z >> 8) as u32 % ctx.cube().dim();
            match z % 10 {
                0..=2 => Action::Wait,
                3 | 4 => {
                    ctx.board_mut().value += 1;
                    Action::Wait
                }
                5 | 6 => Action::Move(port),
                7 if self.clones_left > 0 => {
                    self.clones_left -= 1;
                    Action::Clone(port)
                }
                _ => Action::Terminate,
            }
        }
        fn clone_program(&self) -> Self {
            // Seeded by the parent's next output, salted to diverge from it.
            Chaos {
                rng: SplitMix64::new(self.rng.clone().next_u64() ^ 0x5851_F42D_4C95_7F2D),
                clones_left: self.clones_left / 2,
            }
        }
    }

    /// The runnable and live bookkeeping against a scan of agent statuses.
    fn assert_hooks_match_status_scan<P: AgentProgram>(eng: &Engine<P>) {
        let scan: Vec<AgentId> = (0..eng.agents.len() as AgentId)
            .filter(|&id| eng.agents[id as usize].status == AgentStatus::Runnable)
            .collect();
        let live = eng
            .agents
            .iter()
            .filter(|a| a.status != AgentStatus::Terminated)
            .count();
        assert_eq!(eng.runnable_agents(), scan);
        assert_eq!(eng.runnable_count(), scan.len());
        assert_eq!(eng.live_agents(), live);
        assert_eq!(eng.all_terminated(), live == 0);
        for (k, &id) in scan.iter().enumerate() {
            assert_eq!(eng.runnable_nth(k), id);
        }
        let mut rank = vec![None; eng.agents.len() + 65];
        for (k, &id) in scan.iter().enumerate() {
            rank[id as usize] = Some(k);
        }
        for (id, want) in rank.into_iter().enumerate() {
            assert_eq!(eng.runnable_rank(id as AgentId), want, "rank of {id}");
        }
    }

    #[test]
    fn runnable_hooks_match_a_status_scan_under_random_steps() {
        let mut rng = ChaCha8::new(0x5CA7);
        for seed in 0..24u64 {
            let mut eng = Engine::new(
                Hypercube::new(3),
                EngineConfig {
                    visibility: seed % 2 == 1,
                    ..EngineConfig::default()
                },
            );
            // Teams around word (64) and block (512) boundaries, before
            // the clones join.
            let team = [1, 5, 63, 64, 65, 150, 511, 600][seed as usize % 8];
            for i in 0..team {
                let program = Chaos {
                    rng: SplitMix64::new(seed << 32 | i),
                    clones_left: 4,
                };
                eng.spawn(program, Node::ROOT, Role::Worker);
            }
            for _ in 0..600 {
                assert_hooks_match_status_scan(&eng);
                if eng.runnable_count() == 0 {
                    break;
                }
                let idx = rng.below(eng.runnable_count() as u64) as usize;
                eng.step_agent(eng.runnable_nth(idx)).expect("valid step");
            }
            assert_hooks_match_status_scan(&eng);
        }
    }

    #[test]
    fn step_round_tracks_live_agents() {
        for seed in 0..8u64 {
            let mut eng = Engine::new(
                Hypercube::new(3),
                EngineConfig {
                    policy: Policy::Synchronous,
                    ..EngineConfig::default()
                },
            );
            for i in 0..1 + seed * 23 % 90 {
                let program = Chaos {
                    rng: SplitMix64::new(seed << 32 | i),
                    clones_left: 2,
                };
                eng.spawn(program, Node::ROOT, Role::Worker);
            }
            for _ in 0..200 {
                let out = eng.step_round().expect("valid round");
                assert_hooks_match_status_scan(&eng);
                assert_eq!(
                    out.done,
                    eng.agents
                        .iter()
                        .all(|a| a.status == AgentStatus::Terminated)
                );
                if out.done {
                    break;
                }
            }
        }
    }

    #[test]
    fn all_async_policies_agree_on_final_state() {
        for policy in Policy::adversaries(5) {
            let cube = Hypercube::new(4);
            let mut eng = Engine::new(
                cube,
                EngineConfig {
                    policy,
                    ..EngineConfig::default()
                },
            );
            for t in [3u32, 5, 9, 14] {
                eng.spawn(WalkTo { target: Node(t) }, Node::ROOT, Role::Worker);
            }
            let report = eng.run().expect("run succeeds");
            for t in [3u32, 5, 9, 14] {
                assert_eq!(report.occupancy[t as usize], 1, "policy {policy:?}");
            }
        }
    }
}
