//! The one online verifier of a search run.
//!
//! A [`Verifier`] folds a run's event stream into the ground-truth
//! [`ContaminationField`] and checks the paper's defining requirements:
//!
//! * **Monotonicity** (Theorems 1 and 6): once decontaminated, a node is
//!   never recontaminated.
//! * **Contiguity** (§1.2): the decontaminated region stays connected and
//!   contains the homebase at every instant.
//! * **Frontier guard coverage**: every clean node bordering contamination
//!   is guarded.
//! * **Coverage and capture**: the run ends with every node clean, and the
//!   optional explicit evader ends captured.
//!
//! Every event first passes a legality check: an event that names a node
//! outside the topology, leaves a node where no agent stands, or (on
//! `H_d`) crosses a non-edge is recorded as [`ViolationKind::IllegalEvent`]
//! and not applied, so no input can index out of bounds or wrap an
//! occupancy count. A legal event passes the same four stages in order:
//! apply it, record every new recontamination, on stride events check
//! contiguity and then frontier coverage, and let the evader react.
//! [`Verifier::observe`] returns the first violation recorded for the
//! event, which is where the checker stops; audits keep feeding events and
//! read the [`Verdict`], which lists every violation recorded.

use hypersweep_topology::{Hypercube, Node, Topology};
use serde::{Deserialize, Serialize};

use hypersweep_sim::Event;

use crate::contamination::{ContaminationField, FieldScratch, IllegalEvent};
use crate::evader::{CaptureStatus, EvaderPolicy, Intruder};

/// What went wrong, exactly. Serialized into replay files, so variants
/// carry plain integers rather than domain types.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A clean node was recontaminated — monotonicity broken.
    Recontamination {
        /// The recontaminated node.
        node: u32,
    },
    /// The decontaminated region split or lost the homebase.
    ContiguityBroken,
    /// A clean, unguarded node borders contamination — the frontier guard
    /// coverage failed.
    UnguardedFrontier {
        /// The exposed node.
        node: u32,
    },
    /// All agents terminated but the reachability intruder still has
    /// somewhere to hide.
    CaptureEscaped {
        /// Contaminated nodes remaining at termination.
        contaminated: u64,
    },
    /// No agent was runnable while some had not terminated.
    Deadlock {
        /// Agents still alive.
        waiting: u64,
    },
    /// The engine rejected an action (bad port, activation cap, …).
    EngineError {
        /// The engine's message.
        message: String,
    },
    /// The schedule exceeded the step budget without completing.
    StepLimit,
    /// The event cannot happen where the agents stand; it was not applied.
    IllegalEvent(IllegalEvent),
}

/// A violation pinned to the step and event index where the verifier
/// first saw it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViolationReport {
    /// The caller's clock when the violating state was produced: the
    /// checker's decision step, or the event's own `time` in audits.
    pub step: u64,
    /// Events applied to the contamination field when the verifier fired.
    pub event: u64,
    /// What the verifier saw.
    pub kind: ViolationKind,
}

impl std::fmt::Display for ViolationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {} event {}: ", self.step, self.event)?;
        match &self.kind {
            ViolationKind::Recontamination { node } => {
                write!(f, "recontamination at node {node}")
            }
            ViolationKind::ContiguityBroken => write!(f, "clean region no longer contiguous"),
            ViolationKind::UnguardedFrontier { node } => {
                write!(f, "unguarded frontier node {node}")
            }
            ViolationKind::CaptureEscaped { contaminated } => {
                write!(
                    f,
                    "intruder escaped: {contaminated} nodes still contaminated"
                )
            }
            ViolationKind::Deadlock { waiting } => {
                write!(f, "deadlock with {waiting} agents alive")
            }
            ViolationKind::EngineError { message } => write!(f, "engine error: {message}"),
            ViolationKind::StepLimit => write!(f, "step budget exhausted"),
            ViolationKind::IllegalEvent(why) => write!(f, "illegal event: {why}"),
        }
    }
}

/// What to verify, and how exhaustively.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Check contiguity and frontier coverage after every `stride`-th
    /// event (`0` turns the region checks off; `1` checks after each
    /// event). Both checks are `O(1)` per query on the incremental field.
    pub stride: u64,
    /// Track an explicit intruder starting from the given node.
    pub intruder_start: Option<Node>,
    /// Use the strong (greedy) evader rather than the lazy one.
    pub greedy_evader: bool,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            stride: 1,
            intruder_start: None,
            greedy_evader: true,
        }
    }
}

impl MonitorConfig {
    /// Full verification with an intruder starting at `node`.
    pub fn with_intruder(node: Node) -> Self {
        MonitorConfig {
            intruder_start: Some(node),
            ..MonitorConfig::default()
        }
    }
}

/// Final verdict over a run.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// No recontamination ever occurred.
    pub monotone: bool,
    /// The decontaminated region stayed connected throughout (vacuously
    /// true if the region checks were off).
    pub contiguous: bool,
    /// Every node ended decontaminated.
    pub all_clean: bool,
    /// Final intruder status (`None` if no intruder was tracked).
    pub capture: Option<CaptureStatus>,
    /// All violations, in order of detection.
    pub violations: Vec<ViolationReport>,
    /// Events processed.
    pub events: u64,
}

impl Verdict {
    /// The run is a correct, complete, intruder-capturing search.
    pub fn is_complete(&self) -> bool {
        self.monotone
            && self.contiguous
            && self.all_clean
            && self.violations.is_empty()
            && self.capture.map(|c| c.is_captured()).unwrap_or(true)
    }
}

/// The online verifier of one run. Feed it every event via
/// [`Verifier::observe`], then conclude with [`Verifier::finish`] (the
/// checker) or [`Verifier::verdict`] (audits).
///
/// Generic over the topology so the scenario checkers (partial grids,
/// dynamic graphs) run the same checks; the default keeps hypercube call
/// sites spelling `Verifier<'a>`.
pub struct Verifier<'a, T: Topology + ?Sized = Hypercube> {
    field: ContaminationField<'a, T>,
    /// Region checks every `stride` events; `0` turns them off.
    stride: u64,
    intruder: Option<Intruder>,
    violations: Vec<ViolationReport>,
    recontaminations_seen: usize,
}

impl<'a, T: Topology + ?Sized> Verifier<'a, T> {
    /// A fresh verifier for a search of `topo` from `homebase`, with the
    /// region checks every `stride` events and no explicit evader.
    pub fn new(topo: &'a T, homebase: Node, stride: u64) -> Self {
        Self::new_in(topo, homebase, stride, FieldScratch::default())
    }

    /// Like [`Verifier::new`], but reusing the allocations of a previous
    /// verifier's field (see [`Verifier::into_scratch`]). Campaign drivers
    /// exploring thousands of schedules recycle one scratch per worker
    /// instead of reallocating `O(n)` buffers per schedule.
    pub fn new_in(topo: &'a T, homebase: Node, stride: u64, scratch: FieldScratch) -> Self {
        Verifier {
            field: ContaminationField::new_in(topo, homebase, scratch),
            stride,
            intruder: None,
            violations: Vec::new(),
            recontaminations_seen: 0,
        }
    }

    /// A verifier set up by `cfg`: its stride and optional evader.
    pub fn with_config(topo: &'a T, homebase: Node, cfg: MonitorConfig) -> Self {
        let mut verifier = Self::new(topo, homebase, cfg.stride);
        verifier.intruder = cfg.intruder_start.map(|start| {
            assert!(
                start != homebase,
                "the intruder cannot start on the homebase"
            );
            let policy = if cfg.greedy_evader {
                EvaderPolicy::Greedy
            } else {
                EvaderPolicy::Lazy
            };
            Intruder::new(start, policy)
        });
        verifier
    }

    /// Dismantle the verifier into its field's reusable allocations.
    pub fn into_scratch(self) -> FieldScratch {
        self.field.into_scratch()
    }

    /// Events applied so far.
    pub fn events_applied(&self) -> u64 {
        self.field.events_applied()
    }

    /// Apply one event and run the checks; `step` is the caller's clock,
    /// recorded into any violation. Returns the first violation recorded
    /// for this event. An illegal event is recorded as
    /// [`ViolationKind::IllegalEvent`] and not applied.
    // The checker calls this once per event, with no evader and almost
    // never a violation: the cold recorders and the out-of-line evader
    // keep the body small enough to inline into its loop. Audits call it
    // with an evader that, on most events, cannot move; asking first
    // saves the call, and tips the inliner's estimate, so the inlining is
    // forced.
    #[inline(always)]
    pub fn observe(&mut self, event: &Event, step: u64) -> Result<(), ViolationReport> {
        let first = self.violations.len();
        match self.field.try_apply(event) {
            Ok(()) => {
                let at_event = self.field.events_applied();
                if self.field.recontaminations().len() > self.recontaminations_seen {
                    self.record_recontaminations(step);
                }
                if self.stride > 0 && at_event % self.stride == 0 {
                    self.check_region(step);
                }
                if let Some(intruder) = &self.intruder {
                    if intruder.may_move(&self.field) {
                        self.react(at_event);
                    }
                }
            }
            Err(why) => self.record(step, ViolationKind::IllegalEvent(why)),
        }
        self.first_since(first)
    }

    /// Let the evader react to the event just applied.
    #[inline(never)]
    fn react(&mut self, at_event: u64) {
        if let Some(intruder) = &mut self.intruder {
            intruder.react(self.field.topology(), &self.field, at_event);
        }
    }

    /// Feed a whole trace, each event stamped with its own `time`.
    pub fn observe_all<'e>(&mut self, events: impl IntoIterator<Item = &'e Event>) {
        for e in events {
            let _ = self.observe(e, e.time);
        }
    }

    /// The topology gained the edge `a`–`b` between events; see
    /// [`ContaminationField::edge_inserted`].
    ///
    /// # Panics
    ///
    /// On `H_d`, whose edges never change.
    pub fn edge_inserted(&mut self, a: Node, b: Node) {
        self.field.edge_inserted(a, b);
    }

    /// The topology lost the edge `a`–`b` between events; see
    /// [`ContaminationField::edge_removed`].
    ///
    /// # Panics
    ///
    /// On `H_d`, whose edges never change.
    pub fn edge_removed(&mut self, a: Node, b: Node) {
        self.field.edge_removed(a, b);
    }

    /// Run the region checks right now, regardless of stride. The
    /// dynamic-graph scenario calls this after each batch of edge changes:
    /// the clean region must stay contiguous and guarded under the new
    /// adjacency before any agent moves.
    pub fn verify_region(&mut self, step: u64) -> Result<(), ViolationReport> {
        let first = self.violations.len();
        self.check_region(step);
        self.first_since(first)
    }

    /// Final checks once every agent has terminated: the region checks
    /// regardless of stride, then capture — the worst-case reachability
    /// intruder can be anywhere still contaminated, so capture is exactly
    /// "nothing is".
    pub fn finish(&mut self, step: u64) -> Result<(), ViolationReport> {
        let first = self.violations.len();
        self.check_region(step);
        if !self.field.all_clean() {
            let contaminated = self.field.contaminated_count() as u64;
            self.record(step, ViolationKind::CaptureEscaped { contaminated });
        }
        self.first_since(first)
    }

    /// The region checks: contiguity, then frontier guard coverage.
    fn check_region(&mut self, step: u64) {
        if !self.field.is_contiguous() {
            self.record(step, ViolationKind::ContiguityBroken);
        }
        if let Some(node) = self.field.unguarded_frontier() {
            self.record(step, ViolationKind::UnguardedFrontier { node: node.0 });
        }
    }

    /// Record one violation per node recontaminated since the last call.
    #[cold]
    fn record_recontaminations(&mut self, step: u64) {
        let recontaminated = &self.field.recontaminations()[self.recontaminations_seen..];
        self.recontaminations_seen += recontaminated.len();
        for &(_, node) in recontaminated {
            self.violations.push(ViolationReport {
                step,
                event: self.field.events_applied(),
                kind: ViolationKind::Recontamination { node: node.0 },
            });
        }
    }

    #[cold]
    fn record(&mut self, step: u64, kind: ViolationKind) {
        self.violations.push(self.report(step, kind));
    }

    /// A violation of `kind` at `step`, pinned to the events applied so
    /// far — also how drivers report what only they can see (deadlock,
    /// step budget, engine errors).
    pub fn report(&self, step: u64, kind: ViolationKind) -> ViolationReport {
        ViolationReport {
            step,
            event: self.field.events_applied(),
            kind,
        }
    }

    /// The first violation recorded at or after index `first`.
    fn first_since(&self, first: usize) -> Result<(), ViolationReport> {
        match self.violations.get(first) {
            Some(v) => Err(v.clone()),
            None => Ok(()),
        }
    }

    /// Read access to the underlying contamination field.
    pub fn field(&self) -> &ContaminationField<'a, T> {
        &self.field
    }

    /// Mutable access to the underlying field, for tests that hold its
    /// `&mut self` queries (contiguity, component count) to the whole-field
    /// references mid-schedule. Not part of the API: events applied through
    /// it bypass the verifier's checks.
    #[doc(hidden)]
    pub fn field_for_tests(&mut self) -> &mut ContaminationField<'a, T> {
        &mut self.field
    }

    /// Current intruder status, if tracked.
    pub fn intruder(&self) -> Option<&Intruder> {
        self.intruder.as_ref()
    }

    /// Conclude and produce the verdict. With the region checks on, the
    /// contiguity verdict also takes one final check regardless of stride.
    pub fn verdict(mut self) -> Verdict {
        let contiguous = self.stride == 0
            || (self.field.is_contiguous()
                && !self
                    .violations
                    .iter()
                    .any(|v| v.kind == ViolationKind::ContiguityBroken));
        Verdict {
            monotone: self.field.recontaminations().is_empty(),
            contiguous,
            all_clean: self.field.all_clean(),
            capture: self.intruder.as_ref().map(|i| i.status()),
            violations: self.violations,
            events: self.field.events_applied(),
        }
    }
}

/// Audit a complete trace in one call.
///
/// ```
/// use hypersweep_intruder::{verify_trace, MonitorConfig};
/// use hypersweep_sim::{Event, EventKind, Role};
/// use hypersweep_topology::{graph::Path, Node};
///
/// // One agent cleans a 3-node path end to end.
/// let path = Path::new(3);
/// let trace = vec![
///     Event { time: 0, kind: EventKind::Spawn { agent: 0, node: Node(0), role: Role::Worker } },
///     Event { time: 1, kind: EventKind::Move { agent: 0, from: Node(0), to: Node(1), role: Role::Worker } },
///     Event { time: 2, kind: EventKind::Move { agent: 0, from: Node(1), to: Node(2), role: Role::Worker } },
/// ];
/// let verdict = verify_trace(&path, Node(0), &trace, MonitorConfig::default());
/// assert!(verdict.monotone && verdict.contiguous && verdict.all_clean);
/// ```
pub fn verify_trace<T: Topology + ?Sized>(
    topo: &T,
    homebase: Node,
    events: &[Event],
    cfg: MonitorConfig,
) -> Verdict {
    let mut verifier = Verifier::with_config(topo, homebase, cfg);
    verifier.observe_all(events);
    verifier.verdict()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersweep_sim::{EventKind, Role};

    fn spawn(agent: u32, node: u32) -> Event {
        Event {
            time: 0,
            kind: EventKind::Spawn {
                agent,
                node: Node(node),
                role: Role::Worker,
            },
        }
    }

    fn mv(agent: u32, from: u32, to: u32) -> Event {
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

    /// A correct hand-written search of H_2 with 2 agents + intruder.
    #[test]
    fn verdict_on_a_correct_h2_search() {
        let h = Hypercube::new(2);
        // 00 -> {01,10} -> 11. Agents: a0 holds, a1 tours.
        let trace = vec![
            spawn(0, 0),
            spawn(1, 0),
            spawn(2, 0),
            mv(1, 0b00, 0b01),
            mv(2, 0b00, 0b10),
            mv(0, 0b00, 0b01), // 00 vacated: neighbours 01,10 guarded → clean
            mv(0, 0b01, 0b11), // capture corner
        ];
        let verdict = verify_trace(
            &h,
            Node::ROOT,
            &trace,
            MonitorConfig::with_intruder(Node(3)),
        );
        assert!(verdict.monotone, "violations: {:?}", verdict.violations);
        assert!(verdict.contiguous);
        assert!(verdict.all_clean);
        assert!(verdict.capture.unwrap().is_captured());
        assert!(verdict.is_complete());
    }

    /// The lazy evader moves only when its node is cleaned; the verifier
    /// must still hand it those events.
    #[test]
    fn lazy_evader_is_cornered_through_the_verifier() {
        let h = Hypercube::new(2);
        let trace = vec![
            spawn(0, 0),
            spawn(1, 0),
            spawn(2, 0),
            mv(1, 0b00, 0b01),
            mv(2, 0b00, 0b10),
            mv(0, 0b00, 0b01),
            mv(0, 0b01, 0b11),
        ];
        let lazy = MonitorConfig {
            greedy_evader: false,
            ..MonitorConfig::with_intruder(Node(0b01))
        };
        let mut verifier = Verifier::with_config(&h, Node::ROOT, lazy);
        verifier.observe_all(&trace[..4]);
        let intruder = verifier.intruder().expect("tracked");
        assert_eq!(intruder.trail(), &[Node(0b01), Node(0b11)]);
        let verdict = verify_trace(&h, Node::ROOT, &trace, lazy);
        assert_eq!(
            verdict.capture,
            Some(CaptureStatus::Captured {
                at_event: 7,
                node: Node(0b11)
            })
        );
    }

    #[test]
    fn verdict_flags_recontamination() {
        let h = Hypercube::new(2);
        let trace = vec![spawn(0, 0), mv(0, 0, 1)];
        let verdict = verify_trace(&h, Node::ROOT, &trace, MonitorConfig::default());
        assert!(!verdict.monotone);
        assert!(!verdict.all_clean);
        assert!(!verdict.is_complete());
        assert_eq!(
            verdict.violations[0],
            ViolationReport {
                step: 0,
                event: 2,
                kind: ViolationKind::Recontamination { node: 0 },
            }
        );
    }

    #[test]
    fn incomplete_search_is_not_complete() {
        let h = Hypercube::new(2);
        let trace = vec![spawn(0, 0)];
        let verdict = verify_trace(&h, Node::ROOT, &trace, MonitorConfig::default());
        assert!(verdict.monotone);
        assert!(verdict.contiguous);
        assert!(!verdict.all_clean);
        assert!(!verdict.is_complete());
    }

    #[test]
    fn intruder_survives_incomplete_search() {
        let h = Hypercube::new(3);
        let trace = vec![spawn(0, 0), spawn(1, 0), mv(1, 0, 1)];
        let verdict = verify_trace(
            &h,
            Node::ROOT,
            &trace,
            MonitorConfig::with_intruder(Node(0b111)),
        );
        assert!(matches!(verdict.capture, Some(CaptureStatus::Free(_))));
        assert!(!verdict.is_complete());
    }

    #[test]
    fn contiguity_sampling_still_checks_at_the_end() {
        let h = Hypercube::new(2);
        // Illegal trace producing a split region.
        let trace = vec![spawn(0, 0), spawn(1, 3)];
        let cfg = MonitorConfig {
            stride: 1000, // sampled out during the run…
            ..MonitorConfig::default()
        };
        let verdict = verify_trace(&h, Node::ROOT, &trace, cfg);
        assert!(verdict.violations.is_empty());
        assert!(!verdict.contiguous, "…but the final check still fires");
    }

    #[test]
    fn illegal_events_are_refused_and_not_applied() {
        let h = Hypercube::new(3);
        // A move off the cube: it used to index out of bounds.
        let verdict = verify_trace(
            &h,
            Node::ROOT,
            &[spawn(0, 0), mv(0, 0, 99)],
            MonitorConfig::with_intruder(Node(7)),
        );
        assert_eq!(
            verdict.violations,
            vec![ViolationReport {
                step: 0,
                event: 1,
                kind: ViolationKind::IllegalEvent(IllegalEvent::OutOfRange { node: 99, nodes: 8 }),
            }]
        );
        assert_eq!(verdict.events, 1, "the illegal move was not applied");
        assert!(!verdict.is_complete());
        // A move from an empty node: it used to wrap the occupancy count.
        let verdict = verify_trace(
            &h,
            Node::ROOT,
            &[spawn(0, 0), mv(1, 2, 3)],
            MonitorConfig::default(),
        );
        assert_eq!(
            verdict.violations[0].kind,
            ViolationKind::IllegalEvent(IllegalEvent::Vacant { node: 2 })
        );
        assert_eq!(verdict.violations.len(), 1);
        let mut verifier = Verifier::new(&h, Node::ROOT, 1);
        assert_eq!(verifier.observe(&spawn(0, 0), 0), Ok(()));
        let refused = verifier.observe(&mv(1, 2, 3), 1).unwrap_err();
        assert_eq!(
            refused.to_string(),
            "step 1 event 1: illegal event: no agent stands on node 2 to leave it"
        );
        assert_eq!(verifier.field().occupancy(), &[1, 0, 0, 0, 0, 0, 0, 0]);
        // A jump across a non-edge of the cube, then a legal move.
        let refused = verifier.observe(&mv(0, 0, 3), 2).unwrap_err();
        assert_eq!(
            refused.kind,
            ViolationKind::IllegalEvent(IllegalEvent::NotAdjacent { from: 0, to: 3 })
        );
        assert_eq!(verifier.observe(&spawn(1, 0), 3), Ok(()));
        assert_eq!(verifier.observe(&mv(1, 0, 1), 4), Ok(()));
        assert_eq!(verifier.events_applied(), 3);
    }

    #[test]
    fn other_topologies_get_the_range_and_occupancy_checks_only() {
        use hypersweep_topology::graph::Ring;
        let ring = Ring::new(6);
        let mut verifier = Verifier::new(&ring, Node(0), 1);
        assert_eq!(verifier.observe(&spawn(0, 0), 0), Ok(()));
        assert_eq!(
            verifier.observe(&mv(0, 0, 6), 1).unwrap_err().kind,
            ViolationKind::IllegalEvent(IllegalEvent::OutOfRange { node: 6, nodes: 6 })
        );
        assert_eq!(
            verifier.observe(&mv(0, 1, 2), 2).unwrap_err().kind,
            ViolationKind::IllegalEvent(IllegalEvent::Vacant { node: 1 })
        );
        // No neighbour check off the cube: the jump 0 → 3 is applied (and
        // recontaminates 0).
        assert_eq!(
            verifier.observe(&mv(0, 0, 3), 3).unwrap_err().kind,
            ViolationKind::Recontamination { node: 0 }
        );
    }

    #[test]
    fn stride_zero_turns_the_region_checks_off() {
        let h = Hypercube::new(2);
        let trace = vec![spawn(0, 0), spawn(1, 3)];
        let mut verifier = Verifier::new(&h, Node::ROOT, 0);
        for e in &trace {
            assert_eq!(verifier.observe(e, 0), Ok(()));
        }
        assert!(verifier.verdict().contiguous);
    }
}
