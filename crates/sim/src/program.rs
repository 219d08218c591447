//! The agent programming model: whiteboards, local views, actions.

use hypersweep_topology::{Hypercube, Node};

use crate::event::AgentId;
use crate::state::NodeState;

/// Per-node whiteboard contents.
///
/// §2: "each node has a local storage area called whiteboard (`O(log n)`
/// bits of memory suffice for all our algorithms)". Implementations report
/// how many bits of information they actually encode through
/// [`Board::bits_used`]; executors meter the maximum so the claim can be
/// checked experimentally.
pub trait Board: Clone + Default + Send + 'static {
    /// Upper bound (in bits) on the information currently stored.
    fn bits_used(&self) -> u32;
}

/// A trivial whiteboard for strategies that need none.
impl Board for () {
    fn bits_used(&self) -> u32 {
        0
    }
}

/// What an agent may do at the end of one activation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Do nothing; the agent is parked until something changes at its node
    /// (or, in the visibility model, at a neighbouring node).
    Wait,
    /// Slide along the edge with the given port label (`1..=d`).
    Move(u32),
    /// Create a copy of oneself on the neighbour across the given port
    /// (§5's cloning variant). Counted as one move.
    Clone(u32),
    /// Stop executing and remain on the current node as a guard forever.
    Terminate,
}

/// The local view an agent receives when activated.
///
/// Everything here is information the paper's model makes locally
/// available: the node's identity and port labels (stored on the
/// whiteboard, §2), the whiteboard itself (read/write), the number of
/// agents currently present (maintained on the whiteboard by the
/// strategies), the states of neighbouring nodes (visibility model only),
/// and the global round number (synchronous model only).
pub struct Ctx<'a, B> {
    pub(crate) cube: Hypercube,
    pub(crate) node: Node,
    pub(crate) agent: AgentId,
    pub(crate) alive_here: u32,
    pub(crate) board: &'a mut B,
    pub(crate) dirty: bool,
    pub(crate) neighbor_states: Option<&'a [NodeState]>,
    pub(crate) round: Option<u64>,
}

impl<'a, B> Ctx<'a, B> {
    /// The view of agent `agent` activated on `node` of `cube`, where
    /// `alive_here` active agents stand and `board` is the node's
    /// whiteboard. `neighbor_states` holds the neighbours' states by port
    /// under the visibility model (`None` otherwise), and `round` the round
    /// under the synchronous policy (`None` otherwise).
    #[inline]
    pub fn new(
        cube: Hypercube,
        node: Node,
        agent: AgentId,
        alive_here: u32,
        board: &'a mut B,
        neighbor_states: Option<&'a [NodeState]>,
        round: Option<u64>,
    ) -> Self {
        Ctx {
            cube,
            node,
            agent,
            alive_here,
            board,
            dirty: false,
            neighbor_states,
            round,
        }
    }

    /// The hypercube being searched (agents know the topology, §2).
    #[inline]
    pub fn cube(&self) -> Hypercube {
        self.cube
    }

    /// The node the agent currently resides on.
    #[inline]
    pub fn node(&self) -> Node {
        self.node
    }

    /// This agent's identifier (unique within the run).
    #[inline]
    pub fn agent_id(&self) -> AgentId {
        self.agent
    }

    /// Number of *active* (non-terminated) agents on this node, including
    /// the caller.
    #[inline]
    pub fn active_here(&self) -> u32 {
        self.alive_here
    }

    /// Read the whiteboard.
    #[inline]
    pub fn board(&self) -> &B {
        self.board
    }

    /// Write access to the whiteboard; marks it dirty so the executor can
    /// wake waiting agents and meter bit usage.
    #[inline]
    pub fn board_mut(&mut self) -> &mut B {
        self.dirty = true;
        self.board
    }

    /// The state of the neighbour across `port` (`1..=d`).
    ///
    /// # Panics
    ///
    /// Panics if the executor was not configured with visibility — calling
    /// this from a non-visibility strategy is a model violation, not a
    /// recoverable condition.
    #[inline]
    pub fn neighbor_state(&self, port: u32) -> NodeState {
        let states = self
            .neighbor_states
            .expect("neighbor_state requires the visibility model (EngineConfig::visibility)");
        states[(port - 1) as usize]
    }

    /// Whether every *smaller neighbour* (Definition 2) of the current node
    /// is clean or guarded — the guard condition of Algorithm 2's rule.
    pub fn smaller_neighbors_safe(&self) -> bool {
        (1..=self.node.msb_position()).all(|p| self.neighbor_state(p).is_safe())
    }

    /// The current round under the synchronous policy, `None` under
    /// asynchronous policies. The §5 synchronous variant moves exactly at
    /// round `m(x)`.
    #[inline]
    pub fn round(&self) -> Option<u64> {
        self.round
    }
}

/// An agent program: a deterministic local rule driven by activations.
///
/// The executor activates an agent; the program inspects its [`Ctx`]
/// (including read/write whiteboard access under the node's implicit mutual
/// exclusion) and returns one [`Action`]. Local state lives in `self`; the
/// paper allows `O(log n)` bits of it, which [`AgentProgram::local_bits`]
/// reports for metering.
pub trait AgentProgram: Send + 'static {
    /// The whiteboard type this strategy uses.
    type Board: Board;

    /// One activation.
    fn step(&mut self, ctx: &mut Ctx<'_, Self::Board>) -> Action;

    /// Create the program state for a clone spawned by [`Action::Clone`].
    ///
    /// The default panics; strategies that clone must override it.
    fn clone_program(&self) -> Self
    where
        Self: Sized,
    {
        unimplemented!("this strategy does not clone agents")
    }

    /// Upper bound (in bits) on the agent's current local state, for
    /// metering the `O(log n)` local-memory claim.
    fn local_bits(&self) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_board_uses_no_bits() {
        assert_eq!(<() as Board>::bits_used(&()), 0);
    }

    #[test]
    fn ctx_accessors() {
        let mut board = ();
        let states = [NodeState::Clean, NodeState::Contaminated];
        let ctx = Ctx {
            cube: Hypercube::new(2),
            node: Node(0b10),
            agent: 7,
            alive_here: 3,
            board: &mut board,
            dirty: false,
            neighbor_states: Some(&states),
            round: Some(4),
        };
        assert_eq!(ctx.node(), Node(2));
        assert_eq!(ctx.agent_id(), 7);
        assert_eq!(ctx.active_here(), 3);
        assert_eq!(ctx.round(), Some(4));
        assert_eq!(ctx.neighbor_state(1), NodeState::Clean);
        assert_eq!(ctx.neighbor_state(2), NodeState::Contaminated);
        // Node 0b10: m = 2, smaller neighbours are ports 1 and 2; port 2 is
        // contaminated, so the guard condition fails.
        assert!(!ctx.smaller_neighbors_safe());
    }

    #[test]
    fn board_mut_sets_dirty() {
        let mut board = ();
        let mut ctx = Ctx {
            cube: Hypercube::new(1),
            node: Node(0),
            agent: 0,
            alive_here: 1,
            board: &mut board,
            dirty: false,
            neighbor_states: None,
            round: None,
        };
        assert!(!ctx.dirty);
        let _ = ctx.board_mut();
        assert!(ctx.dirty);
    }

    #[test]
    #[should_panic(expected = "visibility")]
    fn neighbor_state_without_visibility_panics() {
        let mut board = ();
        let ctx = Ctx::<()> {
            cube: Hypercube::new(1),
            node: Node(0),
            agent: 0,
            alive_here: 1,
            board: &mut board,
            dirty: false,
            neighbor_states: None,
            round: None,
        };
        let _ = ctx.neighbor_state(1);
    }
}
