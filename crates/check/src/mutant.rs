//! Deliberately broken strategies — negative controls for the oracles.
//!
//! A checker whose oracles never fire proves nothing; these mutants carry
//! a known asynchronous-model bug that a sufficiently adversarial schedule
//! must expose, giving the campaign a sensitivity baseline.

use hypersweep_core::visibility::VisBoard;
use hypersweep_sim::{Action, AgentProgram, Ctx};
use hypersweep_topology::combinatorics as comb;

use crate::explore::CheckStrategy;

/// A visibility agent that releases its guard one step early.
///
/// The correct rule (§4.2) dispatches from `x` only once **every** smaller
/// neighbour is clean or guarded. This mutant treats the port-1 neighbour
/// as already safe: it departs one step before that neighbour's guard
/// actually arrives. The port-1 neighbour is often a node of the *same*
/// wavefront class whose own wave an adversarial schedule can delay
/// arbitrarily, so the early release lets contamination flood back into
/// the vacated node. Under the canonical synchronous schedule the whole
/// class dispatches at once and the bug is invisible — exactly the class
/// of error the schedule explorer exists to catch.
pub struct EagerVisibilityAgent;

impl AgentProgram for EagerVisibilityAgent {
    type Board = VisBoard;

    fn step(&mut self, ctx: &mut Ctx<'_, VisBoard>) -> Action {
        let x = ctx.node();
        let d = ctx.cube().dim();
        let m = x.msb_position();
        let k = d - m;
        if k == 0 {
            return Action::Terminate;
        }
        if !ctx.board().dispatch_started {
            let need = comb::visibility_need(k);
            if u128::from(ctx.active_here()) < need {
                return Action::Wait;
            }
            // BUG (deliberate): ports 2..=m checked, port 1 assumed safe.
            if !(2..=m).all(|p| ctx.neighbor_state(p).is_safe()) {
                return Action::Wait;
            }
            ctx.board_mut().dispatch_started = true;
        }
        let slot = ctx.board().next_slot;
        ctx.board_mut().next_slot = slot + 1;
        let child_type = hypersweep_core::visibility::slot_child_type(slot);
        Action::Move(d - child_type)
    }

    fn local_bits(&self) -> u32 {
        0
    }
}

/// A mutant of a paper strategy that the checker runs in the strategy's
/// place. Unlike [`CheckStrategy::MutantEagerGuard`], whose bug the
/// all-canonical schedule already exposes, these only fail under some
/// interleavings, so catching one takes the adversary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutant {
    /// §5's cloning agent that takes a wake-up as clearance to dispatch
    /// (see [`WakeupCloningAgent`]).
    WakeupClone,
}

impl Mutant {
    /// Every mutant.
    pub const ALL: [Mutant; 1] = [Mutant::WakeupClone];

    /// Stable name, as accepted by [`Mutant::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Mutant::WakeupClone => "mutant-wakeup-clone",
        }
    }

    /// Parse a mutant name.
    pub fn parse(name: &str) -> Option<Mutant> {
        Mutant::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The paper strategy this mutant breaks.
    pub fn strategy(self) -> CheckStrategy {
        match self {
            Mutant::WakeupClone => CheckStrategy::Cloning,
        }
    }
}

/// A cloning agent that dispatches when it is woken, whatever woke it.
///
/// The correct agent (§5) re-checks that every smaller neighbour is clean
/// or guarded at each activation, because under asynchrony a wake-up only
/// says that *something* visible changed nearby. This mutant checks once:
/// if it has to wait, its next activation dispatches without looking
/// again, as if the wake-up could only come from the last missing guard
/// arriving. When the lowest-id agent always runs first, every clone finds
/// its smaller neighbours already safe and never waits, so the canonical
/// schedule cannot see the bug. An adversary that activates a clone before
/// a smaller neighbour is reached makes it wait; a wake-up from another
/// neighbour then releases it, and the node it vacates is recontaminated.
#[derive(Clone, Default)]
pub struct WakeupCloningAgent {
    /// The next child port to clone towards (`0` = dispatch not started).
    next_port: u32,
    /// Whether the agent has waited at its node.
    waited: bool,
}

impl AgentProgram for WakeupCloningAgent {
    type Board = VisBoard;

    fn step(&mut self, ctx: &mut Ctx<'_, VisBoard>) -> Action {
        let d = ctx.cube().dim();
        let m = ctx.node().msb_position();
        if m == d {
            return Action::Terminate;
        }
        if self.next_port == 0 {
            // BUG (deliberate): after one wait, any wake-up is clearance.
            if !self.waited && !ctx.smaller_neighbors_safe() {
                self.waited = true;
                return Action::Wait;
            }
            self.next_port = m + 1;
        }
        // Clone towards the children across ports m+1..d-1 (largest
        // subtree first), then move to the T(0) child across port d.
        let port = self.next_port;
        if port == d {
            Action::Move(port)
        } else {
            self.next_port = port + 1;
            Action::Clone(port)
        }
    }

    fn clone_program(&self) -> Self {
        WakeupCloningAgent::default()
    }

    fn local_bits(&self) -> u32 {
        1 + 32 - self.next_port.leading_zeros()
    }
}
