//! Execution substrate for asynchronous mobile agents with whiteboards.
//!
//! The paper's model (§1.1/§2): a team of identical autonomous agents moves
//! from node to neighbouring node of a hypercube; each action takes a
//! finite but unpredictable amount of time (asynchrony); agents communicate
//! exclusively through `O(log n)`-bit whiteboards accessed in fair mutual
//! exclusion; in the *visibility* model of §4 an agent can additionally see
//! whether each neighbour is clean, guarded or contaminated.
//!
//! This crate realizes the model once, as [`engine::Engine`]: a
//! deterministic discrete-event executor. The asynchronous adversary is a
//! pluggable [`policy::Policy`] deciding which pending agent acts next;
//! correctness of a strategy must hold under every policy. The special
//! [`policy::Policy::Synchronous`] policy runs lock-step rounds and yields
//! the paper's *ideal time* (one unit per edge traversal).
//!
//! The engine emits a linearized [`event::Event`] stream, which the
//! `hypersweep-intruder` crate consumes to verify monotonicity, contiguity
//! and capture. The test fixtures in `hypersweep-testutil` run the same
//! [`program::AgentProgram`]s on real OS threads, one per agent, through
//! [`program::Ctx::new`], and the cross-engine suites hold the two
//! executors' traces and totals equal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod metrics;
pub mod policy;
pub mod program;
mod rng;
pub mod sink;
pub mod state;

pub use engine::{Engine, EngineConfig, RoundOutcome, RunError, RunReport};
pub use event::{AgentId, Event, EventKind, Role};
pub use metrics::Metrics;
pub use policy::Policy;
pub use program::{Action, AgentProgram, Board, Ctx};
pub use sink::{EventSink, NullSink, TraceSummary};
pub use state::NodeState;
