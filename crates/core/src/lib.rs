//! The paper's contribution: contiguous, monotone node-search strategies
//! for the hypercube.
//!
//! * [`CleanStrategy`] — §3's Algorithm `CLEAN`: a *synchronizer* agent
//!   coordinates the team level by level over the broadcast tree, recalling
//!   agents from leaves for reuse. `O(n/ log n)`-scale team (exactly
//!   `max_l [C(d,l+1) + C(d−1,l−1)] + 1`), `O(n log n)` moves and time.
//! * [`VisibilityStrategy`] — §4's Algorithm `CLEAN WITH VISIBILITY`:
//!   fully local rule (agents see neighbour states), `n/2` agents,
//!   `log n` ideal time, `O(n log n)` moves.
//! * [`CloningStrategy`] — §5's cloning variant: one initial agent clones
//!   on dispatch; `n/2` agents, `log n` time, `n − 1` moves.
//! * [`SynchronousStrategy`] — §5's synchronous variant: the visibility
//!   rule's timing replaced by the global clock (`move at t = m(x)`),
//!   no visibility needed.
//!
//! Every strategy runs two ways with identical decision logic: on the
//! `hypersweep-sim` discrete-event engine under any adversarial schedule
//! ([`SearchStrategy::run`]), and through a direct trace generator
//! ([`SearchStrategy::fast`]) used for large dimensions. Each strategy type
//! defines its team once (an inherent `engine(policy)`) and its trace once
//! ([`SearchStrategy::synthesize_into`]); `run` and `fast` are derived from
//! them. Both paths feed the `hypersweep-intruder` verifier, so
//! monotonicity, contiguity, coverage and capture are *checked*, never
//! assumed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clean;
pub mod cloning;
pub mod outcome;
pub mod predictions;
pub mod synchronous;
pub mod visibility;

pub use clean::{CleanStrategy, NavigationMode};
pub use cloning::{CloningStrategy, DispatchOrder};
pub use outcome::{SearchOutcome, SearchStrategy, StrategyError};
pub use synchronous::SynchronousStrategy;
pub use visibility::VisibilityStrategy;
