//! Baseline decontamination strategies and reference bounds.
//!
//! The paper's contribution is best appreciated against what simpler
//! approaches cost. This crate provides:
//!
//! * [`FloodStrategy`] — the trivial maximal-team upper bound: `n` agents
//!   flood the broadcast tree leaving a permanent guard everywhere;
//!   `(n/2)·log n` moves, `log n` time. No agent is ever reused.
//! * [`FrontierStrategy`] — the naive level sweep: guard an entire BFS
//!   level, fully guard the next, then retire the old level to the root
//!   pool. It needs `max_l [C(d,l) + C(d,l+1)]` agents — asymptotically
//!   ~1.6× Algorithm CLEAN's team — and `n·log n` moves (~2× CLEAN),
//!   quantifying what the synchronizer's leaf-recall scheme buys.
//! * [`tree_search`] — contiguous search on trees (the only previously
//!   solved topology, Barrière et al. \[1\]): the optimal-team recurrence,
//!   a strategy generator, and the negative control showing that running
//!   the tree strategy on the hypercube's spanning tree while ignoring the
//!   chords immediately recontaminates.
//! * [`bounds`] — the exact optimal contiguous monotone boundary bound for
//!   small graphs (Dijkstra over connected vertex sets minimizing the peak
//!   guarded boundary), used to position the paper's team sizes against
//!   the true optimum (§5 leaves optimality open).
//! * [`isoperimetry`] — Harper's vertex-isoperimetric theorem applied to
//!   the team-size question: a rigorous `Θ(n/√log n)` lower bound for
//!   every dimension, squeezing Algorithm CLEAN from below.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod flood;
pub mod frontier;
pub mod isoperimetry;
pub mod other_topologies;
pub mod planner;
pub mod tree_search;

pub use bounds::{boundary_optimum, BoundaryOptimum};
pub use flood::FloodStrategy;
pub use frontier::FrontierStrategy;
pub use isoperimetry::isoperimetric_team_lower_bound;
pub use other_topologies::{ring_plan, torus_plan};
pub use planner::{greedy_plan, GreedyPlan};
pub use tree_search::{tree_search_number, TreeSearchPlan};
