//! Graph substrate for `hypersweep`.
//!
//! This crate provides everything the search strategies of Flocchini, Huang
//! and Luccio (IPPS 2005) assume about the world:
//!
//! * [`Hypercube`] — the `d`-dimensional hypercube `H_d` with the paper's
//!   port labelling (`λ_x(x, y)` = position of the bit in which `x` and `y`
//!   differ, positions counted `1..=d` from the least significant bit).
//! * [`BroadcastTree`] — the breadth-first spanning tree rooted at node
//!   `00…0` in which the children of `x` are its *bigger neighbours*
//!   (Definition 2 of the paper); also known as the binomial tree or *heap
//!   queue* `T(d)` (Definition 1).
//! * [`HeapQueue`] — the recursive heap-queue structure itself, used to
//!   validate (Figure 1) that the broadcast tree of `H_d` is a `T(d)`.
//! * [`properties`] — executable forms of the paper's Properties 1–8.
//! * [`combinatorics`] — exact binomial coefficients and the closed forms
//!   that appear in the paper's theorems.
//! * [`graph`] — a small [`graph::Topology`] trait plus comparison
//!   topologies (trees, rings, tori, complete graphs) used by the baseline
//!   strategies.
//! * [`render`] — ASCII renderings of the structures shown in the paper's
//!   Figures 1 and 3.
//! * [`rng`] — [`rng::SplitMix64`], the seeded generator behind every
//!   reproducible random choice in the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod combinatorics;
pub mod graph;
pub mod grid;
pub mod heap_queue;
pub mod hypercube;
pub mod node;
pub mod nodeset;
pub mod properties;
pub mod render;
pub mod rng;
pub mod wide;

pub use broadcast::BroadcastTree;
pub use graph::Topology;
pub use grid::{GridInstance, PartialGrid};
pub use heap_queue::HeapQueue;
pub use hypercube::Hypercube;
pub use node::Node;
pub use nodeset::NodeSet;

/// Maximum hypercube dimension supported by the crate.
///
/// Node identifiers are 32-bit, and several closed forms are evaluated in
/// `u128`; `d = 28` (268M nodes) is far beyond anything the simulators can
/// hold in memory anyway, so this is not a practical restriction.
pub const MAX_DIMENSION: u32 = 28;
