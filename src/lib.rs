//! `hypersweep` — contiguous search in the hypercube for capturing an
//! intruder.
//!
//! A complete reproduction of *"Contiguous Search in the Hypercube for
//! Capturing an Intruder"* (P. Flocchini, M. J. Huang, F. L. Luccio,
//! IPPS 2005): the hypercube/broadcast-tree substrate, an asynchronous
//! mobile-agent simulator with whiteboards and adversarial schedulers, the
//! paper's two cleaning strategies (plus its cloning and synchronous
//! variants), baseline strategies, contamination monitors with an explicit
//! evading intruder, and an experiment harness regenerating every result of
//! the paper.
//!
//! This crate is a façade re-exporting the workspace members under stable
//! names; see [`prelude`] for the items most programs need.
//!
//! # Quick start
//!
//! ```
//! use hypersweep::prelude::*;
//!
//! // Clean H_6 with the visibility strategy under the synchronous
//! // schedule and verify the paper's Theorems 5, 7, 8.
//! let cube = Hypercube::new(6);
//! let outcome = VisibilityStrategy::new(cube)
//!     .run(Policy::Synchronous)
//!     .expect("search completes");
//! assert!(outcome.is_complete()); // monotone, contiguous, intruder caught
//! assert_eq!(outcome.metrics.team_size, 32);               // n/2
//! assert_eq!(outcome.metrics.ideal_time, Some(6));         // log n
//! assert_eq!(outcome.metrics.total_moves(), 112);          // (n/4)(log n + 1)
//! ```

#![forbid(unsafe_code)]

pub use hypersweep_analysis as analysis;
pub use hypersweep_baselines as baselines;
pub use hypersweep_check as check;
pub use hypersweep_core as core;
pub use hypersweep_intruder as intruder;
pub use hypersweep_scenario as scenario;
pub use hypersweep_server as server;
pub use hypersweep_sim as sim;
pub use hypersweep_telemetry as telemetry;
pub use hypersweep_topology as topology;

/// The items most programs need.
pub mod prelude {
    pub use hypersweep_core::{
        CleanStrategy, CloningStrategy, SearchOutcome, SearchStrategy, StrategyError,
        SynchronousStrategy, VisibilityStrategy,
    };
    pub use hypersweep_intruder::{
        verify_trace, CaptureStatus, EvaderPolicy, Intruder, MonitorConfig, Verdict, Verifier,
    };
    pub use hypersweep_sim::{Metrics, Policy};
    pub use hypersweep_topology::{BroadcastTree, Hypercube, Node};
}
