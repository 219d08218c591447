//! The per-step invariant oracles: the one run verifier of
//! `hypersweep-intruder`, under the name the checker's drivers and the
//! scenario sweeps use.

pub use hypersweep_intruder::{Verifier as StepOracle, ViolationKind, ViolationReport};
