//! `hypersweep-server`: an online query daemon for the hypercube search
//! harness.
//!
//! The offline harness answers questions in batch (`hypersweep report`);
//! this crate answers them on demand over TCP, in a line-delimited JSON
//! protocol (see [`protocol`]):
//!
//! * `plan` — the closed-form per-phase cleaning schedule for a strategy
//!   on `H_d`;
//! * `predict` — the paper's exact theorem counts (agents, moves, time);
//! * `audit` — run the strategy's trace through the packed contamination
//!   monitor and return the verdict plus measured metrics, streaming the
//!   trace so memory stays `O(n)` even at `H_20`;
//! * `status` — uptime, request counters, cache statistics, in-flight work;
//! * `metrics` — the daemon's full telemetry snapshot (pool, cache, sink,
//!   and per-request-kind latency series), also exportable as JSON lines
//!   via [`ServerLimits::metrics_file`].
//!
//! The front end is a single-threaded non-blocking reactor (TCP plus an
//! optional Unix-domain socket) with request pipelining and in-order
//! replies. Requests that need no computation answer inline with a stored
//! wire line: `plan`/`predict` from the [`AnswerTable`], memoized audits
//! and scenario references from their memos. Each such line is serialized
//! once, on the first request that needs it (not at startup), and lives
//! as long as its memo entry. Only computations dispatch onto
//! the analysis crate's bounded [`WorkerPool`] (backpressure surfaces to
//! clients as `busy` errors, never as unbounded queueing); runs
//! deduplicate through one [`RunCache`], hash-sharded on the run key with
//! a capacity bound that evicts the run cheapest to recompute first
//! (GreedyDual), so the daemon stays in bounded memory no matter how long
//! it serves.
//! Graceful shutdown (SIGINT or a `shutdown` request) drains in-flight
//! work and emits a final stats line.
//!
//! [`WorkerPool`]: hypersweep_analysis::WorkerPool
//! [`RunCache`]: hypersweep_analysis::RunCache

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod answers;
pub mod client;
pub mod daemon;
pub mod dispatch;
pub mod limits;
pub mod poll;
pub mod protocol;
mod reactor;

pub use answers::AnswerTable;
pub use client::{run_bench, BenchConfig, BenchReport, Client, BENCH_SCHEMA};
pub use daemon::{Server, ServerStats};
pub use dispatch::Dispatcher;
pub use limits::ServerLimits;
pub use protocol::{
    AuditReply, CacheStats, ErrorKind, MetricsReply, PhasePlan, PlanReply, PredictReply, Request,
    Response, ServedCounts, ShutdownReply, StatusReply, WireError,
};
