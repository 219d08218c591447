//! Experiment harness: regenerates every table and figure of the paper.
//!
//! The paper is theoretical, so its "evaluation" is its theorems
//! (Theorems 2–8, Lemmas 3–4, Properties 1–8) and four structural figures.
//! Each becomes a regenerable artifact here — see `DESIGN.md` §3 for the
//! full experiment index (F1–F4 for the figures, T2–T10 for the theorems,
//! E11–E12 for the comparative experiments the introduction motivates).
//!
//! Every experiment returns an [`ExperimentResult`] holding
//! measured-vs-predicted [`table::Table`]s and figure-shaped
//! [`series::Series`]; the CLI renders them as text and the whole set
//! exports to JSON for archival (`EXPERIMENTS.md` records the outputs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checking;
pub mod experiments;
pub mod persist;
pub mod pool;
pub mod result;
pub mod runner;
pub mod series;
pub mod stats;
pub mod table;

pub use cache::{
    execute_run, validate_cache_shards, Exec, InsertListener, RunCache, RunKey, ShardedRunCache,
    StrategyKind, MAX_CACHE_SHARDS,
};
pub use checking::{
    campaign_table, run_campaign, validate_campaign_size, CampaignOutcome, CheckCampaign,
    MAX_CAMPAIGN_SCHEDULES,
};
pub use persist::{CacheStore, PersistAppender, WarmLoadStats};
pub use pool::{
    default_jobs, execute_jobs, execute_jobs_metered, execute_schedule_stream, PoolSaturated,
    StreamCutoff, WorkerPool,
};
pub use result::ExperimentResult;
pub use runner::{
    run_experiment, run_ids_pooled_with, validate_cache_cap, validate_max_dim, ExperimentConfig,
    HarnessReport, RunSummary, REPORT_MAX_DIM,
};
pub use series::Series;
pub use table::Table;
