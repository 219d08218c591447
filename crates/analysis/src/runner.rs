//! Experiment configuration, dispatch, and pooled parallel execution.
//!
//! The harness runs in two phases over one [`RunCache`] and one
//! fixed-size worker pool ([`crate::pool`]):
//!
//! 1. **Warm**: every requested experiment *declares* the strategy runs it
//!    needs ([`experiments::required_runs`]); the declarations are deduped
//!    and executed across the pool, so a run shared by several experiments
//!    (e.g. CLEAN's fast trace, used by T2, T3, E11 and E13) executes once.
//! 2. **Experiments**: the experiments themselves run on the pool and read
//!    their runs back as cache hits.
//!
//! Strategy runs are deterministic per key and results are merged in
//! submission order, so exported JSON is byte-identical for every `--jobs`
//! setting (including sequential `--jobs 1`).

use std::collections::HashSet;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use hypersweep_telemetry::{MetricsRegistry, Span};
use serde::{Deserialize, Serialize};

use crate::cache::RunCache;
use crate::experiments;
use crate::pool::execute_jobs_metered;
use crate::result::ExperimentResult;

/// How large and how thorough an experiment run should be.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Dimensions evaluated through the fast (procedural) paths.
    pub fast_dims: Vec<u32>,
    /// Dimensions additionally executed on the discrete-event engine under
    /// asynchronous adversaries.
    pub engine_dims: Vec<u32>,
    /// Dimensions executed under the synchronous schedule for ideal-time
    /// measurements (Algorithm CLEAN is sequential, so these stay small).
    pub sync_engine_dims: Vec<u32>,
    /// Number of random-adversary seeds per configuration.
    pub adversary_seeds: u64,
}

/// Largest dimension the report sweeps (and the default per-request cap a
/// server enforces): `ExperimentConfig::full()` tops out here, and the
/// streamed audit paths are validated to this size.
pub const REPORT_MAX_DIM: u32 = 20;

/// Validate a user-supplied dimension cap (the CLI's `report --max-dim N`
/// and the server's per-request dimension limit): it must lie in
/// `1..=REPORT_MAX_DIM`. Returns the cap unchanged, or a message naming
/// the valid range.
pub fn validate_max_dim(max_dim: u32) -> Result<u32, String> {
    if max_dim == 0 {
        Err(format!(
            "--max-dim must be at least 1 (a 0-dimension cap would leave nothing to sweep); \
             valid range is 1..={REPORT_MAX_DIM}"
        ))
    } else if max_dim > REPORT_MAX_DIM {
        Err(format!(
            "--max-dim {max_dim} exceeds the supported sweep limit {REPORT_MAX_DIM} \
             (H_{REPORT_MAX_DIM} is the largest validated dimension); \
             valid range is 1..={REPORT_MAX_DIM}"
        ))
    } else {
        Ok(max_dim)
    }
}

/// Upper bound on `--campaign-size`: beyond this even the cheapest
/// strategies need days, so larger requests are almost certainly typos.
pub const MAX_CAMPAIGN_SCHEDULES: u64 = 10_000_000;

/// Validate a campaign size the way [`validate_max_dim`] validates
/// `--max-dim`: reject 0 (an empty campaign proves nothing) and absurd
/// sizes.
pub fn validate_campaign_size(schedules: u64) -> Result<u64, String> {
    if schedules == 0 {
        Err(format!(
            "--campaign-size must be at least 1 (a 0-schedule campaign explores nothing); \
             valid range is 1..={MAX_CAMPAIGN_SCHEDULES}"
        ))
    } else if schedules > MAX_CAMPAIGN_SCHEDULES {
        Err(format!(
            "--campaign-size {schedules} exceeds the supported limit {MAX_CAMPAIGN_SCHEDULES} \
             (larger campaigns take days even at wide-kernel throughput); \
             valid range is 1..={MAX_CAMPAIGN_SCHEDULES}"
        ))
    } else {
        Ok(schedules)
    }
}

/// Validate a user-supplied run-cache capacity (the CLI's and server's
/// `--cache-cap N`): a zero-entry cache would evict every outcome the
/// moment it lands, silently re-executing every shared run. Mirrors
/// [`validate_max_dim`]. Returns the capacity unchanged, or a message
/// naming the valid range.
pub fn validate_cache_cap(cache_cap: usize) -> Result<usize, String> {
    if cache_cap == 0 {
        Err(
            "--cache-cap must be at least 1 (a 0-entry cache would evict every run \
             as it completes and re-execute everything); \
             omit the flag for an unbounded cache"
                .to_string(),
        )
    } else {
        Ok(cache_cap)
    }
}

impl ExperimentConfig {
    /// Small and fast: suitable for CI and unit tests (seconds).
    pub fn quick() -> Self {
        ExperimentConfig {
            fast_dims: (1..=10).collect(),
            engine_dims: vec![2, 4, 6],
            sync_engine_dims: vec![2, 4, 6],
            adversary_seeds: 2,
        }
    }

    /// The full runs recorded in `EXPERIMENTS.md` (tens of seconds). The
    /// fast (procedural, streamed-audit) paths scale to `H_20`.
    pub fn full() -> Self {
        ExperimentConfig {
            fast_dims: (1..=20).collect(),
            engine_dims: vec![2, 3, 4, 5, 6, 7, 8],
            sync_engine_dims: vec![2, 4, 6, 8],
            adversary_seeds: 5,
        }
    }

    /// Largest fast dimension.
    pub fn fast_max_dim(&self) -> u32 {
        self.fast_dims.iter().copied().max().unwrap_or(1)
    }

    /// Clamp every dimension list to `max_dim` (the CLI's `--max-dim`).
    pub fn clamp_max_dim(&mut self, max_dim: u32) {
        self.fast_dims.retain(|&d| d <= max_dim);
        self.engine_dims.retain(|&d| d <= max_dim);
        self.sync_engine_dims.retain(|&d| d <= max_dim);
    }
}

/// Dispatch one experiment against a shared run cache.
fn dispatch(id: &str, cfg: &ExperimentConfig, runs: &RunCache) -> Option<ExperimentResult> {
    Some(match id {
        "f1" => experiments::f1_broadcast_tree(cfg, runs),
        "f2" => experiments::f2_clean_order(cfg, runs),
        "f3" => experiments::f3_msb_classes(cfg, runs),
        "f4" => experiments::f4_visibility_wavefront(cfg, runs),
        "t2" => experiments::t2_clean_agents(cfg, runs),
        "t3" => experiments::t3_clean_moves(cfg, runs),
        "t4" => experiments::t4_clean_time(cfg, runs),
        "t5" => experiments::t5_visibility_agents(cfg, runs),
        "t6" => experiments::t6_monotonicity(cfg, runs),
        "t7" => experiments::t7_visibility_time(cfg, runs),
        "t8" => experiments::t8_visibility_moves(cfg, runs),
        "t9" => experiments::t9_cloning(cfg, runs),
        "t10" => experiments::t10_synchronous_variant(cfg, runs),
        "e11" => experiments::e11_strategy_comparison(cfg, runs),
        "e12" => experiments::e12_baselines(cfg, runs),
        "e13" => experiments::e13_ablations(cfg, runs),
        "e14" => experiments::e14_open_problem(cfg, runs),
        "e15" => experiments::e15_capture_dynamics(cfg, runs),
        "e16" => experiments::e16_network_survey(cfg, runs),
        _ => return None,
    })
}

/// Run one experiment by id with a private cache; `None` for an unknown id.
pub fn run_experiment(id: &str, cfg: &ExperimentConfig) -> Option<ExperimentResult> {
    dispatch(id, cfg, &RunCache::new())
}

/// Execution statistics for one pooled harness invocation. Deliberately
/// kept out of [`ExperimentResult`]: wall-clock numbers must never reach
/// the exported JSON.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Worker threads used.
    pub jobs: usize,
    /// Run requests served from an already-computed outcome.
    pub cache_hits: u64,
    /// Run requests that executed (once per unique configuration).
    pub cache_misses: u64,
    /// Outcomes dropped by the capacity bound (`0` when unbounded).
    pub cache_evictions: u64,
    /// Distinct strategy runs executed.
    pub unique_runs: usize,
    /// Per-run wall-clock times, slowest first (label, elapsed).
    pub run_timings: Vec<(String, Duration)>,
    /// Per-experiment wall-clock times in presentation order (id, elapsed).
    pub experiment_timings: Vec<(String, Duration)>,
    /// Wall-clock time of the warm phase (deduped strategy runs).
    pub warm_wall: Duration,
    /// Wall-clock time of the experiment phase.
    pub experiments_wall: Duration,
    /// End-to-end wall-clock time of both phases.
    pub wall: Duration,
}

impl RunSummary {
    /// One-line human summary for the CLI.
    pub fn render(&self) -> String {
        let slowest = self
            .run_timings
            .iter()
            .take(3)
            .map(|(label, t)| format!("{label} {:.0}ms", t.as_secs_f64() * 1e3))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "pool: {} jobs; cache: {} hits / {} misses / {} evicted \
             ({} unique runs, {:.1}s run time); \
             wall {:.1}s; slowest runs: {}",
            self.jobs,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.unique_runs,
            // Summed as `Duration`s: an empty `f64` sum is −0.0.
            self.run_timings
                .iter()
                .map(|(_, t)| *t)
                .sum::<Duration>()
                .as_secs_f64(),
            self.wall.as_secs_f64(),
            if slowest.is_empty() {
                "-".into()
            } else {
                slowest
            },
        )
    }
}

/// Results plus execution statistics from [`run_ids_pooled_with`].
#[derive(Debug)]
pub struct HarnessReport {
    /// One result per requested id, in the requested order.
    pub results: Vec<ExperimentResult>,
    /// Pool and cache statistics for the whole invocation.
    pub summary: RunSummary,
}

/// Run the given experiments on a pool of `jobs` workers with a shared
/// run cache. Panics on unknown ids (callers validate against
/// [`experiments::ALL_IDS`]).
///
/// `cache_cap` is an optional bound on retained strategy runs (the CLI's
/// `--cache-cap`), evicting the run cheapest to recompute first (the run
/// cache's GreedyDual rule): long `report all --full` sweeps trade
/// re-execution for bounded memory. `None` keeps every run (the default).
///
/// The run reports into `registry`: phase spans (`span.report.warm_us`,
/// `span.report.experiments_us`), per-experiment wall time
/// (`experiment.<id>_us` histograms), the pool's `pool.jobs` and
/// `pool.job_us` series, and the shared cache's `cache.*` series.
pub fn run_ids_pooled_with(
    ids: &[&str],
    cfg: &ExperimentConfig,
    jobs: usize,
    cache_cap: Option<usize>,
    registry: &MetricsRegistry,
) -> HarnessReport {
    let start = Instant::now();
    let jobs = jobs.max(1);
    let cache = RunCache::with_capacity_and_telemetry(1, cache_cap, registry);
    let cache = &cache;
    let report_span = Span::enter_in(registry, "report");

    // Phase 1: warm every declared run, deduped in declaration order.
    let warm_start = Instant::now();
    {
        let _warm = Span::enter_in(registry, "warm");
        let mut seen = HashSet::new();
        let warm_jobs: Vec<_> = ids
            .iter()
            .flat_map(|id| experiments::required_runs(id, cfg))
            .filter(|key| seen.insert(*key))
            .map(|key| {
                move || {
                    cache.get_or_run(key);
                }
            })
            .collect();
        execute_jobs_metered(warm_jobs, jobs, registry);
    }
    let warm_wall = warm_start.elapsed();

    // Phase 2: the experiments; their declared runs are now cache hits.
    // `execute_jobs` preserves submission order, so the merge below is
    // deterministic regardless of worker interleaving.
    let experiments_start = Instant::now();
    let timed = {
        let _experiments = Span::enter_in(registry, "experiments");
        let experiment_jobs: Vec<_> = ids
            .iter()
            .map(|&id| {
                move || {
                    let t = Instant::now();
                    let result = dispatch(id, cfg, cache)
                        .unwrap_or_else(|| panic!("unknown experiment id '{id}'"));
                    let elapsed = t.elapsed();
                    registry
                        .histogram(&format!("experiment.{id}_us"))
                        .record_duration(elapsed);
                    (result, elapsed)
                }
            })
            .collect();
        execute_jobs_metered(experiment_jobs, jobs, registry)
    };
    let experiments_wall = experiments_start.elapsed();
    drop(report_span);

    let mut results = Vec::with_capacity(timed.len());
    let mut experiment_timings = Vec::with_capacity(timed.len());
    for (result, elapsed) in timed {
        experiment_timings.push((result.id.clone(), elapsed));
        results.push(result);
    }
    let summary = RunSummary {
        jobs,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_evictions: cache.evictions(),
        unique_runs: cache.unique_runs(),
        run_timings: cache
            .timings()
            .into_iter()
            .map(|t| (t.key.label(), t.elapsed))
            .collect(),
        experiment_timings,
        warm_wall,
        experiments_wall,
        wall: start.elapsed(),
    };
    HarnessReport { results, summary }
}

/// Write every result as JSON into `dir` (one file per experiment id) and
/// return the file paths.
pub fn export_json(
    results: &[ExperimentResult],
    dir: &Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for r in results {
        let path = dir.join(format!("{}.json", r.id));
        let mut f = std::fs::File::create(&path)?;
        let json = serde_json::to_string_pretty(r).expect("results serialize");
        f.write_all(json.as_bytes())?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_without_runs_renders_zero_run_time() {
        let summary = RunSummary {
            jobs: 1,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            unique_runs: 0,
            run_timings: Vec::new(),
            experiment_timings: Vec::new(),
            warm_wall: Duration::ZERO,
            experiments_wall: Duration::ZERO,
            wall: Duration::ZERO,
        };
        let line = summary.render();
        assert!(line.contains("(0 unique runs, 0.0s run time)"), "{line}");
        assert!(!line.contains("-0.0"), "{line}");
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("zzz", &ExperimentConfig::quick()).is_none());
    }

    #[test]
    fn config_max_dim() {
        let cfg = ExperimentConfig::quick();
        assert_eq!(cfg.fast_max_dim(), 10);
    }

    #[test]
    fn max_dim_validation_bounds() {
        assert!(validate_max_dim(0).is_err());
        assert!(validate_max_dim(0).unwrap_err().contains("at least 1"));
        assert_eq!(validate_max_dim(1), Ok(1));
        assert_eq!(validate_max_dim(REPORT_MAX_DIM), Ok(REPORT_MAX_DIM));
        let over = validate_max_dim(REPORT_MAX_DIM + 1).unwrap_err();
        assert!(over.contains("exceeds"), "{over}");
        assert!(over.contains("20"), "{over}");
    }

    #[test]
    fn campaign_size_validation_rejects_zero_and_absurd() {
        assert!(validate_campaign_size(0).is_err());
        assert_eq!(validate_campaign_size(1), Ok(1));
        assert_eq!(
            validate_campaign_size(MAX_CAMPAIGN_SCHEDULES),
            Ok(MAX_CAMPAIGN_SCHEDULES)
        );
        let err = validate_campaign_size(MAX_CAMPAIGN_SCHEDULES + 1).unwrap_err();
        assert!(err.contains("valid range"), "structured message: {err}");
    }

    #[test]
    fn cache_cap_validation_bounds() {
        let err = validate_cache_cap(0).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(err.contains("--cache-cap"), "{err}");
        assert_eq!(validate_cache_cap(1), Ok(1));
        assert_eq!(validate_cache_cap(256), Ok(256));
    }

    #[test]
    fn instrumented_run_records_phases_and_experiments() {
        let mut cfg = ExperimentConfig::quick();
        cfg.fast_dims = (1..=5).collect();
        cfg.engine_dims = vec![2];
        cfg.sync_engine_dims = vec![2];
        cfg.adversary_seeds = 1;
        let registry = MetricsRegistry::new();
        let report = run_ids_pooled_with(&["t2", "t3"], &cfg, 2, None, &registry);
        assert_eq!(report.results.len(), 2);

        let snap = registry.snapshot();
        assert_eq!(snap.histogram("span.report_us").map(|h| h.count), Some(1));
        assert_eq!(
            snap.histogram("span.report.warm_us").map(|h| h.count),
            Some(1)
        );
        assert_eq!(
            snap.histogram("span.report.experiments_us")
                .map(|h| h.count),
            Some(1)
        );
        for id in ["t2", "t3"] {
            assert_eq!(
                snap.histogram(&format!("experiment.{id}_us"))
                    .map(|h| h.count),
                Some(1),
                "missing experiment series for {id}"
            );
        }
        // The shared cache reported into the same registry, and the pool
        // counted every warm + experiment job.
        assert_eq!(
            snap.counter("cache.misses"),
            Some(report.summary.cache_misses)
        );
        assert_eq!(snap.counter("cache.hits"), Some(report.summary.cache_hits));
        let pool_jobs = snap.counter("pool.jobs").unwrap_or(0);
        assert!(
            pool_jobs >= report.summary.cache_misses + 2,
            "pool.jobs = {pool_jobs} must cover warm jobs plus 2 experiments"
        );
        // Phase walls are recorded and consistent with the total.
        assert!(report.summary.warm_wall + report.summary.experiments_wall <= report.summary.wall);
    }

    #[test]
    fn capped_cache_surfaces_evictions_in_summary() {
        let mut cfg = ExperimentConfig::quick();
        cfg.fast_dims = (1..=6).collect();
        cfg.engine_dims = vec![2, 3];
        cfg.sync_engine_dims = vec![2, 3];
        cfg.adversary_seeds = 1;
        let off = MetricsRegistry::disabled();
        let capped = run_ids_pooled_with(&["t2", "t3"], &cfg, 1, Some(2), &off);
        assert!(
            capped.summary.cache_evictions > 0,
            "a 2-entry cap over t2+t3 must evict"
        );
        assert!(capped.summary.render().contains("evicted"));
        // Results are unaffected by eviction: identical to the unbounded run.
        let unbounded = run_ids_pooled_with(&["t2", "t3"], &cfg, 1, None, &off);
        assert_eq!(unbounded.summary.cache_evictions, 0);
        for (a, b) in capped.results.iter().zip(&unbounded.results) {
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap(),
                "experiment {} differs under a capped cache",
                a.id
            );
        }
    }

    #[test]
    fn export_writes_one_file_per_result() {
        let results = vec![
            ExperimentResult::new("x1", "a", "c"),
            ExperimentResult::new("x2", "b", "c"),
        ];
        let dir = std::env::temp_dir().join("hypersweep-export-test");
        let paths = export_json(&results, &dir).unwrap();
        assert_eq!(paths.len(), 2);
        for p in paths {
            assert!(p.exists());
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn pooled_run_shares_duplicated_runs() {
        let mut cfg = ExperimentConfig::quick();
        cfg.fast_dims = (1..=6).collect();
        cfg.engine_dims = vec![2, 3];
        cfg.sync_engine_dims = vec![2, 3];
        cfg.adversary_seeds = 1;
        // t2, t3 and e13 all need CLEAN's fast trace and t2/t3 share the
        // FIFO engine runs: the warm phase must execute each once and the
        // experiments must then hit.
        let off = MetricsRegistry::disabled();
        let report = run_ids_pooled_with(&["t2", "t3", "e13"], &cfg, 2, None, &off);
        assert_eq!(report.results.len(), 3);
        assert_eq!(report.results[0].id, "t2");
        assert!(
            report.summary.cache_hits > report.summary.cache_misses,
            "duplicated runs were not shared: {} hits / {} misses",
            report.summary.cache_hits,
            report.summary.cache_misses
        );
        assert_eq!(
            report.summary.unique_runs as u64,
            report.summary.cache_misses
        );
        let line = report.summary.render();
        assert!(line.contains("2 jobs"), "{line}");
        assert!(line.contains("hits"), "{line}");
    }
}
