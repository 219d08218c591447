//! T2–T10: the paper's theorems as measured-vs-predicted experiments.
//!
//! Every strategy execution goes through the shared [`RunCache`], so runs
//! duplicated across experiments (CLEAN's fast trace in T2/T3, the FIFO
//! engine confirmations, the visibility fast trace in T5/T7/T8, …) execute
//! once per harness invocation. [`required_runs`] declares each
//! experiment's runs so the runner can warm them across the worker pool.

use hypersweep_core::predictions::{
    clean_phase_accounting, clean_prediction, cloning_prediction, visibility_prediction,
};
use hypersweep_sim::Policy;
use hypersweep_topology::combinatorics as comb;

use crate::cache::{RunCache, RunKey, StrategyKind};
use crate::result::ExperimentResult;
use crate::runner::ExperimentConfig;
use crate::series::Series;
use crate::table::{fmt_ratio, fmt_u128, fmt_u64, Table};

/// The strategy runs each theorem experiment reads from the cache.
pub fn required_runs(id: &str, cfg: &ExperimentConfig) -> Vec<RunKey> {
    let mut keys = Vec::new();
    match id {
        "t2" | "t3" => {
            for &d in &cfg.fast_dims {
                keys.push(RunKey::fast(StrategyKind::Clean, d));
            }
            for &d in &cfg.engine_dims {
                keys.push(RunKey::engine(StrategyKind::Clean, d, Policy::Fifo));
            }
        }
        "t4" => {
            for &d in &cfg.sync_engine_dims {
                keys.push(RunKey::engine(StrategyKind::Clean, d, Policy::Synchronous));
            }
        }
        "t5" => {
            for &d in &cfg.fast_dims {
                keys.push(RunKey::fast(StrategyKind::Visibility, d));
            }
            for &d in &cfg.engine_dims {
                keys.push(RunKey::engine(StrategyKind::Visibility, d, Policy::Fifo));
            }
        }
        "t6" => {
            for kind in [
                StrategyKind::Clean,
                StrategyKind::Visibility,
                StrategyKind::Cloning,
            ] {
                for policy in Policy::adversaries(cfg.adversary_seeds) {
                    for &d in &cfg.engine_dims {
                        keys.push(RunKey::engine(kind, d, policy));
                    }
                }
            }
            for &d in &cfg.engine_dims {
                keys.push(RunKey::engine(StrategyKind::Clean, d, Policy::Random(1)));
                keys.push(RunKey::engine(
                    StrategyKind::Visibility,
                    d,
                    Policy::Random(1),
                ));
            }
        }
        "t7" => {
            for &d in &cfg.fast_dims {
                keys.push(RunKey::fast(StrategyKind::Visibility, d));
            }
            for &d in &cfg.sync_engine_dims {
                keys.push(RunKey::engine(
                    StrategyKind::Visibility,
                    d,
                    Policy::Synchronous,
                ));
            }
        }
        "t8" => {
            for &d in &cfg.fast_dims {
                keys.push(RunKey::fast(StrategyKind::Visibility, d));
            }
        }
        "t9" => {
            for &d in &cfg.fast_dims {
                keys.push(RunKey::fast(StrategyKind::Cloning, d));
            }
            for &d in &cfg.engine_dims {
                keys.push(RunKey::engine(StrategyKind::Cloning, d, Policy::Lifo));
            }
        }
        "t10" => {
            for &d in &cfg.sync_engine_dims {
                keys.push(RunKey::engine(
                    StrategyKind::Synchronous,
                    d,
                    Policy::Synchronous,
                ));
                keys.push(RunKey::engine(
                    StrategyKind::Visibility,
                    d,
                    Policy::Synchronous,
                ));
            }
        }
        _ => {}
    }
    keys
}

/// T2 (Theorem 2 + Lemmas 3, 4): agents used by Algorithm CLEAN.
pub fn t2_clean_agents(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "t2",
        "team size of Algorithm CLEAN (Theorem 2, Lemmas 3–4)",
        "CLEAN employs 1 + max_l [C(d,l+1) + C(d−1,l−1)] agents, stated as O(n/log n)",
    );
    let mut table = Table::new(
        "CLEAN team size vs dimension",
        &[
            "d",
            "n",
            "team (measured)",
            "Lemma 4 prediction",
            "peak away (trace)",
            "n/log n",
            "n/sqrt(log n)",
            "team/(n/log n)",
            "team/(n/sqrt(log n))",
        ],
    );
    let mut team_series = Series::new("CLEAN team size");
    for &d in &cfg.fast_dims {
        let outcome = runs.get_or_run(RunKey::fast(StrategyKind::Clean, d));
        let p = clean_prediction(d);
        let n = comb::pow2(d) as f64;
        let nlogn = if d > 0 { n / d as f64 } else { n };
        let nsqrt = n / (d as f64).sqrt().max(1.0);
        table.push_row(vec![
            d.to_string(),
            fmt_u128(comb::pow2(d)),
            fmt_u64(outcome.metrics.team_size),
            fmt_u128(p.team),
            fmt_u64(outcome.metrics.peak_away),
            format!("{nlogn:.1}"),
            format!("{nsqrt:.1}"),
            fmt_ratio(outcome.metrics.team_size as f64, nlogn),
            fmt_ratio(outcome.metrics.team_size as f64, nsqrt),
        ]);
        team_series.push(u64::from(d), outcome.metrics.team_size as f64);
        assert_eq!(u128::from(outcome.metrics.team_size), p.team);
    }
    r.tables.push(table);
    r.series.push(team_series);

    // Per-phase accounting for the figure dimension (Lemma 3 exactly).
    let d = super::figures::FIGURE_DIM;
    let mut phases = Table::new(
        format!("per-phase agent accounting for H_{d} (Lemma 3)"),
        &[
            "level l",
            "guards C(d,l)",
            "extras (Lemma 3)",
            "workers engaged",
        ],
    );
    for l in 0..d {
        let (g, e, w) = clean_phase_accounting(d, l);
        phases.push_row(vec![l.to_string(), fmt_u128(g), fmt_u128(e), fmt_u128(w)]);
    }
    r.tables.push(phases);

    // Engine confirmation: CLEAN completes with exactly the Lemma 4 team.
    for &d in &cfg.engine_dims {
        let outcome = runs.get_or_run(RunKey::engine(StrategyKind::Clean, d, Policy::Fifo));
        assert!(outcome.is_complete());
    }
    r.notes.push(format!(
        "engine runs with exactly the Lemma 4 team complete for d in {:?}",
        cfg.engine_dims
    ));
    r.notes.push(
        "reproduction note: the measured team matches the paper's exact formula for every d, \
         but its stated asymptotic O(n/log n) is optimistic — the central binomial term grows \
         as n/sqrt(log n), and the measured ratios confirm it (team/(n/sqrt(log n)) converges, \
         team/(n/log n) diverges)"
            .into(),
    );
    // Empirical order check.
    let fit_sqrt = r.series[0]
        .fit_against(|d| comb::pow2(d as u32) as f64 / (d as f64).sqrt())
        .expect("enough dims");
    r.notes.push(format!(
        "fit team ≈ c·n/sqrt(log n): c = {:.3}, max tail deviation {:.1}%",
        fit_sqrt.constant,
        fit_sqrt.max_rel_dev * 100.0
    ));
    r
}

/// T3 (Theorem 3): moves of Algorithm CLEAN.
pub fn t3_clean_moves(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "t3",
        "moves of Algorithm CLEAN (Theorem 3)",
        "agents move Σ 2l·C(d−1,l−1) = (n/2)(log n + 1) times; the synchronizer adds \
         O(n log n) (escorts 2(n−1), navigation, trips); total O(n log n)",
    );
    let mut table = Table::new(
        "CLEAN move counts vs dimension",
        &[
            "d",
            "worker moves",
            "predicted (n/2)(log n+1)",
            "sync moves",
            "sync escorts 2(n-1)",
            "sync upper bound",
            "total",
            "total/(n log n)",
        ],
    );
    let mut total_series = Series::new("CLEAN total moves");
    for &d in &cfg.fast_dims {
        let m = runs
            .get_or_run(RunKey::fast(StrategyKind::Clean, d))
            .metrics;
        let p = clean_prediction(d);
        assert_eq!(
            u128::from(m.worker_moves),
            p.worker_moves,
            "Theorem 3 d={d}"
        );
        assert!(u128::from(m.coordinator_moves) <= p.sync_moves_upper);
        let nlogn = (comb::pow2(d) * d.max(1) as u128) as f64;
        table.push_row(vec![
            d.to_string(),
            fmt_u64(m.worker_moves),
            fmt_u128(p.worker_moves),
            fmt_u64(m.coordinator_moves),
            fmt_u128(p.sync_escort_moves),
            fmt_u128(p.sync_moves_upper),
            fmt_u64(m.total_moves()),
            fmt_ratio(m.total_moves() as f64, nlogn),
        ]);
        total_series.push(u64::from(d), m.total_moves() as f64);
    }
    r.tables.push(table);
    let fit = total_series
        .fit_against(|d| (comb::pow2(d as u32) * u128::from(d)) as f64)
        .expect("enough dims");
    r.notes.push(format!(
        "total moves ≈ c·n·log n with c = {:.3} (max tail deviation {:.1}%) — the O(n log n) \
         bound of Theorem 3 holds with a small constant",
        fit.constant,
        fit.max_rel_dev * 100.0
    ));
    r.series.push(total_series);
    // Engine agreement (the unit tests also enforce this; recorded here).
    for &d in &cfg.engine_dims {
        let eng = runs
            .get_or_run(RunKey::engine(StrategyKind::Clean, d, Policy::Fifo))
            .metrics;
        let fast = runs
            .get_or_run(RunKey::fast(StrategyKind::Clean, d))
            .metrics;
        assert_eq!(eng.worker_moves, fast.worker_moves);
        assert_eq!(eng.coordinator_moves, fast.coordinator_moves);
    }
    r.notes.push(format!(
        "discrete-event engine and procedural trace agree move-for-move for d in {:?}",
        cfg.engine_dims
    ));
    r
}

/// T4 (Theorem 4): ideal time of Algorithm CLEAN.
pub fn t4_clean_time(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "t4",
        "ideal time of Algorithm CLEAN (Theorem 4)",
        "the cleaning is carried out sequentially by the synchronizer; the time equals the \
         synchronizer's walk up to the concurrent reinforcement trips — O(n log n)",
    );
    let mut table = Table::new(
        "CLEAN ideal time (synchronous schedule)",
        &[
            "d",
            "ideal time (rounds with moves)",
            "sync moves",
            "time/sync moves",
            "time/(n log n)",
        ],
    );
    let mut series = Series::new("CLEAN ideal time");
    for &d in &cfg.sync_engine_dims {
        let outcome = runs.get_or_run(RunKey::engine(StrategyKind::Clean, d, Policy::Synchronous));
        let t = outcome.metrics.ideal_time.expect("synchronous run") as f64;
        let sync = outcome.metrics.coordinator_moves as f64;
        let nlogn = (comb::pow2(d) * d.max(1) as u128) as f64;
        table.push_row(vec![
            d.to_string(),
            fmt_u64(t as u64),
            fmt_u64(sync as u64),
            fmt_ratio(t, sync),
            fmt_ratio(t, nlogn),
        ]);
        series.push(u64::from(d), t);
        assert!(t >= sync, "the sequential walk lower-bounds the time");
    }
    r.tables.push(table);
    r.series.push(series);
    r.notes.push(
        "the measured makespan tracks the synchronizer's move count within a small constant \
         factor (waiting for order pickups and reinforcement arrivals adds rounds), matching \
         Theorem 4's sequential-time argument"
            .into(),
    );
    r
}

fn visibility_table(
    cfg: &ExperimentConfig,
    runs: &RunCache,
    metric: &str,
    extract: impl Fn(&hypersweep_sim::Metrics) -> u64,
    predict: impl Fn(u32) -> u128,
) -> (Table, Series) {
    let mut table = Table::new(
        format!("visibility strategy {metric} vs dimension"),
        &["d", "n", "measured", "predicted", "match"],
    );
    let mut series = Series::new(format!("visibility {metric}"));
    for &d in &cfg.fast_dims {
        let m = runs
            .get_or_run(RunKey::fast(StrategyKind::Visibility, d))
            .metrics;
        let measured = extract(&m);
        let predicted = predict(d);
        table.push_row(vec![
            d.to_string(),
            fmt_u128(comb::pow2(d)),
            fmt_u64(measured),
            fmt_u128(predicted),
            if u128::from(measured) == predicted {
                "OK".into()
            } else {
                "MISMATCH".into()
            },
        ]);
        series.push(u64::from(d), measured as f64);
    }
    (table, series)
}

/// T5 (Theorem 5): the visibility strategy uses exactly `n/2` agents.
pub fn t5_visibility_agents(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "t5",
        "agents of CLEAN WITH VISIBILITY (Theorem 5)",
        "the total number of agents needed is exactly n/2; they end as the guards of the \
         broadcast tree's n/2 leaves",
    );
    let (table, series) = visibility_table(
        cfg,
        runs,
        "agents",
        |m| m.team_size,
        |d| visibility_prediction(d).agents,
    );
    r.tables.push(table);
    r.series.push(series);
    for &d in &cfg.engine_dims {
        let outcome = runs.get_or_run(RunKey::engine(StrategyKind::Visibility, d, Policy::Fifo));
        assert!(outcome.is_complete());
        assert_eq!(
            u128::from(outcome.metrics.team_size),
            visibility_prediction(d).agents
        );
    }
    r.notes.push(format!(
        "engine runs confirm the exact count for d in {:?}",
        cfg.engine_dims
    ));
    r
}

/// T6 (Theorem 6 + Lemma 5): monotonicity and contiguity under every
/// adversary.
pub fn t6_monotonicity(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "t6",
        "no recontamination under any schedule (Theorems 1 and 6)",
        "during both strategies clean nodes are never recontaminated, the clean region stays \
         contiguous, and the intruder is captured — under every asynchronous adversary",
    );
    let mut table = Table::new(
        "adversary matrix: completed searches / violations",
        &["strategy", "policy", "dims", "runs", "violations"],
    );
    let policies = Policy::adversaries(cfg.adversary_seeds);
    let dims: Vec<u32> = cfg.engine_dims.clone();
    let mut total_runs = 0u64;
    for (strategy_name, kind) in [
        ("clean", StrategyKind::Clean),
        ("visibility", StrategyKind::Visibility),
        ("cloning", StrategyKind::Cloning),
    ] {
        for policy in &policies {
            let mut runs_count = 0u64;
            let mut violations = 0u64;
            for &d in &dims {
                let outcome = runs.get_or_run(RunKey::engine(kind, d, *policy));
                runs_count += 1;
                if !outcome.is_complete() {
                    violations += outcome.verdict.violations.len().max(1) as u64;
                }
            }
            total_runs += runs_count;
            table.push_row(vec![
                strategy_name.into(),
                policy.name(),
                format!("{dims:?}"),
                runs_count.to_string(),
                violations.to_string(),
            ]);
        }
    }
    r.tables.push(table);
    r.notes.push(format!(
        "{total_runs} adversarial runs, every one monotone, contiguous, complete, and \
         intruder-capturing"
    ));
    // §2's memory claim: O(log n) bits of whiteboard and local state.
    let mut bits = Table::new(
        "peak whiteboard/local-state bits vs the O(log n) claim (§2)",
        &["d", "strategy", "board bits", "local bits", "log2 n"],
    );
    for &d in &cfg.engine_dims {
        for (name, kind) in [
            ("clean", StrategyKind::Clean),
            ("visibility", StrategyKind::Visibility),
        ] {
            let m = runs
                .get_or_run(RunKey::engine(kind, d, Policy::Random(1)))
                .metrics;
            bits.push_row(vec![
                d.to_string(),
                name.into(),
                m.peak_board_bits.to_string(),
                m.peak_local_bits.to_string(),
                d.to_string(),
            ]);
            assert!(
                m.peak_board_bits <= 16 * d + 64,
                "board bits blow up at d={d}"
            );
        }
    }
    r.tables.push(bits);
    r
}

/// T7 (Theorem 7): the visibility strategy cleans in `log n` time units.
pub fn t7_visibility_time(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "t7",
        "ideal time of CLEAN WITH VISIBILITY (Theorem 7)",
        "cleaning the entire network takes exactly log n = d time units; the wave cleaned at \
         time i is the class C_i",
    );
    let (table, series) = visibility_table(
        cfg,
        runs,
        "ideal time",
        |m| m.ideal_time.expect("fast path reports the wave count"),
        u128::from,
    );
    r.tables.push(table);
    r.series.push(series);
    for &d in &cfg.sync_engine_dims {
        let outcome = runs.get_or_run(RunKey::engine(
            StrategyKind::Visibility,
            d,
            Policy::Synchronous,
        ));
        assert_eq!(outcome.metrics.ideal_time, Some(u64::from(d)), "d={d}");
    }
    r.notes.push(format!(
        "lock-step engine runs measure exactly d rounds with moves for d in {:?}",
        cfg.sync_engine_dims
    ));
    r
}

/// T8 (Theorem 8): moves of the visibility strategy.
pub fn t8_visibility_moves(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "t8",
        "moves of CLEAN WITH VISIBILITY (Theorem 8)",
        "the agents perform Σ l·C(d−1,l−1) = (n/4)(log n + 1) moves in total — O(n log n)",
    );
    let (table, series) = visibility_table(
        cfg,
        runs,
        "moves",
        |m| m.worker_moves,
        |d| visibility_prediction(d).moves,
    );
    r.tables.push(table);
    let fit = series
        .fit_against(|d| (comb::pow2(d as u32) * u128::from(d)) as f64)
        .expect("enough dims");
    r.notes.push(format!(
        "moves ≈ c·n·log n with c = {:.3} (tail deviation {:.1}%): the Theorem 8 order holds; \
         the exact closed form matches every d",
        fit.constant,
        fit.max_rel_dev * 100.0
    ));
    r.series.push(series);
    r
}

/// T9 (§5): the cloning variant.
pub fn t9_cloning(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "t9",
        "cloning variant (§5)",
        "with cloning, one initial agent suffices; the team still grows to n/2, the time stays \
         log n, and the moves drop to n − 1",
    );
    let mut table = Table::new(
        "cloning variant vs dimension",
        &[
            "d",
            "agents (measured)",
            "agents n/2",
            "moves (measured)",
            "moves n-1",
            "ideal time",
            "time d",
        ],
    );
    for &d in &cfg.fast_dims {
        let m = runs
            .get_or_run(RunKey::fast(StrategyKind::Cloning, d))
            .metrics;
        let p = cloning_prediction(d);
        assert_eq!(u128::from(m.total_moves()), p.moves);
        assert_eq!(u128::from(m.team_size), p.agents);
        table.push_row(vec![
            d.to_string(),
            fmt_u64(m.team_size),
            fmt_u128(p.agents),
            fmt_u64(m.total_moves()),
            fmt_u128(p.moves),
            m.ideal_time.map(|t| t.to_string()).unwrap_or_default(),
            d.to_string(),
        ]);
    }
    r.tables.push(table);
    for &d in &cfg.engine_dims {
        let outcome = runs.get_or_run(RunKey::engine(StrategyKind::Cloning, d, Policy::Lifo));
        assert!(outcome.is_complete());
    }
    r.notes.push(format!(
        "engine runs (including depth-first LIFO adversaries) confirm the counts for d in {:?}",
        cfg.engine_dims
    ));
    r
}

/// T10 (§5): the synchronous variant without visibility.
pub fn t10_synchronous_variant(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "t10",
        "synchronous variant (§5)",
        "with synchronous starts, moving exactly at t = m(x) reproduces the visibility \
         strategy's complexity with no visibility at all",
    );
    let mut table = Table::new(
        "synchronous variant vs visibility strategy",
        &["d", "agents", "moves", "ideal time", "equals visibility"],
    );
    for &d in &cfg.sync_engine_dims {
        let a = runs.get_or_run(RunKey::engine(
            StrategyKind::Synchronous,
            d,
            Policy::Synchronous,
        ));
        let b = runs.get_or_run(RunKey::engine(
            StrategyKind::Visibility,
            d,
            Policy::Synchronous,
        ));
        let equal = a.metrics.team_size == b.metrics.team_size
            && a.metrics.total_moves() == b.metrics.total_moves()
            && a.metrics.ideal_time == b.metrics.ideal_time;
        assert!(a.is_complete() && equal, "d={d}");
        table.push_row(vec![
            d.to_string(),
            fmt_u64(a.metrics.team_size),
            fmt_u64(a.metrics.total_moves()),
            a.metrics
                .ideal_time
                .map(|t| t.to_string())
                .unwrap_or_default(),
            "OK".into(),
        ]);
    }
    r.tables.push(table);
    r.notes.push(
        "asynchronous schedules are rejected by construction (the variant is undefined \
               without a global clock)"
            .into(),
    );
    r
}
