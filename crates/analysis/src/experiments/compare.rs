//! E11–E12: comparative experiments (the trade-offs §1.3 motivates).

use hypersweep_baselines::tree_search::{chord_blind_trace, tree_search_number};
use hypersweep_baselines::{
    boundary_optimum, greedy_plan, isoperimetric_team_lower_bound, FrontierStrategy,
};
use hypersweep_intruder::{verify_trace, MonitorConfig};
use hypersweep_sim::Policy;
use hypersweep_topology::graph::{AdjGraph, CubeConnectedCycles, DeBruijn, Ring, Torus};
use hypersweep_topology::{combinatorics as comb, BroadcastTree, Hypercube, Node, Topology};

use crate::cache::{RunCache, RunKey, StrategyKind};
use crate::result::ExperimentResult;
use crate::runner::ExperimentConfig;
use crate::series::Series;
use crate::table::{fmt_u128, fmt_u64, Table};

/// Cap on E13's engine-backed cloning-dispatch ablation (the
/// smallest-first variant runs `d(d+1)/2` synchronous rounds).
const SYNC_ABLATION_MAX_DIM: u32 = 9;

/// Cap on E14's greedy upper-bound planner (its per-step frontier scan is
/// quadratic in `n`).
const GREEDY_PLANNER_MAX_DIM: u32 = 11;

/// The strategy runs each comparative experiment reads from the cache.
pub fn required_runs(id: &str, cfg: &ExperimentConfig) -> Vec<RunKey> {
    let mut keys = Vec::new();
    match id {
        "e11" => {
            for &d in &cfg.fast_dims {
                for kind in [
                    StrategyKind::Clean,
                    StrategyKind::Visibility,
                    StrategyKind::Cloning,
                    StrategyKind::Flood,
                    StrategyKind::Frontier,
                ] {
                    keys.push(RunKey::fast(kind, d));
                }
            }
        }
        "e13" => {
            for &d in &cfg.fast_dims {
                keys.push(RunKey::fast(StrategyKind::Clean, d));
                keys.push(RunKey::fast(StrategyKind::CleanThroughRoot, d));
            }
            for &d in cfg
                .sync_engine_dims
                .iter()
                .filter(|&&d| d <= SYNC_ABLATION_MAX_DIM)
            {
                keys.push(RunKey::engine(
                    StrategyKind::Cloning,
                    d,
                    Policy::Synchronous,
                ));
                keys.push(RunKey::engine(
                    StrategyKind::CloningSmallestFirst,
                    d,
                    Policy::Synchronous,
                ));
            }
        }
        _ => {}
    }
    keys
}

/// E11: the agents/moves/time trade-off across all strategies.
pub fn e11_strategy_comparison(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e11",
        "strategy trade-offs: agents vs moves vs time",
        "CLEAN minimizes agents at the cost of sequential O(n log n) time; visibility is \
         exponentially faster (log n) but uses n/2 agents; cloning additionally minimizes \
         moves to n − 1",
    );
    let mut table = Table::new(
        "agents / moves / ideal time per strategy and dimension",
        &["d", "strategy", "agents", "moves", "ideal time"],
    );
    let mut agents_clean = Series::new("agents: clean");
    let mut agents_vis = Series::new("agents: visibility");
    let mut moves_clean = Series::new("moves: clean");
    let mut moves_cloning = Series::new("moves: cloning");

    for &d in &cfg.fast_dims {
        let clean = runs
            .get_or_run(RunKey::fast(StrategyKind::Clean, d))
            .metrics;
        let vis = runs
            .get_or_run(RunKey::fast(StrategyKind::Visibility, d))
            .metrics;
        let cloning = runs
            .get_or_run(RunKey::fast(StrategyKind::Cloning, d))
            .metrics;
        let flood = runs
            .get_or_run(RunKey::fast(StrategyKind::Flood, d))
            .metrics;
        let frontier = runs
            .get_or_run(RunKey::fast(StrategyKind::Frontier, d))
            .metrics;
        // Ideal time: wave strategies report it directly; CLEAN's is its
        // sequential walk (Theorem 4) — listed as the synchronizer moves.
        let rows: Vec<(&str, u64, u64, String)> = vec![
            (
                "clean",
                clean.team_size,
                clean.total_moves(),
                format!("~{} (sync walk)", fmt_u64(clean.coordinator_moves)),
            ),
            (
                "visibility",
                vis.team_size,
                vis.total_moves(),
                d.to_string(),
            ),
            (
                "cloning",
                cloning.team_size,
                cloning.total_moves(),
                d.to_string(),
            ),
            ("flood", flood.team_size, flood.total_moves(), d.to_string()),
            (
                "frontier",
                frontier.team_size,
                frontier.total_moves(),
                "sequential".into(),
            ),
        ];
        for (name, agents, moves, time) in rows {
            table.push_row(vec![
                d.to_string(),
                name.into(),
                fmt_u64(agents),
                fmt_u64(moves),
                time,
            ]);
        }
        agents_clean.push(u64::from(d), clean.team_size as f64);
        agents_vis.push(u64::from(d), vis.team_size as f64);
        moves_clean.push(u64::from(d), clean.total_moves() as f64);
        moves_cloning.push(u64::from(d), cloning.total_moves() as f64);

        // The ordering claims, checked programmatically for every d ≥ 4
        // (CLEAN's team equals n/2 at d = 4 and drops strictly below from
        // d = 5 on).
        if d >= 4 {
            if d >= 5 {
                assert!(
                    clean.team_size < vis.team_size,
                    "d={d}: CLEAN uses fewer agents"
                );
            } else {
                assert!(clean.team_size <= vis.team_size, "d={d}");
            }
            assert!(vis.team_size < flood.team_size, "d={d}");
            assert!(
                cloning.total_moves() < vis.total_moves(),
                "d={d}: cloning minimizes moves"
            );
            assert!(
                vis.total_moves() < clean.total_moves(),
                "d={d}: one-way leaf journeys beat round trips"
            );
            assert!(
                clean.team_size < frontier.team_size,
                "d={d}: leaf recall beats the naive double frontier"
            );
        }
    }
    r.tables.push(table);
    r.series
        .extend([agents_clean, agents_vis, moves_clean, moves_cloning]);
    r.notes.push(
        "who wins: agents — clean < visibility = cloning < frontier < flood; \
         moves — cloning (n−1) < visibility ((n/4)(log n+1)) < clean ((n/2)(log n+1) + sync) \
         < frontier (~n log n); time — visibility = cloning = flood (log n) ≪ clean = \
         frontier (Θ(n log n) sequential)"
            .into(),
    );
    r
}

/// E12: the paper's strategies against the baselines and exact bounds.
pub fn e12_baselines(cfg: &ExperimentConfig, _runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e12",
        "baselines: what the hypercube-specific strategies buy",
        "the tree-optimal strategy is useless on the hypercube (chords recontaminate); the \
         naive frontier sweep needs ~1.6× CLEAN's team; for small d CLEAN is within one agent \
         of the exact guards-only optimum",
    );

    // (a) Team ratios.
    let mut table = Table::new(
        "team sizes: CLEAN vs frontier vs n/2 strategies",
        &[
            "d",
            "clean",
            "frontier",
            "frontier/clean",
            "n/2",
            "flood (n)",
        ],
    );
    for &d in &cfg.fast_dims {
        let clean = comb::clean_team_size(d);
        let frontier = FrontierStrategy::new(Hypercube::new(d)).team_size();
        table.push_row(vec![
            d.to_string(),
            fmt_u128(clean),
            fmt_u64(frontier),
            format!("{:.3}", frontier as f64 / clean as f64),
            fmt_u128(comb::visibility_agents(d)),
            fmt_u128(comb::pow2(d)),
        ]);
    }
    r.tables.push(table);

    // (b) The chord-blind negative control.
    let mut blind = Table::new(
        "tree-optimal plan replayed on the hypercube (negative control)",
        &["d", "tree team (B_d)", "recontaminations on H_d", "verdict"],
    );
    for &d in cfg.engine_dims.iter().filter(|&&d| (3..=7).contains(&d)) {
        let cube = Hypercube::new(d);
        let tree = BroadcastTree::new(cube);
        let mut g = AdjGraph::with_nodes(cube.node_count());
        for x in cube.nodes() {
            for c in tree.children(x) {
                g.add_edge(x, c);
            }
        }
        let team = tree_search_number(&g, Node::ROOT);
        let trace = chord_blind_trace(cube);
        let verdict = verify_trace(
            &cube,
            Node::ROOT,
            &trace,
            MonitorConfig {
                stride: 0,
                ..MonitorConfig::default()
            },
        );
        blind.push_row(vec![
            d.to_string(),
            team.to_string(),
            verdict.violations.len().to_string(),
            if verdict.monotone {
                "unexpectedly clean".into()
            } else {
                "recontaminated (as expected)".into()
            },
        ]);
        assert!(!verdict.monotone, "d={d}: the control must fail");
    }
    r.tables.push(blind);

    // (c) Exact guards-only optimum for small d.
    let mut optimum = Table::new(
        "exact boundary optimum vs CLEAN's team (the §5 open problem, small d)",
        &["d", "boundary optimum", "clean team", "gap"],
    );
    for d in 1..=4u32 {
        let opt = boundary_optimum(&Hypercube::new(d), Node::ROOT).peak_boundary;
        let clean = comb::clean_team_size(d);
        optimum.push_row(vec![
            d.to_string(),
            opt.to_string(),
            fmt_u128(clean),
            (clean as i128 - i128::from(opt)).to_string(),
        ]);
    }
    r.tables.push(optimum);
    r.notes.push(
        "for d ≤ 4 Algorithm CLEAN is within one agent of the exact guards-only optimum \
         (team 8 vs optimum 7 at d = 4) — consistent with, though not settling, the paper's \
         open optimality question"
            .into(),
    );
    r.notes.push(
        "the broadcast tree B_d alone needs only ⌊d/2⌋+1 agents as a *tree*, but its plan \
         recontaminates the hypercube instantly: the chords are what make the problem hard"
            .into(),
    );
    r
}

/// E13: ablations of the paper's two key design choices.
pub fn e13_ablations(cfg: &ExperimentConfig, runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e13",
        "ablations: via-meet navigation and largest-subtree-first dispatch",
        "Theorem 3's via-meet navigation and §5's dispatch order are load-bearing: replacing \
         either with the naive alternative stays correct but measurably loses the claimed \
         complexity",
    );
    // (a) Synchronizer navigation: via meet vs through the root.
    let mut nav = Table::new(
        "CLEAN synchronizer moves: via-meet vs through-root navigation",
        &["d", "via-meet", "through-root", "ratio"],
    );
    for &d in &cfg.fast_dims {
        let meet = runs
            .get_or_run(RunKey::fast(StrategyKind::Clean, d))
            .metrics
            .coordinator_moves;
        let naive = runs
            .get_or_run(RunKey::fast(StrategyKind::CleanThroughRoot, d))
            .metrics
            .coordinator_moves;
        nav.push_row(vec![
            d.to_string(),
            fmt_u64(meet),
            fmt_u64(naive),
            format!("{:.2}", naive as f64 / meet.max(1) as f64),
        ]);
    }
    r.tables.push(nav);
    // (b) Cloning dispatch order: g(d) = d vs g'(d) = d(d+1)/2, exactly.
    let mut disp = Table::new(
        "cloning ideal time: largest-subtree-first vs smallest-subtree-first",
        &["d", "largest first", "smallest first", "d(d+1)/2"],
    );
    for &d in cfg
        .sync_engine_dims
        .iter()
        .filter(|&&d| d <= SYNC_ABLATION_MAX_DIM)
    {
        let a = runs.get_or_run(RunKey::engine(
            StrategyKind::Cloning,
            d,
            Policy::Synchronous,
        ));
        let b = runs.get_or_run(RunKey::engine(
            StrategyKind::CloningSmallestFirst,
            d,
            Policy::Synchronous,
        ));
        assert!(b.is_complete());
        let tri = u64::from(d) * (u64::from(d) + 1) / 2;
        assert_eq!(b.metrics.ideal_time, Some(tri));
        disp.push_row(vec![
            d.to_string(),
            a.metrics.ideal_time.unwrap().to_string(),
            b.metrics.ideal_time.unwrap().to_string(),
            tri.to_string(),
        ]);
    }
    r.tables.push(disp);
    r.notes.push(
        "both ablations remain correct searches (audited); they lose exactly the complexity \
         the paper's analysis attributes to the corresponding design choice — the dispatch \
         ablation measures d(d+1)/2 rounds on the nose"
            .into(),
    );
    r
}

/// E14: the open problem (§5) — squeezing the optimal team size.
pub fn e14_open_problem(cfg: &ExperimentConfig, _runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e14",
        "the §5 open problem: how optimal is Algorithm CLEAN's team?",
        "the paper asks whether CLEAN's team is optimal (conjecturing an Ω(n/log n) lower \
         bound); sandwiching it between an isoperimetric lower bound and a generic greedy \
         upper bound shows it is near-optimal but beatable at small d, with both sides \
         growing as Θ(n/√log n)",
    );
    let mut table = Table::new(
        "team-size bounds per dimension",
        &[
            "d",
            "isoperimetric LB",
            "exact optimum (d<=4)",
            "greedy team (UB)",
            "CLEAN team",
            "greedy/CLEAN",
        ],
    );
    let greedy_max = cfg.fast_max_dim().min(GREEDY_PLANNER_MAX_DIM);
    for &d in cfg.fast_dims.iter().filter(|&&d| d <= greedy_max) {
        let cube = Hypercube::new(d);
        let lb = isoperimetric_team_lower_bound(d);
        let exact = if d <= 4 {
            boundary_optimum(&cube, Node::ROOT)
                .peak_boundary
                .to_string()
        } else {
            "-".into()
        };
        let plan = greedy_plan(&cube, Node::ROOT);
        let clean = comb::clean_team_size(d);
        table.push_row(vec![
            d.to_string(),
            lb.to_string(),
            exact,
            plan.team.to_string(),
            fmt_u128(clean),
            format!("{:.3}", f64::from(plan.team) / clean as f64),
        ]);
        assert!(u128::from(lb) <= clean);
        // The greedy plan is a real strategy, so it upper-bounds the
        // optimum; record the small-d improvement over CLEAN.
        if (5..=7).contains(&d) {
            assert!(
                u128::from(plan.team) < clean,
                "d={d}: greedy no longer beats CLEAN — regenerate the notes"
            );
        }
    }
    r.tables.push(table);
    r.notes.push(
        "for d = 5..7 the generic bottleneck-greedy strategy uses FEWER agents than Algorithm \
         CLEAN (13 vs 15 at d = 5, 25 vs 26 at d = 6, 49 vs 51 at d = 7), so CLEAN's team is \
         not optimal at small dimensions; from d = 8 the tailored level structure wins \
         (92 vs 97, and the gap widens)"
            .into(),
    );
    r.notes.push(
        "both the isoperimetric lower bound and every upper bound grow as Θ(n/√log n) — \
         further evidence that the paper's conjectured Ω(n/log n) optimum is below the truth \
         (see note N1 in EXPERIMENTS.md)"
            .into(),
    );
    r
}

/// E16: contiguous search across classic interconnection networks.
pub fn e16_network_survey(_cfg: &ExperimentConfig, _runs: &RunCache) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "e16",
        "contiguous search numbers of classic networks (generic planner)",
        "the model, monitors and generic planner are topology-agnostic: boundaries — hence \
         teams — follow each network's vertex expansion (constant for rings, ~side for tori, \
         Θ(n/√log n) for hypercubes, small for constant-degree networks)",
    );
    let mut table = Table::new(
        "greedy contiguous search across topologies (all audited)",
        &[
            "network",
            "nodes",
            "edges",
            "team",
            "peak boundary",
            "moves",
        ],
    );
    let mut add = |name: &str, topo: &dyn Topology| {
        let plan = greedy_plan(topo, Node(0));
        let far = Node(topo.node_count() as u32 - 1);
        let verdict = hypersweep_intruder::verify_trace(
            topo,
            Node(0),
            &plan.events,
            hypersweep_intruder::MonitorConfig::with_intruder(far),
        );
        assert!(verdict.is_complete(), "{name}: {:?}", verdict.violations);
        table.push_row(vec![
            name.into(),
            topo.node_count().to_string(),
            topo.edge_count().to_string(),
            plan.team.to_string(),
            plan.peak_boundary.to_string(),
            plan.moves.to_string(),
        ]);
        (plan.team, topo.node_count())
    };
    let (ring_team, _) = add("ring(64)", &Ring::new(64));
    add("torus(8x8)", &Torus::new(8, 8));
    add("torus(4x16)", &Torus::new(4, 16));
    add("torus(16x4)", &Torus::new(16, 4));
    add("de Bruijn DB(2,8)", &DeBruijn::new(8));
    add("CCC(5)", &CubeConnectedCycles::new(5));
    add("hypercube H_6", &Hypercube::new(6));
    add("hypercube H_8", &Hypercube::new(8));
    assert_eq!(ring_team, 2, "rings need exactly two agents");
    r.tables.push(table);
    r.notes.push(
        "torus teams follow the side the sweep crosses: 16x4 needs 8 agents, 4x16 needs 19 \
         with the same node count, because the planner's id-order tie-break sweeps along the \
         column axis — a tailored strategy would always pick the cheap orientation (~2x the \
         short side). The constant-degree de Bruijn/CCC networks are dramatically cheaper \
         to search than the hypercube: contiguous search cost is a vertex-expansion \
         phenomenon, which is exactly why the hypercube is the interesting hard case the \
         paper tackles"
            .into(),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_survey_is_audited_and_ordered() {
        let r = e16_network_survey(&ExperimentConfig::quick(), &RunCache::new());
        let team_of = |name: &str| -> u32 {
            r.tables[0].rows.iter().find(|row| row[0] == name).unwrap()[3]
                .parse()
                .unwrap()
        };
        assert_eq!(team_of("ring(64)"), 2);
        // Greedy's id-order tie-break sweeps along the column axis, so the
        // short side must be the column count to get the cheap sweep.
        assert!(team_of("torus(16x4)") <= team_of("torus(8x8)"));
        assert!(team_of("torus(4x16)") >= team_of("torus(16x4)"));
        assert!(team_of("de Bruijn DB(2,8)") < team_of("hypercube H_8"));
    }

    #[test]
    fn e14_bounds_are_consistent() {
        let r = e14_open_problem(&ExperimentConfig::quick(), &RunCache::new());
        assert!(!r.tables[0].rows.is_empty());
        for row in &r.tables[0].rows {
            let lb: u64 = row[1].parse().unwrap();
            let clean: u64 = row[4].replace('_', "").parse().unwrap();
            assert!(lb <= clean);
        }
    }

    #[test]
    fn e13_ablation_shapes() {
        let r = e13_ablations(&ExperimentConfig::quick(), &RunCache::new());
        assert_eq!(r.tables.len(), 2);
        // Navigation ratio strictly above 1 for the largest dim row.
        let last = r.tables[0].rows.last().unwrap();
        assert!(last[3].parse::<f64>().unwrap() > 1.0);
    }

    #[test]
    fn e11_orderings_hold() {
        let r = e11_strategy_comparison(&ExperimentConfig::quick(), &RunCache::new());
        assert_eq!(r.series.len(), 4);
        assert!(!r.tables[0].rows.is_empty());
    }

    #[test]
    fn e12_controls_behave() {
        let r = e12_baselines(&ExperimentConfig::quick(), &RunCache::new());
        assert_eq!(r.tables.len(), 3);
        // The negative-control rows all report recontamination.
        for row in &r.tables[1].rows {
            assert!(row[3].contains("as expected"));
        }
    }
}
