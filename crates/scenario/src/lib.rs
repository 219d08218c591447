//! Pluggable decontamination workloads behind one registry.
//!
//! The paper's pipeline — strategy drives events, the checker's
//! [`StepOracle`](hypersweep_check::StepOracle) folds the invariants
//! over them — is topology-agnostic; only the hypercube plumbing was
//! not. A [`Scenario`] packages a topology family, a strategy, an
//! oracle profile, and a closed-form team-size predictor where one is
//! known, and the CLI, the server, and the checker all resolve
//! scenarios through [`registry`] instead of hard-coding the
//! hypercube.
//!
//! Two scenarios ship:
//!
//! * [`ScenarioId::Grid`] — connected monotone search on partial grids
//!   (full, random-hole, and corridor instances), after Dereniowski &
//!   Urbańska's connected searching of partial grids. The frontier
//!   sweep keeps a dedicated guard on every boundary node and a small
//!   mover pool cleaning targets, so team size tracks the peak
//!   boundary — the searcher-count accountant.
//! * [`ScenarioId::Dynamic`] — the same sweep on a graph an adversary
//!   mutates between rounds (seeded edge insertions/deletions), with
//!   the oracle re-verifying contiguity and guard coverage across
//!   every mutation. The re-planning it forces is the measured cost of
//!   monotonicity on a dynamic graph.
//!
//! [`ScenarioId::Hypercube`] is deliberately *not* in the registry:
//! resolving it yields `None` and callers fall through to the classic
//! hypercube code paths (including the serving answer table). Campaigns
//! are the exception: [`run_scenario_campaign`] is the one campaign
//! driver, and [`ScenarioCampaign::hypercube`] gives it the paper's
//! checker on `H_d` as one more [`Workload`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod dynamic;
mod sweep;

pub use campaign::{
    campaign_table, run_scenario_campaign, ScenarioCampaign, ScenarioCounterexample,
    ScenarioOutcome, Workload,
};
pub use dynamic::{MUTATIONS_PER_ROUND, ROUND_LEN};
pub use sweep::ScheduleStats;

use hypersweep_check::{Adversary, ViolationKind};
use hypersweep_intruder::FieldScratch;
use hypersweep_topology::graph::AdjGraph;
use hypersweep_topology::{GridInstance, Topology};

/// Largest accepted grid side (`side x side` live cells at most; keeps
/// node ids comfortably in `u32` and campaigns fast).
pub const MAX_SIDE: u32 = 16;

/// The scenario namespace. `Hypercube` names the classic pipeline and
/// is never in [`registry`]; the other ids resolve to [`Scenario`]
/// implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScenarioId {
    /// The paper's hypercube pipeline (classic code paths).
    Hypercube,
    /// Connected search on partial grids.
    Grid,
    /// Adversarial dynamic-graph decontamination.
    Dynamic,
}

impl ScenarioId {
    /// Every id, in wire order.
    pub const ALL: [ScenarioId; 3] = [ScenarioId::Hypercube, ScenarioId::Grid, ScenarioId::Dynamic];

    /// The stable wire/CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioId::Hypercube => "hypercube",
            ScenarioId::Grid => "grid",
            ScenarioId::Dynamic => "dynamic",
        }
    }

    /// Parse a wire/CLI spelling.
    pub fn parse(s: &str) -> Option<ScenarioId> {
        match s {
            "hypercube" => Some(ScenarioId::Hypercube),
            "grid" => Some(ScenarioId::Grid),
            "dynamic" => Some(ScenarioId::Dynamic),
            _ => None,
        }
    }
}

impl std::fmt::Display for ScenarioId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Strategies a scenario campaign can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GridStrategy {
    /// The guarded frontier sweep (the real strategy).
    Sweep,
    /// Negative control: frees a boundary guard while its node still
    /// borders contamination. The oracle must catch it immediately.
    LeakyGuard,
}

impl GridStrategy {
    /// Every strategy, checker-first.
    pub const ALL: [GridStrategy; 2] = [GridStrategy::Sweep, GridStrategy::LeakyGuard];

    /// The stable CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            GridStrategy::Sweep => "sweep",
            GridStrategy::LeakyGuard => "mutant-grid-leaky-guard",
        }
    }

    /// Parse a CLI spelling ("all" is handled by the caller).
    pub fn parse(s: &str) -> Option<GridStrategy> {
        match s {
            "sweep" => Some(GridStrategy::Sweep),
            "mutant-grid-leaky-guard" => Some(GridStrategy::LeakyGuard),
            _ => None,
        }
    }
}

impl std::fmt::Display for GridStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic reference run (seed 0, schedule 0) plus the
/// bookkeeping the server needs to build plan and audit replies
/// without the response structs learning any scenario-specific fields.
#[derive(Clone, Debug)]
pub struct ScenarioReference {
    /// Live nodes in the instance.
    pub nodes: u64,
    /// Agents the run used.
    pub team: u64,
    /// Edge traversals.
    pub moves: u64,
    /// Events through the oracle.
    pub events: u64,
    /// Largest event timestamp.
    pub max_time: u64,
    /// Terminates emitted at capture.
    pub terminates: u64,
    /// Monotonicity held (no recontamination).
    pub monotone: bool,
    /// The clean region stayed connected with the homebase.
    pub contiguous: bool,
    /// Every node decontaminated.
    pub all_clean: bool,
    /// Capture: terminated with nothing contaminated.
    pub captured: bool,
    /// Oracle violations (0 for a shipping strategy).
    pub violations: u64,
    /// `cleaned_by_team[k]` = nodes cleaned at team size `k + 1`.
    pub cleaned_by_team: Vec<u64>,
    /// Rounds driven (1 for static scenarios).
    pub rounds: u64,
    /// Accepted mutations (dynamic only).
    pub mutations: u64,
    /// Rejected mutation proposals (dynamic only).
    pub rejected: u64,
}

impl ScenarioReference {
    fn from_stats(nodes: u64, stats: ScheduleStats) -> Self {
        let mut r = ScenarioReference {
            nodes,
            team: stats.team,
            moves: stats.moves,
            events: stats.events,
            max_time: stats.max_time,
            terminates: stats.terminates,
            monotone: true,
            contiguous: true,
            all_clean: true,
            captured: true,
            violations: 0,
            cleaned_by_team: stats.cleaned_by_team,
            rounds: stats.rounds,
            mutations: stats.mutations,
            rejected: stats.rejected,
        };
        if let Some(v) = &stats.violation {
            r.violations = 1;
            match v.kind {
                ViolationKind::Recontamination { .. } => r.monotone = false,
                ViolationKind::ContiguityBroken => r.contiguous = false,
                ViolationKind::CaptureEscaped { .. } => {
                    r.captured = false;
                    r.all_clean = false;
                }
                _ => {
                    r.captured = false;
                    r.all_clean = false;
                }
            }
        }
        r
    }
}

/// One pluggable workload: topology family + strategy + oracle profile
/// + closed-form predictor where known.
pub trait Scenario: Sync {
    /// The registry key.
    fn id(&self) -> ScenarioId;

    /// One-line description for `hypersweep report scenarios`.
    fn summary(&self) -> &'static str;

    /// Label of the shipping strategy this scenario runs.
    fn strategy_label(&self) -> &'static str;

    /// Instance used when a request does not name one.
    fn default_instance(&self) -> GridInstance;

    /// Closed-form team-size prediction, where the literature gives
    /// one. Full `side x side` grids: a connected monotone sweep with a
    /// guarded column frontier needs `side + 1` searchers (column
    /// guards plus one mover) — the grid analogue of the paper's
    /// hypercube theorem bounds. Corridors need 2. At side 1 either
    /// instance is a single node, which one searcher cleans. Holes
    /// instances and dynamic graphs have no closed form; the campaign
    /// measures instead.
    fn closed_form_team(&self, side: u32, instance: GridInstance) -> Option<u64>;

    /// Validate a side length before building anything.
    fn validate(&self, side: u32) -> Result<(), String> {
        if side == 0 {
            return Err("side must be at least 1".to_string());
        }
        if side > MAX_SIDE {
            return Err(format!("side {side} exceeds the maximum of {MAX_SIDE}"));
        }
        Ok(())
    }

    /// The deterministic reference run (seed 0, schedule 0) the server
    /// answers plan/audit from.
    fn reference(&self, side: u32, instance: GridInstance) -> ScenarioReference;

    /// A ready-to-run campaign over this scenario.
    fn campaign(
        &self,
        strategy: GridStrategy,
        side: u32,
        instance: GridInstance,
        schedules: u64,
        seed: u64,
        max_steps: u64,
    ) -> ScenarioCampaign {
        ScenarioCampaign {
            workload: Workload::Scenario {
                scenario: self.id(),
                strategy,
                side,
                instance,
                max_steps,
            },
            schedules,
            seed,
        }
    }
}

/// Connected search on partial grids.
struct GridScenario;

impl Scenario for GridScenario {
    fn id(&self) -> ScenarioId {
        ScenarioId::Grid
    }

    fn summary(&self) -> &'static str {
        "connected monotone search on partial grids (full / random-hole / corridor instances)"
    }

    fn strategy_label(&self) -> &'static str {
        "grid-sweep"
    }

    fn default_instance(&self) -> GridInstance {
        GridInstance::Holes(42)
    }

    fn closed_form_team(&self, side: u32, instance: GridInstance) -> Option<u64> {
        match instance {
            GridInstance::Full | GridInstance::Corridor if side == 1 => Some(1),
            GridInstance::Full => Some(side as u64 + 1),
            GridInstance::Corridor => Some(2),
            GridInstance::Holes(_) => None,
        }
    }

    fn reference(&self, side: u32, instance: GridInstance) -> ScenarioReference {
        let grid = instance.build(side);
        let nodes = grid.node_count() as u64;
        let mut adversary = Adversary::for_schedule(0, 0);
        let stats = sweep::run_static(
            &grid,
            grid.homebase(),
            false,
            &mut adversary,
            1_000 * nodes + 10_000,
            &mut FieldScratch::default(),
        );
        ScenarioReference::from_stats(nodes, stats)
    }
}

/// Adversarial dynamic-graph decontamination.
struct DynamicScenario;

impl Scenario for DynamicScenario {
    fn id(&self) -> ScenarioId {
        ScenarioId::Dynamic
    }

    fn summary(&self) -> &'static str {
        "decontamination under seeded between-round edge churn, re-verified across every mutation"
    }

    fn strategy_label(&self) -> &'static str {
        "dynamic-sweep"
    }

    fn default_instance(&self) -> GridInstance {
        GridInstance::Full
    }

    fn closed_form_team(&self, _side: u32, _instance: GridInstance) -> Option<u64> {
        None
    }

    fn reference(&self, side: u32, instance: GridInstance) -> ScenarioReference {
        let grid = instance.build(side);
        let nodes = grid.node_count() as u64;
        let stats = dynamic::run_dynamic(
            &AdjGraph::from_topology(&grid),
            grid.homebase(),
            false,
            (0, 0),
            1_000 * nodes + 10_000,
            &mut FieldScratch::default(),
        );
        ScenarioReference::from_stats(nodes, stats)
    }
}

static GRID: GridScenario = GridScenario;
static DYNAMIC: DynamicScenario = DynamicScenario;

/// Every registered scenario. The hypercube is not here by design —
/// see the crate docs.
pub fn registry() -> &'static [&'static dyn Scenario] {
    static REGISTRY: [&dyn Scenario; 2] = [&GRID, &DYNAMIC];
    &REGISTRY
}

/// `hypersweep report scenarios --dim side` stdout: the registry
/// comparison table — closed-form team predictions (where the literature
/// gives one) against the measured reference run for every
/// scenario/instance pair — then one summary line per scenario. Refuses a
/// side some scenario does not accept.
pub fn registry_report(side: u32) -> Result<String, String> {
    let mut table = hypersweep_analysis::Table::new(
        format!("scenario registry @ side {side}"),
        &[
            "scenario",
            "strategy",
            "instance",
            "nodes",
            "team",
            "closed-form",
            "moves",
            "rounds",
            "churn",
            "verdict",
        ],
    );
    for scenario in registry() {
        scenario.validate(side)?;
        let instances = match scenario.id() {
            ScenarioId::Grid => vec![
                GridInstance::Full,
                scenario.default_instance(),
                GridInstance::Corridor,
            ],
            _ => vec![scenario.default_instance()],
        };
        for instance in instances {
            let r = scenario.reference(side, instance);
            table.push_row(vec![
                scenario.id().label().to_string(),
                scenario.strategy_label().to_string(),
                instance.label(),
                r.nodes.to_string(),
                r.team.to_string(),
                scenario
                    .closed_form_team(side, instance)
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".to_string()),
                r.moves.to_string(),
                r.rounds.to_string(),
                if r.mutations + r.rejected > 0 {
                    format!("{}/{}", r.mutations, r.mutations + r.rejected)
                } else {
                    "-".to_string()
                },
                if r.captured && r.violations == 0 {
                    "ok".to_string()
                } else {
                    "FAIL".to_string()
                },
            ]);
        }
    }
    let mut out = table.render();
    out.push('\n');
    for scenario in registry() {
        out.push_str(&format!(
            "  {}: {}\n",
            scenario.id().label(),
            scenario.summary()
        ));
    }
    Ok(out)
}

/// Resolve an id to its registered scenario. `Hypercube` (the classic
/// pipeline) and only `Hypercube` yields `None`.
pub fn resolve(id: ScenarioId) -> Option<&'static dyn Scenario> {
    registry().iter().copied().find(|s| s.id() == id)
}

/// Validate a `(scenario, side)` pair as it arrives off
/// the wire or the command line. Returns the resolved scenario for
/// non-hypercube ids.
pub fn validate_scenario(
    id: ScenarioId,
    side: u32,
) -> Result<Option<&'static dyn Scenario>, String> {
    match resolve(id) {
        None => Ok(None),
        Some(s) => {
            s.validate(side)?;
            Ok(Some(s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_everything_but_the_hypercube() {
        assert!(resolve(ScenarioId::Hypercube).is_none());
        for id in [ScenarioId::Grid, ScenarioId::Dynamic] {
            let s = resolve(id).expect("registered scenario");
            assert_eq!(s.id(), id);
        }
        assert_eq!(registry().len(), 2);
    }

    #[test]
    fn labels_round_trip() {
        for id in ScenarioId::ALL {
            assert_eq!(ScenarioId::parse(id.label()), Some(id));
        }
        for s in GridStrategy::ALL {
            assert_eq!(GridStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(ScenarioId::parse("torus"), None);
    }

    #[test]
    fn validate_scenario_enforces_side_bounds() {
        assert!(validate_scenario(ScenarioId::Grid, 0).is_err());
        assert!(validate_scenario(ScenarioId::Grid, MAX_SIDE + 1).is_err());
        assert!(validate_scenario(ScenarioId::Grid, 6).is_ok());
        // The hypercube has its own dim validation; this helper passes it through.
        assert!(matches!(
            validate_scenario(ScenarioId::Hypercube, 0),
            Ok(None)
        ));
    }

    #[test]
    fn grid_reference_run_captures_and_matches_the_closed_form_shape() {
        let s = resolve(ScenarioId::Grid).unwrap();
        let r = s.reference(5, GridInstance::Full);
        assert_eq!(r.nodes, 25);
        assert!(r.captured && r.monotone && r.contiguous && r.all_clean);
        assert_eq!(r.violations, 0);
        assert_eq!(r.cleaned_by_team.iter().sum::<u64>(), r.nodes);
        let bound = s.closed_form_team(5, GridInstance::Full).unwrap();
        assert!(
            r.team <= bound + 2,
            "measured team {} strays far from the closed form {bound}",
            r.team
        );
    }

    #[test]
    fn grid_reference_team_equals_the_closed_form_on_full_and_corridor_instances() {
        let s = resolve(ScenarioId::Grid).unwrap();
        for side in 1..=8 {
            for instance in [GridInstance::Full, GridInstance::Corridor] {
                assert_eq!(
                    Some(s.reference(side, instance).team),
                    s.closed_form_team(side, instance),
                    "side {side}, {instance:?}"
                );
            }
        }
    }

    #[test]
    fn dynamic_reference_run_captures() {
        let s = resolve(ScenarioId::Dynamic).unwrap();
        let r = s.reference(5, GridInstance::Full);
        assert!(r.captured, "dynamic reference run must reach capture");
        assert_eq!(r.violations, 0);
        assert!(r.rounds >= 1);
    }
}
