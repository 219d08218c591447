//! Request handling: map a parsed [`Request`] to a [`Response`].
//!
//! The dispatcher is pure compute over shared state — the daemon decides
//! *where* it runs (worker pool, with timeout) and the dispatcher decides
//! *what* it answers. `plan` and `predict` evaluate the paper's closed
//! forms directly; `audit` goes through the shared [`RunCache`] under an
//! [`Exec::Audited`](hypersweep_analysis::Exec) key, so repeated audits of
//! the same configuration are served from memory and concurrent duplicates
//! execute exactly once.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use hypersweep_analysis::{validate_max_dim, RunCache, RunKey, StrategyKind};
use hypersweep_core::predictions::{
    clean_phase_accounting, clean_prediction, cloning_prediction, visibility_prediction,
};
use hypersweep_scenario::{ScenarioId, ScenarioReference};
use hypersweep_sim::TraceSummary;
use hypersweep_telemetry::{Counter, MetricsRegistry};
use hypersweep_topology::{combinatorics as comb, GridInstance};

use crate::answers::AnswerTable;
use crate::protocol::{
    AuditReply, CacheStats, ErrorKind, MetricsReply, PhasePlan, PlanReply, PredictReply, Request,
    Response, ServedCounts, StatusReply, WireError,
};

/// The version string every `status` and `metrics` reply carries.
pub(crate) fn build_version() -> String {
    env!("CARGO_PKG_VERSION").to_string()
}

/// Narrow a closed-form `u128` to the wire's `u64`. Every quantity the
/// server exposes fits comfortably at the dimensions it accepts (`d ≤ 20`).
fn wire_u64(x: u128) -> u64 {
    u64::try_from(x).expect("closed-form quantity exceeds u64 at a served dimension")
}

/// Most scenario reference runs the dispatcher memoizes. `holes:<seed>`
/// accepts any `u64`, so without a cap a client looping over seeds grows
/// the memo without limit. The cap sits far above every benchmarked
/// scenario keyspace (the largest needs 43 references); a full memo is
/// cleared, and since references are deterministic no reply changes.
const SCENARIO_REFS_CAP: usize = 4096;

/// Shared request handler: validates, computes, and counts.
///
/// The request counters live in a telemetry [`MetricsRegistry`]
/// (`server.requests.*`, `server.errors`, `server.busy`,
/// `server.timeouts`) — they *are* the accounting behind
/// [`Dispatcher::served`], and a `metrics` request serializes the whole
/// registry, so `status` and `metrics` can never disagree.
pub struct Dispatcher {
    cache: Arc<RunCache>,
    answers: AnswerTable,
    max_dim: u32,
    registry: MetricsRegistry,
    plan: Counter,
    predict: Counter,
    audit: Counter,
    status: Counter,
    metrics: Counter,
    errors: Counter,
    busy: Counter,
    timeouts: Counter,
    table_hits: Counter,
    table_bypass: Counter,
    scenario_hits: Counter,
    scenario_misses: Counter,
    /// Reference runs per `(scenario, side, instance)` — deterministic,
    /// so caching preserves byte-identical replies while making repeat
    /// scenario requests as cheap as a lookup. Holds at most
    /// [`SCENARIO_REFS_CAP`] entries.
    scenario_refs: Mutex<HashMap<(ScenarioId, u32, GridInstance), ScenarioReference>>,
}

impl Dispatcher {
    /// Build a dispatcher over `cache`, refusing dimensions above
    /// `max_dim`, counting into a private registry.
    pub fn new(cache: Arc<RunCache>, max_dim: u32) -> Self {
        Dispatcher::with_sharded(cache, max_dim, &MetricsRegistry::new())
    }

    /// Build a dispatcher over `cache` counting into `registry`. A
    /// disabled registry is replaced with a private enabled one: the
    /// request counters double as the `served()` accounting, which must
    /// work even when the daemon's exported telemetry is switched off.
    /// Also precomputes the `plan`/`predict` answer table for every
    /// strategy at `1..=max_dim`.
    pub fn with_sharded(cache: Arc<RunCache>, max_dim: u32, registry: &MetricsRegistry) -> Self {
        let registry = if registry.is_enabled() {
            registry.clone()
        } else {
            MetricsRegistry::new()
        };
        let answers = AnswerTable::build(max_dim);
        registry
            .gauge("answers.table_size")
            .set(answers.len() as i64);
        Dispatcher {
            cache,
            answers,
            max_dim,
            plan: registry.counter("server.requests.plan"),
            predict: registry.counter("server.requests.predict"),
            audit: registry.counter("server.requests.audit"),
            status: registry.counter("server.requests.status"),
            metrics: registry.counter("server.requests.metrics"),
            errors: registry.counter("server.errors"),
            busy: registry.counter("server.busy"),
            timeouts: registry.counter("server.timeouts"),
            table_hits: registry.counter("answers.table_hits"),
            table_bypass: registry.counter("answers.table_bypass"),
            scenario_hits: registry.counter("scenario.cache_hits"),
            scenario_misses: registry.counter("scenario.cache_misses"),
            scenario_refs: Mutex::new(HashMap::new()),
            registry,
        }
    }

    /// The shared run cache.
    pub fn cache(&self) -> &Arc<RunCache> {
        &self.cache
    }

    /// The precomputed answer line for `request`, when it is a
    /// `plan`/`predict` whose dimension the table covers. A returned line
    /// is byte-identical to what [`Dispatcher::handle`] would serialize,
    /// and the counters move exactly as a dispatched request would move
    /// them (plus `answers.table_hits`).
    pub fn answer_line(&self, request: &Request) -> Option<&str> {
        // The table only holds hypercube closed forms; scenario
        // plan/predict requests dispatch normally, and the bypass is
        // counted so the serving tiers stay observable.
        if matches!(
            request,
            Request::ScenarioPlan { .. } | Request::ScenarioPredict { .. }
        ) {
            self.table_bypass.inc();
            return None;
        }
        let answer = self.answers.lookup_request(request)?;
        self.table_hits.inc();
        if answer.ok {
            match request {
                Request::Plan { .. } => self.plan.inc(),
                Request::Predict { .. } => self.predict.inc(),
                _ => unreachable!("the table only holds plan/predict answers"),
            }
        } else {
            self.errors.inc();
        }
        Some(&answer.line)
    }

    /// Table hits so far (the live `answers.table_hits` counter).
    pub fn table_hits(&self) -> u64 {
        self.table_hits.get()
    }

    /// The registry the request counters live in.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The per-request dimension cap.
    pub fn max_dim(&self) -> u32 {
        self.max_dim
    }

    /// Handle a compute request (`plan`, `predict`, or `audit`). `status`
    /// and `shutdown` are answered inline by the daemon, not here.
    pub fn handle(&self, request: Request) -> Response {
        let result = match request {
            Request::Plan { strategy, dim } => self
                .check_dim(dim)
                .and_then(|dim| plan_reply(strategy, dim))
                .map(Response::Plan)
                .inspect(|_| self.plan.inc()),
            Request::Predict { strategy, dim } => self
                .check_dim(dim)
                .and_then(|dim| predict_reply(strategy, dim))
                .map(Response::Predict)
                .inspect(|_| self.predict.inc()),
            Request::Audit { strategy, dim } => self
                .check_dim(dim)
                .map(|dim| Response::Audit(self.audit_reply(strategy, dim)))
                .inspect(|_| self.audit.inc()),
            Request::ScenarioPlan {
                scenario,
                side,
                instance,
            } => self
                .scenario_reference(scenario, side, instance)
                .map(|r| Response::Plan(scenario_plan_reply(scenario, side, &r)))
                .inspect(|_| self.plan.inc()),
            Request::ScenarioPredict { scenario, .. } => Err(WireError::new(
                ErrorKind::Unsupported,
                format!(
                    "the {scenario} scenario has no full closed-form prediction; \
                     use 'plan' or 'audit' to measure it"
                ),
            )),
            Request::ScenarioAudit {
                scenario,
                side,
                instance,
            } => self
                .scenario_reference(scenario, side, instance)
                .map(|r| Response::Audit(scenario_audit_reply(scenario, side, &r)))
                .inspect(|_| self.audit.inc()),
            Request::Status | Request::Metrics | Request::Shutdown => Err(WireError::new(
                ErrorKind::UnknownRequest,
                "status/metrics/shutdown are connection-level requests",
            )),
        };
        result.unwrap_or_else(|e| {
            self.note_error();
            Response::Error(e)
        })
    }

    /// Validate a requested dimension: the same rules as the offline
    /// `report --max-dim` flag, tightened to this server's own cap.
    fn check_dim(&self, dim: u32) -> Result<u32, WireError> {
        let dim =
            validate_max_dim(dim).map_err(|msg| WireError::new(ErrorKind::BadDimension, msg))?;
        if dim > self.max_dim {
            return Err(WireError::new(
                ErrorKind::BadDimension,
                format!(
                    "dimension {dim} exceeds this server's limit of {}",
                    self.max_dim
                ),
            ));
        }
        Ok(dim)
    }

    /// The cached deterministic reference run for a scenario request.
    fn scenario_reference(
        &self,
        scenario: ScenarioId,
        side: u32,
        instance: GridInstance,
    ) -> Result<ScenarioReference, WireError> {
        let resolved = hypersweep_scenario::validate_scenario(scenario, side, instance)
            .map_err(|msg| WireError::new(ErrorKind::BadDimension, msg))?
            .ok_or_else(|| {
                WireError::new(
                    ErrorKind::UnknownScenario,
                    "the hypercube is served by the classic strategy/dim form",
                )
            })?;
        let key = (scenario, side, instance);
        if let Some(cached) = self
            .scenario_refs
            .lock()
            .expect("scenario cache lock")
            .get(&key)
        {
            self.scenario_hits.inc();
            return Ok(cached.clone());
        }
        // Compute outside the lock; concurrent duplicates both run the
        // (deterministic) reference and insert the same value.
        let reference = resolved.reference(side, instance);
        self.scenario_misses.inc();
        let mut refs = self.scenario_refs.lock().expect("scenario cache lock");
        if refs.len() >= SCENARIO_REFS_CAP {
            refs.clear();
        }
        refs.insert(key, reference.clone());
        Ok(reference)
    }

    fn audit_reply(&self, strategy: StrategyKind, dim: u32) -> AuditReply {
        let outcome = self.cache.get_or_run(RunKey::audited(strategy, dim));
        AuditReply {
            strategy: strategy.label().to_string(),
            dim,
            monotone: outcome.verdict.monotone,
            contiguous: outcome.verdict.contiguous,
            all_clean: outcome.verdict.all_clean,
            captured: outcome.verdict.capture.map(|c| c.is_captured()),
            violations: outcome.verdict.violations.len() as u64,
            team_size: outcome.metrics.team_size,
            worker_moves: outcome.metrics.worker_moves,
            total_moves: outcome.metrics.total_moves(),
            trace: outcome.trace_summary.unwrap_or_default(),
        }
    }

    /// Record a backpressure rejection.
    pub fn note_busy(&self) {
        self.busy.inc();
    }

    /// Record a per-request timeout.
    pub fn note_timeout(&self) {
        self.timeouts.inc();
    }

    /// Record a structured error reply produced outside [`Dispatcher::handle`]
    /// (parse failures, oversized lines).
    pub fn note_error(&self) {
        self.errors.inc();
    }

    /// Request counters so far.
    pub fn served(&self) -> ServedCounts {
        ServedCounts {
            plan: self.plan.get(),
            predict: self.predict.get(),
            audit: self.audit.get(),
            status: self.status.get(),
            metrics: self.metrics.get(),
            errors: self.errors.get(),
            busy: self.busy.get(),
            timeouts: self.timeouts.get(),
        }
    }

    /// Build (and count) a `status` reply.
    pub fn status_reply(&self, uptime_ms: u64, in_flight: u64, workers: u64) -> StatusReply {
        self.status.inc();
        StatusReply {
            uptime_ms,
            version: build_version(),
            in_flight,
            workers,
            max_dim: self.max_dim,
            served: self.served(),
            cache: CacheStats {
                hits: self.cache.hits(),
                misses: self.cache.misses(),
                evictions: self.cache.evictions(),
                entries: self.cache.len() as u64,
                capacity: self.cache.capacity().map(|c| c as u64),
                shards: self.cache.shard_count() as u64,
            },
        }
    }

    /// Build (and count) a `metrics` reply: every series of the daemon's
    /// registry, merged with the run cache's own registry when the cache
    /// accounts into a separate one (a caller-built cache does).
    pub fn metrics_reply(&self, uptime_ms: u64, enabled: bool) -> MetricsReply {
        self.metrics.inc();
        self.export_reply(uptime_ms, enabled)
    }

    /// [`Dispatcher::metrics_reply`] without counting a served request —
    /// the daemon's periodic file exporter snapshots through this so its
    /// ticks don't inflate `served.metrics`.
    pub fn export_reply(&self, uptime_ms: u64, enabled: bool) -> MetricsReply {
        let mut series = self.registry.snapshot();
        if !self.registry.ptr_eq(self.cache.registry()) {
            series.merge(&self.cache.registry().snapshot());
        }
        MetricsReply {
            uptime_ms,
            version: build_version(),
            enabled,
            series,
        }
    }
}

/// Map a scenario reference run into the existing plan envelope: phases
/// are the team-growth accounting (phase `k` = nodes cleaned while the
/// team had `k + 1` agents), so the response structs stay
/// scenario-agnostic and byte-identity costs nothing new.
fn scenario_plan_reply(
    scenario: ScenarioId,
    side: u32,
    reference: &ScenarioReference,
) -> PlanReply {
    let strategy = hypersweep_scenario::resolve(scenario)
        .map(|s| s.strategy_label())
        .unwrap_or("scenario");
    let phases = reference
        .cleaned_by_team
        .iter()
        .enumerate()
        .filter(|(_, &cleaned)| cleaned > 0)
        .map(|(k, &cleaned)| PhasePlan {
            phase: k as u32,
            active_agents: k as u64 + 1,
            nodes_cleaned: cleaned,
        })
        .collect();
    PlanReply {
        strategy: strategy.to_string(),
        dim: side,
        nodes: reference.nodes,
        team: reference.team,
        total_moves: reference.moves,
        ideal_time: None,
        phases,
    }
}

/// Map a scenario reference run into the existing audit envelope.
fn scenario_audit_reply(
    scenario: ScenarioId,
    side: u32,
    reference: &ScenarioReference,
) -> AuditReply {
    let strategy = hypersweep_scenario::resolve(scenario)
        .map(|s| s.strategy_label())
        .unwrap_or("scenario");
    AuditReply {
        strategy: strategy.to_string(),
        dim: side,
        monotone: reference.monotone,
        contiguous: reference.contiguous,
        all_clean: reference.all_clean,
        captured: Some(reference.captured),
        violations: reference.violations,
        team_size: reference.team,
        worker_moves: reference.moves,
        total_moves: reference.moves,
        trace: TraceSummary {
            events: reference.events,
            spawns: reference.team,
            moves: reference.moves,
            clones: 0,
            terminates: reference.terminates,
            max_time: reference.max_time,
        },
    }
}

fn unsupported(what: &str, strategy: StrategyKind) -> WireError {
    WireError::new(
        ErrorKind::Unsupported,
        format!(
            "the {} baseline has no closed-form {what}; use 'audit' to measure it",
            strategy.label()
        ),
    )
}

/// The closed-form schedule for `strategy` on `H_dim`.
pub(crate) fn plan_reply(strategy: StrategyKind, dim: u32) -> Result<PlanReply, WireError> {
    let d = dim;
    let nodes = wire_u64(comb::pow2(d));
    let reply = match strategy {
        StrategyKind::Clean | StrategyKind::CleanThroughRoot => {
            // Phase l vacates level l: workers walk to level l+1, cleaning
            // its C(d, l+1) nodes (Lemmas 3–4 give the agent accounting).
            let p = clean_prediction(d);
            let phases = (0..d)
                .map(|l| {
                    let (_, _, workers) = clean_phase_accounting(d, l);
                    PhasePlan {
                        phase: l,
                        active_agents: wire_u64(workers),
                        nodes_cleaned: wire_u64(comb::nodes_at_level(d, l + 1)),
                    }
                })
                .collect();
            PlanReply {
                strategy: strategy.label().to_string(),
                dim,
                nodes,
                team: wire_u64(p.team),
                total_moves: wire_u64(p.worker_moves),
                ideal_time: None,
                phases,
            }
        }
        StrategyKind::Visibility | StrategyKind::Synchronous => {
            // Wave t ≥ 1 advances every agent still travelling — those
            // destined to levels ≥ t, i.e. Σ_{l≥t} C(d−1, l−1) of them —
            // and cleans the C(d, t) nodes of level t (Theorems 5–8).
            let p = visibility_prediction(d);
            let phases = (1..=d)
                .map(|t| {
                    let travelling: u128 = (t..=d).map(|l| comb::leaves_at_level(d, l)).sum();
                    PhasePlan {
                        phase: t,
                        active_agents: wire_u64(travelling),
                        nodes_cleaned: wire_u64(comb::nodes_at_level(d, t)),
                    }
                })
                .collect();
            PlanReply {
                strategy: strategy.label().to_string(),
                dim,
                nodes,
                team: wire_u64(p.agents),
                total_moves: wire_u64(p.moves),
                ideal_time: Some(wire_u64(p.ideal_time)),
                phases,
            }
        }
        StrategyKind::Cloning | StrategyKind::CloningSmallestFirst => {
            // Broadcast wave t reaches level t: one clone crosses each of
            // the C(d, t) tree edges into it (§5: n−1 moves in d waves).
            let p = cloning_prediction(d);
            let phases = (1..=d)
                .map(|t| PhasePlan {
                    phase: t,
                    active_agents: wire_u64(comb::nodes_at_level(d, t)),
                    nodes_cleaned: wire_u64(comb::nodes_at_level(d, t)),
                })
                .collect();
            PlanReply {
                strategy: strategy.label().to_string(),
                dim,
                nodes,
                team: wire_u64(p.agents),
                total_moves: wire_u64(p.moves),
                ideal_time: Some(wire_u64(p.ideal_time)),
                phases,
            }
        }
        StrategyKind::Flood | StrategyKind::Frontier => {
            return Err(unsupported("schedule", strategy))
        }
    };
    Ok(reply)
}

/// The paper's exact theorem counts for `strategy` on `H_dim`.
pub(crate) fn predict_reply(strategy: StrategyKind, dim: u32) -> Result<PredictReply, WireError> {
    let d = dim;
    let nodes = wire_u64(comb::pow2(d));
    let label = strategy.label().to_string();
    let reply = match strategy {
        StrategyKind::Clean | StrategyKind::CleanThroughRoot => {
            let p = clean_prediction(d);
            PredictReply {
                strategy: label,
                dim,
                nodes,
                agents: wire_u64(p.team),
                worker_moves: wire_u64(p.worker_moves),
                sync_moves_upper: Some(wire_u64(p.sync_moves_upper)),
                ideal_time: None,
            }
        }
        StrategyKind::Visibility | StrategyKind::Synchronous => {
            let p = visibility_prediction(d);
            PredictReply {
                strategy: label,
                dim,
                nodes,
                agents: wire_u64(p.agents),
                worker_moves: wire_u64(p.moves),
                sync_moves_upper: None,
                ideal_time: Some(wire_u64(p.ideal_time)),
            }
        }
        StrategyKind::Cloning | StrategyKind::CloningSmallestFirst => {
            let p = cloning_prediction(d);
            PredictReply {
                strategy: label,
                dim,
                nodes,
                agents: wire_u64(p.agents),
                worker_moves: wire_u64(p.moves),
                sync_moves_upper: None,
                ideal_time: Some(wire_u64(p.ideal_time)),
            }
        }
        StrategyKind::Flood | StrategyKind::Frontier => {
            return Err(unsupported("prediction", strategy))
        }
    };
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatcher() -> Dispatcher {
        Dispatcher::new(Arc::new(RunCache::new()), 20)
    }

    #[test]
    fn plan_clean_matches_theorem_3() {
        let d = dispatcher();
        let Response::Plan(plan) = d.handle(Request::Plan {
            strategy: StrategyKind::Clean,
            dim: 6,
        }) else {
            panic!("expected a plan reply");
        };
        assert_eq!(plan.nodes, 64);
        assert_eq!(plan.team, 26);
        assert_eq!(plan.total_moves, 224);
        assert_eq!(plan.phases.len(), 6);
        // The schedule covers every node except the homebase.
        let cleaned: u64 = plan.phases.iter().map(|p| p.nodes_cleaned).sum();
        assert_eq!(cleaned, plan.nodes - 1);
    }

    #[test]
    fn plan_wave_strategies_cover_and_sum() {
        let d = dispatcher();
        for strategy in [StrategyKind::Visibility, StrategyKind::Cloning] {
            let Response::Plan(plan) = d.handle(Request::Plan { strategy, dim: 8 }) else {
                panic!("expected a plan reply");
            };
            let cleaned: u64 = plan.phases.iter().map(|p| p.nodes_cleaned).sum();
            assert_eq!(cleaned, plan.nodes - 1, "{}", plan.strategy);
            assert_eq!(plan.ideal_time, Some(8));
            // Per-wave movers sum to the total move count.
            let moves: u64 = plan.phases.iter().map(|p| p.active_agents).sum();
            assert_eq!(moves, plan.total_moves, "{}", plan.strategy);
        }
    }

    #[test]
    fn predict_visibility_matches_theorems() {
        let d = dispatcher();
        let Response::Predict(p) = d.handle(Request::Predict {
            strategy: StrategyKind::Visibility,
            dim: 10,
        }) else {
            panic!("expected a predict reply");
        };
        assert_eq!(p.agents, 512);
        assert_eq!(p.ideal_time, Some(10));
        assert_eq!(p.worker_moves, 256 * 11);
    }

    #[test]
    fn audit_reports_verdict_and_digest() {
        let d = dispatcher();
        let Response::Audit(a) = d.handle(Request::Audit {
            strategy: StrategyKind::Clean,
            dim: 5,
        }) else {
            panic!("expected an audit reply");
        };
        assert!(a.monotone && a.contiguous && a.all_clean);
        assert_eq!(a.captured, Some(true));
        assert_eq!(a.violations, 0);
        assert_eq!(a.trace.moves, a.total_moves);
        // A second identical audit is a cache hit.
        d.handle(Request::Audit {
            strategy: StrategyKind::Clean,
            dim: 5,
        });
        assert_eq!(d.cache().hits(), 1);
        assert_eq!(d.served().audit, 2);
    }

    #[test]
    fn dimension_validation_mirrors_report() {
        let d = Dispatcher::new(Arc::new(RunCache::new()), 10);
        for (dim, expect_ok) in [(0, false), (1, true), (10, true), (11, false), (25, false)] {
            let response = d.handle(Request::Predict {
                strategy: StrategyKind::Clean,
                dim,
            });
            assert_eq!(response.is_ok(), expect_ok, "dim={dim}");
            if !expect_ok {
                let Response::Error(e) = response else {
                    unreachable!()
                };
                assert_eq!(e.kind, ErrorKind::BadDimension);
            }
        }
        assert_eq!(d.served().errors, 3);
    }

    #[test]
    fn metrics_reply_merges_request_and_cache_series() {
        let d = dispatcher();
        for _ in 0..2 {
            let response = d.handle(Request::Audit {
                strategy: StrategyKind::Clean,
                dim: 4,
            });
            assert!(response.is_ok());
        }
        let reply = d.metrics_reply(7, true);
        assert!(reply.enabled);
        assert_eq!(reply.uptime_ms, 7);
        assert_eq!(reply.version, env!("CARGO_PKG_VERSION"));
        // The dispatcher's own counters and the injected cache's separate
        // registry both appear in one merged snapshot.
        assert_eq!(reply.series.counter("server.requests.audit"), Some(2));
        assert_eq!(reply.series.counter("cache.hits"), Some(1));
        assert_eq!(reply.series.counter("cache.misses"), Some(1));
        assert!(reply.series.histogram("cache.run_us").is_some());
        assert_eq!(d.served().metrics, 1);
    }

    #[test]
    fn status_reply_reports_version_and_uptime() {
        let d = dispatcher();
        let status = d.status_reply(1234, 0, 2);
        assert_eq!(status.uptime_ms, 1234);
        assert_eq!(status.version, env!("CARGO_PKG_VERSION"));
        assert_eq!(status.served.status, 1);
        assert_eq!(status.served.metrics, 0);
    }

    #[test]
    fn scenario_plan_bypasses_the_answer_table_and_caches() {
        let d = dispatcher();
        let request = Request::ScenarioPlan {
            scenario: ScenarioId::Grid,
            side: 6,
            instance: GridInstance::Holes(42),
        };
        assert!(d.answer_line(&request).is_none(), "table must not answer");
        let first = d.handle(request).to_line();
        let second = d.handle(request).to_line();
        assert_eq!(first, second, "scenario replies must be byte-identical");
        let snap = d.registry().snapshot();
        assert_eq!(snap.counter("answers.table_bypass"), Some(1));
        assert_eq!(snap.counter("scenario.cache_misses"), Some(1));
        assert_eq!(snap.counter("scenario.cache_hits"), Some(1));
        assert_eq!(d.served().plan, 2);
        // The classic hypercube path still hits the table, not the bypass.
        assert!(d
            .answer_line(&Request::Plan {
                strategy: StrategyKind::Clean,
                dim: 6
            })
            .is_some());
        let snap = d.registry().snapshot();
        assert_eq!(snap.counter("answers.table_bypass"), Some(1));
        assert_eq!(snap.counter("answers.table_hits"), Some(1));
    }

    #[test]
    fn scenario_memo_stays_bounded_and_replies_stay_identical() {
        let d = dispatcher();
        let plan = |seed| Request::ScenarioPlan {
            scenario: ScenarioId::Grid,
            side: 3,
            instance: GridInstance::Holes(seed),
        };
        let extra = 100;
        let first: Vec<String> = (0..4).map(|seed| d.handle(plan(seed)).to_line()).collect();
        for seed in 4..(SCENARIO_REFS_CAP + extra) as u64 {
            d.handle(plan(seed));
            assert!(d.scenario_refs.lock().unwrap().len() <= SCENARIO_REFS_CAP);
        }
        // The first seeds were cleared out at the cap: asking again
        // recomputes them, byte-identically.
        let again: Vec<String> = (0..4).map(|seed| d.handle(plan(seed)).to_line()).collect();
        assert_eq!(first, again);
        let snap = d.registry().snapshot();
        let misses = (SCENARIO_REFS_CAP + extra + 4) as u64;
        assert_eq!(snap.counter("scenario.cache_misses"), Some(misses));
        assert_eq!(snap.counter("scenario.cache_hits"), Some(0));
    }

    #[test]
    fn scenario_audit_reports_a_clean_verdict() {
        let d = dispatcher();
        for scenario in [ScenarioId::Grid, ScenarioId::Dynamic] {
            let Response::Audit(a) = d.handle(Request::ScenarioAudit {
                scenario,
                side: 5,
                instance: GridInstance::Full,
            }) else {
                panic!("expected an audit reply for {scenario}");
            };
            assert!(a.monotone && a.contiguous && a.all_clean, "{scenario}");
            assert_eq!(a.captured, Some(true), "{scenario}");
            assert_eq!(a.violations, 0, "{scenario}");
            assert_eq!(a.trace.spawns, a.team_size, "{scenario}");
            assert_eq!(a.trace.moves, a.total_moves, "{scenario}");
        }
    }

    #[test]
    fn scenario_plan_phases_cover_every_node() {
        let d = dispatcher();
        let Response::Plan(plan) = d.handle(Request::ScenarioPlan {
            scenario: ScenarioId::Grid,
            side: 6,
            instance: GridInstance::Full,
        }) else {
            panic!("expected a plan reply");
        };
        assert_eq!(plan.strategy, "grid-sweep");
        assert_eq!(plan.nodes, 36);
        let cleaned: u64 = plan.phases.iter().map(|p| p.nodes_cleaned).sum();
        assert_eq!(
            cleaned, plan.nodes,
            "team-growth phases must cover the grid"
        );
    }

    #[test]
    fn scenario_predict_and_bad_sides_yield_structured_errors() {
        let d = dispatcher();
        let Response::Error(e) = d.handle(Request::ScenarioPredict {
            scenario: ScenarioId::Grid,
            side: 6,
            instance: GridInstance::Full,
        }) else {
            panic!("scenario predict must be unsupported");
        };
        assert_eq!(e.kind, ErrorKind::Unsupported);
        let Response::Error(e) = d.handle(Request::ScenarioPlan {
            scenario: ScenarioId::Grid,
            side: 99,
            instance: GridInstance::Full,
        }) else {
            panic!("oversized side must be refused");
        };
        assert_eq!(e.kind, ErrorKind::BadDimension);
    }

    #[test]
    fn baselines_are_unsupported_for_closed_forms() {
        let d = dispatcher();
        for strategy in [StrategyKind::Flood, StrategyKind::Frontier] {
            for request in [
                Request::Plan { strategy, dim: 4 },
                Request::Predict { strategy, dim: 4 },
            ] {
                let Response::Error(e) = d.handle(request) else {
                    panic!("baselines must refuse closed-form requests");
                };
                assert_eq!(e.kind, ErrorKind::Unsupported);
            }
            // They still audit fine.
            assert!(d.handle(Request::Audit { strategy, dim: 4 }).is_ok());
        }
    }
}
