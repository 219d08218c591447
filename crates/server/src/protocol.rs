//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Every request and every response is one JSON object on one line,
//! tagged by a `"type"` field. Malformed input never drops the
//! connection — it produces a structured `{"type":"error",...}` response
//! with a stable machine-readable `kind`, and the connection keeps
//! serving subsequent lines.
//!
//! Requests:
//!
//! ```json
//! {"type":"plan","strategy":"clean","dim":6}
//! {"type":"predict","strategy":"visibility","dim":8}
//! {"type":"audit","strategy":"cloning","dim":10}
//! {"type":"status"}
//! {"type":"metrics"}
//! {"type":"shutdown"}
//! ```
//!
//! Response envelopes reuse the request tag (`{"type":"plan",...}`), with
//! `{"type":"error","kind":...,"message":...}` for every failure. The
//! payload field order is fixed by struct declaration order, so equal
//! requests always produce byte-identical response lines — the property
//! the determinism suite pins down.

use serde::{Deserialize, Serialize, Value};

use hypersweep_analysis::StrategyKind;
use hypersweep_scenario::ScenarioId;
use hypersweep_sim::TraceSummary;
use hypersweep_telemetry::MetricsSnapshot;
use hypersweep_topology::GridInstance;

/// Machine-readable error category, stable across releases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a valid JSON object, or it repeated a field or
    /// carried one its request form does not take.
    Malformed,
    /// The `type` field was missing or not a known request type.
    UnknownRequest,
    /// The `strategy` field named no known strategy.
    UnknownStrategy,
    /// The `dim` field was missing, zero, or above the server's limit.
    BadDimension,
    /// The request line exceeded the size limit.
    Oversized,
    /// The request did not complete within the per-request timeout.
    Timeout,
    /// The dispatch queue is at capacity; retry later.
    Busy,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The request is structurally valid but unsupported (e.g. a plan for
    /// a baseline strategy with no closed-form schedule).
    Unsupported,
    /// The server failed internally while computing the reply (e.g. the
    /// dispatched job panicked); the request itself was well-formed.
    Internal,
    /// The `scenario` field named no registered scenario.
    UnknownScenario,
    /// The `instance` field was not a valid instance spelling for the
    /// requested scenario.
    BadInstance,
}

impl ErrorKind {
    /// The stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::UnknownRequest => "unknown_request",
            ErrorKind::UnknownStrategy => "unknown_strategy",
            ErrorKind::BadDimension => "bad_dimension",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Busy => "busy",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Unsupported => "unsupported",
            ErrorKind::Internal => "internal",
            ErrorKind::UnknownScenario => "unknown_scenario",
            ErrorKind::BadInstance => "bad_instance",
        }
    }

    /// Parse a wire label back into a kind.
    pub fn parse(label: &str) -> Option<Self> {
        [
            ErrorKind::Malformed,
            ErrorKind::UnknownRequest,
            ErrorKind::UnknownStrategy,
            ErrorKind::BadDimension,
            ErrorKind::Oversized,
            ErrorKind::Timeout,
            ErrorKind::Busy,
            ErrorKind::ShuttingDown,
            ErrorKind::Unsupported,
            ErrorKind::Internal,
            ErrorKind::UnknownScenario,
            ErrorKind::BadInstance,
        ]
        .into_iter()
        .find(|k| k.label() == label)
    }
}

/// A structured protocol error: category plus human-readable detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    /// Build an error of `kind` with the given detail.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
        }
    }
}

/// A parsed client request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// The per-phase cleaning schedule for a strategy on `H_dim`.
    Plan {
        /// Which strategy.
        strategy: StrategyKind,
        /// The hypercube dimension.
        dim: u32,
    },
    /// The paper's closed-form agent/move/time counts.
    Predict {
        /// Which strategy.
        strategy: StrategyKind,
        /// The hypercube dimension.
        dim: u32,
    },
    /// Stream the strategy's trace through the packed contamination
    /// monitor and return the verdict plus metrics.
    Audit {
        /// Which strategy.
        strategy: StrategyKind,
        /// The hypercube dimension.
        dim: u32,
    },
    /// Daemon health: uptime, cache statistics, in-flight requests.
    Status,
    /// The full telemetry snapshot: pool, cache, sink, and per-request
    /// series as an ordered name → value object.
    Metrics,
    /// Ask the daemon to drain in-flight work and exit.
    Shutdown,
    /// A `plan` for a registered non-hypercube scenario (wire tag is
    /// still `plan`, selected by the `scenario` field). `side` rides the
    /// wire in the `dim` field.
    ScenarioPlan {
        /// Which registered scenario (never `Hypercube` off the wire).
        scenario: ScenarioId,
        /// Grid side length (the wire's `dim` field).
        side: u32,
        /// Instance generator.
        instance: GridInstance,
    },
    /// A `predict` for a registered scenario. Scenarios without a full
    /// closed form answer this with a structured `unsupported` error.
    ScenarioPredict {
        /// Which registered scenario.
        scenario: ScenarioId,
        /// Grid side length.
        side: u32,
        /// Instance generator.
        instance: GridInstance,
    },
    /// An `audit` for a registered scenario: run the reference schedule
    /// under the step oracle and report the verdict.
    ScenarioAudit {
        /// Which registered scenario.
        scenario: ScenarioId,
        /// Grid side length.
        side: u32,
        /// Instance generator.
        instance: GridInstance,
    },
}

impl Request {
    /// The wire tag of this request.
    pub fn tag(&self) -> &'static str {
        match self {
            Request::Plan { .. } | Request::ScenarioPlan { .. } => "plan",
            Request::Predict { .. } | Request::ScenarioPredict { .. } => "predict",
            Request::Audit { .. } | Request::ScenarioAudit { .. } => "audit",
            Request::Status => "status",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }

    /// Serialize to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut fields = vec![("type".to_string(), Value::String(self.tag().to_string()))];
        match self {
            Request::Plan { strategy, dim }
            | Request::Predict { strategy, dim }
            | Request::Audit { strategy, dim } => {
                fields.push((
                    "strategy".to_string(),
                    Value::String(strategy.label().to_string()),
                ));
                fields.push(("dim".to_string(), dim.serialize_value()));
            }
            Request::ScenarioPlan {
                scenario,
                side,
                instance,
            }
            | Request::ScenarioPredict {
                scenario,
                side,
                instance,
            }
            | Request::ScenarioAudit {
                scenario,
                side,
                instance,
            } => {
                fields.push((
                    "scenario".to_string(),
                    Value::String(scenario.label().to_string()),
                ));
                fields.push(("dim".to_string(), side.serialize_value()));
                fields.push(("instance".to_string(), Value::String(instance.label())));
            }
            Request::Status | Request::Metrics | Request::Shutdown => {}
        }
        serde_json::to_string(&Value::Object(fields)).expect("requests serialize")
    }

    /// Parse one wire line. Errors are structured, never connection-fatal.
    ///
    /// `type` picks the request kind and, for `plan`/`predict`/`audit`, a
    /// non-hypercube `scenario` picks the scenario form. The object's
    /// fields are then read in one pass against that form's declared
    /// fields, so a repeated or undeclared field is `malformed`: such a
    /// line would otherwise get the reply of a different line.
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let value = serde_json::from_str_value(line)
            .map_err(|e| WireError::new(ErrorKind::Malformed, format!("invalid JSON: {e}")))?;
        let fields = value
            .as_object()
            .ok_or_else(|| WireError::new(ErrorKind::Malformed, "request must be a JSON object"))?;
        let tag = serde::get_field(fields, "type").as_str().ok_or_else(|| {
            WireError::new(
                ErrorKind::UnknownRequest,
                "missing request 'type' (expected plan|predict|audit|status|metrics|shutdown)",
            )
        })?;
        let scenario = match tag {
            "plan" | "predict" | "audit" => route_scenario(serde::get_field(fields, "scenario"))?,
            "status" | "metrics" | "shutdown" => None,
            other => {
                return Err(WireError::new(
                    ErrorKind::UnknownRequest,
                    format!(
                        "unknown request type '{other}' \
                         (expected plan|predict|audit|status|metrics|shutdown)"
                    ),
                ))
            }
        };
        // Each form's declared fields, the form's own one last; `read`
        // holds the value of each.
        let form: &[&str] = match (tag, scenario) {
            ("status" | "metrics" | "shutdown", _) => &["type"],
            (_, None) => &["type", "scenario", "dim", "strategy"],
            (_, Some(_)) => &["type", "scenario", "dim", "instance"],
        };
        let mut read: [Option<&Value>; 4] = [None; 4];
        for (key, value) in fields {
            let Some(i) = form.iter().position(|f| f == key) else {
                return Err(WireError::new(
                    ErrorKind::Malformed,
                    format!(
                        "'{tag}' takes no '{key}' field (it takes {})",
                        form.join(", ")
                    ),
                ));
            };
            if read[i].replace(value).is_some() {
                return Err(WireError::new(
                    ErrorKind::Malformed,
                    format!("field '{key}' appears twice"),
                ));
            }
        }
        let [.., dim, own] = read.map(|v| v.unwrap_or(&Value::Null));
        let dim = || {
            u32::deserialize_value(dim).map_err(|_| {
                WireError::new(
                    ErrorKind::BadDimension,
                    format!("'{tag}' requires an integer 'dim' field"),
                )
            })
        };
        if let Some((scenario, resolved)) = scenario {
            let side = dim()?;
            let instance = match own {
                Value::Null => resolved.default_instance(),
                field => {
                    let spelled = field.as_str().ok_or_else(|| {
                        WireError::new(ErrorKind::BadInstance, "'instance' must be a string")
                    })?;
                    GridInstance::parse(spelled).ok_or_else(|| {
                        WireError::new(
                            ErrorKind::BadInstance,
                            format!(
                                "unknown instance '{spelled}' \
                                 (expected full|holes:<seed>|corridor)"
                            ),
                        )
                    })?
                }
            };
            return Ok(match tag {
                "plan" => Request::ScenarioPlan {
                    scenario,
                    side,
                    instance,
                },
                "predict" => Request::ScenarioPredict {
                    scenario,
                    side,
                    instance,
                },
                _ => Request::ScenarioAudit {
                    scenario,
                    side,
                    instance,
                },
            });
        }
        match tag {
            "status" => return Ok(Request::Status),
            "metrics" => return Ok(Request::Metrics),
            "shutdown" => return Ok(Request::Shutdown),
            _ => {}
        }
        let strategy_label = own.as_str().ok_or_else(|| {
            WireError::new(
                ErrorKind::UnknownStrategy,
                format!("'{tag}' requires a string 'strategy' field"),
            )
        })?;
        let strategy = StrategyKind::from_label(strategy_label).ok_or_else(|| {
            let known: Vec<&str> = StrategyKind::ALL.iter().map(|s| s.label()).collect();
            WireError::new(
                ErrorKind::UnknownStrategy,
                format!(
                    "unknown strategy '{strategy_label}' (known: {})",
                    known.join(", ")
                ),
            )
        })?;
        let dim = dim()?;
        Ok(match tag {
            "plan" => Request::Plan { strategy, dim },
            "predict" => Request::Predict { strategy, dim },
            _ => Request::Audit { strategy, dim },
        })
    }
}

/// Route on a request's `scenario` field: absent (or `"hypercube"`, the
/// spelled-out default) keeps the classic strategy/dim form; a registered
/// scenario selects the scenario form.
fn route_scenario(
    field: &Value,
) -> Result<Option<(ScenarioId, &'static dyn hypersweep_scenario::Scenario)>, WireError> {
    if matches!(field, Value::Null) {
        return Ok(None);
    }
    let label = field
        .as_str()
        .ok_or_else(|| WireError::new(ErrorKind::UnknownScenario, "'scenario' must be a string"))?;
    let scenario = ScenarioId::parse(label).ok_or_else(|| {
        let known: Vec<&str> = ScenarioId::ALL.iter().map(|s| s.label()).collect();
        WireError::new(
            ErrorKind::UnknownScenario,
            format!("unknown scenario '{label}' (known: {})", known.join(", ")),
        )
    })?;
    Ok(hypersweep_scenario::resolve(scenario).map(|resolved| (scenario, resolved)))
}

/// One phase of a cleaning schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhasePlan {
    /// Phase index (CLEAN's level being vacated, or a visibility wave).
    pub phase: u32,
    /// Agents engaged during this phase.
    pub active_agents: u64,
    /// Nodes decontaminated by this phase.
    pub nodes_cleaned: u64,
}

/// Reply to a `plan` request: the closed-form schedule.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanReply {
    /// Strategy label.
    pub strategy: String,
    /// Dimension planned.
    pub dim: u32,
    /// Nodes in `H_dim`.
    pub nodes: u64,
    /// Exact team size.
    pub team: u64,
    /// Exact total worker moves over the whole schedule.
    pub total_moves: u64,
    /// Ideal time in synchronous rounds, when the strategy has one.
    pub ideal_time: Option<u64>,
    /// The per-phase schedule, in execution order.
    pub phases: Vec<PhasePlan>,
}

/// Reply to a `predict` request: the paper's exact theorem counts.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictReply {
    /// Strategy label.
    pub strategy: String,
    /// Dimension predicted.
    pub dim: u32,
    /// Nodes in `H_dim`.
    pub nodes: u64,
    /// Exact agent count (Theorem 2 / Theorem 5 / §5).
    pub agents: u64,
    /// Exact worker moves (Theorem 3 / Theorem 8 / §5).
    pub worker_moves: u64,
    /// Upper bound on synchronizer moves (CLEAN only).
    pub sync_moves_upper: Option<u64>,
    /// Ideal time in rounds (Theorem 4 / Theorem 7), when defined.
    pub ideal_time: Option<u64>,
}

/// Reply to an `audit` request: the monitor's verdict over the streamed
/// trace, plus measured metrics and the trace digest.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditReply {
    /// Strategy label.
    pub strategy: String,
    /// Dimension audited.
    pub dim: u32,
    /// No decontaminated node was ever recontaminated.
    pub monotone: bool,
    /// The clean region stayed connected (with the homebase) throughout.
    pub contiguous: bool,
    /// Every node ended clean.
    pub all_clean: bool,
    /// The tracked intruder ended captured (`null` if none was tracked).
    pub captured: Option<bool>,
    /// Violations detected.
    pub violations: u64,
    /// Measured team size.
    pub team_size: u64,
    /// Measured worker moves.
    pub worker_moves: u64,
    /// Measured total moves (workers + synchronizer).
    pub total_moves: u64,
    /// Digest of the streamed trace (per-kind event counts).
    pub trace: TraceSummary,
}

/// Request counters served since startup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServedCounts {
    /// Successful `plan` replies.
    pub plan: u64,
    /// Successful `predict` replies.
    pub predict: u64,
    /// Successful `audit` replies.
    pub audit: u64,
    /// `status` replies.
    pub status: u64,
    /// `metrics` replies.
    pub metrics: u64,
    /// Structured error replies (malformed, unknown, bad dimension, …).
    pub errors: u64,
    /// `busy` rejections under backpressure.
    pub busy: u64,
    /// Requests that hit the per-request timeout.
    pub timeouts: u64,
}

/// Run-cache statistics as exposed by `status`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests served from a cached outcome.
    pub hits: u64,
    /// Requests that executed a run.
    pub misses: u64,
    /// Outcomes dropped by the capacity bound.
    pub evictions: u64,
    /// Outcomes currently resident.
    pub entries: u64,
    /// The capacity bound (`null` = unbounded).
    pub capacity: Option<u64>,
    /// Hash-partitioned shards behind these aggregates.
    pub shards: u64,
}

/// Reply to a `status` request.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusReply {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// The daemon's build version (the crate version it was built from).
    pub version: String,
    /// Requests queued or executing right now.
    pub in_flight: u64,
    /// Worker threads serving the dispatch pool.
    pub workers: u64,
    /// Per-request dimension cap.
    pub max_dim: u32,
    /// Request counters since startup.
    pub served: ServedCounts,
    /// Run-cache statistics.
    pub cache: CacheStats,
}

/// Reply to a `metrics` request: the daemon's full telemetry snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsReply {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// The daemon's build version.
    pub version: String,
    /// Whether telemetry recording is enabled (`false` ⇒ `series` only
    /// carries the cache's always-on accounting, if anything).
    pub enabled: bool,
    /// Every metric, name-sorted: `{"name": {"type": "counter", ...}}`.
    pub series: MetricsSnapshot,
}

/// Reply to a `shutdown` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShutdownReply {
    /// Requests still in flight that the daemon will drain before exit.
    pub draining: u64,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Schedule reply.
    Plan(PlanReply),
    /// Prediction reply.
    Predict(PredictReply),
    /// Audit reply.
    Audit(AuditReply),
    /// Status reply.
    Status(StatusReply),
    /// Telemetry snapshot reply.
    Metrics(MetricsReply),
    /// Shutdown acknowledgement.
    Shutdown(ShutdownReply),
    /// Structured failure.
    Error(WireError),
}

impl Response {
    /// The wire tag of this response.
    pub fn tag(&self) -> &'static str {
        match self {
            Response::Plan(_) => "plan",
            Response::Predict(_) => "predict",
            Response::Audit(_) => "audit",
            Response::Status(_) => "status",
            Response::Metrics(_) => "metrics",
            Response::Shutdown(_) => "shutdown",
            Response::Error(_) => "error",
        }
    }

    /// Whether this is a successful (non-error) reply.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Error(_))
    }

    /// Serialize to one wire line (no trailing newline). Field order is
    /// fixed, so equal responses are byte-identical.
    pub fn to_line(&self) -> String {
        let payload = match self {
            Response::Plan(r) => r.serialize_value(),
            Response::Predict(r) => r.serialize_value(),
            Response::Audit(r) => r.serialize_value(),
            Response::Status(r) => r.serialize_value(),
            Response::Metrics(r) => r.serialize_value(),
            Response::Shutdown(r) => r.serialize_value(),
            Response::Error(e) => Value::Object(vec![
                (
                    "kind".to_string(),
                    Value::String(e.kind.label().to_string()),
                ),
                ("message".to_string(), Value::String(e.message.clone())),
            ]),
        };
        let mut fields = vec![("type".to_string(), Value::String(self.tag().to_string()))];
        match payload {
            Value::Object(rest) => fields.extend(rest),
            other => fields.push(("payload".to_string(), other)),
        }
        serde_json::to_string(&Value::Object(fields)).expect("responses serialize")
    }

    /// Parse one wire line (the client side).
    pub fn parse(line: &str) -> Result<Response, String> {
        let value = serde_json::from_str_value(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let fields = value
            .as_object()
            .ok_or_else(|| "response must be a JSON object".to_string())?;
        let tag = serde::get_field(fields, "type")
            .as_str()
            .ok_or_else(|| "missing response 'type'".to_string())?
            .to_string();
        let parse_err = |e: serde::Error| format!("bad '{tag}' response: {e}");
        match tag.as_str() {
            "plan" => Ok(Response::Plan(
                PlanReply::deserialize_value(&value).map_err(parse_err)?,
            )),
            "predict" => Ok(Response::Predict(
                PredictReply::deserialize_value(&value).map_err(parse_err)?,
            )),
            "audit" => Ok(Response::Audit(
                AuditReply::deserialize_value(&value).map_err(parse_err)?,
            )),
            "status" => Ok(Response::Status(
                StatusReply::deserialize_value(&value).map_err(parse_err)?,
            )),
            "metrics" => Ok(Response::Metrics(
                MetricsReply::deserialize_value(&value).map_err(parse_err)?,
            )),
            "shutdown" => Ok(Response::Shutdown(
                ShutdownReply::deserialize_value(&value).map_err(parse_err)?,
            )),
            "error" => {
                let kind_label = serde::get_field(fields, "kind")
                    .as_str()
                    .ok_or_else(|| "error response missing 'kind'".to_string())?;
                let kind = ErrorKind::parse(kind_label)
                    .ok_or_else(|| format!("unknown error kind '{kind_label}'"))?;
                let message = serde::get_field(fields, "message")
                    .as_str()
                    .unwrap_or_default()
                    .to_string();
                Ok(Response::Error(WireError { kind, message }))
            }
            other => Err(format!("unknown response type '{other}'")),
        }
    }
}
