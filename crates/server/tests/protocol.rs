//! Wire-protocol round trips and structured parse errors.
//!
//! Every request and response variant must survive
//! serialize → parse → serialize byte-identically (the protocol's field
//! order is fixed), and every malformed input must map to a structured
//! [`ErrorKind`], never a panic.

use hypersweep_scenario::ScenarioId;
use hypersweep_server::{
    AuditReply, CacheStats, ErrorKind, MetricsReply, PhasePlan, PlanReply, PredictReply, Request,
    Response, ServedCounts, ShutdownReply, StatusReply, WireError,
};
use hypersweep_sim::TraceSummary;
use hypersweep_telemetry::MetricsRegistry;
use hypersweep_topology::GridInstance;

fn round_trip_request(request: Request) {
    let line = request.to_line();
    let parsed = Request::parse(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
    assert_eq!(parsed, request, "request changed across the wire");
    assert_eq!(parsed.to_line(), line, "re-serialization differs");
}

fn round_trip_response(response: Response) {
    let line = response.to_line();
    let parsed = Response::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
    assert_eq!(parsed, response, "response changed across the wire");
    assert_eq!(parsed.to_line(), line, "re-serialization differs");
}

#[test]
fn every_request_variant_round_trips() {
    for strategy in hypersweep_analysis::StrategyKind::ALL {
        for dim in [1, 6, 20] {
            round_trip_request(Request::Plan { strategy, dim });
            round_trip_request(Request::Predict { strategy, dim });
            round_trip_request(Request::Audit { strategy, dim });
        }
    }
    for scenario in [ScenarioId::Grid, ScenarioId::Dynamic] {
        for instance in [
            GridInstance::Full,
            GridInstance::Holes(42),
            GridInstance::Corridor,
        ] {
            for side in [1, 6, 16] {
                round_trip_request(Request::ScenarioPlan {
                    scenario,
                    side,
                    instance,
                });
                round_trip_request(Request::ScenarioPredict {
                    scenario,
                    side,
                    instance,
                });
                round_trip_request(Request::ScenarioAudit {
                    scenario,
                    side,
                    instance,
                });
            }
        }
    }
    round_trip_request(Request::Status);
    round_trip_request(Request::Metrics);
    round_trip_request(Request::Shutdown);
}

#[test]
fn scenario_requests_ride_the_classic_tags() {
    let line = Request::ScenarioPlan {
        scenario: ScenarioId::Grid,
        side: 6,
        instance: GridInstance::Holes(42),
    }
    .to_line();
    assert_eq!(
        line,
        r#"{"type":"plan","scenario":"grid","dim":6,"instance":"holes:42"}"#
    );
    // An explicit "scenario":"hypercube" is the spelled-out default and
    // parses into the classic strategy/dim request.
    let classic =
        Request::parse(r#"{"type":"audit","scenario":"hypercube","strategy":"clean","dim":6}"#)
            .expect("explicit hypercube parses");
    assert_eq!(
        classic,
        Request::Audit {
            strategy: hypersweep_analysis::StrategyKind::Clean,
            dim: 6
        }
    );
    // A scenario request without an instance field gets the scenario's
    // default instance.
    let defaulted =
        Request::parse(r#"{"type":"plan","scenario":"dynamic","dim":5}"#).expect("parses");
    assert_eq!(
        defaulted,
        Request::ScenarioPlan {
            scenario: ScenarioId::Dynamic,
            side: 5,
            instance: GridInstance::Full,
        }
    );
}

#[test]
fn every_response_variant_round_trips() {
    round_trip_response(Response::Plan(PlanReply {
        strategy: "clean".into(),
        dim: 6,
        nodes: 64,
        team: 26,
        total_moves: 224,
        ideal_time: None,
        phases: vec![
            PhasePlan {
                phase: 0,
                active_agents: 6,
                nodes_cleaned: 6,
            },
            PhasePlan {
                phase: 1,
                active_agents: 21,
                nodes_cleaned: 15,
            },
        ],
    }));
    round_trip_response(Response::Predict(PredictReply {
        strategy: "visibility".into(),
        dim: 10,
        nodes: 1024,
        agents: 512,
        worker_moves: 2816,
        sync_moves_upper: None,
        ideal_time: Some(10),
    }));
    round_trip_response(Response::Audit(AuditReply {
        strategy: "cloning".into(),
        dim: 8,
        monotone: true,
        contiguous: true,
        all_clean: true,
        captured: Some(true),
        violations: 0,
        team_size: 128,
        worker_moves: 255,
        total_moves: 255,
        trace: TraceSummary {
            events: 511,
            spawns: 1,
            moves: 255,
            clones: 127,
            terminates: 128,
            max_time: 8,
        },
    }));
    round_trip_response(Response::Status(StatusReply {
        uptime_ms: 12345,
        version: "0.1.0".into(),
        in_flight: 2,
        workers: 4,
        max_dim: 20,
        served: ServedCounts {
            plan: 10,
            predict: 11,
            audit: 12,
            status: 13,
            metrics: 4,
            errors: 2,
            busy: 1,
            timeouts: 0,
        },
        cache: CacheStats {
            hits: 30,
            misses: 12,
            evictions: 3,
            entries: 9,
            capacity: Some(256),
            shards: 8,
        },
    }));
    round_trip_response(Response::Status(StatusReply {
        uptime_ms: 0,
        version: String::new(),
        in_flight: 0,
        workers: 1,
        max_dim: 1,
        served: ServedCounts::default(),
        cache: CacheStats {
            capacity: None, // unbounded serializes as null and comes back
            ..CacheStats::default()
        },
    }));
    round_trip_response(Response::Shutdown(ShutdownReply { draining: 3 }));
    for kind in [
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
    ] {
        round_trip_response(Response::Error(WireError::new(kind, "detail text")));
    }
}

#[test]
fn metrics_responses_round_trip() {
    // An empty snapshot (telemetry off, nothing recorded yet).
    round_trip_response(Response::Metrics(MetricsReply {
        uptime_ms: 0,
        version: "0.1.0".into(),
        enabled: false,
        series: hypersweep_telemetry::MetricsSnapshot::default(),
    }));
    // A live snapshot with every metric kind, including an empty histogram
    // (whose min/max serialize as null) and a negative gauge.
    let registry = MetricsRegistry::new();
    registry.counter("server.requests.audit").add(17);
    registry.gauge("pool.queued").set(-2);
    let h = registry.histogram("server.latency.audit_us");
    h.record(0);
    h.record(1023);
    h.record(u64::MAX);
    let _ = registry.histogram("cache.run_us"); // registered, never recorded
    round_trip_response(Response::Metrics(MetricsReply {
        uptime_ms: 98765,
        version: "9.9.9-test".into(),
        enabled: true,
        series: registry.snapshot(),
    }));
}

#[test]
fn malformed_metrics_responses_are_rejected() {
    // A metrics response whose series is not an object cannot parse.
    for line in [
        r#"{"type":"metrics","uptime_ms":1,"version":"x","enabled":true,"series":7}"#,
        r#"{"type":"metrics","uptime_ms":1,"version":"x","enabled":true,"series":[1,2]}"#,
        // A series entry with an unknown metric type.
        r#"{"type":"metrics","uptime_ms":1,"version":"x","enabled":true,"series":{"a":{"type":"sparkline","value":3}}}"#,
        // Missing the enabled flag entirely.
        r#"{"type":"metrics","uptime_ms":1,"version":"x","series":{}}"#,
    ] {
        assert!(Response::parse(line).is_err(), "must reject: {line}");
    }
    // The well-formed empty snapshot still parses.
    let ok = r#"{"type":"metrics","uptime_ms":1,"version":"x","enabled":true,"series":{}}"#;
    let parsed = Response::parse(ok).expect("empty series parses");
    let Response::Metrics(reply) = parsed else {
        panic!("expected a metrics response");
    };
    assert!(reply.series.is_empty());
}

#[test]
fn request_tags_are_flat_json() {
    let line = Request::Plan {
        strategy: hypersweep_analysis::StrategyKind::Clean,
        dim: 6,
    }
    .to_line();
    assert_eq!(line, r#"{"type":"plan","strategy":"clean","dim":6}"#);
    assert_eq!(Request::Status.to_line(), r#"{"type":"status"}"#);
}

#[test]
fn malformed_inputs_yield_structured_errors() {
    let cases: [(&str, ErrorKind); 14] = [
        // Truncated JSON.
        (r#"{"type":"plan","strategy":"clea"#, ErrorKind::Malformed),
        // Not JSON at all.
        ("hello there", ErrorKind::Malformed),
        // Valid JSON, wrong shape.
        (r#"[1,2,3]"#, ErrorKind::Malformed),
        // Missing type.
        (r#"{"strategy":"clean","dim":6}"#, ErrorKind::UnknownRequest),
        // Unknown request type.
        (r#"{"type":"teleport","dim":6}"#, ErrorKind::UnknownRequest),
        // Unknown strategy.
        (
            r#"{"type":"plan","strategy":"quantum","dim":6}"#,
            ErrorKind::UnknownStrategy,
        ),
        // Missing strategy.
        (r#"{"type":"audit","dim":6}"#, ErrorKind::UnknownStrategy),
        // Missing dim.
        (
            r#"{"type":"predict","strategy":"clean"}"#,
            ErrorKind::BadDimension,
        ),
        // Non-integer dim.
        (
            r#"{"type":"plan","strategy":"clean","dim":"six"}"#,
            ErrorKind::BadDimension,
        ),
        // Unknown scenario name.
        (
            r#"{"type":"plan","scenario":"torus","dim":6}"#,
            ErrorKind::UnknownScenario,
        ),
        // Non-string scenario field.
        (
            r#"{"type":"audit","scenario":7,"dim":6}"#,
            ErrorKind::UnknownScenario,
        ),
        // Unknown instance spelling.
        (
            r#"{"type":"plan","scenario":"grid","dim":6,"instance":"swiss-cheese"}"#,
            ErrorKind::BadInstance,
        ),
        // Malformed holes seed.
        (
            r#"{"type":"audit","scenario":"grid","dim":6,"instance":"holes:abc"}"#,
            ErrorKind::BadInstance,
        ),
        // Scenario request missing dim.
        (
            r#"{"type":"plan","scenario":"grid","instance":"full"}"#,
            ErrorKind::BadDimension,
        ),
    ];
    for (line, expected) in cases {
        let err = Request::parse(line).expect_err(line);
        assert_eq!(err.kind, expected, "{line}: {}", err.message);
        assert!(!err.message.is_empty(), "{line} produced an empty message");
        // Every parse error is itself a serializable response.
        round_trip_response(Response::Error(err));
    }
}

/// An unknown strategy gets the exact reply clients match on, listing the
/// labels in wire order.
#[test]
fn unknown_strategy_reply_lists_every_label_in_wire_order() {
    let err = Request::parse(r#"{"type":"audit","strategy":"nonsense","dim":4}"#).unwrap_err();
    assert_eq!(
        Response::Error(err).to_line(),
        r#"{"type":"error","kind":"unknown_strategy","message":"unknown strategy 'nonsense' (known: clean, clean-through-root, visibility, cloning, cloning-smallest-first, synchronous, flood, frontier)"}"#
    );
}

#[test]
fn error_kind_labels_are_stable_and_parseable() {
    for kind in [
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
    ] {
        assert_eq!(ErrorKind::parse(kind.label()), Some(kind));
    }
    assert_eq!(ErrorKind::parse("nonsense"), None);
    // The wire labels are frozen; clients match on them.
    assert_eq!(ErrorKind::Internal.label(), "internal");
    assert_eq!(ErrorKind::UnknownScenario.label(), "unknown_scenario");
    assert_eq!(ErrorKind::BadInstance.label(), "bad_instance");
}

#[test]
fn unknown_request_errors_advertise_metrics() {
    let err = Request::parse(r#"{"type":"teleport"}"#).expect_err("unknown type");
    assert!(
        err.message.contains("metrics"),
        "the expected-type list must include metrics: {}",
        err.message
    );
}

#[test]
fn unknown_repeated_and_foreign_fields_are_malformed() {
    // A valid line of each form, with a field only the other form takes.
    let forms: [(&str, &[&str]); 9] = [
        (
            r#"{"type":"plan","strategy":"clean","dim":6}"#,
            &[r#""instance":"holes:1""#],
        ),
        (
            r#"{"type":"predict","strategy":"visibility","dim":8}"#,
            &[r#""instance":"full""#],
        ),
        (
            r#"{"type":"audit","scenario":"hypercube","strategy":"clean","dim":6}"#,
            &[r#""instance":"corridor""#],
        ),
        (
            r#"{"type":"plan","scenario":"grid","dim":6,"instance":"holes:42"}"#,
            &[r#""strategy":"clean""#],
        ),
        (
            r#"{"type":"audit","scenario":"grid","dim":6}"#,
            &[r#""strategy":"clean""#],
        ),
        (
            r#"{"type":"predict","scenario":"dynamic","dim":5}"#,
            &[r#""strategy":"clean""#],
        ),
        (
            r#"{"type":"status"}"#,
            &[r#""dim":6"#, r#""strategy":"clean""#],
        ),
        (
            r#"{"type":"metrics"}"#,
            &[r#""dim":6"#, r#""scenario":"grid""#],
        ),
        (r#"{"type":"shutdown"}"#, &[r#""instance":"full""#]),
    ];
    for (line, foreign) in forms {
        Request::parse(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        let with = |field: &str| format!("{},{field}}}", &line[..line.len() - 1]);
        let mut extended: Vec<String> = vec![with(r#""bogus":1"#)];
        extended.extend(foreign.iter().map(|field| with(field)));
        // Every present key again, with another value.
        let value = serde_json::from_str_value(line).expect("valid JSON");
        for (key, present) in value.as_object().expect("an object") {
            let other = match present.as_str() {
                Some(text) => format!("\"{text}-2\""),
                None => "7".to_string(),
            };
            extended.push(with(&format!("\"{key}\":{other}")));
        }
        for bad in extended {
            let err = Request::parse(&bad).expect_err(&bad);
            assert_eq!(err.kind, ErrorKind::Malformed, "{bad}: {}", err.message);
            assert!(
                err.message.contains('\''),
                "{bad}: the message names the field"
            );
        }
    }
}
