//! Differential test for the reactor's inline tier: every reply
//! [`Dispatcher::answer_now`] gives must be byte-identical to what the
//! computing path gives, and must move the telemetry registry exactly as
//! that path moves it.
//!
//! The computing path here is the one every request took before memo hits
//! were answered inline: the answer table for hypercube `plan`/`predict`,
//! [`Dispatcher::handle`] for everything else. On a daemon the two paths
//! also differ in `pool.*`, which no dispatcher touches.
//!
//! A memo hit answers with a line stored on the entry's first hit, so the
//! tests ask each memoized request more than once, and drive a capped
//! cache through evictions.

use std::sync::Arc;

use hypersweep_analysis::{execute_run, RunCache, RunKey, StrategyKind};
use hypersweep_scenario::ScenarioId;
use hypersweep_server::{Dispatcher, Request};
use hypersweep_telemetry::MetricsRegistry;
use hypersweep_testutil::greedy_dual::{cost_of, GreedyDual};
use hypersweep_topology::GridInstance;

const MAX_DIM: u32 = 6;

/// A dispatcher whose request, table, scenario and run-cache series all
/// land in one registry.
fn dispatcher() -> (Dispatcher, MetricsRegistry) {
    let registry = MetricsRegistry::new();
    let cache = Arc::new(RunCache::with_capacity_and_telemetry(8, None, &registry));
    (
        Dispatcher::with_sharded(cache, MAX_DIM, &registry),
        registry,
    )
}

/// `plan`/`predict`/`audit` for every wire strategy at every served
/// dimension.
fn hypercube_requests() -> Vec<Request> {
    StrategyKind::ALL
        .iter()
        .flat_map(|&strategy| {
            (1..=MAX_DIM).flat_map(move |dim| {
                [
                    Request::Plan { strategy, dim },
                    Request::Predict { strategy, dim },
                    Request::Audit { strategy, dim },
                ]
            })
        })
        .collect()
}

/// Grid `plan`/`audit` over `full`, `holes:k` and `corridor`, and dynamic
/// `plan`/`audit`, at several sides.
fn scenario_requests() -> Vec<Request> {
    let mut requests = Vec::new();
    for side in 3..=MAX_DIM {
        let grids = [
            GridInstance::Full,
            GridInstance::Holes(3),
            GridInstance::Corridor,
        ];
        let instances = grids
            .into_iter()
            .map(|instance| (ScenarioId::Grid, instance))
            .chain([(ScenarioId::Dynamic, GridInstance::Full)]);
        for (scenario, instance) in instances {
            requests.push(Request::ScenarioPlan {
                scenario,
                side,
                instance,
            });
            requests.push(Request::ScenarioAudit {
                scenario,
                side,
                instance,
            });
        }
    }
    requests
}

/// Requests every dispatcher refuses: out-of-range dimensions and sides,
/// scenario `predict`, and the hypercube named as a scenario.
fn refused_requests() -> Vec<Request> {
    let strategy = StrategyKind::ALL[0];
    let mut requests: Vec<Request> = [0, MAX_DIM + 1, 25]
        .into_iter()
        .flat_map(|dim| {
            [
                Request::Plan { strategy, dim },
                Request::Predict { strategy, dim },
                Request::Audit { strategy, dim },
            ]
        })
        .collect();
    let instance = GridInstance::Full;
    for scenario in [ScenarioId::Grid, ScenarioId::Dynamic] {
        requests.push(Request::ScenarioPredict {
            scenario,
            side: 5,
            instance,
        });
    }
    for (scenario, side) in [
        (ScenarioId::Hypercube, 5),
        (ScenarioId::Grid, 0),
        (ScenarioId::Grid, 99),
    ] {
        requests.push(Request::ScenarioPredict {
            scenario,
            side,
            instance,
        });
        requests.push(Request::ScenarioPlan {
            scenario,
            side,
            instance,
        });
        requests.push(Request::ScenarioAudit {
            scenario,
            side,
            instance,
        });
    }
    requests
}

/// Whether answering `request` executes a run or a scenario reference on
/// a cold dispatcher.
fn computes(request: &Request) -> bool {
    match *request {
        Request::Audit { dim, .. } => (1..=MAX_DIM).contains(&dim),
        Request::ScenarioPlan { scenario, side, .. }
        | Request::ScenarioAudit { scenario, side, .. } => {
            scenario != ScenarioId::Hypercube && (3..=MAX_DIM).contains(&side)
        }
        _ => false,
    }
}

/// The computing path's reply: the answer table where it applies, else
/// [`Dispatcher::handle`].
fn computed_line(d: &Dispatcher, request: Request) -> String {
    match d.answer_line(&request) {
        Some(line) => line.to_string(),
        None => d.handle(request).to_line(),
    }
}

/// Memoize every hypercube audit (warm-loaded, as from a persisted cache)
/// and compute every scenario reference once.
fn warm(d: &Dispatcher) {
    for request in hypercube_requests() {
        if let Request::Audit { strategy, dim } = request {
            let key = RunKey::audited(strategy, dim);
            assert!(d.cache().insert_ready(key, execute_run(key)));
        }
    }
    for request in scenario_requests() {
        if matches!(request, Request::ScenarioPlan { .. }) {
            d.handle(request);
        }
    }
}

#[test]
fn warm_requests_answer_now_byte_for_byte_and_count_alike() {
    let (fast, fast_registry) = dispatcher();
    let (computing, computing_registry) = dispatcher();
    let (reference, _) = dispatcher();
    for d in [&fast, &computing, &reference] {
        warm(d);
    }
    assert_eq!(fast_registry.snapshot(), computing_registry.snapshot());

    let requests: Vec<Request> = hypercube_requests()
        .into_iter()
        .chain(scenario_requests())
        .chain(refused_requests())
        .collect();
    // The first answer renders a memo hit's line, the second reads the
    // stored one.
    for request in requests {
        for _ in 0..2 {
            let line = fast
                .answer_now(&request)
                .unwrap_or_else(|| panic!("warm {request:?} must answer now"));
            assert_eq!(*line, reference.handle(request).to_line(), "{request:?}");
            assert_eq!(*line, computed_line(&computing, request), "{request:?}");
            assert_eq!(
                fast_registry.snapshot(),
                computing_registry.snapshot(),
                "{request:?} moved the registry differently"
            );
        }
    }
    // Every warm audit was a hit, on either path.
    assert_eq!(fast.cache().misses(), 0);
    assert_eq!(fast.cache().hits(), computing.cache().hits());
}

#[test]
fn cold_computations_are_deferred_without_counting() {
    let (d, registry) = dispatcher();
    let (reference, _) = dispatcher();
    let requests: Vec<Request> = hypercube_requests()
        .into_iter()
        .chain(scenario_requests())
        .chain(refused_requests())
        .collect();
    let mut deferred = 0;
    for request in requests {
        let before = registry.snapshot();
        match d.answer_now(&request) {
            None => {
                assert!(computes(&request), "{request:?} deferred needlessly");
                assert_eq!(registry.snapshot(), before, "{request:?} counted");
                deferred += 1;
            }
            Some(line) => {
                assert!(!computes(&request), "{request:?} computed inline");
                assert_eq!(*line, reference.handle(request).to_line(), "{request:?}");
            }
        }
    }
    // 8 strategies x 6 dims of audits, plus plan and audit of 4 scenario
    // instances at 4 sides.
    assert_eq!(deferred, 8 * 6 + 2 * 4 * 4);
    assert_eq!(d.cache().len(), 0, "answer_now never executes a run");
}

/// A dispatcher over a one-shard cache holding at most `cap` outcomes, its
/// series in a private registry.
fn capped(cap: usize) -> Dispatcher {
    let registry = MetricsRegistry::new();
    let cache = Arc::new(RunCache::with_capacity_and_telemetry(
        1,
        Some(cap),
        &registry,
    ));
    Dispatcher::with_sharded(cache, MAX_DIM, &registry)
}

/// Stored lines obey the memo bound: an evicted audit's line goes with its
/// outcome. A one-shard cache capped below its audit keyspace is fed a
/// cyclic audit order, as the churn benchmark feeds its daemon, so keys
/// are evicted and recomputed every cycle. Each step also asks again for
/// the two keys before it (the first hit on a resident key renders its
/// line, the next reads it), and for one hot key outside the cycle, which
/// only stays resident if stored-line hits renew its credit. Every reply
/// must be the computing path's, the cache must miss and evict exactly as
/// it does when every request goes through `handle`, and both must match
/// the reference GreedyDual model over the same stream.
#[test]
fn stored_lines_obey_the_memo_bound_under_churn() {
    const CAP: usize = 16;
    let keys: Vec<Request> = StrategyKind::ALL
        .iter()
        .flat_map(|&strategy| (2..=4).map(move |dim| Request::Audit { strategy, dim }))
        .collect();
    assert!(keys.len() > CAP, "the keyspace must outgrow the cache");
    // A fixed permutation of the keyspace (7 is prime to its 24 keys).
    let order: Vec<Request> = (0..keys.len()).map(|i| keys[i * 7 % keys.len()]).collect();
    let n = order.len();
    let hot = Request::Audit {
        strategy: StrategyKind::Clean,
        dim: 5,
    };
    let requests: Vec<Request> = (0..3 * n)
        .flat_map(|i| {
            [
                order[i % n],
                order[(i + n - 1) % n],
                order[(i + n - 2) % n],
                hot,
            ]
        })
        .collect();

    let served = capped(CAP);
    let computing = capped(CAP);
    let mut stored = 0;
    for &request in &requests {
        let expected = computing.handle(request).to_line();
        let line = match served.answer_now(&request) {
            Some(line) => {
                stored += 1;
                line.to_string()
            }
            None => served.handle(request).to_line(),
        };
        assert_eq!(line, expected, "{request:?}");
    }
    let (served, computing) = (served.cache(), computing.cache());
    assert_eq!(served.misses(), computing.misses());
    assert_eq!(served.evictions(), computing.evictions());
    assert_eq!(served.hits(), computing.hits());
    // The model over the same audit stream, at each key's recompute cost.
    let mut model = GreedyDual::new(1, Some(CAP));
    for request in requests {
        let Request::Audit { strategy, dim } = request else {
            unreachable!("the stream holds audits only")
        };
        let key = RunKey::audited(strategy, dim);
        model.get(key, cost_of(&execute_run(key)));
    }
    assert_eq!(served.misses(), model.misses);
    assert_eq!(stored, model.hits);
    assert_eq!(served.evictions(), model.evictions);
    assert_eq!(served.evictions(), served.misses() - CAP as u64);
    // Cost-aware eviction spares expensive keys that a cyclic order would
    // otherwise push out every cycle: LRU misses every cycled key each
    // cycle plus the hot key once, 3n + 3 in all.
    assert!(served.misses() < 3 * n as u64 + 3, "{}", served.misses());
}
