//! End-to-end daemon tests over real TCP sockets: robustness (oversized
//! lines, malformed input, backpressure, timeouts) and graceful shutdown.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use hypersweep_analysis::{execute_run, RunCache, RunKey, StrategyKind};
use hypersweep_scenario::ScenarioId;
use hypersweep_server::{Client, Dispatcher, ErrorKind, Request, Response, ServerLimits};
use hypersweep_testutil::{quick_limits, spawn_bound_server, spawn_server};
use hypersweep_topology::GridInstance;

#[test]
fn serves_all_request_types_and_survives_malformed_lines() {
    let (addr, shutdown, handle) = spawn_server(quick_limits(), Arc::new(RunCache::new()));
    let mut client = Client::connect(&addr).expect("connect");

    // Malformed lines produce structured errors, not dropped connections.
    for (line, kind) in [
        (r#"{"type":"plan","strategy":"clea"#, ErrorKind::Malformed),
        (r#"{"type":"teleport"}"#, ErrorKind::UnknownRequest),
        (
            r#"{"type":"audit","strategy":"quantum","dim":4}"#,
            ErrorKind::UnknownStrategy,
        ),
        (
            r#"{"type":"plan","strategy":"clean","dim":0}"#,
            ErrorKind::BadDimension,
        ),
        (
            r#"{"type":"plan","strategy":"clean","dim":25}"#,
            ErrorKind::BadDimension,
        ),
    ] {
        let raw = client.send_raw(line).expect(line);
        let Ok(Response::Error(e)) = Response::parse(&raw) else {
            panic!("{line} -> {raw}");
        };
        assert_eq!(e.kind, kind, "{line}");
    }

    // The same connection still serves real work after all those errors.
    let Response::Plan(plan) = client
        .request(&Request::Plan {
            strategy: StrategyKind::Clean,
            dim: 6,
        })
        .expect("plan")
    else {
        panic!("expected plan reply");
    };
    assert_eq!(plan.team, 26);

    let Response::Predict(predict) = client
        .request(&Request::Predict {
            strategy: StrategyKind::Visibility,
            dim: 8,
        })
        .expect("predict")
    else {
        panic!("expected predict reply");
    };
    assert_eq!(predict.agents, 128);

    let Response::Audit(audit) = client
        .request(&Request::Audit {
            strategy: StrategyKind::Cloning,
            dim: 6,
        })
        .expect("audit")
    else {
        panic!("expected audit reply");
    };
    assert!(audit.monotone && audit.contiguous && audit.all_clean);
    assert_eq!(audit.worker_moves, 63); // n - 1

    let Response::Status(status) = client.request(&Request::Status).expect("status") else {
        panic!("expected status reply");
    };
    assert_eq!(status.served.plan, 1);
    assert_eq!(status.served.predict, 1);
    assert_eq!(status.served.audit, 1);
    assert_eq!(status.served.errors, 5);

    shutdown();
    let stats = handle.join().expect("no leaked panics");
    assert_eq!(stats.served.audit, 1);
    assert_eq!(stats.in_flight, 0, "drained server still had work queued");
}

#[test]
fn oversized_lines_are_discarded_without_killing_the_connection() {
    let limits = ServerLimits {
        max_line_bytes: 512,
        ..quick_limits()
    };
    let (addr, shutdown, handle) = spawn_server(limits, Arc::new(RunCache::new()));
    let mut client = Client::connect(&addr).expect("connect");

    // 64 KiB of garbage on one line: bounded buffering, structured error.
    let huge = "x".repeat(64 * 1024);
    let raw = client.send_raw(&huge).expect("oversized line answered");
    let Ok(Response::Error(e)) = Response::parse(&raw) else {
        panic!("oversized -> {raw}");
    };
    assert_eq!(e.kind, ErrorKind::Oversized);

    // The connection keeps serving.
    let response = client
        .request(&Request::Predict {
            strategy: StrategyKind::Clean,
            dim: 4,
        })
        .expect("request after oversized line");
    assert!(response.is_ok(), "{response:?}");

    shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn deeply_nested_line_is_malformed_and_the_daemon_keeps_serving() {
    let (addr, shutdown, handle) = spawn_server(quick_limits(), Arc::new(RunCache::new()));
    let mut client = Client::connect(&addr).expect("connect");

    // 60,000 `[` fit under the 64 KiB line limit. Parsed without a depth
    // cap they overflow the reactor's stack, which aborts the process.
    let raw = client
        .send_raw(&"[".repeat(60_000))
        .expect("deep line answered");
    assert!(raw.contains(r#""kind":"malformed""#), "{raw}");

    // The daemon still answers, on a fresh connection too.
    let mut fresh = Client::connect(&addr).expect("connect after the deep line");
    let Response::Status(status) = fresh.request(&Request::Status).expect("status") else {
        panic!("expected status reply");
    };
    assert_eq!(status.served.errors, 1);

    shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn saturation_returns_busy_and_timeouts_expire() {
    // A runner that announces each run and blocks until released, making
    // pool occupancy deterministic.
    let (release, gate) = mpsc::channel::<()>();
    let (announce, started) = mpsc::channel::<()>();
    let (gate, announce) = (Mutex::new(gate), Mutex::new(announce));
    let cache = Arc::new(RunCache::with_runner(move |key| {
        announce.lock().unwrap().send(()).ok();
        gate.lock().unwrap().recv().ok();
        execute_run(key)
    }));
    let limits = ServerLimits {
        workers: 1,
        queue_capacity: 1,
        request_timeout: Duration::from_millis(100),
        ..ServerLimits::default()
    };
    let (addr, shutdown, handle) = spawn_server(limits, cache);

    // Distinct dims so the cache cannot deduplicate the three requests.
    let audit = |dim| Request::Audit {
        strategy: StrategyKind::Clean,
        dim,
    };
    let spawn_waiter = |dim| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.request(&audit(dim)).expect("response")
        })
    };
    let mut probe = Client::connect(&addr).expect("probe connect");
    let in_flight = |probe: &mut Client| -> u64 {
        match probe.request(&Request::Status).expect("status") {
            Response::Status(s) => s.in_flight,
            other => panic!("{other:?}"),
        }
    };

    // Occupy the single worker, then the single queue slot.
    let first = spawn_waiter(3);
    started.recv().expect("first run started");
    let second = spawn_waiter(4);
    while in_flight(&mut probe) < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // The pool is saturated: the next compute request is refused as busy
    // immediately (it never waits on the timeout).
    let mut third = Client::connect(&addr).expect("connect");
    let Response::Error(e) = third.request(&audit(5)).expect("busy reply") else {
        panic!("expected busy");
    };
    assert_eq!(e.kind, ErrorKind::Busy);

    // The two waiters outlive their 100ms budget: both time out.
    let Response::Error(t1) = first.join().expect("waiter 1") else {
        panic!("expected timeout");
    };
    let Response::Error(t2) = second.join().expect("waiter 2") else {
        panic!("expected timeout");
    };
    assert_eq!(t1.kind, ErrorKind::Timeout);
    assert_eq!(t2.kind, ErrorKind::Timeout);

    // Release the gated runs; the abandoned jobs complete and warm the
    // cache, so a repeat of the first request is now an instant hit.
    release.send(()).ok();
    release.send(()).ok();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match probe.request(&audit(3)).expect("retry") {
            Response::Audit(a) => {
                assert!(a.monotone);
                break;
            }
            // Transient while the released jobs drain the queue: the
            // reply can still be busy (the queue slot is not yet free)
            // or a timeout (the run is still finishing).
            Response::Error(e) if e.kind == ErrorKind::Timeout || e.kind == ErrorKind::Busy => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "request never completed after release"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("{other:?}"),
        }
    }

    let Response::Status(status) = probe.request(&Request::Status).expect("status") else {
        panic!()
    };
    assert!(status.served.busy >= 1);
    assert!(status.served.timeouts >= 2);

    shutdown();
    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn cached_requests_answer_while_the_pool_is_saturated() {
    // The gated runner of the saturation test: a computed audit announces
    // itself and holds its worker until released.
    let (release, gate) = mpsc::channel::<()>();
    let (announce, started) = mpsc::channel::<()>();
    let (gate, announce) = (Mutex::new(gate), Mutex::new(announce));
    let cache = Arc::new(RunCache::with_runner(move |key| {
        announce.lock().unwrap().send(()).ok();
        gate.lock().unwrap().recv().ok();
        execute_run(key)
    }));
    let warm = RunKey::audited(StrategyKind::Clean, 5);
    assert!(cache.insert_ready(warm, execute_run(warm)));
    let limits = ServerLimits {
        workers: 1,
        queue_capacity: 1,
        ..quick_limits()
    };
    let (addr, shutdown, handle) = spawn_server(limits, cache);

    let audit = |dim| Request::Audit {
        strategy: StrategyKind::Clean,
        dim,
    };
    let holes = GridInstance::Holes(7);
    let scenario_audit = Request::ScenarioAudit {
        scenario: ScenarioId::Grid,
        side: 5,
        instance: holes,
    };
    let scenario_plan = Request::ScenarioPlan {
        scenario: ScenarioId::Grid,
        side: 5,
        instance: holes,
    };
    let scenario_miss = Request::ScenarioPlan {
        scenario: ScenarioId::Grid,
        side: 5,
        instance: GridInstance::Corridor,
    };

    let mut probe = Client::connect(&addr).expect("probe connect");
    let in_flight = |probe: &mut Client| -> u64 {
        match probe.request(&Request::Status).expect("status") {
            Response::Status(s) => s.in_flight,
            other => panic!("{other:?}"),
        }
    };
    // Memoize one grid reference on the pool.
    let warmed = probe.request(&scenario_audit).expect("warm scenario");
    assert!(warmed.is_ok(), "{warmed:?}");

    // Two hypercube misses hold the single worker and the single queue slot.
    let spawn_waiter = |dim| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.request(&audit(dim)).expect("response")
        })
    };
    let first = spawn_waiter(3);
    started.recv().expect("first run started");
    let second = spawn_waiter(4);
    while in_flight(&mut probe) < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Cached requests need no worker: real replies, byte-identical to a
    // fresh offline dispatcher's.
    let offline = Dispatcher::new(Arc::new(RunCache::new()), quick_limits().max_dim);
    let mut third = Client::connect(&addr).expect("connect");
    for request in [audit(5), scenario_audit, scenario_plan] {
        let served = third.send_raw(&request.to_line()).expect("cached reply");
        assert_eq!(served, offline.handle(request).to_line(), "{request:?}");
    }
    // A scenario miss must compute, and the pool is full.
    let Response::Error(e) = third.request(&scenario_miss).expect("busy reply") else {
        panic!("expected busy");
    };
    assert_eq!(e.kind, ErrorKind::Busy);
    let Response::Status(status) = probe.request(&Request::Status).expect("status") else {
        panic!("expected status reply");
    };
    assert_eq!(status.served.busy, 1, "only the scenario miss was refused");

    // Released, the saturating misses complete normally.
    release.send(()).ok();
    release.send(()).ok();
    for waiter in [first, second] {
        let reply = waiter.join().expect("waiter");
        assert!(matches!(reply, Response::Audit(_)), "{reply:?}");
    }
    shutdown();
    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.served.busy, 1);
}

#[test]
fn identical_requests_park_behind_one_computation() {
    let (release, gate) = mpsc::channel::<()>();
    let (announce, started) = mpsc::channel::<()>();
    let (gate, announce) = (Mutex::new(gate), Mutex::new(announce));
    let cache = Arc::new(RunCache::with_runner(move |key| {
        announce.lock().unwrap().send(()).ok();
        gate.lock().unwrap().recv().ok();
        execute_run(key)
    }));
    let limits = ServerLimits {
        workers: 1,
        queue_capacity: 1,
        ..quick_limits()
    };
    let (addr, shutdown, handle) = spawn_server(limits, cache);
    let audit = |dim| Request::Audit {
        strategy: StrategyKind::Clean,
        dim,
    };
    let send = |lines: Vec<String>| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.send_raw_batch(&lines).expect("replies")
        })
    };
    let mut probe = Client::connect(&addr).expect("probe connect");
    let status = |probe: &mut Client| match probe.request(&Request::Status).expect("status") {
        Response::Status(s) => s,
        other => panic!("{other:?}"),
    };

    let first = send(vec![audit(3).to_line()]);
    started.recv().expect("first run started");
    // Four duplicates of the running audit, then a table plan: the plan
    // is counted only once the reactor has read every duplicate.
    let plan = Request::Plan {
        strategy: StrategyKind::Clean,
        dim: 6,
    };
    let mut lines = vec![audit(3).to_line(); 4];
    lines.push(plan.to_line());
    let parked = send(lines);
    while status(&mut probe).served.plan < 1 {
        std::thread::sleep(Duration::from_millis(2));
    }
    // The duplicates took no queue slot: another computation still fits.
    let now = status(&mut probe);
    assert_eq!((now.in_flight, now.served.busy), (1, 0));
    let other = send(vec![audit(4).to_line()]);
    while status(&mut probe).in_flight < 2 {
        std::thread::sleep(Duration::from_millis(5));
    }

    release.send(()).expect("release the first run");
    release.send(()).expect("release the second run");
    let offline = Dispatcher::new(Arc::new(RunCache::new()), quick_limits().max_dim);
    let expected = offline.handle(audit(3)).to_line();
    assert_eq!(
        first.join().expect("first"),
        std::slice::from_ref(&expected)
    );
    let replies = parked.join().expect("parked");
    assert_eq!(replies[..4], vec![expected; 4]);
    assert_eq!(replies[4], offline.handle(plan).to_line());
    let reply = &other.join().expect("other")[0];
    assert!(Response::parse(reply).is_ok_and(|r| r.is_ok()), "{reply}");

    let Response::Metrics(metrics) = probe.request(&Request::Metrics).expect("metrics") else {
        panic!("expected a metrics reply");
    };
    assert_eq!(metrics.series.counter("pool.jobs"), Some(2));
    shutdown();
    let stats = handle.join().expect("clean shutdown");
    assert_eq!((stats.cache.misses, stats.cache.hits), (2, 4));
    assert_eq!((stats.served.audit, stats.served.busy), (6, 0));
}

#[test]
fn pipelined_replies_keep_order_across_inline_and_pooled_paths() {
    // Audit A's run holds its worker until released, so every later reply
    // in the batch is ready first and must wait behind A's.
    let (release, gate) = mpsc::channel::<()>();
    let gate = Mutex::new(gate);
    let slow = RunKey::audited(StrategyKind::Visibility, 6);
    let cache = Arc::new(RunCache::with_runner(move |key| {
        if key == slow {
            gate.lock().unwrap().recv().ok();
        }
        execute_run(key)
    }));
    let hit = RunKey::audited(StrategyKind::Cloning, 5);
    assert!(cache.insert_ready(hit, execute_run(hit)));
    let (addr, shutdown, handle) = spawn_server(quick_limits(), cache);

    let scenario_plan = Request::ScenarioPlan {
        scenario: ScenarioId::Grid,
        side: 6,
        instance: GridInstance::Full,
    };
    let mut probe = Client::connect(&addr).expect("probe connect");
    // Memoize the grid reference the batch's scenario plan hits.
    let warmed = probe.request(&scenario_plan).expect("warm scenario");
    assert!(warmed.is_ok(), "{warmed:?}");

    let miss = Request::Audit {
        strategy: StrategyKind::Visibility,
        dim: 6,
    };
    let batch = [
        miss,
        Request::Audit {
            strategy: StrategyKind::Cloning,
            dim: 5,
        },
        Request::Plan {
            strategy: StrategyKind::Clean,
            dim: 6,
        },
        scenario_plan,
        miss,
    ];
    let pipelined = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let lines: Vec<String> = batch.iter().map(Request::to_line).collect();
            let mut client = Client::connect(&addr).expect("connect");
            client.send_raw_batch(&lines).expect("batch")
        })
    };
    // Both plans of the batch answer inline while A is still held.
    loop {
        let Response::Status(status) = probe.request(&Request::Status).expect("status") else {
            panic!("expected status reply");
        };
        if status.served.plan == 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    release.send(()).expect("release A");
    let got = pipelined.join().expect("pipelined client");

    let serial = Dispatcher::new(Arc::new(RunCache::new()), quick_limits().max_dim);
    let expected: Vec<String> = batch.iter().map(|r| serial.handle(*r).to_line()).collect();
    assert_eq!(got, expected, "replies reordered or altered");

    // Pooled requests land in their own kind's latency histogram: the
    // warm-up scenario plan miss in `plan_us`, beside the batch's two
    // inline plans.
    let Response::Metrics(metrics) = probe.request(&Request::Metrics).expect("metrics") else {
        panic!("expected a metrics reply");
    };
    let samples = |name| metrics.series.histogram(name).map(|h| h.count);
    assert_eq!(samples("server.latency.plan_us"), Some(3));
    assert_eq!(samples("server.latency.audit_us"), Some(3));

    shutdown();
    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.cache.misses, 1, "the repeat of A waited for its run");
    assert_eq!(stats.cache.hits, 2);
}

#[test]
fn metrics_request_reports_live_series_after_warm_audits() {
    // bind() (not with_cache) so the run cache accounts straight into the
    // daemon's registry — the path `hypersweep serve` takes.
    let (addr, shutdown, handle) = spawn_bound_server(quick_limits());
    let mut client = Client::connect(&addr).expect("connect");

    // Two identical audits: one miss that executes, one cache hit.
    for _ in 0..2 {
        let response = client
            .request(&Request::Audit {
                strategy: StrategyKind::Clean,
                dim: 5,
            })
            .expect("audit");
        assert!(response.is_ok(), "{response:?}");
    }

    let Response::Metrics(reply) = client.request(&Request::Metrics).expect("metrics") else {
        panic!("expected a metrics reply");
    };
    assert!(reply.enabled);
    assert!(!reply.version.is_empty());
    let series = &reply.series;
    // Request accounting.
    assert_eq!(series.counter("server.requests.audit"), Some(2));
    assert_eq!(series.counter("server.requests.metrics"), Some(1));
    // Live cache series, straight from the daemon's registry (no merge).
    assert_eq!(series.counter("cache.hits"), Some(1));
    assert_eq!(series.counter("cache.misses"), Some(1));
    assert_eq!(series.gauge("cache.entries"), Some(1));
    // Pool series: only the miss reached the worker pool; the hit was
    // answered on the reactor.
    assert_eq!(series.counter("pool.jobs"), Some(1));
    assert_eq!(series.counter("pool.job_panics"), Some(0));
    // Latency histograms recorded one sample per audit request.
    let latency = series
        .histogram("server.latency.audit_us")
        .expect("audit latency histogram");
    assert_eq!(latency.count, 2);
    assert!(series
        .histogram("cache.run_us")
        .is_some_and(|h| h.count == 1));

    // A second metrics request observes the first (and itself).
    let Response::Metrics(again) = client.request(&Request::Metrics).expect("metrics") else {
        panic!("expected a metrics reply");
    };
    assert_eq!(again.series.counter("server.requests.metrics"), Some(2));
    assert!(again
        .series
        .histogram("server.latency.metrics_us")
        .is_some_and(|h| h.count >= 1));

    shutdown();
    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.served.metrics, 2);
}

#[test]
fn disabled_telemetry_still_answers_metrics_with_accounting_only() {
    let limits = ServerLimits {
        telemetry: false,
        ..quick_limits()
    };
    let (addr, shutdown, handle) = spawn_server(limits, Arc::new(RunCache::new()));
    let mut client = Client::connect(&addr).expect("connect");
    let response = client
        .request(&Request::Audit {
            strategy: StrategyKind::Clean,
            dim: 4,
        })
        .expect("audit");
    assert!(response.is_ok(), "{response:?}");

    let Response::Metrics(reply) = client.request(&Request::Metrics).expect("metrics") else {
        panic!("expected a metrics reply");
    };
    assert!(!reply.enabled);
    // The always-on accounting survives the disabled registry…
    assert_eq!(reply.series.counter("server.requests.audit"), Some(1));
    assert_eq!(reply.series.counter("cache.misses"), Some(1));
    // …but nothing was recorded into the disabled pool/latency series.
    assert!(reply.series.histogram("server.latency.audit_us").is_none());
    assert!(reply.series.counter("pool.jobs").is_none());

    shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn panicking_runner_yields_internal_error_and_daemon_survives() {
    // A runner that panics on dim 3 exactly once, then behaves.
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    let cache = Arc::new(RunCache::with_runner(|key| {
        if key.dim == 3 && PANICS.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("injected runner failure");
        }
        execute_run(key)
    }));
    let (addr, shutdown, handle) = spawn_server(quick_limits(), cache);
    let mut client = Client::connect(&addr).expect("connect");
    let audit = |dim| Request::Audit {
        strategy: StrategyKind::Clean,
        dim,
    };

    // The panicked job surfaces as a structured internal error — not a
    // hung client, not a dead daemon.
    let Response::Error(e) = client.request(&audit(3)).expect("internal error reply") else {
        panic!("expected an error reply");
    };
    assert_eq!(e.kind, ErrorKind::Internal);
    assert!(e.message.contains("pool.job_panics"), "{}", e.message);

    // The same connection and the same cache key still work: the retry
    // re-executes (the in-flight guard released the key) and succeeds.
    let Response::Audit(a) = client.request(&audit(3)).expect("retry") else {
        panic!("expected a successful retry");
    };
    assert!(a.monotone && a.contiguous && a.all_clean);
    assert_eq!(PANICS.load(Ordering::SeqCst), 2);

    // The panic is visible in the telemetry, and the error was counted.
    // The pool counts it when the unwound job returns to the worker, a
    // beat after the job's reply went out, so wait for the count to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let panics = loop {
        let Response::Metrics(reply) = client.request(&Request::Metrics).expect("metrics") else {
            panic!("expected a metrics reply");
        };
        let panics = reply.series.counter("pool.job_panics");
        if panics == Some(1) || std::time::Instant::now() >= deadline {
            break panics;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(panics, Some(1));
    let Response::Status(status) = client.request(&Request::Status).expect("status") else {
        panic!("expected a status reply");
    };
    assert!(status.served.errors >= 1);

    shutdown();
    let stats = handle.join().expect("daemon drains after a panicked job");
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn metrics_file_exporter_appends_parseable_snapshots() {
    let dir = std::env::temp_dir().join(format!(
        "hypersweep-metrics-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.jsonl");
    let limits = ServerLimits {
        metrics_file: Some(path.clone()),
        metrics_interval: Duration::from_millis(100),
        ..quick_limits()
    };
    let (addr, shutdown, handle) = spawn_server(limits, Arc::new(RunCache::new()));
    let mut client = Client::connect(&addr).expect("connect");
    let response = client
        .request(&Request::Audit {
            strategy: StrategyKind::Visibility,
            dim: 4,
        })
        .expect("audit");
    assert!(response.is_ok(), "{response:?}");

    // Let at least one interval tick elapse, then drain (which appends a
    // final snapshot before run() returns).
    std::thread::sleep(Duration::from_millis(250));
    shutdown();
    handle.join().expect("clean shutdown");

    let exported = std::fs::read_to_string(&path).expect("exporter wrote the file");
    let lines: Vec<&str> = exported.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(
        lines.len() >= 2,
        "expected interval ticks plus a final snapshot, got {} lines",
        lines.len()
    );
    for line in &lines {
        let Ok(Response::Metrics(reply)) = Response::parse(line) else {
            panic!("unparseable exporter line: {line}");
        };
        assert!(reply.enabled);
    }
    // The final (post-drain) snapshot saw the audit's request counter,
    // and exporter ticks never count as served metrics requests.
    let Ok(Response::Metrics(last)) = Response::parse(lines.last().expect("nonempty")) else {
        unreachable!()
    };
    assert_eq!(last.series.counter("server.requests.audit"), Some(1));
    assert_eq!(last.series.counter("server.requests.metrics"), Some(0));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn connection_cap_refuses_excess_clients_with_busy() {
    let limits = ServerLimits {
        max_connections: 1,
        ..quick_limits()
    };
    let (addr, shutdown, handle) = spawn_server(limits, Arc::new(RunCache::new()));

    let mut resident = Client::connect(&addr).expect("first connection");
    assert!(resident.request(&Request::Status).expect("status").is_ok());

    // The second connection gets one busy line at accept. Read it without
    // writing anything: a write racing the server's close can turn into an
    // RST that discards the buffered reply.
    use std::io::BufRead as _;
    let refused = std::net::TcpStream::connect(&addr).expect("tcp connect still succeeds");
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut raw = String::new();
    std::io::BufReader::new(refused)
        .read_line(&mut raw)
        .expect("busy line");
    let Ok(Response::Error(e)) = Response::parse(raw.trim_end()) else {
        panic!("expected busy, got {raw}");
    };
    assert_eq!(e.kind, ErrorKind::Busy);

    // The resident connection is unaffected.
    assert!(resident.request(&Request::Status).expect("status").is_ok());

    shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn pipelined_batches_get_in_order_replies() {
    let (addr, shutdown, handle) = spawn_server(quick_limits(), Arc::new(RunCache::new()));

    // The reference stream: one request per write. Status requests are
    // excluded — their replies carry live counters that legitimately
    // differ between the serial and pipelined passes.
    let workload: Vec<Request> = (0..32)
        .map(|s| hypersweep_server::client::mixed_request(s, 6))
        .filter(|r| !matches!(r, Request::Status))
        .collect();
    let mut serial = Client::connect(&addr).expect("connect");
    let expected: Vec<String> = workload
        .iter()
        .map(|r| serial.send_raw(&r.to_line()).expect("reply"))
        .collect();

    // The same stream as one write per batch, across several depths: the
    // reactor must answer in request order with identical bytes.
    for depth in [2, 5, 24] {
        let mut pipelined = Client::connect(&addr).expect("connect");
        let mut got = Vec::new();
        for batch in workload.chunks(depth) {
            let lines: Vec<String> = batch.iter().map(Request::to_line).collect();
            got.extend(pipelined.send_raw_batch(&lines).expect("batch"));
        }
        assert_eq!(got, expected, "depth {depth} reordered or altered replies");
    }

    shutdown();
    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.served.errors, 0);
}

#[test]
fn mixed_error_and_success_pipelines_keep_order() {
    let (addr, shutdown, handle) = spawn_server(quick_limits(), Arc::new(RunCache::new()));
    let mut client = Client::connect(&addr).expect("connect");

    // One write carrying good requests, a parse error, an unknown
    // strategy, and an audit: four replies, in exactly that order.
    let lines = [
        r#"{"type":"predict","strategy":"clean","dim":5}"#,
        r#"{"type":"plan","strategy":"clea"#,
        r#"{"type":"predict","strategy":"quantum","dim":5}"#,
        r#"{"type":"audit","strategy":"clean","dim":4}"#,
    ];
    let replies = client.send_raw_batch(&lines).expect("batch");
    assert_eq!(replies.len(), 4);
    assert!(
        matches!(Response::parse(&replies[0]), Ok(Response::Predict(_))),
        "{}",
        replies[0]
    );
    let Ok(Response::Error(e1)) = Response::parse(&replies[1]) else {
        panic!("{}", replies[1]);
    };
    assert_eq!(e1.kind, ErrorKind::Malformed);
    let Ok(Response::Error(e2)) = Response::parse(&replies[2]) else {
        panic!("{}", replies[2]);
    };
    assert_eq!(e2.kind, ErrorKind::UnknownStrategy);
    assert!(
        matches!(Response::parse(&replies[3]), Ok(Response::Audit(_))),
        "{}",
        replies[3]
    );

    shutdown();
    handle.join().expect("clean shutdown");
}

#[test]
fn slow_loris_partial_lines_do_not_stall_other_clients() {
    use std::io::{BufRead, BufReader, Write};

    let (addr, shutdown, handle) = spawn_server(quick_limits(), Arc::new(RunCache::new()));

    // A client that dribbles a request one byte at a time, never
    // finishing the line while we measure.
    let mut loris = std::net::TcpStream::connect(&addr).expect("connect");
    loris.set_nodelay(true).expect("nodelay");
    let line = br#"{"type":"predict","strategy":"visibility","dim":6}"#;
    let (head, tail) = line.split_at(line.len() - 5);
    for chunk in head.chunks(7) {
        loris.write_all(chunk).expect("dribble");
        loris.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));

        // The reactor is not blocked on the unfinished line: a second
        // client gets a full round trip mid-dribble.
        let mut other = Client::connect(&addr).expect("connect");
        let response = other.request(&Request::Status).expect("status");
        assert!(response.is_ok(), "{response:?}");
    }

    // Completing the line gets the dribbled request its reply.
    loris.write_all(tail).expect("tail");
    loris.write_all(b"\n").expect("newline");
    loris.flush().expect("flush");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reply = String::new();
    BufReader::new(loris.try_clone().expect("clone"))
        .read_line(&mut reply)
        .expect("reply");
    let Ok(Response::Predict(p)) = Response::parse(reply.trim_end()) else {
        panic!("dribbled request got {reply}");
    };
    assert_eq!(p.agents, 32);

    // A half-line abandoned at disconnect is dropped without a reply —
    // and without wedging the daemon.
    let mut quitter = std::net::TcpStream::connect(&addr).expect("connect");
    quitter.write_all(b"{\"type\":\"sta").expect("partial");
    quitter.flush().expect("flush");
    drop(quitter);

    shutdown();
    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.served.errors, 0, "partial lines must not error");
}

#[test]
fn uds_listener_serves_and_reclaims_stale_sockets() {
    let dir = std::env::temp_dir().join(format!(
        "hypersweep-uds-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let socket = dir.join("daemon.sock");

    // A stale socket file from a daemon that died without unlinking:
    // bind() must reclaim it (nothing accepts on it).
    {
        let dead = std::os::unix::net::UnixListener::bind(&socket).expect("stale bind");
        drop(dead);
    }
    assert!(socket.exists(), "stale socket file is on disk");

    let limits = ServerLimits {
        uds_path: Some(socket.clone()),
        ..quick_limits()
    };
    let (addr, shutdown, handle) = spawn_server(limits, Arc::new(RunCache::new()));

    // Both transports answer, with identical bytes for the same request.
    let request = Request::Predict {
        strategy: StrategyKind::Visibility,
        dim: 7,
    };
    let mut tcp = Client::connect(&addr).expect("tcp connect");
    let mut uds = Client::connect_uds(&socket).expect("uds connect");
    let over_tcp = tcp.send_raw(&request.to_line()).expect("tcp reply");
    let over_uds = uds.send_raw(&request.to_line()).expect("uds reply");
    assert_eq!(over_tcp, over_uds, "transports must serve identical bytes");

    // Pipelining works over the Unix socket too.
    let audits: Vec<String> = (3..=6)
        .map(|dim| {
            Request::Audit {
                strategy: StrategyKind::Clean,
                dim,
            }
            .to_line()
        })
        .collect();
    for reply in uds.send_raw_batch(&audits).expect("uds batch") {
        let Ok(Response::Audit(a)) = Response::parse(&reply) else {
            panic!("{reply}");
        };
        assert!(a.monotone && a.contiguous && a.all_clean);
    }

    shutdown();
    let stats = handle.join().expect("clean shutdown");
    assert_eq!(stats.served.errors, 0);
    assert!(
        !socket.exists(),
        "drain must unlink the socket file so the next daemon binds cleanly"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_request_drains_and_reports_final_stats() {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let cache = Arc::new(RunCache::with_runner(|key| {
        RUNS.fetch_add(1, Ordering::SeqCst);
        execute_run(key)
    }));
    let (addr, _shutdown, handle) = spawn_server(quick_limits(), cache);
    let mut client = Client::connect(&addr).expect("connect");

    for dim in [3, 4, 5] {
        let response = client
            .request(&Request::Audit {
                strategy: StrategyKind::Visibility,
                dim,
            })
            .expect("audit");
        assert!(response.is_ok(), "{response:?}");
    }

    // Replies arrive a beat before the worker thread finishes its
    // bookkeeping; wait for the pool to report quiescent so the ack's
    // draining count is deterministic.
    loop {
        let Response::Status(s) = client.request(&Request::Status).expect("status") else {
            panic!("expected status reply");
        };
        if s.in_flight == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    let Response::Shutdown(ack) = client.request(&Request::Shutdown).expect("shutdown") else {
        panic!("expected shutdown ack");
    };
    assert_eq!(ack.draining, 0);

    // run() returns only after every worker and connection thread is
    // joined; the final stats reflect the whole session.
    let stats = handle.join().expect("no leaked threads or panics");
    assert_eq!(stats.served.audit, 3);
    assert_eq!(RUNS.load(Ordering::SeqCst), 3);
    assert_eq!(stats.cache.misses, 3);
    assert_eq!(stats.in_flight, 0);
}

#[test]
fn warm_restart_serves_byte_identical_replies_without_recomputing() {
    let dir = std::env::temp_dir().join(format!("hypersweep-warm-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let persist = dir.join("cache.jsonl");
    let limits = ServerLimits {
        persist_path: Some(persist.clone()),
        ..quick_limits()
    };
    let audits = [
        r#"{"type":"audit","strategy":"clean","dim":6}"#,
        r#"{"type":"audit","strategy":"visibility","dim":5}"#,
        r#"{"type":"audit","strategy":"cloning","dim":4}"#,
    ];

    // First life: compute the audits, then drain gracefully. The drain
    // flushes the append-log and compacts it into a snapshot.
    let (addr, shutdown, handle) = spawn_bound_server(limits.clone());
    let mut client = Client::connect(&addr).expect("connect cold");
    let cold: Vec<String> = audits
        .iter()
        .map(|line| client.send_raw(line).expect("cold audit"))
        .collect();
    shutdown();
    let stats = handle.join().expect("cold drain");
    assert_eq!(stats.cache.misses, 3, "cold audits all computed");
    let log = std::fs::read_to_string(&persist).expect("persisted log exists");
    assert_eq!(log.lines().count(), 3, "one compacted record per audit");

    // Second life: the same requests answer byte-identically from the
    // warm-loaded cache — no recomputation.
    let (addr, shutdown, handle) = spawn_bound_server(limits);
    let mut client = Client::connect(&addr).expect("connect warm");
    for (line, cold_reply) in audits.iter().zip(&cold) {
        let warm_reply = client.send_raw(line).expect("warm audit");
        assert_eq!(&warm_reply, cold_reply, "warm reply must be byte-identical");
    }
    shutdown();
    let stats = handle.join().expect("warm drain");
    assert_eq!(stats.cache.misses, 0, "warm restart recomputed a run");
    assert_eq!(stats.cache.hits, 3, "every audit served from warm cache");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_load_survives_a_torn_append_log_tail() {
    let dir = std::env::temp_dir().join(format!("hypersweep-torn-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let persist = dir.join("cache.jsonl");
    let limits = ServerLimits {
        persist_path: Some(persist.clone()),
        ..quick_limits()
    };

    // First life writes two records, then the "crash": chop the file
    // mid-record, the way a kill -9 between write and fsync can leave it.
    let (addr, shutdown, handle) = spawn_bound_server(limits.clone());
    let mut client = Client::connect(&addr).expect("connect");
    client
        .send_raw(r#"{"type":"audit","strategy":"clean","dim":6}"#)
        .expect("first audit");
    client
        .send_raw(r#"{"type":"audit","strategy":"visibility","dim":5}"#)
        .expect("second audit");
    shutdown();
    handle.join().expect("drain");
    let log = std::fs::read(&persist).expect("log exists");
    assert!(log.len() > 24);
    std::fs::write(&persist, &log[..log.len() - 17]).unwrap();

    // Second life: the valid prefix loads, the torn tail is skipped, and
    // the daemon binds without error.
    let (addr, shutdown, handle) = spawn_bound_server(limits);
    let mut client = Client::connect(&addr).expect("connect after tear");
    let raw = client
        .send_raw(r#"{"type":"audit","strategy":"clean","dim":6}"#)
        .expect("audit after tear");
    assert!(Response::parse(&raw).expect("parses").is_ok(), "{raw}");
    shutdown();
    let stats = handle.join().expect("drain after tear");
    assert_eq!(stats.cache.hits, 1, "valid prefix served the first audit");
    let _ = std::fs::remove_dir_all(&dir);
}
