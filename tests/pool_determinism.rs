//! Pooled execution must not leak into the exported artifacts: the JSON
//! for every experiment id is byte-identical whether the harness runs
//! sequentially (`--jobs 1`) or on a contended pool (`--jobs 8`), and the
//! shared run cache must actually dedupe the runs experiments have in
//! common.

use std::sync::Arc;

use hypersweep::analysis::experiments::ALL_IDS;
use hypersweep::analysis::{run_ids_pooled_with, ExperimentConfig, RunCache};
use hypersweep::server::{Client, Dispatcher, Request};
use hypersweep::telemetry::MetricsRegistry;
use hypersweep_testutil::{quick_limits, spawn_bound_server, standard_workload};

#[test]
fn exported_json_is_byte_identical_across_jobs() {
    let cfg = ExperimentConfig::quick();
    let off = MetricsRegistry::disabled();
    let sequential = run_ids_pooled_with(ALL_IDS, &cfg, 1, None, &off);
    let pooled = run_ids_pooled_with(ALL_IDS, &cfg, 8, None, &off);

    assert_eq!(sequential.results.len(), ALL_IDS.len());
    assert_eq!(pooled.results.len(), ALL_IDS.len());
    for (seq, par) in sequential.results.iter().zip(&pooled.results) {
        assert_eq!(seq.id, par.id, "merge order changed under the pool");
        let seq_json = serde_json::to_string_pretty(seq).unwrap();
        let par_json = serde_json::to_string_pretty(par).unwrap();
        assert_eq!(
            seq_json, par_json,
            "experiment {}: exported JSON differs between jobs=1 and jobs=8",
            seq.id
        );
    }

    // The whole point of the shared cache: runs declared by several
    // experiments (CLEAN's fast trace in t2/t3/e11/e13, the visibility
    // runs in t5/t7/t8, …) execute once and hit thereafter.
    for report in [&sequential, &pooled] {
        assert!(
            report.summary.cache_hits > 0,
            "jobs={}: no run was shared across experiments",
            report.summary.jobs
        );
        assert_eq!(
            report.summary.unique_runs as u64, report.summary.cache_misses,
            "every miss must correspond to exactly one executed run"
        );
    }
    assert_eq!(
        sequential.summary.cache_misses, pooled.summary.cache_misses,
        "the pool must not change which unique runs execute"
    );
}

/// The same guarantee for the online daemon: a `plan`/`predict`/`audit`
/// request answered under 8-way client concurrency is byte-identical to
/// the single-client answer, and both match the offline dispatcher over a
/// fresh cache (serving-with-contention must not leak into responses).
#[test]
fn served_responses_are_byte_identical_across_client_counts() {
    let workload: Vec<Request> = standard_workload();
    let (addr, shutdown, run) = spawn_bound_server(quick_limits());

    let fetch_all = |addr: &str| -> Vec<String> {
        let mut client = Client::connect(addr).expect("connect");
        workload
            .iter()
            .map(|r| client.send_raw(&r.to_line()).expect("response"))
            .collect()
    };

    // Single client first (also warms the cache), then 8 concurrent
    // clients issuing the identical stream.
    let single = fetch_all(&addr);
    let concurrent: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| fetch_all(&addr))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (c, streams) in concurrent.iter().enumerate() {
        assert_eq!(
            streams, &single,
            "client {c} of 8 saw different bytes than the single client"
        );
    }

    // And the wire bytes equal the offline answer over a fresh cache.
    let offline = Dispatcher::new(Arc::new(RunCache::new()), 20);
    for (request, served) in workload.iter().zip(&single) {
        assert_eq!(
            &offline.handle(*request).to_line(),
            served,
            "served response for {} diverged from the offline dispatcher",
            request.to_line()
        );
    }

    shutdown();
    let stats = run.join().expect("clean shutdown");
    assert_eq!(
        stats.served.errors, 0,
        "the deterministic workload must not produce errors"
    );
    assert_eq!(stats.served.busy + stats.served.timeouts, 0);
}

/// Serving-tier configuration must be invisible on the wire: any cache
/// shard count and any pipeline depth produce the exact bytes the offline
/// dispatcher computes over a fresh cache.
#[test]
fn responses_are_byte_identical_across_shard_counts_and_pipeline_depths() {
    let workload: Vec<Request> = standard_workload();
    let offline = Dispatcher::new(Arc::new(RunCache::new()), 20);
    let expected: Vec<String> = workload
        .iter()
        .map(|r| offline.handle(*r).to_line())
        .collect();

    for shards in [1usize, 4] {
        let limits = hypersweep::server::ServerLimits {
            cache_shards: shards,
            ..quick_limits()
        };
        let (addr, shutdown, run) = spawn_bound_server(limits);
        for depth in [1usize, 8] {
            let mut client = Client::connect(&addr).expect("connect");
            let mut served = Vec::with_capacity(workload.len());
            for batch in workload.chunks(depth) {
                let lines: Vec<String> = batch.iter().map(Request::to_line).collect();
                served.extend(client.send_raw_batch(&lines).expect("batch"));
            }
            assert_eq!(
                served, expected,
                "shards={shards} depth={depth} changed the wire bytes"
            );
        }
        shutdown();
        let stats = run.join().expect("clean shutdown");
        assert_eq!(stats.cache.shards, shards as u64);
        assert_eq!(stats.served.errors, 0);
    }
}
