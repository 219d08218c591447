//! Differential test of the run cache's eviction rule: on seeded request
//! streams over keys of random recompute cost, `RunCache` hits, misses,
//! evicts and keeps exactly what the reference GreedyDual model of
//! `hypersweep_testutil::greedy_dual` does, at capacities 1–4 over one
//! shard or eight (where most shards keep one entry or none).

use std::collections::{HashMap, HashSet};

use hypersweep::analysis::{execute_run, RunCache, RunKey, StrategyKind};
use hypersweep::core::SearchOutcome;
use hypersweep::telemetry::MetricsRegistry;
use hypersweep::topology::rng::SplitMix64;
use hypersweep_testutil::greedy_dual::{cost_of, GreedyDual};

/// Twelve audit keys: four strategies at d = 1..=3.
fn keyspace() -> Vec<RunKey> {
    [
        StrategyKind::Clean,
        StrategyKind::Visibility,
        StrategyKind::Cloning,
        StrategyKind::Flood,
    ]
    .into_iter()
    .flat_map(|kind| (1..=3).map(move |d| RunKey::audited(kind, d)))
    .collect()
}

/// One outcome per key, whose activations and team size are drawn from
/// `rng`: from a narrow range on odd seeds, so equal credits (and the
/// recency tie-break) are common, and a wide one on even seeds.
fn outcomes(keys: &[RunKey], seed: u64, rng: &mut SplitMix64) -> HashMap<RunKey, SearchOutcome> {
    let base = execute_run(RunKey::fast(StrategyKind::Clean, 1));
    let range = if seed % 2 == 1 { 4 } else { 1 << 20 };
    keys.iter()
        .map(|&key| {
            let mut outcome = base.clone();
            outcome.metrics.activations = rng.below(range);
            outcome.metrics.team_size = rng.below(range);
            (key, outcome)
        })
        .collect()
}

fn resident(cache: &RunCache) -> HashSet<RunKey> {
    cache
        .entries_snapshot()
        .into_iter()
        .map(|(k, _)| k)
        .collect()
}

#[test]
fn run_cache_evicts_as_the_greedy_dual_model() {
    let keys = keyspace();
    for seed in 1..=12u64 {
        for shards in [1, 8] {
            for capacity in 1..=4 {
                let mut rng = SplitMix64::new(seed);
                let outcomes = outcomes(&keys, seed, &mut rng);
                let runner = {
                    let outcomes = outcomes.clone();
                    move |key: RunKey| outcomes[&key].clone()
                };
                let registry = MetricsRegistry::new();
                let cache = RunCache::with_runner_capacity_and_telemetry(
                    shards,
                    runner,
                    Some(capacity),
                    &registry,
                );
                let mut model = GreedyDual::new(shards, Some(capacity));
                for step in 0..300 {
                    let key = keys[rng.below(keys.len() as u64) as usize];
                    let cost = cost_of(&outcomes[&key]);
                    let at = format!("seed {seed}, {shards} shards, cap {capacity}, step {step}");
                    let inserted = match rng.below(10) {
                        0..=6 => {
                            let misses = cache.misses();
                            cache.get_or_run(key);
                            let hit = cache.misses() == misses;
                            assert_eq!(hit, model.get(key, cost), "get {key:?}, {at}");
                            !hit
                        }
                        7 | 8 => {
                            let hit = cache.line_if_ready(key, |_| String::new()).is_some();
                            assert_eq!(hit, model.probe(key), "probe {key:?}, {at}");
                            false
                        }
                        _ => {
                            let loaded = cache.insert_ready(key, outcomes[&key].clone());
                            assert_eq!(loaded, model.load(key, cost), "load {key:?}, {at}");
                            loaded
                        }
                    };
                    let now = resident(&cache);
                    let expected: HashSet<RunKey> = model.resident().into_iter().collect();
                    assert_eq!(now, expected, "resident set, {at}");
                    assert_eq!(cache.evictions(), model.evictions, "{at}");
                    if inserted {
                        // An insert stays on any shard that keeps something.
                        let keeps = model.capacity_of(&key) != Some(0);
                        assert_eq!(now.contains(&key), keeps, "{key:?} after insert, {at}");
                    }
                }
                let at = format!("seed {seed}, {shards} shards, cap {capacity}");
                assert_eq!(
                    (cache.hits(), cache.misses(), cache.evictions()),
                    (model.hits, model.misses, model.evictions),
                    "{at}"
                );
                let snap = registry.snapshot();
                assert_eq!(
                    snap.counter("cache.evicted_work"),
                    Some(model.evicted_work),
                    "{at}"
                );
                assert_eq!(snap.gauge("cache.entries"), Some(cache.len() as i64));
            }
        }
    }
}
