//! The full experiment harness runs end to end and exports.

use hypersweep::analysis::experiments::ALL_IDS;
use hypersweep::analysis::{
    default_jobs, run_experiment, run_ids_pooled_with, runner, ExperimentConfig,
};
use hypersweep::telemetry::MetricsRegistry;

fn tiny_cfg() -> ExperimentConfig {
    ExperimentConfig {
        fast_dims: (1..=8).collect(),
        engine_dims: vec![2, 4],
        sync_engine_dims: vec![2, 4],
        adversary_seeds: 1,
    }
}

#[test]
fn every_experiment_runs_individually() {
    let cfg = tiny_cfg();
    for id in ALL_IDS {
        let r = run_experiment(id, &cfg).expect("known id");
        assert_eq!(&r.id, id);
        assert!(
            !r.tables.is_empty() || !r.artifacts.is_empty(),
            "{id} produced nothing"
        );
        // Rendering never panics and mentions the id.
        assert!(r.render().contains(&id.to_uppercase()));
    }
}

#[test]
fn run_all_returns_results_in_order_and_exports() {
    let cfg = tiny_cfg();
    let off = MetricsRegistry::disabled();
    let results = run_ids_pooled_with(ALL_IDS, &cfg, default_jobs(), None, &off).results;
    assert_eq!(results.len(), ALL_IDS.len());
    for (r, id) in results.iter().zip(ALL_IDS) {
        assert_eq!(&r.id, id);
    }
    let dir = std::env::temp_dir().join("hypersweep-smoke-export");
    let paths = runner::export_json(&results, &dir).unwrap();
    assert_eq!(paths.len(), results.len());
    // Round-trip one file.
    let text = std::fs::read_to_string(&paths[0]).unwrap();
    let back: hypersweep::analysis::ExperimentResult = serde_json::from_str(&text).unwrap();
    assert_eq!(back.id, *ALL_IDS.first().unwrap());
    for p in paths {
        std::fs::remove_file(p).ok();
    }
}
