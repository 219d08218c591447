//! `hypersweep bench-audit`: events/sec streamed through the online
//! verifier.
//!
//! Replays Algorithm CLEAN's canonical trace for `d ∈ {10, 14, 16, 18}`
//! (override with `BENCH_AUDIT_DIMS=15,16,20`) through three auditor
//! configurations with identical semantics:
//!
//! * **packed stride 1** — the real [`Verifier`] at the harness's default
//!   configuration: per-event contiguity and frontier checks, served by
//!   the incremental clean-region connectivity kernel (`O(1)` per query);
//! * **packed stride 64** — the same verifier sampling the region checks
//!   every 64 events, kept comparable to the pre-incremental baselines;
//! * **vecbool** — a per-node `Vec<bool>` reference auditor (the layout
//!   the field used before the packed kernel landed), with per-node BFS
//!   contiguity at stride 64. Skipped above d=16, where its per-node BFS
//!   takes hours.
//!
//! Results land in `--out` (default `BENCH_audit.json`); set
//! `BENCH_AUDIT_BASELINE=<path>` to compare against a committed baseline
//! instead — the command fails if either packed column regresses by more
//! than 25% at any dimension.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use hypersweep_core::{CleanStrategy, SearchStrategy};
use hypersweep_intruder::Verifier;
use hypersweep_sim::{Event, EventKind};
use hypersweep_topology::{Hypercube, Node, Topology};
use serde::{Deserialize, Serialize};

/// Sampled stride kept for comparability with the v1 baselines (which
/// predate the incremental connectivity kernel and could not afford
/// per-event checks above `n = 1024`).
const SAMPLED_STRIDE: u64 = 64;

/// The reference auditor's per-node BFS contiguity is cubically slower
/// than the packed kernels; above this dimension it is skipped.
const VECBOOL_MAX_DIM: u32 = 16;

/// Per-dimension measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct BenchEntry {
    d: u32,
    events: u64,
    /// The default configuration: contiguity/frontier after every event.
    packed_stride1_events_per_sec: f64,
    /// Stride-64 sampling, comparable to the v1 baseline column.
    packed_events_per_sec: f64,
    /// `0.0` when the reference auditor was skipped.
    vecbool_events_per_sec: f64,
    /// Stride-64 packed over vecbool; `0.0` when vecbool was skipped.
    speedup: f64,
}

/// The committed `BENCH_audit.json` shape.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct BenchReport {
    schema: String,
    /// Stride of the *sampled* packed/vecbool columns (the stride-1 column
    /// is, by definition, 1).
    contiguity_every: u64,
    dims: Vec<BenchEntry>,
}

/// The pre-packed-kernel auditor: `Vec<bool>` node predicates, per-node
/// BFS for recontamination spread and contiguity.
struct VecBoolAuditor<'a> {
    cube: &'a Hypercube,
    contaminated: Vec<bool>,
    occupancy: Vec<u32>,
    homebase: Node,
    events_applied: u64,
    recontaminations: u64,
    contiguity_ok: bool,
}

impl<'a> VecBoolAuditor<'a> {
    fn new(cube: &'a Hypercube, homebase: Node) -> Self {
        VecBoolAuditor {
            cube,
            contaminated: vec![true; cube.node_count()],
            occupancy: vec![0; cube.node_count()],
            homebase,
            events_applied: 0,
            recontaminations: 0,
            contiguity_ok: true,
        }
    }

    fn occupy(&mut self, x: Node) {
        self.occupancy[x.index()] += 1;
        self.contaminated[x.index()] = false;
    }

    fn maybe_recontaminate(&mut self, x: Node) {
        if self.contaminated[x.index()] || self.occupancy[x.index()] > 0 {
            return;
        }
        let mut nbrs = Vec::new();
        self.cube.neighbors_into(x, &mut nbrs);
        if !nbrs.iter().any(|&y| self.contaminated[y.index()]) {
            return;
        }
        self.contaminated[x.index()] = true;
        self.recontaminations += 1;
        let mut queue = VecDeque::new();
        queue.push_back(x);
        while let Some(u) = queue.pop_front() {
            self.cube.neighbors_into(u, &mut nbrs);
            for &y in &nbrs {
                if !self.contaminated[y.index()] && self.occupancy[y.index()] == 0 {
                    self.contaminated[y.index()] = true;
                    self.recontaminations += 1;
                    queue.push_back(y);
                }
            }
        }
    }

    fn is_contiguous(&self) -> bool {
        let safe_total = self.contaminated.iter().filter(|&&c| !c).count();
        if safe_total == 0 {
            return true;
        }
        if self.contaminated[self.homebase.index()] {
            return false;
        }
        let mut seen = vec![false; self.cube.node_count()];
        let mut queue = VecDeque::new();
        let mut nbrs = Vec::new();
        seen[self.homebase.index()] = true;
        queue.push_back(self.homebase);
        let mut count = 1usize;
        while let Some(x) = queue.pop_front() {
            self.cube.neighbors_into(x, &mut nbrs);
            for &y in &nbrs {
                if !self.contaminated[y.index()] && !seen[y.index()] {
                    seen[y.index()] = true;
                    count += 1;
                    queue.push_back(y);
                }
            }
        }
        count == safe_total
    }

    fn observe(&mut self, event: &Event) {
        self.events_applied += 1;
        match event.kind {
            EventKind::Spawn { node, .. } => self.occupy(node),
            EventKind::Move { from, to, .. } => {
                self.occupy(to);
                self.occupancy[from.index()] -= 1;
                if self.occupancy[from.index()] == 0 {
                    self.maybe_recontaminate(from);
                }
            }
            EventKind::CloneSpawn { to, .. } => self.occupy(to),
            EventKind::Terminate { .. } => {}
        }
        if self.events_applied % SAMPLED_STRIDE == 0 && !self.is_contiguous() {
            self.contiguity_ok = false;
        }
    }

    fn verdict(&self) -> bool {
        self.recontaminations == 0 && self.contiguity_ok && self.is_contiguous()
    }
}

/// Run `f` repeatedly until the time budget is spent (at least once) and
/// return the fastest call — the minimum is far more stable than the mean
/// on shared machines, which matters for the 25% regression gate.
fn measure<F: FnMut() -> bool>(mut f: F, budget: Duration) -> Duration {
    let start = Instant::now();
    let mut best = Duration::MAX;
    loop {
        let t = Instant::now();
        assert!(std::hint::black_box(f()), "auditor rejected a clean trace");
        best = best.min(t.elapsed());
        if start.elapsed() >= budget {
            break;
        }
    }
    best
}

fn bench_dim(d: u32, budget: Duration, packed_only: bool) -> BenchEntry {
    let cube = Hypercube::new(d);
    let mut events = Vec::new();
    CleanStrategy::new(cube).synthesize_into(&mut events);
    let n_events = events.len() as u64;
    let run_packed = |stride: u64| {
        measure(
            || {
                let mut verifier = Verifier::new(&cube, Node::ROOT, stride);
                verifier.observe_all(&events);
                verifier.verdict().monotone
            },
            budget,
        )
    };
    let rate = |t: Duration| n_events as f64 / t.as_secs_f64();

    let packed_stride1 = run_packed(1);
    println!(
        "audit_throughput/packed-stride1/d{}: {:.3e} elem/s ({} events)",
        d,
        rate(packed_stride1),
        n_events
    );
    let packed = run_packed(SAMPLED_STRIDE);
    println!(
        "audit_throughput/packed/d{}: {:.3e} elem/s",
        d,
        rate(packed)
    );
    if packed_only || d > VECBOOL_MAX_DIM {
        return BenchEntry {
            d,
            events: n_events,
            packed_stride1_events_per_sec: rate(packed_stride1),
            packed_events_per_sec: rate(packed),
            vecbool_events_per_sec: 0.0,
            speedup: 0.0,
        };
    }

    let vecbool = measure(
        || {
            let mut auditor = VecBoolAuditor::new(&cube, Node::ROOT);
            for e in &events {
                auditor.observe(e);
            }
            auditor.verdict()
        },
        budget,
    );
    let entry = BenchEntry {
        d,
        events: n_events,
        packed_stride1_events_per_sec: rate(packed_stride1),
        packed_events_per_sec: rate(packed),
        vecbool_events_per_sec: rate(vecbool),
        speedup: vecbool.as_secs_f64() / packed.as_secs_f64(),
    };
    println!(
        "audit_throughput/vecbool/d{}: {:.3e} elem/s (speedup {:.2}x)",
        d, entry.vecbool_events_per_sec, entry.speedup
    );
    entry
}

/// Measure every dimension, then gate against `BENCH_AUDIT_BASELINE` or
/// write the report to `out`.
pub(crate) fn cmd_bench_audit(out: &str) -> Result<(), String> {
    let budget = Duration::from_millis(
        std::env::var("BENCH_AUDIT_BUDGET_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(300),
    );
    // `BENCH_AUDIT_DIMS=15,16,20` overrides the default cube sizes;
    // `BENCH_AUDIT_PACKED_ONLY=1` skips the reference auditor even at the
    // dimensions where it would otherwise run (d > VECBOOL_MAX_DIM skips
    // it regardless — its per-node BFS takes hours on those traces).
    let dims = crate::env_list("BENCH_AUDIT_DIMS", |t| {
        t.parse::<u32>().map_err(|e| e.to_string())
    })?
    .unwrap_or_else(|| vec![10, 14, 16, 18]);
    let packed_only = std::env::var("BENCH_AUDIT_PACKED_ONLY").is_ok();
    let report = BenchReport {
        schema: "hypersweep-audit-bench/v2".into(),
        contiguity_every: SAMPLED_STRIDE,
        dims: dims
            .iter()
            .map(|&d| bench_dim(d, budget, packed_only))
            .collect(),
    };

    if let Ok(baseline_path) = std::env::var("BENCH_AUDIT_BASELINE") {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
        let baseline: BenchReport = serde_json::from_str(&text).map_err(|e| {
            format!(
                "baseline {baseline_path} does not parse (v1 baselines predate the \
                 stride-1 column; regenerate): {e}"
            )
        })?;
        if baseline.schema != report.schema {
            return Err(format!(
                "baseline schema '{}' != '{}'; regenerate {baseline_path}",
                baseline.schema, report.schema
            ));
        }
        let mut regressed = false;
        for entry in &report.dims {
            let Some(base) = baseline.dims.iter().find(|b| b.d == entry.d) else {
                continue;
            };
            // Gate both packed columns: the sampled column guards the raw
            // event-application kernels, the stride-1 column guards the
            // incremental connectivity queries layered on top.
            let checks = [
                (
                    "stride1",
                    entry.packed_stride1_events_per_sec,
                    base.packed_stride1_events_per_sec,
                ),
                (
                    "sampled",
                    entry.packed_events_per_sec,
                    base.packed_events_per_sec,
                ),
            ];
            for (label, got, expected) in checks {
                let ratio = got / expected;
                println!(
                    "audit_throughput/check/{label}/d{}: {:.2}x of baseline",
                    entry.d, ratio
                );
                if ratio < 0.75 {
                    eprintln!(
                        "REGRESSION ({label}) at d={}: {:.3e} events/s vs baseline {:.3e} \
                         (>25% slower)",
                        entry.d, got, expected
                    );
                    regressed = true;
                }
            }
        }
        if regressed {
            return Err("audit throughput regressed against the committed baseline".into());
        }
    } else {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(out, json + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}
