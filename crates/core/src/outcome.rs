//! Common strategy interface and verified outcomes.

use hypersweep_intruder::{verify_trace, MonitorConfig, Verdict, Verifier};
use hypersweep_sim::{
    AgentProgram, Engine, Event, EventSink, Metrics, NullSink, Policy, RunError, TraceSummary,
};
use hypersweep_telemetry::Counter;
use hypersweep_topology::{Hypercube, Node};

/// Why a strategy could not run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrategyError {
    /// The underlying executor failed (deadlock, livelock, invalid action).
    Run(RunError),
    /// The strategy does not support the requested schedule: the §5
    /// synchronous variant under an asynchronous adversary, or the
    /// frontier baseline, which has no engine embedding, under any.
    UnsupportedPolicy {
        /// The strategy's name.
        strategy: &'static str,
        /// The rejected policy.
        policy: Policy,
    },
}

impl From<RunError> for StrategyError {
    fn from(e: RunError) -> Self {
        StrategyError::Run(e)
    }
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::Run(e) => write!(f, "{e}"),
            StrategyError::UnsupportedPolicy { strategy, policy } => {
                write!(
                    f,
                    "{strategy} does not support the {} schedule",
                    policy.name()
                )
            }
        }
    }
}

impl std::error::Error for StrategyError {}

/// A completed, audited search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Move/team/time counters.
    pub metrics: Metrics,
    /// The verifier's verdict (monotonicity, contiguity, frontier guards,
    /// coverage, capture).
    pub verdict: Verdict,
    /// Per-kind event counts of the trace, collected while streaming it
    /// through the auditor. `None` when the run was not streamed (engine
    /// runs, unaudited fast runs).
    pub trace_summary: Option<TraceSummary>,
}

impl SearchOutcome {
    /// Convenience: the search decontaminated everything, monotonically and
    /// contiguously, and captured the intruder.
    pub fn is_complete(&self) -> bool {
        self.verdict.is_complete()
    }
}

/// A contiguous-search strategy on a hypercube.
///
/// A strategy defines its name, its team on the engine and its canonical
/// trace; the audited and unaudited fast paths ([`SearchStrategy::fast`])
/// are derived from the trace. An engine-backed strategy builds its team
/// in one inherent `engine(policy)` method, which both [`SearchStrategy::run`]
/// (through [`audited_run`]) and the schedule checker execute.
pub trait SearchStrategy {
    /// Short stable name for reports.
    fn name(&self) -> &'static str;

    /// The cube being searched.
    fn cube(&self) -> Hypercube;

    /// Execute on the discrete-event engine under the given schedule and
    /// audit the trace.
    fn run(&self, policy: Policy) -> Result<SearchOutcome, StrategyError>;

    /// Synthesize the canonical run directly (no engine), streaming every
    /// event into `sink` as it is produced (a `Vec<Event>` buffers them),
    /// and return its exact metrics.
    fn synthesize_into(&self, sink: &mut dyn EventSink) -> Metrics;

    /// The canonical run's metrics; with `audit` the synthesized trace is
    /// also streamed through the verifier.
    fn fast(&self, audit: bool) -> SearchOutcome {
        if audit {
            streamed_outcome(self.cube(), |sink| self.synthesize_into(sink))
        } else {
            synthesized_outcome(self.synthesize_into(&mut NullSink))
        }
    }
}

/// Default verifier configuration for a cube: full per-event checks at
/// every dimension, with a greedy evader starting at the far corner `11…1`
/// on cubes of up to 1024 nodes and a lazy evader on larger ones.
///
/// A greedy reaction floods the intruder's contaminated component and
/// grows distance balls around the guards, word-parallel: `O(waves · d ·
/// n/64)` words, where a wave is one flood pass or one ball step (see
/// `hypersweep_intruder::evader`; EXPERIMENTS.md gives the audited run
/// times). It runs only after an event that flips some node's
/// contaminated status, which a monotone run does once per cleaned node;
/// every other event costs the verifier's inline test of whether the
/// evader can move. The lazy evader moves only when its node is cleaned,
/// at `O(d)`. The switch stays at 1024 for two reasons. Per cleaned node,
/// the greedy cost still grows with `n`, and large cubes clean millions of
/// nodes. And the switch decides which evader every audit's capture event
/// comes from, so moving it would change the capture events that
/// `report`, `run`, `audit` and served audits print.
///
/// Contiguity and frontier coverage are checked after *every* event —
/// since the incremental clean-region connectivity kernel both checks are
/// `O(1)` per query, so there is nothing left to stride-sample. On `H_d`
/// each event of a monotone run costs the field `O(d)` updates at most:
/// see `hypersweep_intruder::ContaminationField`.
pub fn default_monitor_config(cube: Hypercube) -> MonitorConfig {
    let n = cube.node_count();
    let far = Node(n as u32 - 1);
    if n <= 1 {
        return MonitorConfig {
            stride: 1,
            intruder_start: None,
            greedy_evader: false,
        };
    }
    MonitorConfig {
        stride: 1,
        intruder_start: Some(far),
        greedy_evader: n <= 1024,
    }
}

/// Run `engine` to completion and audit its trace: the body of every
/// engine-backed strategy's [`SearchStrategy::run`].
pub fn audited_run<P: AgentProgram>(engine: Engine<P>) -> Result<SearchOutcome, StrategyError> {
    let cube = engine.cube();
    let report = engine.run()?;
    let verdict = verify_trace(
        &cube,
        Node::ROOT,
        &report.events,
        default_monitor_config(cube),
    );
    Ok(SearchOutcome {
        metrics: report.metrics,
        verdict,
        trace_summary: None,
    })
}

/// How many events an [`AuditSink`] counts locally before adding them to
/// the shared `sink.events` counter. Per-event atomic traffic from an
/// `H_20` synthesis (~20M events) would dominate the stream; batched, the
/// counter costs one increment per 1024 events plus one at the end.
const METER_FLUSH_EVERY: u64 = 1024;

/// The sink a streamed audit feeds. For each event it folds the
/// [`TraceSummary`], meters the `sink.events` counter of the process
/// telemetry registry (a no-op unless one is installed, so a daemon can
/// watch a multi-million-event audit advance while it runs) and observes
/// the event: one dynamic call per event.
struct AuditSink<'a> {
    verifier: Verifier<'a>,
    summary: TraceSummary,
    counter: Counter,
    /// Events not yet added to `counter`.
    pending: u64,
}

impl AuditSink<'_> {
    /// The verdict and the trace's digest; adds the metered tail.
    fn finish(self) -> (Verdict, TraceSummary) {
        self.counter.add(self.pending);
        (self.verifier.verdict(), self.summary)
    }
}

impl EventSink for AuditSink<'_> {
    fn emit(&mut self, event: Event) {
        self.summary.record(&event);
        self.pending += 1;
        if self.pending == METER_FLUSH_EVERY {
            self.counter.add(self.pending);
            self.pending = 0;
        }
        let _ = self.verifier.observe(&event, event.time);
    }
}

/// Synthesize a run *through* the online verifier: the generator streams
/// each event into it as it is produced, so the full trace is never
/// materialized — run memory is `O(n)` state instead of `O(moves)`. The
/// verdict is identical to buffering the trace and calling
/// [`verify_trace`], because the sink runs the observe loop.
fn streamed_outcome<F>(cube: Hypercube, synthesize: F) -> SearchOutcome
where
    F: FnOnce(&mut dyn EventSink) -> Metrics,
{
    let mut sink = AuditSink {
        verifier: Verifier::with_config(&cube, Node::ROOT, default_monitor_config(cube)),
        summary: TraceSummary::default(),
        counter: hypersweep_telemetry::global().counter("sink.events"),
        pending: 0,
    };
    let metrics = synthesize(&mut sink);
    let (verdict, summary) = sink.finish();
    SearchOutcome {
        metrics,
        verdict,
        trace_summary: Some(summary),
    }
}

/// Bundle the metrics of an unaudited synthesized run. No trace was
/// checked, so the verdict's checks hold vacuously; coverage is the
/// generator's guarantee by construction.
fn synthesized_outcome(metrics: Metrics) -> SearchOutcome {
    SearchOutcome {
        metrics,
        verdict: Verdict {
            monotone: true,
            contiguous: true,
            all_clean: true,
            capture: None,
            violations: Vec::new(),
            events: 0,
        },
        trace_summary: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_config_checks_contiguity_per_event_at_every_dimension() {
        let small = default_monitor_config(Hypercube::new(6));
        assert_eq!(small.stride, 1);
        assert!(small.greedy_evader);
        assert_eq!(small.intruder_start, Some(Node(63)));

        let large = default_monitor_config(Hypercube::new(14));
        assert_eq!(
            large.stride, 1,
            "incremental connectivity makes per-event contiguity affordable at scale"
        );
        assert!(!large.greedy_evader);
    }

    #[test]
    fn streamed_outcome_meters_events_into_the_global_registry() {
        let registry = hypersweep_telemetry::MetricsRegistry::new();
        hypersweep_telemetry::install_global(&registry);
        let cube = Hypercube::new(3);
        let outcome = streamed_outcome(cube, |sink| {
            for t in 0..3u64 {
                sink.emit(hypersweep_sim::Event {
                    time: t,
                    kind: hypersweep_sim::EventKind::Spawn {
                        agent: t as u32,
                        node: Node::ROOT,
                        role: hypersweep_sim::Role::Worker,
                    },
                });
            }
            Metrics::default()
        });
        assert_eq!(outcome.trace_summary.map(|s| s.events), Some(3));
        // The sink added its tail to `sink.events` at the end. Other tests
        // in this process may also stream through the global registry, so
        // assert a floor, not equality.
        assert!(registry.snapshot().counter("sink.events").unwrap_or(0) >= 3);
    }

    #[test]
    fn audit_sink_meters_in_batches_and_adds_the_tail_at_the_end() {
        let registry = hypersweep_telemetry::MetricsRegistry::new();
        let counter = registry.counter("sink.events");
        let cube = Hypercube::new(3);
        let mut sink = AuditSink {
            verifier: Verifier::with_config(&cube, Node::ROOT, default_monitor_config(cube)),
            summary: TraceSummary::default(),
            counter: counter.clone(),
            pending: 0,
        };
        let spawn = |t: u64| hypersweep_sim::Event {
            time: t,
            kind: hypersweep_sim::EventKind::Spawn {
                agent: t as u32,
                node: Node::ROOT,
                role: hypersweep_sim::Role::Worker,
            },
        };
        for t in 0..METER_FLUSH_EVERY - 1 {
            sink.emit(spawn(t));
        }
        assert_eq!(counter.get(), 0, "the batch must not be added early");
        sink.emit(spawn(METER_FLUSH_EVERY));
        assert_eq!(counter.get(), METER_FLUSH_EVERY);
        for t in 0..5 {
            sink.emit(spawn(t));
        }
        let (verdict, summary) = sink.finish();
        assert_eq!(counter.get(), METER_FLUSH_EVERY + 5);
        assert_eq!(summary.events, METER_FLUSH_EVERY + 5);
        assert_eq!(summary.spawns, METER_FLUSH_EVERY + 5);
        assert_eq!(summary.max_time, METER_FLUSH_EVERY);
        assert_eq!(
            verdict.events,
            METER_FLUSH_EVERY + 5,
            "every event was observed"
        );
    }

    #[test]
    fn strategy_error_displays() {
        let e = StrategyError::UnsupportedPolicy {
            strategy: "synchronous-variant",
            policy: Policy::Fifo,
        };
        assert!(e.to_string().contains("fifo"));
        let r: StrategyError = RunError::ActivationLimit.into();
        assert!(r.to_string().contains("activation"));
    }
}
