//! Streaming event consumption.
//!
//! The closed-form trace generators (`synthesize` in the strategy crates)
//! historically returned a materialized `Vec<Event>` — at `H_20` that is
//! ~20M events held live just so an auditor could iterate them once. An
//! [`EventSink`] inverts the flow: generators push each event into a sink
//! as it is produced, and the sink decides whether to buffer (a
//! `Vec<Event>`), audit online (the intruder crate's `Verifier`), or drop
//! ([`NullSink`]). Run memory becomes O(state), not O(moves).

use serde::{Deserialize, Serialize};

use crate::event::{Event, EventKind};

/// A consumer of a run's event stream, fed strictly in trace order.
pub trait EventSink {
    /// Consume one event.
    fn emit(&mut self, event: Event);
}

/// Streaming digest of a trace: per-kind event counts and the last logical
/// timestamp, computed in `O(1)` space while the events flow past. This is
/// what a server can return for an audited multi-million-event trace
/// without ever materializing it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Total events observed.
    pub events: u64,
    /// `Spawn` events.
    pub spawns: u64,
    /// `Move` events.
    pub moves: u64,
    /// `CloneSpawn` events.
    pub clones: u64,
    /// `Terminate` events.
    pub terminates: u64,
    /// Largest logical timestamp observed (`0` for an empty trace).
    pub max_time: u64,
}

impl TraceSummary {
    /// Fold one event into the digest.
    pub fn record(&mut self, event: &Event) {
        self.events += 1;
        self.max_time = self.max_time.max(event.time);
        match event.kind {
            EventKind::Spawn { .. } => self.spawns += 1,
            EventKind::Move { .. } => self.moves += 1,
            EventKind::CloneSpawn { .. } => self.clones += 1,
            EventKind::Terminate { .. } => self.terminates += 1,
        }
    }
}

/// Adapter sink that keeps a [`TraceSummary`] while forwarding every event
/// to an inner sink — tee a stream through an online auditor *and* collect
/// the digest in one pass.
pub struct SummarizingSink<'a> {
    inner: &'a mut dyn EventSink,
    summary: TraceSummary,
}

impl<'a> SummarizingSink<'a> {
    /// Wrap `inner`, starting from an empty summary.
    pub fn new(inner: &'a mut dyn EventSink) -> Self {
        SummarizingSink {
            inner,
            summary: TraceSummary::default(),
        }
    }

    /// The digest accumulated so far.
    pub fn summary(&self) -> TraceSummary {
        self.summary
    }
}

impl EventSink for SummarizingSink<'_> {
    fn emit(&mut self, event: Event) {
        self.summary.record(&event);
        self.inner.emit(event);
    }
}

/// How many events a [`MeteredSink`] accumulates locally before flushing
/// them to the shared `sink.events` counter. Per-event atomic traffic from
/// an `H_20` synthesis (~20M events) would dominate the stream; batched,
/// the counter costs one increment per 1024 events plus one on drop.
const METER_FLUSH_EVERY: u64 = 1024;

/// Adapter sink that counts events into a telemetry counter while
/// forwarding them to the inner sink, so multi-million-event streamed
/// audits are observable (`sink.events`) while in flight.
///
/// The count is batched (see [`METER_FLUSH_EVERY`]) and the remainder is
/// flushed on drop; readers see the stream advance in coarse steps.
pub struct MeteredSink<S: EventSink> {
    inner: S,
    counter: hypersweep_telemetry::Counter,
    pending: u64,
}

impl<S: EventSink> MeteredSink<S> {
    /// Wrap `inner`, counting into `sink.events` of the process-global
    /// telemetry registry (a no-op until one is installed).
    pub fn new(inner: S) -> Self {
        MeteredSink::with_counter(inner, hypersweep_telemetry::global().counter("sink.events"))
    }

    /// Wrap `inner`, counting into an explicit counter.
    pub fn with_counter(inner: S, counter: hypersweep_telemetry::Counter) -> Self {
        MeteredSink {
            inner,
            counter,
            pending: 0,
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Push the locally-batched count to the counter.
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.counter.add(self.pending);
            self.pending = 0;
        }
    }
}

impl<S: EventSink> EventSink for MeteredSink<S> {
    fn emit(&mut self, event: Event) {
        self.pending += 1;
        if self.pending >= METER_FLUSH_EVERY {
            self.flush();
        }
        self.inner.emit(event);
    }
}

impl<S: EventSink> Drop for MeteredSink<S> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Discards every event — for metrics-only synthesis.
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _event: Event) {}
}

/// Buffering sink: collects the full trace, for callers that genuinely
/// need the materialized `Vec` (figures, trace export, engine replay).
impl EventSink for Vec<Event> {
    fn emit(&mut self, event: Event) {
        self.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Role};
    use hypersweep_topology::Node;

    #[test]
    fn vec_sink_buffers_in_order() {
        let mut sink: Vec<Event> = Vec::new();
        for t in 0..3 {
            sink.emit(Event {
                time: t,
                kind: EventKind::Spawn {
                    agent: t as u32,
                    node: Node(0),
                    role: Role::Worker,
                },
            });
        }
        assert_eq!(sink.len(), 3);
        assert!(sink.iter().enumerate().all(|(i, e)| e.time == i as u64));
    }

    #[test]
    fn summarizing_sink_counts_and_forwards() {
        let mut buffer: Vec<Event> = Vec::new();
        let mut sink = SummarizingSink::new(&mut buffer);
        sink.emit(Event {
            time: 0,
            kind: EventKind::Spawn {
                agent: 0,
                node: Node(0),
                role: Role::Worker,
            },
        });
        sink.emit(Event {
            time: 3,
            kind: EventKind::Move {
                agent: 0,
                from: Node(0),
                to: Node(1),
                role: Role::Worker,
            },
        });
        sink.emit(Event {
            time: 5,
            kind: EventKind::Terminate {
                agent: 0,
                node: Node(1),
            },
        });
        let summary = sink.summary();
        assert_eq!(
            summary,
            TraceSummary {
                events: 3,
                spawns: 1,
                moves: 1,
                clones: 0,
                terminates: 1,
                max_time: 5,
            }
        );
        assert_eq!(buffer.len(), 3, "events must still reach the inner sink");
    }

    #[test]
    fn metered_sink_counts_batched_and_flushes_on_drop() {
        let registry = hypersweep_telemetry::MetricsRegistry::new();
        let counter = registry.counter("sink.events");
        let spawn = |t| Event {
            time: t,
            kind: EventKind::Spawn {
                agent: 0,
                node: Node(0),
                role: Role::Worker,
            },
        };
        {
            let mut sink = MeteredSink::with_counter(Vec::new(), counter.clone());
            // One short of a batch: nothing flushed yet.
            for t in 0..(METER_FLUSH_EVERY - 1) {
                sink.emit(spawn(t));
            }
            assert_eq!(counter.get(), 0, "the batch must not flush early");
            sink.emit(spawn(METER_FLUSH_EVERY));
            assert_eq!(counter.get(), METER_FLUSH_EVERY);
            // A partial tail, flushed by drop.
            for t in 0..5 {
                sink.emit(spawn(t));
            }
            assert_eq!(sink.inner().len() as u64, METER_FLUSH_EVERY + 5);
        }
        assert_eq!(counter.get(), METER_FLUSH_EVERY + 5);
    }

    #[test]
    fn metered_sink_forwards_through_nested_sinks() {
        let registry = hypersweep_telemetry::MetricsRegistry::new();
        let mut buffer: Vec<Event> = Vec::new();
        {
            let summarizing = SummarizingSink::new(&mut buffer);
            let mut sink = MeteredSink::with_counter(summarizing, registry.counter("sink.events"));
            sink.emit(Event {
                time: 2,
                kind: EventKind::Terminate {
                    agent: 0,
                    node: Node(1),
                },
            });
            assert_eq!(sink.inner().summary().terminates, 1);
        }
        assert_eq!(buffer.len(), 1);
        assert_eq!(registry.snapshot().counter("sink.events"), Some(1));
    }

    #[test]
    fn null_sink_discards() {
        // Just exercise the impl; nothing observable.
        NullSink.emit(Event {
            time: 0,
            kind: EventKind::Terminate {
                agent: 0,
                node: Node(0),
            },
        });
    }
}
