//! Streaming event consumption.
//!
//! The closed-form trace generators (`synthesize` in the strategy crates)
//! historically returned a materialized `Vec<Event>` — at `H_20` that is
//! ~20M events held live just so an auditor could iterate them once. An
//! [`EventSink`] inverts the flow: generators push each event into a sink
//! as it is produced, and the sink decides whether to buffer (a
//! `Vec<Event>`), audit online (the core crate's streamed audit, which
//! feeds the intruder crate's `Verifier`), or drop ([`NullSink`]). Run
//! memory becomes O(state), not O(moves).

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
    #[inline]
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
    fn trace_summary_counts_each_kind_and_the_last_time() {
        let mut summary = TraceSummary::default();
        for event in [
            Event {
                time: 0,
                kind: EventKind::Spawn {
                    agent: 0,
                    node: Node(0),
                    role: Role::Worker,
                },
            },
            Event {
                time: 5,
                kind: EventKind::Move {
                    agent: 0,
                    from: Node(0),
                    to: Node(1),
                    role: Role::Worker,
                },
            },
            Event {
                time: 3,
                kind: EventKind::Terminate {
                    agent: 0,
                    node: Node(1),
                },
            },
        ] {
            summary.record(&event);
        }
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
