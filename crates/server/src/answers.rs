//! The answer tier: every `plan`/`predict` line the server can ever emit,
//! each serialized the first time a client asks for it.
//!
//! `plan` and `predict` are pure functions of `(strategy, dim)` with
//! `dim ≤ 20` — a few hundred distinct answers in total. Each is rendered
//! on its first request and kept, so a repeat is one bounds-checked array
//! lookup returning an already-serialized wire line: no worker dispatch,
//! no closed-form evaluation, no JSON serialization, no allocation. Startup
//! renders nothing. The table stores *exactly* the bytes the dispatcher
//! would produce — including the `unsupported` error lines for the baseline
//! strategies — so serving from it is observationally identical to
//! dispatching (the differential test in `tests/answers.rs` pins this
//! byte-for-byte over the whole table).

use std::sync::{Arc, OnceLock};

use hypersweep_analysis::StrategyKind;

use crate::dispatch::{plan_reply, predict_reply};
use crate::protocol::{Request, Response};

/// One rendered reply: the wire line plus whether it is a success (drives
/// which request counter a table hit increments).
pub(crate) struct Answer {
    /// The exact bytes `Dispatcher::handle` would serialize (no newline).
    pub line: Arc<str>,
    /// `false` for the baselines' `unsupported` error lines.
    pub ok: bool,
}

/// Which closed-form family an answer belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AnswerKind {
    /// A `plan` reply.
    Plan,
    /// A `predict` reply.
    Predict,
}

impl AnswerKind {
    /// Serialize the closed-form reply for `(strategy, dim)`.
    fn render(self, strategy: StrategyKind, dim: u32) -> Answer {
        let reply = match self {
            AnswerKind::Plan => plan_reply(strategy, dim).map(Response::Plan),
            AnswerKind::Predict => predict_reply(strategy, dim).map(Response::Predict),
        };
        let ok = reply.is_ok();
        let line = reply.unwrap_or_else(Response::Error).to_line();
        Answer {
            line: line.into(),
            ok,
        }
    }
}

/// All `plan`/`predict` answers for every wire strategy at `1..=max_dim`.
pub struct AnswerTable {
    max_dim: u32,
    /// `[kind][strategy index in StrategyKind::ALL][dim - 1]`, flattened;
    /// a cell is filled on the first lookup of its answer.
    answers: Vec<OnceLock<Answer>>,
}

impl AnswerTable {
    /// A table for every answer up to `max_dim` (the server's dimension
    /// cap, itself bounded by `REPORT_MAX_DIM = 20`). Nothing is rendered
    /// until it is looked up.
    pub fn build(max_dim: u32) -> Self {
        let mut table = AnswerTable {
            max_dim,
            answers: Vec::new(),
        };
        table.answers.resize_with(table.len(), OnceLock::new);
        table
    }

    /// Number of answers the table covers.
    pub fn len(&self) -> usize {
        2 * StrategyKind::ALL.len() * self.max_dim as usize
    }

    /// Whether the table holds no answers (a zero `max_dim`; never built
    /// by the server, which validates `max_dim >= 1`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The answer for `(kind, strategy, dim)`, rendered now if this is its
    /// first lookup, or `None` when `dim` is outside `1..=max_dim` (those
    /// fall through to the dispatcher, which produces the structured
    /// `bad_dimension` error).
    pub(crate) fn lookup(
        &self,
        kind: AnswerKind,
        strategy: StrategyKind,
        dim: u32,
    ) -> Option<&Answer> {
        if dim == 0 || dim > self.max_dim {
            return None;
        }
        let si = StrategyKind::ALL.iter().position(|&s| s == strategy)?;
        let row = kind as usize * StrategyKind::ALL.len() + si;
        let cell = &self.answers[row * self.max_dim as usize + dim as usize - 1];
        Some(cell.get_or_init(|| kind.render(strategy, dim)))
    }

    /// The table entry answering `request`, when it is a `plan`/`predict`
    /// within the table's dimension range.
    pub(crate) fn lookup_request(&self, request: &Request) -> Option<&Answer> {
        match *request {
            Request::Plan { strategy, dim } => self.lookup(AnswerKind::Plan, strategy, dim),
            Request::Predict { strategy, dim } => self.lookup(AnswerKind::Predict, strategy, dim),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cells rendered so far.
    fn rendered(table: &AnswerTable) -> usize {
        table.answers.iter().filter(|a| a.get().is_some()).count()
    }

    #[test]
    fn table_covers_every_strategy_and_dimension() {
        let table = AnswerTable::build(20);
        assert_eq!(table.len(), 2 * 8 * 20);
        assert!(!table.is_empty());
        for strategy in StrategyKind::ALL {
            for dim in 1..=20 {
                for kind in [AnswerKind::Plan, AnswerKind::Predict] {
                    let answer = table.lookup(kind, strategy, dim).expect("in range");
                    assert!(!answer.line.is_empty());
                    // The baselines have no closed forms; everything else
                    // succeeds.
                    let closed_form =
                        !matches!(strategy, StrategyKind::Flood | StrategyKind::Frontier);
                    assert_eq!(answer.ok, closed_form, "{strategy:?} d={dim}");
                }
            }
        }
        assert_eq!(rendered(&table), table.len());
    }

    #[test]
    fn answers_render_on_first_lookup_only() {
        let table = AnswerTable::build(16);
        assert_eq!(rendered(&table), 0, "building renders nothing");
        let first = table.lookup(AnswerKind::Predict, StrategyKind::Cloning, 9);
        let first = Arc::clone(&first.expect("in range").line);
        assert_eq!(rendered(&table), 1);
        let again = table.lookup(AnswerKind::Predict, StrategyKind::Cloning, 9);
        assert!(Arc::ptr_eq(&first, &again.expect("in range").line));
        assert_eq!(rendered(&table), 1);
        // Each (kind, strategy, dim) owns its cell.
        table.lookup(AnswerKind::Plan, StrategyKind::Cloning, 9);
        table.lookup(AnswerKind::Predict, StrategyKind::Frontier, 9);
        table.lookup(AnswerKind::Predict, StrategyKind::Cloning, 16);
        assert_eq!(rendered(&table), 4);
    }

    #[test]
    fn out_of_range_dimensions_miss() {
        let table = AnswerTable::build(10);
        assert!(table
            .lookup(AnswerKind::Plan, StrategyKind::Clean, 0)
            .is_none());
        assert!(table
            .lookup(AnswerKind::Predict, StrategyKind::Clean, 11)
            .is_none());
        assert!(table
            .lookup(AnswerKind::Plan, StrategyKind::Clean, 10)
            .is_some());
    }
}
