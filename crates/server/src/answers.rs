//! The precomputed answer tier: every `plan`/`predict` line the server can
//! ever emit, serialized once at startup.
//!
//! `plan` and `predict` are pure functions of `(strategy, dim)` with
//! `dim ≤ 20` — a few hundred distinct answers in total. Building them all
//! up front turns the dominant request class into one bounds-checked array
//! lookup returning an already-serialized wire line: no worker dispatch,
//! no closed-form evaluation, no JSON serialization, no allocation on the
//! hot path. The table stores *exactly* the bytes the dispatcher would
//! produce — including the `unsupported` error lines for the baseline
//! strategies — so serving from it is observationally identical to
//! dispatching (the differential test in `tests/answers.rs` pins this
//! byte-for-byte over the whole table).

use hypersweep_analysis::StrategyKind;

use crate::dispatch::{plan_reply, predict_reply};
use crate::protocol::{Request, Response};

/// One precomputed reply: the wire line plus whether it is a success
/// (drives which request counter a table hit increments).
pub(crate) struct Answer {
    /// The exact bytes `Dispatcher::handle` would serialize (no newline).
    pub line: String,
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

/// All `plan`/`predict` answers for every wire strategy at `1..=max_dim`.
pub struct AnswerTable {
    max_dim: u32,
    /// `[strategy index in StrategyKind::ALL][dim - 1]`.
    plan: Vec<Vec<Answer>>,
    predict: Vec<Vec<Answer>>,
}

impl AnswerTable {
    /// Precompute every answer up to `max_dim` (the server's dimension
    /// cap, itself bounded by `REPORT_MAX_DIM = 20`).
    pub fn build(max_dim: u32) -> Self {
        let build_rows = |kind: AnswerKind| {
            StrategyKind::ALL
                .iter()
                .map(|&strategy| {
                    (1..=max_dim)
                        .map(|dim| {
                            let reply = match kind {
                                AnswerKind::Plan => plan_reply(strategy, dim).map(Response::Plan),
                                AnswerKind::Predict => {
                                    predict_reply(strategy, dim).map(Response::Predict)
                                }
                            };
                            match reply {
                                Ok(response) => Answer {
                                    line: response.to_line(),
                                    ok: true,
                                },
                                Err(e) => Answer {
                                    line: Response::Error(e).to_line(),
                                    ok: false,
                                },
                            }
                        })
                        .collect()
                })
                .collect()
        };
        AnswerTable {
            max_dim,
            plan: build_rows(AnswerKind::Plan),
            predict: build_rows(AnswerKind::Predict),
        }
    }

    /// Number of precomputed answers.
    pub fn len(&self) -> usize {
        2 * StrategyKind::ALL.len() * self.max_dim as usize
    }

    /// Whether the table holds no answers (a zero `max_dim`; never built
    /// by the server, which validates `max_dim >= 1`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The precomputed answer for `(kind, strategy, dim)`, or `None` when
    /// `dim` is outside `1..=max_dim` (those fall through to the
    /// dispatcher, which produces the structured `bad_dimension` error).
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
        let rows = match kind {
            AnswerKind::Plan => &self.plan,
            AnswerKind::Predict => &self.predict,
        };
        rows[si].get(dim as usize - 1)
    }

    /// The table entry answering `request`, when it is a `plan`/`predict`
    /// within the precomputed dimension range.
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
