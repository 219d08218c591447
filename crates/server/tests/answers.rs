//! Differential test: the answer table must be byte-identical
//! to the dispatcher over its entire domain — every wire strategy, both
//! closed-form request kinds, every dimension up to the server cap.
//!
//! The table is a serving-path optimization; this test is what makes it
//! safe. If a closed form, an error message, or the wire serialization
//! changes without rebuilding the table logic, the bytes diverge here.

use std::sync::Arc;

use hypersweep_analysis::{RunCache, StrategyKind};
use hypersweep_server::{Dispatcher, Request, Response};

const MAX_DIM: u32 = 20;

fn dispatcher() -> Dispatcher {
    Dispatcher::new(Arc::new(RunCache::new()), MAX_DIM)
}

fn closed_form_requests(dims: impl Iterator<Item = u32> + Clone) -> Vec<Request> {
    StrategyKind::ALL
        .iter()
        .flat_map(|&strategy| {
            dims.clone().flat_map(move |dim| {
                [
                    Request::Plan { strategy, dim },
                    Request::Predict { strategy, dim },
                ]
            })
        })
        .collect()
}

#[test]
fn table_lines_match_the_dispatcher_byte_for_byte() {
    // Two dispatchers so the comparison cannot be confused by shared
    // accounting: `table` answers from the table tier, `direct`
    // computes every reply.
    let table = dispatcher();
    let direct = dispatcher();
    let requests = closed_form_requests(1..=MAX_DIM);
    assert_eq!(
        requests.len(),
        2 * StrategyKind::ALL.len() * MAX_DIM as usize
    );
    for request in requests {
        let fast = table
            .answer_line(&request)
            .unwrap_or_else(|| panic!("no table answer for {request:?}"))
            .to_string();
        let slow = direct.handle(request).to_line();
        assert_eq!(fast, slow, "table diverges from dispatcher on {request:?}");
    }
    assert_eq!(table.table_hits(), 2 * StrategyKind::ALL.len() as u64 * 20);
    // Both serving paths must leave identical request accounting behind:
    // a client cannot tell from `status` which tier answered.
    assert_eq!(table.served(), direct.served());
}

#[test]
fn out_of_range_dimensions_fall_through_to_the_dispatcher() {
    let d = dispatcher();
    for request in closed_form_requests([0, MAX_DIM + 1, 64].into_iter()) {
        assert!(
            d.answer_line(&request).is_none(),
            "{request:?} must miss the table"
        );
        // The dispatcher still produces the structured error reply.
        match d.handle(request) {
            Response::Error(e) => assert_eq!(e.kind, hypersweep_server::ErrorKind::BadDimension),
            other => panic!("{request:?} returned {other:?}"),
        }
    }
    assert_eq!(d.table_hits(), 0);
}

#[test]
fn non_closed_form_requests_never_hit_the_table() {
    let d = dispatcher();
    let requests = [
        Request::Audit {
            strategy: StrategyKind::ALL[0],
            dim: 4,
        },
        Request::Status,
        Request::Metrics,
        Request::Shutdown,
    ];
    for request in requests {
        assert!(d.answer_line(&request).is_none(), "{request:?}");
    }
    assert_eq!(d.table_hits(), 0);
}
