//! Heap allocations of encoding a `POST /search` reply, counted on the
//! encoding thread only by a counting global allocator (its own test
//! binary, since the allocator is process-wide).
//!
//! The body is reserved up front and every row — numbers included — is
//! written straight into it, so a reply costs one allocation however
//! many rows it has, plus the reallocations of the body growing past
//! its reservation (at most one per doubling). A row that went through
//! `format!` would cost one allocation more each.

use seu_metasearch::{
    DispatchOutcome, EngineDispatchStats, EngineEstimate, MergedHit, SearchResponse, Usefulness,
};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The allocations and reallocations `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let (result, tally) = counting_alloc::counted(f);
    (result, (tally.allocs, tally.reallocs))
}

/// A reply with `rows` hits, estimates and per-engine rows, shaped like
/// a served one: sims in (0.2, 1], fractional estimates, `n / 1e9`
/// seconds, every engine completed.
fn reply(rows: usize) -> SearchResponse {
    let engine = |i: usize| format!("engine-{i:05}");
    SearchResponse {
        hits: (0..rows)
            .map(|i| MergedHit {
                engine: engine(i),
                doc: format!("doc-{i}.txt"),
                sim: 1.0 - (i as f64 * 0.618_033_988_749_895).fract() * 0.8,
            })
            .collect(),
        estimates: (0..rows)
            .map(|i| EngineEstimate {
                engine: engine(i),
                usefulness: Usefulness {
                    no_doc: i as f64 / 7.0,
                    avg_sim: 0.2 + (i as f64 * 0.414_213_562_373_095).fract() * 0.8,
                },
            })
            .collect(),
        per_engine_stats: (0..rows)
            .map(|i| EngineDispatchStats {
                engine: engine(i),
                hits: i % 5,
                seconds: (100 + i * 7_919) as f64 / 1e9,
                outcome: DispatchOutcome::Completed,
                error: None,
            })
            .collect(),
        trace: None,
        served_from: None,
    }
}

#[test]
fn a_reply_costs_one_allocation_whatever_its_row_count() {
    for rows in [0, 1, 10, 100, 1_000] {
        let response = reply(rows);
        let (body, (fresh, grown)) = allocations(|| seu_net::http::search_json(&response));
        assert!(body.ends_with("\"served_from\":null}"));
        assert_eq!(
            body.matches("\"outcome\":\"completed\"").count(),
            rows,
            "{rows} per-engine rows"
        );
        assert_eq!(fresh, 1, "{rows} rows: {fresh} allocations");
        // Grown by doubling from a reservation of at least 256 bytes.
        let doublings = (body.len() as f64 / 256.0).log2().ceil().max(0.0) as u64;
        assert!(grown <= doublings, "{rows} rows: {grown} reallocations");
    }
}

#[test]
fn the_counter_sees_a_format_per_row() {
    // The same rows through `format!`, as the writer wrote them before:
    // one allocation each, which is what the test above rules out.
    let response = reply(100);
    let ((), (fresh, _)) = allocations(|| {
        let mut out = String::with_capacity(1 << 16);
        for s in &response.per_engine_stats {
            out.push_str(&format!(",\"hits\":{},\"seconds\":", s.hits));
        }
    });
    assert_eq!(fresh, 1 + 100);
}
