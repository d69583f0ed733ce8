//! Integration tests for document allocation on the synthetic paper
//! workload.

use seu::corpus::paper_datasets;
use seu::corpus::queries::query_text;
use seu::metasearch::Broker;
use seu::prelude::*;
use std::sync::OnceLock;

fn flat_broker() -> &'static Broker<SubrangeEstimator> {
    static B: OnceLock<Broker<SubrangeEstimator>> = OnceLock::new();
    B.get_or_init(|| {
        let ds = paper_datasets(17);
        let b = Broker::new(SubrangeEstimator::paper_six_subrange());
        b.register("D1", SearchEngine::new(ds.d1));
        b.register("D2", SearchEngine::new(ds.d2));
        b.register("D3", SearchEngine::new(ds.d3));
        b
    })
}

#[test]
fn allocation_respects_truth_at_scale() {
    let broker = flat_broker();
    let ds = paper_datasets(17);
    for tokens in ds.queries.iter().take(60).filter(|q| q.len() >= 2) {
        let text = query_text(tokens);
        let k = 10;
        let alloc = broker.allocate_documents(&text, k);
        let total: u64 = alloc.iter().map(|a| a.k).sum();
        assert!(total <= k, "{text}: over-allocated {total}");
        // Engines allocated documents must be estimated useful at some
        // level — they must at least contain a query term.
        for a in &alloc {
            if a.k > 0 {
                assert!(a.estimated > 0.0, "{text}: {a:?}");
            }
        }
    }
}

#[test]
fn allocation_fills_budget_when_documents_exist() {
    let broker = flat_broker();
    // A background term reaches all databases.
    let alloc = broker.allocate_documents("bg3 bg8", 30);
    let total: u64 = alloc.iter().map(|a| a.k).sum();
    assert!(total >= 25, "{alloc:?}");
}
