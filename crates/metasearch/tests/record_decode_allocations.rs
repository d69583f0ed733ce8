//! Heap allocations of decoding one engine record, through the store's
//! codec and through the wire, counted on the calling thread by a
//! counting global allocator (its own test binary, since the allocator
//! is process-wide).
//!
//! Both decoders size the vocabulary once, from the record's row count
//! and the bytes its rows hold, and borrow each term from the payload:
//! a decode makes as many allocations at 910 terms as at 91, and the
//! decoded vocabulary holds exactly what a clone would. Interning into
//! a growing vocabulary, or copying each term into a `String` first,
//! costs more allocations the more terms there are.

use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{EngineRecord, Representative};
use seu_text::{Analyzer, AnalyzerConfig, Vocabulary};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The allocations `f` makes on this thread, a buffer's growth
/// included.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, tally) = counting_alloc::counted(f);
    (out, tally.all())
}

/// The record of an engine with `terms` distinct terms over ten
/// documents.
fn record(terms: usize) -> EngineRecord {
    let analyzer = Analyzer::new(AnalyzerConfig {
        remove_stopwords: false,
        stem: false,
    });
    let mut b = CollectionBuilder::new(analyzer, WeightingScheme::CosineTf);
    let words: Vec<String> = (0..terms).map(|i| format!("term{i}")).collect();
    for (d, chunk) in words.chunks(terms.div_ceil(10)).enumerate() {
        b.add_tokens(&format!("doc-{d}"), chunk);
    }
    let engine = SearchEngine::new(b.build());
    let repr = Representative::build(engine.collection());
    EngineRecord::of_engine("probe", &engine, repr)
}

/// What a decode of `record` by `decode` costs, and whether the
/// decoded vocabulary holds exactly what a clone of the record's does.
fn decode_cost(record: &EngineRecord, decode: impl FnOnce() -> EngineRecord) -> (u64, bool) {
    let (decoded, n) = allocations(decode);
    assert_eq!(decoded.vocab.len(), record.vocab.len());
    assert!(decoded.vocab.iter().eq(record.vocab.iter()));
    let exact: Vocabulary = (*record.vocab).clone();
    (n, decoded.vocab.heap_bytes() == exact.heap_bytes())
}

#[test]
fn a_store_decode_allocates_the_same_at_91_and_910_terms() {
    let cost = |terms| {
        let record = record(terms);
        let bytes = seu_store::codec::encode_record(&record);
        let decode = || seu_store::codec::decode_record(&bytes).expect("own encoding");
        decode_cost(&record, decode)
    };
    let ((few, few_exact), (many, many_exact)) = (cost(91), cost(910));
    assert_eq!(few, many, "store codec: 91 terms {few}, 910 terms {many}");
    assert!(few_exact && many_exact, "store codec: growth slack");
}

#[test]
fn a_wire_decode_allocates_the_same_at_91_and_910_terms() {
    let cost = |terms| {
        let record = record(terms);
        let bytes = seu_net::wire::record_to_bytes(&record);
        let decode = || seu_net::wire::record_from_bytes(&bytes).expect("own encoding");
        decode_cost(&record, decode)
    };
    let ((few, few_exact), (many, many_exact)) = (cost(91), cost(910));
    assert_eq!(few, many, "wire: 91 terms {few}, 910 terms {many}");
    assert!(few_exact && many_exact, "wire: growth slack");
}
