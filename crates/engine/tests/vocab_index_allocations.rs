//! Heap allocations of the term dictionary and the inverted index,
//! counted on the calling thread by a counting global allocator (its
//! own test binary, since the allocator is process-wide).
//!
//! A vocabulary keeps its terms in one string and an index its
//! postings in one array, so neither allocates per term: interning
//! grows a few buffers by doubling, a clone copies three buffers, and
//! an index build fills two arrays. A dictionary of one `String` per
//! term, or an index of one `Vec` per term, costs thousands here.

use seu_engine::{Collection, CollectionBuilder, InvertedIndex, WeightingScheme};
use seu_text::{Analyzer, AnalyzerConfig, Vocabulary};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The allocations `f` makes on this thread, a buffer's growth
/// included.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, tally) = counting_alloc::counted(f);
    (out, tally.all())
}

fn words(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("term{i}")).collect()
}

#[test]
fn interning_ten_thousand_terms_allocates_per_doubling_not_per_term() {
    let words = words(10_000);
    let (vocab, n) = allocations(|| {
        let mut v = Vocabulary::new();
        for w in &words {
            v.intern(w);
        }
        v
    });
    assert_eq!(vocab.len(), 10_000);
    assert!(n <= 64, "interning 10 000 terms made {n} allocations");
}

#[test]
fn a_clone_is_three_allocations() {
    let mut vocab = Vocabulary::new();
    for w in &words(10_000) {
        vocab.intern(w);
    }
    let (copy, n) = allocations(|| vocab.clone());
    assert_eq!(copy.len(), vocab.len());
    assert!(
        n <= 3,
        "cloning a 10 000-term vocabulary made {n} allocations"
    );
}

#[test]
fn an_index_build_is_three_allocations() {
    let analyzer = Analyzer::new(AnalyzerConfig {
        remove_stopwords: false,
        stem: false,
    });
    let mut b = CollectionBuilder::new(analyzer, WeightingScheme::CosineTf);
    let words = words(5_000);
    for (d, chunk) in words.chunks(50).enumerate() {
        // Each document repeats a few of its neighbour's terms, so
        // terms hold postings in more than one document.
        let shared = &words[(d * 50 + 25) % words.len()..][..10];
        let tokens: Vec<&String> = chunk.iter().chain(shared).collect();
        b.add_tokens(&format!("doc-{d}"), &tokens);
    }
    let collection = b.build();
    assert_eq!(collection.vocab().len(), 5_000);
    let (index, n) = allocations(|| InvertedIndex::build(&collection));
    assert_eq!(index.active_terms(), 5_000);
    assert!(n <= 3, "indexing 5 000 terms made {n} allocations");
}

/// The engine file of a collection with `terms` distinct terms over ten
/// documents.
fn engine_file(terms: usize) -> Vec<u8> {
    let analyzer = Analyzer::new(AnalyzerConfig {
        remove_stopwords: false,
        stem: false,
    });
    let mut b = CollectionBuilder::new(analyzer, WeightingScheme::CosineTf);
    let words = words(terms);
    for (d, chunk) in words.chunks(terms.div_ceil(10)).enumerate() {
        b.add_tokens(&format!("doc-{d}"), chunk);
    }
    b.build().to_bytes()
}

/// The engine-file decoder sizes its vocabulary once and borrows each
/// term from the file, as the record decoders do: ten times the terms
/// over the same documents take the same allocations.
#[test]
fn decoding_an_engine_file_allocates_per_document_not_per_term() {
    let counts: Vec<(usize, u64)> = [91, 910]
        .into_iter()
        .map(|terms| {
            let bytes = engine_file(terms);
            let (decoded, n) = allocations(|| Collection::from_bytes(&bytes));
            assert_eq!(decoded.expect("a valid file").vocab().len(), terms);
            (terms, n)
        })
        .collect();
    assert_eq!(
        counts[0].1, counts[1].1,
        "allocations of a decode by vocabulary size: {counts:?}"
    );
}
