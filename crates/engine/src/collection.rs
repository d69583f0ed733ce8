//! Document collections: the database `D` of a local search engine.

use crate::query::Query;
use crate::shared::{tally, term_counts};
use crate::weighting::WeightingScheme;
use seu_text::{Analyzer, AnalyzerConfig, TermId, Vocabulary};
use std::sync::Arc;

/// The longest term, in bytes: every format writes a term behind a
/// `u16` length ([`crate::binary::put_str16`]), so a longer token is not
/// a term and staging drops it.
const MAX_TERM_BYTES: usize = u16::MAX as usize;

/// Dense identifier of a document within one [`Collection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl DocId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One indexed document: a cosine-normalized sparse term vector.
#[derive(Debug, Clone)]
pub struct Document {
    /// External name (file name, message id, …).
    pub name: String,
    /// `(term, normalized weight)`, sorted by term id. Under the cosine
    /// schemes the weights have unit Euclidean norm (unless the document
    /// is empty); under pivoted normalization short documents exceed it
    /// and long documents fall below it, by design.
    pub terms: Vec<(TermId, f64)>,
    /// Euclidean norm of the pre-normalization weight vector.
    pub norm: f64,
    /// Token count after analysis (document length).
    pub len: u32,
}

impl Document {
    /// Normalized weight of `term` in this document (0 if absent).
    pub fn weight(&self, term: TermId) -> f64 {
        self.terms
            .binary_search_by_key(&term, |&(t, _)| t)
            .map(|i| self.terms[i].1)
            .unwrap_or(0.0)
    }
}

/// A cheap content fingerprint of a [`Collection`]: document count,
/// total raw bytes, and a rolling hash over the vocabulary's words (in
/// id order) and every document's name and weighted term vector. Two
/// collections with the same fingerprint hold the same indexed content
/// for all practical purposes; any document added, removed, or
/// re-weighted, and any word swapped for another, changes it.
///
/// This is the broker's staleness signal: a registry records the
/// fingerprint of the collection a representative was built from and
/// compares it against the engine's current fingerprint to decide
/// whether the representative still describes the engine
/// (`Broker::refresh_if_stale` in `seu-metasearch`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    /// Number of documents.
    pub n_docs: u64,
    /// Total bytes of raw text ingested.
    pub raw_bytes: u64,
    /// FNV-1a rolling hash over the vocabulary, document names and term
    /// vectors.
    pub hash: u64,
}

impl Fingerprint {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    fn fold(hash: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(Self::FNV_PRIME)
        })
    }
}

/// An analyzed, weighted, cosine-normalized document collection.
///
/// Immutable once built, so a clone shares the vocabulary and the
/// document frequencies with the original instead of copying them.
#[derive(Debug, Clone)]
pub struct Collection {
    /// Shared, as `doc_freq` is, with the records that describe the
    /// collection (a broker's registry entry, an exported snapshot).
    vocab: Arc<Vocabulary>,
    docs: Vec<Document>,
    scheme: WeightingScheme,
    /// Document frequency per term (indexed by `TermId`).
    doc_freq: Arc<[u32]>,
    /// Total bytes of raw text ingested (for the §3.2 size accounting).
    raw_bytes: u64,
    /// Total analyzed tokens across all documents (collection length in
    /// words; CORI's `cw` statistic).
    total_tokens: u64,
    /// Mean Euclidean norm of the non-empty documents (the pivot of
    /// pivoted normalization).
    mean_norm: f64,
    /// The analysis pipeline the documents were built with — queries must
    /// replicate it (a stemmed index needs stemmed queries).
    analyzer: AnalyzerConfig,
}

impl Collection {
    /// Number of documents `n`.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The term dictionary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The term dictionary, as a handle a record can share.
    pub fn shared_vocab(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The document frequencies, indexed by `TermId`, as a handle a
    /// record can share.
    pub fn shared_doc_freq(&self) -> &Arc<[u32]> {
        &self.doc_freq
    }

    /// The weighting scheme documents were built with.
    pub fn scheme(&self) -> WeightingScheme {
        self.scheme
    }

    /// All documents, indexed by [`DocId`].
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// One document.
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: TermId) -> u32 {
        self.doc_freq[term.index()]
    }

    /// Total bytes of raw text ingested.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Total analyzed tokens across all documents.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Mean Euclidean norm of the non-empty documents — the pivot of
    /// [`WeightingScheme::PivotedLogTf`]; 0 for an empty collection.
    pub fn mean_norm(&self) -> f64 {
        self.mean_norm
    }

    /// The analysis pipeline configuration documents were built with.
    pub fn analyzer_config(&self) -> AnalyzerConfig {
        self.analyzer
    }

    /// Computes the collection's content [`Fingerprint`] in one pass over
    /// the documents (O(total postings)). Collections are immutable, so
    /// callers that need repeated comparisons should compute this once
    /// and cache it — [`SearchEngine`](crate::SearchEngine) does exactly
    /// that at index-build time.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut hash = Fingerprint::FNV_OFFSET;
        // Term ids mean nothing without the words behind them: a word
        // swap that keeps every id and weight is still new content. The
        // 0xff after each word (never a UTF-8 byte) keeps "ab","c" apart
        // from "a","bc".
        for (_, term) in self.vocab.iter() {
            hash = Fingerprint::fold(hash, term.as_bytes());
            hash = Fingerprint::fold(hash, &[0xff]);
        }
        for doc in &self.docs {
            hash = Fingerprint::fold(hash, doc.name.as_bytes());
            hash = Fingerprint::fold(hash, &doc.len.to_le_bytes());
            for &(term, weight) in &doc.terms {
                hash = Fingerprint::fold(hash, &term.0.to_le_bytes());
                hash = Fingerprint::fold(hash, &weight.to_bits().to_le_bytes());
            }
        }
        Fingerprint {
            n_docs: self.docs.len() as u64,
            raw_bytes: self.raw_bytes,
            hash,
        }
    }

    /// Reassembles a collection from its stored parts (the storage
    /// module's deserializer; not for general construction — invariants
    /// are the serializer's responsibility).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_stored_parts(
        vocab: Vocabulary,
        docs: Vec<Document>,
        scheme: WeightingScheme,
        doc_freq: Vec<u32>,
        raw_bytes: u64,
        total_tokens: u64,
        mean_norm: f64,
        analyzer: AnalyzerConfig,
    ) -> Collection {
        Collection {
            vocab: Arc::new(vocab),
            docs,
            scheme,
            doc_freq: doc_freq.into(),
            raw_bytes,
            total_tokens,
            mean_norm,
            analyzer,
        }
    }

    /// Builds a query with the same analysis pipeline the documents were
    /// built with (a stemmed index gets a stemmed query). Terms unknown
    /// to the collection are dropped (they cannot contribute to any
    /// similarity within it).
    pub fn query_from_text(&self, text: &str) -> Query {
        let tokens = Analyzer::new(self.analyzer).analyze(text);
        self.query_from_tf(term_counts(&self.vocab, &tokens))
    }

    /// Builds a query from explicit term frequencies.
    ///
    /// Queries are always cosine-normalized (unit norm), including under
    /// pivoted document normalization — pivoting corrects for *document*
    /// length bias and does not apply to queries (Singhal et al.).
    pub fn query_from_tf(&self, tf: impl IntoIterator<Item = (TermId, u32)>) -> Query {
        crate::shared::weighted_query(
            self.scheme,
            self.docs.len() as u32,
            |t| self.doc_freq(t),
            tf,
        )
    }
}

/// A staged document: name, term frequencies sorted by term id, raw
/// text length.
type RawDoc = (String, Vec<(TermId, u32)>, usize);

/// Incremental builder: add raw documents, then [`CollectionBuilder::build`].
#[derive(Debug)]
pub struct CollectionBuilder {
    analyzer: Analyzer,
    scheme: WeightingScheme,
    vocab: Vocabulary,
    raw: Vec<RawDoc>,
}

impl CollectionBuilder {
    /// Creates a builder with the given analysis pipeline and weighting.
    pub fn new(analyzer: Analyzer, scheme: WeightingScheme) -> Self {
        CollectionBuilder {
            analyzer,
            scheme,
            vocab: Vocabulary::new(),
            raw: Vec::new(),
        }
    }

    /// Analyzes and stages one document.
    pub fn add_document(&mut self, name: &str, text: &str) -> DocId {
        let tokens = self.analyzer.analyze(text);
        self.stage(name, tokens.iter().map(String::as_str), text.len())
    }

    /// Stages one document from precomputed term tokens (used by the
    /// synthetic corpus generator, which emits tokens directly).
    pub fn add_tokens<S: AsRef<str>>(&mut self, name: &str, tokens: &[S]) -> DocId {
        let bytes = tokens.iter().map(|t| t.as_ref().len() + 1).sum();
        self.stage(name, tokens.iter().map(AsRef::as_ref), bytes)
    }

    /// Interns one document's tokens and stages their counts, `bytes`
    /// the raw text it came from. This is where a token becomes a term:
    /// one longer than [`MAX_TERM_BYTES`] is dropped, so no vocabulary
    /// holds a term a format cannot write.
    fn stage<'t>(
        &mut self,
        name: &str,
        tokens: impl Iterator<Item = &'t str>,
        bytes: usize,
    ) -> DocId {
        let vocab = &mut self.vocab;
        let terms = tokens.filter(|token| token.len() <= MAX_TERM_BYTES);
        let tf = tally(terms.map(|term| vocab.intern(term)));
        let id = DocId(u32::try_from(self.raw.len()).expect("too many documents"));
        self.raw.push((name.to_string(), tf, bytes));
        id
    }

    /// Number of staged documents.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether no documents are staged.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Computes collection-wide statistics, weights and normalizes every
    /// document, and freezes the collection.
    pub fn build(self) -> Collection {
        let n = self.raw.len() as u32;
        let mut doc_freq = vec![0u32; self.vocab.len()];
        for (_, tf, _) in &self.raw {
            for &(t, _) in tf {
                doc_freq[t.index()] += 1;
            }
        }
        // First pass: raw weights and Euclidean norms (the pivoted scheme
        // needs the mean norm before any document can be normalized).
        let mut raw_bytes = 0u64;
        let mut total_tokens = 0u64;
        let mut norm_sum = 0.0;
        let mut non_empty = 0u64;
        // (name, raw weights, norm, token count)
        type Staged = (String, Vec<(u32, f64)>, f64, u32);
        let staged: Vec<Staged> = self
            .raw
            .into_iter()
            .map(|(name, tf, bytes)| {
                raw_bytes += bytes as u64;
                let len: u32 = tf.iter().map(|&(_, f)| f).sum();
                total_tokens += len as u64;
                let weights: Vec<(u32, f64)> = tf
                    .into_iter()
                    .map(|(t, f)| (t.0, self.scheme.weight(f, doc_freq[t.index()], n)))
                    .collect();
                let norm = weights.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
                if norm > 0.0 {
                    norm_sum += norm;
                    non_empty += 1;
                }
                (name, weights, norm, len)
            })
            .collect();
        let mean_norm = if non_empty > 0 {
            norm_sum / non_empty as f64
        } else {
            0.0
        };
        // Second pass: divide by the scheme's norm divisor.
        let docs = staged
            .into_iter()
            .map(|(name, mut weights, norm, len)| {
                let divisor = self.scheme.norm_divisor(norm, mean_norm);
                if divisor > 0.0 {
                    for (_, w) in weights.iter_mut() {
                        *w /= divisor;
                    }
                } else {
                    weights.clear();
                }
                Document {
                    name,
                    terms: weights
                        .into_iter()
                        .filter(|&(_, w)| w > 0.0)
                        .map(|(t, w)| (TermId(t), w))
                        .collect(),
                    norm,
                    len,
                }
            })
            .collect();
        Collection {
            vocab: Arc::new(self.vocab),
            docs,
            scheme: self.scheme,
            doc_freq: doc_freq.into(),
            raw_bytes,
            total_tokens,
            mean_norm,
            analyzer: self.analyzer.config(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Collection {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "apple banana apple");
        b.add_document("d1", "banana cherry");
        b.add_document("d2", "the of and"); // all stopwords -> empty doc
        b.build()
    }

    #[test]
    fn builds_normalized_vectors() {
        let c = tiny();
        assert_eq!(c.len(), 3);
        let d0 = c.doc(DocId(0));
        // tf: apple 2, banana 1 -> norm sqrt(5).
        assert!((d0.norm - 5f64.sqrt()).abs() < 1e-12);
        let sq: f64 = d0.terms.iter().map(|&(_, w)| w * w).sum();
        assert!((sq - 1.0).abs() < 1e-12);
        assert_eq!(d0.len, 3);
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let c = tiny();
        let apple = c.vocab().get("apple").unwrap();
        let banana = c.vocab().get("banana").unwrap();
        assert_eq!(c.doc_freq(apple), 1);
        assert_eq!(c.doc_freq(banana), 2);
    }

    #[test]
    fn empty_document_is_kept_with_zero_vector() {
        let c = tiny();
        let d2 = c.doc(DocId(2));
        assert!(d2.terms.is_empty());
        assert_eq!(d2.norm, 0.0);
        assert_eq!(d2.len, 0);
    }

    #[test]
    fn query_normalization_single_term_weight_is_one() {
        // Section 3.1: a single-term query has normalized weight 1.
        let c = tiny();
        let q = c.query_from_text("apple");
        assert_eq!(q.terms().len(), 1);
        assert!((q.terms()[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn query_drops_unknown_terms() {
        let c = tiny();
        let q = c.query_from_text("apple zebra");
        assert_eq!(q.terms().len(), 1);
        assert!((q.terms()[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn query_weights_are_cosine_normalized() {
        let c = tiny();
        let q = c.query_from_text("apple banana banana");
        let sq: f64 = q.terms().iter().map(|&(_, w)| w * w).sum();
        assert!((sq - 1.0).abs() < 1e-12);
    }

    #[test]
    fn document_weight_lookup() {
        let c = tiny();
        let apple = c.vocab().get("apple").unwrap();
        let cherry = c.vocab().get("cherry").unwrap();
        assert!(c.doc(DocId(0)).weight(apple) > 0.0);
        assert_eq!(c.doc(DocId(0)).weight(cherry), 0.0);
    }

    #[test]
    fn tfidf_build_zeroes_universal_terms() {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTfIdf);
        b.add_document("d0", "common alpha");
        b.add_document("d1", "common beta");
        let c = b.build();
        let common = c.vocab().get("common").unwrap();
        // idf = ln(2/2) = 0 -> weight filtered out of vectors.
        assert_eq!(c.doc(DocId(0)).weight(common), 0.0);
        assert_eq!(c.doc(DocId(0)).terms.len(), 1);
    }

    #[test]
    fn stemmed_collections_stem_their_queries() {
        let mut b = CollectionBuilder::new(
            Analyzer::new(seu_text::AnalyzerConfig {
                remove_stopwords: true,
                stem: true,
            }),
            WeightingScheme::CosineTf,
        );
        b.add_document("d0", "btree indexes win for range scans");
        let c = b.build();
        // The vocabulary holds stems; an unstemmed surface-form query
        // must still resolve because query_from_text replicates the
        // document pipeline.
        assert!(c.vocab().get("index").is_some());
        assert!(c.vocab().get("indexes").is_none());
        let q = c.query_from_text("indexes scanning");
        assert_eq!(q.len(), 2, "both stems resolve");
        assert!(c.analyzer_config().stem);
    }

    #[test]
    fn pivoted_normalization_favors_short_documents() {
        let mut b = CollectionBuilder::new(
            Analyzer::paper_default(),
            WeightingScheme::PivotedLogTf { slope: 0.3 },
        );
        b.add_document("short", "apple");
        b.add_document(
            "long",
            "apple banana cherry durian elderberry fig grape honeydew",
        );
        let c = b.build();
        assert!(c.mean_norm() > 0.0);
        let apple = c.vocab().get("apple").unwrap();
        let w_short = c.doc(DocId(0)).weight(apple);
        let w_long = c.doc(DocId(1)).weight(apple);
        // Under plain cosine the short doc would score exactly 1; pivoting
        // pulls it toward the pivot, so it scores above its cosine-relative
        // share but the ordering short > long must hold.
        assert!(w_short > w_long);
        // The pivoted weight differs from the cosine weight.
        let sq: f64 = c.doc(DocId(0)).terms.iter().map(|&(_, w)| w * w).sum();
        assert!((sq - 1.0).abs() > 1e-6, "short doc should not be unit-norm");
    }

    #[test]
    fn pivoted_slope_one_is_cosine_log_tf() {
        let texts = ["apple banana apple", "banana cherry", "apple cherry cherry"];
        let build = |scheme| {
            let mut b = CollectionBuilder::new(Analyzer::paper_default(), scheme);
            for (i, t) in texts.iter().enumerate() {
                b.add_document(&format!("d{i}"), t);
            }
            b.build()
        };
        let pivoted = build(WeightingScheme::PivotedLogTf { slope: 1.0 });
        let cosine = build(WeightingScheme::CosineLogTf);
        for (dp, dc) in pivoted.docs().iter().zip(cosine.docs()) {
            assert_eq!(dp.terms.len(), dc.terms.len());
            for (a, b) in dp.terms.iter().zip(&dc.terms) {
                assert!((a.1 - b.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Any added document changes the fingerprint.
        let mut grown =
            CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        grown.add_document("d0", "apple banana apple");
        grown.add_document("d1", "banana cherry");
        grown.add_document("d2", "the of and");
        grown.add_document("d3", "quantum entanglement");
        let grown = grown.build();
        let fp = grown.fingerprint();
        assert_ne!(a.fingerprint(), fp);
        assert_eq!(fp.n_docs, 4);
        assert!(fp.raw_bytes > a.fingerprint().raw_bytes);

        // Same shape, different content: counts match, hash differs.
        let mut renamed =
            CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        renamed.add_document("x0", "apple banana apple");
        renamed.add_document("d1", "banana cherry");
        renamed.add_document("d2", "the of and");
        let renamed = renamed.build();
        assert_eq!(renamed.fingerprint().n_docs, a.fingerprint().n_docs);
        assert_ne!(renamed.fingerprint().hash, a.fingerprint().hash);

        // Same names, lengths, term ids and weights, another word behind
        // one id: the vocabulary is content too.
        let swap = |text: &str| {
            let mut b =
                CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
            b.add_document("d0", text);
            b.build()
        };
        let (soup, stew) = (
            swap("mushroom soup with cream"),
            swap("mushroom stew with cream"),
        );
        assert_eq!(soup.docs()[0].terms, stew.docs()[0].terms);
        assert_eq!(soup.raw_bytes(), stew.raw_bytes());
        assert_ne!(soup.fingerprint(), stew.fingerprint());
    }

    #[test]
    fn total_tokens_counts_analyzed_tokens() {
        let c = tiny();
        // d0: 3 tokens, d1: 2, d2: 0 (stopwords removed).
        assert_eq!(c.total_tokens(), 5);
    }

    #[test]
    fn add_tokens_matches_add_document() {
        let mut b1 = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b1.add_document("d", "apple banana apple");
        let c1 = b1.build();
        let mut b2 = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b2.add_tokens("d", &["apple", "banana", "apple"]);
        let c2 = b2.build();
        assert_eq!(c1.doc(DocId(0)).terms.len(), c2.doc(DocId(0)).terms.len());
        assert!((c1.doc(DocId(0)).norm - c2.doc(DocId(0)).norm).abs() < 1e-12);
    }
}
