//! The quadruplet table and its size accounting.

use seu_engine::Collection;
use seu_stats::Moments;
use seu_text::TermId;

/// Pages of 2 KB, the unit of the paper's §3.2 size table.
pub const PAGE_BYTES: u64 = 2048;

/// Per-term statistics: the paper's `(p, w, sigma, mw)` quadruplet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TermStats {
    /// Probability that the term appears in a document (`df / n`).
    pub p: f64,
    /// Mean normalized weight over the documents containing the term.
    pub mean: f64,
    /// Standard deviation of those normalized weights (population).
    pub std_dev: f64,
    /// Maximum normalized weight of the term in any document.
    pub max: f64,
}

/// The representative of one search engine's database.
///
/// # Examples
///
/// ```
/// use seu_engine::{CollectionBuilder, WeightingScheme};
/// use seu_repr::Representative;
/// use seu_text::Analyzer;
///
/// let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
/// b.add_document("d0", "alpha beta");
/// b.add_document("d1", "alpha gamma gamma");
/// let collection = b.build();
///
/// let repr = Representative::build(&collection);
/// assert_eq!(repr.n_docs(), 2);
/// let alpha = collection.vocab().get("alpha").unwrap();
/// let stats = repr.get(alpha).unwrap();
/// assert!((stats.p - 1.0).abs() < 1e-12); // alpha is in both documents
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Representative {
    n_docs: u64,
    /// Dense per-term table indexed by `TermId`; `p == 0` marks terms that
    /// occur in no document (possible after quantization round-trips, never
    /// from `build` on a vocabulary produced by the same collection).
    stats: Vec<TermStats>,
    /// Raw byte size of the summarized collection, for the §3.2 ratio.
    collection_bytes: u64,
}

impl Representative {
    /// Builds the representative in one pass over a collection.
    pub fn build(collection: &Collection) -> Self {
        let mut acc: Vec<Moments> = vec![Moments::new(); collection.vocab().len()];
        for doc in collection.docs() {
            for &(term, weight) in &doc.terms {
                acc[term.index()].push(weight);
            }
        }
        let n = collection.len() as u64;
        let stats = acc
            .into_iter()
            .map(|m| TermStats {
                p: if n == 0 {
                    0.0
                } else {
                    m.count() as f64 / n as f64
                },
                mean: m.mean(),
                std_dev: m.std_dev(),
                max: m.max(),
            })
            .collect();
        Representative {
            n_docs: n,
            stats,
            collection_bytes: collection.raw_bytes(),
        }
    }

    /// Constructs a representative from raw parts (used by the quantizer
    /// and by tests).
    pub fn from_parts(n_docs: u64, stats: Vec<TermStats>, collection_bytes: u64) -> Self {
        Representative {
            n_docs,
            stats,
            collection_bytes,
        }
    }

    /// Number of documents `n` in the summarized database.
    pub fn n_docs(&self) -> u64 {
        self.n_docs
    }

    /// Number of table rows (vocabulary size of the collection).
    pub fn table_len(&self) -> usize {
        self.stats.len()
    }

    /// Number of distinct terms actually present (`p > 0`), the `k` of the
    /// paper's size formulas.
    pub fn distinct_terms(&self) -> usize {
        self.stats.iter().filter(|s| s.p > 0.0).count()
    }

    /// Statistics for a term; `None` if the term occurs in no document.
    pub fn get(&self, term: TermId) -> Option<&TermStats> {
        self.stats.get(term.index()).filter(|s| s.p > 0.0)
    }

    /// Approximate heap + inline footprint of this representative in
    /// bytes — the broker's `broker_representative_bytes_resident` gauge
    /// sums this over its registry.
    pub fn bytes_resident(&self) -> u64 {
        (std::mem::size_of::<Self>() + self.stats.capacity() * std::mem::size_of::<TermStats>())
            as u64
    }

    /// The whole table, one row per term id, `p == 0` included.
    pub fn rows(&self) -> &[TermStats] {
        &self.stats
    }

    /// All `(TermId, &TermStats)` rows with `p > 0`.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &TermStats)> {
        self.stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.p > 0.0)
            .map(|(i, s)| (TermId(i as u32), s))
    }

    /// Raw byte size of the summarized collection.
    pub fn collection_bytes(&self) -> u64 {
        self.collection_bytes
    }

    /// §3.2 accounting: bytes for the full quadruplet representative —
    /// 4 bytes of term id plus four 4-byte numbers per distinct term.
    pub fn size_bytes_quadruplet(&self) -> u64 {
        20 * self.distinct_terms() as u64
    }

    /// Bytes for a triplet representative (no stored max): 4 + 3*4.
    pub fn size_bytes_triplet(&self) -> u64 {
        16 * self.distinct_terms() as u64
    }

    /// Bytes for the one-byte quantized quadruplet form: 4 + 4*1.
    pub fn size_bytes_quantized(&self) -> u64 {
        8 * self.distinct_terms() as u64
    }

    /// The §3.2 size table row for this database.
    pub fn size_report(&self) -> SizeReport {
        SizeReport {
            collection_pages: self.collection_bytes.div_ceil(PAGE_BYTES),
            distinct_terms: self.distinct_terms() as u64,
            representative_pages: self.size_bytes_quadruplet().div_ceil(PAGE_BYTES),
            quantized_pages: self.size_bytes_quantized().div_ceil(PAGE_BYTES),
        }
    }
}

/// One row of the §3.2 scalability table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeReport {
    /// Collection size in 2 KB pages.
    pub collection_pages: u64,
    /// Number of distinct terms `k`.
    pub distinct_terms: u64,
    /// Full (20 bytes/term) representative size in pages.
    pub representative_pages: u64,
    /// One-byte quantized (8 bytes/term) representative size in pages.
    pub quantized_pages: u64,
}

impl SizeReport {
    /// Representative size as a percentage of the collection size.
    pub fn percent(&self) -> f64 {
        if self.collection_pages == 0 {
            0.0
        } else {
            100.0 * self.representative_pages as f64 / self.collection_pages as f64
        }
    }

    /// Quantized representative size as a percentage of the collection.
    pub fn quantized_percent(&self) -> f64 {
        if self.collection_pages == 0 {
            0.0
        } else {
            100.0 * self.quantized_pages as f64 / self.collection_pages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{CollectionBuilder, WeightingScheme};
    use seu_text::Analyzer;

    fn paper_like_collection() -> Collection {
        // Example 3.1's five documents over three terms t1 t2 t3 with
        // term frequencies mirroring (3,0,0),(1,1,0),(0,0,2),(2,0,2),(0,0,0).
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d1", "t1 t1 t1");
        b.add_document("d2", "t1 t2");
        b.add_document("d3", "t3 t3");
        b.add_document("d4", "t1 t1 t3 t3");
        b.add_document("d5", "");
        b.build()
    }

    #[test]
    fn probabilities_match_document_frequencies() {
        let c = paper_like_collection();
        let r = Representative::build(&c);
        let t1 = c.vocab().get("t1").unwrap();
        let t2 = c.vocab().get("t2").unwrap();
        let t3 = c.vocab().get("t3").unwrap();
        // Example 3.1: p1 = 0.6, p2 = 0.2, p3 = 0.4.
        assert!((r.get(t1).unwrap().p - 0.6).abs() < 1e-12);
        assert!((r.get(t2).unwrap().p - 0.2).abs() < 1e-12);
        assert!((r.get(t3).unwrap().p - 0.4).abs() < 1e-12);
        assert_eq!(r.n_docs(), 5);
    }

    #[test]
    fn means_are_over_containing_docs_only() {
        let c = paper_like_collection();
        let r = Representative::build(&c);
        let t1 = c.vocab().get("t1").unwrap();
        let s = r.get(t1).unwrap();
        // Normalized weights of t1: d1: 3/3=1, d2: 1/sqrt(2), d4: 2/sqrt(8).
        let w = [1.0, 1.0 / 2f64.sqrt(), 2.0 / 8f64.sqrt()];
        let mean = w.iter().sum::<f64>() / 3.0;
        assert!((s.mean - mean).abs() < 1e-12);
        assert!((s.max - 1.0).abs() < 1e-12);
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn absent_term_is_none() {
        let c = paper_like_collection();
        let r = Representative::build(&c);
        assert!(r.get(TermId(999)).is_none());
    }

    #[test]
    fn size_accounting() {
        let c = paper_like_collection();
        let r = Representative::build(&c);
        assert_eq!(r.distinct_terms(), 3);
        assert_eq!(r.size_bytes_quadruplet(), 60);
        assert_eq!(r.size_bytes_triplet(), 48);
        assert_eq!(r.size_bytes_quantized(), 24);
        let rep = r.size_report();
        assert_eq!(rep.distinct_terms, 3);
        assert!(rep.percent() >= 0.0);
    }

    #[test]
    fn paper_table_ratio_wsj() {
        // The §3.2 table: WSJ has 156,298 distinct terms and 40,605 pages;
        // 20 * k bytes = 1,563 pages = 3.85 %.
        let k: u64 = 156_298;
        let pages = (20 * k).div_ceil(PAGE_BYTES);
        assert_eq!(pages, 1527); // ceil(3125960 / 2048)
                                 // The paper's 1563 pages uses 2000-byte pages; with 2 KB pages the
                                 // ratio is still ~3.76 %.
        let pct = 100.0 * pages as f64 / 40_605.0;
        assert!((pct - 3.76).abs() < 0.05, "pct={pct}");
    }

    #[test]
    fn empty_collection() {
        let b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        let r = Representative::build(&b.build());
        assert_eq!(r.n_docs(), 0);
        assert_eq!(r.distinct_terms(), 0);
        assert_eq!(r.size_bytes_quadruplet(), 0);
    }
}
