//! Binary persistence of collections.
//!
//! A local search engine survives restarts by persisting its analyzed,
//! weighted collection; the inverted index is rebuilt on load (it is a
//! derived structure and rebuilding is one linear pass). The format is a
//! versioned big-endian layout, written and read through
//! [`crate::binary`], the checked reader every binary format here
//! shares — no external codec.

use crate::binary::{self, DecodeError, Field};
use crate::collection::{Collection, Document};
use crate::weighting::WeightingScheme;
use seu_text::{AnalyzerConfig, TermId};

const MAGIC: u32 = 0x5345_5543; // "SEUC"
const VERSION: u16 = 1;

/// Smallest document row: an empty name (u16 length), norm (f64),
/// length (u32) and term count (u32).
const MIN_DOC_BYTES: usize = 2 + 8 + 4 + 4;

impl Collection {
    /// Serializes the collection to a self-contained binary buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        MAGIC.put(&mut out);
        VERSION.put(&mut out);
        self.scheme().put(&mut out);
        self.analyzer_config().put(&mut out);
        self.raw_bytes().put(&mut out);
        self.total_tokens().put(&mut out);
        self.mean_norm().put(&mut out);

        let vocab = self.vocab();
        (vocab.len() as u32).put(&mut out);
        for (term, s) in vocab.iter() {
            binary::put_str16(&mut out, s);
            self.doc_freq(term).put(&mut out);
        }

        (self.len() as u32).put(&mut out);
        for doc in self.docs() {
            binary::put_str16(&mut out, &doc.name);
            doc.norm.put(&mut out);
            doc.len.put(&mut out);
            (doc.terms.len() as u32).put(&mut out);
            for &(term, weight) in &doc.terms {
                term.0.put(&mut out);
                weight.put(&mut out);
            }
        }
        out
    }

    /// Deserializes a [`Collection::to_bytes`] buffer. Returns `None` on
    /// a truncated, extended, corrupt, or version-mismatched buffer.
    /// Every count is checked against the rows the remaining bytes could
    /// hold before anything is reserved, so a count that lies cannot
    /// drive an allocation. A term's document frequency must lie between
    /// the number of documents listing it and the number of documents,
    /// and be at least one: a term no document counts is refused. (A
    /// document may count a term and not list it: tf-idf gives a term in
    /// every document weight zero, and zero weights are not stored.)
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Option<Collection> {
        decode(&mut bytes.as_ref()).ok()
    }
}

fn decode(buf: &mut &[u8]) -> Result<Collection, DecodeError> {
    if u32::get(buf)? != MAGIC || u16::get(buf)? != VERSION {
        return Err(DecodeError::new("not an engine file of this version"));
    }
    let scheme = WeightingScheme::get(buf)?;
    let analyzer = AnalyzerConfig::get(buf)?;
    let raw_bytes = u64::get(buf)?;
    let total_tokens = u64::get(buf)?;
    let mean_norm = f64::get(buf)?;

    // Term order must round-trip to keep ids stable.
    let n_terms = u32::get(buf)? as usize;
    let (vocab, doc_freq) = binary::vocab_rows(buf, n_terms, 4, u32::get)?;

    let n_docs = binary::count(buf, MIN_DOC_BYTES)?;
    let mut docs = Vec::with_capacity(n_docs);
    let mut listed = vec![0u32; n_terms];
    for _ in 0..n_docs {
        let name = binary::str16(buf)?.to_string();
        let norm = f64::get(buf)?;
        let len = u32::get(buf)?;
        let n = binary::count(buf, 4 + 8)?; // a term id and its weight
        let mut terms = Vec::with_capacity(n);
        for _ in 0..n {
            let t = u32::get(buf)?;
            let w = f64::get(buf)?;
            let Some(listings) = listed.get_mut(t as usize) else {
                return Err(DecodeError::new(format!("term id {t} out of range")));
            };
            *listings += 1;
            terms.push((TermId(t), w));
        }
        docs.push(Document {
            name,
            terms,
            norm,
            len,
        });
    }
    if !buf.is_empty() {
        return Err(DecodeError::new("trailing bytes"));
    }
    let counted = |(&df, &n): (&u32, &u32)| n <= df && df >= 1 && df as usize <= n_docs;
    if !doc_freq.iter().zip(&listed).all(counted) {
        return Err(DecodeError::new(
            "a document frequency disagrees with the documents",
        ));
    }
    Ok(Collection::from_stored_parts(
        vocab,
        docs,
        scheme,
        doc_freq,
        raw_bytes,
        total_tokens,
        mean_norm,
        analyzer,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::CollectionBuilder;
    use crate::search::SearchEngine;
    use seu_text::Analyzer;

    fn sample(scheme: WeightingScheme) -> Collection {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), scheme);
        b.add_document("d0", "alpha beta alpha gamma");
        b.add_document("d1", "beta delta");
        b.add_document("d2", "");
        b.build()
    }

    #[test]
    fn round_trip_preserves_everything() {
        for scheme in [
            WeightingScheme::CosineTf,
            WeightingScheme::CosineLogTf,
            WeightingScheme::CosineTfIdf,
            WeightingScheme::PivotedLogTf { slope: 0.35 },
        ] {
            let c = sample(scheme);
            let c2 = Collection::from_bytes(c.to_bytes()).expect("valid buffer");
            assert_eq!(c2.len(), c.len());
            assert_eq!(c2.vocab().len(), c.vocab().len());
            assert_eq!(c2.scheme(), c.scheme());
            assert_eq!(c2.raw_bytes(), c.raw_bytes());
            assert_eq!(c2.total_tokens(), c.total_tokens());
            assert!((c2.mean_norm() - c.mean_norm()).abs() < 1e-12);
            assert_eq!(c2.analyzer_config(), c.analyzer_config());
            for (d1, d2) in c.docs().iter().zip(c2.docs()) {
                assert_eq!(d1.name, d2.name);
                assert_eq!(d1.len, d2.len);
                assert_eq!(d1.terms, d2.terms);
            }
            for (term, s) in c.vocab().iter() {
                assert_eq!(c2.vocab().term(term), s);
                assert_eq!(c2.doc_freq(term), c.doc_freq(term));
            }
        }
    }

    #[test]
    fn loaded_engine_answers_identically() {
        let c = sample(WeightingScheme::CosineTf);
        let loaded = Collection::from_bytes(c.to_bytes()).unwrap();
        let e1 = SearchEngine::new(c);
        let e2 = SearchEngine::new(loaded);
        let q1 = e1.collection().query_from_text("alpha beta");
        let q2 = e2.collection().query_from_text("alpha beta");
        let h1 = e1.search_threshold(&q1, 0.1);
        let h2 = e2.search_threshold(&q2, 0.1);
        assert_eq!(h1.len(), h2.len());
        for (a, b) in h1.iter().zip(&h2) {
            assert_eq!(a.doc, b.doc);
            assert!((a.sim - b.sim).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(Collection::from_bytes(&b"nope"[..]).is_none());
        let c = sample(WeightingScheme::CosineTf);
        let bytes = c.to_bytes();
        // Truncation at any point is detected (never panics).
        for cut in [4usize, 10, 20, bytes.len() / 2, bytes.len() - 3] {
            assert!(Collection::from_bytes(&bytes[..cut]).is_none(), "cut={cut}");
        }
        // Wrong magic.
        let mut wrong = bytes.to_vec();
        wrong[0] ^= 0xFF;
        assert!(Collection::from_bytes(&wrong[..]).is_none());
    }

    #[test]
    fn empty_collection_round_trips() {
        let b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        let c = b.build();
        let c2 = Collection::from_bytes(c.to_bytes()).unwrap();
        assert_eq!(c2.len(), 0);
        assert_eq!(c2.vocab().len(), 0);
    }
}
