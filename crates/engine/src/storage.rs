//! Binary persistence of collections.
//!
//! A local search engine survives restarts by persisting its analyzed,
//! weighted collection; the inverted index is rebuilt on load (it is a
//! derived structure and rebuilding is one linear pass). The format is a
//! versioned little-schema binary layout via `bytes` — no external codec.

use crate::collection::{Collection, Document};
use crate::weighting::WeightingScheme;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use seu_text::{AnalyzerConfig, TermId, Vocabulary};

const MAGIC: u32 = 0x5345_5543; // "SEUC"
const VERSION: u16 = 1;

/// Smallest vocabulary row: an empty term (u16 length) and its document
/// frequency (u32).
const MIN_TERM_BYTES: usize = 2 + 4;
/// Smallest document row: an empty name (u16 length), norm (f64),
/// length (u32) and term count (u32).
const MIN_DOC_BYTES: usize = 2 + 8 + 4 + 4;

fn put_str(buf: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "string too long to store");
    buf.put_u16(bytes.len() as u16);
    buf.put_slice(bytes);
}

fn get_str(buf: &mut impl Buf) -> Option<String> {
    if buf.remaining() < 2 {
        return None;
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return None;
    }
    let mut v = vec![0u8; len];
    buf.copy_to_slice(&mut v);
    String::from_utf8(v).ok()
}

fn scheme_tag(scheme: WeightingScheme) -> (u8, f64) {
    match scheme {
        WeightingScheme::CosineTf => (0, 0.0),
        WeightingScheme::CosineLogTf => (1, 0.0),
        WeightingScheme::CosineTfIdf => (2, 0.0),
        WeightingScheme::PivotedLogTf { slope } => (3, slope),
    }
}

fn scheme_from_tag(tag: u8, param: f64) -> Option<WeightingScheme> {
    match tag {
        0 => Some(WeightingScheme::CosineTf),
        1 => Some(WeightingScheme::CosineLogTf),
        2 => Some(WeightingScheme::CosineTfIdf),
        3 if param.is_finite() => Some(WeightingScheme::PivotedLogTf { slope: param }),
        _ => None,
    }
}

impl Collection {
    /// Serializes the collection to a self-contained binary buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u32(MAGIC);
        buf.put_u16(VERSION);
        let (tag, param) = scheme_tag(self.scheme());
        buf.put_u8(tag);
        buf.put_f64(param);
        let a = self.analyzer_config();
        buf.put_u8(a.remove_stopwords as u8);
        buf.put_u8(a.stem as u8);
        buf.put_u64(self.raw_bytes());
        buf.put_u64(self.total_tokens());
        buf.put_f64(self.mean_norm());

        let vocab = self.vocab();
        buf.put_u32(vocab.len() as u32);
        for (term, s) in vocab.iter() {
            put_str(&mut buf, s);
            buf.put_u32(self.doc_freq(term));
        }

        buf.put_u32(self.len() as u32);
        for doc in self.docs() {
            put_str(&mut buf, &doc.name);
            buf.put_f64(doc.norm);
            buf.put_u32(doc.len);
            buf.put_u32(doc.terms.len() as u32);
            for &(term, weight) in &doc.terms {
                buf.put_u32(term.0);
                buf.put_f64(weight);
            }
        }
        buf.freeze()
    }

    /// Deserializes a [`Collection::to_bytes`] buffer. Returns `None` on
    /// a truncated, corrupt, or version-mismatched buffer. Every count
    /// is capped by the rows the remaining bytes could hold before
    /// anything is reserved, so a count that lies cannot drive an
    /// allocation.
    pub fn from_bytes(mut buf: impl Buf) -> Option<Collection> {
        if buf.remaining() < 4 + 2 + 1 + 8 + 8 + 8 + 8 {
            return None;
        }
        if buf.get_u32() != MAGIC {
            return None;
        }
        if buf.get_u16() != VERSION {
            return None;
        }
        let tag = buf.get_u8();
        let param = buf.get_f64();
        let scheme = scheme_from_tag(tag, param)?;
        if buf.remaining() < 2 {
            return None;
        }
        let analyzer = AnalyzerConfig {
            remove_stopwords: buf.get_u8() != 0,
            stem: buf.get_u8() != 0,
        };
        let raw_bytes = buf.get_u64();
        let total_tokens = buf.get_u64();
        let mean_norm = buf.get_f64();

        if buf.remaining() < 4 {
            return None;
        }
        let n_terms = buf.get_u32() as usize;
        let mut vocab = Vocabulary::new();
        let mut doc_freq = Vec::with_capacity(n_terms.min(buf.remaining() / MIN_TERM_BYTES));
        for i in 0..n_terms {
            let s = get_str(&mut buf)?;
            let id = vocab.intern(&s);
            // Term order must round-trip to keep ids stable.
            if id.index() != i {
                return None;
            }
            if buf.remaining() < 4 {
                return None;
            }
            doc_freq.push(buf.get_u32());
        }

        if buf.remaining() < 4 {
            return None;
        }
        let n_docs = buf.get_u32() as usize;
        let mut docs = Vec::with_capacity(n_docs.min(buf.remaining() / MIN_DOC_BYTES));
        for _ in 0..n_docs {
            let name = get_str(&mut buf)?;
            if buf.remaining() < 8 + 4 + 4 {
                return None;
            }
            let norm = buf.get_f64();
            let len = buf.get_u32();
            let n = buf.get_u32() as usize;
            if buf.remaining() / 12 < n {
                return None;
            }
            let mut terms = Vec::with_capacity(n);
            for _ in 0..n {
                let t = buf.get_u32();
                let w = buf.get_f64();
                if t as usize >= n_terms {
                    return None;
                }
                terms.push((TermId(t), w));
            }
            docs.push(Document {
                name,
                terms,
                norm,
                len,
            });
        }
        Some(Collection::from_stored_parts(
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
