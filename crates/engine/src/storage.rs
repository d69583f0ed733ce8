//! Binary persistence of collections.
//!
//! A local search engine survives restarts by persisting its analyzed,
//! weighted collection; the inverted index is rebuilt on load (it is a
//! derived structure and rebuilding is one linear pass). The format is a
//! versioned little-schema big-endian layout, written into a `Vec<u8>`
//! and read back through a checked `&[u8]` cursor — no external codec.

use crate::collection::{Collection, Document};
use crate::weighting::WeightingScheme;
use seu_text::{AnalyzerConfig, TermId, Vocabulary};

const MAGIC: u32 = 0x5345_5543; // "SEUC"
const VERSION: u16 = 1;

/// Smallest document row: an empty name (u16 length), norm (f64),
/// length (u32) and term count (u32).
const MIN_DOC_BYTES: usize = 2 + 8 + 4 + 4;

/// A fixed-width big-endian field: appended to a `Vec<u8>`, and split
/// off the front of a cursor — `None` when too few bytes remain, the
/// one place a read is checked against what is left.
trait Field: Sized {
    fn put(self, out: &mut Vec<u8>);
    fn get(buf: &mut &[u8]) -> Option<Self>;
}

macro_rules! field {
    ($($ty:ty),+) => {$(
        impl Field for $ty {
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn get(buf: &mut &[u8]) -> Option<Self> {
                let raw = take(buf, std::mem::size_of::<$ty>())?;
                Some(<$ty>::from_be_bytes(raw.try_into().ok()?))
            }
        }
    )+};
}
field!(u8, u16, u32, u64, f64);

/// Splits `n` bytes off the front of `buf`.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Some(head)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "string too long to store");
    (s.len() as u16).put(out);
    out.extend_from_slice(s.as_bytes());
}

fn get_str<'a>(buf: &mut &'a [u8]) -> Option<&'a str> {
    let len = u16::get(buf)? as usize;
    std::str::from_utf8(take(buf, len)?).ok()
}

/// The bytes the terms of the `n` vocabulary rows at the front of `buf`
/// hold; `None` when it holds fewer rows. A row is at least six bytes (a
/// u16 length and a u32 document frequency), so a count that lies ends
/// the pass early.
fn term_bytes(mut buf: &[u8], n: usize) -> Option<usize> {
    let mut bytes = 0;
    for _ in 0..n {
        let len = u16::get(&mut buf)? as usize;
        take(&mut buf, len + 4)?;
        bytes += len;
    }
    Some(bytes)
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
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        MAGIC.put(&mut out);
        VERSION.put(&mut out);
        let (tag, param) = scheme_tag(self.scheme());
        tag.put(&mut out);
        param.put(&mut out);
        let a = self.analyzer_config();
        (a.remove_stopwords as u8).put(&mut out);
        (a.stem as u8).put(&mut out);
        self.raw_bytes().put(&mut out);
        self.total_tokens().put(&mut out);
        self.mean_norm().put(&mut out);

        let vocab = self.vocab();
        (vocab.len() as u32).put(&mut out);
        for (term, s) in vocab.iter() {
            put_str(&mut out, s);
            self.doc_freq(term).put(&mut out);
        }

        (self.len() as u32).put(&mut out);
        for doc in self.docs() {
            put_str(&mut out, &doc.name);
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
    /// Every count is capped by the rows the remaining bytes could hold
    /// before anything is reserved, so a count that lies cannot drive an
    /// allocation. A term's document frequency must lie between the
    /// number of documents listing it and the number of documents, and
    /// be at least one: a term no document counts is refused. (A
    /// document may count a term and not list it: tf-idf gives a term in
    /// every document weight zero, and zero weights are not stored.)
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Option<Collection> {
        let buf = &mut bytes.as_ref();
        if u32::get(buf)? != MAGIC || u16::get(buf)? != VERSION {
            return None;
        }
        let scheme = scheme_from_tag(u8::get(buf)?, f64::get(buf)?)?;
        let analyzer = AnalyzerConfig {
            remove_stopwords: u8::get(buf)? != 0,
            stem: u8::get(buf)? != 0,
        };
        let raw_bytes = u64::get(buf)?;
        let total_tokens = u64::get(buf)?;
        let mean_norm = f64::get(buf)?;

        let n_terms = u32::get(buf)? as usize;
        // Sized once, from the rows themselves; each term is borrowed.
        let mut vocab = Vocabulary::with_capacity(n_terms, term_bytes(buf, n_terms)?);
        let mut doc_freq = Vec::with_capacity(n_terms);
        for i in 0..n_terms {
            let id = vocab.intern(get_str(buf)?);
            // Term order must round-trip to keep ids stable.
            if id.index() != i {
                return None;
            }
            doc_freq.push(u32::get(buf)?);
        }

        let n_docs = u32::get(buf)? as usize;
        let mut docs = Vec::with_capacity(n_docs.min(buf.len() / MIN_DOC_BYTES));
        let mut listed = vec![0u32; n_terms];
        for _ in 0..n_docs {
            let name = get_str(buf)?.to_string();
            let norm = f64::get(buf)?;
            let len = u32::get(buf)?;
            let n = u32::get(buf)? as usize;
            if buf.len() / 12 < n {
                return None;
            }
            let mut terms = Vec::with_capacity(n);
            for _ in 0..n {
                let t = u32::get(buf)?;
                let w = f64::get(buf)?;
                if t as usize >= n_terms {
                    return None;
                }
                listed[t as usize] += 1;
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
            return None;
        }
        let counted = |(&df, &n): (&u32, &u32)| n <= df && df >= 1 && df as usize <= n_docs;
        if !doc_freq.iter().zip(&listed).all(counted) {
            return None;
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
