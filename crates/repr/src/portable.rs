//! The string-keyed frozen form of a representative: the wire and file
//! format that travels without the collection.
//!
//! A [`Representative`] is indexed by term ids, which mean something
//! only against the collection's own vocabulary. A [`FrozenSummary`]
//! carries that vocabulary beside it, so an engine snapshot shipped to
//! another broker and a `.repr` file on disk are self-contained, and the
//! usual estimators run against the `(Representative, Vocabulary)` pair
//! unchanged.

use crate::representative::Representative;
use seu_engine::{Collection, Query};
use seu_text::Vocabulary;

/// A representative with the vocabulary its term ids index.
#[derive(Debug, Clone)]
pub struct FrozenSummary {
    /// The id-aligned representative.
    pub repr: Representative,
    /// The vocabulary its ids index.
    pub vocab: Vocabulary,
}

impl FrozenSummary {
    /// Summarizes one collection, **id-aligned** with it: term `i` of
    /// the summary is term `i` of the collection, so query vectors built
    /// against either vocabulary agree.
    pub fn of_collection(collection: &Collection) -> FrozenSummary {
        FrozenSummary {
            repr: Representative::build(collection),
            vocab: collection.vocab().clone(),
        }
    }

    /// Magic of the compact (f32 statistics) encoding — "SEUS".
    const MAGIC_F32: u32 = 0x5345_5553;
    /// Magic of the exact (f64 statistics) encoding — "SEUT". Version 2
    /// of the same record layout: only the statistic width differs.
    const MAGIC_F64: u32 = 0x5345_5554;

    /// Serializes the summary to a self-contained, string-keyed binary
    /// buffer — unlike [`Representative::to_bytes`], this carries the
    /// term strings, so the receiver needs no shared vocabulary.
    /// Statistics are rounded to f32: half the size, and plenty for
    /// file-based shipping. Use [`FrozenSummary::to_bytes_exact`] when
    /// the receiver must reproduce estimates bit-for-bit.
    pub fn to_bytes(&self) -> bytes::Bytes {
        self.encode(false)
    }

    /// Serializes like [`FrozenSummary::to_bytes`] but keeps every
    /// statistic at full f64 precision, so a broker that receives the
    /// summary over the network computes estimates **byte-identical** to
    /// one that built the representative locally. [`FrozenSummary::from_bytes`]
    /// reads both encodings, telling them apart by magic.
    pub fn to_bytes_exact(&self) -> bytes::Bytes {
        self.encode(true)
    }

    fn encode(&self, exact: bool) -> bytes::Bytes {
        use bytes::BufMut;
        let mut buf = bytes::BytesMut::new();
        buf.put_u32(if exact {
            Self::MAGIC_F64
        } else {
            Self::MAGIC_F32
        });
        buf.put_u64(self.repr.n_docs());
        buf.put_u64(self.repr.collection_bytes());
        buf.put_u32(self.repr.distinct_terms() as u32);
        for (term, s) in self.repr.iter() {
            let name = self.vocab.term(term).as_bytes();
            buf.put_u16(name.len() as u16);
            buf.put_slice(name);
            if exact {
                buf.put_f64(s.p);
                buf.put_f64(s.mean);
                buf.put_f64(s.std_dev);
                buf.put_f64(s.max);
            } else {
                buf.put_f32(s.p as f32);
                buf.put_f32(s.mean as f32);
                buf.put_f32(s.std_dev as f32);
                buf.put_f32(s.max as f32);
            }
        }
        buf.freeze()
    }

    /// Smallest possible encoding of one term record: a 2-byte name
    /// length (the name itself may be empty) plus four statistics of
    /// `stat_bytes` each. Bounds the up-front allocation `from_bytes`
    /// will make for a claimed term count.
    const fn min_term_record_bytes(stat_bytes: usize) -> usize {
        2 + 4 * stat_bytes
    }

    /// Deserializes [`FrozenSummary::to_bytes`] or
    /// [`FrozenSummary::to_bytes_exact`]; `None` on malformed input.
    pub fn from_bytes(mut buf: impl bytes::Buf) -> Option<Self> {
        use crate::representative::TermStats;
        if buf.remaining() < 4 + 8 + 8 + 4 {
            return None;
        }
        let stat_bytes = match buf.get_u32() {
            Self::MAGIC_F32 => 4,
            Self::MAGIC_F64 => 8,
            _ => return None,
        };
        let n_docs = buf.get_u64();
        let collection_bytes = buf.get_u64();
        let n_terms = buf.get_u32() as usize;
        let mut vocab = Vocabulary::new();
        // The claimed count is untrusted: a 16-byte header can announce
        // u32::MAX terms. Cap the pre-allocation by what the remaining
        // bytes could possibly encode; the parse loop still rejects the
        // buffer if it runs short.
        let mut stats = Vec::with_capacity(
            n_terms.min(buf.remaining() / Self::min_term_record_bytes(stat_bytes)),
        );
        for _ in 0..n_terms {
            if buf.remaining() < 2 {
                return None;
            }
            let len = buf.get_u16() as usize;
            if buf.remaining() < len + 4 * stat_bytes {
                return None;
            }
            let mut name = vec![0u8; len];
            buf.copy_to_slice(&mut name);
            let name = String::from_utf8(name).ok()?;
            vocab.intern(&name);
            let mut stat = || {
                if stat_bytes == 8 {
                    buf.get_f64()
                } else {
                    buf.get_f32() as f64
                }
            };
            stats.push(TermStats {
                p: stat(),
                mean: stat(),
                std_dev: stat(),
                max: stat(),
            });
        }
        Some(FrozenSummary {
            repr: Representative::from_parts(n_docs, stats, collection_bytes),
            vocab,
        })
    }

    /// Builds a cosine-normalized query vector over the summary's
    /// vocabulary from analyzed tokens (unknown tokens dropped).
    pub fn query_from_tokens<S: AsRef<str>>(&self, tokens: &[S]) -> Query {
        use std::collections::HashMap;
        let mut tf: HashMap<seu_text::TermId, u32> = HashMap::new();
        for t in tokens {
            if let Some(id) = self.vocab.get(t.as_ref()) {
                *tf.entry(id).or_insert(0) += 1;
            }
        }
        let mut weights: Vec<(seu_text::TermId, f64)> =
            tf.into_iter().map(|(t, f)| (t, f as f64)).collect();
        weights.sort_by_key(|&(t, _)| t);
        let norm = weights.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, w) in weights.iter_mut() {
                *w /= norm;
            }
        }
        Query::new(weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{CollectionBuilder, WeightingScheme};
    use seu_text::Analyzer;

    fn collection(docs: &[&str]) -> Collection {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for (i, d) in docs.iter().enumerate() {
            b.add_document(&format!("d{i}"), d);
        }
        b.build()
    }

    #[test]
    fn frozen_query_normalization() {
        let c = collection(&["alpha beta gamma"]);
        let f = FrozenSummary::of_collection(&c);
        let q = f.query_from_tokens(&["alpha", "beta", "unknown"]);
        assert_eq!(q.len(), 2);
        let sq: f64 = q.terms().iter().map(|&(_, w)| w * w).sum();
        assert!((sq - 1.0).abs() < 1e-12);
        // Duplicate tokens weigh more.
        let q2 = f.query_from_tokens(&["alpha", "alpha", "beta"]);
        assert!(q2.terms()[0].1 > q2.terms()[1].1 || q2.terms()[1].1 > q2.terms()[0].1);
    }

    #[test]
    fn frozen_wire_format_round_trips() {
        let c = collection(&["alpha beta", "alpha gamma gamma", "beta"]);
        let f = FrozenSummary::of_collection(&c);
        let f2 = FrozenSummary::from_bytes(f.to_bytes()).expect("valid buffer");
        assert_eq!(f2.repr.n_docs(), f.repr.n_docs());
        assert_eq!(f2.repr.distinct_terms(), f.repr.distinct_terms());
        for (term, s) in f.repr.iter() {
            let name = f.vocab.term(term);
            let id2 = f2.vocab.get(name).expect("term survives");
            let s2 = f2.repr.get(id2).expect("stats survive");
            assert!((s.p - s2.p).abs() < 1e-6);
            assert!((s.max - s2.max).abs() < 1e-6);
        }
        // Garbage is rejected, not panicked on.
        assert!(FrozenSummary::from_bytes(&b"junk"[..]).is_none());
        let bytes = f.to_bytes();
        assert!(FrozenSummary::from_bytes(&bytes[..bytes.len() - 2]).is_none());
    }

    #[test]
    fn exact_wire_format_round_trips_bit_for_bit() {
        let c = collection(&["alpha beta", "alpha gamma gamma", "beta"]);
        let f = FrozenSummary::of_collection(&c);
        let exact = FrozenSummary::from_bytes(f.to_bytes_exact()).expect("valid buffer");
        assert_eq!(exact.repr.n_docs(), f.repr.n_docs());
        for (term, s) in f.repr.iter() {
            let name = f.vocab.term(term);
            let id2 = exact.vocab.get(name).expect("term survives");
            let s2 = exact.repr.get(id2).expect("stats survive");
            // Full f64 precision: bit-for-bit, not just approximately.
            assert_eq!(s.p.to_bits(), s2.p.to_bits(), "{name}");
            assert_eq!(s.mean.to_bits(), s2.mean.to_bits(), "{name}");
            assert_eq!(s.std_dev.to_bits(), s2.std_dev.to_bits(), "{name}");
            assert_eq!(s.max.to_bits(), s2.max.to_bits(), "{name}");
        }
        // Truncation is rejected for the exact encoding too.
        let bytes = f.to_bytes_exact();
        assert!(FrozenSummary::from_bytes(&bytes[..bytes.len() - 3]).is_none());
    }

    #[test]
    fn from_bytes_caps_allocation_for_malicious_term_counts() {
        use bytes::BufMut;
        // A 24-byte buffer claiming u32::MAX terms: before the capacity
        // cap this demanded a multi-GB Vec before a single record was
        // validated. It must be rejected cheaply instead.
        let mut buf = bytes::BytesMut::new();
        buf.put_u32(0x5345_5553);
        buf.put_u64(3); // n_docs
        buf.put_u64(100); // collection_bytes
        buf.put_u32(u32::MAX); // claimed term count, no records follow
        assert!(FrozenSummary::from_bytes(buf.freeze()).is_none());

        // Same claim with one truncated record behind it.
        let mut buf = bytes::BytesMut::new();
        buf.put_u32(0x5345_5553);
        buf.put_u64(3);
        buf.put_u64(100);
        buf.put_u32(u32::MAX);
        buf.put_u16(5); // name length, but no name bytes
        assert!(FrozenSummary::from_bytes(buf.freeze()).is_none());
    }

    #[test]
    fn empty_summary() {
        let f = FrozenSummary::of_collection(&collection(&[]));
        assert_eq!(f.repr.n_docs(), 0);
        assert_eq!(f.repr.distinct_terms(), 0);
        assert!(f.query_from_tokens(&["x"]).is_empty());
    }
}
