//! The cold-tier record codec: one engine's planning metadata plus its
//! representative in the paper's §3.2 one-byte quantized form.
//!
//! A payload carries everything the broker needs to plan and estimate
//! for an engine it has never seen: name, analyzer configuration,
//! weighting scheme, collection fingerprint, the term vocabulary with
//! per-term document frequencies (in the collection's own term-id
//! order, which is what keeps restored query vectors bit-identical to
//! live ones), and the four trained [`ByteQuantizer`]s with one byte
//! per representative number.
//!
//! Quantizer reconstruction tables are stored *sparsely*: only the
//! levels that differ from the untrained interval midpoint
//! ([`ByteQuantizer::default_level`]) are written, so a tiny engine
//! costs a handful of exception entries instead of 4 × 256 fixed
//! doubles. For a fully trained quantizer the worst case is 256
//! exceptions — still bounded.
//!
//! Decoding validates everything: magic, version, enum tags, strictly
//! increasing in-range term ids, duplicate-free vocabulary, and a
//! trailing-byte check, and the decoded record must be
//! [consistent](EngineRecord::is_consistent). Every read goes through
//! [`seu_engine::binary`], the checked reader the engine file and the
//! wire share, so every length read from the payload is checked against
//! the bytes actually remaining before anything is reserved for it.

use crate::StoreError;
use seu_engine::binary::{self, Field};
use seu_engine::shared::term_counts;
use seu_engine::{weighted_query, Fingerprint, Query, SearchEngine, WeightingScheme};
use seu_repr::{QuantizedRepresentative, Representative};
use seu_stats::ByteQuantizer;
use seu_text::{Analyzer, AnalyzerConfig, TermId, Vocabulary};
use std::sync::Arc;

/// Magic prefix of a cold-tier record: `"SEUR"`.
pub const RECORD_MAGIC: u32 = 0x5345_5552;
/// Record format version.
pub const RECORD_VERSION: u16 = 1;

/// Fewest bytes a vocabulary row occupies: an empty term's `u16`
/// length and a `u32` document frequency.
const MIN_VOCAB_ROW_BYTES: usize = 2 + 4;
/// Bytes of a code row: a `u32` term id and four code bytes.
const CODE_ROW_BYTES: usize = 4 + 4;

/// One engine described without its documents: the hot-tier value, what
/// [`crate::ReprStore::put`] canonicalizes to, and what a broker plans
/// with for an engine it does not hold in process (reached over a
/// transport, or restored and not yet re-attached).
///
/// `vocab`, `doc_freq`, and `repr` are id-aligned with the source
/// collection's term ids (row `i` of each describes the collection's
/// term `i`) — so the query vectors built here are bit-identical to the
/// collection's own. The same record is what a remote engine ships and
/// what a `.repr` file holds.
#[derive(Debug, Clone)]
pub struct EngineRecord {
    /// Engine name (registration key).
    pub name: String,
    /// Analysis pipeline configuration of the engine.
    pub analyzer: AnalyzerConfig,
    /// Weighting scheme of the engine.
    pub scheme: WeightingScheme,
    /// Content fingerprint of the summarized collection — the record's
    /// key in the store.
    pub fingerprint: Fingerprint,
    /// Per-term document frequency, indexed by the collection's term
    /// ids.
    pub doc_freq: Arc<[u32]>,
    /// The collection's term vocabulary, in term-id order.
    pub vocab: Arc<Vocabulary>,
    /// The representative, id-aligned with `vocab`.
    pub repr: Arc<Representative>,
}

impl EngineRecord {
    /// The record of an in-process engine, its representative `repr`
    /// (the collection's `Representative::build`, or a transform of it)
    /// moved in. Vocabulary and document frequencies are the
    /// collection's own, shared, not copied: term ids, and therefore
    /// query vectors, match the engine's.
    pub fn of_engine(name: &str, engine: &SearchEngine, repr: Representative) -> EngineRecord {
        let c = engine.collection();
        EngineRecord {
            name: name.to_string(),
            analyzer: c.analyzer_config(),
            scheme: c.scheme(),
            fingerprint: engine.fingerprint(),
            doc_freq: c.shared_doc_freq().clone(),
            vocab: c.shared_vocab().clone(),
            repr: Arc::new(repr),
        }
    }

    /// Documents in the collection, as the u32 remote-planning APIs
    /// expect it.
    pub fn n_docs(&self) -> u32 {
        self.fingerprint.n_docs.min(u64::from(u32::MAX)) as u32
    }

    /// Builds the engine-local query vector from local term frequencies
    /// — the twin of `Collection::query_from_tf`, byte-identical to what
    /// the engine's own collection would produce.
    pub fn query_from_tf(&self, tf: impl IntoIterator<Item = (TermId, u32)>) -> Query {
        let doc_freq = |t: TermId| self.doc_freq.get(t.index()).copied().unwrap_or(0);
        weighted_query(self.scheme, self.n_docs(), doc_freq, tf)
    }

    /// Builds the engine-local query vector directly from text — the
    /// fallback when a broker's shared analysis pass did not cover this
    /// engine's analyzer configuration.
    pub fn query_from_text(&self, text: &str) -> Query {
        let tokens = Analyzer::new(self.analyzer).analyze(text);
        self.query_from_tf(term_counts(&self.vocab, &tokens))
    }

    /// Whether the record holds together: `doc_freq` and the
    /// representative's table each have exactly one row per vocabulary
    /// term (a term no document weighs, as tf-idf weighs a term in every
    /// document, has its row with `p = 0`), and the fingerprint and the
    /// representative count the same documents. Every record built from
    /// a collection passes it; the store codec, the wire and every
    /// broker install refuse a record that does not, so an engine plans
    /// alike live and shipped.
    pub fn is_consistent(&self) -> bool {
        let terms = self.vocab.len();
        self.doc_freq.len() == terms
            && self.repr.table_len() == terms
            && self.repr.n_docs() == self.fingerprint.n_docs
    }

    /// Approximate resident bytes of the decoded record — the hot
    /// tier's budget accounting. The vocabulary is charged what it
    /// holds: its three buffers at capacity.
    pub fn cost(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.name.len()
            + self.doc_freq.len() * 4
            + std::mem::size_of::<Vocabulary>()
            + self.vocab.heap_bytes()
            + self.repr.bytes_resident() as usize
    }
}

fn put_quantizer(buf: &mut Vec<u8>, q: &ByteQuantizer) {
    let (lo, hi) = q.range();
    lo.put(buf);
    hi.put(buf);
    let exceptions: Vec<(u8, f64)> = q
        .levels()
        .iter()
        .enumerate()
        .filter(|&(i, l)| l.to_bits() != ByteQuantizer::default_level(lo, hi, i as u8).to_bits())
        .map(|(i, &l)| (i as u8, l))
        .collect();
    (exceptions.len() as u16).put(buf);
    for (code, level) in exceptions {
        code.put(buf);
        level.put(buf);
    }
}

fn get_quantizer(buf: &mut &[u8]) -> Result<ByteQuantizer, StoreError> {
    let lo = f64::get(buf)?;
    let hi = f64::get(buf)?;
    // NaN bounds are corrupt too, so a plain `lo > hi` is not enough.
    if lo.is_nan() || hi.is_nan() || lo > hi {
        return Err(StoreError::corrupt(format!(
            "quantizer range [{lo}, {hi}] is invalid"
        )));
    }
    let n = usize::from(u16::get(buf)?);
    if n > 256 {
        return Err(StoreError::corrupt(format!(
            "quantizer claims {n} exception levels (max 256)"
        )));
    }
    let mut levels: Vec<f64> = (0..=255u8)
        .map(|code| ByteQuantizer::default_level(lo, hi, code))
        .collect();
    for _ in 0..n {
        let code = u8::get(buf)?;
        levels[usize::from(code)] = f64::get(buf)?;
    }
    ByteQuantizer::from_parts(lo, hi, levels)
        .ok_or_else(|| StoreError::corrupt("quantizer parts rejected"))
}

/// Encodes a record into its cold-tier payload: metadata, sparse
/// quantizer tables, one-byte codes, and the vocabulary rows.
///
/// The representative is quantized here (trained on the record's own
/// values); decoding therefore yields the quantized *round-trip* of
/// the input, which is exactly what [`crate::ReprStore::put`] hands
/// back as the canonical record.
pub fn encode_record(record: &EngineRecord) -> Vec<u8> {
    assert!(
        record.is_consistent(),
        "record rows must align: {} vocab / {} doc_freq / {} repr rows",
        record.vocab.len(),
        record.doc_freq.len(),
        record.repr.table_len()
    );
    let q = QuantizedRepresentative::from_representative(&record.repr);
    let mut buf = Vec::with_capacity(64 + record.vocab.len() * 16);
    RECORD_MAGIC.put(&mut buf);
    RECORD_VERSION.put(&mut buf);
    binary::put_str16(&mut buf, &record.name);
    record.analyzer.put(&mut buf);
    record.scheme.put(&mut buf);
    record.fingerprint.put(&mut buf);
    q.n_docs().put(&mut buf);
    q.collection_bytes().put(&mut buf);
    (q.table_len() as u32).put(&mut buf);
    for quantizer in q.quantizers() {
        put_quantizer(&mut buf, quantizer);
    }
    (q.codes().len() as u32).put(&mut buf);
    for &(term, codes) in q.codes() {
        term.0.put(&mut buf);
        buf.extend_from_slice(&codes);
    }
    for (id, term) in record.vocab.iter() {
        binary::put_str16(&mut buf, term);
        record.doc_freq[id.index()].put(&mut buf);
    }
    buf
}

/// Decodes a cold-tier payload back into an [`EngineRecord`],
/// validating every field and checking every claimed length against the
/// bytes actually present before allocating.
pub fn decode_record(mut bytes: &[u8]) -> Result<EngineRecord, StoreError> {
    let buf = &mut bytes;
    let magic = u32::get(buf)?;
    if magic != RECORD_MAGIC {
        return Err(StoreError::corrupt(format!("bad record magic {magic:#x}")));
    }
    let version = u16::get(buf)?;
    if version != RECORD_VERSION {
        return Err(StoreError::corrupt(format!(
            "unsupported record version {version}"
        )));
    }
    let name = binary::str16(buf)?.to_owned();
    let analyzer = AnalyzerConfig::get(buf)?;
    let scheme = WeightingScheme::get(buf)?;
    let fingerprint = Fingerprint::get(buf)?;
    let n_docs = u64::get(buf)?;
    let collection_bytes = u64::get(buf)?;
    // The vocabulary rows end the payload, so what remains holds them.
    let rows = binary::count(buf, MIN_VOCAB_ROW_BYTES)?;
    let quantizers = [
        get_quantizer(buf)?,
        get_quantizer(buf)?,
        get_quantizer(buf)?,
        get_quantizer(buf)?,
    ];
    let n_codes = binary::count(buf, CODE_ROW_BYTES)?;
    if n_codes > rows {
        return Err(StoreError::corrupt(format!(
            "{n_codes} codes for {rows} rows"
        )));
    }
    let mut codes: Vec<(TermId, [u8; 4])> = Vec::with_capacity(n_codes);
    let mut prev: Option<u32> = None;
    for _ in 0..n_codes {
        let term = u32::get(buf)?;
        if term as usize >= rows || prev.is_some_and(|p| term <= p) {
            return Err(StoreError::corrupt(format!(
                "code term id {term} out of order or out of range (rows {rows})"
            )));
        }
        prev = Some(term);
        codes.push((TermId(term), u32::get(buf)?.to_be_bytes()));
    }
    let (vocab, doc_freq) = binary::vocab_rows(buf, rows, 4, u32::get)?;
    if !buf.is_empty() {
        return Err(StoreError::corrupt(format!(
            "{} trailing bytes after record",
            buf.len()
        )));
    }
    let quantized =
        QuantizedRepresentative::from_parts(n_docs, collection_bytes, rows, codes, quantizers)
            .ok_or_else(|| StoreError::corrupt("quantized representative parts rejected"))?;
    let record = EngineRecord {
        name,
        analyzer,
        scheme,
        fingerprint,
        doc_freq: doc_freq.into(),
        vocab: Arc::new(vocab),
        repr: Arc::new(quantized.decode()),
    };
    if !record.is_consistent() {
        return Err(StoreError::corrupt(format!(
            "record for engine {:?} is inconsistent",
            record.name
        )));
    }
    Ok(record)
}

/// The canonical (quantized round-trip) form of a record, computed
/// purely in memory: bit for bit what `decode_record(&encode_record(r))`
/// gives, without writing the record. A store-attached broker installs
/// it when the store refuses or fails the write (a name no format can
/// write included), so estimates stay bit-identical with a later
/// restore from a healthy store.
pub fn roundtrip(record: &EngineRecord) -> EngineRecord {
    let repr = QuantizedRepresentative::from_representative(&record.repr).decode();
    EngineRecord {
        repr: Arc::new(repr),
        ..record.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreErrorKind;
    use proptest::prelude::*;
    use seu_engine::{CollectionBuilder, SearchEngine};
    use seu_text::Analyzer;

    fn engine(texts: &[&str]) -> SearchEngine {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        for (i, t) in texts.iter().enumerate() {
            b.add_document(&format!("d{i}"), t);
        }
        SearchEngine::new(b.build())
    }

    fn record_of(name: &str, e: &SearchEngine) -> EngineRecord {
        EngineRecord::of_engine(name, e, Representative::build(e.collection()))
    }

    fn record(texts: &[&str]) -> EngineRecord {
        record_of("probe", &engine(texts))
    }

    #[test]
    fn round_trip_preserves_metadata_and_is_a_fixpoint() {
        let rec = record(&[
            "surface roughness metal cutting",
            "grinding wheel wear metal",
            "tool geometry cutting force",
        ]);
        let decoded = roundtrip(&rec);
        assert_eq!(decoded.name, rec.name);
        assert_eq!(decoded.analyzer, rec.analyzer);
        assert_eq!(decoded.scheme, rec.scheme);
        assert_eq!(decoded.fingerprint, rec.fingerprint);
        assert_eq!(*decoded.doc_freq, *rec.doc_freq);
        assert_eq!(decoded.vocab.len(), rec.vocab.len());
        for (id, term) in rec.vocab.iter() {
            assert_eq!(decoded.vocab.term(id), term);
        }
        assert!(decoded.is_consistent());
        // Quantization error stays within the paper's interval bound.
        for (id, s) in rec.repr.iter() {
            let d = decoded.repr.get(id).expect("term survives quantization");
            assert!((s.p - d.p).abs() <= 1.0 / 256.0 + 1e-9);
        }
        // Decoding is a fixpoint: the canonical bytes decode to
        // themselves, which is what makes snapshot/restore bit-stable.
        let bytes = encode_record(&rec);
        let again = decode_record(&bytes).unwrap();
        for (id, s) in decoded.repr.iter() {
            let a = again.repr.get(id).unwrap();
            assert_eq!(s.p.to_bits(), a.p.to_bits());
            assert_eq!(s.mean.to_bits(), a.mean.to_bits());
            assert_eq!(s.std_dev.to_bits(), a.std_dev.to_bits());
            assert_eq!(s.max.to_bits(), a.max.to_bits());
        }
    }

    #[test]
    fn empty_collection_round_trips() {
        let rec = record(&[]);
        let decoded = roundtrip(&rec);
        assert_eq!(decoded.vocab.len(), 0);
        assert_eq!(decoded.repr.distinct_terms(), 0);
    }

    #[test]
    fn sparse_quantizer_tables_keep_tiny_records_tiny() {
        let rec = record(&["alpha beta", "beta gamma"]);
        let bytes = encode_record(&rec);
        // Dense tables alone would cost 4 * 256 * 8 = 8192 bytes; the
        // sparse encoding must stay well under that for a tiny engine.
        assert!(
            bytes.len() < 2048,
            "tiny record encoded to {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn rejects_wrong_magic_version_and_truncation() {
        let rec = record(&["alpha beta gamma"]);
        let bytes = encode_record(&rec);

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(
            decode_record(&wrong_magic).unwrap_err().kind,
            StoreErrorKind::Corrupt
        );

        let mut wrong_version = bytes.clone();
        wrong_version[5] = 0xEE;
        assert_eq!(
            decode_record(&wrong_version).unwrap_err().kind,
            StoreErrorKind::Corrupt
        );

        for cut in [0, 1, 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_record(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }

        assert!(decode_record(&[]).is_err());
    }

    #[test]
    fn rejects_a_fingerprint_counting_other_documents() {
        let rec = record(&["alpha beta gamma"]);
        let mut bytes = encode_record(&rec);
        // magic(4) + version(2) + name(2+5) + analyzer(2) + scheme(9).
        let at = 4 + 2 + 2 + rec.name.len() + 2 + 9;
        bytes[at..at + 8].copy_from_slice(&(rec.fingerprint.n_docs + 1).to_be_bytes());
        let err = decode_record(&bytes).unwrap_err();
        assert!(err.detail.contains("inconsistent"), "{err}");
    }

    #[test]
    fn rejects_trailing_bytes() {
        let rec = record(&["alpha beta gamma"]);
        let mut bytes = encode_record(&rec);
        bytes.push(0);
        let err = decode_record(&bytes).unwrap_err();
        assert!(err.detail.contains("trailing"), "{err}");
    }

    #[test]
    fn cost_charges_the_vocabulary_at_capacity() {
        // "alpha beta gamma": three terms of 14 bytes. The record shares
        // its collection's vocabulary, which interned term by term, so
        // it is charged the slack its buffers grew: a 16-byte arena,
        // four ends and the first id table, of 8 slots.
        let rec = record(&["alpha beta gamma"]);
        assert_eq!(rec.vocab.heap_bytes(), 16 + 4 * 4 + 8 * 4);
        // On a 64-bit target: the record (its `doc_freq` a 16-byte
        // slice handle), its name, three document frequencies, the
        // vocabulary and its 64 heap bytes, the representative.
        assert_eq!(rec.cost(), 441);
        // A decoded record's vocabulary is sized once, from the
        // payload: its arena and ends are exact.
        let decoded = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(decoded.vocab.heap_bytes(), 14 + 3 * 4 + 8 * 4);
    }

    #[test]
    fn length_lying_row_count_fails_without_overallocation() {
        // A payload claiming u32::MAX rows with only a few bytes behind
        // it must fail fast; the allocation cap keeps the reserve
        // proportional to the actual remaining bytes.
        let rec = record(&["alpha beta gamma delta"]);
        let bytes = encode_record(&rec);
        // Find the row-count offset: magic(4) + version(2) +
        // name(2+5) + analyzer(2) + scheme(9) + fingerprint(24) +
        // n_docs(8) + bytes(8) = 64, rows at 64..68.
        let rows_at = 4 + 2 + 2 + rec.name.len() + 2 + 9 + 24 + 8 + 8;
        let mut lying = bytes.clone();
        lying[rows_at..rows_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_record(&lying).is_err());

        // Same for the code count (directly after the 4 quantizers).
        let err = decode_record(&bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err.kind, StoreErrorKind::Corrupt);
    }

    /// The record of `n_docs` pseudo-random documents drawn from a small
    /// pool of words, weighted by `scheme`.
    fn random_record(seed: u64, n_docs: usize, scheme: WeightingScheme) -> EngineRecord {
        const POOL: &[&str] = &[
            "database", "index", "query", "vector", "ranking", "term", "network", "storage",
            "cache", "shard", "merge", "filter",
        ];
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), scheme);
        let mut s = seed;
        for i in 0..n_docs {
            let mut text = String::new();
            for _ in 0..3 + (s % 5) {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                text.push_str(POOL[(s >> 33) as usize % POOL.len()]);
                text.push(' ');
            }
            b.add_document(&format!("d{i}"), &text);
        }
        record_of(&format!("prop-{seed}"), &SearchEngine::new(b.build()))
    }

    /// Every field of `r`, each number as its bits.
    #[allow(clippy::type_complexity)]
    fn bits(
        r: &EngineRecord,
    ) -> (
        String,
        AnalyzerConfig,
        WeightingScheme,
        Fingerprint,
        Vec<u32>,
        Vec<String>,
        Vec<[u64; 4]>,
        u64,
        u64,
    ) {
        let terms = r.vocab.iter().map(|(_, t)| t.to_string()).collect();
        let rows = r.repr.rows().iter();
        let rows = rows
            .map(|s| [s.p, s.mean, s.std_dev, s.max].map(f64::to_bits))
            .collect();
        (
            r.name.clone(),
            r.analyzer,
            r.scheme,
            r.fingerprint,
            r.doc_freq.to_vec(),
            terms,
            rows,
            r.repr.n_docs(),
            r.repr.collection_bytes(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The in-memory canonical form is the one the codec's bytes
        /// decode to, bit for bit, under either weighting (tf-idf gives
        /// a term in every document a `p = 0` row).
        #[test]
        fn roundtrip_is_decode_of_encode(
            seed in 0u64..5000,
            n_docs in 1usize..12,
            tf_idf in any::<bool>(),
        ) {
            let scheme = if tf_idf { WeightingScheme::CosineTfIdf } else { WeightingScheme::CosineTf };
            let rec = random_record(seed, n_docs, scheme);
            let decoded = decode_record(&encode_record(&rec)).unwrap();
            prop_assert_eq!(bits(&roundtrip(&rec)), bits(&decoded));
        }

        /// Encode → decode is the identity on already-canonical records
        /// (modulo quantization, which decode applies identically on
        /// both sides) for arbitrary small corpora.
        #[test]
        fn round_trip_identity_over_random_corpora(
            seed in 0u64..5000,
            n_docs in 1usize..12,
        ) {
            let rec = random_record(seed, n_docs, WeightingScheme::CosineTf);
            let first = roundtrip(&rec);
            prop_assert!(first.is_consistent());
            prop_assert_eq!(first.vocab.len(), rec.vocab.len());
            // Re-encoding the canonical record and decoding again must
            // reproduce it bit-for-bit.
            let second = decode_record(&encode_record(&rec)).unwrap();
            for (id, s) in first.repr.iter() {
                let t = second.repr.get(id).unwrap();
                prop_assert_eq!(s.p.to_bits(), t.p.to_bits());
                prop_assert_eq!(s.mean.to_bits(), t.mean.to_bits());
                prop_assert_eq!(s.std_dev.to_bits(), t.std_dev.to_bits());
                prop_assert_eq!(s.max.to_bits(), t.max.to_bits());
            }
        }

        /// Arbitrary corruption never panics, never overallocates, and
        /// either decodes cleanly or reports a typed error.
        #[test]
        fn corruption_is_rejected_or_harmless(
            seed in 0u64..2000,
            flip_at in 0usize..4096,
            flip_bits in 1u64..256,
        ) {
            let e = engine(&["alpha beta gamma", "beta delta", "gamma epsilon zeta"]);
            let rec = record_of(&format!("c{seed}"), &e);
            let mut bytes = encode_record(&rec);
            let at = flip_at % bytes.len();
            bytes[at] ^= flip_bits as u8;
            // Must not panic; a surviving decode must still be
            // internally consistent.
            if let Ok(decoded) = decode_record(&bytes) {
                prop_assert!(decoded.is_consistent());
            }
        }

        /// Truncation at every prefix length is rejected without
        /// panicking or allocating past the input.
        #[test]
        fn every_truncation_is_rejected(cut_ratio in 0.0f64..1.0) {
            let rec = record(&["alpha beta gamma delta", "beta epsilon"]);
            let bytes = encode_record(&rec);
            let cut = ((bytes.len() - 1) as f64 * cut_ratio) as usize;
            prop_assert!(decode_record(&bytes[..cut]).is_err());
        }
    }
}
