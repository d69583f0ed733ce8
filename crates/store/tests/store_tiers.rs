//! The store's two tiers seen from outside, on a real directory: what
//! the hot tier keeps, what the codec step hands back, and how a bad
//! or absent payload is reported. A cold read is observed through the
//! disk itself: once the segment files are gone, only the hot tier can
//! still answer.

use seu_engine::{CollectionBuilder, Fingerprint, SearchEngine, WeightingScheme};
use seu_repr::Representative;
use seu_store::{
    crc32, open_tiered, EngineRecord, Manifest, ManifestEntry, ReprStore, StoreErrorKind,
};
use seu_text::Analyzer;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn tmp_root(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "seu-store-tiers-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn record(i: usize) -> EngineRecord {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", &format!("alpha{i} beta{i} gamma{i}"));
    b.add_document("d1", &format!("beta{i} delta{i}"));
    let e = SearchEngine::new(b.build());
    let c = e.collection();
    EngineRecord {
        name: format!("hot-{i}"),
        analyzer: c.analyzer_config(),
        scheme: c.scheme(),
        fingerprint: e.fingerprint(),
        doc_freq: c.vocab().iter().map(|(id, _)| c.doc_freq(id)).collect(),
        vocab: Arc::new(c.vocab().clone()),
        repr: Arc::new(Representative::build(c)),
    }
}

/// Puts `rec` into a store at `root` and commits a manifest naming it,
/// so a store opened there later finds it in the cold tier only.
fn committed(root: &Path, rec: &EngineRecord) {
    let store = open_tiered(root, 1 << 20).unwrap();
    store.put(rec).unwrap();
    let manifest = Manifest {
        epoch: 1,
        shard_epochs: vec![1],
        next_seq: 1,
        entries: vec![ManifestEntry {
            name: rec.name.clone(),
            seq: 0,
            epoch: 1,
            fingerprint: rec.fingerprint,
            kind: seu_store::EntryKind::Local,
            analyzer: rec.analyzer,
            scheme: rec.scheme,
            repr_terms: rec.repr.distinct_terms() as u64,
            repr_bytes: rec.repr.bytes_resident(),
        }],
    };
    store.commit(&manifest).unwrap();
}

/// Deletes every segment file: from here on a cold read fails.
fn drop_segments(root: &Path) {
    for entry in std::fs::read_dir(root).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "dat") {
            std::fs::remove_file(path).unwrap();
        }
    }
}

fn assert_same_bits(a: &EngineRecord, b: &EngineRecord) {
    assert_eq!(a.repr.table_len(), b.repr.table_len());
    for (id, s) in a.repr.iter() {
        let t = b.repr.get(id).unwrap();
        assert_eq!(s.p.to_bits(), t.p.to_bits());
        assert_eq!(s.mean.to_bits(), t.mean.to_bits());
        assert_eq!(s.std_dev.to_bits(), t.std_dev.to_bits());
        assert_eq!(s.max.to_bits(), t.max.to_bits());
    }
    assert_eq!(*a.doc_freq, *b.doc_freq);
    assert_eq!(a.fingerprint, b.fingerprint);
}

#[test]
fn a_hot_hit_needs_no_cold_read() {
    let root = tmp_root("hit");
    let rec = record(0);
    committed(&root, &rec);
    let store = open_tiered(&root, 1 << 20).unwrap();
    let first = store.get(rec.fingerprint).unwrap().unwrap();
    drop_segments(&root);
    let second = store.get(rec.fingerprint).unwrap().unwrap();
    assert!(Arc::ptr_eq(&first, &second), "second get must be a hot hit");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn put_primes_the_hot_tier() {
    let root = tmp_root("prime");
    let store = open_tiered(&root, 1 << 20).unwrap();
    let rec = record(1);
    let canonical = store.put(&rec).unwrap();
    drop_segments(&root);
    let served = store.get(rec.fingerprint).unwrap().unwrap();
    assert!(Arc::ptr_eq(&canonical, &served));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_zero_budget_caches_nothing_but_stays_correct() {
    let root = tmp_root("zero");
    let rec = record(3);
    committed(&root, &rec);
    let store = open_tiered(&root, 0).unwrap();
    for _ in 0..3 {
        let got = store.get(rec.fingerprint).unwrap().unwrap();
        assert_eq!(got.name, rec.name);
    }
    drop_segments(&root);
    let err = store.get(rec.fingerprint).unwrap_err();
    assert_eq!(
        err.kind,
        StoreErrorKind::Io,
        "every get reads the cold tier"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_oversized_record_is_served_but_not_cached() {
    let root = tmp_root("oversized");
    let rec = record(4);
    committed(&root, &rec);
    let store = open_tiered(&root, 8).unwrap();
    assert!(store.get(rec.fingerprint).unwrap().is_some());
    drop_segments(&root);
    assert!(store.get(rec.fingerprint).is_err(), "nothing was cached");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn get_serves_the_canonical_bits_put_returned() {
    let root = tmp_root("canonical");
    let rec = record(5);
    let canonical = {
        let store = open_tiered(&root, 1 << 20).unwrap();
        let canonical = store.put(&rec).unwrap();
        // A byte-identical re-put appends nothing and hands back the
        // same bits.
        let segment = root.join("seg-000000.dat");
        let len = std::fs::metadata(&segment).unwrap().len();
        let again = store.put(&rec).unwrap();
        assert_eq!(std::fs::metadata(&segment).unwrap().len(), len);
        assert_same_bits(&canonical, &again);
        canonical
    };
    committed(&root, &rec);
    // A fresh store decodes the same bytes from disk.
    let store = open_tiered(&root, 1 << 20).unwrap();
    let served = store.get(rec.fingerprint).unwrap().unwrap();
    assert_same_bits(&canonical, &served);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_embedded_fingerprint_that_disagrees_with_its_key_is_corrupt() {
    let root = tmp_root("mismatch");
    let rec = record(6);
    committed(&root, &rec);
    // Rewrite the payload's own fingerprint hash (and the record's CRC,
    // so the segment check passes): the key in the segment stays.
    let segment = root.join("seg-000000.dat");
    let mut bytes = std::fs::read(&segment).unwrap();
    let payload_at = 6 + 24 + 4 + 4;
    let hash_at = payload_at + 4 + 2 + (2 + rec.name.len()) + 2 + 9 + 8 + 8;
    bytes[hash_at + 7] ^= 1;
    let crc = crc32(&bytes[payload_at..]);
    bytes[payload_at - 4..payload_at].copy_from_slice(&crc.to_be_bytes());
    std::fs::write(&segment, &bytes).unwrap();
    let embedded = seu_store::codec::decode_record(&bytes[payload_at..]).unwrap();
    assert_eq!(embedded.fingerprint.hash, rec.fingerprint.hash ^ 1);
    let store = open_tiered(&root, 1 << 20).unwrap();
    let err = store.get(rec.fingerprint).unwrap_err();
    assert_eq!(err.kind, StoreErrorKind::Corrupt, "{err}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_missing_key_is_a_clean_none() {
    let root = tmp_root("missing");
    let store = open_tiered(&root, 1 << 20).unwrap();
    let key = Fingerprint {
        n_docs: 2,
        raw_bytes: 100,
        hash: 7,
    };
    assert!(store.get(key).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&root);
}

/// Every format writes an engine name behind a `u16` length, so `put`
/// refuses a longer one before it writes anything, and `commit` refuses
/// a manifest naming one even where a record with its fingerprint is
/// stored under a name that fits.
#[test]
fn a_name_no_format_can_write_is_invalid() {
    let root = tmp_root("long-name");
    let store = open_tiered(&root, 1 << 20).unwrap();
    let mut rec = record(4);
    let fits = rec.name.clone();
    rec.name = "n".repeat(70_000);
    let err = store.put(&rec).unwrap_err();
    assert_eq!(err.kind, StoreErrorKind::Invalid, "{err}");
    assert!(store.get(rec.fingerprint).unwrap().is_none());

    let long = rec.name.clone();
    rec.name = fits;
    store.put(&rec).unwrap();
    let manifest = Manifest {
        epoch: 1,
        shard_epochs: vec![1],
        next_seq: 1,
        entries: vec![ManifestEntry {
            name: long,
            seq: 0,
            epoch: 1,
            fingerprint: rec.fingerprint,
            kind: seu_store::EntryKind::Local,
            analyzer: rec.analyzer,
            scheme: rec.scheme,
            repr_terms: rec.repr.distinct_terms() as u64,
            repr_bytes: rec.repr.bytes_resident(),
        }],
    };
    let err = store.commit(&manifest).unwrap_err();
    assert_eq!(err.kind, StoreErrorKind::Invalid, "{err}");
    let _ = std::fs::remove_dir_all(&root);
}
