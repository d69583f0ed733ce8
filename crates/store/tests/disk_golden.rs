//! Byte-level goldens for everything the store writes: one record's
//! codec payload, the segment file after one `put`, and `MANIFEST` after
//! one `commit`. The record is built by hand (no analyzer, no collection
//! builder), so the bytes depend on the store's encoders alone; a change
//! to any of them shows here as a hex diff.

use seu_engine::{Fingerprint, WeightingScheme};
use seu_repr::{QuantizedRepresentative, Representative, TermStats};
use seu_stats::ByteQuantizer;
use seu_store::{codec, open_tiered, EngineRecord, EntryKind, Manifest, ManifestEntry, ReprStore};
use seu_text::{AnalyzerConfig, Vocabulary};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Three terms, one of them non-ASCII, under a pivoted scheme.
fn record(name: &str, hash: u64) -> EngineRecord {
    let mut vocab = Vocabulary::new();
    let terms = ["databas", "süß", "queri"];
    let stats = terms
        .iter()
        .enumerate()
        .map(|(i, term)| {
            vocab.intern(term);
            TermStats {
                p: 0.25 * (i + 1) as f64,
                mean: 0.1 + 0.3 * i as f64,
                std_dev: 0.03125 * (i + 1) as f64,
                max: 0.875 - 0.2 * i as f64,
            }
        })
        .collect();
    EngineRecord {
        name: name.into(),
        analyzer: AnalyzerConfig {
            remove_stopwords: true,
            stem: false,
        },
        scheme: WeightingScheme::PivotedLogTf { slope: 0.2 },
        fingerprint: Fingerprint {
            n_docs: 4,
            raw_bytes: 1_234,
            hash,
        },
        doc_freq: Arc::from([1, 2, 3]),
        vocab: Arc::new(vocab),
        repr: Arc::new(Representative::from_parts(4, stats, 1_234)),
    }
}

fn tmp_root(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "seu-disk-golden-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Compares `bytes` with a golden written as hex lines.
fn assert_golden(what: &str, bytes: &[u8], golden: &[&str]) {
    assert_eq!(hex(bytes), golden.concat(), "{what} bytes moved");
}

const RECORD: &[&str] = &[
    "53455552000100036462730100033fc999999999999a00000000000000040000",
    "0000000004d2cbf29ce484222325000000000000000400000000000004d20000",
    "000300000000000000003ff00000000000000003403fd0000000000000803fe0",
    "000000000000c03fe80000000000003fb999999999999a3fe666666666666600",
    "03003fb999999999999a803fd999999999999aff3fe66666666666663fa00000",
    "000000003fb80000000000000003003fa0000000000000803fb0000000000000",
    "ff3fb80000000000003fde6666666666663fec0000000000000003003fde6666",
    "66666666803fe599999999999aff3fec00000000000000000003000000004000",
    "00ff000000018080808000000002c0ffff000007646174616261730000000100",
    "0573c3bcc39f000000020005717565726900000003",
];
const SEGMENT: &[&str] = &[
    "534555470001000000000000000400000000000004d2cbf29ce4842223250000",
    "01351b74b10c53455552000100036462730100033fc999999999999a00000000",
    "0000000400000000000004d2cbf29ce484222325000000000000000400000000",
    "000004d20000000300000000000000003ff00000000000000003403fd0000000",
    "000000803fe0000000000000c03fe80000000000003fb999999999999a3fe666",
    "66666666660003003fb999999999999a803fd999999999999aff3fe666666666",
    "66663fa00000000000003fb80000000000000003003fa0000000000000803fb0",
    "000000000000ff3fb80000000000003fde6666666666663fec00000000000000",
    "03003fde666666666666803fe599999999999aff3fec00000000000000000003",
    "00000000400000ff000000018080808000000002c0ffff000007646174616261",
    "7300000001000573c3bcc39f000000020005717565726900000003",
];
const MANIFEST: &[&str] = &[
    "5345554d00010000000000000007000000020000000000000003000000000000",
    "000400000000000000020000000200036c6f6300000000000000000000000000",
    "000002000000000000000400000000000004d20000000000001111000100033f",
    "c999999999999a00000000000000030000000000000060000000000000000000",
    "00000600000135000372656d0000000000000001000000000000000300000000",
    "0000000400000000000004d2000000000000222201000e3132372e302e302e31",
    "3a373037300100033fc999999999999a00000000000000030000000000000060",
    "00000000000000000000015b0000013510a4ab0c",
];

#[test]
fn record_codec_bytes_are_pinned() {
    let rec = record("dbs", 0xcbf2_9ce4_8422_2325);
    // The golden covers the sparse quantizer tables: at least one
    // trained level differs from its interval midpoint.
    let q = QuantizedRepresentative::from_representative(&rec.repr);
    let exceptions = q
        .quantizers()
        .iter()
        .flat_map(|quantizer| {
            let (lo, hi) = quantizer.range();
            quantizer
                .levels()
                .iter()
                .enumerate()
                .filter(move |&(i, l)| {
                    l.to_bits() != ByteQuantizer::default_level(lo, hi, i as u8).to_bits()
                })
        })
        .count();
    assert!(exceptions > 0, "the record must exercise exception levels");
    let bytes = codec::encode_record(&rec);
    assert_golden("record", &bytes, RECORD);
    let decoded = codec::decode_record(&bytes).expect("golden record decodes");
    assert_eq!(decoded.vocab.term(seu_text::TermId(1)), "süß");
    assert_eq!(decoded.scheme, WeightingScheme::PivotedLogTf { slope: 0.2 });
}

#[test]
fn segment_bytes_after_one_put_are_pinned() {
    let root = tmp_root("segment");
    let store = open_tiered(&root, 1 << 20).unwrap();
    store.put(&record("dbs", 0xcbf2_9ce4_8422_2325)).unwrap();
    drop(store);
    let bytes = std::fs::read(root.join("seg-000000.dat")).unwrap();
    assert_golden("segment", &bytes, SEGMENT);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn manifest_bytes_after_one_commit_are_pinned() {
    let root = tmp_root("manifest");
    let store = open_tiered(&root, 1 << 20).unwrap();
    let local = store.put(&record("loc", 0x1111)).unwrap();
    let remote = store.put(&record("rem", 0x2222)).unwrap();
    let entry = |rec: &EngineRecord, seq: u64, kind: EntryKind| ManifestEntry {
        name: rec.name.clone(),
        seq,
        epoch: seq + 2,
        fingerprint: rec.fingerprint,
        kind,
        analyzer: rec.analyzer,
        scheme: rec.scheme,
        repr_terms: rec.repr.distinct_terms() as u64,
        repr_bytes: 96,
    };
    let manifest = Manifest {
        epoch: 7,
        shard_epochs: vec![3, 4],
        next_seq: 2,
        entries: vec![
            entry(&local, 0, EntryKind::Local),
            entry(
                &remote,
                1,
                EntryKind::Remote {
                    endpoint: "127.0.0.1:7070".into(),
                },
            ),
        ],
    };
    store.commit(&manifest).unwrap();
    drop(store);
    let bytes = std::fs::read(root.join("MANIFEST")).unwrap();
    assert_golden("manifest", &bytes, MANIFEST);
    let reopened = open_tiered(&root, 1 << 20).unwrap();
    assert_eq!(reopened.manifest(), manifest);
    let _ = std::fs::remove_dir_all(&root);
}

fn unhex(golden: &[&str]) -> Vec<u8> {
    let hex = golden.concat();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden hex"))
        .collect()
}

/// The overwrites a torn or scribbled file falls into: each byte set to
/// `0xFF`, and each 4-byte window set to `u32::MAX`.
fn overwrites(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let bytes_ff = (0..bytes.len()).map(|at| {
        let mut mutated = bytes.to_vec();
        mutated[at] = 0xFF;
        (format!("byte {at} = 0xFF"), mutated)
    });
    let windows = (0..bytes.len().saturating_sub(3)).map(|at| {
        let mut mutated = bytes.to_vec();
        mutated[at..at + 4].fill(0xFF);
        (format!("bytes {at}..+4 = u32::MAX"), mutated)
    });
    bytes_ff.chain(windows)
}

fn assert_corrupt<T>(result: Result<T, seu_store::StoreError>, what: &str) {
    match result {
        Err(e) => assert_eq!(e.kind, seu_store::StoreErrorKind::Corrupt, "{what}: {e}"),
        Ok(_) => panic!("{what}: decoded"),
    }
}

#[test]
fn truncated_and_extended_records_are_corrupt() {
    let payload = unhex(RECORD);
    assert!(codec::decode_record(&payload).is_ok());
    for cut in 0..payload.len() {
        assert_corrupt(
            codec::decode_record(&payload[..cut]),
            &format!("record cut to {cut} of {} bytes", payload.len()),
        );
    }
    for extra in [0u8, 1, 0xFF] {
        let mut longer = payload.clone();
        longer.push(extra);
        assert_corrupt(
            codec::decode_record(&longer),
            &format!("record extended by {extra:#04x}"),
        );
    }
}

#[test]
fn overwritten_records_decode_or_are_corrupt() {
    for (what, mutated) in overwrites(&unhex(RECORD)) {
        if let Err(e) = codec::decode_record(&mutated) {
            assert_eq!(e.kind, seu_store::StoreErrorKind::Corrupt, "{what}: {e}");
        }
    }
}

/// Opens a store whose `MANIFEST` holds `body` behind its own CRC, so
/// the parser, not the checksum, meets whatever `body` holds.
fn open_with_manifest(root: &std::path::Path, body: &[u8]) -> Result<(), seu_store::StoreError> {
    let mut bytes = body.to_vec();
    bytes.extend_from_slice(&seu_store::crc32(body).to_be_bytes());
    std::fs::write(root.join("MANIFEST"), &bytes).unwrap();
    open_tiered(root, 0).map(drop)
}

#[test]
fn truncated_extended_and_overwritten_manifests_fail_typed() {
    let root = tmp_root("manifest-sweep");
    std::fs::create_dir_all(&root).unwrap();
    let manifest = unhex(MANIFEST);
    let body = &manifest[..manifest.len() - 4];
    open_with_manifest(&root, body).expect("the golden manifest opens");
    for cut in 0..body.len() {
        assert_corrupt(
            open_with_manifest(&root, &body[..cut]),
            &format!("manifest body cut to {cut} of {} bytes", body.len()),
        );
    }
    for extra in [0u8, 1, 0xFF] {
        let mut longer = body.to_vec();
        longer.push(extra);
        assert_corrupt(
            open_with_manifest(&root, &longer),
            &format!("manifest body extended by {extra:#04x}"),
        );
    }
    for (what, mutated) in overwrites(body) {
        if let Err(e) = open_with_manifest(&root, &mutated) {
            assert_eq!(e.kind, seu_store::StoreErrorKind::Corrupt, "{what}: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
