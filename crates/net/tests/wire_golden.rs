//! Golden wire bytes and structured mutation for every message kind.
//!
//! Each sample's `(kind, payload)` is pinned as hex. The hex was
//! produced by the hand-written codec at commit 6b25d83 (the parent of
//! the table-driven codec), so "this file passes unedited" is the
//! evidence that a codec rewrite kept every byte on the wire. Encodings
//! are compared, never `Debug` output: an `EngineRecord`'s vocabulary
//! holds a map whose print order is not stable.
//!
//! A new kind needs a sample here: `the_samples_cover_every_kind` fails
//! when the codec decodes a kind the samples do not.

use seu_core::Usefulness;
use seu_engine::{Fingerprint, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    DispatchOutcome, EngineDispatchStats, EngineRecord, MergedHit, RemoteHit, SelectionPolicy,
    TransportError, TransportErrorKind,
};
use seu_net::wire::Message;
use seu_obs::{SpanId, SpanRecord};
use seu_repr::{Representative, TermStats};
use seu_text::{AnalyzerConfig, Vocabulary};
use std::sync::Arc;

/// The smallest positive subnormal `f64`, whose bits are `1` (a literal:
/// `f64::from_bits` is `const` only from Rust 1.83).
const SUBNORMAL: f64 = 5e-324;

/// A hand-built record (no analyzer or collection builder involved, so
/// the bytes depend on the codec alone): three terms, one non-ASCII, a
/// `-0.0` and a subnormal among the statistics.
fn snapshot() -> Arc<EngineRecord> {
    let mut vocab = Vocabulary::new();
    let terms = ["databas", "süß", "queri"];
    let stats = terms
        .iter()
        .enumerate()
        .map(|(i, term)| {
            vocab.intern(term);
            TermStats {
                p: 0.25 * (i + 1) as f64,
                mean: 0.1 + i as f64,
                std_dev: if i == 0 { -0.0 } else { 0.03125 },
                max: if i == 1 { SUBNORMAL } else { 0.875 },
            }
        })
        .collect();
    Arc::new(EngineRecord {
        name: "dbs".into(),
        analyzer: AnalyzerConfig {
            remove_stopwords: true,
            stem: false,
        },
        scheme: WeightingScheme::PivotedLogTf { slope: 0.2 },
        doc_freq: Arc::from([1, 2, 3]),
        fingerprint: Fingerprint {
            n_docs: 4,
            raw_bytes: 1_234,
            hash: 0xcbf2_9ce4_8422_2325,
        },
        vocab: Arc::new(vocab),
        repr: Arc::new(Representative::from_parts(4, stats, 1_234)),
    })
}

fn hits() -> Vec<RemoteHit> {
    vec![
        RemoteHit {
            doc: "d0".into(),
            sim: 0.9,
        },
        RemoteHit {
            doc: "süß".into(),
            sim: SUBNORMAL,
        },
    ]
}

/// At least one message per kind, in kind order; row `i` of
/// [`GOLDEN`] pins message `i`.
fn messages() -> Vec<Message> {
    let names = |ns: &[&str]| ns.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    vec![
        Message::Hello { subscribe: true },
        Message::HelloAck {
            name: "pantry".into(),
        },
        Message::SearchDocs {
            query: "crème brûlée 寿司".into(),
            threshold: -0.0,
        },
        Message::SearchResults { hits: vec![] },
        Message::SearchResults { hits: hits() },
        Message::GetRepresentative,
        Message::Representative {
            snapshot: snapshot(),
        },
        Message::InvalidateNotice {
            name: "dbs".into(),
            fingerprint: Fingerprint {
                n_docs: 7,
                raw_bytes: u64::MAX,
                hash: 0x0123_4567_89ab_cdef,
            },
            epoch: 9,
        },
        Message::Ping,
        Message::Pong,
        Message::Error {
            detail: "unknown message kind 77".into(),
        },
        Message::TracedSearchDocs {
            query: "q".into(),
            threshold: 0.125,
            trace_id: 0xdead_beef,
            parent_span: 42,
            sampled: true,
        },
        Message::TracedSearchResults {
            hits: hits(),
            spans: vec![
                SpanRecord {
                    id: SpanId(7),
                    parent: SpanId(42),
                    name: "remote_search".into(),
                    start_unix_ns: 1_000,
                    duration_ns: 2_000,
                    attrs: vec![("engine".into(), "dbs".into()), ("hits".into(), "2".into())],
                },
                SpanRecord {
                    id: SpanId(8),
                    parent: SpanId(7),
                    name: "score".into(),
                    start_unix_ns: 1_100,
                    duration_ns: 0,
                    attrs: vec![],
                },
            ],
        },
        Message::EstimateBatch {
            queries: names(&["mushroom soup", "", "寿司"]),
            threshold: 0.15,
        },
        Message::EstimateBatch {
            queries: vec![],
            threshold: 0.0,
        },
        Message::UsefulnessBatch {
            results: vec![
                TrueUsefulness {
                    no_doc: 0,
                    avg_sim: 0.0,
                    max_sim: -0.0,
                },
                TrueUsefulness {
                    no_doc: u64::MAX,
                    avg_sim: 0.3,
                    max_sim: SUBNORMAL,
                },
            ],
        },
        Message::ReplicaSearch {
            query: "q".into(),
            threshold: 0.5,
            engines: vec![],
        },
        Message::ReplicaSearchResults {
            hits: vec![MergedHit {
                engine: "a".into(),
                doc: "d0".into(),
                sim: 0.875,
            }],
            stats: vec![
                EngineDispatchStats {
                    engine: "a".into(),
                    hits: 1,
                    seconds: 0.002,
                    outcome: DispatchOutcome::Completed,
                    error: None,
                },
                EngineDispatchStats {
                    engine: "b".into(),
                    hits: 0,
                    seconds: 0.0,
                    outcome: DispatchOutcome::Failed,
                    error: Some(TransportError::new(
                        TransportErrorKind::ConnectionLost,
                        "engine died mid-frame",
                    )),
                },
                EngineDispatchStats {
                    engine: "c".into(),
                    hits: 0,
                    seconds: 0.0,
                    outcome: DispatchOutcome::TimedOut,
                    error: Some(TransportError::new(TransportErrorKind::Timeout, "")),
                },
            ],
        },
        Message::InstallEngine {
            name: "dbs".into(),
            snapshot: Some(snapshot()),
            endpoint: Some("127.0.0.1:7070".into()),
        },
        Message::InstallEngine {
            name: "dbs".into(),
            snapshot: None,
            endpoint: None,
        },
        Message::InstallAck { name: "dbs".into() },
        Message::RemoveEngine { name: "dbs".into() },
        Message::RemoveAck { removed: false },
        Message::ExportEngine {
            name: "süß".into()
        },
        Message::ReplicaPlan {
            query: "mushroom soup".into(),
            threshold: 0.25,
            engines: names(&["engine-0", "engine-1"]),
            policy: Some(SelectionPolicy::MinNoDoc(0.5)),
        },
        Message::ReplicaPlan {
            query: "q".into(),
            threshold: 0.5,
            engines: vec![],
            policy: None,
        },
        Message::ReplicaPlanResults {
            rows: vec![
                (
                    0,
                    Usefulness {
                        no_doc: 1.75,
                        avg_sim: 0.31,
                    },
                ),
                (
                    3,
                    Usefulness {
                        no_doc: -0.0,
                        avg_sim: SUBNORMAL,
                    },
                ),
            ],
            hits: vec![MergedHit {
                engine: "a".into(),
                doc: "d0".into(),
                sim: 0.875,
            }],
            stats: vec![EngineDispatchStats {
                engine: "a".into(),
                hits: 1,
                seconds: 0.002,
                outcome: DispatchOutcome::Completed,
                error: None,
            }],
        },
    ]
}

/// `(kind, payload hex)` of each of [`messages`], as the parent codec
/// encoded it.
const GOLDEN: &[(u8, &str)] = &[
    (1, "01"),
    (2, "0000000670616e747279"),
    (3, "000000166372c3a86d65206272c3bb6cc3a96520e5afbfe58fb88000000000000000"),
    (4, "00000000"),
    (4, "000000020000000264303feccccccccccccd0000000573c3bcc39f0000000000000001"),
    (7, ""),
    (8, "0000000364627301033fc999999999999a00000004000000000000000400000000000004d2cbf29ce484222325000000030000000100000002000000030000008f53455554000000000000000400000000000004d2000000030007646174616261733fd00000000000003fb999999999999a80000000000000003fec000000000000000573c3bcc39f3fe00000000000003ff199999999999a3fa00000000000000000000000000001000571756572693fe80000000000004000cccccccccccd3fa00000000000003fec000000000000"),
    (9, "000000036462730000000000000007ffffffffffffffff0123456789abcdef0000000000000009"),
    (10, ""),
    (11, ""),
    (12, "00000017756e6b6e6f776e206d657373616765206b696e64203737"),
    (13, "00000001713fc000000000000000000000deadbeef000000000000002a01"),
    (14, "000000020000000264303feccccccccccccd0000000573c3bcc39f0000000000000001000000020000000000000007000000000000002a0000000d72656d6f74655f73656172636800000000000003e800000000000007d00000000200000006656e67696e650000000364627300000004686974730000000132000000000000000800000000000000070000000573636f7265000000000000044c000000000000000000000000"),
    (15, "000000030000000d6d757368726f6f6d20736f75700000000000000006e5afbfe58fb83fc3333333333333"),
    (15, "000000000000000000000000"),
    (16, "00000002000000000000000000000000000000008000000000000000ffffffffffffffff3fd33333333333330000000000000001"),
    (19, "00000001713fe000000000000000000000"),
    (20, "0000000100000001610000000264303fec00000000000000000003000000016100000000000000013f60624dd2f1a9fc000000000001620000000000000000000000000000000001010200000015656e67696e652064696564206d69642d6672616d6500000001630000000000000000000000000000000002010100000000"),
    (21, "00000003646273010000000364627301033fc999999999999a00000004000000000000000400000000000004d2cbf29ce484222325000000030000000100000002000000030000008f53455554000000000000000400000000000004d2000000030007646174616261733fd00000000000003fb999999999999a80000000000000003fec000000000000000573c3bcc39f3fe00000000000003ff199999999999a3fa00000000000000000000000000001000571756572693fe80000000000004000cccccccccccd3fa00000000000003fec000000000000010000000e3132372e302e302e313a37303730"),
    (21, "000000036462730000"),
    (22, "00000003646273"),
    (23, "00000003646273"),
    (24, "00"),
    (25, "0000000573c3bcc39f"),
    (30, "0000000d6d757368726f6f6d20736f75703fd00000000000000000000200000008656e67696e652d3000000008656e67696e652d3101033fe0000000000000"),
    (30, "00000001713fe00000000000000000000000"),
    (31, "0000000200000000000000003ffc0000000000003fd3d70a3d70a3d70000000000000003800000000000000000000000000000010000000100000001610000000264303fec00000000000000000001000000016100000000000000013f60624dd2f1a9fc0000"),
];

/// `(message, kind, payload hex)`.
fn samples() -> Vec<(Message, u8, &'static str)> {
    let messages = messages();
    assert_eq!(messages.len(), GOLDEN.len(), "one golden row per message");
    messages
        .into_iter()
        .zip(GOLDEN)
        .map(|(message, &(kind, hex))| (message, kind, hex))
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden hex"))
        .collect()
}

fn assert_protocol(result: Result<Message, TransportError>, what: &str) {
    match result {
        Err(e) => assert_eq!(e.kind, TransportErrorKind::Protocol, "{what}: {e:?}"),
        Ok(m) => panic!("{what}: decoded as {m:?}"),
    }
}

#[test]
fn every_kind_encodes_to_its_golden_bytes_and_back() {
    for (message, kind, golden) in samples() {
        let (k, payload) = message.encode();
        assert_eq!(k, kind, "{message:?}");
        assert_eq!(hex(&payload), golden, "kind {kind}: {message:?}");
        let decoded = Message::decode(kind, &unhex(golden))
            .unwrap_or_else(|e| panic!("kind {kind} golden bytes must decode: {e:?}"));
        let (k, again) = decoded.encode();
        assert_eq!(k, kind);
        assert_eq!(hex(&again), golden, "kind {kind} re-encoded");
    }
}

#[test]
fn the_samples_cover_every_kind() {
    let mut kinds: Vec<u8> = samples().iter().map(|s| s.1).collect();
    kinds.dedup();
    let known: Vec<u8> = (1..=4)
        .chain(7..=16)
        .chain(19..=25)
        .chain(30..=31)
        .collect();
    assert_eq!(kinds, known);
    // The first kinds on either side of the table, and the retired 5/6,
    // 17/18, 26/27 and 28/29, are unknown, not merely malformed: a row
    // added without a sample lands here.
    for kind in [0u8, 5, 6, 17, 18, 26, 27, 28, 29, 32] {
        let err = Message::decode(kind, &[]).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        assert!(
            err.detail.contains("unknown message kind"),
            "kind {kind}: {err:?}"
        );
    }
}

#[test]
fn truncated_and_extended_payloads_are_protocol_errors() {
    for (_, kind, golden) in samples() {
        let payload = unhex(golden);
        for cut in 0..payload.len() {
            assert_protocol(
                Message::decode(kind, &payload[..cut]),
                &format!("kind {kind} cut to {cut} of {} bytes", payload.len()),
            );
        }
        for extra in [0u8, 1, 0xFF] {
            let mut longer = payload.clone();
            longer.push(extra);
            assert_protocol(
                Message::decode(kind, &longer),
                &format!("kind {kind} extended by {extra:#04x}"),
            );
        }
    }
}

#[test]
fn forced_bytes_and_lengths_never_panic_and_fail_typed() {
    let check = |kind: u8, mutated: &[u8], what: &str| {
        if let Err(e) = Message::decode(kind, mutated) {
            assert_eq!(e.kind, TransportErrorKind::Protocol, "{what}: {e:?}");
        }
    };
    for (_, kind, golden) in samples() {
        let payload = unhex(golden);
        for at in 0..payload.len() {
            let mut mutated = payload.clone();
            mutated[at] = 0xFF;
            check(kind, &mutated, &format!("kind {kind} byte {at} = 0xFF"));
        }
        for at in 0..payload.len().saturating_sub(3) {
            let mut mutated = payload.clone();
            mutated[at..at + 4].fill(0xFF);
            check(kind, &mutated, &format!("kind {kind} bytes {at}..+4 = MAX"));
        }
    }
}
