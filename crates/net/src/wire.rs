//! The message layer: what travels inside frames.
//!
//! One [`Message`] per frame, discriminated by the frame's kind byte.
//! The vocabulary is small and fixed — the five calls a broker makes of
//! an engine, their answers, the push invalidation notice, and a typed
//! error:
//!
//! | kind | message | direction |
//! |------|---------|-----------|
//! | 1 | [`Message::Hello`] | client → server (first frame) |
//! | 2 | [`Message::HelloAck`] | server → client |
//! | 3 | [`Message::SearchDocs`] | client → server |
//! | 4 | [`Message::SearchResults`] | server → client |
//! | 7 | [`Message::GetRepresentative`] | client → server |
//! | 8 | [`Message::Representative`] | server → client |
//! | 9 | [`Message::InvalidateNotice`] | server → subscriber (pushed) |
//! | 10 | [`Message::Ping`] | client → server |
//! | 11 | [`Message::Pong`] | server → client |
//! | 12 | [`Message::Error`] | server → client |
//! | 13 | [`Message::TracedSearchDocs`] | client → server |
//! | 14 | [`Message::TracedSearchResults`] | server → client |
//! | 15 | [`Message::EstimateBatch`] | client → server |
//! | 16 | [`Message::UsefulnessBatch`] | server → client |
//! | 19 | [`Message::ReplicaSearch`] | client → replica broker |
//! | 20 | [`Message::ReplicaSearchResults`] | replica broker → client |
//! | 21 | [`Message::InstallEngine`] | front-door → replica broker |
//! | 22 | [`Message::InstallAck`] | replica broker → front-door |
//! | 23 | [`Message::RemoveEngine`] | front-door → replica broker |
//! | 24 | [`Message::RemoveAck`] | replica broker → front-door |
//! | 25 | [`Message::ExportEngine`] | front-door → replica broker |
//! | 30 | [`Message::ReplicaPlan`] | front-door → replica broker |
//! | 31 | [`Message::ReplicaPlanResults`] | replica broker → front-door |
//!
//! Kinds 19–31 are the **federation vocabulary**: what a front-door
//! broker (`seu_metasearch::FrontDoor`) asks of a back-end broker
//! replica. 30/31 are a request's one round trip per replica, whatever
//! its policy: the rows of the named engines holding a query term (each
//! one's position in the request and its estimate) and the search of
//! the rows the policy picks, `TopK`'s included. They retired 28/29
//! (no search under `TopK`), which retired 26/27 and 17/18, so a peer
//! one version behind is refused in band instead of misread. 19/20
//! search named engines; no front door sends them, only `search_subset`
//! callers such as the benchmark's replica probe. Both carry engine
//! name lists so the front-door controls placement; 21–24 move engines
//! between replicas (the rebalance path ships an [`EngineRecord`] so
//! the receiving replica hydrates without re-registration); 25 is
//! answered with the existing kind 8 [`Message::Representative`]. A
//! peer answers a kind it does not know or serve with [`Message::Error`]
//! on the request's own correlation id, which the caller surfaces as a
//! typed [`Remote`](TransportErrorKind::Remote) failure.
//!
//! Kinds 15/16 are the one oracle question — an engine's exact
//! usefulness — for any number of queries; a single query is a batch of
//! one. They retired 5/6, the one-query pair, which a peer now refuses
//! in band like any other retired kind.
//!
//! Kinds 13/14 carry distributed-trace context
//! (`trace_id`/`parent_span_id`/`sampled`) alongside a search and bring
//! the server-side spans back with the hits. A client only sends kind
//! 13 when its trace is sampled, so unsampled traffic is byte-identical
//! to a plain [`Message::SearchDocs`].
//!
//! An engine travels as its [`EngineRecord`], representative at full
//! f64 precision, because the whole point of shipping it is that the
//! receiving broker's estimates are **byte-identical** to a local
//! broker's. That encoding is also the one a `.repr` file holds
//! ([`record_to_bytes`] / [`record_from_bytes`]). A field's layout and
//! its bound both come from its type (the private `Wire` trait), and
//! every read goes through [`seu_engine::binary`], the checked reader
//! the engine file and the store share: a length read off the wire is
//! checked there against the bytes actually remaining before it is
//! trusted, a string's against the bytes, and a count (a `Vec<T>`'s, the
//! blob's term rows) against the rows those bytes can hold.
//!
//! A new kind is three steps: the [`Message`] variant (and its row in
//! the table above), its row in the `codec!` table (fields in wire
//! order; a new field type needs a `Wire` impl or a `wire_record!` row),
//! and a sample in `tests/wire_golden.rs`, which fails until it has one.

use seu_core::Usefulness;
use seu_engine::binary;
use seu_engine::{Fingerprint, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    DispatchOutcome, EngineDispatchStats, EngineRecord, MergedHit, RemoteHit, SelectionPolicy,
    TransportError, TransportErrorKind,
};
use seu_repr::{Representative, TermStats};
use seu_text::AnalyzerConfig;
use std::sync::Arc;

/// One protocol message (see the module table for kinds and directions).
#[derive(Debug, Clone)]
pub enum Message {
    /// Opens a connection: `subscribe` asks the server to keep this
    /// connection open and push [`Message::InvalidateNotice`] frames on
    /// collection changes instead of serving requests on it.
    Hello {
        /// Whether this connection is a push-invalidation subscription.
        subscribe: bool,
    },
    /// The server's answer to [`Message::Hello`]: its advertised engine
    /// name.
    HelloAck {
        /// The engine's registration name.
        name: String,
    },
    /// Search request: the server analyzes the raw query text itself
    /// (its analyzer configuration is part of the snapshot, so broker
    /// and engine agree) and returns hits above the threshold.
    SearchDocs {
        /// Raw query text.
        query: String,
        /// Similarity threshold `T`.
        threshold: f64,
    },
    /// Answer to [`Message::SearchDocs`]: named hits, best first.
    SearchResults {
        /// The hits.
        hits: Vec<RemoteHit>,
    },
    /// Snapshot request (no payload).
    GetRepresentative,
    /// Answer to [`Message::GetRepresentative`]: the engine's record.
    Representative {
        /// The record.
        snapshot: Arc<EngineRecord>,
    },
    /// Pushed to subscribers when the engine's collection changes: the
    /// new content fingerprint and the server's monotonically increasing
    /// change epoch.
    InvalidateNotice {
        /// The engine's registration name.
        name: String,
        /// Fingerprint of the collection now serving.
        fingerprint: Fingerprint,
        /// Server-side change epoch (0 = the collection the server
        /// started with).
        epoch: u64,
    },
    /// Liveness probe (no payload).
    Ping,
    /// Answer to [`Message::Ping`] (no payload).
    Pong,
    /// A typed error the server reports instead of an answer.
    Error {
        /// Human-readable context.
        detail: String,
    },
    /// [`Message::SearchDocs`] carrying the caller's trace context, so
    /// the server's spans join the caller's trace.
    TracedSearchDocs {
        /// Raw query text.
        query: String,
        /// Similarity threshold `T`.
        threshold: f64,
        /// The caller's trace id.
        trace_id: u64,
        /// The caller-side span the server's work nests under.
        parent_span: u64,
        /// The caller's head sampling decision.
        sampled: bool,
    },
    /// Answer to [`Message::TracedSearchDocs`]: the hits plus the spans
    /// the server recorded under the propagated context.
    TracedSearchResults {
        /// The hits, best first.
        hits: Vec<RemoteHit>,
        /// Server-side spans, parented (transitively) under the
        /// request's `parent_span`.
        spans: Vec<seu_obs::SpanRecord>,
    },
    /// Oracle request: the engine's exact usefulness for each query, in
    /// one frame, so a broker sweep over its query pool costs one round
    /// trip per engine instead of one per (engine, query). One query is
    /// a batch of one.
    EstimateBatch {
        /// Raw query texts, in the order answers are expected.
        queries: Vec<String>,
        /// Similarity threshold `T`, shared by the whole batch.
        threshold: f64,
    },
    /// Answer to [`Message::EstimateBatch`]: one usefulness triple per
    /// query, in request order.
    UsefulnessBatch {
        /// `(NoDoc, AvgSim, max similarity)` per query.
        results: Vec<TrueUsefulness>,
    },
    /// Front-door request: search exactly the named engines and merge
    /// their hits above the threshold.
    ReplicaSearch {
        /// Raw query text.
        query: String,
        /// Similarity threshold `T`.
        threshold: f64,
        /// Engine names to dispatch.
        engines: Vec<String>,
    },
    /// Answer to [`Message::ReplicaSearch`]: the replica's merged hits
    /// plus per-engine dispatch accounting (including typed transport
    /// errors for engines that failed on the replica's side).
    ReplicaSearchResults {
        /// Replica-merged hits, best first.
        hits: Vec<MergedHit>,
        /// Per requested engine: hit count, latency, outcome, error.
        stats: Vec<EngineDispatchStats>,
    },
    /// Front-door order: install (or re-install — idempotent) an engine
    /// on this replica. At least one of `snapshot` (rebalance shipping:
    /// the replica hydrates planning state without re-registration) or
    /// `endpoint` (the replica dials the engine itself) is present.
    InstallEngine {
        /// Engine name (the global registration key).
        name: String,
        /// The engine's record, when shipped.
        snapshot: Option<Arc<EngineRecord>>,
        /// `host:port` of the engine's frame listener, when it serves
        /// live searches remotely.
        endpoint: Option<String>,
    },
    /// Answer to [`Message::InstallEngine`].
    InstallAck {
        /// The installed engine's name.
        name: String,
    },
    /// Front-door order: drop an engine from this replica.
    RemoveEngine {
        /// Engine name.
        name: String,
    },
    /// Answer to [`Message::RemoveEngine`].
    RemoveAck {
        /// Whether the engine was present (false: unknown name; removal
        /// is idempotent, not an error).
        removed: bool,
    },
    /// Front-door request: export the named engine's planning snapshot
    /// (for shipping to another replica). Answered with
    /// [`Message::Representative`].
    ExportEngine {
        /// Engine name.
        name: String,
    },
    /// Front-door request: estimate exactly the named engines and, under
    /// `policy`, search the ones it picks.
    ReplicaPlan {
        /// Raw query text.
        query: String,
        /// Similarity threshold `T`.
        threshold: f64,
        /// Engine names, in the order estimates are expected.
        engines: Vec<String>,
        /// The request's policy, applied to these rows alone; absent,
        /// nothing is searched.
        policy: Option<SelectionPolicy>,
    },
    /// Answer to [`Message::ReplicaPlan`]: a row per requested engine
    /// that holds a query term, in request order, and the picked
    /// engines' search.
    ReplicaPlanResults {
        /// Each row's position in the request and its estimate,
        /// full-precision: the reassembled global rows are bit-identical
        /// to a single broker's. A requested engine without a row holds
        /// no query term.
        rows: Vec<(usize, Usefulness)>,
        /// Replica-merged hits, best first.
        hits: Vec<MergedHit>,
        /// Per picked engine: hit count, latency, outcome, error.
        stats: Vec<EngineDispatchStats>,
    },
}

fn protocol(detail: impl Into<String>) -> TransportError {
    TransportError::new(TransportErrorKind::Protocol, detail)
}

/// How one field type is laid out on the wire and bounds-checked coming
/// off it. A message is its fields' layouts in table order (see
/// `codec!` below), each read through [`seu_engine::binary`].
trait Wire: Sized {
    /// Fewest bytes any value of the type occupies. `Vec<T>` checks its
    /// count against the bytes remaining at this size per row.
    const MIN_BYTES: usize;
    /// Appends the value's wire form.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value off the front of `buf`.
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError>;
}

/// The shared reader's fixed-width fields: big-endian numbers, a bool
/// as `0` or `1`, a fingerprint, and a scheme as its tag and slope.
macro_rules! wire_field {
    ($($ty:ty),+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = <$ty as binary::Field>::BYTES;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                binary::Field::put(*self, out);
            }
            #[inline]
            fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
                Ok(<$ty as binary::Field>::get(buf)?)
            }
        }
    )+};
}
wire_field!(u8, u32, u64, f64, bool, Fingerprint, WeightingScheme);

/// Travels as a `u64`.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        Ok(u64::get(buf)? as usize)
    }
}

/// A `u32` length and that many UTF-8 bytes.
impl Wire for String {
    const MIN_BYTES: usize = 4;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        binary::put_str32(out, self);
    }
    #[inline]
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        Ok(binary::str32(buf)?.to_owned())
    }
}

/// Writes `rows` as a `u32` count and the rows, for `Vec<T>` and
/// `Arc<[T]>` alike.
fn put_rows<T: Wire>(rows: &[T], out: &mut Vec<u8>) {
    (rows.len() as u32).put(out);
    for row in rows {
        row.put(out);
    }
}

/// A `u32` count and that many rows.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        put_rows(self, out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        let n = binary::count(buf, T::MIN_BYTES)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            rows.push(T::get(buf)?);
        }
        Ok(rows)
    }
}

/// A presence byte (0 or 1), then the value when present.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        Ok(if bool::get(buf)? {
            Some(T::get(buf)?)
        } else {
            None
        })
    }
}

/// A shared slice travels as a `Vec` of its rows.
impl<T: Wire> Wire for Arc<[T]> {
    const MIN_BYTES: usize = Vec::<T>::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        put_rows(self, out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        Vec::get(buf).map(Arc::from)
    }
}

/// A shared value travels as the value.
impl<T: Wire> Wire for Arc<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        T::get(buf).map(Arc::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        Ok((A::get(buf)?, B::get(buf)?))
    }
}

/// A plain struct: its fields in the order written here (which is the
/// wire order, not necessarily the declaration order).
macro_rules! wire_record {
    ($($ty:ty { $($field:tt: $fty:ty),+ })+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty>::MIN_BYTES)+;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }
            fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
                Ok(Self { $($field: <$fty>::get(buf)?),+ })
            }
        }
    )+};
}
wire_record! {
    RemoteHit { doc: String, sim: f64 }
    MergedHit { engine: String, doc: String, sim: f64 }
    Usefulness { no_doc: f64, avg_sim: f64 }
    TrueUsefulness { no_doc: u64, avg_sim: f64, max_sim: f64 }
    TransportError { kind: TransportErrorKind, detail: String }
    EngineDispatchStats {
        engine: String,
        hits: usize,
        seconds: f64,
        outcome: DispatchOutcome,
        error: Option<TransportError>
    }
    seu_obs::SpanId { 0: u64 }
    seu_obs::SpanRecord {
        id: seu_obs::SpanId,
        parent: seu_obs::SpanId,
        name: String,
        start_unix_ns: u64,
        duration_ns: u64,
        attrs: Vec<(String, String)>
    }
}

/// A fieldless enum as one tag byte; an unlisted tag is a typed error.
macro_rules! wire_tag {
    ($($ty:ident { $($tag:literal => $variant:ident),+ })+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $($ty::$variant => $tag),+
                });
            }
            fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
                match u8::get(buf)? {
                    $($tag => Ok($ty::$variant),)+
                    other => Err(protocol(format!("unknown {} tag {other}", stringify!($ty)))),
                }
            }
        }
    )+};
}
wire_tag! {
    TransportErrorKind { 0 => Refused, 1 => Timeout, 2 => ConnectionLost, 3 => Protocol, 4 => Remote }
    DispatchOutcome { 0 => Completed, 1 => Failed, 2 => TimedOut }
}

/// A tag byte and eight bytes that only `TopK` (its count) and
/// `MinNoDoc` (its bound's bits) read; the others write zeros, so every
/// policy is nine bytes.
impl Wire for SelectionPolicy {
    const MIN_BYTES: usize = 9;
    fn put(&self, out: &mut Vec<u8>) {
        let tag_and_arg: (u8, u64) = match *self {
            SelectionPolicy::All => (0, 0),
            SelectionPolicy::EstimatedUseful => (1, 0),
            SelectionPolicy::TopK(k) => (2, k as u64),
            SelectionPolicy::MinNoDoc(min) => (3, min.to_bits()),
        };
        tag_and_arg.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        Ok(match <(u8, u64)>::get(buf)? {
            (0, _) => SelectionPolicy::All,
            (1, _) => SelectionPolicy::EstimatedUseful,
            (2, k) => SelectionPolicy::TopK(k as usize),
            (3, bits) => SelectionPolicy::MinNoDoc(f64::from_bits(bits)),
            (tag, _) => return Err(protocol(format!("unknown selection policy tag {tag}"))),
        })
    }
}

/// One byte: bit 0 `remove_stopwords`, bit 1 `stem`; other bits refused.
impl Wire for AnalyzerConfig {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push((self.remove_stopwords as u8) | ((self.stem as u8) << 1));
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        let bits = u8::get(buf)?;
        if bits > 0b11 {
            return Err(protocol(format!("unknown analyzer bits {bits:#04b}")));
        }
        Ok(AnalyzerConfig {
            remove_stopwords: bits & 1 != 0,
            stem: bits & 2 != 0,
        })
    }
}

/// Magic of the representative blob: "SEUT".
const REPR_MAGIC: u32 = 0x5345_5554;

/// The record's fields in wire order, `n_docs` written from the
/// fingerprint, then the representative as one length-prefixed blob:
/// magic, its document count, collection bytes, a term count, and per
/// vocabulary term, in id order, its name (`u16` length) and its table
/// row's four `f64` statistics (`p = 0` for a term no document weighs).
/// Coming back,
/// a name longer than the store's `u16` length can write, an `n_docs`
/// the fingerprint does not share, a term count the blob cannot hold,
/// bytes left in the blob and a record that is not
/// [consistent](EngineRecord::is_consistent) are all refused.
impl Wire for EngineRecord {
    const MIN_BYTES: usize = String::MIN_BYTES
        + AnalyzerConfig::MIN_BYTES
        + WeightingScheme::MIN_BYTES
        + u32::MIN_BYTES
        + Fingerprint::MIN_BYTES
        + Arc::<[u32]>::MIN_BYTES
        + u32::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.name.put(out);
        self.analyzer.put(out);
        self.scheme.put(out);
        self.n_docs().put(out);
        self.fingerprint.put(out);
        self.doc_freq.put(out);
        let at = out.len();
        0u32.put(out); // the blob's length, written below
        REPR_MAGIC.put(out);
        self.repr.n_docs().put(out);
        self.repr.collection_bytes().put(out);
        (self.repr.table_len() as u32).put(out);
        for ((_, term), s) in self.vocab.iter().zip(self.repr.rows()) {
            binary::put_str16(out, term);
            for stat in [s.p, s.mean, s.std_dev, s.max] {
                stat.put(out);
            }
        }
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_be_bytes());
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        let name = String::get(buf)?;
        if u16::try_from(name.len()).is_err() {
            return Err(protocol(format!(
                "engine name of {} bytes, over the store's u16 length",
                name.len()
            )));
        }
        let analyzer = Wire::get(buf)?;
        let scheme = Wire::get(buf)?;
        let n_docs = u32::get(buf)?;
        let fingerprint = Fingerprint::get(buf)?;
        let doc_freq = Wire::get(buf)?;
        let len = u32::get(buf)? as usize;
        let blob = &mut binary::take(buf, len)?;
        if u32::get(blob)? != REPR_MAGIC {
            return Err(protocol("bad representative magic"));
        }
        let (repr_docs, collection_bytes) = <(u64, u64)>::get(blob)?;
        let n_terms = u32::get(blob)? as usize;
        let (vocab, stats) = binary::vocab_rows(blob, n_terms, 4 * 8, |row| {
            let mut stat = || <f64 as binary::Field>::get(row);
            Ok(TermStats {
                p: stat()?,
                mean: stat()?,
                std_dev: stat()?,
                max: stat()?,
            })
        })?;
        if !blob.is_empty() {
            return Err(protocol(format!(
                "{} trailing bytes after the representative",
                blob.len()
            )));
        }
        if u64::from(n_docs) != fingerprint.n_docs {
            return Err(protocol(format!(
                "engine {name:?} counts {n_docs} documents, its fingerprint {}",
                fingerprint.n_docs
            )));
        }
        let record = EngineRecord {
            name,
            analyzer,
            scheme,
            fingerprint,
            doc_freq,
            vocab: Arc::new(vocab),
            repr: Arc::new(Representative::from_parts(
                repr_docs,
                stats,
                collection_bytes,
            )),
        };
        if !record.is_consistent() {
            return Err(protocol(format!(
                "record for engine {:?} is internally inconsistent",
                record.name
            )));
        }
        Ok(record)
    }
}

/// A record's one exact encoding: the payload of a kind-8 reply, and
/// the bytes of a `.repr` file.
pub fn record_to_bytes(record: &EngineRecord) -> Vec<u8> {
    let mut out = Vec::new();
    record.put(&mut out);
    out
}

/// Reads [`record_to_bytes`] back; anything else, trailing bytes
/// included, is a typed [`Protocol`](TransportErrorKind::Protocol)
/// error.
pub fn record_from_bytes(mut bytes: &[u8]) -> Result<EngineRecord, TransportError> {
    let record = EngineRecord::get(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(protocol(format!(
            "{} trailing bytes after the record",
            bytes.len()
        )));
    }
    Ok(record)
}

/// The kind table: `kind => Variant { fields in wire order }`. It
/// generates [`Message::encode`], [`Message::decode`] and
/// [`Message::knows`]; each field's
/// layout and bound come from its type's [`Wire`] impl, and the
/// unknown-kind and trailing-byte errors are written here once.
macro_rules! codec {
    ($($kind:literal => $variant:ident $({ $($field:ident),+ })?,)+) => {
        impl Message {
            /// Encodes the message as `(frame kind, payload)`.
            pub fn encode(&self) -> (u8, Vec<u8>) {
                let mut out = Vec::new();
                let kind = match self {
                    $(Message::$variant $({ $($field),+ })? => {
                        $($($field.put(&mut out);)+)?
                        $kind
                    })+
                };
                (kind, out)
            }

            /// Decodes a frame's payload; typed protocol errors on anything
            /// malformed (unknown kind, truncated field, trailing garbage).
            pub fn decode(kind: u8, payload: &[u8]) -> Result<Message, TransportError> {
                let mut buf = payload;
                let message = match kind {
                    $($kind => Message::$variant $({ $($field: Wire::get(&mut buf)?),+ })?,)+
                    other => return Err(protocol(format!("unknown message kind {other}"))),
                };
                if !buf.is_empty() {
                    return Err(protocol(format!(
                        "{} trailing bytes after message kind {kind}",
                        buf.len()
                    )));
                }
                Ok(message)
            }

            /// Whether the table has a row for the frame kind: a frame of
            /// any other kind is a newer (or older) peer's, not garbage.
            pub(crate) fn knows(kind: u8) -> bool {
                matches!(kind, $($kind)|+)
            }
        }
    };
}
codec! {
    1 => Hello { subscribe },
    2 => HelloAck { name },
    3 => SearchDocs { query, threshold },
    4 => SearchResults { hits },
    7 => GetRepresentative,
    8 => Representative { snapshot },
    9 => InvalidateNotice { name, fingerprint, epoch },
    10 => Ping,
    11 => Pong,
    12 => Error { detail },
    13 => TracedSearchDocs { query, threshold, trace_id, parent_span, sampled },
    14 => TracedSearchResults { hits, spans },
    15 => EstimateBatch { queries, threshold },
    16 => UsefulnessBatch { results },
    19 => ReplicaSearch { query, threshold, engines },
    20 => ReplicaSearchResults { hits, stats },
    21 => InstallEngine { name, snapshot, endpoint },
    22 => InstallAck { name },
    23 => RemoveEngine { name },
    24 => RemoveAck { removed },
    25 => ExportEngine { name },
    30 => ReplicaPlan { query, threshold, engines, policy },
    31 => ReplicaPlanResults { rows, hits, stats },
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{CollectionBuilder, SearchEngine};
    use seu_text::Analyzer;

    fn record_of(name: &str, engine: &SearchEngine) -> Arc<EngineRecord> {
        let repr = Representative::build(engine.collection());
        Arc::new(EngineRecord::of_engine(name, engine, repr))
    }

    fn round_trip(m: &Message) -> Message {
        let (kind, payload) = m.encode();
        Message::decode(kind, &payload).expect("round trip")
    }

    #[test]
    fn scalar_messages_round_trip() {
        match round_trip(&Message::Hello { subscribe: true }) {
            Message::Hello { subscribe } => assert!(subscribe),
            other => panic!("{other:?}"),
        }
        match round_trip(&Message::SearchDocs {
            query: "mushroom soup".into(),
            threshold: 0.25,
        }) {
            Message::SearchDocs { query, threshold } => {
                assert_eq!(query, "mushroom soup");
                assert_eq!(threshold, 0.25);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(round_trip(&Message::Ping), Message::Ping));
        assert!(matches!(
            round_trip(&Message::GetRepresentative),
            Message::GetRepresentative
        ));
    }

    #[test]
    fn search_results_round_trip() {
        let hits = vec![
            RemoteHit {
                doc: "d0".into(),
                sim: 0.9,
            },
            RemoteHit {
                doc: "d1".into(),
                sim: 0.1,
            },
        ];
        match round_trip(&Message::SearchResults { hits: hits.clone() }) {
            Message::SearchResults { hits: decoded } => assert_eq!(decoded, hits),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn record_round_trips_bit_for_bit() {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "relational databases and query optimization");
        b.add_document("d1", "transaction processing in databases");
        let engine = SearchEngine::new(b.build());
        let snapshot = record_of("dbs", &engine);
        let decoded = match round_trip(&Message::Representative {
            snapshot: snapshot.clone(),
        }) {
            Message::Representative { snapshot } => snapshot,
            other => panic!("{other:?}"),
        };
        assert_eq!(decoded.name, snapshot.name);
        assert_eq!(decoded.analyzer, snapshot.analyzer);
        assert_eq!(decoded.n_docs(), snapshot.n_docs());
        assert_eq!(decoded.doc_freq, snapshot.doc_freq);
        assert_eq!(decoded.fingerprint, snapshot.fingerprint);
        assert_eq!(decoded.vocab.len(), snapshot.vocab.len());
        assert_eq!(decoded.repr.n_docs(), snapshot.repr.n_docs());
        assert_eq!(
            decoded.repr.collection_bytes(),
            snapshot.repr.collection_bytes()
        );
        for (id, term) in snapshot.vocab.iter() {
            assert_eq!(decoded.vocab.term(id), term, "id order preserved");
            let a = snapshot.repr.get(id).unwrap();
            let b = decoded.repr.get(id).unwrap();
            assert_eq!(a.p.to_bits(), b.p.to_bits(), "{term}");
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{term}");
            assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits(), "{term}");
            assert_eq!(a.max.to_bits(), b.max.to_bits(), "{term}");
        }
        // The one encoding is also the file's.
        let bytes = record_to_bytes(&snapshot);
        let from_file = record_from_bytes(&bytes).expect("own encoding");
        assert_eq!(record_to_bytes(&from_file), bytes);
        let err = record_from_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
    }

    #[test]
    fn empty_collection_record_round_trips() {
        let b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        let record = record_of("empty", &SearchEngine::new(b.build()));
        let decoded = record_from_bytes(&record_to_bytes(&record)).expect("empty record");
        assert_eq!(decoded.n_docs(), 0);
        assert_eq!(decoded.repr.n_docs(), 0);
        assert_eq!(decoded.repr.distinct_terms(), 0);
        assert!(decoded.vocab.is_empty());
        assert!(decoded.query_from_text("x").is_empty());
    }

    #[test]
    fn a_record_with_a_term_no_document_weighs_round_trips() {
        // tf-idf weighs `soup`, in every document, zero: its table row
        // has `p = 0`, and it ships all the same.
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTfIdf);
        b.add_document("d0", "mushroom soup with cream");
        b.add_document("d1", "tomato soup and bread");
        let engine = SearchEngine::new(b.build());
        let record = record_of("tfidf", &engine);
        let soup = record.vocab.get("soup").expect("soup is a term");
        assert!(record.repr.get(soup).is_none());
        let bytes = record_to_bytes(&record);
        let decoded = record_from_bytes(&bytes).expect("a record of a live engine ships");
        assert_eq!(record_to_bytes(&decoded), bytes);
        assert_eq!(decoded.vocab.len(), record.vocab.len());
        assert_eq!(decoded.doc_freq, record.doc_freq);
        for text in ["mushroom soup", "soup", "tomato bread"] {
            let query = engine.collection().query_from_text(text);
            assert_eq!(decoded.query_from_text(text), query, "{text:?}");
        }
    }

    #[test]
    fn representative_n_docs_must_match_its_fingerprint() {
        // A kind-8 payload by hand, field by field: a two-document
        // engine with no terms, whose `n_docs` field says `n_docs`.
        let payload = |n_docs: u32| {
            let mut buf = Vec::<u8>::new();
            String::from("e").put(&mut buf);
            0b01u8.put(&mut buf); // analyzer: stopwords, no stemming
            (0u8, 0.0f64).put(&mut buf); // CosineTf
            n_docs.put(&mut buf);
            let fingerprint = Fingerprint {
                n_docs: 2,
                raw_bytes: 10,
                hash: 0xfeed,
            };
            fingerprint.put(&mut buf);
            0u32.put(&mut buf); // no doc_freq rows
            let mut blob = Vec::<u8>::new();
            0x5345_5554u32.put(&mut blob); // "SEUT"
            2u64.put(&mut blob); // the representative's documents
            10u64.put(&mut blob); // collection bytes
            0u32.put(&mut blob); // no terms
            (blob.len() as u32).put(&mut buf);
            buf.extend_from_slice(&blob);
            buf
        };
        assert!(Message::decode(8, &payload(2)).is_ok());
        for lie in [0, 1, 3, u32::MAX] {
            let err = Message::decode(8, &payload(lie)).unwrap_err();
            assert_eq!(err.kind, TransportErrorKind::Protocol, "n_docs {lie}");
        }
    }

    #[test]
    fn traced_search_messages_round_trip() {
        match round_trip(&Message::TracedSearchDocs {
            query: "mushroom soup".into(),
            threshold: 0.25,
            trace_id: 0xdead_beef,
            parent_span: 42,
            sampled: true,
        }) {
            Message::TracedSearchDocs {
                query,
                threshold,
                trace_id,
                parent_span,
                sampled,
            } => {
                assert_eq!(query, "mushroom soup");
                assert_eq!(threshold, 0.25);
                assert_eq!(trace_id, 0xdead_beef);
                assert_eq!(parent_span, 42);
                assert!(sampled);
            }
            other => panic!("{other:?}"),
        }

        let spans = vec![seu_obs::SpanRecord {
            id: seu_obs::SpanId(7),
            parent: seu_obs::SpanId(42),
            name: "remote_search".into(),
            start_unix_ns: 1_000,
            duration_ns: 2_000,
            attrs: vec![("engine".into(), "dbs".into()), ("hits".into(), "1".into())],
        }];
        let hits = vec![RemoteHit {
            doc: "d0".into(),
            sim: 0.9,
        }];
        match round_trip(&Message::TracedSearchResults {
            hits: hits.clone(),
            spans: spans.clone(),
        }) {
            Message::TracedSearchResults { hits: h, spans: s } => {
                assert_eq!(h, hits);
                assert_eq!(s, spans);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn traced_span_list_liar_is_a_protocol_error() {
        // A span-count liar must fail before allocating.
        let mut buf = Vec::<u8>::new();
        0u32.put(&mut buf); // zero hits
        u32::MAX.put(&mut buf); // span-count liar
        let err = Message::decode(14, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
    }

    #[test]
    fn estimate_batch_round_trips_in_order() {
        let queries: Vec<String> = (0..5).map(|i| format!("query number {i}")).collect();
        match round_trip(&Message::EstimateBatch {
            queries: queries.clone(),
            threshold: 0.15,
        }) {
            Message::EstimateBatch {
                queries: q,
                threshold,
            } => {
                assert_eq!(q, queries);
                assert_eq!(threshold, 0.15);
            }
            other => panic!("{other:?}"),
        }

        let results: Vec<TrueUsefulness> = (0..5)
            .map(|i| TrueUsefulness {
                no_doc: i,
                avg_sim: 0.1 * i as f64,
                max_sim: 0.2 * i as f64,
            })
            .collect();
        match round_trip(&Message::UsefulnessBatch {
            results: results.clone(),
        }) {
            Message::UsefulnessBatch { results: r } => {
                assert_eq!(r.len(), results.len());
                for (a, b) in r.iter().zip(&results) {
                    assert_eq!(a.no_doc, b.no_doc);
                    assert_eq!(a.avg_sim.to_bits(), b.avg_sim.to_bits());
                    assert_eq!(a.max_sim.to_bits(), b.max_sim.to_bits());
                }
            }
            other => panic!("{other:?}"),
        }
        // Empty batches are legal and round-trip.
        match round_trip(&Message::EstimateBatch {
            queries: vec![],
            threshold: 0.0,
        }) {
            Message::EstimateBatch { queries, .. } => assert!(queries.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_count_liars_are_protocol_errors() {
        // A query-count liar must fail before allocating.
        let mut buf = Vec::<u8>::new();
        u32::MAX.put(&mut buf);
        0.15f64.put(&mut buf);
        let err = Message::decode(15, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // Same for the result-count on the answer.
        let mut buf = Vec::<u8>::new();
        u32::MAX.put(&mut buf);
        let err = Message::decode(16, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
    }

    #[test]
    fn replica_subset_messages_round_trip_bit_for_bit() {
        let engines: Vec<String> = (0..3).map(|i| format!("engine-{i}")).collect();
        use SelectionPolicy::*;
        for policy in [
            None,
            Some(All),
            Some(EstimatedUseful),
            Some(TopK(7)),
            Some(MinNoDoc(0.5)),
        ] {
            let query = "mushroom soup".to_string();
            let plan = Message::ReplicaPlan {
                query,
                threshold: 0.25,
                engines: engines.clone(),
                policy,
            };
            assert_eq!(format!("{:?}", round_trip(&plan)), format!("{plan:?}"));
        }

        let u = |no_doc, avg_sim| Usefulness { no_doc, avg_sim };
        let rows = vec![(0, u(1.75, 0.31)), (2, u(0.0, 0.0))];
        let (hits, stats) = (vec![], vec![]);
        let answer = Message::ReplicaPlanResults {
            rows: rows.clone(),
            hits,
            stats,
        };
        match round_trip(&answer) {
            Message::ReplicaPlanResults { rows: d, .. } => {
                // Bit-identity across the wire is the whole point.
                let bits = |rows: &[(usize, Usefulness)]| -> Vec<(usize, u64, u64)> {
                    rows.iter()
                        .map(|&(at, u)| (at, u.no_doc.to_bits(), u.avg_sim.to_bits()))
                        .collect()
                };
                assert_eq!(bits(&d), bits(&rows));
            }
            other => panic!("{other:?}"),
        }

        let hits = vec![MergedHit {
            engine: "a".into(),
            doc: "d0".into(),
            sim: 0.875,
        }];
        let stats = vec![
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
        ];
        match round_trip(&Message::ReplicaSearchResults {
            hits: hits.clone(),
            stats: stats.clone(),
        }) {
            Message::ReplicaSearchResults { hits: h, stats: s } => {
                assert_eq!(h, hits);
                assert_eq!(s, stats);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn engine_lifecycle_messages_round_trip() {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "estimating search engine usefulness");
        let engine = SearchEngine::new(b.build());
        let snapshot = record_of("dbs", &engine);
        match round_trip(&Message::InstallEngine {
            name: "dbs".into(),
            snapshot: Some(snapshot.clone()),
            endpoint: Some("127.0.0.1:7070".into()),
        }) {
            Message::InstallEngine {
                name,
                snapshot: s,
                endpoint,
            } => {
                assert_eq!(name, "dbs");
                assert_eq!(s.unwrap().fingerprint, snapshot.fingerprint);
                assert_eq!(endpoint.as_deref(), Some("127.0.0.1:7070"));
            }
            other => panic!("{other:?}"),
        }
        // Snapshot-less install (the replica dials the endpoint itself).
        match round_trip(&Message::InstallEngine {
            name: "dbs".into(),
            snapshot: None,
            endpoint: None,
        }) {
            Message::InstallEngine {
                snapshot, endpoint, ..
            } => {
                assert!(snapshot.is_none());
                assert!(endpoint.is_none());
            }
            other => panic!("{other:?}"),
        }
        match round_trip(&Message::InstallAck { name: "dbs".into() }) {
            Message::InstallAck { name } => assert_eq!(name, "dbs"),
            other => panic!("{other:?}"),
        }
        match round_trip(&Message::RemoveEngine { name: "dbs".into() }) {
            Message::RemoveEngine { name } => assert_eq!(name, "dbs"),
            other => panic!("{other:?}"),
        }
        match round_trip(&Message::RemoveAck { removed: true }) {
            Message::RemoveAck { removed } => assert!(removed),
            other => panic!("{other:?}"),
        }
        match round_trip(&Message::ExportEngine { name: "dbs".into() }) {
            Message::ExportEngine { name } => assert_eq!(name, "dbs"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn federation_count_liars_are_protocol_errors() {
        // Engine-name list liar on the subset request.
        let mut buf = Vec::<u8>::new();
        String::from("q").put(&mut buf);
        0.2f64.put(&mut buf);
        u32::MAX.put(&mut buf);
        let err = Message::decode(30, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // Row-count liar on the answer.
        let mut buf = Vec::<u8>::new();
        u32::MAX.put(&mut buf);
        let err = Message::decode(31, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // Dispatch-stat liar behind a legal empty hit list.
        let mut buf = Vec::<u8>::new();
        0u32.put(&mut buf);
        u32::MAX.put(&mut buf);
        let err = Message::decode(20, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // An unknown outcome tag is typed, not misparsed.
        let mut buf = Vec::<u8>::new();
        0u32.put(&mut buf); // no hits
        1u32.put(&mut buf); // one stat row
        String::from("a").put(&mut buf);
        0u64.put(&mut buf);
        0.0f64.put(&mut buf);
        9u8.put(&mut buf); // bogus outcome
        0u8.put(&mut buf);
        let err = Message::decode(20, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
    }

    #[test]
    fn malformed_payloads_are_typed_protocol_errors() {
        // Unknown kind.
        let err = Message::decode(0xEE, &[]).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // Truncated string.
        let err = Message::decode(2, &[0, 0, 0, 9, b'x']).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // Trailing garbage.
        let (kind, mut payload) = Message::Ping.encode();
        payload.push(0);
        let err = Message::decode(kind, &payload).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // Hit-count liar.
        let mut buf = Vec::<u8>::new();
        u32::MAX.put(&mut buf);
        let err = Message::decode(4, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // A pivoted scheme whose slope is not finite, which the engine
        // file and the store refuse too. The scheme follows the name's
        // `u32` length and one byte, and the analyzer byte.
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "mushroom soup");
        let snapshot = record_of("e", &SearchEngine::new(b.build()));
        let (kind, payload) = Message::Representative { snapshot }.encode();
        let at = 4 + 1 + 1;
        for slope in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = payload.clone();
            bad[at] = 3;
            bad[at + 1..at + 9].copy_from_slice(&slope.to_bits().to_be_bytes());
            let err = Message::decode(kind, &bad).unwrap_err();
            assert_eq!(err.kind, TransportErrorKind::Protocol, "slope {slope}");
        }
        // A bool byte other than 0 or 1.
        let err = Message::decode(1, &[2]).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
    }

    #[test]
    fn a_record_name_the_store_cannot_write_is_refused() {
        // The wire carries a name behind a `u32` length, the store behind
        // a `u16`: a record a store-attached broker would fail to put is
        // refused as it arrives, and the longest name the store can
        // write still ships.
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "mushroom soup");
        let engine = SearchEngine::new(b.build());
        let longest = "n".repeat(usize::from(u16::MAX));
        let fits = record_to_bytes(&record_of(&longest, &engine));
        assert_eq!(record_from_bytes(&fits).expect("a u16 name").name, longest);
        let over = record_to_bytes(&record_of(&format!("{longest}n"), &engine));
        let err = record_from_bytes(&over).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol, "{err}");
        let (kind, payload) = Message::Representative {
            snapshot: record_of(&format!("{longest}n"), &engine),
        }
        .encode();
        let err = Message::decode(kind, &payload).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol, "{err}");
    }
}
