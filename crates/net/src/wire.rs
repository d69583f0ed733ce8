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
//! | 5 | [`Message::Estimate`] | client → server |
//! | 6 | [`Message::Usefulness`] | server → client |
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
//! between replicas (the rebalance path ships an [`EngineSnapshot`] so
//! the receiving replica hydrates without re-registration); 25 is
//! answered with the existing kind 8 [`Message::Representative`]. A
//! peer answers a kind it does not know or serve with [`Message::Error`]
//! on the request's own correlation id, which the caller surfaces as a
//! typed [`Remote`](TransportErrorKind::Remote) failure.
//!
//! Kinds 13/14 carry distributed-trace context
//! (`trace_id`/`parent_span_id`/`sampled`) alongside a search and bring
//! the server-side spans back with the hits. A client only sends kind
//! 13 when its trace is sampled, so unsampled traffic is byte-identical
//! to a plain [`Message::SearchDocs`].
//!
//! Representatives travel as [`FrozenSummary::to_bytes_exact`] — full
//! f64 statistics — because the whole point of shipping them is that
//! the receiving broker's estimates are **byte-identical** to a local
//! broker's. A field's layout and its bound both come from its type (the
//! private `Wire` trait): a length read off the wire is checked against
//! the bytes actually remaining before it is trusted, for `String` and
//! the summary blob in `take` and for `Vec<T>` against `T::MIN_BYTES` a
//! row; the blob's own term count by `FrozenSummary::from_bytes`.
//!
//! A new kind is three steps: the [`Message`] variant (and its row in
//! the table above), its row in the `codec!` table (fields in wire
//! order; a new field type needs a `Wire` impl or a `wire_record!` row),
//! and a sample in `tests/wire_golden.rs`, which fails until it has one.

use seu_core::Usefulness;
use seu_engine::{Fingerprint, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    DispatchOutcome, EngineDispatchStats, EngineSnapshot, MergedHit, RemoteHit, SelectionPolicy,
    TransportError, TransportErrorKind,
};
use seu_repr::FrozenSummary;
use seu_text::AnalyzerConfig;

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
    /// Oracle request: the engine's exact usefulness for a query.
    Estimate {
        /// Raw query text.
        query: String,
        /// Similarity threshold `T`.
        threshold: f64,
    },
    /// Answer to [`Message::Estimate`].
    Usefulness {
        /// `NoDoc(T, q, D)`.
        no_doc: u64,
        /// `AvgSim(T, q, D)`.
        avg_sim: f64,
        /// Largest similarity of any matching document.
        max_sim: f64,
    },
    /// Snapshot request (no payload).
    GetRepresentative,
    /// Answer to [`Message::GetRepresentative`]: the engine's full
    /// planning snapshot.
    Representative {
        /// The snapshot.
        snapshot: EngineSnapshot,
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
    /// Batched oracle request: many queries in one frame, so a broker
    /// sweep over its query pool costs one round trip per engine
    /// instead of one per (engine, query).
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
        /// The engine's planning snapshot, when shipped.
        snapshot: Option<EngineSnapshot>,
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
/// `codec!` below), so every guard lives here, once per type.
trait Wire: Sized {
    /// Fewest bytes any value of the type occupies. `Vec<T>` divides the
    /// bytes remaining by it to refuse a lying count before reserving.
    const MIN_BYTES: usize;
    /// Appends the value's wire form.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads one value off the front of `buf`.
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError>;
}

/// Splits `n` bytes off the front of `buf` — the one place a length is
/// compared against the bytes actually remaining before it is trusted.
fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], TransportError> {
    if buf.len() < n {
        return Err(protocol(format!(
            "{what} of {n} bytes but only {} remain",
            buf.len()
        )));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// [`take`] for a run of bytes behind its own `u32` length prefix.
fn take_prefixed<'a>(buf: &mut &'a [u8], what: &str) -> Result<&'a [u8], TransportError> {
    let len = u32::get(buf)? as usize;
    take(buf, len, what)
}

/// Big-endian fixed-width numbers.
macro_rules! wire_number {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
                let raw = take(buf, Self::MIN_BYTES, stringify!($ty))?;
                Ok($ty::from_be_bytes(raw.try_into().expect("take returned MIN_BYTES bytes")))
            }
        }
    )+};
}
wire_number!(u8, u32, u64, f64);

/// One byte; any nonzero value reads as `true`.
impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        Ok(u8::get(buf)? != 0)
    }
}

/// Travels as a `u64`.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        Ok(u64::get(buf)? as usize)
    }
}

/// A `u32` length and that many UTF-8 bytes.
impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        String::from_utf8(take_prefixed(buf, "string")?.to_vec())
            .map_err(|_| protocol("string is not UTF-8"))
    }
}

/// A `u32` count and that many rows.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for row in self {
            row.put(out);
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        let n = u32::get(buf)? as usize;
        // The count-lie guard: a count the remaining bytes cannot hold
        // even at each row's smallest size is refused before anything
        // is reserved for it.
        if buf.len() / T::MIN_BYTES < n {
            return Err(protocol(format!(
                "list claims {n} rows of at least {} bytes but only {} bytes remain",
                T::MIN_BYTES,
                buf.len()
            )));
        }
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
        match self {
            Some(value) => {
                out.push(1);
                value.put(out);
            }
            None => out.push(0),
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        match u8::get(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(buf)?)),
            other => Err(protocol(format!("bad option tag {other}"))),
        }
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
    Fingerprint { n_docs: u64, raw_bytes: u64, hash: u64 }
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

/// A tag byte and an `f64` slope that only `PivotedLogTf` (tag 3) reads;
/// the others write 0.0 there, so every scheme is nine bytes.
impl Wire for WeightingScheme {
    const MIN_BYTES: usize = 9;
    fn put(&self, out: &mut Vec<u8>) {
        let tag_and_slope: (u8, f64) = match *self {
            WeightingScheme::CosineTf => (0, 0.0),
            WeightingScheme::CosineLogTf => (1, 0.0),
            WeightingScheme::CosineTfIdf => (2, 0.0),
            WeightingScheme::PivotedLogTf { slope } => (3, slope),
        };
        tag_and_slope.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        let (tag, slope) = <(u8, f64)>::get(buf)?;
        match tag {
            0 => Ok(WeightingScheme::CosineTf),
            1 => Ok(WeightingScheme::CosineLogTf),
            2 => Ok(WeightingScheme::CosineTfIdf),
            3 => Ok(WeightingScheme::PivotedLogTf { slope }),
            other => Err(protocol(format!("unknown weighting scheme tag {other}"))),
        }
    }
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

/// Length-prefixed [`FrozenSummary::to_bytes_exact`]; the blob's own
/// term count is validated by `FrozenSummary::from_bytes`.
impl Wire for FrozenSummary {
    const MIN_BYTES: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        let blob = self.to_bytes_exact();
        (blob.len() as u32).put(out);
        out.extend_from_slice(&blob);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        FrozenSummary::from_bytes(take_prefixed(buf, "summary")?)
            .ok_or_else(|| protocol("malformed frozen summary"))
    }
}

/// The snapshot's fields in wire order, then the cross-field check no
/// single field can make: `doc_freq` must cover exactly the vocabulary.
impl Wire for EngineSnapshot {
    const MIN_BYTES: usize = String::MIN_BYTES
        + AnalyzerConfig::MIN_BYTES
        + WeightingScheme::MIN_BYTES
        + u32::MIN_BYTES
        + Fingerprint::MIN_BYTES
        + Vec::<u32>::MIN_BYTES
        + FrozenSummary::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) {
        self.name.put(out);
        self.analyzer.put(out);
        self.scheme.put(out);
        self.n_docs.put(out);
        self.fingerprint.put(out);
        self.doc_freq.put(out);
        self.summary.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, TransportError> {
        let snapshot = EngineSnapshot {
            name: Wire::get(buf)?,
            analyzer: Wire::get(buf)?,
            scheme: Wire::get(buf)?,
            n_docs: Wire::get(buf)?,
            fingerprint: Wire::get(buf)?,
            doc_freq: Wire::get(buf)?,
            summary: Wire::get(buf)?,
        };
        if !snapshot.is_consistent() {
            return Err(protocol(format!(
                "snapshot for engine {:?} is internally inconsistent",
                snapshot.name
            )));
        }
        Ok(snapshot)
    }
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
    5 => Estimate { query, threshold },
    6 => Usefulness { no_doc, avg_sim, max_sim },
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

impl Message {
    /// The `TrueUsefulness` a [`Message::Usefulness`] carries, if this
    /// is one.
    pub fn as_usefulness(&self) -> Option<TrueUsefulness> {
        match *self {
            Message::Usefulness {
                no_doc,
                avg_sim,
                max_sim,
            } => Some(TrueUsefulness {
                no_doc,
                avg_sim,
                max_sim,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
    use seu_engine::{CollectionBuilder, SearchEngine};
    use seu_text::Analyzer;

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
        match round_trip(&Message::Usefulness {
            no_doc: 3,
            avg_sim: 0.5,
            max_sim: 0.75,
        }) {
            Message::Usefulness { no_doc, .. } => assert_eq!(no_doc, 3),
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
    fn snapshot_round_trips_bit_for_bit() {
        let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
        b.add_document("d0", "relational databases and query optimization");
        b.add_document("d1", "transaction processing in databases");
        let engine = SearchEngine::new(b.build());
        let snapshot = EngineSnapshot::of_engine("dbs", &engine);
        let decoded = match round_trip(&Message::Representative {
            snapshot: snapshot.clone(),
        }) {
            Message::Representative { snapshot } => snapshot,
            other => panic!("{other:?}"),
        };
        assert_eq!(decoded.name, snapshot.name);
        assert_eq!(decoded.analyzer, snapshot.analyzer);
        assert_eq!(decoded.n_docs, snapshot.n_docs);
        assert_eq!(decoded.doc_freq, snapshot.doc_freq);
        assert_eq!(decoded.fingerprint, snapshot.fingerprint);
        assert_eq!(decoded.summary.vocab.len(), snapshot.summary.vocab.len());
        for (id, term) in snapshot.summary.vocab.iter() {
            assert_eq!(decoded.summary.vocab.term(id), term, "id order preserved");
            let a = snapshot.summary.repr.get(id).unwrap();
            let b = decoded.summary.repr.get(id).unwrap();
            assert_eq!(a.p.to_bits(), b.p.to_bits(), "{term}");
            assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{term}");
            assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits(), "{term}");
            assert_eq!(a.max.to_bits(), b.max.to_bits(), "{term}");
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
        buf.put_u32(0); // zero hits
        buf.put_u32(u32::MAX); // span-count liar
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
        buf.put_u32(u32::MAX);
        buf.put_f64(0.15);
        let err = Message::decode(15, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // Same for the result-count on the answer.
        let mut buf = Vec::<u8>::new();
        buf.put_u32(u32::MAX);
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
        let snapshot = EngineSnapshot::of_engine("dbs", &engine);
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
        buf.put_f64(0.2);
        buf.put_u32(u32::MAX);
        let err = Message::decode(30, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // Row-count liar on the answer.
        let mut buf = Vec::<u8>::new();
        buf.put_u32(u32::MAX);
        let err = Message::decode(31, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // Dispatch-stat liar behind a legal empty hit list.
        let mut buf = Vec::<u8>::new();
        buf.put_u32(0);
        buf.put_u32(u32::MAX);
        let err = Message::decode(20, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        // An unknown outcome tag is typed, not misparsed.
        let mut buf = Vec::<u8>::new();
        buf.put_u32(0); // no hits
        buf.put_u32(1); // one stat row
        String::from("a").put(&mut buf);
        buf.put_u64(0);
        buf.put_f64(0.0);
        buf.put_u8(9); // bogus outcome
        buf.put_u8(0);
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
        buf.put_u32(u32::MAX);
        let err = Message::decode(4, &buf).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
    }
}
