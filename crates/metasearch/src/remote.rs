//! Remote engines: the transport abstraction the broker dispatches to
//! when an engine lives in another process.
//!
//! The paper's architecture *assumes* broker and engines are separate
//! systems exchanging only compact representatives and per-query results
//! (§1); this module is the broker-side half of making that literal. A
//! [`RemoteTransport`] is anything that can answer the three calls the
//! broker makes of an engine it cannot touch directly:
//!
//! * **search** — raw query text + threshold in, named scored hits out
//!   (the remote engine analyzes the text itself, with the same analyzer
//!   configuration the broker plans with, so results are identical to
//!   the in-process path). Dispatch asks for it in two halves
//!   ([`RemoteTransport::begin_search`], answered by a [`Pending`]), so
//!   it asks all of a plan's remote engines before it waits for any; a
//!   transport that can only block answers at the begin;
//! * **true usefulness** — the oracle call the evaluation layer uses;
//! * **snapshot** — the engine's [`EngineRecord`]: its representative
//!   (at full f64 precision), vocabulary, and the three statistics query
//!   weighting consumes (scheme, document count, document frequencies).
//!   From these the broker forms per-engine query vectors and estimates
//!   **byte-identical** to an all-local broker over the same corpus.
//!
//! The concrete TCP transport lives in the `seu-net` crate
//! ([`RemoteTransport`] keeps `seu-metasearch` free of any networking);
//! tests implement the trait in-process.
//!
//! Remote entries shard by engine name exactly like local ones, and a
//! snapshot refetch replaces representative, term list, and weighting
//! statistics in one write — so a remote entry's planning metadata is
//! always internally consistent and never hits the mid-propagation
//! sidelining that protects locally replaced engines (see
//! `Broker::plan`).
//!
//! Failures are **typed**: every call returns a [`TransportError`] whose
//! [`TransportErrorKind`] distinguishes refused connections, deadline
//! misses, connections lost mid-frame, protocol violations, and errors
//! the remote side reported. Dispatch maps them into the per-engine
//! failure capture of [`SearchResponse`](crate::SearchResponse) instead
//! of failing the query.

use seu_engine::TrueUsefulness;
use seu_store::EngineRecord;
use std::sync::Arc;

/// Why a remote engine call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// The connection could not be established (refused, unreachable,
    /// or connect deadline exceeded).
    Refused,
    /// The call did not complete within its deadline.
    Timeout,
    /// The connection dropped mid-exchange (e.g. the engine died between
    /// frames or mid-frame).
    ConnectionLost,
    /// The peer spoke the protocol wrong: bad magic, oversized or
    /// truncated frame, undecodable message, version mismatch.
    Protocol,
    /// The remote engine answered with a typed error of its own.
    Remote,
}

impl TransportErrorKind {
    /// Stable lowercase label (used in metrics and reports).
    pub fn label(&self) -> &'static str {
        match self {
            TransportErrorKind::Refused => "refused",
            TransportErrorKind::Timeout => "timeout",
            TransportErrorKind::ConnectionLost => "connection_lost",
            TransportErrorKind::Protocol => "protocol",
            TransportErrorKind::Remote => "remote",
        }
    }
}

/// A failed call to a remote engine: the kind plus human-readable
/// detail. Flows into [`EngineDispatchStats::error`]
/// (crate::EngineDispatchStats) so a response reports *why* an engine
/// contributed nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// What class of failure this was.
    pub kind: TransportErrorKind,
    /// Human-readable context (addresses, byte counts, io error text).
    pub detail: String,
}

impl TransportError {
    /// Convenience constructor.
    pub fn new(kind: TransportErrorKind, detail: impl Into<String>) -> Self {
        TransportError {
            kind,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

impl std::error::Error for TransportError {}

/// Bytes off the wire that did not decode break the protocol.
impl From<seu_engine::binary::DecodeError> for TransportError {
    fn from(e: seu_engine::binary::DecodeError) -> Self {
        TransportError::new(TransportErrorKind::Protocol, e.to_string())
    }
}

/// One hit a remote engine returned: the document name (ids are
/// meaningless across processes) and its global similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteHit {
    /// Document name within the remote engine.
    pub doc: String,
    /// Global (cosine) similarity.
    pub sim: f64,
}

/// The typed refusal of a record that is not
/// [consistent](EngineRecord::is_consistent): no broker installs one.
pub(crate) fn check_consistent(record: &EngineRecord) -> Result<(), TransportError> {
    if record.is_consistent() {
        return Ok(());
    }
    Err(TransportError::new(
        TransportErrorKind::Protocol,
        format!("engine {:?} shipped an inconsistent record", record.name),
    ))
}

/// Refetches the record of the entry named `name` over `transport`,
/// with the checks every refetch makes: a consistent record
/// ([`check_consistent`]) under the entry's own name. A transport that
/// now answers for another engine (say, another server started on the
/// same endpoint) is a [`TransportErrorKind::Protocol`] error.
pub(crate) fn refetch(
    transport: &dyn RemoteTransport,
    name: &str,
) -> Result<Arc<EngineRecord>, TransportError> {
    let record = transport.fetch_snapshot()?;
    check_consistent(&record)?;
    if record.name != name {
        let why = format!("engine {name:?} came back named {:?}", record.name);
        return Err(TransportError::new(TransportErrorKind::Protocol, why));
    }
    Ok(record)
}

/// A call between its two halves: asked, not yet answered. Whoever has
/// several calls to make begins them all and only then finishes each,
/// so their waits overlap instead of adding up. Dropping it abandons
/// the call.
pub trait Pending<T>: Send {
    /// Waits for the answer — under the transport's own deadlines, and
    /// no longer than `until` when the caller has a deadline of its own
    /// (missing either is a [`TransportErrorKind::Timeout`]).
    fn finish(self: Box<Self>, until: Option<std::time::Instant>) -> Result<T, TransportError>;
}

/// An answer computed at the begin is a call with nothing left to wait
/// for: what a client that can only block hands out.
impl<T: Send> Pending<T> for Result<T, TransportError> {
    fn finish(self: Box<Self>, _until: Option<std::time::Instant>) -> Result<T, TransportError> {
        *self
    }
}

/// What a search in two halves ([`RemoteTransport::begin_search`])
/// brings back.
#[derive(Debug, Clone)]
pub struct SearchReply {
    /// Every document above the threshold, best first.
    pub hits: Vec<RemoteHit>,
    /// What the remote side recorded under the trace context.
    pub spans: Vec<seu_obs::SpanRecord>,
    /// From the request's send to the reply's *arrival*: what the call
    /// took, however long the reply then waited to be collected.
    pub seconds: f64,
}

/// The calls the broker makes of an engine in another process. The
/// concrete TCP client lives in `seu-net`; anything implementing this
/// trait can be registered via `Broker::register_remote`.
pub trait RemoteTransport: Send + Sync + std::fmt::Debug {
    /// Where the engine lives, for reports and error messages (e.g.
    /// `"127.0.0.1:41237"`).
    fn endpoint(&self) -> String;

    /// Searches the remote engine: it analyzes `query_text` with its own
    /// (identical) analyzer configuration and returns every document
    /// with similarity above `threshold`, best first.
    ///
    /// Passing `Some(ctx)` propagates trace context; the returned spans
    /// are whatever the remote side recorded under `ctx` (empty when
    /// `ctx` is `None` or the transport does not support tracing — an
    /// implementation is free to ignore the context entirely). seu-net's
    /// client carries a sampled context over the wire; an `Error` the
    /// peer answers with is that call's
    /// [`Remote`](TransportErrorKind::Remote) failure.
    fn search(
        &self,
        query_text: &str,
        threshold: f64,
        ctx: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError>;

    /// [`Self::search`] in two halves: sends the request and returns at
    /// once; the reply is waited for by [`Pending::finish`]. Dispatch
    /// asks every selected remote engine this way from the calling
    /// thread, and collects the replies after searching the plan's
    /// in-process engines. The default computes the answer at the begin
    /// — all a transport that can only block has to offer — timing the
    /// `search` it runs as the reply's `seconds`.
    fn begin_search(
        &self,
        query_text: &str,
        threshold: f64,
        ctx: Option<&seu_obs::TraceContext>,
    ) -> Box<dyn Pending<SearchReply>> {
        let start = std::time::Instant::now();
        Box::new(
            self.search(query_text, threshold, ctx)
                .map(|(hits, spans)| SearchReply {
                    hits,
                    spans,
                    seconds: start.elapsed().as_secs_f64(),
                }),
        )
    }

    /// The engine's exact usefulness for a query at a threshold — the
    /// oracle the evaluation compares estimates against.
    fn true_usefulness(
        &self,
        query_text: &str,
        threshold: f64,
    ) -> Result<TrueUsefulness, TransportError>;

    /// [`Self::true_usefulness`] for many queries at once, answers in
    /// request order. The default loops the per-query call; the `seu-net`
    /// TCP client overrides both: the batch is its one oracle frame
    /// (`EstimateBatch`), and a single query travels as a batch of one.
    fn true_usefulness_batch(
        &self,
        queries: &[String],
        threshold: f64,
    ) -> Result<Vec<TrueUsefulness>, TransportError> {
        queries
            .iter()
            .map(|q| self.true_usefulness(q, threshold))
            .collect()
    }

    /// Fetches the engine's current record (representative, vocabulary,
    /// weighting statistics).
    fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use seu_engine::{CollectionBuilder, Query, SearchEngine, WeightingScheme};
    use seu_repr::Representative;
    use seu_text::{Analyzer, TermId};

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

    #[test]
    fn record_query_matches_collection_query() {
        let long = "x".repeat(70_000);
        let durian = format!("durian apple {long}");
        let e = engine(&["apple banana apple", "banana cherry", &durian]);
        let record = record_of("fruits", &e);
        assert!(record.is_consistent());
        let broker = crate::Broker::new(seu_core::SubrangeEstimator::paper_six_subrange());
        broker.register("fruits", e.clone());
        let bits = |q: &Query| -> Vec<(TermId, u64)> {
            q.terms().iter().map(|&(t, w)| (t, w.to_bits())).collect()
        };

        let repeated = "apple banana apple apple".to_string();
        let unknown = "zebra apple quokka".to_string();
        let over_long = format!("cherry {long}");
        for text in [
            "apple",
            "apple banana cherry",
            "zebra",
            "",
            &repeated,
            &unknown,
            &over_long,
        ] {
            let local = e.collection().query_from_text(text);
            assert_eq!(
                bits(&record.query_from_text(text)),
                bits(&local),
                "{text:?}"
            );
            // A plan has a row only where the query holds a term.
            let plan = broker.plan(&crate::SearchRequest::new(text), None);
            let rows: Vec<_> = plan.engines().iter().map(|row| bits(row.query())).collect();
            assert_eq!(rows.len(), usize::from(!local.is_empty()), "{text:?}");
            assert!(rows.iter().all(|row| *row == bits(&local)), "{text:?}");
        }
        let tf = [(TermId(0), 2), (TermId(2), 1), (TermId(1), 0)];
        assert_eq!(record.query_from_tf(tf), e.collection().query_from_tf(tf));
    }

    #[test]
    fn transport_error_formats_kind_and_detail() {
        let e = TransportError::new(TransportErrorKind::Refused, "127.0.0.1:1 unreachable");
        assert_eq!(e.to_string(), "refused: 127.0.0.1:1 unreachable");
        assert_eq!(
            TransportErrorKind::ConnectionLost.label(),
            "connection_lost"
        );
    }

    #[test]
    fn inconsistent_record_is_detected() {
        let e = engine(&["apple banana"]);
        let mut record = record_of("x", &e);
        record.doc_freq = record.doc_freq[1..].into();
        assert!(check_consistent(&record).is_err());
        // A representative counting documents its fingerprint does not.
        let mut record = record_of("x", &e);
        record.fingerprint.n_docs += 1;
        assert!(!record.is_consistent());
        // A table row past the vocabulary, even one for no document.
        let mut record = record_of("x", &e);
        let repr = &record.repr;
        let mut rows: Vec<_> = repr.iter().map(|(_, s)| *s).collect();
        rows.push(seu_repr::TermStats {
            p: 0.0,
            mean: 0.0,
            std_dev: 0.0,
            max: 0.0,
        });
        let (n_docs, bytes) = (repr.n_docs(), repr.collection_bytes());
        record.repr = Arc::new(Representative::from_parts(n_docs, rows, bytes));
        assert!(!record.is_consistent());
    }
}
