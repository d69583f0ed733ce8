//! `seu-trace`: lock-cheap per-request tracing.
//!
//! A [`Tracer`] starts one trace per request ([`Tracer::start_trace`])
//! and makes a **head-based** sampling decision at that moment: a trace
//! is sampled when the caller forces it (the HTTP `explain` option), or
//! when the rate sampler fires (1-in-N requests, [`Tracer::set_sample_rate`]).
//! Sampled traces record every span; unsampled traces keep only the root
//! timer, so the steady-state cost of an unsampled request is one
//! allocation and two clock reads.
//!
//! Spans are RAII guards ([`SpanGuard`]) carrying explicit parent links
//! and string attributes. Guards record on drop — including during a
//! panic unwind, in which case the span is tagged `panicked=true` — so a
//! crashing engine search still closes its span exactly once.
//!
//! Finished traces are retained in a bounded ring buffer
//! ([`TraceStore`]) when they were sampled **or** when their total
//! duration crossed the slow threshold ([`Tracer::set_slow_threshold`]) —
//! the "always sample slow" half of the policy. A slow trace that was
//! not head-sampled retains its root span plus whatever coarse spans the
//! caller back-filled (the broker synthesizes per-engine spans from
//! dispatch stats), so over-budget requests are never invisible.
//!
//! Trace context crosses process boundaries as a
//! `(trace_id, parent_span_id, sampled)` triple ([`TraceContext`]);
//! seu-net carries it in a dedicated frame kind and remote engines
//! return their spans in the reply, where they are grafted into the
//! caller's trace ([`TraceHandle::adopt_spans`]).

use crate::json;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime};

/// Identifies one end-to-end request across processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl TraceId {
    /// Renders as 16 lowercase hex digits (the form used in URLs and
    /// logs).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`TraceId::to_hex`] form.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// SplitMix64 finalizer: decorrelates sequential counter values into
/// well-spread ids.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Process-unique, well-spread, nonzero 64-bit id. Zero is reserved to
/// mean "absent" on the wire.
fn next_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    let seed = *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        mix(nanos ^ (std::process::id() as u64) << 32)
    });
    loop {
        let id = mix(seed ^ COUNTER.fetch_add(1, Ordering::Relaxed));
        if id != 0 {
            return id;
        }
    }
}

/// A fresh process-unique span id, for code that authors
/// [`SpanRecord`]s directly — e.g. an engine server recording spans
/// under a propagated [`TraceContext`].
pub fn new_span_id() -> SpanId {
    SpanId(next_id())
}

/// The current wall clock in Unix nanoseconds (0 if the clock is before
/// the epoch), for directly authored [`SpanRecord`]s.
pub fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// The portable part of a trace: what crosses the wire to a remote
/// engine so its spans land in the same tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The request's trace id.
    pub trace_id: TraceId,
    /// The span on the caller's side that the remote work nests under.
    pub parent_span: SpanId,
    /// Head-based sampling decision; unsampled contexts are not
    /// propagated (callers send the plain message instead).
    pub sampled: bool,
}

impl TraceContext {
    /// A context that samples nothing; used where a context is required
    /// but no trace is active.
    pub fn disabled() -> TraceContext {
        TraceContext {
            trace_id: TraceId(0),
            parent_span: SpanId(0),
            sampled: false,
        }
    }
}

/// One finished span: explicit parent link, wall-clock start, duration,
/// and free-form string attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Parent span id; `SpanId(0)` marks the root.
    pub parent: SpanId,
    /// Operation name, e.g. `plan`, `dispatch:engine-3`.
    pub name: String,
    /// Wall-clock start in Unix nanoseconds.
    pub start_unix_ns: u64,
    /// Elapsed nanoseconds.
    pub duration_ns: u64,
    /// `(key, value)` attributes in insertion order.
    pub attrs: Vec<(String, String)>,
}

/// Mutable innards of an in-flight trace.
#[derive(Debug)]
struct TraceInner {
    trace_id: TraceId,
    root_span: SpanId,
    sampled: bool,
    epoch: Instant,
    epoch_unix_ns: u64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceInner {
    fn now_unix_ns(&self) -> u64 {
        self.epoch_unix_ns + self.epoch.elapsed().as_nanos() as u64
    }
}

/// Cheap, cloneable handle to an in-flight trace. Pass it (or clones)
/// down the request path; every method is a no-op when the trace is
/// disabled, and child-span recording is additionally gated on the
/// head sampling decision.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<TraceInner>>,
}

impl TraceHandle {
    /// A handle that records nothing; for code paths without a trace.
    pub fn disabled() -> TraceHandle {
        TraceHandle { inner: None }
    }

    /// Whether span recording is active (trace present **and** sampled).
    pub fn is_sampled(&self) -> bool {
        self.inner.as_ref().is_some_and(|t| t.sampled)
    }

    /// The trace id, if a trace is active.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.inner.as_ref().map(|t| t.trace_id)
    }

    /// The root span id, if a trace is active.
    pub fn root_span(&self) -> Option<SpanId> {
        self.inner.as_ref().map(|t| t.root_span)
    }

    /// Starts a span parented to the trace root. Returns a recording
    /// guard only when sampled.
    pub fn span(&self, name: &str) -> SpanGuard {
        let parent = self.root_span().unwrap_or(SpanId(0));
        self.child_span(name, parent)
    }

    /// Starts a span under an explicit parent.
    pub fn child_span(&self, name: &str, parent: SpanId) -> SpanGuard {
        match &self.inner {
            Some(t) if t.sampled => SpanGuard {
                inner: Some(SpanGuardInner {
                    trace: Arc::clone(t),
                    id: SpanId(next_id()),
                    parent,
                    name: name.to_string(),
                    start_unix_ns: t.now_unix_ns(),
                    start: Instant::now(),
                    attrs: Vec::new(),
                }),
            },
            _ => SpanGuard { inner: None },
        }
    }

    /// The wire context for remote work nested under `parent`.
    pub fn context(&self, parent: SpanId) -> TraceContext {
        match &self.inner {
            Some(t) => TraceContext {
                trace_id: t.trace_id,
                parent_span: parent,
                sampled: t.sampled,
            },
            None => TraceContext::disabled(),
        }
    }

    /// Grafts externally produced spans (a remote engine's reply, or
    /// back-filled coarse spans) into this trace. Works even when the
    /// trace is unsampled so slow traces can be reconstructed.
    pub fn adopt_spans(&self, spans: impl IntoIterator<Item = SpanRecord>) {
        if let Some(t) = &self.inner {
            t.spans.lock().extend(spans);
        }
    }
}

#[derive(Debug)]
struct SpanGuardInner {
    trace: Arc<TraceInner>,
    id: SpanId,
    parent: SpanId,
    name: String,
    start_unix_ns: u64,
    start: Instant,
    attrs: Vec<(String, String)>,
}

/// RAII span: records into its trace exactly once, on drop or via
/// [`SpanGuard::finish`]. Dropping during a panic unwind still records,
/// tagged with `panicked=true`.
#[derive(Debug, Default)]
pub struct SpanGuard {
    inner: Option<SpanGuardInner>,
}

impl SpanGuard {
    /// A guard that records nothing.
    pub fn disabled() -> SpanGuard {
        SpanGuard { inner: None }
    }

    /// This span's id (to parent children under); `SpanId(0)` when
    /// disabled.
    pub fn id(&self) -> SpanId {
        self.inner.as_ref().map_or(SpanId(0), |g| g.id)
    }

    /// Whether this guard will record a span.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a `(key, value)` attribute.
    pub fn attr(&mut self, key: &str, value: impl fmt::Display) {
        if let Some(g) = &mut self.inner {
            g.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Closes the span now, returning elapsed seconds (0.0 when
    /// disabled).
    pub fn finish(mut self) -> f64 {
        match self.inner.take() {
            Some(g) => record_guard(g, false),
            None => 0.0,
        }
    }
}

fn record_guard(g: SpanGuardInner, panicking: bool) -> f64 {
    let elapsed = g.start.elapsed();
    let mut attrs = g.attrs;
    if panicking {
        attrs.push(("panicked".to_string(), "true".to_string()));
    }
    g.trace.spans.lock().push(SpanRecord {
        id: g.id,
        parent: g.parent,
        name: g.name,
        start_unix_ns: g.start_unix_ns,
        duration_ns: elapsed.as_nanos() as u64,
        attrs,
    });
    elapsed.as_secs_f64()
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            record_guard(g, std::thread::panicking());
        }
    }
}

/// A trace owned by the request entry point; finishing it closes the
/// root span and offers the trace to the store.
#[derive(Debug)]
pub struct ActiveTrace {
    inner: Arc<TraceInner>,
    name: &'static str,
    root_attrs: Vec<(String, String)>,
    tracer: &'static Tracer,
}

impl ActiveTrace {
    /// A cheap handle for instrumenting downstream code.
    pub fn handle(&self) -> TraceHandle {
        TraceHandle {
            inner: Some(Arc::clone(&self.inner)),
        }
    }

    /// The trace id.
    pub fn trace_id(&self) -> TraceId {
        self.inner.trace_id
    }

    /// The root span id.
    pub fn root_span(&self) -> SpanId {
        self.inner.root_span
    }

    /// Whether child spans are being recorded.
    pub fn is_sampled(&self) -> bool {
        self.inner.sampled
    }

    /// Attaches an attribute to the root span (recorded even when
    /// unsampled, so slow traces keep their request context). A caller
    /// that formats its attributes for every request sets them in
    /// [`ActiveTrace::finish_with`] instead, which formats them only for
    /// a trace that is kept.
    pub fn root_attr(&mut self, key: &str, value: impl fmt::Display) {
        self.root_attrs.push((key.to_string(), value.to_string()));
    }

    /// Elapsed time since the trace started.
    pub fn elapsed(&self) -> Duration {
        self.inner.epoch.elapsed()
    }

    /// Closes the root span and retains the trace in the store if it
    /// was sampled or crossed the slow threshold. Returns the finished
    /// trace whenever it was retained.
    pub fn finish(self) -> Option<Arc<FinishedTrace>> {
        self.finish_with(|_| {})
    }

    /// [`ActiveTrace::finish`], calling `root_attrs` first when the trace
    /// is retained, and only then: the root attributes it sets follow
    /// any set before, and a trace that is dropped formats none.
    pub fn finish_with(
        mut self,
        root_attrs: impl FnOnce(&mut ActiveTrace),
    ) -> Option<Arc<FinishedTrace>> {
        let elapsed = self.inner.epoch.elapsed();
        let slow = self.tracer.is_slow(elapsed);
        if !self.inner.sampled && !slow {
            return None;
        }
        root_attrs(&mut self);
        let mut spans = std::mem::take(&mut *self.inner.spans.lock());
        spans.push(SpanRecord {
            id: self.inner.root_span,
            parent: SpanId(0),
            name: self.name.to_string(),
            start_unix_ns: self.inner.epoch_unix_ns,
            duration_ns: elapsed.as_nanos() as u64,
            attrs: self.root_attrs,
        });
        // Root first, children in completion order after it.
        spans.rotate_right(1);
        let finished = Arc::new(FinishedTrace {
            trace_id: self.inner.trace_id,
            root_span: self.inner.root_span,
            name: self.name.to_string(),
            start_unix_ns: self.inner.epoch_unix_ns,
            duration_ns: elapsed.as_nanos() as u64,
            sampled: self.inner.sampled,
            slow,
            spans,
        });
        self.tracer.store.insert(Arc::clone(&finished));
        Some(finished)
    }
}

/// An immutable, completed trace as retained by the [`TraceStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedTrace {
    /// The request's trace id.
    pub trace_id: TraceId,
    /// Id of the root span (always `spans[0]`).
    pub root_span: SpanId,
    /// Root operation name.
    pub name: String,
    /// Wall-clock start in Unix nanoseconds.
    pub start_unix_ns: u64,
    /// Total elapsed nanoseconds.
    pub duration_ns: u64,
    /// Whether the head sampler selected this trace (false: retained
    /// only because it was slow).
    pub sampled: bool,
    /// Whether the trace crossed the slow threshold.
    pub slow: bool,
    /// All spans, root first.
    pub spans: Vec<SpanRecord>,
}

impl FinishedTrace {
    /// Renders the span tree as a JSON object (flat span list with
    /// explicit parent links; consumers rebuild the tree from
    /// `parent_span_id`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the JSON rendering to `out`.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"trace_id\": \"{}\", \"name\": ",
            self.trace_id.to_hex()
        );
        json::write_escaped(out, &self.name);
        let _ = write!(
            out,
            ", \"start_unix_ns\": {}, \"duration_ns\": {}, \"sampled\": {}, \"slow\": {}, \"spans\": [",
            self.start_unix_ns, self.duration_ns, self.sampled, self.slow
        );
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"span_id\": \"{:016x}\", \"parent_span_id\": \"{:016x}\", \"name\": ",
                span.id.0, span.parent.0
            );
            json::write_escaped(out, &span.name);
            let _ = write!(
                out,
                ", \"start_unix_ns\": {}, \"duration_ns\": {}, \"attrs\": {{",
                span.start_unix_ns, span.duration_ns
            );
            for (j, (key, value)) in span.attrs.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                json::write_escaped(out, key);
                out.push_str(": ");
                json::write_escaped(out, value);
            }
            out.push_str("}}");
        }
        out.push_str("]}");
    }

    /// One-line summary object (no spans) for trace listings.
    pub fn summary_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"trace_id\": \"{}\", \"name\": ",
            self.trace_id.to_hex()
        );
        json::write_escaped(&mut out, &self.name);
        let _ = write!(
            out,
            ", \"start_unix_ns\": {}, \"duration_ns\": {}, \"sampled\": {}, \"slow\": {}, \"span_count\": {}}}",
            self.start_unix_ns, self.duration_ns, self.sampled, self.slow,
            self.spans.len()
        );
        out
    }
}

/// Bounded ring buffer of finished traces, newest first on readout.
#[derive(Debug)]
pub struct TraceStore {
    capacity: usize,
    ring: Mutex<VecDeque<Arc<FinishedTrace>>>,
}

impl TraceStore {
    /// A store retaining at most `capacity` traces.
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Inserts a trace, evicting the oldest when full.
    pub fn insert(&self, trace: Arc<FinishedTrace>) {
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// All retained traces, newest first.
    pub fn recent(&self) -> Vec<Arc<FinishedTrace>> {
        self.ring.lock().iter().rev().cloned().collect()
    }

    /// Looks up a trace by id (newest match wins).
    pub fn get(&self, id: TraceId) -> Option<Arc<FinishedTrace>> {
        self.ring
            .lock()
            .iter()
            .rev()
            .find(|t| t.trace_id == id)
            .cloned()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Drops all retained traces.
    pub fn clear(&self) {
        self.ring.lock().clear();
    }
}

/// Default 1-in-N head sampling rate.
pub const DEFAULT_SAMPLE_RATE: u64 = 64;
/// Default slow threshold (also gates the slow-query log).
pub const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(500);
/// Default [`TraceStore`] capacity.
pub const DEFAULT_STORE_CAPACITY: usize = 256;

/// The tracing front door: owns the store, the sampling policy, and the
/// slow-query-log sink.
#[derive(Debug)]
pub struct Tracer {
    store: Arc<TraceStore>,
    /// 1-in-N rate; 0 disables rate sampling entirely.
    rate: AtomicU64,
    /// Slow threshold in nanoseconds; 0 disables slow retention/logging.
    slow_ns: AtomicU64,
    requests: AtomicU64,
    slow_log: Mutex<Option<std::fs::File>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            store: Arc::new(TraceStore::new(DEFAULT_STORE_CAPACITY)),
            rate: AtomicU64::new(DEFAULT_SAMPLE_RATE),
            slow_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD.as_nanos() as u64),
            requests: AtomicU64::new(0),
            slow_log: Mutex::new(None),
        }
    }

    /// The trace ring buffer (shared with admin surfaces).
    pub fn store(&self) -> &Arc<TraceStore> {
        &self.store
    }

    /// Sets the 1-in-N head sampling rate (`0` = never rate-sample,
    /// `1` = sample everything).
    pub fn set_sample_rate(&self, rate: u64) {
        self.rate.store(rate, Ordering::Relaxed);
    }

    /// Sets the slow threshold; `Duration::ZERO` disables slow
    /// retention and the slow-query log.
    pub fn set_slow_threshold(&self, threshold: Duration) {
        self.slow_ns
            .store(threshold.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Redirects the slow-query log from stderr to a file (append
    /// mode). `None` reverts to stderr.
    pub fn set_slow_log_file(&self, file: Option<std::fs::File>) {
        *self.slow_log.lock() = file;
    }

    /// Whether `elapsed` crosses the slow threshold.
    pub fn is_slow(&self, elapsed: Duration) -> bool {
        let slow_ns = self.slow_ns.load(Ordering::Relaxed);
        slow_ns > 0 && elapsed.as_nanos() as u64 >= slow_ns
    }

    /// Emits one structured line to the slow-query log (the configured
    /// file, else stderr). `line` should be a complete JSON object.
    pub fn slow_log_line(&self, line: &str) {
        use std::io::Write as _;
        let mut sink = self.slow_log.lock();
        match sink.as_mut() {
            Some(file) => {
                let _ = writeln!(file, "{line}");
                let _ = file.flush();
            }
            None => eprintln!("{line}"),
        }
    }

    /// Starts a trace named `name`. The head sampling decision is made
    /// here: `force` (explain requests) or the 1-in-N rate sampler. The
    /// name is copied only into a trace that is kept.
    pub fn start_trace(&'static self, name: &'static str, force: bool) -> ActiveTrace {
        let rate = self.rate.load(Ordering::Relaxed);
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        let sampled = force || (rate > 0 && n % rate == 0);
        let epoch_unix_ns = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        ActiveTrace {
            inner: Arc::new(TraceInner {
                trace_id: TraceId(next_id()),
                root_span: SpanId(next_id()),
                sampled,
                epoch: Instant::now(),
                epoch_unix_ns,
                spans: Mutex::new(Vec::new()),
            }),
            name,
            root_attrs: Vec::new(),
            tracer: self,
        }
    }
}

/// The process-wide tracer used by the seu crates' instrumentation.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn isolated_tracer() -> &'static Tracer {
        // Leak a fresh tracer so tests don't race on the global one's
        // sampling counters.
        Box::leak(Box::new(Tracer::new()))
    }

    #[test]
    fn ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn trace_id_hex_round_trips() {
        let id = TraceId(0x00ab_cdef_1234_5678);
        assert_eq!(TraceId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(TraceId::from_hex("nope"), None);
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(TraceId::from_hex("11112222333344445"), None);
    }

    #[test]
    fn forced_trace_records_span_tree() {
        let tracer = isolated_tracer();
        tracer.set_sample_rate(0);
        let mut trace = tracer.start_trace("search", true);
        trace.root_attr("query", "alpha beta");
        let handle = trace.handle();
        assert!(handle.is_sampled());
        let plan = handle.span("plan");
        let plan_id = plan.id();
        {
            let mut child = handle.child_span("analyze", plan_id);
            child.attr("terms", 2);
        }
        plan.finish();
        let finished = trace.finish().expect("forced traces are retained");
        assert!(finished.sampled);
        assert_eq!(finished.spans.len(), 3);
        assert_eq!(finished.spans[0].name, "search");
        assert_eq!(finished.spans[0].parent, SpanId(0));
        let analyze = finished.spans.iter().find(|s| s.name == "analyze").unwrap();
        assert_eq!(analyze.parent, plan_id);
        assert_eq!(analyze.attrs, vec![("terms".into(), "2".into())]);
        let root = finished.spans[0].id;
        let plan_span = finished.spans.iter().find(|s| s.name == "plan").unwrap();
        assert_eq!(plan_span.parent, root);
        assert_eq!(tracer.store().get(finished.trace_id).unwrap(), finished);
    }

    #[test]
    fn unsampled_fast_trace_is_dropped() {
        let tracer = isolated_tracer();
        tracer.set_sample_rate(0);
        let trace = tracer.start_trace("search", false);
        let handle = trace.handle();
        assert!(!handle.is_sampled());
        let span = handle.span("plan");
        assert!(!span.is_recording());
        drop(span);
        assert!(trace.finish().is_none());
        assert!(tracer.store().is_empty());
    }

    #[test]
    fn root_attributes_at_finish_are_formatted_only_for_a_kept_trace() {
        let tracer = isolated_tracer();
        tracer.set_sample_rate(0);
        let dropped = tracer.start_trace("search", false);
        let finished = dropped.finish_with(|_| unreachable!("a dropped trace formats nothing"));
        assert!(finished.is_none());

        let mut kept = tracer.start_trace("search", true);
        kept.root_attr("query", "alpha");
        let finished = kept
            .finish_with(|t| t.root_attr("hits", 3))
            .expect("forced traces are retained");
        let attrs = &finished.spans[0].attrs;
        assert_eq!(
            attrs,
            &[
                ("query".into(), "alpha".into()),
                ("hits".into(), "3".into())
            ]
        );
    }

    #[test]
    fn slow_trace_is_always_retained() {
        let tracer = isolated_tracer();
        tracer.set_sample_rate(0);
        tracer.set_slow_threshold(Duration::from_nanos(1));
        let trace = tracer.start_trace("search", false);
        trace.handle().adopt_spans([SpanRecord {
            id: SpanId(7),
            parent: trace.root_span(),
            name: "dispatch:e0".into(),
            start_unix_ns: 0,
            duration_ns: 42,
            attrs: vec![],
        }]);
        std::thread::sleep(Duration::from_millis(1));
        let finished = trace.finish().expect("slow traces are retained");
        assert!(finished.slow);
        assert!(!finished.sampled);
        assert_eq!(finished.spans.len(), 2);
        assert_eq!(finished.spans[1].name, "dispatch:e0");
    }

    #[test]
    fn rate_sampler_fires_one_in_n() {
        let tracer = isolated_tracer();
        tracer.set_sample_rate(4);
        tracer.set_slow_threshold(Duration::ZERO);
        let mut sampled = 0;
        for _ in 0..16 {
            let trace = tracer.start_trace("q", false);
            if trace.is_sampled() {
                sampled += 1;
            }
            trace.finish();
        }
        assert_eq!(sampled, 4);
        assert_eq!(tracer.store().len(), 4);
    }

    #[test]
    fn span_guard_records_on_panic_unwind() {
        let tracer = isolated_tracer();
        let trace = tracer.start_trace("search", true);
        let handle = trace.handle();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = handle.span("doomed");
            panic!("job exploded");
        }));
        assert!(result.is_err());
        let finished = trace.finish().unwrap();
        let doomed = finished.spans.iter().find(|s| s.name == "doomed").unwrap();
        assert!(doomed
            .attrs
            .iter()
            .any(|(k, v)| k == "panicked" && v == "true"));
    }

    #[test]
    fn store_ring_is_bounded() {
        let store = TraceStore::new(2);
        for i in 0..5u64 {
            store.insert(Arc::new(FinishedTrace {
                trace_id: TraceId(i + 1),
                root_span: SpanId(1),
                name: "t".into(),
                start_unix_ns: i,
                duration_ns: 1,
                sampled: true,
                slow: false,
                spans: vec![],
            }));
        }
        assert_eq!(store.len(), 2);
        let recent = store.recent();
        assert_eq!(recent[0].trace_id, TraceId(5));
        assert_eq!(recent[1].trace_id, TraceId(4));
        assert!(store.get(TraceId(1)).is_none());
        assert!(store.get(TraceId(5)).is_some());
    }

    #[test]
    fn trace_json_is_parseable_and_complete() {
        let trace = FinishedTrace {
            trace_id: TraceId(0xabcd),
            root_span: SpanId(1),
            name: "search".into(),
            start_unix_ns: 100,
            duration_ns: 5000,
            sampled: true,
            slow: false,
            spans: vec![
                SpanRecord {
                    id: SpanId(1),
                    parent: SpanId(0),
                    name: "search".into(),
                    start_unix_ns: 100,
                    duration_ns: 5000,
                    attrs: vec![("query".into(), "a \"quoted\" term".into())],
                },
                SpanRecord {
                    id: SpanId(2),
                    parent: SpanId(1),
                    name: "plan".into(),
                    start_unix_ns: 150,
                    duration_ns: 1000,
                    attrs: vec![],
                },
            ],
        };
        let doc = json::parse(&trace.to_json()).unwrap();
        assert_eq!(
            doc.get("trace_id").and_then(json::Json::as_str),
            Some("000000000000abcd")
        );
        let spans = doc.get("spans").and_then(json::Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("parent_span_id").and_then(json::Json::as_str),
            Some("0000000000000001")
        );
        assert_eq!(
            spans[0]
                .get("attrs")
                .and_then(|a| a.get("query"))
                .and_then(json::Json::as_str),
            Some("a \"quoted\" term")
        );
        let summary = json::parse(&trace.summary_json()).unwrap();
        assert_eq!(
            summary.get("span_count").and_then(json::Json::as_num),
            Some(2.0)
        );
    }

    #[test]
    fn context_carries_sampling_decision() {
        let tracer = isolated_tracer();
        let trace = tracer.start_trace("search", true);
        let handle = trace.handle();
        let span = handle.span("dispatch");
        let ctx = handle.context(span.id());
        assert!(ctx.sampled);
        assert_eq!(ctx.trace_id, trace.trace_id());
        assert_eq!(ctx.parent_span, span.id());
        assert_eq!(TraceContext::disabled().trace_id, TraceId(0));
    }
}
