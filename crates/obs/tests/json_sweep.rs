//! The JSON parser reads untrusted bytes (a `POST /search` body), so it
//! is swept like every other decoder of them: every strict prefix and
//! every one-byte insertion into a search body, a metrics snapshot and
//! a trace gives `Ok` or `Err` and never panics. Arrays and objects
//! nest at most [`json::MAX_DEPTH`] deep.

use seu_obs::json::{self, ParseError, MAX_DEPTH};
use seu_obs::{FinishedTrace, MetricsRegistry, SpanId, SpanRecord, TraceId};

fn search_body() -> String {
    r#"{"query":"mushroom soup","threshold":0.2,"top_k":3,"all":false,"explain":true,"cache":"bypass"}"#
        .to_string()
}

fn snapshot() -> String {
    let registry = MetricsRegistry::new();
    registry.counter("door_requests_total").add(3);
    registry.gauge("door_open").set(-2.5);
    registry
        .histogram_with_buckets("door_seconds", &[0.001, 0.1])
        .observe(0.01);
    registry.snapshot().to_json()
}

fn trace() -> String {
    let span = |id, parent, name: &str| SpanRecord {
        id: SpanId(id),
        parent: SpanId(parent),
        name: name.into(),
        start_unix_ns: 100 + id,
        duration_ns: 1000,
        attrs: vec![("query".into(), "a \"quoted\" term\n".into())],
    };
    FinishedTrace {
        trace_id: TraceId(0xabcd),
        root_span: SpanId(1),
        name: "search".into(),
        start_unix_ns: 100,
        duration_ns: 5000,
        sampled: true,
        slow: false,
        spans: vec![span(1, 0, "search"), span(2, 1, "plan")],
    }
    .to_json()
}

/// One `char` of every kind the grammar tells apart, and one that is
/// more than a byte long.
const INSERTS: &[char] = &[
    '[', ']', '{', '}', '"', ':', ',', '\\', '-', '+', '.', '0', '9', 'e', 'E', 'u', 't', 'n', 'f',
    ' ', '\n', '\0', 'x', 'é', '\u{ffff}',
];

fn sweep(doc: &str) {
    assert!(json::parse(doc).is_ok(), "{doc}");
    let cuts: Vec<usize> = (0..doc.len())
        .filter(|&at| doc.is_char_boundary(at))
        .collect();
    for &at in &cuts {
        let _ = json::parse(&doc[..at]);
        for &c in INSERTS {
            let mut grown = String::with_capacity(doc.len() + 4);
            grown.push_str(&doc[..at]);
            grown.push(c);
            grown.push_str(&doc[at..]);
            let _ = json::parse(&grown);
        }
    }
    let mut longer = doc.to_string();
    for &c in INSERTS {
        longer.push(c);
        let _ = json::parse(&longer);
        longer.pop();
    }
}

#[test]
fn a_search_body_swept_never_panics() {
    sweep(&search_body());
}

#[test]
fn a_metrics_snapshot_swept_never_panics() {
    sweep(&snapshot());
}

#[test]
fn a_trace_swept_never_panics() {
    sweep(&trace());
}

/// `depth` arrays or objects, each inside the last.
fn nested(depth: usize, array: bool) -> String {
    if array {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    } else {
        format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth))
    }
}

#[test]
fn nesting_at_the_bound_parses_and_one_level_past_it_is_too_deep() {
    for array in [true, false] {
        assert!(json::parse(&nested(MAX_DEPTH, array)).is_ok());
        let err = json::parse(&nested(MAX_DEPTH + 1, array)).unwrap_err();
        assert!(matches!(err, ParseError::TooDeep { .. }), "{err}");
    }
    // Far past the bound, and never closed: refused at the first level
    // too many, before the rest is read.
    let err = json::parse(&"[".repeat(100_000)).unwrap_err();
    assert_eq!(err, ParseError::TooDeep { at: MAX_DEPTH });
    let body = format!("{{\"query\":{}}}", nested(MAX_DEPTH, true));
    assert!(matches!(
        json::parse(&body),
        Err(ParseError::TooDeep { .. })
    ));
}
