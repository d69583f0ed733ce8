//! The epoch ledger: one scripted pass over every lifecycle entry point
//! and outcome, booking after each step the registry epoch, the
//! per-shard epochs, every engine's `{epoch, stale, detached}` and the
//! movement of the two process-global registry gauges.
//!
//! The expected ledgers below were produced by the broker as it stood
//! before the registry took over its own bookkeeping; a refactor of the
//! lifecycle paths must reproduce them to the digit. The failure-path
//! pairings (a transport that is down, a snapshot that is inconsistent,
//! a removal followed by a restore) are booked nowhere else.
//!
//! One `#[test]` in a binary of its own: the ledger reads
//! `broker_registry_engines` and `broker_representative_bytes_resident`,
//! which sum over every live broker in the process.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    Broker, EngineSnapshot, RemoteHit, RemoteTransport, Representative, TransportError,
    TransportErrorKind,
};
use seu_text::Analyzer;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn engine_of(docs: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, d) in docs.iter().enumerate() {
        b.add_document(&format!("d{i}"), d);
    }
    SearchEngine::new(b.build())
}

/// What the fake transport's engine is doing right now.
#[derive(Debug)]
enum Line {
    /// Serving this collection.
    Up(SearchEngine),
    /// Unreachable.
    Down,
    /// Serving this collection, with a snapshot whose document
    /// frequencies do not cover its vocabulary.
    Garbled(SearchEngine),
}

/// An in-process remote engine the script can re-index, take down and
/// corrupt.
#[derive(Debug)]
struct Wire {
    name: &'static str,
    line: Mutex<Line>,
}

impl Wire {
    fn new(name: &'static str, line: Line) -> Arc<Wire> {
        Arc::new(Wire {
            name,
            line: Mutex::new(line),
        })
    }

    fn set(&self, line: Line) {
        *self.line.lock().unwrap() = line;
    }
}

impl RemoteTransport for Wire {
    fn endpoint(&self) -> String {
        format!("wire://{}", self.name)
    }

    fn search(
        &self,
        _query_text: &str,
        _threshold: f64,
        _ctx: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        unreachable!("the ledger never dispatches")
    }

    fn true_usefulness(&self, _: &str, _: f64) -> Result<TrueUsefulness, TransportError> {
        unreachable!("the ledger never asks the oracle")
    }

    fn fetch_snapshot(&self) -> Result<EngineSnapshot, TransportError> {
        match &*self.line.lock().unwrap() {
            Line::Up(engine) => Ok(EngineSnapshot::of_engine(self.name, engine)),
            Line::Down => Err(TransportError::new(
                TransportErrorKind::Refused,
                format!("{} is down", self.name),
            )),
            Line::Garbled(engine) => {
                let mut snapshot = EngineSnapshot::of_engine(self.name, engine);
                snapshot.doc_freq.push(7);
                Ok(snapshot)
            }
        }
    }
}

type TestBroker = Broker<SubrangeEstimator>;

fn store_broker(dir: &PathBuf, shards: usize) -> TestBroker {
    Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .store(dir)
        .expect("open store")
        .build()
}

fn gauge(name: &str) -> i64 {
    seu_obs::global()
        .snapshot()
        .gauges
        .get(name)
        .copied()
        .unwrap_or(0.0) as i64
}

/// The book: one line per step.
struct Ledger {
    lines: Vec<String>,
    engines: i64,
    bytes: i64,
}

impl Ledger {
    fn open() -> Ledger {
        Ledger {
            lines: Vec::new(),
            engines: gauge("broker_registry_engines"),
            bytes: gauge("broker_representative_bytes_resident"),
        }
    }

    /// Books the state of `b` after `step` (with the step's own return
    /// value rendered into the label by the caller).
    fn book(&mut self, step: &str, b: &TestBroker) {
        let snap = b.registry_snapshot();
        assert_eq!(snap.epoch, b.registry_epoch(), "{step}");
        assert_eq!(snap.epoch, snap.shard_epochs.iter().sum::<u64>(), "{step}");
        let statuses: Vec<String> = snap
            .statuses
            .iter()
            .map(|s| {
                format!(
                    "{}:{}{}{}",
                    s.name,
                    s.epoch,
                    if s.stale { "s" } else { "" },
                    if s.detached { "d" } else { "" }
                )
            })
            .collect();
        let engines = gauge("broker_registry_engines");
        let bytes = gauge("broker_representative_bytes_resident");
        self.lines.push(format!(
            "{step} | epoch {} {:?} | {} | engines {:+} bytes {:+}",
            snap.epoch,
            snap.shard_epochs,
            statuses.join(" "),
            engines - self.engines,
            bytes - self.bytes,
        ));
        self.engines = engines;
        self.bytes = bytes;
    }
}

const A1: &[&str] = &["database query index optimizer", "vector index search"];
const B1: &[&str] = &["bread soup mushroom", "mushroom forest walk"];
const B2: &[&str] = &["bread soup mushroom", "porcini risotto", "forest walk"];
const R1: &[&str] = &["network gradient descent", "gradient estimate variance"];
const R2: &[&str] = &["network socket frame", "frame codec golden bytes"];
const R3: &[&str] = &["socket readiness loop"];
const G1: &[&str] = &["term weight cosine", "cosine similarity merge"];
const G2: &[&str] = &["rank merge select policy"];
const L1: &[&str] = &["corpus token stem", "stem token rank retrieval"];
const D1: &[&str] = &["broker shard epoch", "broker cache latency"];
const D2: &[&str] = &["epoch ledger books", "gauge delta rows", "shard walk"];

/// The script. Every lifecycle entry point, every outcome.
fn run(shards: usize) -> Vec<String> {
    let dir =
        std::env::temp_dir().join(format!("seu-epoch-ledger-{}-{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut ledger = Ledger::open();
    let r_wire = Wire::new("r", Line::Up(engine_of(R1)));
    let g_wire = Wire::new("g", Line::Up(engine_of(G1)));

    // --- registration -------------------------------------------------
    let b = store_broker(&dir, shards);
    ledger.book("build", &b);
    b.register("a", engine_of(A1));
    ledger.book("register a", &b);
    let shipped = Representative::build(engine_of(B1).collection());
    b.register_with_representative("b", engine_of(B1), shipped);
    ledger.book("register_with_representative b", &b);
    let got = b.register_remote(r_wire.clone());
    ledger.book(&format!("register_remote r -> {got:?}"), &b);
    let got = b.register_remote(g_wire.clone());
    ledger.book(&format!("register_remote g -> {got:?}"), &b);
    let l_engine = Arc::new(engine_of(L1));
    let got = b.install_snapshot(
        EngineSnapshot::of_engine("l", &l_engine),
        Some(l_engine.clone()),
        None,
    );
    ledger.book(&format!("install_snapshot l live -> {got:?}"), &b);
    let got = b.install_snapshot(
        EngineSnapshot::of_engine("d", &engine_of(D1)),
        None,
        Some("wire://d".to_string()),
    );
    ledger.book(&format!("install_snapshot d detached -> {got:?}"), &b);
    let mut bad = EngineSnapshot::of_engine("x", &engine_of(D1));
    bad.doc_freq.pop();
    let got = b.install_snapshot(bad, None, None).map_err(|e| e.kind);
    ledger.book(&format!("install_snapshot x inconsistent -> {got:?}"), &b);
    r_wire.set(Line::Down);
    let down = Wire::new("y", Line::Down);
    let got = b.register_remote(down).map_err(|e| e.kind);
    ledger.book(&format!("register_remote y down -> {got:?}"), &b);

    // --- representative updates and refreshes -------------------------
    // A shipped representative must be id-aligned with the collection
    // it replaces the summary of (the store's codec checks).
    let shipped = Representative::build(engine_of(A1).collection());
    let got = b.update_representative("a", shipped.clone());
    ledger.book(&format!("update_representative a -> {got}"), &b);
    let got = b.update_representative("r", shipped.clone());
    ledger.book(&format!("update_representative r (remote) -> {got}"), &b);
    let got = b.update_representative("nobody", shipped);
    ledger.book(&format!("update_representative nobody -> {got}"), &b);
    let got = b.refresh_representative("a");
    ledger.book(&format!("refresh_representative a -> {got}"), &b);
    let got = b.refresh_representative("g");
    ledger.book(&format!("refresh_representative g (remote) -> {got}"), &b);
    let got = b.refresh_representative("r");
    ledger.book(&format!("refresh_representative r (down) -> {got}"), &b);
    let got = b.refresh_representative("d");
    ledger.book(&format!("refresh_representative d (detached) -> {got}"), &b);
    let got = b.refresh_representative("nobody");
    ledger.book(&format!("refresh_representative nobody -> {got}"), &b);

    // --- replacement and sweeps ---------------------------------------
    let got = b.replace_engine("b", engine_of(B2));
    ledger.book(&format!("replace_engine b -> {got}"), &b);
    let got = b.replace_engine("r", engine_of(B2));
    ledger.book(&format!("replace_engine r (remote) -> {got}"), &b);
    let got = b.refresh_if_stale();
    ledger.book(&format!("refresh_if_stale (r down) -> {got:?}"), &b);
    r_wire.set(Line::Up(engine_of(R1)));
    let got = b.refresh_if_stale();
    ledger.book(&format!("refresh_if_stale (r up) -> {got:?}"), &b);
    let got = b.refresh_if_stale();
    ledger.book(&format!("refresh_if_stale (idle) -> {got:?}"), &b);

    // --- push invalidation --------------------------------------------
    let got = b.apply_invalidation("r", engine_of(R1).fingerprint());
    ledger.book(&format!("apply_invalidation r same -> {got:?}"), &b);
    r_wire.set(Line::Up(engine_of(R2)));
    let got = b.apply_invalidation("r", engine_of(R2).fingerprint());
    ledger.book(&format!("apply_invalidation r new -> {got:?}"), &b);
    r_wire.set(Line::Down);
    let got = b
        .apply_invalidation("r", engine_of(R3).fingerprint())
        .map_err(|e| e.kind);
    ledger.book(&format!("apply_invalidation r newer (down) -> {got:?}"), &b);
    let got = b.apply_invalidation("nobody", engine_of(R3).fingerprint());
    ledger.book(&format!("apply_invalidation nobody -> {got:?}"), &b);
    r_wire.set(Line::Up(engine_of(R2)));
    let got = b.refresh_if_stale();
    ledger.book(&format!("refresh_if_stale (r back) -> {got:?}"), &b);

    // --- removal, snapshot ---------------------------------------------
    let got = b.deregister("l");
    ledger.book(&format!("deregister l -> {got}"), &b);
    let got = b.deregister("nobody");
    ledger.book(&format!("deregister nobody -> {got}"), &b);
    let manifest = b.snapshot_registry().expect("snapshot");
    assert_eq!(manifest.epoch, b.registry_epoch());
    ledger.book(
        &format!(
            "snapshot_registry -> {} entries, next_seq {}",
            manifest.entries.len(),
            manifest.next_seq
        ),
        &b,
    );

    // --- restore, hydrate, attach --------------------------------------
    let c = store_broker(&dir, shards);
    let got = c.restore().map_err(|e| e.kind);
    ledger.book(&format!("restore -> {got:?}"), &c);
    let got = c.hydrate();
    ledger.book(&format!("hydrate -> {got}"), &c);
    let got = c.hydrate();
    ledger.book(&format!("hydrate again -> {got}"), &c);
    let got = c.attach_engine("a", engine_of(A1));
    ledger.book(&format!("attach_engine a same -> {got}"), &c);
    let got = c.attach_engine("b", engine_of(B1));
    ledger.book(&format!("attach_engine b differing -> {got}"), &c);
    let got = c.attach_engine("a", engine_of(A1));
    ledger.book(&format!("attach_engine a (attached) -> {got}"), &c);
    let got = c.attach_remote(r_wire.clone());
    ledger.book(&format!("attach_remote r same -> {got:?}"), &c);
    let d_wire = Wire::new("d", Line::Up(engine_of(D2)));
    let got = c.attach_remote(d_wire.clone());
    ledger.book(&format!("attach_remote d differing -> {got:?}"), &c);
    g_wire.set(Line::Down);
    let got = c.attach_remote(g_wire.clone()).map_err(|e| e.kind);
    ledger.book(&format!("attach_remote g (down) -> {got:?}"), &c);
    g_wire.set(Line::Garbled(engine_of(G2)));
    let got = c.attach_remote(g_wire.clone()).map_err(|e| e.kind);
    ledger.book(&format!("attach_remote g inconsistent -> {got:?}"), &c);
    let got = c.attach_remote(d_wire);
    ledger.book(&format!("attach_remote d (attached) -> {got:?}"), &c);
    g_wire.set(Line::Up(engine_of(G2)));
    let got = c.refresh_if_stale();
    ledger.book(&format!("refresh_if_stale (g up) -> {got:?}"), &c);
    let got = c.deregister("a");
    ledger.book(&format!("deregister a -> {got}"), &c);

    // --- removal from a cold registry ----------------------------------
    let e = store_broker(&dir, shards);
    let got = e.restore().map_err(|e| e.kind);
    ledger.book(&format!("restore (second) -> {got:?}"), &e);
    let got = e.deregister("b");
    ledger.book(&format!("deregister b (cold) -> {got}"), &e);
    let got = e.apply_invalidation("r", engine_of(R2).fingerprint());
    ledger.book(&format!("apply_invalidation r same (cold) -> {got:?}"), &e);
    let got = e.hydrate();
    ledger.book(&format!("hydrate (after removal) -> {got}"), &e);

    // --- the brokers leave ----------------------------------------------
    drop(e);
    ledger.book("drop third broker", &c);
    drop(c);
    ledger.book("drop second broker", &b);
    let before = (ledger.engines, ledger.bytes);
    drop(b);
    ledger.lines.push(format!(
        "drop first broker | engines {:+} bytes {:+}",
        gauge("broker_registry_engines") - before.0,
        gauge("broker_representative_bytes_resident") - before.1,
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ledger.lines
}

fn assert_ledger(shards: usize, expected: &str) {
    let got = run(shards);
    let want: Vec<&str> = expected.lines().map(str::trim).collect();
    if got != want {
        panic!(
            "ledger at {shards} shard(s) moved\n--- booked ---\n{}\n--- expected ---\n{}",
            got.join("\n"),
            want.join("\n")
        );
    }
}

#[test]
fn every_lifecycle_path_books_the_same_epochs_and_gauges() {
    assert_ledger(1, FLAT);
    assert_ledger(4, SHARDED);
}

const FLAT: &str = "\
    build | epoch 0 [0] |  | engines +0 bytes +0
    register a | epoch 1 [1] | a:0 | engines +1 bytes +232
    register_with_representative b | epoch 2 [2] | a:0 b:0 | engines +1 bytes +200
    register_remote r -> Ok(\"r\") | epoch 3 [3] | a:0 b:0 r:0 | engines +1 bytes +200
    register_remote g -> Ok(\"g\") | epoch 4 [4] | a:0 b:0 r:0 g:0 | engines +1 bytes +200
    install_snapshot l live -> Ok(\"l\") | epoch 5 [5] | a:0 b:0 r:0 g:0 l:0 | engines +1 bytes +200
    install_snapshot d detached -> Ok(\"d\") | epoch 6 [6] | a:0 b:0 r:0 g:0 l:0 d:0d | engines +1 bytes +200
    install_snapshot x inconsistent -> Err(Protocol) | epoch 6 [6] | a:0 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    register_remote y down -> Err(Refused) | epoch 6 [6] | a:0 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    update_representative a -> true | epoch 7 [7] | a:1 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    update_representative r (remote) -> false | epoch 7 [7] | a:1 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    update_representative nobody -> false | epoch 7 [7] | a:1 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    refresh_representative a -> true | epoch 8 [8] | a:2 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    refresh_representative g (remote) -> true | epoch 9 [9] | a:2 b:0 r:0 g:1 l:0 d:0d | engines +0 bytes +0
    refresh_representative r (down) -> false | epoch 9 [9] | a:2 b:0 r:0s g:1 l:0 d:0d | engines +0 bytes +0
    refresh_representative d (detached) -> false | epoch 9 [9] | a:2 b:0 r:0s g:1 l:0 d:0sd | engines +0 bytes +0
    refresh_representative nobody -> false | epoch 9 [9] | a:2 b:0 r:0s g:1 l:0 d:0sd | engines +0 bytes +0
    replace_engine b -> true | epoch 10 [10] | a:2 b:1s r:0s g:1 l:0 d:0sd | engines +0 bytes +0
    replace_engine r (remote) -> false | epoch 10 [10] | a:2 b:1s r:0s g:1 l:0 d:0sd | engines +0 bytes +0
    refresh_if_stale (r down) -> [\"b\"] | epoch 11 [11] | a:2 b:2 r:0s g:1 l:0 d:0sd | engines +0 bytes +64
    refresh_if_stale (r up) -> [\"r\"] | epoch 12 [12] | a:2 b:2 r:1 g:1 l:0 d:0sd | engines +0 bytes +0
    refresh_if_stale (idle) -> [] | epoch 12 [12] | a:2 b:2 r:1 g:1 l:0 d:0sd | engines +0 bytes +0
    apply_invalidation r same -> Ok(true) | epoch 12 [12] | a:2 b:2 r:1 g:1 l:0 d:0sd | engines +0 bytes +0
    apply_invalidation r new -> Ok(true) | epoch 13 [13] | a:2 b:2 r:2 g:1 l:0 d:0sd | engines +0 bytes +32
    apply_invalidation r newer (down) -> Err(Refused) | epoch 13 [13] | a:2 b:2 r:2s g:1 l:0 d:0sd | engines +0 bytes +0
    apply_invalidation nobody -> Ok(false) | epoch 13 [13] | a:2 b:2 r:2s g:1 l:0 d:0sd | engines +0 bytes +0
    refresh_if_stale (r back) -> [\"r\"] | epoch 14 [14] | a:2 b:2 r:3 g:1 l:0 d:0sd | engines +0 bytes +0
    deregister l -> true | epoch 15 [15] | a:2 b:2 r:3 g:1 d:0sd | engines -1 bytes -200
    deregister nobody -> false | epoch 15 [15] | a:2 b:2 r:3 g:1 d:0sd | engines +0 bytes +0
    snapshot_registry -> 5 entries, next_seq 6 | epoch 15 [15] | a:2 b:2 r:3 g:1 d:0sd | engines +0 bytes +0
    restore -> Ok(5) | epoch 13 [13] | a:2d b:2d r:3d g:1d d:0d | engines +5 bytes +1128
    hydrate -> 5 | epoch 13 [13] | a:2d b:2d r:3d g:1d d:0d | engines +0 bytes +0
    hydrate again -> 0 | epoch 13 [13] | a:2d b:2d r:3d g:1d d:0d | engines +0 bytes +0
    attach_engine a same -> true | epoch 14 [14] | a:3 b:2d r:3d g:1d d:0d | engines +0 bytes +0
    attach_engine b differing -> true | epoch 15 [15] | a:3 b:3 r:3d g:1d d:0d | engines +0 bytes -64
    attach_engine a (attached) -> false | epoch 15 [15] | a:3 b:3 r:3d g:1d d:0d | engines +0 bytes +0
    attach_remote r same -> Ok(true) | epoch 16 [16] | a:3 b:3 r:4 g:1d d:0d | engines +0 bytes +0
    attach_remote d differing -> Ok(true) | epoch 17 [17] | a:3 b:3 r:4 g:1d d:1 | engines +0 bytes +96
    attach_remote g (down) -> Err(Refused) | epoch 17 [17] | a:3 b:3 r:4 g:1d d:1 | engines +0 bytes +0
    attach_remote g inconsistent -> Err(Protocol) | epoch 18 [18] | a:3 b:3 r:4 g:2s d:1 | engines +0 bytes +0
    attach_remote d (attached) -> Ok(false) | epoch 18 [18] | a:3 b:3 r:4 g:2s d:1 | engines +0 bytes +0
    refresh_if_stale (g up) -> [\"g\"] | epoch 19 [19] | a:3 b:3 r:4 g:3 d:1 | engines +0 bytes -32
    deregister a -> true | epoch 20 [20] | b:3 r:4 g:3 d:1 | engines -1 bytes -232
    restore (second) -> Ok(5) | epoch 13 [13] | a:2d b:2d r:3d g:1d d:0d | engines +5 bytes +1128
    deregister b (cold) -> true | epoch 14 [14] | a:2d r:3d g:1d d:0d | engines -1 bytes -264
    apply_invalidation r same (cold) -> Ok(true) | epoch 14 [14] | a:2d r:3d g:1d d:0d | engines +0 bytes +0
    hydrate (after removal) -> 4 | epoch 14 [14] | a:2d r:3d g:1d d:0d | engines +0 bytes +0
    drop third broker | epoch 20 [20] | b:3 r:4 g:3 d:1 | engines -4 bytes -864
    drop second broker | epoch 15 [15] | a:2 b:2 r:3 g:1 d:0sd | engines -4 bytes -896
    drop first broker | engines -5 bytes -1128";

const SHARDED: &str = "\
    build | epoch 0 [0, 0, 0, 0] |  | engines +0 bytes +0
    register a | epoch 1 [1, 0, 0, 0] | a:0 | engines +1 bytes +232
    register_with_representative b | epoch 2 [1, 1, 0, 0] | a:0 b:0 | engines +1 bytes +200
    register_remote r -> Ok(\"r\") | epoch 3 [1, 2, 0, 0] | a:0 b:0 r:0 | engines +1 bytes +200
    register_remote g -> Ok(\"g\") | epoch 4 [1, 2, 1, 0] | a:0 b:0 r:0 g:0 | engines +1 bytes +200
    install_snapshot l live -> Ok(\"l\") | epoch 5 [1, 2, 1, 1] | a:0 b:0 r:0 g:0 l:0 | engines +1 bytes +200
    install_snapshot d detached -> Ok(\"d\") | epoch 6 [1, 2, 1, 2] | a:0 b:0 r:0 g:0 l:0 d:0d | engines +1 bytes +200
    install_snapshot x inconsistent -> Err(Protocol) | epoch 6 [1, 2, 1, 2] | a:0 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    register_remote y down -> Err(Refused) | epoch 6 [1, 2, 1, 2] | a:0 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    update_representative a -> true | epoch 7 [2, 2, 1, 2] | a:1 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    update_representative r (remote) -> false | epoch 7 [2, 2, 1, 2] | a:1 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    update_representative nobody -> false | epoch 7 [2, 2, 1, 2] | a:1 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    refresh_representative a -> true | epoch 8 [3, 2, 1, 2] | a:2 b:0 r:0 g:0 l:0 d:0d | engines +0 bytes +0
    refresh_representative g (remote) -> true | epoch 9 [3, 2, 2, 2] | a:2 b:0 r:0 g:1 l:0 d:0d | engines +0 bytes +0
    refresh_representative r (down) -> false | epoch 9 [3, 2, 2, 2] | a:2 b:0 r:0s g:1 l:0 d:0d | engines +0 bytes +0
    refresh_representative d (detached) -> false | epoch 9 [3, 2, 2, 2] | a:2 b:0 r:0s g:1 l:0 d:0sd | engines +0 bytes +0
    refresh_representative nobody -> false | epoch 9 [3, 2, 2, 2] | a:2 b:0 r:0s g:1 l:0 d:0sd | engines +0 bytes +0
    replace_engine b -> true | epoch 10 [3, 3, 2, 2] | a:2 b:1s r:0s g:1 l:0 d:0sd | engines +0 bytes +0
    replace_engine r (remote) -> false | epoch 10 [3, 3, 2, 2] | a:2 b:1s r:0s g:1 l:0 d:0sd | engines +0 bytes +0
    refresh_if_stale (r down) -> [\"b\"] | epoch 11 [3, 4, 2, 2] | a:2 b:2 r:0s g:1 l:0 d:0sd | engines +0 bytes +64
    refresh_if_stale (r up) -> [\"r\"] | epoch 12 [3, 5, 2, 2] | a:2 b:2 r:1 g:1 l:0 d:0sd | engines +0 bytes +0
    refresh_if_stale (idle) -> [] | epoch 12 [3, 5, 2, 2] | a:2 b:2 r:1 g:1 l:0 d:0sd | engines +0 bytes +0
    apply_invalidation r same -> Ok(true) | epoch 12 [3, 5, 2, 2] | a:2 b:2 r:1 g:1 l:0 d:0sd | engines +0 bytes +0
    apply_invalidation r new -> Ok(true) | epoch 13 [3, 6, 2, 2] | a:2 b:2 r:2 g:1 l:0 d:0sd | engines +0 bytes +32
    apply_invalidation r newer (down) -> Err(Refused) | epoch 13 [3, 6, 2, 2] | a:2 b:2 r:2s g:1 l:0 d:0sd | engines +0 bytes +0
    apply_invalidation nobody -> Ok(false) | epoch 13 [3, 6, 2, 2] | a:2 b:2 r:2s g:1 l:0 d:0sd | engines +0 bytes +0
    refresh_if_stale (r back) -> [\"r\"] | epoch 14 [3, 7, 2, 2] | a:2 b:2 r:3 g:1 l:0 d:0sd | engines +0 bytes +0
    deregister l -> true | epoch 15 [3, 7, 2, 3] | a:2 b:2 r:3 g:1 d:0sd | engines -1 bytes -200
    deregister nobody -> false | epoch 15 [3, 7, 2, 3] | a:2 b:2 r:3 g:1 d:0sd | engines +0 bytes +0
    snapshot_registry -> 5 entries, next_seq 6 | epoch 15 [3, 7, 2, 3] | a:2 b:2 r:3 g:1 d:0sd | engines +0 bytes +0
    restore -> Ok(5) | epoch 13 [3, 7, 2, 1] | a:2d b:2d r:3d g:1d d:0d | engines +5 bytes +1128
    hydrate -> 5 | epoch 13 [3, 7, 2, 1] | a:2d b:2d r:3d g:1d d:0d | engines +0 bytes +0
    hydrate again -> 0 | epoch 13 [3, 7, 2, 1] | a:2d b:2d r:3d g:1d d:0d | engines +0 bytes +0
    attach_engine a same -> true | epoch 14 [4, 7, 2, 1] | a:3 b:2d r:3d g:1d d:0d | engines +0 bytes +0
    attach_engine b differing -> true | epoch 15 [4, 8, 2, 1] | a:3 b:3 r:3d g:1d d:0d | engines +0 bytes -64
    attach_engine a (attached) -> false | epoch 15 [4, 8, 2, 1] | a:3 b:3 r:3d g:1d d:0d | engines +0 bytes +0
    attach_remote r same -> Ok(true) | epoch 16 [4, 9, 2, 1] | a:3 b:3 r:4 g:1d d:0d | engines +0 bytes +0
    attach_remote d differing -> Ok(true) | epoch 17 [4, 9, 2, 2] | a:3 b:3 r:4 g:1d d:1 | engines +0 bytes +96
    attach_remote g (down) -> Err(Refused) | epoch 17 [4, 9, 2, 2] | a:3 b:3 r:4 g:1d d:1 | engines +0 bytes +0
    attach_remote g inconsistent -> Err(Protocol) | epoch 18 [4, 9, 3, 2] | a:3 b:3 r:4 g:2s d:1 | engines +0 bytes +0
    attach_remote d (attached) -> Ok(false) | epoch 18 [4, 9, 3, 2] | a:3 b:3 r:4 g:2s d:1 | engines +0 bytes +0
    refresh_if_stale (g up) -> [\"g\"] | epoch 19 [4, 9, 4, 2] | a:3 b:3 r:4 g:3 d:1 | engines +0 bytes -32
    deregister a -> true | epoch 20 [5, 9, 4, 2] | b:3 r:4 g:3 d:1 | engines -1 bytes -232
    restore (second) -> Ok(5) | epoch 13 [3, 7, 2, 1] | a:2d b:2d r:3d g:1d d:0d | engines +5 bytes +1128
    deregister b (cold) -> true | epoch 14 [3, 8, 2, 1] | a:2d r:3d g:1d d:0d | engines -1 bytes -264
    apply_invalidation r same (cold) -> Ok(true) | epoch 14 [3, 8, 2, 1] | a:2d r:3d g:1d d:0d | engines +0 bytes +0
    hydrate (after removal) -> 4 | epoch 14 [3, 8, 2, 1] | a:2d r:3d g:1d d:0d | engines +0 bytes +0
    drop third broker | epoch 20 [5, 9, 4, 2] | b:3 r:4 g:3 d:1 | engines -4 bytes -864
    drop second broker | epoch 15 [3, 7, 2, 3] | a:2 b:2 r:3 g:1 d:0sd | engines -4 bytes -896
    drop first broker | engines -5 bytes -1128";
