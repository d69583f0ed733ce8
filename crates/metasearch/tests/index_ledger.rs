//! The index ledger: the registry keeps, per shard, postings from
//! broker-global term ids to the entries that hold them, and keeps them
//! *incrementally* — `insert`, `remove`, `load`, and the booking behind
//! every `update` post, unpost or shift exactly what one lifecycle step
//! changed. After each step of a script over every lifecycle entry point
//! and outcome (the `epoch_ledger.rs` script, with the steps that matter
//! to postings added), [`Broker::audit_postings`] must find the live
//! postings and analyzer-configuration sets equal to a from-scratch
//! rebuild from the entries, at 1 and at 4 shards. A property test then
//! drives random operation sequences through a flat and a sharded broker
//! in lockstep: both audits hold after every operation and the two
//! brokers never stop agreeing, bit for bit.

use proptest::prelude::*;
use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    Broker, EngineRecord, RemoteHit, RemoteTransport, Representative, TransportError,
    TransportErrorKind,
};
use seu_text::{Analyzer, AnalyzerConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The record an engine ships.
fn record_of(name: &str, engine: &SearchEngine) -> EngineRecord {
    EngineRecord::of_engine(name, engine, Representative::build(engine.collection()))
}

fn engine_with(stem: bool, docs: &[&str]) -> SearchEngine {
    let config = AnalyzerConfig {
        remove_stopwords: true,
        stem,
    };
    let mut b = CollectionBuilder::new(Analyzer::new(config), WeightingScheme::CosineTf);
    for (i, d) in docs.iter().enumerate() {
        b.add_document(&format!("d{i}"), d);
    }
    SearchEngine::new(b.build())
}

fn engine_of(docs: &[&str]) -> SearchEngine {
    engine_with(false, docs)
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
    name: String,
    line: Mutex<Line>,
}

impl Wire {
    fn new(name: &str, line: Line) -> Arc<Wire> {
        Arc::new(Wire {
            name: name.to_string(),
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

    fn fetch_snapshot(&self) -> Result<Arc<EngineRecord>, TransportError> {
        match &*self.line.lock().unwrap() {
            Line::Up(engine) => Ok(Arc::new(record_of(&self.name, engine))),
            Line::Down => Err(TransportError::new(
                TransportErrorKind::Refused,
                format!("{} is down", self.name),
            )),
            Line::Garbled(engine) => {
                let mut snapshot = record_of(&self.name, engine);
                snapshot.doc_freq = snapshot.doc_freq.iter().copied().chain([7]).collect();
                Ok(Arc::new(snapshot))
            }
        }
    }
}

type TestBroker = Broker<SubrangeEstimator>;

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("seu-index-ledger-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_broker(dir: &Path, shards: usize) -> TestBroker {
    Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .store(dir)
        .expect("open store")
        .build()
}

/// Books one step: the postings must equal their from-scratch rebuild,
/// and a plan must still cover every entry.
fn book(step: &str, b: &TestBroker) {
    if let Err(why) = b.audit_postings() {
        panic!("after {step:?}: {why}");
    }
    assert_eq!(
        b.estimate_all("index soup gradient socket", 0.1).len(),
        b.len(),
        "after {step:?}"
    );
}

/// Every estimate of `b` for the probe queries, as bits.
fn estimate_bits(b: &TestBroker) -> Vec<(String, u64, u64)> {
    let mut bits = Vec::new();
    for query in [
        "index soup",
        "gradient network socket frame",
        "walks forest",
    ] {
        for e in b.estimate_all(query, 0.1) {
            bits.push((
                e.engine,
                e.usefulness.no_doc.to_bits(),
                e.usefulness.avg_sim.to_bits(),
            ));
        }
    }
    bits
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
const S1: &[&str] = &["indexes scanning tables", "walks in forests"];
const S2: &[&str] = &["indexes scanning", "tables", "walks in forests"];

/// The script. Every lifecycle entry point, every outcome.
fn run(shards: usize) {
    let dir = tmp_dir(&format!("script-{shards}"));
    let r_wire = Wire::new("r", Line::Up(engine_of(R1)));
    let g_wire = Wire::new("g", Line::Up(engine_of(G1)));

    // --- registration -------------------------------------------------
    let b = store_broker(&dir, shards);
    book("build", &b);
    b.register("a", engine_of(A1));
    book("register a", &b);
    b.register("b", engine_of(B1));
    book("register b", &b);
    b.register("s", engine_with(true, S1));
    book("register s (another analyzer configuration)", &b);
    assert_eq!(b.register_remote(r_wire.clone()).as_deref(), Ok("r"));
    book("register_remote r", &b);
    assert_eq!(b.register_remote(g_wire.clone()).as_deref(), Ok("g"));
    book("register_remote g", &b);
    let l_engine = Arc::new(engine_of(L1));
    let snapshot = Arc::new(record_of("l", &l_engine));
    assert!(b.install_snapshot(snapshot, Some(l_engine), None).is_ok());
    book("install_snapshot l live", &b);
    let snapshot = Arc::new(record_of("d", &engine_of(D1)));
    let endpoint = Some("wire://d".to_string());
    assert!(b.install_snapshot(snapshot, None, endpoint).is_ok());
    book("install_snapshot d detached", &b);
    let mut bad = record_of("x", &engine_of(D1));
    bad.doc_freq = bad.doc_freq[1..].into();
    assert!(b.install_snapshot(Arc::new(bad), None, None).is_err());
    book("install_snapshot x inconsistent", &b);
    r_wire.set(Line::Down);
    assert!(b.register_remote(Wire::new("y", Line::Down)).is_err());
    book("register_remote y down", &b);

    // --- representative refreshes ---------------------------------------
    assert!(b.refresh_representative("a"));
    book("refresh_representative a", &b);
    assert!(b.refresh_representative("a"));
    book("refresh_representative a", &b);
    assert!(b.refresh_representative("g"));
    book("refresh_representative g (remote)", &b);
    assert!(!b.refresh_representative("r"));
    book("refresh_representative r (down)", &b);
    assert!(!b.refresh_representative("d"));
    book("refresh_representative d (detached)", &b);

    // --- replacement and sweeps ---------------------------------------
    assert!(b.replace_engine("b", engine_of(B2)));
    book("replace_engine b", &b);
    assert!(b.replace_engine("s", engine_of(S2)));
    book("replace_engine s (to another analyzer configuration)", &b);
    assert!(!b.replace_engine("r", engine_of(B2)));
    book("replace_engine r (remote)", &b);
    assert_eq!(b.refresh_if_stale(), ["b", "s"]);
    book("refresh_if_stale (r down)", &b);
    r_wire.set(Line::Up(engine_of(R1)));
    assert_eq!(b.refresh_if_stale(), ["r"]);
    book("refresh_if_stale (r up)", &b);
    assert!(b.refresh_if_stale().is_empty());
    book("refresh_if_stale (idle)", &b);

    // --- push invalidation --------------------------------------------
    assert_eq!(
        b.apply_invalidation("r", engine_of(R1).fingerprint()),
        Ok(true)
    );
    book("apply_invalidation r same", &b);
    r_wire.set(Line::Up(engine_of(R2)));
    assert_eq!(
        b.apply_invalidation("r", engine_of(R2).fingerprint()),
        Ok(true)
    );
    book("apply_invalidation r new", &b);
    r_wire.set(Line::Down);
    assert!(b
        .apply_invalidation("r", engine_of(R3).fingerprint())
        .is_err());
    book("apply_invalidation r newer (down)", &b);
    r_wire.set(Line::Up(engine_of(R2)));
    assert_eq!(b.refresh_if_stale(), ["r"]);
    book("refresh_if_stale (r back)", &b);

    // --- removal (a middle entry), snapshot ----------------------------
    assert!(b.deregister("l"));
    book("deregister l", &b);
    assert!(!b.deregister("nobody"));
    book("deregister nobody", &b);
    b.snapshot_registry().expect("snapshot");
    book("snapshot_registry", &b);

    // --- restore, hydrate, attach --------------------------------------
    let c = store_broker(&dir, shards);
    assert_eq!(c.restore().expect("restore"), 6);
    assert!(c.audit_postings().is_ok(), "restore (cold)");
    assert_eq!(c.hydrate(), 6);
    book("hydrate", &c);
    assert_eq!(c.hydrate(), 0);
    book("hydrate again", &c);
    assert_eq!(estimate_bits(&c), estimate_bits(&b), "restored == live");
    assert!(c.attach_engine("a", engine_of(A1)));
    book("attach_engine a same", &c);
    assert!(c.attach_engine("b", engine_of(B1)));
    book("attach_engine b differing", &c);
    assert!(!c.attach_engine("a", engine_of(A1)));
    book("attach_engine a (attached)", &c);
    assert_eq!(c.attach_remote(r_wire.clone()), Ok(true));
    book("attach_remote r same", &c);
    let d_wire = Wire::new("d", Line::Up(engine_of(D2)));
    assert_eq!(c.attach_remote(d_wire.clone()), Ok(true));
    book("attach_remote d differing", &c);
    g_wire.set(Line::Down);
    assert!(c.attach_remote(g_wire.clone()).is_err());
    book("attach_remote g (down)", &c);
    g_wire.set(Line::Garbled(engine_of(G2)));
    assert!(c.attach_remote(g_wire.clone()).is_err());
    book("attach_remote g inconsistent", &c);
    assert_eq!(c.attach_remote(d_wire), Ok(false));
    book("attach_remote d (attached)", &c);
    g_wire.set(Line::Up(engine_of(G2)));
    assert_eq!(c.refresh_if_stale(), ["g"]);
    book("refresh_if_stale (g up)", &c);
    // The first entry, then the last.
    assert!(c.deregister("a"));
    book("deregister a (first)", &c);
    assert!(c.deregister("d"));
    book("deregister d (last)", &c);
    c.register("a", engine_of(A1));
    book("register a again", &c);

    // --- removal from a cold registry ----------------------------------
    let e = store_broker(&dir, shards);
    assert_eq!(e.restore().expect("restore"), 6);
    assert!(e.deregister("b"));
    assert!(e.audit_postings().is_ok(), "deregister b (cold)");
    assert_eq!(
        e.apply_invalidation("r", engine_of(R2).fingerprint()),
        Ok(true)
    );
    assert!(e.audit_postings().is_ok(), "apply_invalidation r (cold)");
    assert_eq!(e.hydrate(), 5);
    book("hydrate (after removal)", &e);

    drop((b, c, e));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_lifecycle_path_keeps_the_postings_current() {
    run(1);
    run(4);
}

const NAMES: [&str; 6] = ["n0", "n1", "n2", "n3", "n4", "n5"];
const CONTENTS: [&[&str]; 6] = [A1, B1, B2, R2, S1, D2];

/// Content `i`; the odd ones are stemmed, so configurations mix.
fn content(i: usize) -> SearchEngine {
    engine_with(i % 2 == 1, CONTENTS[i])
}

/// A broker under random operations, and the wires of its remote
/// engines.
struct Driven {
    dir: PathBuf,
    shards: usize,
    broker: TestBroker,
    wires: HashMap<&'static str, Arc<Wire>>,
}

impl Driven {
    fn new(shards: usize) -> Driven {
        let dir = tmp_dir(&format!("random-{shards}"));
        Driven {
            broker: store_broker(&dir, shards),
            dir,
            shards,
            wires: HashMap::new(),
        }
    }

    fn wire(&mut self, name: &'static str, what: usize) -> Arc<Wire> {
        let wire = self
            .wires
            .entry(name)
            .or_insert_with(|| Wire::new(name, Line::Down));
        wire.set(Line::Up(content(what)));
        wire.clone()
    }

    /// Applies operation `op` to engine `who` with content `what`;
    /// refusals (unknown name, wrong kind of entry, line down) are
    /// outcomes like any other.
    fn apply(&mut self, op: usize, who: usize, what: usize) {
        let name = NAMES[who];
        let known = self.broker.is_stale(name).is_some();
        let b = &self.broker;
        match op {
            0 if !known => b.register(name, content(what)),
            1 if !known => {
                let wire = self.wire(name, what);
                let _ = self.broker.register_remote(wire);
            }
            2 if !known => {
                let engine = Arc::new(content(what));
                let snapshot = Arc::new(record_of(name, &engine));
                let live = what < 3;
                let _ = b.install_snapshot(snapshot, live.then_some(engine), None);
            }
            3 => {
                b.deregister(name);
            }
            4 => {
                b.replace_engine(name, content(what));
            }
            5 => {
                b.refresh_representative(name);
            }
            6 => {
                // A local engine re-indexed and refreshed in one go.
                b.replace_engine(name, content(what));
                b.refresh_representative(name);
            }
            7 => {
                b.refresh_if_stale();
            }
            8 => {
                let fingerprint = content(what).fingerprint();
                self.wire(name, what);
                let _ = self.broker.apply_invalidation(name, fingerprint);
            }
            9 => {
                if let Some(wire) = self.wires.get(name) {
                    wire.set(Line::Down);
                }
            }
            10 => {
                b.snapshot_registry().expect("snapshot");
                let restored = store_broker(&self.dir, self.shards);
                restored.restore().expect("restore");
                self.broker = restored;
            }
            11 => {
                b.hydrate();
            }
            12 => {
                b.attach_engine(name, content(what));
            }
            13 => {
                let wire = self.wire(name, what);
                let _ = self.broker.attach_remote(wire);
            }
            _ => {}
        }
    }
}

impl Drop for Driven {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the operations and their order, the postings of a flat
    /// and of a 4-shard broker stay equal to their rebuilds, and the two
    /// brokers to each other.
    #[test]
    fn random_lifecycles_keep_the_postings_current(
        ops in prop::collection::vec((0usize..14, 0usize..6, 0usize..6), 1..40),
    ) {
        let (mut flat, mut sharded) = (Driven::new(1), Driven::new(4));
        for (step, &(op, who, what)) in ops.iter().enumerate() {
            flat.apply(op, who, what);
            sharded.apply(op, who, what);
            for driven in [&flat, &sharded] {
                let audit = driven.broker.audit_postings();
                prop_assert!(
                    audit.is_ok(),
                    "{} shard(s), step {step} {:?}: {audit:?}",
                    driven.shards,
                    (op, who, what)
                );
            }
            prop_assert_eq!(
                estimate_bits(&flat.broker),
                estimate_bits(&sharded.broker),
                "step {} {:?}",
                step,
                (op, who, what)
            );
        }
    }
}
