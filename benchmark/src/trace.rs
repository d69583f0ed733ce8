//! The traced run: per-layer numbers, from outside the product.
//!
//! Spans are recorded by this file around calls into each layer's public
//! functions, kept in memory, and written to `out/trace_<workload>.json`
//! when the run ends. Counts are deltas of the product's own `seu-obs`
//! registry around an untraced window of the workload's traffic.
//!
//! For every sampled request of the workload's stream the harness,
//! single-threaded, sends it through the HTTP door (`request`, the root
//! span, a real interval), makes the same call in process (`search`),
//! drives the two stages itself (`plan` = `Broker::plan`, `dispatch` =
//! `Broker::execute_plan`) and then calls what each stage calls, on the
//! same inputs (`analyze`, `estimate` → `expand`, `select`; `engine`,
//! `merge`). Spans below the root are *laid out*: a child starts where
//! its previous sibling ended inside its parent, keeps its measured
//! duration, and is cut at the parent's end — so a parent's self time
//! is its duration minus its children's, never negative. What is left
//! over is reported as the `*_unattributed_*` and `http.overhead_*`
//! metrics: the reconciliation of layers against end to end.

use crate::deploy::{deploy, Door, Fixture, SetupTimes, SeuBroker, Workload};
use crate::inputs::THRESHOLD;
use crate::report::{Values, PER_LAYER};
use crate::run::{traffic_and_writes, Ready};
use crate::stats::{median, percentile};
use crate::{http, sys};
use seu_core::{SubrangeEstimator, UsefulnessEstimator};
use seu_engine::SearchEngine;
use seu_metasearch::{
    merge_results, Broker, CacheMode, CacheTier, EngineSource, FrontDoor, FrontDoorConfig,
    LocalReplica, MergedHit, RemoteTransport, ReplicaClient,
};
use seu_net::frame::{encode_frame_into, parse_frame, MAX_FRAME_BYTES};
use seu_net::wire::Message;
use seu_net::{EngineServer, RemoteEngine, RemoteReplica, ReplicaServer};
use seu_obs::Snapshot;
use seu_poly::SparsePoly;
use seu_repr::Representative;
use seu_store::ReprStore;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests the traced pass samples (fewer if `--seconds` runs out).
const SAMPLES: usize = 300;
/// The traced pass never stops before this many.
const MIN_SAMPLES: usize = 40;
/// The auxiliary fixtures (router, cache and store probes on workloads
/// whose own deployment has no such layer) hold every this-many-th of
/// the workload's first [`AUX_SPAN`] databases: large and small ones.
const AUX_STEP: usize = 4;
const AUX_SPAN: usize = 53;
/// Engines named in a replica-RPC probe.
const REPLICA_SUBSET: usize = 64;
/// Records fetched by the store probe.
const STORE_GETS: usize = 256;
/// Zero-traffic window for `net.idle_cpu_ms_per_s`.
const IDLE_WINDOW: Duration = Duration::from_secs(2);

/// What the traced run measured.
pub struct Traced {
    pub attempted: usize,
    pub failed: usize,
    pub values: Values,
    pub detail: BTreeMap<&'static str, Vec<f64>>,
}

/// Runs `f`, returning its result and how long it took in microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// One recorded span. `cursor_ns` is where its next child will start.
struct Span {
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    cursor_ns: u64,
}

/// The in-memory span store.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a root span over a real interval; returns its id.
    fn root(&mut self, trace: u64, name: &'static str, start: Instant, end: Instant) -> u64 {
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        self.push(trace, 0, name, start_ns, end_ns)
    }

    /// Lays a child of measured duration `us` out inside `parent`.
    fn child(&mut self, parent: u64, name: &'static str, us: f64) -> u64 {
        let p = &mut self.spans[parent as usize - 1];
        let start_ns = p.cursor_ns;
        let end_ns = (start_ns + (us * 1e3) as u64).min(p.end_ns);
        p.cursor_ns = end_ns;
        let trace = p.trace;
        self.push(trace, parent, name, start_ns, end_ns)
    }

    fn push(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let span = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            trace,
            span,
            parent,
            name,
            start_ns,
            end_ns,
            cursor_ns: start_ns,
        });
        span
    }

    /// Whether every span's children fit inside it.
    fn children_fit(&self) -> bool {
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            *covered.entry(s.parent).or_insert(0) += s.end_ns - s.start_ns;
        }
        self.spans
            .iter()
            .all(|s| covered.get(&s.span).copied().unwrap_or(0) <= s.end_ns - s.start_ns)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"trace\": {}, \"span\": {}, \"parent\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                if i > 0 { ",\n" } else { "" },
                s.trace,
                s.span,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Per-sample series by metric name; a metric's value is its median.
#[derive(Default)]
struct Series(BTreeMap<&'static str, Vec<f64>>);

impl Series {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

fn gauge(snap: &Snapshot, name: &str) -> f64 {
    snap.gauges.get(name).copied().unwrap_or(0.0)
}

/// The median, in microseconds, of what a seconds histogram observed
/// between two snapshots (interpolated inside the bucket that holds it).
fn histogram_p50_us(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    let Some(after) = after.histograms.get(name) else {
        return 0.0;
    };
    let before: &[(Option<f64>, u64)] = before
        .histograms
        .get(name)
        .map_or(&[], |h| h.buckets.as_slice());
    let delta: Vec<(Option<f64>, u64)> = after
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &(bound, n))| (bound, n - before.get(i).map_or(0, |b| b.1)))
        .collect();
    let total: u64 = delta.iter().map(|d| d.1).sum();
    if total == 0 {
        return 0.0;
    }
    let target = total as f64 / 2.0;
    let mut below = 0u64;
    let mut lower = 0.0;
    for (bound, n) in delta {
        let upper = bound.unwrap_or(after.max.max(lower));
        if n > 0 && (below + n) as f64 >= target {
            return (lower + (upper - lower) * (target - below as f64) / n as f64) * 1e6;
        }
        below += n;
        lower = upper;
    }
    after.max * 1e6
}

/// A broker plus what the harness holds about its engines, so it can
/// call the estimator and the engines exactly as the broker's stages do.
struct Probed {
    broker: Arc<SeuBroker>,
    /// Benchmark-held representative per engine name, built as
    /// `Broker::register` builds it.
    reprs: BTreeMap<String, Representative>,
    estimator: SubrangeEstimator,
    /// A client per engine server, for brokers whose engines are remote
    /// (`remote_federated`); empty otherwise.
    remote: BTreeMap<String, RemoteEngine>,
}

/// The auxiliary deployments that give every workload every layer.
struct Aux {
    /// Flat broker with the default query cache (cache probe; with
    /// `CacheMode::Bypass` the router probe's flat reference).
    flat: SeuBroker,
    /// Front-door over two in-process replicas of the same engines.
    router: FrontDoor,
    /// One engine behind a loopback server, and the same engine in
    /// process.
    rpc_engine: Arc<SearchEngine>,
    rpc_client: RemoteEngine,
    _rpc_server: Option<EngineServer>,
    /// A replica endpoint and the engines to ask it about.
    replica_client: RemoteReplica,
    replica_engines: Vec<String>,
    _replica_server: Option<ReplicaServer>,
}

/// Sends one frame's worth of `message` through the codec both ways;
/// returns `(encode_us, decode_us)`.
fn wire_round_trip(message: &Message) -> (f64, f64) {
    let mut buf = Vec::new();
    let ((), encode_us) = timed(|| {
        let (kind, payload) = message.encode();
        encode_frame_into(&mut buf, 1, kind, &payload);
    });
    let (decoded, decode_us) = timed(|| {
        let (frame, _) = parse_frame(&buf, MAX_FRAME_BYTES)
            .expect("own frame parses")
            .expect("own frame is complete");
        Message::decode(frame.kind, &frame.payload)
    });
    decoded.expect("own message decodes");
    (encode_us, decode_us)
}

/// What [`store_probe`] measures on a store that holds a snapshot.
struct StoreProbe {
    hydrate_s: f64,
    get_us_p50: f64,
    decode_us_p50: f64,
    bytes_on_disk_per_engine: f64,
    hot_hit_share: f64,
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Measures the store layer on `store_fx` (a `registry_10k`-shaped
/// fixture whose store directory already holds a committed snapshot).
fn store_probe(store_fx: &Fixture) -> StoreProbe {
    let dir = store_fx.store_dir.as_ref().expect("store fixture");
    // Eager hydration of a freshly restored broker.
    let broker = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .cache_bytes(0)
        .store(dir)
        .expect("opening the store")
        .build();
    broker.restore().expect("restoring for the hydrate probe");
    let (hydrated, hydrate_us) = timed(|| broker.hydrate());
    assert_eq!(hydrated, store_fx.collections.len(), "hydrate lost engines");
    drop(broker);
    // Direct reads through a freshly opened tier stack: every first get
    // is a cold read (segment read, CRC, decode).
    let store = seu_store::open_tiered(dir, 64 << 20).expect("opening the tier stack");
    let hot = |snap: &Snapshot| {
        (
            counter(snap, "broker_store_hot_hits_total"),
            counter(snap, "broker_store_hot_misses_total"),
        )
    };
    let before = hot(&seu_obs::global().snapshot());
    let mut get_us = Vec::new();
    let mut decode_us = Vec::new();
    for (_, collection) in store_fx.collections.iter().take(STORE_GETS) {
        let (record, us) = timed(|| store.get(collection.fingerprint()));
        let record = record.expect("store read").expect("stored record");
        get_us.push(us);
        let bytes = seu_store::codec::encode_record(&record);
        let (decoded, us) = timed(|| seu_store::codec::decode_record(&bytes));
        decoded.expect("own record decodes");
        decode_us.push(us);
    }
    // A second read of the same keys: served by the hot tier as far as
    // its byte budget held them.
    for (_, collection) in store_fx.collections.iter().take(STORE_GETS) {
        black_box(store.get(collection.fingerprint()).expect("store read"));
    }
    let after = hot(&seu_obs::global().snapshot());
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    StoreProbe {
        hydrate_s: hydrate_us * 1e-6,
        get_us_p50: median(&get_us),
        decode_us_p50: median(&decode_us),
        bytes_on_disk_per_engine: dir_bytes(dir) as f64 / store_fx.collections.len() as f64,
        hot_hit_share: hits / (hits + misses).max(1.0),
    }
}

/// Runs the traced pass on a checked deployment.
pub fn run(ready: &Ready, seconds: f64) -> Traced {
    let Ready {
        fx,
        deployment,
        setups,
        cold_boot_s,
        control,
        ..
    } = ready;
    let door = &deployment.door;
    let mut series = Series::default();
    let mut values = Values::new();
    let mut detail: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();

    // --- The workload's servers, idle. -------------------------------
    let (cpu0, t0) = (sys::process_cpu_seconds(), Instant::now());
    std::thread::sleep(IDLE_WINDOW);
    values.insert(
        "net.idle_cpu_ms_per_s",
        (sys::process_cpu_seconds() - cpu0) * 1e3 / t0.elapsed().as_secs_f64(),
    );

    // --- Counts: the product's registry around untraced traffic. -----
    let before = seu_obs::global().snapshot();
    let epoch_before = door.epoch();
    let (window, write_ms, _writer) = traffic_and_writes(fx, deployment, seconds / 3.0, 1);
    let after = seu_obs::global().snapshot();
    let sent =
        counter(&after, "net_http_requests_total") - counter(&before, "net_http_requests_total");
    let per_req = |name: &str| (counter(&after, name) - counter(&before, name)) / sent.max(1.0);
    let total = |name: &str| counter(&after, name) - counter(&before, name);
    values.insert("http.requests", sent);
    values.insert(
        "http.response_bytes_p50",
        percentile(&window.reply_bytes, 0.5),
    );
    values.insert(
        "http.latency_p99_ms",
        percentile(&window.latencies_ms(), 0.99),
    );
    values.insert(
        "broker.engines_considered_per_req",
        per_req("broker_engines_considered_total"),
    );
    values.insert(
        "broker.engines_selected_per_req",
        per_req("broker_engines_selected_total"),
    );
    values.insert("broker.stale_plans", total("broker_stale_plans_total"));
    values.insert(
        "poly.terms_raw_per_req",
        per_req("estimator_poly_terms_raw_total"),
    );
    values.insert(
        "poly.terms_expanded_per_req",
        per_req("estimator_poly_terms_expanded_total"),
    );
    values.insert(
        "poly.terms_pruned_per_req",
        per_req("estimator_poly_terms_pruned_total"),
    );
    values.insert("pool.jobs_per_req", per_req("broker_pool_jobs_total"));
    values.insert(
        "pool.queue_wait_us_p50",
        histogram_p50_us(&before, &after, "broker_pool_queue_wait_seconds"),
    );
    values.insert(
        "pool.job_us_p50",
        histogram_p50_us(&before, &after, "broker_pool_job_seconds"),
    );
    values.insert(
        "engine.postings_per_req",
        per_req("engine_postings_touched_total"),
    );
    values.insert(
        "engine.docs_scored_per_req",
        per_req("engine_docs_scored_total"),
    );
    values.insert("merge.hits_per_req", per_req("broker_merge_hits_total"));
    let lookups = total("broker_cache_hits_total") + total("broker_cache_misses_total");
    values.insert(
        "cache.hit_share",
        if lookups > 0.0 {
            total("broker_cache_hits_total") / lookups
        } else {
            0.0
        },
    );
    values.insert(
        "cache.stale_evictions",
        total("broker_cache_stale_evictions_total"),
    );
    values.insert(
        "cache.bytes_resident",
        gauge(&after, "broker_cache_bytes_resident"),
    );
    values.insert("wire.bytes_per_req", per_req("net_bytes_sent_total"));
    values.insert("wire.frames_per_req", per_req("net_frames_sent_total"));
    values.insert("net.client_connects", total("net_client_connects_total"));
    values.insert("net.client_retries", total("net_client_retries_total"));
    values.insert("net.client_timeouts", total("net_client_timeouts_total"));
    values.insert(
        "net.deadline_drops",
        total("net_server_request_deadline_drops_total"),
    );
    values.insert(
        "federation.replica_calls_per_req",
        per_req("federation_replica_calls_total"),
    );
    values.insert("federation.failovers", total("federation_failovers_total"));
    values.insert(
        "federation.replica_failures",
        total("federation_replica_failures_total"),
    );
    values.insert(
        "repr.bytes_resident_per_engine",
        gauge(&after, "broker_representative_bytes_resident")
            / gauge(&after, "broker_registry_engines").max(1.0),
    );
    values.insert("registry.epoch_bumps", (door.epoch() - epoch_before) as f64);
    values.insert("registry.write_ms_p50", percentile(&write_ms, 0.5));
    values.insert("registry.replace_ms_p95", percentile(&write_ms, 0.95));

    // --- What the harness holds to call the layers directly. ---------
    // Index and representative builds are timed here, on every engine
    // of the workload, as set-up performs them.
    let mut reprs = BTreeMap::new();
    for (name, collection) in &fx.collections {
        let (repr, us) = timed(|| Representative::build(collection));
        series.push("repr.build_ms_per_engine_p50", us * 1e-3);
        reprs.insert(name.clone(), repr);
    }
    let aux_collections: Vec<_> = fx
        .collections
        .iter()
        .take(AUX_SPAN)
        .step_by(AUX_STEP)
        .cloned()
        .collect();
    let aux_engines: Vec<(String, Arc<SearchEngine>)> = aux_collections
        .iter()
        .map(|(name, collection)| {
            let (engine, us) = timed(|| SearchEngine::new(collection.clone()));
            series.push("engine.index_build_ms_p50", us * 1e-3);
            (name.clone(), Arc::new(engine))
        })
        .collect();
    let flat = Broker::new(SubrangeEstimator::paper_six_subrange());
    for (name, engine) in &aux_engines {
        let ((), us) = timed(|| flat.register_shared(name, engine.clone()));
        series.push("registry.register_ms_p50", us * 1e-3);
    }
    let router = FrontDoor::new(FrontDoorConfig::default());
    let replica_brokers: Vec<Arc<SeuBroker>> = (0..2)
        .map(|i| {
            let broker = Arc::new(
                Broker::builder(SubrangeEstimator::paper_six_subrange())
                    .cache_bytes(0)
                    .build(),
            );
            router.add_replica(
                &format!("aux-{i}"),
                Arc::new(LocalReplica::new(broker.clone())),
            );
            broker
        })
        .collect();
    for (name, engine) in &aux_engines {
        router
            .register_engine(name, EngineSource::Local(engine.clone()))
            .expect("placing an auxiliary engine");
    }
    // The broker whose stages are probed: the door itself, or for the
    // front-door the flat control broker over the same engine servers
    // (what each replica computes and dispatches).
    let probed = Probed {
        broker: match door {
            Door::Broker(b) => b.clone(),
            Door::Federated(_) => control
                .clone()
                .expect("remote_federated has a control broker"),
        },
        reprs,
        estimator: SubrangeEstimator::paper_six_subrange(),
        remote: match door {
            Door::Broker(_) => BTreeMap::new(),
            Door::Federated(cluster) => cluster
                .engines
                .iter()
                .map(|server| {
                    let client = RemoteEngine::new(server.addr()).expect("resolving loopback");
                    (server.name().to_string(), client)
                })
                .collect(),
        },
    };
    let aux = match door {
        // The cluster's own engine server and replica are the RPC
        // targets.
        Door::Federated(cluster) => {
            let replica = &cluster.replicas[0];
            let replica_engines: Vec<String> = cluster
                .front_door
                .placements()
                .into_iter()
                .filter(|(_, holders)| holders.first().map(String::as_str) == Some(replica.id()))
                .map(|(name, _)| name)
                .collect();
            Aux {
                flat,
                router,
                rpc_engine: aux_engines[0].1.clone(),
                rpc_client: RemoteEngine::new(cluster.engines[0].addr())
                    .expect("resolving loopback"),
                _rpc_server: None,
                replica_client: RemoteReplica::new(replica.addr()).expect("resolving a replica"),
                replica_engines,
                _replica_server: None,
            }
        }
        Door::Broker(_) => {
            let (name, collection) = &fx.collections[0];
            let rpc_server = EngineServer::bind(
                name.as_str(),
                SearchEngine::new(collection.clone()),
                "127.0.0.1:0",
            )
            .expect("binding the probe engine server");
            let replica_server =
                ReplicaServer::bind("probe-replica", replica_brokers[0].clone(), "127.0.0.1:0")
                    .expect("binding the probe replica server");
            Aux {
                flat,
                router,
                rpc_engine: aux_engines[0].1.clone(),
                rpc_client: RemoteEngine::new(rpc_server.addr()).expect("resolving loopback"),
                _rpc_server: Some(rpc_server),
                replica_client: RemoteReplica::new(replica_server.addr())
                    .expect("resolving a replica"),
                replica_engines: replica_brokers[0]
                    .engine_names()
                    .into_iter()
                    .take(REPLICA_SUBSET)
                    .collect(),
                _replica_server: Some(replica_server),
            }
        }
    };

    // --- The store layer. --------------------------------------------
    // (cold boot, restore, attach) seconds, then eager hydration and
    // direct reads of the store they left behind.
    let (boot, store) = if fx.workload == Workload::Registry10k {
        let over_setups =
            |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        let boot = (
            cold_boot_s.expect("registry_10k cold-boots"),
            over_setups(|s| s.restore),
            over_setups(|s| s.attach),
        );
        (boot, store_probe(fx))
    } else {
        // The same cold boot, warm boot and reads, over the auxiliary
        // databases of this workload.
        let store_fx = Fixture {
            workload: Workload::Registry10k,
            seed: fx.seed,
            size: fx.size,
            collections: aux_collections.clone(),
            requests: Vec::new(),
            store_dir: Some(crate::out_dir().join(format!("store-aux-{}", std::process::id()))),
        };
        let (cold, rebuild_s) = store_fx.cold_boot();
        drop(cold);
        let (warm, times) = deploy(&store_fx);
        drop(warm);
        let probe = store_probe(&store_fx);
        let _ = std::fs::remove_dir_all(store_fx.store_dir.as_ref().expect("store fixture"));
        ((rebuild_s, times.restore, times.attach), probe)
    };
    values.insert("store.rebuild_s", boot.0);
    values.insert("store.restore_s", boot.1);
    values.insert("store.attach_s", boot.2);
    values.insert("store.hydrate_s", store.hydrate_s);
    values.insert("store.get_us_p50", store.get_us_p50);
    values.insert("store.codec_decode_us_p50", store.decode_us_p50);
    values.insert(
        "store.bytes_on_disk_per_engine",
        store.bytes_on_disk_per_engine,
    );
    values.insert("store.hot_hit_share", store.hot_hit_share);

    // --- The traced pass. --------------------------------------------
    // A cold workload bypasses the cache in process too; zipf_churn
    // reads it, as its HTTP requests do.
    let door_mode = if fx.workload == Workload::ZipfChurn {
        CacheMode::ReadWrite
    } else {
        CacheMode::Bypass
    };
    let mut recorder = Recorder::new();
    let mut untraced_ms = Vec::new();
    let mut failed = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 2.0 / 3.0);
    let mut samples = 0usize;
    while samples < SAMPLES && (samples < MIN_SAMPLES || Instant::now() < deadline) {
        let q = fx.request(samples);
        let body = http::search_body(q);
        let trace_id = samples as u64 + 1;
        samples += 1;

        // The same request with and without a span around it, in
        // alternating order, after one that warms what the probes of
        // the previous sample cooled: their difference is what tracing
        // costs.
        let _ = http::post_search(deployment.addr(), &body);
        let mut traced_interval = None;
        for traced_turn in [samples % 2 == 0, samples % 2 != 0] {
            let start = Instant::now();
            let reply = http::post_search(deployment.addr(), &body);
            let end = Instant::now();
            failed += usize::from(!reply.is_ok_and(|r| r.is_complete()));
            if traced_turn {
                traced_interval = Some((start, end));
            } else {
                untraced_ms.push(end.duration_since(start).as_secs_f64() * 1e3);
            }
        }
        let (start, end) = traced_interval.expect("one of the two turns is traced");
        let request_us = end.duration_since(start).as_secs_f64() * 1e6;
        let root = recorder.root(trace_id, "request", start, end);
        let untraced_us = untraced_ms.last().expect("the other turn is untraced") * 1e3;
        series.push("traced_minus_untraced_us", request_us - untraced_us);

        // search: the in-process equivalent of the HTTP call.
        let (resp, search_us) = timed(|| door.search(&fx.search_request(q).cache(door_mode)));
        let search = recorder.child(root, "search", search_us);
        series.push("http.overhead_us_p50", (request_us - search_us).max(0.0));
        let from_cache = resp.served_from == Some(CacheTier::Results);

        // plan and dispatch, driven by the harness.
        let cold_req = fx.search_request(q).cache(CacheMode::Bypass);
        let broker = &probed.broker;
        let (analysis, analyze_us) = timed(|| broker.analyze(q));
        drop(analysis);
        let (plan, plan_us) = timed(|| broker.plan(&cold_req, None));
        // estimate → expand: the estimator on the benchmark's own
        // representatives, one engine after another as the shard walk
        // does; expand is the generating-function product alone.
        let (mut estimate_us, mut expand_us) = (0.0, 0.0);
        for planned in plan.engines() {
            let repr = &probed.reprs[&planned.name];
            let (_, us) = timed(|| probed.estimator.estimate(repr, planned.query(), THRESHOLD));
            estimate_us += us;
            if planned.query().is_empty() {
                continue;
            }
            series.push("core.estimate_us_per_engine_p50", us);
            let factors: Vec<SparsePoly> = probed
                .estimator
                .factors(repr, planned.query())
                .into_iter()
                .map(SparsePoly::spike_factor)
                .collect();
            let (_, us) = timed(|| SparsePoly::product(&factors));
            series.push("poly.product_us_p50", us);
            expand_us += us;
        }
        let usefulness: Vec<_> = plan.engines().iter().map(|e| e.usefulness).collect();
        let (_, select_us) = timed(|| cold_req.policy.select(&usefulness));
        let (dispatched, dispatch_us) = timed(|| broker.execute_plan(&cold_req, &plan));
        failed += usize::from(!dispatched.is_ok_and(|r| r.is_complete()));
        // engine: every selected engine searched in turn (over the wire
        // where the broker's engines are remote); the dispatch pool
        // runs them side by side, so the stage's share is their sum
        // over the cores, or the slowest one if that is longer.
        let mut engine_us: Vec<f64> = Vec::new();
        let mut per_engine: Vec<Vec<MergedHit>> = Vec::new();
        for &i in &plan.selected {
            let planned = &plan.engines()[i];
            let name = &planned.name;
            let hit = |doc: String, sim: f64| MergedHit {
                engine: name.clone(),
                doc,
                sim,
            };
            let (hits, us) = if let Some(engine) = planned.engine() {
                let timing = timed(|| {
                    engine
                        .search_threshold(planned.query(), THRESHOLD)
                        .into_iter()
                        .map(|h| hit(engine.collection().doc(h.doc).name.clone(), h.sim))
                        .collect::<Vec<_>>()
                });
                series.push("engine.search_us_p50", timing.1);
                timing
            } else if let Some(client) = probed.remote.get(name) {
                let (reply, us) = timed(|| RemoteTransport::search(client, q, THRESHOLD, None));
                series.push("engine_rpc.us_p50", us);
                let hits = reply.map(|(hits, _)| hits).unwrap_or_else(|_| {
                    failed += 1;
                    Vec::new()
                });
                (hits.into_iter().map(|h| hit(h.doc, h.sim)).collect(), us)
            } else {
                continue;
            };
            engine_us.push(us);
            per_engine.push(hits);
        }
        let lanes = sys::nproc().min(engine_us.len().max(1)) as f64;
        let engine_stage_us = (engine_us.iter().sum::<f64>() / lanes)
            .max(engine_us.iter().copied().fold(0.0, f64::max));
        let (_, merge_us) = timed(|| merge_results(per_engine));

        series.push("text.analyze_us_p50", analyze_us);
        series.push("broker.plan_us_p50", plan_us);
        series.push("core.estimate_us_per_req_p50", estimate_us);
        series.push("selection.select_us_p50", select_us);
        series.push(
            "broker.plan_unattributed_us_p50",
            (plan_us - analyze_us - estimate_us - select_us).max(0.0),
        );
        series.push("broker.dispatch_us_p50", dispatch_us);
        series.push("merge.us_p50", merge_us);
        series.push(
            "broker.dispatch_unattributed_us_p50",
            (dispatch_us - engine_stage_us - merge_us).max(0.0),
        );

        // engine RPC: one engine over the wire and the same engine in
        // process; the codec alone on this request's messages.
        let (remote, rpc_us) =
            timed(|| RemoteTransport::search(&aux.rpc_client, q, THRESHOLD, None));
        let remote_hits = remote.map(|(hits, _)| hits).unwrap_or_else(|_| {
            failed += 1;
            Vec::new()
        });
        let (_, local_us) = timed(|| {
            let engine = &aux.rpc_engine;
            let query = engine.collection().query_from_text(q);
            engine
                .search_threshold(&query, THRESHOLD)
                .into_iter()
                .map(|h| (engine.collection().doc(h.doc).name.clone(), h.sim))
                .collect::<Vec<_>>()
        });
        if !probed.remote.is_empty() {
            // The broker's engines are remote: the one engine the
            // harness holds in process stands for them.
            series.push("engine.search_us_p50", local_us);
        }
        series.push("engine_rpc.us_p50", rpc_us);
        series.push("engine_rpc.overhead_us_p50", (rpc_us - local_us).max(0.0));
        // replica RPC: a subset estimate and a subset search.
        let (estimates, replica_estimate_us) = timed(|| {
            aux.replica_client
                .estimate_subset(q, THRESHOLD, &aux.replica_engines)
        });
        let (replica_results, replica_search_us) = timed(|| {
            aux.replica_client
                .search_subset(q, THRESHOLD, &aux.replica_engines)
        });
        failed += usize::from(estimates.is_err() || replica_results.is_err());
        series.push("replica_rpc.estimate_us_p50", replica_estimate_us);
        series.push("replica_rpc.search_us_p50", replica_search_us);

        let messages = [
            Message::SearchDocs {
                query: q.to_string(),
                threshold: THRESHOLD,
            },
            Message::SearchResults { hits: remote_hits },
            Message::ReplicaSearch {
                query: q.to_string(),
                threshold: THRESHOLD,
                engines: aux.replica_engines.clone(),
            },
            match &replica_results {
                Ok(r) => Message::ReplicaSearchResults {
                    hits: r.hits.clone(),
                    stats: r.stats.clone(),
                },
                Err(_) => Message::Pong,
            },
        ];
        let (mut encode_us, mut decode_us) = (0.0, 0.0);
        for message in &messages {
            let (e, d) = wire_round_trip(message);
            encode_us += e;
            decode_us += d;
        }
        series.push("wire.encode_us_p50", encode_us);
        series.push("wire.decode_us_p50", decode_us);

        // router: the front-door over in-process replicas against the
        // flat broker over the same engines, both cold.
        let (_, routed_us) = timed(|| aux.router.execute(&cold_req));
        let (_, flat_us) = timed(|| aux.flat.execute(&cold_req));
        series.push("router.overhead_us_p50", (routed_us - flat_us).max(0.0));

        // cache: a first execution (miss) and its repeat (hit).
        let warm_req = fx.search_request(q).cache(CacheMode::ReadWrite);
        for _ in 0..2 {
            let (resp, us) = timed(|| aux.flat.execute(&warm_req));
            if resp.served_from == Some(CacheTier::Results) {
                series.push("cache.hit_us_p50", us);
            } else {
                series.push("cache.miss_us_p50", us);
            }
        }

        // The span tree of this request. A reply served from the cache
        // planned and dispatched nothing.
        match door {
            Door::Broker(_) if !from_cache => {
                let plan_span = recorder.child(search, "plan", plan_us);
                recorder.child(plan_span, "analyze", analyze_us);
                let estimate_span = recorder.child(plan_span, "estimate", estimate_us);
                recorder.child(estimate_span, "expand", expand_us);
                recorder.child(plan_span, "select", select_us);
                let dispatch_span = recorder.child(search, "dispatch", dispatch_us);
                recorder.child(dispatch_span, "engine", engine_stage_us);
                recorder.child(dispatch_span, "merge", merge_us);
            }
            Door::Broker(_) => {}
            Door::Federated(_) => {
                // The front-door asks a replica to estimate (it plans)
                // and then to search (it dispatches to engine servers);
                // what is left of `search` is the router's own time.
                let estimate_rpc =
                    recorder.child(search, "replica_rpc.estimate", replica_estimate_us);
                let plan_span = recorder.child(estimate_rpc, "plan", plan_us);
                recorder.child(plan_span, "analyze", analyze_us);
                let estimate_span = recorder.child(plan_span, "estimate", estimate_us);
                recorder.child(estimate_span, "expand", expand_us);
                recorder.child(plan_span, "select", select_us);
                let search_rpc = recorder.child(search, "replica_rpc.search", replica_search_us);
                let dispatch_span = recorder.child(search_rpc, "dispatch", dispatch_us);
                let rpc = recorder.child(dispatch_span, "engine_rpc", engine_stage_us);
                recorder.child(rpc, "wire", encode_us + decode_us);
                recorder.child(dispatch_span, "merge", merge_us);
            }
        }
    }

    let untraced_p50 = median(&untraced_ms);
    values.insert(
        "trace.overhead_pct",
        // Paired: the same request, seconds apart, one turn with a span
        // around it. Alternating the order cancels "the second is
        // warmer"; the median of the differences ignores the odd stall.
        series.median("traced_minus_untraced_us") * 1e-3 / untraced_p50 * 100.0,
    );
    for m in PER_LAYER {
        if !values.contains_key(m.name) {
            values.insert(m.name, series.median(m.name));
        }
    }
    let trace_path = crate::out_dir().join(format!("trace_{}.json", fx.workload.name()));
    std::fs::write(&trace_path, recorder.to_json()).expect("writing the trace file");
    detail.insert("trace.samples", vec![samples as f64]);
    detail.insert("trace.spans", vec![recorder.spans.len() as f64]);
    detail.insert(
        "trace.children_fit",
        vec![f64::from(u8::from(recorder.children_fit()))],
    );
    detail.insert("window.slices", vec![window.slices.len() as f64]);
    detail.insert(
        "window.steal_share_per_slice",
        window.slices.iter().map(|s| s.steal_share).collect(),
    );
    detail.insert("untraced_latency_p50_ms", vec![untraced_p50]);
    if !recorder.children_fit() {
        failed += 1;
    }
    Traced {
        attempted: window.attempted + samples * 2,
        failed: window.failed + failed,
        values,
        detail,
    }
}
