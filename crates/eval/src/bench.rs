//! Machine-readable broker benchmark (`repro bench-broker`).
//!
//! Runs a full metasearch workload — build the 53 topic databases,
//! register them with a broker (which builds their representatives),
//! then estimate / select / search a slice of the SIFT-style query log —
//! and reports per-phase wall-clock alongside the observability
//! counters the run produced. The report serializes to the JSON file
//! `BENCH_broker.json` so dashboards and regression scripts can diff
//! runs without scraping stdout.
//!
//! With `--remote` (see [`run_broker_bench_remote`]) every database is
//! served by its own loopback [`seu_net::EngineServer`] and registered
//! over TCP, so the report additionally carries the `net_*` counter
//! deltas (frames, bytes, RPC retries/timeouts) and the phase timings
//! price in the full frame/handshake round trips — the cost of the
//! distributed deployment relative to the in-process one, same workload,
//! same seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use seu_core::SubrangeEstimator;
use seu_corpus::queries::QueryLogSpec;
use seu_corpus::SyntheticCorpus;
use seu_engine::SearchEngine;
use seu_metasearch::{Broker, SearchRequest, SelectionPolicy};
use seu_obs::json;

/// One timed phase of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPhase {
    /// Phase name (`build_databases`, `register`, `estimate`, `select`,
    /// `search`, `plan`, `dispatch`, with `engines > 0` the
    /// large-registry phases `large_build`, `large_register`,
    /// `large_plan`, `large_execute`, and with `store` the boot-time
    /// phases `store_setup`, `store_rebuild`, `store_restore`).
    pub name: &'static str,
    /// Wall-clock spent in the phase.
    pub seconds: f64,
    /// Work items processed (databases or queries).
    pub items: u64,
}

/// Configuration for [`run_broker_bench_config`]. The plain
/// [`run_broker_bench`] / [`run_broker_bench_remote`] entry points are
/// shorthands for the flat single-shard workload.
#[derive(Debug, Clone)]
pub struct BrokerBenchConfig {
    /// RNG seed for corpus and query-log generation.
    pub seed: u64,
    /// Database size scale, as in [`seu_corpus::many_databases`].
    pub docs_base: usize,
    /// Query-log slice driven through each query phase.
    pub n_queries: usize,
    /// Serve every database over loopback TCP instead of in process.
    pub remote: bool,
    /// Registry shard count for every broker the bench builds
    /// (1 = flat).
    pub shards: usize,
    /// When non-zero, a second broker is loaded with this many tiny
    /// engines and timed separately (`large_*` phases) — the 10k-engine
    /// registry scaling story.
    pub engines: usize,
    /// Measure tracing overhead: re-run the dispatch workload with
    /// sampling off (`dispatch_untraced`) and at the default 1-in-64
    /// rate (`dispatch_sampled`), reporting the percentage difference
    /// as `trace_overhead_pct`.
    pub trace_sample: bool,
    /// When set, run the Zipf-traffic cache phases: a seeded Zipf(s)
    /// stream over the query pool is executed twice on a dedicated
    /// cache-enabled broker — once forcing the cold path (`zipf_cold`,
    /// `CacheMode::Bypass`) and once through the cache (`zipf_cached`) —
    /// reporting `zipf_hit_rate` and `hot_query_speedup`.
    pub zipf: Option<f64>,
    /// Disable the query cache on the Zipf broker (the `--no-cache`
    /// baseline): the `zipf_cached` phase then runs cold too, so hit
    /// rate reads 0 and the speedup collapses to ~1.
    pub no_cache: bool,
    /// Remote-only concurrency axis: for each entry `n`, hammer one
    /// loopback engine server with `n` client threads sharing one
    /// pooled, multiplexing client (`mux_cN` phase) and report the
    /// throughput as a [`ConcurrencyPoint`]. Empty skips the axis.
    pub concurrency: Vec<usize>,
    /// When set, run the federation phases: every database goes behind
    /// its own loopback engine server, and the same workload is driven
    /// through two front-door clusters — one over a single broker
    /// replica, one over `replicas` — each replica a
    /// [`seu_net::ReplicaServer`] pinned to **one** worker, so cluster
    /// throughput models per-replica capacity rather than host cores.
    /// 256 concurrent clients hammer each cluster
    /// (`federated_single` / `federated_cluster` phases), reporting
    /// `federated_single_rps`, `federated_rps`, and their ratio
    /// `federated_speedup`. Before the hammer, the run asserts the
    /// federated responses are bit-identical to a flat single-broker
    /// control over the same engine servers.
    pub federated: bool,
    /// Replica count for the `federated_cluster` phase (minimum 1;
    /// default 4).
    pub replicas: usize,
    /// When set, run the persistent-store phases: build a pool of tiny
    /// engines (`store_setup`), cold-boot a store-backed broker by
    /// registering them all and committing a snapshot
    /// (`store_rebuild` → `registry_rebuild_secs`), then warm-boot a
    /// second broker from the manifest alone via restore + hydrate
    /// (`store_restore` → `registry_restore_secs`). The pool is
    /// `engines` tiny engines (1024 when `engines` is 0), and the run
    /// asserts the restored estimates are bit-identical to the
    /// rebuilt broker's.
    pub store: bool,
}

impl BrokerBenchConfig {
    /// Flat, in-process, no large-registry phases.
    pub fn new(seed: u64, docs_base: usize, n_queries: usize) -> Self {
        BrokerBenchConfig {
            seed,
            docs_base,
            n_queries,
            remote: false,
            shards: 1,
            engines: 0,
            trace_sample: false,
            zipf: None,
            no_cache: false,
            concurrency: Vec::new(),
            federated: false,
            replicas: 4,
            store: false,
        }
    }
}

/// One point on the remote concurrency axis: requests per second at a
/// given client-thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyPoint {
    /// Concurrent client threads driving the workload.
    pub clients: usize,
    /// Throughput through the event-loop server with the multiplexing
    /// connection pool (successful requests / wall-clock seconds).
    pub multiplexed_rps: f64,
}

/// The benchmark report: configuration, per-phase timings, and the
/// counter deltas the run generated.
#[derive(Debug, Clone)]
pub struct BrokerBenchReport {
    /// RNG seed the workload was generated from.
    pub seed: u64,
    /// Number of databases registered with the broker.
    pub databases: usize,
    /// Number of queries driven through each phase.
    pub queries: usize,
    /// Similarity threshold used for estimate/select/search.
    pub threshold: f64,
    /// Whether databases were served over loopback TCP instead of
    /// registered in process.
    pub remote: bool,
    /// Registry shard count the brokers ran with.
    pub shards: usize,
    /// Tiny engines loaded for the `large_*` phases (0 when skipped).
    pub large_engines: usize,
    /// Dispatch overhead of default 1-in-64 trace sampling relative to
    /// sampling off, in percent (`None` unless the config asked for the
    /// `trace_sample` phases).
    pub trace_overhead_pct: Option<f64>,
    /// Zipf exponent of the cache phases (`None` when they were
    /// skipped).
    pub zipf: Option<f64>,
    /// Query-cache hit rate over the `zipf_cached` phase (hits /
    /// lookups; `None` without the Zipf phases).
    pub zipf_hit_rate: Option<f64>,
    /// Wall-clock ratio `zipf_cold / zipf_cached` — how much faster the
    /// skewed stream runs with the cache on (`None` without the Zipf
    /// phases).
    pub hot_query_speedup: Option<f64>,
    /// Wall-clock of the cold boot in the store phases — registering
    /// every pool engine with a store-backed broker (representative
    /// construction + write-through) and committing the snapshot
    /// (`None` unless the config asked for the `store` phases).
    pub registry_rebuild_secs: Option<f64>,
    /// Wall-clock of the warm boot — restoring the same registry from
    /// the committed manifest and hydrating every entry from the stored
    /// representatives (`None` without the store phases).
    pub registry_restore_secs: Option<f64>,
    /// Replica count of the federated phases (0 when they were
    /// skipped).
    pub federated_replicas: usize,
    /// Throughput of 256 clients through the single-replica front-door
    /// (`None` without the federated phases).
    pub federated_single_rps: Option<f64>,
    /// Throughput of 256 clients through the `federated_replicas`-way
    /// front-door (`None` without the federated phases).
    pub federated_rps: Option<f64>,
    /// `federated_rps / federated_single_rps` — the cluster scaling the
    /// CI gate checks (`None` without the federated phases).
    pub federated_speedup: Option<f64>,
    /// Remote concurrency-axis results, one per configured client count
    /// (empty when the axis was skipped).
    pub concurrency: Vec<ConcurrencyPoint>,
    /// Timed phases, in execution order.
    pub phases: Vec<BenchPhase>,
    /// Counter increments attributable to this run (global counter
    /// values after minus before, so a bench inside a longer process
    /// reports only its own work).
    pub counters: BTreeMap<String, u64>,
}

impl BrokerBenchReport {
    /// Serializes the report as a pretty-printed JSON document, with the
    /// full metrics snapshot embedded under `"metrics"`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"bench\": \"broker\",\n");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"databases\": {},", self.databases);
        let _ = writeln!(out, "  \"queries\": {},", self.queries);
        let _ = writeln!(out, "  \"remote\": {},", self.remote);
        let _ = writeln!(out, "  \"shards\": {},", self.shards);
        let _ = writeln!(out, "  \"large_engines\": {},", self.large_engines);
        let _ = writeln!(
            out,
            "  \"federated_replicas\": {},",
            self.federated_replicas
        );
        match self.trace_overhead_pct {
            Some(pct) => {
                out.push_str("  \"trace_overhead_pct\": ");
                json::write_num(&mut out, pct);
                out.push_str(",\n");
            }
            None => out.push_str("  \"trace_overhead_pct\": null,\n"),
        }
        for (name, value) in [
            ("zipf", self.zipf),
            ("zipf_hit_rate", self.zipf_hit_rate),
            ("hot_query_speedup", self.hot_query_speedup),
            ("registry_rebuild_secs", self.registry_rebuild_secs),
            ("registry_restore_secs", self.registry_restore_secs),
            ("federated_single_rps", self.federated_single_rps),
            ("federated_rps", self.federated_rps),
            ("federated_speedup", self.federated_speedup),
        ] {
            match value {
                Some(v) => {
                    let _ = write!(out, "  \"{name}\": ");
                    json::write_num(&mut out, v);
                    out.push_str(",\n");
                }
                None => {
                    let _ = writeln!(out, "  \"{name}\": null,");
                }
            }
        }
        out.push_str("  \"concurrency\": [");
        for (i, p) in self.concurrency.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"clients\": {}, \"multiplexed_rps\": ", p.clients);
            json::write_num(&mut out, p.multiplexed_rps);
            out.push('}');
        }
        out.push_str("],\n");
        out.push_str("  \"threshold\": ");
        json::write_num(&mut out, self.threshold);
        out.push_str(",\n  \"phases\": [\n");
        for (i, phase) in self.phases.iter().enumerate() {
            out.push_str("    {\"name\": ");
            json::write_escaped(&mut out, phase.name);
            out.push_str(", \"seconds\": ");
            json::write_num(&mut out, phase.seconds);
            let _ = write!(out, ", \"items\": {}}}", phase.items);
            out.push_str(if i + 1 < self.phases.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"counters\": {\n");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            out.push_str("    ");
            json::write_escaped(&mut out, name);
            let _ = write!(out, ": {value}");
            out.push_str(if i + 1 < self.counters.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  },\n  \"metrics\": ");
        // Reindent the embedded snapshot so the document stays readable.
        let snapshot = seu_obs::global().snapshot().to_json();
        out.push_str(&snapshot.trim_end().replace('\n', "\n  "));
        out.push_str("\n}\n");
        out
    }

    /// Human-readable phase table for the terminal.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "broker bench{}: {} databases, {} queries, threshold {} (seed {}, {} shard{})",
            if self.remote { " (remote)" } else { "" },
            self.databases,
            self.queries,
            self.threshold,
            self.seed,
            self.shards,
            if self.shards == 1 { "" } else { "s" },
        );
        if self.large_engines > 0 {
            let _ = writeln!(
                out,
                "  large-registry phases: {} engines",
                self.large_engines
            );
        }
        if let Some(pct) = self.trace_overhead_pct {
            let _ = writeln!(out, "  trace sampling overhead: {pct:+.2}% on dispatch");
        }
        if let Some(s) = self.zipf {
            let _ = writeln!(
                out,
                "  zipf(s={s}) cache phases: hit rate {:.1}%, hot-query speedup {:.2}x",
                self.zipf_hit_rate.unwrap_or(0.0) * 100.0,
                self.hot_query_speedup.unwrap_or(1.0),
            );
        }
        if let (Some(rebuild), Some(restore)) =
            (self.registry_rebuild_secs, self.registry_restore_secs)
        {
            let _ = writeln!(
                out,
                "  store registry: rebuild {rebuild:.4}s, restore {restore:.4}s ({:.1}x faster)",
                rebuild / restore.max(1e-12),
            );
        }
        if self.federated_replicas > 0 {
            let _ = writeln!(
                out,
                "  federated ({} replicas, 256 clients): single {:.1} req/s, cluster {:.1} req/s ({:.2}x)",
                self.federated_replicas,
                self.federated_single_rps.unwrap_or(0.0),
                self.federated_rps.unwrap_or(0.0),
                self.federated_speedup.unwrap_or(0.0),
            );
        }
        for p in &self.concurrency {
            let _ = writeln!(
                out,
                "  concurrency {:>4} clients: multiplexed {:>9.1} req/s",
                p.clients, p.multiplexed_rps
            );
        }
        let _ = writeln!(out, "  {:<16} {:>10} {:>8}", "phase", "seconds", "items");
        for phase in &self.phases {
            let _ = writeln!(
                out,
                "  {:<16} {:>10.4} {:>8}",
                phase.name, phase.seconds, phase.items
            );
        }
        out
    }
}

/// Runs the broker benchmark. `docs_base` scales database sizes exactly
/// as in [`seu_corpus::many_databases`] (the paper-scale run uses 120);
/// `n_queries` caps the query-log slice driven through the broker.
pub fn run_broker_bench(seed: u64, docs_base: usize, n_queries: usize) -> BrokerBenchReport {
    run_broker_bench_config(&BrokerBenchConfig::new(seed, docs_base, n_queries))
}

/// [`run_broker_bench`] with every database behind its own loopback
/// TCP engine server: a `serve` phase starts the servers, registration
/// fetches snapshots over the wire, and the search/dispatch phases pay
/// real frame round trips. The counter deltas then include the `net_*`
/// family.
pub fn run_broker_bench_remote(seed: u64, docs_base: usize, n_queries: usize) -> BrokerBenchReport {
    run_broker_bench_config(&BrokerBenchConfig {
        remote: true,
        ..BrokerBenchConfig::new(seed, docs_base, n_queries)
    })
}

/// Runs the broker benchmark as described by `cfg`: optionally remote,
/// optionally sharded, and — when `cfg.engines > 0` — with the
/// large-registry phases that time a broker holding that many tiny
/// engines (build, register, plan, execute), the workload the sharded
/// registry exists for.
pub fn run_broker_bench_config(cfg: &BrokerBenchConfig) -> BrokerBenchReport {
    let BrokerBenchConfig {
        seed,
        docs_base,
        n_queries,
        remote,
        ..
    } = *cfg;
    let threshold = 0.15;
    let before = seu_obs::global().snapshot().counters;
    let mut phases = Vec::new();

    let start = Instant::now();
    let mut databases = seu_corpus::many_databases(seed, docs_base);
    phases.push(BenchPhase {
        name: "build_databases",
        seconds: start.elapsed().as_secs_f64(),
        items: databases.len() as u64,
    });
    let n_databases = databases.len();

    let queries: Vec<String> = SyntheticCorpus::standard()
        .generate_query_log(&QueryLogSpec {
            n_queries,
            ..QueryLogSpec::paper_default(seed ^ 0x5157)
        })
        .iter()
        .map(|q| q.join(" "))
        .collect();

    // The per-phase broker runs with the query cache disabled so every
    // phase measures the cold pipeline (estimate/select/search/plan/
    // dispatch repeat the same queries — a cache would let later phases
    // coast on earlier ones). The cache gets its own phases below.
    let broker = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(cfg.shards)
        .cache_bytes(0)
        .build();
    let mut timed = |name: &'static str, items: u64, work: &mut dyn FnMut()| -> f64 {
        let start = Instant::now();
        work();
        let seconds = start.elapsed().as_secs_f64();
        phases.push(BenchPhase {
            name,
            seconds,
            items,
        });
        seconds
    };
    // In remote mode every database gets its own loopback engine server;
    // the servers must outlive the query phases, so they are held here.
    let mut servers: Vec<seu_net::EngineServer> = Vec::new();
    if remote {
        timed("serve", n_databases as u64, &mut || {
            for (name, coll) in databases.drain(..) {
                servers.push(
                    seu_net::EngineServer::bind(name, SearchEngine::new(coll), "127.0.0.1:0")
                        .expect("binding a loopback engine server"),
                );
            }
        });
        timed("register", n_databases as u64, &mut || {
            for server in &servers {
                let client = seu_net::RemoteEngine::new(server.addr()).expect("resolving loopback");
                broker
                    .register_remote(std::sync::Arc::new(client))
                    .expect("registering a loopback engine");
            }
        });
        // The batched-estimate win in isolation: the same oracle slice
        // asked one request per query versus one frame for all of them.
        let oracle =
            seu_net::RemoteEngine::new(servers[0].addr()).expect("resolving loopback oracle");
        let oracle_queries: Vec<String> = queries.iter().take(16).cloned().collect();
        timed("oracle_per_query", oracle_queries.len() as u64, &mut || {
            for q in &oracle_queries {
                let _ = seu_metasearch::RemoteTransport::true_usefulness(&oracle, q, threshold);
            }
        });
        timed("oracle_batched", oracle_queries.len() as u64, &mut || {
            let _ = seu_metasearch::RemoteTransport::true_usefulness_batch(
                &oracle,
                &oracle_queries,
                threshold,
            );
        });
    } else {
        timed("register", n_databases as u64, &mut || {
            for (name, coll) in databases.drain(..) {
                broker.register(&name, SearchEngine::new(coll));
            }
        });
    }
    timed("estimate", queries.len() as u64, &mut || {
        for q in &queries {
            broker.estimate_all(q, threshold);
        }
    });
    timed("select", queries.len() as u64, &mut || {
        for q in &queries {
            broker.select(q, threshold, SelectionPolicy::EstimatedUseful);
        }
    });
    timed("search", queries.len() as u64, &mut || {
        for q in &queries {
            broker.search(q, threshold, SelectionPolicy::EstimatedUseful);
        }
    });
    // The pipeline split: planning (analysis + estimation + selection)
    // versus dispatch (worker-pool fan-out + merge), so regressions in
    // either half show up separately.
    timed("plan", queries.len() as u64, &mut || {
        for q in &queries {
            broker.plan(
                &SearchRequest::new(q)
                    .threshold(threshold)
                    .policy(SelectionPolicy::EstimatedUseful),
                None,
            );
        }
    });
    timed("dispatch", queries.len() as u64, &mut || {
        for q in &queries {
            broker.execute(
                &SearchRequest::new(q)
                    .threshold(threshold)
                    .policy(SelectionPolicy::EstimatedUseful),
            );
        }
    });

    // Tracing-overhead phases: the same dispatch workload with head
    // sampling forced off, then at the default 1-in-64 rate. The two
    // modes share the warmed broker, so the delta isolates the tracing
    // layer itself (id allocation, sampling decision, span recording).
    // The workload is milliseconds long, so a single pair of runs is
    // dominated by scheduler jitter; each mode runs four times
    // interleaved and the minimums are compared — noise only ever adds
    // time, so the min is the best estimate of the true floor.
    let mut trace_overhead_pct = None;
    if cfg.trace_sample {
        let tracer = seu_obs::tracer();
        let saved_rate = tracer.sample_rate();
        let mut dispatch_all = || {
            for q in &queries {
                broker.execute(
                    &SearchRequest::new(q)
                        .threshold(threshold)
                        .policy(SelectionPolicy::EstimatedUseful),
                );
            }
        };
        let mut best_untraced = f64::INFINITY;
        let mut best_sampled = f64::INFINITY;
        for _ in 0..3 {
            tracer.set_sample_rate(0);
            let start = Instant::now();
            dispatch_all();
            best_untraced = best_untraced.min(start.elapsed().as_secs_f64());
            tracer.set_sample_rate(seu_obs::trace::DEFAULT_SAMPLE_RATE);
            let start = Instant::now();
            dispatch_all();
            best_sampled = best_sampled.min(start.elapsed().as_secs_f64());
        }
        tracer.set_sample_rate(0);
        best_untraced = best_untraced.min(timed(
            "dispatch_untraced",
            queries.len() as u64,
            &mut dispatch_all,
        ));
        tracer.set_sample_rate(seu_obs::trace::DEFAULT_SAMPLE_RATE);
        best_sampled = best_sampled.min(timed(
            "dispatch_sampled",
            queries.len() as u64,
            &mut dispatch_all,
        ));
        tracer.set_sample_rate(saved_rate);
        if best_untraced > 0.0 {
            trace_overhead_pct = Some((best_sampled - best_untraced) / best_untraced * 100.0);
        }
    }

    // Large-registry phases: a separate broker loaded with cfg.engines
    // tiny collections. Registration and planning here are dominated by
    // registry traversal, not per-document work — exactly what shard
    // count changes.
    if cfg.engines > 0 {
        let large = Broker::builder(SubrangeEstimator::paper_six_subrange())
            .shards(cfg.shards)
            .cache_bytes(0)
            .build();
        let mut tiny: Vec<(String, SearchEngine)> = Vec::with_capacity(cfg.engines);
        timed("large_build", cfg.engines as u64, &mut || {
            tiny = (0..cfg.engines).map(|i| tiny_engine(seed, i)).collect();
        });
        timed("large_register", cfg.engines as u64, &mut || {
            for (name, engine) in tiny.drain(..) {
                large.register(&name, engine);
            }
        });
        // A handful of queries is enough: each plan walks all
        // cfg.engines representatives.
        let slice: Vec<&String> = queries.iter().take(4).collect();
        timed("large_plan", slice.len() as u64, &mut || {
            for q in &slice {
                large.plan(
                    &SearchRequest::new(*q)
                        .threshold(threshold)
                        .policy(SelectionPolicy::EstimatedUseful),
                    None,
                );
            }
        });
        timed("large_execute", slice.len() as u64, &mut || {
            for q in &slice {
                large.execute(
                    &SearchRequest::new(*q)
                        .threshold(threshold)
                        .policy(SelectionPolicy::EstimatedUseful),
                );
            }
        });
    }

    // Persistent-store phases: cold boot versus warm boot of the same
    // registry. The cold boot registers every pool engine with a
    // store-backed broker — representative construction plus the
    // write-through — and commits the snapshot; the warm boot rebuilds
    // the registry from the committed manifest and hydrates every entry
    // from the stored quantized records, never touching a collection.
    // Both brokers are store-backed, so both hold canonical (quantized
    // round-trip) representatives and their estimates must agree to the
    // bit — asserted here so the bench doubles as a conformance check
    // at scale.
    let mut registry_rebuild_secs = None;
    let mut registry_restore_secs = None;
    if cfg.store {
        let pool = if cfg.engines > 0 { cfg.engines } else { 1024 };
        let store_dir =
            std::env::temp_dir().join(format!("seu-bench-store-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let mut pool_engines: Vec<(String, SearchEngine)> = Vec::with_capacity(pool);
        timed("store_setup", pool as u64, &mut || {
            pool_engines = (0..pool).map(|i| tiny_engine(seed, i)).collect();
        });
        let rebuilt = Broker::builder(SubrangeEstimator::paper_six_subrange())
            .shards(cfg.shards)
            .cache_bytes(0)
            .store(&store_dir)
            .expect("opening the bench store")
            .build();
        registry_rebuild_secs = Some(timed("store_rebuild", pool as u64, &mut || {
            for (name, engine) in pool_engines.drain(..) {
                rebuilt.register(&name, engine);
            }
            rebuilt
                .snapshot_registry()
                .expect("committing the bench snapshot");
        }));
        let restored = Broker::builder(SubrangeEstimator::paper_six_subrange())
            .shards(cfg.shards)
            .cache_bytes(0)
            .store(&store_dir)
            .expect("reopening the bench store")
            .build();
        registry_restore_secs = Some(timed("store_restore", pool as u64, &mut || {
            let n = restored.restore().expect("restoring the bench registry");
            assert_eq!(n, pool, "restore must rebuild the full registry");
            restored.hydrate();
        }));
        for q in queries.iter().take(4) {
            let a = rebuilt.estimate_all(q, threshold);
            let b = restored.estimate_all(q, threshold);
            assert_eq!(a.len(), b.len(), "estimate counts diverge after restore");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.engine, y.engine, "engine order diverges after restore");
                assert_eq!(
                    x.usefulness.no_doc.to_bits(),
                    y.usefulness.no_doc.to_bits(),
                    "restored NoDoc for {} is not bit-identical",
                    x.engine
                );
                assert_eq!(
                    x.usefulness.avg_sim.to_bits(),
                    y.usefulness.avg_sim.to_bits(),
                    "restored AvgSim for {} is not bit-identical",
                    x.engine
                );
            }
        }
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    // Remote concurrency axis: a single-engine request hammer at each
    // configured client count, every thread sharing one pooled client
    // (frames interleave on few connections). Phase names are leaked
    // once per point; the axis is a handful of values, not a hot path.
    let mut concurrency_points: Vec<ConcurrencyPoint> = Vec::new();
    if remote && !cfg.concurrency.is_empty() {
        let first_collection = seu_corpus::many_databases(seed, docs_base)
            .into_iter()
            .next()
            .expect("the generator yields at least one database")
            .1;
        let mux_server = seu_net::EngineServer::bind(
            "bench-mux",
            SearchEngine::new(first_collection),
            "127.0.0.1:0",
        )
        .expect("binding the bench engine server");
        let mux_client =
            seu_net::RemoteEngine::new(mux_server.addr()).expect("resolving the mux server");
        for &n in &cfg.concurrency {
            let clients = n.max(1);
            let total = (clients * 16).max(256);
            let mux_name: &'static str = Box::leak(format!("mux_c{clients}").into_boxed_str());
            let mut mux_ok = 0u64;
            let mux_seconds = timed(mux_name, total as u64, &mut || {
                mux_ok = hammer(&mux_client, clients, total, &queries, threshold);
            });
            concurrency_points.push(ConcurrencyPoint {
                clients,
                multiplexed_rps: if mux_seconds > 0.0 {
                    mux_ok as f64 / mux_seconds
                } else {
                    0.0
                },
            });
        }
    }

    // Zipf-traffic cache phases: a dedicated broker (cache on unless
    // --no-cache) serves the same seeded Zipf stream twice. The cold
    // pass forces `CacheMode::Bypass` per request, the cached pass runs
    // the default read-write mode; their wall-clock ratio is the
    // hot-query speedup, and the hit rate comes from the broker's own
    // cache counters (delta around the cached pass). The stream is 4x
    // the pool, so even a perfectly cold first touch of every pool
    // entry leaves a 75% ceiling for the hit rate.
    let mut zipf_hit_rate = None;
    let mut hot_query_speedup = None;
    if let Some(s) = cfg.zipf {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use seu_corpus::ZipfSampler;
        use seu_metasearch::CacheMode;

        let mut zipf_builder =
            Broker::builder(SubrangeEstimator::paper_six_subrange()).shards(cfg.shards);
        if cfg.no_cache {
            zipf_builder = zipf_builder.cache_bytes(0);
        }
        let zbroker = zipf_builder.build();
        timed("zipf_setup", n_databases as u64, &mut || {
            if remote {
                for server in &servers {
                    let client =
                        seu_net::RemoteEngine::new(server.addr()).expect("resolving loopback");
                    zbroker
                        .register_remote(std::sync::Arc::new(client))
                        .expect("registering a loopback engine");
                }
            } else {
                // The generator is deterministic, so this rebuilds the
                // exact databases the main broker consumed.
                for (name, coll) in seu_corpus::many_databases(seed, docs_base) {
                    zbroker.register(&name, SearchEngine::new(coll));
                }
            }
        });
        let sampler = ZipfSampler::new(queries.len().max(1), s);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a1f);
        let stream: Vec<&String> = (0..queries.len() * 4)
            .map(|_| &queries[sampler.sample(&mut rng)])
            .collect();
        let request = |q: &str, mode: CacheMode| {
            SearchRequest::new(q)
                .threshold(threshold)
                .policy(SelectionPolicy::EstimatedUseful)
                .cache(mode)
        };
        let cold_seconds = timed("zipf_cold", stream.len() as u64, &mut || {
            for q in &stream {
                zbroker.execute(&request(q, CacheMode::Bypass));
            }
        });
        // Hit rate is request-level: the share of the cached pass served
        // from any cache tier (first touches of each pool entry are the
        // unavoidable misses — the 4x stream caps them at 25%).
        let mut served = 0u64;
        let cached_seconds = timed("zipf_cached", stream.len() as u64, &mut || {
            for q in &stream {
                if zbroker
                    .execute(&request(q, CacheMode::ReadWrite))
                    .served_from
                    .is_some()
                {
                    served += 1;
                }
            }
        });
        zipf_hit_rate = Some(if stream.is_empty() {
            0.0
        } else {
            served as f64 / stream.len() as f64
        });
        hot_query_speedup = Some(if cached_seconds > 0.0 {
            cold_seconds / cached_seconds
        } else {
            1.0
        });
    }

    // The federated phases stand up a miniature two-tier cluster on
    // loopback: every database behind its own engine server, replica
    // brokers behind `ReplicaServer`s pinned to ONE compute worker each
    // (so the host's core count doesn't flatter the scaling number),
    // and a front-door placing engines across them. Before any timing,
    // the federated answers are asserted bit-identical to a flat
    // control broker over the same servers — a throughput number for a
    // cluster that answers differently would be meaningless.
    let mut federated_single_rps = None;
    let mut federated_rps = None;
    let mut federated_speedup = None;
    if cfg.federated {
        use seu_metasearch::federation::{EngineSource, FrontDoor, FrontDoorConfig};
        use seu_net::{RemoteReplica, ReplicaServer, ServerConfig};

        let mut fed_servers: Vec<(String, seu_net::EngineServer)> = Vec::new();
        timed("federated_serve", n_databases as u64, &mut || {
            // Deterministic generator: these are the exact databases
            // the main broker consumed, now each on its own socket.
            for (name, coll) in seu_corpus::many_databases(seed, docs_base) {
                let server =
                    seu_net::EngineServer::bind(&name, SearchEngine::new(coll), "127.0.0.1:0")
                        .expect("binding a federated engine server");
                fed_servers.push((name, server));
            }
        });

        // The flat control broker over the same servers, registered in
        // the same global order the front-door will use.
        let control = Broker::builder(SubrangeEstimator::paper_six_subrange())
            .cache_bytes(0)
            .build();
        for (_, server) in &fed_servers {
            let client = seu_net::RemoteEngine::new(server.addr()).expect("resolving loopback");
            control
                .register_remote(std::sync::Arc::new(client))
                .expect("registering a control engine");
        }

        let build_cluster = |n: usize| -> (Vec<ReplicaServer>, FrontDoor) {
            let fd = FrontDoor::new(FrontDoorConfig::default());
            let mut replica_servers = Vec::new();
            for i in 0..n {
                let broker = std::sync::Arc::new(
                    Broker::builder(SubrangeEstimator::paper_six_subrange())
                        .cache_bytes(0)
                        .build(),
                );
                let server = ReplicaServer::bind_with(
                    &format!("replica-{i}"),
                    broker,
                    "127.0.0.1:0",
                    ServerConfig { workers: 1 },
                )
                .expect("binding a replica server");
                let client = RemoteReplica::new(server.addr()).expect("dialing a replica");
                fd.add_replica(&format!("replica-{i}"), std::sync::Arc::new(client));
                replica_servers.push(server);
            }
            for (name, server) in &fed_servers {
                fd.register_engine(
                    name,
                    EngineSource::Remote {
                        endpoint: server.addr().to_string(),
                    },
                )
                .expect("placing an engine on the cluster");
            }
            (replica_servers, fd)
        };
        let assert_conformant = |fd: &FrontDoor, label: &str| {
            for q in queries.iter().take(4) {
                let req = SearchRequest::new(q)
                    .threshold(threshold)
                    .policy(SelectionPolicy::EstimatedUseful)
                    .with_estimates(true);
                let (fed, report) = fd.execute_with_report(&req);
                assert!(
                    report.failures.is_empty() && report.unresolved.is_empty(),
                    "{label}: degradation on a healthy cluster: {report:?}"
                );
                assert_bit_identical(&control.execute(&req), &fed, label, q);
            }
        };

        let replicas = cfg.replicas.max(1);
        let total = queries.len().max(1) * 64;
        let fed_clients = 256.min(total.max(1));

        // Single-replica baseline: the same protocol and placement
        // machinery, one compute worker.
        let (single_servers, single_fd) = build_cluster(1);
        assert_conformant(&single_fd, "federated_single");
        let single_seconds = timed("federated_single", total as u64, &mut || {
            hammer_front_door(&single_fd, fed_clients, total, &queries, threshold);
        });
        drop(single_fd);
        drop(single_servers);

        let (cluster_servers, cluster_fd) = build_cluster(replicas);
        assert_conformant(&cluster_fd, "federated_cluster");
        let cluster_seconds = timed("federated_cluster", total as u64, &mut || {
            hammer_front_door(&cluster_fd, fed_clients, total, &queries, threshold);
        });
        drop(cluster_fd);
        drop(cluster_servers);

        let single = total as f64 / single_seconds.max(f64::EPSILON);
        let clustered = total as f64 / cluster_seconds.max(f64::EPSILON);
        federated_single_rps = Some(single);
        federated_rps = Some(clustered);
        federated_speedup = Some(clustered / single.max(f64::EPSILON));
    }

    let after = seu_obs::global().snapshot().counters;
    let counters = after
        .into_iter()
        .filter_map(|(name, value)| {
            let delta = value - before.get(&name).copied().unwrap_or(0);
            (delta > 0).then_some((name, delta))
        })
        .collect();

    BrokerBenchReport {
        seed,
        databases: n_databases,
        queries: queries.len(),
        threshold,
        remote,
        shards: cfg.shards.max(1),
        large_engines: cfg.engines,
        trace_overhead_pct,
        zipf: cfg.zipf,
        zipf_hit_rate,
        hot_query_speedup,
        registry_rebuild_secs,
        registry_restore_secs,
        federated_replicas: if cfg.federated {
            cfg.replicas.max(1)
        } else {
            0
        },
        federated_single_rps,
        federated_rps,
        federated_speedup,
        concurrency: concurrency_points,
        phases,
        counters,
    }
}

/// Panics unless the two responses agree to the bit — estimate vector
/// order and values, hit order and similarities. The federated
/// throughput phases only count once this holds: a cluster that
/// answered differently from the flat broker would make its req/s
/// numbers meaningless.
fn assert_bit_identical(
    control: &seu_metasearch::SearchResponse,
    fed: &seu_metasearch::SearchResponse,
    label: &str,
    query: &str,
) {
    assert_eq!(
        control.estimates.len(),
        fed.estimates.len(),
        "{label}, query={query:?}: estimate count"
    );
    for (c, f) in control.estimates.iter().zip(&fed.estimates) {
        assert_eq!(
            c.engine, f.engine,
            "{label}, query={query:?}: estimate order"
        );
        assert_eq!(
            c.usefulness.no_doc.to_bits(),
            f.usefulness.no_doc.to_bits(),
            "{label}, query={query:?}: est_NoDoc for {}",
            c.engine
        );
        assert_eq!(
            c.usefulness.avg_sim.to_bits(),
            f.usefulness.avg_sim.to_bits(),
            "{label}, query={query:?}: est_AvgSim for {}",
            c.engine
        );
    }
    assert_eq!(
        control.hits.len(),
        fed.hits.len(),
        "{label}, query={query:?}: hit count"
    );
    for (c, f) in control.hits.iter().zip(&fed.hits) {
        assert_eq!(
            (&c.engine, &c.doc),
            (&f.engine, &f.doc),
            "{label}, query={query:?}: hit order"
        );
        assert_eq!(
            c.sim.to_bits(),
            f.sim.to_bits(),
            "{label}, query={query:?}: sim for {}/{}",
            c.engine,
            c.doc
        );
    }
}

/// Drives `total` federated searches through the front-door from
/// `clients` threads, panicking on any degradation (a silently dropped
/// reply would make the throughput phases incomparable).
fn hammer_front_door(
    fd: &seu_metasearch::federation::FrontDoor,
    clients: usize,
    total: usize,
    queries: &[String],
    threshold: f64,
) {
    std::thread::scope(|scope| {
        for t in 0..clients {
            scope.spawn(move || {
                let share = total / clients + usize::from(t < total % clients);
                for i in 0..share {
                    let q = &queries[(t + i * clients) % queries.len()];
                    let req = SearchRequest::new(q)
                        .threshold(threshold)
                        .policy(SelectionPolicy::EstimatedUseful);
                    let (_, report) = fd.execute_with_report(&req);
                    assert!(
                        report.failures.is_empty() && report.unresolved.is_empty(),
                        "federated degradation under load: {report:?}"
                    );
                }
            });
        }
    });
}

/// Drives `total` searches through `client` from `clients` threads and
/// returns how many succeeded.
fn hammer(
    client: &seu_net::RemoteEngine,
    clients: usize,
    total: usize,
    queries: &[String],
    threshold: f64,
) -> u64 {
    use seu_metasearch::RemoteTransport;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let client = client.clone();
                scope.spawn(move || {
                    let mut ok = 0u64;
                    let share = total / clients + usize::from(t < total % clients);
                    for i in 0..share {
                        let q = &queries[(t + i * clients) % queries.len()];
                        if client.search(q, threshold, None).is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench client thread"))
            .sum()
    })
}

/// A two-document engine for the large-registry phases. The vocabulary
/// cycles through a small word pool so the shared vocabulary stays
/// bounded while fingerprints stay distinct.
fn tiny_engine(seed: u64, i: usize) -> (String, SearchEngine) {
    const POOL: &[&str] = &[
        "database", "index", "query", "vector", "ranking", "term", "network", "storage", "cache",
        "shard", "merge", "filter",
    ];
    let a = POOL[(i + seed as usize) % POOL.len()];
    let b = POOL[(i / POOL.len() + 1 + seed as usize) % POOL.len()];
    let mut builder = seu_engine::CollectionBuilder::new(
        seu_text::Analyzer::paper_default(),
        seu_engine::WeightingScheme::CosineTf,
    );
    builder.add_document("d0", &format!("{a} {b} record {i}"));
    builder.add_document("d1", &format!("{b} {a} entry {}", i / 2));
    (format!("bulk-{i:05}"), SearchEngine::new(builder.build()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report's counters are deltas of the process-global registry,
    /// so the bench runs of this module must not overlap.
    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        static BENCH_RUNS: std::sync::Mutex<()> = std::sync::Mutex::new(());
        BENCH_RUNS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn bench_report_is_valid_json_with_expected_shape() {
        let _exclusive = exclusive();
        let report = run_broker_bench(7, 6, 4);
        assert_eq!(report.queries, 4);
        assert!(report.databases > 0);
        assert_eq!(
            report.phases.iter().map(|p| p.name).collect::<Vec<_>>(),
            [
                "build_databases",
                "register",
                "estimate",
                "select",
                "search",
                "plan",
                "dispatch"
            ]
        );

        let doc = json::parse(&report.to_json()).expect("bench JSON parses");
        assert_eq!(
            doc.get("bench").and_then(|b| b.as_str()),
            Some("broker"),
            "bench tag"
        );
        let phases = doc.get("phases").and_then(|p| p.as_arr()).expect("phases");
        assert_eq!(phases.len(), 7);
        for phase in phases {
            assert!(phase.get("seconds").and_then(json::Json::as_num).is_some());
        }
        let counters = doc
            .get("counters")
            .and_then(|c| c.as_obj())
            .expect("counters");
        assert!(
            counters.contains_key("broker_queries_total"),
            "search phase drives broker_queries_total; got {:?}",
            counters.keys().collect::<Vec<_>>()
        );
        assert!(counters.contains_key("estimator_subrange_invocations_total"));
        // The embedded snapshot must itself round-trip.
        let metrics = doc.get("metrics").expect("metrics field");
        assert!(metrics.get("counters").is_some());
    }

    #[test]
    fn remote_bench_serves_over_loopback_and_reports_net_counters() {
        let _exclusive = exclusive();
        let report = run_broker_bench_remote(7, 6, 3);
        assert!(report.remote);
        assert_eq!(
            report.phases.iter().map(|p| p.name).collect::<Vec<_>>(),
            [
                "build_databases",
                "serve",
                "register",
                "oracle_per_query",
                "oracle_batched",
                "estimate",
                "select",
                "search",
                "plan",
                "dispatch"
            ]
        );
        // The batched oracle phase answers all its queries in one frame.
        assert!(
            report.counters.get("net_server_batch_requests_total") >= Some(&1),
            "oracle_batched must hit the batch endpoint: {:?}",
            report.counters.get("net_server_batch_requests_total")
        );
        // Registration alone moves one snapshot per database over the
        // wire; search/dispatch add a frame exchange per (query,
        // selected engine).
        assert!(report.counters["net_frames_sent_total"] > 0);
        assert!(report.counters["net_bytes_received_total"] > 0);
        assert!(
            report.counters["net_server_connections_total"] >= report.databases as u64,
            "at least one connection per database: {:?}",
            report.counters.get("net_server_connections_total")
        );
        let doc = json::parse(&report.to_json()).expect("remote bench JSON parses");
        assert_eq!(doc.get("remote"), Some(&json::Json::Bool(true)));
    }

    #[test]
    fn large_registry_phases_appear_with_engines() {
        let _exclusive = exclusive();
        let report = run_broker_bench_config(&BrokerBenchConfig {
            shards: 4,
            engines: 64,
            ..BrokerBenchConfig::new(7, 6, 3)
        });
        assert_eq!(report.shards, 4);
        assert_eq!(report.large_engines, 64);
        assert_eq!(
            report.phases.iter().map(|p| p.name).collect::<Vec<_>>(),
            [
                "build_databases",
                "register",
                "estimate",
                "select",
                "search",
                "plan",
                "dispatch",
                "large_build",
                "large_register",
                "large_plan",
                "large_execute"
            ]
        );
        let by = |name: &str| report.phases.iter().find(|p| p.name == name).unwrap();
        assert_eq!(by("large_register").items, 64);
        assert!(by("large_plan").items > 0);

        let doc = json::parse(&report.to_json()).expect("sharded bench JSON parses");
        assert_eq!(
            doc.get("shards").and_then(json::Json::as_num),
            Some(4.0),
            "shards field"
        );
        assert_eq!(
            doc.get("large_engines").and_then(json::Json::as_num),
            Some(64.0)
        );
    }

    #[test]
    fn trace_sample_phases_measure_overhead() {
        let _exclusive = exclusive();
        let report = run_broker_bench_config(&BrokerBenchConfig {
            trace_sample: true,
            ..BrokerBenchConfig::new(7, 6, 3)
        });
        assert_eq!(
            report.phases.iter().map(|p| p.name).collect::<Vec<_>>(),
            [
                "build_databases",
                "register",
                "estimate",
                "select",
                "search",
                "plan",
                "dispatch",
                "dispatch_untraced",
                "dispatch_sampled"
            ]
        );
        let pct = report.trace_overhead_pct.expect("overhead measured");
        assert!(pct.is_finite(), "{pct}");

        let doc = json::parse(&report.to_json()).expect("trace bench JSON parses");
        assert!(
            doc.get("trace_overhead_pct")
                .and_then(json::Json::as_num)
                .is_some(),
            "overhead lands in the JSON report"
        );

        // Without the flag the field is explicit null and the phase
        // list is untouched.
        let plain = run_broker_bench(7, 6, 3);
        assert_eq!(plain.trace_overhead_pct, None);
        let doc = json::parse(&plain.to_json()).expect("plain bench JSON parses");
        assert_eq!(doc.get("trace_overhead_pct"), Some(&json::Json::Null));
    }

    #[test]
    fn zipf_phases_measure_hit_rate_and_speedup() {
        let _exclusive = exclusive();
        let report = run_broker_bench_config(&BrokerBenchConfig {
            zipf: Some(1.1),
            ..BrokerBenchConfig::new(7, 6, 8)
        });
        let names: Vec<_> = report.phases.iter().map(|p| p.name).collect();
        assert!(
            names.ends_with(&["zipf_setup", "zipf_cold", "zipf_cached"]),
            "{names:?}"
        );
        let hit_rate = report.zipf_hit_rate.expect("hit rate measured");
        assert!(
            (0.0..=1.0).contains(&hit_rate) && hit_rate > 0.0,
            "a Zipfian repeat stream against a warm cache must hit: {hit_rate}"
        );
        let speedup = report.hot_query_speedup.expect("speedup measured");
        assert!(speedup.is_finite() && speedup > 0.0, "{speedup}");

        let doc = json::parse(&report.to_json()).expect("zipf bench JSON parses");
        for field in ["zipf", "zipf_hit_rate", "hot_query_speedup"] {
            assert!(
                doc.get(field).and_then(json::Json::as_num).is_some(),
                "{field} lands in the JSON report"
            );
        }

        // --no-cache: same phases, but the cached pass runs cold, so
        // nothing is ever served.
        let cold = run_broker_bench_config(&BrokerBenchConfig {
            zipf: Some(1.1),
            no_cache: true,
            ..BrokerBenchConfig::new(7, 6, 8)
        });
        assert_eq!(cold.zipf_hit_rate, Some(0.0));

        // Without --zipf the fields are explicit nulls and the phase
        // list is untouched.
        let plain = run_broker_bench(7, 6, 3);
        assert_eq!(plain.zipf_hit_rate, None);
        let doc = json::parse(&plain.to_json()).expect("plain bench JSON parses");
        assert_eq!(doc.get("zipf"), Some(&json::Json::Null));
        assert_eq!(doc.get("zipf_hit_rate"), Some(&json::Json::Null));
        assert_eq!(doc.get("hot_query_speedup"), Some(&json::Json::Null));
    }

    #[test]
    fn federated_phases_measure_cluster_scaling() {
        let _exclusive = exclusive();
        let report = run_broker_bench_config(&BrokerBenchConfig {
            federated: true,
            replicas: 2,
            ..BrokerBenchConfig::new(7, 3, 2)
        });
        let names: Vec<_> = report.phases.iter().map(|p| p.name).collect();
        assert!(
            names.ends_with(&["federated_serve", "federated_single", "federated_cluster"]),
            "{names:?}"
        );
        assert_eq!(report.federated_replicas, 2);
        let single = report.federated_single_rps.expect("single rps measured");
        let cluster = report.federated_rps.expect("cluster rps measured");
        let speedup = report.federated_speedup.expect("speedup measured");
        assert!(single.is_finite() && single > 0.0, "{single}");
        assert!(cluster.is_finite() && cluster > 0.0, "{cluster}");
        assert!(speedup.is_finite() && speedup > 0.0, "{speedup}");

        let doc = json::parse(&report.to_json()).expect("federated bench JSON parses");
        assert_eq!(
            doc.get("federated_replicas").and_then(json::Json::as_num),
            Some(2.0)
        );
        for field in ["federated_single_rps", "federated_rps", "federated_speedup"] {
            assert!(
                doc.get(field).and_then(json::Json::as_num).is_some(),
                "{field} lands in the JSON report"
            );
        }

        // Without --federated the fields are explicit nulls (replicas
        // 0) and the phase list is untouched.
        let plain = run_broker_bench(7, 3, 2);
        assert_eq!(plain.federated_replicas, 0);
        assert_eq!(plain.federated_rps, None);
        let doc = json::parse(&plain.to_json()).expect("plain bench JSON parses");
        assert_eq!(
            doc.get("federated_replicas").and_then(json::Json::as_num),
            Some(0.0)
        );
        assert_eq!(doc.get("federated_rps"), Some(&json::Json::Null));
        assert_eq!(doc.get("federated_speedup"), Some(&json::Json::Null));
    }

    #[test]
    fn store_phases_time_rebuild_and_restore() {
        let _exclusive = exclusive();
        let report = run_broker_bench_config(&BrokerBenchConfig {
            store: true,
            engines: 48,
            shards: 2,
            ..BrokerBenchConfig::new(7, 6, 3)
        });
        let names: Vec<_> = report.phases.iter().map(|p| p.name).collect();
        assert!(
            names.ends_with(&["store_setup", "store_rebuild", "store_restore"]),
            "{names:?}"
        );
        let by = |name: &str| report.phases.iter().find(|p| p.name == name).unwrap();
        assert_eq!(by("store_rebuild").items, 48);
        assert_eq!(by("store_restore").items, 48);
        let rebuild = report.registry_rebuild_secs.expect("rebuild timed");
        let restore = report.registry_restore_secs.expect("restore timed");
        assert!(rebuild > 0.0 && restore > 0.0, "{rebuild} {restore}");

        let doc = json::parse(&report.to_json()).expect("store bench JSON parses");
        for field in ["registry_rebuild_secs", "registry_restore_secs"] {
            assert!(
                doc.get(field).and_then(json::Json::as_num).is_some(),
                "{field} lands in the JSON report"
            );
        }

        // Without --store the fields are explicit nulls and the phase
        // list is untouched.
        let plain = run_broker_bench(7, 6, 3);
        assert_eq!(plain.registry_rebuild_secs, None);
        let doc = json::parse(&plain.to_json()).expect("plain bench JSON parses");
        assert_eq!(doc.get("registry_rebuild_secs"), Some(&json::Json::Null));
        assert_eq!(doc.get("registry_restore_secs"), Some(&json::Json::Null));
    }

    #[test]
    fn concurrency_axis_reports_multiplexed_throughput() {
        let _exclusive = exclusive();
        let report = run_broker_bench_config(&BrokerBenchConfig {
            remote: true,
            concurrency: vec![2],
            ..BrokerBenchConfig::new(7, 6, 3)
        });
        let names: Vec<_> = report.phases.iter().map(|p| p.name).collect();
        assert!(names.contains(&"mux_c2"), "{names:?}");
        assert_eq!(report.concurrency.len(), 1);
        let point = report.concurrency[0];
        assert_eq!(point.clients, 2);
        assert!(
            point.multiplexed_rps > 0.0,
            "the hammer must complete requests: {point:?}"
        );
        let doc = json::parse(&report.to_json()).expect("concurrency bench JSON parses");
        let axis = doc
            .get("concurrency")
            .and_then(|c| c.as_arr())
            .expect("concurrency array");
        assert_eq!(axis.len(), 1);
        assert_eq!(
            axis[0].get("clients").and_then(json::Json::as_num),
            Some(2.0)
        );
        assert!(axis[0]
            .get("multiplexed_rps")
            .and_then(json::Json::as_num)
            .is_some());

        // Without the axis the array is present but empty.
        let plain = run_broker_bench(7, 6, 3);
        assert!(plain.concurrency.is_empty());
        let doc = json::parse(&plain.to_json()).expect("plain bench JSON parses");
        assert_eq!(
            doc.get("concurrency")
                .and_then(|c| c.as_arr())
                .map(|a| a.len()),
            Some(0)
        );
    }

    #[test]
    fn counter_deltas_scale_with_queries() {
        let _exclusive = exclusive();
        let report = run_broker_bench(11, 6, 3);
        // estimate + select + search each consider every database per query.
        let estimates = report.counters["estimator_subrange_invocations_total"];
        assert!(
            estimates >= (3 * report.databases) as u64,
            "expected at least one estimate per (query, database): {estimates}"
        );
        assert_eq!(report.counters.get("broker_selects_total"), Some(&3));
    }
}
