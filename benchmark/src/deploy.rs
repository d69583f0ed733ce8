//! The four workloads: what each is fed ([`Fixture`]), how the product
//! is stood up to serve it ([`deploy`], the timed set-up), and the write
//! door each deployment offers an operator ([`Writer`]).
//!
//! Product configuration stays at its defaults except where a workload
//! names a setting here.

use crate::inputs::{self, Size};
use seu_core::SubrangeEstimator;
use seu_engine::{Collection, SearchEngine};
use seu_metasearch::{
    Broker, EngineSource, FrontDoor, FrontDoorConfig, SearchRequest, SearchResponse,
};
use seu_net::{AdminServer, EngineServer, RemoteReplica, ReplicaServer};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The estimator every broker of the benchmark runs: the paper's
/// six-subrange configuration.
pub type SeuBroker = Broker<SubrangeEstimator>;

/// Registry shards of the `registry_10k` broker.
const REGISTRY_SHARDS: usize = 16;
/// Broker replicas behind the front-door: one per core of the 2-core box.
const REPLICAS: usize = 2;
/// Queries in the `zipf_churn` pool.
const ZIPF_POOL: usize = 400;
/// Slices' worth of requests generated up front; a window that outlasts
/// them starts the stream over.
const STREAM_SLICES: usize = 160;
/// Databases the write door cycles over (the smallest ones).
const WRITE_TARGETS: usize = 8;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LocalCold,
    RemoteFederated,
    ZipfChurn,
    Registry10k,
}

impl Workload {
    /// In execution order: the two workloads that open the most loopback
    /// connections are kept apart, so fewer sockets sit in TIME_WAIT at
    /// any time.
    pub const ALL: [Workload; 4] = [
        Workload::LocalCold,
        Workload::RemoteFederated,
        Workload::ZipfChurn,
        Workload::Registry10k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalCold => "local_cold",
            Workload::RemoteFederated => "remote_federated",
            Workload::ZipfChurn => "zipf_churn",
            Workload::Registry10k => "registry_10k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (also the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LocalCold => {
                "53 in-process engines, cache off, distinct queries: all the non-network work; \
                 net, cache and store changes must predict no change here"
            }
            Workload::RemoteFederated => {
                "same data behind 53 engine servers and a front-door over 2 replicas: every \
                 request crosses both seu-net hops; transport dominates"
            }
            Workload::ZipfChurn => {
                "cached broker under a Zipf(1.1) stream while a client rewrites engines: hit path, \
                 epoch invalidation and write lock, used while written"
            }
            Workload::Registry10k => {
                "10 000 store-backed engines, queries from their own vocabulary: shard walk, \
                 hydration and estimation over hundreds of representatives"
            }
        }
    }

    /// Requests per slice at full size: about half a second of traffic,
    /// short enough that a slice falls between two bursts of steal.
    pub fn slice_requests(self, size: Size) -> usize {
        let full = match self {
            Workload::LocalCold => 600,
            Workload::RemoteFederated => 50,
            Workload::ZipfChurn => 1200,
            Workload::Registry10k => 60,
        };
        ((full as f64 * size.slice_scale) as usize).max(20)
    }
}

/// A workload's inputs, all made from the seed before anything is timed.
pub struct Fixture {
    pub workload: Workload,
    pub seed: u64,
    pub size: Size,
    /// The databases, in registration order.
    pub collections: Vec<(String, Collection)>,
    /// Request texts in send order.
    pub requests: Vec<String>,
    /// Where `registry_10k` keeps its representative store.
    pub store_dir: Option<PathBuf>,
}

impl Fixture {
    pub fn generate(workload: Workload, seed: u64, size: Size) -> Fixture {
        let stream_len = workload.slice_requests(size) * STREAM_SLICES;
        let (collections, requests);
        if workload == Workload::Registry10k {
            collections = inputs::registry_collections(seed, size.registry_engines);
            requests = inputs::registry_queries(seed, &collections, stream_len);
        } else {
            // The paper's 53-newsgroup host: one database per topic,
            // sizes decaying with the topic index.
            collections = seu_corpus::many_databases(seed, size.docs_base);
            requests = if workload == Workload::ZipfChurn {
                let pool = inputs::query_log(seed, ZIPF_POOL);
                inputs::zipf_stream(seed, pool.len(), stream_len)
                    .into_iter()
                    .map(|i| pool[i].clone())
                    .collect()
            } else {
                inputs::query_log(seed, stream_len)
            };
        }
        Fixture {
            workload,
            seed,
            size,
            collections,
            requests,
            store_dir: (workload == Workload::Registry10k)
                .then(|| crate::out_dir().join(format!("store-{}-{seed}", std::process::id()))),
        }
    }

    /// The `i`-th write: the database it rewrites and fresh content for
    /// it — same size as what it replaces, other documents, never written
    /// before, so every write does the same work. Writes cycle over the
    /// [`WRITE_TARGETS`] smallest databases.
    pub fn write(&self, i: usize) -> (String, Collection) {
        let targets = WRITE_TARGETS.min(self.collections.len());
        let generation = 1 + i / targets;
        if self.workload == Workload::Registry10k {
            inputs::registry_collection(self.seed, i % targets, generation)
        } else {
            // The generator sizes databases by topic index: the last
            // ones are the smallest.
            let topic = self.collections.len() - targets + i % targets;
            let (name, original) = &self.collections[topic];
            let content = inputs::newsgroup_variant(self.seed, topic, original.len(), generation);
            (name.clone(), content)
        }
    }

    /// The request at position `i` of the stream (which repeats).
    pub fn request(&self, i: usize) -> &str {
        &self.requests[i % self.requests.len()]
    }

    /// The search request the door builds from a query text.
    pub fn search_request(&self, query: &str) -> SearchRequest {
        SearchRequest::new(query)
            .threshold(inputs::THRESHOLD)
            .with_estimates(true)
    }

    fn builder(&self) -> seu_metasearch::BrokerBuilder<SubrangeEstimator> {
        let builder = Broker::builder(SubrangeEstimator::paper_six_subrange());
        match self.workload {
            // The default 32 MiB segmented-LRU query cache.
            Workload::ZipfChurn => builder,
            // Cold path on purpose: these workloads measure the
            // pipeline, not the cache.
            Workload::LocalCold | Workload::RemoteFederated => builder.cache_bytes(0),
            Workload::Registry10k => builder
                .cache_bytes(0)
                .shards(REGISTRY_SHARDS)
                .store(self.store_dir.as_ref().expect("registry_10k has a store"))
                .expect("opening the representative store"),
        }
    }

    /// `registry_10k`'s cold boot: register every engine with
    /// write-through and commit a snapshot. Returns the broker that wrote
    /// it (the reference for the restored one) and the seconds it took.
    pub fn cold_boot(&self) -> (SeuBroker, f64) {
        let engines: Vec<(String, SearchEngine)> = self.engines();
        let start = Instant::now();
        let broker = self.builder().build();
        for (name, engine) in engines {
            broker.register(&name, engine);
        }
        broker
            .snapshot_registry()
            .expect("committing the registry snapshot");
        (broker, start.elapsed().as_secs_f64())
    }

    fn engines(&self) -> Vec<(String, SearchEngine)> {
        self.collections
            .iter()
            .map(|(name, c)| (name.clone(), SearchEngine::new(c.clone())))
            .collect()
    }
}

/// What answers behind the HTTP door, for in-process reference calls.
pub enum Door {
    Broker(Arc<SeuBroker>),
    Federated(Federated),
}

/// The two-tier cluster of `remote_federated`. Fields drop in order:
/// front-door, replicas, then the engines they dial.
pub struct Federated {
    pub front_door: Arc<FrontDoor>,
    pub replicas: Vec<ReplicaServer>,
    pub engines: Vec<EngineServer>,
}

impl Door {
    /// The in-process equivalent of `POST /search`.
    pub fn search(&self, req: &SearchRequest) -> SearchResponse {
        match self {
            Door::Broker(b) => b.execute(req),
            Door::Federated(f) => f.front_door.execute(req),
        }
    }

    /// The registry epoch (the cluster version for a front-door): how
    /// many lifecycle events the door has seen.
    pub fn epoch(&self) -> u64 {
        match self {
            Door::Broker(b) => b.registry_epoch(),
            Door::Federated(f) => f.front_door.cluster_version(),
        }
    }
}

/// A workload's servers, ready for requests. The HTTP door drops first.
pub struct Deployment {
    pub admin: AdminServer,
    pub door: Door,
}

impl Deployment {
    pub fn addr(&self) -> SocketAddr {
        self.admin.addr()
    }
}

/// Timings of one [`deploy`]; `total` is the `setup_s` sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: f64,
    /// `Broker::restore` (registry_10k only).
    pub restore: f64,
    /// `attach_engine` × N, hydration included (registry_10k only).
    pub attach: f64,
}

/// Stands the workload's deployment up from documents in memory: index
/// builds, representative builds and registration, server binds and
/// over-the-wire placement. For `registry_10k` it is the warm boot from
/// the store [`Fixture::cold_boot`] left behind, engines already built.
pub fn deploy(fx: &Fixture) -> (Deployment, SetupTimes) {
    let mut times = SetupTimes::default();
    let (door, start) = match fx.workload {
        Workload::LocalCold | Workload::ZipfChurn => {
            let collections = fx.collections.clone();
            let start = Instant::now();
            let broker = fx.builder().build();
            for (name, collection) in collections {
                broker.register(&name, SearchEngine::new(collection));
            }
            (Door::Broker(Arc::new(broker)), start)
        }
        Workload::RemoteFederated => {
            let collections = fx.collections.clone();
            let start = Instant::now();
            (Door::Federated(federate(fx, collections)), start)
        }
        Workload::Registry10k => {
            let engines = fx.engines();
            let start = Instant::now();
            let broker = fx.builder().build();
            let restored = broker.restore().expect("restoring the registry");
            times.restore = start.elapsed().as_secs_f64();
            assert_eq!(restored, engines.len(), "restore lost engines");
            for (name, engine) in engines {
                assert!(broker.attach_engine(&name, engine), "attach {name}");
            }
            times.attach = start.elapsed().as_secs_f64() - times.restore;
            (Door::Broker(Arc::new(broker)), start)
        }
    };
    let admin = match &door {
        Door::Broker(b) => AdminServer::bind(b.clone(), "127.0.0.1:0"),
        Door::Federated(f) => AdminServer::bind(f.front_door.clone(), "127.0.0.1:0"),
    }
    .expect("binding the HTTP door");
    times.total = start.elapsed().as_secs_f64();
    (Deployment { admin, door }, times)
}

fn federate(fx: &Fixture, collections: Vec<(String, Collection)>) -> Federated {
    let engines: Vec<EngineServer> = collections
        .into_iter()
        .map(|(name, collection)| {
            EngineServer::bind(name, SearchEngine::new(collection), "127.0.0.1:0")
                .expect("binding an engine server")
        })
        .collect();
    let front_door = FrontDoor::new(FrontDoorConfig::default());
    let replicas: Vec<ReplicaServer> = (0..REPLICAS)
        .map(|i| {
            let id = format!("replica-{i}");
            let server = ReplicaServer::bind(&id, Arc::new(fx.builder().build()), "127.0.0.1:0")
                .expect("binding a replica server");
            let client = RemoteReplica::new(server.addr()).expect("resolving a replica");
            front_door.add_replica(&id, Arc::new(client));
            server
        })
        .collect();
    for server in &engines {
        front_door
            .register_engine(server.name(), remote(server))
            .expect("placing an engine on the cluster");
    }
    Federated {
        front_door: Arc::new(front_door),
        replicas,
        engines,
    }
}

fn remote(server: &EngineServer) -> EngineSource {
    EngineSource::Remote {
        endpoint: server.addr().to_string(),
    }
}

/// The operator's write door, prepared so that only the door's own work
/// is timed. On a broker a write swaps re-indexed content into one of
/// the smallest databases and rebuilds its representative
/// (`replace_engine` + `refresh_representative`: the swap alone would
/// leave the engine out of every plan). On the front-door, which has no
/// replace, a write places one more small engine server on the cluster.
pub struct Writer {
    prepared: std::vec::IntoIter<(String, Prepared)>,
    /// Engine servers placed so far; they must outlive the cluster.
    placed: Vec<EngineServer>,
}

enum Prepared {
    Replace(SearchEngine),
    Place(EngineServer),
}

impl Writer {
    /// Prepares `n` writes against `door`.
    pub fn prepare(fx: &Fixture, door: &Door, n: usize) -> Writer {
        let prepared: Vec<(String, Prepared)> = (0..n)
            .map(|i| {
                let (name, content) = fx.write(i);
                match door {
                    Door::Broker(_) => (name, Prepared::Replace(SearchEngine::new(content))),
                    Door::Federated(_) => {
                        let name = format!("{name}-w{i:03}");
                        let server = EngineServer::bind(
                            name.as_str(),
                            SearchEngine::new(content),
                            "127.0.0.1:0",
                        )
                        .expect("binding a write-phase engine server");
                        (name, Prepared::Place(server))
                    }
                }
            })
            .collect();
        Writer {
            prepared: prepared.into_iter(),
            placed: Vec::new(),
        }
    }

    /// Performs the next prepared write; its latency in milliseconds, or
    /// `None` once all are spent.
    pub fn write(&mut self, door: &Door) -> Option<f64> {
        let (name, prepared) = self.prepared.next()?;
        let start = Instant::now();
        match (prepared, door) {
            (Prepared::Replace(engine), Door::Broker(broker)) => {
                assert!(broker.replace_engine(&name, engine), "replace {name}");
                assert!(broker.refresh_representative(&name), "refresh {name}");
            }
            (Prepared::Place(server), Door::Federated(f)) => {
                f.front_door
                    .register_engine(&name, remote(&server))
                    .expect("placing a write-phase engine");
                self.placed.push(server);
            }
            _ => unreachable!("writes are prepared for the door they run on"),
        }
        Some(start.elapsed().as_secs_f64() * 1e3)
    }
}
