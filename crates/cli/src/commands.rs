//! The command implementations.

use seu_core::{SubrangeEstimator, Usefulness, UsefulnessEstimator};
use seu_corpus::loader;
use seu_engine::{Collection, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, EngineRecord, SearchRequest, SelectionPolicy};
use seu_net::wire::{record_from_bytes, record_to_bytes};
use seu_repr::Representative;
use seu_text::{Analyzer, AnalyzerConfig};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

fn io_err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

fn load_engine(path: &Path) -> Result<SearchEngine, String> {
    let bytes = fs::read(path).map_err(|e| io_err(&format!("reading {}", path.display()), e))?;
    let collection = Collection::from_bytes(&bytes[..])
        .ok_or_else(|| format!("{} is not a valid engine file", path.display()))?;
    Ok(SearchEngine::new(collection))
}

/// `seu index`: analyze a directory (one file per document) or an mbox
/// file into a persisted engine.
pub fn index(input: &Path, output: &Path, stem: bool, out: &mut dyn Write) -> Result<(), String> {
    let analyzer = Analyzer::new(AnalyzerConfig {
        remove_stopwords: true,
        stem,
    });
    let collection = if input.is_dir() {
        loader::load_directory(input, analyzer, WeightingScheme::CosineTf)
            .map_err(|e| io_err(&format!("loading {}", input.display()), e))?
    } else {
        let text = fs::read_to_string(input)
            .map_err(|e| io_err(&format!("reading {}", input.display()), e))?;
        let name = input
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "mbox".into());
        loader::load_mbox(&name, &text, analyzer, WeightingScheme::CosineTf)
    };
    let bytes = collection.to_bytes();
    fs::write(output, &bytes).map_err(|e| io_err(&format!("writing {}", output.display()), e))?;
    writeln!(
        out,
        "indexed {} documents, {} distinct terms -> {} ({} bytes)",
        collection.len(),
        collection.vocab().len(),
        output.display(),
        bytes.len()
    )
    .map_err(|e| io_err("writing output", e))
}

/// `seu repr`: write an engine's record — the one a remote engine
/// ships, so `seu estimate` needs nothing else.
pub fn repr(engine_path: &Path, output: &Path, out: &mut dyn Write) -> Result<(), String> {
    let engine = load_engine(engine_path)?;
    let built = Representative::build(engine.collection());
    let record = EngineRecord::of_engine(&file_stem(engine_path), &engine, built);
    let bytes = record_to_bytes(&record);
    fs::write(output, &bytes).map_err(|e| io_err(&format!("writing {}", output.display()), e))?;
    writeln!(
        out,
        "representative: {} terms over {} documents -> {} ({} bytes)",
        record.repr.distinct_terms(),
        record.repr.n_docs(),
        output.display(),
        bytes.len(),
    )
    .map_err(|e| io_err("writing output", e))
}

/// The estimate `seu estimate` prints: the record's own analyzer and
/// weighting build the query, as a broker's would.
fn estimate_file(repr_path: &Path, query_text: &str, threshold: f64) -> Result<Usefulness, String> {
    let bytes =
        fs::read(repr_path).map_err(|e| io_err(&format!("reading {}", repr_path.display()), e))?;
    let record = record_from_bytes(&bytes).map_err(|e| {
        let file = repr_path.display();
        format!("{file} is not a valid representative file: {e}")
    })?;
    let query = record.query_from_text(query_text);
    Ok(SubrangeEstimator::paper_six_subrange().estimate(&record.repr, &query, threshold))
}

/// `seu estimate`: usefulness from a representative file alone
/// — no documents, no engine, just the broker-side metadata.
pub fn estimate(
    repr_path: &Path,
    query_text: &str,
    threshold: f64,
    out: &mut dyn Write,
) -> Result<(), String> {
    let u = estimate_file(repr_path, query_text, threshold)?;
    writeln!(
        out,
        "estimated NoDoc {:.2} (rounded {}), AvgSim {:.3} at threshold {threshold}",
        u.no_doc,
        u.no_doc_rounded(),
        u.avg_sim
    )
    .map_err(|e| io_err("writing output", e))
}

/// `seu search`: query one persisted engine.
pub fn search(
    engine: &Path,
    query_text: &str,
    threshold: f64,
    top_k: Option<usize>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let engine = load_engine(engine)?;
    let query = engine.collection().query_from_text(query_text);
    let hits = match top_k {
        Some(k) => engine.search_top_k_maxscore(&query, k),
        None => engine.search_threshold(&query, threshold),
    };
    writeln!(out, "{} hits", hits.len()).map_err(|e| io_err("writing output", e))?;
    for h in hits {
        writeln!(
            out,
            "{:<30} {:.4}",
            engine.collection().doc(h.doc).name,
            h.sim
        )
        .map_err(|e| io_err("writing output", e))?;
    }
    Ok(())
}

/// `seu broker`: register several engines, select by estimated
/// usefulness, search the selected ones, merge.
pub fn broker(
    engines: &[PathBuf],
    query_text: &str,
    threshold: f64,
    shards: usize,
    no_cache: bool,
    out: &mut dyn Write,
) -> Result<(), String> {
    let mut builder = Broker::builder(SubrangeEstimator::paper_six_subrange()).shards(shards);
    if no_cache {
        builder = builder.cache_bytes(0);
    }
    let broker = builder.build();
    register_files(&broker, engines)?;
    // One pipeline execution serves estimates, selection, and hits (the
    // seed ran three passes — estimate_all, select, search — analyzing
    // the query six times over these two engines).
    let resp = broker.execute(
        &SearchRequest::new(query_text)
            .threshold(threshold)
            .policy(SelectionPolicy::EstimatedUseful)
            .with_estimates(true),
    );
    for e in &resp.estimates {
        writeln!(
            out,
            "{:<20} est NoDoc {:.2}  AvgSim {:.3}",
            e.engine, e.usefulness.no_doc, e.usefulness.avg_sim
        )
        .map_err(|e| io_err("writing output", e))?;
    }
    let selected = resp.selected();
    writeln!(out, "selected: {selected:?}").map_err(|e| io_err("writing output", e))?;
    for h in &resp.hits {
        writeln!(out, "{:<20} {:<30} {:.4}", h.engine, h.doc, h.sim)
            .map_err(|e| io_err("writing output", e))?;
    }
    Ok(())
}

fn file_stem(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// Registers each engine file under its file stem. A name is one engine,
/// so two files with one stem are refused rather than one of them
/// silently left out.
fn register_files(broker: &Broker, engines: &[PathBuf]) -> Result<(), String> {
    for path in engines {
        let name = file_stem(path);
        if broker.contains(&name) {
            return Err(format!(
                "{}: an engine named {name:?} is already registered (engines are named by file stem)",
                path.display()
            ));
        }
        broker.register(&name, load_engine(path)?);
    }
    Ok(())
}

/// Builds the networked broker for `seu serve` without blocking: local
/// engine files are registered in process, each `--remote` address is
/// registered over TCP with a push-invalidation subscription, and the
/// HTTP admin server starts on `listen`. With a `store`, every
/// registration writes through the persistent representative store —
/// and when no engines or remotes are given at all, the registry is
/// restored from the store's committed manifest instead (entries come
/// up detached and hydrate lazily on the first plan). Returns the
/// admin server and the live subscriptions (dropping either tears that
/// half down) so tests can drive a serve session in process.
fn build_serve_broker(
    engines: &[PathBuf],
    remotes: &[String],
    store: Option<&Path>,
    shards: usize,
    no_cache: bool,
) -> Result<
    (
        std::sync::Arc<Broker<SubrangeEstimator>>,
        Vec<seu_net::Subscription>,
    ),
    String,
> {
    let mut builder = Broker::builder(SubrangeEstimator::paper_six_subrange()).shards(shards);
    if no_cache {
        builder = builder.cache_bytes(0);
    }
    if let Some(dir) = store {
        builder = builder
            .store(dir)
            .map_err(|e| io_err(&format!("opening store {}", dir.display()), e))?;
    }
    let broker = std::sync::Arc::new(builder.build());
    register_files(&broker, engines)?;
    let mut subscriptions = Vec::new();
    for addr in remotes {
        let client = seu_net::RemoteEngine::new(addr.as_str())
            .map_err(|e| format!("remote engine {addr}: {e}"))?;
        let (_, subscription) = seu_net::register_and_subscribe(&broker, client)
            .map_err(|e| format!("registering remote engine {addr}: {e}"))?;
        subscriptions.push(subscription);
    }
    if store.is_some() && broker.is_empty() {
        broker
            .restore()
            .map_err(|e| io_err("restoring registry", e))?;
    }
    Ok((broker, subscriptions))
}

/// `seu serve` without the blocking park: builds the broker (local
/// engine files, remote registrations with push subscriptions,
/// optional store restore) and binds the HTTP admin server.
pub fn serve_start(
    engines: &[PathBuf],
    remotes: &[String],
    listen: &str,
    store: Option<&Path>,
    shards: usize,
    no_cache: bool,
) -> Result<(seu_net::AdminServer, Vec<seu_net::Subscription>), String> {
    let (broker, subscriptions) = build_serve_broker(engines, remotes, store, shards, no_cache)?;
    let admin = seu_net::AdminServer::bind(broker, listen)
        .map_err(|e| io_err(&format!("binding {listen}"), e))?;
    Ok((admin, subscriptions))
}

/// [`serve_start`] for a federation replica: also binds a
/// replica-protocol listener (ephemeral port on the admin host) and
/// announces `id endpoint` into the `join` hosts file, so a front-door
/// watching the file adopts this broker and rebalances engines onto it.
/// The replica's ring id is its endpoint.
#[allow(clippy::type_complexity)]
pub fn serve_join_start(
    engines: &[PathBuf],
    remotes: &[String],
    listen: &str,
    store: Option<&Path>,
    shards: usize,
    no_cache: bool,
    join: &Path,
) -> Result<
    (
        seu_net::AdminServer,
        seu_net::ReplicaServer,
        Vec<seu_net::Subscription>,
    ),
    String,
> {
    let (broker, subscriptions) = build_serve_broker(engines, remotes, store, shards, no_cache)?;
    let admin = seu_net::AdminServer::bind(broker.clone(), listen)
        .map_err(|e| io_err(&format!("binding {listen}"), e))?;
    let host = listen.rsplit_once(':').map_or("127.0.0.1", |(h, _)| h);
    let replica = seu_net::ReplicaServer::bind("replica", broker, format!("{host}:0"))
        .map_err(|e| format!("binding replica listener on {host}:0: {e}"))?;
    let spec = seu_metasearch::federation::ReplicaSpec::from_endpoint(&replica.addr().to_string());
    seu_metasearch::federation::announce(join, &spec)
        .map_err(|e| io_err(&format!("announcing into {}", join.display()), e))?;
    Ok((admin, replica, subscriptions))
}

/// `seu serve`: run a networked broker until killed — local engines from
/// files, remote engines over TCP, admin/metrics over HTTP.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    engines: &[PathBuf],
    remotes: &[String],
    listen: &str,
    store: Option<&Path>,
    shards: usize,
    no_cache: bool,
    join: Option<&Path>,
    out: &mut dyn Write,
) -> Result<(), String> {
    seu_net::register_metrics();
    let store_note = match store {
        Some(dir) => format!(", store {}", dir.display()),
        None => String::new(),
    };
    // Kept alive for the life of the process; the replica listener (if
    // joined) stops serving when this binding drops.
    let _running;
    let admin_addr;
    let join_note;
    match join {
        Some(hosts) => {
            seu_metasearch::federation::register_metrics();
            let (admin, replica, subs) =
                serve_join_start(engines, remotes, listen, store, shards, no_cache, hosts)?;
            admin_addr = admin.addr();
            join_note = format!(", replica {} joined {}", replica.addr(), hosts.display());
            _running = (admin, Some(replica), subs);
        }
        None => {
            let (admin, subs) = serve_start(engines, remotes, listen, store, shards, no_cache)?;
            admin_addr = admin.addr();
            join_note = String::new();
            _running = (admin, None, subs);
        }
    }
    writeln!(
        out,
        "broker: {} local, {} remote{store_note}{join_note}; admin listening on http://{admin_addr}",
        engines.len(),
        remotes.len(),
    )
    .and_then(|()| out.flush())
    .map_err(|e| io_err("writing output", e))?;
    park_forever()
}

/// Splits an `id=value` CLI spec; a bare value has no explicit id.
fn split_spec(spec: &str) -> (Option<&str>, &str) {
    match spec.split_once('=') {
        Some((id, value)) => (Some(id), value),
        None => (None, spec),
    }
}

/// Background upkeep for a running front-door: hosts-file watching and
/// replica health probes. Stops (and joins its thread) on drop.
pub struct FrontDoorRuntime {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for FrontDoorRuntime {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// `seu front-door` without the blocking park: builds the front-door,
/// adds static replicas, reads the hosts file (and keeps watching it),
/// registers engines through the placement ring, starts the probe
/// loop, and binds the HTTP admin server over the cluster.
pub fn front_door_start(
    replicas: &[String],
    hosts_file: Option<&Path>,
    engines: &[String],
    listen: &str,
    vnodes: usize,
    replication: usize,
) -> Result<
    (
        seu_net::AdminServer,
        std::sync::Arc<seu_metasearch::FrontDoor>,
        FrontDoorRuntime,
    ),
    String,
> {
    use seu_metasearch::federation::{EngineSource, FrontDoorConfig, HostsFileWatcher};
    use seu_metasearch::{FrontDoor, RemoteTransport};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let config = FrontDoorConfig {
        vnodes: if vnodes == 0 {
            seu_metasearch::federation::DEFAULT_VNODES
        } else {
            vnodes
        },
        replication,
    };
    let fd = Arc::new(FrontDoor::new(config));
    for spec in replicas {
        let (id, endpoint) = split_spec(spec);
        let id = id.unwrap_or(endpoint);
        let client = seu_net::RemoteReplica::new(endpoint)
            .map_err(|e| format!("replica {endpoint}: {e}"))?;
        fd.add_replica(id, Arc::new(client));
    }

    // The hosts file set is tracked separately from static replicas, so
    // a leave in the file never evicts a --replica flag.
    let mut watcher = hosts_file.map(HostsFileWatcher::new);
    let mut hosts_ids: std::collections::HashSet<String> = std::collections::HashSet::new();
    let adopt = |fd: &FrontDoor,
                 watcher: &mut HostsFileWatcher,
                 ids: &mut std::collections::HashSet<String>| {
        let Some(specs) = watcher.poll() else { return };
        let desired: std::collections::HashMap<String, String> =
            specs.into_iter().map(|s| (s.id, s.endpoint)).collect();
        for gone in ids
            .iter()
            .filter(|id| !desired.contains_key(*id))
            .cloned()
            .collect::<Vec<_>>()
        {
            fd.remove_replica(&gone);
            ids.remove(&gone);
        }
        let present: std::collections::HashSet<String> =
            fd.replica_states().into_iter().map(|(id, _)| id).collect();
        for (id, endpoint) in desired {
            if present.contains(&id) {
                ids.insert(id);
                continue;
            }
            if let Ok(client) = seu_net::RemoteReplica::new(endpoint.as_str()) {
                fd.add_replica(&id, Arc::new(client));
                ids.insert(id);
            }
        }
    };
    if let Some(w) = watcher.as_mut() {
        adopt(&fd, w, &mut hosts_ids);
    }
    if fd.replica_count() == 0 {
        return Err("no replicas: none given and none announced in the hosts file".into());
    }

    for spec in engines {
        let (name, endpoint) = split_spec(spec);
        let name = match name {
            Some(name) => name.to_string(),
            // A bare endpoint: dial the engine for its advertised name.
            None => {
                let probe = seu_net::RemoteEngine::new(endpoint)
                    .map_err(|e| format!("engine {endpoint}: {e}"))?;
                probe
                    .fetch_snapshot()
                    .map_err(|e| format!("engine {endpoint}: {e}"))?
                    .name
                    .clone()
            }
        };
        fd.register_engine(
            &name,
            EngineSource::Remote {
                endpoint: endpoint.to_string(),
            },
        )
        .map_err(|e| format!("registering {name}: {e}"))?;
    }

    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let fd_bg = Arc::clone(&fd);
    let thread = std::thread::Builder::new()
        .name("seu-door-upkeep".to_string())
        .spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(500));
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Some(w) = watcher.as_mut() {
                    adopt(&fd_bg, w, &mut hosts_ids);
                }
                fd_bg.probe_once();
            }
        })
        .map_err(|e| io_err("spawning front-door upkeep thread", e))?;
    let runtime = FrontDoorRuntime {
        stop,
        thread: Some(thread),
    };
    let admin = seu_net::AdminServer::bind(fd.clone(), listen)
        .map_err(|e| io_err(&format!("binding {listen}"), e))?;
    Ok((admin, fd, runtime))
}

/// `seu front-door`: run a two-tier federation front-door until killed —
/// consistent-hash placement over broker replicas, breaker failover,
/// admin/metrics over HTTP.
pub fn front_door(
    replicas: &[String],
    hosts_file: Option<&Path>,
    engines: &[String],
    listen: &str,
    vnodes: usize,
    replication: usize,
    out: &mut dyn Write,
) -> Result<(), String> {
    seu_net::register_metrics();
    seu_metasearch::federation::register_metrics();
    let (admin, fd, _runtime) =
        front_door_start(replicas, hosts_file, engines, listen, vnodes, replication)?;
    writeln!(
        out,
        "front-door: {} replicas, {} engines{}; admin listening on http://{}",
        fd.replica_count(),
        fd.len(),
        match hosts_file {
            Some(path) => format!(", watching {}", path.display()),
            None => String::new(),
        },
        admin.addr()
    )
    .and_then(|()| out.flush())
    .map_err(|e| io_err("writing output", e))?;
    park_forever()
}

/// `seu snapshot`: register engine files against a store-attached
/// broker (every representative is written through, one-byte
/// quantized) and commit a consistent registry cut — the manifest a
/// later `seu restore` or `seu serve --store` rebuilds from.
pub fn snapshot(
    engines: &[PathBuf],
    store: &Path,
    shards: usize,
    out: &mut dyn Write,
) -> Result<(), String> {
    let broker = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .store(store)
        .map_err(|e| io_err(&format!("opening store {}", store.display()), e))?
        .build();
    register_files(&broker, engines)?;
    let manifest = broker
        .snapshot_registry()
        .map_err(|e| io_err("committing snapshot", e))?;
    for e in &manifest.entries {
        writeln!(
            out,
            "{:<20} {:>8} terms  {:>10} stored bytes",
            e.name, e.repr_terms, e.repr_bytes
        )
        .map_err(|e| io_err("writing output", e))?;
    }
    writeln!(
        out,
        "snapshot: {} engines (epoch {}) -> {}",
        manifest.entries.len(),
        manifest.epoch,
        store.display()
    )
    .map_err(|e| io_err("writing output", e))
}

/// `seu restore`: rebuild a registry from a store's committed manifest
/// and report it. Entries come up detached — plannable but not
/// dispatchable — so with `-q` the command prints estimates (which
/// hydrate the representatives lazily), demonstrating the paper's
/// claim that selection needs only the broker-side metadata.
pub fn restore(
    store: &Path,
    query: Option<&str>,
    threshold: f64,
    shards: usize,
    no_cache: bool,
    out: &mut dyn Write,
) -> Result<(), String> {
    let mut builder = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .store(store)
        .map_err(|e| io_err(&format!("opening store {}", store.display()), e))?;
    if no_cache {
        builder = builder.cache_bytes(0);
    }
    let broker = builder.build();
    let n = broker
        .restore()
        .map_err(|e| io_err("restoring registry", e))?;
    writeln!(
        out,
        "restored {n} engines (epoch {}) from {}",
        broker.registry_epoch(),
        store.display()
    )
    .map_err(|e| io_err("writing output", e))?;
    for s in broker.engine_statuses() {
        writeln!(
            out,
            "{:<20} shard {}  epoch {}  {:>8} terms{}{}",
            s.name,
            s.shard,
            s.epoch,
            s.repr_terms,
            if s.detached { "  detached" } else { "" },
            match &s.endpoint {
                Some(e) => format!("  was {e}"),
                None => String::new(),
            }
        )
        .map_err(|e| io_err("writing output", e))?;
    }
    if let Some(query_text) = query {
        for e in broker.estimate_all(query_text, threshold) {
            writeln!(
                out,
                "{:<20} est NoDoc {:.2}  AvgSim {:.3}",
                e.engine, e.usefulness.no_doc, e.usefulness.avg_sim
            )
            .map_err(|e| io_err("writing output", e))?;
        }
    }
    Ok(())
}

/// Builds the engine server for `seu serve-engine` without blocking,
/// with the default worker count.
pub fn serve_engine_start(
    engine_path: &Path,
    name: Option<&str>,
    listen: &str,
) -> Result<seu_net::EngineServer, String> {
    serve_engine_start_with(engine_path, name, listen, seu_net::ServerConfig::default())
}

/// [`serve_engine_start`] with an explicit worker count.
pub fn serve_engine_start_with(
    engine_path: &Path,
    name: Option<&str>,
    listen: &str,
    config: seu_net::ServerConfig,
) -> Result<seu_net::EngineServer, String> {
    let name = name
        .map(str::to_string)
        .unwrap_or_else(|| file_stem(engine_path));
    seu_net::EngineServer::bind_with(name, load_engine(engine_path)?, listen, config)
        .map_err(|e| io_err(&format!("binding {listen}"), e))
}

/// `seu serve-engine`: serve one engine over the framed TCP protocol
/// until killed.
pub fn serve_engine(
    engine_path: &Path,
    name: Option<&str>,
    listen: &str,
    config: seu_net::ServerConfig,
    out: &mut dyn Write,
) -> Result<(), String> {
    seu_net::register_metrics();
    let server = serve_engine_start_with(engine_path, name, listen, config)?;
    writeln!(
        out,
        "engine {} listening on {}",
        server.name(),
        server.addr()
    )
    .and_then(|()| out.flush())
    .map_err(|e| io_err("writing output", e))?;
    park_forever()
}

/// Blocks the main thread while server threads do the work; the process
/// exits via signal (there is no in-band shutdown command by design —
/// supervisors own serve lifetimes).
fn park_forever() -> Result<(), String> {
    loop {
        std::thread::park();
    }
}

/// `seu refresh`: the broker-side metadata-propagation sweep, as a
/// file-based workflow. For each engine file, build its representative
/// and write it to `<repr-dir>/<engine-stem>.repr`; with `--stale-only`,
/// leave a file alone when it already holds exactly the bytes this
/// build would write, so a file is rewritten whenever what it says about
/// the collection changed.
pub fn refresh(
    engines: &[PathBuf],
    repr_dir: &Path,
    stale_only: bool,
    out: &mut dyn Write,
) -> Result<(), String> {
    fs::create_dir_all(repr_dir)
        .map_err(|e| io_err(&format!("creating {}", repr_dir.display()), e))?;
    let mut refreshed = 0usize;
    for path in engines {
        let engine = load_engine(path)?;
        let stem = file_stem(path);
        let repr_path = repr_dir.join(format!("{stem}.repr"));
        let record =
            EngineRecord::of_engine(&stem, &engine, Representative::build(engine.collection()));
        let bytes = record_to_bytes(&record);
        if stale_only && fs::read(&repr_path).is_ok_and(|old| old[..] == bytes[..]) {
            writeln!(out, "{stem}: up to date").map_err(|e| io_err("writing output", e))?;
            continue;
        }
        fs::write(&repr_path, &bytes)
            .map_err(|e| io_err(&format!("writing {}", repr_path.display()), e))?;
        writeln!(
            out,
            "{stem}: {} terms over {} documents -> {} ({} bytes)",
            record.repr.distinct_terms(),
            record.repr.n_docs(),
            repr_path.display(),
            bytes.len()
        )
        .map_err(|e| io_err("writing output", e))?;
        refreshed += 1;
    }
    writeln!(
        out,
        "refreshed {refreshed} of {} representatives",
        engines.len()
    )
    .map_err(|e| io_err("writing output", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seu-cli-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_to_string(f: impl FnOnce(&mut dyn Write) -> Result<(), String>) -> String {
        let mut buf = Vec::new();
        f(&mut buf).expect("command succeeds");
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn full_pipeline_index_repr_search_broker() {
        let dir = tmpdir("pipe");
        let docs = dir.join("docs");
        fs::create_dir_all(&docs).unwrap();
        fs::write(docs.join("a.txt"), "mushroom soup with cream").unwrap();
        fs::write(docs.join("b.txt"), "sourdough bread baking").unwrap();
        let engine_file = dir.join("cooking.bin");

        let msg = run_to_string(|out| index(&docs, &engine_file, false, out));
        assert!(msg.contains("indexed 2 documents"), "{msg}");

        let repr_file = dir.join("cooking.repr");
        let msg = run_to_string(|out| repr(&engine_file, &repr_file, out));
        assert!(msg.contains("representative: "), "{msg}");

        let msg = run_to_string(|out| search(&engine_file, "soup", 0.1, None, out));
        assert!(msg.contains("a.txt"), "{msg}");
        assert!(!msg.contains("b.txt"), "{msg}");

        let msg = run_to_string(|out| search(&engine_file, "soup bread", 0.0, Some(1), out));
        assert!(msg.starts_with("1 hits"), "{msg}");

        // Broker over one engine (sharded registries answer the same).
        for shards in [1, 4] {
            let msg = run_to_string(|out| {
                broker(
                    std::slice::from_ref(&engine_file),
                    "mushroom soup",
                    0.2,
                    shards,
                    false,
                    out,
                )
            });
            assert!(msg.contains("selected: [\"cooking\"]"), "{msg}");
        }

        // Estimate works from the portable representative alone.
        let msg = run_to_string(|out| estimate(&repr_file, "soup", 0.1, out));
        assert!(msg.contains("estimated NoDoc"), "{msg}");
        assert!(msg.contains("rounded 1"), "{msg}");
        // Unknown query terms estimate zero.
        let msg = run_to_string(|out| estimate(&repr_file, "zebra", 0.1, out));
        assert!(msg.contains("rounded 0"), "{msg}");

        fs::remove_dir_all(&dir).unwrap();
    }

    /// The `(NoDoc, AvgSim)` a command printed, as printed: the words
    /// after `NoDoc` and `AvgSim` on its first line.
    fn printed_estimate(msg: &str) -> (String, String) {
        let line = msg.lines().next().unwrap_or_default();
        let after = |label: &str| {
            let rest = &line[line.find(label).expect(label) + label.len()..];
            let word = rest.split_whitespace().next().unwrap_or_default();
            word.trim_end_matches(',').to_string()
        };
        (after("NoDoc"), after("AvgSim"))
    }

    #[test]
    fn estimate_from_a_stemmed_repr_matches_the_broker() {
        let dir = tmpdir("stem");
        let docs = dir.join("docs");
        fs::create_dir_all(&docs).unwrap();
        fs::write(docs.join("a.txt"), "relational databases and query plans").unwrap();
        fs::write(docs.join("b.txt"), "distributed database systems").unwrap();
        let engine_file = dir.join("dbs.bin");
        run_to_string(|out| index(&docs, &engine_file, true, out));

        let from_broker = run_to_string(|out| {
            broker(
                std::slice::from_ref(&engine_file),
                "databases",
                0.1,
                1,
                true,
                out,
            )
        });
        assert_eq!(printed_estimate(&from_broker).0, "2.00", "{from_broker}");
        let repr_file = dir.join("dbs.repr");
        run_to_string(|out| repr(&engine_file, &repr_file, out));
        let from_file = run_to_string(|out| estimate(&repr_file, "databases", 0.1, out));
        assert_eq!(
            printed_estimate(&from_file),
            printed_estimate(&from_broker),
            "{from_file} against {from_broker}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repr_writes_an_engine_with_terms_no_document_weighs() {
        let dir = tmpdir("unweighed");
        // tf-idf weighs `soup`, in every document, zero.
        let mut b = seu_engine::CollectionBuilder::new(
            Analyzer::paper_default(),
            WeightingScheme::CosineTfIdf,
        );
        b.add_document("d0", "mushroom soup");
        b.add_document("d1", "tomato soup");
        let engine_file = dir.join("tfidf.bin");
        fs::write(&engine_file, b.build().to_bytes()).unwrap();
        let repr_file = dir.join("tfidf.repr");
        run_to_string(|out| repr(&engine_file, &repr_file, out));

        let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
        broker.register("tfidf", load_engine(&engine_file).unwrap());
        let bits = |u: Usefulness| (u.no_doc.to_bits(), u.avg_sim.to_bits());
        for query in ["mushroom soup", "soup", "tomato"] {
            let served = broker.estimate_all(query, 0.1)[0].usefulness;
            let from_file = estimate_file(&repr_file, query, 0.1).unwrap();
            assert_eq!(bits(from_file), bits(served), "{query:?}");
        }
        let engines = [engine_file];
        let msg = run_to_string(|out| refresh(&engines, &dir.join("reprs"), false, out));
        assert!(msg.contains("refreshed 1 of 1"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_unquantized_repr_estimates_bit_identically_to_the_broker() {
        let dir = tmpdir("exact");
        let docs = dir.join("docs");
        fs::create_dir_all(&docs).unwrap();
        fs::write(docs.join("a.txt"), "relational databases and query plans").unwrap();
        fs::write(docs.join("b.txt"), "distributed database systems").unwrap();
        fs::write(docs.join("c.txt"), "querying distributed systems at scale").unwrap();
        let engine_file = dir.join("dbs.bin");
        run_to_string(|out| index(&docs, &engine_file, true, out));
        let repr_file = dir.join("dbs.repr");
        run_to_string(|out| repr(&engine_file, &repr_file, out));

        let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
        broker.register("dbs", load_engine(&engine_file).unwrap());
        let bits = |u: Usefulness| (u.no_doc.to_bits(), u.avg_sim.to_bits());
        for query in ["databases", "distributed query systems", "zebra", ""] {
            for threshold in [0.0, 0.1, 0.4] {
                let served = broker.estimate_all(query, threshold)[0].usefulness;
                let from_file = estimate_file(&repr_file, query, threshold).unwrap();
                assert_eq!(bits(from_file), bits(served), "{query:?} at {threshold}");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn refresh_rebuilds_only_stale_representatives() {
        let dir = tmpdir("refresh");
        let docs = dir.join("docs");
        fs::create_dir_all(&docs).unwrap();
        fs::write(docs.join("a.txt"), "mushroom soup with cream").unwrap();
        let engine_file = dir.join("cooking.bin");
        run_to_string(|out| index(&docs, &engine_file, false, out));

        let repr_dir = dir.join("reprs");
        let engines = vec![engine_file.clone()];

        // No representative on disk: --stale-only rebuilds it.
        let msg = run_to_string(|out| refresh(&engines, &repr_dir, true, out));
        assert!(msg.contains("refreshed 1 of 1"), "{msg}");
        assert!(repr_dir.join("cooking.repr").exists());

        // Unchanged collection: --stale-only skips it.
        let msg = run_to_string(|out| refresh(&engines, &repr_dir, true, out));
        assert!(msg.contains("up to date"), "{msg}");
        assert!(msg.contains("refreshed 0 of 1"), "{msg}");

        // The collection grows (re-index with one more document): the
        // representative no longer matches and is rebuilt.
        fs::write(docs.join("b.txt"), "a second document about porcini").unwrap();
        run_to_string(|out| index(&docs, &engine_file, false, out));
        let msg = run_to_string(|out| refresh(&engines, &repr_dir, true, out));
        assert!(msg.contains("refreshed 1 of 1"), "{msg}");

        // One word swapped for another of the same length: document
        // count and raw byte total are unchanged, yet the representative
        // is out of date and is rebuilt.
        fs::write(docs.join("a.txt"), "mushroom stew with cream").unwrap();
        run_to_string(|out| index(&docs, &engine_file, false, out));
        let msg = run_to_string(|out| refresh(&engines, &repr_dir, true, out));
        assert!(msg.contains("refreshed 1 of 1"), "{msg}");
        let repr_file = repr_dir.join("cooking.repr");
        let msg = run_to_string(|out| estimate(&repr_file, "stew", 0.1, out));
        assert!(msg.contains("rounded 1"), "{msg}");

        // Without --stale-only everything is rebuilt unconditionally.
        let msg = run_to_string(|out| refresh(&engines, &repr_dir, false, out));
        assert!(msg.contains("refreshed 1 of 1"), "{msg}");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_mbox_file() {
        let dir = tmpdir("mbox");
        let mbox = dir.join("group.mbox");
        fs::write(
            &mbox,
            "From a\nSubject: soup\n\nporcini question\n\nFrom b\n\nbread answer\n",
        )
        .unwrap();
        let engine_file = dir.join("group.bin");
        let msg = run_to_string(|out| index(&mbox, &engine_file, false, out));
        assert!(msg.contains("indexed 2 documents"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_files_error_cleanly() {
        let dir = tmpdir("bad");
        let bad = dir.join("bad.bin");
        fs::write(&bad, b"garbage").unwrap();
        assert!(load_engine(&bad).unwrap_err().contains("not a valid"));
        assert!(search(&bad, "x", 0.1, None, &mut Vec::new()).is_err());
        assert!(estimate(&bad, "x", 0.1, &mut Vec::new()).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
