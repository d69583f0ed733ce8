//! Restore-then-lifecycle conformance: a broker restored from a
//! persistent store must behave **bit-identically** to the broker that
//! wrote the snapshot.
//!
//! Write-through canonicalization means a live store-attached broker
//! already serves the quantized round-trip of every representative, so
//! a restored broker decoding the very same bytes must produce the
//! same `est_NoDoc` / `est_AvgSim` down to the last bit — across shard
//! counts, after re-attaching live engines, and after the full
//! lifecycle (replace / refresh sweep / push invalidation) runs against
//! hydrated *and* still-cold entries. The suite also pins the
//! cold-start cache contract: a restored broker's query cache starts
//! empty, so it can never serve a response cached before the restart.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{
    Broker, CacheTier, DispatchOutcome, EntryKind, MergedHit, SearchRequest, SelectionPolicy,
    StoreErrorKind, TransportErrorKind,
};
use seu_net::{EngineServer, RemoteEngine};
use seu_text::Analyzer;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn engine_of(docs: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, d) in docs.iter().enumerate() {
        b.add_document(&format!("d{i}"), d);
    }
    SearchEngine::new(b.build())
}

/// Deterministic corpus with overlapping vocabulary, so every query
/// below produces non-trivial estimates on several engines.
fn corpus() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        (
            "alpha",
            vec![
                "database query index optimizer",
                "vector index search pruning",
                "query planner cost model",
            ],
        ),
        ("bravo", vec!["bread soup mushroom", "mushroom forest walk"]),
        (
            "charlie",
            vec![
                "network gradient descent",
                "gradient estimate variance",
                "network socket frame",
            ],
        ),
        (
            "delta",
            vec!["database shard broker epoch", "broker cache latency"],
        ),
        (
            "echo",
            vec![
                "term weight cosine",
                "cosine similarity merge",
                "rank merge select",
            ],
        ),
        (
            "foxtrot",
            vec!["corpus token stem", "stem token rank retrieval"],
        ),
    ]
}

const QUERIES: &[&str] = &[
    "database query",
    "mushroom soup",
    "gradient network frame",
    "cosine merge rank",
    "token retrieval",
    "zebra xylophone",
];

const THRESHOLDS: &[f64] = &[0.0, 0.1, 0.25];

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "seu-store-restore-{}-{tag}-{n}",
        std::process::id()
    ))
}

fn store_broker(dir: &PathBuf, shards: usize) -> Broker<SubrangeEstimator> {
    Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .store(dir)
        .expect("open store")
        .build()
}

/// Estimates must agree bit for bit — engine order, `est_NoDoc`, and
/// `est_AvgSim` — over the whole query × threshold matrix.
fn assert_estimates_identical(
    live: &Broker<SubrangeEstimator>,
    restored: &Broker<SubrangeEstimator>,
    ctx: &str,
) {
    for query in QUERIES {
        for &t in THRESHOLDS {
            let a = live.estimate_all(query, t);
            let b = restored.estimate_all(query, t);
            assert_eq!(a.len(), b.len(), "{ctx}: engine count for {query:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.engine, y.engine, "{ctx}: order for {query:?}");
                assert_eq!(
                    x.usefulness.no_doc.to_bits(),
                    y.usefulness.no_doc.to_bits(),
                    "{ctx}: est_NoDoc for {} at {query:?}/{t} ({} vs {})",
                    x.engine,
                    x.usefulness.no_doc,
                    y.usefulness.no_doc,
                );
                assert_eq!(
                    x.usefulness.avg_sim.to_bits(),
                    y.usefulness.avg_sim.to_bits(),
                    "{ctx}: est_AvgSim for {} at {query:?}/{t} ({} vs {})",
                    x.engine,
                    x.usefulness.avg_sim,
                    y.usefulness.avg_sim,
                );
            }
        }
    }
}

fn assert_hits_identical(a: &[MergedHit], b: &[MergedHit], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: hit count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!((&x.engine, &x.doc), (&y.engine, &y.doc), "{ctx}: hit order");
        assert_eq!(
            x.sim.to_bits(),
            y.sim.to_bits(),
            "{ctx}: sim for {}/{}",
            x.engine,
            x.doc
        );
    }
}

#[test]
fn restored_estimates_are_bit_identical_across_shard_counts() {
    let dir = tmp_dir("estimates");
    let live = store_broker(&dir, 2);
    for (name, docs) in corpus() {
        live.register(name, engine_of(&docs));
    }
    let manifest = live.snapshot_registry().expect("snapshot");
    assert_eq!(manifest.entries.len(), corpus().len());
    assert!(manifest
        .entries
        .iter()
        .all(|e| matches!(e.kind, EntryKind::Local)));
    // Entries come out in registration (seq) order regardless of shard.
    let names: Vec<&str> = manifest.entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, corpus().iter().map(|(n, _)| *n).collect::<Vec<_>>());

    // The restored broker may re-shard the registry; estimates must not
    // care.
    for shards in [1, 2, 4] {
        let restored = store_broker(&dir, shards);
        assert_eq!(restored.restore().expect("restore"), corpus().len());
        // Serving before hydration: statuses report the manifest's
        // bookkeeping without touching the cold tier.
        for s in restored.engine_statuses() {
            assert!(s.detached, "restored entry {} must be detached", s.name);
            assert!(!s.stale, "restored entry {} must not be stale", s.name);
            assert!(s.repr_terms > 0, "cold bookkeeping for {}", s.name);
        }
        if shards == 2 {
            // Same shard count as the snapshotting broker: the epoch cut
            // is reproduced exactly.
            assert_eq!(restored.registry_epoch(), live.registry_epoch());
        }
        // The first plan hydrates lazily; estimates are bit-identical.
        assert_estimates_identical(&live, &restored, &format!("shards={shards}"));
        // Everything is warm now: an explicit hydrate is a no-op.
        assert_eq!(restored.hydrate(), 0);
        assert!(restored.engine_statuses().iter().all(|s| s.detached));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_and_restore_require_store_and_empty_registry() {
    let plain = Broker::new(SubrangeEstimator::paper_six_subrange());
    assert_eq!(
        plain.snapshot_registry().expect_err("no store").kind,
        StoreErrorKind::Invalid
    );
    assert_eq!(
        plain.restore().expect_err("no store").kind,
        StoreErrorKind::Invalid
    );
    assert!(!plain.has_store());

    let dir = tmp_dir("guards");
    let b = store_broker(&dir, 1);
    assert!(b.has_store());
    // A fresh store holds an empty manifest: restore is a no-op, not an
    // error.
    assert_eq!(b.restore().expect("empty manifest"), 0);
    b.register("alpha", engine_of(&["database query"]));
    // Restore is a cold-start operation, never a merge.
    assert_eq!(
        b.restore().expect_err("non-empty").kind,
        StoreErrorKind::Invalid
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn detached_dispatch_fails_until_attach_then_hits_match() {
    let dir = tmp_dir("attach");
    let live = store_broker(&dir, 2);
    for (name, docs) in corpus() {
        live.register(name, engine_of(&docs));
    }
    live.snapshot_registry().expect("snapshot");
    let req = SearchRequest::new("database query")
        .threshold(0.0)
        .policy(SelectionPolicy::All);
    let live_resp = live.execute(&req);
    assert!(live_resp.is_complete());

    let restored = store_broker(&dir, 2);
    restored.restore().expect("restore");
    // Plans work immediately, but a detached entry has nothing to
    // dispatch to: every selected engine fails with a typed refusal.
    let resp = restored.execute(&req);
    assert!(!resp.is_complete());
    assert!(resp.hits.is_empty());
    assert!(!resp.per_engine_stats.is_empty());
    for s in &resp.per_engine_stats {
        assert_eq!(s.outcome, DispatchOutcome::Failed, "{s:?}");
        assert_eq!(
            s.error.as_ref().expect("refusal error").kind,
            TransportErrorKind::Refused,
            "{s:?}"
        );
    }

    // One engine attached, the rest still detached: the live engine's
    // batch and the refusals travel through the pool differently, and
    // every outcome still lands on its own engine, in plan order.
    let (first, docs) = corpus().swap_remove(0);
    assert!(restored.attach_engine(first, engine_of(&docs)), "{first}");
    let resp = restored.execute(&req);
    assert_eq!(
        resp.per_engine_stats.len(),
        live_resp.per_engine_stats.len()
    );
    for (s, live_s) in resp
        .per_engine_stats
        .iter()
        .zip(&live_resp.per_engine_stats)
    {
        assert_eq!(s.engine, live_s.engine);
        if s.engine == first {
            assert_eq!(s.outcome, DispatchOutcome::Completed, "{s:?}");
            assert_eq!(s.hits, live_s.hits, "{s:?}");
        } else {
            assert_eq!(s.outcome, DispatchOutcome::Failed, "{s:?}");
        }
    }

    // Re-attach the same collections: the hydrated canonical
    // representatives and term maps are kept, so searches now match the
    // live broker bit for bit.
    for (name, docs) in corpus().into_iter().skip(1) {
        assert!(restored.attach_engine(name, engine_of(&docs)), "{name}");
    }
    let statuses = restored.engine_statuses();
    assert!(statuses.iter().all(|s| !s.detached && !s.stale));
    let resp = restored.execute(&req);
    assert!(resp.is_complete());
    assert_hits_identical(&live_resp.hits, &resp.hits, "post-attach");
    assert_estimates_identical(&live, &restored, "post-attach");
    // Nothing is detached anymore; a second attach finds no target.
    assert!(!restored.attach_engine("alpha", engine_of(&["database query"])));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replace_engine_after_restore_reconciles_like_live_broker() {
    let dir = tmp_dir("replace");
    let live = store_broker(&dir, 2);
    for (name, docs) in corpus() {
        live.register(name, engine_of(&docs));
    }
    live.snapshot_registry().expect("snapshot");

    let new_docs = [
        "database query rewrite engine",
        "fresh index build pipeline",
    ];
    // Live path: the collection changes under an unchanged registry
    // entry, goes stale, and a sweep reconciles it.
    assert!(live.replace_engine("alpha", engine_of(&new_docs)));
    assert_eq!(live.is_stale("alpha"), Some(true));
    assert_eq!(live.refresh_if_stale(), vec!["alpha".to_string()]);
    assert_eq!(live.is_stale("alpha"), Some(false));

    // Restored path: same lifecycle against a restored entry.
    // replace_engine hydrates and swaps the handle in: different content
    // sidelines the entry until the sweep rebuilds it, exactly like the
    // live broker.
    let restored = store_broker(&dir, 2);
    restored.restore().expect("restore");
    assert!(restored.replace_engine("alpha", engine_of(&new_docs)));
    assert_eq!(restored.is_stale("alpha"), Some(true));
    assert_eq!(restored.refresh_if_stale(), vec!["alpha".to_string()]);
    assert_eq!(restored.is_stale("alpha"), Some(false));

    assert_estimates_identical(&live, &restored, "post-replace-sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn push_invalidation_reaches_cold_and_hydrated_entries() {
    let dir = tmp_dir("invalidate");
    let v1 = engine_of(&["database query index", "vector index search"]);
    let fp_v1 = v1.fingerprint();
    let v2_docs = ["broker cache latency report", "database epoch sweep"];
    let fp_v2 = engine_of(&v2_docs).fingerprint();
    assert_ne!(fp_v1, fp_v2);

    let server = EngineServer::bind("alpha", v1, "127.0.0.1:0").expect("bind loopback");
    let live = store_broker(&dir, 2);
    let client = RemoteEngine::new(server.addr()).expect("resolve loopback");
    assert_eq!(
        live.register_remote(Arc::new(client)).expect("remote"),
        "alpha"
    );
    live.register("beta", engine_of(&["term weight cosine", "cosine merge"]));
    let manifest = live.snapshot_registry().expect("snapshot");
    assert!(manifest
        .entries
        .iter()
        .any(|e| matches!(&e.kind, EntryKind::Remote { endpoint } if !endpoint.is_empty())));

    // The engine re-indexes to v2 while the brokers are down.
    server.replace_engine(engine_of(&v2_docs));
    // Control: what a never-restarted broker registering v2 would serve.
    let control_dir = tmp_dir("invalidate-control");
    let control = store_broker(&control_dir, 2);
    let client = RemoteEngine::new(server.addr()).expect("resolve loopback");
    assert_eq!(
        control.register_remote(Arc::new(client)).expect("remote"),
        "alpha"
    );
    control.register("beta", engine_of(&["term weight cosine", "cosine merge"]));

    // Notices work against BOTH a still-cold and an already-hydrated
    // restored entry, with identical semantics.
    for hydrate_first in [false, true] {
        let ctx = if hydrate_first { "hydrated" } else { "cold" };
        let restored = store_broker(&dir, 2);
        restored.restore().expect("restore");
        if hydrate_first {
            assert!(restored.hydrate() > 0);
        }
        // A redelivered pre-snapshot notice describes the fingerprint
        // the manifest already holds: a no-op, even before hydration.
        assert_eq!(
            restored.apply_invalidation("alpha", fp_v1),
            Ok(true),
            "{ctx}"
        );
        assert_eq!(restored.is_stale("alpha"), Some(false), "{ctx}");
        // A genuinely new fingerprint cannot be refetched without a
        // transport: the entry is marked stale and the refusal is typed.
        let err = restored
            .apply_invalidation("alpha", fp_v2)
            .expect_err("detached refetch must fail");
        assert_eq!(err.kind, TransportErrorKind::Refused, "{ctx}");
        assert_eq!(restored.is_stale("alpha"), Some(true), "{ctx}");
        // Unknown names are reported as such, not errors.
        assert_eq!(
            restored.apply_invalidation("nobody", fp_v2),
            Ok(false),
            "{ctx}"
        );

        // Re-attaching the transport reconciles: the snapshot fetch
        // finds v2 and installs it (written through the store), so the
        // restored broker now matches the control bit for bit.
        let client = RemoteEngine::new(server.addr()).expect("resolve loopback");
        assert_eq!(restored.attach_remote(Arc::new(client)), Ok(true), "{ctx}");
        assert_eq!(restored.is_stale("alpha"), Some(false), "{ctx}");
        let statuses = restored.engine_statuses();
        let alpha = statuses.iter().find(|s| s.name == "alpha").expect("alpha");
        assert!(alpha.remote && !alpha.detached, "{ctx}: {alpha:?}");
        assert_estimates_identical(&control, &restored, ctx);
        // No detached entry is left for a second attach to claim.
        let client = RemoteEngine::new(server.addr()).expect("resolve loopback");
        assert_eq!(restored.attach_remote(Arc::new(client)), Ok(false), "{ctx}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&control_dir);
}

#[test]
fn restored_query_cache_starts_cold_and_never_serves_pre_restore_entries() {
    let dir = tmp_dir("cache");
    let live = store_broker(&dir, 2);
    for (name, docs) in corpus() {
        live.register(name, engine_of(&docs));
    }
    live.snapshot_registry().expect("snapshot");
    let req = SearchRequest::new("database query")
        .threshold(0.0)
        .policy(SelectionPolicy::All);
    // Warm the live broker's cache: the second execution is served from
    // the results tier without dispatching.
    let live_first = live.execute(&req);
    assert_eq!(live_first.served_from, None);
    assert_eq!(live.execute(&req).served_from, Some(CacheTier::Results));
    assert!(live.cache_stats().expect("cache on").hits >= 1);

    // The cache is per-broker-instance state and is NOT part of the
    // snapshot: a restored broker starts cold, so nothing cached before
    // the restart can ever be served after it.
    let restored = store_broker(&dir, 2);
    restored.restore().expect("restore");
    let stats = restored.cache_stats().expect("cache on");
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.hits, 0);
    for (name, docs) in corpus() {
        assert!(restored.attach_engine(name, engine_of(&docs)));
    }
    let first = restored.execute(&req);
    assert_eq!(first.served_from, None, "must not hit a pre-restore entry");
    assert_hits_identical(&live_first.hits, &first.hits, "first post-restore");
    // The cache itself works fine — it is merely fresh.
    assert_eq!(restored.execute(&req).served_from, Some(CacheTier::Results));
    let stats = restored.cache_stats().expect("cache on");
    assert_eq!(stats.hits, 1);
    assert!(stats.misses >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}
