//! The totals audit: each registry shard keeps a name → slot map beside
//! its entries and its own running totals of the engine-count and
//! representative-byte gauges, and every lifecycle step changes them by
//! the one entry it moved instead of recounting the shard. After each
//! step of a script — register, replace and refresh, attach, deregister
//! mid-shard, restore at another shard count, a hydration sweep —
//! [`Broker::audit_totals`] must find them equal to a from-scratch
//! recount (and [`Broker::audit_postings`] the postings likewise). The
//! audit reads each shard's own atomics, not the process-global gauges,
//! so other brokers in this binary cannot disturb it.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{Broker, EngineRecord, Representative};
use seu_text::Analyzer;
use std::path::Path;
use std::sync::Arc;

fn engine(i: usize, extra: &str) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", &format!("topic{i} shared soup {extra}"));
    b.add_document("d1", &format!("topic{i} bread walk{}", i % 3));
    SearchEngine::new(b.build())
}

fn name(i: usize) -> String {
    format!("engine-{i:02}")
}

fn store_broker(dir: &Path, shards: usize) -> Broker {
    Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .store(dir)
        .expect("open store")
        .build()
}

/// Books one step: the totals and the postings equal their recount.
fn book(step: &str, b: &Broker) {
    if let Err(why) = b.audit_totals() {
        panic!("after {step:?}: {why}");
    }
    if let Err(why) = b.audit_postings() {
        panic!("after {step:?}: {why}");
    }
}

const N: usize = 24;

#[test]
fn every_lifecycle_step_keeps_the_totals_current() {
    let dir = std::env::temp_dir().join(format!("seu-totals-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- registration, refused twins ----------------------------------
    let b = store_broker(&dir, 4);
    book("build", &b);
    for i in 0..N {
        b.register(&name(i), engine(i, ""));
        book(&format!("register {}", name(i)), &b);
    }
    b.register(&name(3), engine(99, "twin"));
    book("register a held name", &b);
    let twin = Arc::new(engine(98, "twin"));
    let shipped = Arc::new(EngineRecord::of_engine(
        &name(5),
        &twin,
        Representative::build(twin.collection()),
    ));
    assert!(b.install_snapshot(shipped, Some(twin), None).is_err());
    book("install_snapshot under a held name", &b);
    assert_eq!(b.len(), N);
    assert!((0..N).all(|i| b.contains(&name(i))));

    // --- replace and refresh (the representative grows) ---------------
    assert!(b.replace_engine(&name(7), engine(7, "porcini risotto parmesan")));
    book("replace_engine", &b);
    assert_eq!(b.refresh_if_stale(), [name(7)]);
    book("refresh_if_stale", &b);
    assert!(b.refresh_representative(&name(8)));
    book("refresh_representative", &b);

    // --- deregister mid-shard, then register again --------------------
    for i in [10, 0, N - 1] {
        assert!(b.deregister(&name(i)));
        assert!(!b.contains(&name(i)));
        book(&format!("deregister {}", name(i)), &b);
    }
    assert!(!b.deregister(&name(10)));
    book("deregister an unknown name", &b);
    b.register(&name(10), engine(10, "again"));
    book("register again", &b);
    b.snapshot_registry().expect("snapshot");
    book("snapshot_registry", &b);
    let held = b.engine_names();

    // --- restore at another shard count, hydrate, attach ---------------
    let c = store_broker(&dir, 3);
    assert_eq!(c.restore().expect("restore"), held.len());
    book("restore (cold)", &c);
    assert_eq!(c.engine_names(), held);
    assert!(c.deregister(&name(4)));
    book("deregister while cold", &c);
    assert!(c.attach_engine(&name(2), engine(2, "")));
    book("attach_engine (hydrates every entry first)", &c);
    assert_eq!(c.hydrate(), 0);
    book("hydrate again", &c);
    assert!(c.attach_engine(&name(6), engine(6, "changed while down")));
    book("attach_engine differing", &c);
    assert!(c.deregister(&name(12)));
    book("deregister after hydration", &c);

    // --- a restore swept eagerly ----------------------------------------
    let d = store_broker(&dir, 1);
    assert_eq!(d.restore().expect("restore"), held.len());
    book("restore flat", &d);
    assert_eq!(d.hydrate(), held.len());
    book("hydration sweep", &d);
    for i in [2, 6] {
        assert!(d.attach_engine(&name(i), engine(i, "")));
        book(&format!("attach_engine {}", name(i)), &d);
    }

    drop((b, c, d));
    let _ = std::fs::remove_dir_all(&dir);
}
