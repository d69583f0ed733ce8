//! A hydration opens each segment file once. `Broker::hydrate` reads
//! every restored record through one store `Sweep`, so hydrating 64
//! engines stored in one segment is 64 cold reads and one open
//! (`broker_store_segment_opens_total`), where reading each record on
//! its own opens the segment once a record. Its own binary: it reads
//! process-global counters.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::Broker;
use seu_text::Analyzer;

fn engine(i: usize) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", &format!("topic{i} shared soup"));
    b.add_document("d1", &format!("topic{i} bread walk"));
    SearchEngine::new(b.build())
}

fn store_broker(dir: &std::path::Path, shards: usize) -> Broker {
    Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(shards)
        .store(dir)
        .expect("open store")
        .build()
}

#[test]
fn a_hydration_opens_each_segment_once() {
    const N: u64 = 64;
    let dir = std::env::temp_dir().join(format!("seu-hydrate-opens-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let live = store_broker(&dir, 4);
    for i in 0..N as usize {
        live.register(&format!("engine-{i}"), engine(i));
    }
    live.snapshot_registry().expect("snapshot");
    drop(live);

    let opens = seu_obs::counter("broker_store_segment_opens_total");
    let cold_reads = seu_obs::counter("broker_store_cold_hits_total");
    let restored = store_broker(&dir, 4);
    assert_eq!(restored.restore().expect("restore"), N as usize);
    let before = (opens.get(), cold_reads.get());
    assert_eq!(restored.hydrate(), N as usize);
    let read = (opens.get() - before.0, cold_reads.get() - before.1);
    assert_eq!(read, (1, N), "(segment opens, cold reads) of one hydration");
    std::fs::remove_dir_all(&dir).ok();
}
