//! A registry sweep leaves no thread behind: its workers are scoped to
//! the sweep and gone when `refresh_if_stale` / `hydrate` return.
//!
//! The file holds one test on purpose: it reads this process's threads
//! from `/proc`, and a test binary of its own keeps other tests' threads
//! out of them.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::Broker;
use seu_text::Analyzer;

fn engine(text: &str) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", text);
    SearchEngine::new(b.build())
}

/// The names of this process's threads, as `/proc` keeps them.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("a /proc filesystem")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
fn a_sweep_leaves_no_thread_behind() {
    let broker = Broker::builder(SubrangeEstimator::paper_six_subrange())
        .shards(8)
        .build();
    for i in 0..32 {
        broker.register(&format!("engine{i}"), engine("mushroom soup"));
    }
    for i in (0..32).step_by(3) {
        let name = format!("engine{i}");
        assert!(broker.replace_engine(&name, engine("tomato soup with cream")));
    }
    assert_eq!(broker.refresh_if_stale().len(), 11);
    let left: Vec<String> = thread_names()
        .into_iter()
        .filter(|n| n.starts_with("seu-pool-") || n.starts_with("seu-sweep-"))
        .collect();
    assert!(left.is_empty(), "threads outlived the sweep: {left:?}");
}
