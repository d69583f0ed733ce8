//! What `/proc` shows of the crate's threads: a call starts none, and
//! the ones that are started keep a name that tells them apart inside
//! Linux's 15 bytes (`/proc/<pid>/task/*/comm` cuts the rest).
//!
//! The file holds one test on purpose: it counts the process's threads,
//! and a test binary of its own keeps other tests' threads out of them.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::Broker;
use seu_net::{AdminServer, EngineServer, RemoteEngine};
use seu_text::Analyzer;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn engine() -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", "mushroom soup with cream");
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

/// Whether a thread of that name shows within a second: a new thread
/// names itself once it runs, and until then `/proc` shows the name of
/// the thread that started it.
fn has_thread(name: &str) -> bool {
    for _ in 0..100 {
        if thread_names().iter().any(|n| n == name) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn a_call_starts_no_thread_and_the_threads_started_are_named_to_fit() {
    let server = EngineServer::bind("pantry", engine(), "127.0.0.1:0").unwrap();
    // Once the server has answered, its loop is running; a ping starts
    // no worker.
    let warm = RemoteEngine::new(server.addr()).unwrap();
    warm.ping().unwrap();

    let before = thread_names();
    let client = RemoteEngine::new(server.addr()).unwrap();
    client.ping().unwrap();
    assert_eq!(
        thread_names().len(),
        before.len(),
        "a connection costs no thread: {before:?} -> {:?}",
        thread_names()
    );

    let subscription = client.subscribe_with(|_, _, _| {}).unwrap();
    assert!(has_thread("ns:pantry"), "{:?}", thread_names());
    subscription.close();

    let admin = AdminServer::bind(
        Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange())),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut stream = TcpStream::connect(admin.addr()).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        .unwrap();
    // The door closes only once the worker that served has parked.
    stream.read_to_end(&mut Vec::new()).unwrap();
    assert!(has_thread("nl:http"), "{:?}", thread_names());
    assert!(has_thread("nw0:http"), "{:?}", thread_names());
}
