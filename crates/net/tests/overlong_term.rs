//! A word no format can write is not a term. Every format writes a term
//! behind a `u16` length, so the staging path drops a longer token: no
//! vocabulary holds it, the engine file, the store and the wire each
//! write and read back what the collection holds, and an engine server
//! answers for its representative and finds nothing for the word.

use seu_engine::{Collection, CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{open_tiered, EngineRecord, ReprStore};
use seu_net::frame::{read_frame, write_frame_corr};
use seu_net::wire::{record_from_bytes, record_to_bytes, Message};
use seu_net::EngineServer;
use seu_repr::Representative;
use seu_text::{Analyzer, Vocabulary};
use std::net::TcpStream;
use std::time::Duration;

/// A word of 70 000 letters: past a `u16` length.
fn long_word() -> String {
    "x".repeat(70_000)
}

fn engine() -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", &format!("soup {}", long_word()));
    b.add_tokens("d1", &["stew".to_string(), long_word()]);
    SearchEngine::new(b.build())
}

fn terms(vocab: &Vocabulary) -> Vec<String> {
    vocab.iter().map(|(_, t)| t.to_string()).collect()
}

fn send(stream: &mut TcpStream, corr: u64, message: &Message) {
    let (kind, payload) = message.encode();
    write_frame_corr(stream, corr, kind, &payload).expect("writing a request");
}

fn call(stream: &mut TcpStream, corr: u64, message: &Message) -> Message {
    send(stream, corr, message);
    let frame = read_frame(stream).expect("a reply");
    assert_eq!(frame.corr, corr);
    Message::decode(frame.kind, &frame.payload).expect("a decodable reply")
}

#[test]
fn a_word_too_long_to_write_is_in_no_vocabulary() {
    let engine = engine();
    let c = engine.collection();
    assert_eq!(terms(c.vocab()), ["soup", "stew"]);
    assert!(c.vocab().get(&long_word()).is_none());
    assert!(c.query_from_text(&long_word()).is_empty());
    assert_eq!(c.docs()[0].len, 1, "the dropped token is not counted");
}

#[test]
fn the_collection_round_trips_through_every_format() {
    let engine = engine();
    let c = engine.collection();

    let restored = Collection::from_bytes(c.to_bytes()).expect("the engine file reads back");
    assert_eq!(restored.fingerprint(), c.fingerprint());

    let record = EngineRecord::of_engine("long", &engine, Representative::build(c));
    let root = std::env::temp_dir().join(format!("seu-overlong-term-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = open_tiered(&root, 0).unwrap();
    let put = store.put(&record).expect("the store writes the record");
    let got = store.get(record.fingerprint).unwrap().expect("stored");
    assert_eq!(terms(&put.vocab), terms(&got.vocab));
    assert_eq!(terms(&got.vocab), ["soup", "stew"]);
    drop(store);
    let _ = std::fs::remove_dir_all(&root);

    let shipped = record_from_bytes(&record_to_bytes(&record)).expect("the wire reads it back");
    assert_eq!(terms(&shipped.vocab), ["soup", "stew"]);
    let (kind, payload) = Message::Representative {
        snapshot: record.into(),
    }
    .encode();
    assert_eq!(kind, 8);
    match Message::decode(kind, &payload) {
        Ok(Message::Representative { snapshot }) => {
            assert_eq!(terms(&snapshot.vocab), ["soup", "stew"])
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn the_engine_server_answers_and_finds_nothing_for_the_word() {
    let server = EngineServer::bind("long", engine(), "127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    call(&mut stream, 1, &Message::Hello { subscribe: false });

    match call(&mut stream, 2, &Message::GetRepresentative) {
        Message::Representative { snapshot } => {
            assert_eq!(terms(&snapshot.vocab), ["soup", "stew"])
        }
        other => panic!("the representative call is answered: {other:?}"),
    }
    let search = |stream: &mut TcpStream, corr, query: String| match call(
        stream,
        corr,
        &Message::SearchDocs {
            query,
            threshold: 0.0,
        },
    ) {
        Message::SearchResults { hits } => hits,
        other => panic!("{other:?}"),
    };
    assert!(search(&mut stream, 3, long_word()).is_empty());
    let soup = search(&mut stream, 4, "soup".to_string());
    assert_eq!(soup.len(), 1);
    assert_eq!(soup[0].doc, "d0");
}
