//! One rule for in-band errors on a multiplexed connection: a
//! well-framed, decodable request the service does not serve gets a
//! typed `Error` on its own correlation id, and the connection — with
//! every request pipelined beside it — stays open.
//!
//! The file holds one test on purpose: it reads the process-global
//! `net_client_connects_total`, and a test binary of its own keeps
//! other tests' dials out of that count.

use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::federation::ReplicaClient;
use seu_metasearch::TransportErrorKind;
use seu_net::frame::{read_frame, write_frame_corr};
use seu_net::wire::Message;
use seu_net::{EngineServer, RemoteReplica};
use seu_text::Analyzer;
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

fn engine() -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", "soup recipes with wild mushrooms");
    b.add_document("d1", "relational databases and query optimization");
    SearchEngine::new(b.build())
}

fn send(stream: &mut TcpStream, corr: u64, message: &Message) {
    let (kind, payload) = message.encode();
    write_frame_corr(stream, corr, kind, &payload).expect("writing a request");
}

fn connects() -> u64 {
    seu_obs::global()
        .snapshot()
        .counters
        .get("net_client_connects_total")
        .copied()
        .unwrap_or(0)
}

#[test]
fn an_unserved_kind_is_answered_in_band_and_the_connection_survives() {
    let server = EngineServer::bind("pantry", engine(), "127.0.0.1:0").unwrap();

    // Raw socket: three requests written back to back on one
    // multiplexed connection, the first of a kind only replicas serve.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    send(&mut stream, 7, &Message::Hello { subscribe: false });
    let ack = read_frame(&mut stream).expect("handshake ack");
    assert_eq!(ack.corr, 7, "the server must echo correlation ids");

    send(
        &mut stream,
        1,
        &Message::ReplicaPlan {
            query: "mushroom soup".to_string(),
            threshold: 0.1,
            engines: vec!["pantry".to_string()],
            policy: None,
        },
    );
    send(&mut stream, 2, &Message::Ping);
    send(
        &mut stream,
        3,
        &Message::SearchDocs {
            query: "mushroom soup".to_string(),
            threshold: 0.05,
        },
    );
    let mut replies = HashMap::new();
    for _ in 0..3 {
        let frame = read_frame(&mut stream).expect("every pipelined corr is answered");
        let message = Message::decode(frame.kind, &frame.payload).expect("decodable reply");
        replies.insert(frame.corr, message);
    }
    assert!(
        matches!(&replies[&1], Message::Error { detail } if detail.contains("kind 28")),
        "the unserved kind gets a typed error naming it: {:?}",
        replies[&1]
    );
    assert!(matches!(replies[&2], Message::Pong), "{:?}", replies[&2]);
    assert!(
        matches!(&replies[&3], Message::SearchResults { hits } if !hits.is_empty()),
        "the search pipelined behind the refusal still answers: {:?}",
        replies[&3]
    );
    // And the connection is still serving.
    send(&mut stream, 4, &Message::Ping);
    let frame = read_frame(&mut stream).expect("connection stayed open");
    assert_eq!((frame.corr, frame.payload.len()), (4, 0));

    // The pooled client sees the same: a refused call is a typed
    // `Remote` error and the next call reuses the connection.
    let client = RemoteReplica::new(server.addr()).unwrap();
    let err = client
        .estimate_subset("mushroom soup", 0.1, &["pantry".to_string()])
        .expect_err("an engine server serves no replica kinds");
    assert_eq!(err.kind, TransportErrorKind::Remote, "{err}");
    let dialed = connects();
    client.ping().expect("the pooled connection survived");
    assert_eq!(connects(), dialed, "the refusal must not cost a redial");
}
