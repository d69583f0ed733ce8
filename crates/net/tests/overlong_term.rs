//! A reply the encoder cannot write fails its own call, not the server.
//! Every format writes a term behind a `u16` length, and an engine built
//! in memory can hold a longer one; its representative is encoded on the
//! server's event loop, which must answer that call with a typed in-band
//! `Error` and keep serving the connection and every other one.

use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_net::frame::{read_frame, write_frame_corr};
use seu_net::wire::Message;
use seu_net::EngineServer;
use seu_text::Analyzer;
use std::net::TcpStream;
use std::time::Duration;

fn send(stream: &mut TcpStream, corr: u64, message: &Message) {
    let (kind, payload) = message.encode();
    write_frame_corr(stream, corr, kind, &payload).expect("writing a request");
}

fn handshake(server: &EngineServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    send(&mut stream, 1, &Message::Hello { subscribe: false });
    read_frame(&mut stream).expect("handshake ack");
    stream
}

#[test]
fn a_term_too_long_to_encode_fails_its_call_and_the_server_serves_on() {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", &format!("soup {}", "x".repeat(70_000)));
    let engine = SearchEngine::new(b.build());
    let longest = engine
        .collection()
        .vocab()
        .iter()
        .map(|(_, t)| t.len())
        .max();
    assert_eq!(longest, Some(70_000), "the analyzer keeps the long term");
    let server = EngineServer::bind("long", engine, "127.0.0.1:0").unwrap();

    let mut stream = handshake(&server);
    send(&mut stream, 2, &Message::GetRepresentative);
    send(&mut stream, 3, &Message::Ping);
    let mut replies = Vec::new();
    for _ in 0..2 {
        let frame = read_frame(&mut stream).expect("both calls are answered");
        let message = Message::decode(frame.kind, &frame.payload).expect("decodable reply");
        replies.push((frame.corr, message));
    }
    replies.sort_by_key(|(corr, _)| *corr);
    assert!(
        matches!(&replies[0], (2, Message::Error { .. })),
        "the representative call gets an in-band error: {:?}",
        replies[0]
    );
    assert!(matches!(replies[1], (3, Message::Pong)));

    // The loop serves on: the same connection and a new one.
    send(
        &mut stream,
        4,
        &Message::SearchDocs {
            query: "soup".to_string(),
            threshold: 0.0,
        },
    );
    let frame = read_frame(&mut stream).expect("the connection stays open");
    assert_eq!(frame.corr, 4);
    assert!(matches!(
        Message::decode(frame.kind, &frame.payload),
        Ok(Message::SearchResults { .. })
    ));
    let mut other = handshake(&server);
    send(&mut other, 5, &Message::Ping);
    assert_eq!(
        read_frame(&mut other)
            .expect("a new connection is served")
            .corr,
        5
    );
}
