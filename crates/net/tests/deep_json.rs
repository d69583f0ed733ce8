//! A `POST /search` body nested far deeper than any search body is
//! refused with a `400`, and the server goes on answering. The JSON
//! parser recursed once per `[` or `{` with no bound, so a 100 000-deep
//! body of 100 KB overflowed the door worker's stack and aborted the
//! whole process.
//!
//! The file is a binary of its own: a regression here aborts the
//! process, and would take every other test in the binary with it.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::Broker;
use seu_net::AdminServer;
use seu_text::Analyzer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Nesting depth of the hostile body.
const DEPTH: usize = 100_000;

/// The status line of one request's reply, read to end-of-stream.
fn status(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).unwrap();
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("the server answers and closes");
    let reply = String::from_utf8(reply).unwrap();
    reply.split("\r\n").next().unwrap_or_default().to_string()
}

#[test]
fn a_deeply_nested_search_body_is_refused_and_the_server_keeps_answering() {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", "mushroom soup with cream");
    let broker = Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange()));
    broker.register("pantry", SearchEngine::new(b.build()));
    let admin = AdminServer::bind(broker, "127.0.0.1:0").unwrap();

    for body in ["[".repeat(DEPTH), "{\"query\":".repeat(DEPTH)] {
        let request = format!(
            "POST /search HTTP/1.1\r\nHost: deep\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(
            status(admin.addr(), request.as_bytes()),
            "HTTP/1.1 400 Bad Request"
        );
    }
    let healthz = b"GET /healthz HTTP/1.1\r\nHost: deep\r\n\r\n";
    assert_eq!(status(admin.addr(), healthz), "HTTP/1.1 200 OK");
}
