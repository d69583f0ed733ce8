//! Adversarial requests against the HTTP door's reused threads: a
//! connection thread that has just been fed a truncated, split, oversized
//! or undecodable request must answer it (or close cleanly) and be fit
//! to serve the next connection — nothing of one request may survive
//! into the thread's next.
//!
//! The file holds one test on purpose: its last step reads the
//! process-global `net_http_threads_started_total`, and a test binary of
//! its own keeps other tests' admin servers out of it. (The `413` for a
//! declared body over the cap is `faults.rs`'s.)

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::Broker;
use seu_net::AdminServer;
use seu_text::Analyzer;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The door's socket deadline (`REQUEST_TIMEOUT` in `http.rs`): an
/// answer that takes this long came from the deadline, not the parser.
const SOCKET_DEADLINE: Duration = Duration::from_secs(10);

const BODY: &str = r#"{"query":"mushroom soup","threshold":0.1}"#;

fn valid_request() -> Vec<u8> {
    format!(
        "POST /search HTTP/1.1\r\nHost: adversary\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{BODY}",
        BODY.len()
    )
    .into_bytes()
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(SOCKET_DEADLINE)).unwrap();
    stream
}

/// Everything the server sends until it closes, and how long that took.
fn read_to_close(stream: &mut TcpStream) -> (String, Duration) {
    let since = Instant::now();
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("the server closes; it neither resets nor stalls");
    (String::from_utf8(reply).unwrap(), since.elapsed())
}

fn status_and_body(reply: &str) -> (&str, &str) {
    let (head, body) = reply.split_once("\r\n\r\n").expect("reply has a head");
    (head.split("\r\n").next().unwrap(), body)
}

fn started() -> u64 {
    seu_obs::counter("net_http_threads_started_total").get()
}

#[test]
fn reused_threads_survive_adversarial_requests() {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", "mushroom soup with cream");
    b.add_document("d1", "tomato soup and basil");
    let broker = Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange()));
    broker.register("pantry", SearchEngine::new(b.build()));
    let admin = AdminServer::bind(broker, "127.0.0.1:0").unwrap();
    let addr = admin.addr();
    let request = valid_request();

    // The reference: the whole request in one write.
    let mut stream = connect(addr);
    stream.write_all(&request).unwrap();
    let (reference, _) = read_to_close(&mut stream);
    let (status, golden) = status_and_body(&reference);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(golden.contains("\"doc\":\"d0\""), "{golden}");
    // `seconds` is a wall-clock reading; everything before it is not.
    let stable = |body: &str| body.split("\"seconds\":").next().unwrap().to_string();

    let before = started();

    // Every strict prefix, then a half-close: `400` or a clean close,
    // from the parser and not from the socket deadline.
    for cut in 0..request.len() {
        let mut stream = connect(addr);
        stream.write_all(&request[..cut]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let (reply, took) = read_to_close(&mut stream);
        assert!(
            took < SOCKET_DEADLINE / 2,
            "prefix of {cut} bytes was answered by the deadline ({took:?})"
        );
        if !reply.is_empty() {
            let (status, _) = status_and_body(&reply);
            assert_eq!(status, "HTTP/1.1 400 Bad Request", "prefix of {cut} bytes");
        }
    }

    // The request split in two writes at every offset: the same answer.
    for cut in 1..request.len() {
        let mut stream = connect(addr);
        stream.write_all(&request[..cut]).unwrap();
        stream.flush().unwrap();
        // Long enough for the first part to be read on its own most of
        // the time; the answer must be the same whether it was or not.
        std::thread::sleep(Duration::from_micros(300));
        stream.write_all(&request[cut..]).unwrap();
        let (reply, _) = read_to_close(&mut stream);
        let (status, body) = status_and_body(&reply);
        assert_eq!(status, "HTTP/1.1 200 OK", "split at {cut}");
        assert_eq!(stable(body), stable(golden), "split at {cut}");
    }

    // A head that reaches the 8 KiB cap without ending.
    let mut stream = connect(addr);
    let mut huge = b"GET /healthz HTTP/1.1\r\nX-Padding: ".to_vec();
    huge.resize(8 << 10, b'a');
    stream.write_all(&huge).unwrap();
    let (reply, took) = read_to_close(&mut stream);
    assert!(took < SOCKET_DEADLINE / 2, "{took:?}");
    assert_eq!(status_and_body(&reply).0, "HTTP/1.1 400 Bad Request");

    // And one well past it. The server stops parsing at the cap, answers,
    // and reads the rest of what the client sends until it falls silent,
    // so the close finds nothing unread and is no reset that swallows the
    // `400`: it is prompt, it is read whole, and the thread lives on.
    let mut stream = connect(addr);
    huge.resize(64 << 10, b'a');
    let since = Instant::now();
    let _ = stream.write_all(&huge);
    let (reply, _) = read_to_close(&mut stream);
    assert_eq!(status_and_body(&reply).0, "HTTP/1.1 400 Bad Request");
    assert!(since.elapsed() < SOCKET_DEADLINE / 2);

    // A body that is not UTF-8.
    let mut stream = connect(addr);
    stream
        .write_all(b"POST /search HTTP/1.1\r\nContent-Length: 4\r\n\r\n\xff\xfe\xfd\xfc")
        .unwrap();
    let (reply, _) = read_to_close(&mut stream);
    let (status, body) = status_and_body(&reply);
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert_eq!(body, "{\"error\":\"body is not UTF-8\"}");

    // A Content-Length that is not a number, and one that overflows.
    for length in ["soup", "-1", "99999999999999999999999999"] {
        let mut stream = connect(addr);
        stream
            .write_all(
                format!("POST /search HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").as_bytes(),
            )
            .unwrap();
        let (reply, _) = read_to_close(&mut stream);
        assert_eq!(
            status_and_body(&reply).0,
            "HTTP/1.1 400 Bad Request",
            "Content-Length: {length}"
        );
    }

    // The sweep ran one connection at a time, so one thread served all
    // of it — and serves an ordinary request now, the same as before.
    let grown = started() - before;
    assert!(
        grown <= 1,
        "a one-at-a-time sweep started {grown} connection threads"
    );
    let mut stream = connect(addr);
    stream.write_all(&request).unwrap();
    let (reply, _) = read_to_close(&mut stream);
    let (status, body) = status_and_body(&reply);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(stable(body), stable(golden));
    assert_eq!(
        started() - before,
        grown,
        "the request after the sweep was served by a thread already started"
    );
    admin.shutdown();
}
