//! Fault injection against the TCP transport: refused connections,
//! mid-frame drops, stalled reads, and corrupted frames. Every failure
//! must surface as a *typed* per-engine error — never a panic, never a
//! poisoned broker.

use seu_core::SubrangeEstimator;
use seu_engine::{CollectionBuilder, SearchEngine, TrueUsefulness, WeightingScheme};
use seu_metasearch::{
    Broker, DispatchOutcome, RemoteTransport, SearchRequest, SelectionPolicy, TransportErrorKind,
};
use seu_net::frame::{read_frame, write_frame_corr};
use seu_net::wire::Message;
use seu_net::{EngineServer, RemoteEngine, RemoteEngineConfig};
use seu_text::Analyzer;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine(texts: &[&str]) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for (i, t) in texts.iter().enumerate() {
        b.add_document(&format!("d{i}"), t);
    }
    SearchEngine::new(b.build())
}

/// No-retry client config so each fault maps to exactly one observed
/// error, with a tight deadline so tests stay fast.
fn strict() -> RemoteEngineConfig {
    RemoteEngineConfig {
        connect_timeout: Duration::from_millis(500),
        call_timeout: Duration::from_millis(300),
        retries: 0,
        backoff: Duration::from_millis(1),
    }
}

/// Binds an ephemeral port and runs `behavior` on the first accepted
/// connection.
fn fake_server(behavior: impl FnOnce(TcpStream) + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            behavior(stream);
        }
    });
    addr
}

/// Answers the Hello handshake like a real engine server, then hands the
/// stream to `then` for the sabotage.
fn handshake_then(mut stream: TcpStream, then: impl FnOnce(TcpStream)) {
    let hello = read_frame(&mut stream).unwrap();
    assert!(matches!(
        Message::decode(hello.kind, &hello.payload),
        Ok(Message::Hello { .. })
    ));
    let (kind, payload) = Message::HelloAck {
        name: "saboteur".into(),
    }
    .encode();
    write_frame_corr(&mut stream, hello.corr, kind, &payload).unwrap();
    then(stream);
}

#[test]
fn refused_connection_is_a_typed_refused_error() {
    // Bind then immediately drop: the port is known-dead.
    let addr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let client = RemoteEngine::with_config(addr, strict()).unwrap();
    let err = client.search("anything", 0.0, None).unwrap_err();
    assert_eq!(err.kind, TransportErrorKind::Refused, "{err}");
}

#[test]
fn mid_frame_drop_is_connection_lost() {
    let addr = fake_server(|stream| {
        handshake_then(stream, |mut s| {
            let _ = read_frame(&mut s).unwrap();
            // A header promising 64 payload bytes, followed by 5 — then
            // the socket closes mid-frame.
            let mut partial = Vec::new();
            partial.extend_from_slice(&seu_net::frame::MAGIC.to_be_bytes());
            partial.push(seu_net::frame::PROTOCOL_VERSION);
            partial.push(4);
            partial.extend_from_slice(&64u32.to_be_bytes());
            partial.extend_from_slice(b"stub!");
            s.write_all(&partial).unwrap();
        });
    });
    let client = RemoteEngine::with_config(addr, strict()).unwrap();
    let err = client.search("anything", 0.0, None).unwrap_err();
    assert_eq!(err.kind, TransportErrorKind::ConnectionLost, "{err}");
}

#[test]
fn stalled_read_hits_the_call_deadline() {
    let addr = fake_server(|stream| {
        handshake_then(stream, |s| {
            // Accept the request and answer nothing until well past the
            // client's deadline.
            std::thread::sleep(Duration::from_secs(5));
            drop(s);
        });
    });
    let client = RemoteEngine::with_config(addr, strict()).unwrap();
    let start = Instant::now();
    let err = client.search("anything", 0.0, None).unwrap_err();
    assert_eq!(err.kind, TransportErrorKind::Timeout, "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "deadline must bound the stall, took {:?}",
        start.elapsed()
    );
}

#[test]
fn corrupted_frame_is_a_protocol_error() {
    let addr = fake_server(|mut stream| {
        let _ = read_frame(&mut stream).unwrap();
        stream.write_all(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
    });
    let client = RemoteEngine::with_config(addr, strict()).unwrap();
    let err = client.search("anything", 0.0, None).unwrap_err();
    assert_eq!(err.kind, TransportErrorKind::Protocol, "{err}");
}

#[test]
fn transient_failures_are_retried_and_hard_ones_are_not() {
    // A server that drops the first connection cold, then serves the
    // retry for real: the call must succeed on attempt two.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        if let Ok((first, _)) = listener.accept() {
            drop(first);
        }
        if let Ok((stream, _)) = listener.accept() {
            handshake_then(stream, |mut s| {
                let request = read_frame(&mut s).unwrap();
                let (kind, payload) = Message::SearchResults { hits: vec![] }.encode();
                write_frame_corr(&mut s, request.corr, kind, &payload).unwrap();
            });
        }
    });
    let retries = seu_obs::counter("net_client_retries_total");
    let before = retries.get();
    let client = RemoteEngine::with_config(
        addr,
        RemoteEngineConfig {
            retries: 2,
            ..strict()
        },
    )
    .unwrap();
    assert_eq!(client.search("anything", 0.0, None).unwrap().0, vec![]);
    assert!(retries.get() > before, "the retry counter must move");
}

/// The broker-level contract: a remote engine dying after registration
/// turns into a per-engine `Failed` with a typed error; the local engine
/// still answers, the pool is not poisoned, and the next query works.
#[test]
fn dead_remote_engine_degrades_to_a_typed_per_engine_failure() {
    let server =
        EngineServer::bind("doomed", engine(&["mushroom soup recipes"]), "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    broker.register("survivor", engine(&["mushroom soup and stock"]));
    broker
        .register_remote(Arc::new(RemoteEngine::with_config(addr, strict()).unwrap()))
        .unwrap();
    server.shutdown();

    for round in 0..2 {
        let response = broker.execute(
            &SearchRequest::new("mushroom soup")
                .threshold(0.05)
                .policy(SelectionPolicy::All),
        );
        assert!(
            response.hits.iter().all(|h| h.engine == "survivor"),
            "round {round}: {:?}",
            response.hits
        );
        assert!(!response.hits.is_empty(), "round {round}");
        let doomed = response
            .per_engine_stats
            .iter()
            .find(|s| s.engine == "doomed")
            .expect("doomed engine was dispatched");
        assert_eq!(doomed.outcome, DispatchOutcome::Failed, "round {round}");
        let error = doomed.error.as_ref().expect("typed error captured");
        assert_eq!(error.kind, TransportErrorKind::Refused, "{error}");
        let survivor = response
            .per_engine_stats
            .iter()
            .find(|s| s.engine == "survivor")
            .unwrap();
        assert_eq!(survivor.outcome, DispatchOutcome::Completed);
    }
}

/// An HTTP client declaring a body over the 32 MiB frame cap must get a
/// `413` without the server allocating (or reading) the body; a sane
/// request on a fresh connection still works afterwards.
#[test]
fn oversized_http_body_is_rejected_with_413_before_allocation() {
    use std::io::{BufRead, BufReader};

    let broker: Arc<Broker<SubrangeEstimator>> =
        Arc::new(Broker::new(SubrangeEstimator::paper_six_subrange()));
    broker.register("local", engine(&["mushroom soup recipes"]));
    let admin = seu_net::AdminServer::bind(broker, "127.0.0.1:0").unwrap();

    let mut stream = TcpStream::connect(admin.addr()).unwrap();
    // 33 MiB declared, zero bytes actually sent: a liar header must be
    // refused from the Content-Length alone.
    stream
        .write_all(
            b"POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: 34603008\r\n\
              Content-Type: application/json\r\n\r\n",
        )
        .unwrap();
    let mut status = String::new();
    BufReader::new(&stream).read_line(&mut status).unwrap();
    assert!(
        status.starts_with("HTTP/1.1 413"),
        "expected 413, got {status:?}"
    );

    let mut stream = TcpStream::connect(admin.addr()).unwrap();
    let body = br#"{"query":"mushroom soup"}"#;
    stream
        .write_all(
            format!(
                "POST /search HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    stream.write_all(body).unwrap();
    let mut status = String::new();
    BufReader::new(&stream).read_line(&mut status).unwrap();
    assert!(
        status.starts_with("HTTP/1.1 200"),
        "expected 200 after the rejection, got {status:?}"
    );
}

/// Exponential backoff against a dead port must saturate at the
/// configured ceiling: six retries at base 50ms would sleep 3.15s
/// uncapped (50·(1+2+4+8+16+32)), but capped at 100ms the whole call
/// stays well under that.
#[test]
fn retry_backoff_saturates_at_the_ceiling() {
    let addr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let client = RemoteEngine::with_config(
        addr,
        RemoteEngineConfig {
            retries: 6,
            backoff: Duration::from_millis(50),
            ..strict()
        },
    )
    .unwrap()
    .max_backoff(Duration::from_millis(100));
    let start = Instant::now();
    let err = client.search("anything", 0.0, None).unwrap_err();
    assert_eq!(err.kind, TransportErrorKind::Refused, "{err}");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "capped backoff should sleep ~550ms total, took {elapsed:?}"
    );
}

/// A name resolving to several addresses must fall through dead ones:
/// connecting to [dead, live] lands on the live engine instead of
/// failing on the first candidate.
#[test]
fn connect_falls_through_dead_addresses_to_a_live_one() {
    let dead = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let server =
        EngineServer::bind("backup", engine(&["mushroom soup recipes"]), "127.0.0.1:0").unwrap();
    let candidates = [dead, server.addr()];
    let client = RemoteEngine::with_config(&candidates[..], strict()).unwrap();
    let (hits, _) = client.search("mushroom soup", 0.0, None).unwrap();
    assert!(!hits.is_empty(), "the live fallback address must answer");
}

/// Two requests pipelined on ONE connection, answered out of order: the
/// correlation ids must route each reply to its caller. The fake server
/// accepts a single connection, reads both requests before answering
/// either, and replies in reverse — so this deadlocks (and times out)
/// unless the client both multiplexes and reassembles by id.
#[test]
fn interleaved_replies_reassemble_by_correlation_id() {
    use seu_net::frame::write_frame_corr;

    let addr = fake_server(|mut stream| {
        let hello = read_frame(&mut stream).unwrap();
        assert!(matches!(
            Message::decode(hello.kind, &hello.payload),
            Ok(Message::Hello { .. })
        ));
        let (kind, payload) = Message::HelloAck {
            name: "reverser".into(),
        }
        .encode();
        // Echoing the nonzero hello corr negotiates multiplexing.
        write_frame_corr(&mut stream, hello.corr, kind, &payload).unwrap();
        let first = read_frame(&mut stream).unwrap();
        let second = read_frame(&mut stream).unwrap();
        for frame in [second, first] {
            let Ok(Message::EstimateBatch { queries, .. }) =
                Message::decode(frame.kind, &frame.payload)
            else {
                panic!("expected EstimateBatch");
            };
            let [query] = &queries[..] else {
                panic!("expected a batch of one, got {queries:?}");
            };
            let (kind, payload) = Message::UsefulnessBatch {
                results: vec![TrueUsefulness {
                    no_doc: query.len() as u64,
                    avg_sim: 0.0,
                    max_sim: 0.0,
                }],
            }
            .encode();
            write_frame_corr(&mut stream, frame.corr, kind, &payload).unwrap();
        }
        // Keep the socket open until the clients are done reading.
        std::thread::sleep(Duration::from_millis(500));
    });
    let client = RemoteEngine::with_config(
        addr,
        RemoteEngineConfig {
            call_timeout: Duration::from_secs(2),
            ..strict()
        },
    )
    .unwrap();
    let a = client.clone();
    let t = std::thread::spawn(move || a.true_usefulness("ab", 0.0).unwrap());
    let u_b = client.true_usefulness("wxyz", 0.0).unwrap();
    let u_a = t.join().unwrap();
    assert_eq!(u_a.no_doc, 2, "caller A must get the reply for \"ab\"");
    assert_eq!(u_b.no_doc, 4, "caller B must get the reply for \"wxyz\"");
}

/// A transport that stalls at snapshot-fetch time must fail registration
/// with a typed error and leave the broker registry untouched.
#[test]
fn failed_registration_leaves_the_broker_empty() {
    let addr = fake_server(|stream| {
        handshake_then(stream, |s| {
            std::thread::sleep(Duration::from_secs(5));
            drop(s);
        });
    });
    let broker = Broker::new(SubrangeEstimator::paper_six_subrange());
    let err = broker
        .register_remote(Arc::new(RemoteEngine::with_config(addr, strict()).unwrap()))
        .unwrap_err();
    assert_eq!(err.kind, TransportErrorKind::Timeout, "{err}");
    assert!(broker.engine_statuses().is_empty());
}
