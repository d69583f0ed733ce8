//! One way to ask a peer: the client speaks only the multiplexed v2
//! protocol, and an in-band `Error` is the failure of the call it
//! answers, nothing more.
//!
//! * a peer that does not echo the `Hello`'s correlation id is refused
//!   with a typed `Protocol` error at once, not served one call at a
//!   time;
//! * an `Error` answering a sampled search or a batched estimate is
//!   that call's `Remote` failure, and the next such call goes out in
//!   the same form;
//! * an undecodable reply kills its connection, and the calls pipelined
//!   beside it are redialed at once instead of waiting out their call
//!   timeout.
//!
//! Every case is a typed error or a prompt answer; none waits for the
//! call timeout.

use seu_engine::TrueUsefulness;
use seu_metasearch::{RemoteHit, RemoteTransport, TransportErrorKind};
use seu_net::frame::{read_frame, write_frame_corr};
use seu_net::wire::Message;
use seu_net::{RemoteEngine, RemoteEngineConfig};
use seu_obs::{SpanId, SpanRecord, TraceContext, TraceId};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CALL_TIMEOUT: Duration = Duration::from_secs(2);

/// Well inside the call timeout: what "at once" means here.
const PROMPT: Duration = Duration::from_secs(1);

/// Message kinds, from the table in `seu_net::wire`.
const SEARCH_RESULTS: u8 = 4;
const TRACED_SEARCH_DOCS: u8 = 13;
const ESTIMATE_BATCH: u8 = 15;

fn config() -> RemoteEngineConfig {
    RemoteEngineConfig {
        connect_timeout: Duration::from_millis(500),
        call_timeout: CALL_TIMEOUT,
        retries: 0,
        backoff: Duration::from_millis(1),
    }
}

/// A scripted peer: acks every `Hello` (echoing its correlation id when
/// `echo`, with 0 otherwise) and answers each request with
/// `answer(request, how many of its kind came before)`. `kinds` is
/// every request kind it read, `Hello`s apart, in order.
struct Peer {
    addr: SocketAddr,
    kinds: Arc<Mutex<Vec<u8>>>,
}

type Answer = dyn Fn(Message, usize) -> Message + Send + Sync;

fn peer(echo: bool, answer: impl Fn(Message, usize) -> Message + Send + Sync + 'static) -> Peer {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = Peer {
        addr: listener.local_addr().unwrap(),
        kinds: Arc::new(Mutex::new(Vec::new())),
    };
    let kinds = Arc::clone(&peer.kinds);
    let answer: Arc<Answer> = Arc::new(answer);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let (kinds, answer) = (Arc::clone(&kinds), Arc::clone(&answer));
            std::thread::spawn(move || serve(stream, echo, &kinds, &*answer));
        }
    });
    peer
}

fn serve(mut stream: TcpStream, echo: bool, kinds: &Mutex<Vec<u8>>, answer: &Answer) {
    while let Ok(frame) = read_frame(&mut stream) {
        let corr = if echo { frame.corr } else { 0 };
        let reply = match Message::decode(frame.kind, &frame.payload) {
            Ok(Message::Hello { .. }) => Message::HelloAck {
                name: "scripted".to_string(),
            },
            Ok(request) => {
                let before = {
                    let mut kinds = kinds.lock().unwrap();
                    kinds.push(frame.kind);
                    kinds.iter().filter(|&&k| k == frame.kind).count() - 1
                };
                answer(request, before)
            }
            Err(_) => return,
        };
        let (kind, payload) = reply.encode();
        if write_frame_corr(&mut stream, corr, kind, &payload).is_err() {
            return;
        }
    }
}

fn refused() -> Message {
    Message::Error {
        detail: "refused by script".to_string(),
    }
}

fn hit(doc: &str) -> Vec<RemoteHit> {
    vec![RemoteHit {
        doc: doc.to_string(),
        sim: 1.0,
    }]
}

fn sampled() -> TraceContext {
    TraceContext {
        trace_id: TraceId(0xfeed),
        parent_span: SpanId(7),
        sampled: true,
    }
}

fn usefulness(no_doc: u64) -> TrueUsefulness {
    TrueUsefulness {
        no_doc,
        avg_sim: 0.5,
        max_sim: 0.5,
    }
}

#[test]
fn a_peer_that_does_not_echo_the_hello_is_refused_at_once() {
    let peer = peer(false, |request, _| match request {
        Message::SearchDocs { query, .. } => Message::SearchResults { hits: hit(&query) },
        Message::Ping => Message::Pong,
        _ => refused(),
    });
    let client = RemoteEngine::with_config(peer.addr, config()).unwrap();

    let start = Instant::now();
    let err = client
        .search("anything", 0.0, None)
        .expect_err("a peer that cannot multiplex is not served");
    assert_eq!(err.kind, TransportErrorKind::Protocol, "{err}");
    assert!(start.elapsed() < PROMPT, "took {:?}", start.elapsed());

    let start = Instant::now();
    let err = client
        .subscribe_with(|_, _, _| {})
        .expect_err("nor subscribed to");
    assert_eq!(err.kind, TransportErrorKind::Protocol, "{err}");
    assert!(start.elapsed() < PROMPT, "took {:?}", start.elapsed());

    assert!(
        peer.kinds.lock().unwrap().is_empty(),
        "no request follows a refused handshake"
    );
}

#[test]
fn an_error_on_a_sampled_search_fails_that_call_and_the_next_still_goes_traced() {
    let peer = peer(true, |request, before| match request {
        Message::TracedSearchDocs { .. } if before == 0 => refused(),
        Message::TracedSearchDocs {
            query, parent_span, ..
        } => Message::TracedSearchResults {
            hits: hit(&query),
            spans: vec![SpanRecord {
                id: SpanId(99),
                parent: SpanId(parent_span),
                name: "remote_search".to_string(),
                start_unix_ns: 1,
                duration_ns: 2,
                attrs: Vec::new(),
            }],
        },
        Message::SearchDocs { query, .. } => Message::SearchResults { hits: hit(&query) },
        _ => refused(),
    });
    let client = RemoteEngine::with_config(peer.addr, config()).unwrap();
    let ctx = sampled();

    let err = client
        .search("first", 0.0, Some(&ctx))
        .expect_err("the peer refused this search");
    assert_eq!(err.kind, TransportErrorKind::Remote, "{err}");

    let (hits, spans) = client.search("second", 0.0, Some(&ctx)).unwrap();
    assert_eq!(hits, hit("second"));
    assert_eq!(spans.len(), 1, "the server's span came home");
    assert_eq!(spans[0].parent, SpanId(7));

    assert_eq!(
        *peer.kinds.lock().unwrap(),
        vec![TRACED_SEARCH_DOCS; 2],
        "one traced frame per search, and no plain one"
    );
}

#[test]
fn an_error_on_a_batch_fails_that_call_and_the_next_is_still_one_batch() {
    let peer = peer(true, |request, before| match request {
        Message::EstimateBatch { .. } if before == 0 => refused(),
        Message::EstimateBatch { queries, .. } => Message::UsefulnessBatch {
            results: (0..queries.len() as u64).map(usefulness).collect(),
        },
        _ => refused(),
    });
    let client = RemoteEngine::with_config(peer.addr, config()).unwrap();
    let queries: Vec<String> = ["a", "b", "c"].iter().map(|q| q.to_string()).collect();

    let err = client
        .true_usefulness_batch(&queries, 0.1)
        .expect_err("the peer refused this batch");
    assert_eq!(err.kind, TransportErrorKind::Remote, "{err}");

    let results = client.true_usefulness_batch(&queries, 0.1).unwrap();
    assert_eq!(results, (0..3).map(usefulness).collect::<Vec<_>>());

    assert_eq!(
        *peer.kinds.lock().unwrap(),
        vec![ESTIMATE_BATCH; 2],
        "one batch frame per call, and no per-query estimate"
    );
}

/// The first connection holds two pipelined searches and answers only
/// `bad`, with a well-framed `SearchResults` whose payload does not
/// decode; later connections answer every search.
fn garbling_peer() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for (n, stream) in listener.incoming().enumerate() {
            let Ok(mut stream) = stream else { break };
            std::thread::spawn(move || {
                let mut held = Vec::new();
                while let Ok(frame) = read_frame(&mut stream) {
                    let reply = match Message::decode(frame.kind, &frame.payload) {
                        Ok(Message::Hello { .. }) => Message::HelloAck {
                            name: "garbler".to_string(),
                        },
                        Ok(Message::Ping) => Message::Pong,
                        Ok(Message::SearchDocs { query, .. }) if n == 0 => {
                            held.push((frame.corr, query));
                            if held.len() == 2 {
                                let bad = held.iter().find(|(_, q)| q == "bad").unwrap().0;
                                // A hit count no four bytes can hold.
                                write_frame_corr(&mut stream, bad, SEARCH_RESULTS, &[0xff; 4])
                                    .unwrap();
                            }
                            continue;
                        }
                        Ok(Message::SearchDocs { query, .. }) => {
                            Message::SearchResults { hits: hit(&query) }
                        }
                        _ => return,
                    };
                    let (kind, payload) = reply.encode();
                    if write_frame_corr(&mut stream, frame.corr, kind, &payload).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn an_undecodable_reply_does_not_strand_the_calls_beside_it() {
    let client = RemoteEngine::with_config(garbling_peer(), config()).unwrap();
    // Dial the one pooled connection first, so both searches reuse it.
    client.ping().unwrap();

    let start = Instant::now();
    let asker = |query: &'static str| {
        let client = client.clone();
        std::thread::spawn(move || (client.search(query, 0.0, None), start.elapsed()))
    };
    let (bad, good) = (asker("bad"), asker("good"));
    let (bad, _) = bad.join().unwrap();
    let (good, took) = good.join().unwrap();

    let err = bad.expect_err("its own reply did not decode");
    assert_eq!(err.kind, TransportErrorKind::Protocol, "{err}");
    let (hits, _) = good.expect("the neighbour is redialed and answered");
    assert_eq!(hits, hit("good"));
    assert!(took < PROMPT, "the neighbour waited {took:?}");
}
