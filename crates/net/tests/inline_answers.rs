//! An engine server answers a cheap request on the loop thread that
//! parsed it — one wake-up, no worker — and hands over what is not
//! cheap: one handler, two routes, the same reply bytes on both, and a
//! slow handed-over request stalls nobody on the loop.
//!
//! The file holds one test on purpose: it reads the process-global
//! `net_server_inline_answers_total`, `net_server_loop_wakeups_total`,
//! `net_server_batch_requests_total`, `net_client_timeouts_total` and
//! `net_client_retries_total`; a test binary of its own keeps other
//! tests' servers out of them.

use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{EngineRecord, RemoteTransport, Representative};
use seu_net::frame::{read_frame, write_frame_corr, Frame};
use seu_net::wire::Message;
use seu_net::{EngineServer, RemoteEngine, RemoteEngineConfig, ServerConfig};
use seu_text::Analyzer;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const QUERY: &str = "wild mushroom soup";
const THRESHOLD: f64 = 0.1;

/// The three documents, then `filler` more that each hold one query term
/// among 200 others. Under `CosineTf` a document's weights are its own,
/// so the filler scores ≈ 0.04, under [`THRESHOLD`]: whatever `filler`
/// is, the answer to [`QUERY`] is the same two hits — what differs is
/// the postings the query's terms hold, 4 + `filler`.
fn engine(filler: usize) -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", "mushroom foraging in autumn forests");
    b.add_document("d1", "soup recipes with wild mushrooms");
    b.add_document("d2", "relational databases and query optimization");
    let padding: Vec<String> = (0..200).map(|w| format!("padding{w}")).collect();
    for doc in 0..filler {
        b.add_document(&format!("f{doc}"), &format!("soup {}", padding.join(" ")));
    }
    SearchEngine::new(b.build())
}

/// `loop_idle.rs`'s engine: its snapshot is ≈ 22 MiB on the wire and
/// takes one worker a while to build.
fn large_engine() -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    for doc in 0..10_000 {
        let text: Vec<String> = (0..8)
            .map(|t| format!("{}d{doc}t{t}", "w".repeat(240)))
            .collect();
        b.add_document(&format!("d{doc}"), &text.join(" "));
    }
    SearchEngine::new(b.build())
}

fn counter(name: &str) -> u64 {
    seu_obs::counter(name).get()
}

fn inline_answers() -> u64 {
    counter("net_server_inline_answers_total")
}

/// A raw request connection with the handshake done.
fn handshaken(server: &EngineServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    send(&mut stream, 7, &Message::Hello { subscribe: false });
    let ack = read_frame(&mut stream).expect("handshake ack");
    assert_eq!(ack.corr, 7, "the server must echo correlation ids");
    stream
}

fn send(stream: &mut TcpStream, corr: u64, message: &Message) {
    let (kind, payload) = message.encode();
    write_frame_corr(stream, corr, kind, &payload).expect("writing a request");
}

/// One request, its reply frame.
fn ask(stream: &mut TcpStream, corr: u64, message: &Message) -> Frame {
    send(stream, corr, message);
    let frame = read_frame(stream).expect("a reply");
    assert_eq!(frame.corr, corr);
    frame
}

fn search() -> Message {
    Message::SearchDocs {
        query: QUERY.to_string(),
        threshold: THRESHOLD,
    }
}

/// (a) 500 cheap searches, one after the other on one connection: each
/// is answered inline, to the bit, for one wake-up of the loop (a loop
/// that hands over wakes twice: the request, then the completion).
/// (b) The same text against an engine where its terms hold over a
/// thousand postings is handed over, and the reply bytes are the ones
/// the inline route gave.
fn cheap_is_inline_dear_is_handed_over_and_the_bytes_agree() {
    let local = engine(0);
    let want: Vec<u64> = local
        .search_threshold(&local.collection().query_from_text(QUERY), THRESHOLD)
        .iter()
        .map(|h| h.sim.to_bits())
        .collect();
    assert_eq!(want.len(), 2, "the query must match d0 and d1");

    let small = EngineServer::bind("under", engine(0), "127.0.0.1:0").unwrap();
    let mut stream = handshaken(&small);
    // Let the handshake's pass finish before counting.
    std::thread::sleep(Duration::from_millis(50));
    let (inline_before, wakeups_before) =
        (inline_answers(), counter("net_server_loop_wakeups_total"));
    let mut inline_bytes = Vec::new();
    for corr in 1..=500 {
        let frame = ask(&mut stream, corr, &search());
        match Message::decode(frame.kind, &frame.payload).unwrap() {
            Message::SearchResults { hits } => {
                let got: Vec<u64> = hits.iter().map(|h| h.sim.to_bits()).collect();
                assert_eq!(got, want, "call {corr}");
            }
            other => panic!("expected SearchResults, got {other:?}"),
        }
        inline_bytes = frame.payload;
    }
    assert_eq!(inline_answers() - inline_before, 500);
    // One wake-up a request; the slack is for a request whose bytes the
    // loop happened to meet in two reads.
    let woke = counter("net_server_loop_wakeups_total") - wakeups_before;
    assert!(woke <= 520, "500 cheap requests woke the loop {woke} times");

    // (b) 1 104 postings: over the bound.
    let big = EngineServer::bind("over", engine(1_100), "127.0.0.1:0").unwrap();
    let mut stream = handshaken(&big);
    let inline_before = inline_answers();
    let handed_over = ask(&mut stream, 1, &search()).payload;
    assert_eq!(
        inline_answers(),
        inline_before,
        "over the bound is handed over"
    );
    assert!(
        handed_over == inline_bytes,
        "one handler, two routes: the search"
    );
    // The kinds the request does not bound are handed over whatever
    // their size.
    let batch = Message::EstimateBatch {
        queries: vec![QUERY.to_string()],
        threshold: THRESHOLD,
    };
    let mut stream = handshaken(&small);
    let inline_before = inline_answers();
    ask(&mut stream, 1, &batch);
    ask(&mut stream, 2, &Message::GetRepresentative);
    assert_eq!(inline_answers(), inline_before);
}

/// (c) Head of line: the one worker is building a ≈ 22 MiB reply that
/// its connection does not read; pings and cheap searches on a second
/// connection are answered by the loop meanwhile.
fn a_slow_handed_over_request_stalls_nobody() {
    let engine = large_engine();
    let repr = Representative::build(engine.collection());
    let (kind, want) = Message::Representative {
        snapshot: Arc::new(EngineRecord::of_engine("library", &engine, repr)),
    }
    .encode();
    // One term of one document: one posting.
    let cheap = Message::SearchDocs {
        query: format!("{}d5t3", "w".repeat(240)),
        threshold: 0.0,
    };
    let server = EngineServer::bind_with(
        "library",
        engine,
        "127.0.0.1:0",
        ServerConfig { workers: 1 },
    )
    .unwrap();
    let mut slow = handshaken(&server);
    let mut other = handshaken(&server);
    let inline_before = inline_answers();
    send(&mut slow, 9, &Message::GetRepresentative);
    for round in 0..20 {
        let pong = ask(&mut other, 2 * round + 1, &Message::Ping);
        assert!(matches!(
            Message::decode(pong.kind, &pong.payload),
            Ok(Message::Pong)
        ));
        let found = ask(&mut other, 2 * round + 2, &cheap);
        match Message::decode(found.kind, &found.payload).unwrap() {
            Message::SearchResults { hits } => assert_eq!(hits.len(), 1, "{hits:?}"),
            other => panic!("expected SearchResults, got {other:?}"),
        }
    }
    assert_eq!(inline_answers() - inline_before, 20);
    // Only now is the big reply read: it could not have completed.
    let frame = read_frame(&mut slow).expect("the big reply");
    assert_eq!((frame.corr, frame.kind), (9, kind));
    assert!(frame.payload == want, "the reply must arrive byte-exact");
}

/// (d) `loop_idle.rs` (c) with a request that is always handed over (an
/// oracle batch): one worker, so completions and the
/// loop's `Wake::acknowledge` interleave as tightly as they can, and a
/// lost wake-up is a stalled call that the 2 s timeout turns into a
/// failure.
fn no_wakeup_is_lost_on_the_hand_over_route() {
    let (timeouts, retries) = (
        counter("net_client_timeouts_total"),
        counter("net_client_retries_total"),
    );
    let (inline_before, batches_before) =
        (inline_answers(), counter("net_server_batch_requests_total"));
    let local = engine(0);
    let want = local.true_usefulness(&local.collection().query_from_text(QUERY), THRESHOLD);
    let server = EngineServer::bind_with(
        "pantry",
        engine(0),
        "127.0.0.1:0",
        ServerConfig { workers: 1 },
    )
    .unwrap();
    let client = RemoteEngine::with_config(
        server.addr(),
        RemoteEngineConfig {
            call_timeout: Duration::from_secs(2),
            ..RemoteEngineConfig::default()
        },
    )
    .unwrap();
    let queries = [QUERY.to_string()];
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (client, want, queries) = (client.clone(), &want, &queries);
            scope.spawn(move || {
                for call in 0..2_000 {
                    let got = client
                        .true_usefulness_batch(queries, THRESHOLD)
                        .unwrap_or_else(|e| panic!("call {call}: {e}"));
                    assert_eq!(got.len(), 1);
                    assert_eq!(got[0].no_doc, want.no_doc);
                    assert_eq!(got[0].avg_sim.to_bits(), want.avg_sim.to_bits());
                }
            });
        }
    });
    assert_eq!(counter("net_client_timeouts_total") - timeouts, 0);
    assert_eq!(counter("net_client_retries_total") - retries, 0);
    let batches = counter("net_server_batch_requests_total") - batches_before;
    assert_eq!(batches, 16_000, "every call was a batch, none fell back");
    assert_eq!(inline_answers(), inline_before, "a batch is never inline");
}

/// (e) Analysis costs what it reads, before a single posting is counted:
/// 4 MiB of tokens the collection has never seen hold no postings at all
/// and take a tenth of a second to find that out. The loop must not be
/// the one to: the query is handed over unanalysed, so the ping pipelined
/// *behind* it on the same connection is answered *before* it (inline,
/// the replies would leave in request order), and pings on a second
/// connection are answered while its reply is still unread.
fn a_long_query_is_not_analysed_on_the_loop() {
    let junk = Message::SearchDocs {
        query: (0..500_000).map(|i| format!("junk{i} ")).collect(),
        threshold: THRESHOLD,
    };
    let server = EngineServer::bind_with(
        "pantry",
        engine(0),
        "127.0.0.1:0",
        ServerConfig { workers: 1 },
    )
    .unwrap();
    let mut long = handshaken(&server);
    let mut other = handshaken(&server);
    let inline_before = inline_answers();
    send(&mut long, 1, &junk);
    send(&mut long, 2, &Message::Ping);
    for corr in 1..=10 {
        let pong = ask(&mut other, corr, &Message::Ping);
        assert!(matches!(
            Message::decode(pong.kind, &pong.payload),
            Ok(Message::Pong)
        ));
    }
    let first = read_frame(&mut long).expect("the pong");
    assert_eq!(first.corr, 2, "the ping must overtake the long query");
    let second = read_frame(&mut long).expect("the long query's reply");
    assert_eq!(second.corr, 1);
    match Message::decode(second.kind, &second.payload).unwrap() {
        Message::SearchResults { hits } => assert!(hits.is_empty(), "{hits:?}"),
        other => panic!("expected SearchResults, got {other:?}"),
    }
    assert_eq!(inline_answers(), inline_before, "handed over, not inline");
}

#[test]
fn cheap_requests_are_answered_where_they_are_read() {
    cheap_is_inline_dear_is_handed_over_and_the_bytes_agree();
    a_slow_handed_over_request_stalls_nobody();
    no_wakeup_is_lost_on_the_hand_over_route();
    a_long_query_is_not_analysed_on_the_loop();
}
