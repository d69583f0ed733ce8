//! The event loop blocks in `poll(2)`: an idle server makes no passes, a
//! request costs a handful, and — there being no periodic tick to paper
//! over one — no wake-up is ever lost.
//!
//! The file holds one test on purpose: it reads the process-global
//! `net_server_loop_wakeups_total`, `net_server_active_connections`,
//! `net_client_timeouts_total` and `net_client_retries_total`, and a
//! test binary of its own keeps other tests' servers out of them.

use seu_engine::{CollectionBuilder, SearchEngine, WeightingScheme};
use seu_metasearch::{EngineSnapshot, RemoteTransport};
use seu_net::frame::{read_frame, write_frame_corr};
use seu_net::wire::Message;
use seu_net::{EngineServer, RemoteEngine, RemoteEngineConfig, ServerConfig};
use seu_text::Analyzer;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

fn engine() -> SearchEngine {
    let mut b = CollectionBuilder::new(Analyzer::paper_default(), WeightingScheme::CosineTf);
    b.add_document("d0", "mushroom foraging in autumn forests");
    b.add_document("d1", "soup recipes with wild mushrooms");
    b.add_document("d2", "relational databases and query optimization");
    SearchEngine::new(b.build())
}

/// An engine whose snapshot is ≈ 22 MiB on the wire (80 000 distinct
/// terms of ≈ 250 bytes each): more than a loopback socket pair buffers
/// for a peer that is not reading, under the 32 MiB frame cap.
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

fn wakeups() -> u64 {
    seu_obs::counter("net_server_loop_wakeups_total").get()
}

fn live_connections() -> f64 {
    seu_obs::gauge("net_server_active_connections").get()
}

/// A raw request connection with the handshake done.
fn handshaken(server: &EngineServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
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

/// (a) Servers with a connected, silent client each do not run.
fn idle_servers_do_not_wake() {
    let servers: Vec<EngineServer> = (0..8)
        .map(|i| EngineServer::bind(format!("idle-{i}"), engine(), "127.0.0.1:0").unwrap())
        .collect();
    let clients: Vec<RemoteEngine> = servers
        .iter()
        .map(|s| RemoteEngine::new(s.addr()).unwrap())
        .collect();
    for client in &clients {
        client.ping().expect("dialing the pooled connection");
    }
    // Let the last pong's pass finish before counting.
    std::thread::sleep(Duration::from_millis(50));
    let before = wakeups();
    std::thread::sleep(Duration::from_millis(400));
    let grew = wakeups() - before;
    assert!(
        grew <= 8,
        "8 idle servers woke {grew} times in 400 ms; a blocked loop wakes for its timers only"
    );
    // The loops still answer afterwards.
    for client in &clients {
        client.ping().expect("an idle loop wakes for traffic");
    }
}

/// (b) A peer that half-closes after its request still gets the whole
/// reply, then the connection goes, and nothing spins on the way.
fn a_half_closed_peer_is_answered_then_reaped() {
    let local = engine();
    let server = EngineServer::bind("pantry", engine(), "127.0.0.1:0").unwrap();
    let (live, before) = (live_connections(), wakeups());

    let mut stream = handshaken(&server);
    let query = "wild mushroom soup";
    send(
        &mut stream,
        1,
        &Message::SearchDocs {
            query: query.to_string(),
            threshold: 0.05,
        },
    );
    stream.shutdown(Shutdown::Write).unwrap();
    let frame = read_frame(&mut stream).expect("the reply to a half-closed peer");
    assert_eq!(frame.corr, 1);
    let want = local.search_threshold(&local.collection().query_from_text(query), 0.05);
    assert!(!want.is_empty(), "the query must match something");
    match Message::decode(frame.kind, &frame.payload).unwrap() {
        Message::SearchResults { hits } => {
            let got: Vec<u64> = hits.iter().map(|h| h.sim.to_bits()).collect();
            let want: Vec<u64> = want.iter().map(|h| h.sim.to_bits()).collect();
            assert_eq!(got, want);
        }
        other => panic!("expected SearchResults, got {other:?}"),
    }
    read_frame(&mut stream).expect_err("the server closes after the last reply");

    let deadline = Instant::now() + Duration::from_secs(1);
    while live_connections() > live {
        assert!(Instant::now() < deadline, "the connection was never reaped");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Settled: a loop spinning on the half-closed socket keeps counting.
    std::thread::sleep(Duration::from_millis(50));
    let grew = wakeups() - before;
    assert!(grew <= 16, "one exchange cost {grew} wake-ups");
}

/// (c) Every completion reaches the loop. One worker makes completions
/// and the loop's acknowledgements interleave as tightly as they can;
/// with no periodic tick a lost wake-up is a stalled call, which the 2 s
/// timeout turns into a failure here.
fn no_wakeup_is_lost() {
    let timeouts = seu_obs::counter("net_client_timeouts_total");
    let retries = seu_obs::counter("net_client_retries_total");
    let (timeouts_before, retries_before) = (timeouts.get(), retries.get());

    let local = engine();
    let query = "wild mushroom soup";
    let want = local.true_usefulness(&local.collection().query_from_text(query), 0.05);
    let server = EngineServer::bind_with(
        "pantry",
        engine(),
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
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (client, want) = (client.clone(), &want);
            scope.spawn(move || {
                for call in 0..2_000 {
                    let got = client
                        .true_usefulness(query, 0.05)
                        .unwrap_or_else(|e| panic!("call {call}: {e}"));
                    assert_eq!(got.no_doc, want.no_doc);
                    assert_eq!(got.avg_sim.to_bits(), want.avg_sim.to_bits());
                }
            });
        }
    });
    assert_eq!(timeouts.get() - timeouts_before, 0, "timed-out calls");
    assert_eq!(retries.get() - retries_before, 0, "retried calls");
}

/// (d) A reply larger than the socket buffers, to a peer that reads
/// late: the loop parks the rest, keeps serving its other connection,
/// and finishes on `POLLOUT` without losing or reordering a byte.
fn a_slow_reader_gets_every_byte_while_others_are_served() {
    let engine = large_engine();
    let (kind, want) = Message::Representative {
        snapshot: EngineSnapshot::of_engine("library", &engine),
    }
    .encode();
    let server = EngineServer::bind("library", engine, "127.0.0.1:0").unwrap();
    assert!(want.len() > 16 << 20, "only {} bytes", want.len());

    let mut slow = handshaken(&server);
    send(&mut slow, 9, &Message::GetRepresentative);
    // Wait (without consuming) until the reply has begun to arrive: from
    // here on the server holds whatever the socket buffers refused.
    slow.peek(&mut [0u8; 1]).expect("the first reply byte");

    let other = RemoteEngine::new(server.addr()).unwrap();
    let until = Instant::now() + Duration::from_millis(200);
    let mut pongs = 0;
    while Instant::now() < until {
        other
            .ping()
            .expect("a blocked write must not block the loop");
        pongs += 1;
    }
    assert!(pongs >= 10, "{pongs} pings answered in 200 ms");

    let before = wakeups();
    let frame = read_frame(&mut slow).expect("the parked reply");
    assert_eq!((frame.corr, frame.kind), (9, kind));
    assert!(frame.payload == want, "the reply must arrive byte-exact");
    assert!(
        wakeups() > before,
        "the reply fit the socket buffers; the test needs a larger one to reach POLLOUT"
    );
    // Still a working request connection.
    send(&mut slow, 10, &Message::Ping);
    assert_eq!(read_frame(&mut slow).expect("a pong").corr, 10);
}

#[test]
fn the_loop_blocks_until_there_is_work_and_misses_none() {
    idle_servers_do_not_wake();
    a_half_closed_peer_is_answered_then_reaped();
    no_wakeup_is_lost();
    a_slow_reader_gets_every_byte_while_others_are_served();
}
