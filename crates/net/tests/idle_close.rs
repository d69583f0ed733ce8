//! An idle connection the peer closed is found by the next call, which
//! succeeds over one redial without the retry policy being charged.
//!
//! The file holds one test on purpose: it reads the process-global
//! `net_client_retries_total`, and a test binary of its own keeps other
//! tests' calls out of it.

use seu_net::frame::{read_frame, write_frame_corr};
use seu_net::wire::Message;
use seu_net::RemoteEngine;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// A peer that answers `Hello` and `Ping` on every connection, except
/// that it closes the first one after its first `Pong` and says so on
/// `closed`. Returns its address and how many connections it accepted.
fn closing_peer(closed: mpsc::Sender<()>) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let first = count.fetch_add(1, Ordering::SeqCst) == 0;
            let closed = closed.clone();
            std::thread::spawn(move || {
                serve(stream, first);
                if first {
                    let _ = closed.send(());
                }
            });
        }
    });
    (addr, accepted)
}

/// Serves `stream` until the client leaves, or, when `close_after_pong`,
/// until the first `Pong` is written.
fn serve(mut stream: TcpStream, close_after_pong: bool) {
    while let Ok(frame) = read_frame(&mut stream) {
        let reply = match Message::decode(frame.kind, &frame.payload) {
            Ok(Message::Hello { .. }) => Message::HelloAck {
                name: "closer".to_string(),
            },
            Ok(Message::Ping) => Message::Pong,
            _ => return,
        };
        let (kind, payload) = reply.encode();
        if write_frame_corr(&mut stream, frame.corr, kind, &payload).is_err() {
            return;
        }
        if close_after_pong && matches!(reply, Message::Pong) {
            return;
        }
    }
}

#[test]
fn an_idle_connection_the_peer_closed_is_found_by_the_next_call() {
    let retries = seu_obs::counter("net_client_retries_total");
    let (tx, closed) = mpsc::channel();
    let (addr, accepted) = closing_peer(tx);
    let client = RemoteEngine::new(addr).unwrap();

    client.ping().expect("the first call dials");
    closed
        .recv_timeout(Duration::from_secs(5))
        .expect("the peer closes the connection it served");
    // Let the close reach this side's socket.
    std::thread::sleep(Duration::from_millis(20));

    let before = retries.get();
    client
        .ping()
        .expect("the next call redials and is answered");
    assert_eq!(accepted.load(Ordering::SeqCst), 2, "one redial");
    assert_eq!(retries.get(), before, "a stale socket is not a retry");
}
