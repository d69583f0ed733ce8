//! The length-prefixed frame layer under every message.
//!
//! Every frame is `magic:u32 version:u8 kind:u8 corr:u64 len:u32
//! payload:[u8; len]` (big-endian). `corr` is the **correlation id**:
//! the client stamps each request with a fresh nonzero id and the server
//! echoes it on the reply, so one connection can carry many in-flight
//! requests and the replies reassemble in any order. Frames that are not
//! part of a request/response pair (pushed invalidation notices) carry
//! `corr = 0`.
//!
//! The reader is **byte-capped**: a peer announcing a payload larger
//! than [`MAX_FRAME_BYTES`] is a protocol violation and the frame is
//! rejected before a single payload byte is allocated — the same
//! untrusted-length hardening as `FrozenSummary::from_bytes` applies
//! inside representative payloads.
//!
//! Errors are typed at this layer already: truncated reads are
//! [`TransportErrorKind::ConnectionLost`], socket deadline misses are
//! [`TransportErrorKind::Timeout`], and anything that violates the
//! framing (bad magic, unsupported version, oversized length) is
//! [`TransportErrorKind::Protocol`].
//!
//! Two read paths exist: the blocking [`read_frame`] for handshakes and
//! subscriptions, and the incremental [`parse_frame`] over a read buffer:
//! the server loop keeps one per connection, and a client connection's is
//! read by whichever caller waits on it (neither blocks in `read_exact`).

use crate::metrics::metrics;
use seu_metasearch::{TransportError, TransportErrorKind};
use std::io::{Read, Write};

/// Frame magic — "SEUN".
pub const MAGIC: u32 = 0x5345_554E;

/// Protocol version carried in every frame header. Version 2 added the
/// 8-byte correlation id to the header. A peer speaking a different
/// version is rejected with a typed protocol error rather than
/// misparsed.
pub const PROTOCOL_VERSION: u8 = 2;

/// Largest payload a reader accepts (32 MiB) — comfortably above any
/// real snapshot, far below an allocation-of-death.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// The cap on the way out: a payload the peer's capped reader would
/// reject is refused before it is framed. Once a peer has refused a
/// header it can no longer trust the stream, so sending the frame anyway
/// costs every call pipelined on the connection, not just this one.
pub(crate) fn check_outbound(kind: u8, payload: &[u8]) -> Result<(), TransportError> {
    let len = payload.len();
    if len > MAX_FRAME_BYTES {
        let detail =
            format!("message kind {kind} is {len} bytes, over the {MAX_FRAME_BYTES}-byte cap");
        return Err(TransportError::new(TransportErrorKind::Protocol, detail));
    }
    Ok(())
}

/// Frame header size on the wire: magic, version, kind, correlation id,
/// payload length.
pub const HEADER_BYTES: usize = 4 + 1 + 1 + 8 + 4;

/// One decoded frame: the correlation id, the message kind byte, and
/// its raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Correlation id (0 for pushed / unpipelined frames).
    pub corr: u64,
    /// Message discriminant (see [`crate::wire::Message`]).
    pub kind: u8,
    /// Raw message payload.
    pub payload: Vec<u8>,
}

/// Maps a socket-level I/O error to the transport error it evidences.
pub(crate) fn io_error(err: &std::io::Error, context: &str) -> TransportError {
    use std::io::ErrorKind;
    let kind = match err.kind() {
        ErrorKind::ConnectionRefused | ErrorKind::AddrNotAvailable => TransportErrorKind::Refused,
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportErrorKind::Timeout,
        _ => TransportErrorKind::ConnectionLost,
    };
    TransportError::new(kind, format!("{context}: {err}"))
}

fn header_bytes(corr: u64, kind: u8, payload_len: usize) -> [u8; HEADER_BYTES] {
    let mut header = [0u8; HEADER_BYTES];
    header[..4].copy_from_slice(&MAGIC.to_be_bytes());
    header[4] = PROTOCOL_VERSION;
    header[5] = kind;
    header[6..14].copy_from_slice(&corr.to_be_bytes());
    header[14..].copy_from_slice(&(payload_len as u32).to_be_bytes());
    header
}

/// Appends one encoded frame to `out` and counts it toward the
/// `net_frames_sent` / `net_bytes_sent` instruments. Every frame either
/// side sends is built here.
pub fn encode_frame_into(out: &mut Vec<u8>, corr: u64, kind: u8, payload: &[u8]) {
    out.reserve(HEADER_BYTES + payload.len());
    out.extend_from_slice(&header_bytes(corr, kind, payload.len()));
    out.extend_from_slice(payload);
    let m = metrics();
    m.frames_sent.inc();
    m.bytes_sent.add((HEADER_BYTES + payload.len()) as u64);
}

/// Writes one frame (header + payload) with `corr = 0` and flushes.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), TransportError> {
    write_frame_corr(w, 0, kind, payload)
}

/// Writes one frame carrying an explicit correlation id, and flushes.
/// Header and payload leave in **one** `write` when the socket takes
/// them: on a `TCP_NODELAY` stream two writes are two segments, and a
/// server that wakes on arrival would wake once for a header it cannot
/// parse yet.
pub fn write_frame_corr(
    w: &mut impl Write,
    corr: u64,
    kind: u8,
    payload: &[u8],
) -> Result<(), TransportError> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, corr, kind, payload);
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| io_error(&e, "writing frame"))
}

/// Validates a complete header slice, returning `(corr, kind, len)`.
fn parse_header(header: &[u8], cap: usize) -> Result<(u64, u8, usize), TransportError> {
    let magic = u32::from_be_bytes(header[..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(TransportError::new(
            TransportErrorKind::Protocol,
            format!("bad frame magic {magic:#010x}"),
        ));
    }
    let version = header[4];
    if version != PROTOCOL_VERSION {
        return Err(TransportError::new(
            TransportErrorKind::Protocol,
            format!("unsupported protocol version {version} (this side speaks {PROTOCOL_VERSION})"),
        ));
    }
    let kind = header[5];
    let corr = u64::from_be_bytes(header[6..14].try_into().expect("8 bytes"));
    let len = u32::from_be_bytes(header[14..HEADER_BYTES].try_into().expect("4 bytes")) as usize;
    if len > cap {
        return Err(TransportError::new(
            TransportErrorKind::Protocol,
            format!("frame of {len} bytes exceeds the {cap}-byte cap"),
        ));
    }
    Ok((corr, kind, len))
}

/// Incremental (nonblocking) frame parser: returns `Ok(None)` when `buf`
/// does not yet hold a complete frame, `Ok(Some((frame, consumed)))`
/// when it does, and a typed protocol error on invalid framing. The
/// length cap is checked as soon as the header is complete, before any
/// payload accumulates.
pub fn parse_frame(buf: &[u8], cap: usize) -> Result<Option<(Frame, usize)>, TransportError> {
    if buf.len() < HEADER_BYTES {
        return Ok(None);
    }
    let (corr, kind, len) = parse_header(&buf[..HEADER_BYTES], cap)?;
    if buf.len() < HEADER_BYTES + len {
        return Ok(None);
    }
    let payload = buf[HEADER_BYTES..HEADER_BYTES + len].to_vec();
    let m = metrics();
    m.frames_received.inc();
    m.bytes_received.add((HEADER_BYTES + len) as u64);
    Ok(Some((
        Frame {
            corr,
            kind,
            payload,
        },
        HEADER_BYTES + len,
    )))
}

/// The bytes `buf`, at a frame boundary, must hold for its first frame
/// to be whole, as far as they tell; [`parse_frame`] vets the header.
pub(crate) fn frame_bytes(buf: &[u8]) -> usize {
    match buf.get(HEADER_BYTES - 4..HEADER_BYTES) {
        Some(len) => HEADER_BYTES + u32::from_be_bytes(len.try_into().expect("4 bytes")) as usize,
        None => HEADER_BYTES,
    }
}

/// Reads one frame, rejecting bad magic, version mismatches, and
/// payloads over `cap` bytes before allocating for them.
pub fn read_frame_capped(r: &mut impl Read, cap: usize) -> Result<Frame, TransportError> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)
        .map_err(|e| io_error(&e, "reading frame header"))?;
    let (corr, kind, len) = parse_header(&header, cap)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| io_error(&e, "reading frame payload"))?;
    let m = metrics();
    m.frames_received.inc();
    m.bytes_received.add((HEADER_BYTES + len) as u64);
    Ok(Frame {
        corr,
        kind,
        payload,
    })
}

/// [`read_frame_capped`] at the default [`MAX_FRAME_BYTES`] cap.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, TransportError> {
    read_frame_capped(r, MAX_FRAME_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, b"payload").unwrap();
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(frame.kind, 7);
        assert_eq!(frame.corr, 0);
        assert_eq!(frame.payload, b"payload");
    }

    #[test]
    fn correlation_id_round_trips() {
        let mut wire = Vec::new();
        write_frame_corr(&mut wire, 0xfeed_beef_1234, 9, b"x").unwrap();
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(frame.corr, 0xfeed_beef_1234);
        assert_eq!(frame.kind, 9);
    }

    #[test]
    fn a_frame_that_fits_is_one_write() {
        /// Takes whatever it is handed and counts the calls.
        struct CountingWriter {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter {
            bytes: Vec::new(),
            writes: 0,
        };
        write_frame_corr(&mut w, 11, 3, b"one segment").unwrap();
        assert_eq!(w.writes, 1, "header and payload must leave together");
        let frame = read_frame(&mut w.bytes.as_slice()).unwrap();
        assert_eq!((frame.corr, frame.kind), (11, 3));
        assert_eq!(frame.payload, b"one segment");
    }

    #[test]
    fn bad_magic_is_a_protocol_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b"x").unwrap();
        wire[0] ^= 0xff;
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
    }

    #[test]
    fn version_mismatch_is_a_protocol_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b"x").unwrap();
        wire[4] = PROTOCOL_VERSION + 1;
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        assert!(err.detail.contains("version"), "{err}");
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        // Header announcing a 3 GiB payload with nothing behind it: the
        // cap must reject it without trying to read (or allocate) it.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_be_bytes());
        wire.push(PROTOCOL_VERSION);
        wire.push(1);
        wire.extend_from_slice(&0u64.to_be_bytes());
        wire.extend_from_slice(&(3u32 << 30).to_be_bytes());
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
        assert!(err.detail.contains("cap"), "{err}");
        // The incremental parser applies the cap at the same point.
        let err = parse_frame(&wire, MAX_FRAME_BYTES).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::Protocol);
    }

    #[test]
    fn truncation_is_connection_lost() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 1, b"hello world").unwrap();
        // Mid-payload cut.
        let err = read_frame(&mut &wire[..wire.len() - 4]).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::ConnectionLost);
        // Mid-header cut.
        let err = read_frame(&mut &wire[..3]).unwrap_err();
        assert_eq!(err.kind, TransportErrorKind::ConnectionLost);
    }

    #[test]
    fn incremental_parse_waits_for_complete_frames() {
        let mut wire = Vec::new();
        write_frame_corr(&mut wire, 3, 5, b"abcdef").unwrap();
        write_frame_corr(&mut wire, 4, 6, b"").unwrap();
        // No prefix short of the first full frame parses, and each knows
        // how long that frame is once its header is in.
        for cut in 0..HEADER_BYTES + 6 {
            assert_eq!(parse_frame(&wire[..cut], MAX_FRAME_BYTES).unwrap(), None);
            let known = if cut < HEADER_BYTES { 0 } else { 6 };
            assert_eq!(frame_bytes(&wire[..cut]), HEADER_BYTES + known);
        }
        let (first, used) = parse_frame(&wire, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(
            (first.corr, first.kind, first.payload.as_slice()),
            (3, 5, &b"abcdef"[..])
        );
        let (second, used2) = parse_frame(&wire[used..], MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!((second.corr, second.kind), (4, 6));
        assert_eq!(used + used2, wire.len());
    }
}
