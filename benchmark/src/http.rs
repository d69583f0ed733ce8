//! The client side of the user-facing door: one `POST /search` per TCP
//! connection, as `seu_net::AdminServer` serves it.

use seu_obs::json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Deadline on connect, on the request write and on the reply read.
const TIMEOUT: Duration = Duration::from_secs(10);

/// The JSON body of a search at the benchmark's threshold.
pub fn search_body(query: &str) -> String {
    let mut body = String::from("{\"query\":");
    json::write_escaped(&mut body, query);
    body.push_str(",\"threshold\":");
    json::write_num(&mut body, crate::inputs::THRESHOLD);
    body.push('}');
    body
}

/// One reply: the status code and the body text.
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Reply {
    /// Whether the broker answered completely: 200, every selected
    /// engine `completed`, and a body that closes. Cheap enough to run
    /// on every timed request; full content checks run before timing.
    pub fn is_complete(&self) -> bool {
        self.status == 200
            && self.body.ends_with('}')
            && self.body.contains("\"served_from\":")
            && !self.body.contains("\"outcome\":\"failed\"")
            && !self.body.contains("\"outcome\":\"timed_out\"")
    }
}

/// Sends one search and reads the reply to the end of the connection.
pub fn post_search(addr: SocketAddr, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let request = format!(
        "POST /search HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let mut text = String::from_utf8(raw).map_err(|_| invalid("reply is not UTF-8"))?;
    let head_end = text
        .find("\r\n\r\n")
        .ok_or_else(|| invalid("reply has no head"))?;
    let status = text[..head_end]
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("reply has no status code"))?;
    text.drain(..head_end + 4);
    Ok(Reply { status, body: text })
}

fn invalid(detail: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail)
}
