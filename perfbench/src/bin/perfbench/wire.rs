//! Raw HTTP/1.1 over TCP, the way an outside client talks to `tg-serve`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One reply: status code and body.
#[derive(Clone, Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

/// One timed exchange: when it started and ended, and the reply or the
/// I/O failure.
pub struct Exchange {
    /// Instant the connection was opened.
    pub start: Instant,
    /// Instant the last reply byte was read.
    pub end: Instant,
    /// The reply, or why none arrived.
    pub reply: Result<Reply, String>,
}

/// Sends `raw` on a fresh connection and reads the reply to EOF (the
/// server answers one request per connection).
pub fn exchange(addr: SocketAddr, raw: &[u8]) -> Exchange {
    let start = Instant::now();
    let reply = send(addr, raw);
    Exchange {
        start,
        end: Instant::now(),
        reply,
    }
}

fn send(addr: SocketAddr, raw: &[u8]) -> Result<Reply, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.write_all(raw).map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    conn.read_to_string(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    let status = reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in {reply:?}"))?;
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or("reply has no header terminator")?;
    Ok(Reply { status, body })
}

/// A `POST` request with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A bodiless `GET` request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}
