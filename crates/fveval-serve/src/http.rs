//! Minimal HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! Just enough of the protocol for the service: one request per
//! connection (`Connection: close`), `Content-Length` bodies, no
//! chunked encoding, bounded header and body sizes. Both the server
//! and the [`crate::Client`] use these helpers, so the two ends can
//! never disagree about framing.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Largest accepted header block.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted body.
const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed request: method, path, query string, and raw body.
#[derive(Debug)]
pub struct Request {
    /// `GET` / `POST` / ….
    pub method: String,
    /// The request target without its query, e.g. `/v1/jobs/3`.
    pub path: String,
    /// The query string after `?` (without the `?`), empty when none —
    /// e.g. `wait_ms=500` for `/v1/jobs/3?wait_ms=500`.
    pub query: String,
    /// The raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Looks up one query parameter (`k=v` pairs joined by `&`).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// A message head parsed from the front of a buffer.
struct Head {
    /// The request or status line.
    start: String,
    /// Bytes the head occupies, through the blank line that ends it.
    len: usize,
    /// The declared body length (0 without `Content-Length`).
    body_len: usize,
}

/// Parses the message head at the front of `buf`: the one framing rule
/// for both ends. Returns `None` while the blank line that ends the
/// head has not arrived.
///
/// # Errors
///
/// `InvalidData` on a head beyond [`MAX_HEAD`], non-UTF-8 head text, a
/// malformed `Content-Length`, duplicate `Content-Length` headers that
/// disagree, or a declared body beyond [`MAX_BODY`].
fn parse_head(buf: &[u8]) -> std::io::Result<Option<Head>> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        if buf.len() >= MAX_HEAD {
            return Err(invalid("header block too large"));
        }
        return Ok(None);
    };
    if end + 4 > MAX_HEAD {
        return Err(invalid("header block too large"));
    }
    let text = std::str::from_utf8(&buf[..end]).map_err(|_| invalid("non-UTF-8 header"))?;
    let mut lines = text.split("\r\n");
    let start = lines.next().unwrap_or_default().to_string();
    let mut body_len = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let n = value
            .trim()
            .parse::<usize>()
            .map_err(|_| invalid("bad content-length"))?;
        if body_len.is_some_and(|seen| seen != n) {
            return Err(invalid("conflicting content-length headers"));
        }
        body_len = Some(n);
    }
    let body_len = body_len.unwrap_or(0);
    if body_len > MAX_BODY {
        return Err(invalid("body too large"));
    }
    Ok(Some(Head {
        start,
        len: end + 4,
        body_len,
    }))
}

fn parse_request_line(start: &str, body: Vec<u8>) -> std::io::Result<Request> {
    let mut parts = start.split_whitespace();
    let method = parts.next().ok_or_else(|| invalid("empty request line"))?;
    let target = parts
        .next()
        .ok_or_else(|| invalid("missing request path"))?;
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(invalid("unsupported HTTP version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        body,
    })
}

/// Attempts to parse one complete request from the front of `buf`, for
/// an event loop that accumulates bytes as they arrive. Returns `None`
/// while the request is still incomplete, or `Some((request,
/// consumed))` where `consumed` is how many bytes of `buf` the request
/// occupied.
///
/// # Errors
///
/// Returns `InvalidData` on malformed framing (including conflicting
/// `Content-Length` headers) or a head/body beyond the size bounds —
/// the connection should be answered `400` and closed.
pub fn try_parse_request(buf: &[u8]) -> std::io::Result<Option<(Request, usize)>> {
    let Some(head) = parse_head(buf)? else {
        return Ok(None);
    };
    let end = head.len + head.body_len;
    if buf.len() < end {
        return Ok(None);
    }
    let body = buf[head.len..end].to_vec();
    Ok(Some((parse_request_line(&head.start, body)?, end)))
}

/// Renders one `application/json` response as wire bytes, with
/// optional extra headers (e.g. `("Retry-After", "1")` on a `429`).
pub fn response_bytes(
    status: u16,
    reason: &str,
    body: &str,
    extra_headers: &[(&str, String)],
) -> Vec<u8> {
    response_bytes_typed(status, reason, "application/json", body, extra_headers)
}

/// [`response_bytes`] with an explicit `Content-Type` — for the few
/// non-JSON surfaces (the Prometheus `/metrics` text exposition).
pub fn response_bytes_typed(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, String)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Writes one request (the client side of [`try_parse_request`]).
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\n\
         Host: fveval-serve\r\n\
         Content-Type: application/json\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Reads one response; returns `(status, body)`.
///
/// # Errors
///
/// Returns `InvalidData` on malformed framing and propagates transport
/// errors.
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head = loop {
        if let Some(head) = parse_head(&buf)? {
            break head;
        }
        match stream.read(&mut chunk)? {
            0 => return Err(invalid("connection closed mid-header")),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let status = head
        .start
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut body = buf.split_off(head.len);
    let have = body.len().min(head.body_len);
    body.resize(head.body_len, 0);
    stream.read_exact(&mut body[have..])?;
    let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 body"))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_parse_waits_for_the_full_request() {
        let wire = b"POST /v1/eval HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        // Every strict prefix is incomplete, never an error.
        for cut in 0..wire.len() {
            assert!(try_parse_request(&wire[..cut]).unwrap().is_none(), "{cut}");
        }
        let (request, consumed) = try_parse_request(wire).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/eval");
        assert_eq!(request.body, b"hello");
        // Trailing bytes beyond the request are not consumed.
        let mut padded = wire.to_vec();
        padded.extend_from_slice(b"EXTRA");
        let (_, consumed) = try_parse_request(&padded).unwrap().unwrap();
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn query_strings_split_off_the_path() {
        let wire = b"GET /v1/jobs/3?wait_ms=500&x=1 HTTP/1.1\r\n\r\n";
        let (request, _) = try_parse_request(wire).unwrap().unwrap();
        assert_eq!(request.path, "/v1/jobs/3");
        assert_eq!(request.query, "wait_ms=500&x=1");
        assert_eq!(request.query_param("wait_ms"), Some("500"));
        assert_eq!(request.query_param("x"), Some("1"));
        assert_eq!(request.query_param("absent"), None);
        let bare = try_parse_request(b"GET /v1/stats HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap()
            .0;
        assert_eq!(bare.path, "/v1/stats");
        assert_eq!(bare.query, "");
    }

    #[test]
    fn oversized_and_malformed_heads_are_errors() {
        let oversized = vec![b'A'; MAX_HEAD + 1];
        assert!(try_parse_request(&oversized).is_err());
        let bad_version = b"GET / SPDY/9\r\n\r\n";
        assert!(try_parse_request(bad_version).is_err());
        let bad_length = b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert!(try_parse_request(bad_length).is_err());
        // Two lengths that disagree frame the body ambiguously: an
        // error, never a guess that leaves `hello` unread.
        let conflicting = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 0\r\n\r\nhello";
        assert!(try_parse_request(conflicting).is_err());
        let repeated = b"POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        let (request, _) = try_parse_request(repeated).unwrap().unwrap();
        assert_eq!(request.body, b"hello");
    }

    #[test]
    fn responses_frame_through_the_same_head_parser() {
        let serve = |wire: &'static [u8]| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || {
                let (mut conn, _) = listener.accept().unwrap();
                // Split mid-head and mid-body: the reader must reassemble.
                for part in [
                    &wire[..10],
                    &wire[10..wire.len() - 1],
                    &wire[wire.len() - 1..],
                ] {
                    conn.write_all(part).unwrap();
                    conn.flush().unwrap();
                }
            });
            let mut stream = TcpStream::connect(addr).unwrap();
            let got = read_response(&mut stream);
            server.join().unwrap();
            got
        };
        let ok = serve(b"HTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\n{\"a\":1}");
        assert_eq!(ok.unwrap(), (200, "{\"a\":1}".to_string()));
        let conflicting =
            serve(b"HTTP/1.1 200 OK\r\nContent-Length: 7\r\nContent-Length: 2\r\n\r\n{\"a\":1}");
        assert_eq!(
            conflicting.unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn response_bytes_carry_extra_headers() {
        let bytes = response_bytes(
            429,
            "Too Many Requests",
            "{}",
            &[("Retry-After", "1".to_string())],
        );
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
