//! A minimal, std-only HTTP/1.1 subset: enough for `skute-server` to
//! speak to curl, Prometheus scrapers, and `skute-load` — request/response
//! framing with `Content-Length` bodies and keep-alive, nothing more (no
//! chunked encoding, no TLS, no HTTP/2). The build environment is
//! offline, so this replaces a network stack dependency on purpose.

use std::fmt::Display;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Upper bound on a request line or header line (guards against a peer
/// streaming garbage into memory).
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on header count per message.
const MAX_HEADERS: usize = 64;
/// Upper bound on a request/response body.
const MAX_BODY: usize = 16 << 20;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `PUT`, ...).
    pub(crate) method: String,
    /// The raw request target (path + optional `?query`), undecoded.
    pub(crate) target: String,
    /// Headers in arrival order, names lower-cased.
    pub(crate) headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The path portion of the target (before any `?`), percent-decoded
    /// to bytes (see [`percent_decode_bytes`]).
    pub(crate) fn path_bytes(&self) -> Vec<u8> {
        percent_decode_bytes(self.target.split('?').next().unwrap_or(""))
    }

    /// `Request::path_bytes` as text (see `percent_decode`).
    pub fn path(&self) -> String {
        String::from_utf8_lossy(&self.path_bytes()).into_owned()
    }

    /// The first query parameter named `name`, percent-decoded to bytes.
    pub(crate) fn query_param_bytes(&self, name: &str) -> Option<Vec<u8>> {
        let query = self.target.split_once('?')?.1;
        for pair in query.split('&') {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            if percent_decode(k) == name {
                return Some(percent_decode_bytes(v));
            }
        }
        None
    }

    /// [`Request::query_param_bytes`] as text (see [`percent_decode`]).
    pub(crate) fn query_param(&self, name: &str) -> Option<String> {
        self.query_param_bytes(name)
            .map(|v| String::from_utf8_lossy(&v).into_owned())
    }

    /// The first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// True when the client asked to close the connection.
    pub(crate) fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A parsed HTTP response (the client side of `skute-load`).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// The first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Reads one request off the wire. `Ok(None)` is a clean EOF between
/// requests (the peer closed a keep-alive connection); a malformed
/// message is an `InvalidData` error.
pub fn read_request<R: Read>(reader: &mut BufReader<R>) -> io::Result<Option<Request>> {
    let Some(line) = read_line(reader, true)? else {
        return Ok(None);
    };
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad("malformed request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers)?;
    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        target: target.to_string(),
        headers,
        body,
    }))
}

/// Reads one response off the wire (must follow a written request).
pub fn read_response<R: Read>(reader: &mut BufReader<R>) -> io::Result<Response> {
    let Some(line) = read_line(reader, true)? else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before the status line",
        ));
    };
    let mut parts = line.split_ascii_whitespace();
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return Err(bad("malformed status line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    let status: u16 = code.parse().map_err(|_| bad("malformed status code"))?;
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Room reserved for a message head, so that encoding one does not grow
/// the buffer line by line.
const HEAD_ROOM: usize = 256;

/// Appends one whole response to `out`: status line, the standard
/// headers, `extra_headers` verbatim, the blank line and the body. The
/// connection header reflects `keep_alive`.
pub(crate) fn encode_response(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) {
    encode_response_head(out, status, content_type, body.len(), keep_alive);
    for (k, v) in extra_headers {
        encode_header(out, k, v);
    }
    encode_body(out, body);
}

/// Appends a response's status line and standard headers to `out`, up to
/// but not including the blank line. Follow with any number of
/// [`encode_header`] calls and exactly one [`encode_body`] of `body_len`
/// bytes.
pub(crate) fn encode_response_head(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    body_len: usize,
    keep_alive: bool,
) {
    out.reserve(HEAD_ROOM + body_len);
    let reason = reason_phrase(status);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {body_len}\r\nConnection: {connection}\r\n"
    )
    .expect("writing to a Vec cannot fail");
}

/// Appends one `name: value` header line to a head under construction.
pub(crate) fn encode_header(out: &mut Vec<u8>, name: &str, value: impl Display) {
    write!(out, "{name}: {value}\r\n").expect("writing to a Vec cannot fail");
}

/// Ends the head with the blank line and appends the body.
pub(crate) fn encode_body(out: &mut Vec<u8>, body: &[u8]) {
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

/// Appends one whole request (client side) to `out`.
pub(crate) fn encode_request(
    out: &mut Vec<u8>,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) {
    out.reserve(HEAD_ROOM + body.len());
    write!(
        out,
        "{method} {target} HTTP/1.1\r\nHost: skute\r\nContent-Length: {}\r\n",
        body.len()
    )
    .expect("writing to a Vec cannot fail");
    for (k, v) in headers {
        encode_header(out, k, v);
    }
    encode_body(out, body);
}

/// Writes one response, head and body in a single `write_all`: with
/// `TCP_NODELAY` set every write is a segment of its own, so a message
/// split in two costs a second trip through the network stack.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = Vec::new();
    encode_response(
        &mut out,
        status,
        content_type,
        body,
        extra_headers,
        keep_alive,
    );
    w.write_all(&out)?;
    w.flush()
}

/// Writes one request (client side) in a single `write_all`, for the
/// reason given at [`write_response`].
pub fn write_request<W: Write>(
    w: &mut W,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut out = Vec::new();
    encode_request(&mut out, method, target, headers, body);
    w.write_all(&out)?;
    w.flush()
}

/// Percent-decodes a URL component to its bytes (`%41` → `A`, `+` left
/// alone — keys may legitimately contain it). Malformed escapes pass
/// through verbatim. Keys are arbitrary bytes, so `%FE` and `%FF` stay
/// two different bytes.
pub(crate) fn percent_decode_bytes(s: &str) -> Vec<u8> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                let h = std::str::from_utf8(h).ok()?;
                u8::from_str_radix(h, 16).ok()
            });
            if let Some(b) = hex {
                out.push(b);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    out
}

/// [`percent_decode_bytes`] as text: bytes that are not UTF-8 become
/// U+FFFD, so two components differing only there decode alike.
pub(crate) fn percent_decode(s: &str) -> String {
    String::from_utf8_lossy(&percent_decode_bytes(s)).into_owned()
}

/// Percent-encodes a URL path component (everything but unreserved chars).
pub(crate) fn percent_encode(s: &[u8]) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'/' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The first header named `name`; stored names are lower-cased, `name`
/// may be spelled in any case.
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one CRLF (or LF) terminated line. `allow_eof` turns EOF at a
/// line start into `Ok(None)`.
fn read_line<R: Read>(reader: &mut BufReader<R>, allow_eof: bool) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if line.is_empty() && allow_eof {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-line",
            ));
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if line.len() > MAX_LINE {
                return Err(bad("line too long"));
            }
            // Valid UTF-8 (every line this protocol produces) keeps the
            // bytes it has; anything else is replaced lossily.
            return Ok(Some(String::from_utf8(line).unwrap_or_else(|e| {
                String::from_utf8_lossy(e.as_bytes()).into_owned()
            })));
        }
        let len = buf.len();
        line.extend_from_slice(buf);
        reader.consume(len);
        if line.len() > MAX_LINE {
            return Err(bad("line too long"));
        }
    }
}

fn read_headers<R: Read>(reader: &mut BufReader<R>) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::with_capacity(8);
    loop {
        let Some(line) = read_line(reader, false)? else {
            return Err(bad("truncated headers"));
        };
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let Some((k, v)) = line.split_once(':') else {
            return Err(bad("malformed header"));
        };
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
}

/// Most a body buffer reserves before the bytes have arrived.
const BODY_RESERVE: usize = 64 * 1024;

fn read_body<R: Read>(
    reader: &mut BufReader<R>,
    headers: &[(String, String)],
) -> io::Result<Vec<u8>> {
    let len = find_header(headers, "content-length")
        .map(|v| v.parse::<usize>().map_err(|_| bad("bad content-length")))
        .transpose()?
        .unwrap_or(0);
    if len > MAX_BODY {
        return Err(bad("body too large"));
    }
    let mut body = Vec::new();
    read_declared(reader, len, &mut body)?;
    Ok(body)
}

/// Reads exactly `len` bytes into `body`. `len` is the peer's claim, so
/// the buffer grows with what has arrived, not with what was declared.
fn read_declared<R: Read>(reader: &mut R, len: usize, body: &mut Vec<u8>) -> io::Result<()> {
    body.reserve_exact(len.min(BODY_RESERVE));
    reader.by_ref().take(len as u64).read_to_end(body)?;
    if body.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-body",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reader(bytes: &[u8]) -> BufReader<&[u8]> {
        BufReader::new(bytes)
    }

    #[test]
    fn parses_request_with_body_and_query() {
        let raw = b"PUT /kv/user%3A1?ttl=5 HTTP/1.1\r\nHost: x\r\nX-Country: 2.1\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut reader(raw)).unwrap().unwrap();
        assert_eq!(req.method, "PUT");
        assert_eq!(req.path(), "/kv/user:1");
        assert_eq!(req.query_param("ttl").as_deref(), Some("5"));
        assert_eq!(req.header("x-country"), Some("2.1"));
        assert_eq!(req.body, b"hello");
        // Clean EOF after the only request.
        assert!(read_request(&mut reader(b"")).unwrap().is_none());
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            200,
            "text/plain",
            b"ok\n",
            &[("X-Extra", "1")],
            true,
        )
        .unwrap();
        let resp = read_response(&mut reader(&wire)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-extra"), Some("1"));
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        assert_eq!(resp.body, b"ok\n");
    }

    #[test]
    fn request_round_trips() {
        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/metrics", &[], b"").unwrap();
        let req = read_request(&mut reader(&wire)).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/metrics");
        assert!(req.body.is_empty());
    }

    /// Counts the `write` calls it receives and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_message_is_one_write() {
        let big = vec![b'v'; 1 << 20];
        for body in [&b""[..], b"hello", &big] {
            let mut w = CountingWriter::default();
            write_response(&mut w, 200, "text/plain", body, &[("X-Extra", "1")], true).unwrap();
            assert_eq!(w.writes, 1, "response with a {} byte body", body.len());
            assert!(w.bytes.ends_with(body));
            let mut w = CountingWriter::default();
            write_request(&mut w, "PUT", "/kv/k", &[("X-Country", "0.0")], body).unwrap();
            assert_eq!(w.writes, 1, "request with a {} byte body", body.len());
            assert!(w.bytes.ends_with(body));
        }
    }

    fn response_bytes(
        status: u16,
        content_type: &str,
        body: &[u8],
        extra: &[(&str, &str)],
        keep_alive: bool,
    ) -> String {
        let mut wire = Vec::new();
        write_response(&mut wire, status, content_type, body, extra, keep_alive).unwrap();
        String::from_utf8(wire).unwrap()
    }

    /// The wire format, byte for byte: status line, header order, spelling
    /// and values.
    #[test]
    fn golden_bytes() {
        assert_eq!(
            response_bytes(
                200,
                "application/octet-stream",
                b"hello",
                &[
                    ("X-Served-By", "s17"),
                    ("X-Proximity", "0.500000"),
                    ("X-Consistency", "one"),
                    ("X-Replicas-Read", "1"),
                ],
                true,
            ),
            "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 5\r\n\
             Connection: keep-alive\r\nX-Served-By: s17\r\nX-Proximity: 0.500000\r\n\
             X-Consistency: one\r\nX-Replicas-Read: 1\r\n\r\nhello"
        );
        assert_eq!(
            response_bytes(404, "text/plain", b"not found\n", &[], false),
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 10\r\n\
             Connection: close\r\n\r\nnot found\n"
        );
        assert_eq!(
            response_bytes(204, "text/plain", b"", &[], true),
            "HTTP/1.1 204 No Content\r\nContent-Type: text/plain\r\nContent-Length: 0\r\n\
             Connection: keep-alive\r\n\r\n"
        );
        let mut wire = Vec::new();
        write_request(
            &mut wire,
            "PUT",
            "/kv/user%3A1",
            &[("X-Country", "2.1"), ("X-Consistency", "quorum")],
            b"v1",
        )
        .unwrap();
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            "PUT /kv/user%3A1 HTTP/1.1\r\nHost: skute\r\nContent-Length: 2\r\n\
             X-Country: 2.1\r\nX-Consistency: quorum\r\n\r\nv1"
        );
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let mut wire = Vec::new();
        write_request(&mut wire, "PUT", "/kv/a", &[], b"one").unwrap();
        write_request(&mut wire, "GET", "/kv/b", &[], b"").unwrap();
        let mut r = reader(&wire);
        let first = read_request(&mut r).unwrap().unwrap();
        assert_eq!(
            (first.method.as_str(), first.target.as_str()),
            ("PUT", "/kv/a")
        );
        assert_eq!(first.body, b"one");
        let second = read_request(&mut r).unwrap().unwrap();
        assert_eq!(
            (second.method.as_str(), second.target.as_str()),
            ("GET", "/kv/b")
        );
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn header_lookup_ignores_case() {
        let raw = b"GET / HTTP/1.1\r\nx-CoUnTrY: 2.1\r\n\r\n";
        let req = read_request(&mut reader(raw)).unwrap().unwrap();
        for name in ["X-Country", "x-country", "X-COUNTRY"] {
            assert_eq!(req.header(name), Some("2.1"), "{name}");
        }
        assert_eq!(req.header("x-countr"), None);
        let resp =
            read_response(&mut reader(b"HTTP/1.1 204 No Content\r\nX-A: b\r\n\r\n")).unwrap();
        assert_eq!(resp.header("x-a"), resp.header("X-A"));
        assert_eq!(resp.header("X-a"), Some("b"));
    }

    #[test]
    fn a_declared_body_is_not_allocated_before_it_arrives() {
        let mut body = Vec::new();
        let err = read_declared(&mut &b"ten bytes!"[..], MAX_BODY, &mut body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(body.capacity() <= BODY_RESERVE, "{}", body.capacity());
        // Through the parser too: the headers' claim alone is an error, not 16 MiB.
        let raw = format!("PUT /kv/k HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\nten bytes!");
        let err = read_request(&mut reader(raw.as_bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // A body larger than the first reservation still arrives whole.
        let big = vec![7u8; 3 * BODY_RESERVE + 5];
        let mut body = Vec::new();
        read_declared(&mut &big[..], big.len(), &mut body).unwrap();
        assert_eq!(body, big);
    }

    #[test]
    fn percent_coding_round_trips() {
        let key: &[u8] = b"user:1/\xFF space";
        let encoded = percent_encode(key);
        assert!(!encoded.contains(' '));
        assert_eq!(percent_decode_bytes(&encoded), key);
        assert_eq!(percent_decode(&encoded).as_bytes()[..7], key[..7]);
        // Malformed escapes pass through instead of erroring.
        assert_eq!(percent_decode("a%ZZb%"), "a%ZZb%");
        assert_eq!(percent_decode_bytes("a%ZZb%"), b"a%ZZb%");
    }

    #[test]
    fn keys_differing_in_a_non_utf8_byte_decode_apart() {
        // The text view maps both bytes to U+FFFD; the byte view keeps them.
        assert_eq!(percent_decode("%FE"), percent_decode("%FF"));
        assert_eq!(percent_decode_bytes("%FE"), [0xFE]);
        assert_eq!(percent_decode_bytes("%FF"), [0xFF]);
        let raw = b"GET /kv/a%FE?prefix=%FFz&limit=3 HTTP/1.1\r\n\r\n";
        let req = read_request(&mut reader(raw)).unwrap().unwrap();
        assert_eq!(req.path_bytes(), b"/kv/a\xFE");
        assert_eq!(req.path(), "/kv/a\u{FFFD}");
        assert_eq!(req.query_param_bytes("prefix").unwrap(), b"\xFFz");
        assert_eq!(req.query_param("limit").as_deref(), Some("3"));
        assert_eq!(req.query_param_bytes("missing"), None);
    }

    #[test]
    fn malformed_requests_error() {
        assert!(read_request(&mut reader(b"garbage\r\n\r\n")).is_err());
        assert!(read_request(&mut reader(b"GET / HTTP/2\r\n\r\n")).is_err());
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE + 1));
        assert!(read_request(&mut reader(huge.as_bytes())).is_err());
    }
}
