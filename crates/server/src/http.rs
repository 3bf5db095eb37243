//! A small, strict HTTP/1.1 core: request reading with hard limits,
//! response writing, and a plain client for tests and examples.
//!
//! The server only needs a narrow slice of HTTP — request line, headers,
//! `Content-Length` bodies, keep-alive and pipelining on one buffered
//! stream — so that slice is implemented directly over `std::net` with
//! explicit limits instead of pulling in a framework. Every limit
//! violation maps to a precise status code: malformed syntax is **400**,
//! oversized lines/headers/bodies are **413**.

use std::io::{self, BufRead, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Cumulative header bytes accepted per request.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum number of header fields per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request → respond 400.
    Malformed(&'static str),
    /// A limit was exceeded → respond 413.
    TooLarge(&'static str),
    /// The connection failed (including read timeouts) → drop silently.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::TooLarge(why) => write!(f, "request too large: {why}"),
            HttpError::Io(e) => write!(f, "connection error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target as received, including any query string.
    pub target: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Header fields in order of appearance.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (query string stripped).
    pub fn path(&self) -> &str {
        self.target
            .split_once('?')
            .map_or(self.target.as_str(), |(p, _)| p)
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub(crate) fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => !self.http11,
        }
    }
}

/// Reads one line (up to `max` bytes before the terminator) from `r`
/// into `buf`, replacing its contents, and returns it without the
/// terminator. `Ok(None)` is a clean EOF before any byte of the line.
fn read_line_limited<'b, R: BufRead>(
    r: &mut R,
    max: usize,
    buf: &'b mut Vec<u8>,
) -> Result<Option<&'b [u8]>, HttpError> {
    buf.clear();
    let n = (&mut *r)
        .take(max as u64 + 1)
        .read_until(b'\n', buf)
        .map_err(HttpError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(if buf.len() > max {
            HttpError::TooLarge("line exceeds limit")
        } else {
            HttpError::Malformed("truncated request")
        });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Some(buf))
}

fn ascii_line<'b>(bytes: &'b [u8], what: &'static str) -> Result<&'b str, HttpError> {
    std::str::from_utf8(bytes).map_err(|_| HttpError::Malformed(what))
}

/// Capacity of the line buffer a request is read through: a typical
/// request line or header fits without regrowing.
const LINE_BUF_BYTES: usize = 256;

/// Reads the next request off a buffered stream. `Ok(None)` means the
/// peer closed the connection cleanly between requests (keep-alive /
/// pipelining end). Errors classify as 400 ([`HttpError::Malformed`]),
/// 413 ([`HttpError::TooLarge`]) or connection-level
/// ([`HttpError::Io`]).
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Option<Request>, HttpError> {
    // One line buffer serves the request line and every header line.
    let mut buf = Vec::with_capacity(LINE_BUF_BYTES);
    let Some(line) = read_line_limited(r, MAX_REQUEST_LINE, &mut buf)? else {
        return Ok(None);
    };
    let line = ascii_line(line, "request line is not UTF-8")?;
    if line.is_empty() {
        return Err(HttpError::Malformed("empty request line"));
    }
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(
                "request line is not 'METHOD TARGET VERSION'",
            ))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("method is not an uppercase token"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed(
            "target must be origin-form (start with '/')",
        ));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::Malformed("unsupported HTTP version")),
    };
    let (method, target) = (method.to_string(), target.to_string());

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let Some(line) = read_line_limited(r, MAX_HEADER_BYTES, &mut buf)? else {
            return Err(HttpError::Malformed("connection closed inside headers"));
        };
        if line.is_empty() {
            break;
        }
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge("headers exceed limit"));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::TooLarge("too many header fields"));
        }
        let line = ascii_line(line, "header is not UTF-8")?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header without ':'"));
        };
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("invalid header name"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }

    let mut request = Request {
        method,
        target,
        http11,
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::Malformed("transfer encodings are not supported"));
    }
    if let Some(len) = request.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::Malformed("invalid Content-Length"))?;
        if len > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge("body exceeds limit"));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpError::Malformed("truncated body")
            } else {
                HttpError::Io(e)
            }
        })?;
        request.body = body;
    }
    Ok(Some(request))
}

/// Standard reason phrase for the status codes the server emits.
pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One response, written with `Content-Length` framing.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether to send `Connection: close` and drop the connection.
    pub close: bool,
    /// `Retry-After` header value in seconds, when set (429/503 replies).
    pub retry_after_secs: Option<u64>,
}

impl Response {
    fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type,
            body: body.into(),
            close: false,
            retry_after_secs: None,
        }
    }

    /// A `text/html` response (the self-contained dashboard).
    pub(crate) fn html(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response::new(status, "text/html; charset=utf-8", body)
    }

    /// An `application/json` response.
    pub(crate) fn json(status: u16, body: &crate::json::Json) -> Self {
        Response::json_text(status, body.to_string())
    }

    /// The `{"error": why}` body every failed request gets.
    pub(crate) fn error(status: u16, why: impl Into<String>) -> Self {
        let why = crate::json::Json::str(why);
        Response::json(status, &crate::json::Json::obj(vec![("error", why)]))
    }

    /// An `application/json` response from pre-rendered JSON text.
    pub(crate) fn json_text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response::new(status, "application/json", body)
    }

    /// An NDJSON (one JSON document per line) response.
    pub fn ndjson(status: u16, lines: impl Into<Vec<u8>>) -> Self {
        Response::new(status, "application/x-ndjson", lines)
    }

    /// A Prometheus text-exposition response.
    pub(crate) fn prometheus(body: impl Into<Vec<u8>>) -> Self {
        Response::new(200, "text/plain; version=0.0.4; charset=utf-8", body)
    }

    /// Marks the connection for closing after this response.
    pub(crate) fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// Attaches a `Retry-After: secs` header (for 429/503 replies).
    pub(crate) fn retry_after(mut self, secs: u64) -> Self {
        self.retry_after_secs = Some(secs);
        self
    }

    /// Writes the response (status line, headers, body) and flushes.
    ///
    /// One buffer, one write: the whole reply is framed first and handed
    /// to `w` in a single `write_all`, so on a `TCP_NODELAY` socket it
    /// leaves as one send instead of one per header line.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut framed = Vec::with_capacity(128 + self.body.len());
        write!(
            framed,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        if let Some(secs) = self.retry_after_secs {
            write!(framed, "Retry-After: {secs}\r\n")?;
        }
        if self.close {
            framed.extend_from_slice(b"Connection: close\r\n");
        }
        framed.extend_from_slice(b"\r\n");
        framed.extend_from_slice(&self.body);
        w.write_all(&framed)?;
        w.flush()
    }
}

/// A parsed client-side response, as returned by [`fetch`] and
/// [`HttpClient::request`].
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response header fields in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Response body as UTF-8 text.
    pub body: String,
}

impl ClientResponse {
    /// Case-insensitive response-header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Reads one `Content-Length`-framed response off a buffered stream.
/// Returns the response plus whether the server asked to close the
/// connection afterwards.
fn read_client_response<R: BufRead>(r: &mut R) -> io::Result<(ClientResponse, bool)> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before status line",
        ));
    }
    let status: u16 = line
        .trim_end()
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("response without status"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if r.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed inside response headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid("response header without ':'"))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    let resp = ClientResponse {
        status,
        headers,
        body: String::new(),
    };
    let close = resp
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
    let body = match resp.header("content-length") {
        Some(len) => {
            let len: usize = len.parse().map_err(|_| invalid("bad Content-Length"))?;
            let mut buf = vec![0u8; len];
            r.read_exact(&mut buf)?;
            String::from_utf8(buf).map_err(|_| invalid("body is not UTF-8"))?
        }
        // No framing: the body runs to connection close.
        None => {
            let mut buf = String::new();
            r.read_to_string(&mut buf)?;
            buf
        }
    };
    Ok((ClientResponse { body, ..resp }, close))
}

/// A blocking HTTP/1.1 client that keeps its connection alive across
/// requests, reconnecting transparently when the server (or a timeout)
/// closed it. One in-flight request at a time; 5 s timeouts.
///
/// This is what the `bench-serve` load generator and the demo drive —
/// connection reuse keeps the measured latency about the *query*, not
/// about TCP handshakes.
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<io::BufReader<TcpStream>>,
    /// SplitMix64 state for backoff jitter (seeded per client so a
    /// fleet of bench connections doesn't retry in lockstep).
    jitter: u64,
}

/// Total tries per [`HttpClient::request`] (the first attempt plus up
/// to two safe retries).
const CLIENT_MAX_ATTEMPTS: u32 = 3;
/// First-retry backoff; doubles per attempt up to [`CLIENT_MAX_DELAY_MS`].
const CLIENT_BASE_DELAY_MS: u64 = 10;
/// Backoff ceiling per retry.
const CLIENT_MAX_DELAY_MS: u64 = 200;

/// How far a failed exchange got, which decides whether a retry on a
/// fresh connection can be safe (the server must provably not have
/// executed the request — or the request must be idempotent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailurePoint {
    /// No request byte was handed to the socket; the server cannot have
    /// seen the request, so a retry is always safe.
    PreSend,
    /// The request was (at least partly) written but the connection
    /// closed before a single response byte arrived — the classic
    /// keep-alive idle-close race. The server *probably* never processed
    /// the request, but only idempotent methods may assume so.
    NoResponse,
    /// Failure mid-exchange: bytes partially written with the socket
    /// still up, a read timeout, a truncated response. The server may
    /// well be executing (or have executed) the request; never retry.
    MidExchange,
}

impl HttpClient {
    /// Creates a client for `addr` and opens the first connection.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0x5eed, |d| d.as_nanos() as u64);
        Ok(HttpClient {
            addr,
            stream: Some(Self::open(addr)?),
            jitter: seed,
        })
    }

    fn open(addr: SocketAddr) -> io::Result<io::BufReader<TcpStream>> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        // Request/response traffic: Nagle + delayed ACK would add tens of
        // milliseconds per round trip for nothing.
        stream.set_nodelay(true)?;
        Ok(io::BufReader::new(stream))
    }

    /// Sends one request and reads its response, reusing the persistent
    /// connection.
    ///
    /// A failed exchange is retried on a fresh connection — up to
    /// `CLIENT_MAX_ATTEMPTS` (3) tries total, with capped exponential
    /// backoff plus jitter between them — but only when the server
    /// cannot have executed the request twice: always when no request
    /// byte reached the socket, and for idempotent methods
    /// (`GET`/`HEAD`) also when the connection closed before any
    /// response byte (the keep-alive idle-close race). That race gets
    /// its first reconnect immediately, without a backoff sleep, since
    /// the server is healthy — it merely timed the idle socket out. A
    /// non-idempotent request that failed after being sent — say a read
    /// timeout on a slow `POST /query` — surfaces as an error instead of
    /// silently running the query a second time.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        self.request_with_headers(method, path, &[], body)
    }

    /// Like [`request`](Self::request), with extra request headers (e.g.
    /// `X-CCP-Tenant`). Header names and values must be single-line;
    /// `Host` and `Content-Length` are always set by the client.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let idempotent = matches!(method, "GET" | "HEAD");
        let mut attempt = 1u32;
        loop {
            let reused = self.stream.is_some();
            match self.try_request(method, path, headers, body) {
                Ok(resp) => return Ok(resp),
                Err((e, point)) => {
                    let retry_is_safe = match point {
                        FailurePoint::PreSend => true,
                        FailurePoint::NoResponse => idempotent,
                        FailurePoint::MidExchange => false,
                    };
                    if !retry_is_safe || attempt >= CLIENT_MAX_ATTEMPTS {
                        return Err(e);
                    }
                    if !(reused && attempt == 1) {
                        std::thread::sleep(self.backoff_delay(attempt));
                    }
                    attempt += 1;
                }
            }
        }
    }

    /// Backoff before retry number `attempt`: exponential from
    /// [`CLIENT_BASE_DELAY_MS`], capped at [`CLIENT_MAX_DELAY_MS`], with
    /// the upper half jittered so concurrent clients spread out.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let exp = CLIENT_BASE_DELAY_MS
            .saturating_mul(1u64 << (attempt - 1).min(10))
            .min(CLIENT_MAX_DELAY_MS);
        let jitter = ccp_fault::splitmix64(self.jitter) % (exp / 2 + 1);
        self.jitter = self.jitter.wrapping_add(ccp_fault::SPLITMIX64_GAMMA);
        Duration::from_millis(exp / 2 + jitter)
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<ClientResponse, (io::Error, FailurePoint)> {
        if self.stream.is_none() {
            self.stream = Some(Self::open(self.addr).map_err(|e| (e, FailurePoint::PreSend))?);
        }
        let Some(reader) = self.stream.as_mut() else {
            return Err((
                io::Error::new(io::ErrorKind::NotConnected, "connection not opened"),
                FailurePoint::PreSend,
            ));
        };
        let body = body.unwrap_or("");
        let extra = headers
            .iter()
            .map(|(name, value)| format!("{name}: {value}\r\n"))
            .collect::<String>();
        // One buffer, one write: the request must not straddle TCP
        // segments the peer's delayed ACK would stall on.
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n{extra}\r\n{body}",
            self.addr,
            body.len()
        );
        match Self::exchange(reader, raw.as_bytes()) {
            Ok((resp, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    /// Writes one framed request and reads its response, classifying any
    /// failure by how far the exchange got (see [`FailurePoint`]).
    fn exchange(
        reader: &mut io::BufReader<TcpStream>,
        raw: &[u8],
    ) -> Result<(ClientResponse, bool), (io::Error, FailurePoint)> {
        let mut written = 0usize;
        while written < raw.len() {
            // `write` rather than `write_all`: distinguishing "the very
            // first write failed, zero bytes handed to the kernel" (the
            // only provably-unsent case) from a partial send needs the
            // byte count at the failure.
            let at = if written == 0 {
                FailurePoint::PreSend
            } else {
                FailurePoint::MidExchange
            };
            match reader.get_mut().write(&raw[written..]) {
                Ok(0) => {
                    return Err((
                        io::Error::new(io::ErrorKind::WriteZero, "socket refused request bytes"),
                        at,
                    ))
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err((e, at)),
            }
        }
        // Peek at the first response byte before parsing, so "the server
        // closed or reset without responding at all" is distinguishable
        // from a failure mid-response. `fill_buf` (unlike `read_until` /
        // `read_exact`) surfaces EINTR, which any signal delivered to
        // this thread causes — retry it here.
        let peeked = loop {
            match reader.fill_buf() {
                Ok(buf) => break Ok(buf.is_empty()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            }
        };
        match peeked {
            Ok(true) => Err((
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before any response byte",
                ),
                FailurePoint::NoResponse,
            )),
            Ok(false) => read_client_response(reader).map_err(|e| (e, FailurePoint::MidExchange)),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::BrokenPipe
                ) =>
            {
                Err((e, FailurePoint::NoResponse))
            }
            Err(e) => Err((e, FailurePoint::MidExchange)),
        }
    }
}

/// Minimal blocking HTTP client used by tests, examples and the CLI's
/// one-shot scrapes: one request per connection
/// (`Connection: close`), 5 s timeouts. For repeated requests prefer
/// [`HttpClient`], which reuses its connection.
pub fn fetch(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<ClientResponse> {
    fetch_with_headers(addr, method, path, &[], body)
}

/// Like [`fetch`], with extra request headers (e.g. `X-CCP-Tenant`).
pub fn fetch_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> io::Result<ClientResponse> {
    let mut reader = HttpClient::open(addr)?;
    let body = body.unwrap_or("");
    let extra = headers
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect::<String>();
    write!(
        reader.get_mut(),
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n{extra}\r\n{body}",
        body.len()
    )?;
    let (resp, _) = read_client_response(&mut reader)?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_get_with_headers() {
        let req = parse(b"GET /metrics?debug=1 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/metrics");
        assert_eq!(req.target, "/metrics?debug=1");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse(b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let raw: &[u8] =
            b"GET /healthz HTTP/1.1\r\n\r\nPOST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut r = BufReader::new(raw);
        let a = read_request(&mut r).unwrap().unwrap();
        let b = read_request(&mut r).unwrap().unwrap();
        assert_eq!(a.path(), "/healthz");
        assert_eq!(b.body, b"hi");
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn malformed_inputs_are_400() {
        for raw in [
            &b"garbage\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\n: empty\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET /x HTTP/1.1\r\ntrunc",
        ] {
            match parse(raw) {
                Err(HttpError::Malformed(_)) => {}
                other => panic!("expected Malformed for {raw:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_inputs_are_413() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        let big_header = format!(
            "GET /x HTTP/1.1\r\nX-Big: {}\r\n\r\n",
            "b".repeat(MAX_HEADER_BYTES)
        );
        let many_headers = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            (0..MAX_HEADERS + 1)
                .map(|i| format!("X-{i}: v\r\n"))
                .collect::<String>()
        );
        let huge_body = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        for raw in [long_target, big_header, many_headers, huge_body] {
            match parse(raw.as_bytes()) {
                Err(HttpError::TooLarge(_)) => {}
                other => panic!("expected TooLarge, got {other:?}"),
            }
        }
    }

    #[test]
    fn connection_close_semantics() {
        let req = parse(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close());
        let req = parse(b"GET /x HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(req.wants_close());
        let req = parse(b"GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.wants_close());
    }

    /// A writer that counts `write` calls, the way a socket counts sends.
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

    /// Every shape of reply leaves in exactly one `write`, with the bytes
    /// the header-by-header framing produced.
    #[test]
    fn every_reply_is_one_write_with_unchanged_bytes() {
        let json = crate::json::Json::obj(vec![("error", crate::json::Json::str("full"))]);
        let cases: [(Response, &str); 7] = [
            (
                Response::json(429, &json),
                "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                 Content-Length: 16\r\n\r\n{\"error\":\"full\"}",
            ),
            (
                Response::ndjson(200, "{\"a\":1}\n"),
                "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                 Content-Length: 8\r\n\r\n{\"a\":1}\n",
            ),
            (
                Response::prometheus("x 1\n"),
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
                 Content-Length: 4\r\n\r\nx 1\n",
            ),
            (
                Response::html(200, "<p>"),
                "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n\
                 Content-Length: 3\r\n\r\n<p>",
            ),
            (
                Response::html(503, "busy").retry_after(2),
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/html; charset=utf-8\r\n\
                 Content-Length: 4\r\nRetry-After: 2\r\n\r\nbusy",
            ),
            (
                Response::error(400, "bad").closing(),
                "HTTP/1.1 400 Bad Request\r\nContent-Type: application/json\r\n\
                 Content-Length: 15\r\nConnection: close\r\n\r\n{\"error\":\"bad\"}",
            ),
            (
                Response::json_text(503, "").retry_after(1).closing(),
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                 Content-Length: 0\r\nRetry-After: 1\r\nConnection: close\r\n\r\n",
            ),
        ];
        for (resp, want) in cases {
            let mut w = CountingWriter::default();
            resp.write_to(&mut w).unwrap();
            assert_eq!(w.writes, 1, "{resp:?} took {} writes", w.writes);
            assert_eq!(String::from_utf8(w.bytes).unwrap(), want);
        }
    }

    #[test]
    fn client_reuses_one_connection_across_requests() {
        use std::net::TcpListener;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let accepted2 = accepted.clone();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            accepted2.fetch_add(1, Ordering::SeqCst);
            let mut reader = BufReader::new(stream);
            for i in 0..3 {
                let req = read_request(&mut reader).unwrap().unwrap();
                assert_eq!(req.path(), format!("/r{i}"));
                Response::html(200, format!("ok{i}"))
                    .write_to(reader.get_mut())
                    .unwrap();
            }
        });
        let mut client = HttpClient::connect(addr).unwrap();
        for i in 0..3 {
            let resp = client.request("GET", &format!("/r{i}"), None).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, format!("ok{i}"));
            assert_eq!(
                resp.header("content-type"),
                Some("text/html; charset=utf-8")
            );
        }
        server.join().unwrap();
        assert_eq!(accepted.load(Ordering::SeqCst), 1, "connection was reused");
    }

    #[test]
    fn client_reconnects_after_server_close() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                let _ = read_request(&mut reader).unwrap().unwrap();
                Response::html(200, "bye")
                    .closing()
                    .write_to(reader.get_mut())
                    .unwrap();
                // Dropping the stream closes the connection.
            }
        });
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.request("GET", "/a", None).unwrap().body, "bye");
        // Server closed after the response; the next request transparently
        // opens a fresh connection.
        assert_eq!(client.request("GET", "/b", None).unwrap().body, "bye");
        server.join().unwrap();
    }

    #[test]
    fn idempotent_get_retries_after_idle_close_race() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                let _ = read_request(&mut reader).unwrap().unwrap();
                // Respond keep-alive, then close anyway: the next request
                // on this connection hits the idle-close race.
                Response::html(200, "ok")
                    .write_to(reader.get_mut())
                    .unwrap();
            }
        });
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.request("GET", "/a", None).unwrap().body, "ok");
        // The server dropped the connection without announcing it; the
        // GET is idempotent, so the client retries on a fresh connection.
        assert_eq!(client.request("GET", "/b", None).unwrap().body, "ok");
        server.join().unwrap();
    }

    #[test]
    fn post_is_not_retried_once_the_request_was_sent() {
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let _ = read_request(&mut reader).unwrap().unwrap();
            Response::html(200, "ok")
                .write_to(reader.get_mut())
                .unwrap();
            // Read the second request fully — the server "received" it —
            // then die without responding.
            let _ = read_request(&mut reader).unwrap().unwrap();
            drop(reader);
            listener
        });
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(
            client.request("POST", "/query", Some("x")).unwrap().status,
            200
        );
        // The second POST reached the server but got no response: the
        // client must surface the error, not replay a non-idempotent
        // request that may already have executed.
        let err = client.request("POST", "/query", Some("x")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        // Any (buggy) retry would have reconnected before `request`
        // returned; the listener must have no pending connection.
        let listener = server.join().unwrap();
        listener.set_nonblocking(true).unwrap();
        match listener.accept() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            other => panic!("unexpected reconnect: {other:?}"),
        }
    }
}
