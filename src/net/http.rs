//! A deliberately small, hostile-input-hardened slice of HTTP/1.1 over
//! `std::io` — request parsing and response writing for the SIRUM wire
//! front end. No external dependencies; the grammar subset is: request
//! line + headers + optional `Content-Length` body, keep-alive and
//! pipelining via the caller's buffered reader, no chunked encoding
//! (`501`), hard caps on head and body size, and socket read timeouts
//! surfacing as typed errors (slow-loris → `408`).

use std::io::{self, BufRead, Read, Write};

/// Size caps applied while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Cap on the request line + headers, bytes (default 16 KiB → `431`).
    pub max_head_bytes: usize,
    /// Cap on the declared body size, bytes (default 16 MiB → `413`).
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 16 << 10,
            max_body_bytes: 16 << 20,
        }
    }
}

/// A parsed request: method, decoded path, query pairs, lowercased
/// headers, body bytes.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Percent-decoded path, query stripped (always starts with `/`).
    pub path: String,
    /// Percent-decoded query pairs in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query key.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each protocol variant maps to one
/// response status; `Io`/`Closed` are connection-level (no response).
#[derive(Debug)]
pub enum HttpError {
    /// Clean EOF before the first byte of a request (keep-alive close).
    Closed,
    /// Malformed request line, header, or `Content-Length` → `400`.
    BadRequest(String),
    /// The socket read timed out mid-request (slow-loris) → `408`.
    Timeout,
    /// Declared body exceeds the cap → `413`.
    BodyTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// Request line + headers exceed the cap → `431`.
    HeadTooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// A feature outside the supported subset (chunked bodies) → `501`.
    Unsupported(&'static str),
    /// Any other I/O failure; the connection is dropped without a
    /// response.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::BadRequest(reason) => write!(f, "bad request: {reason}"),
            HttpError::Timeout => write!(f, "timed out reading the request"),
            HttpError::BodyTooLarge { limit } => {
                write!(f, "request body exceeds the {limit}-byte cap")
            }
            HttpError::HeadTooLarge { limit } => {
                write!(f, "request head exceeds the {limit}-byte cap")
            }
            HttpError::Unsupported(what) => write!(f, "unsupported: {what}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl HttpError {
    /// The response status this error maps to; `None` for connection-level
    /// failures that get no response.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Closed | HttpError::Io(_) => None,
            HttpError::BadRequest(_) => Some(400),
            HttpError::Timeout => Some(408),
            HttpError::BodyTooLarge { .. } => Some(413),
            HttpError::HeadTooLarge { .. } => Some(431),
            HttpError::Unsupported(_) => Some(501),
        }
    }

    fn from_io(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

/// Read one `\n`-terminated line, bounded by `remaining` head bytes.
/// Returns the line without its terminator. `at_start` distinguishes a
/// clean keep-alive close from truncation mid-request.
fn read_line(
    reader: &mut impl BufRead,
    remaining: &mut usize,
    limit: usize,
    at_start: bool,
) -> Result<Vec<u8>, HttpError> {
    let mut line = Vec::new();
    let budget = (*remaining + 1) as u64; // +1 so overflow is detectable
    let n = (&mut *reader)
        .take(budget)
        .read_until(b'\n', &mut line)
        .map_err(HttpError::from_io)?;
    if n == 0 {
        return Err(if at_start && line.is_empty() {
            HttpError::Closed
        } else {
            HttpError::BadRequest("truncated request head".into())
        });
    }
    if line.last() != Some(&b'\n') {
        // Budget exhausted (or EOF) before the terminator.
        return Err(if n > *remaining {
            HttpError::HeadTooLarge { limit }
        } else {
            HttpError::BadRequest("truncated request head".into())
        });
    }
    *remaining = remaining.saturating_sub(n);
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(line)
}

/// Percent-decode a URL component (`%XX`, and `+` → space when `plus`).
/// Invalid escapes pass through literally — hostile input must not panic
/// or error the whole request over a stray `%`.
fn percent_decode(input: &str, plus: bool) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Split a request target into decoded path and query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let pairs = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(kv, true), String::new()),
        })
        .collect();
    (percent_decode(path, false), pairs)
}

/// Read and parse one request from a (possibly pipelined) connection.
///
/// # Errors
/// [`HttpError::Closed`] on clean EOF between requests; otherwise the
/// protocol error mapping to a 4xx/5xx status, or [`HttpError::Io`] for
/// connection-level failures.
pub fn read_request(reader: &mut impl BufRead, limits: &HttpLimits) -> Result<Request, HttpError> {
    let mut remaining = limits.max_head_bytes;
    let line = read_line(reader, &mut remaining, limits.max_head_bytes, true)?;
    let line = String::from_utf8(line)
        .map_err(|_| HttpError::BadRequest("request line is not UTF-8".into()))?;
    if line.bytes().any(|b| b < 0x20 && b != b'\t') {
        return Err(HttpError::BadRequest(
            "control characters in request line".into(),
        ));
    }
    let mut parts = line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {line:?}"
            )))
        }
    };
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version {version:?}"
        )));
    }
    if !target.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "request target {target:?} must be origin-form"
        )));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line(reader, &mut remaining, limits.max_head_bytes, false)?;
        if line.is_empty() {
            break;
        }
        let line = String::from_utf8(line)
            .map_err(|_| HttpError::BadRequest("header is not UTF-8".into()))?;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("header without colon: {line:?}")))?;
        if name.is_empty() || name.contains(' ') || name.contains('\t') {
            return Err(HttpError::BadRequest(format!(
                "invalid header name {name:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    if header("transfer-encoding").is_some() {
        return Err(HttpError::Unsupported("transfer-encoding (chunked bodies)"));
    }
    let content_length = match header("content-length") {
        None => 0,
        Some(v) => v.trim().parse::<usize>().map_err(|_| {
            HttpError::BadRequest(format!("content-length {v:?} is not a valid length"))
        })?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge {
            limit: limits.max_body_bytes,
        });
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpError::BadRequest("body shorter than content-length".into())
            } else {
                HttpError::from_io(e)
            }
        })?;
    }

    let keep_alive = match header("connection").map(str::to_ascii_lowercase) {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    let (path, query) = parse_target(target);
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body,
        keep_alive,
    })
}

/// A response about to be written: status, body, content type, plus any
/// extra headers (e.g. `Retry-After`).
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Extra headers appended verbatim.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\":{}}}", crate::json::json_string(message)),
        )
    }

    /// Append an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }
}

/// Canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialize a response. `keep_alive` selects the `Connection` header; the
/// body always carries an exact `Content-Length` so pipelined clients can
/// frame it.
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    writer.write_all(head.as_bytes())?;
    writer.write_all(&response.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn parse(input: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(input), &HttpLimits::default())
    }

    #[test]
    fn parses_a_get_with_query_and_headers() {
        let req =
            parse(b"GET /explain?table=air%20fares&k=3 HTTP/1.1\r\nHost: x\r\nX-Custom: v\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/explain");
        assert_eq!(req.query_value("table"), Some("air fares"));
        assert_eq!(req.query_value("k"), Some("3"));
        assert_eq!(req.header("x-custom"), Some("v"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let req = parse(b"POST /mine HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(&wire[..]);
        let limits = HttpLimits::default();
        let a = read_request(&mut reader, &limits).unwrap();
        let b = read_request(&mut reader, &limits).unwrap();
        assert_eq!((a.path.as_str(), b.path.as_str()), ("/a", "/b"));
        assert!(a.keep_alive && !b.keep_alive);
        assert!(matches!(
            read_request(&mut reader, &limits),
            Err(HttpError::Closed)
        ));
    }

    #[test]
    fn hostile_inputs_map_to_typed_errors() {
        // Truncated head.
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nHost: tru"),
            Err(HttpError::BadRequest(_))
        ));
        // Garbage request line.
        assert!(matches!(
            parse(b"\x01\x02\x03\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Bad content-length.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Body shorter than declared.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::BadRequest(_))
        ));
        // Chunked is refused, not mis-framed.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"),
            Err(HttpError::Unsupported(_))
        ));
        // Proxy-form targets are rejected.
        assert!(matches!(
            parse(b"GET http://evil/ HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        // Unsupported version.
        assert!(matches!(
            parse(b"GET / HTTP/9.9\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn oversized_head_and_body_hit_their_caps() {
        let limits = HttpLimits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(200));
        assert!(matches!(
            read_request(&mut BufReader::new(long.as_bytes()), &limits),
            Err(HttpError::HeadTooLarge { limit: 64 })
        ));
        let big = b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(matches!(
            read_request(&mut BufReader::new(&big[..]), &limits),
            Err(HttpError::BodyTooLarge { limit: 8 })
        ));
        // An over-cap *declaration* is enough — the body is never read.
        let declared = b"POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert!(matches!(
            read_request(&mut BufReader::new(&declared[..]), &limits),
            Err(HttpError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn error_statuses_match_the_contract() {
        assert_eq!(HttpError::Closed.status(), None);
        assert_eq!(HttpError::BadRequest(String::new()).status(), Some(400));
        assert_eq!(HttpError::Timeout.status(), Some(408));
        assert_eq!(HttpError::BodyTooLarge { limit: 1 }.status(), Some(413));
        assert_eq!(HttpError::HeadTooLarge { limit: 1 }.status(), Some(431));
        assert_eq!(HttpError::Unsupported("x").status(), Some(501));
    }

    #[test]
    fn responses_serialize_with_exact_framing() {
        let mut out = Vec::new();
        let resp =
            Response::json(429, "{\"error\":\"busy\"}".to_string()).with_header("retry-after", "1");
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 16\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"busy\"}"));
    }

    #[test]
    fn percent_decoding_is_lenient_on_bad_escapes() {
        assert_eq!(percent_decode("a%2Fb", false), "a/b");
        assert_eq!(percent_decode("a+b", true), "a b");
        assert_eq!(percent_decode("a+b", false), "a+b");
        assert_eq!(percent_decode("100%", false), "100%");
        assert_eq!(percent_decode("%zz", false), "%zz");
    }

    /// Pieces of requests, well- and ill-formed, for the totality property
    /// to splice: methods, targets with bad escapes, both versions, every
    /// line ending, lengths that do and do not parse, chunked bodies,
    /// control and non-UTF-8 bytes.
    const FRAGMENTS: &[&[u8]] = &[
        b"GET ",
        b"POST ",
        b"/mine",
        b"/x?a=1&b=%2&c",
        b"http://evil/",
        b" HTTP/1.1",
        b" HTTP/1.0",
        b"\r\n",
        b"\n",
        b"\r",
        b"Content-Length: ",
        b"3",
        b"-1",
        b"99999999999999999999999",
        b"Transfer-Encoding: chunked",
        b"Connection: close",
        b"Host:",
        b": ",
        b"abc",
        b"\t",
        b"\0",
        b"\xff\xfe",
    ];

    /// Read requests off `bytes` the way a connection does — until one
    /// fails or the input ends — through a `capacity`-byte buffer under
    /// tiny limits: every read is a request within the limits or a typed
    /// error that maps to a status, and each request consumes input.
    fn read_request_is_total(bytes: &[u8], head: usize, body: usize, capacity: usize) {
        let limits = HttpLimits {
            max_head_bytes: head,
            max_body_bytes: body,
        };
        let mut reader = BufReader::with_capacity(capacity, bytes);
        for _ in 0..=bytes.len() {
            match read_request(&mut reader, &limits) {
                Ok(request) => {
                    assert!(request.path.starts_with('/'), "{request:?}");
                    assert!(request.body.len() <= body, "{request:?}");
                }
                Err(HttpError::Closed) => return,
                Err(e) => {
                    assert!(e.status().is_some(), "{e}");
                    return;
                }
            }
        }
        panic!("{} bytes read as more than {0} requests", bytes.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn read_request_is_total_on_arbitrary_bytes(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
            (head, body, capacity) in (0usize..64, 0usize..16, 1usize..9),
        ) {
            read_request_is_total(&bytes, head, body, capacity);
        }

        #[test]
        fn read_request_is_total_on_spliced_fragments(
            picks in prop::collection::vec(0..FRAGMENTS.len(), 0..32),
            (head, body, capacity) in (0usize..64, 0usize..16, 1usize..9),
        ) {
            let bytes: Vec<u8> = picks.iter().flat_map(|&i| FRAGMENTS[i].iter().copied()).collect();
            read_request_is_total(&bytes, head, body, capacity);
        }
    }
}
