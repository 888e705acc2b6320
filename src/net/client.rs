//! A minimal blocking HTTP/1.1 client for the wire front end: keep-alive
//! with one transparent reconnect, `Content-Length` bodies only. Used by
//! the integration tests and the `sirum-bench` workloads — it speaks
//! exactly the dialect [`crate::net::server`] serves, nothing more.

use crate::json::{parse_json, JsonValue};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Cap on response bodies the client will buffer (64 MiB — mining results
/// on demo-scale tables are far smaller; this guards against a confused
/// server, not real payloads).
const MAX_RESPONSE_BODY: u64 = 64 << 20;

/// A parsed HTTP response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Lowercased header name/value pairs in wire order.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, lossily.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Parse the body as JSON.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the body is not valid JSON.
    pub fn json(&self) -> io::Result<JsonValue> {
        let text = std::str::from_utf8(&self.body).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "response body is not UTF-8")
        })?;
        parse_json(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad JSON body: {e}")))
    }
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A blocking keep-alive client bound to one server address.
pub struct HttpClient {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<Conn>,
}

impl HttpClient {
    /// Create a client for `addr` (connects lazily on first request) with
    /// a 30 s read timeout.
    pub fn new(addr: SocketAddr) -> Self {
        HttpClient {
            addr,
            timeout: Duration::from_secs(30),
            conn: None,
        }
    }

    /// Override the read/write timeout applied to the socket.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// `GET` a path (with query string included).
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and malformed responses.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None, "")
    }

    /// `DELETE` a path.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and malformed responses.
    pub fn delete(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("DELETE", path, None, "")
    }

    /// `POST` a JSON body.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and malformed responses.
    pub fn post_json(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body.as_bytes()), "application/json")
    }

    /// `POST` an arbitrary body (e.g. CSV table uploads).
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures and malformed responses.
    pub fn post(
        &mut self,
        path: &str,
        body: &[u8],
        content_type: &str,
    ) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body), content_type)
    }

    fn connect(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some(Conn {
                reader,
                writer: stream,
            });
        }
        self.conn
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "connection lost"))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        content_type: &str,
    ) -> io::Result<ClientResponse> {
        // One transparent retry on a fresh connection: a keep-alive peer
        // may have idle-closed between our requests.
        match self.request_once(method, path, body, content_type) {
            Ok(response) => Ok(response),
            Err(_) => {
                self.conn = None;
                self.request_once(method, path, body, content_type)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        content_type: &str,
    ) -> io::Result<ClientResponse> {
        let conn = self.connect()?;
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: sirum\r\n");
        if let Some(body) = body {
            head.push_str(&format!(
                "content-type: {content_type}\r\ncontent-length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        let outcome: io::Result<ClientResponse> = (|| {
            conn.writer.write_all(head.as_bytes())?;
            if let Some(body) = body {
                conn.writer.write_all(body)?;
            }
            conn.writer.flush()?;
            read_response(&mut conn.reader)
        })();
        match outcome {
            Ok(response) => {
                if response
                    .header("connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                {
                    self.conn = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

impl std::fmt::Debug for HttpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpClient")
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<ClientResponse> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "server closed the connection",
        ));
    }
    let mut parts = line.trim_end().splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("bad status line: {line:?}")));
    }
    let status: u16 = parts
        .next()
        .unwrap_or_default()
        .parse()
        .map_err(|_| bad(format!("bad status code in {line:?}")))?;

    let mut headers = Vec::new();
    let mut content_length: u64 = 0;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(format!("malformed header {header:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| bad(format!("bad content-length {value:?}")))?;
            if content_length > MAX_RESPONSE_BODY {
                return Err(bad(format!("response body too large: {content_length}")));
            }
        }
        headers.push((name, value));
    }
    let mut body = vec![0_u8; content_length as usize];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}
