//! The accept loop: thread-per-connection serving with a connection cap,
//! per-socket read timeouts, and graceful drain.
//!
//! Admission control happens at two layers. At the socket layer, accepts
//! beyond [`ServerConfig::max_connections`] are answered `503` and closed
//! immediately — the accept loop itself never blocks on a slow client. At
//! the job layer, the router submits mining work non-blockingly, so a full
//! worker queue surfaces as `429` + `Retry-After` while the server keeps
//! answering cheap endpoints.

use crate::net::http::{self, HttpError, HttpLimits, Response};
use crate::net::router::Router;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Socket-layer serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connections served before new accepts get `503`
    /// (default 64).
    pub max_connections: usize,
    /// Per-socket read timeout; a connection that stalls mid-request
    /// (slow-loris) is answered `408` and closed (default 10 s).
    pub read_timeout: Duration,
    /// Head/body size caps applied to every request.
    pub limits: HttpLimits,
    /// How long [`Server::shutdown`] waits for in-flight connections to
    /// finish before giving up on them (default 5 s).
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            read_timeout: Duration::from_secs(10),
            limits: HttpLimits::default(),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// A running HTTP server: owns the accept thread and the shutdown flag.
/// Dropping it drains gracefully.
pub struct Server {
    router: Arc<Router>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    accept: Option<thread::JoinHandle<()>>,
    drain_timeout: Duration,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `router` on a background accept thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn bind(
        addr: impl ToSocketAddrs,
        router: Router,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let router = Arc::new(router);
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let drain_timeout = config.drain_timeout;
        let accept = thread::Builder::new().name("sirum-accept".into()).spawn({
            let router = Arc::clone(&router);
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            move || accept_loop(&listener, &router, &shutdown, &active, &config)
        })?;
        Ok(Server {
            router,
            local_addr,
            shutdown,
            active,
            accept: Some(accept),
            drain_timeout,
        })
    }

    /// The bound address (port resolved if `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router behind the accept loop (shared with connection threads).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Stop accepting, wake the accept thread, and wait up to the drain
    /// timeout for in-flight connections to finish. Keep-alive clients get
    /// `Connection: close` on their next response.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        let Some(handle) = self.accept.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::Release);
        // The accept thread is parked in `accept()`; a throwaway local
        // connection is the portable way to wake it so it can observe the
        // flag and exit.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "wake-up probe; if connect fails the listener is already dead and accept() returns anyway"
        )]
        let _ = TcpStream::connect(self.local_addr);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "Err means the accept thread panicked; drain still bounds the wait below and Drop must not propagate"
        )]
        let _ = handle.join();
        let deadline = Instant::now() + self.drain_timeout;
        while self.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("active", &self.active.load(Ordering::Relaxed))
            .field("draining", &self.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

fn accept_loop(
    listener: &TcpListener,
    router: &Arc<Router>,
    shutdown: &Arc<AtomicBool>,
    active: &Arc<AtomicUsize>,
    config: &ServerConfig,
) {
    let metrics = Arc::clone(router.metrics());
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(_) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Transient accept failure (EMFILE, aborted handshake):
                // back off briefly instead of spinning.
                // lint:allow(SL004) — bounded 10 ms backoff on accept errors, the one deliberate pause in this loop
                thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if shutdown.load(Ordering::Acquire) {
            return; // the wakeup connection itself lands here
        }
        metrics.connections.fetch_add(1, Ordering::Relaxed);
        if active.load(Ordering::Acquire) >= config.max_connections {
            reject_connection(stream, &metrics);
            continue;
        }
        active.fetch_add(1, Ordering::AcqRel);
        let spawned = thread::Builder::new().name("sirum-conn".into()).spawn({
            let router = Arc::clone(router);
            let shutdown = Arc::clone(shutdown);
            let active = Arc::clone(active);
            let config = config.clone();
            move || {
                serve_connection(stream, &router, &shutdown, &config);
                active.fetch_sub(1, Ordering::AcqRel);
            }
        });
        if spawned.is_err() {
            // Thread exhaustion is load shedding too; the slot was never
            // really taken.
            active.fetch_sub(1, Ordering::AcqRel);
            metrics.connections_rejected.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Write one response, counting delivery failures. A client that hangs
/// up (or times out) mid-reply is work the server finished but could not
/// deliver; without the counter that loss is invisible in `/metrics`.
/// Returns whether the full response reached the writer.
fn send_response<W: Write>(
    writer: &mut W,
    metrics: &crate::net::metrics::NetMetrics,
    response: &Response,
    keep_alive: bool,
) -> bool {
    match http::write_response(writer, response, keep_alive) {
        Ok(()) => true,
        Err(_) => {
            metrics.write_failures.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// Over the connection cap: say so quickly and hang up — never block the
/// accept loop behind a slow writer.
fn reject_connection(mut stream: TcpStream, metrics: &crate::net::metrics::NetMetrics) {
    metrics.connections_rejected.fetch_add(1, Ordering::Relaxed);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "advisory socket tuning; a connection without the timeout still gets the 503"
    )]
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let response =
        Response::error(503, "server is at its connection cap").with_header("retry-after", "1");
    send_response(&mut stream, metrics, &response, false);
}

/// Serve one connection until close: keep-alive loop of
/// `read_request → route → write_response`, with wire errors mapped to
/// their 4xx statuses and a forced close once draining starts.
fn serve_connection(
    stream: TcpStream,
    router: &Router,
    shutdown: &AtomicBool,
    config: &ServerConfig,
) {
    let metrics = Arc::clone(router.metrics());
    #[expect(
        clippy::let_underscore_must_use,
        reason = "advisory socket tuning; reads still complete without the timeout, just unbounded"
    )]
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    #[expect(
        clippy::let_underscore_must_use,
        reason = "Nagle stays on if this fails; a latency tweak, not a correctness need"
    )]
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let request = match http::read_request(&mut reader, &config.limits) {
            Ok(request) => request,
            Err(HttpError::Closed) => return,
            Err(e) => {
                metrics.read_failures.fetch_add(1, Ordering::Relaxed);
                if let Some(status) = e.status() {
                    let response = Response::error(status, &e.to_string());
                    metrics
                        .endpoint(crate::net::metrics::Endpoint::Other)
                        .record(status, Duration::ZERO);
                    send_response(&mut writer, &metrics, &response, false);
                }
                return;
            }
        };
        let started = Instant::now();
        let (endpoint, response) = router.handle(&request);
        metrics
            .endpoint(endpoint)
            .record(response.status, started.elapsed());
        // Draining: finish this response, then close even if the client
        // asked for keep-alive.
        let keep_alive = request.keep_alive && !shutdown.load(Ordering::Acquire);
        if !send_response(&mut writer, &metrics, &response, keep_alive) || !keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::router::RouterConfig;
    use crate::service::SirumService;
    use std::io::{Read, Write};

    fn spawn_server() -> Server {
        let service = SirumService::in_memory().expect("service");
        service.register_demo("flights").expect("demo");
        let router = Router::new(
            service,
            Arc::new(crate::net::metrics::NetMetrics::new()),
            RouterConfig::default(),
        );
        Server::bind("127.0.0.1:0", router, ServerConfig::default()).expect("bind")
    }

    fn raw_round_trip(addr: SocketAddr, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request).expect("write");
        let mut out = String::new();
        if let Err(e) = stream.read_to_string(&mut out) {
            // A reset after the reply still leaves the reply.
            assert!(!out.is_empty(), "no reply before the read failed: {e}");
        }
        out
    }

    #[test]
    fn serves_health_over_a_real_socket() {
        let server = spawn_server();
        let reply = raw_round_trip(
            server.local_addr(),
            b"GET /health HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
        server.shutdown();
    }

    #[test]
    fn garbage_requests_get_400_and_do_not_kill_the_server() {
        let server = spawn_server();
        let reply = raw_round_trip(server.local_addr(), b"\x00\x01\x02 garbage\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        // Server still alive afterwards.
        let reply = raw_round_trip(
            server.local_addr(),
            b"GET /health HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        server.shutdown();
    }

    #[test]
    fn failed_response_writes_are_counted() {
        struct BrokenPipe;
        impl Write for BrokenPipe {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let metrics = crate::net::metrics::NetMetrics::new();
        let response = Response::error(503, "nope");
        let delivered = send_response(&mut BrokenPipe, &metrics, &response, false);
        assert!(!delivered);
        assert_eq!(metrics.write_failures.load(Ordering::Relaxed), 1);
        // A working writer delivers and leaves the counter alone.
        let mut sink = Vec::new();
        assert!(send_response(&mut sink, &metrics, &response, false));
        assert_eq!(metrics.write_failures.load(Ordering::Relaxed), 1);
        assert!(sink.starts_with(b"HTTP/1.1 503"));
    }

    #[test]
    fn shutdown_drains_and_refuses_new_work() {
        let server = spawn_server();
        let addr = server.local_addr();
        server.shutdown();
        // After shutdown the listener is gone: either the connect fails or
        // the wakeup-race connection is dropped without a response.
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let written = stream.write_all(b"GET /health HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let read = stream.read_to_string(&mut out);
            assert!(
                out.is_empty(),
                "drained server answered: {out} (write {written:?}, read {read:?})"
            );
        }
    }
}
