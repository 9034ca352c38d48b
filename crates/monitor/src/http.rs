//! The std-only blocking HTTP/1.1 server core shared by the observability
//! daemons (`mab-monitor`'s in-process endpoints and the `mab-serve` sweep
//! daemon).
//!
//! One accept-loop thread owns the listener; each accepted connection is
//! handled on a short-lived thread bounded by [`MAX_CONNECTIONS`] — beyond
//! the cap the connection is answered `503` and closed, so a scrape
//! storm cannot exhaust threads. Routing is a caller-supplied [`Handler`]
//! callback: plain endpoints render a snapshot and close, SSE endpoints keep
//! the [`Conn`] open streaming frames until the client hangs up or the server
//! stops. Shutdown sets a stop flag and pokes the listener with a loopback
//! connect so the blocking `accept` wakes immediately.
//!
//! A client has [`REQUEST_DEADLINE`] from its connection's accept to send
//! the whole request (line, headers and body), and each read waits at most
//! [`IO_TIMEOUT`] of that; a client that misses either is dropped
//! unanswered, so a slow trickle cannot hold a connection slot for longer
//! than the deadline. These limits are constants, with no environment
//! overrides. The request head is capped too: the request line at
//! [`MAX_REQUEST_LINE_BYTES`] (`414` beyond it) and the header lines at
//! [`MAX_HEADER_BYTES`] (`431`). `POST` bodies are read up to
//! `Content-Length`, bounded by [`MAX_BODY_BYTES`] (`413` beyond it; `400`
//! when it does not parse).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum concurrently handled connections; the rest get `503`.
pub const MAX_CONNECTIONS: usize = 32;

/// Longest wait for any one read of a request.
pub const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Time a client has to send its whole request, from the accept on.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Largest accepted request body (1 MiB); longer bodies are answered `413`.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest accepted request line (8 KiB); longer lines are answered `414`.
pub const MAX_REQUEST_LINE_BYTES: usize = 8 << 10;

/// Largest accepted header block, up to and including the blank line
/// (64 KiB); larger blocks are answered `431`.
pub const MAX_HEADER_BYTES: usize = 64 << 10;

/// Counters the server core maintains across all connections.
#[derive(Debug, Default)]
pub struct HttpStats {
    /// Connections answered `503` because the cap was reached.
    pub rejected_conns: AtomicU64,
}

/// One parsed HTTP request: method, split path/query, and the body (empty
/// unless the client sent `Content-Length`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// The path with any query string stripped (`/status?x=1` → `/status`).
    pub path: String,
    /// The raw query string (empty when absent).
    pub query: String,
    /// The request body (empty for body-less requests).
    pub body: String,
}

impl Request {
    /// Looks up `key` in the query string (`a=1&b=2` form; no decoding).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// The write side of one accepted connection, handed to the [`Handler`].
pub struct Conn {
    stream: TcpStream,
    stop: Arc<AtomicBool>,
}

impl Conn {
    /// Writes a full `Connection: close` response.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (the client usually hung up).
    pub fn respond(
        &mut self,
        status_line: &str,
        content_type: &str,
        body: &str,
    ) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {status_line}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()
    }

    /// Writes raw bytes (SSE streamers own their framing).
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// True once the server is shutting down; long-lived streamers must
    /// poll this and unwind.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Per-request routing callback: inspect the [`Request`], answer on the
/// [`Conn`]. Runs on the connection's own thread, so it may block (SSE).
pub type Handler = Arc<dyn Fn(&Request, &mut Conn) + Send + Sync>;

/// A running HTTP server: bound address plus the shutdown handle.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. Streaming connections notice the
    /// stop flag at their next heartbeat and unwind on their own.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept so it observes the flag now.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an ephemeral port)
/// and starts dispatching requests to `handler` on a background thread
/// named `thread_name` (connection threads append `-conn`).
///
/// # Errors
///
/// Returns the bind error when the address is unavailable.
pub fn serve_with(
    addr: &str,
    thread_name: &str,
    stats: Arc<HttpStats>,
    stop: Arc<AtomicBool>,
    handler: Handler,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let accept_stop = Arc::clone(&stop);
    let conn_thread_name = format!("{thread_name}-conn");
    let accept_thread = std::thread::Builder::new()
        .name(thread_name.to_string())
        .spawn(move || {
            let active = Arc::new(AtomicUsize::new(0));
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                if active.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    stats.rejected_conns.fetch_add(1, Ordering::Relaxed);
                    let mut conn = Conn {
                        stream,
                        stop: Arc::clone(&accept_stop),
                    };
                    let _ = conn.respond(
                        "503 Service Unavailable",
                        "text/plain; charset=utf-8",
                        "connection cap reached\n",
                    );
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let stop = Arc::clone(&accept_stop);
                let conn_active = Arc::clone(&active);
                let handler = Arc::clone(&handler);
                let spawned = std::thread::Builder::new()
                    .name(conn_thread_name.clone())
                    .spawn(move || {
                        handle_connection(stream, stop, handler);
                        conn_active.fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    active.fetch_sub(1, Ordering::SeqCst);
                }
            }
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn handle_connection(stream: TcpStream, stop: Arc<AtomicBool>, handler: Handler) {
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut conn = Conn { stream, stop };
    let reader = DeadlineReader {
        stream: clone,
        deadline: Instant::now() + REQUEST_DEADLINE,
    };
    match read_request(&mut BufReader::new(reader)) {
        Ok(Some(request)) => handler(&request, &mut conn),
        Ok(None) => {}
        Err(status_line) => {
            let _ = conn.respond(status_line, "text/plain; charset=utf-8", "bad request\n");
        }
    }
}

/// A connection's read side under the request's deadline: each read waits
/// at most the smaller of [`IO_TIMEOUT`] and the time left, and once the
/// deadline has passed every read fails with `TimedOut`.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left.min(IO_TIMEOUT)))?;
        self.stream.read(buf)
    }
}

/// Reads one line of at most `cap` bytes, line ending included, buffering
/// at most `cap + 1`; `Ok(None)` when the line is longer.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> std::io::Result<Option<Vec<u8>>> {
    let mut line = Vec::new();
    reader.take(cap as u64 + 1).read_until(b'\n', &mut line)?;
    Ok((line.len() <= cap).then_some(line))
}

/// Reads one request (line, headers, body), buffering no more than the
/// caps allow. `Ok(None)` means the client hung up, stalled or ran out of
/// time before sending a whole request; `Err` carries the status line to
/// answer with.
fn read_request(reader: &mut impl BufRead) -> Result<Option<Request>, &'static str> {
    let line = match read_line_capped(reader, MAX_REQUEST_LINE_BYTES) {
        Ok(Some(line)) => String::from_utf8_lossy(&line).into_owned(),
        Ok(None) => return Err("414 URI Too Long"),
        Err(_) => return Ok(None),
    };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    let method = method.to_string();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    // Drain headers until the blank line, capturing Content-Length.
    let mut content_length: usize = 0;
    let mut header_budget = MAX_HEADER_BYTES;
    loop {
        let header = match read_line_capped(reader, header_budget) {
            Ok(Some(header)) => header,
            Ok(None) => return Err("431 Request Header Fields Too Large"),
            Err(_) => return Ok(None),
        };
        header_budget -= header.len();
        if matches!(header.as_slice(), b"" | b"\r\n" | b"\n") {
            break;
        }
        if let Some((name, value)) = String::from_utf8_lossy(&header).split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| "400 Bad Request")?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("413 Payload Too Large");
    }
    let mut body = String::new();
    if content_length > 0 {
        let mut buf = vec![0u8; content_length];
        if reader.read_exact(&mut buf).is_err() {
            return Ok(None);
        }
        body = String::from_utf8_lossy(&buf).into_owned();
    }
    Ok(Some(Request {
        method,
        path,
        query,
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reads `bytes` as one request: the outcome and the bytes consumed.
    fn read_bytes(bytes: &[u8]) -> (Result<Option<Request>, &'static str>, usize) {
        let mut reader = bytes;
        let outcome = read_request(&mut reader);
        (outcome, bytes.len() - reader.len())
    }

    /// One piece of a generated request: raw bytes, a line break, a request
    /// line, a header, or a run long enough to cross a cap.
    fn piece() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            prop::collection::vec(0u8..=255, 0..64),
            Just(b"\r\n".to_vec()),
            Just(b"POST /jobs HTTP/1.1\r\n".to_vec()),
            (0u64..3_000_000).prop_map(|n| format!("Content-Length: {n}\r\n").into_bytes()),
            Just(b"Content-Length: twelve\r\n".to_vec()),
            (1usize..80_000).prop_map(|n| vec![b'a'; n]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// No input panics the reader or makes it read past the caps, and
        /// an over-long first line is always refused.
        #[test]
        fn arbitrary_bytes_stay_within_the_caps(
            pieces in prop::collection::vec(piece(), 0..12),
        ) {
            let bytes = pieces.concat();
            let (outcome, consumed) = read_bytes(&bytes);
            prop_assert!(
                consumed <= MAX_REQUEST_LINE_BYTES + MAX_HEADER_BYTES + MAX_BODY_BYTES + 1,
                "read {} bytes",
                consumed
            );
            let first_line = bytes
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| i + 1);
            if first_line > MAX_REQUEST_LINE_BYTES {
                prop_assert_eq!(outcome, Err("414 URI Too Long"));
            } else if let Ok(Some(request)) = outcome {
                prop_assert!(request.body.len() <= MAX_BODY_BYTES);
            }
        }
    }

    #[test]
    fn request_head_caps_and_bad_lengths_are_refused() {
        let line = |target_len: usize| {
            let prefix = "GET /";
            let suffix = " HTTP/1.1\r\n";
            let pad = "a".repeat(target_len - prefix.len() - suffix.len());
            format!("{prefix}{pad}{suffix}")
        };
        let at_cap = line(MAX_REQUEST_LINE_BYTES) + "\r\n";
        assert!(matches!(read_bytes(at_cap.as_bytes()).0, Ok(Some(_))));
        let over = line(MAX_REQUEST_LINE_BYTES + 1) + "\r\n";
        assert_eq!(read_bytes(over.as_bytes()).0, Err("414 URI Too Long"));
        let endless = vec![b'G'; 4 * MAX_REQUEST_LINE_BYTES];
        let (outcome, consumed) = read_bytes(&endless);
        assert_eq!(outcome, Err("414 URI Too Long"));
        assert_eq!(consumed, MAX_REQUEST_LINE_BYTES + 1);

        let header = "X-Pad: ".to_string() + &"b".repeat(1000) + "\r\n";
        let many = "GET / HTTP/1.1\r\n".to_string()
            + &header.repeat(MAX_HEADER_BYTES / header.len() + 1)
            + "\r\n";
        assert_eq!(
            read_bytes(many.as_bytes()).0,
            Err("431 Request Header Fields Too Large")
        );
        let few = "GET / HTTP/1.1\r\n".to_string() + &header.repeat(8) + "\r\n";
        assert!(matches!(read_bytes(few.as_bytes()).0, Ok(Some(_))));

        let bad = "POST /jobs HTTP/1.1\r\nContent-Length: 12x\r\n\r\n";
        assert_eq!(read_bytes(bad.as_bytes()).0, Err("400 Bad Request"));
        let big = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(read_bytes(big.as_bytes()).0, Err("413 Payload Too Large"));
        let ok = "POST /jobs?x=1 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let request = read_bytes(ok.as_bytes()).0.unwrap().unwrap();
        assert_eq!(
            (
                request.path.as_str(),
                request.query.as_str(),
                request.body.as_str()
            ),
            ("/jobs", "x=1", "{}")
        );
    }

    #[test]
    fn query_params_split() {
        let req = Request {
            method: "GET".to_string(),
            path: "/jobs".to_string(),
            query: "arm=3&client=a".to_string(),
            body: String::new(),
        };
        assert_eq!(req.query_param("arm"), Some("3"));
        assert_eq!(req.query_param("client"), Some("a"));
        assert_eq!(req.query_param("nope"), None);
    }

    #[test]
    fn post_bodies_round_trip_through_the_core() {
        let stats = Arc::new(HttpStats::default());
        let stop = Arc::new(AtomicBool::new(false));
        let handler: Handler = Arc::new(|req, conn| {
            let body = format!("{} {} q={} [{}]", req.method, req.path, req.query, req.body);
            let _ = conn.respond("200 OK", "text/plain; charset=utf-8", &body);
        });
        let mut server = serve_with("127.0.0.1:0", "t", stats, stop, handler).unwrap();
        let url = format!("http://{}/echo?x=1", server.addr());
        let resp = crate::client::post(&url, "{\"k\":2}", Duration::from_secs(5)).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "POST /echo q=x=1 [{\"k\":2}]");
        server.shutdown();
    }
}
