//! HTTP/1.1-subset front-end over TCP, with persistent connections.
//!
//! Enough of HTTP for the Laminar client: request line, headers,
//! `Content-Length` bodies, JSON responses, keep-alive (no pipelining, no
//! chunked bodies). This is the "remote" path of Table 5; local
//! deployments use the in-process transport instead.
//!
//! One handler thread serves one *connection*, request after request, so
//! a kept socket holds a thread. Three things make it safe to keep
//! (DESIGN.md §3.2): a cap on live connections, a deadline on every
//! server-side wait, and a `stop()` that shuts the kept sockets instead of
//! waiting for their peers to hang up. Every product socket, client or
//! server side, is opened in this file, where `TCP_NODELAY` and the
//! deadlines are set.

use crate::api::{ApiRequest, ApiResponse, Method};
use crate::server::{LaminarServer, Routed};
use laminar_json::{parse, to_string, Value};
use laminar_registry::RegistryError;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The four bounds a kept connection lives under. `start` always passes
/// [`LIMITS`]; only this file's tests pass shorter ones.
#[derive(Clone, Copy)]
struct Limits {
    /// Live connections — idle, active and parked long-polls together —
    /// and with them handler threads. The next one is answered 429 and
    /// closed by the acceptor.
    max_connections: usize,
    /// How long a kept connection may wait for the first byte of its next
    /// request before the server closes it, silently.
    keep_alive_idle: Duration,
    /// From a request's first byte to its last body byte, as a total.
    request_deadline: Duration,
    /// Longest a response write may sit blocked on a peer that does not
    /// read.
    write_timeout: Duration,
}

const LIMITS: Limits = Limits {
    max_connections: 256,
    keep_alive_idle: Duration::from_secs(30),
    request_deadline: Duration::from_secs(10),
    write_timeout: Duration::from_secs(10),
};

/// Request line, status line and each header line.
const MAX_LINE: usize = 8 * 1024;
const MAX_HEADERS: usize = 64;
/// Request bodies: the registry stores code, not blobs.
const MAX_BODY: usize = 16 * 1024 * 1024;
/// Most a body's buffer reserves before its bytes arrive; the client
/// trusts a response's `Content-Length` no further than this.
const BODY_RESERVE: usize = 64 * 1024;
/// The client's connect; its writes share `LIMITS.write_timeout`.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Percent-encode a path segment (RFC 3986 unreserved set passes through).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Percent-decode; invalid escapes pass through literally.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let Some(&[hi, lo]) = bytes.get(i + 1..i + 3) {
                if let (Some(hi), Some(lo)) = (hex_digit(hi), hex_digit(lo)) {
                    out.push(hi << 4 | lo);
                    i += 3;
                    continue;
                }
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// One ASCII hex digit's value. `u8::from_str_radix` is no substitute: it
/// takes a leading `+`, so it would read `%+f` as an escape.
fn hex_digit(b: u8) -> Option<u8> {
    (b as char).to_digit(16).map(|d| d as u8)
}

/// The live connections: the count the cap reads, a handle to each socket
/// for `stop()` to shut, and a condvar for its drain.
#[derive(Default)]
struct HandlerTracker {
    live: Mutex<HashMap<usize, Live>>,
    drained: Condvar,
}

struct Live {
    socket: TcpStream,
    /// Set once the connection has been answered: from then on a wait for
    /// its next request is an idle wait, which `stop()` may end. Until
    /// then a client is owed an answer, and `stop()` drains it.
    kept: bool,
}

impl HandlerTracker {
    fn active(&self) -> usize {
        self.live.lock().len()
    }

    fn mark_kept(&self, id: usize) {
        if let Some(connection) = self.live.lock().get_mut(&id) {
            connection.kept = true;
        }
    }

    /// Close the read side of every kept socket: a handler idling on one
    /// sees EOF and exits; one that already read its next request is not
    /// disturbed.
    fn shut_kept(&self) {
        for connection in self.live.lock().values().filter(|c| c.kept) {
            let _ = connection.socket.shutdown(Shutdown::Read);
        }
    }

    /// Block until every handler finished or `timeout` passed; returns the
    /// number still active.
    fn drain(&self, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut live = self.live.lock();
        while !live.is_empty() {
            if self.drained.wait_until(&mut live, deadline).timed_out() {
                break;
            }
        }
        live.len()
    }
}

/// A handler's claim on its connection's slot; forgets the connection
/// even if the handler panics.
struct HandlerGuard {
    edge: Arc<Edge>,
    id: usize,
}

impl Drop for HandlerGuard {
    fn drop(&mut self) {
        self.edge.handlers.live.lock().remove(&self.id);
        self.edge.handlers.drained.notify_all();
    }
}

/// What the acceptor, the handlers and the [`HttpServer`] handle share.
struct Edge {
    limits: Limits,
    shutdown: AtomicBool,
    handlers: HandlerTracker,
    accepted: AtomicU64,
    refused: AtomicU64,
}

/// A running HTTP server wrapping a [`LaminarServer`].
///
/// Thread-per-connection, but with no global server lock: `LaminarServer::
/// handle` takes `&self`, so handlers route concurrently — reads share the
/// registry lock and executions go to the engine worker pool.
pub struct HttpServer {
    addr: SocketAddr,
    join: Option<std::thread::JoinHandle<()>>,
    edge: Arc<Edge>,
}

impl HttpServer {
    /// Bind to `127.0.0.1:0` (ephemeral port) and start serving `server`:
    /// a `LaminarServer` of its own, or an `Arc` of one that in-process
    /// callers keep routing to beside the edge.
    pub fn start(server: impl Into<Arc<LaminarServer>>) -> io::Result<HttpServer> {
        Self::start_with(server, LIMITS)
    }

    fn start_with(server: impl Into<Arc<LaminarServer>>, limits: Limits) -> io::Result<HttpServer> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the edge's one listener; every accepted socket gets its deadlines in `Edge::admit`"
        )]
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let edge = Arc::new(Edge {
            limits,
            shutdown: AtomicBool::new(false),
            handlers: HandlerTracker::default(),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        });
        let acceptor = Arc::clone(&edge);
        let server = server.into();
        // Handler threads carry the port in their name, so a process
        // listing tells one server's connections from another's.
        let handler_name = format!("http-{}", addr.port());
        let join = std::thread::spawn(move || {
            for (id, stream) in listener.incoming().enumerate() {
                if acceptor.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                acceptor.admit(id, stream, &server, &handler_name);
            }
        });
        Ok(HttpServer { addr, join: Some(join), edge })
    }

    /// Address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live connections, each holding one handler thread: in a request,
    /// parked in a long-poll, or idle between two requests.
    pub fn active_handlers(&self) -> usize {
        self.edge.handlers.active()
    }

    /// Connections handed to a handler since `start`.
    pub fn connections_accepted(&self) -> u64 {
        self.edge.accepted.load(Ordering::Relaxed)
    }

    /// Connections turned away since `start`: answered 429 and closed by
    /// the acceptor because the cap was reached (or, should the OS refuse
    /// a socket handle or a thread, closed for want of a handler).
    pub fn connections_refused(&self) -> u64 {
        self.edge.refused.load(Ordering::Relaxed)
    }

    /// Stop accepting, join the acceptor thread, shut the kept sockets and
    /// drain in-flight handlers so shutdown is deterministic.
    pub fn stop(mut self) {
        self.shutdown_and_drain();
    }

    fn shutdown_and_drain(&mut self) {
        self.edge.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor with a dummy connection.
        #[expect(clippy::disallowed_methods, reason = "a wake-up for the acceptor, never read or written")]
        let _ = TcpStream::connect(self.addr);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        // The acceptor is gone, so the set of live sockets only shrinks
        // from here. A handler idling on a kept connection exits on the
        // EOF; an in-flight one sees the flag and answers its request
        // with `Connection: close`.
        self.edge.handlers.shut_kept();
        // The deadline is a liveness escape hatch, not an invariant: a
        // handler legitimately stuck behind a saturated pool may outlive
        // it, and panicking here (this also runs from Drop) would abort.
        let leftover = self.edge.handlers.drain(Duration::from_secs(30));
        if leftover > 0 {
            eprintln!("laminar-server: {leftover} handler(s) still in flight past the drain deadline");
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_and_drain();
    }
}

impl Edge {
    /// The acceptor's whole job for one connection: a handler thread if
    /// there is room under the cap, the 429 envelope and a close if not.
    /// A cap, not a queue — a queued connection would wait behind idle
    /// ones, and nothing here can tell those from busy ones.
    fn admit(self: &Arc<Self>, id: usize, stream: TcpStream, server: &Arc<LaminarServer>, name: &str) {
        // One buffer per response *and* no Nagle: a kept connection is out
        // of quick-ack mode, so a small write followed by a read would
        // otherwise wait out the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(self.limits.write_timeout));
        if self.handlers.active() >= self.limits.max_connections {
            return self.refuse(stream);
        }
        let Ok(handle) = stream.try_clone() else { return self.refuse(stream) };
        // The guard is claimed on the acceptor so `stop()` can never miss
        // a handler that is spawned but not yet running.
        self.handlers.live.lock().insert(id, Live { socket: handle, kept: false });
        let guard = HandlerGuard { edge: Arc::clone(self), id };
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let server = Arc::clone(server);
        let spawned = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || guard.edge.serve(guard.id, stream, &server));
        if spawned.is_err() {
            // The closure was dropped with the socket and the guard in it:
            // the peer sees a close and the slot is free again.
            self.accepted.fetch_sub(1, Ordering::Relaxed);
            self.refused.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn refuse(&self, mut stream: TcpStream) {
        self.refused.fetch_add(1, Ordering::Relaxed);
        let busy = RegistryError::Throttled {
            message: format!("all {} connections are in use", self.limits.max_connections),
            // Nothing is queued, so there is no drain rate to derive a
            // hint from; a slot frees when a client closes its connection
            // or idles out.
            retry_after_ms: 1_000,
        };
        let _ = write_response(&mut stream, &ApiResponse::error(&busy), false);
    }

    /// One connection, for as long as it is kept: wait for a request,
    /// route it, answer it.
    fn serve(&self, id: usize, stream: TcpStream, server: &LaminarServer) {
        let mut reader = BufReader::new(DeadlineStream { stream, deadline: Instant::now() });
        let mut fresh = true;
        loop {
            reader.get_mut().deadline = Instant::now() + self.limits.keep_alive_idle;
            match reader.fill_buf() {
                Ok(first) if !first.is_empty() => {}
                // EOF before a request's first byte is the normal close;
                // idle too long and reset are not worth an answer either.
                _ => return,
            }
            reader.get_mut().deadline = Instant::now() + self.limits.request_deadline;
            let (routed, keep_alive) = match read_request(&mut reader) {
                Ok((request, keep_alive)) => {
                    (server.route(&request), keep_alive && !self.shutdown.load(Ordering::SeqCst))
                }
                // The framing is lost, so the connection cannot be reused.
                Err(e) => (Routed::Tree(ApiResponse::bad_request(&e.to_string())), false),
            };
            let stream = &mut reader.get_mut().stream;
            let written = match &routed {
                Routed::Tree(response) => write_response(stream, response, keep_alive),
                Routed::Page(text) => write_message(stream, 200, "", text, keep_alive),
            };
            if written.is_err() || !keep_alive {
                return;
            }
            if fresh {
                fresh = false;
                self.handlers.mark_kept(id);
                // A `stop()` that walked the sockets before the mark did
                // not shut this one, but it set the flag before it walked.
                if self.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// The socket as the request reader sees it: every read is given what is
/// left until `deadline`, so the deadline bounds the request as a whole —
/// a per-read timeout would let a peer trickle one byte at a time forever.
struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timed_out =
            || io::Error::new(io::ErrorKind::TimedOut, "deadline passed before the request was complete");
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf).map_err(|e| match e.kind() {
            // What an expired `SO_RCVTIMEO` reads as on Unix.
            io::ErrorKind::WouldBlock => timed_out(),
            _ => e,
        })
    }
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Read one CRLF- or LF-terminated line of at most [`MAX_LINE`] bytes into
/// `line`, replacing what it held.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<()> {
    line.clear();
    reader.take(MAX_LINE as u64 + 1).read_line(line)?;
    if !line.ends_with('\n') {
        return Err(if line.len() > MAX_LINE {
            invalid(format!("line longer than {MAX_LINE} bytes"))
        } else {
            io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-message")
        });
    }
    Ok(())
}

/// What a message's headers say about its framing.
struct Framing {
    content_length: usize,
    /// The `Connection` header's wish: `Some(true)` keep-alive,
    /// `Some(false)` close.
    keep_alive: Option<bool>,
}

/// Read headers up to the blank line; `line` is scratch.
fn read_headers(reader: &mut impl BufRead, line: &mut String) -> io::Result<Framing> {
    let mut framing = Framing { content_length: 0, keep_alive: None };
    for _ in 0..=MAX_HEADERS {
        read_bounded_line(reader, line)?;
        let header = line.trim();
        if header.is_empty() {
            return Ok(framing);
        }
        let Some((name, value)) = header.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            framing.content_length = value.parse().map_err(|_| invalid("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                framing.keep_alive = Some(false);
            } else if value.eq_ignore_ascii_case("keep-alive") {
                framing.keep_alive = Some(true);
            }
        }
    }
    Err(invalid(format!("more than {MAX_HEADERS} headers")))
}

fn read_body(reader: &mut impl BufRead, content_length: usize) -> io::Result<Value> {
    if content_length == 0 {
        return Ok(Value::Null);
    }
    // The length is the peer's claim: memory is committed as bytes arrive.
    let mut buf = Vec::with_capacity(content_length.min(BODY_RESERVE));
    reader.take(content_length as u64).read_to_end(&mut buf)?;
    if buf.len() < content_length {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-body"));
    }
    let text = String::from_utf8(buf).map_err(|_| invalid("body is not UTF-8"))?;
    parse(&text).map_err(|e| invalid(format!("body is not valid JSON: {e}")))
}

/// Read one request and whether its sender wants the connection kept:
/// HTTP/1.1 unless it says `Connection: close`, anything older only if it
/// says `Connection: keep-alive`.
fn read_request(reader: &mut impl BufRead) -> io::Result<(ApiRequest, bool)> {
    let mut line = String::new();
    read_bounded_line(reader, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = Method::parse(parts.next().ok_or_else(|| invalid("empty request line"))?)
        .ok_or_else(|| invalid(format!("unsupported method in '{}'", line.trim())))?;
    let raw_path = parts.next().ok_or_else(|| invalid("request line missing path"))?;
    let path: String = raw_path.split('/').map(percent_decode).collect::<Vec<_>>().join("/");
    let persistent = parts.next().is_some_and(|version| version.eq_ignore_ascii_case("HTTP/1.1"));

    let framing = read_headers(reader, &mut line)?;
    if framing.content_length > MAX_BODY {
        return Err(invalid("request body too large"));
    }
    let body = read_body(reader, framing.content_length)?;
    Ok((ApiRequest { method, path, body }, framing.keep_alive.unwrap_or(persistent)))
}

/// Send a response whose body is a tree: serialize it, then
/// [`write_message`].
fn write_response(stream: &mut TcpStream, response: &ApiResponse, keep_alive: bool) -> io::Result<()> {
    // 429s advertise the envelope's backoff as standard headers too, so
    // plain HTTP clients back off without parsing the body. Retry-After
    // is whole seconds (ceiling); the millisecond-precision hint rides
    // the de-facto Retry-After-Ms extension.
    let retry_after = response.body["error"]["retryAfterMs"]
        .as_i64()
        .filter(|ms| *ms >= 0)
        .map(|ms| format!("Retry-After: {}\r\nRetry-After-Ms: {ms}\r\n", (ms as u64).div_ceil(1000)))
        .unwrap_or_default();
    write_message(stream, response.status, &retry_after, &to_string(&response.body), keep_alive)
}

/// Send one response as one buffer in one `write_all`: the status line,
/// the headers (`extra_headers` among them, each ending in CRLF) and
/// `body`, which is JSON text and goes out as it was given.
fn write_message(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Error",
    };
    let message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n{}",
        status,
        reason,
        body.len(),
        extra_headers,
        if keep_alive { "keep-alive" } else { "close" },
        body
    );
    stream.write_all(message.as_bytes())
}

/// The client end of the subset above: one address and, between calls,
/// one kept connection to it, opened on first use.
pub struct HttpConnection {
    addr: SocketAddr,
    kept: Option<BufReader<TcpStream>>,
}

impl HttpConnection {
    /// A client for `addr`; connects on the first [`call`](Self::call).
    pub fn new(addr: SocketAddr) -> HttpConnection {
        HttpConnection { addr, kept: None }
    }

    /// One request/response exchange over the kept connection.
    ///
    /// A kept connection may have been closed by the server since the last
    /// call (idle timeout, `stop()`). If it fails before one response byte
    /// arrived, the request is sent once more on a fresh connection: a
    /// running server answers every request it has read before it closes
    /// the connection, so no byte of an answer means it closed an idle one
    /// and never read this request. Any other failure — on a fresh
    /// connection, or after the first response byte — is returned, never
    /// retried.
    pub fn call(&mut self, request: &ApiRequest) -> io::Result<ApiResponse> {
        let body = if request.body.is_null() { String::new() } else { to_string(&request.body) };
        let encoded_path: String = request.path.split('/').map(percent_encode).collect::<Vec<_>>().join("/");
        let message = format!(
            "{} {} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            request.method.as_str(),
            encoded_path,
            self.addr,
            body.len(),
            body
        );
        if let Some(mut kept) = self.kept.take() {
            if send(&mut kept, message.as_bytes()).is_ok() {
                return self.receive(kept);
            }
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "the client's one connect; the deadlines are set on the next lines"
        )]
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(LIMITS.write_timeout))?;
        let mut fresh = BufReader::new(stream);
        send(&mut fresh, message.as_bytes())?;
        self.receive(fresh)
    }

    /// Read the response whose first byte `send` saw, and keep the
    /// connection if the server does. No read deadline, on purpose: a
    /// synchronous `/run` answers when the user's workflow ends.
    fn receive(&mut self, mut connection: BufReader<TcpStream>) -> io::Result<ApiResponse> {
        let mut line = String::new();
        read_bounded_line(&mut connection, &mut line)?;
        let mut parts = line.split_whitespace();
        let persistent = parts.next().is_some_and(|version| version.eq_ignore_ascii_case("HTTP/1.1"));
        let status: u16 =
            parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| invalid("bad status line"))?;
        let framing = read_headers(&mut connection, &mut line)?;
        let body = read_body(&mut connection, framing.content_length)?;
        if framing.keep_alive.unwrap_or(persistent) {
            self.kept = Some(connection);
        }
        Ok(ApiResponse { status, body })
    }
}

/// Send `message` in one `write_all` and wait for the first byte of the
/// answer. An error means not one response byte arrived.
fn send(connection: &mut BufReader<TcpStream>, message: &[u8]) -> io::Result<()> {
    connection.get_mut().write_all(message)?;
    if connection.fill_buf()?.is_empty() {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed before a response"));
    }
    Ok(())
}

/// One exchange on a connection of its own: open, call, drop.
pub fn http_call(addr: SocketAddr, request: &ApiRequest) -> io::Result<ApiResponse> {
    HttpConnection::new(addr).call(request)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests drive the edge through raw sockets")]
mod tests {
    use super::*;
    use laminar_json::jobj;

    #[test]
    fn percent_round_trip() {
        for s in ["plain", "has space", "a/b?c", "emoji 😀", "100% sure"] {
            assert_eq!(percent_decode(&percent_encode(s)), s, "round trip {s}");
        }
        assert_eq!(percent_encode("a b"), "a%20b");
        // Invalid escapes pass through.
        assert_eq!(percent_decode("100%zz"), "100%zz");
        assert_eq!(percent_decode("%2"), "%2");
        assert_eq!(percent_decode("%+f"), "%+f");
        assert_eq!(percent_decode("%+0"), "%+0");
    }

    #[test]
    fn end_to_end_over_tcp() {
        let server = LaminarServer::in_memory();
        let http = HttpServer::start(server).unwrap();
        let addr = http.addr();

        let r = http_call(
            addr,
            &ApiRequest::new(
                Method::Post,
                "/auth/register",
                jobj! { "userName" => "net", "password" => "password" },
            ),
        )
        .unwrap();
        assert!(r.is_ok(), "{r:?}");

        let r = http_call(
            addr,
            &ApiRequest::new(
                Method::Post,
                "/registry/net/pe/add",
                jobj! { "code" => "pe P : producer { output o; process { emit(1); } }" },
            ),
        )
        .unwrap();
        assert!(r.is_ok(), "{r:?}");

        let r = http_call(addr, &ApiRequest::new(Method::Get, "/registry/net/pe/all", Value::Null)).unwrap();
        assert_eq!(r.body.as_array().unwrap().len(), 1);

        // Search path with spaces exercises percent-encoding.
        let r = http_call(
            addr,
            &ApiRequest::new(Method::Get, "/registry/net/search/a PE that emits/type/pe", Value::Null),
        )
        .unwrap();
        assert!(r.is_ok(), "{r:?}");

        http.stop();
    }

    #[test]
    fn concurrent_clients() {
        let server = LaminarServer::in_memory();
        let http = HttpServer::start(server).unwrap();
        let addr = http.addr();
        http_call(
            addr,
            &ApiRequest::new(
                Method::Post,
                "/auth/register",
                jobj! { "userName" => "cc", "password" => "password" },
            ),
        )
        .unwrap();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let r = http_call(
                        addr,
                        &ApiRequest::new(
                            Method::Post,
                            "/registry/cc/pe/add",
                            jobj! { "code" => format!("pe P{i} : producer {{ output o; process {{ emit({i}); }} }}") },
                        ),
                    )
                    .unwrap();
                    assert!(r.is_ok(), "{r:?}");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let r = http_call(addr, &ApiRequest::new(Method::Get, "/registry/cc/pe/all", Value::Null)).unwrap();
        assert_eq!(r.body.as_array().unwrap().len(), 8);
        http.stop();
    }

    #[test]
    fn start_stop_loop_is_deterministic() {
        // Repeated start/stop cycles must neither hang nor leak handlers.
        for round in 0..5 {
            let http = HttpServer::start(LaminarServer::in_memory()).unwrap();
            let addr = http.addr();
            let r = http_call(addr, &ApiRequest::new(Method::Get, "/auth/all", Value::Null)).unwrap();
            assert!(r.is_ok(), "round {round}: {r:?}");
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while http.active_handlers() > 0 {
                assert!(std::time::Instant::now() < deadline, "round {round}: handler never drained");
                std::thread::yield_now();
            }
            http.stop();
        }
    }

    #[test]
    fn stop_drains_inflight_handlers() {
        use laminar_engine::ExecutionEngine;
        use laminar_registry::Registry;
        // Slow engine: the synchronous run holds its handler ~400ms.
        let server = LaminarServer::with_pool(
            Registry::in_memory(),
            ExecutionEngine::instant().with_provision_scale(1000),
            2,
            16,
        );
        let http = HttpServer::start(server).unwrap();
        let addr = http.addr();
        http_call(
            addr,
            &ApiRequest::new(
                Method::Post,
                "/auth/register",
                jobj! { "userName" => "drain", "password" => "password" },
            ),
        )
        .unwrap();
        // Let the register handler fully drain before measuring.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while http.active_handlers() > 0 {
            assert!(std::time::Instant::now() < deadline, "register handler never drained");
            std::thread::yield_now();
        }
        let t0 = std::time::Instant::now();
        let client = std::thread::spawn(move || {
            http_call(
                addr,
                &ApiRequest::new(
                    Method::Post,
                    "/execution/drain/run",
                    jobj! { "source" => "pe P : producer { output o; process { emit(1); } }", "input" => 1 },
                ),
            )
        });
        // Wait until the handler is in flight, then stop: stop must block
        // until the handler finished writing its response.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while http.active_handlers() == 0 {
            assert!(std::time::Instant::now() < deadline, "handler never started");
            std::thread::yield_now();
        }
        http.stop();
        assert!(
            t0.elapsed() >= Duration::from_millis(300),
            "stop() returned before the slow handler could have finished ({:?})",
            t0.elapsed()
        );
        let response = client.join().unwrap().expect("in-flight request completed during shutdown");
        assert!(response.is_ok(), "{response:?}");
        assert_eq!(response.body["printed"].as_array().map(<[Value]>::len), Some(0));
    }

    #[test]
    fn rate_limited_429_carries_retry_after_headers() {
        let server = LaminarServer::in_memory();
        server.pool().set_tenant_rate(1.0, 1.0);
        let http = HttpServer::start(server).unwrap();
        let addr = http.addr();
        http_call(
            addr,
            &ApiRequest::new(
                Method::Post,
                "/auth/register",
                jobj! { "userName" => "rl", "password" => "password" },
            ),
        )
        .unwrap();
        let body = to_string(
            &jobj! { "source" => "pe P : producer { output o; process { emit(1); } }", "input" => 1 },
        );
        let submit_raw = || {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "POST /execution/rl/submit HTTP/1.0\r\nContent-Length: {}\r\n\r\n{}", body.len(), body)
                .unwrap();
            s.flush().unwrap();
            let mut reader = BufReader::new(s);
            let mut lines = Vec::new();
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if line.trim().is_empty() {
                    break;
                }
                lines.push(line.trim().to_string());
            }
            lines
        };
        // The first submit burns rl's only token; the second is limited.
        let first = submit_raw();
        assert!(first[0].contains("200"), "{first:?}");
        let headers = submit_raw();
        assert!(headers[0].contains("429"), "{headers:?}");
        let retry_ms = headers
            .iter()
            .find_map(|h| {
                h.to_ascii_lowercase().strip_prefix("retry-after-ms:").map(str::trim).map(String::from)
            })
            .expect("Retry-After-Ms header on a 429");
        assert!(retry_ms.parse::<u64>().unwrap() >= 1, "{headers:?}");
        assert!(
            headers.iter().any(|h| h.to_ascii_lowercase().starts_with("retry-after:")),
            "whole-second Retry-After too: {headers:?}"
        );
        http.stop();
    }

    #[test]
    fn malformed_requests_get_400() {
        let server = LaminarServer::in_memory();
        let http = HttpServer::start(server).unwrap();
        let addr = http.addr();
        // Raw socket with garbage.
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "BREW /teapot HTTP/1.0\r\n\r\n").unwrap();
        let mut buf = String::new();
        let mut reader = BufReader::new(s);
        reader.read_line(&mut buf).unwrap();
        assert!(buf.contains("400"), "got: {buf}");
        http.stop();
    }

    /// One `Content-Length`-framed response off a raw socket: status line,
    /// headers (lower-cased) and body. `None` on EOF before its first byte.
    fn read_raw_response(reader: &mut BufReader<TcpStream>) -> Option<(String, Vec<String>, Value)> {
        let mut status = String::new();
        if reader.read_line(&mut status).unwrap() == 0 {
            return None;
        }
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() {
                break;
            }
            headers.push(line.trim().to_ascii_lowercase());
        }
        let length: usize =
            headers.iter().find_map(|h| h.strip_prefix("content-length:")).unwrap().trim().parse().unwrap();
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).unwrap();
        Some((status.trim().to_string(), headers, parse(std::str::from_utf8(&body).unwrap()).unwrap()))
    }

    /// Spin until no handler is live; panics after `within`.
    fn await_no_handlers(http: &HttpServer, within: Duration) {
        let deadline = Instant::now() + within;
        while http.active_handlers() > 0 {
            assert!(Instant::now() < deadline, "{} handler(s) still live", http.active_handlers());
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Threads of this process named as `http`'s connection handlers are.
    fn handler_threads(http: &HttpServer) -> usize {
        let name = format!("http-{}", http.addr().port());
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim() == name)
            .count()
    }

    #[test]
    fn reason_phrases_cover_500() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut reader = BufReader::new(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        let (mut accepted, _) = listener.accept().unwrap();
        let storage = RegistryError::Storage("disk".into());
        write_response(&mut accepted, &ApiResponse::error(&storage), false).unwrap();
        let (status, ..) = read_raw_response(&mut reader).unwrap();
        assert_eq!(status, "HTTP/1.1 500 Internal Server Error");
    }

    #[test]
    fn idle_kept_connection_is_closed_silently() {
        let idle = Duration::from_millis(150);
        let http =
            HttpServer::start_with(LaminarServer::in_memory(), Limits { keep_alive_idle: idle, ..LIMITS })
                .unwrap();
        let mut reader = BufReader::new(TcpStream::connect(http.addr()).unwrap());
        reader.get_mut().write_all(b"GET /auth/all HTTP/1.1\r\n\r\n").unwrap();
        let t0 = Instant::now();
        let (status, headers, _) = read_raw_response(&mut reader).unwrap();
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(headers.contains(&"connection: keep-alive".to_string()), "{headers:?}");
        // Nothing more is sent: the server hangs up, and says nothing.
        assert!(read_raw_response(&mut reader).is_none());
        assert!(t0.elapsed() >= idle, "closed after {:?}", t0.elapsed());
        await_no_handlers(&http, Duration::from_secs(2));
        http.stop();
    }

    #[test]
    fn slow_loris_is_cut_off_at_the_request_deadline() {
        let request_deadline = Duration::from_millis(400);
        let http = HttpServer::start_with(LaminarServer::in_memory(), Limits { request_deadline, ..LIMITS })
            .unwrap();
        let mut peer = TcpStream::connect(http.addr()).unwrap();
        peer.write_all(b"GET /auth/all HTTP/1.1\r\nX-Slow: ").unwrap();
        // One header byte every 50 ms, never a newline: no single read
        // waits long, only the request as a whole does. The 50 ms pause is
        // the read timeout, so the answer is taken off the socket before
        // the next byte could meet a closed one.
        peer.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let t0 = Instant::now();
        let mut answer = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            assert!(t0.elapsed() < Duration::from_secs(5), "the handler was never released");
            match peer.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => answer.extend_from_slice(&chunk[..n]),
                Err(_) => drop(peer.write_all(b"a")),
            }
        }
        let answer = String::from_utf8(answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 400 Bad Request"), "{answer}");
        assert!(answer.contains("Connection: close"), "{answer}");
        assert!(t0.elapsed() >= request_deadline, "cut off after only {:?}", t0.elapsed());
        assert!(t0.elapsed() < request_deadline + Duration::from_secs(2), "cut off after {:?}", t0.elapsed());
        await_no_handlers(&http, Duration::from_secs(2));
        http.stop();
    }

    #[test]
    fn peer_that_never_reads_is_dropped_at_the_write_deadline() {
        let write_timeout = Duration::from_millis(300);
        let http =
            HttpServer::start_with(LaminarServer::in_memory(), Limits { write_timeout, ..LIMITS }).unwrap();
        let addr = http.addr();
        let register = jobj! { "userName" => "deaf", "password" => "password" };
        http_call(addr, &ApiRequest::new(Method::Post, "/auth/register", register)).unwrap();
        let big = jobj! {
            "code" => "pe P : producer { output o; process { emit(1); } }",
            "description" => "x".repeat(1 << 20)
        };
        assert!(http_call(addr, &ApiRequest::new(Method::Post, "/registry/deaf/pe/add", big))
            .unwrap()
            .is_ok());
        await_no_handlers(&http, Duration::from_secs(2));
        // Sixteen requests for the 1 MiB listing, back to back, and not one
        // read: more than the socket buffers of both ends can hold, so a
        // response write blocks whatever their size is on this machine.
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.write_all("GET /registry/deaf/pe/all HTTP/1.1\r\n\r\n".repeat(16).as_bytes()).unwrap();
        let t0 = Instant::now();
        while http.connections_accepted() < 3 {
            assert!(t0.elapsed() < Duration::from_secs(10), "never accepted");
            std::thread::yield_now();
        }
        // Keep-alive idle is 30 s here: only the write deadline can release
        // the handler while `peer` is still open.
        await_no_handlers(&http, write_timeout + Duration::from_secs(10));
        assert!(t0.elapsed() >= write_timeout, "released after only {:?}", t0.elapsed());
        drop(peer);
        http.stop();
    }

    #[test]
    fn connections_over_the_cap_are_answered_429_and_closed() {
        let http =
            HttpServer::start_with(LaminarServer::in_memory(), Limits { max_connections: 8, ..LIMITS })
                .unwrap();
        let addr = http.addr();
        // Sequential connects are accepted in order: the first 8 get a
        // handler and idle, the other 92 are turned away.
        let mut peers: Vec<TcpStream> = (0..100).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while http.connections_accepted() + http.connections_refused() < 100 {
            assert!(Instant::now() < deadline, "the acceptor never got through the backlog");
            assert!(handler_threads(&http) <= 8);
            std::thread::yield_now();
        }
        assert_eq!(http.connections_accepted(), 8);
        assert_eq!(http.connections_refused(), 92);
        assert_eq!(http.active_handlers(), 8);
        for refused in peers.drain(8..) {
            let mut reader = BufReader::new(refused);
            let (status, headers, body) = read_raw_response(&mut reader).expect("a refusal is answered");
            assert_eq!(status, "HTTP/1.1 429 Too Many Requests");
            assert!(headers.iter().any(|h| h.starts_with("retry-after:")), "{headers:?}");
            assert_eq!(body["error"]["code"].as_str(), Some("Busy"));
            assert!(body["error"]["retryAfterMs"].as_i64().unwrap() >= 1, "{body:?}");
            assert!(read_raw_response(&mut reader).is_none(), "and then closed");
        }
        // A thread names itself as it starts, so give the last one a moment.
        let deadline = Instant::now() + Duration::from_secs(10);
        while handler_threads(&http) < 8 {
            assert!(Instant::now() < deadline, "{} handler threads", handler_threads(&http));
            std::thread::yield_now();
        }
        assert_eq!(handler_threads(&http), 8, "one thread per live connection, none per refusal");
        // Hanging up frees the slots: the next connection is served.
        drop(peers);
        await_no_handlers(&http, Duration::from_secs(2));
        let r = http_call(addr, &ApiRequest::new(Method::Get, "/auth/all", Value::Null)).unwrap();
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(http.connections_accepted(), 9);
        http.stop();
    }
}
