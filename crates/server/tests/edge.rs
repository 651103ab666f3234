//! The HTTP edge at its public surface and its shipped limits: how a
//! connection is kept and closed, which inputs are refused, and how
//! `stop()` treats the connections it finds open. The tests that need a
//! limit shortened to finish in reasonable time (slow-loris, a peer that
//! never reads, the connection cap, the idle timeout) sit beside the
//! limits, in `http.rs`.

use laminar_json::{parse, Value};
use laminar_server::http::HttpConnection;
use laminar_server::{ApiRequest, HttpServer, LaminarServer, Method};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

struct RawResponse {
    status: String,
    /// Lower-cased.
    headers: Vec<String>,
    body: Value,
}

impl RawResponse {
    fn keeps_alive(&self) -> bool {
        self.headers.contains(&"connection: keep-alive".to_string())
    }
}

/// One `Content-Length`-framed response; `None` on EOF before its first byte.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<RawResponse> {
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
    let body = parse(std::str::from_utf8(&body).unwrap()).unwrap();
    Some(RawResponse { status: status.trim().to_string(), headers, body })
}

/// Send `request` on a connection of its own and read the one answer.
fn raw_exchange(http: &HttpServer, request: &[u8]) -> (RawResponse, BufReader<TcpStream>) {
    let mut reader = BufReader::new(TcpStream::connect(http.addr()).unwrap());
    reader.get_mut().write_all(request).unwrap();
    (read_response(&mut reader).expect("an answer"), reader)
}

fn await_no_handlers(http: &HttpServer) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while http.active_handlers() > 0 {
        assert!(Instant::now() < deadline, "{} handler(s) still live", http.active_handlers());
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn keep_alive_follows_the_request() {
    let http = HttpServer::start(LaminarServer::in_memory()).unwrap();

    // HTTP/1.1 persists by default: two requests, one connection.
    let (first, mut reader) = raw_exchange(&http, b"GET /auth/all HTTP/1.1\r\n\r\n");
    assert_eq!(first.status, "HTTP/1.1 200 OK");
    assert!(first.keeps_alive(), "{:?}", first.headers);
    reader.get_mut().write_all(b"GET /nowhere HTTP/1.1\r\n\r\n").unwrap();
    let second = read_response(&mut reader).unwrap();
    assert_eq!(second.status, "HTTP/1.1 404 Not Found");
    assert!(second.keeps_alive(), "an error envelope keeps the framing: {:?}", second.headers);
    // ... until it asks to close.
    reader.get_mut().write_all(b"GET /auth/all HTTP/1.1\r\nCONNECTION: Close\r\n\r\n").unwrap();
    let last = read_response(&mut reader).unwrap();
    assert!(last.headers.contains(&"connection: close".to_string()), "{:?}", last.headers);
    assert!(read_response(&mut reader).is_none(), "closed after the answer");
    assert_eq!(http.connections_accepted(), 1);

    // HTTP/1.0 closes by default, and persists only on request.
    let (old, mut reader) = raw_exchange(&http, b"GET /auth/all HTTP/1.0\r\n\r\n");
    assert!(!old.keeps_alive(), "{:?}", old.headers);
    assert!(read_response(&mut reader).is_none());
    let (old, mut reader) = raw_exchange(&http, b"GET /auth/all HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    assert!(old.keeps_alive(), "{:?}", old.headers);
    reader.get_mut().write_all(b"GET /auth/all HTTP/1.0\r\n\r\n").unwrap();
    assert_eq!(read_response(&mut reader).unwrap().status, "HTTP/1.1 200 OK");

    // A request that cannot be parsed loses the framing: 400 always closes.
    let (bad, mut reader) = raw_exchange(&http, b"GET /auth/all HTTP/1.1\r\nContent-Length: many\r\n\r\n");
    assert_eq!(bad.status, "HTTP/1.1 400 Bad Request");
    assert!(!bad.keeps_alive(), "{:?}", bad.headers);
    assert!(read_response(&mut reader).is_none());

    await_no_handlers(&http);
    http.stop();
}

#[test]
fn oversized_request_line_and_header_count_get_400() {
    let http = HttpServer::start(LaminarServer::in_memory()).unwrap();

    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9 * 1024));
    let (r, _) = raw_exchange(&http, long_line.as_bytes());
    assert_eq!(r.status, "HTTP/1.1 400 Bad Request");
    assert!(r.body["error"]["message"].as_str().unwrap().contains("8192"), "{:?}", r.body);

    let long_header = format!("GET /auth/all HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(9 * 1024));
    let (r, _) = raw_exchange(&http, long_header.as_bytes());
    assert_eq!(r.status, "HTTP/1.1 400 Bad Request");

    let with_headers = |n: usize| {
        let headers: String = (0..n).map(|i| format!("X-{i}: {i}\r\n")).collect();
        format!("GET /auth/all HTTP/1.1\r\n{headers}\r\n")
    };
    let (r, _) = raw_exchange(&http, with_headers(64).as_bytes());
    assert_eq!(r.status, "HTTP/1.1 200 OK", "64 headers are within the bound");
    let (r, _) = raw_exchange(&http, with_headers(65).as_bytes());
    assert_eq!(r.status, "HTTP/1.1 400 Bad Request");
    assert!(r.body["error"]["message"].as_str().unwrap().contains("64"), "{:?}", r.body);

    await_no_handlers(&http);
    http.stop();
}

#[test]
fn half_closed_body_releases_its_handler() {
    let http = HttpServer::start(LaminarServer::in_memory()).unwrap();
    let mut reader = BufReader::new(TcpStream::connect(http.addr()).unwrap());
    reader
        .get_mut()
        .write_all(b"POST /auth/register HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789")
        .unwrap();
    reader.get_mut().shutdown(Shutdown::Write).unwrap();
    let t0 = Instant::now();
    let r = read_response(&mut reader).expect("the short body is answered");
    assert_eq!(r.status, "HTTP/1.1 400 Bad Request");
    assert!(!r.keeps_alive());
    await_no_handlers(&http);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "well inside the 10 s request deadline: {:?}",
        t0.elapsed()
    );
    http.stop();
}

#[test]
fn stop_does_not_wait_for_idle_kept_connections() {
    let http = HttpServer::start(LaminarServer::in_memory()).unwrap();
    let list_users = ApiRequest::new(Method::Get, "/auth/all", Value::Null);
    let mut clients: Vec<HttpConnection> = (0..8).map(|_| HttpConnection::new(http.addr())).collect();
    for client in &mut clients {
        assert!(client.call(&list_users).unwrap().is_ok());
    }
    assert_eq!(http.connections_accepted(), 8);
    assert_eq!(http.active_handlers(), 8, "each kept connection holds its handler");
    let t0 = Instant::now();
    http.stop();
    assert!(t0.elapsed() < Duration::from_secs(1), "stop() waited for its clients: {:?}", t0.elapsed());
    // The clients find out on their next call: the kept socket is gone and
    // so is the listener, so the one reconnect fails too.
    assert!(clients[0].call(&list_users).is_err());
}
