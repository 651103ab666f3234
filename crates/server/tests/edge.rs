//! The HTTP edge at its public surface and its shipped limits: how a
//! connection is kept and closed, which inputs are refused, and how
//! `stop()` treats the connections it finds open. The tests that need a
//! limit shortened to finish in reasonable time (slow-loris, a peer that
//! never reads, the connection cap, the idle timeout) sit beside the
//! limits, in `http.rs`.

#![allow(clippy::disallowed_methods, reason = "the edge is tested through raw sockets")]

use laminar_json::{parse, Value};
use laminar_server::{ApiRequest, HttpConnection, HttpServer, LaminarServer, Method};
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

/// A script asking for a huge allocation is an error answer, not an abort
/// (which no `catch_unwind` survives), and so is one whose float overflows
/// (JSON has no NaN or infinity to put on the wire): the next run is
/// served.
#[test]
fn a_run_asking_for_a_huge_allocation_is_refused_and_the_next_run_is_served() {
    const IS_PRIME: &str = r#"
        pe Seq : producer { output output; process { emit(iteration + 1); } }
        pe IsPrime : iterative { input num; output output; process {
            let i = 2; let prime = num > 1;
            while i * i <= num { if num % i == 0 { prime = false; } i = i + 1; }
            if prime { print(num); } } }
        workflow Primes { nodes { s = Seq; i = IsPrime; } connect s.output -> i.num; }
    "#;
    let http = HttpServer::start(LaminarServer::in_memory()).unwrap();
    let mut client = HttpConnection::new(http.addr());
    let mut run = |source: &str| {
        let body = laminar_json::jobj! { "source" => source, "input" => 10 };
        client.call(&ApiRequest::new(Method::Post, "/execution/u/run", body)).unwrap()
    };
    for greedy in ["emit(range(1099511627776));", r#"let s = "aaaaaaaaaa" * 1000000; emit(s * 1000000);"#] {
        let r = run(&format!("pe Greedy : producer {{ output o; process {{ {greedy} }} }}"));
        assert!(r.body["error"]["message"].as_str().unwrap().contains("67108864"), "{greedy}: {r:?}");
    }
    for (overflow, kind, message) in [
        (r#"emit(float("nan"));"#, "argument error", "float: 'nan' is not a finite number"),
        ("emit(exp(1000));", "overflow error", "exp result out of range"),
        ("emit(2.0 * 1e308);", "overflow error", "float result out of range"),
        ("emit(pow(10.0, 400));", "overflow error", "pow result out of range"),
    ] {
        let r = run(&format!("pe Overflow : producer {{ output o; process {{ {overflow} }} }}"));
        let error = r.body["error"]["message"].as_str().unwrap_or_default();
        assert!(error.contains(kind) && error.contains(message), "{overflow}: {r:?}");
    }
    let r = run(IS_PRIME);
    assert_eq!(r.body["printed"].as_array().unwrap().len(), 4, "{r:?}");
    http.stop();
}

/// The body of the answer to `GET path`, as the bytes the socket carried.
fn get_body(connection: &mut BufReader<TcpStream>, path: &str) -> (String, String) {
    connection.get_mut().write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes()).unwrap();
    let mut status = String::new();
    connection.read_line(&mut status).unwrap();
    let mut length = 0;
    loop {
        let mut line = String::new();
        connection.read_line(&mut line).unwrap();
        if line.trim().is_empty() {
            break;
        }
        if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = value.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; length];
    connection.read_exact(&mut body).unwrap();
    (status.trim().to_string(), String::from_utf8(body).unwrap())
}

/// An event page is text from the typed log on the TCP route and that text
/// parsed on the in-process one. Over a real socket, every page of every
/// kind of stream — and the error answers of the same route — is byte for
/// byte the body `LaminarServer::handle` returns, serialized.
#[test]
fn event_pages_on_the_wire_are_the_handled_body_serialized() {
    use laminar_json::{jobj, to_string};
    use std::sync::Arc;

    const SRC: &str = r#"
        pe Seq : producer { output output; process { emit(iteration + 1); } }
        pe Sq : iterative { input num; output output; process { print("sq \"" + str(num) + "\""); emit(num * num); } }
        workflow Squares {
            nodes { s = Seq; q = Sq; }
            connect s.output -> q.num;
        }
    "#;
    let server = Arc::new(LaminarServer::with_pool(
        laminar_registry::Registry::in_memory(),
        laminar_engine::ExecutionEngine::instant(),
        1,
        8,
    ));
    let http = HttpServer::start(Arc::clone(&server)).unwrap();
    let submit = |body: Value| {
        let r = server.handle(&ApiRequest::new(Method::Post, "/execution/u/submit", body));
        assert!(r.is_ok(), "{r:?}");
        r.body["jobId"].as_i64().unwrap()
    };
    let wait = |id: i64| {
        let done = server.pool().wait("u", id, Duration::from_secs(30));
        assert!(done.is_some(), "job {id} did not finish");
    };

    // The three streams `event_wire.rs` pins: completed and checkpointed,
    // failed, cancelled while queued (the one worker held by an unbounded
    // run). The fourth spans several pages.
    let options = jobj! { "events" => true, "checkpointEvery" => 2 };
    let completed = submit(jobj! { "source" => SRC, "input" => 3, "options" => options });
    wait(completed);
    let failing = "pe Boom : producer { output o; process { emit(1 / 0); } }";
    let failed = submit(jobj! { "source" => failing, "input" => 1, "options" => jobj! { "events" => true } });
    wait(failed);
    let long = submit(jobj! { "source" => SRC, "input" => 700, "options" => jobj! { "events" => true } });
    wait(long);
    let unbounded = jobj! { "mode" => "unbounded", "pace_us" => 200 };
    let blocker = submit(jobj! { "source" => SRC, "input" => unbounded });
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.pool().status("u", blocker).unwrap().phase == laminar_engine::JobPhase::Queued {
        assert!(Instant::now() < deadline, "the blocker never started");
        std::thread::yield_now();
    }
    let cancelled = submit(jobj! { "source" => SRC, "input" => 3, "options" => jobj! { "events" => true } });
    server.pool().cancel("u", cancelled).unwrap();
    server.pool().cancel("u", blocker).unwrap();
    wait(blocker);
    // A checkpointed run nobody read, in a small log: its first page
    // re-anchors at a retained epoch.
    server.pool().set_event_log_capacity(64);
    server.pool().set_backpressure_wait(Duration::from_millis(100));
    let options = jobj! { "events" => true, "checkpointEvery" => 10 };
    let evicted = submit(jobj! { "source" => SRC, "input" => 200, "options" => options });
    wait(evicted);

    let mut connection = BufReader::new(TcpStream::connect(http.addr()).unwrap());
    let mut same = |path: String, status: &str| -> Value {
        let (wire_status, wire) = get_body(&mut connection, &path);
        let handled = server.handle(&ApiRequest::new(Method::Get, path.replace("%3F", "?"), Value::Null));
        assert_eq!(wire_status, status, "{path}");
        assert_eq!(wire, to_string(&handled.body), "{path}");
        assert_eq!(handled.status.to_string(), status.split(' ').nth(1).unwrap(), "{path}");
        handled.body
    };
    let mut types: Vec<String> = Vec::new();
    for id in [completed, failed, long, cancelled, evicted] {
        let (mut since, mut pages) = (0, 0);
        loop {
            let page = same(format!("/execution/u/job/{id}/events%3Fsince={since}"), "HTTP/1.1 200 OK");
            types.extend(
                page["events"].as_array().unwrap().iter().map(|e| e["type"].as_str().unwrap().to_string()),
            );
            if id == evicted && since == 0 {
                assert!(page["retained_epoch"].as_i64().is_some(), "{page:?}");
            }
            since = page["next"].as_i64().unwrap();
            pages += 1;
            if page["closed"].as_bool().unwrap() {
                break;
            }
        }
        assert!(id != long || pages > 1, "the long stream spans pages");
        // Past the end, and the bare segment.
        same(format!("/execution/u/job/{id}/events%3Fsince={}", since + 5), "HTTP/1.1 200 OK");
        same(format!("/execution/u/job/{id}/events"), "HTTP/1.1 200 OK");
    }
    for kind in [
        "plan",
        "started",
        "output",
        "print",
        "instance_done",
        "epoch",
        "finished",
        "done",
        "failed",
        "cancelled",
    ] {
        assert!(types.iter().any(|t| t == kind), "no {kind} event crossed the wire");
    }
    same(format!("/execution/u/job/{completed}/events%3Fsince=banana"), "HTTP/1.1 400 Bad Request");
    same(format!("/execution/u/job/{completed}/events%3Fwait_ms=soon"), "HTTP/1.1 400 Bad Request");
    same("/execution/u/job/abc/events".to_string(), "HTTP/1.1 400 Bad Request");
    same("/execution/u/job/999/events".to_string(), "HTTP/1.1 404 Not Found");
    same(format!("/execution/mallory/job/{completed}/events"), "HTTP/1.1 404 Not Found");
    same("/execution/u/job/1/eventss".to_string(), "HTTP/1.1 404 Not Found");

    drop(connection);
    await_no_handlers(&http);
    http.stop();
}
