//! The web_client layer (paper §3.4.2): transports, serialization and
//! envelope shaping between the client functions and the server API.

use laminar_json::Value;
use laminar_server::{ApiRequest, ApiResponse, HttpConnection, LaminarServer, Method};
use std::cell::RefCell;
use std::sync::Arc;

/// A transport carrying API requests to a Laminar server.
pub trait Transport: Send {
    /// Execute one request/response exchange.
    fn call(&self, request: &ApiRequest) -> Result<ApiResponse, String>;
    /// Human-readable endpoint description.
    fn endpoint(&self) -> String;
}

/// In-process transport: client and server share the process (the "local
/// execution" configuration of Table 5). No lock: `LaminarServer::handle`
/// takes `&self`, so cloned transports issue requests concurrently — the
/// same parallelism remote clients get over TCP.
#[derive(Clone)]
pub struct InProcessTransport {
    server: Arc<LaminarServer>,
}

impl InProcessTransport {
    /// Wrap a server.
    pub fn new(server: LaminarServer) -> InProcessTransport {
        InProcessTransport { server: Arc::new(server) }
    }

    /// Shared handle to the server (to register hosts, inspect state).
    pub fn server(&self) -> Arc<LaminarServer> {
        Arc::clone(&self.server)
    }
}

impl Transport for InProcessTransport {
    fn call(&self, request: &ApiRequest) -> Result<ApiResponse, String> {
        Ok(self.server.handle(request))
    }

    fn endpoint(&self) -> String {
        "in-process".to_string()
    }
}

/// TCP transport: talks HTTP to a remote [`laminar_server::HttpServer`]
/// (the "remote execution" configuration of Table 5) over one kept
/// connection, opened on first use and reopened once if the server closed
/// it between calls ([`HttpConnection::call`] has the rule).
pub struct TcpTransport {
    addr: std::net::SocketAddr,
    // `call` takes `&self`; a transport is `Send`, not `Sync`, so one
    // caller at a time is all the cell has to allow.
    connection: RefCell<HttpConnection>,
}

impl TcpTransport {
    /// A transport to a server address; connects on the first call.
    pub fn new(addr: std::net::SocketAddr) -> TcpTransport {
        TcpTransport { addr, connection: RefCell::new(HttpConnection::new(addr)) }
    }
}

impl Clone for TcpTransport {
    /// A transport to the same address, with no connection yet.
    fn clone(&self) -> TcpTransport {
        TcpTransport::new(self.addr)
    }
}

impl Transport for TcpTransport {
    fn call(&self, request: &ApiRequest) -> Result<ApiResponse, String> {
        self.connection.borrow_mut().call(request).map_err(|e| format!("transport error: {e}"))
    }

    fn endpoint(&self) -> String {
        format!("http://{}", self.addr)
    }
}

/// Serialize LamScript source for the `code` field the way the paper's
/// client pickles Python objects: lampickle + base64.
pub fn serialize_code(source: &str) -> String {
    laminar_registry::encode_code(source)
}

/// Import analysis (findimports equivalent) run client-side so the request
/// can declare its dependencies (paper §3.4.2).
pub fn analyze_imports(source: &str) -> Vec<String> {
    match laminar_script::parse_script(source) {
        Ok(script) => laminar_script::imports(&script),
        Err(_) => Vec::new(),
    }
}

/// Build a GET request.
pub(crate) fn get(path: impl Into<String>) -> ApiRequest {
    ApiRequest::new(Method::Get, path, Value::Null)
}

/// Build a POST request.
pub fn post(path: impl Into<String>, body: Value) -> ApiRequest {
    ApiRequest::new(Method::Post, path, body)
}

/// Build a DELETE request.
pub fn delete(path: impl Into<String>) -> ApiRequest {
    ApiRequest::new(Method::Delete, path, Value::Null)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests stand up fake servers on raw sockets")]
mod tests {
    use super::*;
    use laminar_json::jobj;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    #[test]
    fn in_process_transport_round_trip() {
        let t = InProcessTransport::new(LaminarServer::in_memory());
        let r =
            t.call(&post("/auth/register", jobj! { "userName" => "u1", "password" => "password" })).unwrap();
        assert!(r.is_ok());
        assert_eq!(t.endpoint(), "in-process");
    }

    #[test]
    fn serialize_code_round_trips() {
        let src = "pe X : producer { output o; process { emit(1); } }";
        let enc = serialize_code(src);
        assert_eq!(laminar_registry::decode_code(&enc).as_deref(), Some(src));
    }

    #[test]
    fn analyze_imports_finds_deps() {
        let src = r#"
            pe A : iterative {
                import astropy;
                input x; output output;
                process { emit(vo.fetch(x)); }
            }
        "#;
        let imports = analyze_imports(src);
        assert!(imports.contains(&"astropy".to_string()));
        assert!(analyze_imports("not valid !!").is_empty());
    }

    #[test]
    fn tcp_transport_against_live_server() {
        let http = laminar_server::HttpServer::start(LaminarServer::in_memory()).unwrap();
        let t = TcpTransport::new(http.addr());
        let r =
            t.call(&post("/auth/register", jobj! { "userName" => "tcp", "password" => "password" })).unwrap();
        assert!(r.is_ok(), "{r:?}");
        assert!(t.endpoint().starts_with("http://127.0.0.1"));
        http.stop();
    }

    /// What the fake servers below read off a socket: one request, whose
    /// path is returned. `None` on EOF.
    fn read_fake_request(reader: &mut BufReader<TcpStream>) -> Option<String> {
        let mut request_line = String::new();
        if reader.read_line(&mut request_line).unwrap() == 0 {
            return None;
        }
        let mut length = 0;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            if header.trim().is_empty() {
                break;
            }
            if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v.trim().parse().unwrap();
            }
        }
        reader.read_exact(&mut vec![0u8; length]).unwrap();
        Some(request_line.split_whitespace().nth(1).unwrap().to_string())
    }

    const FAKE_OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nConnection: keep-alive\r\n\r\ntrue";

    #[test]
    fn kept_connection_closed_by_the_server_is_reopened_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let transport = TcpTransport::new(listener.local_addr().unwrap());
        // The peer promises keep-alive, answers one request per connection
        // and hangs up; it records every request it reads.
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        let peer = std::thread::spawn(move || {
            let mut seen = Vec::new();
            for _ in 0..2 {
                let mut reader = BufReader::new(listener.accept().unwrap().0);
                seen.push(read_fake_request(&mut reader).unwrap());
                reader.get_mut().write_all(FAKE_OK).unwrap();
                drop(reader);
                closed_tx.send(()).unwrap();
            }
            listener.set_nonblocking(true).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            assert!(listener.accept().is_err(), "a third connection");
            seen
        });
        assert!(transport.call(&get("/one")).unwrap().is_ok());
        closed_rx.recv().unwrap();
        // The kept socket is dead, which only the second call can find out.
        assert!(transport.call(&get("/two")).unwrap().is_ok());
        assert_eq!(peer.join().unwrap(), ["/one", "/two"], "two accepts, each request read once");
    }

    #[test]
    fn kept_connection_failing_mid_response_is_not_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let transport = TcpTransport::new(listener.local_addr().unwrap());
        let peer = std::thread::spawn(move || {
            let mut reader = BufReader::new(listener.accept().unwrap().0);
            let mut seen = vec![read_fake_request(&mut reader).unwrap()];
            reader.get_mut().write_all(FAKE_OK).unwrap();
            // The second request is read — so possibly acted on — and the
            // answer dies half way through its status line.
            seen.push(read_fake_request(&mut reader).unwrap());
            reader.get_mut().write_all(b"HTTP/1.").unwrap();
            drop(reader);
            listener.set_nonblocking(true).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            assert!(listener.accept().is_err(), "the request was sent a second time");
            seen
        });
        assert!(transport.call(&post("/one", jobj! { "n" => 1 })).unwrap().is_ok());
        let error = transport.call(&post("/two", jobj! { "n" => 2 })).unwrap_err();
        assert!(error.starts_with("transport error"), "{error}");
        assert_eq!(peer.join().unwrap(), ["/one", "/two"]);
    }

    /// A `Content-Length` the peer never sends is a transport error: the
    /// client neither allocates the claim up front nor waits past the
    /// peer's hang-up.
    #[test]
    fn a_lying_content_length_is_an_error_not_an_abort() {
        for length in ["100000000000", "18446744073709551615"] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let transport = TcpTransport::new(listener.local_addr().unwrap());
            let peer = std::thread::spawn(move || {
                let mut reader = BufReader::new(listener.accept().unwrap().0);
                read_fake_request(&mut reader).unwrap();
                let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {length}\r\n\r\ntrue");
                reader.get_mut().write_all(head.as_bytes()).unwrap();
            });
            let error = transport.call(&get("/lie")).unwrap_err();
            assert!(error.starts_with("transport error"), "{length}: {error}");
            peer.join().unwrap();
        }
    }

    #[test]
    fn kept_connection_serves_sequential_calls() {
        let http = laminar_server::HttpServer::start(LaminarServer::in_memory()).unwrap();
        let transport = TcpTransport::new(http.addr());
        for _ in 0..200 {
            assert!(transport.call(&get("/auth/all")).unwrap().is_ok());
        }
        assert_eq!(http.connections_accepted(), 1);
        // A clone is a transport of its own: same address, no connection yet.
        assert!(transport.clone().call(&get("/auth/all")).unwrap().is_ok());
        assert_eq!(http.connections_accepted(), 2);
        http.stop();
    }
}
