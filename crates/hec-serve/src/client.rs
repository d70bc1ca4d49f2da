//! Minimal HTTP/1.1 client for the load generator, the cluster router,
//! and the e2e tests.
//!
//! Matches the server's dialect: requests ask for `Connection:
//! keep-alive`, bodies are delimited by `Content-Length` (with
//! read-to-EOF as the close-framed fallback). Only `http://host:port/`
//! URLs.
//!
//! Connection reuse is per thread: each thread keeps at most one open
//! connection per authority (`host:port`) in a thread-local pool, so the
//! router's workers, the load generator's clients, and the health
//! checker all reuse transparently with zero locking. A pooled
//! connection can go stale — the server may have closed it since (a
//! replica was killed, an idle timeout fired, a keep-alive limit hit).
//! When a *reused* connection fails before yielding a single response
//! byte with a connection-shaped error (EOF, reset, broken pipe), the
//! request is retried once on a fresh connection; a fresh connection's
//! failure, or a timeout, surfaces immediately — a timed-out request may
//! have executed, and masking that would double-execute it.
//!
//! A pooled connection remembers the timeout it was last given, so a
//! request at the same timeout sets no socket option, and the response
//! is read through a borrow of the socket rather than a `dup` of it: a
//! request over a warm connection costs one `write` and the `read`s its
//! response needs.
//!
//! That one reconnect is the client's only second attempt. It repairs
//! the connection, not the request: there is no retry policy here. A
//! `503`, a refused connection or a timeout is returned to the caller
//! as is; the cluster router's seeded owner-pass backoff is the only
//! retry layer in the serving stack.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Default per-request socket timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(60);

/// A parsed HTTP response.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Raw header lines (name-case preserved), without the status line.
    pub headers: Vec<(String, String)>,
    /// The body as text.
    pub body: String,
}

impl Response {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The `Retry-After` header as whole seconds, when present and sane.
    pub fn retry_after_secs(&self) -> Option<u64> {
        self.header("Retry-After")?.trim().parse().ok()
    }
}

/// `(host:port, path?query)` from an `http://` URL.
fn split_url(url: &str) -> std::io::Result<(String, String)> {
    let rest = url.strip_prefix("http://").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("not an http:// url: {url}"))
    })?;
    let (authority, path) = match rest.split_once('/') {
        Some((a, p)) => (a.to_string(), format!("/{p}")),
        None => (rest.to_string(), "/".to_string()),
    };
    if authority.is_empty() {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty host"));
    }
    Ok((authority, path))
}

fn connect(authority: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let addr = authority.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("unresolvable {authority}"))
    })?;
    TcpStream::connect_timeout(&addr, timeout)
}

/// A kept-alive connection and the read/write timeout it already has,
/// so reuse at the same timeout costs no `setsockopt`.
struct Pooled {
    stream: TcpStream,
    timeout: Duration,
}

impl Pooled {
    /// A fresh connection to `authority` with both timeouts set.
    fn connect(authority: &str, timeout: Duration) -> std::io::Result<Pooled> {
        let stream = connect(authority, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Pooled { stream, timeout })
    }

    /// Sets both timeouts to `timeout` unless they already are.
    fn retime(&mut self, timeout: Duration) -> std::io::Result<()> {
        if self.timeout != timeout {
            self.stream.set_read_timeout(Some(timeout))?;
            self.stream.set_write_timeout(Some(timeout))?;
            self.timeout = timeout;
        }
        Ok(())
    }
}

thread_local! {
    /// One kept-alive connection per authority, per thread. Dropped with
    /// the thread, which closes the sockets — a load generator's senders
    /// release their connections just by exiting.
    static KEEPALIVE: RefCell<HashMap<String, Pooled>> = RefCell::new(HashMap::new());
}

fn take_pooled(authority: &str) -> Option<Pooled> {
    KEEPALIVE.with(|p| p.borrow_mut().remove(authority))
}

fn park_pooled(authority: String, conn: Pooled) {
    KEEPALIVE.with(|p| {
        p.borrow_mut().insert(authority, conn);
    });
}

/// A failure mode where the request provably never reached a handler:
/// the peer hung up before sending one response byte. Only these make a
/// pooled-connection retry safe for non-idempotent requests too.
fn stale_connection_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::NotConnected
    )
}

/// Writes one request and reads one response on an established stream.
/// Returns the response and whether the connection is reusable (the
/// server answered `Connection: keep-alive` with length-framed body).
fn exchange(
    stream: &TcpStream,
    method: &str,
    authority: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(Response, bool)> {
    let body = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{body}",
        body.len(),
    );
    let mut stream = stream;
    stream.write_all(req.as_bytes())?;

    // Reads go through a borrow of the same socket: no `dup` per request.
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status: u16 =
        status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line: {status_line:?}"),
            )
        })?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            let (k, v) = (k.trim().to_string(), v.trim().to_string());
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.parse().ok();
            }
            headers.push((k, v));
        }
    }
    let (body, framed) = match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf)?;
            (String::from_utf8_lossy(&buf).into_owned(), true)
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            (String::from_utf8_lossy(&buf).into_owned(), false)
        }
    };
    let response = Response { status, headers, body };
    let reusable = framed
        && response.header("Connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
    Ok((response, reusable))
}

fn request(
    method: &str,
    url: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<Response> {
    let (authority, path) = split_url(url)?;
    // Reuse a kept-alive connection when one is parked; if the server
    // half-closed it since, fall through to a fresh connect exactly once.
    if let Some(mut conn) = take_pooled(&authority) {
        if conn.retime(timeout).is_ok() {
            match exchange(&conn.stream, method, &authority, &path, body) {
                Ok((response, reusable)) => {
                    if reusable {
                        park_pooled(authority, conn);
                    }
                    return Ok(response);
                }
                Err(e) if stale_connection_error(&e) => {} // reconnect below
                Err(e) => return Err(e),
            }
        }
    }
    let conn = Pooled::connect(&authority, timeout)?;
    let (response, reusable) = exchange(&conn.stream, method, &authority, &path, body)?;
    if reusable {
        park_pooled(authority, conn);
    }
    Ok(response)
}

/// Issues a GET and reads the full response.
pub fn http_get(url: &str) -> std::io::Result<Response> {
    request("GET", url, None, DEFAULT_TIMEOUT)
}

/// Issues a GET with an explicit connect/read/write timeout.
pub fn http_get_timeout(url: &str, timeout: Duration) -> std::io::Result<Response> {
    request("GET", url, None, timeout)
}

/// Issues a POST with a body and reads the full response.
pub fn http_post(url: &str, body: &str) -> std::io::Result<Response> {
    request("POST", url, Some(body), DEFAULT_TIMEOUT)
}

/// Issues a POST with an explicit timeout.
pub fn http_post_timeout(url: &str, body: &str, timeout: Duration) -> std::io::Result<Response> {
    request("POST", url, Some(body), timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_splitting() {
        assert_eq!(
            split_url("http://127.0.0.1:8080/eval?x=1").unwrap(),
            ("127.0.0.1:8080".to_string(), "/eval?x=1".to_string())
        );
        assert_eq!(
            split_url("http://localhost:9").unwrap(),
            ("localhost:9".to_string(), "/".to_string())
        );
        assert!(split_url("https://secure").is_err());
        assert!(split_url("ftp://x").is_err());
        assert!(split_url("http:///path").is_err());
    }

    #[test]
    fn retry_after_header_parses() {
        let r = Response {
            status: 503,
            headers: vec![("Retry-After".into(), "1".into())],
            body: String::new(),
        };
        assert_eq!(r.retry_after_secs(), Some(1));
        let none = Response { status: 200, headers: vec![], body: String::new() };
        assert_eq!(none.retry_after_secs(), None);
    }

    #[test]
    fn one_thread_rides_one_keepalive_connection() {
        // Sequential GETs from a single thread must all reuse the same
        // pooled connection; the server's accepted-count gauge is the
        // witness.
        let s = crate::server::start(crate::server::ServeConfig {
            port: 0,
            workers: 2,
            queue: 8,
            cache_capacity: 64,
        })
        .unwrap();
        let base = format!("http://{}", s.addr());
        for _ in 0..4 {
            assert_eq!(http_get(&format!("{base}/healthz")).unwrap().status, 200);
        }
        let m = http_get(&format!("{base}/metrics")).unwrap();
        let doc = hec_core::json::Json::parse(&m.body).unwrap();
        let accepted = doc
            .get("connections")
            .and_then(|c| c.get("accepted"))
            .and_then(|v| v.as_f64())
            .unwrap();
        assert_eq!(accepted, 1.0, "five requests on one thread must ride one connection");
        let keepalive = doc
            .get("connections")
            .and_then(|c| c.get("keepalive_requests"))
            .and_then(|v| v.as_f64())
            .unwrap();
        // The gauge is bumped at completion delivery, *after* the handler
        // snapshots /metrics — so the metrics request itself is not yet
        // counted. Requests 2..=4 are.
        assert!(keepalive >= 3.0, "requests beyond the first are keep-alive wins: {keepalive}");
        s.shutdown();
        s.join();
    }

    #[test]
    fn stale_pooled_connection_falls_back_to_reconnect() {
        // Mock server: each accepted connection answers exactly one
        // keep-alive response and then closes — a server half-closing a
        // kept-alive connection mid-burst. The client must absorb the
        // stale-connection failure by reconnecting once, invisibly.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut accepted = 0usize;
            for stream in listener.incoming().take(2) {
                let mut s = stream.unwrap();
                accepted += 1;
                let mut buf = [0u8; 2048];
                let _ = std::io::Read::read(&mut s, &mut buf);
                let _ = s.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok",
                );
            }
            accepted
        });
        let url = format!("http://{addr}/x");
        let r1 = http_get(&url).unwrap();
        assert_eq!((r1.status, r1.body.as_str()), (200, "ok"));
        // The pooled connection is now half-closed server-side; the
        // second request must still succeed, on a fresh connection.
        let r2 = http_get(&url).unwrap();
        assert_eq!((r2.status, r2.body.as_str()), (200, "ok"));
        assert_eq!(server.join().unwrap(), 2, "fallback must have dialed a second connection");
    }

    #[test]
    fn close_framed_responses_are_not_pooled() {
        // A server answering `Connection: close` (or without length
        // framing) must not leave its stream in the pool.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut accepted = 0usize;
            for stream in listener.incoming().take(2) {
                let mut s = stream.unwrap();
                accepted += 1;
                let mut buf = [0u8; 2048];
                let _ = std::io::Read::read(&mut s, &mut buf);
                let _ = s.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                );
            }
            accepted
        });
        let url = format!("http://{addr}/x");
        assert_eq!(http_get(&url).unwrap().status, 200);
        assert_eq!(http_get(&url).unwrap().status, 200);
        assert_eq!(server.join().unwrap(), 2, "close-framed connections must not be reused");
    }
}
