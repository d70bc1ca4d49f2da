//! A minimal keep-alive HTTP/1.1 client connection.
//!
//! The benchmark talks to the tier through this rather than
//! `hec_serve::client` because the repository's client silently retries a
//! request once on a stale pooled connection; the benchmark must count
//! every failure and send every request exactly once.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Socket timeout for one exchange.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// One kept-alive connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    head: String,
}

/// One response: status and raw body bytes.
pub struct Response {
    /// HTTP status.
    pub status: u16,
    /// Body bytes (`Content-Length` framed).
    pub body: Vec<u8>,
    /// Whether the server keeps the connection open.
    pub keep_alive: bool,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and the exchange timeouts set.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader, head: String::new() })
    }

    /// Writes one request and reads its response.
    pub fn exchange(&mut self, wire: &[u8]) -> std::io::Result<Response> {
        self.stream.write_all(wire)?;
        self.head.clear();
        if self.reader.read_line(&mut self.head)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let status: u16 =
            self.head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
            })?;
        let mut len: Option<usize> = None;
        let mut keep_alive = false;
        loop {
            self.head.clear();
            let n = self.reader.read_line(&mut self.head)?;
            let line = self.head.trim_end();
            if n == 0 || line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().ok();
                } else if k.eq_ignore_ascii_case("connection") {
                    keep_alive = v.trim().eq_ignore_ascii_case("keep-alive");
                }
            }
        }
        let len = len.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "response without Content-Length")
        })?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Response { status, body, keep_alive })
    }
}

/// One GET on a fresh connection (control-plane requests).
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<Response> {
    Conn::open(addr)?.exchange(
        format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
            .as_bytes(),
    )
}

/// `GET target` parsed as JSON.
pub fn get_json(addr: SocketAddr, target: &str) -> std::io::Result<hec_core::json::Json> {
    let r = get(addr, target)?;
    let text = String::from_utf8_lossy(&r.body);
    hec_core::json::Json::parse(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}
