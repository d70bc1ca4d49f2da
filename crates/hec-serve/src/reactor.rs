//! The event-driven serving core (DESIGN §11): one reactor thread
//! multiplexes every accepted connection over `poll(2)` while a bounded
//! [`hec_core::pool::WorkerPool`] executes request handlers, so
//! connection count is decoupled from thread count. HTTP/1.1 keep-alive
//! and pipelined parsing let one connection carry many requests.
//!
//! Layering: this module knows HTTP framing and connection lifecycle but
//! nothing about routes. `hec-serve`'s listener and the `hec-cluster`
//! router both instantiate [`start_core`] with their own handler
//! closure, counters ([`CoreEvents`]) and queue-full rejection body —
//! one reactor, two services.
//!
//! Per-connection state machine (level-triggered):
//!
//! ```text
//!   Reading --parse complete--> Dispatched --completion--> Writing
//!      ^                            |                        |
//!      |            queue full: 503 queued inline            |
//!      +--- keep-alive, buffered pipelined bytes re-parsed --+
//!                                                            |
//!              Connection: close / stop / parse error --> Closed
//! ```
//!
//! The reactor polls `POLLIN` only while it is willing to buffer more
//! request bytes (per-connection flow control: one dispatched request at
//! a time, buffer capped at [`MAX_REQUEST_BYTES`]) and `POLLOUT` only
//! while response bytes are pending, so the loop never spins. Workers
//! push finished responses onto a completion list and wake the reactor
//! through a loopback socket pair — the same channel `/shutdown` uses —
//! keeping the whole core on `std` with a single `extern "C"` line.
//!
//! Shutdown drains: accepting stops, idle keep-alive connections close,
//! dispatched requests complete and their responses flush, then the
//! worker pool joins. In-flight work is never dropped.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hec_core::pool::WorkerPool;
use hec_core::sync::Mutex;

use crate::server::{error_body, status_text, MAX_REQUEST_BYTES, RETRY_AFTER_SECS};

/// Reactor poll timeout: a liveness tick, not a scheduling quantum —
/// every state change arrives as an fd event or a wake byte.
const POLL_TICK_MS: i32 = 250;

#[cfg(unix)]
mod sys {
    //! The platform shim: `poll(2)` through one `extern "C"` declaration
    //! against the platform libc already linked into every Rust binary —
    //! no libc *crate*. `PollFd` mirrors `struct pollfd` (identical
    //! layout on Linux and the BSDs); the event bits below are the
    //! POSIX-mandated values shared by those platforms.
    use std::io;
    pub use std::os::fd::{AsRawFd, RawFd};

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: core::ffi::c_ulong,
            timeout: core::ffi::c_int,
        ) -> core::ffi::c_int;
    }

    /// Blocks until some fd is ready or `timeout_ms` elapses; retries
    /// `EINTR` so signals never surface as readiness errors.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(not(unix))]
mod sys {
    //! Portability fallback (DESIGN §11): no `poll(2)`, so emulate
    //! level-triggered readiness by reporting every registered interest
    //! as ready after a short nap. Correctness is preserved because all
    //! sockets are non-blocking — a spurious "ready" just yields
    //! `WouldBlock` — at the cost of a bounded busy-poll.
    use std::io;

    pub type RawFd = i32;
    pub trait AsRawFd {
        fn as_raw_fd(&self) -> RawFd {
            -1
        }
    }
    impl<T> AsRawFd for T {}

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub fn wait(fds: &mut [PollFd], _timeout_ms: i32) -> io::Result<usize> {
        std::thread::sleep(std::time::Duration::from_millis(1));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

use sys::AsRawFd;

// ---------------------------------------------------------------------
// Incremental HTTP/1.1 request parsing
// ---------------------------------------------------------------------

/// One parsed HTTP request: method, split target, raw body.
pub struct Request {
    /// Request method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, always starting with `/`.
    pub path: String,
    /// Query component (after `?`), possibly empty, undecoded.
    pub query: String,
    /// Request body as text (delimited by `Content-Length`).
    pub body: String,
}

impl Request {
    /// The original request target: path plus `?query` when non-empty.
    pub fn target(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            format!("{}?{}", self.path, self.query)
        }
    }
}

/// Outcome of one parse attempt over a connection's buffered bytes.
pub enum Parse {
    /// Not enough bytes yet — keep reading.
    Incomplete,
    /// One full request, the bytes it consumed, and whether the client
    /// negotiated keep-alive (HTTP/1.1 default yes, HTTP/1.0 default no).
    Complete { req: Request, consumed: usize, keep_alive: bool },
}

/// Position one past the head terminator (`\r\n\r\n` or bare `\n\n`,
/// matching the liberal line handling of the original blocking parser).
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Incremental request parser over a connection's receive buffer,
/// bounded by [`MAX_REQUEST_BYTES`]. Never consumes on `Incomplete`, so
/// the reactor can retry as bytes arrive (partial and byte-at-a-time
/// writers are handled for free).
pub fn parse_request(buf: &[u8]) -> Result<Parse, String> {
    let Some(head_len) = head_end(buf) else {
        if buf.len() >= MAX_REQUEST_BYTES {
            return Err("request head too large".into());
        }
        return Ok(Parse::Incomplete);
    };
    if head_len > MAX_REQUEST_BYTES {
        return Err("request head too large".into());
    }
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| "non-utf8 request head")?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("HTTP/1.1").to_string();
    if method.is_empty() || !target.starts_with('/') {
        return Err("malformed request line".into());
    }
    let mut content_length = 0usize;
    let mut connection = String::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| "bad Content-Length".to_string())?;
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            }
        }
    }
    if content_length > MAX_REQUEST_BYTES {
        return Err("request body too large".into());
    }
    let total = head_len + content_length;
    if buf.len() < total {
        return Ok(Parse::Incomplete);
    }
    let keep_alive = if version.eq_ignore_ascii_case("HTTP/1.0") {
        connection.contains("keep-alive")
    } else {
        !connection.contains("close")
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let body = String::from_utf8_lossy(&buf[head_len..total]).into_owned();
    Ok(Parse::Complete { req: Request { method, path, query, body }, consumed: total, keep_alive })
}

/// Serializes one response with explicit keep-alive/close framing.
pub fn emit_response(code: u16, extra_headers: &[String], body: &str, keep_alive: bool) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n{}\r\n",
        status_text(code),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
        extra_headers.iter().map(|h| format!("{h}\r\n")).collect::<String>(),
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

// ---------------------------------------------------------------------
// Shared core state
// ---------------------------------------------------------------------

/// Connection and reactor gauges, exported under `/metrics`.
pub struct NetStats {
    open: AtomicU64,
    accepted: AtomicU64,
    max_open: AtomicU64,
    requests: AtomicU64,
    keepalive_requests: AtomicU64,
    iterations: AtomicU64,
}

impl NetStats {
    /// Fresh zeroed gauges.
    pub fn new() -> NetStats {
        NetStats {
            open: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            max_open: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            keepalive_requests: AtomicU64::new(0),
            iterations: AtomicU64::new(0),
        }
    }

    /// Currently registered connections, excluding the one carrying the
    /// observation itself: a `/metrics` request always arrives over a
    /// live connection, and subtracting it lets "drained" read as 0.
    pub fn open_excluding_observer(&self) -> u64 {
        self.open.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// Currently registered connections, raw. Read out-of-band (not over
    /// a connection to this server) — e.g. after the reactor exits, where
    /// a fully drained server reads exactly 0 with no observer to
    /// subtract. The cluster's retirement path records this.
    pub fn open(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Total connections accepted.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously registered connections.
    pub fn max_open(&self) -> u64 {
        self.max_open.load(Ordering::Relaxed)
    }

    /// Requests parsed off connections (admitted or rejected).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Requests served on an already-used connection — the keep-alive
    /// win: `requests - accepted` when every client reuses perfectly.
    pub fn keepalive_requests(&self) -> u64 {
        self.keepalive_requests.load(Ordering::Relaxed)
    }

    /// Reactor loop iterations (readiness wakeups + liveness ticks).
    pub fn iterations(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }
}

impl Default for NetStats {
    fn default() -> Self {
        NetStats::new()
    }
}

/// Service-side counters the core drives; the server and the router each
/// map these onto atomics of their own.
pub trait CoreEvents: Send + Sync {
    /// A request was parsed; it goes to the worker pool unless
    /// [`CoreEvents::on_reject`] follows.
    fn on_request(&self) {}
    /// The request just counted was shed with `503` because the queue was
    /// full.
    fn on_reject(&self) {}
    /// A connection sent bytes that failed to parse (answered `400`).
    fn on_bad_request(&self) {}
}

/// Shutdown latch plus the wake channel into the reactor. Create it
/// before [`start_core`] so handlers can capture it; the core installs
/// the wake stream when it binds.
pub struct ShutdownFlag {
    stop: AtomicBool,
    waker: Mutex<Option<TcpStream>>,
}

impl ShutdownFlag {
    /// A fresh, untriggered flag.
    pub fn new() -> ShutdownFlag {
        ShutdownFlag { stop: AtomicBool::new(false), waker: Mutex::new(None) }
    }

    /// Requests a graceful stop and wakes the reactor. Idempotent.
    pub fn trigger(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// True once a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn install(&self, stream: TcpStream) {
        *self.waker.lock() = Some(stream);
    }

    fn wake(&self) {
        if let Some(s) = &*self.waker.lock() {
            let _ = (&*s).write(&[1]);
        }
    }
}

impl Default for ShutdownFlag {
    fn default() -> Self {
        ShutdownFlag::new()
    }
}

/// A finished request: the handler's verdict, headed back to its
/// connection. The reactor frames it (keep-alive vs close) at delivery.
struct Completion {
    token: u64,
    code: u16,
    headers: Vec<String>,
    body: String,
}

struct Shared {
    completions: Mutex<Vec<Completion>>,
    wake: TcpStream,
}

impl Shared {
    fn push(&self, c: Completion) {
        self.completions.lock().push(c);
        let _ = (&self.wake).write(&[1]);
    }
}

/// What the core needs beyond its collaborators: where to bind and what
/// a queue-full rejection says.
pub struct CoreConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Body of the `503` answered when the admission queue is full.
    pub reject_body: String,
}

/// Request handler: `(request, parse instant)` to `(status, extra
/// headers, body)`. Runs on a worker thread; the parse instant lets the
/// service record latency inclusive of queue wait.
pub type Handler = dyn Fn(&Request, Instant) -> (u16, Vec<String>, String) + Send + Sync;

/// A running reactor core. Dropping it does not stop it — trigger the
/// [`ShutdownFlag`] then [`Core::join`].
pub struct Core {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl Core {
    /// The bound address (`127.0.0.1` with the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the reactor to drain and its worker pool to join.
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Binds `127.0.0.1:cfg.port` and spawns the reactor thread. Returns
/// once the socket is accepting. `on_drained` (if any) runs on the
/// reactor thread after the pool has drained — the router uses it to
/// stop its health checker and replicas in order.
pub fn start_core(
    cfg: CoreConfig,
    pool: WorkerPool,
    stats: Arc<NetStats>,
    events: Arc<dyn CoreEvents>,
    stop: Arc<ShutdownFlag>,
    handler: Arc<Handler>,
    on_drained: Option<Box<dyn FnOnce() + Send>>,
) -> std::io::Result<Core> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    // Wake channel: a loopback socket pair. Workers and shutdown write a
    // byte; the reactor's poll set includes the read end.
    let wake_listener = TcpListener::bind(("127.0.0.1", 0))?;
    let wake_tx = TcpStream::connect(wake_listener.local_addr()?)?;
    wake_tx.set_nonblocking(true)?;
    let (wake_rx, _) = wake_listener.accept()?;
    wake_rx.set_nonblocking(true)?;
    stop.install(wake_tx.try_clone()?);
    let shared = Arc::new(Shared { completions: Mutex::new(Vec::new()), wake: wake_tx });

    let thread = std::thread::spawn(move || {
        run_reactor(Reactor {
            listener,
            wake_rx,
            pool,
            stats,
            events,
            stop,
            handler,
            shared,
            reject_body: cfg.reject_body,
        });
        // run_reactor already drained the pool; optional service-level
        // teardown (checker, replicas) happens strictly after.
        if let Some(f) = on_drained {
            f();
        }
    });
    Ok(Core { addr, thread })
}

// ---------------------------------------------------------------------
// The reactor loop
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    /// Unconsumed request bytes (may hold several pipelined requests).
    buf: Vec<u8>,
    /// Response bytes not yet accepted by the kernel.
    out: Vec<u8>,
    sent: usize,
    /// One request is with the worker pool; reads pause until it lands.
    dispatched: bool,
    /// Keep-alive verdict of the request currently dispatched.
    keep_current: bool,
    close_after_write: bool,
    /// Peer half-closed (EOF seen); finish writing, admit nothing new.
    peer_closed: bool,
    /// Requests fully served on this connection.
    served: u64,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            sent: 0,
            dispatched: false,
            keep_current: true,
            close_after_write: false,
            peer_closed: false,
            served: 0,
            dead: false,
        }
    }

    fn write_pending(&self) -> bool {
        self.sent < self.out.len()
    }

    fn wants_read(&self) -> bool {
        !self.dispatched
            && !self.peer_closed
            && !self.close_after_write
            && self.buf.len() < MAX_REQUEST_BYTES
    }

    /// Idle: safe to close at shutdown without dropping admitted work.
    fn idle(&self) -> bool {
        !self.dispatched && !self.write_pending()
    }
}

struct Reactor {
    listener: TcpListener,
    wake_rx: TcpStream,
    pool: WorkerPool,
    stats: Arc<NetStats>,
    events: Arc<dyn CoreEvents>,
    stop: Arc<ShutdownFlag>,
    handler: Arc<Handler>,
    shared: Arc<Shared>,
    reject_body: String,
}

fn run_reactor(r: Reactor) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut fds: Vec<sys::PollFd> = Vec::new();
    // fd slot -> connection token, parallel to `fds` past the fixed slots.
    let mut slots: Vec<u64> = Vec::new();
    // Set when `accept` fails for a reason other than an empty backlog
    // (e.g. fd exhaustion). The listener stays readable then, so the next
    // poll leaves it out and sleeps up to a tick before `accept` retries.
    let mut accept_paused = false;

    loop {
        r.stats.iterations.fetch_add(1, Ordering::Relaxed);
        let stopping = r.stop.stopping();
        if stopping {
            for c in conns.values_mut() {
                if c.idle() {
                    c.dead = true;
                }
            }
            reap(&mut conns, &r.stats);
            if conns.is_empty() {
                break;
            }
        }

        fds.clear();
        slots.clear();
        fds.push(sys::PollFd { fd: r.wake_rx.as_raw_fd(), events: sys::POLLIN, revents: 0 });
        let accept_slot = if stopping || std::mem::take(&mut accept_paused) {
            None
        } else {
            fds.push(sys::PollFd { fd: r.listener.as_raw_fd(), events: sys::POLLIN, revents: 0 });
            Some(1)
        };
        for (&token, c) in conns.iter() {
            let mut events = 0i16;
            if c.wants_read() {
                events |= sys::POLLIN;
            }
            if c.write_pending() {
                events |= sys::POLLOUT;
            }
            slots.push(token);
            fds.push(sys::PollFd { fd: c.stream.as_raw_fd(), events, revents: 0 });
        }

        if sys::wait(&mut fds, POLL_TICK_MS).is_err() {
            // poll itself failing is unrecoverable for this loop; bail
            // out through the drain path rather than spinning.
            r.stop.trigger();
            continue;
        }

        if fds[0].revents & sys::POLLIN != 0 {
            let mut sink = [0u8; 64];
            while matches!((&r.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // Deliver finished responses before I/O so a completed request's
        // bytes go out in this same iteration.
        let finished: Vec<Completion> = std::mem::take(&mut *r.shared.completions.lock());
        let mut touched: Vec<u64> = Vec::with_capacity(finished.len());
        for comp in finished {
            let Some(c) = conns.get_mut(&comp.token) else { continue };
            let keep = c.keep_current && !r.stop.stopping();
            c.out.extend_from_slice(&emit_response(comp.code, &comp.headers, &comp.body, keep));
            if !keep {
                c.close_after_write = true;
            }
            c.dispatched = false;
            c.served += 1;
            if c.served > 1 {
                r.stats.keepalive_requests.fetch_add(1, Ordering::Relaxed);
            }
            touched.push(comp.token);
        }

        if let Some(slot) = accept_slot {
            if fds[slot].revents & sys::POLLIN != 0 {
                loop {
                    match r.listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            conns.insert(next_token, Conn::new(stream));
                            next_token += 1;
                            r.stats.accepted.fetch_add(1, Ordering::Relaxed);
                            let open = r.stats.open.fetch_add(1, Ordering::Relaxed) + 1;
                            r.stats.max_open.fetch_max(open, Ordering::Relaxed);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            accept_paused = true;
                            break;
                        }
                    }
                }
            }
        }

        let first_conn_slot = fds.len() - slots.len();
        for (i, &token) in slots.iter().enumerate() {
            let revents = fds[first_conn_slot + i].revents;
            if revents == 0 {
                continue;
            }
            let Some(c) = conns.get_mut(&token) else { continue };
            if revents & sys::POLLNVAL != 0 {
                c.dead = true;
                continue;
            }
            // POLLHUP can accompany final data (peer half-close after a
            // pipelined burst): always attempt the read, then advance —
            // buffered requests still get served and written back.
            if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 && c.wants_read() {
                read_some(c);
            }
            if revents & sys::POLLERR != 0 && !c.write_pending() && c.idle() && c.buf.is_empty() {
                c.dead = true;
                continue;
            }
            advance(c, token, &r);
        }
        for token in touched {
            if let Some(c) = conns.get_mut(&token) {
                advance(c, token, &r);
            }
        }
        reap(&mut conns, &r.stats);
    }

    drop(r.listener);
    // Queued-but-unstarted jobs still run here; their completions land
    // in `shared` with nobody reading — harmless, the conns are gone.
    r.pool.shutdown();
}

fn reap(conns: &mut HashMap<u64, Conn>, stats: &NetStats) {
    let before = conns.len();
    conns.retain(|_, c| !c.dead);
    let closed = (before - conns.len()) as u64;
    if closed > 0 {
        stats.open.fetch_sub(closed, Ordering::Relaxed);
    }
}

fn read_some(c: &mut Conn) {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match (&c.stream).read(&mut chunk) {
            Ok(0) => {
                c.peer_closed = true;
                return;
            }
            Ok(n) => {
                c.buf.extend_from_slice(&chunk[..n]);
                if c.buf.len() >= MAX_REQUEST_BYTES {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.peer_closed = true;
                return;
            }
        }
    }
}

/// Drives one connection as far as it can go right now: flush pending
/// response bytes, then parse-and-dispatch buffered requests until the
/// buffer runs dry, a request is in flight, or the socket pushes back.
fn advance(c: &mut Conn, token: u64, r: &Reactor) {
    loop {
        while c.write_pending() {
            match (&c.stream).write(&c.out[c.sent..]) {
                Ok(0) => {
                    c.dead = true;
                    return;
                }
                Ok(n) => c.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.dead = true;
                    return;
                }
            }
        }
        if !c.out.is_empty() {
            c.out.clear();
            c.sent = 0;
        }
        if c.close_after_write {
            c.dead = true;
            return;
        }
        if c.dispatched {
            return;
        }
        if r.stop.stopping() {
            // Drain mode: finished writing, nothing in flight — buffered
            // not-yet-admitted bytes are dropped with the connection.
            c.dead = true;
            return;
        }
        match parse_request(&c.buf) {
            Ok(Parse::Incomplete) => {
                if c.peer_closed {
                    c.dead = true;
                }
                return;
            }
            Ok(Parse::Complete { req, consumed, keep_alive }) => {
                c.buf.drain(..consumed);
                c.keep_current = keep_alive;
                r.stats.requests.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                let handler = Arc::clone(&r.handler);
                let shared = Arc::clone(&r.shared);
                let job = move || {
                    let (code, headers, body) = handler(&req, t0);
                    shared.push(Completion { token, code, headers, body });
                };
                // Counted before the job is visible to a worker, so a
                // `/metrics` request sees itself.
                r.events.on_request();
                if r.pool.try_submit(job).is_ok() {
                    c.dispatched = true;
                    return;
                }
                // Queue full: shed inline with 503 + Retry-After. The
                // connection survives (keep-alive permitting) so the
                // client's capped-Retry-After retry can land here again.
                r.events.on_reject();
                c.out.extend_from_slice(&emit_response(
                    503,
                    &[format!("Retry-After: {RETRY_AFTER_SECS}")],
                    &r.reject_body,
                    keep_alive,
                ));
                if !keep_alive {
                    c.close_after_write = true;
                }
            }
            Err(msg) => {
                r.events.on_bad_request();
                c.out.extend_from_slice(&emit_response(400, &[], &error_body(&msg), false));
                c.close_after_write = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_incremental_arrival() {
        let full = b"GET /eval?app=gtc HTTP/1.1\r\nHost: h\r\n\r\n";
        for cut in 0..full.len() {
            match parse_request(&full[..cut]).unwrap() {
                Parse::Incomplete => {}
                Parse::Complete { .. } => panic!("complete at {cut} of {}", full.len()),
            }
        }
        match parse_request(full).unwrap() {
            Parse::Complete { req, consumed, keep_alive } => {
                assert_eq!(req.method, "GET");
                assert_eq!(req.path, "/eval");
                assert_eq!(req.query, "app=gtc");
                assert_eq!(consumed, full.len());
                assert!(keep_alive, "HTTP/1.1 defaults to keep-alive");
            }
            Parse::Incomplete => panic!("full request must parse"),
        }
    }

    #[test]
    fn parser_frames_bodies_and_pipelined_requests() {
        let two =
            b"POST /eval HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcdGET /healthz HTTP/1.1\r\n\r\n";
        let Parse::Complete { req, consumed, .. } = parse_request(two).unwrap() else {
            panic!("first request must parse");
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "abcd");
        let Parse::Complete { req: second, consumed: c2, .. } =
            parse_request(&two[consumed..]).unwrap()
        else {
            panic!("second pipelined request must parse");
        };
        assert_eq!(second.path, "/healthz");
        assert_eq!(consumed + c2, two.len());
    }

    #[test]
    fn parser_negotiates_keep_alive_per_version() {
        let cases: [(&[u8], bool); 4] = [
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ];
        for (raw, want) in cases {
            let Parse::Complete { keep_alive, .. } = parse_request(raw).unwrap() else {
                panic!("must parse: {raw:?}");
            };
            assert_eq!(keep_alive, want, "{:?}", String::from_utf8_lossy(raw));
        }
    }

    #[test]
    fn parser_rejects_oversize_and_garbage() {
        let huge = vec![b'a'; MAX_REQUEST_BYTES];
        assert!(parse_request(&huge).is_err(), "unterminated max-size head must reject");
        assert!(parse_request(b"NOT-HTTP\r\n\r\n").is_err());
        let big_body =
            format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_REQUEST_BYTES + 1);
        assert!(parse_request(big_body.as_bytes()).is_err());
        assert!(parse_request(b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n").is_err());
    }

    #[test]
    fn emitted_responses_frame_connection_choice() {
        let keep = String::from_utf8(emit_response(200, &[], "{}", true)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"), "{keep}");
        assert!(keep.ends_with("\r\n\r\n{}"));
        let close =
            String::from_utf8(emit_response(503, &["Retry-After: 1".into()], "x", false)).unwrap();
        assert!(close.contains("Connection: close\r\n"));
        assert!(close.contains("Retry-After: 1\r\n"));
    }
}
