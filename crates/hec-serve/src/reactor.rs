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
//! through a Unix-domain socket pair (loopback TCP where Unix sockets do
//! not exist) — the same channel `/shutdown` uses — keeping the whole
//! core on `std` with a single `extern "C"` line. Wakes coalesce: a
//! worker writes the byte only when none is pending, and the reactor
//! re-arms before it takes the list, so a batch of completions that
//! lands between two reactor iterations costs one byte and one read.
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

    /// The completion wake channel: a connected Unix-domain socket pair,
    /// both ends non-blocking. A byte through it costs a fraction of a
    /// loopback TCP round trip (no TCP/IP stack on either end).
    pub type WakeStream = std::os::unix::net::UnixStream;

    pub fn wake_pair() -> io::Result<(WakeStream, WakeStream)> {
        let (tx, rx) = WakeStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((tx, rx))
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

    /// Without Unix sockets the wake channel is a loopback TCP pair.
    pub type WakeStream = std::net::TcpStream;

    pub fn wake_pair() -> io::Result<(WakeStream, WakeStream)> {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
        let tx = WakeStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((tx, rx))
    }

    pub fn wait(fds: &mut [PollFd], _timeout_ms: i32) -> io::Result<usize> {
        std::thread::sleep(std::time::Duration::from_millis(1));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

use sys::{AsRawFd, WakeStream};

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
    let mut out = Vec::new();
    write_response(&mut out, code, extra_headers, body, keep_alive);
    out
}

/// Appends [`emit_response`]'s bytes to `out`: one formatted head line
/// set, the extra headers copied as they are, then the body — no
/// intermediate buffer. The reactor writes into a connection's own
/// output buffer this way.
fn write_response(
    out: &mut Vec<u8>,
    code: u16,
    extra_headers: &[String],
    body: &str,
    keep_alive: bool,
) {
    let extra: usize = extra_headers.iter().map(|h| h.len() + 2).sum();
    out.reserve(128 + extra + body.len());
    let _ = write!(
        out,
        "HTTP/1.1 {code} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_text(code),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for h in extra_headers {
        out.extend_from_slice(h.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
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
    waker: Mutex<Option<WakeStream>>,
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

    fn install(&self, stream: WakeStream) {
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
    wake: WakeStream,
    /// A wake byte is in flight: the reactor has not yet cleared this
    /// flag and taken the completion list. Workers finishing meanwhile
    /// only push, so a burst of completions costs one byte.
    wake_pending: AtomicBool,
}

impl Shared {
    fn new(wake: WakeStream) -> Shared {
        Shared { completions: Mutex::new(Vec::new()), wake, wake_pending: AtomicBool::new(false) }
    }

    /// Queues `c` and wakes the reactor unless a wake is already pending.
    /// No completion is stranded: the reactor clears the flag *before*
    /// it takes the list, so a push that finds the flag set lands in a
    /// list the reactor has yet to take.
    fn push(&self, c: Completion) {
        self.completions.lock().push(c);
        if !self.wake_pending.swap(true, Ordering::SeqCst) {
            let _ = (&self.wake).write(&[1]);
        }
    }

    /// The reactor's side: re-arms the wake, then takes every completion.
    fn take(&self) -> Vec<Completion> {
        self.wake_pending.store(false, Ordering::SeqCst);
        std::mem::take(&mut *self.completions.lock())
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

    // Wake channel: workers (one byte per batch of completions) and
    // shutdown write; the reactor's poll set includes the read end.
    let (wake_tx, wake_rx) = sys::wake_pair()?;
    stop.install(wake_tx.try_clone()?);
    let shared = Arc::new(Shared::new(wake_tx));

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
    wake_rx: WakeStream,
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
        let finished = r.shared.take();
        let mut touched: Vec<u64> = Vec::with_capacity(finished.len());
        for comp in finished {
            let Some(c) = conns.get_mut(&comp.token) else { continue };
            let keep = c.keep_current && !r.stop.stopping();
            write_response(&mut c.out, comp.code, &comp.headers, &comp.body, keep);
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
                write_response(
                    &mut c.out,
                    503,
                    &[format!("Retry-After: {RETRY_AFTER_SECS}")],
                    &r.reject_body,
                    keep_alive,
                );
                if !keep_alive {
                    c.close_after_write = true;
                }
            }
            Err(msg) => {
                r.events.on_bad_request();
                write_response(&mut c.out, 400, &[], &error_body(&msg), false);
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

    /// A parsed request as comparable values.
    type Parsed = (String, String, String, String, bool);

    /// Parses every complete request at the front of `buf`, draining
    /// what each consumed — the reactor's own loop over one buffer.
    fn drain_requests(buf: &mut Vec<u8>, out: &mut Vec<Parsed>) {
        loop {
            let len = buf.len();
            match parse_request(buf) {
                Ok(Parse::Complete { req, consumed, keep_alive }) => {
                    assert!(consumed > 0 && consumed <= len, "consumed {consumed} of {len}");
                    out.push((req.method, req.path, req.query, req.body, keep_alive));
                    buf.drain(..consumed);
                }
                Ok(Parse::Incomplete) => return,
                Err(e) => panic!("valid pipelined input rejected: {e}"),
            }
        }
    }

    /// One random well-formed request with its own framing.
    fn random_request(rng: &mut hec_core::rng::Rng) -> Vec<u8> {
        let paths = ["/eval", "/sweep", "/healthz", "/metrics", "/x/y"];
        let path = paths[rng.below(paths.len())];
        let query = ["", "?app=gtc", "?app=gtc&platform=es&procs=64", "?a=%20b+c"][rng.below(4)];
        let version = ["HTTP/1.1", "HTTP/1.0"][rng.below(2)];
        let body: String = (0..rng.below(40)).map(|i| (b'a' + (i % 26) as u8) as char).collect();
        let method = if body.is_empty() && rng.below(2) == 0 { "GET" } else { "POST" };
        let mut head = format!("{method} {path}{query} {version}\r\nHost: h\r\n");
        if !body.is_empty() || rng.below(2) == 0 {
            head.push_str(&format!("content-LENGTH: {}\r\n", body.len()));
        }
        match rng.below(4) {
            0 => head.push_str("Connection: close\r\n"),
            1 => head.push_str("Connection: Keep-Alive\r\n"),
            _ => {}
        }
        head.push_str(if rng.below(5) == 0 { "\n" } else { "\r\n" });
        let mut raw = head.into_bytes();
        raw.extend_from_slice(body.as_bytes());
        raw
    }

    #[test]
    fn parser_never_panics_on_random_bytes() {
        let mut rng = hec_core::rng::Rng::new(0x7e57);
        let pieces: [&[u8]; 12] = [
            b"GET ",
            b"POST ",
            b"/",
            b"?",
            b" HTTP/1.1",
            b"\r\n",
            b"\n",
            b":",
            b"Content-Length: ",
            b"99999999999999999999",
            b"\xff\xfe",
            b"7",
        ];
        for _ in 0..20_000 {
            let mut buf = Vec::new();
            for _ in 0..rng.below(24) {
                if rng.below(3) == 0 {
                    buf.push(rng.next_u64() as u8);
                } else {
                    buf.extend_from_slice(pieces[rng.below(pieces.len())]);
                }
            }
            if let Ok(Parse::Complete { consumed, .. }) = parse_request(&buf) {
                assert!(
                    consumed > 0 && consumed <= buf.len(),
                    "consumed {consumed} of {}",
                    buf.len()
                );
            }
        }
    }

    #[test]
    fn split_fed_pipelines_parse_like_whole_fed_ones() {
        let mut rng = hec_core::rng::Rng::new(0x7e58);
        for _ in 0..500 {
            let reqs: Vec<Vec<u8>> =
                (0..1 + rng.below(6)).map(|_| random_request(&mut rng)).collect();
            let wire: Vec<u8> = reqs.concat();
            let mut whole = Vec::new();
            drain_requests(&mut wire.clone(), &mut whole);
            assert_eq!(whole.len(), reqs.len(), "{:?}", String::from_utf8_lossy(&wire));
            // The same bytes in random chunks, parsed after every chunk.
            let mut split = Vec::new();
            let mut buf = Vec::new();
            let mut at = 0;
            while at < wire.len() {
                let end = (at + 1 + rng.below(24)).min(wire.len());
                buf.extend_from_slice(&wire[at..end]);
                drain_requests(&mut buf, &mut split);
                at = end;
            }
            assert!(buf.is_empty(), "{} bytes left over", buf.len());
            assert_eq!(split, whole);
        }
    }

    #[test]
    fn a_burst_of_completions_writes_one_wake_byte() {
        let (tx, rx) = sys::wake_pair().unwrap();
        let shared = Shared::new(tx);
        let done =
            |token| Completion { token, code: 200, headers: Vec::new(), body: String::new() };
        for token in 0..100 {
            shared.push(done(token));
        }
        let mut sink = [0u8; 256];
        assert_eq!((&rx).read(&mut sink).unwrap(), 1, "100 undrained pushes must leave one byte");
        assert_eq!((&rx).read(&mut sink).unwrap_err().kind(), ErrorKind::WouldBlock);
        // Taking the list re-arms the wake: the next push writes again.
        assert_eq!(shared.take().len(), 100);
        shared.push(done(100));
        assert_eq!((&rx).read(&mut sink).unwrap(), 1);
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
