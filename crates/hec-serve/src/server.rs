//! The HTTP/1.1 listener: reactor-driven connections, bounded worker
//! pool, admission control, metrics, graceful shutdown (DESIGN §8, §11).
//!
//! One reactor thread ([`crate::reactor`]) owns the listening socket and
//! every accepted connection, multiplexed over `poll(2)`; parsed
//! requests are dispatched to a [`hec_core::pool::WorkerPool`] through
//! its bounded admission queue. When the queue is full the reactor
//! answers `503` with `Retry-After` inline — load never turns into
//! unbounded memory or unbounded threads. Connections are keep-alive by
//! default (HTTP/1.1 semantics, pipelining included), so one connection
//! serves many requests. Shutdown (the `/shutdown` endpoint or
//! [`Server::shutdown`]) stops admissions, completes every dispatched
//! request, flushes its response, then joins the workers: in-flight
//! requests always complete.
//!
//! Protocol surface (JSON bodies; `Connection: keep-alive` unless the
//! client opts out or the server is stopping):
//!
//! | endpoint | method | purpose |
//! |---|---|---|
//! | `/healthz` | GET | liveness |
//! | `/eval` | GET query / POST JSON | one prediction point |
//! | `/sweep?app=<app>` | GET | a full Table 3–6 row set |
//! | `/metrics` | GET | meters, cache, queue, connections, latency |
//! | `/shutdown` | POST/GET | graceful stop |
//! | `/debug/sleep?ms=N` | GET | a deliberately slow request (tests) |
//! | `/cache/export` | POST | read cache entries for handoff (cluster) |
//! | `/cache/import` | POST | install cache entries from a handoff |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hec_core::json::Json;
use hec_core::pool::{QueueGauge, Threads, WorkerPool};

use crate::batch::Batcher;
use crate::cache::ShardedLru;
use crate::engine::{self, AppId, Cell};
use crate::metrics::Histogram;
use crate::reactor::{self, CoreConfig, CoreEvents, NetStats, ShutdownFlag};
use crate::request::{parse_query, Point};

pub use crate::reactor::Request;

/// Largest request head+body the server reads; larger requests get 400.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;
/// `Retry-After` seconds advertised on queue-full 503s.
pub const RETRY_AFTER_SECS: u64 = 1;
/// Upper bound on `/debug/sleep` (keeps tests honest and ops safe).
pub const MAX_DEBUG_SLEEP_MS: u64 = 10_000;

/// Server tuning. `Default` reads the environment.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Worker threads (default: the `HEC_THREADS` policy).
    pub workers: usize,
    /// Admission-queue bound (requests waiting for a worker).
    pub queue: usize,
    /// Point-cache capacity (entries).
    pub cache_capacity: usize,
}

impl ServeConfig {
    /// Configuration from the environment: `HEC_SERVE_WORKERS`,
    /// `HEC_SERVE_QUEUE`, `HEC_SERVE_CACHE` override the defaults;
    /// workers default to the `HEC_THREADS` policy
    /// ([`Threads::from_env`]).
    pub fn from_env(port: u16) -> ServeConfig {
        let get = |name: &str, default: usize| -> usize {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&v| v > 0)
                .unwrap_or(default)
        };
        ServeConfig {
            port,
            workers: get("HEC_SERVE_WORKERS", Threads::from_env().workers().max(2)),
            queue: get("HEC_SERVE_QUEUE", 64),
            cache_capacity: get("HEC_SERVE_CACHE", 4096),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::from_env(0)
    }
}

/// Shared service state: cache, batcher, counters, histograms.
pub struct ServeState {
    pub(crate) cache: ShardedLru,
    batcher: Batcher,
    queue: QueueGauge,
    stop: Arc<ShutdownFlag>,
    net: Arc<NetStats>,
    started: Instant,
    requests: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    lat_eval: Histogram,
    lat_sweep: Histogram,
    lat_other: Histogram,
}

impl ServeState {
    /// Evaluates one canonical point through cache and batcher. The
    /// cached and uncached paths return the same value, and responses
    /// are always emitted from the value — bitwise-equal bodies.
    fn eval_point(&self, point: &Point) -> Option<Cell> {
        if let Some(cached) = self.cache.get(&point.canonical_key()) {
            return cached;
        }
        let cell = self.batcher.eval(point);
        self.cache.put(point.canonical_key(), cell);
        cell
    }

    /// The `/metrics` document: this server's request and batch counters,
    /// cache/queue/connection state, and per-endpoint latency histograms.
    /// Every number describes this server alone, also when several run in
    /// one process.
    fn metrics_doc(&self) -> Json {
        let [requests, errors, rejected] = [&self.requests, &self.errors, &self.rejected]
            .map(|c| c.load(Ordering::Relaxed) as f64);
        let batch = self.batcher.counts();
        // `meters` keeps its six keys in name order: the benchmark's trace
        // replay reads `meters.serve.batch.*`.
        let meters = Json::obj([
            ("serve.batch.batches", Json::Num(batch.batches as f64)),
            ("serve.batch.coalesced", Json::Num(batch.coalesced as f64)),
            ("serve.batch.points", Json::Num(batch.points as f64)),
            ("serve.errors", Json::Num(errors)),
            ("serve.rejected", Json::Num(rejected)),
            ("serve.requests", Json::Num(requests)),
        ]);
        let hist = |h: &Histogram| {
            Json::obj([
                ("count", Json::Num(h.count() as f64)),
                ("sum_us", Json::Num(h.sum_us() as f64)),
                ("p50_us", Json::Num(h.quantile_us(0.50) as f64)),
                ("p95_us", Json::Num(h.quantile_us(0.95) as f64)),
                ("p99_us", Json::Num(h.quantile_us(0.99) as f64)),
                (
                    "buckets",
                    Json::Arr(
                        h.nonzero_buckets()
                            .into_iter()
                            .map(|(le, c)| {
                                Json::obj([
                                    ("le_us", Json::Num(le as f64)),
                                    ("count", Json::Num(c as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        Json::obj([
            ("uptime_secs", Json::Num(self.started.elapsed().as_secs_f64())),
            ("requests", Json::Num(requests)),
            ("errors", Json::Num(errors)),
            ("rejected", Json::Num(rejected)),
            ("connections", connections_doc(&self.net)),
            ("reactor", reactor_doc(&self.net)),
            (
                "cache",
                Json::obj([
                    ("hits", Json::Num(self.cache.hits() as f64)),
                    ("misses", Json::Num(self.cache.misses() as f64)),
                    ("evictions", Json::Num(self.cache.evictions() as f64)),
                    ("entries", Json::Num(self.cache.len() as f64)),
                    (
                        "shards",
                        Json::Arr(
                            self.cache
                                .shard_stats()
                                .into_iter()
                                .map(|s| {
                                    Json::obj([
                                        ("hits", Json::Num(s.hits as f64)),
                                        ("misses", Json::Num(s.misses as f64)),
                                        ("evictions", Json::Num(s.evictions as f64)),
                                        ("entries", Json::Num(s.entries as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "queue",
                Json::obj([
                    ("depth", Json::Num(self.queue.len() as f64)),
                    ("capacity", Json::Num(self.queue.capacity() as f64)),
                ]),
            ),
            (
                "latency",
                Json::obj([
                    ("eval", hist(&self.lat_eval)),
                    ("sweep", hist(&self.lat_sweep)),
                    ("other", hist(&self.lat_other)),
                ]),
            ),
            ("meters", meters),
        ])
    }
}

/// The `connections` section shared by server and router `/metrics`.
/// `open` excludes the connection carrying the observation itself (see
/// [`NetStats::open_excluding_observer`]), so a drained service reads 0.
pub fn connections_doc(net: &NetStats) -> Json {
    Json::obj([
        ("open", Json::Num(net.open_excluding_observer() as f64)),
        ("accepted", Json::Num(net.accepted() as f64)),
        ("max_open", Json::Num(net.max_open() as f64)),
        ("keepalive_requests", Json::Num(net.keepalive_requests() as f64)),
    ])
}

/// The `reactor` section shared by server and router `/metrics`.
pub fn reactor_doc(net: &NetStats) -> Json {
    Json::obj([
        ("iterations", Json::Num(net.iterations() as f64)),
        ("requests_parsed", Json::Num(net.requests() as f64)),
    ])
}

/// Renders one evaluated point as the `/eval` response document.
/// Public so tests and the CLI can build the expected bytes in-process.
pub fn point_doc(point: &Point, cell: Option<Cell>) -> Json {
    let mut fields = vec![
        ("app".to_string(), Json::Str(point.app.name().to_string())),
        ("platform".to_string(), Json::Str(point.sel.label().to_string())),
        ("procs".to_string(), Json::Num(point.spec.procs as f64)),
    ];
    if let Some(pz) = point.spec.pz {
        fields.push(("pz".to_string(), Json::Num(pz as f64)));
    }
    if let Some(n) = point.spec.n {
        fields.push(("n".to_string(), Json::Num(n as f64)));
    }
    fields.push(("feasible".to_string(), Json::Bool(cell.is_some())));
    if let Some(c) = cell {
        fields.push(("gflops_per_proc".to_string(), Json::Num(c.gflops)));
        fields.push(("percent_of_peak".to_string(), Json::Num(c.pct_peak)));
        fields.push(("step_secs".to_string(), Json::Num(c.step_secs)));
    }
    Json::Obj(fields)
}

/// The exact `/eval` response body for `point` — the service's
/// determinism contract is that the wire bytes equal this string.
pub fn point_response_body(point: &Point, cell: Option<Cell>) -> String {
    point_doc(point, cell).emit_pretty()
}

/// Renders a full sweep for `app` from per-point cells supplied by
/// `eval` (the server passes its cached path; tests pass direct
/// evaluation — the bodies must agree bitwise).
pub fn sweep_doc(app: AppId, mut eval: impl FnMut(&Point) -> Option<Cell>) -> Json {
    let rows: Vec<Json> = engine::row_specs(app)
        .into_iter()
        .map(|rs| {
            let cells: Vec<Json> = rs
                .columns
                .iter()
                .map(|col| match col {
                    None => Json::Null,
                    Some(sel) => {
                        let point = Point { app, sel: *sel, spec: rs.spec };
                        let cell = eval(&point);
                        let mut f = vec![
                            ("platform".to_string(), Json::Str(sel.label().to_string())),
                            ("feasible".to_string(), Json::Bool(cell.is_some())),
                        ];
                        if let Some(c) = cell {
                            f.push(("gflops_per_proc".to_string(), Json::Num(c.gflops)));
                            f.push(("percent_of_peak".to_string(), Json::Num(c.pct_peak)));
                            f.push(("step_secs".to_string(), Json::Num(c.step_secs)));
                        }
                        Json::Obj(f)
                    }
                })
                .collect();
            let mut f = vec![
                ("procs".to_string(), Json::Num(rs.procs as f64)),
                ("label".to_string(), Json::Str(rs.label)),
            ];
            if let Some(pz) = rs.spec.pz {
                f.push(("pz".to_string(), Json::Num(pz as f64)));
            }
            if let Some(n) = rs.spec.n {
                f.push(("n".to_string(), Json::Num(n as f64)));
            }
            f.push(("cells".to_string(), Json::Arr(cells)));
            Json::Obj(f)
        })
        .collect();
    Json::obj([("app", Json::Str(app.name().to_string())), ("rows", Json::Arr(rows))])
}

/// The exact `/sweep` response body for `app` under `eval`.
pub fn sweep_response_body(app: AppId, eval: impl FnMut(&Point) -> Option<Cell>) -> String {
    sweep_doc(app, eval).emit_pretty()
}

/// Canonical reason phrase for the status codes this dialect uses.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// The standard one-field error document.
pub fn error_body(msg: &str) -> String {
    Json::obj([("error", Json::Str(msg.to_string()))]).emit_pretty()
}

/// One cache entry as wire JSON. Values are the evaluation result, not
/// formatted bytes — `Json::Num` emits shortest-round-trip floats, so an
/// export/import round trip reinstalls bit-identical `Cell`s and the
/// determinism contract survives a handoff.
fn cache_entry_doc(key: &str, val: Option<Cell>) -> Json {
    let mut f = vec![
        ("key".to_string(), Json::Str(key.to_string())),
        ("feasible".to_string(), Json::Bool(val.is_some())),
    ];
    if let Some(c) = val {
        f.push(("gflops".to_string(), Json::Num(c.gflops)));
        f.push(("pct_peak".to_string(), Json::Num(c.pct_peak)));
        f.push(("step_secs".to_string(), Json::Num(c.step_secs)));
    }
    Json::Obj(f)
}

/// `POST /cache/export` — body `{"keys": [...]}`; answers the resident
/// subset as `{"entries": [...]}`. Reads via [`ShardedLru::peek`], so
/// exports neither promote entries nor distort hit/miss stats. Keys not
/// cached here are simply absent (the importer re-primes them instead).
fn cache_export(body: &str, state: &Arc<ServeState>) -> (u16, String) {
    let doc = match Json::parse(body) {
        Ok(d) => d,
        Err(e) => return (400, error_body(&format!("bad export body: {e}"))),
    };
    let Some(keys) = doc.get("keys").and_then(|k| k.as_arr()) else {
        return (400, error_body("export needs keys: [\"...\"]"));
    };
    let mut entries = Vec::new();
    for k in keys {
        let Some(key) = k.as_str() else {
            return (400, error_body("export keys must be strings"));
        };
        if let Some(val) = state.cache.peek(key) {
            entries.push(cache_entry_doc(key, val));
        }
    }
    (200, Json::obj([("entries", Json::Arr(entries))]).emit_pretty())
}

/// `POST /cache/import` — body `{"entries": [...]}` in the export
/// format; installs each entry into this server's cache (cache warming
/// during a ring handoff). Answers `{"imported": n}`.
fn cache_import(body: &str, state: &Arc<ServeState>) -> (u16, String) {
    let doc = match Json::parse(body) {
        Ok(d) => d,
        Err(e) => return (400, error_body(&format!("bad import body: {e}"))),
    };
    let Some(entries) = doc.get("entries").and_then(|e| e.as_arr()) else {
        return (400, error_body("import needs entries: [...]"));
    };
    let mut imported = 0u64;
    for e in entries {
        let (Some(key), Some(feasible)) =
            (e.get("key").and_then(|k| k.as_str()), e.get("feasible").and_then(|f| f.as_bool()))
        else {
            return (400, error_body("each entry needs key and feasible"));
        };
        let val = if feasible {
            let nums =
                ["gflops", "pct_peak", "step_secs"].map(|f| e.get(f).and_then(|v| v.as_f64()));
            let [Some(gflops), Some(pct_peak), Some(step_secs)] = nums else {
                return (400, error_body("feasible entries need gflops, pct_peak, step_secs"));
            };
            Some(Cell { gflops, pct_peak, step_secs })
        } else {
            None
        };
        state.cache.put(key.to_string(), val);
        imported += 1;
    }
    (200, Json::obj([("imported", Json::Num(imported as f64))]).emit_pretty())
}

fn route(req: &Request, state: &Arc<ServeState>) -> (u16, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (200, Json::obj([("ok", Json::Bool(true))]).emit_pretty()),
        ("GET", "/eval") => match Point::from_query(&req.query) {
            Ok(p) => (200, point_response_body(&p, state.eval_point(&p))),
            Err(e) => (400, error_body(&e.0)),
        },
        ("POST", "/eval") => match Point::from_json_text(&req.body) {
            Ok(p) => (200, point_response_body(&p, state.eval_point(&p))),
            Err(e) => (400, error_body(&e.0)),
        },
        ("GET", "/sweep") => {
            let app = parse_query(&req.query)
                .into_iter()
                .find(|(k, _)| k == "app")
                .and_then(|(_, v)| AppId::parse(&v));
            match app {
                Some(app) => (200, sweep_response_body(app, |p| state.eval_point(p))),
                None => (400, error_body("sweep needs app=fvcam|gtc|lbmhd|paratec")),
            }
        }
        ("GET", "/metrics") => (200, state.metrics_doc().emit_pretty()),
        ("POST", "/cache/export") => cache_export(&req.body, state),
        ("POST", "/cache/import") => cache_import(&req.body, state),
        ("GET" | "POST", "/shutdown") => {
            state.stop.trigger();
            (200, Json::obj([("stopping", Json::Bool(true))]).emit_pretty())
        }
        ("GET", "/debug/sleep") => {
            let ms: u64 = parse_query(&req.query)
                .into_iter()
                .find(|(k, _)| k == "ms")
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0);
            let ms = ms.min(MAX_DEBUG_SLEEP_MS);
            std::thread::sleep(std::time::Duration::from_millis(ms));
            (200, Json::obj([("slept_ms", Json::Num(ms as f64))]).emit_pretty())
        }
        (
            _,
            "/eval" | "/sweep" | "/metrics" | "/healthz" | "/shutdown" | "/debug/sleep"
            | "/cache/export" | "/cache/import",
        ) => (405, error_body("method not allowed")),
        _ => (404, error_body("no such endpoint")),
    }
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

/// Maps the reactor's admission outcomes onto the server's counters, matching
/// the blocking-era accounting: a rejection or parse failure still
/// counts as a request and an error.
struct ServeEvents(Arc<ServeState>);

impl CoreEvents for ServeEvents {
    fn on_request(&self) {
        self.0.requests.fetch_add(1, Ordering::Relaxed);
    }
    fn on_reject(&self) {
        for c in [&self.0.rejected, &self.0.errors] {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn on_bad_request(&self) {
        for c in [&self.0.requests, &self.0.errors] {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running server; dropping it does *not* stop it — call
/// [`Server::shutdown`] then [`Server::join`].
pub struct Server {
    pub(crate) state: Arc<ServeState>,
    core: reactor::Core,
}

impl Server {
    /// The bound address (`127.0.0.1` with the actual port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.core.addr()
    }

    /// Requests a graceful stop: no new admissions; dispatched requests
    /// complete and their responses flush. Safe to call more than once.
    pub fn shutdown(&self) {
        self.state.stop.trigger();
    }

    /// Waits for the reactor (and so the drained worker pool) to exit.
    pub fn join(self) {
        self.core.join();
    }

    /// True once a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.state.stop.stopping()
    }

    /// The reactor's connection counters. The handle stays valid after
    /// [`Server::join`], which is the point: a cluster retiring a
    /// replica joins the drained server, then reads `open()` to record
    /// how many connections were still live (a graceful drain reads 0).
    pub fn net_stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.state.net)
    }
}

/// Starts a server on `127.0.0.1:cfg.port`. Returns once the socket is
/// bound and accepting; the reactor and its workers run until a
/// shutdown is requested.
pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
    let pool = WorkerPool::new(Threads::new(cfg.workers), cfg.queue);
    let stop = Arc::new(ShutdownFlag::new());
    let net = Arc::new(NetStats::new());
    let state = Arc::new(ServeState {
        cache: ShardedLru::new(cfg.cache_capacity),
        batcher: Batcher::new(),
        queue: pool.queue_gauge(),
        stop: Arc::clone(&stop),
        net: Arc::clone(&net),
        started: Instant::now(),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        lat_eval: Histogram::new(),
        lat_sweep: Histogram::new(),
        lat_other: Histogram::new(),
    });
    let handler_state = Arc::clone(&state);
    let handler: Arc<reactor::Handler> = Arc::new(move |req: &Request, t0: Instant| {
        let (code, body) = route(req, &handler_state);
        if code >= 400 {
            handler_state.errors.fetch_add(1, Ordering::Relaxed);
        }
        // t0 is the parse instant, so queue wait is part of the latency.
        match req.path.as_str() {
            "/eval" => handler_state.lat_eval.record(t0.elapsed()),
            "/sweep" => handler_state.lat_sweep.record(t0.elapsed()),
            _ => handler_state.lat_other.record(t0.elapsed()),
        }
        (code, Vec::new(), body)
    });
    let events = Arc::new(ServeEvents(Arc::clone(&state)));
    let core = reactor::start_core(
        CoreConfig { port: cfg.port, reject_body: error_body("admission queue full; retry") },
        pool,
        net,
        events,
        stop,
        handler,
        None,
    )?;
    Ok(Server { state, core })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::engine::{PlatformSel, PointSpec};
    use hec_arch::PlatformId;

    fn test_server() -> Server {
        start(ServeConfig { port: 0, workers: 2, queue: 8, cache_capacity: 256 }).unwrap()
    }

    #[test]
    fn healthz_and_404_and_405() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        let ok = client::http_get(&format!("{base}/healthz")).unwrap();
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, "{\n  \"ok\": true\n}\n");
        assert_eq!(client::http_get(&format!("{base}/nope")).unwrap().status, 404);
        assert_eq!(client::http_post(&format!("{base}/metrics"), "").unwrap().status, 405);
        s.shutdown();
        s.join();
    }

    #[test]
    fn eval_get_and_post_agree_with_in_process_bytes() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        let point = Point {
            app: AppId::Gtc,
            sel: PlatformSel::Direct(PlatformId::X1Msp),
            spec: PointSpec::procs(256),
        };
        let want = point_response_body(&point, point.eval());
        let got =
            client::http_get(&format!("{base}/eval?app=gtc&platform=x1msp&procs=256")).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body, want, "served bytes must equal in-process bytes");
        let post = client::http_post(
            &format!("{base}/eval"),
            r#"{"app":"GTC","platform":"X1 (MSP)","procs":256}"#,
        )
        .unwrap();
        assert_eq!(post.status, 200);
        assert_eq!(post.body, want, "POST spelling must canonicalize to the same bytes");
        s.shutdown();
        s.join();
    }

    #[test]
    fn bad_requests_get_400_with_an_error_field() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        for q in ["app=gtc", "app=gtc&platform=t3e&procs=64", "app=gtc&platform=es&procs=64&x=1"] {
            let r = client::http_get(&format!("{base}/eval?{q}")).unwrap();
            assert_eq!(r.status, 400, "{q}");
            assert!(Json::parse(&r.body).unwrap().get("error").is_some(), "{q}");
        }
        let r = client::http_post(&format!("{base}/eval"), "{{{{").unwrap();
        assert_eq!(r.status, 400);
        s.shutdown();
        s.join();
    }

    #[test]
    fn repeated_requests_hit_the_cache_and_bodies_stay_bitwise_equal() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        let url = format!("{base}/eval?app=lbmhd&platform=es&procs=64");
        let first = client::http_get(&url).unwrap();
        let hits_after_first = s.state.cache.hits();
        let second = client::http_get(&url).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body, "cached response must be bitwise equal");
        assert!(s.state.cache.hits() > hits_after_first, "second request must hit");
        s.shutdown();
        s.join();
    }

    #[test]
    fn metrics_reports_cache_queue_connections_and_latency() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        let _ = client::http_get(&format!("{base}/eval?app=paratec&platform=sx8&procs=128"));
        let m = client::http_get(&format!("{base}/metrics")).unwrap();
        assert_eq!(m.status, 200);
        let doc = Json::parse(&m.body).unwrap();
        assert!(doc.get("cache").and_then(|c| c.get("misses")).is_some());
        assert!(doc.get("cache").and_then(|c| c.get("evictions")).is_some());
        let shards = doc.get("cache").and_then(|c| c.get("shards")).and_then(|s| s.as_arr());
        assert_eq!(shards.map(|s| s.len()), Some(crate::cache::SHARDS));
        assert!(doc.get("queue").and_then(|q| q.get("capacity")).is_some());
        assert!(doc.get("latency").and_then(|l| l.get("eval")).is_some());
        assert!(doc.get("meters").is_some());
        let conns = doc.get("connections").expect("connections section");
        assert!(conns.get("accepted").unwrap().as_f64().unwrap() >= 1.0);
        assert!(doc.get("reactor").and_then(|r| r.get("iterations")).is_some());
        s.shutdown();
        s.join();
    }

    #[test]
    fn each_server_counts_only_its_own_requests() {
        let (a, b) = (test_server(), test_server());
        for (s, n) in [(&a, 3), (&b, 5)] {
            for _ in 0..n {
                let url = format!("http://{}/eval?app=gtc&platform=es&procs=64", s.addr());
                assert_eq!(client::http_get(&url).unwrap().status, 200);
            }
        }
        for (s, n) in [(&a, 3.0), (&b, 5.0)] {
            let m = client::http_get(&format!("http://{}/metrics", s.addr())).unwrap();
            let doc = Json::parse(&m.body).unwrap();
            // The `/metrics` read is itself a request of this server.
            let want = Some(n + 1.0);
            assert_eq!(doc.get("requests").and_then(|v| v.as_f64()), want, "top-level");
            let meter = doc.get("meters").and_then(|m| m.get("serve.requests"));
            assert_eq!(meter.and_then(|v| v.as_f64()), want, "meters.serve.requests");
        }
        for s in [a, b] {
            s.shutdown();
            s.join();
        }
    }

    #[test]
    fn cache_export_import_round_trips_entries_bit_exactly() {
        let a = test_server();
        let b = test_server();
        let base_a = format!("http://{}", a.addr());
        let base_b = format!("http://{}", b.addr());
        // Prime one feasible and one infeasible entry on A.
        let ok = client::http_get(&format!("{base_a}/eval?app=gtc&platform=es&procs=64")).unwrap();
        assert_eq!(ok.status, 200);
        let infeasible =
            client::http_get(&format!("{base_a}/eval?app=gtc&platform=x1msp&procs=2048")).unwrap();
        assert_eq!(infeasible.status, 200);
        let keys: Vec<String> = [
            Point::from_query("app=gtc&platform=es&procs=64").unwrap(),
            Point::from_query("app=gtc&platform=x1msp&procs=2048").unwrap(),
        ]
        .iter()
        .map(|p| format!("{:?}", p.canonical_key()))
        .collect();
        let exported = client::http_post(
            &format!("{base_a}/cache/export"),
            &format!("{{\"keys\": [{}] }}", keys.join(", ")),
        )
        .unwrap();
        assert_eq!(exported.status, 200);
        let doc = Json::parse(&exported.body).unwrap();
        let entries = doc.get("entries").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(entries.len(), 2);
        let imported =
            client::http_post(&format!("{base_b}/cache/import"), &exported.body).unwrap();
        assert_eq!(imported.status, 200);
        assert!(imported.body.contains("\"imported\": 2"));
        // B must now answer both points from cache with A's exact bytes.
        let misses_before = b.state.cache.misses();
        let ok_b =
            client::http_get(&format!("{base_b}/eval?app=gtc&platform=es&procs=64")).unwrap();
        assert_eq!(ok_b.body, ok.body, "imported entry must reproduce the exact bytes");
        let inf_b =
            client::http_get(&format!("{base_b}/eval?app=gtc&platform=x1msp&procs=2048")).unwrap();
        assert_eq!(inf_b.body, infeasible.body);
        assert_eq!(b.state.cache.misses(), misses_before, "both answers must come from cache");
        for s in [a, b] {
            s.shutdown();
            s.join();
        }
    }

    #[test]
    fn cache_export_skips_absent_keys_and_rejects_bad_bodies() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        let r =
            client::http_post(&format!("{base}/cache/export"), r#"{"keys": ["nope"]}"#).unwrap();
        assert_eq!(r.status, 200);
        let doc = Json::parse(&r.body).unwrap();
        assert_eq!(doc.get("entries").and_then(|e| e.as_arr()).map(|e| e.len()), Some(0));
        for (path, body) in [
            ("/cache/export", "{{{"),
            ("/cache/export", r#"{"nope": 1}"#),
            ("/cache/export", r#"{"keys": [1]}"#),
            ("/cache/import", "{{{"),
            ("/cache/import", r#"{"entries": [{"key": "k"}]}"#),
            ("/cache/import", r#"{"entries": [{"key": "k", "feasible": true}]}"#),
        ] {
            let r = client::http_post(&format!("{base}{path}"), body).unwrap();
            assert_eq!(r.status, 400, "{path} {body}");
        }
        assert_eq!(client::http_get(&format!("{base}/cache/export")).unwrap().status, 405);
        s.shutdown();
        s.join();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let s = test_server();
        let base = format!("http://{}", s.addr());
        let r = client::http_post(&format!("{base}/shutdown"), "").unwrap();
        assert_eq!(r.status, 200);
        assert!(s.stopping());
        s.join();
    }
}
