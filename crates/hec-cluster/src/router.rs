//! The routing tier: one frontend URL over N `hec-serve` replicas.
//!
//! The router owns the replica set, the consistent-hash ring, the
//! health state, and the fault plan. Every routable request (anything
//! that is not a router-local endpoint) is admitted, assigned the next
//! admitted-request index (which is what fault events key on), mapped to
//! its canonical ring key, and forwarded to the key's first *live* ring
//! owner. A transport failure marks the replica down reactively, counts
//! a failover, and moves to the next owner; a `503` from an overloaded
//! replica fails over the same way (the response is kept as a fallback
//! if every owner is shedding). When a whole pass over the owners
//! yields nothing, the seeded backoff paces another pass — a replica
//! mid-restart comes back within a retry or two — and only an exhausted
//! budget turns into the router's own `503 + Retry-After`.
//!
//! This owner-pass backoff is the serving stack's only retry layer:
//! clients send each request once ([`hec_serve::client`] has no retry
//! policy), so a router `503` reaches the caller as is.
//!
//! Because every replica evaluates the same deterministic engine, the
//! relayed body is byte-identical no matter which owner answered or
//! which replica died mid-run: the failover path is invisible in the
//! response bytes, and `tests/cluster_e2e.rs` holds the router to
//! exactly that.
//!
//! Router-local protocol surface (everything else is forwarded):
//!
//! | endpoint | method | purpose |
//! |---|---|---|
//! | `/healthz` | GET | router liveness |
//! | `/metrics` | GET | ring/replica/failover/fault counters |
//! | `/shutdown` | POST/GET | graceful stop of router *and* replicas |
//! | `/admin/kill?replica=i` | POST/GET | kill one replica |
//! | `/admin/restart?replica=i` | POST/GET | restart one replica |
//! | `/admin/scale-up` | POST/GET | add a replica (next epoch) |
//! | `/admin/drain/<i>` | POST/GET | drain replica `i` out of the ring |
//!
//! Membership is versioned ([`crate::membership`]): the router reads
//! the current epoch's ring per owner pass, so a scale-up or drain
//! lands between passes, never mid-pass, and the epoch flip itself is
//! one Arc swap.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hec_core::json::Json;
use hec_core::pool::{QueueGauge, Threads, WorkerPool};
use hec_core::retry::Backoff;
use hec_core::sync::Mutex;
use hec_serve::client;
use hec_serve::metrics::Histogram;
use hec_serve::reactor::{self, CoreConfig, CoreEvents, NetStats, ShutdownFlag};
use hec_serve::request::{parse_query, Point};
use hec_serve::server::{
    connections_doc, error_body, reactor_doc, Request, ServeConfig, RETRY_AFTER_SECS,
};

use crate::faults::{FaultKind, FaultPlan};
use crate::health::{self, Health, HealthConfig};
use crate::membership::{AutoscaleConfig, Drain, Elasticity, ScaleUp};
use crate::replica::ReplicaSet;
use crate::ring::{Ring, DEFAULT_VNODES};

/// Default replication factor R (each key has R owners on the ring).
pub const DEFAULT_REPLICATION: usize = 2;

/// Pacing of the router's owner passes: after a pass over a key's
/// owners yields no answer, a seeded [`Backoff`] delay precedes the
/// next pass, up to `max_retries` extra passes.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// First backoff delay, milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub cap_ms: u64,
    /// Owner passes after the first one.
    pub max_retries: u32,
    /// Per-forward socket timeout.
    pub timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { base_ms: 20, cap_ms: 250, max_retries: 4, timeout: client::DEFAULT_TIMEOUT }
    }
}

/// Cluster tuning. `Default` is a 3-replica, R=2 ring.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of replicas to stand up.
    pub replicas: usize,
    /// Router port on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Virtual nodes per replica on the ring.
    pub vnodes: usize,
    /// Owners per key (replication factor R).
    pub replication: usize,
    /// Router worker threads.
    pub workers: usize,
    /// Router admission-queue bound.
    pub queue: usize,
    /// Template for each replica's own `hec-serve` config.
    pub replica: ServeConfig,
    /// Health-checker cadence and probe timeout.
    pub health: HealthConfig,
    /// Owner-pass retry pacing (seeded backoff) and forward timeout.
    pub retry: RetryPolicy,
    /// Seed for the retry-jitter streams (combined with the request
    /// index, so each request has its own deterministic stream).
    pub seed: u64,
    /// The fault plan to inject (empty for production-shaped runs).
    pub faults: FaultPlan,
    /// Autoscaler policy; `None` leaves membership purely manual.
    pub autoscale: Option<AutoscaleConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 3,
            port: 0,
            vnodes: DEFAULT_VNODES,
            replication: DEFAULT_REPLICATION,
            workers: Threads::from_env().workers().max(2),
            queue: 64,
            replica: ServeConfig::from_env(0),
            health: HealthConfig::default(),
            retry: RetryPolicy::default(),
            seed: 0x5ec1a,
            faults: FaultPlan::none(),
            autoscale: None,
        }
    }
}

impl ClusterConfig {
    /// Configuration from the environment: `HEC_CLUSTER_VNODES`,
    /// `HEC_CLUSTER_REPLICATION`, `HEC_CLUSTER_WORKERS`,
    /// and `HEC_CLUSTER_QUEUE` override the defaults; the per-replica
    /// template reads the `HEC_SERVE_*` knobs.
    pub fn from_env(replicas: usize, port: u16) -> ClusterConfig {
        let get = |name: &str, default: usize| -> usize {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&v| v > 0)
                .unwrap_or(default)
        };
        ClusterConfig {
            replicas: replicas.max(1),
            port,
            vnodes: get("HEC_CLUSTER_VNODES", DEFAULT_VNODES),
            replication: get("HEC_CLUSTER_REPLICATION", DEFAULT_REPLICATION),
            workers: get("HEC_CLUSTER_WORKERS", Threads::from_env().workers().max(2)),
            queue: get("HEC_CLUSTER_QUEUE", 64),
            ..ClusterConfig::default()
        }
    }
}

struct RouterState {
    elasticity: Arc<Elasticity>,
    replicas: Arc<ReplicaSet>,
    health: Arc<Health>,
    faults: Mutex<FaultPlan>,
    planned_faults: usize,
    retry: RetryPolicy,
    seed: u64,
    started: Instant,
    stop: Arc<ShutdownFlag>,
    net: Arc<NetStats>,
    queue: QueueGauge,
    /// Admitted routable requests — the fault-plan clock.
    admitted: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    failovers: AtomicU64,
    retries: AtomicU64,
    faults_injected: AtomicU64,
    lat_route: Histogram,
    lat_local: Histogram,
}

impl RouterState {
    /// The ring key for a request: canonical point key for `/eval`,
    /// `sweep|app` for `/sweep`, the raw target otherwise. Malformed
    /// requests keep a deterministic (raw) key and are forwarded anyway,
    /// so even error bodies stay byte-identical to a single replica's.
    fn ring_key(&self, req: &Request) -> String {
        match req.path.as_str() {
            "/eval" => {
                let parsed = match req.method.as_str() {
                    "POST" => Point::from_json_text(&req.body),
                    _ => Point::from_query(&req.query),
                };
                match parsed {
                    Ok(p) => p.canonical_key(),
                    Err(_) => req.target(),
                }
            }
            "/sweep" => {
                let app = parse_query(&req.query)
                    .into_iter()
                    .find(|(k, _)| k == "app")
                    .map(|(_, v)| v.to_ascii_lowercase())
                    .unwrap_or_default();
                format!("sweep|{app}")
            }
            _ => req.target(),
        }
    }

    /// Candidate replicas for a key on `ring`: the owners, live ones
    /// first, preference order preserved within each group.
    fn candidates(&self, ring: &Ring, key: &str) -> Vec<usize> {
        let owners = ring.owners(key);
        let (up, down): (Vec<usize>, Vec<usize>) =
            owners.into_iter().partition(|&r| self.health.is_up(r));
        up.into_iter().chain(down).collect()
    }

    /// Fires every fault event scheduled for request `index`. Returns
    /// `(replicas to drop-connect on, reply delay)`.
    fn inject_faults(&self, index: u64) -> (Vec<usize>, Option<Duration>) {
        let fired = self.faults.lock().take_at(index);
        let mut drops = Vec::new();
        let mut slow: Option<Duration> = None;
        for ev in fired {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
            match ev.kind {
                FaultKind::Kill => {
                    self.replicas.kill(ev.replica);
                    self.health.mark(ev.replica, false);
                }
                FaultKind::StallMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
                FaultKind::DropConn => drops.push(ev.replica),
                FaultKind::SlowReplyMs(ms) => {
                    let d = Duration::from_millis(ms);
                    slow = Some(slow.map_or(d, |s| s.max(d)));
                }
                // Membership churn pinned to the admitted clock: the
                // epoch flips before this request's first owner pass.
                FaultKind::AddAt => {
                    let _ = self.elasticity.scale_up();
                }
                FaultKind::DrainAt => {
                    let _ = self.elasticity.drain(ev.replica);
                }
            }
        }
        (drops, slow)
    }

    /// One forward attempt to replica `r`. `Err` means transport-level
    /// failure (connection refused/dropped/timed out).
    fn attempt(&self, r: usize, req: &Request) -> std::io::Result<client::Response> {
        let addr = self.replicas.addr(r).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, format!("replica {r} is down"))
        })?;
        let url = format!("http://{addr}{}", req.target());
        match req.method.as_str() {
            "POST" => client::http_post_timeout(&url, &req.body, self.retry.timeout),
            _ => client::http_get_timeout(&url, self.retry.timeout),
        }
    }

    /// Routes one admitted request: fault injection, owner selection,
    /// failover, retry rounds. Returns `(status, extra headers, body)`.
    fn forward(&self, req: &Request) -> (u16, Vec<String>, String) {
        let index = self.admitted.fetch_add(1, Ordering::SeqCst);
        let (mut drops, slow_reply) = self.inject_faults(index);
        let key = self.ring_key(req);
        self.elasticity.track(&key, &req.target());
        self.elasticity.autoscale_tick(index, self.queue.len(), &self.lat_route);
        let mut backoff = Backoff::new(
            self.seed ^ index,
            self.retry.base_ms,
            self.retry.cap_ms,
            self.retry.max_retries,
        );
        let mut shed: Option<client::Response> = None;
        let mut tried_any = false;

        // A failover is any request not answered by its key's primary
        // owner — whether the router actively switched after a failed
        // attempt or routed around a replica already marked down.
        let finish = |r: usize, resp: client::Response, failed_over: bool| {
            self.health.mark(r, true);
            self.elasticity.note_forward(r);
            if failed_over {
                self.failovers.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(d) = slow_reply {
                std::thread::sleep(d);
            }
            let extra: Vec<String> = resp
                .header("Retry-After")
                .map(|v| vec![format!("Retry-After: {v}")])
                .unwrap_or_default();
            (resp.status, extra, resp.body)
        };

        loop {
            // Re-read the epoch each pass: churn between passes (an
            // autoscale or an injected Add/Drain) re-routes the retry
            // to the key's *new* owners instead of a retired replica.
            let epoch = self.elasticity.membership.current();
            let primary = epoch.ring.primary(&key);
            let candidates = self.candidates(&epoch.ring, &key);

            for &r in &candidates {
                if let Some(pos) = drops.iter().position(|&d| d == r) {
                    // Injected connection drop: consume the event and
                    // treat this exactly like a transport failure.
                    drops.remove(pos);
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                    tried_any = true;
                    continue;
                }
                match self.attempt(r, req) {
                    Ok(resp) if resp.status == 503 => {
                        // Overloaded, not dead: keep it up, remember the
                        // shed response, try the next owner.
                        shed = Some(resp);
                        self.failovers.fetch_add(1, Ordering::Relaxed);
                        tried_any = true;
                    }
                    Ok(resp) => return finish(r, resp, tried_any || r != primary),
                    Err(_) => {
                        self.health.mark(r, false);
                        self.failovers.fetch_add(1, Ordering::Relaxed);
                        tried_any = true;
                    }
                }
            }

            match backoff.next_delay() {
                Some(d) => {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(d);
                }
                None => break,
            }
        }

        // Budget exhausted: relay the last shed 503 if one exists (its
        // bytes are a real replica's), else the router's own 503.
        match shed {
            Some(resp) => {
                let extra = resp
                    .header("Retry-After")
                    .map(|v| vec![format!("Retry-After: {v}")])
                    .unwrap_or_else(|| vec![format!("Retry-After: {RETRY_AFTER_SECS}")]);
                (resp.status, extra, resp.body)
            }
            None => (
                503,
                vec![format!("Retry-After: {RETRY_AFTER_SECS}")],
                error_body("no live owner for key; retry"),
            ),
        }
    }

    fn metrics_doc(&self) -> Json {
        let hist = |h: &Histogram| {
            Json::obj([
                ("count", Json::Num(h.count() as f64)),
                ("sum_us", Json::Num(h.sum_us() as f64)),
                ("p50_us", Json::Num(h.quantile_us(0.50) as f64)),
                ("p95_us", Json::Num(h.quantile_us(0.95) as f64)),
                ("p99_us", Json::Num(h.quantile_us(0.99) as f64)),
            ])
        };
        let epoch = self.elasticity.membership.current();
        // Only current members appear in `cluster.replicas`; drained
        // slots move to `cluster.retired` with their final connection
        // count, so the live table never grows stale rows.
        let replicas: Vec<Json> = epoch
            .members
            .iter()
            .map(|&i| {
                let addr = self
                    .replicas
                    .addr(i)
                    .or_else(|| self.replicas.last_addr(i))
                    .map(|a| a.to_string())
                    .unwrap_or_default();
                Json::obj([
                    ("index", Json::Num(i as f64)),
                    ("addr", Json::Str(addr)),
                    ("up", Json::Bool(self.health.is_up(i))),
                    ("down_transitions", Json::Num(self.health.down_transitions(i) as f64)),
                    ("up_transitions", Json::Num(self.health.up_transitions(i) as f64)),
                    ("forwarded", Json::Num(self.elasticity.forwarded(i) as f64)),
                ])
            })
            .collect();
        let retired: Vec<Json> = self
            .replicas
            .retired_ids()
            .into_iter()
            .map(|i| {
                Json::obj([
                    ("index", Json::Num(i as f64)),
                    (
                        "connections_open_after_drain",
                        Json::Num(self.replicas.final_open(i).unwrap_or(0) as f64),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("uptime_secs", Json::Num(self.started.elapsed().as_secs_f64())),
            ("requests", Json::Num(self.requests.load(Ordering::Relaxed) as f64)),
            ("admitted", Json::Num(self.admitted.load(Ordering::Relaxed) as f64)),
            ("errors", Json::Num(self.errors.load(Ordering::Relaxed) as f64)),
            ("rejected", Json::Num(self.rejected.load(Ordering::Relaxed) as f64)),
            ("failovers", Json::Num(self.failovers.load(Ordering::Relaxed) as f64)),
            ("retries", Json::Num(self.retries.load(Ordering::Relaxed) as f64)),
            ("connections", connections_doc(&self.net)),
            ("reactor", reactor_doc(&self.net)),
            (
                "cluster",
                Json::obj([
                    ("replication", Json::Num(epoch.ring.replication() as f64)),
                    ("epoch", Json::Num(epoch.version as f64)),
                    ("up", Json::Num(self.health.up_count() as f64)),
                    ("replicas", Json::Arr(replicas)),
                    ("retired", Json::Arr(retired)),
                ]),
            ),
            ("membership", self.elasticity.doc()),
            (
                "faults",
                Json::obj([
                    ("planned", Json::Num(self.planned_faults as f64)),
                    ("injected", Json::Num(self.faults_injected.load(Ordering::Relaxed) as f64)),
                    ("remaining", Json::Num(self.faults.lock().remaining() as f64)),
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
                Json::obj([("route", hist(&self.lat_route)), ("local", hist(&self.lat_local))]),
            ),
        ])
    }
}

fn admin_target(query: &str) -> Option<usize> {
    parse_query(query).into_iter().find(|(k, _)| k == "replica").and_then(|(_, v)| v.parse().ok())
}

fn scale_up_doc(up: &ScaleUp) -> String {
    Json::obj([
        ("added", Json::Num(up.added as f64)),
        ("addr", Json::Str(up.addr.to_string())),
        ("epoch", Json::Num(up.epoch as f64)),
        ("keys_moved", Json::Num(up.keys_moved as f64)),
        ("warm_hits", Json::Num(up.warm_hits as f64)),
    ])
    .emit_pretty()
}

fn drain_doc(i: usize, d: &Drain) -> String {
    Json::obj([
        ("drained", Json::Num(i as f64)),
        ("epoch", Json::Num(d.epoch as f64)),
        ("keys_moved", Json::Num(d.keys_moved as f64)),
        ("warm_hits", Json::Num(d.warm_hits as f64)),
        ("connections_open_after_drain", Json::Num(d.connections_open as f64)),
    ])
    .emit_pretty()
}

fn route(req: &Request, state: &Arc<RouterState>) -> (u16, Vec<String>, String, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            (200, vec![], Json::obj([("ok", Json::Bool(true))]).emit_pretty(), true)
        }
        ("GET", "/metrics") => (200, vec![], state.metrics_doc().emit_pretty(), true),
        ("GET" | "POST", "/shutdown") => {
            state.stop.trigger();
            (200, vec![], Json::obj([("stopping", Json::Bool(true))]).emit_pretty(), true)
        }
        ("GET" | "POST", "/admin/kill") => match admin_target(&req.query) {
            Some(i) if i < state.replicas.len() => {
                let was_up = state.replicas.kill(i);
                state.health.mark(i, false);
                (
                    200,
                    vec![],
                    Json::obj([("killed", Json::Num(i as f64)), ("was_up", Json::Bool(was_up))])
                        .emit_pretty(),
                    true,
                )
            }
            _ => (400, vec![], error_body("kill needs replica=<index>"), true),
        },
        ("GET" | "POST", "/admin/scale-up") => match state.elasticity.scale_up() {
            Ok(up) => (200, vec![], scale_up_doc(&up), true),
            Err(e) => (500, vec![], error_body(&format!("scale-up failed: {e}")), true),
        },
        (m, p) if p.starts_with("/admin/drain/") => {
            if !matches!(m, "GET" | "POST") {
                return (405, vec![], error_body("method not allowed"), true);
            }
            match p["/admin/drain/".len()..].parse::<usize>() {
                Err(_) => (400, vec![], error_body("drain needs /admin/drain/<index>"), true),
                Ok(i) => match state.elasticity.drain(i) {
                    Ok(d) => (200, vec![], drain_doc(i, &d), true),
                    Err(e) => (400, vec![], error_body(&format!("drain failed: {e}")), true),
                },
            }
        }
        ("GET" | "POST", "/admin/restart") => match admin_target(&req.query) {
            Some(i) if i < state.replicas.len() && state.replicas.is_retired(i) => {
                (400, vec![], error_body(&format!("replica {i} is retired")), true)
            }
            Some(i) if i < state.replicas.len() => match state.replicas.restart(i) {
                Ok(addr) => {
                    state.health.mark(i, true);
                    (
                        200,
                        vec![],
                        Json::obj([
                            ("restarted", Json::Num(i as f64)),
                            ("addr", Json::Str(addr.to_string())),
                        ])
                        .emit_pretty(),
                        true,
                    )
                }
                Err(e) => (500, vec![], error_body(&format!("restart failed: {e}")), true),
            },
            _ => (400, vec![], error_body("restart needs replica=<index>"), true),
        },
        (_, "/healthz" | "/metrics" | "/admin/kill" | "/admin/restart" | "/admin/scale-up") => {
            (405, vec![], error_body("method not allowed"), true)
        }
        _ => {
            let (status, extra, body) = state.forward(req);
            (status, extra, body, false)
        }
    }
}

/// Maps the reactor's admission outcomes onto the router counters,
/// matching the blocking-era accounting.
struct RouterEvents(Arc<RouterState>);

impl CoreEvents for RouterEvents {
    fn on_request(&self) {
        self.0.requests.fetch_add(1, Ordering::Relaxed);
    }
    fn on_reject(&self) {
        self.0.rejected.fetch_add(1, Ordering::Relaxed);
        self.0.errors.fetch_add(1, Ordering::Relaxed);
    }
    fn on_bad_request(&self) {
        self.0.requests.fetch_add(1, Ordering::Relaxed);
        self.0.errors.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

/// A running cluster: router frontend plus its replica set. Stop it
/// with [`Cluster::shutdown`] then [`Cluster::join`].
pub struct Cluster {
    state: Arc<RouterState>,
    core: reactor::Core,
    checker: std::thread::JoinHandle<()>,
}

impl Cluster {
    /// The router's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// Number of replica slots.
    pub fn replica_count(&self) -> usize {
        self.state.replicas.len()
    }

    /// A replica's current address (`None` while it is down).
    pub fn replica_addr(&self, i: usize) -> Option<SocketAddr> {
        self.state.replicas.addr(i)
    }

    /// Kills replica `i` directly (tests; the HTTP path is
    /// `/admin/kill`). Marks it down immediately.
    pub fn kill_replica(&self, i: usize) -> bool {
        let was_up = self.state.replicas.kill(i);
        self.state.health.mark(i, false);
        was_up
    }

    /// Restarts replica `i` directly, marking it up on success.
    pub fn restart_replica(&self, i: usize) -> std::io::Result<SocketAddr> {
        let addr = self.state.replicas.restart(i)?;
        self.state.health.mark(i, true);
        Ok(addr)
    }

    /// Adds one replica and installs the next epoch (the HTTP path is
    /// `/admin/scale-up`).
    pub fn scale_up(&self) -> std::io::Result<crate::membership::ScaleUp> {
        self.state.elasticity.scale_up()
    }

    /// Drains replica `i` out of the ring (the HTTP path is
    /// `/admin/drain/<i>`).
    pub fn drain_replica(&self, i: usize) -> std::io::Result<crate::membership::Drain> {
        self.state.elasticity.drain(i)
    }

    /// The current epoch's member IDs.
    pub fn members(&self) -> Vec<usize> {
        self.state.elasticity.membership.current().members.clone()
    }

    /// Requests a graceful stop: the router drains admitted requests,
    /// then the replicas drain theirs.
    pub fn shutdown(&self) {
        self.state.stop.trigger();
    }

    /// True once a stop has been requested.
    pub fn stopping(&self) -> bool {
        self.state.stop.stopping()
    }

    /// Waits for the router and every replica to finish draining.
    pub fn join(self) {
        self.core.join();
        let _ = self.checker.join();
    }
}

/// Starts the cluster: `cfg.replicas` in-process `hec-serve` replicas on
/// ephemeral ports, the health checker, and the router frontend on
/// `127.0.0.1:cfg.port`. Returns once the router socket is accepting.
pub fn start(cfg: ClusterConfig) -> std::io::Result<Cluster> {
    let replicas = Arc::new(ReplicaSet::start(cfg.replicas, cfg.replica.clone())?);
    let health = Arc::new(Health::new(replicas.len()));
    let pool = WorkerPool::new(Threads::new(cfg.workers), cfg.queue);
    let stop = Arc::new(ShutdownFlag::new());
    let net = Arc::new(NetStats::new());
    let planned_faults = cfg.faults.remaining();
    let elasticity = Arc::new(Elasticity::new(
        Arc::clone(&replicas),
        Arc::clone(&health),
        cfg.vnodes,
        cfg.replication,
        cfg.autoscale,
        cfg.retry.timeout,
    ));
    let state = Arc::new(RouterState {
        elasticity,
        replicas: Arc::clone(&replicas),
        health: Arc::clone(&health),
        faults: Mutex::new(cfg.faults),
        planned_faults,
        retry: cfg.retry,
        seed: cfg.seed,
        started: Instant::now(),
        stop: Arc::clone(&stop),
        net: Arc::clone(&net),
        queue: pool.queue_gauge(),
        admitted: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        failovers: AtomicU64::new(0),
        retries: AtomicU64::new(0),
        faults_injected: AtomicU64::new(0),
        lat_route: Histogram::new(),
        lat_local: Histogram::new(),
    });

    let checker_stop = Arc::new(AtomicBool::new(false));
    let checker = health::spawn_checker(
        Arc::clone(&replicas),
        Arc::clone(&health),
        Arc::clone(&checker_stop),
        cfg.health,
    );

    let handler_state = Arc::clone(&state);
    let handler: Arc<reactor::Handler> = Arc::new(move |req: &Request, t0: Instant| {
        let (status, extra, body, local) = route(req, &handler_state);
        if status >= 400 {
            handler_state.errors.fetch_add(1, Ordering::Relaxed);
        }
        if local {
            handler_state.lat_local.record(t0.elapsed());
        } else {
            handler_state.lat_route.record(t0.elapsed());
        }
        (status, extra, body)
    });
    let events = Arc::new(RouterEvents(Arc::clone(&state)));
    // After the reactor drains the router's in-flight requests (they may
    // still need live replicas), stop the checker and the replicas.
    let drain_replicas = Arc::clone(&replicas);
    let on_drained = Box::new(move || {
        checker_stop.store(true, Ordering::SeqCst);
        drain_replicas.shutdown_all();
    });
    let core = reactor::start_core(
        CoreConfig {
            port: cfg.port,
            reject_body: error_body("router admission queue full; retry"),
        },
        pool,
        net,
        events,
        stop,
        handler,
        Some(on_drained),
    )?;
    Ok(Cluster { state, core, checker })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultEvent;

    fn small(replicas: usize, faults: FaultPlan) -> Cluster {
        start(ClusterConfig {
            replicas,
            replica: ServeConfig { port: 0, workers: 2, queue: 16, cache_capacity: 256 },
            retry: RetryPolicy {
                base_ms: 5,
                cap_ms: 50,
                max_retries: 3,
                timeout: Duration::from_secs(10),
            },
            health: HealthConfig {
                interval: Duration::from_millis(50),
                probe_timeout: Duration::from_millis(300),
            },
            faults,
            ..ClusterConfig::default()
        })
        .expect("cluster starts")
    }

    #[test]
    fn router_serves_the_same_bytes_as_a_replica() {
        let c = small(3, FaultPlan::none());
        let base = format!("http://{}", c.addr());
        let point =
            hec_serve::request::Point::from_query("app=gtc&platform=x1msp&procs=256").unwrap();
        let want = hec_serve::server::point_response_body(&point, point.eval());
        let got =
            client::http_get(&format!("{base}/eval?app=gtc&platform=x1msp&procs=256")).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.body, want, "routed bytes must equal in-process bytes");
        c.shutdown();
        c.join();
    }

    #[test]
    fn dropconn_fault_fails_over_without_an_error() {
        // Drop the connection to every possible target of request 0:
        // whichever owner is tried first fails artificially, the next
        // one answers, and the client never sees it.
        let plan = FaultPlan::with(
            (0..3)
                .map(|r| FaultEvent { at_request: 0, replica: r, kind: FaultKind::DropConn })
                .collect(),
        );
        // Only events whose replica is actually tried are consumed; with
        // R=2 at most two owners are tried, so at least one drop fires.
        let c = small(3, plan);
        let base = format!("http://{}", c.addr());
        let r = client::http_get(&format!("{base}/eval?app=lbmhd&platform=es&procs=64")).unwrap();
        assert_eq!(r.status, 200, "failover must hide the dropped connection");
        let m = client::http_get(&format!("{base}/metrics")).unwrap();
        let doc = Json::parse(&m.body).unwrap();
        assert!(doc.get("failovers").unwrap().as_f64().unwrap() >= 1.0);
        c.shutdown();
        c.join();
    }

    #[test]
    fn admin_kill_and_restart_round_trip() {
        let c = small(2, FaultPlan::none());
        let base = format!("http://{}", c.addr());
        let killed = client::http_post(&format!("{base}/admin/kill?replica=1"), "").unwrap();
        assert_eq!(killed.status, 200);
        assert!(killed.body.contains("\"was_up\": true"));
        assert!(c.replica_addr(1).is_none());
        // Requests still answer through the surviving replica.
        let r =
            client::http_get(&format!("{base}/eval?app=paratec&platform=sx8&procs=128")).unwrap();
        assert_eq!(r.status, 200);
        let revived = client::http_post(&format!("{base}/admin/restart?replica=1"), "").unwrap();
        assert_eq!(revived.status, 200);
        assert!(c.replica_addr(1).is_some());
        assert_eq!(
            client::http_post(&format!("{base}/admin/kill?replica=9"), "").unwrap().status,
            400
        );
        c.shutdown();
        c.join();
    }

    #[test]
    fn exhausted_retry_budget_answers_503_with_retry_after() {
        // Every owner dead: each pass fails over through both, the
        // seeded backoff paces `max_retries` more passes, and only then
        // does the router answer its own 503.
        let c = small(2, FaultPlan::none());
        let base = format!("http://{}", c.addr());
        assert!(c.kill_replica(0) && c.kill_replica(1));
        let t0 = Instant::now();
        let r = client::http_get(&format!("{base}/eval?app=gtc&platform=es&procs=64")).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
        assert_eq!(r.status, 503);
        assert_eq!(r.retry_after_secs(), Some(1));
        assert!(r.body.contains("no live owner for key"), "{}", r.body);
        let m = client::http_get(&format!("{base}/metrics")).unwrap();
        let doc = Json::parse(&m.body).unwrap();
        // `small` sets retry.max_retries to 3.
        assert_eq!(doc.get("retries").unwrap().as_f64().unwrap(), 3.0);
        c.shutdown();
        c.join();
    }

    #[test]
    fn shutdown_stops_router_and_replicas() {
        let c = small(2, FaultPlan::none());
        let base = format!("http://{}", c.addr());
        let replica0 = c.replica_addr(0).unwrap();
        let r = client::http_post(&format!("{base}/shutdown"), "").unwrap();
        assert_eq!(r.status, 200);
        assert!(c.stopping());
        c.join();
        assert!(
            client::http_get(&format!("http://{replica0}/healthz")).is_err(),
            "replicas must stop with the router"
        );
    }
}
