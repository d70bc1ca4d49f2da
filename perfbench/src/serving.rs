//! The serving workloads: `serve_cold` and `cluster_warm`.
//!
//! One run: generate the inputs and their expected bytes; start the tier
//! [`SETUP_REPS`] times, timing each start up to the first correct
//! response of one `/eval` per app (which includes the tier's calibration
//! captures), and keep the last one; warm it up closed loop with the same
//! generator; then drive the open-loop schedule for the run's seconds and
//! read the tier's CPU time and peak RSS from `/proc`.

use std::net::SocketAddr;
use std::time::Instant;

use hec_core::json::Json;
use hec_serve::request::Point;

use crate::gen::{self, Class, Request};
use crate::load::{self, Outcome};
use crate::tier::{Kind, Tier};
use crate::{expected, host, http, stats};

/// Offered rate of `serve_cold`, requests per second.
pub const COLD_RATE_RPS: f64 = 1000.0;
/// Offered rate of `cluster_warm`, requests per second.
pub const WARM_RATE_RPS: f64 = 1500.0;
/// Untimed warm-up requests for `serve_cold` (twice the cache capacity).
pub const COLD_WARMUP: usize = 2 * gen::CACHE_CAPACITY;
/// Untimed warm-up requests for `cluster_warm`.
pub const WARM_WARMUP: usize = 1000;
/// Tier start-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Smallest achieved ÷ offered rate of a valid run.
pub const MIN_ACHIEVED: f64 = 0.98;
/// Largest generator lateness p99 (ms) of a valid run.
pub const MAX_LATE_P99_MS: f64 = 5.0;

/// Stream ids of the generated inputs.
const TIMED_STREAM: u64 = 2;
const WARMUP_STREAM: u64 = 3;

/// Everything a serving run sends, with the bytes it must get back.
pub struct Inputs {
    /// The tier.
    pub kind: Kind,
    /// Requests of the timed phase, in arrival order.
    pub timed: Vec<Request>,
    /// Arrival offsets of the timed requests, ns.
    pub schedule: Vec<u64>,
    /// Untimed warm-up requests.
    pub warmup: Vec<Request>,
    /// Expected bodies, indexed by `Request::expect`.
    pub expected: Vec<Vec<u8>>,
    /// Set-up probes: one `/eval` per app from the canonical mix.
    pub probes: Vec<Request>,
    /// Expected bodies of the probes (indexed by the mix).
    pub probe_expected: Vec<Vec<u8>>,
}

impl Inputs {
    /// Generates the inputs of `kind` for `seed` and a `secs` timed phase.
    pub fn generate(kind: Kind, seed: u64, secs: u64) -> Inputs {
        let rate = match kind {
            Kind::Serve => COLD_RATE_RPS,
            Kind::Cluster => WARM_RATE_RPS,
        };
        let schedule = gen::schedule(seed, rate, secs);
        let mix = gen::warm_mix();
        let mut probe_expected = vec![Vec::new(); mix.len()];
        let mut probes = Vec::new();
        for app in hec_serve::engine::AppId::ALL {
            let r = mix
                .iter()
                .find(|r| {
                    r.class == Class::Eval && r.target.contains(&format!("app={}&", app.name()))
                })
                .expect("the canonical mix has an /eval per app");
            let p = Point::from_query(r.target.trim_start_matches("/eval?")).expect("mix parses");
            probe_expected[r.expect] = expected::point_body(&p);
            probes.push(r.clone());
        }
        match kind {
            Kind::Serve => {
                let universe = gen::cold_universe();
                let timed = gen::cold_requests(&universe, seed, TIMED_STREAM, schedule.len());
                let warmup = gen::cold_requests(&universe, seed, WARMUP_STREAM, COLD_WARMUP);
                let needed: Vec<usize> = timed.iter().chain(&warmup).map(|r| r.expect).collect();
                let expected = expected::cold_expected(&universe, &needed, host::nproc());
                Inputs { kind, timed, schedule, warmup, expected, probes, probe_expected }
            }
            Kind::Cluster => {
                let timed = gen::warm_requests(seed, TIMED_STREAM, schedule.len());
                let mut warmup = gen::warm_mix();
                warmup.extend(gen::warm_requests(seed, WARMUP_STREAM, WARM_WARMUP));
                let expected = expected::warm_expected();
                Inputs { kind, timed, schedule, warmup, expected, probes, probe_expected }
            }
        }
    }

    /// Flips one byte of the body the first timed request expects (used by
    /// the benchmark's own test of its correctness check).
    pub fn corrupt(&mut self) {
        if let Some(r) = self.timed.first() {
            if let Some(b) = self.expected[r.expect].last_mut() {
                *b ^= 0x20;
            }
        }
    }

    /// Offered rate of the drawn schedule, requests per second.
    pub fn offered_rps(&self, secs: u64) -> f64 {
        self.schedule.len() as f64 / secs.max(1) as f64
    }
}

/// The tier's `/metrics` (and, for a cluster, every replica's).
#[derive(Clone)]
pub struct Snapshot {
    /// The tier's own document (server or router).
    pub tier: Json,
    /// Each replica's own document, cluster only, in replica order.
    pub replicas: Vec<Json>,
}

/// The `cluster.replicas` entries of a router's `/metrics` (empty for a
/// server).
pub fn replica_entries(router: &Json) -> &[Json] {
    router.get("cluster").and_then(|c| c.get("replicas")).and_then(Json::as_arr).unwrap_or(&[])
}

/// The replicas' addresses from a router's `/metrics`, in replica order.
pub fn replica_addrs(router: &Json) -> Vec<SocketAddr> {
    replica_entries(router).iter().filter_map(|r| r.get("addr")?.as_str()?.parse().ok()).collect()
}

fn snapshot(addr: SocketAddr) -> Option<Snapshot> {
    let tier = http::get_json(addr, "/metrics").ok()?;
    let replicas = replica_addrs(&tier)
        .into_iter()
        .map(|a| http::get_json(a, "/metrics").ok())
        .collect::<Option<Vec<Json>>>()?;
    Some(Snapshot { tier, replicas })
}

/// One serving run's measurements.
pub struct ServingRun {
    /// Timed-phase outcomes, in arrival order.
    pub outcomes: Vec<Outcome>,
    /// Offered rate of the schedule (rps).
    pub offered_rps: f64,
    /// Timed-phase length asked for, s.
    pub secs: u64,
    /// Each tier start-up, s.
    pub setup_s: Vec<f64>,
    /// Tier CPU time over the timed phase, ms.
    pub cpu_ms: f64,
    /// Tier peak RSS, MiB.
    pub rss_mb: f64,
    /// Host steal over the timed phase, %.
    pub steal_pct: f64,
    /// Requests sent in every phase, and those that failed.
    pub attempted: usize,
    /// Failed requests of every phase.
    pub failed: usize,
    /// `/metrics` before and after the timed phase (traced runs only).
    pub metrics: Option<(Snapshot, Snapshot)>,
    /// `/healthz` round trips on a kept-alive connection, µs.
    pub rtt_us: Vec<f64>,
}

/// Runs one serving workload against a fresh tier. With `observe`, the
/// run also snapshots `/metrics` around the timed phase and measures
/// `/healthz` round trips; `on_live` runs while the tier is still up.
pub fn run(
    inputs: &Inputs,
    secs: u64,
    observe: bool,
    on_live: &mut dyn FnMut(SocketAddr),
) -> std::io::Result<ServingRun> {
    let _awake = crate::awake::KeepAwake::start();
    let senders = host::nproc();
    let mut attempted = 0;
    let mut failed = 0;
    let mut count = |o: &[Outcome]| {
        attempted += o.len();
        failed += o.iter().filter(|o| !o.ok).count();
    };
    let mut setup_s = Vec::new();
    let mut tier = None;
    for _ in 0..SETUP_REPS {
        if let Some(t) = tier.take() {
            Tier::stop(t);
        }
        let t0 = Instant::now();
        let t = Tier::spawn(inputs.kind)?;
        let probe = load::drive(t.addr, &inputs.probes, None, &inputs.probe_expected, 1);
        setup_s.push(t0.elapsed().as_secs_f64());
        count(&probe);
        tier = Some(t);
    }
    let tier = tier.expect("at least one set-up");
    let addr = tier.addr;
    count(&load::drive(addr, &inputs.warmup, None, &inputs.expected, senders));

    let before = if observe { snapshot(addr) } else { None };
    let cpu0 = host::cpu_ms(tier.pid());
    let jiffies0 = host::cpu_jiffies();
    let outcomes =
        load::drive(addr, &inputs.timed, Some(&inputs.schedule), &inputs.expected, senders);
    let cpu1 = host::cpu_ms(tier.pid());
    let steal_pct = host::steal_pct(jiffies0, host::cpu_jiffies());
    count(&outcomes);
    let after = if observe { snapshot(addr) } else { None };
    let mut rtt_us = Vec::new();
    if observe {
        if let Ok(mut c) = http::Conn::open(addr) {
            let wire = b"GET /healthz HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n";
            for _ in 0..200 {
                let t = Instant::now();
                if c.exchange(wire).is_err() {
                    break;
                }
                rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        on_live(addr);
    }
    let rss_mb = host::peak_rss_mb(tier.pid()).unwrap_or(0.0);
    tier.stop();
    Ok(ServingRun {
        outcomes,
        offered_rps: inputs.offered_rps(secs),
        secs,
        setup_s,
        cpu_ms: match (cpu0, cpu1) {
            (Some(a), Some(b)) => b - a,
            _ => f64::NAN,
        },
        rss_mb,
        steal_pct,
        attempted,
        failed,
        metrics: before.zip(after),
        rtt_us,
    })
}

/// The validity stamp of a timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Validity {
    /// Generator lateness p99, ms.
    pub late_p99_ms: f64,
    /// Generator lateness max, ms.
    pub late_max_ms: f64,
    /// Achieved ÷ offered rate.
    pub achieved_ratio: f64,
}

impl Validity {
    /// Lateness and achieved rate of the outcomes of a timed phase.
    pub fn of(run: &ServingRun) -> Validity {
        let late = stats::sorted(&run.outcomes.iter().map(|o| o.late_ms).collect::<Vec<_>>());
        let done = run.outcomes.iter().filter(|o| o.ok).count() as f64;
        let span_s = run.outcomes.iter().map(|o| o.done_ns).max().unwrap_or(0) as f64 / 1e9;
        let horizon = span_s.max(run.secs as f64);
        Validity {
            late_p99_ms: stats::quantile(&late, 0.99).unwrap_or(0.0),
            late_max_ms: late.last().copied().unwrap_or(0.0),
            achieved_ratio: (done / horizon) / run.offered_rps.max(1e-9),
        }
    }

    /// True when the generator kept its schedule and the tier kept up.
    pub fn valid(&self) -> bool {
        self.achieved_ratio >= MIN_ACHIEVED && self.late_p99_ms <= MAX_LATE_P99_MS
    }
}

/// Latency of a timed phase cut into 1 s windows by scheduled arrival.
pub struct Latency {
    /// Median of the window medians, ms.
    pub p50_ms: f64,
    /// Median of the window p90s, ms.
    pub p90_ms: f64,
    /// Median of window tail percentiles (p99 where supported), ms.
    pub p99_ms: f64,
    /// Quantile used for the tail in the smallest window.
    pub tail_q: f64,
    /// Samples in the timed phase.
    pub samples: usize,
    /// Windows the phase was cut into.
    pub windows: usize,
    /// Per-window `(p50, p90, tail)`, ms.
    pub per_window: Vec<(f64, f64, f64)>,
}

/// Seconds per latency window.
pub const WINDOW_SECS: u64 = 1;

/// Cuts the outcomes into `secs / WINDOW_SECS` windows by scheduled
/// arrival and summarises each window's percentiles across windows.
pub fn latency(outcomes: &[Outcome], secs: u64) -> Latency {
    let windows = (secs / WINDOW_SECS).max(1) as usize;
    let span = secs.max(1) as f64 * 1e9;
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for o in outcomes {
        let w = ((o.at_ns as f64 / span * windows as f64) as usize).min(windows - 1);
        per[w].push(o.latency_ms);
    }
    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    let mut p99 = Vec::new();
    let mut tail_q = 0.99f64;
    let mut per_window = Vec::new();
    for w in per.iter().map(|v| stats::sorted(v)) {
        let (Some(a), Some((_, b)), Some((q, c))) =
            (stats::quantile(&w, 0.5), stats::tail(&w, 0.9), stats::tail(&w, 0.99))
        else {
            continue;
        };
        tail_q = tail_q.min(q);
        p50.push(a);
        p90.push(b);
        p99.push(c);
        per_window.push((a, b, c));
    }
    Latency {
        p50_ms: stats::median(&p50),
        p90_ms: stats::median(&p90),
        p99_ms: stats::median(&p99),
        tail_q,
        samples: outcomes.len(),
        windows,
        per_window,
    }
}
