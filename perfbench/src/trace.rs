//! The traced run: every layer's numbers, measured from outside.
//!
//! One traced run covers all three workloads, whichever `--workload` names
//! it, so that every traced run reports the same per-layer metrics:
//!
//! 1. **Calibration** — each app's `calibration_capture()` timed cold, in
//!    this process, before anything else touches them.
//! 2. **Mini-apps** — host ceilings, kernel timings, and per app a probe
//!    capture of one step, step times at the default and at 1 worker, and
//!    msim traffic of one step at `nproc` ranks ([`miniapps::app_layers`]).
//! 3. **Replay** — the `serve_cold` and `cluster_warm` inputs of the seed,
//!    replayed in pipeline order through the layers' public functions:
//!    bytes → `reactor::parse_request` → `Point::from_query` /
//!    `from_json_text` → `ShardedLru::get` → on a miss `engine::eval_cell`
//!    and `Batcher::eval` → `ShardedLru::put` → `point_response_body` /
//!    `sweep_response_body` → `reactor::emit_response`, plus
//!    `Ring::owners` for the warm mix. Each call is a span; the replay runs
//!    once untraced and once traced on identical state, which gives the
//!    tracing overhead.
//! 4. **Live tiers** — short `serve_cold` and `cluster_warm` runs against
//!    child tiers with `/metrics` read before and after, per instance;
//!    while the cluster is up, a slice of the warm stream is forwarded
//!    straight to each request's ring owner, as the router would.
//!
//! Spans are kept in memory and written as JSON lines under
//! `.bench_out/` at the end.

use std::net::SocketAddr;
use std::time::Instant;

use hec_cluster::{Ring, DEFAULT_REPLICATION, DEFAULT_VNODES};
use hec_core::json::Json;
use hec_serve::batch::Batcher;
use hec_serve::cache::ShardedLru;
use hec_serve::engine::{self, AppId};
use hec_serve::reactor::{emit_response, parse_request, Parse};
use hec_serve::request::Point;
use hec_serve::server::{point_response_body, sweep_response_body};

use crate::gen::{Class, Request};
use crate::serving::{self, Inputs, ServingRun, Snapshot, Validity};
use crate::spans::{self, Recorder};
use crate::tier::Kind;
use crate::workloads::Opts;
use crate::{host, miniapps, stats, Report};

/// Requests replayed per serving workload.
pub const REPLAY: usize = 3000;
/// Warm requests forwarded straight to their ring owner.
pub const DIRECT: usize = 500;

/// Span sink of the replay: the recorder, or nothing (the untraced pass).
pub trait Tracer {
    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Sets the request id of the spans that follow.
    fn request(&mut self, id: u32);
}

impl Tracer for Recorder {
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        Recorder::span(self, name, f)
    }
    fn request(&mut self, id: u32) {
        self.set_request(id);
    }
}

/// The untraced pass.
pub struct NoTrace;

impl Tracer for NoTrace {
    fn span<R>(&mut self, _: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
    fn request(&mut self, _: u32) {}
}

fn engine_span(app: AppId) -> &'static str {
    match app {
        AppId::Fvcam => "engine.eval.fvcam",
        AppId::Gtc => "engine.eval.gtc",
        AppId::Lbmhd => "engine.eval.lbmhd",
        AppId::Paratec => "engine.eval.paratec",
    }
}

/// The ring key the router computes for a request.
fn ring_key(rq: &Request, p: Option<&Point>) -> String {
    match p {
        Some(p) => p.canonical_key(),
        None => format!("sweep|{}", rq.target.trim_start_matches("/sweep?app=")),
    }
}

/// One server-side pipeline pass over `rq`'s bytes; true when the emitted
/// response carries exactly the expected body.
fn pipeline<T: Tracer>(
    t: &mut T,
    rq: &Request,
    wire: &[u8],
    expected: &[u8],
    cache: &ShardedLru,
    batcher: &Batcher,
    ring: Option<&Ring>,
) -> bool {
    let out = t.span("request", |t| {
        let req = t.span("reactor.parse", |_| match parse_request(wire) {
            Ok(Parse::Complete { req, .. }) => Some(req),
            _ => None,
        })?;
        let lookup = |t: &mut T, p: &Point| -> Option<Option<engine::Cell>> {
            let key = p.canonical_key();
            if let Some(hit) = t.span("cache.get", |_| cache.get(&key)) {
                return Some(hit);
            }
            let direct = t.span(engine_span(p.app), |_| engine::eval_cell(p.app, p.sel, &p.spec));
            let batched = t.span("batch.eval", |_| batcher.eval(p));
            if direct != batched {
                return None;
            }
            t.span("cache.put", |_| cache.put(key, batched));
            Some(batched)
        };
        let body = match rq.class {
            Class::Eval => {
                let p = if rq.post {
                    t.span("request.json", |_| Point::from_json_text(&req.body))
                } else {
                    t.span("request.query", |_| Point::from_query(&req.query))
                }
                .ok()?;
                if let Some(ring) = ring {
                    t.span("ring.owners", |_| ring.owners(&ring_key(rq, Some(&p))));
                }
                let cell = lookup(t, &p)?;
                t.span("server.encode.eval", |_| point_response_body(&p, cell))
            }
            Class::Sweep => {
                let app = AppId::parse(req.query.trim_start_matches("app="))?;
                if let Some(ring) = ring {
                    t.span("ring.owners", |_| ring.owners(&ring_key(rq, None)));
                }
                // Cache lookups happen inside the sweep builder, as in the
                // server; they are part of this span.
                t.span("server.encode.sweep", |_| {
                    sweep_response_body(app, |p| {
                        let key = p.canonical_key();
                        cache.get(&key).unwrap_or_else(|| {
                            let c = batcher.eval(p);
                            cache.put(key, c);
                            c
                        })
                    })
                })
            }
        };
        let bytes = t.span("reactor.emit", |_| emit_response(200, &[], &body, true));
        Some(bytes.ends_with(expected) && body.as_bytes() == expected)
    });
    out.unwrap_or(false)
}

/// A replay: warm the cache with the warm-up stream untraced, then pass
/// the first [`REPLAY`] timed requests through `t`. Returns the replayed
/// wall time (s), requests replayed and mismatches.
fn replay<T: Tracer>(t: &mut T, inputs: &Inputs, ring: Option<&Ring>) -> (f64, usize, usize) {
    let cache = ShardedLru::new(crate::gen::CACHE_CAPACITY);
    let batcher = Batcher::new();
    for rq in &inputs.warmup {
        pipeline(&mut NoTrace, rq, &rq.wire(), &inputs.expected[rq.expect], &cache, &batcher, ring);
    }
    let reqs = &inputs.timed[..inputs.timed.len().min(REPLAY)];
    let wires: Vec<Vec<u8>> = reqs.iter().map(Request::wire).collect();
    let t0 = Instant::now();
    let mut bad = 0;
    for (i, (rq, wire)) in reqs.iter().zip(&wires).enumerate() {
        t.request(i as u32);
        if !pipeline(t, rq, wire, &inputs.expected[rq.expect], &cache, &batcher, ring) {
            bad += 1;
        }
    }
    (t0.elapsed().as_secs_f64(), reqs.len(), bad)
}

/// Forwards the first [`DIRECT`] warm timed requests straight to their
/// primary ring owner on kept-alive connections (one per replica), the
/// hop the router makes. Returns (requests, mismatches).
fn direct_forward(
    rec: &mut Recorder,
    inputs: &Inputs,
    ring: &Ring,
    replicas: &[SocketAddr],
) -> (usize, usize) {
    let mut conns: Vec<Option<crate::http::Conn>> =
        replicas.iter().map(|a| crate::http::Conn::open(*a).ok()).collect();
    let reqs = &inputs.timed[..inputs.timed.len().min(DIRECT)];
    let mut bad = 0;
    for (i, rq) in reqs.iter().enumerate() {
        rec.set_request(i as u32);
        let wire = rq.wire();
        let ok = rec.span("direct", |rec| {
            let key = match rq.class {
                Class::Eval => {
                    let p = Point::from_query(rq.target.trim_start_matches("/eval?")).ok();
                    ring_key(rq, p.as_ref())
                }
                Class::Sweep => ring_key(rq, None),
            };
            let owner = rec.span("ring.owners", |_| ring.owners(&key))[0];
            let conn = conns.get_mut(owner)?.as_mut()?;
            let resp = rec.span("router.forward", |_| conn.exchange(&wire)).ok()?;
            Some(resp.status == 200 && resp.body == inputs.expected[rq.expect])
        });
        if ok != Some(true) {
            bad += 1;
        }
    }
    (reqs.len(), bad)
}

// ---------------------------------------------------------------------
// /metrics readings
// ---------------------------------------------------------------------

fn node<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |n, k| n.get(k))
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    node(doc, path).and_then(Json::as_f64).unwrap_or(0.0)
}

fn delta(s: &(Snapshot, Snapshot), path: &[&str]) -> f64 {
    num(&s.1.tier, path) - num(&s.0.tier, path)
}

/// `(upper edge µs, count)` buckets of a histogram document.
fn buckets(doc: &Json, path: &[&str]) -> Vec<(f64, f64)> {
    node(doc, path)
        .and_then(|h| h.get("buckets"))
        .and_then(Json::as_arr)
        .map(|bs| bs.iter().map(|b| (num(b, &["le_us"]), num(b, &["count"]))).collect())
        .unwrap_or_default()
}

/// Adds `after − before` bucket counts of the eval and sweep histograms of
/// one server document pair into `acc` (indexed by upper edge).
fn add_bucket_delta(acc: &mut Vec<(f64, f64)>, before: &Json, after: &Json) {
    for class in ["eval", "sweep"] {
        let b0 = buckets(before, &["latency", class]);
        for (le, c) in buckets(after, &["latency", class]) {
            let prev = b0.iter().find(|(l, _)| *l == le).map_or(0.0, |x| x.1);
            match acc.iter_mut().find(|(l, _)| *l == le) {
                Some(slot) => slot.1 += c - prev,
                None => acc.push((le, c - prev)),
            }
        }
    }
    acc.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// Quantile of log2 buckets (bucket `[le/2, le)` µs), interpolated
/// linearly inside the bucket holding the rank.
pub fn bucket_quantile(buckets: &[(f64, f64)], q: f64) -> f64 {
    let total: f64 = buckets.iter().map(|b| b.1).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let rank = (q * total).ceil().max(1.0);
    let mut seen = 0.0;
    for &(le, c) in buckets {
        if c > 0.0 && seen + c >= rank {
            let lo = if le <= 2.0 { 0.0 } else { le / 2.0 };
            return lo + (le - lo) * (rank - seen) / c;
        }
        seen += c;
    }
    buckets.last().map_or(0.0, |b| b.0)
}

fn client_p50_us(run: &ServingRun) -> f64 {
    let lat: Vec<f64> = run.outcomes.iter().map(|o| o.latency_ms * 1e3).collect();
    stats::median(&lat)
}

/// Self-time median (µs) of spans named `name`, 0 when none ran.
fn self_median(by: &std::collections::BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    by.get(name).and_then(|v| stats::quantile(v, 0.5)).unwrap_or(0.0)
}

/// Runs the traced suite. `workload` only labels the output: every
/// traced run measures every layer.
pub fn run(workload: &str, o: &Opts) -> std::io::Result<Report> {
    let jiffies0 = host::cpu_jiffies();
    let mut r = Report::default();
    let time_ms = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        host::ms(t.elapsed())
    };
    let cal = [
        (
            "fvcam",
            time_ms(&mut || {
                std::hint::black_box(fvcam::model::calibration_capture());
            }),
        ),
        (
            "gtc",
            time_ms(&mut || {
                std::hint::black_box(gtc::model::calibration_capture());
            }),
        ),
        (
            "lbmhd",
            time_ms(&mut || {
                std::hint::black_box(lbmhd::model::calibration_capture());
            }),
        ),
        (
            "paratec",
            time_ms(&mut || {
                std::hint::black_box(paratec::model::calibration());
            }),
        ),
    ];

    let (triad, peak) = miniapps::kernel_layers(&mut r);
    miniapps::app_layers(&mut r, triad, peak);

    // Replays: untraced, then traced on identical fresh state.
    let live_secs = (o.secs / 3).max(3);
    let cold = Inputs::generate(Kind::Serve, o.seed, live_secs);
    let warm = Inputs::generate(Kind::Cluster, o.seed, live_secs);
    let ring = Ring::new(3, DEFAULT_VNODES, DEFAULT_REPLICATION);
    let (cold_plain, _, _) = replay(&mut NoTrace, &cold, None);
    let mut cold_rec = Recorder::new();
    let (cold_traced, cold_n, cold_bad) = replay(&mut cold_rec, &cold, None);
    let (warm_plain, _, _) = replay(&mut NoTrace, &warm, Some(&ring));
    let mut warm_rec = Recorder::new();
    let (warm_traced, warm_n, warm_bad) = replay(&mut warm_rec, &warm, Some(&ring));

    // Live tiers.
    let cold_run = serving::run(&cold, live_secs, true, &mut |_| {})?;
    let mut direct_rec = Recorder::new();
    let mut direct = (0, 0);
    let warm_run = serving::run(&warm, live_secs, true, &mut |addr| {
        if let Ok(doc) = crate::http::get_json(addr, "/metrics") {
            let replicas = serving::replica_addrs(&doc);
            direct = direct_forward(&mut direct_rec, &warm, &ring, &replicas);
        }
    })?;
    let steal = host::steal_pct(jiffies0, host::cpu_jiffies());

    r.attempted = cold_n + warm_n + direct.0 + cold_run.attempted + warm_run.attempted;
    r.failed = cold_bad + warm_bad + direct.1 + cold_run.failed + warm_run.failed;

    // Spans out.
    let dir = std::path::Path::new(".bench_out");
    for (name, rec) in [("cold", &cold_rec), ("warm", &warm_rec), ("direct", &direct_rec)] {
        let path = dir.join(format!("spans-{workload}-seed{}-{name}.jsonl", o.seed));
        rec.write_jsonl(&path)?;
        r.note(format!("spans: {} written to {}", rec.spans().len(), path.display()));
    }
    let cold_self = spans::self_us_by_name(cold_rec.spans());
    let warm_self = spans::self_us_by_name(warm_rec.spans());
    let direct_self = spans::self_us_by_name(direct_rec.spans());
    for (what, by) in [("cold", &cold_self), ("warm", &warm_self), ("direct", &direct_self)] {
        for (name, v) in by.iter() {
            r.note(format!(
                "self-time {what:<6} {name:<22} n={:<6} p50={:.3} us p90={:.3} us",
                v.len(),
                stats::quantile(v, 0.5).unwrap_or(0.0),
                stats::quantile(v, 0.9).unwrap_or(0.0)
            ));
        }
    }

    // Validity of the live runs.
    let (vc, vw) = (Validity::of(&cold_run), Validity::of(&warm_run));
    r.note(format!(
        "stamp workload={workload} trace=1 seed={} nproc={} commit={} valid={}",
        o.seed,
        host::nproc(),
        host::git_commit(),
        vc.valid() && vw.valid()
    ));
    r.put("loadgen.late_p99_ms", vc.late_p99_ms.max(vw.late_p99_ms), "ms");
    r.put("loadgen.achieved_ratio", vc.achieved_ratio.min(vw.achieved_ratio), "1");
    r.put("host.steal_pct", steal, "%");

    // Cold tier, per instance (the only server in its process).
    let cm = cold_run.metrics.as_ref().ok_or_else(|| std::io::Error::other("no cold /metrics"))?;
    let reqs = delta(cm, &["requests"]).max(1.0);
    let mut cold_b = Vec::new();
    add_bucket_delta(&mut cold_b, &cm.0.tier, &cm.1.tier);
    let server_p50_cold = bucket_quantile(&cold_b, 0.5);
    let (hits, misses) = (delta(cm, &["cache", "hits"]), delta(cm, &["cache", "misses"]));
    let batches = delta(cm, &["meters", "serve.batch.batches"]);
    let points = delta(cm, &["meters", "serve.batch.points"]);
    let coalesced = delta(cm, &["meters", "serve.batch.coalesced"]);

    // Warm tier: router counters plus each replica's own cache and
    // histogram sections (never the process-wide `meters`).
    let wm = warm_run.metrics.as_ref().ok_or_else(|| std::io::Error::other("no warm /metrics"))?;
    let admitted = delta(wm, &["admitted"]).max(1.0);
    let (rb, ra) = (serving::replica_entries(&wm.0.tier), serving::replica_entries(&wm.1.tier));
    let forwarded: Vec<f64> =
        ra.iter().zip(rb).map(|(a, b)| num(a, &["forwarded"]) - num(b, &["forwarded"])).collect();
    let down: f64 = ra
        .iter()
        .zip(rb)
        .map(|(a, b)| num(a, &["down_transitions"]) - num(b, &["down_transitions"]))
        .sum();
    let mut warm_b = Vec::new();
    let (mut whits, mut wlookups) = (0.0, 0.0);
    for (b, a) in wm.0.replicas.iter().zip(&wm.1.replicas) {
        add_bucket_delta(&mut warm_b, b, a);
        let h = num(a, &["cache", "hits"]) - num(b, &["cache", "hits"]);
        whits += h;
        wlookups += h + num(a, &["cache", "misses"]) - num(b, &["cache", "misses"]);
    }
    let server_p50_warm = bucket_quantile(&warm_b, 0.5);
    let mean_fwd = forwarded.iter().sum::<f64>() / forwarded.len().max(1) as f64;

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    r.put("reactor.iterations_per_req.cold", delta(cm, &["reactor", "iterations"]) / reqs, "1");
    r.put(
        "reactor.iterations_per_req.warm",
        delta(wm, &["reactor", "iterations"]) / delta(wm, &["requests"]).max(1.0),
        "1",
    );
    r.put(
        "reactor.keepalive_ratio.cold",
        ratio(
            delta(cm, &["connections", "keepalive_requests"]),
            delta(cm, &["reactor", "requests_parsed"]),
        ),
        "1",
    );
    r.put(
        "reactor.keepalive_ratio.warm",
        ratio(
            delta(wm, &["connections", "keepalive_requests"]),
            delta(wm, &["reactor", "requests_parsed"]),
        ),
        "1",
    );
    r.put("reactor.parse_us.cold", self_median(&cold_self, "reactor.parse"), "us");
    r.put("reactor.parse_us.warm", self_median(&warm_self, "reactor.parse"), "us");
    r.put("reactor.emit_us.cold", self_median(&cold_self, "reactor.emit"), "us");
    r.put("reactor.emit_us.warm", self_median(&warm_self, "reactor.emit"), "us");
    r.put("request.query_us", self_median(&cold_self, "request.query"), "us");
    r.put("request.json_us", self_median(&cold_self, "request.json"), "us");
    r.put("cache.hit_ratio", ratio(hits, hits + misses), "1");
    r.put("cache.evictions_per_req", delta(cm, &["cache", "evictions"]) / reqs, "1");
    r.put("cache.hit_ratio.warm", ratio(whits, wlookups), "1");
    r.put("cache.get_us", self_median(&cold_self, "cache.get"), "us");
    r.put("cache.put_us", self_median(&cold_self, "cache.put"), "us");
    r.put("batch.points_per_batch", ratio(points, batches), "1");
    r.put("batch.coalesced_ratio", ratio(coalesced, coalesced + points), "1");
    // Batcher::eval minus the same point's direct eval_cell, per miss.
    let overhead = {
        let s = cold_rec.spans();
        let mut d = Vec::new();
        for w in s.windows(2) {
            if w[1].name == "batch.eval" && w[0].name.starts_with("engine.eval.") {
                d.push((w[1].dur_ns() as f64 - w[0].dur_ns() as f64) / 1e3);
            }
        }
        stats::median(&d)
    };
    r.put("batch.overhead_us", overhead, "us");
    for app in AppId::ALL {
        r.put(
            format!("engine.eval_us.{}", app.name()),
            self_median(&cold_self, engine_span(app)),
            "us",
        );
    }
    r.put("engine.evals_per_req", points / reqs, "1");
    r.put("server.encode_us.eval", self_median(&warm_self, "server.encode.eval"), "us");
    r.put("server.encode_us.sweep", self_median(&warm_self, "server.encode.sweep"), "us");
    let body_bytes: f64 = warm.timed.iter().map(|q| warm.expected[q.expect].len() as f64).sum();
    r.put("server.body_bytes_per_req", body_bytes / warm.timed.len().max(1) as f64, "B");
    r.put("server.p50_us.cold", server_p50_cold, "us");
    r.put("server.p99_us.cold", bucket_quantile(&cold_b, 0.99), "us");
    r.put("server.p50_us.warm", server_p50_warm, "us");
    r.put("server.p99_us.warm", bucket_quantile(&warm_b, 0.99), "us");
    r.put("server.outside_us.cold", client_p50_us(&cold_run) - server_p50_cold, "us");
    // The part of the server's own p50 that the pipeline's median self
    // times do not account for (queue wait, wakeups, socket I/O).
    let explained: f64 = [
        "request",
        "reactor.parse",
        "request.query",
        "cache.get",
        "server.encode.eval",
        "reactor.emit",
    ]
    .iter()
    .map(|n| self_median(&cold_self, n))
    .sum();
    r.put("server.unexplained_us.cold", server_p50_cold - explained, "us");
    r.put("pool.rejected_ratio.cold", delta(cm, &["rejected"]) / reqs, "1");
    r.put(
        "pool.rejected_ratio.warm",
        delta(wm, &["rejected"]) / delta(wm, &["requests"]).max(1.0),
        "1",
    );
    r.put("client.rtt_us.cold", stats::median(&cold_run.rtt_us), "us");
    r.put("client.rtt_us.warm", stats::median(&warm_run.rtt_us), "us");
    r.put("router.hop_us", client_p50_us(&warm_run) - server_p50_warm, "us");
    r.put("router.forward_us", self_median(&direct_self, "router.forward"), "us");
    r.put(
        "router.forward_balance",
        ratio(forwarded.iter().cloned().fold(0.0, f64::max), mean_fwd),
        "1",
    );
    r.put("ring.owners_us", self_median(&warm_self, "ring.owners"), "us");
    r.put("router.retries_per_req", delta(wm, &["retries"]) / admitted, "1");
    r.put("router.failovers", delta(wm, &["failovers"]), "count");
    r.put("router.hedges", delta(wm, &["hedges"]), "count");
    r.put("health.down_transitions", down, "count");
    for (app, ms) in cal {
        r.put(format!("probe.calibration_ms.{app}"), ms, "ms");
    }
    r.put("trace.overhead_ratio", ratio(cold_traced + warm_traced, cold_plain + warm_plain), "1");
    r.put(
        "trace.spans",
        (cold_rec.spans().len() + warm_rec.spans().len() + direct_rec.spans().len()) as f64,
        "count",
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_quantile_interpolates_inside_log2_buckets() {
        // 10 samples in [64, 128) µs and 10 in [128, 256) µs.
        let b = [(128.0, 10.0), (256.0, 10.0)];
        assert_eq!(bucket_quantile(&b, 0.5), 128.0);
        assert_eq!(bucket_quantile(&b, 0.25), 64.0 + 64.0 * 5.0 / 10.0);
        assert_eq!(bucket_quantile(&b, 1.0), 256.0);
        assert_eq!(bucket_quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn phase_keys_drop_the_app_prefix() {
        assert_eq!(miniapps::phase_key("fvcam/polar filter FFTs"), "polar_filter_ffts");
        assert_eq!(miniapps::phase_key("kernels/fft bluestein"), "kernels_fft_bluestein");
        assert_eq!(miniapps::phase_key("lbmhd/collide+stream"), "collide_stream");
    }
}
