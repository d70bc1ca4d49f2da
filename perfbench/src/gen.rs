//! Workload inputs, generated from the seed alone.
//!
//! * `serve_cold`: a Poisson stream of `/eval` points drawn uniformly from
//!   a fixed universe — 4 apps × 9 platform selectors × 131 processor
//!   counts (16…16384) × FVCAM `pz` / LBMHD `n` variants — several times
//!   larger than the server's 4096-entry cache, so the cache evicts at
//!   steady state. About a quarter of the requests are `POST /eval` JSON
//!   spelt with display names, the rest `GET` query strings.
//! * `cluster_warm`: the canonical repeated mix of `bench::loadgen` (18
//!   `/eval` points and one `/sweep` per app), drawn uniformly.
//!
//! The arrival schedule is `bench::loadgen::arrival_offsets_ns`, the same
//! seeded exponential inter-arrival draw the repository's load generator
//! uses. The program under test only ever sees the generated requests.

use hec_arch::PlatformId;
use hec_core::rng::Rng;
use hec_serve::engine::{AppId, PlatformSel, PointSpec};
use hec_serve::request::Point;

/// The server's default cache capacity (`ServeConfig::from_env`).
pub const CACHE_CAPACITY: usize = 4096;
/// Distinct cold points per cache entry, at least.
pub const COLD_FACTOR: usize = 4;
/// Share of cold requests sent as `POST /eval` JSON.
pub const POST_SHARE: f64 = 0.25;

/// Request kind, for per-class accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// One `/eval` point.
    Eval,
    /// One `/sweep` of an app's table rows.
    Sweep,
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET` or `POST`.
    pub post: bool,
    /// Path and query.
    pub target: String,
    /// Request body (empty for GET).
    pub body: String,
    /// Index of the expected response body (the universe or mix entry).
    pub expect: usize,
    /// Eval or sweep.
    pub class: Class,
}

impl Request {
    /// The exact bytes sent on a keep-alive connection.
    pub fn wire(&self) -> Vec<u8> {
        format!(
            "{} {} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{}",
            if self.post { "POST" } else { "GET" },
            self.target,
            self.body.len(),
            self.body
        )
        .into_bytes()
    }
}

/// The nine platform selectors a point can name.
pub fn selectors() -> Vec<PlatformSel> {
    let mut v: Vec<PlatformSel> = [
        PlatformId::Power3,
        PlatformId::Itanium2,
        PlatformId::Opteron,
        PlatformId::X1Msp,
        PlatformId::X1Ssp,
        PlatformId::X1e,
        PlatformId::Es,
        PlatformId::Sx8,
    ]
    .into_iter()
    .map(PlatformSel::Direct)
    .collect();
    v.push(PlatformSel::Agg4Ssp);
    v
}

/// Processor counts of the cold universe: every multiple of 16 up to
/// 2048, then 4096, 8192 and 16384.
pub fn cold_procs() -> Vec<usize> {
    (1..=128).map(|k| 16 * k).chain([4096, 8192, 16384]).collect()
}

/// FVCAM vertical decompositions in the cold universe.
pub const FVCAM_PZ: [usize; 4] = [1, 2, 4, 7];
/// LBMHD grid edges in the cold universe.
pub const LBMHD_N: [usize; 8] = [64, 96, 128, 192, 256, 384, 512, 1024];

/// Every distinct point of the cold workload, in a fixed order.
pub fn cold_universe() -> Vec<Point> {
    let mut out = Vec::new();
    for app in AppId::ALL {
        for sel in selectors() {
            for procs in cold_procs() {
                let base = PointSpec::procs(procs);
                match app {
                    AppId::Fvcam => out.extend(FVCAM_PZ.iter().map(|&pz| Point {
                        app,
                        sel,
                        spec: PointSpec { pz: Some(pz), ..base },
                    })),
                    AppId::Lbmhd => out.extend(LBMHD_N.iter().map(|&n| Point {
                        app,
                        sel,
                        spec: PointSpec { n: Some(n), ..base },
                    })),
                    AppId::Gtc | AppId::Paratec => out.push(Point { app, sel, spec: base }),
                }
            }
        }
    }
    out
}

/// The `GET /eval` query spelling of a point (canonical tokens).
pub fn query_of(p: &Point) -> String {
    let mut q = format!("app={}&platform={}&procs={}", p.app.name(), p.sel.token(), p.spec.procs);
    if let Some(pz) = p.spec.pz {
        q.push_str(&format!("&pz={pz}"));
    }
    if let Some(n) = p.spec.n {
        q.push_str(&format!("&n={n}"));
    }
    q
}

/// The `POST /eval` JSON spelling of a point (display names, fields in
/// another order), which must canonicalize to the same point.
pub fn json_of(p: &Point) -> String {
    let mut f = format!(
        "{{\"procs\":{},\"platform\":\"{}\",\"app\":\"{}\"",
        p.spec.procs,
        p.sel.label(),
        p.app.name().to_ascii_uppercase()
    );
    if let Some(pz) = p.spec.pz {
        f.push_str(&format!(",\"pz\":{pz}"));
    }
    if let Some(n) = p.spec.n {
        f.push_str(&format!(",\"n\":{n}"));
    }
    f.push('}');
    f
}

/// Seed of an independent stream derived from the workload seed.
fn substream(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// `count` cold requests from stream `stream` of `seed`, over `universe`.
pub fn cold_requests(universe: &[Point], seed: u64, stream: u64, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(substream(seed, stream));
    (0..count)
        .map(|_| {
            let idx = rng.below(universe.len());
            let p = &universe[idx];
            let post = rng.uniform() < POST_SHARE;
            if post {
                Request {
                    post,
                    target: "/eval".into(),
                    body: json_of(p),
                    expect: idx,
                    class: Class::Eval,
                }
            } else {
                Request {
                    post,
                    target: format!("/eval?{}", query_of(p)),
                    body: String::new(),
                    expect: idx,
                    class: Class::Eval,
                }
            }
        })
        .collect()
}

/// The warm mix: `bench::loadgen`'s canonical `/eval` queries, then one
/// `/sweep` per app. Entry `i`'s expected body is entry `i` of
/// [`warm_expected`](crate::expected::warm_expected).
pub fn warm_mix() -> Vec<Request> {
    let mut mix: Vec<Request> = bench::loadgen::eval_queries()
        .into_iter()
        .enumerate()
        .map(|(i, q)| Request {
            post: false,
            target: format!("/eval?{q}"),
            body: String::new(),
            expect: i,
            class: Class::Eval,
        })
        .collect();
    for app in AppId::ALL {
        let i = mix.len();
        mix.push(Request {
            post: false,
            target: format!("/sweep?app={}", app.name()),
            body: String::new(),
            expect: i,
            class: Class::Sweep,
        });
    }
    mix
}

/// `count` warm requests from stream `stream` of `seed`.
pub fn warm_requests(seed: u64, stream: u64, count: usize) -> Vec<Request> {
    let mix = warm_mix();
    let mut rng = Rng::new(substream(seed, stream));
    (0..count).map(|_| mix[rng.below(mix.len())].clone()).collect()
}

/// The open-loop arrival offsets (ns from the start of the timed phase).
pub fn schedule(seed: u64, rate_rps: f64, secs: u64) -> Vec<u64> {
    bench::loadgen::arrival_offsets_ns(substream(seed, 1), rate_rps, secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn cold_generator_is_deterministic_in_its_seed() {
        let u = cold_universe();
        let a = cold_requests(&u, 42, 2, 500);
        let b = cold_requests(&u, 42, 2, 500);
        let c = cold_requests(&u, 43, 2, 500);
        let key = |v: &[Request]| v.iter().map(|r| r.wire()).collect::<Vec<_>>();
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        assert_eq!(schedule(42, 1000.0, 2), schedule(42, 1000.0, 2));
        assert_ne!(schedule(42, 1000.0, 2), schedule(43, 1000.0, 2));
        let posts = a.iter().filter(|r| r.post).count() as f64 / a.len() as f64;
        assert!((posts - POST_SHARE).abs() < 0.07, "post share {posts}");
    }

    #[test]
    fn every_generated_request_canonicalizes_to_its_point() {
        let u = cold_universe();
        for (i, p) in u.iter().enumerate() {
            let q = Point::from_query(&query_of(p)).expect("query canonicalizes");
            let j = Point::from_json_text(&json_of(p)).expect("json canonicalizes");
            assert_eq!(q, *p, "query spelling of #{i}");
            assert_eq!(j, *p, "json spelling of #{i}");
        }
        for r in cold_requests(&u, 7, 2, 2000) {
            let p = if r.post {
                Point::from_json_text(&r.body)
            } else {
                Point::from_query(r.target.trim_start_matches("/eval?"))
            };
            assert_eq!(p.expect("canonicalizes"), u[r.expect]);
        }
        for r in warm_mix().iter().filter(|r| r.class == Class::Eval) {
            assert!(Point::from_query(r.target.trim_start_matches("/eval?")).is_ok());
        }
    }

    #[test]
    fn distinct_cold_points_exceed_the_cache_by_the_stated_factor() {
        let u = cold_universe();
        let keys: HashSet<String> = u.iter().map(Point::canonical_key).collect();
        assert_eq!(keys.len(), u.len(), "universe points are distinct");
        assert!(
            keys.len() >= COLD_FACTOR * CACHE_CAPACITY,
            "{} distinct points < {COLD_FACTOR} × {CACHE_CAPACITY}",
            keys.len()
        );
    }

    #[test]
    fn warm_mix_is_the_canonical_repeated_mix() {
        let mix = warm_mix();
        assert_eq!(mix.len(), bench::loadgen::eval_queries().len() + 4);
        assert_eq!(mix.iter().filter(|r| r.class == Class::Sweep).count(), 4);
        assert_eq!(mix.iter().filter(|r| r.class == Class::Eval).count(), 18);
    }
}
