//! `repro all [dir]` — the one-command artifact pipeline.
//!
//! Regenerates every artifact the suite produces into a single output
//! directory, each stamped with the same [`crate::artifact::Meta`]
//! block, so one invocation yields a directory `repro diff` can compare
//! against any other run:
//!
//! * `TABLE_<tag>.json` — Tables 3–6 as the serve engine's sweep
//!   documents (cell values derived from measured counters; exact).
//! * `CANON_eval.json` — the canonical response bytes for every eval
//!   query in the load workload (the serving determinism contract,
//!   byte for byte; exact).
//! * `PROFILE_<tag>.json` — per-phase calibration captures and derived
//!   workloads (counters exact, span timings ignored).
//! * `BENCH_kernels.json` / `BENCH_apps.json` — harness timings
//!   (names exact, throughput thresholded).
//! * `BENCH_serve.json` / `BENCH_cluster.json` — load tests against an
//!   in-process server and cluster (error counts exact, throughput and
//!   latency thresholded).
//!
//! Sample sizes are tuned for a CI smoke by default and overridable via
//! `HEC_REPRO_SAMPLES` / `HEC_REPRO_SECS` / `HEC_REPRO_CLIENTS` /
//! `HEC_REPRO_REPLICAS` — they are provenance, not configuration, so
//! runs with different sampling still share a `config_hash`.

use hec_core::json::Json;
use hec_serve::engine::{self, AppId};
use hec_serve::request::Point;
use hec_serve::server;

use crate::artifact::{app_tag, Meta, Writer};

/// Default output directory for `repro all`.
pub const DEFAULT_DIR: &str = "artifacts";
/// Default timed samples per harness case (a smoke, not a deep run).
pub const DEFAULT_SAMPLES: usize = 3;
/// Default load-test duration per target, seconds.
pub const DEFAULT_SECS: u64 = 2;
/// Default cluster replicas.
pub const DEFAULT_REPLICAS: usize = 3;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or(default)
}

/// Runs the full pipeline into `dir`.
///
/// # Errors
/// Returns a message naming the stage that failed: directory creation,
/// an infeasible evaluation point, a server that would not start, or a
/// load test that produced error responses.
pub fn run_all(dir: &str) -> Result<(), String> {
    let samples = env_usize("HEC_REPRO_SAMPLES", DEFAULT_SAMPLES);
    let secs = env_usize("HEC_REPRO_SECS", DEFAULT_SECS as usize) as u64;
    let clients = env_usize("HEC_REPRO_CLIENTS", crate::loadgen::DEFAULT_CLIENTS);
    let replicas = env_usize("HEC_REPRO_REPLICAS", DEFAULT_REPLICAS);
    // A fixed seeded rate keeps the arrival schedule identical run to
    // run.
    let open = crate::loadgen::OpenLoop {
        rate_rps: env_usize("HEC_REPRO_RATE", crate::loadgen::DEFAULT_RATE) as f64,
        seed: crate::loadgen::DEFAULT_SEED,
    };

    let meta = Meta::collect(samples, secs, clients, replicas);
    let w = Writer::new(dir, &meta).map_err(|e| format!("cannot create {dir}: {e}"))?;
    println!(
        "repro all -> {dir} (commit {}, {} workers, config {})",
        meta.git_commit, meta.hec_threads, meta.config_hash
    );

    println!("\n== tables (sweep documents, exact) ==");
    let eval = |p: &Point| engine::eval_cell(p.app, p.sel, &p.spec);
    for app in AppId::ALL {
        let doc = Json::parse(&server::sweep_response_body(app, eval))
            .map_err(|e| format!("sweep body for {} is not JSON: {e}", app_tag(app)))?;
        w.write(&format!("TABLE_{}.json", app_tag(app)), [("table", doc)])
            .map_err(|e| format!("cannot write TABLE_{}: {e}", app_tag(app)))?;
    }

    println!("\n== canonical eval responses (byte-exact) ==");
    let responses: Vec<Json> = crate::loadgen::eval_queries()
        .into_iter()
        .map(|q| {
            let point = Point::from_query(&q)
                .map_err(|e| format!("canonical query '{q}' is invalid: {e:?}"))?;
            let body = server::point_response_body(
                &point,
                engine::eval_cell(point.app, point.sel, &point.spec),
            );
            Ok(Json::obj([("query", Json::Str(q)), ("body", Json::Str(body))]))
        })
        .collect::<Result<_, String>>()?;
    w.write("CANON_eval.json", [("responses", Json::Arr(responses))])
        .map_err(|e| format!("cannot write CANON_eval.json: {e}"))?;

    println!("\n== profiles (counters exact, timings ignored) ==");
    crate::profile::run_into(&w);

    println!("== harness ({samples} samples; throughput thresholded) ==");
    crate::harness::run_into(&w, samples);

    println!("\n== serve load test ({secs}s x {clients} clients) ==");
    let cfg = server::ServeConfig::from_env(0);
    let srv = server::start(cfg).map_err(|e| format!("cannot start hec-serve: {e}"))?;
    let errors =
        crate::loadgen::run_into(&w, &format!("http://{}", srv.addr()), secs, clients, open);
    srv.shutdown();
    srv.join();
    if errors > 0 {
        return Err(format!("serve load test saw {errors} error responses"));
    }

    println!("\n== cluster load test ({replicas} replicas, {secs}s x {clients} clients) ==");
    let mut cfg = hec_cluster::ClusterConfig::from_env(replicas, 0);
    // The cluster phase exercises elasticity deterministically: two
    // seeded stall bursts push the inter-tick p99 over the autoscaler's
    // threshold (one scale-up), the calm remainder of the run drains it
    // back (one scale-down), and min/max pin the decisions to exactly
    // +1/−1 so `repro diff` can gate them bit-for-bit. Router workers
    // are pinned to 2 — not `HEC_CLUSTER_WORKERS` — because the queue
    // and latency signals the autoscaler samples must not depend on
    // the host's core count.
    cfg.workers = 2;
    cfg.autoscale = Some(hec_cluster::AutoscaleConfig::bounded(replicas, replicas + 1));
    cfg.faults = hec_cluster::FaultPlan::with(
        [40u64, 41, 52, 53]
            .into_iter()
            .map(|at| hec_cluster::FaultEvent {
                at_request: at,
                replica: 0,
                kind: hec_cluster::FaultKind::StallMs(250),
            })
            .collect(),
    );
    let cluster = hec_cluster::start(cfg).map_err(|e| format!("cannot start hec-cluster: {e}"))?;
    let errors =
        crate::loadgen::run_into(&w, &format!("http://{}", cluster.addr()), secs, clients, open);
    cluster.shutdown();
    cluster.join();
    if errors > 0 {
        return Err(format!("cluster load test saw {errors} error responses"));
    }

    println!("\nrepro all: artifacts complete in {dir}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_canonical_query_evaluates_to_a_feasible_point() {
        // run_all snapshots these bodies as the byte-exact contract;
        // every query must resolve to a real cell, not a null body.
        for q in crate::loadgen::eval_queries() {
            let p = Point::from_query(&q).unwrap();
            assert!(
                engine::eval_cell(p.app, p.sel, &p.spec).is_some(),
                "canonical query '{q}' is infeasible"
            );
        }
    }

    #[test]
    fn table_artifacts_cover_all_four_apps() {
        let tags: Vec<&str> = AppId::ALL.iter().map(|&a| app_tag(a)).collect();
        assert_eq!(tags, ["fvcam", "gtc", "lbmhd3d", "paratec"]);
    }

    #[test]
    fn env_knobs_reject_zero_and_garbage() {
        assert_eq!(env_usize("HEC_REPRO_NO_SUCH_VAR", 7), 7);
    }
}
