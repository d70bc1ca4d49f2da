//! End-to-end checks of the benchmark itself.

use perfbench::{expected, gen, http, load};

/// A short run whose expected bytes were corrupted must report
/// `"correct": false` and exit nonzero.
#[test]
fn a_corrupted_expected_body_fails_the_run() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "cluster_warm", "--seed", "3", "--seconds", "1", "--trace", "0"])
        .arg("--corrupt-expected")
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success(), "a mismatch must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.contains("\"correct\": false"), "{last}");
    let doc = hec_core::json::Json::parse(last).expect("result line is JSON");
    assert!(doc.get("failed").and_then(|f| f.as_f64()).unwrap_or(0.0) >= 1.0);
}

/// Per-instance counters add up: every admitted request is forwarded to
/// exactly one replica, so the replicas' `forwarded` sum to `admitted`.
#[test]
fn replica_forwards_sum_to_router_admissions() {
    let cluster = hec_cluster::start(hec_cluster::ClusterConfig::from_env(3, 0)).unwrap();
    let reqs = gen::warm_requests(11, 2, 300);
    let want = expected::warm_expected();
    let out = load::drive(cluster.addr(), &reqs, None, &want, 2);
    assert!(out.iter().all(|o| o.ok), "every response matches its expected bytes");
    let doc = http::get_json(cluster.addr(), "/metrics").unwrap();
    let admitted = doc.get("admitted").and_then(|a| a.as_f64()).unwrap();
    let replicas = doc.get("cluster").and_then(|c| c.get("replicas")).and_then(|r| r.as_arr());
    let forwarded: f64 = replicas
        .unwrap()
        .iter()
        .map(|r| r.get("forwarded").and_then(|f| f.as_f64()).unwrap())
        .sum();
    assert_eq!(admitted, 300.0);
    assert_eq!(forwarded, admitted);
    cluster.shutdown();
    cluster.join();
}
