//! End-to-end tests for the cluster tier (ISSUE 5): a real router over
//! real replicas, and the three contracts — (i) killing a replica
//! mid-load is invisible: zero failed requests and byte-identical
//! responses, (ii) a seeded fault plan (kills, stalls, dropped
//! connections, slow replies) never surfaces an error or changes a
//! byte, (iii) the router's `/metrics` document records the down→up
//! transition of a killed-then-restarted replica.

use std::sync::Arc;
use std::time::Duration;

use hec_cluster::{ClusterConfig, FaultPlan, HealthConfig, RetryPolicy};
use hec_core::json::Json;
use hec_serve::client;
use hec_serve::request::Point;
use hec_serve::server::{self, ServeConfig};

fn cluster_cfg(replicas: usize, faults: FaultPlan) -> ClusterConfig {
    ClusterConfig {
        replicas,
        replica: ServeConfig { port: 0, workers: 2, queue: 32, cache_capacity: 512 },
        retry: RetryPolicy {
            base_ms: 5,
            cap_ms: 50,
            max_retries: 4,
            timeout: Duration::from_secs(10),
        },
        health: HealthConfig {
            interval: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(300),
        },
        faults,
        ..ClusterConfig::default()
    }
}

/// The byte-identity workload: eval queries spanning all four apps,
/// paired with the body the single-process engine produces for them.
fn expected_bodies() -> Vec<(String, String)> {
    [
        "app=gtc&platform=x1msp&procs=256",
        "app=gtc&platform=4ssp&procs=512",
        "app=lbmhd&platform=es&procs=1024&n=1024",
        "app=lbmhd&platform=sx8&procs=512&n=512",
        "app=paratec&platform=power3&procs=128",
        "app=paratec&platform=es&procs=512",
        "app=fvcam&platform=power3&procs=256&pz=4",
        "app=fvcam&platform=x1msp&procs=336&pz=7",
    ]
    .into_iter()
    .map(|q| {
        let p = Point::from_query(q).expect(q);
        (q.to_string(), server::point_response_body(&p, p.eval()))
    })
    .collect()
}

fn metric(base: &str, path: &[&str]) -> f64 {
    let body = client::http_get(&format!("{base}/metrics")).unwrap().body;
    let doc = Json::parse(&body).unwrap();
    let mut v = &doc;
    for p in path {
        v = v.get(p).unwrap_or_else(|| panic!("missing /metrics field {path:?}"));
    }
    v.as_f64().unwrap()
}

fn replica_field(base: &str, i: usize, field: &str) -> Json {
    let body = client::http_get(&format!("{base}/metrics")).unwrap().body;
    let doc = Json::parse(&body).unwrap();
    let arr = match doc.get("cluster").and_then(|c| c.get("replicas")) {
        Some(Json::Arr(v)) => v.clone(),
        other => panic!("cluster.replicas missing: {other:?}"),
    };
    arr[i].get(field).cloned().unwrap_or(Json::Null)
}

/// (i) Kill one replica while concurrent clients are mid-load: every
/// request still succeeds with the exact single-process bytes, and the
/// router records failovers and the down transition.
#[test]
fn killing_a_replica_mid_load_loses_nothing_and_changes_no_bytes() {
    let c = hec_cluster::start(cluster_cfg(3, FaultPlan::none())).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = Arc::new(expected_bodies());
    // Kill the replica that primaries the first workload key, so
    // requests for that key *must* fail over after the kill.
    let ring = hec_cluster::Ring::new(3, hec_cluster::DEFAULT_VNODES, 2);
    let victim = ring.primary(&Point::from_query(&cases[0].0).unwrap().canonical_key());

    // Clients re-request the workload until told to stop; the kill
    // lands while they are in flight, and they keep going afterwards so
    // post-kill traffic is guaranteed. Each request is sent once: the
    // router's failover alone must absorb the kill.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let (base, cases, stop) = (base.clone(), Arc::clone(&cases), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut failures = 0u64;
                let mut round = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for (query, want) in cases.iter() {
                        match client::http_get(&format!("{base}/eval?{query}")) {
                            Ok(r) if r.status == 200 => {
                                assert_eq!(
                                    r.body, *want,
                                    "bytes drifted for {query} (thread {t}, round {round})"
                                );
                            }
                            _ => failures += 1,
                        }
                    }
                    round += 1;
                }
                failures
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));
    assert!(c.kill_replica(victim), "replica {victim} should have been up");
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);

    let failures: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(failures, 0, "a kill under replication must lose zero requests");
    assert!(
        metric(&base, &["failovers"]) >= 1.0,
        "the router must have failed over off the dead replica"
    );
    assert_eq!(replica_field(&base, victim, "up"), Json::Bool(false));
    assert!(replica_field(&base, victim, "down_transitions").as_f64().unwrap() >= 1.0);
    assert_eq!(metric(&base, &["cluster", "up"]), 2.0);
    c.shutdown();
    c.join();
}

/// (ii) A seeded fault plan — stalls, dropped connections, slow
/// replies, and at most R−1 kills — injects its whole schedule without
/// one failed request or one changed byte. Same seed, same schedule.
#[test]
fn seeded_fault_plan_preserves_bytes_and_loses_nothing() {
    let plan = FaultPlan::seeded(42, 3, 2, 12, 40);
    assert!(!plan.is_empty());
    let c = hec_cluster::start(cluster_cfg(3, plan)).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = expected_bodies();

    // Sequential requests: admitted-request indices advance 0,1,2,… so
    // the plan's horizon (40) is fully crossed and every event fires.
    for i in 0..56u64 {
        let (query, want) = &cases[(i as usize) % cases.len()];
        let r = client::http_get(&format!("{base}/eval?{query}"))
            .unwrap_or_else(|e| panic!("request {i} ({query}) failed in transport: {e}"));
        assert_eq!(r.status, 200, "request {i} ({query}) -> {}", r.status);
        assert_eq!(r.body, *want, "request {i}: bytes drifted under faults");
    }
    assert_eq!(
        metric(&base, &["faults", "remaining"]),
        0.0,
        "the whole fault schedule must have fired"
    );
    assert!(metric(&base, &["faults", "injected"]) >= 12.0);
    c.shutdown();
    c.join();
}

/// (iii) `/metrics` records the full down→up lifecycle around an admin
/// kill and restart, and restarted replicas serve identical bytes.
#[test]
fn metrics_record_the_down_then_up_transition() {
    let c = hec_cluster::start(cluster_cfg(2, FaultPlan::none())).unwrap();
    let base = format!("http://{}", c.addr());
    assert_eq!(metric(&base, &["cluster", "up"]), 2.0);

    let killed = client::http_post(&format!("{base}/admin/kill?replica=1"), "").unwrap();
    assert_eq!(killed.status, 200);
    assert_eq!(replica_field(&base, 1, "up"), Json::Bool(false));
    assert_eq!(replica_field(&base, 1, "down_transitions").as_f64().unwrap(), 1.0);
    assert_eq!(metric(&base, &["cluster", "up"]), 1.0);

    // Still serving through the survivor, bytes intact.
    let (query, want) = &expected_bodies()[0];
    let r = client::http_get(&format!("{base}/eval?{query}")).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body, *want);

    let revived = client::http_post(&format!("{base}/admin/restart?replica=1"), "").unwrap();
    assert_eq!(revived.status, 200);
    assert_eq!(replica_field(&base, 1, "up"), Json::Bool(true));
    assert_eq!(replica_field(&base, 1, "up_transitions").as_f64().unwrap(), 1.0);
    assert_eq!(metric(&base, &["cluster", "up"]), 2.0);

    // The restarted replica answers directly with the same bytes.
    let addr = c.replica_addr(1).expect("replica 1 restarted");
    let direct = client::http_get(&format!("http://{addr}/eval?{query}")).unwrap();
    assert_eq!(direct.body, *want, "restarted replica must serve identical bytes");
    c.shutdown();
    c.join();
}

/// Each in-process replica's own `/metrics` counts only the requests that
/// reached it: at least everything the router forwarded to it, and beyond
/// that only health probes, rejections, and the two reads in flight (this
/// `/metrics` read and one health probe).
#[test]
fn each_replica_counts_only_its_own_requests() {
    let c = hec_cluster::start(cluster_cfg(3, FaultPlan::none())).unwrap();
    let base = format!("http://{}", c.addr());
    let cases = Arc::new(expected_bodies());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let (base, cases) = (base.clone(), Arc::clone(&cases));
            std::thread::spawn(move || {
                for _ in 0..2 {
                    for (query, want) in cases.iter() {
                        let r = client::http_get(&format!("{base}/eval?{query}")).unwrap();
                        assert_eq!((r.status, &r.body), (200, want), "{query}");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let router = Json::parse(&client::http_get(&format!("{base}/metrics")).unwrap().body).unwrap();
    let Some(Json::Arr(replicas)) = router.get("cluster").and_then(|c| c.get("replicas")) else {
        panic!("cluster.replicas missing");
    };
    assert_eq!(replicas.len(), 3);
    let mut forwarded_total = 0.0;
    for (i, rep) in replicas.iter().enumerate() {
        let num = |doc: &Json, path: &[&str]| {
            path.iter().fold(doc, |v, p| v.get(p).unwrap_or_else(|| panic!("{path:?}"))).as_f64()
        };
        let forwarded = num(rep, &["forwarded"]).unwrap();
        let addr = rep.get("addr").and_then(|a| a.as_str()).unwrap();
        let own = Json::parse(&client::http_get(&format!("http://{addr}/metrics")).unwrap().body)
            .unwrap();
        let requests = num(&own, &["requests"]).unwrap();
        assert_eq!(num(&own, &["meters", "serve.requests"]), Some(requests), "replica {i}");
        let other = num(&own, &["latency", "other", "count"]).unwrap();
        let rejected = num(&own, &["rejected"]).unwrap();
        assert!(
            forwarded <= requests && requests <= forwarded + other + rejected + 2.0,
            "replica {i}: forwarded {forwarded}, requests {requests}, other {other}, \
             rejected {rejected}"
        );
        forwarded_total += forwarded;
    }
    assert_eq!(forwarded_total, (4 * 2 * cases.len()) as f64, "every request forwarded once");
    c.shutdown();
    c.join();
}

/// The ring assigns every key R distinct owners, so any single kill
/// leaves a live owner — checked against the routed workload itself.
#[test]
fn every_workload_key_survives_any_single_kill() {
    let ring = hec_cluster::Ring::new(3, hec_cluster::DEFAULT_VNODES, 2);
    for (query, _) in expected_bodies() {
        let p = Point::from_query(&query).unwrap();
        let owners = ring.owners(&p.canonical_key());
        assert_eq!(owners.len(), 2);
        assert_ne!(owners[0], owners[1], "{query} must have two distinct owners");
    }
}
