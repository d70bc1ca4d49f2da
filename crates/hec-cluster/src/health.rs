//! Replica health: probed state, transition counters, and the checker.
//!
//! Each replica has one bit of probed state (up/down) plus transition
//! counters, updated from two directions: a background checker thread
//! probes every replica's `/healthz` endpoint with a timeout on a fixed
//! interval (a liveness check needs an answer, not the full `/metrics`
//! document), and the router marks replicas down *reactively* the moment
//! a forward fails (waiting a full probe interval to notice a dead
//! primary would turn every failover into a timeout). Both paths go
//! through [`Health::mark`], which counts each up↔down transition —
//! the cluster `/metrics` document exposes those counts, and the e2e
//! suite asserts the down-then-up sequence around a kill/restart.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hec_core::sync::Mutex;
use hec_serve::client;

use crate::replica::ReplicaSet;

/// Health-checker tuning.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Delay between probe sweeps.
    pub interval: Duration,
    /// Per-probe connect/read timeout.
    pub probe_timeout: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            interval: Duration::from_millis(100),
            probe_timeout: Duration::from_millis(500),
        }
    }
}

struct ReplicaHealth {
    up: AtomicBool,
    /// Retired members are out of the ring for good: probes skip them,
    /// marks ignore them, and their transition counters freeze — a
    /// drained replica must not accumulate down-transitions forever.
    retired: AtomicBool,
    /// Bumped on every *reactive* observation (router failure, admin
    /// kill/restart). A background probe snapshots this before its
    /// network round trip and its result is dropped if the stamp moved
    /// meanwhile — otherwise a probe that connected just before a kill
    /// would land after the kill's mark and flip the replica back up.
    reactive_stamp: AtomicU64,
    down_transitions: AtomicU64,
    up_transitions: AtomicU64,
}

impl ReplicaHealth {
    fn fresh() -> ReplicaHealth {
        ReplicaHealth {
            up: AtomicBool::new(true),
            retired: AtomicBool::new(false),
            reactive_stamp: AtomicU64::new(0),
            down_transitions: AtomicU64::new(0),
            up_transitions: AtomicU64::new(0),
        }
    }

    fn record(&self, up: bool) -> bool {
        let changed = self.up.swap(up, Ordering::SeqCst) != up;
        if changed {
            if up {
                self.up_transitions.fetch_add(1, Ordering::Relaxed);
            } else {
                self.down_transitions.fetch_add(1, Ordering::Relaxed);
            }
        }
        changed
    }
}

/// Up/down state and transition counts for every replica slot. The set
/// grows with [`Health::add`] (elastic scale-up) and individual slots
/// retire with [`Health::retire`]; slot IDs mirror the replica set's.
pub struct Health {
    replicas: Mutex<Vec<Arc<ReplicaHealth>>>,
}

impl Health {
    /// All replicas start marked up (they were just started).
    pub fn new(n: usize) -> Health {
        Health { replicas: Mutex::new((0..n).map(|_| Arc::new(ReplicaHealth::fresh())).collect()) }
    }

    fn slot(&self, i: usize) -> Option<Arc<ReplicaHealth>> {
        self.replicas.lock().get(i).cloned()
    }

    /// Total slots ever tracked (current and retired).
    pub fn len(&self) -> usize {
        self.replicas.lock().len()
    }

    /// Tracks one more replica, marked up. Returns its slot ID.
    pub fn add(&self) -> usize {
        let mut g = self.replicas.lock();
        g.push(Arc::new(ReplicaHealth::fresh()));
        g.len() - 1
    }

    /// Retires replica `i`: it reads down, stops being probed, and its
    /// transition counters freeze (retirement itself is not counted as
    /// a down transition — the replica didn't fail, it left).
    pub fn retire(&self, i: usize) {
        if let Some(r) = self.slot(i) {
            r.retired.store(true, Ordering::SeqCst);
            r.up.store(false, Ordering::SeqCst);
        }
    }

    /// True when replica `i` has been retired.
    pub fn is_retired(&self, i: usize) -> bool {
        self.slot(i).map(|r| r.retired.load(Ordering::SeqCst)).unwrap_or(false)
    }

    /// True when replica `i` is currently believed up.
    pub fn is_up(&self, i: usize) -> bool {
        self.slot(i).map(|r| r.up.load(Ordering::SeqCst)).unwrap_or(false)
    }

    /// Records a *reactive* observation of replica `i` (a forward that
    /// failed or succeeded, an admin kill/restart); counts the
    /// transition when the state actually changed and invalidates any
    /// probe currently in flight. Returns true on a state change.
    /// Observations of retired replicas are dropped.
    pub fn mark(&self, i: usize, up: bool) -> bool {
        let Some(r) = self.slot(i) else { return false };
        if r.retired.load(Ordering::SeqCst) {
            return false;
        }
        r.reactive_stamp.fetch_add(1, Ordering::SeqCst);
        r.record(up)
    }

    /// The stamp a probe must snapshot before its round trip; pass it
    /// back to [`Health::mark_probed`].
    pub fn probe_stamp(&self, i: usize) -> u64 {
        self.slot(i).map(|r| r.reactive_stamp.load(Ordering::SeqCst)).unwrap_or(0)
    }

    /// Records a background-probe observation taken under `stamp`. The
    /// result is dropped when any reactive mark landed since the stamp
    /// was read — the probe's evidence predates it and must not win.
    pub fn mark_probed(&self, i: usize, up: bool, stamp: u64) -> bool {
        let Some(r) = self.slot(i) else { return false };
        if r.retired.load(Ordering::SeqCst) || r.reactive_stamp.load(Ordering::SeqCst) != stamp {
            return false;
        }
        r.record(up)
    }

    /// Up→down transitions observed for replica `i`.
    pub fn down_transitions(&self, i: usize) -> u64 {
        self.slot(i).map(|r| r.down_transitions.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Down→up transitions observed for replica `i`.
    pub fn up_transitions(&self, i: usize) -> u64 {
        self.slot(i).map(|r| r.up_transitions.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Number of current (non-retired) replicas believed up.
    pub fn up_count(&self) -> usize {
        let slots: Vec<Arc<ReplicaHealth>> = self.replicas.lock().clone();
        slots
            .iter()
            .filter(|r| !r.retired.load(Ordering::SeqCst) && r.up.load(Ordering::SeqCst))
            .count()
    }

    /// Number of current (non-retired) replicas, up or down.
    pub fn current_count(&self) -> usize {
        let slots: Vec<Arc<ReplicaHealth>> = self.replicas.lock().clone();
        slots.iter().filter(|r| !r.retired.load(Ordering::SeqCst)).count()
    }
}

/// Probes one replica: a `/healthz` GET within the timeout counts as up.
/// A down slot (no address) is down without a network round trip.
pub fn probe(replicas: &ReplicaSet, i: usize, timeout: Duration) -> bool {
    match replicas.addr(i) {
        None => false,
        Some(addr) => client::http_get_timeout(&format!("http://{addr}/healthz"), timeout)
            .map(|r| r.status == 200)
            .unwrap_or(false),
    }
}

/// Spawns the background checker: sweeps every current replica each
/// `interval` until `stop` is set, feeding observations through
/// [`Health::mark`]. The sweep re-reads the slot count every pass, so
/// replicas added mid-run are picked up and retired ones are skipped.
pub fn spawn_checker(
    replicas: Arc<ReplicaSet>,
    health: Arc<Health>,
    stop: Arc<AtomicBool>,
    cfg: HealthConfig,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            for i in 0..health.len() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                if health.is_retired(i) {
                    continue;
                }
                let stamp = health.probe_stamp(i);
                let up = probe(&replicas, i, cfg.probe_timeout);
                health.mark_probed(i, up, stamp);
            }
            std::thread::sleep(cfg.interval);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_serve::server::ServeConfig;

    #[test]
    fn transitions_count_only_state_changes() {
        let h = Health::new(2);
        assert!(h.is_up(0));
        assert!(!h.mark(0, true), "up→up is not a transition");
        assert!(h.mark(0, false));
        assert!(!h.mark(0, false));
        assert!(h.mark(0, true));
        assert_eq!(h.down_transitions(0), 1);
        assert_eq!(h.up_transitions(0), 1);
        assert_eq!(h.down_transitions(1), 0);
        assert_eq!(h.up_count(), 2);
    }

    #[test]
    fn retired_replicas_freeze_their_counters_and_leave_the_counts() {
        let h = Health::new(3);
        assert!(h.mark(2, false));
        assert!(h.mark(2, true));
        h.retire(2);
        assert!(h.is_retired(2));
        assert!(!h.is_up(2));
        // Marks after retirement are dropped; counters stay frozen.
        assert!(!h.mark(2, false));
        assert!(!h.mark(2, true));
        assert_eq!(h.down_transitions(2), 1);
        assert_eq!(h.up_transitions(2), 1);
        assert_eq!(h.up_count(), 2);
        assert_eq!(h.current_count(), 2);
        assert_eq!(h.len(), 3, "retired slots keep their ID");
    }

    #[test]
    fn stale_probe_results_cannot_overwrite_a_reactive_mark() {
        let h = Health::new(1);
        // A probe snapshots its stamp, then an admin kill lands while
        // the probe's round trip is in flight: the probe's "up" verdict
        // is stale evidence and must be dropped.
        let stamp = h.probe_stamp(0);
        assert!(h.mark(0, false), "kill marks the replica down");
        assert!(!h.mark_probed(0, true, stamp), "stale probe is dropped");
        assert!(!h.is_up(0));
        assert_eq!(h.up_transitions(0), 0);
        // A probe taken under the current stamp still lands.
        let fresh = h.probe_stamp(0);
        assert!(h.mark_probed(0, true, fresh));
        assert!(h.is_up(0));
    }

    #[test]
    fn add_tracks_a_new_replica_marked_up() {
        let h = Health::new(1);
        assert_eq!(h.add(), 1);
        assert_eq!(h.add(), 2);
        assert!(h.is_up(1) && h.is_up(2));
        assert_eq!(h.up_count(), 3);
        assert_eq!(h.current_count(), 3);
    }

    #[test]
    fn probe_tracks_replica_liveness() {
        let set =
            ReplicaSet::start(1, ServeConfig { port: 0, workers: 1, queue: 8, cache_capacity: 64 })
                .unwrap();
        let timeout = Duration::from_millis(500);
        assert!(probe(&set, 0, timeout));
        set.kill(0);
        assert!(!probe(&set, 0, timeout));
        assert!(!probe(&set, 7, timeout), "out-of-range replica is down");
        set.shutdown_all();
    }
}
