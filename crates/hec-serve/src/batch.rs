//! Micro-batching of concurrent cache misses, leader/follower style.
//!
//! When several workers miss the cache at once for the same application,
//! evaluating each point independently wastes work twice over: identical
//! points would run the model repeatedly, and distinct points for the
//! same app would each pay the app's calibration-capture lookup. Here
//! the first misser of an app becomes the *leader*: it drains every
//! pending point for that app (deduplicated by canonical key) and
//! evaluates them as one batch while followers wait on a condvar. A
//! point is evaluated exactly once no matter how many requests wait on
//! it, and the result each waiter sees is the same [`Option<Cell>`] the
//! cache will serve later — the determinism contract doesn't care which
//! path answered.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use hec_core::sync::{Condvar, Mutex};

use crate::engine::{AppId, Cell};
use crate::request::Point;

struct Pending {
    point: Point,
    done: bool,
    result: Option<Cell>,
    /// Requests still interested in this entry (for cleanup).
    waiters: usize,
}

#[derive(Default)]
struct AppQueue {
    pending: HashMap<String, Pending>,
    leader_active: bool,
}

struct AppBatch {
    state: Mutex<AppQueue>,
    cv: Condvar,
}

/// This batcher's running totals (see [`Batcher::counts`]).
#[derive(Clone, Copy, Debug)]
pub struct BatchCounts {
    /// Batches a leader evaluated.
    pub batches: u64,
    /// Points evaluated across those batches.
    pub points: u64,
    /// Requests that rode along on a point already pending.
    pub coalesced: u64,
}

/// Per-application leader/follower batcher.
pub struct Batcher {
    apps: [AppBatch; 4],
    batches: AtomicU64,
    points: AtomicU64,
    coalesced: AtomicU64,
}

impl Default for Batcher {
    fn default() -> Self {
        Batcher::new()
    }
}

impl Batcher {
    /// A batcher with one queue per application.
    pub fn new() -> Batcher {
        Batcher {
            apps: std::array::from_fn(|_| AppBatch {
                state: Mutex::new(AppQueue::default()),
                cv: Condvar::new(),
            }),
            batches: AtomicU64::new(0),
            points: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Batches, points and coalesced requests this batcher has seen.
    pub fn counts(&self) -> BatchCounts {
        BatchCounts {
            batches: self.batches.load(Ordering::Relaxed),
            points: self.points.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    fn queue(&self, app: AppId) -> &AppBatch {
        let idx = AppId::ALL.iter().position(|a| *a == app).expect("app in ALL");
        &self.apps[idx]
    }

    /// Evaluates `point`, coalescing with concurrent requests for the
    /// same app. Exactly one thread (the leader) runs the model; every
    /// caller gets the result for its own point.
    pub fn eval(&self, point: &Point) -> Option<Cell> {
        let q = self.queue(point.app);
        let key = point.canonical_key();
        let mut g = q.state.lock();
        match g.pending.get_mut(&key) {
            Some(p) => {
                // Someone is already waiting on this exact point: ride
                // along instead of evaluating again.
                p.waiters += 1;
                self.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                g.pending.insert(
                    key.clone(),
                    Pending { point: *point, done: false, result: None, waiters: 1 },
                );
            }
        }
        if !g.leader_active {
            g.leader_active = true;
            loop {
                // Grab every not-yet-evaluated point for this app.
                let batch: Vec<(String, Point)> = g
                    .pending
                    .iter()
                    .filter(|(_, p)| !p.done)
                    .map(|(k, p)| (k.clone(), p.point))
                    .collect();
                if batch.is_empty() {
                    break;
                }
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.points.fetch_add(batch.len() as u64, Ordering::Relaxed);
                drop(g);
                let results: Vec<(String, Option<Cell>)> =
                    batch.into_iter().map(|(k, p)| (k, p.eval())).collect();
                g = q.state.lock();
                for (k, r) in results {
                    if let Some(p) = g.pending.get_mut(&k) {
                        p.done = true;
                        p.result = r;
                    }
                }
                q.cv.notify_all();
                // Followers may have queued new points while the model
                // ran; loop and serve them too before abdicating.
            }
            g.leader_active = false;
        } else {
            while !g.pending.get(&key).map(|p| p.done).unwrap_or(true) {
                g = q.cv.wait(g);
            }
        }
        // Collect this caller's result; the last waiter removes the entry
        // so the next request for the same key goes through the cache.
        let result = match g.pending.get_mut(&key) {
            Some(p) => {
                let r = p.result;
                p.waiters -= 1;
                if p.waiters == 0 {
                    g.pending.remove(&key);
                }
                r
            }
            None => None,
        };
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PlatformSel, PointSpec};
    use hec_arch::PlatformId;

    fn gtc_point(procs: usize) -> Point {
        Point {
            app: AppId::Gtc,
            sel: PlatformSel::Direct(PlatformId::Es),
            spec: PointSpec::procs(procs),
        }
    }

    #[test]
    fn batched_result_equals_direct_evaluation() {
        let b = Batcher::new();
        let p = gtc_point(64);
        let direct = p.eval().unwrap();
        let batched = b.eval(&p).unwrap();
        assert_eq!(direct.gflops.to_bits(), batched.gflops.to_bits());
        assert_eq!(direct.pct_peak.to_bits(), batched.pct_peak.to_bits());
        assert_eq!(direct.step_secs.to_bits(), batched.step_secs.to_bits());
    }

    #[test]
    fn concurrent_identical_points_coalesce() {
        let b = std::sync::Arc::new(Batcher::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let b = std::sync::Arc::clone(&b);
                std::thread::spawn(move || b.eval(&gtc_point(128)).unwrap().gflops.to_bits())
            })
            .collect();
        let bits: Vec<u64> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        assert!(bits.windows(2).all(|w| w[0] == w[1]), "all riders see one result");
        // Every request either led a batch point or rode along on one, and
        // this batcher started from zero, so its counts cover all 8.
        let c = b.counts();
        assert!(c.batches >= 1);
        assert_eq!(c.points + c.coalesced, 8, "{c:?}");
    }

    #[test]
    fn distinct_points_all_get_their_own_result() {
        let b = std::sync::Arc::new(Batcher::new());
        let threads: Vec<_> = [64usize, 128, 256, 512]
            .into_iter()
            .map(|procs| {
                let b = std::sync::Arc::clone(&b);
                std::thread::spawn(move || {
                    let got = b.eval(&gtc_point(procs)).unwrap();
                    let want = gtc_point(procs).eval().unwrap();
                    assert_eq!(got.gflops.to_bits(), want.gflops.to_bits(), "procs={procs}");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn pending_map_drains_after_use() {
        let b = Batcher::new();
        for procs in [64usize, 128, 256] {
            let _ = b.eval(&gtc_point(procs));
        }
        for q in &b.apps {
            assert!(q.state.lock().pending.is_empty(), "stale pending entries");
        }
    }
}
