//! Load generation from one process: open loop on a seeded schedule, or
//! closed loop for untimed warm-up.
//!
//! At most `senders` threads each own one keep-alive connection and take
//! the next request index from a shared counter; there is no separate
//! dispatcher thread, so the generator never uses more threads or
//! connections than `senders`. In the open loop a sender sleeps until its
//! request's scheduled instant, then sends. Latency is measured from the
//! *scheduled* instant, so a request that waited behind a slow one is
//! charged the wait; how late the send itself was is recorded apart as the
//! generator's lateness. Nothing is retried: a transport error, a non-200
//! status or a body differing from the expected bytes is a failure, and a
//! failure's latency is +∞.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::gen::Request;
use crate::http::Conn;

/// One request's outcome.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Scheduled (open loop) or send (closed loop) offset from the start, ns.
    pub at_ns: u64,
    /// Completion latency from the scheduled instant in ms (+∞ if failed).
    pub latency_ms: f64,
    /// Generator lateness, ms: how long after the later of its scheduled
    /// instant and the moment a sender was free to take it the request
    /// went out (sleep overshoot and scheduling delay of the generator
    /// itself; waiting for a busy sender is part of the latency instead).
    pub late_ms: f64,
    /// Completion offset from the start, ns.
    pub done_ns: u64,
    /// Response status was 200 and the body matched byte for byte.
    pub ok: bool,
}

/// Sends `reqs[i]` for every `i`, at `t0 + schedule[i]` when a schedule is
/// given, and checks each body against `expected[reqs[i].expect]`.
/// Outcomes come back in request order.
pub fn drive(
    addr: SocketAddr,
    reqs: &[Request],
    schedule: Option<&[u64]>,
    expected: &[Vec<u8>],
    senders: usize,
) -> Vec<Outcome> {
    let wires: Vec<Vec<u8>> = reqs.iter().map(Request::wire).collect();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_sender: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..senders.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut conn: Option<Conn> = None;
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() {
                            return out;
                        }
                        let claimed = Instant::now();
                        let due = schedule.map(|s| t0 + Duration::from_nanos(s[i]));
                        if let Some(due) = due {
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        }
                        let sent = Instant::now();
                        let start = due.unwrap_or(sent);
                        let ok = send_one(&mut conn, addr, &wires[i], &expected[reqs[i].expect]);
                        let done = Instant::now();
                        out.push((
                            i,
                            Outcome {
                                at_ns: (start - t0).as_nanos() as u64,
                                latency_ms: if ok {
                                    (done - start).as_secs_f64() * 1e3
                                } else {
                                    f64::INFINITY
                                },
                                late_ms: sent
                                    .saturating_duration_since(start.max(claimed))
                                    .as_secs_f64()
                                    * 1e3,
                                done_ns: (done - t0).as_nanos() as u64,
                                ok,
                            },
                        ));
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sender thread panicked")).collect()
    });
    let mut all: Vec<(usize, Outcome)> = per_sender.into_iter().flatten().collect();
    all.sort_unstable_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, o)| o).collect()
}

/// One exchange on the sender's connection, opening it if needed. Any
/// failure drops the connection so the next request starts fresh.
fn send_one(conn: &mut Option<Conn>, addr: SocketAddr, wire: &[u8], expected: &[u8]) -> bool {
    if conn.is_none() {
        *conn = Conn::open(addr).ok();
    }
    let Some(c) = conn.as_mut() else {
        return false;
    };
    match c.exchange(wire) {
        Ok(r) => {
            if !r.keep_alive {
                *conn = None;
            }
            r.status == 200 && r.body == expected
        }
        Err(_) => {
            *conn = None;
            false
        }
    }
}
