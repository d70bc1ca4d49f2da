//! The untraced runs: each workload's end-to-end metrics.
//!
//! Every workload reports the same four metrics, each over the workload's
//! unit of work — a request for the serving workloads, a *round* (one
//! step of each of the four mini-apps) for `miniapps`:
//!
//! | metric | unit | meaning |
//! |---|---|---|
//! | `p50_ms` | ms | median latency of a unit (serving: from its scheduled arrival) |
//! | `cpu_ms_per_kreq` | ms | tier (or mini-app) process CPU per 1000 units |
//! | `setup_s` | s | median set-up time |
//! | `rss_mb` | MiB | peak resident set of the tier or mini-app process |
//!
//! The 90th and 99th percentiles are printed beside them but are not
//! result metrics: on the reference host they follow host steal time,
//! which came and went between runs (0.4–17 % of CPU time), and their
//! spread between quartiles over ten 30 s runs (43–250 % for p90) is wider
//! than any bound a regression gate may use.

use crate::serving::{self, Inputs, Validity};
use crate::tier::Kind;
use crate::{host, miniapps, stats, Report};

/// The workloads the command runs (`BENCHMARK.json` registers the serving two).
pub const WORKLOADS: [&str; 3] = ["miniapps", "serve_cold", "cluster_warm"];

/// Options of one run.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// Timed-phase length, s.
    pub secs: u64,
    /// Corrupt one expected body (tests the correctness check).
    pub corrupt: bool,
}

fn stamp(r: &mut Report, workload: &str, o: &Opts, extra: &str) {
    r.note(format!(
        "stamp workload={workload} seed={} seconds={} nproc={} commit={} {extra}",
        o.seed,
        o.secs,
        host::nproc(),
        host::git_commit()
    ));
}

/// Runs one serving workload untraced.
pub fn serving(kind: Kind, o: &Opts) -> std::io::Result<Report> {
    let name = if kind == Kind::Serve { "serve_cold" } else { "cluster_warm" };
    let mut inputs = Inputs::generate(kind, o.seed, o.secs);
    if o.corrupt {
        inputs.corrupt();
    }
    let run = serving::run(&inputs, o.secs, false, &mut |_| {})?;
    let v = Validity::of(&run);
    let lat = serving::latency(&run.outcomes, o.secs);
    let timed_failed = run.outcomes.iter().filter(|o| !o.ok).count();
    let completed = run.outcomes.len() - timed_failed;
    let mut r = Report { attempted: run.attempted, failed: run.failed, ..Default::default() };
    stamp(
        &mut r,
        name,
        o,
        &format!(
            "offered_rps={:.1} achieved_ratio={:.4} late_p99_ms={:.3} late_max_ms={:.3} steal_pct={:.2} valid={}",
            run.offered_rps,
            v.achieved_ratio,
            v.late_p99_ms,
            v.late_max_ms,
            run.steal_pct,
            v.valid()
        ),
    );
    if !v.valid() {
        r.note(format!(
            "INVALID RUN: achieved ÷ offered {:.4} (min {}) or generator lateness p99 {:.3} ms (max {}) out of range; do not pool it",
            v.achieved_ratio,
            serving::MIN_ACHIEVED,
            v.late_p99_ms,
            serving::MAX_LATE_P99_MS
        ));
    }
    r.note(format!(
        "latency: {} samples in {} windows of {} s; tail quantile used {:.4}; error_ratio {} ({} of {} timed)",
        lat.samples,
        lat.windows,
        serving::WINDOW_SECS,
        lat.tail_q,
        timed_failed as f64 / run.outcomes.len().max(1) as f64,
        timed_failed,
        run.outcomes.len()
    ));
    let windows: Vec<String> =
        lat.per_window.iter().map(|(a, b, c)| format!("{a:.3}/{b:.3}/{c:.3}")).collect();
    r.note(format!("windows p50/p90/p99 ms: {}", windows.join(" ")));
    let late: Vec<f64> = run.outcomes.iter().map(|o| o.late_ms).collect();
    let sent: Vec<f64> = run.outcomes.iter().map(|o| o.latency_ms - o.late_ms).collect();
    r.note(format!(
        "generator lateness p50 {:.4} ms; latency from send p50 {:.4} ms",
        stats::median(&late),
        stats::median(&sent)
    ));
    r.note(format!(
        "p90_ms {:.6} ms, p99_ms {:.6} ms (medians of window tails, p99 at quantile {:.4}; printed, not result metrics)",
        lat.p90_ms.max(lat.p50_ms),
        lat.p99_ms.max(lat.p90_ms).max(lat.p50_ms),
        lat.tail_q
    ));
    let setups: Vec<String> = run.setup_s.iter().map(|x| format!("{x:.4}")).collect();
    r.note(format!("set-up s: {}", setups.join(" ")));
    r.put("p50_ms", lat.p50_ms, "ms");
    r.put("cpu_ms_per_kreq", run.cpu_ms / completed.max(1) as f64 * 1e3, "ms");
    r.put("setup_s", stats::median(&run.setup_s), "s");
    r.put("rss_mb", run.rss_mb, "MiB");
    Ok(r)
}

/// Runs the `miniapps` workload untraced.
pub fn miniapps(o: &Opts) -> Report {
    let j0 = host::cpu_jiffies();
    let run = miniapps::run(o.secs);
    let steal = host::steal_pct(j0, host::cpu_jiffies());
    let mut r = Report { attempted: run.checks, failed: run.failures.len(), ..Default::default() };
    stamp(&mut r, "miniapps", o, &format!("steal_pct={steal:.2}"));
    for f in &run.failures {
        r.note(format!("MISMATCH: {f}"));
    }
    let rounds = stats::sorted(&run.round_ms);
    let p50 = stats::quantile(&rounds, 0.5).unwrap_or(f64::NAN);
    let tail = |q: f64| stats::tail(&rounds, q).map_or(p50, |(_, x)| x.max(p50));
    let used = stats::supported_quantile(rounds.len(), 0.9).unwrap_or(0.5).max(0.5);
    r.note(format!(
        "rounds: {} in {} episodes of {} rounds; tail quantile used {used:.4}; error_ratio {}",
        rounds.len(),
        run.setup_s.len(),
        miniapps::STEPS,
        r.failed as f64 / r.attempted.max(1) as f64
    ));
    for (i, app) in miniapps::APPS.iter().enumerate() {
        let what = if *app == "paratec" { "iter_ms" } else { "step_ms" };
        r.note(format!("{app}.{what} {:.6} ms", stats::median(&run.step_ms[i])));
    }
    let list: Vec<String> = run.round_ms.iter().map(|x| format!("{x:.2}")).collect();
    r.note(format!("round ms: {}", list.join(" ")));
    r.note(format!(
        "p90_ms {:.6} ms (highest supported quantile {used:.4}; printed, not a result metric)",
        tail(0.9)
    ));
    r.put("p50_ms", p50, "ms");
    let cpu: f64 = run.round_cpu_ms.iter().sum();
    r.put("cpu_ms_per_kreq", cpu / run.round_cpu_ms.len().max(1) as f64 * 1e3, "ms");
    r.put("setup_s", stats::median(&run.setup_s), "s");
    r.put("rss_mb", run.rss_mb, "MiB");
    r
}
