//! Dependency-free benchmark harness (replaces the former criterion
//! benches).
//!
//! Each case runs `WARMUP` untimed calls, then auto-scales the number of
//! calls batched into one timed sample until a sample covers at least
//! [`MIN_SAMPLE_NS`] — sub-window measurements are dominated by timer
//! resolution and scheduling noise — and finally takes `samples` timed
//! samples. We report the median and minimum per-call wall time plus a
//! derived throughput; medians are robust to the occasional scheduler
//! hiccup, minima estimate the noise floor. Results are printed as a
//! table and written to `BENCH_kernels.json` / `BENCH_apps.json` (with
//! the true per-sample call count) so successive runs can be diffed.
//!
//! Invoke as `repro harness [samples]` (default 11 timed samples).

use std::time::Instant;

use hec_core::json::{Json, ToJson};
use hec_core::pool::Threads;

/// Untimed calls before measurement starts.
pub const WARMUP: usize = 3;

/// Default number of timed samples.
pub const DEFAULT_ITERS: usize = 11;

/// Minimum wall time one timed sample must cover, in nanoseconds.
/// Calls are batched (`Sample::iters` per sample) until this window is
/// reached, so nanosecond-scale kernels still produce stable statistics.
pub const MIN_SAMPLE_NS: u64 = 200_000;

/// Cap on the per-sample batch size the auto-scaler may choose.
pub const MAX_BATCH: usize = 1 << 20;

/// One benchmark measurement.
#[derive(Clone, Debug)]
pub struct Sample {
    /// `group/name` identifier, e.g. `"stream/triad_65536"`.
    pub name: String,
    /// Calls batched into each timed sample (auto-scaled so one sample
    /// covers at least [`MIN_SAMPLE_NS`]).
    pub iters: usize,
    /// Timed samples contributing to the statistics.
    pub samples: usize,
    /// Median wall time per call, in nanoseconds.
    pub median_ns: f64,
    /// Minimum wall time per call, in nanoseconds.
    pub min_ns: f64,
    /// Work items (elements, flops, bytes…) per call, for throughput.
    pub units: f64,
    /// What `units` counts, e.g. `"bytes"` or `"flops"`.
    pub unit_label: &'static str,
    /// Shared-memory workers used, for scaling cases (`None` = untracked).
    pub threads: Option<usize>,
    /// Speedup over the 1-worker run of the same case.
    pub speedup: Option<f64>,
    /// `speedup / threads`: parallel efficiency in `[0, 1]` (ideally).
    pub efficiency: Option<f64>,
}

impl Sample {
    /// Units per second at the median time.
    pub fn throughput(&self) -> f64 {
        if self.median_ns > 0.0 {
            self.units * 1e9 / self.median_ns
        } else {
            f64::INFINITY
        }
    }

    /// Measured Gflop/s at the median time — only for cases whose units
    /// are flops (flops/ns ≡ Gflop/s). The paper reports every kernel this
    /// way, so it is a first-class field rather than a reader-side derivation.
    pub fn gflops(&self) -> Option<f64> {
        (self.unit_label == "flop").then(|| {
            if self.median_ns > 0.0 {
                self.units / self.median_ns
            } else {
                f64::INFINITY
            }
        })
    }
}

impl ToJson for Sample {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::Str(self.name.clone())),
            ("iters", Json::Num(self.iters as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("median_ns", Json::Num(self.median_ns)),
            ("min_ns", Json::Num(self.min_ns)),
            ("units", Json::Num(self.units)),
            ("unit_label", Json::Str(self.unit_label.to_string())),
            ("throughput_per_sec", Json::Num(self.throughput())),
        ];
        if let Some(g) = self.gflops() {
            fields.push(("gflops", Json::Num(g)));
        }
        if let Some(t) = self.threads {
            fields.push(("threads", Json::Num(t as f64)));
        }
        if let Some(s) = self.speedup {
            fields.push(("speedup", Json::Num(s)));
        }
        if let Some(e) = self.efficiency {
            fields.push(("efficiency", Json::Num(e)));
        }
        Json::obj(fields)
    }
}

/// Warms `f` up, auto-scales the per-sample batch size to the
/// measurement window, then takes `samples` timed samples and folds the
/// per-call statistics into a [`Sample`].
pub fn measure<F: FnMut()>(
    name: &str,
    samples: usize,
    units: f64,
    unit_label: &'static str,
    mut f: F,
) -> Sample {
    for _ in 0..WARMUP {
        f();
    }
    // Auto-scale: grow the batch until one sample covers the minimum
    // window. The growth factor aims directly at the window from the
    // last measurement, so calibration costs at most a few batches.
    let mut batch: usize = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        let ns = t0.elapsed().as_nanos() as u64;
        if ns >= MIN_SAMPLE_NS || batch >= MAX_BATCH {
            break;
        }
        let grow = (MIN_SAMPLE_NS as f64 / ns.max(1) as f64).ceil() as usize;
        batch = batch.saturating_mul(grow.max(2)).min(MAX_BATCH);
    }
    let samples = samples.max(1);
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        times.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    times.sort_by(f64::total_cmp);
    let median = if times.len() % 2 == 1 {
        times[times.len() / 2]
    } else {
        (times[times.len() / 2 - 1] + times[times.len() / 2]) / 2.0
    };
    Sample {
        name: name.to_string(),
        iters: batch,
        samples,
        median_ns: median,
        min_ns: times[0],
        units,
        unit_label,
        threads: None,
        speedup: None,
        efficiency: None,
    }
}

/// Worker count for the threaded leg of a scaling pair: the environment's
/// resolution (`HEC_THREADS` or available parallelism), but never 1 — on a
/// single-core box we still exercise the parallel code path with 2 workers
/// so the `threads`/`speedup` fields are always populated.
pub fn scaling_workers() -> usize {
    Threads::from_env().workers().max(2)
}

/// Measures `f` once with a forced-serial [`Threads`] handle and once with
/// [`scaling_workers`] workers, returning the `name/t1` and `name/tN` pair
/// with `threads`, `speedup`, and `efficiency` filled in.
pub fn measure_scaling<F: FnMut(&Threads)>(
    name: &str,
    samples: usize,
    units: f64,
    unit_label: &'static str,
    mut f: F,
) -> Vec<Sample> {
    let serial = Threads::serial();
    let nw = scaling_workers();
    let par = Threads::new(nw);
    let mut s1 = measure(&format!("{name}/t1"), samples, units, unit_label, || f(&serial));
    s1.threads = Some(1);
    s1.speedup = Some(1.0);
    s1.efficiency = Some(1.0);
    let mut sn = measure(&format!("{name}/t{nw}"), samples, units, unit_label, || f(&par));
    sn.threads = Some(nw);
    let speedup = if sn.median_ns > 0.0 { s1.median_ns / sn.median_ns } else { f64::INFINITY };
    sn.speedup = Some(speedup);
    sn.efficiency = Some(speedup / nw as f64);
    vec![s1, sn]
}

fn humanize_time(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

fn humanize_rate(per_sec: f64, label: &str) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} G{label}/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M{label}/s", per_sec / 1e6)
    } else {
        format!("{:.2} k{label}/s", per_sec / 1e3)
    }
}

fn print_samples(title: &str, samples: &[Sample]) {
    println!("== {title} ==");
    let width = samples.iter().map(|s| s.name.len()).max().unwrap_or(0).max(4);
    for s in samples {
        let scaling = match (s.speedup, s.efficiency) {
            (Some(sp), Some(eff)) => format!("  speedup {sp:>5.2}x  eff {:>3.0}%", eff * 100.0),
            _ => String::new(),
        };
        println!(
            "  {:<width$}  median {:>10}  min {:>10}  {}{scaling}",
            s.name,
            humanize_time(s.median_ns),
            humanize_time(s.min_ns),
            humanize_rate(s.throughput(), s.unit_label),
        );
    }
}

fn write_json(w: &crate::artifact::Writer, name: &str, samples: &[Sample]) {
    let payload = [
        ("harness", Json::Str("repro harness".into())),
        ("warmup", Json::Num(WARMUP as f64)),
        ("min_sample_ns", Json::Num(MIN_SAMPLE_NS as f64)),
        ("samples", Json::Arr(samples.iter().map(|s| s.to_json()).collect())),
    ];
    if let Err(e) = w.write(name, payload) {
        eprintln!("warning: could not write {name}: {e}");
    }
}

/// Microkernel cases (STREAM triad, FFT, GEMM) — the former
/// `kernels_bench`.
pub fn kernel_samples(iters: usize) -> Vec<Sample> {
    use kernels::blas::{par_dgemm, par_zgemm, Trans};
    use kernels::fft::{Direction, FftPlan};
    use kernels::stream::triad_with;
    use kernels::Complex64;

    let mut out = Vec::new();

    for &n in &[1usize << 12, 1 << 16, 1 << 20] {
        let b = vec![1.0f64; n];
        let c = vec![2.0f64; n];
        let mut a = vec![0.0f64; n];
        out.extend(measure_scaling(
            &format!("stream/triad_{n}"),
            iters,
            (n * 24) as f64,
            "B",
            |t| triad_with(t, std::hint::black_box(&mut a), &b, &c, 3.0),
        ));
    }

    // Power of two (radix-2) and the FVCAM longitude length (Bluestein).
    // Single lines stay serial (one transform has no parallel axis).
    for &n in &[256usize, 576, 1024] {
        let plan = FftPlan::new(n);
        let mut data: Vec<Complex64> =
            (0..n).map(|i| Complex64::new((i as f64).sin(), 0.1)).collect();
        out.push(measure(&format!("fft/forward_{n}"), iters, n as f64, "elem", || {
            plan.execute(std::hint::black_box(&mut data), Direction::Forward)
        }));
    }

    // A batch of lines threads across the batch axis.
    {
        let (n, count) = (256usize, 64usize);
        let plan = FftPlan::new(n);
        let mut data: Vec<Complex64> =
            (0..n * count).map(|i| Complex64::new((i as f64).sin(), 0.1)).collect();
        out.extend(measure_scaling(
            &format!("fft/batch_{n}x{count}"),
            iters,
            (n * count) as f64,
            "elem",
            |t| {
                plan.execute_batch_with(
                    t,
                    std::hint::black_box(&mut data),
                    count,
                    Direction::Forward,
                )
            },
        ));
    }

    for &n in &[64usize, 128] {
        let a = vec![1.5f64; n * n];
        let b = vec![0.5f64; n * n];
        let mut o = vec![0.0f64; n * n];
        out.extend(measure_scaling(
            &format!("gemm/dgemm_{n}"),
            iters,
            (2 * n * n * n) as f64,
            "flop",
            |t| par_dgemm(t, n, n, n, 1.0, &a, &b, 0.0, std::hint::black_box(&mut o)),
        ));
        let az = vec![Complex64::new(1.0, 0.5); n * n];
        let bz = vec![Complex64::new(0.5, -0.25); n * n];
        let mut oz = vec![Complex64::ZERO; n * n];
        out.extend(measure_scaling(
            &format!("gemm/zgemm_{n}"),
            iters,
            (8 * n * n * n) as f64,
            "flop",
            |t| {
                par_zgemm(
                    t,
                    Trans::None,
                    n,
                    n,
                    n,
                    Complex64::ONE,
                    &az,
                    &bz,
                    Complex64::ZERO,
                    std::hint::black_box(&mut oz),
                )
            },
        ));
    }

    out
}

/// Application hot-loop cases — the former `apps_bench`.
pub fn app_samples(iters: usize) -> Vec<Sample> {
    let mut out = Vec::new();

    {
        use lbmhd::collide::{step_with, FLOPS_PER_POINT};
        use lbmhd::state::{set_equilibrium, Block, Moments};
        let n = 24;
        let mut src = Block::zeros(n, n, n);
        set_equilibrium(&mut src, |i, j, k| Moments {
            rho: 1.0 + 0.01 * ((i + j + k) as f64).sin(),
            mom: [0.01, -0.005, 0.002],
            b: [0.02, 0.01, -0.01],
        });
        let mut dst = Block::zeros(n, n, n);
        out.extend(measure_scaling(
            "lbmhd/collide_stream_24cubed",
            iters,
            (n * n * n) as f64 * FLOPS_PER_POINT,
            "flop",
            |t| {
                step_with(t, std::hint::black_box(&src), &mut dst, 1.6, 1.2);
            },
        ));
    }

    {
        use gtc::deposit::deposit_threaded;
        use gtc::geometry::PoloidalGrid;
        use gtc::particles::load_uniform;
        use gtc::push::{gather_threaded, push_threaded};
        let grid = PoloidalGrid { mpsi: 32, mtheta: 64, r_inner: 0.1, r_outer: 0.9 };
        let parts = load_uniform(50_000, 0.15, 0.85, 0.0, 1.0, 7);
        let mut charge: Vec<Vec<f64>> = (0..=2).map(|_| vec![0.0; grid.len()]).collect();
        let e: Vec<Vec<f64>> = (0..=2).map(|_| vec![0.1; grid.len()]).collect();
        out.extend(measure_scaling(
            "gtc/deposit_50k",
            iters,
            parts.len() as f64,
            "particle",
            |t| {
                for plane in charge.iter_mut() {
                    plane.iter_mut().for_each(|v| *v = 0.0);
                }
                deposit_threaded(&grid, std::hint::black_box(&parts), &mut charge, 0.0, 0.5, t);
            },
        ));
        let mut p = parts.clone();
        out.extend(measure_scaling(
            "gtc/gather_push_50k",
            iters,
            parts.len() as f64,
            "particle",
            |t| {
                let f = gather_threaded(&grid, &p, &e, &e, 0.0, 0.5, t);
                push_threaded(&grid, std::hint::black_box(&mut p), &f, 1e-4, t);
            },
        ));
    }

    {
        use fvcam::advect::{advect_level_with, FLOPS_PER_CELL};
        use fvcam::grid::{LevelBlock, SphereGrid};
        use fvcam::polar::PolarFilter;
        let grid = SphereGrid::new(144, 91, 1);
        let mut q = LevelBlock::zeros(144, 91, 2);
        let mut cx = LevelBlock::zeros(144, 91, 2);
        let cy = LevelBlock::zeros(144, 91, 2);
        for j in 0..91 {
            for i in 0..144 {
                *q.get_mut(j as isize, i) = ((i + j) as f64 * 0.1).sin();
                *cx.get_mut(j as isize, i) = 0.3;
            }
        }
        out.extend(measure_scaling(
            "fvcam/advect_level_144x91",
            iters,
            144.0 * 91.0 * FLOPS_PER_CELL,
            "flop",
            |t| {
                advect_level_with(t, &grid, std::hint::black_box(&mut q), &cx, &cy, 0);
            },
        ));
        let mut filter = PolarFilter::new(144);
        out.push(measure("fvcam/polar_filter_144x91", iters, 144.0 * 91.0, "cell", || {
            filter.apply(&grid, std::hint::black_box(&mut q), 0);
        }));
    }

    {
        use kernels::fft::Direction;
        use kernels::fft3d::{Fft3Plan, Grid3};
        use kernels::Complex64;
        let mut grid = Grid3::zeros(32, 32, 32);
        for (i, v) in grid.data.iter_mut().enumerate() {
            *v = Complex64::new((i as f64 * 0.01).sin(), 0.0);
        }
        let plan = Fft3Plan::new(32, 32, 32);
        out.extend(measure_scaling(
            "paratec/fft3_32cubed",
            iters,
            (32 * 32 * 32) as f64,
            "elem",
            |t| plan.execute_with(t, std::hint::black_box(&mut grid), Direction::Forward),
        ));
    }

    out
}

/// Full table-regeneration timings — the former `tables_bench`. These are
/// slow (entire pipelines), so they run fewer iterations.
pub fn table_samples(iters: usize) -> Vec<Sample> {
    use crate::experiments;
    use hec_serve::engine;
    let iters = iters.min(5);
    let mut out = vec![
        measure("tables/table3_fvcam", iters, 1.0, "table", || {
            std::hint::black_box(engine::fvcam_rows());
        }),
        measure("tables/table4_gtc", iters, 1.0, "table", || {
            std::hint::black_box(engine::gtc_rows());
        }),
        measure("tables/table5_lbmhd", iters, 1.0, "table", || {
            std::hint::black_box(engine::lbmhd_rows());
        }),
        measure("tables/table6_paratec", iters, 1.0, "table", || {
            std::hint::black_box(engine::paratec_rows());
        }),
        measure("tables/fig8_summary", iters, 1.0, "table", || {
            std::hint::black_box(experiments::fig8_apps());
        }),
    ];
    // Reduced mesh: the full D-mesh capture is exercised by `repro fig2`.
    out.push(measure("fig2/fvcam_traffic_capture_1d", iters, 1.0, "capture", || {
        std::hint::black_box(experiments::fig2_traffic(1, 16));
    }));
    out.push(measure("fig2/fvcam_traffic_capture_2d", iters, 1.0, "capture", || {
        std::hint::black_box(experiments::fig2_traffic(4, 16));
    }));
    out
}

/// Runs the whole suite and writes `BENCH_kernels.json` / `BENCH_apps.json`
/// in the current directory with a fresh metadata stamp (the standalone
/// `repro harness` entry point).
pub fn run(iters: usize) {
    let meta = crate::artifact::Meta::collect(iters, 0, 0, 0);
    run_into(&crate::artifact::Writer::cwd(&meta), iters);
}

/// Runs the whole suite and writes `BENCH_kernels.json` / `BENCH_apps.json`
/// through `w`.
pub fn run_into(w: &crate::artifact::Writer, iters: usize) {
    println!(
        "harness: {WARMUP} warmup calls + {iters} timed samples per case \
         (>= {} µs per sample, calls auto-batched)\n",
        MIN_SAMPLE_NS / 1000
    );

    let kernels = kernel_samples(iters);
    print_samples("microkernels", &kernels);
    println!();

    let mut apps = app_samples(iters);
    print_samples("application kernels", &apps);
    println!();

    let tables = table_samples(iters);
    print_samples("table regeneration", &tables);
    println!();

    // Paper-style Gflop/s summary of every flop-counted case.
    let gflops_rows: Vec<report::latency::GflopsRow> = kernels
        .iter()
        .chain(apps.iter())
        .filter_map(|s| {
            s.gflops().map(|g| report::latency::GflopsRow {
                label: s.name.clone(),
                threads: s.threads.map(|t| t as u64),
                gflops: g,
                speedup: s.speedup,
                efficiency: s.efficiency,
            })
        })
        .collect();
    if !gflops_rows.is_empty() {
        println!(
            "{}",
            report::latency::gflops_table("measured Gflop/s (median)", &gflops_rows).render()
        );
        println!();
    }

    write_json(w, "BENCH_kernels.json", &kernels);
    apps.extend(tables);
    write_json(w, "BENCH_apps.json", &apps);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_ordered_statistics() {
        let mut x = 0u64;
        let s = measure("t", 7, 10.0, "op", || {
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
        });
        std::hint::black_box(x);
        assert_eq!(s.samples, 7);
        assert!(s.iters >= 1);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.min_ns > 0.0);
        assert!(s.throughput() > 0.0);
    }

    #[test]
    fn fast_calls_are_batched_to_the_measurement_window() {
        // A ~microsecond body must be batched so each timed sample covers
        // at least MIN_SAMPLE_NS of wall time.
        let mut x = 1u64;
        let s = measure("t/fast", 3, 1.0, "op", || {
            for _ in 0..100 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(x);
        });
        assert!(s.iters > 1, "fast call must be batched, got {} calls/sample", s.iters);
        let sample_ns = s.median_ns * s.iters as f64;
        assert!(
            sample_ns >= MIN_SAMPLE_NS as f64 * 0.5,
            "median sample spans {sample_ns} ns < window"
        );
    }

    #[test]
    fn slow_calls_are_not_batched() {
        let s = measure("t/slow", 3, 1.0, "op", || {
            std::thread::sleep(std::time::Duration::from_micros(300));
        });
        assert_eq!(s.iters, 1, "a call beyond the window needs no batching");
        assert_eq!(s.samples, 3);
    }

    #[test]
    fn sample_json_has_all_fields() {
        let s = Sample {
            name: "g/case".into(),
            iters: 64,
            samples: 5,
            median_ns: 200.0,
            min_ns: 100.0,
            units: 10.0,
            unit_label: "elem",
            threads: Some(4),
            speedup: Some(3.2),
            efficiency: Some(0.8),
        };
        let j = s.to_json();
        assert_eq!(j.str_field("name").unwrap(), "g/case");
        assert_eq!(j.num_field("iters").unwrap(), 64.0);
        assert_eq!(j.num_field("samples").unwrap(), 5.0);
        assert_eq!(j.num_field("median_ns").unwrap(), 200.0);
        assert_eq!(j.num_field("throughput_per_sec").unwrap(), 10.0 * 1e9 / 200.0);
        assert_eq!(j.num_field("threads").unwrap(), 4.0);
        assert_eq!(j.num_field("speedup").unwrap(), 3.2);
        assert_eq!(j.num_field("efficiency").unwrap(), 0.8);
        // Non-flop cases carry no gflops field.
        assert!(j.num_field("gflops").is_err());
    }

    #[test]
    fn flop_cases_report_gflops_first_class() {
        let s = Sample {
            name: "gemm/dgemm_64".into(),
            iters: 8,
            samples: 3,
            median_ns: 1000.0,
            min_ns: 900.0,
            units: 2048.0,
            unit_label: "flop",
            threads: None,
            speedup: None,
            efficiency: None,
        };
        // 2048 flops in 1000 ns = 2.048 Gflop/s.
        assert_eq!(s.gflops(), Some(2.048));
        assert_eq!(s.to_json().num_field("gflops").unwrap(), 2.048);
    }

    #[test]
    fn kernel_suite_runs_quickly_with_one_iteration() {
        // 3 triad scaling pairs + 3 serial fft lines + 1 fft batch pair +
        // 2 dgemm pairs + 2 zgemm pairs = 6 + 3 + 2 + 8 = 19 samples.
        let samples = kernel_samples(1);
        assert_eq!(samples.len(), 19);
        for s in &samples {
            assert!(s.median_ns >= 0.0, "{}", s.name);
        }
        let scaled: Vec<_> = samples.iter().filter(|s| s.threads.is_some()).collect();
        assert_eq!(scaled.len(), 16);
        for s in scaled {
            assert!(s.speedup.unwrap() > 0.0, "{}", s.name);
            assert!(s.efficiency.unwrap() > 0.0, "{}", s.name);
        }
    }

    #[test]
    fn measure_scaling_emits_a_serial_and_parallel_pair() {
        let mut acc = vec![0.0f64; 4096];
        let pair = measure_scaling("t/case", 3, 1.0, "op", |t| {
            let res = t.par_map(&(0..acc.len()).collect::<Vec<_>>(), |&i| (i as f64).sqrt());
            for (a, r) in acc.iter_mut().zip(res) {
                *a += r;
            }
        });
        std::hint::black_box(&acc);
        assert_eq!(pair.len(), 2);
        assert_eq!(pair[0].threads, Some(1));
        assert!(pair[0].name.ends_with("/t1"));
        let nw = pair[1].threads.unwrap();
        assert!(nw >= 2, "parallel leg must use at least 2 workers");
        assert!(pair[1].name.ends_with(&format!("/t{nw}")));
        assert_eq!(pair[1].efficiency.unwrap(), pair[1].speedup.unwrap() / nw as f64);
    }
}
