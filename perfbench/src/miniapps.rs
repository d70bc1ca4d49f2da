//! The `miniapps` workload: LBMHD3D, GTC, FVCAM and PARATEC at fixed
//! sizes on one msim rank at the default worker count (`threads: 0`, so
//! `HEC_THREADS` or the machine's parallelism).
//!
//! The timed phase repeats *episodes*: build the four simulations fresh,
//! then take [`STEPS`] rounds, a round being one step of each app (one
//! `solver::minimize` iteration for PARATEC). After each episode the final
//! diagnostics must pass each app's conservation check and equal the
//! first episode's bit for bit; after the timed phase one serial
//! (`threads: 1`) episode must reproduce them bit for bit too.

use std::time::Instant;

use hec_core::pool::Threads;
use kernels::complex::Complex64;
use msim::Comm;

use crate::host;

/// Rounds per episode.
pub const STEPS: usize = 3;
/// LBMHD grid edge (n³ lattice).
pub const LBMHD_N: usize = 48;
/// GTC markers, radial × poloidal points, toroidal planes.
pub const GTC_MARKERS: usize = 400_000;
/// GTC radial grid points.
pub const GTC_MPSI: usize = 64;
/// GTC poloidal grid points.
pub const GTC_MTHETA: usize = 128;
/// GTC toroidal planes (one domain on one rank).
pub const GTC_PLANES: usize = 2;
/// FVCAM mesh: longitudes × latitudes × levels (576 = 2⁶·3²).
pub const FVCAM_MESH: (usize, usize, usize) = (576, 91, 26);
/// PARATEC FFT grid edge, G-sphere cutoff and band count.
pub const PARATEC_GRID: usize = 32;
/// PARATEC G-sphere cutoff.
pub const PARATEC_ECUT: f64 = 12.0;
/// PARATEC bands.
pub const PARATEC_BANDS: usize = 16;
const PARATEC_NPROJ: usize = 4;
const PARATEC_VDEPTH: f64 = 1.5;
const PARATEC_STEP: f64 = 0.5;

/// The four apps in reporting order.
pub const APPS: [&str; 4] = ["lbmhd", "gtc", "fvcam", "paratec"];

/// Final diagnostics of the four apps.
#[derive(Clone, Debug)]
pub struct Diag {
    lbmhd: lbmhd::Diagnostics,
    gtc: (f64, f64),
    fvcam_mass: f64,
    paratec_energies: Vec<f64>,
    paratec_ortho_err: f64,
}

impl Diag {
    /// Bit patterns of every diagnostic, per app.
    pub fn bits(&self) -> [Vec<u64>; 4] {
        let l = &self.lbmhd;
        let mut lb = vec![l.mass, l.kinetic_energy, l.magnetic_energy];
        lb.extend(l.momentum);
        lb.extend(l.flux);
        [
            lb.iter().map(|x| x.to_bits()).collect(),
            vec![self.gtc.0.to_bits(), self.gtc.1.to_bits()],
            vec![self.fvcam_mass.to_bits()],
            self.paratec_energies.iter().map(|x| x.to_bits()).collect(),
        ]
    }

    /// Each app's conservation check from `start` to `self`: LBMHD mass,
    /// momentum and flux to 1e-9 and no energy growth; GTC marker count
    /// exact; FVCAM tracer mass to 5e-3 relative per step (advection and
    /// remap conserve it, the physics surrogate is a small sink); PARATEC
    /// bands orthonormal to 1e-8 with finite energies.
    pub fn conserved(&self, start: &Diag) -> [bool; 4] {
        let (a, b) = (&start.lbmhd, &self.lbmhd);
        let lbmhd = (a.mass - b.mass).abs() <= 1e-9 * a.mass.abs()
            && (0..3).all(|i| {
                (a.momentum[i] - b.momentum[i]).abs() <= 1e-9
                    && (a.flux[i] - b.flux[i]).abs() <= 1e-9
            })
            && b.kinetic_energy + b.magnetic_energy
                <= (a.kinetic_energy + a.magnetic_energy) * (1.0 + 1e-12);
        let gtc = self.gtc.0 == start.gtc.0 && self.gtc.1.is_finite();
        let fvcam = (self.fvcam_mass - start.fvcam_mass).abs()
            <= 5e-3 * STEPS as f64 * start.fvcam_mass.abs()
            && self.fvcam_mass.is_finite();
        let paratec =
            self.paratec_ortho_err <= 1e-8 && self.paratec_energies.iter().all(|e| e.is_finite());
        [lbmhd, gtc, fvcam, paratec]
    }

    /// The diagnostics of app `i`, for a failure message.
    pub fn summary(&self, i: usize) -> String {
        match i {
            0 => format!("{:?}", self.lbmhd),
            1 => format!("markers {} weight {}", self.gtc.0, self.gtc.1),
            2 => format!("mass {}", self.fvcam_mass),
            _ => {
                format!("ortho err {} energies {:?}", self.paratec_ortho_err, self.paratec_energies)
            }
        }
    }
}

/// One app's simulation state on one rank.
pub enum App {
    /// LBMHD3D lattice.
    Lbmhd(lbmhd::Simulation),
    /// GTC particle-in-cell.
    Gtc(gtc::GtcSim),
    /// FVCAM dynamical core.
    Fvcam(fvcam::FvSim),
    /// PARATEC Hamiltonian and band block.
    Paratec(Box<paratec::hamiltonian::Hamiltonian>, Vec<Complex64>),
}

impl App {
    /// Builds app `i` (index into [`APPS`]) on `comm` with `threads`
    /// workers (`0` = the default worker count).
    pub fn build(i: usize, comm: &mut Comm, threads: usize) -> App {
        let (rank, size) = (comm.rank(), comm.size());
        match i {
            0 => App::Lbmhd(lbmhd::Simulation::new(
                lbmhd::SimParams { n: LBMHD_N, threads, ..Default::default() },
                rank,
                size,
            )),
            1 => App::Gtc(gtc::GtcSim::new(
                gtc::GtcParams {
                    mpsi: GTC_MPSI,
                    mtheta: GTC_MTHETA,
                    mzeta_total: GTC_PLANES,
                    ndomains: 1,
                    particles_per_domain: GTC_MARKERS,
                    threads,
                    ..Default::default()
                },
                comm,
            )),
            2 => {
                let (nlon, nlat, nlev) = FVCAM_MESH;
                App::Fvcam(fvcam::FvSim::new(
                    fvcam::FvParams { nlon, nlat, nlev, pz: 1, threads, ..Default::default() },
                    rank,
                    size,
                ))
            }
            _ => {
                let sphere = paratec::basis::GSphere::build(
                    PARATEC_GRID,
                    PARATEC_GRID,
                    PARATEC_GRID,
                    PARATEC_ECUT,
                );
                let fft = paratec::fftdist::DistFft::with_threads(
                    sphere,
                    rank,
                    size,
                    Threads::from_config(threads),
                );
                let h =
                    paratec::hamiltonian::Hamiltonian::model(fft, PARATEC_NPROJ, PARATEC_VDEPTH);
                let psi = paratec::solver::initial_guess(h.ng(), PARATEC_BANDS, rank);
                App::Paratec(Box::new(h), psi)
            }
        }
    }

    /// One step (one `minimize` iteration for PARATEC).
    pub fn step(&mut self, comm: &mut Comm) {
        match self {
            App::Lbmhd(s) => s.step(comm),
            App::Gtc(s) => s.step(comm),
            App::Fvcam(s) => s.step(comm),
            App::Paratec(h, psi) => {
                let st = paratec::solver::minimize(comm, h, psi, PARATEC_BANDS, 1, PARATEC_STEP);
                std::hint::black_box(st);
            }
        }
    }
}

/// The four simulations on one rank, in [`APPS`] order.
pub struct Apps(pub [App; 4]);

impl Apps {
    /// Builds all four apps on `comm` with `threads` workers each.
    pub fn build(comm: &mut Comm, threads: usize) -> Apps {
        Apps(std::array::from_fn(|i| App::build(i, comm, threads)))
    }

    /// One step of app `i`.
    pub fn step(&mut self, i: usize, comm: &mut Comm) {
        self.0[i].step(comm);
    }

    /// Globally reduced diagnostics of all four apps.
    pub fn diagnostics(&mut self, comm: &mut Comm) -> Diag {
        let [App::Lbmhd(l), App::Gtc(g), App::Fvcam(f), App::Paratec(h, psi)] = &mut self.0 else {
            unreachable!("Apps::build keeps the app order");
        };
        let s = paratec::solver::overlap_matrix(comm, psi, PARATEC_BANDS, h.ng());
        let mut ortho = 0.0f64;
        for a in 0..PARATEC_BANDS {
            for b in 0..PARATEC_BANDS {
                let want = if a == b { 1.0 } else { 0.0 };
                ortho = ortho.max((s[a * PARATEC_BANDS + b] - Complex64::new(want, 0.0)).abs());
            }
        }
        Diag {
            lbmhd: l.diagnostics(comm),
            gtc: g.global_particle_stats(comm),
            fvcam_mass: f.global_mass(comm),
            paratec_energies: h.band_energies(comm, psi, PARATEC_BANDS),
            paratec_ortho_err: ortho,
        }
    }
}

/// Measurements of one `miniapps` run.
#[derive(Default)]
pub struct MiniRun {
    /// Per-app step times, ms, in [`APPS`] order.
    pub step_ms: [Vec<f64>; 4],
    /// Round times (one step of each app), ms.
    pub round_ms: Vec<f64>,
    /// Process CPU time per round, ms.
    pub round_cpu_ms: Vec<f64>,
    /// Per-episode set-up (build + initial diagnostics), s.
    pub setup_s: Vec<f64>,
    /// Diagnostic checks made (per app per episode, plus the serial run).
    pub checks: usize,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// Peak RSS of this process, MiB.
    pub rss_mb: f64,
}

/// Runs the timed phase for about `secs` seconds, then the serial
/// reference episode.
pub fn run(secs: u64) -> MiniRun {
    let pid = std::process::id();
    let start = Instant::now();
    let mut runs = msim::run(1, move |comm| {
        let mut out = MiniRun::default();
        let mut first: Option<[Vec<u64>; 4]> = None;
        let mut episode = 0;
        while episode == 0 || start.elapsed().as_secs_f64() < secs as f64 {
            let t = Instant::now();
            let mut apps = Apps::build(comm, 0);
            let d0 = apps.diagnostics(comm);
            out.setup_s.push(t.elapsed().as_secs_f64());
            for _ in 0..STEPS {
                let cpu0 = host::cpu_ms(pid);
                let mut round = 0.0;
                for (i, times) in out.step_ms.iter_mut().enumerate() {
                    let t = Instant::now();
                    apps.step(i, comm);
                    let ms = host::ms(t.elapsed());
                    times.push(ms);
                    round += ms;
                }
                out.round_ms.push(round);
                if let (Some(a), Some(b)) = (cpu0, host::cpu_ms(pid)) {
                    out.round_cpu_ms.push(b - a);
                }
            }
            let d1 = apps.diagnostics(comm);
            check(&mut out, &format!("episode {episode}"), &d0, &d1, first.as_ref());
            first.get_or_insert_with(|| d1.bits());
            episode += 1;
        }
        let mut apps = Apps::build(comm, 1);
        let d0 = apps.diagnostics(comm);
        for _ in 0..STEPS {
            for i in 0..APPS.len() {
                apps.step(i, comm);
            }
        }
        let d1 = apps.diagnostics(comm);
        check(&mut out, "serial reference", &d0, &d1, first.as_ref());
        out
    })
    .expect("mini-app rank panicked");
    let mut out = runs.pop().expect("one rank");
    out.rss_mb = host::peak_rss_mb(pid).unwrap_or(0.0);
    out
}

/// Checks one episode's final diagnostics: conservation from its start,
/// and bit equality with `reference` when given.
fn check(out: &mut MiniRun, what: &str, d0: &Diag, d1: &Diag, reference: Option<&[Vec<u64>; 4]>) {
    let ok = d1.conserved(d0);
    let bits = d1.bits();
    for i in 0..APPS.len() {
        out.checks += 1;
        if !ok[i] {
            out.failures.push(format!(
                "{what}: {} failed its conservation check: start {}, end {}",
                APPS[i],
                d0.summary(i),
                d1.summary(i)
            ));
        } else if reference.is_some_and(|r| r[i] != bits[i]) {
            out.failures.push(format!("{what}: {} diagnostics differ bitwise", APPS[i]));
        }
    }
}

/// STREAM triad array length: 2 Mi doubles = 16 MiB per array, 4× the
/// 4 MiB per-core L2 of the reference host. Its 300 MiB shared L3 would
/// need 1.2 GiB arrays for 4× LLC, which this benchmark does not allocate,
/// so the triad figure is an L3-resident bandwidth there.
pub const TRIAD_LEN: usize = 2 * 1024 * 1024;
/// Matrix edge of the dgemm peak measurement.
pub const PEAK_DGEMM_N: usize = 512;

/// The probe phases reported per app, as `(app, phase key)`. Listing them
/// keeps the metric set fixed: a phase that disappears reads 0, and a new
/// one is printed as a note until it is listed here.
pub const PHASES: [(&str, &str); 14] = [
    ("lbmhd", "collide_stream"),
    ("gtc", "charge_deposition"),
    ("gtc", "poisson_solve"),
    ("gtc", "field_gather"),
    ("gtc", "particle_push"),
    ("fvcam", "fv_dynamics"),
    ("fvcam", "polar_filter_ffts"),
    ("fvcam", "remap_physics"),
    ("fvcam", "kernels_fft"),
    ("fvcam", "kernels_fft_bluestein"),
    ("paratec", "3d_ffts"),
    ("paratec", "nonlocal_zgemm"),
    ("paratec", "kernels_fft"),
    ("paratec", "kernels_zgemm"),
];

/// A metric-name fragment from a probe phase name:
/// `fvcam/polar filter FFTs` → `polar_filter_ffts`.
pub fn phase_key(phase: &str) -> String {
    let tail = phase.rsplit_once('/').map_or(
        phase,
        |(app, rest)| {
            if APPS.contains(&app) {
                rest
            } else {
                phase
            }
        },
    );
    let mut out = String::new();
    for c in tail.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

fn median_of(mut f: impl FnMut() -> f64, reps: usize) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    crate::stats::median(&v)
}

/// Host ceilings and kernel timings: STREAM triad and packed-dgemm peak at
/// the default worker count, serial dgemm 128, and FFTs of 576 and 1024.
pub fn kernel_layers(r: &mut crate::Report) -> (f64, f64) {
    use kernels::fft::{Direction, FftPlan};
    let threads = Threads::from_env();
    let (b, c) = (vec![1.0f64; TRIAD_LEN], vec![2.0f64; TRIAD_LEN]);
    let mut a = vec![0.0f64; TRIAD_LEN];
    kernels::stream::triad_with(&threads, &mut a, &b, &c, 3.0);
    let triad = median_of(
        || {
            let t = Instant::now();
            for _ in 0..4 {
                kernels::stream::triad_with(&threads, &mut a, &b, &c, 3.0);
            }
            (4 * TRIAD_LEN * kernels::stream::TRIAD_BYTES_PER_ELEM) as f64
                / t.elapsed().as_secs_f64()
                / 1e9
        },
        7,
    );
    std::hint::black_box(&a);
    let n = PEAK_DGEMM_N;
    let (ma, mb) = (vec![0.5f64; n * n], vec![0.25f64; n * n]);
    let mut mc = vec![0.0f64; n * n];
    let mut peak = 0.0f64;
    for _ in 0..6 {
        let t = Instant::now();
        kernels::blas::par_dgemm(&threads, n, n, n, 1.0, &ma, &mb, 0.0, &mut mc);
        peak = peak.max(kernels::blas::dgemm_flops(n, n, n) / t.elapsed().as_secs_f64() / 1e9);
    }
    std::hint::black_box(&mc);
    let m = 128;
    let (sa, sb) = (vec![0.5f64; m * m], vec![0.25f64; m * m]);
    let mut sc = vec![0.0f64; m * m];
    let dgemm128 = median_of(
        || {
            let t = Instant::now();
            kernels::blas::dgemm(m, m, m, 1.0, &sa, &sb, 0.0, &mut sc);
            kernels::blas::dgemm_flops(m, m, m) / t.elapsed().as_secs_f64() / 1e9
        },
        51,
    );
    std::hint::black_box(&sc);
    let fft_us = |len: usize| {
        let plan = FftPlan::new(len);
        let mut data: Vec<Complex64> =
            (0..len).map(|i| Complex64::new((i as f64).sin(), 0.5)).collect();
        median_of(
            || {
                let t = Instant::now();
                plan.execute(&mut data, Direction::Forward);
                t.elapsed().as_secs_f64() * 1e6
            },
            301,
        )
    };
    r.put("host.triad_gbps", triad, "GB/s");
    r.put("host.dgemm_peak_gflops", peak, "Gflop/s");
    r.put("kernels.dgemm128.gflops", dgemm128, "Gflop/s");
    r.put("kernels.fft576_us", fft_us(576), "us");
    r.put("kernels.fft1024_us", fft_us(1024), "us");
    (triad, peak)
}

/// Per-app layer metrics: step time at the default worker count and at 1
/// worker, the probe capture of one step (flops and computed bytes, per
/// phase and in total, against the host ceilings), and msim traffic of one
/// step at `nproc` ranks × 1 worker.
pub fn app_layers(r: &mut crate::Report, triad_gbps: f64, peak_gflops: f64) {
    use hec_core::probe::{self, Capture};
    let timed_steps = |threads: usize| -> Vec<(f64, Option<Capture>)> {
        msim::run(1, move |comm| {
            (0..APPS.len())
                .map(|i| {
                    let mut app = App::build(i, comm, threads);
                    app.step(comm);
                    let cap = (threads == 0).then(|| probe::capture(|| app.step(comm)).1);
                    let ms: Vec<f64> = (0..3)
                        .map(|_| {
                            let t = Instant::now();
                            app.step(comm);
                            host::ms(t.elapsed())
                        })
                        .collect();
                    (crate::stats::median(&ms), cap)
                })
                .collect()
        })
        .expect("mini-app rank panicked")
        .pop()
        .expect("one rank")
    };
    let threaded = timed_steps(0);
    let serial = timed_steps(1);
    let ranks = host::nproc().max(2);
    for (i, app) in APPS.iter().enumerate() {
        let (step_ms, cap) = &threaded[i];
        let cap = cap.as_ref().expect("threaded steps are captured");
        for (phase, c) in &cap.counters {
            let key = phase_key(phase);
            let listed = PHASES.iter().any(|(a, k)| a == app && *k == key);
            if !listed && c.flops + c.unit_stride_bytes + c.gather_scatter_bytes > 0 {
                r.note(format!("unlisted phase {app}: {phase}: {c:?}"));
            }
        }
        for (a, key) in PHASES.iter().filter(|(a, _)| a == app) {
            let c = cap
                .counters
                .iter()
                .find(|(p, _)| phase_key(p) == *key)
                .map(|(_, c)| *c)
                .unwrap_or_default();
            let b = c.unit_stride_bytes + c.gather_scatter_bytes;
            r.put(format!("{a}.{key}.gflop"), c.flops as f64 / 1e9, "Gflop");
            r.put(format!("{a}.{key}.mb_computed"), b as f64 / 1e6, "MB");
        }
        // Totals count the app's own phases only: kernel phases run
        // inside them and would be counted twice.
        let (mut flops, mut bytes) = (0u64, 0u64);
        for (phase, c) in &cap.counters {
            if phase.starts_with(&format!("{app}/")) {
                flops += c.flops;
                bytes += c.unit_stride_bytes + c.gather_scatter_bytes;
            }
        }
        let secs = step_ms / 1e3;
        let gflops = flops as f64 / secs / 1e9;
        let intensity = flops as f64 / (bytes.max(1)) as f64;
        r.put(format!("{app}.step_ms"), *step_ms, "ms");
        r.put(format!("{app}.gflops"), gflops, "Gflop/s");
        r.put(format!("{app}.gbps_computed"), bytes as f64 / secs / 1e9, "GB/s");
        r.put(format!("{app}.flops_per_byte"), intensity, "flop/B");
        r.put(
            format!("{app}.roofline_frac"),
            gflops / peak_gflops.min(triad_gbps * intensity),
            "1",
        );
        r.put(format!("pool.speedup.{app}"), serial[i].0 / step_ms, "1");
        // msim traffic of one step: a capture spans the whole SPMD run (a
        // capture per rank would deadlock on the session lock), so the
        // build-only run is subtracted.
        let traffic = |steps: usize| {
            let (_, cap) = probe::capture(|| {
                msim::run(ranks, |comm| {
                    let mut a = App::build(i, comm, 1);
                    for _ in 0..steps {
                        a.step(comm);
                    }
                })
                .expect("mini-app rank panicked")
            });
            let c = ["comm/pt2pt", "comm/collectives"].map(|p| cap.get(p));
            (c[0].messages + c[1].collectives, c[0].message_bytes + c[1].collective_bytes)
        };
        let (m0, b0) = traffic(0);
        let (m1, b1) = traffic(1);
        r.put(format!("msim.msgs_per_step.{app}"), m1.saturating_sub(m0) as f64, "count");
        r.put(format!("msim.bytes_per_step.{app}"), b1.saturating_sub(b0) as f64, "B");
    }
}
