//! Keeps every CPU busy at the lowest priority while a run measures.
//!
//! On a virtual machine an idle vCPU halts, and waking it again goes
//! through the hypervisor: on the reference 2-vCPU host each such wake-up
//! is charged as steal time (7–16 % of CPU time under the serving load
//! against 0.5 % idle) and adds tens to hundreds of µs to every hand-off
//! between the generator, the reactor and the workers. Latency percentiles
//! then measure the hypervisor rather than the program, and vary run to
//! run with it. One spinning thread per CPU under `SCHED_IDLE` keeps the
//! vCPUs out of halt, the effect of booting with `idle=poll`; the kernel
//! preempts a `SCHED_IDLE` thread as soon as any normal thread wakes on its
//! CPU. The spinners are not load: they send nothing, and the tier's CPU
//! time is read from its own process. They still slow compute-bound code
//! on the reference host (the mini-app steps up to 10×, a tier start-up about
//! 1.5×), so only the serving runs use them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Linux `SCHED_IDLE` scheduling policy.
const SCHED_IDLE: std::ffi::c_int = 5;

/// `struct sched_param` of `sched_setscheduler(2)`.
#[repr(C)]
struct SchedParam {
    sched_priority: std::ffi::c_int,
}

extern "C" {
    /// `sched_setscheduler(2)`; pid 0 is the calling thread on Linux.
    fn sched_setscheduler(
        pid: std::ffi::c_int,
        policy: std::ffi::c_int,
        param: *const SchedParam,
    ) -> std::ffi::c_int;
}

/// Running spinners; dropping the guard stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one spinner per CPU.
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..crate::host::nproc())
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { sched_priority: 0 };
                    // SAFETY: `param` is a live, initialised `sched_param`
                    // for the duration of the call, which only reads it.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0;
                    if !idle {
                        // Without the idle policy a spinner would compete
                        // with the program; leave the CPU alone instead.
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
