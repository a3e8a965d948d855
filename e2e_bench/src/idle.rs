//! Idle-core spinners.
//!
//! On a virtual machine a core with nothing to run halts, and waking it
//! again costs from microseconds to milliseconds depending on what else
//! the host is doing. A job whose workers hand off to each other every
//! few microseconds would then measure the host, not the program. While
//! the job runs, one spinner per core runs under `SCHED_IDLE`: it gets a
//! core only when nothing else wants it, yields at once to any woken
//! thread, and keeps the core from halting.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// `SCHED_IDLE` from `<sched.h>`.
const SCHED_IDLE: i32 = 5;

/// `struct sched_param` from `<sched.h>`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to `SCHED_IDLE`; false if the system refused.
fn make_idle() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is an initialised `struct sched_param` that lives
    // across the call, and pid 0 names the calling thread, so the call
    // reads only `param` and changes only this thread's policy.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// One `SCHED_IDLE` spinner per core until dropped.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    pub fn start() -> Self {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    // A spinner at normal priority would compete with the
                    // job; without `SCHED_IDLE` there is none.
                    if !make_idle() {
                        return;
                    }
                    // The flag publishes nothing else. No `spin_loop` hint:
                    // a hypervisor takes a loop of pause instructions for
                    // a vCPU waiting on a lock and deschedules it, which
                    // is the halt this thread exists to prevent.
                    while !stop.load(Ordering::Relaxed) {}
                })
            })
            .collect();
        IdleSpinners { stop, threads }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
