//! Idle pollers: one spinning thread per CPU at `SCHED_IDLE` for as long as
//! a run lasts.
//!
//! On a virtual machine a CPU with nothing to run halts, and waking it again
//! waits for the hypervisor to schedule it; the guest counts that wait as
//! steal. Every request of the benchmark hands work between threads (client,
//! reactor, worker), so with halted CPUs each hand-off can wait on the host,
//! and the figures follow the host's load instead of the program. A poller
//! keeps its CPU running without taking time from anything else: the guest
//! scheduler preempts a `SCHED_IDLE` thread as soon as any other thread
//! wakes on its CPU. This is the user-space counterpart of booting with
//! `idle=poll`, and acts on the benchmark's own threads only.
//!
//! The loop reads an atomic flag and nothing else. It executes no `pause`
//! instruction, which a hypervisor may take for lock contention and answer
//! by descheduling the CPU.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// At most this many pollers, so a large host is not kept busy.
const MAX_POLLERS: usize = 8;

/// Running pollers; dropping the value stops and joins them.
#[derive(Debug)]
pub struct IdlePollers {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdlePollers {
    /// One poller per CPU this process may run on (up to [`MAX_POLLERS`]),
    /// each pinned to its CPU. Where pinning or the scheduling class cannot
    /// be set, no poller runs and the benchmark runs without them.
    pub fn start() -> IdlePollers {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let threads = sys::allowed_cpus()
            .into_iter()
            .take(MAX_POLLERS)
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                let ready = ready_tx.clone();
                std::thread::spawn(move || {
                    let idle = sys::pin_to(cpu) && sys::set_idle_class();
                    let _ = ready.send(idle);
                    drop(ready);
                    while idle && !stop.load(Ordering::Relaxed) {}
                })
            })
            .collect::<Vec<_>>();
        drop(ready_tx);
        let running = ready_rx.iter().filter(|&idle| idle).count();
        let mut pollers = IdlePollers { stop, threads };
        if running < pollers.threads.len() {
            pollers.stop_and_join();
        }
        pollers
    }

    /// Pollers running.
    pub fn count(&self) -> usize {
        self.threads.len()
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for IdlePollers {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    /// Words of glibc's `cpu_set_t` (1024 CPUs).
    const CPU_SET_WORDS: usize = 16;
    const SCHED_IDLE: i32 = 5;

    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }

    /// The CPUs of the calling thread's affinity mask.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; CPU_SET_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..CPU_SET_WORDS * 64).filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1).collect()
    }

    /// Pin the calling thread to `cpu`; false on failure.
    pub fn pin_to(cpu: usize) -> bool {
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }

    /// Move the calling thread to `SCHED_IDLE`; false on failure.
    pub fn set_idle_class() -> bool {
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` outlives the call; pid 0 is the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin_to(_cpu: usize) -> bool {
        false
    }

    pub fn set_idle_class() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pollers_start_at_most_one_per_cpu_and_stop_when_dropped() {
        let pollers = IdlePollers::start();
        assert!(pollers.count() <= MAX_POLLERS.min(sys::allowed_cpus().len()));
        drop(pollers);
    }
}
