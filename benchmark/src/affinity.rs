//! Pinning a run to one vCPU: `sched_getaffinity(2)` and
//! `sched_setaffinity(2)` on the calling thread. A run pins its main
//! thread before it starts anything, and every thread and child process
//! started afterwards inherits the one-CPU set, so the program, the
//! load generator and the yardstick all share the vCPU whose speed the
//! yardstick measures — and no hand-off between threads costs a
//! cross-vCPU wake-up, whose price on a virtual machine swings with the
//! host. As `crates/serve/src/sys.rs` does for `poll`, the two symbols
//! are declared via `extern "C"` — std already links the C library —
//! instead of pulling in the `libc` crate. Linux only, like the `/proc`
//! readers in `procfs.rs`.

use std::ffi::c_int;

/// glibc's `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
}

/// The CPUs the calling thread may run on, ascending; empty if the
/// kernel refuses to say.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread; the kernel writes at most
    // `cpusetsize` bytes.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..64 * set.len())
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread to the last CPU it may run on (interrupts and
/// other processes favour the first). Returns that CPU, or `None` when
/// the kernel refuses and the run goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let cpu = *allowed_cpus().last()?;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the byte length passed,
    // only read by the kernel; pid 0 names the calling thread.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } == 0;
    pinned.then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_and_the_threads_it_starts_keep_to_one_cpu() {
        // In a thread of its own: the test harness's thread keeps its set.
        std::thread::spawn(|| {
            let last = *allowed_cpus().last().expect("kernel reports the set");
            assert_eq!(pin_to_one_cpu(), Some(last));
            assert_eq!(allowed_cpus(), [last]);
            let inherited = std::thread::spawn(allowed_cpus)
                .join()
                .expect("child thread");
            assert_eq!(inherited, [last]);
        })
        .join()
        .expect("pinning thread panicked");
    }
}
