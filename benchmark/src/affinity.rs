//! Core partition: the generator gets one core, the daemon the rest.
//!
//! On a small box the scheduler's placement of four busy threads over
//! two cores decides more of a run's numbers than the code does (left
//! free, `setup_p50_us` on `class_churn` spread 15 % between identical
//! runs; partitioned, under 4 %). So the runner pins its own thread to
//! the first allowed core and the daemon process to the others. What
//! `sat` then measures is the daemon's capacity on its cores, with the
//! generator's cost next door instead of in the denominator.

use std::io;

/// Kernel `cpu_set_t`: 1024 bits.
pub type CpuSet = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// Sets the calling thread's allowed cores.
///
/// # Errors
///
/// The `sched_setaffinity` failure (an empty or disallowed set).
pub fn set(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` points at `size_of::<CpuSet>()` readable bytes;
    // pid 0 is the calling thread. Async-signal-safe (a bare syscall),
    // so it may also run between `fork` and `exec`.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The calling thread's allowed cores.
///
/// # Errors
///
/// The `sched_getaffinity` failure.
pub fn get() -> io::Result<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is `size_of::<CpuSet>()` writable bytes.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(mask)
}

/// The partition of the cores this process started with.
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    /// Everything the process was allowed at start.
    pub all: CpuSet,
    /// The generator's core: the lowest allowed one.
    pub generator: CpuSet,
    /// The daemon's cores: the rest.
    pub daemon: CpuSet,
}

impl Partition {
    /// Splits `all`; `None` with fewer than two cores, where there is
    /// nothing to partition.
    #[must_use]
    pub fn of(all: CpuSet) -> Option<Partition> {
        let cores: u32 = all.iter().map(|w| w.count_ones()).sum();
        if cores < 2 {
            return None;
        }
        let word = all.iter().position(|w| *w != 0)?;
        let bit = 1u64 << all[word].trailing_zeros();
        let mut generator: CpuSet = [0; 16];
        generator[word] = bit;
        let mut daemon = all;
        daemon[word] &= !bit;
        Some(Partition {
            all,
            generator,
            daemon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowest_core_generates_the_rest_serve() {
        let mut all: CpuSet = [0; 16];
        all[0] = 0b1100;
        let p = Partition::of(all).unwrap();
        assert_eq!(p.generator[0], 0b0100);
        assert_eq!(p.daemon[0], 0b1000);
        all[0] = 0b1000;
        assert!(Partition::of(all).is_none(), "one core: nothing to split");
        all[0] = 0;
        all[1] = 0b11;
        let p = Partition::of(all).unwrap();
        assert_eq!((p.generator[1], p.daemon[1]), (0b01, 0b10));
    }

    #[test]
    fn affinity_round_trips_on_this_thread() {
        let before = get().unwrap();
        if let Some(p) = Partition::of(before) {
            set(&p.generator).unwrap();
            assert_eq!(get().unwrap(), p.generator);
            set(&before).unwrap();
        }
        assert_eq!(get().unwrap(), before);
    }
}
