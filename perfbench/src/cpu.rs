//! CPU time of this process, the host clock of the end-to-end metrics.
//!
//! The benchmark runs on a few cores shared with other work, and a wall
//! clock also counts the time the scheduler hands to that work: in sets
//! of runs of the same code, wall-clock throughput spread by more than a
//! quarter. The process CPU clock (`CLOCK_PROCESS_CPUTIME_ID`) advances
//! only while one of this process's threads runs, user and kernel time of
//! every thread (exited ones included), so it counts the program's own
//! work. Serving makes no I/O and never sleeps, so on an idle machine the
//! two clocks agree.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// `struct timespec` on Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time this process has used so far.
pub fn now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call,
    // and the clock id is one the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time used since it was started.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Duration);

impl Stopwatch {
    pub fn start() -> Self {
        Self(now())
    }

    pub fn elapsed(&self) -> Duration {
        now().saturating_sub(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other test threads add to the process clock too, so this checks
    /// only that the clock advances while this thread works.
    #[test]
    fn advances_with_work() {
        let wall = std::time::Instant::now();
        let cpu = Stopwatch::start();
        let mut x = 0u64;
        while cpu.elapsed() < Duration::from_millis(20) {
            assert!(
                wall.elapsed() < Duration::from_secs(10),
                "the CPU clock did not advance"
            );
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
