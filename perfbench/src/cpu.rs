//! CPU-time clocks of this process and of a child process.
//!
//! The benchmark times ops by the CPU time of the process doing the work
//! (every thread summed), not by wall time. On a shared host, wall time
//! also counts the time the work sat runnable while other tenants held the
//! cores (scheduler wait and hypervisor steal); that varied by up to 2×
//! between runs of the same code, while CPU time counts only the work.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPUTIME: i32 = 2;

/// A process-wide CPU-time clock.
#[derive(Clone, Copy)]
pub struct CpuClock(i32);

impl CpuClock {
    /// The CPU time of this process.
    pub fn this_process() -> Self {
        CpuClock(PROCESS_CPUTIME)
    }

    /// The CPU time of process `pid` (a child of this one).
    pub fn of_process(pid: u32) -> Result<Self, String> {
        let mut id = 0;
        // SAFETY: `id` is a valid out-pointer for the call's duration.
        let rc = unsafe { clock_getcpuclockid(pid as i32, &mut id) };
        if rc != 0 {
            return Err(format!("no CPU clock for process {pid} (error {rc})"));
        }
        Ok(CpuClock(id))
    }

    /// CPU seconds consumed so far.
    pub fn seconds(self) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid out-pointer for the call's duration.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime failed on a CPU-time clock");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }

    /// Runs `f`; returns its output and the CPU milliseconds this clock
    /// advanced meanwhile.
    pub fn time_ms<T>(self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.seconds();
        let out = f();
        (out, (self.seconds() - before) * 1e3)
    }
}
