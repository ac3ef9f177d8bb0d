//! Host probes read from outside the measured code: process CPU time
//! (`getrusage`) and peak resident set size (`/proc/self`).

use std::fs;
use std::time::Duration;

/// `struct timeval` of the Linux LP64 ABI.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the Linux LP64 ABI: two timevals, then fourteen
/// `long` counters this module does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time consumed so far by every thread of this
/// process, living or exited.
///
/// # Panics
///
/// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF` and a
/// valid pointer.
#[must_use]
pub fn process_cpu_time() -> Duration {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout `getrusage` fills, and `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |t: &Timeval| {
        u64::try_from(t.sec).unwrap_or(0) * 1_000_000 + u64::try_from(t.usec).unwrap_or(0)
    };
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS by
/// writing `5` to `/proc/self/clear_refs`.
///
/// # Errors
///
/// The I/O error if the kernel refuses the write.
pub fn reset_peak_rss() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size since the last [`reset_peak_rss`], in bytes.
///
/// # Errors
///
/// The I/O error if `/proc/self/status` cannot be read, or `InvalidData`
/// if it has no parsable `VmHWM` line.
pub fn peak_rss_bytes() -> std::io::Result<u64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// `std::thread::available_parallelism`, or 1 if it cannot be read.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
