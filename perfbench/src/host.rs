//! Process resource usage from `getrusage(2)`.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest_before_minflt: [c_long; 3],
    minflt: c_long,
    rest: [c_long; 9],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// One reading of this process's resource counters (all threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Minor page faults.
    pub minflt: u64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

pub fn usage() -> Usage {
    let mut raw = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest_before_minflt: [0; 3],
        minflt: 0,
        rest: [0; 9],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` with the Linux
    // layout, and RUSAGE_SELF is a valid `who`; the call writes only
    // into that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    if rc != 0 {
        return Usage::default();
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&raw.utime) + secs(&raw.stime),
        minflt: raw.minflt.max(0) as u64,
        // Linux reports ru_maxrss in KiB.
        peak_rss_mb: raw.maxrss as f64 / 1024.0,
    }
}
