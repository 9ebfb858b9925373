//! Host-noise fields and the few OS calls the benchmark makes itself.
//!
//! A run taken while the VM is starved of CPU (steal), crowded (load
//! average, involuntary context switches) or simply slower (the reference
//! probe) shows it here instead of reading as a regression.

use std::hint::black_box;
use std::time::Instant;

const PR_SET_TIMERSLACK: i32 = 29;
const RUSAGE_SELF: i32 = 0;
const M_ARENA_MAX: i32 = -8;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Makes every thread allocate from glibc's main arena. With one arena per
/// thread, a short-lived server thread draws whichever arena another thread
/// left behind, and the peak RSS then depends on that draw as much as on
/// what the program holds. Call before any thread starts. Returns whether
/// glibc accepted it.
pub fn single_heap_arena() -> bool {
    // SAFETY: mallopt only changes glibc's allocator settings; M_ARENA_MAX
    // takes a count. No thread allocates concurrently this early.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// Hands freed heap memory back to the kernel, so the next phase's peak
/// RSS counts what it holds, not what earlier phases left fragmented.
pub fn trim_heap() {
    // SAFETY: malloc_trim only releases free memory of glibc's own arenas.
    unsafe {
        malloc_trim(0);
    }
}

/// Restricts the calling thread — and every thread it spawns from now on —
/// to `cpus`. Returns whether the kernel accepted it.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        if cpu >= 64 * mask.len() {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Sets the calling thread's timer slack to 1 ns, so a sleeping load
/// generator wakes when asked instead of up to 50 µs later (the default
/// slack). Returns whether the kernel accepted it.
pub fn minimise_timer_slack() -> bool {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) == 0 }
}

/// Voluntary and involuntary context switches of the whole process, all
/// threads included (finished ones too).
fn context_switches() -> (u64, u64) {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a properly sized, writable `struct rusage`.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return (0, 0);
    }
    (ru.nvcsw.max(0) as u64, ru.nivcsw.max(0) as u64)
}

/// CPU steal summed over all CPUs, in milliseconds (USER_HZ = 100).
fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks * 10.0)
}

fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current RSS, so a second pass in the same process
/// measures its own peak. Best effort: older kernels lack the interface.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// A fixed CPU-bound loop timed in the benchmark's own code: the median of
/// five runs, in milliseconds. Independent of the system under test, so it
/// tracks only how fast this host is at the moment.
pub fn probe_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x1234_5678u64);
            for _ in 0..4_000_000u32 {
                x = x
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add(0x1405_7B7E_F767_814F);
                x ^= x >> 29;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// A point-in-time reading of the host-noise counters.
#[derive(Clone, Copy, Debug)]
pub struct HostSample {
    steal_ms: f64,
    nvcsw: u64,
    nivcsw: u64,
}

impl HostSample {
    pub fn now() -> HostSample {
        let (nvcsw, nivcsw) = context_switches();
        HostSample {
            steal_ms: steal_ms(),
            nvcsw,
            nivcsw,
        }
    }
}

/// Host noise over one run: deltas of the counters between two samples,
/// the load average at start and the reference probe at start and end.
#[derive(Clone, Copy, Debug)]
pub struct HostNoise {
    pub steal_ms: f64,
    pub nvcsw: u64,
    pub nivcsw: u64,
    pub loadavg: f64,
    pub probe_ms: f64,
}

pub struct HostWatch {
    start: HostSample,
    loadavg: f64,
    probe_start: f64,
}

impl HostWatch {
    pub fn start() -> HostWatch {
        HostWatch {
            loadavg: loadavg(),
            probe_start: probe_ms(),
            start: HostSample::now(),
        }
    }

    pub fn finish(&self) -> HostNoise {
        let end = HostSample::now();
        let probe_end = probe_ms();
        HostNoise {
            steal_ms: end.steal_ms - self.start.steal_ms,
            nvcsw: end.nvcsw.saturating_sub(self.start.nvcsw),
            nivcsw: end.nivcsw.saturating_sub(self.start.nivcsw),
            loadavg: self.loadavg,
            probe_ms: 0.5 * (self.probe_start + probe_end),
        }
    }
}
