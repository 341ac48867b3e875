//! The host side of a measurement: CPU pinning, process/thread accounting
//! read from the kernel, and the stamp that says where a number was taken.
//!
//! Everything here is Linux-specific (`sched_setaffinity`, `getrusage`,
//! `/proc`); the benchmark refuses to report on a host where pinning fails
//! rather than publish unpinned walls (see `README.md`, "Why pinned").

use std::process::Command;
use std::sync::OnceLock;

/// Words in the affinity mask handed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s followed by 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `_SC_CLK_TCK` on Linux: the unit of the `/proc/stat` CPU columns.
const SC_CLK_TCK: i32 = 2;

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok((0..MASK_WORDS * 64).filter(|c| mask[c / 64] >> (c % 64) & 1 == 1).collect())
}

/// Restricts the calling thread (and every thread it later spawns) to
/// `cpus`, and checks the kernel took it.
pub fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        *mask.get_mut(cpu / 64).ok_or(format!("cpu {cpu} is beyond the affinity mask"))? |=
            1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity({cpus:?}): {}", std::io::Error::last_os_error()));
    }
    match allowed_cpus()? {
        now if now == cpus => Ok(()),
        now => Err(format!("asked for cpus {cpus:?} but the mask reads back {now:?}")),
    }
}

/// Pins the calling thread to the first CPU of its allowed mask and returns
/// that CPU. Call before any thread exists: affinity is inherited at spawn,
/// and `shasta-sim` decides once per process whether to spin, from
/// `available_parallelism()`.
pub fn pin_to_first_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus()?.first().ok_or("empty CPU affinity mask")?;
    set_affinity(&[cpu])?;
    let _ = PINNED.set(cpu);
    Ok(cpu)
}

/// The CPU [`pin_to_first_cpu`] chose, once it has.
static PINNED: OnceLock<usize> = OnceLock::new();

/// User and system CPU time of the whole process so far, in milliseconds.
pub fn cpu_ms() -> (f64, f64) {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines; RUSAGE_SELF is always a valid target.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail with a valid pointer");
    let ms = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    (ms(&ru.utime), ms(&ru.stime))
}

/// CPU time of every thread of this process so far, in milliseconds, at the
/// scheduler's nanosecond resolution. In a guest that accounts steal, time
/// the hypervisor took away is not in it.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` of the 64-bit Linux
    // layout; the clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) cannot fail");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// Time the hypervisor ran something else on the pinned CPU while this guest
/// wanted it ("steal", column 8 of the CPU's `/proc/stat` line), cumulative,
/// in milliseconds. The kernel accumulates it in nanoseconds and prints whole
/// ticks, so a difference of two reads is good to one tick (10 ms). Reads 0
/// where the kernel does not account steal (bare metal, no paravirt clock).
pub fn steal_ms() -> f64 {
    let Some(cpu) = PINNED.get() else { return 0.0 };
    // SAFETY: `sysconf` only reads its integer argument.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let label = format!("cpu{cpu}");
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            let mut columns = text.lines().find_map(|l| {
                let mut it = l.split_whitespace();
                (it.next() == Some(label.as_str())).then_some(it)
            })?;
            columns.nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks * 1e3 / hz)
}

/// A `Name:\t<number>` field of a `/proc/.../status` file.
fn status_field(path: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Voluntary plus involuntary context switches of the calling thread.
pub fn thread_ctx_switches() -> u64 {
    let f = |name| status_field("/proc/thread-self/status", name).unwrap_or(0);
    f("voluntary_ctxt_switches:") + f("nonvoluntary_ctxt_switches:")
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what a report was measured, as the members of a JSON object
/// (without the braces).
pub fn stamp_json() -> String {
    let cpus = allowed_cpus().unwrap_or_default();
    let host_cpus = cpus.len();
    // Children pin to the first CPU of the mask they inherit from here.
    let pinned = cpus.first().map_or("null".to_string(), |c| c.to_string());
    format!(
        "\"host_cpus\": {host_cpus}, \"pinned_cpu\": {pinned}, \"kernel\": \"{}\", \
         \"rustc\": \"{}\", \"git_sha\": \"{}\"",
        command_line("uname", &["-r"]),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}
