//! Host-speed normalisation of timed regions.
//!
//! The reference host is a 2-vCPU guest on a shared machine. Its speed for
//! this program has two levels about 1.3x apart that alternate every few
//! tens of milliseconds to every few minutes (a pure dependent-ALU loop does
//! not see them, anything that enters the kernel or misses a cache does), and
//! the hypervisor steals 1-15 % of the CPU on top. Raw walls of identical
//! runs therefore spread 15-30 %, which is more than any bound the benchmark
//! may publish. `README.md`, "Why normalised", has the measurements.
//!
//! The harness therefore brackets every timed region with a fixed piece of
//! its own code, the *handoff probe* (two pinned threads passing a token
//! through a mutex and a condition variable: a futex wake and a futex wait
//! per handoff, the host operation `shasta-sim` fibers spend their time in),
//! and reports the region as
//!
//! ```text
//! cpu * REF_HANDOFF_NS / handoff_ns  +  max(0, wall - cpu - steal)
//! ```
//!
//! CPU time of the process is scaled to a reference host speed, time off the
//! CPU (timer sleeps, socket waits) counts as measured, and time the
//! hypervisor gave to another guest is dropped. The probe belongs to the
//! benchmark, not to the program, so a change to the program cannot move it.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::host;

/// The handoff cost every measurement is scaled to, in CPU nanoseconds per
/// round trip: about what the probe reads on the reference host at its slower
/// (and more common) level, so that normalised milliseconds stay close to
/// real ones there.
pub const REF_HANDOFF_NS: f64 = 8_000.0;

/// Round trips of one probe reading (about 25 ms on the reference host, long
/// enough to average over the host's faster flicker between its two levels,
/// as the region it stands for does), after `WARM_TRIPS` untimed ones that
/// get the probe's own code and data back into the caches.
const TRIPS: u32 = 3_000;
const WARM_TRIPS: u32 = 100;

/// The handoff probe: a helper thread that hands a token back. It sleeps on
/// the condition variable between readings and ends when the probe is
/// dropped.
pub struct Probe {
    shared: Arc<(Mutex<Token>, Condvar)>,
}

/// Whose turn it is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Token {
    Main,
    Helper,
    /// The probe was dropped.
    Gone,
}

impl Probe {
    /// Starts the helper thread; call after pinning, so that it inherits
    /// the one-CPU mask.
    pub fn start() -> Probe {
        let shared = Arc::new((Mutex::new(Token::Main), Condvar::new()));
        let theirs = Arc::clone(&shared);
        std::thread::spawn(move || {
            let (token, turn) = &*theirs;
            let mut t = token.lock().expect("probe lock");
            loop {
                match *t {
                    Token::Gone => break,
                    Token::Helper => {
                        *t = Token::Main;
                        turn.notify_one();
                    }
                    Token::Main => {}
                }
                t = turn.wait(t).expect("probe lock");
            }
        });
        Probe { shared }
    }

    /// One round trip: wake the helper, sleep until it has handed the token
    /// back. Every handoff is a futex wake and a futex wait, nothing spins.
    fn round_trip(&self) {
        let (token, turn) = &*self.shared;
        let mut t = token.lock().expect("probe lock");
        *t = Token::Helper;
        turn.notify_one();
        while *t != Token::Main {
            t = turn.wait(t).expect("probe lock");
        }
    }

    /// CPU nanoseconds (of both threads; stolen time is not in it) per round
    /// trip, now. Sleeps a millisecond first, so that what the region before
    /// left runnable on this CPU (threads of a torn down machine on their way
    /// out) is gone.
    pub fn handoff_ns(&self) -> f64 {
        std::thread::sleep(Duration::from_millis(1));
        for _ in 0..WARM_TRIPS {
            self.round_trip();
        }
        let cpu_ms = host::process_cpu_ms();
        for _ in 0..TRIPS {
            self.round_trip();
        }
        (host::process_cpu_ms() - cpu_ms) * 1e6 / f64::from(TRIPS)
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let (token, turn) = &*self.shared;
        *token.lock().expect("probe lock") = Token::Gone;
        turn.notify_one();
    }
}

/// A point on the three host clocks a normalised region needs.
#[derive(Clone, Copy, Debug)]
pub struct Clocks {
    pub at: Instant,
    /// CPU time of the whole process so far (excludes stolen time).
    pub cpu_ms: f64,
    /// Stolen time on the pinned CPU so far, in whole ticks.
    pub steal_ms: f64,
}

impl Clocks {
    /// Reads for the *start* of a region: the wall clock last.
    pub fn starting() -> Clocks {
        let (steal_ms, cpu_ms) = (host::steal_ms(), host::process_cpu_ms());
        Clocks { at: Instant::now(), cpu_ms, steal_ms }
    }

    /// Reads for the *end* of a region: the wall clock first.
    pub fn ending() -> Clocks {
        let at = Instant::now();
        Clocks { at, cpu_ms: host::process_cpu_ms(), steal_ms: host::steal_ms() }
    }
}

/// The region `start..end` in milliseconds at the reference host speed, given
/// the probe's reading around it (see the module text).
pub fn normalised_ms(start: &Clocks, end: &Clocks, handoff_ns: f64) -> f64 {
    let wall = end.at.duration_since(start.at).as_secs_f64() * 1e3;
    let cpu = end.cpu_ms - start.cpu_ms;
    let steal = end.steal_ms - start.steal_ms;
    // Steal comes in whole ticks: on a short region a tick that lands inside
    // it overstates what was stolen there, and time off the CPU is never
    // negative.
    cpu * REF_HANDOFF_NS / handoff_ns + (wall - cpu - steal).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clocks(at: Instant, after_ms: u64, cpu_ms: f64, steal_ms: f64) -> Clocks {
        Clocks { at: at + Duration::from_millis(after_ms), cpu_ms, steal_ms }
    }

    #[test]
    fn cpu_time_is_scaled_and_time_off_the_cpu_is_not() {
        let t = Instant::now();
        let (start, end) = (clocks(t, 0, 50.0, 30.0), clocks(t, 130, 150.0, 40.0));
        // 100 ms of CPU on a host twice as fast as the reference, 20 ms asleep,
        // 10 ms stolen.
        let ms = normalised_ms(&start, &end, REF_HANDOFF_NS / 2.0);
        assert!((ms - 220.0).abs() < 1e-9, "{ms}");
        // At the reference speed a region that never left the CPU is its wall.
        let end = clocks(t, 100, 150.0, 30.0);
        assert!((normalised_ms(&start, &end, REF_HANDOFF_NS) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a_steal_tick_larger_than_the_gap_does_not_go_negative() {
        let t = Instant::now();
        let (start, end) = (clocks(t, 0, 0.0, 0.0), clocks(t, 5, 4.0, 10.0));
        assert!((normalised_ms(&start, &end, REF_HANDOFF_NS) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn the_probe_reads_a_positive_cost_and_its_helper_ends_with_it() {
        let probe = Probe::start();
        let ns = probe.handoff_ns();
        assert!(ns.is_finite() && ns > 0.0, "{ns}");
        let shared = Arc::downgrade(&probe.shared);
        drop(probe);
        // The helper holds the only other reference; it lets go once woken.
        for _ in 0..1000 {
            if shared.strong_count() == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("the probe's helper thread is still alive");
    }
}
