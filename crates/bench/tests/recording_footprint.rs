//! What a recorded run keeps resident, counted by the allocator: the four
//! logs of the benchmark's recorded workload (LU, Barnes, Water-Nsq and
//! Volrend at Tiny inputs, SMP-Shasta 16p/c4), held at once. Alone in its
//! test binary, because it installs the global allocator.

use shasta_apps::{registry, Preset, Proto};
use shasta_bench::run_observed;
use shasta_obs::{EventLog, ProfileAgg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting on each thread the bytes it holds.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: isize) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

/// Bytes this thread has allocated and not freed.
fn live() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The benchmark's recorded workload, at Tiny inputs.
fn recorded_log(name: &str) -> EventLog {
    let spec = registry().into_iter().find(|s| s.name == name).expect("a registered kernel");
    run_observed(&spec, Preset::Tiny, Proto::Smp, 16, 4, false).1
}

/// Bytes a sharing profiler fed `log`'s events holds, counted: the same
/// touched blocks as the log's own profiler, so the same table.
fn profiler_bytes(log: &EventLog) -> isize {
    let before = live();
    let profile = log.profile().expect("the run attached the space map");
    let mut agg = ProfileAgg::new(profile.map().clone());
    for e in log.iter() {
        agg.observe(e.proc, &e.kind);
    }
    assert_eq!(agg.touched(), profile.touched());
    let bytes = live() - before;
    assert_eq!(bytes, agg.held_bytes() as isize, "the profiler counts what it holds");
    bytes
}

/// The four logs hold at most 11.1 bytes an event besides their
/// profilers, and the profilers at most 283 bytes a touched block: the
/// readings below plus a tenth. Today 110 250 events take 1 111 400 bytes
/// (10.08 an event): their 445 881 bytes of encoding sit in one 16 KiB
/// chunk per ring, 64 rings in all, beside the rings' lists and the message
/// aggregates' space maps. With 32 KiB chunks and every slice's start and
/// repeated block written they took 19.44. The 889 touched blocks take
/// 229 060 bytes (257.7 a block): a 192-byte record at four coherence
/// nodes, the room left in each table's last chunk, and the slot tables,
/// which have a slot for every block of every allocation; they took 429.0
/// when a record took 344 bytes, in two doubling `Vec`s.
/// `EventLog::held_bytes`, which the `sharing_profile` trajectory reports,
/// is what the allocator counts.
#[test]
fn four_recorded_logs_hold_few_bytes_an_event_and_a_block() {
    // A first run leaves the thread's caches (fiber stacks and the like)
    // in place, so the count below is the logs alone.
    drop(recorded_log("LU"));
    let before = live();
    let logs = ["LU", "Barnes", "Water-Nsq", "Volrend"].map(recorded_log);
    let held = live() - before;
    let events: usize = logs.iter().map(EventLog::len).sum();
    let touched: usize = logs.iter().map(|l| l.profile().map_or(0, ProfileAgg::touched)).sum();
    let profilers: isize = logs.iter().map(profiler_bytes).sum();
    let reported: usize = logs.iter().map(EventLog::held_bytes).sum();
    assert_eq!(held, reported as isize, "EventLog::held_bytes");
    assert!(events > 100_000 && touched > 500, "{events} events, {touched} blocks");
    let per_event = (held - profilers) as f64 / events as f64;
    let per_block = profilers as f64 / touched as f64;
    assert!(per_event <= 11.1, "{per_event:.2} bytes an event ({events} events)");
    assert!(per_block <= 283.0, "{per_block:.1} bytes a touched block ({touched} blocks)");
}
