//! What each simulator configuration of the benchmark costs the host,
//! counted rather than timed: scheduling picks, switches from a fiber to the
//! engine and batches answered on the calling fiber's own stack
//! (`Machine::host_counts`), and allocations, bytes allocated and peak live
//! bytes (a counting global allocator). One line per configuration:
//! `hw16_hits`, `base16_msgs`, `smp16c4_sharing` (whose code
//! `smp16c4_pdes2` runs too) and `smp16c4_recorded` each run the four
//! kernels of the benchmark's kernel set, and `check_sweep` runs the
//! checker's 170 seeds x 5 scenarios x 2 seeded policies with oracles on.
//! Every count is deterministic, so `scripts/ci.sh` diffs the Default output
//! against `results/host_counts.txt`. `--preset tiny` shrinks the kernels'
//! inputs, not the sweep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use shasta_apps::driver::build_machine;
use shasta_apps::{registry, Preset, Proto, RunConfig};
use shasta_bench::preset_from_args;
use shasta_check::{checked_machine, default_scenarios, policies_for_seed};
use shasta_core::{HostCounts, Machine};

/// The benchmark's kernel set.
const KERNELS: [&str; 4] = ["LU", "Barnes", "Water-Nsq", "Volrend"];

/// Seeds of the checker sweep, from 0.
const SWEEP_SEEDS: u64 = 170;

/// The system allocator, counting what this thread allocates.
struct Counting;

#[derive(Clone, Copy, Default)]
struct Heap {
    allocs: u64,
    bytes: u64,
    live: i64,
    peak: i64,
}

thread_local! {
    static HEAP: Cell<Heap> = const { Cell::new(Heap { allocs: 0, bytes: 0, live: 0, peak: 0 }) };
}

/// Counts an allocation of `bytes` (0 for a free) and a change of `delta`
/// live bytes.
fn count(bytes: Option<usize>, delta: isize) {
    let _ = HEAP.try_with(|h| {
        let mut heap = h.get();
        if let Some(bytes) = bytes {
            heap.allocs += 1;
            heap.bytes += bytes as u64;
        }
        heap.live += delta as i64;
        heap.peak = heap.peak.max(heap.live);
        h.set(heap);
    });
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(Some(layout.size()), layout.size() as isize);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(Some(layout.size()), layout.size() as isize);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(Some(new_size), new_size as isize - layout.size() as isize);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(None, -(layout.size() as isize));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One configuration's counts, summed over its runs.
#[derive(Default)]
struct Line {
    host: HostCounts,
    allocs: u64,
    bytes: u64,
    peak: i64,
}

impl Line {
    fn add(&mut self, m: &Machine) {
        let h = m.host_counts();
        self.host.picks += h.picks;
        self.host.switches += h.switches;
        self.host.served += h.served;
    }
}

/// Counts `runs`, which adds each machine it ran with `Line::add`: the heap
/// from the start of the first run, peak live bytes above that start.
fn counted(runs: impl FnOnce(&mut Line)) -> Line {
    let start = HEAP.with(|h| {
        let mut heap = h.get();
        heap.peak = heap.live;
        h.set(heap);
        heap
    });
    let mut line = Line::default();
    runs(&mut line);
    let end = HEAP.with(Cell::get);
    line.allocs = end.allocs - start.allocs;
    line.bytes = end.bytes - start.bytes;
    line.peak = end.peak - start.live;
    line
}

/// The kernel set under `proto` at `procs`/`clustering`, recording events
/// and taking the log if `recorded`.
fn kernels(preset: Preset, proto: Proto, clustering: u32, recorded: bool) -> Line {
    counted(|line| {
        for name in KERNELS {
            let spec =
                registry().into_iter().find(|s| s.name == name).expect("a registered kernel");
            let app = (spec.build)(preset, false);
            let (mut m, bodies) =
                build_machine(app.as_ref(), &RunConfig::new(proto, 16, clustering));
            if recorded {
                m.enable_recording();
            }
            m.run(bodies);
            if recorded {
                drop(m.take_obs());
            }
            line.add(&m);
        }
    })
}

fn check_sweep() -> Line {
    counted(|line| {
        let scenarios = default_scenarios();
        for seed in 0..SWEEP_SEEDS {
            for s in &scenarios {
                for policy in policies_for_seed(seed) {
                    let (mut m, bodies) = checked_machine(s, policy);
                    m.run(bodies);
                    line.add(&m);
                }
            }
        }
    })
}

fn main() {
    let preset = preset_from_args();
    let lines = [
        ("hw16_hits", kernels(preset, Proto::Hardware, 16, false)),
        ("base16_msgs", kernels(preset, Proto::Base, 1, false)),
        ("smp16c4_sharing", kernels(preset, Proto::Smp, 4, false)),
        ("smp16c4_recorded", kernels(preset, Proto::Smp, 4, true)),
        ("check_sweep", check_sweep()),
    ];
    println!("# shasta host-counts v1");
    println!("# Per configuration, summed over its runs: the benchmark's kernel set");
    println!("# (LU, Barnes, Water-Nsq, Volrend; 16 processors) or the checker's sweep.");
    println!("# picks: scheduling picks. switches: fiber-to-engine stack switches.");
    println!("# served: batches answered on the calling fiber's stack, with no switch.");
    println!("# allocs, alloc_bytes: heap allocations and the bytes they asked for.");
    println!("# peak_live_bytes: the heap's high-water mark above its level at the start.");
    println!(
        "{:<17} {:>9} {:>9} {:>9} {:>9} {:>12} {:>15}",
        "workload", "picks", "switches", "served", "allocs", "alloc_bytes", "peak_live_bytes"
    );
    for (name, l) in lines {
        println!(
            "{:<17} {:>9} {:>9} {:>9} {:>9} {:>12} {:>15}",
            name, l.host.picks, l.host.switches, l.host.served, l.allocs, l.bytes, l.peak
        );
    }
}
