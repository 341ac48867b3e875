//! The event path allocates nothing it drops, and neither does a range read
//! into a slice the body owns: a run twice as long allocates no more. Alone
//! in its test binary, because it installs the global allocator.

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting on each thread the calls that obtain
/// memory (allocations and reallocations).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; counting touches
// only a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks the two writers share, all homed at P3.
const BLOCKS: u64 = 32;

type Body = Box<dyn FnOnce(Dsm)>;

/// Allocations made on this thread by one run of `iterations` rounds on a
/// 4-processor Base machine. Each round, P0 and P1 store to their own word
/// of every shared block and load it back (the blocks ping-pong between
/// them: write misses, forwards, invalidations, data replies, merged stores
/// and stalls), P2 reads the whole area with `read_f64s_into` into a slice
/// it owns, and every processor meets at a barrier.
fn allocations(iterations: u64) -> u64 {
    let topo = Topology::new(4, 1, 1).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::base(), 1 << 20);
    let a = m.setup(|s| s.malloc(BLOCKS * 64, BlockHint::Line, HomeHint::Explicit(3)));
    let bodies: Vec<Body> = (0..4u64)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                let mut values = vec![0.0f64; (BLOCKS * 8) as usize];
                for round in 0..iterations {
                    match p {
                        0 | 1 => {
                            for b in 0..BLOCKS {
                                dsm.store_u64(a + b * 64 + 8 * p, round);
                            }
                            for b in 0..BLOCKS {
                                assert_eq!(dsm.load_u64(a + b * 64 + 8 * p), round);
                            }
                        }
                        2 => dsm.read_f64s_into(a, &mut values),
                        _ => {}
                    }
                    dsm.barrier(0);
                }
            }) as Body
        })
        .collect();
    let before = ALLOCATIONS.with(Cell::get);
    let stats = m.run(bodies);
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert!(stats.messages.total() > 0, "the writers exchanged blocks");
    made
}

#[test]
fn a_run_twice_as_long_allocates_no_more_app_reads_included() {
    let short = allocations(200);
    let long = allocations(400);
    // A range read travels in its processor's one read buffer, which grows
    // to the largest read in the first round; nothing grows with the run.
    assert!(
        long <= short,
        "200 more rounds took {} more allocations (budget 0): {short} then {long}",
        long - short
    );
}
