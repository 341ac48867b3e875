//! Fiber stacks are recycled per thread: a pool spawned after another one of
//! the same size maps no stack and faults in no stack page, because its
//! fibers take the stacks the first pool's fibers gave back. Alone in its
//! test binary, because it counts the minor page faults of its own thread.

use shasta_sim::FiberPool;
use std::hint::black_box;

/// Fibers per pool.
const FIBERS: u32 = 16;

/// This thread's minor page faults so far: field 10 of
/// `/proc/thread-self/stat`, counted from the fields after the command name
/// (which may hold spaces) so that field 3 is the first.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("a Linux /proc");
    let after_comm = &stat[stat.rfind(')').expect("a command name") + 1..];
    after_comm.split_whitespace().nth(10 - 3).expect("field 10").parse().expect("a count")
}

/// Spawns, drives and joins one pool whose fibers each touch a 64 KiB frame
/// before and after a call.
fn run_pool() {
    let mut pool = FiberPool::<u64, u64>::spawn(FIBERS, |p, mut api| {
        let mut frame = [0u8; 64 << 10];
        frame.fill(p as u8);
        black_box(&mut frame);
        let answer = api.call(u64::from(p));
        assert_eq!(answer, u64::from(p) + 1);
        assert!(black_box(&frame).iter().all(|&b| b == p as u8));
    });
    while pool.live_count() > 0 {
        for p in 0..FIBERS {
            if let Some(req) = pool.take_request(p) {
                pool.resume(p, req + 1);
            }
        }
    }
    pool.join();
}

#[test]
fn a_second_pool_on_a_thread_faults_in_no_stack_page() {
    run_pool();
    let before = minor_faults();
    run_pool();
    let faults = minor_faults() - before;
    // Sixteen fresh stacks fault in at least one page of each 64 KiB frame:
    // 16 pages per fiber.
    assert!(faults < u64::from(FIBERS), "the second pool took {faults} minor faults");
}
