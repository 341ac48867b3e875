//! A processor that keeps the lowest key costs no thread switch: on one
//! processor, `N` loads run on the fiber's own thread, where a rendezvous
//! with an engine thread would cost two switches each. Alone in its test
//! binary, as every test that reads `/proc` is: it sums the whole process.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

/// Voluntary context switches summed over the process's live threads.
fn process_switches() -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    let counts = tasks.filter_map(|task| {
        let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        let line = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
        line.trim().parse::<u64>().ok()
    });
    counts.sum()
}

#[test]
fn loads_that_keep_the_lowest_key_cost_no_switch() {
    const LOADS: u64 = 5_000;
    let topo = Topology::new(1, 1, 1).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let switches = Arc::new(AtomicU64::new(u64::MAX));
    let out = Arc::clone(&switches);
    let body = Box::new(move |mut dsm: Dsm| {
        dsm.store_u64(a, 7);
        // Every thread of the run is alive from here to the last reading:
        // the caller of `Machine::run` parked, this fiber running.
        assert_eq!(dsm.load_u64(a), 7);
        let before = process_switches();
        for _ in 0..LOADS {
            dsm.compute(10);
            assert_eq!(dsm.load_u64(a), 7);
        }
        out.store(process_switches() - before, SeqCst);
    });
    m.run(vec![body]);
    let switches = switches.load(SeqCst);
    assert!(switches <= 16, "{LOADS} loads on one processor cost {switches} context switches");
}
