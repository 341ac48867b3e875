//! A hand-off between processors costs one thread switch: sixteen
//! processors loading in turn, each load moving the lowest key to the next
//! processor, cost at most one switch per load (a rendezvous with an engine
//! thread costs two). Alone in its test binary, as every test that reads
//! `/proc` is: it sums the whole process.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

type Body = Box<dyn FnOnce(Dsm) + Send>;

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
fn processors_loading_in_turn_cost_one_switch_per_load() {
    const PROCS: u32 = 16;
    const ROUNDS: u64 = 300;
    // Hardware coherence: no misses and no messages, so every event is a
    // load, and equal compute makes the key order round-robin.
    let topo = Topology::new(PROCS, PROCS, PROCS).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::hardware(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let (start, end) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let bodies = (0..PROCS)
        .map(|p| {
            let (start, end) = (Arc::clone(&start), Arc::clone(&end));
            Box::new(move |mut dsm: Dsm| {
                for round in 0..ROUNDS {
                    dsm.compute(100);
                    dsm.load_u64(a);
                    // Both readings find every fiber alive: the others are
                    // parked in a load of this round or the next.
                    if (p, round) == (0, 0) {
                        start.store(process_switches(), SeqCst);
                    } else if (p, round) == (PROCS - 1, ROUNDS - 2) {
                        end.store(process_switches(), SeqCst);
                    }
                }
            }) as Body
        })
        .collect();
    m.run(bodies);
    // From P0's first load returning to P15's next-to-last one.
    let loads = u64::from(PROCS) * (ROUNDS - 1) - 1;
    let switches = end.load(SeqCst) - start.load(SeqCst);
    assert!(switches <= loads + 32, "{loads} loads in turn cost {switches} context switches");
}
