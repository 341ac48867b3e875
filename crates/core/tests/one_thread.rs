//! A serial run is one thread: sixteen processors that hand the lowest key
//! to one another at every load run on the caller's thread, and no hand-off
//! puts it to sleep. The bodies report through `Rc<Cell<..>>`s, which are
//! not `Send`, so that `Machine::run` compiles with them only because it
//! keeps every body on this thread. Alone in its test binary, as every test
//! that reads `/proc` is: it sums the whole process.
#![cfg(target_os = "linux")]

use std::cell::Cell;
use std::rc::Rc;

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

type Body = Box<dyn FnOnce(Dsm)>;

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

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
fn sixteen_processors_loading_in_turn_run_on_the_callers_thread() {
    const PROCS: u32 = 16;
    const ROUNDS: u64 = 300;
    // Hardware coherence: no misses and no messages, so every event is a
    // load, and equal compute makes the key order round-robin: every load
    // hands the lowest key to the next processor.
    let topo = Topology::new(PROCS, PROCS, PROCS).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::hardware(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    // Read inside the bodies, so that every thread a run might start is
    // alive and counted: from P0's first load to P15's next-to-last one, the
    // others suspended in a load of the same round or the next.
    let (start, end, seen) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    let bodies = (0..PROCS)
        .map(|p| {
            let (start, end, seen) = (Rc::clone(&start), Rc::clone(&end), Rc::clone(&seen));
            Box::new(move |mut dsm: Dsm| {
                for round in 0..ROUNDS {
                    dsm.compute(100);
                    dsm.load_u64(a);
                    if (p, round) == (0, 0) {
                        start.set(process_switches());
                    } else if (p, round) == (PROCS - 1, ROUNDS - 2) {
                        end.set(process_switches());
                        seen.set(tasks());
                    }
                }
            }) as Body
        })
        .collect();
    let before = tasks();
    m.run(bodies);
    let switches = end.get() - start.get();
    assert_eq!(seen.get(), before, "a body saw threads the run started");
    assert!(switches <= 8, "4 783 hand-offs cost {switches} voluntary context switches");
}
