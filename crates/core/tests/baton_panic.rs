//! An engine diagnosis raised while another processor's fiber runs the
//! event loop leaves `Machine::run` on the caller's thread, with the same
//! message, and takes every fiber thread with it. Alone in its test binary:
//! it counts `/proc/self/task` and installs its own panic hook.
#![cfg(target_os = "linux")]

use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

type Body = Box<dyn FnOnce(Dsm) + Send>;

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn a_diagnosis_raised_on_another_fibers_thread_leaves_through_run() {
    static RAISED_ON: Mutex<Vec<String>> = Mutex::new(Vec::new());
    panic::set_hook(Box::new(|_| {
        let name = std::thread::current().name().unwrap_or("unnamed").to_string();
        RAISED_ON.lock().unwrap().push(name);
    }));
    let before = tasks();
    let topo = Topology::new(4, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    // P1 posts a bad store due at cycle 1 000 and hands it over with its
    // first load; P2 keeps the lowest key with cheap loads until it passes
    // that, so the loop reaches the store on P2's thread.
    let bodies: Vec<Body> = (0..4u32)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| match p {
                1 => {
                    dsm.compute(1_000);
                    dsm.store_u64(0x9000, 1);
                    dsm.load_u64(a);
                }
                2 => {
                    for _ in 0..500 {
                        dsm.compute(10);
                        dsm.load_u64(a);
                    }
                }
                _ => {}
            }) as Body
        })
        .collect();
    let raised = panic::catch_unwind(AssertUnwindSafe(|| m.run(bodies))).unwrap_err();
    let msg = raised.downcast_ref::<String>().expect("a formatted diagnosis");
    assert!(msg.contains("access to unallocated shared address 0x9000"), "{msg}");
    assert_eq!(*RAISED_ON.lock().unwrap(), ["fiber-2"], "raised once, by the loop on P2's thread");
    // A joined thread's entry can outlive the join by the moment its task
    // takes to be reaped after it signalled its exit.
    let reaped_by = Instant::now() + Duration::from_secs(5);
    while tasks() != before && Instant::now() < reaped_by {
        std::thread::yield_now();
    }
    assert_eq!(tasks(), before, "a fiber thread outlived the run");
}
