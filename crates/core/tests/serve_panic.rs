//! An engine diagnosis raised while a fiber's batch is served on its own
//! stack (a run-ahead) leaves `Machine::run` with its own payload, runs the
//! panic hook once and unwinds every body. Alone in its test binary: it
//! installs its own panic hook.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

type Body = Box<dyn FnOnce(Dsm)>;

/// Counts its own drop.
struct Witness(Rc<Cell<usize>>);

impl Drop for Witness {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

#[test]
fn a_diagnosis_raised_while_serving_leaves_through_run_with_its_payload() {
    static HOOK_RAN: AtomicUsize = AtomicUsize::new(0);
    panic::set_hook(Box::new(|_| {
        HOOK_RAN.fetch_add(1, SeqCst);
    }));
    let topo = Topology::new(4, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    // P1-P3 compute far ahead, so P0 runs ahead alone: its loads are served
    // on its own stack, and so is the bad store it posts after 50 of them.
    let dropped = Rc::new(Cell::new(0));
    let bodies: Vec<Body> = (0..4u32)
        .map(|p| {
            let witness = Witness(Rc::clone(&dropped));
            Box::new(move |mut dsm: Dsm| {
                let _local = witness;
                if p == 0 {
                    for _ in 0..50 {
                        dsm.compute(10);
                        dsm.load_u64(a);
                    }
                    dsm.store_u64(0x9000, 1);
                    dsm.load_u64(a);
                } else {
                    dsm.compute(1_000_000);
                    dsm.load_u64(a);
                }
            }) as Body
        })
        .collect();
    let raised = panic::catch_unwind(AssertUnwindSafe(|| m.run(bodies))).unwrap_err();
    let msg = raised.downcast_ref::<String>().expect("a formatted diagnosis");
    assert!(msg.contains("access to unallocated shared address 0x9000"), "{msg}");
    assert_eq!(HOOK_RAN.load(SeqCst), 1, "the diagnosis alone ran the hook");
    assert_eq!(dropped.get(), 4, "every body unwound");
}
