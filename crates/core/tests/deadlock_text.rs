//! A stuck run's diagnosis is deterministic: the deadlock panic lists the
//! stranded miss entries in the order they were issued, so two replays of
//! one failing run print the same text.

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};
use shasta_memchan::FaultPlan;

type Body = Box<dyn FnOnce(Dsm)>;

/// Runs a Base machine that loses every message while P0 posts stores to
/// blocks 2, 0 and 3 of an allocation homed at P1 and then loads block 1.
/// Returns the allocation and the deadlock panic's text.
fn stuck_run() -> (u64, String) {
    let topo = Topology::new(4, 1, 1).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::base(), 1 << 20);
    m.set_fault_plan(FaultPlan { loss_permille: 1000, ..FaultPlan::none() });
    let a = m.setup(|s| s.malloc(4 * 64, BlockHint::Line, HomeHint::Explicit(1)));
    let bodies: Vec<Body> = (0..4u32)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                if p == 0 {
                    for block in [2, 0, 3] {
                        dsm.store_u64(a + block * 64, 1);
                    }
                    let _ = dsm.load_u64(a + 64);
                }
            }) as Body
        })
        .collect();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(bodies)));
    let Err(payload) = r else { panic!("a run that loses every message must deadlock") };
    let text = payload.downcast::<String>().expect("a formatted panic message");
    (a, *text)
}

#[test]
fn deadlock_lists_miss_entries_in_issue_order() {
    let (a, text) = stuck_run();
    assert!(text.starts_with("protocol deadlock"), "{text}");
    let entries: Vec<&str> = text.lines().filter(|l| l.contains("miss entry")).collect();
    let want: Vec<String> = [(2, "Write"), (0, "Write"), (3, "Write"), (1, "Read")]
        .iter()
        .map(|(block, kind)| {
            format!(
                "  vnode 0: miss entry block={:#x} kind={kind} requester=0 replied=false",
                a + block * 64
            )
        })
        .collect();
    assert_eq!(entries, want, "{text}");
}

#[test]
fn two_runs_print_the_same_diagnosis() {
    assert_eq!(stuck_run(), stuck_run());
}
