//! The fabric spawns no thread. Alone in its test binary, so that no other
//! test's threads come and go while it counts.
#![cfg(target_os = "linux")]

use shasta_cluster::{CostModel, Topology};
use shasta_transport::{Backend, DropPlan, LoopbackTransport};

fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn connecting_the_fabric_spawns_no_thread() {
    let before = tasks();
    for backend in [Backend::Uds, Backend::Tcp] {
        let t = LoopbackTransport::connect(
            Topology::new(16, 4, 4).unwrap(),
            CostModel::alpha_4100(),
            backend,
            DropPlan::default(),
        )
        .unwrap();
        assert_eq!(tasks(), before, "{}: connect left a thread behind", backend.label());
        drop(t);
    }
}
