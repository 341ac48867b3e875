//! Back-pressure and boundedness. Nothing drains a socket behind the
//! engine's back any more, so a sender that outruns its receiver must keep
//! itself inside the send window — a UDS buffer holds only a few hundred
//! small frames — without blocking and without losing order.

use shasta_cluster::{CostModel, Topology};
use shasta_core::protocol::ProtoMsg;
use shasta_core::space::Block;
use shasta_obs::Registry;
use shasta_transport::{Backend, DropPlan, LoopbackTransport, Transport};

/// `loopback.rs`'s private `SEND_WINDOW`.
const SEND_WINDOW: u64 = 256;
const SENDS: u64 = 20_000;

fn one_directional_flood(backend: Backend) {
    let reg = Registry::enabled();
    let mut t = LoopbackTransport::connect(
        Topology::new(8, 4, 4).unwrap(),
        CostModel::alpha_4100(),
        backend,
        DropPlan::default(),
    )
    .unwrap();
    t.set_metrics(&reg);
    // Processor 0 (node 0) floods processor 4 (node 1), which never polls.
    let msg = |i: u64| ProtoMsg::ReadReq { block: Block { start: i, len: 64 } };
    for i in 0..SENDS {
        t.send(0, 4, false, &msg(i), 0);
    }
    assert_eq!(t.wire_counts().data_frames, SENDS);
    let high = reg.gauge("wire.queue.unacked").high();
    assert!(
        (1..=SEND_WINDOW).contains(&high),
        "{}: send buffer peaked at {high} frames, window is {SEND_WINDOW}",
        backend.label()
    );
    for i in 0..SENDS {
        assert_eq!(t.recv(0, 4), msg(i), "{}: message {i} out of order", backend.label());
    }
    assert_eq!(t.wire_counts().retransmits, 0, "back-pressure is not loss");
    t.shutdown();
}

#[test]
fn a_flood_over_uds_stays_inside_the_send_window_and_in_order() {
    one_directional_flood(Backend::Uds);
}

#[test]
fn a_flood_over_tcp_stays_inside_the_send_window_and_in_order() {
    one_directional_flood(Backend::Tcp);
}
