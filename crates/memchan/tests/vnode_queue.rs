//! The shared per-virtual-node inbox used by the load-balancing extension.

use shasta_cluster::{CostModel, Topology};
use shasta_memchan::Network;
use shasta_sim::Time;

fn net() -> Network<u32> {
    Network::new(Topology::new(8, 4, 4).unwrap(), CostModel::alpha_4100())
}

#[test]
fn vnode_messages_are_visible_to_every_node_processor() {
    let mut n = net();
    let arrival = n.send_to_vnode(4, 0, 77, 0, Time::ZERO);
    // All of node 0's processors see the same queued message.
    for p in 0..4 {
        assert_eq!(n.peek_vnode_arrival(p), Some(arrival));
    }
    // Node 1's processors do not.
    for p in 4..8 {
        assert_eq!(n.peek_vnode_arrival(p), None);
    }
    // Whoever pops first gets it; afterwards the queue is empty for all.
    let env = n.pop_vnode_earliest(2).unwrap();
    assert_eq!(env.msg, 77);
    assert_eq!(env.dst, 0, "addressed to the home, serviceable by anyone");
    for p in 0..4 {
        assert_eq!(n.peek_vnode_arrival(p), None);
    }
    assert_eq!(n.in_flight(), 0);
}

#[test]
fn vnode_and_proc_queues_are_independent() {
    let mut n = net();
    n.send(4, 1, 1, 0, Time::ZERO, None);
    n.send_to_vnode(4, 1, 2, 0, Time::ZERO);
    assert!(n.peek_arrival(1).is_some());
    assert!(n.peek_vnode_arrival(1).is_some());
    assert_eq!(n.pop_earliest(1).unwrap().msg, 1);
    assert_eq!(n.pop_vnode_earliest(1).unwrap().msg, 2);
    assert_eq!(n.in_flight(), 0);
}

#[test]
fn vnode_delivery_is_arrival_ordered() {
    let mut n = net();
    // A local and a remote message to node 0's queue: the local one arrives
    // first even though it was sent second.
    let remote = n.send_to_vnode(4, 0, 10, 0, Time::ZERO);
    let local = n.send_to_vnode(1, 0, 20, 0, Time::ZERO);
    assert!(local < remote);
    assert_eq!(n.pop_vnode_earliest(0).unwrap().msg, 20);
    assert_eq!(n.pop_vnode_earliest(0).unwrap().msg, 10);
}

#[test]
fn vnode_sends_share_the_mc_link() {
    let mut n = net();
    let a = n.send_to_vnode(4, 0, 1, 2_048, Time::ZERO);
    let b = n.send_to_vnode(5, 1, 2, 2_048, Time::ZERO);
    let occ = CostModel::alpha_4100().mc_per_byte_cycles * (2_048 + 16);
    assert_eq!(b.cycles() - a.cycles(), occ, "same sender node serializes on its link");
}
