//! The Figure 2 race cases, pinned down across both halves of the
//! reproduction:
//!
//! * in the **simulator**, by constructing the downgrade scenarios directly
//!   and asserting the §3.4.3 semantics (stores serviced during a pending
//!   downgrade are included in the transferred data; processors are never
//!   stalled by a downgrade);
//! * in the **real-threads runtime**, by asserting the strawman loses
//!   stores while the protocol does not (see also `shasta-fgdsm`'s own
//!   stress suite).

use shasta::cluster::{CostModel, Topology};
use shasta::core::api::Dsm;
use shasta::core::protocol::{Machine, ProtocolConfig};
use shasta::core::space::{BlockHint, HomeHint};
use shasta::fgdsm;
use shasta::stats::MsgClass;

type Body = Box<dyn FnOnce(Dsm)>;

/// Figure 2(a)/(b): processors with exclusive private state keep loading
/// and storing while their node is downgraded; the data shipped to the
/// remote requester includes every store serviced before the last
/// downgrade acknowledgement.
#[test]
fn stores_before_downgrade_completion_are_shipped() {
    let topo = Topology::new(8, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..8u32)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                match p {
                    0..=3 => {
                        // All of node 0 writes (everyone's private state goes
                        // exclusive in turn), then keeps storing right up to
                        // its poll points while node 1 requests the block.
                        dsm.store_u64(a + 8 * p as u64, 100 + p as u64);
                        dsm.barrier(0);
                        for i in 0..50u64 {
                            dsm.store_u64(a + 8 * p as u64, 1_000 * (p as u64 + 1) + i);
                            dsm.compute(100);
                        }
                        dsm.barrier(1);
                    }
                    4 => {
                        dsm.barrier(0);
                        dsm.compute(2_000);
                        // This read forces an exclusive->shared downgrade of
                        // node 0 mid-hammer; whatever value ships must be one
                        // some processor actually stored.
                        let v = dsm.load_u64(a);
                        assert!(
                            v == 100 || (1_000..1_050).contains(&v),
                            "shipped value {v} was never written"
                        );
                        dsm.barrier(1);
                    }
                    _ => {
                        dsm.barrier(0);
                        dsm.barrier(1);
                    }
                }
                dsm.barrier(2);
                // After the joining barrier every copy agrees on the finals.
                if p == 6 {
                    for q in 0..4u64 {
                        assert_eq!(dsm.load_u64(a + 8 * q), 1_000 * (q + 1) + 49);
                    }
                }
                dsm.barrier(3);
            }) as Body
        })
        .collect();
    let stats = m.run(bodies);
    assert!(stats.messages.count(MsgClass::Downgrade) > 0, "the scenario exercised downgrades");
}

/// Figure 2(c)/(d): invalidation writes the flag value into the line, and a
/// reader that raced the invalidation either gets the old (legal) value or
/// takes a miss — never the flag value as data.
#[test]
fn invalidation_never_leaks_flag_values() {
    let topo = Topology::new(8, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..8u32)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                if p < 4 {
                    // Node 0 reads the block in a tight loop while node 1
                    // invalidates it over and over.
                    for _ in 0..100 {
                        let v = dsm.load_u64(a);
                        assert!(v < 1_000, "flag bytes leaked into a load: {v:#x}");
                        dsm.compute(50);
                    }
                } else if p == 4 {
                    for i in 0..100u64 {
                        dsm.store_u64(a, i);
                        dsm.compute(120);
                    }
                    dsm.fence();
                }
                dsm.barrier(9);
            }) as Body
        })
        .collect();
    m.run(bodies);
}

/// The real-threads statement of the same claims (see fgdsm's suite for the
/// full matrix): one correct run of the hammer, with downgrade selectivity.
#[test]
fn real_threads_downgrade_protocol_is_lossless() {
    let cfg = fgdsm::Config {
        nodes: 2,
        threads_per_node: 2,
        words: fgdsm::LINE_WORDS,
        poll_interval: 4,
        ..fgdsm::Config::default()
    };
    let dsm = fgdsm::FgDsm::new(cfg);
    let iters = 4_096u32;
    dsm.run(|h| {
        let me = (h.node() * 2 + h.thread()) as usize;
        h.barrier();
        for i in 0..iters {
            if i % 512 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(20));
            }
            let v = h.load(me);
            h.store(me, v + 1);
        }
        h.barrier();
        assert_eq!(h.load(me), iters);
    });
}
