//! The shared-directory future-work extension (§3.1/§5 of the paper):
//! a requester colocated with the home looks up and modifies directory
//! state directly, eliminating the intra-node request hop.

use std::cell::RefCell;
use std::rc::Rc;

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};
use shasta_sim::SplitMix64;
use shasta_stats::MsgClass;

type Body = Box<dyn FnOnce(Dsm)>;

fn machine(share: bool) -> Machine {
    let topo = Topology::new(8, 4, 4).unwrap();
    let cfg = ProtocolConfig { share_directory: share, ..ProtocolConfig::smp() };
    Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 22)
}

fn bodies(f: impl Fn(u32, &mut Dsm) + Clone + 'static) -> Vec<Body> {
    (0..8u32)
        .map(|p| {
            let f = f.clone();
            Box::new(move |mut dsm: Dsm| f(p, &mut dsm)) as Body
        })
        .collect()
}

/// A colocated requester's miss is served with no request message at all.
#[test]
fn colocated_requests_skip_the_message() {
    // Block homed at P0 (node 0); the dirty copy lives remotely at P4; P1
    // (same node as the home) then write-misses.
    let run = |share: bool| {
        let mut m = machine(share);
        let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));

        m.run(bodies(move |p, dsm| {
            if p == 4 {
                dsm.store_u64(a, 44);
            }
            dsm.barrier(0);
            if p == 1 {
                dsm.store_u64(a, 11);
                dsm.fence();
            }
            dsm.barrier(1);
            if p == 7 {
                assert_eq!(dsm.load_u64(a), 11);
            }
            dsm.barrier(2);
        }))
    };
    let without = run(false);
    let with = run(true);
    assert!(with.shared_dir_lookups > 0, "the extension engaged");
    assert_eq!(without.shared_dir_lookups, 0);
    // P1 -> P0 local request message disappears.
    assert!(
        with.messages.count(MsgClass::Local) < without.messages.count(MsgClass::Local),
        "shared directory should remove intra-node request messages ({} vs {})",
        with.messages.count(MsgClass::Local),
        without.messages.count(MsgClass::Local)
    );
}

/// The extension changes performance accounting, never results: a stress
/// program produces identical memory outcomes with and without it.
#[test]
fn shared_directory_preserves_results() {
    let run = |share: bool| -> Vec<u64> {
        let mut m = machine(share);
        let a = m.setup(|s| s.malloc(1024, BlockHint::Line, HomeHint::RoundRobin));
        let out = Rc::new(RefCell::new(vec![0u64; 16]));
        let out2 = Rc::clone(&out);
        m.run(bodies(move |p, dsm| {
            let mut rng = SplitMix64::new(p as u64 + 99);
            for _ in 0..150 {
                let slot = rng.below(16);
                let addr = a + slot * 64;
                if rng.below(3) == 0 {
                    dsm.acquire(slot as u32);
                    let v = dsm.load_u64(addr);
                    dsm.store_u64(addr, v + 1);
                    dsm.release(slot as u32);
                } else {
                    let _ = dsm.load_u64(addr);
                }
            }
            dsm.barrier(0);
            if p == 0 {
                // Loads suspend: borrow `out2` only once they are done.
                let loaded: Vec<u64> = (0..16).map(|slot| dsm.load_u64(a + slot * 64)).collect();
                *out2.borrow_mut() = loaded;
            }
            dsm.barrier(1);
        }));
        out.take()
    };
    let plain = run(false);
    let shared = run(true);
    assert_eq!(plain, shared, "locked-counter totals must match across the extension");
    let total: u64 = plain.iter().sum();
    assert!(total > 0);
}

/// Hop accounting stays sane: shared-directory self-service counts as
/// two hops (there is no third party).
#[test]
fn shared_directory_hop_classification() {
    let mut m = machine(true);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let stats = m.run(bodies(move |p, dsm| {
        // P4 takes the block; P1 (home's node) reads it back: a 3-hop-shaped
        // transaction whose first hop was a direct directory lookup.
        if p == 4 {
            dsm.store_u64(a, 5);
        }
        dsm.barrier(0);
        if p == 1 {
            assert_eq!(dsm.load_u64(a), 5);
        }
        dsm.barrier(1);
    }));
    assert!(stats.shared_dir_lookups >= 1);
    assert!(stats.misses.total() >= 2);
}
