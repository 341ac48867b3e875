//! The load-balancing future-work extension (§3.1/§5 of the paper): home
//! requests land in the node's shared incoming queue and are serviced by
//! whichever processor of the home's node handles them first, using the
//! (necessarily shared) directory state.

use std::cell::RefCell;
use std::rc::Rc;

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};
use shasta_sim::SplitMix64;

type Body = Box<dyn FnOnce(Dsm)>;

fn lb_config() -> ProtocolConfig {
    ProtocolConfig { load_balance_incoming: true, ..ProtocolConfig::smp() }
}

fn bodies(n: u32, f: impl Fn(u32, &mut Dsm) + Clone + 'static) -> Vec<Body> {
    (0..n)
        .map(|p| {
            let f = f.clone();
            Box::new(move |mut dsm: Dsm| f(p, &mut dsm)) as Body
        })
        .collect()
}

/// With the home processor fully occupied by compute, a sibling services
/// the incoming request — the whole point of the extension. (The block is
/// first warmed to shared state; a block held private-exclusive by the busy
/// processor itself would rightly still need its downgrade.)
#[test]
fn busy_home_gets_relieved_by_a_sibling() {
    let topo = Topology::new(12, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), lb_config(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let stats = m.run(bodies(12, move |p, dsm| {
        // Warm phase: P8 (node 2) reads, so node 0's copy becomes shared.
        if p == 8 {
            assert_eq!(dsm.load_u64(a), 0);
        }
        dsm.barrier(0);
        match p {
            0 => {
                // The home crunches without polling for a long time.
                dsm.compute(2_000_000);
                dsm.poll();
            }
            1..=3 => {
                // Node mates poll like protocol-idle processors.
                for _ in 0..4_000 {
                    dsm.compute(50);
                    dsm.poll();
                }
            }
            4 => {
                dsm.compute(1_000);
                // Without load balancing, this read would wait ~6.6 ms of
                // simulated time for P0's next poll; a sibling of the home
                // serves it from the node's shared copy instead.
                assert_eq!(dsm.load_u64(a), 0);
            }
            _ => {}
        }
    }));
    assert!(stats.load_balanced_requests >= 1, "a sibling serviced the request");
    let us = stats.read_latency_cycles as f64 / stats.read_latency_count.max(1) as f64 / 300.0;
    assert!(us < 200.0, "load balancing should hide the home's poll gap (mean latency {us:.1} us)");
}

/// Same scenario without the extension: the request waits for the home.
#[test]
fn without_load_balancing_the_request_waits() {
    let topo = Topology::new(8, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let stats = m.run(bodies(8, move |p, dsm| match p {
        0 => {
            dsm.compute(2_000_000);
            dsm.poll();
        }
        1..=3 => {
            for _ in 0..4_000 {
                dsm.compute(50);
                dsm.poll();
            }
        }
        4 => {
            dsm.compute(1_000);
            assert_eq!(dsm.load_u64(a), 0);
        }
        _ => {}
    }));
    assert_eq!(stats.load_balanced_requests, 0);
    let us = stats.mean_read_latency() / 300.0;
    assert!(us > 1_000.0, "the request should stall behind the busy home ({us:.1} us)");
}

/// A store merged into a pending read chains an exclusive request after the
/// read reply; under load balancing that request, like any remote request,
/// goes to the home node's shared queue, so a sibling serves it while the
/// home computes. (The warm phase leaves node 0 with a shared copy that only
/// P1 has touched, so neither request needs P0.)
#[test]
fn a_chained_exclusive_request_is_load_balanced() {
    let topo = Topology::new(12, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), lb_config(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let stats = m.run(bodies(12, move |p, dsm| {
        // Warm phase: P8 (node 2) takes the block away from node 0, then P1
        // reads it back, so node 0 shares it and P0's private state is
        // invalid.
        if p == 8 {
            dsm.store_u64(a, 1);
        }
        dsm.barrier(0);
        if p == 1 {
            assert_eq!(dsm.load_u64(a), 1);
        }
        dsm.barrier(1);
        match p {
            0 => {
                dsm.compute(2_000_000);
                dsm.poll();
            }
            1..=3 | 8 => {
                for _ in 0..4_000 {
                    dsm.compute(50);
                    dsm.poll();
                }
            }
            4 => {
                dsm.compute(1_000);
                // The node's merged store may already show.
                assert!(matches!(dsm.load_u64(a), 1 | 2));
            }
            5 => {
                // Stores while P4's read is pending: merged into its entry.
                dsm.compute(1_200);
                dsm.store_u64(a, 2);
                // Fence once the read has replied and the upgrade chained.
                dsm.compute(50_000);
                dsm.fence();
            }
            _ => {}
        }
    }));
    assert!(stats.misses.merged >= 1, "P5's store merged into the pending read");
    // Siblings served the warm phase's write, P4's read and the upgrade
    // chained for P5's store (that upgrade went to P0's own inbox before).
    assert!(stats.load_balanced_requests >= 3, "siblings served the read and the upgrade");
    let fence_wait = stats.breakdowns[5].get(shasta_stats::TimeCat::Write);
    assert!(fence_wait < 1_000_000, "P5's fence waited {fence_wait} cycles for the busy home");
}

/// Results and coherence are unaffected: a randomized locked-counter stress
/// produces identical final values with and without the extension, and the
/// post-run audit passes.
#[test]
fn load_balancing_preserves_results() {
    let run = |lb: bool| -> Vec<u64> {
        let topo = Topology::new(8, 4, 4).unwrap();
        let cfg = if lb { lb_config() } else { ProtocolConfig::smp() };
        let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 22);
        let a = m.setup(|s| s.malloc(1_024, BlockHint::Line, HomeHint::RoundRobin));
        let out = Rc::new(RefCell::new(vec![0u64; 16]));
        let out2 = Rc::clone(&out);
        m.run(bodies(8, move |p, dsm| {
            let mut rng = SplitMix64::new(p as u64 * 3 + 1);
            for _ in 0..150 {
                let slot = rng.below(16);
                let addr = a + slot * 64;
                if rng.below(2) == 0 {
                    dsm.acquire(slot as u32);
                    let v = dsm.load_u64(addr);
                    dsm.store_u64(addr, v + 1);
                    dsm.release(slot as u32);
                } else {
                    let _ = dsm.load_u64(addr);
                }
            }
            dsm.barrier(0);
            if p == 3 {
                // Loads suspend: borrow `out2` only once they are done.
                let loaded: Vec<u64> = (0..16).map(|slot| dsm.load_u64(a + slot * 64)).collect();
                *out2.borrow_mut() = loaded;
            }
            dsm.barrier(1);
        }));
        out.take()
    };
    let plain = run(false);
    let lb = run(true);
    assert_eq!(plain, lb);
    assert!(plain.iter().sum::<u64>() > 0);
}

/// Load balancing implies directory sharing (the paper's requirement), and
/// runs remain deterministic.
#[test]
fn load_balancing_implies_shared_directory_and_determinism() {
    let run = || {
        let topo = Topology::new(8, 4, 4).unwrap();
        let mut m = Machine::new(topo, CostModel::alpha_4100(), lb_config(), 1 << 20);
        assert!(m.config().share_directory, "implied by load balancing");
        let a = m.setup(|s| s.malloc(512, BlockHint::Line, HomeHint::RoundRobin));
        m.run(bodies(8, move |p, dsm| {
            for i in 0..20u64 {
                dsm.store_u64(a + ((p as u64 * 20 + i) % 64) * 8, i);
            }
            dsm.barrier(0);
        }))
    };
    assert_eq!(run(), run());
}
