//! Engine-level accounting and causality invariants.

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};
use shasta_sim::SplitMix64;
use shasta_stats::TimeCat;

type Body = Box<dyn FnOnce(Dsm)>;

fn bodies(n: u32, f: impl Fn(u32, &mut Dsm) + Clone + 'static) -> Vec<Body> {
    (0..n)
        .map(|p| {
            let f = f.clone();
            Box::new(move |mut dsm: Dsm| f(p, &mut dsm)) as Body
        })
        .collect()
}

/// Every cycle of simulated time is attributed to exactly one breakdown
/// category: per-processor breakdown totals equal the elapsed maximum, up to
/// post-completion message handling.
#[test]
fn breakdowns_account_every_cycle() {
    let topo = Topology::new(8, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 22);
    let a = m.setup(|s| s.malloc(2_048, BlockHint::Line, HomeHint::RoundRobin));
    let stats = m.run(bodies(8, move |p, dsm| {
        let mut rng = SplitMix64::new(p as u64 + 5);
        let mut line = [0u8; 64];
        for _ in 0..200 {
            let off = rng.below(256) * 8;
            match rng.below(4) {
                0 => {
                    let _ = dsm.load_u64(a + off);
                }
                1 => {
                    dsm.acquire((off % 7) as u32);
                    dsm.store_u64(a + off, off);
                    dsm.release((off % 7) as u32);
                }
                2 => dsm.compute(137),
                _ => dsm.read_into(a + (off & !63), &mut line),
            }
        }
        dsm.barrier(0);
    }));
    // The longest processor's breakdown equals (or slightly exceeds, for
    // post-finish drain handling) the elapsed time; no category is ever
    // larger than the total.
    let max_total = stats.breakdowns.iter().map(|b| b.total()).max().unwrap();
    assert!(max_total >= stats.elapsed_cycles);
    assert!(max_total <= stats.elapsed_cycles + stats.elapsed_cycles / 5);
    for b in &stats.breakdowns {
        for cat in TimeCat::ALL {
            assert!(b.get(cat) <= b.total());
        }
    }
}

/// A fence with nothing outstanding completes without stalling the clock
/// beyond its issue cost; a fence behind a store waits for it.
#[test]
fn fence_semantics() {
    let topo = Topology::new(8, 4, 1).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::base(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let stats = m.run(bodies(8, move |p, dsm| {
        if p == 4 {
            dsm.fence(); // no-op fence
            dsm.store_u64(a, 9); // remote write miss, non-blocking
            dsm.fence(); // must wait for the write to complete
                         // After the fence the block is exclusively ours.
            assert_eq!(dsm.load_u64(a), 9);
        }
        dsm.barrier(0);
    }));
    // The store's full latency lands in the Write (release-wait) category
    // of P4.
    assert!(stats.breakdowns[4].get(TimeCat::Write) > 1_000);
}

/// Polling handles pending messages: a home processor that only polls keeps
/// the cluster serviced.
#[test]
fn poll_services_requests() {
    let topo = Topology::new(8, 4, 1).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::base(), 1 << 20);
    let a = m.setup(|s| s.malloc(512, BlockHint::Line, HomeHint::Explicit(0)));
    let stats = m.run(bodies(8, move |p, dsm| {
        if p == 0 {
            for _ in 0..2_000 {
                dsm.compute(40);
                dsm.poll();
            }
        } else {
            dsm.compute(500 * p as u64);
            for i in 0..8u64 {
                let _ = dsm.load_u64(a + i * 64);
            }
        }
    }));
    assert!(stats.misses.total() >= 7, "remote processors all missed");
    // P0 spent real time in message handling (it was never stalled).
    assert!(stats.breakdowns[0].get(TimeCat::Message) > 0);
}

/// Wake-floor causality: a merged reader resumes no earlier than the reply
/// event that satisfied it, so its observed stall covers the real latency.
#[test]
fn merged_readers_observe_reply_latency() {
    let topo = Topology::new(8, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let stats = m.run(bodies(8, move |p, dsm| {
        dsm.barrier(0);
        if p >= 4 {
            // Four simultaneous readers on node 1; one request, one reply.
            assert_eq!(dsm.load_u64(a), 0);
        }
        dsm.barrier(1);
    }));
    assert_eq!(stats.misses.total(), 1);
    assert!(stats.misses.merged >= 3);
    // Each merged reader's read-stall is at least the local handling time;
    // mean latency is therefore well above zero even though only one
    // message round-trip occurred.
    assert!(stats.read_latency_count >= 4);
    assert!(stats.mean_read_latency() > 300.0, "merged stalls must not be free");
}

/// Deterministic replay holds across every protocol mode (the engine picks
/// by (time, pid) only).
#[test]
fn determinism_across_modes() {
    for (cfg, clustering) in [
        (ProtocolConfig::base(), 1u32),
        (ProtocolConfig::smp(), 2),
        (ProtocolConfig::smp(), 4),
        (ProtocolConfig { share_directory: true, ..ProtocolConfig::smp() }, 4),
    ] {
        let run = || {
            let topo = Topology::new(8, 4, clustering).unwrap();
            let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 22);
            let a = m.setup(|s| s.malloc(1_024, BlockHint::Line, HomeHint::RoundRobin));
            m.run(bodies(8, move |p, dsm| {
                let mut rng = SplitMix64::new(p as u64);
                for _ in 0..120 {
                    let off = rng.below(128) * 8;
                    if rng.below(2) == 0 {
                        let _ = dsm.load_u64(a + off);
                    } else {
                        dsm.acquire((off % 5) as u32);
                        dsm.store_u64(a + off, off);
                        dsm.release((off % 5) as u32);
                    }
                }
                dsm.barrier(0);
            }))
        };
        assert_eq!(run(), run(), "clustering {clustering}");
    }
}
