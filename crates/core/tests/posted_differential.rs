//! Posting changes when a fiber hands its operations over, not what the
//! engine sees: the rendered event log and the statistics of one fixed
//! program are pinned per mode (`tests/fixtures/posted_*.txt`). The
//! statistics are as they read before `Dsm` posted anything; the events are
//! the same run's log, rendered by `EventLog::render`.

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

type Body = Box<dyn FnOnce(Dsm)>;

/// Every `Req` kind, with runs of reply-less operations before loads, right
/// after barriers, inside critical sections and at the end of the body.
fn program(p: u64, slots: u64, ranges: u64, counter: u64) -> Body {
    let (mine, next, across) = (slots + 64 * p, slots + 64 * ((p + 1) % 4), (p + 2) % 4);
    Box::new(move |mut dsm: Dsm| {
        dsm.compute(50 + p);
        dsm.store_u64(mine, p + 1);
        dsm.store_u32(mine + 8, 7 * p as u32);
        dsm.store_f64(mine + 16, p as f64 * 0.5);
        dsm.write_range(ranges + 64 * p, &[p as u8 + 1; 64]);
        dsm.poll();
        let v = dsm.load_u64(mine);
        assert_eq!(v, p + 1);
        dsm.barrier(0);
        dsm.store_u64(next + 24, v * 10);
        dsm.compute(30);
        dsm.fence();
        dsm.barrier(1);
        let from_prev = dsm.load_u64(mine + 24);
        assert_eq!(from_prev, ((p + 3) % 4 + 1) * 10);
        let mut far = [0u8; 64];
        dsm.read_into(ranges + 64 * across, &mut far);
        assert_eq!(far, [across as u8 + 1; 64]);
        assert_eq!(dsm.load_u32(mine + 8), 7 * p as u32);
        assert_eq!(dsm.load_f64(mine + 16), p as f64 * 0.5);
        for round in 0..2 {
            dsm.acquire(1);
            let seen = dsm.load_u64(counter);
            dsm.compute(20);
            dsm.store_u64(counter, seen + from_prev + round);
            dsm.release(1);
        }
        dsm.barrier(2);
        if p == 0 {
            assert_eq!(dsm.load_u64(counter), 2 * (10 + 20 + 30 + 40) + 4);
        }
        dsm.write_f64s(ranges + 64 * p, &[1.5, -2.0, p as f64]);
        dsm.acquire(2);
        dsm.store_u32(counter + 8, p as u32);
        dsm.compute(11);
        dsm.poll();
        dsm.release(2);
    })
}

fn rendered(cfg: ProtocolConfig, procs_per_node: u32, clustering: u32) -> String {
    let topo = Topology::new(4, procs_per_node, clustering).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 20);
    m.enable_obs(1 << 16);
    let (slots, ranges, counter) = m.setup(|s| {
        let slots = s.malloc(256, BlockHint::Line, HomeHint::Explicit(0));
        let ranges = s.malloc(256, BlockHint::Bytes(128), HomeHint::RoundRobin);
        (slots, ranges, s.malloc(64, BlockHint::Line, HomeHint::Explicit(3)))
    });
    let stats = m.run((0..4).map(|p| program(p, slots, ranges, counter)).collect());
    format!("{}{stats:#?}\n", m.take_obs().render())
}

#[test]
fn smp_trace_and_stats_are_the_parent_commits() {
    assert_eq!(rendered(ProtocolConfig::smp(), 2, 2), include_str!("fixtures/posted_smp.txt"));
}

#[test]
fn base_trace_and_stats_are_the_parent_commits() {
    assert_eq!(rendered(ProtocolConfig::base(), 2, 1), include_str!("fixtures/posted_base.txt"));
}

#[test]
fn hardware_trace_and_stats_are_the_parent_commits() {
    // Hardware mode shares one memory image: one node, one cluster.
    let hardware = rendered(ProtocolConfig::hardware(), 4, 4);
    assert_eq!(hardware, include_str!("fixtures/posted_hardware.txt"));
}
