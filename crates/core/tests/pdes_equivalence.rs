//! Serial vs sharded engine equivalence, at the machine level: the
//! conservative parallel engine must produce statistics bit-identical to
//! the serial loop — and, with a registry attached, identical
//! `cluster.link.*` metrics — and must actually *run* (windows executed)
//! when the machine is eligible. Breadth over scenarios, policies, and cluster
//! shapes lives in `crates/check/tests/parallel_engine_equivalence.rs`.

use shasta_cluster::{CostModel, NetProfile, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, Mode, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};
use shasta_obs::Registry;
use shasta_sim::SplitMix64;
use shasta_stats::{MetricEntry, RunStats};

type Body = Box<dyn FnOnce(Dsm) + Send>;

fn bodies(n: u32, f: impl Fn(u32, &mut Dsm) + Send + Sync + Clone + 'static) -> Vec<Body> {
    (0..n)
        .map(|p| {
            let f = f.clone();
            Box::new(move |mut dsm: Dsm| f(p, &mut dsm)) as Body
        })
        .collect()
}

/// A mixed kernel touching every cross-shard surface: remote loads and
/// stores (round-robin homes), locks (managers spread over processors),
/// barriers, and compute.
fn mixed_kernel(m: &mut Machine, n: u32, rounds: u32) -> Vec<Body> {
    let a = m.setup(|s| s.malloc(4_096, BlockHint::Line, HomeHint::RoundRobin));
    bodies(n, move |p, dsm| {
        let mut rng = SplitMix64::new(p as u64 + 11);
        for r in 0..rounds {
            let off = rng.below(256) * 8;
            match rng.below(5) {
                0 => {
                    let _ = dsm.load_u64(a + off);
                }
                1 => {
                    let l = (off % 5) as u32;
                    dsm.acquire(l);
                    let v = dsm.load_u64(a + off);
                    dsm.store_u64(a + off, v + 1);
                    dsm.release(l);
                }
                2 => dsm.compute(97),
                3 => {
                    let _ = dsm.read_range(a + (off & !63), 64);
                }
                _ => {
                    dsm.store_u64(a + 8 * (p as u64) + 2_048, u64::from(r));
                }
            }
            if r % 8 == 7 {
                dsm.barrier(0);
            }
        }
        dsm.barrier(0);
    })
}

struct Run {
    stats: RunStats,
    pdes_windows: u64,
    /// Every `cluster.link.*` metric: per-node link bytes and occupancy
    /// (counters the shard networks add to) plus the link-parameter gauges.
    link: Vec<MetricEntry>,
}

fn run_mixed(
    mode: Mode,
    procs: u32,
    per_node: u32,
    clustering: u32,
    sim_threads: usize,
    profile: bool,
    rounds: u32,
) -> Run {
    let topo = Topology::new(procs, per_node, clustering).unwrap();
    let nodes = topo.phys_nodes();
    let cfg = match mode {
        Mode::Smp => ProtocolConfig::smp(),
        Mode::Base => ProtocolConfig::base(),
        Mode::Hardware => ProtocolConfig::hardware(),
    };
    let cost = CostModel::alpha_4100();
    let mut m = Machine::new(topo, cost.clone(), cfg, 1 << 22);
    if profile {
        m.set_net_profile(
            NetProfile::uniform(nodes, &cost)
                .scale_link_bandwidth(nodes - 1, 4)
                .scale_node_latency(nodes - 1, 3),
        );
    }
    let registry = Registry::enabled();
    m.set_metrics(&registry);
    if sim_threads > 1 {
        m.set_sim_threads(sim_threads);
    }
    let bodies = mixed_kernel(&mut m, procs, rounds);
    let stats = m.run(bodies);
    let snap = registry.snapshot();
    let link: Vec<MetricEntry> = snap.with_prefix("cluster.link.").cloned().collect();
    assert!(nodes < 2 || snap.counter("cluster.link.bytes.n0") > 0, "no cross-node traffic");
    Run { stats, pdes_windows: snap.counter("pdes.windows"), link }
}

/// The contract, on an SMP 2-node shape: identical counters (the derived
/// Debug render compares every field, `elapsed_cycles` included) and a
/// genuinely parallel run.
#[test]
fn smp_sharded_runs_are_bit_identical_and_actually_parallel() {
    let serial = run_mixed(Mode::Smp, 8, 4, 4, 1, false, 64);
    assert_eq!(serial.pdes_windows, 0, "serial run must not touch the parallel engine");
    for threads in [2, 4, 8] {
        let sharded = run_mixed(Mode::Smp, 8, 4, 4, threads, false, 64);
        assert!(
            sharded.pdes_windows > 0,
            "eligible machine with {threads} sim threads must use the parallel engine"
        );
        assert_eq!(serial.stats, sharded.stats, "{threads} sim threads diverged from serial");
        assert_eq!(serial.link, sharded.link, "{threads} sim threads: link metrics diverged");
        assert_eq!(
            format!("{:?}", serial.stats),
            format!("{:?}", sharded.stats),
            "rendered statistics must be byte-identical"
        );
    }
}

/// Base-Shasta (clustering 1) across four physical nodes: more shards than
/// virtual-node grouping, every inter-processor message crosses the wire.
#[test]
fn base_mode_four_shards_bit_identical() {
    let serial = run_mixed(Mode::Base, 8, 2, 1, 1, false, 48);
    let sharded = run_mixed(Mode::Base, 8, 2, 1, 4, false, 48);
    assert!(sharded.pdes_windows > 0);
    assert_eq!(serial.stats, sharded.stats);
    assert_eq!(serial.link, sharded.link);
}

/// An asymmetric `NetProfile` narrows the lookahead to the scaled minimum
/// latency; windows shrink but identity must hold.
#[test]
fn asymmetric_profile_bit_identical() {
    let serial = run_mixed(Mode::Smp, 8, 4, 4, 1, true, 48);
    let sharded = run_mixed(Mode::Smp, 8, 4, 4, 2, true, 48);
    assert!(sharded.pdes_windows > 0);
    assert_eq!(serial.stats, sharded.stats);
    assert_eq!(serial.link, sharded.link);
}

/// Event recording no longer disqualifies the parallel engine: an observed
/// run actually shards (windows executed), and the merged per-shard
/// journals reproduce the serial recorder's event log byte for byte —
/// renumbered check-miss ids included.
#[test]
fn recorded_runs_shard_and_merge_byte_identically() {
    let run = |sim_threads: usize| {
        let topo = Topology::new(8, 4, 4).unwrap();
        let cost = CostModel::alpha_4100();
        let mut m = Machine::new(topo, cost, ProtocolConfig::smp(), 1 << 22);
        let registry = Registry::enabled();
        m.set_metrics(&registry);
        if sim_threads > 1 {
            m.set_sim_threads(sim_threads);
        }
        let bodies = mixed_kernel(&mut m, 8, 48);
        m.enable_obs(4_096);
        let stats = m.run(bodies);
        let windows = registry.snapshot().counter("pdes.windows");
        (stats, m.take_obs(), windows)
    };
    let (st_serial, log_serial, w_serial) = run(1);
    assert_eq!(w_serial, 0, "serial run must not touch the parallel engine");
    assert!(!log_serial.is_empty(), "the mixed kernel must record events");
    for threads in [2, 4] {
        let (st_sharded, log_sharded, w_sharded) = run(threads);
        assert!(w_sharded > 0, "recorded run with {threads} sim threads must shard");
        assert_eq!(st_serial, st_sharded, "{threads} sim threads: stats diverged");
        for p in 0..log_serial.procs() as u32 {
            assert_eq!(
                log_serial.proc(p).events,
                log_sharded.proc(p).events,
                "{threads} sim threads: P{p} timeline diverged"
            );
            assert_eq!(log_serial.proc(p).dropped, log_sharded.proc(p).dropped);
        }
        assert_eq!(
            format!("{log_serial:?}"),
            format!("{log_sharded:?}"),
            "{threads} sim threads: aggregations diverged"
        );
    }
}

/// More workers than shards, and a single-node topology: the former clamps
/// to one worker per shard, the latter silently stays serial (lookahead is
/// meaningless without a second physical node).
#[test]
fn single_node_topology_stays_serial() {
    let run = run_mixed(Mode::Smp, 4, 4, 4, 4, false, 32);
    assert_eq!(run.pdes_windows, 0, "single-node machines must stay on the serial engine");
    let serial = run_mixed(Mode::Smp, 4, 4, 4, 1, false, 32);
    assert_eq!(serial.stats, run.stats);
}
