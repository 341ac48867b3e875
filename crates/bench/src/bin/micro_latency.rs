//! §4.1 / §4.4 microbenchmarks: base fetch latencies and read latency as a
//! function of the number of downgrade messages required.
//!
//! Paper targets: 20 µs remote two-hop 64-byte fetch, 11 µs intra-node
//! fetch, ~4 µs one-way Memory Channel latency, +≈10 µs for a downgrade
//! needing one message and +≈5 µs for each additional message.

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

/// Runs a microbenchmark machine: the home (P0) spin-polls as a dedicated
/// server, `writers` processors on node 0 first touch the block, then the
/// requester performs a single read; everyone else idles.
fn read_latency_us(cfg: ProtocolConfig, clustering: u32, writers: u32, requester: u32) -> f64 {
    let topo = Topology::new(8, 4, clustering).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 20);
    let addr = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<_> = (0..8u32)
        .map(|p| {
            move |mut dsm: Dsm| {
                // Phase 1: writers on node 0 establish exclusive private
                // state, in processor order.
                if p < writers {
                    dsm.compute(200 * p as u64);
                    dsm.store_u64(addr, p as u64 + 1);
                }
                dsm.barrier(0);
                if p == 0 {
                    // The home serves requests from its poll loop.
                    for _ in 0..3_000 {
                        dsm.compute(20);
                        dsm.poll();
                    }
                } else if p == requester {
                    dsm.compute(1_000);
                    let _ = dsm.load_u64(addr);
                }
            }
        })
        .collect();
    let stats = m.run(bodies);
    stats.mean_read_latency() / 300.0
}

fn main() {
    println!("Microbenchmark latencies (paper targets in parentheses)\n");
    let base = ProtocolConfig::base();
    let remote = read_latency_us(base, 1, 1, 4);
    println!("Base-Shasta remote 64B fetch, 2-hop:   {remote:5.1} us  (~20 us)");
    let local = read_latency_us(base, 1, 1, 1);
    println!("Base-Shasta intra-node 64B fetch:      {local:5.1} us  (~11 us)");
    println!(
        "Memory Channel one-way latency:        {:5.1} us  (~4 us)\n",
        CostModel::alpha_4100().cycles_to_us(CostModel::alpha_4100().mc_oneway_cycles)
    );

    // SMP-Shasta: read latency vs number of downgrade messages. With k+1
    // writers on node 0 (the home downgrades itself silently), a remote read
    // triggers k downgrade messages.
    println!("SMP-Shasta remote read latency vs downgrade messages (clustering 4):");
    let mut prev = 0.0;
    for k in 0..=3u32 {
        let us = read_latency_us(ProtocolConfig::smp(), 4, k + 1, 4);
        let delta = if k == 0 { 0.0 } else { us - prev };
        println!(
            "  {k} downgrade message(s): {us:5.1} us{}",
            if k == 0 {
                String::new()
            } else {
                format!("  (+{delta:.1} us; paper: +10 us first, +5 us each additional)")
            }
        );
        prev = us;
    }

    // Effective large-block bandwidth.
    let topo = Topology::new(8, 4, 1).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::base(), 1 << 20);
    let addr = m.setup(|s| s.malloc(2_048, BlockHint::Bytes(2_048), HomeHint::Explicit(0)));
    let bodies: Vec<_> = (0..8u32)
        .map(|p| {
            move |mut dsm: Dsm| {
                if p == 0 {
                    for _ in 0..3_000 {
                        dsm.compute(20);
                        dsm.poll();
                    }
                } else if p == 4 {
                    dsm.compute(1_000);
                    dsm.read_into(addr, &mut [0; 2_048]);
                }
            }
        })
        .collect();
    let stats = m.run(bodies);
    let us = stats.mean_read_latency() / 300.0;
    println!(
        "\n2 KB block remote fetch: {us:.1} us -> {:.0} MB/s effective  (~35 MB/s)",
        2_048.0 / us
    );
}
