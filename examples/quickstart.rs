//! Quickstart: share memory across a simulated four-node Alpha cluster.
//!
//! Builds the paper's machine (16 processors, 4 per SMP node), runs a tiny
//! producer/consumer + locked-counter program under SMP-Shasta, and prints
//! the protocol statistics the paper's evaluation is made of.
//!
//! Run with: `cargo run --release --example quickstart`

use shasta::cluster::{CostModel, Topology};
use shasta::core::api::Dsm;
use shasta::core::protocol::{Machine, ProtocolConfig};
use shasta::core::space::{BlockHint, HomeHint};
use shasta::stats::MsgClass;

fn main() {
    // The paper's prototype: 4 AlphaServer 4100s x 4 processors, clustered 4.
    let topo = Topology::new(16, 4, 4).expect("valid topology");
    let mut machine = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);

    // Shared data: a message buffer and a counter, homed at processor 0.
    let (buffer, counter) = machine.setup(|s| {
        let buffer = s.malloc(256, BlockHint::Line, HomeHint::Explicit(0));
        let counter = s.malloc(64, BlockHint::Line, HomeHint::Explicit(0));
        (buffer, counter)
    });

    let bodies = (0..16u32)
        .map(|p| {
            move |mut dsm: Dsm| {
                // Processor 0 produces a message.
                if p == 0 {
                    for i in 0..32u64 {
                        dsm.store_u64(buffer + i * 8, i * i);
                    }
                }
                dsm.barrier(0);
                // Everyone consumes it (one software miss per node; node
                // mates hit the node's copy through their private tables).
                let mut sum = 0u64;
                for i in 0..32u64 {
                    sum += dsm.load_u64(buffer + i * 8);
                    dsm.compute(20);
                }
                assert_eq!(sum, (0..32).map(|i| i * i).sum());
                // And everyone bumps a lock-protected counter (migratory).
                for _ in 0..10 {
                    dsm.acquire(1);
                    let v = dsm.load_u64(counter);
                    dsm.store_u64(counter, v + 1);
                    dsm.release(1);
                }
                dsm.barrier(1);
                if p == 0 {
                    assert_eq!(dsm.load_u64(counter), 160);
                }
                dsm.barrier(2);
            }
        })
        .collect();

    let stats = machine.run(bodies);
    println!("simulated time: {:.1} us", stats.elapsed_cycles as f64 / 300.0);
    println!("software misses: {}", stats.misses.total());
    println!(
        "messages: {} remote, {} local, {} downgrade",
        stats.messages.count(MsgClass::Remote),
        stats.messages.count(MsgClass::Local),
        stats.messages.count(MsgClass::Downgrade),
    );
    println!(
        "downgrade events: {} (mean {:.2} messages each)",
        stats.downgrades.total(),
        stats.downgrades.mean()
    );
    println!("mean read-miss latency: {:.1} us", stats.mean_read_latency() / 300.0);
}
