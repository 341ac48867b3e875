//! Line-size configurability (§2.1: 64 or 128 bytes). Coarser lines mean
//! fewer misses for streaming access and more false sharing for interleaved
//! writers — both directions verified here.

use std::cell::Cell;
use std::rc::Rc;

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

type Body = Box<dyn FnOnce(Dsm)>;

fn bodies(n: u32, f: impl Fn(u32, &mut Dsm) + Clone + 'static) -> Vec<Body> {
    (0..n)
        .map(|p| {
            let f = f.clone();
            Box::new(move |mut dsm: Dsm| f(p, &mut dsm)) as Body
        })
        .collect()
}

fn machine(line: u64) -> Machine {
    let topo = Topology::new(8, 4, 1).unwrap();
    Machine::with_line_size(topo, CostModel::alpha_4100(), ProtocolConfig::base(), 1 << 20, line)
}

/// Streaming reads: 128-byte lines halve the miss count of 64-byte lines.
#[test]
fn coarser_lines_halve_streaming_misses() {
    let run = |line: u64| {
        let mut m = machine(line);
        let a = m.setup(|s| {
            let a = s.malloc(4_096, BlockHint::Line, HomeHint::Explicit(0));
            for i in 0..512 {
                s.write_u64(a + i * 8, i);
            }
            a
        });
        m.run(bodies(8, move |p, dsm| {
            if p == 4 {
                for i in 0..512 {
                    assert_eq!(dsm.load_u64(a + i * 8), i);
                }
            }
            dsm.barrier(0);
        }))
    };
    let fine = run(64);
    let coarse = run(128);
    assert_eq!(fine.misses.total(), 64);
    assert_eq!(coarse.misses.total(), 32);
    assert!(coarse.elapsed_cycles < fine.elapsed_cycles);
}

/// Interleaved writers: 128-byte lines double the false-sharing ping-pong
/// of adjacent 64-byte-apart writers.
#[test]
fn coarser_lines_increase_false_sharing() {
    let run = |line: u64| {
        let mut m = machine(line);
        let a = m.setup(|s| s.malloc(128, BlockHint::Line, HomeHint::Explicit(0)));
        m.run(bodies(8, move |p, dsm| {
            // P4 and P5 write to different 64-byte halves of the same
            // 128-byte region, alternating through barriers.
            for round in 0..20u32 {
                if p == 4 {
                    dsm.store_u64(a, round as u64);
                }
                dsm.barrier(2 * round);
                if p == 5 {
                    dsm.store_u64(a + 64, round as u64);
                }
                dsm.barrier(2 * round + 1);
            }
        }))
    };
    let fine = run(64);
    let coarse = run(128);
    assert!(
        coarse.misses.total() > fine.misses.total(),
        "128B lines must ping-pong the falsely shared halves ({} vs {})",
        coarse.misses.total(),
        fine.misses.total()
    );
}

/// The invalid-flag machinery and validation hold at both line sizes.
#[test]
fn results_identical_across_line_sizes() {
    let run = |line: u64| -> u64 {
        let mut m = machine(line);
        let a = m.setup(|s| s.malloc(1_024, BlockHint::Line, HomeHint::RoundRobin));
        let total = Rc::new(Cell::new(0));
        let t2 = Rc::clone(&total);
        m.run(bodies(8, move |p, dsm| {
            for i in 0..16u64 {
                dsm.acquire((i % 4) as u32);
                let v = dsm.load_u64(a + i * 64);
                dsm.store_u64(a + i * 64, v + p as u64 + 1);
                dsm.release((i % 4) as u32);
            }
            dsm.barrier(0);
            if p == 0 {
                let mut sum = 0;
                for i in 0..16u64 {
                    sum += dsm.load_u64(a + i * 64);
                }
                t2.set(sum);
            }
            dsm.barrier(1);
        }));
        total.get()
    };
    let v64 = run(64);
    let v128 = run(128);
    assert_eq!(v64, v128);
    assert_eq!(v64, 16 * (1..=8u64).sum::<u64>());
}
