//! The heap size is a limit, not an input: memory images, state tables and
//! the oracle's shadow are mapped at `malloc`, so nothing a run computes may
//! depend on how much heap the machine was *allowed*.

use proptest::prelude::*;
use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};
use shasta_stats::RunStats;

const PROCS: u32 = 4;

/// Everything observable about one run: statistics, the rendered event log
/// (the schedule taken) and the allocation's final home copy.
type Outcome = (RunStats, String, Vec<u8>);

/// A false-sharing kernel: every processor increments its own 8-byte slot
/// of one `block_bytes` block (`slots` per processor, so larger inputs span
/// several blocks), with a barrier per round and a read of a neighbour's
/// slot after it.
fn run(
    smp: bool,
    oracle: bool,
    heap_bytes: u64,
    rounds: u32,
    slots: u64,
    block_bytes: u64,
) -> Outcome {
    let (clustering, cfg) =
        if smp { (2, ProtocolConfig::smp()) } else { (1, ProtocolConfig::base()) };
    let topo = Topology::new(PROCS, 2, clustering).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, heap_bytes);
    if oracle {
        m.enable_oracle();
    }
    m.enable_recording();
    let len = u64::from(PROCS) * slots * 8;
    let a = m.setup(|s| {
        let a = s.malloc(len, BlockHint::Bytes(block_bytes), HomeHint::RoundRobin);
        s.write_u64(a, 1);
        a
    });
    let slot = move |p: u32, i: u64| a + (u64::from(p) * slots + i) * 8;
    let bodies = (0..PROCS)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                for r in 0..rounds {
                    for i in 0..slots {
                        let v = dsm.load_u64(slot(p, i));
                        dsm.store_u64(slot(p, i), v + u64::from(r) + 1);
                    }
                    dsm.barrier(2 * r);
                    let _ = dsm.load_u64(slot((p + 1 + r) % PROCS, 0));
                    dsm.barrier(2 * r + 1);
                }
            }) as Box<dyn FnOnce(Dsm)>
        })
        .collect();
    let stats = m.run(bodies);
    let events = m.take_obs().render();
    (stats, events, m.setup(|s| s.read(a, len)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    #[test]
    fn results_do_not_depend_on_the_heap_limit(
        rounds in 1u32..5,
        slots in 1u64..6,
        block_lines in 1u64..5,
    ) {
        for smp in [true, false] {
            for oracle in [false, true] {
                let at = |heap_bytes| run(smp, oracle, heap_bytes, rounds, slots, block_lines * 64);
                let small = at(64 << 10);
                prop_assert!(small.0.misses.total() > 0, "the kernel must share");
                for heap_bytes in [1 << 20, 256 << 20] {
                    let other = at(heap_bytes);
                    prop_assert_eq!(&small.0, &other.0, "smp {} oracle {}: stats", smp, oracle);
                    prop_assert_eq!(&small.1, &other.1, "smp {} oracle {}: events", smp, oracle);
                    prop_assert_eq!(&small.2, &other.2, "smp {} oracle {}: memory", smp, oracle);
                }
            }
        }
    }
}
