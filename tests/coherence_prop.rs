//! Property-based coherence testing: randomized producer/consumer programs
//! whose expected outcome is computable by construction, executed across
//! protocols, clusterings, and granularities.
//!
//! Each generated program is a sequence of *phases* separated by barriers.
//! In a phase every shared slot has at most one writer (chosen at random),
//! so the program is data-race-free and the value each reader must observe
//! afterwards is exactly the last write. Any deviation is a protocol bug;
//! the machine's post-run audit additionally checks directory/state-table
//! agreement and copy equality.

use std::rc::Rc;

use proptest::prelude::*;
use shasta::cluster::{CostModel, Topology};
use shasta::core::api::Dsm;
use shasta::core::protocol::{Machine, ProtocolConfig};
use shasta::core::space::{BlockHint, HomeHint};

type Body = Box<dyn FnOnce(Dsm)>;

#[derive(Clone, Debug)]
struct Phase {
    /// writer[slot] = processor that stores `phase_value(slot, phase)`.
    writers: Vec<u8>,
    /// readers[slot] = processors that read the slot afterwards (bitmask).
    readers: Vec<u8>,
}

fn phase_strategy(procs: u8, slots: usize) -> impl Strategy<Value = Phase> {
    (proptest::collection::vec(0..procs, slots), proptest::collection::vec(any::<u8>(), slots))
        .prop_map(|(writers, readers)| Phase { writers, readers })
}

fn program_strategy(procs: u8, slots: usize) -> impl Strategy<Value = Vec<Phase>> {
    proptest::collection::vec(phase_strategy(procs, slots), 1..5)
}

fn value_of(phase: usize, slot: usize) -> u64 {
    ((phase as u64 + 1) << 32) | slot as u64
}

fn run_program(
    phases: &[Phase],
    procs: u32,
    clustering: u32,
    cfg: ProtocolConfig,
    hint: BlockHint,
) {
    let slots = phases[0].writers.len();
    let topo = Topology::new(procs, procs.min(4), clustering).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 20);
    let base = m.setup(|s| s.malloc(64 * slots as u64, hint, HomeHint::RoundRobin));
    let phases: Rc<Vec<Phase>> = Rc::new(phases.to_vec());
    let bodies: Vec<Body> = (0..procs)
        .map(|p| {
            let phases = Rc::clone(&phases);
            Box::new(move |mut dsm: Dsm| {
                for (i, phase) in phases.iter().enumerate() {
                    for (slot, &w) in phase.writers.iter().enumerate() {
                        if w as u32 % procs == p {
                            dsm.store_u64(base + 64 * slot as u64, value_of(i, slot));
                        }
                    }
                    dsm.barrier(i as u32 * 2);
                    for (slot, &r) in phase.readers.iter().enumerate() {
                        if (r as u32 ^ slot as u32) % procs == p {
                            let got = dsm.load_u64(base + 64 * slot as u64);
                            assert_eq!(
                                got,
                                value_of(i, slot),
                                "phase {i} slot {slot}: stale read on P{p}"
                            );
                        }
                    }
                    dsm.barrier(i as u32 * 2 + 1);
                }
            }) as Body
        })
        .collect();
    m.run(bodies); // post-run audit panics on any incoherence
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    #[test]
    fn randomized_programs_read_last_writes_base(program in program_strategy(8, 6)) {
        run_program(&program, 8, 1, ProtocolConfig::base(), BlockHint::Line);
    }

    #[test]
    fn randomized_programs_read_last_writes_smp_c4(program in program_strategy(8, 6)) {
        run_program(&program, 8, 4, ProtocolConfig::smp(), BlockHint::Line);
    }

    #[test]
    fn randomized_programs_read_last_writes_smp_c2(program in program_strategy(8, 6)) {
        run_program(&program, 8, 2, ProtocolConfig::smp(), BlockHint::Line);
    }

    #[test]
    fn randomized_programs_with_coarse_blocks(program in program_strategy(8, 6)) {
        // All six slots share one 512-byte block: heavy false sharing.
        run_program(&program, 8, 4, ProtocolConfig::smp(), BlockHint::Bytes(512));
    }

    #[test]
    fn randomized_programs_blocking_stores(program in program_strategy(4, 4)) {
        let cfg = ProtocolConfig { nonblocking_stores: false, ..ProtocolConfig::smp() };
        run_program(&program, 4, 4, cfg, BlockHint::Line);
    }
}
