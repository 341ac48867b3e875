//! Programming-error diagnostics: misuse panics loudly rather than
//! corrupting the simulation.

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

type Body = Box<dyn FnOnce(Dsm) + Send>;

fn machine() -> Machine {
    let topo = Topology::new(4, 4, 4).unwrap();
    Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20)
}

#[test]
#[should_panic(expected = "unallocated shared address")]
fn access_to_unallocated_memory_panics() {
    let mut m = machine();
    m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..4u32)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                if p == 0 {
                    // Way past the single allocation.
                    let _ = dsm.load_u64(0x9000);
                }
            }) as Body
        })
        .collect();
    m.run(bodies);
}

/// Memory images are mapped only as far as `malloc` got, so an access past
/// the last allocation must still be *diagnosed* — in every mode, through
/// every access path, run-time and set-up — never surface as a slice-index
/// panic. (A flag-technique load reads the image before any range check: an
/// unmapped longword reads as the invalid flag, which sends it to the miss
/// handler's range check.)
#[test]
fn every_access_past_the_last_allocation_names_it_unallocated() {
    type Misuse = (&'static str, fn(&mut Dsm));
    let accesses: [Misuse; 5] = [
        ("load_u64", |d| {
            let _ = d.load_u64(0x9000);
        }),
        ("store_u64", |d| d.store_u64(0x9000, 1)),
        ("read_range", |d| drop(d.read_range(0x9000, 128))),
        ("write_range", |d| d.write_range(0x9000, &[1; 128])),
        // Starts inside the allocation, runs off its end.
        ("read_range across the end", |d| drop(d.read_range(0x1020, 128))),
    ];
    let modes = [
        ("smp", ProtocolConfig::smp(), 4),
        ("base", ProtocolConfig::base(), 1),
        ("hardware", ProtocolConfig::hardware(), 4),
    ];
    // Every panic involved is a formatted one, so its payload is a `String`.
    let message = |r: std::thread::Result<()>, what: &str| -> String {
        *r.expect_err(what).downcast::<String>().expect("formatted panic message")
    };
    for (mode, cfg, clustering) in modes {
        let build = || {
            let topo = Topology::new(4, 4, clustering).unwrap();
            let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 20);
            let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
            assert_eq!(a, 0x1000);
            m
        };
        for (name, access) in accesses {
            let mut m = build();
            let bodies: Vec<Body> = (0..4u32)
                .map(|p| {
                    Box::new(move |mut dsm: Dsm| {
                        if p == 1 {
                            access(&mut dsm);
                        }
                    }) as Body
                })
                .collect();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(m.run(bodies))));
            let msg = message(r, name);
            assert!(msg.contains("unallocated shared address"), "{mode} {name}: {msg}");
        }
        let mut m = build();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.setup(|s| s.write(0x1020, &[1; 128]))
        }));
        let msg = message(r, "setup write");
        assert!(msg.contains("setup write to unallocated address"), "{mode}: {msg}");
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(m.setup(|s| s.read(0x9000, 8)))
        }));
        let msg = message(r, "setup read");
        assert!(msg.contains("setup read of unallocated address"), "{mode}: {msg}");
    }
}

#[test]
#[should_panic(expected = "release of unknown lock")]
fn releasing_an_unheld_lock_panics() {
    let mut m = machine();
    m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..4u32)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                if p == 1 {
                    dsm.release(3);
                }
            }) as Body
        })
        .collect();
    m.run(bodies);
}

#[test]
#[should_panic(expected = "one program per processor")]
fn wrong_body_count_panics() {
    let mut m = machine();
    m.run(vec![Box::new(|_dsm: Dsm| {}) as Body]);
}

#[test]
#[should_panic(expected = "application panic propagates")]
fn application_panics_propagate_to_the_caller() {
    let mut m = machine();
    m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..4u32)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                dsm.compute(10);
                dsm.poll();
                if p == 2 {
                    panic!("application panic propagates");
                }
            }) as Body
        })
        .collect();
    m.run(bodies);
}

/// Two physical nodes on the sharded engine (`set_sim_threads(2)`): node 0
/// is served inline by the coordinator, node 1 by the one remote worker.
/// `victim` panics with `msg`, after one operation unless `at_start`.
fn sharded_application_panic(victim: u32, at_start: bool, msg: &'static str) {
    let topo = Topology::new(8, 4, 4).unwrap();
    let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20);
    m.set_sim_threads(2);
    m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    let bodies: Vec<Body> = (0..8u32)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                if p == victim && at_start {
                    panic!("{msg}");
                }
                dsm.compute(10);
                dsm.poll();
                if p == victim {
                    panic!("{msg}");
                }
            }) as Body
        })
        .collect();
    m.run(bodies);
}

#[test]
#[should_panic(expected = "panic on the remote worker's shard")]
fn sharded_application_panic_on_remote_worker_propagates() {
    sharded_application_panic(5, false, "panic on the remote worker's shard");
}

#[test]
#[should_panic(expected = "panic on the coordinator's own shard")]
fn sharded_application_panic_on_coordinator_shard_propagates() {
    sharded_application_panic(1, false, "panic on the coordinator's own shard");
}

#[test]
#[should_panic(expected = "panic before the first operation")]
fn sharded_application_panic_before_first_op_propagates() {
    sharded_application_panic(5, true, "panic before the first operation");
}
