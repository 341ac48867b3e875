//! Programming-error diagnostics: misuse panics loudly rather than
//! corrupting the simulation.

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

type Body = Box<dyn FnOnce(Dsm)>;

/// Each protocol mode on four processors, with the clustering it needs.
fn modes() -> [(&'static str, ProtocolConfig, u32); 3] {
    [
        ("smp", ProtocolConfig::smp(), 4),
        ("base", ProtocolConfig::base(), 1),
        ("hardware", ProtocolConfig::hardware(), 4),
    ]
}

/// The message `r` panicked with; `what` names the step that had to panic.
fn message<T>(r: std::thread::Result<T>, what: &str) -> String {
    let Err(payload) = r else { panic!("{what} did not panic") };
    match payload.downcast::<String>() {
        Ok(formatted) => *formatted,
        Err(payload) => payload.downcast::<&str>().expect("a panic message").to_string(),
    }
}

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
    let accesses: [Misuse; 6] = [
        ("load_u64", |d| {
            let _ = d.load_u64(0x9000);
        }),
        ("store_u64", |d| d.store_u64(0x9000, 1)),
        ("read_into", |d| d.read_into(0x9000, &mut [0; 128])),
        ("read_range", |d| drop(d.read_range(0x9000, 128))),
        ("write_range", |d| d.write_range(0x9000, &[1; 128])),
        // Starts inside the allocation, runs off its end.
        ("read_f64s_into across the end", |d| d.read_f64s_into(0x1020, &mut [0.0; 16])),
    ];
    for (mode, cfg, clustering) in modes() {
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

/// An empty range is the body's error in every mode: every range read and
/// write panics in the body, naming the address, before the engine sees the
/// operation.
#[test]
fn an_empty_range_panics_in_the_body_in_every_mode() {
    type Misuse = (&'static str, fn(&mut Dsm));
    let accesses: [Misuse; 5] = [
        ("read_into", |d| d.read_into(0x1000, &mut [])),
        ("read_f64s_into", |d| d.read_f64s_into(0x1000, &mut [])),
        ("read_range", |d| drop(d.read_range(0x1000, 0))),
        ("write_range", |d| d.write_range(0x1000, &[])),
        ("write_f64s", |d| d.write_f64s(0x1000, &[])),
    ];
    for (mode, cfg, clustering) in modes() {
        for (name, access) in accesses {
            let topo = Topology::new(4, 4, clustering).unwrap();
            let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 20);
            m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
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
            assert!(msg.contains("empty range") && msg.contains("0x1000"), "{mode} {name}: {msg}");
        }
    }
}

/// The fiber does not wait for a store, a range write or a release, so the
/// engine reaches the bad one after the body has moved on: into a load (it
/// arrives with the load's batch), out of its closure (it arrives as the
/// tail), or into a panic of its own (the tail is serviced before the fiber's
/// panic is re-raised). `Machine::run` raises the engine's diagnosis each time.
#[test]
fn posted_misuse_is_diagnosed_however_the_body_goes_on() {
    type Step = (&'static str, fn(&mut Dsm));
    let posts: [(Step, &str); 3] = [
        (("store_u64", |d| d.store_u64(0x9000, 1)), "access to unallocated shared address"),
        (("write_range", |d| d.write_range(0x9000, &[1; 128])), "unallocated shared address"),
        (("release", |d| d.release(3)), "release of unknown lock"),
    ];
    let endings: [Step; 3] = [
        ("returns", |_| {}),
        ("loads", |d| assert_eq!(d.load_u64(0x1000), 0)),
        ("panics", |_| panic!("the body's own panic")),
    ];
    for (mode, cfg, clustering) in modes() {
        for ((name, post), diagnosis) in posts {
            for (ending, go_on) in endings {
                // A bad release is the lock manager's to diagnose, one message
                // after the operation completes: the fiber's panic comes first.
                if (name, ending) == ("release", "panics") {
                    continue;
                }
                let topo = Topology::new(4, 4, clustering).unwrap();
                let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 20);
                m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
                let bodies: Vec<Body> = (0..4u32)
                    .map(|p| {
                        Box::new(move |mut dsm: Dsm| {
                            dsm.compute(10);
                            if p == 1 {
                                post(&mut dsm);
                                go_on(&mut dsm);
                            }
                        }) as Body
                    })
                    .collect();
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(bodies)));
                let msg = message(r, name);
                assert!(msg.contains(diagnosis), "{mode} {name}, body {ending}: {msg}");
            }
        }
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

/// A body's panic leaves `Machine::run` with its own payload, whether it
/// comes after the body's first operation or before its first `Dsm` call
/// (while the pool is still starting the fibers).
#[test]
fn application_panics_propagate_to_the_caller() {
    for at_start in [false, true] {
        let mut m = machine();
        m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
        let bodies: Vec<Body> = (0..4u32)
            .map(|p| {
                Box::new(move |mut dsm: Dsm| {
                    if p == 2 && at_start {
                        panic!("application panic propagates");
                    }
                    dsm.compute(10);
                    dsm.poll();
                    if p == 2 {
                        panic!("application panic propagates");
                    }
                }) as Body
            })
            .collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(bodies)));
        assert_eq!(message(r, "run"), "application panic propagates", "at start: {at_start}");
    }
}
