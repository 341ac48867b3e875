//! The event recorder's contract with the engine: it may be enabled on
//! either side of set-up, and it survives a caught violation. (That it
//! perturbs nothing, at any ring capacity, is `shasta-bench`'s
//! `obs_attribution` suite.)

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};

type Body = Box<dyn FnOnce(Dsm)>;

fn machine() -> Machine {
    let topo = Topology::new(8, 4, 4).unwrap();
    Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20)
}

/// Allocates one line homed on node 0 and has node 1 read what node 0 wrote.
fn program(m: &mut Machine) -> Vec<Body> {
    let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
    (0..8u32)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                if p == 0 {
                    dsm.store_u64(a, 7);
                }
                dsm.barrier(0);
                if p == 4 {
                    assert_eq!(dsm.load_u64(a), 7);
                }
                dsm.barrier(1);
            }) as Body
        })
        .collect()
}

/// `enable_obs` before `setup` or after it, either order: the recorder
/// classifies against the allocations as they stand when the run starts, so
/// the message aggregate counts the reply's payload and the profiler knows
/// the allocation site both ways.
#[test]
fn recording_may_be_enabled_before_or_after_setup() {
    let observed = |before_setup: bool| {
        let mut m = machine();
        if before_setup {
            m.enable_obs(1_024);
        }
        let bodies = program(&mut m);
        if !before_setup {
            m.enable_obs(1_024);
        }
        let stats = m.run(bodies);
        (stats, m.take_obs())
    };
    let (stats, before) = observed(true);
    let (stats_after, after) = observed(false);
    assert_eq!(stats, stats_after);
    before.crosscheck(&stats.messages).expect("enabled before setup");
    after.crosscheck(&stats.messages).expect("enabled after setup");
    let msgs = before.msgs().expect("the run attached the space map");
    assert_eq!(msgs.stats(), &stats.messages);
    assert!(msgs.stats().payload_bytes(shasta_stats::MsgClass::Remote) >= 64, "the read reply");
    assert_eq!(format!("{:?}", before.msgs()), format!("{:?}", after.msgs()));
    assert_eq!(format!("{:?}", before.profile()), format!("{:?}", after.profile()));
}

/// A violation caught around `Machine::run` leaves the machine readable:
/// `take_obs` returns what was recorded up to it, each processor's timeline a
/// prefix of the complete run's. The liveness oracle fires inside the event
/// loop, on whichever thread is running it.
#[test]
fn the_recording_survives_a_caught_violation() {
    let observed = |steps: u64| {
        let mut m = machine();
        m.set_step_limit(steps);
        m.enable_obs(1_024);
        let bodies = program(&mut m);
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(bodies)));
        (ran.map_err(|_| ()), m.take_obs())
    };
    let (ran, full) = observed(u64::MAX);
    ran.expect("an unlimited run finishes");
    let (ran, cut) = observed(12);
    assert!(ran.is_err(), "twelve steps cannot finish the program");
    assert!(!cut.is_empty() && cut.len() < full.len(), "{} of {} events", cut.len(), full.len());
    for p in 0..8 {
        let (cut, full) = (cut.proc(p).events, full.proc(p).events);
        assert_eq!(cut[..], full[..cut.len()], "P{p}");
    }
}
