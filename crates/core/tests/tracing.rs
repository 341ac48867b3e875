//! The event recorder's contract with the engine: it may be enabled on
//! either side of set-up, and it survives a caught violation. (That it
//! perturbs nothing, at any ring capacity, is `shasta-bench`'s
//! `obs_attribution` suite.)

use shasta_cluster::{CostModel, Topology};
use shasta_core::api::Dsm;
use shasta_core::protocol::{Machine, ProtocolConfig};
use shasta_core::space::{BlockHint, HomeHint};
use shasta_obs::{EventKind, Stamped};
use shasta_stats::MsgClass;

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

/// `enable_recording` before `setup` or after it, either order: the recorder
/// classifies against the allocations as they stand when the run starts, so
/// the message aggregate counts the reply's payload and the profiler knows
/// the allocation site both ways.
#[test]
fn recording_may_be_enabled_before_or_after_setup() {
    let observed = |before_setup: bool| {
        let mut m = machine();
        if before_setup {
            m.enable_recording();
        }
        let bodies = program(&mut m);
        if !before_setup {
            m.enable_recording();
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
        m.enable_recording();
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
        let (cut, full) = (cut.proc(p), full.proc(p));
        assert!(cut.len() <= full.len(), "P{p}: {} of {} events", cut.len(), full.len());
        let prefix: Vec<Stamped> = full.events().take(cut.len()).collect();
        assert_eq!(cut.events().collect::<Vec<_>>(), prefix, "P{p}");
    }
}

/// Three allocations of different block sizes: every processor writes its
/// own slot of two of them, bumps a counter in the third under a lock, and
/// reads another node's slots between barriers.
fn mixed_program(m: &mut Machine) -> Vec<Body> {
    let (lines, quads, counter) = m.setup(|s| {
        (
            s.malloc(512, BlockHint::Line, HomeHint::Explicit(0)),
            s.malloc(1_024, BlockHint::Bytes(256), HomeHint::Explicit(4)),
            s.malloc(128, BlockHint::Bytes(128), HomeHint::Explicit(2)),
        )
    });
    (0..8u64)
        .map(|p| {
            Box::new(move |mut dsm: Dsm| {
                dsm.store_u64(lines + p * 64, p);
                dsm.store_u64(quads + p * 128, p);
                dsm.acquire(0);
                let n = dsm.load_u64(counter);
                dsm.store_u64(counter, n + 1);
                dsm.release(0);
                dsm.barrier(0);
                let q = (p + 3) % 8;
                assert_eq!(dsm.load_u64(lines + q * 64), q);
                assert_eq!(dsm.load_u64(quads + q * 128), q);
                dsm.barrier(1);
                if p == 0 {
                    assert_eq!(dsm.load_u64(counter), 8);
                }
            }) as Body
        })
        .collect()
}

/// The profiler charges each message about a known allocation to its block,
/// so its per-block counts sum to the `msg-send` events of every kind but
/// the sync traffic (locks and barriers name no block), and all of those
/// events sum to the message aggregate's totals.
#[test]
fn profiler_message_totals_match_the_message_aggregate() {
    let mut m = machine();
    m.enable_recording();
    let bodies = mixed_program(&mut m);
    let stats = m.run(bodies);
    let log = m.take_obs();
    log.crosscheck(&stats.messages).expect("engine and network agree");
    let profile = log.profile().expect("the run attached the space map");
    let profiled = profile
        .blocks()
        .fold((0, 0), |(n, b), (_, h)| (n + u64::from(h.protocol_msgs), b + h.protocol_bytes()));
    let sync = |kind: &str| kind.starts_with("lock-") || kind.starts_with("barrier-");
    let (mut known, mut all) = ((0, 0), (0, 0));
    for e in log.iter() {
        let EventKind::MsgSend { msg, block, .. } = e.kind else { continue };
        let reply = msg == "read-reply" || msg == "write-reply";
        let bytes = if reply { profile.map().block_bytes_of(block).unwrap_or(0) } else { 0 };
        all = (all.0 + 1, all.1 + bytes);
        if !sync(msg) {
            known = (known.0 + 1, known.1 + bytes);
        }
    }
    let msgs = log.msgs().expect("the run attached the space map").stats();
    let classes = MsgClass::ALL.iter().map(|&c| (msgs.count(c), msgs.payload_bytes(c)));
    assert_eq!(all, classes.fold((0, 0), |(n, b), (cn, cb)| (n + cn, b + cb)));
    assert_eq!(profiled, known);
    assert!(known.1 > 0, "data replies carry blocks");
    assert!(all.0 > known.0, "the run sent sync messages too");
    let sites = profile.advise();
    assert_eq!(sites.len(), 3);
    assert!(sites.iter().all(|s| s.protocol_msgs > 0), "every allocation saw traffic");
}
