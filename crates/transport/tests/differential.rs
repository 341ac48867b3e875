//! Differential harness: the deterministic simulator is the oracle, and a
//! run whose remote messages all crossed real sockets must produce exactly
//! the same message, miss, and downgrade counters.
//!
//! These tests keep the debug-build test suite fast by covering one Table 2
//! kernel per backend plus the retransmit-under-drop path; the release-mode
//! `transport_bench` binary runs the *full* Table 2 set over both backends
//! and asserts the same equalities (the acceptance criterion).

use shasta_apps::driver::{
    registry, run_app, run_app_shaped, run_app_with_transport, Preset, Proto, RunConfig,
};
use shasta_cluster::{CostModel, Topology};
use shasta_core::{FaultPlan, Machine, NetProfile, ProtocolConfig};
use shasta_obs::Registry;
use shasta_stats::RunStats;
use shasta_transport::{Backend, DropPlan, LoopbackTransport, Transport};

fn smp_tiny() -> RunConfig {
    RunConfig::new(Proto::Smp, 8, 4)
}

fn run_sim(app_name: &str) -> RunStats {
    let spec = registry().into_iter().find(|s| s.name == app_name).expect("app");
    run_app((spec.build)(Preset::Tiny, true).as_ref(), &smp_tiny())
}

fn run_wire(app_name: &str, backend: Backend, drops: DropPlan) -> RunStats {
    let spec = registry().into_iter().find(|s| s.name == app_name).expect("app");
    run_app_with_transport((spec.build)(Preset::Tiny, true).as_ref(), &smp_tiny(), |topo, cost| {
        Box::new(
            LoopbackTransport::connect(topo.clone(), cost.clone(), backend, drops)
                .expect("loopback fabric"),
        )
    })
}

/// Message, miss, and downgrade counters must be *exactly* equal; elapsed
/// cycles too (the sim is the timing authority on both backends).
fn assert_counters_match(app: &str, backend: &str, sim: &RunStats, wire: &RunStats) {
    assert_eq!(sim.messages, wire.messages, "{app}/{backend}: message counters diverged");
    assert_eq!(sim.misses, wire.misses, "{app}/{backend}: miss counters diverged");
    assert_eq!(sim.downgrades, wire.downgrades, "{app}/{backend}: downgrade histogram diverged");
    assert_eq!(
        sim.elapsed_cycles, wire.elapsed_cycles,
        "{app}/{backend}: simulated cycles diverged"
    );
}

#[test]
fn lu_over_uds_matches_the_simulator() {
    let sim = run_sim("LU");
    let wire = run_wire("LU", Backend::Uds, DropPlan::default());
    assert_counters_match("LU", "uds", &sim, &wire);
}

#[test]
fn lu_over_tcp_matches_the_simulator() {
    let sim = run_sim("LU");
    let wire = run_wire("LU", Backend::Tcp, DropPlan::default());
    assert_counters_match("LU", "tcp", &sim, &wire);
}

#[test]
fn water_over_uds_matches_the_simulator() {
    let sim = run_sim("Water-Nsq");
    let wire = run_wire("Water-Nsq", Backend::Uds, DropPlan::default());
    assert_counters_match("Water-Nsq", "uds", &sim, &wire);
}

/// `DATA` frames are corked per socket end and written when their stream is
/// next read, so a run makes fewer `write` calls than it sends frames, ACKs
/// included. On loopback the count is deterministic (LU reads 594 writes for
/// 1 088 frames); one write per frame would be well above the bound.
#[test]
fn lu_over_uds_writes_fewer_times_than_it_sends_frames() {
    let sim = run_sim("LU");
    let spec = registry().into_iter().find(|s| s.name == "LU").expect("app");
    let reg = Registry::enabled();
    let mut probe = None;
    let wire =
        run_app_with_transport((spec.build)(Preset::Tiny, true).as_ref(), &smp_tiny(), |t, c| {
            let mut transport =
                LoopbackTransport::connect(t.clone(), c.clone(), Backend::Uds, DropPlan::default())
                    .expect("loopback fabric");
            transport.set_metrics(&reg);
            probe = Some(transport.counts_probe());
            Box::new(transport)
        });
    assert_counters_match("LU", "uds", &sim, &wire);
    let frames = probe.expect("factory ran").get().data_frames;
    let writes = reg.snapshot().counter("wire.io.writes");
    assert!(writes * 4 < frames * 3, "{writes} writes for {frames} DATA frames");
}

/// Drop every 7th first transmission: retransmission must recover every
/// one of them, the counters must still match exactly, nothing else may be
/// resent — not the frames held behind a lost one, and not a frame whose
/// ACK is merely late — and no resend may wait for a timer.
fn induced_drops_converge(backend: Backend) {
    let label = format!("{}+drop", backend.label());
    let sim = run_sim("LU");
    let spec = registry().into_iter().find(|s| s.name == "LU").expect("app");
    let app = (spec.build)(Preset::Tiny, true);
    let reg = Registry::enabled();
    let mut probe = None;
    let wire = run_app_with_transport(app.as_ref(), &smp_tiny(), |topo, cost| {
        let mut t = LoopbackTransport::connect(
            topo.clone(),
            cost.clone(),
            backend,
            DropPlan { drop_every: 7 },
        )
        .expect("loopback fabric");
        t.set_metrics(&reg);
        probe = Some(t.counts_probe());
        Box::new(t)
    });
    assert_counters_match("LU", &label, &sim, &wire);
    let counts = probe.expect("factory ran").get();
    assert!(counts.induced_drops > 0, "{label}: the drop plan never fired: {counts:?}");
    assert_eq!(
        counts.retransmits, counts.induced_drops,
        "{label}: one retransmission per induced drop, no more: {counts:?}"
    );
    // A recovered frame arrives after its successors, so drops exercise the
    // hold/resequence path too.
    assert!(
        counts.holds > 0 && counts.resequenced > 0,
        "{label}: drops never forced a hold: {counts:?}"
    );
    // A receiver repeats its last ACK, after settling what it owes, when it
    // holds a frame, when a repair leaves frames held behind a second gap,
    // and on the first turn of a receive that finds nothing: every loss is
    // known to some receiver that says so, and no resend waits for a timer.
    // The split reads 155 fast and 0 timeout on every run over either
    // backend (the TCP loopback makes a write readable before it returns,
    // as a Unix socket does); without the wait's repeat the tail losses
    // take the timer, 47 of the 155.
    let snap = reg.snapshot();
    let (fast, timeout) =
        (snap.counter("wire.retransmits.fast"), snap.counter("wire.retransmits.timeout"));
    assert_eq!(fast + timeout, counts.retransmits, "{label}: an untriggered resend: {counts:?}");
    assert_eq!(timeout, 0, "{label}: {fast} fast and {timeout} timer resends of {counts:?}");
}

#[test]
fn induced_drops_converge_via_retransmission() {
    induced_drops_converge(Backend::Uds);
}

#[test]
fn induced_drops_converge_via_retransmission_over_tcp() {
    induced_drops_converge(Backend::Tcp);
}

/// A UDS wire for `m`'s topology.
fn wire_for(m: &Machine) -> Box<LoopbackTransport> {
    Box::new(
        LoopbackTransport::connect(
            m.topology().clone(),
            m.cost_model().clone(),
            Backend::Uds,
            DropPlan::default(),
        )
        .expect("loopback fabric"),
    )
}

/// A link profile set *before* the wire is tapped on still times the run:
/// the machine has one network, and the wire does not replace it.
#[test]
fn a_profile_set_before_the_wire_still_applies() {
    // Node 0's link is 4x narrower, and every path into or out of node 1
    // is 3x longer: the two directions differ.
    let profile = |m: &Machine| {
        NetProfile::uniform(m.topology().phys_nodes(), m.cost_model())
            .scale_link_bandwidth(0, 4)
            .scale_node_latency(1, 3)
    };
    let spec = registry().into_iter().find(|s| s.name == "LU").expect("app");
    let app = (spec.build)(Preset::Tiny, true);
    let sim = run_app_shaped(app.as_ref(), &smp_tiny(), |m| m.set_net_profile(profile(m)));
    let wire = run_app_shaped(app.as_ref(), &smp_tiny(), |m| {
        m.set_net_profile(profile(m));
        m.set_transport(wire_for(m));
    });
    assert_ne!(sim.elapsed_cycles, run_sim("LU").elapsed_cycles, "the profile moves the run");
    assert_eq!(sim, wire, "the wire run lost the profile set before it");
}

fn bare_machine() -> Machine {
    let topo = Topology::new(8, 4, 4).expect("topology");
    Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 16)
}

#[test]
#[should_panic(expected = "simulated fault plans do not compose")]
fn a_fault_plan_then_a_wire_panics() {
    let mut m = bare_machine();
    m.set_fault_plan(FaultPlan::chaos(1));
    let wire = wire_for(&m);
    m.set_transport(wire);
}

#[test]
#[should_panic(expected = "simulated fault plans do not compose")]
fn a_wire_then_a_fault_plan_panics() {
    let mut m = bare_machine();
    let wire = wire_for(&m);
    m.set_transport(wire);
    m.set_fault_plan(FaultPlan::chaos(1));
}
