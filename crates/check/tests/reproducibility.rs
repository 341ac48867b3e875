//! Seeded schedule exploration must be deterministic, or counterexamples
//! are not replayable: the same `(scenario, policy)` pair has to reproduce
//! the identical run — statistics *and* rendered events — while different
//! seeds have to actually explore different schedules. A counterexample's
//! trail comes from a recorded replay, so only a failing run records.

use std::collections::HashSet;

use proptest::prelude::*;
use shasta_check::{
    default_scenarios, loss_fault_plan, policies_for_seed, recorded_runs, replay_observed,
    run_checked, run_scenario_traced, shrink, silence_expected_panics, sweep, validate_oracles,
    Scenario, TRACE_RING,
};
use shasta_core::BugInjection;
use shasta_sim::SchedulePolicy;

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Same `(config, seed)` ⇒ bit-identical statistics and schedule trace,
    /// for both seeded policies over every default scenario.
    #[test]
    fn same_seed_reproduces_bit_exactly(seed in any::<u64>(), pick in any::<u64>()) {
        let scenarios = default_scenarios();
        let s = scenarios[(pick % scenarios.len() as u64) as usize];
        for policy in policies_for_seed(seed) {
            let (stats_a, trace_a) = run_scenario_traced(&s, policy, BugInjection::None);
            let (stats_b, trace_b) = run_scenario_traced(&s, policy, BugInjection::None);
            prop_assert_eq!(&stats_a, &stats_b, "stats diverged for {} {:?}", s, policy);
            prop_assert_eq!(&trace_a, &trace_b, "schedule diverged for {} {:?}", s, policy);
        }
    }

    /// Shrunken *fault* counterexamples stay replayable: whatever loss seed
    /// the fabric draws from, once a counterexample is found its shrunken
    /// form fails again on replay with the byte-identical oracle violation,
    /// and the shrink never drops the loss category the failure needs.
    #[test]
    fn shrunken_fault_counterexamples_replay_to_the_same_violation(
        fault_seed in any::<u64>(),
        pick in any::<u64>(),
    ) {
        silence_expected_panics();
        let scenarios = default_scenarios();
        let s = Scenario {
            fault: loss_fault_plan(fault_seed),
            ..scenarios[(pick % scenarios.len() as u64) as usize]
        };
        // Not every (scenario, policy, fault seed) triple loses a message
        // the protocol misses promptly; scan a few policy seeds for one that
        // does and skip the case if none fires (loss is probabilistic per
        // plan seed, but replay determinism must hold whenever it fires).
        let cx = (0..8u64)
            .flat_map(policies_for_seed)
            .find_map(|policy| run_checked(&s, policy, BugInjection::None).err());
        if let Some(cx) = cx {
            let small = shrink(&cx);
            prop_assert!(
                small.scenario.fault.loss_permille > 0,
                "shrinking dropped the loss category the failure needs"
            );
            let replayed = run_checked(&small.scenario, small.policy, small.bug)
                .expect_err("a shrunken fault counterexample must still fail on replay");
            prop_assert_eq!(
                &small.message,
                &replayed.message,
                "shrunken counterexample replayed to a different violation"
            );
        }
    }
}

/// Different seeds explore genuinely different schedules: a handful of
/// seeds on one scenario must produce at least two distinct event traces
/// (trace divergence is a conservative witness — identical traces could
/// still hide distinct schedules, but distinct traces cannot lie).
#[test]
fn different_seeds_explore_distinct_schedules() {
    let s = default_scenarios()[0];
    let mut traces = HashSet::new();
    for seed in 0..8 {
        let policy = SchedulePolicy::SeededRandom { seed };
        let (_, trace) = run_scenario_traced(&s, policy, BugInjection::None);
        traces.insert(trace);
    }
    assert!(traces.len() >= 2, "8 seeds produced only {} distinct schedule(s)", traces.len());
}

/// The deterministic default is itself reproducible and is *not* perturbed
/// by enabling the checker: two deterministic runs agree with each other.
#[test]
fn deterministic_policy_is_stable() {
    for s in &default_scenarios() {
        let a = run_scenario_traced(s, SchedulePolicy::Deterministic, BugInjection::None);
        let b = run_scenario_traced(s, SchedulePolicy::Deterministic, BugInjection::None);
        assert_eq!(a, b, "deterministic run diverged for {s}");
    }
}

/// Both injected bugs are caught with their trail: each shrunk
/// counterexample's message ends with rendered events of its recorded
/// replay, and running its triple twice gives byte-identical messages. The
/// same scenario and policy without the bug pass a recorded replay (the
/// clean path of `check --trace`), whose log covers every processor and
/// agrees with the network's message counters.
#[test]
fn counterexamples_carry_their_trail() {
    silence_expected_panics();
    let caught = validate_oracles(&default_scenarios(), 8).expect("both injected bugs are caught");
    assert_eq!(caught.len(), 2);
    for cx in &caught {
        let trail = cx.message.lines().filter(|l| l.starts_with('[') && l.contains("cy P"));
        assert!(trail.count() > 0, "no trail in {cx}");
        let a = run_checked(&cx.scenario, cx.policy, cx.bug).expect_err("the triple fails");
        let b = run_checked(&cx.scenario, cx.policy, cx.bug).expect_err("the triple fails");
        assert_eq!(a.message, b.message, "{:?}", cx.bug);
        assert_eq!(a.message, cx.message, "{:?}", cx.bug);
        let (ok, log) = replay_observed(&cx.scenario, cx.policy, BugInjection::None, TRACE_RING);
        let stats = ok.expect("the correct protocol passes");
        assert_eq!(log.procs() as u32, cx.scenario.procs);
        log.crosscheck(&stats.messages).expect("recorded sends match the network's counters");
    }
}

/// A passing sweep run records no events; a failing run pays for exactly
/// one recorded replay, its trail — and so does a shrunk counterexample,
/// however many failing candidates the shrink tried.
#[test]
fn only_a_failing_run_records() {
    silence_expected_panics();
    let scenarios = default_scenarios();
    let before = recorded_runs();
    let report = sweep(&scenarios, 0..2, BugInjection::None, 1);
    assert!(report.failures.is_empty() && report.runs > 0);
    assert_eq!(recorded_runs(), before, "a passing sweep recorded events");
    let cx = scenarios.iter().find_map(|s| {
        run_checked(s, SchedulePolicy::Deterministic, BugInjection::SkipDowngradeWait).err()
    });
    assert!(cx.is_some(), "a deterministic run catches the injected bug");
    assert_eq!(recorded_runs(), before + 1, "one replay for the one failure");
    let report = sweep(&scenarios, 0..8, BugInjection::SkipDowngradeWait, 1);
    assert_eq!(report.failures.len(), 1, "the injected bug is caught");
    assert_eq!(recorded_runs(), before + 2, "one replay for the one shrunk failure");
}
