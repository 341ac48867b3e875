//! Recording is invisible to the simulation: for every default scenario on
//! every cluster shape, a recorded run's statistics equal an unrecorded
//! run's, and the recorded `msg-send` events re-derive the transport's
//! message counters exactly.

use shasta_check::{cluster_kinds, default_scenarios, run_scenario, run_scenario_observed};
use shasta_core::BugInjection;
use shasta_sim::SchedulePolicy;

#[test]
fn recording_matches_an_unrecorded_run() {
    let policy = SchedulePolicy::Deterministic;
    for base in default_scenarios() {
        for cluster in cluster_kinds() {
            let s = shasta_check::Scenario { cluster, ..base };
            let bare = run_scenario(&s, policy, BugInjection::None, false);
            let (stats, log) = run_scenario_observed(&s, policy, BugInjection::None);
            assert_eq!(stats, bare, "{s}: recording changed the run");
            assert_eq!(log.crosscheck(&stats.messages), Ok(()), "{s}");
        }
    }
}
