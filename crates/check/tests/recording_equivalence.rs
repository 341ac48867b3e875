//! Sharded *recording* equivalence: with event recording enabled, the
//! parallel engine no longer falls back to serial — instead each shard
//! journals its recorded events and the coordinator replays the journals in
//! merged (serial) order. This suite pins the contract: for any `(scenario,
//! cluster shape, ring capacity, --sim-threads)` combination the statistics
//! *and the event stream itself* — per-processor timelines, eviction
//! counts, and every streamed aggregation (slice tiling, downgrade
//! directions, message rederivation, the sharing profiler) — are
//! byte-identical to a serial recorded run.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;
use shasta_check::{
    cluster_kinds, default_scenarios, run_scenario_observed, set_sim_threads, Scenario,
};
use shasta_core::BugInjection;
use shasta_sim::SchedulePolicy;

/// `set_sim_threads` is process-global (it configures every machine
/// `build_machine` produces), so tests that flip it must not interleave.
static KNOB: Mutex<()> = Mutex::new(());

/// RAII knob setting: holds the lock for the test body and restores the
/// serial default on drop (also on panic).
struct SimThreads(#[allow(dead_code)] MutexGuard<'static, ()>);

fn sim_threads(n: usize) -> SimThreads {
    let guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    set_sim_threads(n);
    SimThreads(guard)
}

impl Drop for SimThreads {
    fn drop(&mut self) {
        set_sim_threads(1);
    }
}

/// One scenario/cluster-shape pick from the proptest index space.
fn pick_scenario(pick: u64, kind_pick: u64) -> Scenario {
    let scenarios = default_scenarios();
    let kinds = cluster_kinds();
    let mut s = scenarios[(pick % scenarios.len() as u64) as usize];
    s.cluster = kinds[(kind_pick % kinds.len() as u64) as usize];
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// The merged per-shard journals reproduce the serial recorder's
    /// stream byte for byte: identical per-processor event sequences
    /// (including renumbered check-miss ids), identical ring-eviction
    /// counts at any capacity, and identical aggregations.
    #[test]
    fn merged_recording_matches_serial(
        pick in any::<u64>(),
        kind_pick in any::<u64>(),
        threads_pick in 0usize..3,
        ring_pick in 0usize..2,
    ) {
        let s = pick_scenario(pick, kind_pick);
        let threads = [2, 4, 8][threads_pick];
        // A small ring exercises eviction parity; a large one retains the
        // complete timeline.
        let ring = [48, 16_384][ring_pick];
        let (st_serial, log_serial) = {
            let _k = sim_threads(1);
            run_scenario_observed(&s, SchedulePolicy::Deterministic, BugInjection::None, ring)
        };
        let (st_sharded, log_sharded) = {
            let _k = sim_threads(threads);
            run_scenario_observed(&s, SchedulePolicy::Deterministic, BugInjection::None, ring)
        };
        prop_assert_eq!(&st_serial, &st_sharded, "{} x{} ring {}: stats diverged", s, threads, ring);
        prop_assert_eq!(log_serial.crosscheck(&st_serial.messages), Ok(()), "{} ring {}", s, ring);
        prop_assert_eq!(log_serial.procs(), log_sharded.procs());
        for p in 0..log_serial.procs() as u32 {
            let (a, b) = (log_serial.proc(p), log_sharded.proc(p));
            prop_assert_eq!(
                a.dropped, b.dropped,
                "{} x{} ring {}: P{} eviction count diverged", s, threads, ring, p
            );
            prop_assert_eq!(
                a.events, b.events,
                "{} x{} ring {}: P{} timeline diverged", s, threads, ring, p
            );
        }
        // Deep structural identity: the Debug rendering covers every
        // aggregator (slice tiling, downgrade/message rederivation, profiler
        // block histories) fed during the run.
        prop_assert_eq!(
            format!("{log_serial:?}"),
            format!("{log_sharded:?}"),
            "{} x{} ring {}: aggregations diverged", s, threads, ring
        );
    }
}

/// Recording runs actually shard (the eligibility fix is live): a sharded
/// recorded run of a multi-node scenario must report PDES windows in its
/// metrics registry.
#[test]
fn recording_runs_actually_shard() {
    let _k = sim_threads(2);
    shasta_check::set_metrics_enabled(false);
    // Any default scenario spans at least two physical nodes.
    let s = default_scenarios()[0];
    let (stats, log) =
        run_scenario_observed(&s, SchedulePolicy::Deterministic, BugInjection::None, 4_096);
    assert!(stats.elapsed_cycles > 0);
    assert!(!log.is_empty(), "a recorded run must retain events");
    log.crosscheck(&stats.messages).expect("the merged log's sends match the merged counters");
}
