//! The engine's cached scheduling candidates, on the invalidation paths the
//! benchmark workloads never take.
//!
//! The engine recomputes a processor's candidates only after an event marked
//! it, and a debug build checks every processor's cache against a
//! recomputation at every pick, naming the processor an event changed
//! without marking. These runs are what that check sees in tier-1's debug
//! build: a Tiny Water-Nsq (locks, barriers, migratory stores) with result
//! validation on, under each configuration that takes a path of its own,
//! under the deterministic policy and both seeded ones.

use shasta::apps::{registry, DsmApp, PlanOpts, Preset};
use shasta::cluster::{CostModel, Topology};
use shasta::core::{BugInjection, FaultPlan, Machine, ProtocolConfig};
use shasta::sim::SchedulePolicy;
use shasta::stats::RunStats;
use shasta_check::{default_scenarios, run_scenario, Scenario};

const POLICIES: [SchedulePolicy; 3] = [
    SchedulePolicy::Deterministic,
    SchedulePolicy::SeededRandom { seed: 28 },
    SchedulePolicy::Chains { seed: 28, change_interval: 5 },
];

fn water() -> Box<dyn DsmApp> {
    let spec = registry().into_iter().find(|s| s.name == "Water-Nsq").expect("Water-Nsq");
    (spec.build)(Preset::Tiny, false)
}

/// Runs a validating Tiny Water-Nsq on `procs` processors, `per_node` to a
/// node and `clustering` to a virtual node, under `cfg` and `policy`;
/// `shape` runs on the machine just before the run.
fn run_water(
    (procs, per_node, clustering): (u32, u32, u32),
    cfg: ProtocolConfig,
    policy: SchedulePolicy,
    shape: impl FnOnce(&mut Machine),
) -> (RunStats, Machine) {
    let app = water();
    let topo = Topology::new(procs, per_node, clustering).expect("topology");
    let mut m = Machine::new(topo, CostModel::alpha_4100(), cfg, app.heap_bytes());
    let opts = PlanOpts { procs, variable_granularity: false, validate: true };
    let bodies = m.setup(|s| app.plan(s, &opts));
    m.set_schedule_policy(policy);
    shape(&mut m);
    let stats = m.run(bodies);
    (stats, m)
}

/// A pop from a node's shared incoming queue moves every node mate's
/// earliest arrival.
#[test]
fn load_balanced_shared_inbox() {
    let cfg = ProtocolConfig { load_balance_incoming: true, ..ProtocolConfig::smp() };
    for policy in POLICIES {
        let (stats, _) = run_water((8, 4, 4), cfg, policy, |_| {});
        assert!(stats.load_balanced_requests > 0, "{policy:?}: no request was load-balanced");
    }
}

/// A requester colocated with the home runs the home's logic inline.
#[test]
fn shared_directory() {
    let cfg = ProtocolConfig { share_directory: true, ..ProtocolConfig::smp() };
    for policy in POLICIES {
        let (stats, _) = run_water((8, 4, 2), cfg, policy, |_| {});
        assert!(stats.shared_dir_lookups > 0, "{policy:?}: no shared-directory lookup");
    }
}

/// Delay, duplication and reordering make the delivery guard hold early
/// messages and release them into inboxes on a later delivery.
#[test]
fn fault_plan_holds_and_releases() {
    for policy in POLICIES {
        let (_, m) = run_water((8, 4, 4), ProtocolConfig::smp(), policy, |m| {
            m.set_fault_plan(FaultPlan::chaos(28))
        });
        let counts = m.fault_counts();
        assert!(counts.resequenced > 0, "{policy:?}: no held message was released ({counts})");
        assert!(counts.dups_dropped > 0, "{policy:?}: no duplicate was dropped ({counts})");
        for s in default_scenarios() {
            let s = Scenario { fault: FaultPlan::chaos(28), ..s };
            run_scenario(&s, policy, BugInjection::None, true);
        }
    }
}

/// With one store in flight per processor, a second store miss stalls until
/// the first completes.
#[test]
fn store_limit_stalls() {
    let limited = ProtocolConfig { max_outstanding_stores: 1, ..ProtocolConfig::base() };
    for policy in POLICIES {
        let (stats, _) = run_water((8, 2, 1), limited, policy, |_| {});
        let (unlimited, _) = run_water((8, 2, 1), ProtocolConfig::base(), policy, |_| {});
        assert!(
            stats.elapsed_cycles > unlimited.elapsed_cycles,
            "{policy:?}: the store limit never stalled a store"
        );
    }
}

/// Hardware locks and barriers grant and release waiting processors
/// directly, without a message.
#[test]
fn hardware_locks_and_barriers() {
    for policy in POLICIES {
        let (stats, _) = run_water((8, 8, 8), ProtocolConfig::hardware(), policy, |_| {});
        assert_eq!(stats.messages.total(), 0, "{policy:?}: hardware coherence sent messages");
    }
}
