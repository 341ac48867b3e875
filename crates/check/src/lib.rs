#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # shasta-check — schedule-exploration checker
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! Turns the deterministic simulator into a model checker: small
//! data-race-free kernels run on small cluster topologies under seeded
//! schedule perturbation ([`SchedulePolicy::SeededRandom`] tie-breaking and
//! message-latency jitter, or [`SchedulePolicy::Chains`] priority
//! schedules), with the coherence oracles of `shasta_core::oracle` enabled
//! throughout. Every run is a deterministic function of `(scenario,
//! policy)`, so a failure is a *replayable counterexample*: re-running the
//! same pair reproduces the violation bit-exactly, and greedy shrinking
//! reduces the kernel until the failure disappears, keeping the smallest
//! failing run. Sweep runs record no events; a failing run is replayed once
//! with recording on, and the last events of that replay (its *trail*) are
//! appended to the counterexample.
//!
//! The oracles are validated against deliberately broken protocol variants
//! ([`BugInjection::SkipDowngradeWait`], [`BugInjection::DropPrivDowngrade`])
//! which the sweep must catch; the correct protocol must pass every seed.
//!
//! Use the `check` binary for seed sweeps, or the library API:
//!
//! ```
//! use shasta_check::{default_scenarios, run_checked};
//! use shasta_core::BugInjection;
//! use shasta_sim::SchedulePolicy;
//!
//! let scenario = default_scenarios()[0];
//! let policy = SchedulePolicy::SeededRandom { seed: 7 };
//! run_checked(&scenario, policy, BugInjection::None).expect("correct protocol passes");
//! ```

use std::any::Any;
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

use shasta_cluster::{CostModel, Topology};
use shasta_core::protocol::Row;
use shasta_core::space::{BlockHint, HomeHint};
use shasta_core::{BugInjection, Dsm, Machine, Mode, ProtocolConfig};
use shasta_sim::SchedulePolicy;
use shasta_stats::RunStats;

pub mod pool;

pub use pool::{par_map, resolve_threads};
// The fault-injection and heterogeneous-topology vocabulary, re-exported so
// checker callers (the bench bins, CI) need only this crate.
pub use shasta_core::{FaultCounts, FaultPlan, NetProfile};

/// Shared-heap size for checker machines (small kernels, lots of headroom).
const HEAP_BYTES: u64 = 1 << 20;

/// Per-processor event-ring capacity of the checker's recorded runs (a
/// counterexample's replay, [`run_scenario_traced`], `check --trace`): the
/// checker kernels are small, so this keeps the whole run.
pub const TRACE_RING: usize = 16_384;

/// Events of the recorded replay a counterexample's message ends with.
const TRAIL_LINES: usize = 40;

thread_local! {
    /// Checker runs this thread has recorded events for (see
    /// [`recorded_runs`]).
    static RECORDED: Cell<u64> = const { Cell::new(0) };
}

/// How many checker runs on the calling thread have recorded events so far.
/// A sweep's passing runs record nothing; a counterexample's trail costs one
/// recorded replay.
pub fn recorded_runs() -> u64 {
    RECORDED.with(Cell::get)
}

/// When set, every machine the checker builds gets a (throwaway) metrics
/// registry attached. See [`set_metrics_enabled`].
static METRICS: AtomicBool = AtomicBool::new(false);

/// Toggles metrics recording for every subsequent checker machine. The
/// registry is write-only here — the checker never reads it back — which
/// makes this the byte-identity probe for the observability discipline:
/// a checker run with metrics on must produce output byte-identical to one
/// with metrics off (reports, traces, counterexamples), and `scripts/ci.sh`
/// enforces exactly that with a diff of two `check` invocations.
pub fn set_metrics_enabled(on: bool) {
    METRICS.store(on, Ordering::Relaxed);
}

/// A data-race-free kernel the checker can run. All four are DRF by
/// construction (single-writer slots, barrier-separated phases, or
/// lock-held critical sections), which is what makes the shadow-memory
/// oracle sound.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kernel {
    /// Each processor increments its own 8-byte slot; adjacent slots share
    /// a coherence block (false sharing), so every round forces
    /// exclusive→shared and shared→invalid downgrades under concurrent
    /// access — the Figure 2 races.
    FalseSharing,
    /// Barrier-free false sharing: each processor increments its own slot
    /// with *no* intra-loop synchronization (disjoint words keep it DRF).
    /// Unlike the phased kernels — where node mates are parked at a
    /// barrier and drain downgrade messages before the next store — this
    /// keeps stores in flight while downgrades are still crossing the
    /// node, exercising the §3.4.3 window where a store is serviced on a
    /// block in `PendingDgInvalid` and must be merged into the data the
    /// last downgrader sends.
    TightIncrement,
    /// Slot ownership rotates every round: each round a different processor
    /// writes each slot, migrating block ownership across nodes through
    /// write misses, upgrades, and invalidations.
    RotatingOwner,
    /// A single lock-protected counter incremented by every processor —
    /// lock handoff plus repeated upgrade/invalidate traffic on one block.
    LockCounter,
}

/// Cluster-shape variants the checker sweeps beyond the paper's uniform
/// machine. The default [`ClusterKind::Uniform`] is exactly the historical
/// checker topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ClusterKind {
    /// The paper's homogeneous cluster: uniform Memory Channel constants.
    #[default]
    Uniform,
    /// Uniform constants, but routed through an explicitly installed
    /// [`NetProfile`] — a negative control: runs must be bit-identical to
    /// [`ClusterKind::Uniform`] (criterion (c) of the fault sweep).
    UniformExplicit,
    /// Asymmetric links: the last physical node's Memory Channel link has
    /// 4x the per-byte occupancy and 3x the one-way latency in both
    /// directions (a heterogeneous-machines cluster à la Cudennec).
    AsymLinks,
    /// Disaggregated shape: the last physical node is memory-only — it
    /// hosts every block's home directory but runs no kernel body, so
    /// barriers wait only for the compute processors.
    MemoryHome,
}

/// One checkable configuration: a topology, a protocol mode, and a kernel.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Human-readable identifier, printed in reports.
    pub name: &'static str,
    /// Total processors.
    pub procs: u32,
    /// Processors per physical SMP node.
    pub per_node: u32,
    /// Processors per virtual node (1 = Base-Shasta).
    pub clustering: u32,
    /// Protocol mode (must agree with `clustering`).
    pub mode: Mode,
    /// Kernel to run.
    pub kernel: Kernel,
    /// Rounds the kernel executes (the shrinking dimension).
    pub iters: u32,
    /// Cluster-shape variant ([`ClusterKind::Uniform`] = the historical
    /// checker topology).
    pub cluster: ClusterKind,
    /// Message-fault plan ([`FaultPlan::none`] = the reliable fabric; its
    /// seed is mixed with the schedule seed per policy, so one plan
    /// explores a different fault schedule under every swept seed).
    pub fault: FaultPlan,
}

impl Scenario {
    /// Processors that execute the kernel (all of them, except under
    /// [`ClusterKind::MemoryHome`] where the last physical node's
    /// processors only serve memory).
    pub fn workers(&self) -> u32 {
        match self.cluster {
            ClusterKind::MemoryHome => self.procs - self.per_node,
            _ => self.procs,
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} procs, {}/node, clustering {}, {:?}, {:?} x{}",
            self.name,
            self.procs,
            self.per_node,
            self.clustering,
            self.mode,
            self.kernel,
            self.iters
        )?;
        // Appended only when non-default, so renders of the historical
        // scenarios stay byte-identical.
        if self.cluster != ClusterKind::Uniform {
            write!(f, ", {:?}", self.cluster)?;
        }
        if !self.fault.is_none() {
            let p = &self.fault;
            write!(
                f,
                ", faults[seed {} delay {}/{} dup {}/{} reorder {}/{} loss {}]",
                p.seed,
                p.delay_permille,
                p.delay_window_cycles,
                p.dup_permille,
                p.dup_skew_cycles,
                p.reorder_permille,
                p.reorder_window_cycles,
                p.loss_permille
            )?;
        }
        write!(f, ")")
    }
}

/// The small-topology scenarios swept by default: two SMP-Shasta cluster
/// shapes plus a Base-Shasta one, covering intra-node downgrades,
/// cross-node migration, and the uncluttered base protocol.
pub fn default_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "smp-2x2-false-sharing",
            procs: 4,
            per_node: 2,
            clustering: 2,
            mode: Mode::Smp,
            kernel: Kernel::FalseSharing,
            iters: 6,
            cluster: ClusterKind::Uniform,
            fault: FaultPlan::none(),
        },
        Scenario {
            name: "smp-2x2-tight-increment",
            procs: 4,
            per_node: 2,
            clustering: 2,
            mode: Mode::Smp,
            kernel: Kernel::TightIncrement,
            iters: 24,
            cluster: ClusterKind::Uniform,
            fault: FaultPlan::none(),
        },
        Scenario {
            name: "smp-4x2-rotating-owner",
            procs: 8,
            per_node: 4,
            clustering: 4,
            mode: Mode::Smp,
            kernel: Kernel::RotatingOwner,
            iters: 4,
            cluster: ClusterKind::Uniform,
            fault: FaultPlan::none(),
        },
        Scenario {
            name: "smp-2x2-lock-counter",
            procs: 4,
            per_node: 2,
            clustering: 2,
            mode: Mode::Smp,
            kernel: Kernel::LockCounter,
            iters: 8,
            cluster: ClusterKind::Uniform,
            fault: FaultPlan::none(),
        },
        Scenario {
            name: "base-4-false-sharing",
            procs: 4,
            per_node: 2,
            clustering: 1,
            mode: Mode::Base,
            kernel: Kernel::FalseSharing,
            iters: 6,
            cluster: ClusterKind::Uniform,
            fault: FaultPlan::none(),
        },
    ]
}

/// The fault plans a correct protocol must *tolerate* (pass every oracle
/// under): delay, duplication, reordering, and all three at once. Loss is
/// deliberately absent — see [`loss_fault_plan`].
pub fn tolerated_fault_plans(seed: u64) -> [(&'static str, FaultPlan); 4] {
    [
        ("delay", FaultPlan::delay(seed)),
        ("duplicate", FaultPlan::duplicate(seed)),
        ("reorder", FaultPlan::reorder(seed)),
        ("chaos", FaultPlan::chaos(seed)),
    ]
}

/// The loss plan, which the protocol **cannot** tolerate (it has no
/// retransmit path): sweeps assert the liveness / quiescence oracles catch
/// it with a replayable counterexample, rather than asserting it passes.
pub fn loss_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::loss(seed)
}

/// Every cluster-shape variant the fault sweep crosses scenarios with.
pub fn cluster_kinds() -> [ClusterKind; 4] {
    [
        ClusterKind::Uniform,
        ClusterKind::UniformExplicit,
        ClusterKind::AsymLinks,
        ClusterKind::MemoryHome,
    ]
}

/// A failing run: the `(scenario, policy)` pair replays it bit-exactly.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The (possibly shrunk) failing scenario.
    pub scenario: Scenario,
    /// The schedule policy — for seeded policies this carries the seed.
    pub policy: SchedulePolicy,
    /// Injected defect active during the run ([`BugInjection::None`] for a
    /// genuine protocol bug).
    pub bug: BugInjection,
    /// The violation message, followed by the trail: the last events of a
    /// recorded replay of the run, rendered by
    /// [`EventLog::render_tail`](shasta_obs::EventLog::render_tail).
    pub message: String,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample: {}", self.scenario)?;
        writeln!(f, "  policy: {:?}", self.policy)?;
        if self.bug != BugInjection::None {
            writeln!(f, "  injected bug: {:?}", self.bug)?;
        }
        writeln!(f, "  replay: run_checked(scenario, policy, bug)")?;
        for line in self.message.lines() {
            writeln!(f, "  | {line}")?;
        }
        Ok(())
    }
}

/// Per-worker state a sweep caller threads through consecutive
/// [`run_checked_ctx`] calls. It holds nothing: a machine's memory images
/// and the oracle's shadow are mapped at `malloc`, so a checker run
/// allocates a few kilobytes and there is no buffer worth carrying from one
/// run to the next. The type and [`run_checked_ctx`] stay for the callers
/// compiled against them.
#[derive(Debug, Default)]
pub struct RunCtx;

/// The seed a schedule policy explores (0 for the deterministic policy) —
/// mixed into the fault seed so one [`FaultPlan`] explores a different
/// fault schedule under every swept `(seed, policy)` pair.
fn policy_seed(policy: SchedulePolicy) -> u64 {
    match policy {
        SchedulePolicy::Deterministic => 0,
        SchedulePolicy::SeededRandom { seed } => seed,
        SchedulePolicy::Chains { seed, .. } => seed,
    }
}

/// Builds the machine for a scenario (shared by checked and unchecked runs).
/// `ring` turns on event recording, the one place the checker does, counted
/// for [`recorded_runs`].
fn build_machine(
    s: &Scenario,
    policy: SchedulePolicy,
    bug: BugInjection,
    oracle: bool,
    ring: Option<usize>,
) -> Machine {
    let topo = Topology::new(s.procs, s.per_node, s.clustering)
        .unwrap_or_else(|e| panic!("bad scenario topology {s}: {e}"));
    let nodes = topo.phys_nodes();
    let cfg = match s.mode {
        Mode::Smp => ProtocolConfig { bug, ..ProtocolConfig::smp() },
        Mode::Base => ProtocolConfig { bug, ..ProtocolConfig::base() },
        Mode::Hardware => ProtocolConfig { bug, ..ProtocolConfig::hardware() },
    };
    let cost = CostModel::alpha_4100();
    let mut m = Machine::new(topo, cost.clone(), cfg, HEAP_BYTES);
    match s.cluster {
        ClusterKind::Uniform => {}
        ClusterKind::UniformExplicit => {
            m.set_net_profile(NetProfile::uniform(nodes, &cost));
        }
        ClusterKind::AsymLinks => {
            m.set_net_profile(
                NetProfile::uniform(nodes, &cost)
                    .scale_link_bandwidth(nodes - 1, 4)
                    .scale_node_latency(nodes - 1, 3),
            );
        }
        ClusterKind::MemoryHome => {
            assert!(
                s.procs > s.per_node,
                "MemoryHome needs at least one compute node besides the memory node ({s})"
            );
            m.set_barrier_participants(s.workers());
        }
    }
    if !s.fault.is_none() {
        // Mix the policy's seed in (odd multiplier: a bijection on u64), so
        // a seed sweep explores fault schedules as well as tie-breaks while
        // each run stays a pure function of (scenario, policy).
        let mixed = s.fault.seed ^ policy_seed(policy).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        m.set_fault_plan(s.fault.with_seed(mixed));
    }
    m.set_schedule_policy(policy);
    if METRICS.load(Ordering::Relaxed) {
        // Handles live inside the machine; the registry itself is dropped
        // (nobody snapshots it). Recording must not change a single byte of
        // checker output — that is the point of the probe.
        m.set_metrics(&shasta_obs::Registry::enabled());
    }
    if oracle {
        m.enable_oracle();
        // Liveness budget, generously above any correct run of these sizes.
        m.set_step_limit(100_000 + 50_000 * u64::from(s.procs) * u64::from(s.iters));
    }
    if let Some(cap) = ring {
        RECORDED.with(|n| n.set(n.get() + 1));
        m.enable_obs(cap);
    }
    m
}

/// Runs a scenario to completion and returns its statistics. Panics on any
/// oracle violation (callers wanting a [`Counterexample`] use
/// [`run_checked`]). Records no events.
pub fn run_scenario(
    s: &Scenario,
    policy: SchedulePolicy,
    bug: BugInjection,
    oracle: bool,
) -> RunStats {
    run_rows(s, policy, bug, oracle).0
}

/// [`run_scenario`], with the bits of the transition-table rows the run
/// stepped ([`Row::bit`]).
fn run_rows(
    s: &Scenario,
    policy: SchedulePolicy,
    bug: BugInjection,
    oracle: bool,
) -> (RunStats, u64) {
    let mut m = build_machine(s, policy, bug, oracle, None);
    let bodies = plan_kernel(&mut m, s);
    let stats = m.run(bodies);
    (stats, m.rows_stepped())
}

/// Like [`run_scenario`] with oracles on, but also returns the run's events
/// rendered as text ([`shasta_obs::EventLog::render`]): equal renders across
/// runs witness that the *schedule* — not merely the aggregate statistics —
/// was reproduced.
pub fn run_scenario_traced(
    s: &Scenario,
    policy: SchedulePolicy,
    bug: BugInjection,
) -> (RunStats, String) {
    let mut m = build_machine(s, policy, bug, true, Some(TRACE_RING));
    let bodies = plan_kernel(&mut m, s);
    let stats = m.run(bodies);
    (stats, m.take_obs().render())
}

/// The text of a caught panic.
fn panic_text(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Replays a `(scenario, policy, bug)` triple with oracles *and* structured
/// event recording enabled, returning the run outcome together with the
/// captured [`shasta_obs::EventLog`]. An oracle violation becomes
/// `Err(message)` instead of a panic, and the log still covers the run up to
/// the violation — this is how a counterexample's trail is rendered and its
/// timeline exported for `chrome://tracing`.
pub fn replay_observed(
    s: &Scenario,
    policy: SchedulePolicy,
    bug: BugInjection,
    ring_capacity: usize,
) -> (Result<RunStats, String>, shasta_obs::EventLog) {
    silence_expected_panics();
    let mut m = build_machine(s, policy, bug, true, Some(ring_capacity));
    let bodies = plan_kernel(&mut m, s);
    let res = panic::catch_unwind(AssertUnwindSafe(|| m.run(bodies))).map_err(panic_text);
    (res, m.take_obs())
}

/// Runs a `(scenario, policy, bug)` triple with structured event recording
/// enabled but **no oracle**. Returns the statistics and the captured
/// [`shasta_obs::EventLog`]; the statistics equal an unrecorded
/// [`run_scenario`]'s, which `recording_equivalence.rs` proves
/// property-style.
pub fn run_scenario_observed(
    s: &Scenario,
    policy: SchedulePolicy,
    bug: BugInjection,
    ring_capacity: usize,
) -> (RunStats, shasta_obs::EventLog) {
    let mut m = build_machine(s, policy, bug, false, Some(ring_capacity));
    let bodies = plan_kernel(&mut m, s);
    let stats = m.run(bodies);
    (stats, m.take_obs())
}

/// Allocates the slot array and builds one kernel body per processor.
///
/// Under [`ClusterKind::MemoryHome`] only the first [`Scenario::workers`]
/// processors compute; the memory node's processors get empty bodies (they
/// finish immediately but keep servicing home-directory messages), and the
/// slot array is homed *on the memory node* so every miss crosses to it.
/// For every other cluster kind `workers == procs` and the arithmetic below
/// is exactly the historical kernel.
fn plan_kernel(m: &mut Machine, s: &Scenario) -> Vec<Box<dyn FnOnce(Dsm)>> {
    let procs = s.workers();
    let iters = s.iters;
    let home = match s.cluster {
        ClusterKind::MemoryHome => HomeHint::Explicit(procs),
        _ => HomeHint::Explicit(0),
    };
    let slots = m.setup(|ctx| ctx.malloc(u64::from(procs) * 8, BlockHint::Line, home));
    let slot = move |i: u32| slots + u64::from(i) * 8;
    (0..s.procs)
        .map(|p| {
            let kernel = s.kernel;
            if p >= procs {
                // Memory-node processor: no computation, just message service.
                return Box::new(move |_dsm: Dsm| {}) as Box<dyn FnOnce(Dsm)>;
            }
            Box::new(move |mut dsm: Dsm| match kernel {
                Kernel::FalseSharing => {
                    for r in 0..iters {
                        let v = dsm.load_u64(slot(p));
                        dsm.store_u64(slot(p), v + 1);
                        dsm.compute(20);
                        dsm.barrier(2 * r);
                        // Every slot was incremented exactly once per round.
                        let peer = (p + 1 + r % procs) % procs;
                        let got = dsm.load_u64(slot(peer));
                        assert_eq!(
                            got,
                            u64::from(r) + 1,
                            "P{p} round {r}: slot {peer} holds {got}, expected {}",
                            r + 1
                        );
                        dsm.barrier(2 * r + 1);
                    }
                }
                Kernel::TightIncrement => {
                    // Every processor increments its own word of the shared
                    // block with no intra-loop synchronization; block
                    // ownership ping-pongs between nodes every round. The
                    // compute between a load and its store sweeps a
                    // different phase each round and each processor, so
                    // across rounds a remote node's upgrade-invalidation
                    // lands *inside* the load→store gap: the node is then
                    // `Shared` with both private entries ≥ Shared (both
                    // mates took the protocol path for their loads) and the
                    // next local op is a store — the §3.4.3 window where a
                    // store reaches a block in `PendingDgInvalid`.
                    // The gap is sized to straddle a cross-node message
                    // latency (misses cost thousands of cycles on the
                    // modeled hardware) and swept across rounds/processors
                    // so some rounds put the store right behind an arriving
                    // invalidation.
                    for r in 0..iters {
                        let v = dsm.load_u64(slot(p));
                        dsm.compute(300 + (u64::from(r) * 1571 + u64::from(p) * 2097) % 5700);
                        dsm.store_u64(slot(p), v + 1);
                    }
                    dsm.barrier(0);
                    // Words are disjoint, so under any legal schedule every
                    // slot ends at exactly `iters`.
                    for q in 0..procs {
                        let got = dsm.load_u64(slot(q));
                        assert_eq!(
                            got,
                            u64::from(iters),
                            "P{p}: slot {q} holds {got}, expected {iters} (lost store)"
                        );
                    }
                }
                Kernel::RotatingOwner => {
                    for r in 0..iters {
                        // Writer p owns slot (p + r) % procs this round —
                        // a bijection, so every slot has exactly one writer.
                        let mine = (p + r) % procs;
                        dsm.store_u64(slot(mine), (u64::from(r) << 32) | u64::from(mine));
                        dsm.compute(20);
                        dsm.barrier(2 * r);
                        let peer = (p + r + 1) % procs;
                        let got = dsm.load_u64(slot(peer));
                        assert_eq!(
                            got,
                            (u64::from(r) << 32) | u64::from(peer),
                            "P{p} round {r}: slot {peer} holds {got:#x}"
                        );
                        dsm.barrier(2 * r + 1);
                    }
                }
                Kernel::LockCounter => {
                    for _ in 0..iters {
                        dsm.acquire(0);
                        let v = dsm.load_u64(slot(0));
                        dsm.compute(10);
                        dsm.store_u64(slot(0), v + 1);
                        dsm.release(0);
                    }
                    dsm.barrier(u32::MAX);
                    if p == 0 {
                        let total = dsm.load_u64(slot(0));
                        assert_eq!(
                            total,
                            u64::from(procs) * u64::from(iters),
                            "lock counter lost increments"
                        );
                    }
                }
            }) as Box<dyn FnOnce(Dsm)>
        })
        .collect()
}

static QUIET: Once = Once::new();

/// Silences the default panic printout for this process: checker sweeps
/// *expect* panics (that is how oracles report), and a thousand backtraces
/// drown the report. Violations are still fully captured in
/// [`Counterexample::message`].
pub fn silence_expected_panics() {
    QUIET.call_once(|| panic::set_hook(Box::new(|_| {})));
}

/// Runs a scenario with oracles on, converting a violation panic into a
/// replayable [`Counterexample`] whose message carries the trail of a
/// recorded replay.
// The Err variant carries the violation message and scenario inline; it is
// built at most once per failing run, so its size is irrelevant on the Ok
// path and boxing it would only push indirection onto every consumer.
#[allow(clippy::result_large_err)]
pub fn run_checked(
    s: &Scenario,
    policy: SchedulePolicy,
    bug: BugInjection,
) -> Result<RunStats, Counterexample> {
    run_bare(s, policy, bug).map(|(stats, _)| stats).map_err(with_trail)
}

/// [`run_checked`] without the trail, and with the rows the run stepped:
/// shrinking and sweeps try many failing runs and keep one.
#[allow(clippy::result_large_err)]
fn run_bare(
    s: &Scenario,
    policy: SchedulePolicy,
    bug: BugInjection,
) -> Result<(RunStats, u64), Counterexample> {
    let res = panic::catch_unwind(AssertUnwindSafe(|| run_rows(s, policy, bug, true)));
    res.map_err(|payload| Counterexample {
        scenario: *s,
        policy,
        bug,
        message: panic_text(payload),
    })
}

/// Appends the last [`TRAIL_LINES`] events of a recorded replay to a bare
/// counterexample's message. The failing run recorded nothing; the run is a
/// deterministic function of the triple, so the replay fails the same way —
/// and if it does not, the message says so instead.
fn with_trail(cx: Counterexample) -> Counterexample {
    let (replayed, log) = replay_observed(&cx.scenario, cx.policy, cx.bug, TRACE_RING);
    let trail = match replayed {
        Err(again) if again == cx.message => log.render_tail(TRAIL_LINES),
        Err(again) => format!("no trail: the recorded replay failed differently:\n{again}"),
        Ok(_) => "no trail: the recorded replay passed".to_string(),
    };
    Counterexample { message: format!("{}\n{trail}", cx.message.trim_end()), ..cx }
}

/// [`run_checked`] under the signature sweep callers thread a [`RunCtx`]
/// through.
#[allow(clippy::result_large_err)]
pub fn run_checked_ctx(
    s: &Scenario,
    policy: SchedulePolicy,
    bug: BugInjection,
    _ctx: &mut RunCtx,
) -> Result<RunStats, Counterexample> {
    run_checked(s, policy, bug)
}

/// Greedily shrinks a counterexample: repeatedly halve the kernel's round
/// count while the *same* `(scenario, policy)` pair still fails, keeping
/// the smallest failing run (fewer rounds ⇒ a shorter schedule and a
/// tighter trail around the violation). When the scenario carries a
/// fault plan, whole fault categories that are not needed to reproduce the
/// failure are dropped too, then the rounds re-shrunk — the surviving
/// categories name the delivery assumption the failure depends on.
///
/// Candidates run bare; only a smaller counterexample than `cx` pays for a
/// trail replay.
pub fn shrink(cx: &Counterexample) -> Counterexample {
    let best = shrink_bare(cx.clone());
    // Shrinking moves only the round count and the fault plan.
    let size = |c: &Counterexample| (c.scenario.iters, c.scenario.fault);
    if size(&best) == size(cx) {
        cx.clone()
    } else {
        with_trail(best)
    }
}

/// [`shrink`]'s search over bare counterexamples.
fn shrink_bare(cx: Counterexample) -> Counterexample {
    let mut best = shrink_iters(cx);
    if best.scenario.fault.is_none() {
        return best;
    }
    // Try dropping each fault category outright; keep any drop that still
    // fails. Categories are independent RNG gates, so the greedy pass is
    // sound (each accepted candidate is itself a verified counterexample).
    type Zero = fn(FaultPlan) -> FaultPlan;
    let zeros: [Zero; 4] = [
        |p| FaultPlan { delay_permille: 0, delay_window_cycles: 0, ..p },
        |p| FaultPlan { dup_permille: 0, dup_skew_cycles: 0, ..p },
        |p| FaultPlan { reorder_permille: 0, reorder_window_cycles: 0, ..p },
        |p| FaultPlan { loss_permille: 0, ..p },
    ];
    for zero in zeros {
        let fault = zero(best.scenario.fault);
        if fault == best.scenario.fault {
            continue;
        }
        let candidate = Scenario { fault, ..best.scenario };
        if let Err(smaller) = run_bare(&candidate, best.policy, best.bug) {
            best = smaller;
        }
    }
    // Fewer categories may allow fewer rounds.
    shrink_iters(best)
}

/// One halving pass over the round count, starting from `best`.
fn shrink_iters(best: Counterexample) -> Counterexample {
    let mut best = best;
    let mut iters = best.scenario.iters;
    while iters > 1 {
        let half = iters / 2;
        let candidate = Scenario { iters: half, ..best.scenario };
        match run_bare(&candidate, best.policy, best.bug) {
            Err(smaller) => {
                best = smaller;
                iters = half;
            }
            Ok(_) => break,
        }
    }
    best
}

/// Result of a seed sweep.
#[derive(Debug, Default)]
pub struct SweepReport {
    /// Total runs executed.
    pub runs: u64,
    /// Failures found (already shrunk).
    pub failures: Vec<Counterexample>,
    /// The bits ([`Row::bit`]) of every transition-table row a passing run
    /// of the sweep stepped.
    pub rows: u64,
}

impl SweepReport {
    /// Renders the full report — run count plus every counterexample — as
    /// one string. Byte-equal renders across worker counts are the parallel
    /// sweep's equivalence witness.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "runs: {}", self.runs);
        let _ = writeln!(out, "{}", self.rows_line());
        let _ = writeln!(out, "failures: {}", self.failures.len());
        for cx in &self.failures {
            let _ = write!(out, "{cx}");
        }
        out
    }

    /// `rows stepped: N of M`, naming the rows no passing run reached.
    pub fn rows_line(&self) -> String {
        let mut line = format!("rows stepped: {} of {}", self.rows.count_ones(), Row::ALL.len());
        let never: Vec<&str> =
            Row::ALL.iter().filter(|r| self.rows & r.bit() == 0).map(|r| r.name()).collect();
        if !never.is_empty() {
            line += &format!(" (never: {})", never.join(", "));
        }
        line
    }
}

/// Schedule policies explored for one seed.
pub fn policies_for_seed(seed: u64) -> [SchedulePolicy; 2] {
    [SchedulePolicy::SeededRandom { seed }, SchedulePolicy::Chains { seed, change_interval: 7 }]
}

/// Sweeps `seeds` over every scenario with both seeded policies, shrinking
/// any failure. `max_failures` bounds how many counterexamples are chased
/// (shrinking re-runs the kernel; one is usually what you want).
///
/// Serial; use [`sweep_jobs`] to fan the runs across worker threads.
pub fn sweep(
    scenarios: &[Scenario],
    seeds: std::ops::Range<u64>,
    bug: BugInjection,
    max_failures: usize,
) -> SweepReport {
    sweep_jobs(scenarios, seeds, bug, max_failures, 1)
}

/// The canonical serial enumeration order of a sweep: seed-major, then
/// scenario, then the two policies of [`policies_for_seed`]. Index `i` maps
/// to `(seed, scenario, policy)` and every run is a pure function of that
/// triple.
fn sweep_run_at(
    scenarios: &[Scenario],
    seeds: &std::ops::Range<u64>,
    idx: usize,
) -> (Scenario, SchedulePolicy) {
    let per_seed = scenarios.len() * 2;
    let seed = seeds.start + (idx / per_seed) as u64;
    let s = scenarios[(idx % per_seed) / 2];
    let policy = policies_for_seed(seed)[idx % 2];
    (s, policy)
}

/// [`sweep`] with an explicit worker count, fanning the independent
/// `(scenario, seed, policy)` runs across `jobs` threads.
///
/// The report is **byte-identical to the serial sweep's** for any `jobs`:
///
/// * every run is a deterministic function of its canonical index (so
///   failures have fixed identities, not race-dependent ones);
/// * the serial sweep stops right after the `k`-th failing index `c`
///   (`k = max_failures`, clamped to 1) — workers therefore maintain
///   `cutoff`, the `k`-th smallest failing index *discovered so far*, and
///   skip indices at or beyond it. The `k`-th smallest of a subset of the
///   true failure set can never undershoot `c`, so `cutoff ≥ c` throughout,
///   every index `≤ c` is executed, and `cutoff` converges to exactly `c`;
/// * failures are sorted by canonical index, truncated to `k`, and shrunk
///   serially in that order (shrinking is itself deterministic), matching
///   the serial report's content and order; `runs` is recovered as `c + 1`.
pub fn sweep_jobs(
    scenarios: &[Scenario],
    seeds: std::ops::Range<u64>,
    bug: BugInjection,
    max_failures: usize,
    jobs: usize,
) -> SweepReport {
    silence_expected_panics();
    // The serial loop returns on the k-th failure even when `max_failures`
    // is 0 (the check runs after the push), so clamp k to at least 1.
    let k = max_failures.max(1);
    // `Range<u64>` has no `len()` (it could overflow usize on 32-bit hosts);
    // sweep sizes are far below that.
    let total = (seeds.end.saturating_sub(seeds.start) as usize) * scenarios.len() * 2;

    if jobs <= 1 {
        let mut report = SweepReport::default();
        for idx in 0..total {
            let (s, policy) = sweep_run_at(scenarios, &seeds, idx);
            report.runs += 1;
            match run_bare(&s, policy, bug) {
                Ok((_, rows)) => report.rows |= rows,
                Err(cx) => {
                    report.failures.push(with_trail(shrink_bare(cx)));
                    if report.failures.len() >= k {
                        return report;
                    }
                }
            }
        }
        return report;
    }

    let next = AtomicUsize::new(0);
    // One past the last index the sweep still has to execute: lowered to the
    // k-th smallest discovered failing index as failures come in.
    let cutoff = AtomicUsize::new(usize::MAX);
    let found: Mutex<Vec<(usize, Counterexample)>> = Mutex::new(Vec::new());
    // The rows each passing run stepped, by index: only runs below the final
    // cutoff count, as in the serial sweep.
    let stepped: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(total) {
            scope.spawn(|| {
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= total || idx >= cutoff.load(Ordering::Relaxed) {
                        break;
                    }
                    let (s, policy) = sweep_run_at(scenarios, &seeds, idx);
                    match run_bare(&s, policy, bug) {
                        Ok((_, rows)) => {
                            stepped.lock().expect("row list poisoned").push((idx, rows))
                        }
                        Err(cx) => {
                            let mut v = found.lock().expect("failure list poisoned");
                            v.push((idx, cx));
                            if v.len() >= k {
                                let mut idxs: Vec<usize> = v.iter().map(|(i, _)| *i).collect();
                                idxs.sort_unstable();
                                // Monotone: both sides only shrink over time.
                                cutoff.fetch_min(idxs[k - 1], Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });

    let mut failures = found.into_inner().expect("failure list poisoned");
    failures.sort_unstable_by_key(|(idx, _)| *idx);
    failures.truncate(k);
    let runs = if failures.len() >= k {
        failures.last().expect("k >= 1").0 as u64 + 1
    } else {
        total as u64
    };
    let rows = stepped.into_inner().expect("row list poisoned");
    let rows = rows.iter().filter(|(idx, _)| (*idx as u64) < runs).fold(0, |m, (_, r)| m | r);
    let failures = failures.into_iter().map(|(_, cx)| with_trail(shrink_bare(cx))).collect();
    SweepReport { runs, failures, rows }
}

/// Validates the oracles end to end: each deliberately broken protocol
/// variant must be caught within `seeds_per_bug` seeds. Returns one shrunk
/// counterexample per bug, or an error naming the bug that escaped.
pub fn validate_oracles(
    scenarios: &[Scenario],
    seeds_per_bug: u64,
) -> Result<Vec<Counterexample>, String> {
    validate_oracles_jobs(scenarios, seeds_per_bug, 1)
}

/// [`validate_oracles`] with an explicit worker count for its sweeps.
pub fn validate_oracles_jobs(
    scenarios: &[Scenario],
    seeds_per_bug: u64,
    jobs: usize,
) -> Result<Vec<Counterexample>, String> {
    let mut caught = Vec::new();
    for bug in [BugInjection::SkipDowngradeWait, BugInjection::DropPrivDowngrade] {
        let report = sweep_jobs(scenarios, 0..seeds_per_bug, bug, 1, jobs);
        match report.failures.into_iter().next() {
            Some(cx) => caught.push(cx),
            None => {
                return Err(format!(
                    "oracle validation failed: {bug:?} escaped {} runs",
                    report.runs
                ))
            }
        }
    }
    Ok(caught)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_policy_matches_unchecked_run_bit_exactly() {
        let s = default_scenarios()[0];
        let plain = run_scenario(&s, SchedulePolicy::Deterministic, BugInjection::None, false);
        let checked = run_scenario(&s, SchedulePolicy::Deterministic, BugInjection::None, true);
        assert_eq!(plain, checked, "oracles must not perturb timing or stats");
    }

    #[test]
    fn correct_protocol_passes_a_few_seeds() {
        let scenarios = default_scenarios();
        let report = sweep(&scenarios, 0..3, BugInjection::None, 1);
        assert_eq!(report.runs, 3 * 2 * scenarios.len() as u64);
        for cx in &report.failures {
            eprintln!("{cx}");
        }
        assert!(report.failures.is_empty(), "correct protocol must pass all oracles");
    }
}
