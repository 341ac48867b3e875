//! The simulated cluster machine: all protocol state for one run.

use std::collections::{BTreeMap, VecDeque};

use shasta_cluster::{CostModel, Topology};
use shasta_memchan::{Network, Transport};
use shasta_sim::{SchedulePolicy, Scheduler, Time};
use shasta_stats::{RunStats, TimeCat};

use crate::api::Req;
use crate::directory::Directory;
use crate::misstable::{EpochTracker, MissTable};
use crate::oracle::Oracle;
use crate::protocol::config::{Mode, ProtocolConfig};
use crate::protocol::msg::ProtoMsg;
use crate::protocol::rows::{DowngradeEntry, Effect, LingeringAcks};
use crate::space::{Addr, Block, BlockHint, HomeHint, SharedSpace};
use crate::state::{LineState, NodeMem, PrivState, PrivTable};

/// Why a simulated fault plan and a real wire do not combine.
const FAULTS_NEED_NO_WIRE: &str = "simulated fault plans do not compose with a real wire: \
     the wire takes one copy of each remote message off the socket per delivery, and has its \
     own loss/retransmit machinery (the loopback transport's DropPlan); install the FaultPlan \
     on a machine without a transport instead";

/// Data-reply buffers a machine keeps for reuse: the engine's processor
/// limit, as many replies as its processors can each await at once.
pub(crate) const MAX_SPARE_BUFS: usize = 64;

/// Adds `id` to a processor's granted locks or released barriers, once.
pub(crate) fn grant(ids: &mut Vec<u32>, id: u32) {
    if !ids.contains(&id) {
        ids.push(id);
    }
}

/// Why a processor is stalled, and what to do when it can make progress.
#[derive(Clone, PartialEq, Debug)]
pub enum StallKind {
    /// Waiting for block state so the recorded operation can be retried:
    /// every block it touches ([`Req::block_span`]) must leave the pending
    /// states.
    Miss {
        /// The operation to re-execute on wake.
        op: Req,
        /// Whether this stall began as a read miss (for latency stats).
        is_read: bool,
    },
    /// Too many outstanding store misses; retry the operation when the
    /// count drops.
    StoreLimit {
        /// The operation to re-execute on wake.
        op: Req,
    },
    /// Release semantics: waiting for this node's previous-epoch stores.
    ReleaseWait {
        /// Epoch opened by this release; all earlier epochs must quiesce.
        epoch: u64,
        /// What the release was for.
        then: AfterRelease,
    },
    /// Waiting for a lock grant.
    LockWait {
        /// Lock id.
        lock: u32,
    },
    /// Waiting for a barrier release.
    BarrierWait {
        /// Barrier id.
        id: u32,
    },
}

/// What happens after a release's store-quiescence wait completes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AfterRelease {
    /// Nothing: a bare store fence.
    Nothing,
    /// Send the lock-release to the manager and resume.
    Lock(u32),
    /// Arrive at the barrier and keep waiting for its release.
    Barrier(u32),
}

/// A stalled processor's bookkeeping.
#[derive(Clone, PartialEq, Debug)]
pub struct Stall {
    /// Why the processor is stalled.
    pub kind: StallKind,
    /// When the stall began (for breakdown accounting).
    pub since: Time,
    /// Which execution-time category the stall accrues to.
    pub cat: TimeCat,
}

/// Manager-side state of one application lock.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LockInfo {
    /// Current holder, if any.
    pub holder: Option<u32>,
    /// FIFO of waiting processors.
    pub queue: VecDeque<u32>,
}

/// Manager-side state of one barrier id.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct BarrierInfo {
    /// Arrivals in the current episode.
    pub arrived: u32,
    /// Processors waiting (excluding any that arrived inline last).
    pub waiting: Vec<u32>,
}

/// The complete simulated machine: topology, cost model, memories, protocol
/// state, network, and per-processor runtime bookkeeping.
///
/// Build one with [`Machine::new`], initialize shared data through
/// [`Machine::setup`], then execute application programs with
/// [`Machine::run`](crate::protocol::Machine::run).
#[derive(Debug)]
pub struct Machine {
    pub(crate) topo: Topology,
    pub(crate) cost: CostModel,
    pub(crate) cfg: ProtocolConfig,
    pub(crate) space: SharedSpace,
    /// One memory image + shared state table per virtual node.
    pub(crate) mems: Vec<NodeMem>,
    /// One private state table per processor (SMP mode only; empty sized
    /// tables otherwise).
    pub(crate) privs: Vec<PrivTable>,
    /// Every block's directory entry. Each entry belongs to the block's home
    /// processor, which routes requests and pays for handling them.
    pub(crate) dir: Directory,
    /// Miss tables, one per virtual node.
    pub(crate) miss: Vec<MissTable>,
    /// Epoch trackers, one per virtual node.
    pub(crate) epochs: Vec<EpochTracker>,
    /// In-progress downgrades, per virtual node.
    pub(crate) downgrades: Vec<Vec<DowngradeEntry>>,
    /// Store entries past their reply but awaiting acks, per virtual node.
    pub(crate) lingering: Vec<Vec<LingeringAcks>>,
    /// The simulated Memory Channel: every message's timing, order and
    /// count, with or without a wire.
    pub(crate) net: Network<ProtoMsg>,
    /// A real wire tapped onto `net` ([`Machine::set_transport`]): remote
    /// messages also cross it, and are handled in the copy it decodes.
    pub(crate) wire: Option<Box<dyn Transport<ProtoMsg>>>,
    /// Emptied data-reply buffers, at most [`MAX_SPARE_BUFS`]: a reply takes
    /// one, and its requester gives it back once the data is in its image.
    pub(crate) spare_bufs: Vec<Vec<u8>>,
    /// The effects of the row steps in progress, innermost on top.
    pub(crate) fx: Vec<Effect>,
    /// The bits of every transition-table row this machine has stepped.
    pub(crate) rows_stepped: u64,
    // ---- per-processor runtime ----
    pub(crate) clocks: Vec<Time>,
    pub(crate) stalls: Vec<Option<Stall>>,
    pub(crate) wake_floor: Vec<Time>,
    /// The processor whose clock last raised each wake floor, kept only
    /// while recording: a `Woken` event is all that reads it.
    pub(crate) waker: Vec<u32>,
    /// Locks granted to each processor and not yet taken by its resume.
    pub(crate) lock_grants: Vec<Vec<u32>>,
    /// Barriers released for each processor and not yet passed.
    pub(crate) barrier_done: Vec<Vec<u32>>,
    pub(crate) outstanding_stores: Vec<u32>,
    // ---- synchronization managers ----
    pub(crate) locks: BTreeMap<u32, LockInfo>,
    pub(crate) barriers: BTreeMap<u32, BarrierInfo>,
    // ---- output ----
    pub(crate) stats: RunStats,
    /// Structured protocol-event recorder (disabled by default).
    pub(crate) obs: shasta_obs::Recorder,
    // ---- checker hooks ----
    /// Schedule policy state (deterministic by default).
    pub(crate) sched: Scheduler,
    /// The processors whose scheduling candidates an event may have changed
    /// since the engine last recomputed them, each listed once (see
    /// [`Machine::mark`]). A new machine lists every processor.
    pub(crate) dirty: Vec<u32>,
    /// Whether each processor is on `dirty`.
    pub(crate) marked: Vec<bool>,
    /// Coherence oracles (shadow memory + invariants), checker runs only.
    pub(crate) oracle: Option<Box<Oracle>>,
    /// Liveness budget: panic if a run exceeds this many scheduling steps.
    pub(crate) step_limit: Option<u64>,
    /// Barrier population override for topologies where some processors
    /// never compute (memory-only home nodes): barriers release once this
    /// many processors arrive instead of `topo.procs()`.
    pub(crate) barrier_participants: Option<u32>,
    /// Miss-id allocator for causal cross-layer tracing: each check miss
    /// gets the next id (1-based; 0 = "no context"), which is recorded on
    /// the `CheckMiss` event and stamped into the network (and any wire) as
    /// the trace context. Advances unconditionally — independent of whether the
    /// recorder or any metrics registry is on — so wire frames are
    /// byte-identical whatever the observability configuration.
    pub(crate) next_miss_id: u32,
}

impl Machine {
    /// Creates a machine with `heap_bytes` of shared heap and the paper's
    /// default 64-byte lines. `heap_bytes` is a limit on what
    /// [`SetupCtx::malloc`] may hand out, not a cost: memory images, state
    /// tables and the oracle's shadow start empty and are mapped as shared
    /// memory is allocated.
    ///
    /// # Panics
    ///
    /// Panics if the mode and topology disagree (Base requires clustering 1;
    /// Hardware requires a single virtual node).
    pub fn new(topo: Topology, cost: CostModel, cfg: ProtocolConfig, heap_bytes: u64) -> Self {
        Self::with_line_size(topo, cost, cfg, heap_bytes, crate::space::DEFAULT_LINE_BYTES)
    }

    /// Creates a machine with an explicit line size (§2.1: "the line size is
    /// configurable at compile time and is typically set to 64 or 128
    /// bytes").
    ///
    /// # Panics
    ///
    /// As [`Machine::new`]; additionally if `line_bytes` is not a power of
    /// two or is smaller than a longword.
    pub fn with_line_size(
        topo: Topology,
        cost: CostModel,
        cfg: ProtocolConfig,
        heap_bytes: u64,
        line_bytes: u64,
    ) -> Self {
        assert!(line_bytes >= 4, "a line must hold at least one longword");
        match cfg.mode {
            Mode::Base => assert_eq!(
                topo.clustering(),
                1,
                "Base-Shasta treats every processor as its own node (clustering 1)"
            ),
            Mode::Hardware => assert_eq!(
                topo.virt_nodes(),
                1,
                "hardware mode shares one memory image: use clustering == procs-per-node == procs"
            ),
            Mode::Smp => {}
        }
        let mut cfg = cfg;
        if cfg.load_balance_incoming {
            // The paper: load-balancing home requests requires sharing the
            // directory state among the node's processors.
            cfg.share_directory = true;
            assert_eq!(cfg.mode, Mode::Smp, "load balancing is an SMP-Shasta extension");
        }
        let procs = topo.procs() as usize;
        let vnodes = topo.virt_nodes() as usize;
        let space = SharedSpace::new(heap_bytes, line_bytes, topo.procs());
        Machine {
            mems: (0..vnodes).map(|_| NodeMem::new(0, line_bytes)).collect(),
            privs: (0..procs).map(|_| PrivTable::new(0)).collect(),
            dir: Directory::with_line_bytes(line_bytes),
            miss: (0..vnodes).map(|_| MissTable::new()).collect(),
            epochs: (0..vnodes).map(|_| EpochTracker::default()).collect(),
            downgrades: (0..vnodes).map(|_| Vec::new()).collect(),
            lingering: (0..vnodes).map(|_| Vec::new()).collect(),
            net: Network::new(topo.clone(), cost.clone()),
            wire: None,
            spare_bufs: Vec::new(),
            fx: Vec::new(),
            rows_stepped: 0,
            clocks: vec![Time::ZERO; procs],
            stalls: vec![None; procs],
            wake_floor: vec![Time::ZERO; procs],
            waker: Vec::new(),
            lock_grants: vec![Vec::new(); procs],
            barrier_done: vec![Vec::new(); procs],
            outstanding_stores: vec![0; procs],
            locks: BTreeMap::new(),
            barriers: BTreeMap::new(),
            stats: RunStats::new(procs),
            obs: shasta_obs::Recorder::disabled(),
            sched: Scheduler::default(),
            dirty: (0..procs as u32).collect(),
            marked: vec![true; procs],
            oracle: None,
            step_limit: None,
            barrier_participants: None,
            next_miss_id: 0,
            topo,
            cost,
            cfg,
            space,
        }
    }

    /// Selects how the engine breaks scheduling ties and jitters message
    /// latency (see [`SchedulePolicy`]). The default deterministic policy
    /// reproduces historical runs bit-exactly; seeded policies explore other
    /// legal interleavings, reproducibly per seed. Set before [`Machine::run`].
    pub fn set_schedule_policy(&mut self, policy: SchedulePolicy) {
        self.sched = Scheduler::new(policy);
    }

    /// Turns on the coherence oracles: a shadow sequential memory checked on
    /// every load/store (sound for data-race-free programs), single-writer
    /// exclusivity, and private-state/directory agreement. Enable before
    /// [`Machine::setup`] so initialization writes reach the shadow.
    ///
    /// Violations panic with a diagnostic; the checker replays the run with
    /// [`Machine::enable_obs`] to attach the events that led there.
    pub fn enable_oracle(&mut self) {
        // As far as `malloc` has mapped the images; it maps the rest.
        self.oracle = Some(Box::new(Oracle::new(self.mems[0].mapped_bytes())));
    }

    /// Caps the run at `steps` scheduling steps; exceeding it panics with
    /// diagnostics (the checker's liveness oracle — e.g. a downgrade whose
    /// completion never fires shows up as budget exhaustion, not a hang).
    pub fn set_step_limit(&mut self, steps: u64) {
        self.step_limit = Some(steps);
    }

    /// Installs a seeded message-fault plan (delay / duplication /
    /// reordering / opt-in loss) at the network delivery boundary; see
    /// [`FaultPlan`](shasta_memchan::FaultPlan). An all-disabled plan
    /// installs nothing, leaving runs byte-identical to an unfaulted
    /// machine. Set before [`Machine::run`].
    ///
    /// # Panics
    ///
    /// Panics if a wire is installed ([`Machine::set_transport`]), before
    /// or after: the wire takes one copy of each remote message off its
    /// socket per delivery, so it cannot follow a duplicated or lost one.
    pub fn set_fault_plan(&mut self, plan: shasta_memchan::FaultPlan) {
        assert!(plan.is_none() || self.wire.is_none(), "{FAULTS_NEED_NO_WIRE}");
        self.net.set_fault_plan(plan);
    }

    /// Fault-injection tally for diagnostics and sweep reports (all zero
    /// when no plan is installed).
    pub fn fault_counts(&self) -> shasta_memchan::FaultCounts {
        self.net.fault_counts()
    }

    /// Installs a heterogeneous link profile (per-node bandwidth, per-pair
    /// latency) in place of the cost model's uniform Memory Channel
    /// constants. A [`NetProfile::uniform`](shasta_cluster::NetProfile)
    /// profile reproduces the unprofiled machine bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if the profile's shape does not match the topology.
    pub fn set_net_profile(&mut self, profile: shasta_cluster::NetProfile) {
        self.net.set_profile(profile);
    }

    /// Does nothing: the run loop is serial. Kept only because the
    /// benchmark harness's `smp16c4_pdes2` workload (`benchmark/src/
    /// workloads.rs`) still calls it; ROADMAP item 1(e) deletes the method
    /// together with that call.
    #[doc(hidden)]
    pub fn set_sim_threads(&mut self, _n: usize) {}

    /// Taps a real wire onto the machine's network — e.g. the loopback TCP
    /// / Unix-domain-socket transport in `shasta-transport` (see
    /// `docs/TRANSPORT.md` for its wire protocol). The network still times,
    /// orders and counts every message, so a link profile applies whether
    /// it was set before or after this; every remote message also crosses
    /// the wire, and is handled in the copy the wire decodes. A registry
    /// the wire was given ([`Transport::metrics`]) meters the network too.
    /// Replaces any wire installed before. Must be called before
    /// [`Machine::run`], while no messages are in flight.
    ///
    /// # Panics
    ///
    /// Panics if messages are in flight, or if a fault plan is installed
    /// (see [`Machine::set_fault_plan`]).
    pub fn set_transport(&mut self, transport: Box<dyn Transport<ProtoMsg>>) {
        assert_eq!(
            self.net.in_flight(),
            0,
            "install the transport before the run starts, not while messages are in flight"
        );
        assert!(!self.net.fault_active(), "{FAULTS_NEED_NO_WIRE}");
        if let Some(registry) = transport.metrics() {
            self.net.set_metrics(registry);
        }
        self.wire = Some(transport);
    }

    /// Overrides how many processors a barrier waits for (default: all of
    /// them). Heterogeneous sweeps use this for memory-only home nodes
    /// whose processors serve the directory but never enter the computation
    /// (they run no kernel body, so they never arrive at barriers).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the processor count.
    pub fn set_barrier_participants(&mut self, n: u32) {
        assert!(n > 0 && n <= self.topo.procs(), "barrier population must be in 1..=procs");
        self.barrier_participants = Some(n);
    }

    /// The number of arrivals that releases a barrier.
    pub(crate) fn barrier_count(&self) -> u32 {
        self.barrier_participants.unwrap_or_else(|| self.topo.procs())
    }

    /// Attaches a metrics registry to the network (admit-guard absorption,
    /// link occupancy) and to the wire, if one is installed (latencies,
    /// retransmit reasons, queue depths — see `docs/OBSERVABILITY.md`).
    /// Recording is purely additive: simulated cycles and every counter
    /// are bit-identical with or without a registry, which CI enforces
    /// with byte-diffs. Call after [`Machine::set_transport`] to meter the
    /// wire.
    pub fn set_metrics(&mut self, registry: &shasta_obs::Registry) {
        self.net.set_metrics(registry);
        if let Some(wire) = &mut self.wire {
            wire.set_metrics(registry);
        }
    }

    /// Allocates the next miss id and installs it as the network's causal
    /// trace context. Ids advance unconditionally (see `next_miss_id`).
    pub(crate) fn begin_miss_context(&mut self) -> u32 {
        self.next_miss_id = self.next_miss_id.wrapping_add(1).max(1);
        let id = self.next_miss_id;
        self.net.set_trace_context(id);
        id
    }

    /// Re-installs a delivered message's trace context (0 clears it), so
    /// protocol chains inherit the originating miss's id.
    pub(crate) fn set_trace_context(&mut self, ctx: u32) {
        self.net.set_trace_context(ctx);
    }

    /// Enables structured protocol-event recording (the `shasta-obs` layer):
    /// per-processor rings of up to `ring_capacity` events each, plus the
    /// streaming aggregations (slice tiling, Figure 7 messages, Figure 8
    /// directions, and the sharing profiler). Retrieve the result with
    /// [`Machine::take_obs`] after [`Machine::run`].
    ///
    /// Before or after [`Machine::setup`], either order: the shared space
    /// (allocation extents, block sizes, site labels) and the processor
    /// placement the profiler and the message aggregate classify against
    /// are snapshotted when the run starts.
    pub fn enable_obs(&mut self, ring_capacity: usize) {
        self.obs = shasta_obs::Recorder::enabled(self.topo.procs() as usize, ring_capacity);
        self.waker = vec![0; self.topo.procs() as usize];
    }

    /// Installs profile-guided label → block-size overrides on the shared
    /// space (see [`SharedSpace::set_hint_overrides`]): any later
    /// `malloc_labeled` during [`Machine::setup`] resolves its granularity
    /// from the map instead of the caller's hint. Call **before**
    /// [`Machine::setup`].
    pub fn set_site_hints(&mut self, hints: std::collections::BTreeMap<String, u64>) {
        self.space.set_hint_overrides(hints);
    }

    /// Snapshots the shared space and topology as the plain-data
    /// [`SpaceMap`](shasta_obs::SpaceMap) the observability layer consumes.
    pub(crate) fn space_map(&self) -> shasta_obs::SpaceMap {
        shasta_obs::SpaceMap {
            line_bytes: self.space.line_bytes(),
            proc_phys_node: (0..self.topo.procs()).map(|p| self.topo.phys_node_of(p).0).collect(),
            proc_coh_node: (0..self.topo.procs()).map(|p| self.topo.virt_node_of(p).0).collect(),
            allocs: self
                .space
                .labeled_allocations()
                .map(|(a, label)| shasta_obs::profile::AllocSite {
                    start: a.start,
                    len: a.len,
                    block_bytes: a.block_bytes,
                    label,
                })
                .collect(),
        }
    }

    /// Takes the recorded event log (leaving recording disabled). Empty
    /// unless [`Machine::enable_obs`] was called before the run.
    pub fn take_obs(&mut self) -> shasta_obs::EventLog {
        std::mem::take(&mut self.obs).into_log()
    }

    /// Books a protocol fact at `p`'s current clock.
    #[inline]
    pub(crate) fn obs_event(&mut self, p: u32, kind: shasta_obs::EventKind) {
        self.emit(self.clocks[p as usize].cycles(), p, kind);
    }

    /// Books one attributed execution-time slice: `cycles` of `cat`
    /// starting at `start` on `p`.
    #[inline]
    pub(crate) fn obs_slice(&mut self, p: u32, start: Time, cat: TimeCat, cycles: u64) {
        if cycles > 0 {
            self.emit(start.cycles(), p, shasta_obs::EventKind::Slice { cat, cycles });
        }
    }

    /// The one place a protocol fact is booked: folded into the statistics
    /// it is the source of — the Figure 4 breakdown (slices, per processor),
    /// the Figure 6 miss counters, the Figure 8 downgrade histogram — then
    /// handed to the recorder (one branch when recording is off). Every
    /// other kind moves no counter: messages are counted by the network,
    /// checks and read latencies at their single call sites. Every caller
    /// passes a literal variant, so inlined the `match` is the single
    /// increment that belongs at that call site.
    #[inline(always)]
    fn emit(&mut self, t: u64, p: u32, kind: shasta_obs::EventKind) {
        use shasta_obs::EventKind as K;
        let stats = &mut self.stats;
        match kind {
            K::Slice { cat, cycles } => stats.breakdowns[p as usize].add(cat, cycles),
            K::MissResolved { kind, hops, .. } => stats.misses.record(kind, hops),
            K::FalseMiss { .. } => stats.misses.false_misses += 1,
            K::PrivateUpgrade { .. } => stats.misses.private_upgrades += 1,
            K::MissMerged { .. } => stats.misses.merged += 1,
            K::DowngradeStart { targets, .. } => stats.downgrades.record(targets as usize),
            _ => {}
        }
        self.obs.record(t, p, kind);
    }

    /// Records a line-state transition of `block` as observed by `p`.
    /// Block-state events feed only the Chrome timeline exporter — no
    /// streaming aggregate reads them — and are the most frequent event
    /// kind, so they compile out unless the `obs-block-state` feature is on.
    #[inline]
    pub(crate) fn obs_state(&mut self, p: u32, block: Block, s: LineState) {
        #[cfg(feature = "obs-block-state")]
        self.obs_event(
            p,
            shasta_obs::EventKind::BlockState { block: block.start, state: s.label() },
        );
        #[cfg(not(feature = "obs-block-state"))]
        let _ = (p, block, s);
    }

    /// Pays `cycles` of `cat` at `p` under `block`'s line lock: in SMP mode
    /// the `line-lock-*` event pair brackets the charge (Base-Shasta has no
    /// node mates to lock against).
    pub(crate) fn locked_pay(&mut self, p: u32, block: Block, cat: TimeCat, cycles: u64) {
        let smp = self.cfg.mode == Mode::Smp;
        if smp {
            self.obs_event(p, shasta_obs::EventKind::LineLockAcquire { block: block.start });
        }
        self.pay(p, cat, cycles);
        if smp {
            self.obs_event(p, shasta_obs::EventKind::LineLockRelease { block: block.start });
        }
    }

    /// The bits ([`Row::bit`](crate::protocol::Row::bit)) of every
    /// transition-table row this machine has stepped so far.
    pub fn rows_stepped(&self) -> u64 {
        self.rows_stepped
    }

    /// The topology in effect.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The protocol configuration in effect.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The shared address space (allocations, line/block math).
    pub fn space(&self) -> &SharedSpace {
        &self.space
    }

    /// Statistics collected so far (complete after `run`).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Virtual-node index of processor `p`.
    pub(crate) fn vnode(&self, p: u32) -> usize {
        usize::from(self.topo.virt_node_of(p))
    }

    /// Home processor for the block containing `addr` (always resolved via
    /// the block's start so a block straddling a page boundary has a single
    /// home).
    pub(crate) fn home_proc(&self, block: Block) -> u32 {
        self.space.home_of(block.start)
    }

    /// State of `block`'s first line on virtual node `v` (all lines of a
    /// block share one state).
    pub(crate) fn block_state(&self, v: usize, block: Block) -> LineState {
        self.mems[v].line_state(block.first_line(self.space.line_bytes()))
    }

    /// Sets all lines of `block` on node `v` to `s`, marking the node's
    /// stalled processors: node state is read by a processor's candidates
    /// only while it waits on it.
    pub(crate) fn set_block_state(&mut self, v: usize, block: Block, s: LineState) {
        for q in self.topo.virt_node_procs(shasta_cluster::NodeId(v as u32)) {
            if self.stalls[q.0 as usize].is_some() {
                self.mark(q.0);
            }
        }
        let r = block.line_range(self.space.line_bytes());
        self.mems[v].set_lines_state(r, s);
    }

    /// Marks `p`: its scheduling candidates may have changed, so the engine
    /// recomputes them before its next pick. The one invalidation mechanism
    /// of the engine's candidate cache; what marks whom:
    ///
    /// * a step marks its own processor (clock, stall, inbox, fiber);
    /// * a send marks the processors polling the inbox it lands in
    ///   ([`Machine::mark_inbox`]), as does a pop from a shared inbox;
    /// * a change to what a stalled processor waits for marks it: node
    ///   state marks the node's stalled processors
    ///   ([`Machine::set_block_state`]), and a lock grant, barrier release or
    ///   completed store (outstanding-store count, store epoch) marks them
    ///   through the wake-floor bump that follows it ([`Machine::bump_wake`]);
    /// * while a fault plan is installed, every delivery marks every
    ///   processor, since a guard release can refill any inbox.
    ///
    /// Debug builds check the cache against a recomputation at every pick,
    /// naming the processor an event changed without marking.
    #[inline]
    pub(crate) fn mark(&mut self, p: u32) {
        let m = &mut self.marked[p as usize];
        if !*m {
            *m = true;
            self.dirty.push(p);
        }
    }

    /// Marks every processor.
    pub(crate) fn mark_all(&mut self) {
        for p in 0..self.topo.procs() {
            self.mark(p);
        }
    }

    /// Marks the processors that poll the inbox a message to `dst` lands
    /// in: `dst`, or every processor of its virtual node for the node's
    /// shared (load-balanced) inbox.
    #[inline]
    pub(crate) fn mark_inbox(&mut self, dst: u32, shared: bool) {
        if shared {
            for q in self.topo.virt_node_procs(self.topo.virt_node_of(dst)) {
                self.mark(q.0);
            }
        } else {
            self.mark(dst);
        }
    }

    /// Sets processor `p`'s private state for all lines of `block`.
    pub(crate) fn set_priv(&mut self, p: u32, block: Block, s: PrivState) {
        let r = block.line_range(self.space.line_bytes());
        self.privs[p as usize].set_range(r, s);
    }

    /// Processor `p`'s private state for `block` (its first line).
    pub(crate) fn priv_state(&self, p: u32, block: Block) -> PrivState {
        self.privs[p as usize].get(block.first_line(self.space.line_bytes()))
    }

    /// Raises `p`'s wake floor to `by`'s clock: if `p` resumes from a
    /// stall, it resumes no earlier than the event that satisfied it. `by`
    /// is the processor that acted (for a completed store, the requester,
    /// whose clock the store is credited at); while recording, a raise
    /// keeps it as `p`'s waker, which the resume reports if the floor sets
    /// its time
    /// ([`EventKind::Woken`](shasta_obs::EventKind::Woken)). Every change
    /// to what a stalled processor waits for other than node state — a lock
    /// grant, a barrier release, a completed store — is followed by this
    /// bump, so it marks `p` if `p` is stalled, floor moved or not.
    pub(crate) fn bump_wake(&mut self, p: u32, by: u32) {
        let t = self.clocks[by as usize];
        let w = &mut self.wake_floor[p as usize];
        if *w < t {
            *w = t;
            if let Some(waker) = self.waker.get_mut(p as usize) {
                *waker = by;
            }
        }
        if self.stalls[p as usize].is_some() {
            self.mark(p);
        }
    }

    /// Raises the wake floor of every processor on virtual node `v` to
    /// `by`'s clock.
    pub(crate) fn bump_wake_vnode(&mut self, v: usize, by: u32) {
        for p in self.topo.virt_node_procs(shasta_cluster::NodeId(v as u32)) {
            self.bump_wake(p.0, by);
        }
    }

    /// Maps every node image, every private state table, the directory and
    /// the oracle's shadow (if enabled) up to `end`. Called by the only allocator,
    /// [`SetupCtx::malloc_labeled`], so everything a run may index is mapped
    /// before it starts.
    fn map_to(&mut self, end: Addr) {
        let lines = end.div_ceil(self.space.line_bytes());
        for mem in &mut self.mems {
            mem.map_to(end);
        }
        for t in &mut self.privs {
            t.map_to(lines);
        }
        self.dir.map_to(lines);
        if let Some(o) = &mut self.oracle {
            o.map_to(end);
        }
    }

    /// Initializes shared data before the parallel phase: allocations plus
    /// direct writes that land at each block's home with the home holding
    /// an exclusive copy (data is "initialized by its home" as SPLASH-2
    /// programs do before their timed phase).
    pub fn setup<R>(&mut self, f: impl FnOnce(&mut SetupCtx<'_>) -> R) -> R {
        let mut ctx = SetupCtx { m: self };
        f(&mut ctx)
    }
}

/// Initialization-phase handle: allocate shared objects and write their
/// initial contents without protocol traffic.
#[derive(Debug)]
pub struct SetupCtx<'a> {
    m: &'a mut Machine,
}

impl SetupCtx<'_> {
    /// Allocates `size` bytes with the given granularity and home hints.
    /// Every block is registered in the directory with its home as exclusive
    /// owner.
    ///
    /// # Panics
    ///
    /// Panics on allocation failure (setup-time errors are programming
    /// errors in experiment definitions).
    pub fn malloc(&mut self, size: u64, block: BlockHint, home: HomeHint) -> Addr {
        self.malloc_labeled(size, block, home, "anon")
    }

    /// [`malloc`](Self::malloc) with a caller-supplied site label naming the
    /// allocation (e.g. `"bodies"`). The sharing profiler rolls per-block
    /// classifications up to these labels, so label an application's major
    /// shared arrays at their `malloc` call sites.
    pub fn malloc_labeled(
        &mut self,
        size: u64,
        block: BlockHint,
        home: HomeHint,
        label: &'static str,
    ) -> Addr {
        let addr = self
            .m
            .space
            .malloc_labeled(size, block, home, label)
            .unwrap_or_else(|e| panic!("setup allocation failed: {e}"));
        let alloc = *self.m.space.allocation_of(addr).expect("just allocated");
        self.m.map_to(alloc.start + alloc.len);
        // An allocation's blocks are uniform: walk them arithmetically.
        let line = self.m.space.line_bytes();
        for start in (alloc.start..alloc.start + alloc.len).step_by(alloc.block_bytes as usize) {
            let block = Block { start, len: alloc.block_bytes };
            let home = self.m.space.home_in(&alloc, start);
            let hv = self.m.vnode(home);
            self.m.dir.register(start, home);
            // Not `set_block_state`: no processor is stalled before the run,
            // so there is nobody to mark.
            self.m.mems[hv].set_lines_state(block.line_range(line), LineState::Exclusive);
            self.m.set_priv(home, block, PrivState::Exclusive);
            // Initial contents: zeros (not flag values) at the home copy. The
            // oracle's shadow was mapped as zeros.
            self.m.mems[hv].write_zeros(start, block.len);
        }
        addr
    }

    /// Allocates with default granularity and round-robin homes.
    pub fn malloc_default(&mut self, size: u64) -> Addr {
        self.malloc(size, BlockHint::Auto, HomeHint::RoundRobin)
    }

    fn home_vnode_of(&self, addr: Addr) -> usize {
        let block = self.m.space.block_of(addr).expect("setup write to unallocated address");
        let home = self.m.home_proc(block);
        self.m.vnode(home)
    }

    /// Writes initial bytes at `addr` (to the home copy).
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        // A range may span blocks with different homes; write block by block.
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let block = self.m.space.block_of(a).expect("setup write to unallocated address");
            let block_end = block.start + block.len;
            let n = ((block_end - a) as usize).min(data.len() - off);
            let v = self.home_vnode_of(a);
            self.m.mems[v].write(a, &data[off..off + n]);
            if let Some(o) = &mut self.m.oracle {
                o.shadow_write(a, &data[off..off + n]);
            }
            off += n;
        }
    }

    /// Writes an initial `u32`.
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Writes an initial `u64`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Writes an initial `f64`.
    pub fn write_f64(&mut self, addr: Addr, value: f64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Writes consecutive initial `f64`s.
    pub fn write_f64s(&mut self, addr: Addr, values: &[f64]) {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write(addr, &bytes);
    }

    /// Reads back initialized bytes (from the home copy).
    pub fn read(&mut self, addr: Addr, len: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len as usize);
        let mut off = 0u64;
        while off < len {
            let a = addr + off;
            let block = self.m.space.block_of(a).expect("setup read of unallocated address");
            let block_end = block.start + block.len;
            let n = (block_end - a).min(len - off);
            let v = self.home_vnode_of(a);
            out.extend_from_slice(self.m.mems[v].read(a, n));
            off += n;
        }
        out
    }

    /// The machine's shared space (for line/block math in app setup).
    pub fn space(&self) -> &SharedSpace {
        &self.m.space
    }

    /// Number of processors in the run.
    pub fn procs(&self) -> u32 {
        self.m.topo.procs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::INVALID_FLAG;
    use shasta_cluster::{CostModel, Topology};

    fn machine() -> Machine {
        let topo = Topology::new(8, 4, 4).unwrap();
        Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::smp(), 1 << 20)
    }

    /// One emit per protocol fact: each folded kind moves exactly its
    /// `RunStats` cell, every other kind moves nothing.
    #[test]
    fn each_emitted_fact_moves_exactly_its_counter() {
        use shasta_obs::EventKind as K;
        use shasta_stats::{DowngradeHist, Hops, MissKind};
        type Expect = fn(&mut RunStats);
        const LAST: usize = DowngradeHist::BUCKETS - 1;
        let dg = |targets| K::DowngradeStart { block: 0x40, to_invalid: true, targets };
        let nothing: Expect = |_| {};
        let inv_ack = shasta_obs::DowngradeAction::InvAck { ack_to: 1 };
        let table: Vec<(K, Expect)> = vec![
            (K::Slice { cat: TimeCat::Read, cycles: 40 }, |s| {
                s.breakdowns[2].add(TimeCat::Read, 40)
            }),
            (K::MissResolved { block: 0x40, kind: MissKind::Upgrade, hops: Hops::Three }, |s| {
                s.misses.record(MissKind::Upgrade, Hops::Three)
            }),
            (K::FalseMiss { block: 0x40 }, |s| s.misses.false_misses += 1),
            (K::PrivateUpgrade { block: 0x40 }, |s| s.misses.private_upgrades += 1),
            (K::MissMerged { block: 0x40 }, |s| s.misses.merged += 1),
            (dg(0), |s| s.downgrades.record(0)),
            (dg(3), |s| s.downgrades.record(3)),
            (dg(LAST as u32), |s| s.downgrades.record(LAST)),
            (dg(LAST as u32 + 2), |s| s.downgrades.record(LAST)),
            (K::CheckMiss { id: 1, block: 0x40, addr: 0x48, len: 8, write: true }, nothing),
            (K::MsgSend { msg: "read-req", peer: 1, block: 0x40 }, nothing),
            (K::MsgRecv { msg: "read-reply", peer: 1, block: 0x40 }, nothing),
            (K::DowngradeAck { block: 0x40, remaining: 0 }, nothing),
            (K::HomeInvalidate { block: 0x40, ack_to: 1 }, nothing),
            (K::DirQueued { block: 0x40, requester: 1, kind: MissKind::Read }, nothing),
            (K::DowngradeDone { block: 0x40, action: inv_ack }, nothing),
            (K::PollDrain { handled: 3 }, nothing),
            (K::LineLockAcquire { block: 0x40 }, nothing),
            (K::LineLockRelease { block: 0x40 }, nothing),
            (K::BlockState { block: 0x40, state: "invalid" }, nothing),
            (K::StallBegin { cat: TimeCat::Sync }, nothing),
        ];
        for (kind, expect) in table {
            let mut m = machine();
            m.obs_event(2, kind);
            let mut want = RunStats::new(8);
            expect(&mut want);
            assert_eq!(m.stats, want, "{kind:?}");
        }
    }

    #[test]
    fn setup_initializes_home_exclusive() {
        let mut m = machine();
        let a = m.setup(|s| {
            let a = s.malloc(128, BlockHint::Line, HomeHint::Explicit(5));
            s.write_u64(a, 0xABCD);
            a
        });
        let block = m.space.block_of(a).unwrap();
        // Home P5 is on virtual node 1; its node holds the data exclusively.
        assert_eq!(m.home_proc(block), 5);
        let hv = m.vnode(5);
        assert_eq!(m.block_state(hv, block), LineState::Exclusive);
        assert_eq!(m.mems[hv].read_scalar(a, 8), 0xABCD);
        assert_eq!(m.priv_state(5, block), PrivState::Exclusive);
        // Other nodes hold flag values and invalid state.
        let other = 1 - hv;
        assert_eq!(m.block_state(other, block), LineState::Invalid);
        assert_eq!(m.mems[other].longword(a), INVALID_FLAG);
        // Registered once, exclusive at the home.
        let e = m.dir.peek(block.start).expect("registered");
        assert_eq!(e.owner, 5);
        assert!(e.exclusive);
        assert_eq!(m.dir.len(), 2, "two 64-byte blocks");
    }

    #[test]
    fn setup_read_back_round_trips_across_blocks() {
        let mut m = machine();
        m.setup(|s| {
            let a = s.malloc(8 * crate::space::PAGE_BYTES, BlockHint::Line, HomeHint::RoundRobin);
            let data: Vec<u8> = (0..16_384u32).map(|i| (i % 251) as u8).collect();
            s.write(a, &data);
            assert_eq!(s.read(a, 16_384), data, "spans pages with different homes");
            assert_eq!(s.procs(), 8);
        });
    }

    /// The heap size is a limit, not a cost: were anything still sized to
    /// it, this machine would need 16 images of 4 GiB.
    #[test]
    fn a_4gib_heap_limit_costs_only_what_is_allocated() {
        let topo = Topology::new(16, 1, 1).unwrap();
        let mut m = Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::base(), 4 << 30);
        m.enable_oracle();
        let a = m.setup(|s| s.malloc(64, BlockHint::Line, HomeHint::Explicit(0)));
        for mem in &m.mems {
            assert_eq!(mem.mapped_bytes(), a + 64, "images end where the allocation ends");
        }
        let bodies = (0..16u32)
            .map(|p| {
                move |mut dsm: crate::api::Dsm| {
                    if p == 15 {
                        dsm.store_u64(a, 7);
                        assert_eq!(dsm.load_u64(a), 7);
                    }
                }
            })
            .collect();
        let stats = m.run(bodies);
        assert_eq!(stats.misses.total(), 1, "one remote write miss");
        assert_eq!(m.mems[0].longword(a), INVALID_FLAG, "the home's copy was invalidated");
        assert_eq!(m.mems[15].read_scalar(a, 8), 7);
    }

    #[test]
    fn load_balancing_requires_smp_mode() {
        let topo = Topology::new(8, 4, 1).unwrap();
        let cfg = ProtocolConfig { load_balance_incoming: true, ..ProtocolConfig::base() };
        let r =
            std::panic::catch_unwind(|| Machine::new(topo, CostModel::alpha_4100(), cfg, 1 << 20));
        assert!(r.is_err(), "Base mode cannot load-balance");
    }

    #[test]
    fn mode_topology_mismatches_panic() {
        let topo = Topology::new(8, 4, 4).unwrap();
        let r = std::panic::catch_unwind(|| {
            Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::base(), 1 << 20)
        });
        assert!(r.is_err(), "Base requires clustering 1");
        let topo = Topology::new(8, 4, 4).unwrap();
        let r = std::panic::catch_unwind(|| {
            Machine::new(topo, CostModel::alpha_4100(), ProtocolConfig::hardware(), 1 << 20)
        });
        assert!(r.is_err(), "hardware requires one virtual node");
    }
}
