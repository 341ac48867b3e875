#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Messaging substrate: the Memory Channel network and intra-node
//! shared-memory message queues.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! The paper's message-passing layer (§4.1) runs over Digital's Memory
//! Channel between nodes and over shared-memory segments within a node, with
//! separate buffers between each pair of processors so no locking is needed.
//! This crate models that layer for the simulator:
//!
//! * every message is timestamped with an **arrival time** computed from the
//!   [`CostModel`] (one-way latency + per-byte occupancy + header),
//! * remote messages contend for their sender node's **Memory Channel link**
//!   (processors on a node share the link bandwidth, as in the paper's
//!   methodology section),
//! * messages are classified remote / local / downgrade for Figure 7, and
//! * each inbox is kept in arrival order, equal arrivals in the order
//!   they were queued, which preserves per-pair FIFO.
//!
//! The network is owned and driven entirely by the single-threaded protocol
//! engine; receivers *poll* (§2.1), so the network never pushes.
//!
//! # Fault injection and heterogeneous links
//!
//! The paper's Memory Channel delivers messages reliably, exactly once, in
//! per-pair order, over uniform links — assumptions §2 takes for granted.
//! Two opt-in layers let the checker probe what happens when they bend:
//!
//! * a seeded [`FaultPlan`] (installed with [`Network::set_fault_plan`])
//!   perturbs *remote* messages at the delivery boundary — extra delay,
//!   duplication, reordering, and (opt-in) loss — while a receiver-side
//!   guard, [`Network::admit`], models the fabric's exactly-once in-order
//!   contract by discarding duplicates and holding early messages until
//!   their per-pair predecessors arrive. Loss has no retransmit path, so a
//!   lost message leaves its successors held forever: the liveness /
//!   quiescence oracles catch it, which is the point.
//! * a [`NetProfile`] (installed with [`Network::set_profile`]) replaces the
//!   two uniform Memory Channel constants with per-node link bandwidth and
//!   per-pair one-way latency; [`NetProfile::uniform`] is bit-identical to
//!   no profile at all.
//!
//! With no plan installed (the default) the fault path is completely inert:
//! no RNG is seeded, no sequence numbers are stamped, and [`Network::admit`]
//! passes every message through untouched.
//!
//! # The wire as a tap
//!
//! A machine has one [`Network`], and it alone times, orders and counts
//! messages. A real wire is a [`Transport`]: a tap on that network that
//! ships each remote message's frame when it is sent and hands back the
//! decoded copy when it is delivered. The `shasta-transport` crate provides
//! one over loopback TCP / Unix-domain sockets; the exactly-once in-order
//! guard it shares with the fault plans' admit guard is [`PairSequencer`].
//! See `docs/ARCHITECTURE.md` for the crate map and `docs/TRANSPORT.md` for
//! the wire protocol.
//!
//! # Example
//!
//! ```
//! use shasta_cluster::{CostModel, Topology};
//! use shasta_memchan::Network;
//! use shasta_sim::Time;
//! use shasta_stats::MsgClass;
//!
//! let topo = Topology::new(8, 4, 4).unwrap();
//! let mut net: Network<&'static str> = Network::new(topo, CostModel::alpha_4100());
//!
//! // P0 -> P5 crosses nodes: Memory Channel latency.
//! let t_remote = net.send(0, 5, "read-req", 0, Time::ZERO, None);
//! // P0 -> P1 stays on the node: shared-memory segment.
//! let t_local = net.send(0, 1, "downgrade", 0, Time::ZERO, Some(MsgClass::Downgrade));
//! assert!(t_remote > t_local);
//!
//! // Receivers poll: nothing is pushed, P5 pops its earliest message.
//! let env = net.pop_any_earliest(5, false).unwrap();
//! assert_eq!((env.msg, env.arrival), ("read-req", t_remote));
//! assert_eq!(net.stats().count(MsgClass::Remote), 1);
//! assert_eq!(net.stats().count(MsgClass::Downgrade), 1);
//! ```

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use shasta_cluster::{CostModel, NetProfile, Topology};
use shasta_sim::{SplitMix64, Time};
use shasta_stats::{MsgClass, MsgStats};

mod seqguard;
mod transport;

pub use seqguard::{PairSequencer, SeqVerdict};
pub use transport::Transport;

/// A message in flight or queued at its destination.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Envelope<M> {
    /// Sending processor.
    pub src: u32,
    /// Destination processor.
    pub dst: u32,
    /// Simulated time at which the message becomes visible to polling.
    pub arrival: Time,
    /// The protocol message itself.
    pub msg: M,
    /// Per-(src node, dst node) stream position, stamped only while a fault
    /// plan is installed (0 = unsequenced: local message or fault-free run).
    /// Drives the exactly-once in-order guard in [`Network::admit`].
    pair_seq: u64,
    /// Whether the message was routed through the destination's shared
    /// virtual-node inbox (so a held copy is re-enqueued to the same place).
    via_vnode: bool,
    /// Causal trace context: the miss id in effect at send time (0 = none).
    /// Pure metadata — never consulted for timing or ordering.
    trace: u32,
    /// The send stamp in effect at send time (see [`Envelope::sent`]).
    sent: Time,
}

impl<M> Envelope<M> {
    /// The causal trace context (originating miss id) stamped at send time,
    /// or 0 when the send happened outside any miss. The engine re-installs
    /// this as the transport's context while handling the message, so
    /// protocol chains (request → forward → reply → directory update)
    /// inherit the id of the miss that started them.
    pub fn trace(&self) -> u32 {
        self.trace
    }

    /// The send stamp in effect when the message was sent
    /// ([`Network::set_send_stamp`]): the engine stamps the sender's clock
    /// before it pays for the send, the cycle its `msg-send` event carries,
    /// so a delivery names the send that caused it. Pure metadata, like
    /// [`Envelope::trace`].
    pub fn sent(&self) -> Time {
        self.sent
    }
}

/// A deterministic, seeded recipe for injecting message-level faults at the
/// Memory Channel delivery boundary. Probabilities are per *remote* message
/// in permille (‰); a category with probability 0 draws no randomness, and a
/// plan whose categories are all 0 ([`FaultPlan::is_none`]) leaves the
/// network's fault path entirely uninstalled — the negative control.
///
/// Everything is a pure function of the plan plus the (deterministic) order
/// of sends, so any run under a plan is exactly replayable and any
/// counterexample it produces shrinks like a schedule does.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault RNG stream (independent of the schedule seed).
    pub seed: u64,
    /// Per-message probability (‰) of extra delivery delay.
    pub delay_permille: u64,
    /// Maximum extra delay, in cycles (drawn uniformly from `[1, window)`).
    pub delay_window_cycles: u64,
    /// Per-message probability (‰) of the fabric delivering a second copy.
    pub dup_permille: u64,
    /// Maximum extra lateness of the duplicate copy, in cycles.
    pub dup_skew_cycles: u64,
    /// Per-message probability (‰) of reordering delay: enough extra
    /// latency to push the message past its per-pair successors.
    pub reorder_permille: u64,
    /// Maximum reordering delay, in cycles (should exceed typical
    /// inter-send gaps so inversions actually happen).
    pub reorder_window_cycles: u64,
    /// Per-message probability (‰) of silent loss. There is no retransmit
    /// path: a lost message strands its per-pair successors in
    /// [`Network::admit`]'s hold queue, which the liveness and quiescence
    /// oracles then report.
    pub loss_permille: u64,
}

impl FaultPlan {
    /// The inert plan: no category enabled, nothing installed.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            delay_permille: 0,
            delay_window_cycles: 0,
            dup_permille: 0,
            dup_skew_cycles: 0,
            reorder_permille: 0,
            reorder_window_cycles: 0,
            loss_permille: 0,
        }
    }

    /// Whether every fault category is disabled (the plan is a no-op
    /// regardless of its seed).
    pub const fn is_none(&self) -> bool {
        self.delay_permille == 0
            && self.dup_permille == 0
            && self.reorder_permille == 0
            && self.loss_permille == 0
    }

    /// Delay-only preset: 25% of remote messages arrive up to 20k cycles
    /// late (several Memory Channel one-way latencies).
    pub const fn delay(seed: u64) -> Self {
        FaultPlan { seed, delay_permille: 250, delay_window_cycles: 20_000, ..Self::none() }
    }

    /// Duplication-only preset: 20% of remote messages are delivered twice,
    /// the copy up to 10k cycles later.
    pub const fn duplicate(seed: u64) -> Self {
        FaultPlan { seed, dup_permille: 200, dup_skew_cycles: 10_000, ..Self::none() }
    }

    /// Reordering-only preset: 25% of remote messages are pushed up to 50k
    /// cycles past their per-pair successors.
    pub const fn reorder(seed: u64) -> Self {
        FaultPlan { seed, reorder_permille: 250, reorder_window_cycles: 50_000, ..Self::none() }
    }

    /// Loss preset (opt-in, *expected to fail*): 10% of remote messages
    /// vanish with no retransmit path.
    pub const fn loss(seed: u64) -> Self {
        FaultPlan { seed, loss_permille: 100, ..Self::none() }
    }

    /// Everything the protocol must tolerate at once: delay, duplication,
    /// and reordering (no loss).
    pub const fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_permille: 150,
            delay_window_cycles: 20_000,
            dup_permille: 100,
            dup_skew_cycles: 10_000,
            reorder_permille: 150,
            reorder_window_cycles: 50_000,
            loss_permille: 0,
        }
    }

    /// The same plan with a different RNG seed.
    #[must_use]
    pub const fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Counters for every fault the network injected or absorbed, for panic
/// diagnostics and sweep reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Remote messages given extra delivery delay.
    pub delayed: u64,
    /// Remote messages the fabric delivered twice.
    pub duplicated: u64,
    /// Copies discarded by the exactly-once guard in [`Network::admit`].
    pub dups_dropped: u64,
    /// Remote messages pushed past a per-pair successor.
    pub reordered: u64,
    /// Held messages released back in order by [`Network::admit`].
    pub resequenced: u64,
    /// Remote messages silently dropped (no retransmit path exists).
    pub lost: u64,
}

impl FaultCounts {
    /// Total faults injected at send time (not counting guard-side
    /// absorption).
    pub const fn injected(&self) -> u64 {
        self.delayed + self.duplicated + self.reordered + self.lost
    }
}

impl std::fmt::Display for FaultCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} delayed, {} duplicated ({} dropped), {} reordered ({} resequenced), {} lost",
            self.delayed,
            self.duplicated,
            self.dups_dropped,
            self.reordered,
            self.resequenced,
            self.lost
        )
    }
}

/// Live state of an installed fault plan: the RNG stream, the per-pair
/// sequencer driving the admit guard, and the injection tally.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    counts: FaultCounts,
    /// Exactly-once in-order streams indexed `src_node * nodes + dst_node`
    /// (see [`PairSequencer`] for why streams are keyed by node pair).
    seqr: PairSequencer,
}

impl FaultState {
    fn new(plan: FaultPlan, nodes: usize) -> Self {
        FaultState {
            rng: SplitMix64::new(plan.seed ^ 0x5EED_FA17_7E57_C0DE),
            plan,
            counts: FaultCounts::default(),
            seqr: PairSequencer::new(nodes * nodes),
        }
    }
}

/// Installed metrics handles: admit-guard absorption counters and per-
/// sending-node link occupancy. Purely additive bookkeeping — recording
/// never feeds back into arrival arithmetic, so simulated cycles are
/// bit-identical with metrics on or off.
#[derive(Debug)]
struct NetMetrics {
    registry: shasta_obs::Registry,
    dups_dropped: shasta_obs::Counter,
    held: shasta_obs::Counter,
    resequenced: shasta_obs::Counter,
    /// Simulated cycles each sending node's MC link was occupied.
    occupancy: Vec<shasta_obs::Counter>,
    /// Wire bytes (payload + header) each sending node's link carried.
    link_bytes: Vec<shasta_obs::Counter>,
}

/// The cluster messaging fabric: per-destination arrival-ordered queues plus
/// per-node Memory Channel link occupancy.
///
/// In addition to per-processor inboxes, each *virtual node* has a shared
/// inbox used by the load-balancing extension (§3.1 of the paper: "sharing
/// the incoming message queues ... provides the opportunity to load-balance
/// the handling of remote messages on any processor at the destination
/// node").
#[derive(Debug)]
pub struct Network<M> {
    topo: Topology,
    cost: CostModel,
    /// Per-processor inboxes, each in arrival order (see
    /// [`Network::enqueue`]), so the head is the earliest message.
    inboxes: Vec<VecDeque<Envelope<M>>>,
    /// Shared per-virtual-node inboxes (load-balancing extension).
    node_inboxes: Vec<VecDeque<Envelope<M>>>,
    /// Next time each physical node's Memory Channel link is free.
    link_free: Vec<Time>,
    /// Heterogeneous link parameters; `None` = the cost model's uniform
    /// constants.
    profile: Option<NetProfile>,
    /// Installed fault plan state; `None` = the fault path is inert.
    fault: Option<FaultState>,
    /// Messages held by [`Network::admit`] awaiting a per-pair predecessor.
    stash: Vec<Envelope<M>>,
    stats: MsgStats,
    in_flight: usize,
    /// Causal context stamped into outgoing envelopes (0 = none).
    trace_ctx: u32,
    /// Send stamp written into outgoing envelopes.
    send_stamp: Time,
    /// Installed metrics handles; `None` = recording off (the default).
    metrics: Option<NetMetrics>,
}

impl<M: Clone> Network<M> {
    /// Creates an empty network for the given topology and cost model.
    pub fn new(topo: Topology, cost: CostModel) -> Self {
        let procs = topo.procs() as usize;
        let nodes = topo.phys_nodes() as usize;
        let vnodes = topo.virt_nodes() as usize;
        Network {
            topo,
            cost,
            inboxes: (0..procs).map(|_| VecDeque::with_capacity(8)).collect(),
            node_inboxes: (0..vnodes).map(|_| VecDeque::with_capacity(8)).collect(),
            link_free: vec![Time::ZERO; nodes],
            profile: None,
            fault: None,
            stash: Vec::new(),
            stats: MsgStats::default(),
            in_flight: 0,
            trace_ctx: 0,
            send_stamp: Time::ZERO,
            metrics: None,
        }
    }

    /// The topology this network was built for.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Installs a heterogeneous link profile. [`NetProfile::uniform`] for
    /// this topology's node count reproduces the unprofiled network
    /// bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if the profile's shape does not match the topology.
    pub fn set_profile(&mut self, profile: NetProfile) {
        assert!(
            profile.is_valid_for(self.topo.phys_nodes()),
            "profile shape {}x nodes does not match topology ({} nodes)",
            profile.nodes(),
            self.topo.phys_nodes()
        );
        self.profile = Some(profile);
        self.publish_link_gauges();
    }

    /// Attaches a metrics registry: admit-guard absorption counters
    /// (`memchan.admit.*`), per-sending-node link occupancy and bytes
    /// (`cluster.link.occupancy_cycles.*` / `cluster.link.bytes.*`), and
    /// the effective per-link latency/bandwidth parameters as gauges.
    /// Recording is purely additive — simulated arrival times and message
    /// statistics are bit-identical with or without a registry attached.
    pub fn set_metrics(&mut self, registry: &shasta_obs::Registry) {
        let nodes = self.topo.phys_nodes() as usize;
        self.metrics = Some(NetMetrics {
            dups_dropped: registry.counter("memchan.admit.dups_dropped"),
            held: registry.counter("memchan.admit.held"),
            resequenced: registry.counter("memchan.admit.resequenced"),
            occupancy: (0..nodes)
                .map(|n| registry.counter(&format!("cluster.link.occupancy_cycles.n{n}")))
                .collect(),
            link_bytes: (0..nodes)
                .map(|n| registry.counter(&format!("cluster.link.bytes.n{n}")))
                .collect(),
            registry: registry.clone(),
        });
        self.publish_link_gauges();
    }

    /// Sets the causal trace context stamped into every envelope sent from
    /// now on (0 clears it). See [`Envelope::trace`].
    pub fn set_trace_context(&mut self, ctx: u32) {
        self.trace_ctx = ctx;
    }

    /// The causal trace context stamped into envelopes sent now.
    pub fn trace_context(&self) -> u32 {
        self.trace_ctx
    }

    /// Sets the send stamp written into every envelope sent from now on.
    /// See [`Envelope::sent`].
    pub fn set_send_stamp(&mut self, t: Time) {
        self.send_stamp = t;
    }

    /// Publishes the effective link parameters — the installed profile, or
    /// the cost model's uniform constants — as gauges on the attached
    /// registry. Re-run whenever either side changes.
    fn publish_link_gauges(&self) {
        let Some(m) = &self.metrics else { return };
        let effective = match &self.profile {
            Some(p) => p.clone(),
            None => NetProfile::uniform(self.topo.phys_nodes(), &self.cost),
        };
        for (name, v) in effective.link_metrics() {
            m.registry.gauge(&name).set(v);
        }
    }

    /// Installs a fault plan. A plan with every category disabled
    /// ([`FaultPlan::is_none`]) leaves the fault path uninstalled, so runs
    /// under it are byte-identical to runs that never called this.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if plan.is_none() {
            self.fault = None;
        } else {
            self.fault = Some(FaultState::new(plan, self.topo.phys_nodes() as usize));
        }
    }

    /// Whether a (non-inert) fault plan is installed.
    pub fn fault_active(&self) -> bool {
        self.fault.is_some()
    }

    /// The injection tally so far (all zero when no plan is installed).
    pub fn fault_counts(&self) -> FaultCounts {
        self.fault.as_ref().map(|f| f.counts).unwrap_or_default()
    }

    /// Messages currently held by [`Network::admit`] awaiting a per-pair
    /// predecessor. Nonzero at quiescence means a predecessor was lost.
    pub fn held_messages(&self) -> usize {
        self.stash.len()
    }

    /// Sends `msg` from `src` to `dst` at time `now`, returning its arrival
    /// time. `payload_bytes` is the data payload (line contents etc.);
    /// the protocol header is added by the cost model.
    ///
    /// The message class defaults to [`MsgClass::Remote`] or
    /// [`MsgClass::Local`] by physical placement; pass
    /// `Some(MsgClass::Downgrade)` for downgrade messages (which are always
    /// intra-node).
    ///
    /// # Panics
    ///
    /// Panics (debug) if a downgrade override is used across physical nodes.
    pub fn send(
        &mut self,
        src: u32,
        dst: u32,
        msg: M,
        payload_bytes: u64,
        now: Time,
        class_override: Option<MsgClass>,
    ) -> Time {
        self.post(src, dst, msg, payload_bytes, now, class_override, false)
    }

    /// Sends `msg` to the *shared inbox* of `dst`'s virtual node: any
    /// processor of the node may handle it (the load-balancing extension).
    /// Wire costs and classification are those of a message to `dst`.
    pub fn send_to_vnode(
        &mut self,
        src: u32,
        dst: u32,
        msg: M,
        payload_bytes: u64,
        now: Time,
    ) -> Time {
        self.post(src, dst, msg, payload_bytes, now, None, true)
    }

    /// The one send path: classify, cost, fault, build the envelope, and
    /// enqueue it (with its duplicate, if the fault plan made one).
    #[allow(clippy::too_many_arguments)]
    fn post(
        &mut self,
        src: u32,
        dst: u32,
        msg: M,
        payload_bytes: u64,
        now: Time,
        class_override: Option<MsgClass>,
        via_vnode: bool,
    ) -> Time {
        let local = self.topo.same_phys_node(src, dst);
        let class =
            class_override.unwrap_or(if local { MsgClass::Local } else { MsgClass::Remote });
        debug_assert!(
            class != MsgClass::Downgrade || local,
            "downgrade messages are intra-node by construction"
        );
        let arrival = self.arrival_time(src, dst, local, payload_bytes, now);
        self.stats.record(class, payload_bytes);
        let (pair_seq, arrival, dup) = if local {
            (0, arrival, None)
        } else {
            match self.apply_faults(src, dst, arrival) {
                Some(outcome) => outcome,
                // Lost on the wire: it occupied the link and was counted as
                // sent, but never reaches an inbox.
                None => return arrival,
            }
        };
        let (trace, sent) = (self.trace_ctx, self.send_stamp);
        let env = Envelope { src, dst, arrival, msg, pair_seq, via_vnode, trace, sent };
        if let Some(dup_arrival) = dup {
            let mut copy = env.clone();
            copy.arrival = dup_arrival;
            self.enqueue(env);
            self.enqueue(copy);
        } else {
            self.enqueue(env);
        }
        arrival
    }

    /// The one place an envelope enters an inbox (the one its `via_vnode`
    /// routing names). An inbox is kept in arrival order, ties in the
    /// order they were enqueued: `env` goes after every queued envelope
    /// that arrives no later. Sends mostly arrive last, so that is usually
    /// the back; otherwise a short scan from the back finds the place.
    fn enqueue(&mut self, env: Envelope<M>) {
        self.in_flight += 1;
        let inbox = if env.via_vnode {
            &mut self.node_inboxes[usize::from(self.topo.virt_node_of(env.dst))]
        } else {
            &mut self.inboxes[env.dst as usize]
        };
        let at = inbox.iter().rposition(|e| e.arrival <= env.arrival).map_or(0, |i| i + 1);
        inbox.insert(at, env);
    }

    /// Arrival time of a message leaving `src` at `now`: shared-memory wire
    /// cost when intra-node, otherwise Memory Channel link occupancy (remote
    /// messages serialize on the sender node's MC link for their per-byte
    /// transmission time) plus one-way latency. An installed [`NetProfile`]
    /// supplies per-node bandwidth and per-pair latency in place of the
    /// cost model's uniform constants, through identical arithmetic.
    fn arrival_time(
        &mut self,
        src: u32,
        dst: u32,
        local: bool,
        payload_bytes: u64,
        now: Time,
    ) -> Time {
        if local {
            now + self.cost.wire_cycles(true, payload_bytes)
        } else {
            let node = usize::from(self.topo.phys_node_of(src));
            let (per_byte, oneway) = match &self.profile {
                Some(p) => {
                    (p.per_byte[node], p.oneway[node][usize::from(self.topo.phys_node_of(dst))])
                }
                None => (self.cost.mc_per_byte_cycles, self.cost.mc_oneway_cycles),
            };
            let depart = self.link_free[node].max(now);
            let occupancy = per_byte * (payload_bytes + self.cost.header_bytes);
            self.link_free[node] = depart + occupancy;
            if let Some(m) = &self.metrics {
                m.occupancy[node].add(occupancy);
                m.link_bytes[node].add(payload_bytes + self.cost.header_bytes);
            }
            depart + occupancy + oneway
        }
    }

    /// Index of the `(src node, dst node)` stream a `src → dst` message
    /// belongs to in the fault state's [`PairSequencer`].
    fn pair_stream(&self, src: u32, dst: u32) -> usize {
        let nodes = self.topo.phys_nodes() as usize;
        usize::from(self.topo.phys_node_of(src)) * nodes + usize::from(self.topo.phys_node_of(dst))
    }

    /// Applies the installed fault plan to one remote message: stamps its
    /// per-pair sequence number and draws loss, delay, reordering, and
    /// duplication in that fixed order. Returns `None` when the message is
    /// lost, otherwise `(pair_seq, arrival, duplicate arrival)`. With no
    /// plan installed this is a pass-through (`pair_seq` 0).
    fn apply_faults(
        &mut self,
        src: u32,
        dst: u32,
        arrival: Time,
    ) -> Option<(u64, Time, Option<Time>)> {
        let idx = self.pair_stream(src, dst);
        let Some(fs) = self.fault.as_mut() else {
            return Some((0, arrival, None));
        };
        let pair_seq = fs.seqr.stamp(idx);
        let plan = fs.plan;
        if plan.loss_permille > 0 && fs.rng.below(1000) < plan.loss_permille {
            fs.counts.lost += 1;
            return None;
        }
        let mut arrival = arrival;
        if plan.delay_permille > 0 && fs.rng.below(1000) < plan.delay_permille {
            arrival += fs.rng.range(1, plan.delay_window_cycles.max(2));
            fs.counts.delayed += 1;
        }
        if plan.reorder_permille > 0 && fs.rng.below(1000) < plan.reorder_permille {
            arrival += fs.rng.range(1, plan.reorder_window_cycles.max(2));
            fs.counts.reordered += 1;
        }
        let dup = if plan.dup_permille > 0 && fs.rng.below(1000) < plan.dup_permille {
            fs.counts.duplicated += 1;
            Some(arrival + fs.rng.range(1, plan.dup_skew_cycles.max(2)))
        } else {
            None
        };
        Some((pair_seq, arrival, dup))
    }

    /// Receiver-side delivery guard modeling the Memory Channel's
    /// exactly-once, per-pair-FIFO contract (§2). The engine calls this on
    /// every popped message before dispatching it to the protocol:
    ///
    /// * a duplicate (its per-pair position was already delivered) is
    ///   discarded,
    /// * an *early* message — a predecessor in its pair stream is still in
    ///   flight — is held, and re-enqueued into the destination's inbox
    ///   once that predecessor is delivered,
    /// * otherwise the message is released for dispatch.
    ///
    /// Unsequenced messages (local, or sent while no fault plan was
    /// installed) always pass through. Held messages still count as
    /// [`Network::in_flight`], so quiescence checks and engine termination
    /// stay sound; a held message whose predecessor was *lost* is held
    /// forever — exactly how the liveness oracle catches loss without a
    /// retransmit path.
    pub fn admit(&mut self, env: Envelope<M>, now: Time) -> Option<Envelope<M>> {
        if env.pair_seq == 0 {
            return Some(env);
        }
        let idx = self.pair_stream(env.src, env.dst);
        let verdict = {
            let fs = self.fault.as_mut().expect("sequenced message without an installed plan");
            let v = fs.seqr.admit(idx, env.pair_seq);
            if v == SeqVerdict::Duplicate {
                fs.counts.dups_dropped += 1;
            }
            v
        };
        match verdict {
            SeqVerdict::Duplicate => {
                if let Some(m) = &self.metrics {
                    m.dups_dropped.inc();
                }
                None
            }
            SeqVerdict::Hold => {
                if let Some(m) = &self.metrics {
                    m.held.inc();
                }
                self.stash.push(env);
                None
            }
            SeqVerdict::Deliver => {
                self.release_held(env.src, env.dst, now);
                Some(env)
            }
        }
    }

    /// Re-enqueues any held message on the `(src node, dst node)` stream
    /// whose turn has come (the stream's next position), and drops held
    /// duplicates of already-delivered positions. Released messages get an
    /// arrival no earlier than `now` and return, behind every message that
    /// arrives no later, to the inbox they were originally routed to.
    fn release_held(&mut self, src: u32, dst: u32, now: Time) {
        let idx = self.pair_stream(src, dst);
        let next =
            self.fault.as_ref().expect("held message without an installed plan").seqr.expected(idx);
        let mut i = 0;
        while i < self.stash.len() {
            let e = &self.stash[i];
            if !(self.pair_stream(e.src, e.dst) == idx && e.pair_seq <= next) {
                i += 1;
                continue;
            }
            let mut e = self.stash.swap_remove(i);
            let fs = self.fault.as_mut().expect("checked above");
            if e.pair_seq < next {
                fs.counts.dups_dropped += 1;
                if let Some(m) = &self.metrics {
                    m.dups_dropped.inc();
                }
            } else {
                fs.counts.resequenced += 1;
                if let Some(m) = &self.metrics {
                    m.resequenced.inc();
                }
                e.arrival = e.arrival.max(now);
                self.enqueue(e);
            }
        }
    }

    /// Earliest arrival time queued for `dst`, if any.
    pub fn peek_arrival(&self, dst: u32) -> Option<Time> {
        self.inboxes[dst as usize].front().map(|e| e.arrival)
    }

    /// Pops the earliest message for `dst` regardless of `now` (used when a
    /// stalled processor's clock advances to the message arrival).
    pub fn pop_earliest(&mut self, dst: u32) -> Option<Envelope<M>> {
        let env = self.inboxes[dst as usize].pop_front()?;
        self.in_flight -= 1;
        Some(env)
    }

    /// Earliest arrival queued in `p`'s virtual-node shared inbox.
    pub fn peek_vnode_arrival(&self, p: u32) -> Option<Time> {
        let v = usize::from(self.topo.virt_node_of(p));
        self.node_inboxes[v].front().map(|e| e.arrival)
    }

    /// Pops the earliest message from `p`'s virtual-node shared inbox.
    pub fn pop_vnode_earliest(&mut self, p: u32) -> Option<Envelope<M>> {
        let v = usize::from(self.topo.virt_node_of(p));
        let env = self.node_inboxes[v].pop_front()?;
        self.in_flight -= 1;
        Some(env)
    }

    /// Earliest arrival `p` could handle over its own inbox and (when
    /// `include_vnode`) its virtual node's shared inbox, in one call — the
    /// engine's per-candidate scan uses this instead of two peeks.
    pub fn peek_any_arrival(&self, p: u32, include_vnode: bool) -> Option<Time> {
        let own = self.peek_arrival(p);
        let shared = if include_vnode { self.peek_vnode_arrival(p) } else { None };
        match (own, shared) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pops the earliest message `p` can handle over its own inbox and (when
    /// `include_vnode`) the shared virtual-node inbox. The processor's own
    /// inbox wins arrival ties, matching the engine's historical poll order.
    pub fn pop_any_earliest(&mut self, p: u32, include_vnode: bool) -> Option<Envelope<M>> {
        let own = self.peek_arrival(p);
        let shared = if include_vnode { self.peek_vnode_arrival(p) } else { None };
        match (own, shared) {
            (Some(a), Some(b)) if b < a => self.pop_vnode_earliest(p),
            (Some(_), _) => self.pop_earliest(p),
            (None, Some(_)) => self.pop_vnode_earliest(p),
            (None, None) => None,
        }
    }

    /// Number of messages queued or held but not yet delivered. Held
    /// messages (see [`Network::admit`]) count: they are logically still in
    /// the fabric, which keeps quiescence checks sound under fault plans.
    pub fn in_flight(&self) -> usize {
        self.in_flight + self.stash.len()
    }

    /// Message statistics accumulated so far.
    pub fn stats(&self) -> &MsgStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network<u32> {
        Network::new(Topology::new(8, 4, 4).unwrap(), CostModel::alpha_4100())
    }

    #[test]
    fn remote_vs_local_latency() {
        let mut n = net();
        let remote = n.send(0, 4, 1, 0, Time::ZERO, None);
        let local = n.send(0, 1, 2, 0, Time::ZERO, None);
        assert!(remote.cycles() >= 1_200, "MC latency applies");
        assert!(local < remote);
        assert_eq!(n.stats().count(MsgClass::Remote), 1);
        assert_eq!(n.stats().count(MsgClass::Local), 1);
    }

    #[test]
    fn delivery_in_arrival_order_with_fifo_ties() {
        let mut n = net();
        // Two local messages to the same destination from the same source
        // arrive at the same time: the first queued pops first.
        n.send(0, 1, 10, 0, Time::ZERO, None);
        n.send(0, 1, 11, 0, Time::ZERO, None);
        let a = n.pop_earliest(1).unwrap();
        let b = n.pop_earliest(1).unwrap();
        assert_eq!((a.msg, b.msg), (10, 11));
    }

    #[test]
    fn link_contention_serializes_remote_sends() {
        let mut n = net();
        // Both senders on node 0 share one MC link; large payloads occupy it.
        let a = n.send(0, 4, 1, 2_048, Time::ZERO, None);
        let b = n.send(1, 5, 2, 2_048, Time::ZERO, None);
        // Second message departs only after the first's occupancy.
        let occ = CostModel::alpha_4100().mc_per_byte_cycles * (2_048 + 16);
        assert_eq!(b.cycles() - a.cycles(), occ);
    }

    #[test]
    fn different_nodes_do_not_contend() {
        let mut n = net();
        let a = n.send(0, 4, 1, 2_048, Time::ZERO, None);
        let b = n.send(4, 0, 2, 2_048, Time::ZERO, None);
        assert_eq!(a, b);
    }

    #[test]
    fn local_messages_skip_the_link() {
        let mut n = net();
        n.send(0, 4, 1, 4_096, Time::ZERO, None); // occupy node 0's link
        let local = n.send(1, 2, 2, 0, Time::ZERO, None);
        assert_eq!(local, Time::ZERO + CostModel::alpha_4100().wire_cycles(true, 0));
    }

    #[test]
    fn downgrade_classification() {
        let mut n = net();
        n.send(0, 1, 9, 0, Time::ZERO, Some(MsgClass::Downgrade));
        assert_eq!(n.stats().count(MsgClass::Downgrade), 1);
        assert_eq!(n.stats().count(MsgClass::Local), 0);
    }

    #[test]
    fn empty_network_has_no_messages() {
        let n = net();
        assert_eq!(n.peek_any_arrival(0, true), None);
        assert_eq!(n.in_flight(), 0);
    }

    /// Pops everything for `dst` through the admit guard (re-polling after
    /// releases) and returns the delivered payloads in order.
    fn drain_admitted(n: &mut Network<u32>, dst: u32) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(env) = n.pop_earliest(dst) {
            let now = env.arrival;
            if let Some(e) = n.admit(env, now) {
                out.push(e.msg);
            }
        }
        out
    }

    #[test]
    fn inert_plan_installs_nothing() {
        let mut n = net();
        n.set_fault_plan(FaultPlan { seed: 99, ..FaultPlan::none() });
        assert!(!n.fault_active());
        let a = n.send(0, 4, 1, 64, Time::ZERO, None);
        let mut reference = net();
        let b = reference.send(0, 4, 1, 64, Time::ZERO, None);
        assert_eq!(a, b, "a disabled plan must not perturb arrivals");
        let env = n.pop_earliest(4).unwrap();
        assert!(n.admit(env, a).is_some(), "unsequenced messages pass through");
        assert_eq!(n.fault_counts(), FaultCounts::default());
    }

    #[test]
    fn uniform_profile_is_bit_identical() {
        let mut plain = net();
        let mut profiled = net();
        profiled.set_profile(NetProfile::uniform(2, &CostModel::alpha_4100()));
        for (src, dst) in [(0, 4), (1, 5), (4, 0), (0, 1)] {
            let a = plain.send(src, dst, src, 256, Time::ZERO, None);
            let b = profiled.send(src, dst, src, 256, Time::ZERO, None);
            assert_eq!(a, b, "uniform profile diverged for {src}->{dst}");
        }
    }

    #[test]
    fn heterogeneous_profile_slows_the_scaled_link() {
        let cost = CostModel::alpha_4100();
        let mut n = net();
        n.set_profile(NetProfile::uniform(2, &cost).scale_node_latency(1, 3));
        let into_slow = n.send(0, 4, 1, 0, Time::ZERO, None);
        let mut reference = net();
        let uniform = reference.send(0, 4, 1, 0, Time::ZERO, None);
        assert_eq!(into_slow.cycles() - uniform.cycles(), 2 * cost.mc_oneway_cycles);
    }

    #[test]
    fn delay_plan_is_deterministic_and_counted() {
        let run = || {
            let mut n = net();
            n.set_fault_plan(FaultPlan { delay_permille: 1000, ..FaultPlan::delay(7) });
            let arrivals: Vec<Time> =
                (0..8).map(|i| n.send(0, 4, i, 64, Time::ZERO, None)).collect();
            (arrivals, n.fault_counts())
        };
        let (a, counts_a) = run();
        let (b, counts_b) = run();
        assert_eq!(a, b, "same plan, same seed => same arrivals");
        assert_eq!(counts_a, counts_b);
        assert_eq!(counts_a.delayed, 8, "permille 1000 delays every remote message");
        let mut reference = net();
        let plain: Vec<Time> =
            (0..8).map(|i| reference.send(0, 4, i, 64, Time::ZERO, None)).collect();
        assert!(a.iter().zip(&plain).all(|(f, p)| f > p), "delay only ever adds latency");
    }

    #[test]
    fn duplicate_copies_are_dropped_by_the_guard() {
        let mut n = net();
        n.set_fault_plan(FaultPlan { dup_permille: 1000, ..FaultPlan::duplicate(3) });
        for i in 0..4 {
            n.send(0, 4, i, 64, Time::ZERO, None);
        }
        assert_eq!(n.in_flight(), 8, "every message has a fabric-level copy");
        let delivered = drain_admitted(&mut n, 4);
        assert_eq!(delivered, vec![0, 1, 2, 3], "each message delivered exactly once, in order");
        let counts = n.fault_counts();
        assert_eq!(counts.duplicated, 4);
        assert_eq!(counts.dups_dropped, 4);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn reordered_messages_are_resequenced_in_pair_order() {
        let mut n = net();
        n.set_fault_plan(FaultPlan { reorder_permille: 500, ..FaultPlan::reorder(11) });
        let sent: Vec<u32> = (0..12).collect();
        for &i in &sent {
            n.send(0, 4, i, 64, Time::ZERO, None);
        }
        let delivered = drain_admitted(&mut n, 4);
        assert_eq!(delivered, sent, "the guard restores per-pair FIFO order");
        let counts = n.fault_counts();
        assert!(counts.reordered > 0, "seed 11 must actually reorder something");
        assert!(counts.resequenced > 0, "an inversion must have been held and released");
        assert_eq!(n.held_messages(), 0);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn loss_strands_successors_in_the_hold_queue() {
        // Whatever the seed, a lost message's pair successors are held and
        // never delivered; sweep a few seeds to find one with both a loss
        // and a surviving successor (most have both at 30% loss).
        let mut witnessed = false;
        for seed in 0..16u64 {
            let mut n = net();
            n.set_fault_plan(FaultPlan { loss_permille: 300, ..FaultPlan::loss(seed) });
            for i in 0..10 {
                n.send(0, 4, i, 64, Time::ZERO, None);
            }
            let delivered = drain_admitted(&mut n, 4);
            let counts = n.fault_counts();
            assert_eq!(
                delivered.len() + counts.lost as usize + n.held_messages(),
                10,
                "every message is delivered, lost, or stranded"
            );
            if counts.lost > 0 && n.held_messages() > 0 {
                assert!(n.in_flight() > 0, "held messages keep the fabric non-quiescent");
                witnessed = true;
                break;
            }
        }
        assert!(witnessed, "no seed in 0..16 produced a loss with stranded successors");
    }

    #[test]
    fn trace_context_rides_the_envelope() {
        let mut n = net();
        n.set_trace_context(7);
        n.send(0, 4, 1, 0, Time::ZERO, None);
        n.set_trace_context(0);
        n.send(0, 4, 2, 0, Time::ZERO, None);
        let a = n.pop_earliest(4).unwrap();
        let b = n.pop_earliest(4).unwrap();
        assert_eq!((a.msg, a.trace()), (1, 7));
        assert_eq!((b.msg, b.trace()), (2, 0));
    }

    #[test]
    fn send_stamp_rides_the_envelope() {
        let mut n = net();
        n.set_send_stamp(Time::from_cycles(30));
        let arrival = n.send(0, 4, 1, 0, Time::from_cycles(40), None);
        let env = n.pop_earliest(4).unwrap();
        assert_eq!((env.sent(), env.arrival), (Time::from_cycles(30), arrival));
    }

    #[test]
    fn metrics_recording_never_perturbs_arrivals_and_counts_exactly() {
        let registry = shasta_obs::Registry::enabled();
        let run = |metrics: Option<&shasta_obs::Registry>| {
            let mut n = net();
            if let Some(r) = metrics {
                n.set_metrics(r);
            }
            n.set_fault_plan(FaultPlan::chaos(5));
            let arrivals: Vec<Time> =
                (0..24).map(|i| n.send(i % 4, 4 + (i % 4), i, 64, Time::ZERO, None)).collect();
            let delivered: Vec<Vec<u32>> = (4..8).map(|dst| drain_admitted(&mut n, dst)).collect();
            (arrivals, delivered, n.fault_counts())
        };
        let plain = run(None);
        let metered = run(Some(&registry));
        assert_eq!(plain, metered, "metrics recording must be invisible to the sim");

        let snap = registry.snapshot();
        let counts = metered.2;
        assert_eq!(snap.counter("memchan.admit.dups_dropped"), counts.dups_dropped);
        assert_eq!(snap.counter("memchan.admit.resequenced"), counts.resequenced);
        assert!(snap.counter("cluster.link.occupancy_cycles.n0") > 0);
        assert!(snap.counter("cluster.link.bytes.n0") > 0);
        assert!(snap.get("cluster.link.oneway.n0.n1").is_some(), "link gauges published");
        assert!(snap.get("cluster.link.per_byte.n1").is_some());
    }

    #[test]
    fn fault_replay_is_a_pure_function_of_the_plan() {
        let run = |plan: FaultPlan| {
            let mut n = net();
            n.set_fault_plan(plan);
            for i in 0..16 {
                n.send(i % 4, 4 + (i % 4), i, 64, Time::ZERO, None);
            }
            (drain_admitted(&mut n, 4), n.fault_counts(), n.held_messages())
        };
        let plan = FaultPlan::chaos(42);
        assert_eq!(run(plan), run(plan), "replaying a plan is bit-exact");
        assert_ne!(
            run(plan).1,
            run(plan.with_seed(43)).1,
            "a different seed draws a different fault schedule"
        );
    }
}
