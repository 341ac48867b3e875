//! The pluggable transport abstraction the protocol engine speaks.
//!
//! Everything the engine in `shasta-core` needs of its messaging backend is
//! this trait. [`Network`] — the deterministic simulated Memory Channel — is
//! the canonical implementation and the timing oracle; `shasta-transport`
//! adds a second backend that ships every remote message through real
//! loopback TCP or Unix-domain sockets in the wire format specified by
//! `docs/TRANSPORT.md`.
//!
//! The contract every implementation must honor, because the protocol's
//! correctness argument leans on it:
//!
//! * **per-pair FIFO, exactly-once**: messages between a (source node,
//!   destination node) pair are delivered in send order, once each —
//!   substrates that can duplicate or reorder (fault plans, retransmitting
//!   sockets) must repair the stream at the delivery boundary (see
//!   [`PairSequencer`](crate::PairSequencer));
//! * **deterministic timing**: arrival times returned by
//!   [`Transport::send`] and observed via [`Transport::peek_any_arrival`]
//!   are simulated [`Time`]s and must be a pure function of the send
//!   history, so simulated cycles stay bit-identical run to run;
//! * **polling delivery**: receivers poll (§2.1 of the paper); the
//!   transport never pushes, and [`Transport::pop_any_earliest`] +
//!   [`Transport::admit`] is the only delivery path.

use shasta_cluster::NetProfile;
use shasta_sim::Time;
use shasta_stats::{MsgClass, MsgStats};

use crate::{Envelope, FaultCounts, FaultPlan, Network};

/// What the protocol engine requires of a messaging backend.
///
/// Implemented by the simulated [`Network`] (the oracle) and by the real
/// loopback transport in `shasta-transport`. The engine owns the transport
/// as a `Box<dyn Transport<ProtoMsg>>` and drives it single-threadedly; an
/// implementation may do real I/O inside these calls (the loopback
/// transport polls its sockets and runs its retransmit scan there) but
/// everything it reports through this interface must be deterministic.
pub trait Transport<M>: std::fmt::Debug + Send {
    /// Sends `msg` from processor `src` to processor `dst` at simulated
    /// time `now`, returning its arrival time. `payload_bytes` is the data
    /// payload (line contents etc.); the protocol header is costed by the
    /// implementation. `class_override` forces the Figure 7 classification
    /// (downgrades are classified explicitly; `None` infers remote/local
    /// from placement).
    fn send(
        &mut self,
        src: u32,
        dst: u32,
        msg: M,
        payload_bytes: u64,
        now: Time,
        class_override: Option<MsgClass>,
    ) -> Time;

    /// Sends `msg` to the *shared inbox* of `dst`'s virtual node, where any
    /// processor of the node may handle it (the load-balancing extension,
    /// §3.1 of the paper). Costs and classification are those of a message
    /// to `dst`.
    fn send_to_vnode(&mut self, src: u32, dst: u32, msg: M, payload_bytes: u64, now: Time) -> Time;

    /// Earliest arrival processor `p` could handle over its own inbox and
    /// (when `include_vnode`) its virtual node's shared inbox.
    fn peek_any_arrival(&self, p: u32, include_vnode: bool) -> Option<Time>;

    /// Pops the earliest message `p` can handle over its own inbox and
    /// (when `include_vnode`) the shared virtual-node inbox. The
    /// processor's own inbox wins arrival ties.
    fn pop_any_earliest(&mut self, p: u32, include_vnode: bool) -> Option<Envelope<M>>;

    /// Receiver-side delivery guard: every popped message passes through
    /// here before the protocol dispatches it. Returns `None` when the
    /// message was absorbed (duplicate discarded, or held awaiting a
    /// per-pair predecessor); held messages are re-enqueued once their
    /// predecessors are delivered.
    fn admit(&mut self, env: Envelope<M>, now: Time) -> Option<Envelope<M>>;

    /// Number of messages queued or held but not yet delivered. Quiescence
    /// (`in_flight() == 0` with all processors blocked) is how the engine
    /// detects both termination and deadlock, so held messages must count.
    fn in_flight(&self) -> usize;

    /// Message statistics accumulated so far (the Figure 7 counters).
    fn stats(&self) -> &MsgStats;

    /// Whether a (non-inert) fault plan is installed. The engine disables
    /// its run-ahead fast path while faults are active.
    fn fault_active(&self) -> bool;

    /// The fault-injection tally so far (all zero when inapplicable).
    fn fault_counts(&self) -> FaultCounts;

    /// Messages currently held by [`Transport::admit`] awaiting a per-pair
    /// predecessor. Nonzero at quiescence means a predecessor was lost.
    fn held_messages(&self) -> usize;

    /// Installs a fault plan. Implementations whose delivery substrate
    /// cannot compose with simulated fault injection (the real transport's
    /// wire already has its own loss/retransmit machinery) panic with a
    /// clear message rather than silently ignoring the plan.
    fn set_fault_plan(&mut self, plan: FaultPlan);

    /// Installs a heterogeneous link profile for arrival-time computation.
    fn set_profile(&mut self, profile: NetProfile);

    /// Sets the causal trace context — the id of the miss whose handling
    /// the engine is currently inside (0 = none) — stamped into every
    /// subsequently sent message. Backends that put messages on a real
    /// wire carry it in the frame (`docs/TRANSPORT.md` §6); the default
    /// no-op is fine for backends with nothing to stamp, since the
    /// simulated [`Network`] records it on the envelope either way.
    fn set_trace_context(&mut self, _ctx: u32) {}

    /// Attaches a metrics registry for wire/delivery telemetry (counters,
    /// gauges, histograms — see `docs/OBSERVABILITY.md`). Recording must be
    /// purely additive: simulated arrival times, message statistics, and
    /// delivery order are bit-identical with or without a registry
    /// attached, which CI enforces with byte-diffs. Default: no-op.
    fn set_metrics(&mut self, _registry: &shasta_obs::Registry) {}

    /// Releases any real resources (sockets) the backend holds. The engine calls this once after the run completes; the
    /// default is a no-op, which is right for the simulated network.
    fn shutdown(&mut self) {}

    // --- Conservative-PDES coordination interface -----------------------
    //
    // The sharded engine (see `docs/PERFORMANCE.md`, "Parallel
    // discrete-event execution") drives one transport per physical-node
    // shard through the methods below. They have inert defaults so that
    // ordinary backends ignore them; only the simulated [`Network`]
    // overrides them (see its inherent methods of the same names).

    /// The conservative lookahead this backend can justify, in cycles: a
    /// lower bound on the latency of every cross-physical-node message, or
    /// `None` when the backend cannot support sharded execution at all
    /// (the default — real wire backends have no simulated latency floor,
    /// so the engine stays serial on them).
    fn pdes_lookahead(&self) -> Option<u64> {
        None
    }

    /// Derives the transport of one physical-node shard from this one
    /// (same topology, costs, link profile and metrics handles, empty
    /// queues); `None` exactly when [`Transport::pdes_lookahead`] is.
    fn pdes_shard(&self) -> Option<Box<dyn Transport<M>>> {
        None
    }

    /// Tells a shard transport which window-local event the engine is
    /// about to execute, so subsequent sends are journaled under that
    /// index.
    fn pdes_begin_event(&mut self, _event_index: u32) {}

    /// Drains the shard transport's per-window send journal (and its
    /// cross-shard outbox, referenced by the `Remote` records).
    fn pdes_take_window(&mut self) -> Vec<(u32, crate::PdesSendRecord<M>)> {
        Vec::new()
    }

    /// Applies a window barrier to a shard transport: rewrites the
    /// provisional sequence numbers of locally queued messages to their
    /// final (serial-order) values per `remap` and enqueues the cross-shard
    /// `injections` (each an envelope plus its final sequence number). The
    /// provisional numbering itself carries on: it is never reset.
    fn pdes_apply(&mut self, _remap: &[(u64, u64)], _injections: Vec<(Envelope<M>, u64)>) {}
}

impl<M: Eq + Clone + Send + std::fmt::Debug + 'static> Transport<M> for Network<M> {
    fn send(
        &mut self,
        src: u32,
        dst: u32,
        msg: M,
        payload_bytes: u64,
        now: Time,
        class_override: Option<MsgClass>,
    ) -> Time {
        Network::send(self, src, dst, msg, payload_bytes, now, class_override)
    }

    fn send_to_vnode(&mut self, src: u32, dst: u32, msg: M, payload_bytes: u64, now: Time) -> Time {
        Network::send_to_vnode(self, src, dst, msg, payload_bytes, now)
    }

    fn peek_any_arrival(&self, p: u32, include_vnode: bool) -> Option<Time> {
        Network::peek_any_arrival(self, p, include_vnode)
    }

    fn pop_any_earliest(&mut self, p: u32, include_vnode: bool) -> Option<Envelope<M>> {
        Network::pop_any_earliest(self, p, include_vnode)
    }

    fn admit(&mut self, env: Envelope<M>, now: Time) -> Option<Envelope<M>> {
        Network::admit(self, env, now)
    }

    fn in_flight(&self) -> usize {
        Network::in_flight(self)
    }

    fn stats(&self) -> &MsgStats {
        Network::stats(self)
    }

    fn fault_active(&self) -> bool {
        Network::fault_active(self)
    }

    fn fault_counts(&self) -> FaultCounts {
        Network::fault_counts(self)
    }

    fn held_messages(&self) -> usize {
        Network::held_messages(self)
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        Network::set_fault_plan(self, plan)
    }

    fn set_profile(&mut self, profile: NetProfile) {
        Network::set_profile(self, profile)
    }

    fn set_trace_context(&mut self, ctx: u32) {
        Network::set_trace_context(self, ctx)
    }

    fn set_metrics(&mut self, registry: &shasta_obs::Registry) {
        Network::set_metrics(self, registry)
    }

    fn pdes_lookahead(&self) -> Option<u64> {
        Some(Network::lookahead(self))
    }

    fn pdes_shard(&self) -> Option<Box<dyn Transport<M>>> {
        Some(Box::new(Network::for_shard(self)))
    }

    fn pdes_begin_event(&mut self, event_index: u32) {
        Network::pdes_begin_event(self, event_index)
    }

    fn pdes_take_window(&mut self) -> Vec<(u32, crate::PdesSendRecord<M>)> {
        Network::pdes_take_window(self)
    }

    fn pdes_apply(&mut self, remap: &[(u64, u64)], injections: Vec<(Envelope<M>, u64)>) {
        Network::pdes_apply(self, remap, injections)
    }
}
