//! What a real wire does beside the simulated network: the [`Transport`]
//! tap.
//!
//! A machine owns one [`Network`](crate::Network), which computes every
//! arrival time, orders every inbox and counts every message, so simulated
//! cycles stay a pure function of the send history. A wire adds nothing to
//! that; it is a tap. Each remote message's frame goes on the wire when the
//! network queues the message ([`Transport::send`]), and when the network
//! delivers it the engine takes the wire's decoded copy in its place
//! ([`Transport::recv`]). A codec, framing or resequencing fault then
//! changes what the protocol handles, and the counters diverge from a
//! pure-simulation run.
//!
//! The contract a tap must honor, because the substitution leans on it:
//! per (source, destination) processor pair, `recv` returns messages in
//! `send` order, once each. The network delivers a pair's messages in send
//! order too, so the heads match. A wire that can lose or duplicate frames
//! (a retransmitting socket) repairs its streams itself (see
//! [`PairSequencer`](crate::PairSequencer)); a simulated fault plan cannot
//! be combined with a tap.

/// A real wire tapped onto a machine's network (see the module docs).
///
/// Implemented by the loopback transport in `shasta-transport`. The engine
/// owns the tap as a `Box<dyn Transport<ProtoMsg>>` and calls it from its
/// one thread, only for messages between different physical nodes:
/// intra-node messages stay in the node's shared memory.
pub trait Transport<M>: std::fmt::Debug {
    /// Puts the frame of `msg`, from processor `src` to processor `dst`, on
    /// the wire. `via_vnode` says the network routed it to the shared inbox
    /// of `dst`'s virtual node, and `trace` is the causal trace context (the
    /// originating miss id, 0 = none) the frame carries.
    fn send(&mut self, src: u32, dst: u32, via_vnode: bool, msg: &M, trace: u32);

    /// The wire's decoded copy of the next message from `src` to `dst`,
    /// polling the wire until it has arrived.
    fn recv(&mut self, src: u32, dst: u32) -> M;

    /// Attaches a metrics registry for wire telemetry (counters, gauges,
    /// histograms — see `docs/OBSERVABILITY.md`). Recording must be purely
    /// additive. Default: no-op.
    fn set_metrics(&mut self, _registry: &shasta_obs::Registry) {}

    /// The registry [`Transport::set_metrics`] attached, if any: a machine
    /// given this tap meters its network on the same registry.
    fn metrics(&self) -> Option<&shasta_obs::Registry> {
        None
    }

    /// Releases the real resources (sockets) the wire holds. The engine
    /// calls this once after the run completes. Default: no-op.
    fn shutdown(&mut self) {}
}
