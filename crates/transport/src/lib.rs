#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Real loopback transport for the Shasta reproduction: every remote
//! protocol message crosses an actual TCP or Unix-domain socket in the
//! versioned wire format specified by `docs/TRANSPORT.md`.
//!
//! # How determinism survives real sockets
//!
//! The paper's results depend on a deterministic simulator, and the
//! repository's differential discipline (see `docs/ARCHITECTURE.md`)
//! depends on runs being exactly replayable — which free-running socket
//! delivery is not. [`LoopbackTransport`] therefore splits the two roles:
//!
//! * the embedded simulated [`Network`] remains
//!   the **schedule and timing authority** — it computes every arrival
//!   time, orders delivery, and accumulates the message statistics, so
//!   simulated cycles and counters are bit-identical to a pure-sim run by
//!   construction *if and only if the wire delivers faithfully*;
//! * the socket fabric is the **delivery substrate under test** — every
//!   remote message is also encoded into a versioned `DATA` frame, shipped
//!   through a real socket with per-(src node, dst node) sequence numbers,
//!   cumulative ACKs, and retransmission of a stream's oldest
//!   unacknowledged frame, and the engine **polls
//!   the wire for its copy** when it pops the simulated envelope,
//!   consuming the wire-decoded message in its place.
//!
//! The fabric has no thread of its own. As Shasta handles messages only at
//! poll points, every socket is non-blocking and is read by the engine
//! thread inside [`Transport::pop_any_earliest`]: one `read` of the socket
//! end the wanted message arrives on usually yields it together with its
//! neighbours and the peer's ACKs. Acknowledgements are coalesced (one
//! cumulative `ACK` per several deliveries). Loss is recovered in round
//! trips: a repeated `ACK` resends the stream's head at once, and
//! otherwise a per-stream timer derived from measured round trips does,
//! read only when that read comes back empty — see `loopback.rs` and
//! `docs/TRANSPORT.md` §3.3.
//!
//! The substitution is what gives the differential harness teeth: a codec
//! bug, a framing bug, a resequencing bug, or a lost frame either panics
//! the transport or changes the protocol messages the engine actually
//! handles — and then the message/miss/downgrade counters diverge from the
//! sim oracle. Matching counters certify that the wire moved every remote
//! message faithfully, in order, exactly once.
//!
//! Intra-node messages (including all §3.4.3 downgrades, which are
//! intra-node by construction) never touch the wire, exactly as SMP-Shasta
//! keeps them inside the node's shared memory.
//!
//! # Example
//!
//! ```no_run
//! use shasta_cluster::{CostModel, Topology};
//! use shasta_transport::{Backend, DropPlan, LoopbackTransport};
//!
//! let topo = Topology::new(8, 4, 4).unwrap();
//! let t = LoopbackTransport::connect(
//!     topo,
//!     CostModel::alpha_4100(),
//!     Backend::Uds,
//!     DropPlan::default(),
//! )
//! .unwrap();
//! // machine.set_transport(Box::new(t));
//! # drop(t);
//! ```

use shasta_cluster::{CostModel, NetProfile, Topology};
use shasta_core::protocol::ProtoMsg;
use shasta_memchan::{Envelope, FaultCounts, FaultPlan, Network};
use shasta_sim::Time;
use shasta_stats::{MsgClass, MsgStats};

mod loopback;
pub mod wire;

pub use loopback::{Backend, DropPlan, WireCounts, WireCountsProbe, WireEvent, WireEventsProbe};
// Re-exported so transport consumers can call trait methods (`set_metrics`,
// `set_trace_context`) on a [`LoopbackTransport`] without a direct
// `shasta-memchan` dependency.
pub use shasta_memchan::Transport;

use loopback::Fabric;

/// A [`Transport`] that ships every remote protocol message through real
/// loopback sockets while the embedded simulated network keeps timing,
/// ordering, and statistics deterministic. See the crate docs for the
/// design argument and `docs/TRANSPORT.md` for the wire format.
#[derive(Debug)]
pub struct LoopbackTransport {
    inner: Network<ProtoMsg>,
    fabric: Fabric,
    topo: Topology,
    /// Current causal trace context (0 = none), stamped into every wire
    /// frame sent while it is set — the v2 SHWP extension.
    trace_ctx: u32,
}

impl LoopbackTransport {
    /// Connects the socket fabric (one stream per physical node pair,
    /// `HELLO` version negotiation on each) and readies the transport.
    /// `drops` deterministically suppresses first transmissions to
    /// exercise the retransmit path; [`DropPlan::default`] never drops.
    ///
    /// # Errors
    ///
    /// Any socket-level failure binding, connecting, or handshaking.
    pub fn connect(
        topo: Topology,
        cost: CostModel,
        backend: Backend,
        drops: DropPlan,
    ) -> std::io::Result<LoopbackTransport> {
        let nodes = topo.phys_nodes() as usize;
        let node_of: Vec<u32> = (0..topo.procs()).map(|p| topo.phys_node_of(p).0).collect();
        let fabric = Fabric::connect(node_of, nodes, backend, drops)?;
        Ok(LoopbackTransport {
            inner: Network::new(topo.clone(), cost),
            fabric,
            topo,
            trace_ctx: 0,
        })
    }

    /// Which socket flavor carries the frames.
    pub fn backend(&self) -> Backend {
        self.fabric.backend()
    }

    /// Snapshot of the wire layer's tally (frames, induced drops,
    /// retransmissions, duplicate suppressions, resequencings).
    pub fn wire_counts(&self) -> WireCounts {
        self.fabric.counts()
    }

    /// A cloneable counts handle that stays readable after this transport
    /// has been boxed into a machine — capture it in the factory closure of
    /// `run_app_with_transport` to assert on the wire tally post-run.
    pub fn counts_probe(&self) -> WireCountsProbe {
        self.fabric.counts_probe()
    }

    /// Turns on wire-event recording (`--trace` runs merge these into the
    /// Chrome trace next to the engine's simulated events) and returns the
    /// cloneable probe that drains the log after the run.
    pub fn enable_wire_events(&self) -> WireEventsProbe {
        self.fabric.enable_wire_events()
    }
}

impl Transport<ProtoMsg> for LoopbackTransport {
    fn send(
        &mut self,
        src: u32,
        dst: u32,
        msg: ProtoMsg,
        payload_bytes: u64,
        now: Time,
        class_override: Option<MsgClass>,
    ) -> Time {
        if !self.topo.same_phys_node(src, dst) {
            self.fabric.send_data(src, dst, false, &msg, self.trace_ctx);
        }
        self.inner.send(src, dst, msg, payload_bytes, now, class_override)
    }

    fn send_to_vnode(
        &mut self,
        src: u32,
        dst: u32,
        msg: ProtoMsg,
        payload_bytes: u64,
        now: Time,
    ) -> Time {
        if !self.topo.same_phys_node(src, dst) {
            self.fabric.send_data(src, dst, true, &msg, self.trace_ctx);
        }
        self.inner.send_to_vnode(src, dst, msg, payload_bytes, now)
    }

    fn peek_any_arrival(&self, p: u32, include_vnode: bool) -> Option<Time> {
        self.inner.peek_any_arrival(p, include_vnode)
    }

    fn pop_any_earliest(&mut self, p: u32, include_vnode: bool) -> Option<Envelope<ProtoMsg>> {
        let mut env = self.inner.pop_any_earliest(p, include_vnode)?;
        if !self.topo.same_phys_node(env.src, env.dst) {
            // Poll the wire until its copy arrives, then consume the
            // wire-decoded message in place of the simulated one. Per
            // (src, dst) processor pair both sides are FIFO in send order
            // — the sim via link serialization and sequence tie-breaks,
            // the wire via the per-node-pair resequencer — so the heads
            // must match; the debug assert catches divergence at the
            // earliest possible moment, and in release builds a divergence
            // flows into the protocol and fails the counter differential.
            let wire_msg = self.fabric.recv(env.src, env.dst);
            debug_assert_eq!(
                wire_msg, env.msg,
                "wire-decoded message diverged from the simulated envelope \
                 ({} -> {})",
                env.src, env.dst
            );
            env.msg = wire_msg;
        }
        Some(env)
    }

    fn admit(&mut self, env: Envelope<ProtoMsg>, now: Time) -> Option<Envelope<ProtoMsg>> {
        self.inner.admit(env, now)
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn stats(&self) -> &MsgStats {
        self.inner.stats()
    }

    fn fault_active(&self) -> bool {
        self.inner.fault_active()
    }

    fn fault_counts(&self) -> FaultCounts {
        self.inner.fault_counts()
    }

    fn held_messages(&self) -> usize {
        self.inner.held_messages()
    }

    fn set_fault_plan(&mut self, _plan: FaultPlan) {
        panic!(
            "simulated fault plans do not compose with the real wire: the loopback \
             transport has its own loss/retransmit machinery (DropPlan); install the \
             FaultPlan on the simulated Network backend instead"
        );
    }

    fn set_profile(&mut self, profile: NetProfile) {
        self.inner.set_profile(profile);
    }

    fn set_trace_context(&mut self, ctx: u32) {
        self.trace_ctx = ctx;
        self.inner.set_trace_context(ctx);
    }

    fn set_metrics(&mut self, registry: &shasta_obs::Registry) {
        self.fabric.set_metrics(registry);
        self.inner.set_metrics(registry);
    }

    fn shutdown(&mut self) {
        self.fabric.shutdown();
    }
}
