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
//! delivery is not. [`LoopbackTransport`] is therefore a *tap* on the
//! machine's one simulated network, not a second network:
//!
//! * the machine's `shasta_memchan::Network` remains
//!   the **schedule and timing authority** — it computes every arrival
//!   time, orders delivery, and accumulates the message statistics, so
//!   simulated cycles and counters are bit-identical to a pure-sim run by
//!   construction *if and only if the wire delivers faithfully*;
//! * the socket fabric is the **delivery substrate under test** — every
//!   remote message is also encoded into a versioned `DATA` frame
//!   ([`Transport::send`]), shipped through a real socket with per-(src
//!   node, dst node) sequence numbers, cumulative ACKs, and retransmission
//!   of a stream's oldest unacknowledged frame, and the engine **polls the
//!   wire for its copy** ([`Transport::recv`]) when the network delivers
//!   the simulated envelope, consuming the wire-decoded message in its
//!   place.
//!
//! The fabric has no thread of its own. As Shasta handles messages only at
//! poll points, every socket is non-blocking and is read by the engine
//! thread inside [`Transport::recv`]: one `read` of the socket
//! end the wanted message arrives on usually yields it together with its
//! neighbours and the peer's ACKs. Frames are written there too: a
//! sending end corks its `DATA` frames until their stream is next read,
//! then writes them with one `write`. Acknowledgements are coalesced (one
//! cumulative `ACK` per several deliveries). Loss is recovered in round
//! trips: an end that knows of a gap — it holds a later frame, or a
//! receive waits on it and its read comes back empty — repeats its last
//! `ACK`, and the sender resends the stream's head at once. A per-stream
//! timer derived from measured round trips stays as the safety net, for
//! the waits no receive makes (a sender at a full window). These rules are
//! `stream.rs`'s socket-free machine — see `docs/TRANSPORT.md` §3.3.
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

use shasta_cluster::{CostModel, Topology};
use shasta_core::protocol::ProtoMsg;
use shasta_obs::Registry;

mod loopback;
mod stream;
pub mod wire;

pub use loopback::{Backend, DropPlan, WireCounts, WireCountsProbe, WireEvent, WireEventsProbe};
// Re-exported so transport consumers can call trait methods (`set_metrics`,
// `send`, `recv`) on a [`LoopbackTransport`] without a direct
// `shasta-memchan` dependency.
pub use shasta_memchan::Transport;

use loopback::Fabric;

/// A [`Transport`] tap that ships every remote protocol message through
/// real loopback sockets, while the machine's one simulated network keeps
/// timing, ordering, and statistics deterministic. See the crate docs for
/// the design argument and `docs/TRANSPORT.md` for the wire format.
#[derive(Debug)]
pub struct LoopbackTransport {
    fabric: Fabric,
    /// The registry [`Transport::set_metrics`] attached, shared with the
    /// machine's network once the tap is installed.
    registry: Option<Registry>,
}

impl LoopbackTransport {
    /// Connects the socket fabric (one stream per physical node pair,
    /// `HELLO` version negotiation on each) and readies the transport.
    /// `drops` deterministically suppresses first transmissions to
    /// exercise the retransmit path; [`DropPlan::default`] never drops.
    /// The cost model is the machine's network's business, not the
    /// wire's; it is accepted so that a factory can pass what it is given.
    ///
    /// # Errors
    ///
    /// Any socket-level failure binding, connecting, or handshaking.
    pub fn connect(
        topo: Topology,
        _cost: CostModel,
        backend: Backend,
        drops: DropPlan,
    ) -> std::io::Result<LoopbackTransport> {
        let nodes = topo.phys_nodes() as usize;
        let node_of: Vec<u32> = (0..topo.procs()).map(|p| topo.phys_node_of(p).0).collect();
        let fabric = Fabric::connect(node_of, nodes, backend, drops)?;
        Ok(LoopbackTransport { fabric, registry: None })
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
    fn send(&mut self, src: u32, dst: u32, via_vnode: bool, msg: &ProtoMsg, trace: u32) {
        self.fabric.send_data(src, dst, via_vnode, msg, trace);
    }

    fn recv(&mut self, src: u32, dst: u32) -> ProtoMsg {
        self.fabric.recv(src, dst)
    }

    fn set_metrics(&mut self, registry: &Registry) {
        self.fabric.set_metrics(registry);
        self.registry = Some(registry.clone());
    }

    fn metrics(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    fn shutdown(&mut self) {
        self.fabric.shutdown();
    }
}
