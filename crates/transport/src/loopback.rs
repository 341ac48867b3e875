//! Real-socket delivery fabric: one loopback TCP or Unix-domain stream per
//! physical node pair, polled by the engine thread, with coalesced
//! cumulative ACKs and one retransmission timer per stream.
//!
//! Shasta handles messages only at poll points, on the processor that
//! wants them (§1 of the paper), and the fabric treats the wire the same
//! way. It spawns no thread: every socket end is non-blocking and owned by
//! [`Fabric`]. [`Fabric::send_data`] corks the frame on its end,
//! [`Fabric::recv`] drains the one end its message arrives on — writing
//! the frames corked for that stream with one `write` first, then reading
//! them with one `read` — an end acknowledges once per [`ACK_EVERY`]
//! deliveries rather than once per frame, and loss recovery runs from the
//! receive's slow path, entered only when the wanted frame is not already
//! on the wire.
//!
//! Loss is priced in round trips. A stream resends only its oldest
//! unacknowledged frame — whatever follows it is held at the receiver or
//! will be reported missing by the next cumulative ACK — and does so on one
//! of two signals: an ACK that acknowledges nothing, or the stream's timer.
//! A receiving end repeats its last ACK whenever it knows of a gap: when it
//! has to hold a frame, when a repair delivers frames but leaves later ones
//! still held behind a second gap, and once per receive that waits on it
//! and finds nothing (the tail loss no later frame can report). Each time
//! it settles owed deliveries first, so the repeat covers nothing and the
//! sender resends at once. The timer, whose timeout ([`Rto`]) follows the
//! round trips the stream has measured and counts only time somebody spent
//! polling the wire, is left for what no receiver waits on: a sender at a
//! full window, and a repeat that met a full socket.
//!
//! The fabric restores the ordered, exactly-once contract over a substrate
//! that (deliberately) breaks it: the sender can be told to drop every Nth
//! first transmission ([`DropPlan`]), forcing a retransmission to recover
//! the stream, and a frame resent while its ACK was still owed arrives
//! twice. Both repairs — duplicate suppression and resequencing of
//! early arrivals — run through the same
//! [`PairSequencer`](shasta_memchan::PairSequencer) state machine the
//! simulated network's fault-injection admit guard uses.

use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use shasta_core::protocol::ProtoMsg;
use shasta_memchan::{PairSequencer, SeqVerdict};
use shasta_obs::{Counter, Gauge, HistogramHandle, Registry};

use crate::wire::{
    encode_data, encode_frame, negotiate, DataFrame, DataRef, Frame, FrameReader, VERSION,
    VERSION_MIN,
};

/// How long a receive (or a send at a full window) polls the wire before
/// declaring the fabric wedged (a generous multiple of [`RTO_MAX`]).
const RECV_WATCHDOG: Duration = Duration::from_secs(10);

/// Most `DATA` frames one stream may have sent and not yet seen
/// acknowledged. A sender at the limit polls until the ACKs are in, which
/// bounds the send buffer however long the receiver goes without polling.
const SEND_WINDOW: usize = 256;

/// An end acknowledges at the latest once it owes this many deliveries.
const ACK_EVERY: u32 = 16;

/// Shortest retransmission timeout. A loopback round trip is tens of
/// microseconds, but the wait for a timer ends in a wake-up from sleep,
/// which a virtualised host delivers anything up to a few milliseconds late;
/// a floor well above that keeps the cost of a loss the timeout, not the
/// host's mood (RFC 6298 §2.4 wants the floor conservative for the same
/// reason: clock granularity).
const RTO_MIN: Duration = Duration::from_millis(4);

/// Longest retransmission timeout, and a stream's timeout before its first
/// round-trip sample.
const RTO_MAX: Duration = Duration::from_millis(15);

/// One stream's retransmission timeout, by RFC 6298: `SRTT + 4·RTTVAR`
/// over the round trips it is given, doubled per expiry until an ACK makes
/// progress, within [`RTO_MIN`]..=[`RTO_MAX`]. Pure arithmetic — its
/// [`End`] owns the clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Rto {
    /// `(SRTT, RTTVAR)`, `None` until the first sample.
    smoothed: Option<(Duration, Duration)>,
    /// Expiries since the stream's last ACK progress.
    backoff: u32,
}

impl Rto {
    /// Folds in one round-trip sample.
    fn sample(&mut self, r: Duration) {
        self.smoothed = Some(match self.smoothed {
            None => (r, r / 2),
            Some((srtt, rttvar)) => ((srtt * 7 + r) / 8, (rttvar * 3 + srtt.abs_diff(r)) / 4),
        });
    }

    /// The timer expired: back off.
    fn timeout(&mut self) {
        self.backoff += 1;
    }

    /// An ACK cleared frames: the backoff has served its purpose.
    fn progress(&mut self) {
        self.backoff = 0;
    }

    /// How long the stream's head may stay unacknowledged.
    fn current(&self) -> Duration {
        let base = self.smoothed.map_or(RTO_MAX, |(srtt, rttvar)| srtt + rttvar * 4);
        // Two doublings already span RTO_MIN..RTO_MAX; the cap on the shift
        // only keeps it from overflowing.
        (base.clamp(RTO_MIN, RTO_MAX) * (1 << self.backoff.min(4))).min(RTO_MAX)
    }
}

/// Which kind of loopback socket carries the frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// TCP over `127.0.0.1` (an ephemeral port per node pair).
    Tcp,
    /// Unix-domain stream sockets (a temporary filesystem path per node
    /// pair, unlinked once connected).
    Uds,
}

impl Backend {
    /// Short lowercase label for reports (`"tcp"` / `"uds"`).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Tcp => "tcp",
            Backend::Uds => "uds",
        }
    }
}

/// Deterministic sender-side frame dropping, to exercise the retransmit
/// path: every `drop_every`-th `DATA` frame (counted across all streams,
/// in the engine's deterministic send order) is not written on its first
/// transmission and must be recovered by a retransmission. `0` disables
/// dropping.
///
/// Dropping is invisible to the simulator — the sim envelope is already
/// queued — so a run under drops must converge to byte-identical counters,
/// which is exactly what the differential harness asserts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DropPlan {
    /// Drop the first transmission of every Nth `DATA` frame (0 = never).
    pub drop_every: u64,
}

/// Tally of everything the wire layer did, for bench reports and test
/// assertions. Retransmission counters are timing-dependent (a timer can
/// expire while the ACK is still owed); only `induced_drops` is
/// deterministic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WireCounts {
    /// `DATA` frames offered for transmission.
    pub data_frames: u64,
    /// First transmissions suppressed by the [`DropPlan`].
    pub induced_drops: u64,
    /// `DATA` frames sent again, on a timer or on a repeated ACK.
    pub retransmits: u64,
    /// `ACK` frames sent (each cumulative over every delivery before it).
    pub acks_sent: u64,
    /// Received frames discarded as duplicates (already-delivered stream
    /// positions).
    pub dups_dropped: u64,
    /// Received frames held because a stream predecessor was missing.
    pub holds: u64,
    /// Held frames released in order after their predecessor arrived.
    pub resequenced: u64,
}

/// The only state the fabric shares: what the two probes read after the
/// transport has been consumed by a run.
#[derive(Debug, Default)]
struct Probed {
    counts: WireCounts,
    /// Wire-event log for `--trace` runs; `None` unless enabled.
    events: Option<WireEventLog>,
}

impl Probed {
    /// Appends one wire event when event recording is enabled.
    fn event(&mut self, kind: &'static str, src: u32, dst: u32, seq: u64, trace: u32) {
        if let Some(log) = &mut self.events {
            let t_us = log.epoch.elapsed().as_micros() as u64;
            log.events.push(WireEvent { t_us, kind, src_node: src, dst_node: dst, seq, trace });
        }
    }
}

/// A cheap, cloneable handle onto a fabric's [`WireCounts`] that stays
/// valid after the transport itself has been boxed into a machine and
/// consumed by a run — how the differential harness asserts that induced
/// drops really exercised the retransmit path.
#[derive(Clone, Debug)]
pub struct WireCountsProbe(Rc<RefCell<Probed>>);

impl WireCountsProbe {
    /// Snapshot of the tally right now.
    pub fn get(&self) -> WireCounts {
        self.0.borrow().counts
    }
}

/// Either flavor of connected stream socket.
trait Sock: Read + Write + std::fmt::Debug {
    fn set_nonblocking(&self) -> std::io::Result<()>;
}

impl Sock for TcpStream {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        TcpStream::set_nonblocking(self, true)
    }
}

impl Sock for UnixStream {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        UnixStream::set_nonblocking(self, true)
    }
}

/// A `DATA` frame awaiting acknowledgement. `bytes` is the one stored copy
/// of the encoding: it is what the first transmission writes and what a
/// retransmission writes again, byte for byte.
#[derive(Debug)]
struct Unacked {
    /// Stream position (`pair_seq`); a stream's queue is in `seq` order.
    seq: u64,
    bytes: Vec<u8>,
    last_sent: Instant,
    /// When the batch holding the frame's first transmission was written
    /// (a suppressed frame: the batch it was dropped from), for Karn-rule
    /// RTT sampling: an ACK covering a frame that was ever retransmitted is
    /// ambiguous and contributes no RTT sample.
    first_sent: Instant,
    /// Whether the frame has ever been resent.
    retransmitted: bool,
    /// Whether the [`DropPlan`] suppressed the first transmission — the
    /// retransmit that recovers it is classified `first_tx_dropped`, not
    /// `ack_delayed`.
    dropped_first: bool,
    /// Trace context carried by the frame, for wire event logging.
    trace: u32,
}

/// One wire-level occurrence, timestamped on the fabric's own wall clock,
/// for merging into a Chrome trace next to the engine's simulated events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireEvent {
    /// Microseconds since wire-event recording was enabled.
    pub t_us: u64,
    /// `"wire-send"`, `"wire-recv"`, `"wire-ack"`, or `"wire-retransmit"`.
    pub kind: &'static str,
    /// Sending physical node of the underlying `DATA` stream.
    pub src_node: u32,
    /// Receiving physical node of the underlying `DATA` stream.
    pub dst_node: u32,
    /// Stream position (`pair_seq`; cumulative seq for `wire-ack`).
    pub seq: u64,
    /// Trace context of the frame (0 = none; always 0 for `wire-ack`).
    pub trace: u32,
}

/// Wire-event log plus the wall-clock origin its timestamps count from.
#[derive(Debug)]
struct WireEventLog {
    epoch: Instant,
    events: Vec<WireEvent>,
}

/// Cloneable handle that drains recorded [`WireEvent`]s after the
/// transport has been consumed by a run.
#[derive(Clone, Debug)]
pub struct WireEventsProbe(Rc<RefCell<Probed>>);

impl WireEventsProbe {
    /// Takes every event recorded so far (subsequent calls see only newer
    /// ones).
    pub fn take(&self) -> Vec<WireEvent> {
        match &mut self.0.borrow_mut().events {
            Some(log) => std::mem::take(&mut log.events),
            None => Vec::new(),
        }
    }
}

/// Registry handles for everything the wire layer measures: cheap no-ops
/// from a disabled registry (what the fabric starts with). Recording never
/// feeds back into delivery, so simulated timing is the same either way.
#[derive(Debug)]
struct WireMetrics {
    /// Per directed node-pair stream (`src * nodes + dst`): frame encode
    /// wall time, decode wall time, and unambiguous ACK round-trips, in
    /// nanoseconds. Self-pair slots hold disabled handles.
    encode_ns: Vec<HistogramHandle>,
    decode_ns: Vec<HistogramHandle>,
    /// Write → ACK *collected*: the sample includes the wait until the
    /// engine next polls the end the ACK arrives on.
    ack_rtt_ns: Vec<HistogramHandle>,
    /// The timeout a stream's retransmission timer had when it expired.
    rto_ns: Vec<HistogramHandle>,
    /// Retransmissions by trigger: an ACK that acknowledged nothing, or
    /// the stream's timer. Every retransmission is one or the other.
    retrans_fast: Counter,
    retrans_timeout: Counter,
    /// Retransmissions recovering a deliberately dropped first
    /// transmission (equals `induced_drops` once the run quiesces).
    retrans_first_tx_dropped: Counter,
    /// Retransmissions whose first transmission was written but whose ACK
    /// had not been collected in time (timing-dependent by nature).
    retrans_ack_delayed: Counter,
    /// Current depth of the send-side unacked buffer / receive-side hold
    /// queue (high-water mark kept by the gauge).
    queue_unacked: Gauge,
    queue_held: Gauge,
    /// Bytes written per frame kind (DATA includes retransmissions).
    bytes_hello: Counter,
    bytes_data: Counter,
    bytes_ack: Counter,
    bytes_bye: Counter,
    /// Delivery-guard outcomes, mirroring [`WireCounts`].
    dups_dropped: Counter,
    holds: Counter,
    resequenced: Counter,
    /// Socket `read`s, `write`s, and how many of either found the socket
    /// not ready; reads plus writes over `data_frames` is syscalls per frame.
    io_reads: Counter,
    io_writes: Counter,
    io_would_block: Counter,
    /// Whether the registry is enabled: only then are encode and decode
    /// timed, so an untraced run reads no clock per frame.
    timed: bool,
}

impl WireMetrics {
    fn new(registry: &Registry, nodes: usize) -> WireMetrics {
        let per_stream = |what: &str| -> Vec<HistogramHandle> {
            (0..nodes * nodes)
                .map(|stream| {
                    let (s, d) = (stream / nodes, stream % nodes);
                    if s == d {
                        HistogramHandle::default()
                    } else {
                        registry.histogram(&format!("wire.{what}.n{s}.n{d}"))
                    }
                })
                .collect()
        };
        WireMetrics {
            encode_ns: per_stream("encode_ns"),
            decode_ns: per_stream("decode_ns"),
            ack_rtt_ns: per_stream("ack_rtt_ns"),
            rto_ns: per_stream("rto_ns"),
            retrans_fast: registry.counter("wire.retransmits.fast"),
            retrans_timeout: registry.counter("wire.retransmits.timeout"),
            retrans_first_tx_dropped: registry.counter("wire.retransmits.first_tx_dropped"),
            retrans_ack_delayed: registry.counter("wire.retransmits.ack_delayed"),
            queue_unacked: registry.gauge("wire.queue.unacked"),
            queue_held: registry.gauge("wire.queue.held"),
            bytes_hello: registry.counter("wire.bytes.hello"),
            bytes_data: registry.counter("wire.bytes.data"),
            bytes_ack: registry.counter("wire.bytes.ack"),
            bytes_bye: registry.counter("wire.bytes.bye"),
            dups_dropped: registry.counter("wire.dups_dropped"),
            holds: registry.counter("wire.holds"),
            resequenced: registry.counter("wire.resequenced"),
            io_reads: registry.counter("wire.io.reads"),
            io_writes: registry.counter("wire.io.writes"),
            io_would_block: registry.counter("wire.io.would_block"),
            timed: registry.is_enabled(),
        }
    }
}

/// Node `own`'s end of its connection with node `peer`. `DATA` of stream
/// `own -> peer` and ACKs for stream `peer -> own` are written on it;
/// `DATA` of `peer -> own` and ACKs for `own -> peer` are read from it.
#[derive(Debug)]
struct End {
    sock: Box<dyn Sock>,
    reader: FrameReader,
    own: u32,
    peer: u32,
    /// Sent-but-unacknowledged frames of stream `own -> peer`, oldest
    /// first; never longer than [`SEND_WINDOW`].
    unacked: VecDeque<Unacked>,
    /// Encoded `DATA` frames of stream `own -> peer` not yet written: the
    /// next drain of the peer end writes them all at once.
    corked: Vec<u8>,
    /// How many of the newest `unacked` frames are corked, those the
    /// [`DropPlan`] kept out of `corked` included.
    corked_frames: usize,
    /// Retransmission timeout of stream `own -> peer`.
    rto: Rto,
    /// When an ACK last cleared frames out of `unacked` (before the first,
    /// when the end was connected): the stream's timer restarts here.
    progressed: Instant,
    /// Deliveries on stream `peer -> own` since this end last wrote an ACK.
    ack_debt: u32,
    /// An ACK goes out at the end of the next drain whatever the debt: a
    /// duplicate arrived (its sender has not seen our ACK), the end knows
    /// of a gap (see [`Fabric::repeat_ack`]), or an ACK that was due met a
    /// full socket.
    ack_owed: bool,
    /// `BYE` or end-of-file seen: nothing further will be read.
    closed: bool,
}

/// The socket fabric: one connected stream per unordered physical node
/// pair, both of its ends, and the delivery state. Owned by
/// [`LoopbackTransport`](crate::LoopbackTransport), whose thread calls
/// [`Fabric::send_data`] and [`Fabric::recv`]; everything else happens
/// inside those two calls.
#[derive(Debug)]
pub(crate) struct Fabric {
    probed: Rc<RefCell<Probed>>,
    /// Every socket end, sorted by `(own, peer)` (see [`Fabric::end_ix`]).
    ends: Vec<End>,
    /// Decoded, in-order messages awaiting pickup, one queue per
    /// `(src processor, dst processor)` — the granularity the engine pops
    /// simulated envelopes at — at `src * procs + dst` (see
    /// [`Fabric::inbox_ix`]).
    inboxes: Vec<VecDeque<ProtoMsg>>,
    /// Receiver-side exactly-once in-order guard, one stream per directed
    /// node pair (`src_node * nodes + dst_node`).
    seqr: PairSequencer,
    /// Early frames parked until their stream predecessors arrive.
    held: BTreeMap<(usize, u64), DataFrame>,
    /// Sender-side stream positions.
    send_seqr: PairSequencer,
    /// Running total of every end's `unacked` length (`wire.queue.unacked`).
    unacked_depth: u64,
    metrics: WireMetrics,
    /// Per-processor physical node, indexed by processor id.
    node_of: Vec<u32>,
    nodes: usize,
    backend: Backend,
    drops: DropPlan,
    version: u8,
    /// `HELLO` bytes written during connection setup, credited to the
    /// registry when [`Fabric::set_metrics`] attaches one afterwards.
    hello_bytes: u64,
}

/// Monotonic disambiguator for Unix-socket paths within one process.
static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

fn connect_pair(backend: Backend) -> std::io::Result<[Box<dyn Sock>; 2]> {
    match backend {
        Backend::Tcp => {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let addr = listener.local_addr()?;
            let a = TcpStream::connect(addr)?;
            let (b, _) = listener.accept()?;
            a.set_nodelay(true)?;
            b.set_nodelay(true)?;
            Ok([Box::new(a), Box::new(b)])
        }
        Backend::Uds => {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos())
                .unwrap_or(0);
            let path = std::env::temp_dir().join(format!(
                "shasta-wire-{}-{}-{}.sock",
                std::process::id(),
                UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
                nanos
            ));
            let listener = UnixListener::bind(&path)?;
            let a = UnixStream::connect(&path)?;
            let (b, _) = listener.accept()?;
            // The rendezvous name has served its purpose.
            let _ = std::fs::remove_file(&path);
            Ok([Box::new(a), Box::new(b)])
        }
    }
}

/// Reads exactly one frame from a freshly connected, still blocking socket
/// (the synchronous `HELLO` exchange). Returns the frame and the
/// reassembler holding any over-read bytes.
fn read_one_frame(sock: &mut dyn Sock) -> Result<(Frame, FrameReader), String> {
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = reader.next_frame().map_err(|e| e.to_string())? {
            return Ok((frame, reader));
        }
        let n = sock.read(&mut buf).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("connection closed during handshake".into());
        }
        reader.extend(&buf[..n]);
    }
}

impl Fabric {
    /// Connects every node pair over `backend`, performs the `HELLO`
    /// version negotiation on each connection, and switches every end to
    /// non-blocking. `node_of[p]` is processor `p`'s physical node.
    pub(crate) fn connect(
        node_of: Vec<u32>,
        nodes: usize,
        backend: Backend,
        drops: DropPlan,
    ) -> std::io::Result<Fabric> {
        let mut ends = Vec::new();
        let mut version = VERSION;
        let mut hello_bytes = 0u64;

        for a in 0..nodes as u32 {
            for b in (a + 1)..nodes as u32 {
                let [mut end_a, mut end_b] = connect_pair(backend)?;
                // Both ends are in-process: write both HELLOs, then read
                // both, so the exchange cannot deadlock.
                for (end, node) in [(&mut end_a, a), (&mut end_b, b)] {
                    let hello = encode_frame(&Frame::Hello {
                        ver_min: VERSION_MIN,
                        ver_max: VERSION,
                        node,
                    })
                    .expect("HELLO frames are tiny");
                    hello_bytes += hello.len() as u64;
                    end.write_all(&hello)?;
                }
                let io_err = |e: String| std::io::Error::other(e);
                let (hello_b, leftover_a) = read_one_frame(&mut *end_a).map_err(io_err)?;
                let (hello_a, leftover_b) = read_one_frame(&mut *end_b).map_err(io_err)?;
                for (hello, expect_node) in [(hello_b, b), (hello_a, a)] {
                    let Frame::Hello { ver_min, ver_max, node } = hello else {
                        return Err(io_err(format!("expected HELLO, got {hello:?}")));
                    };
                    assert_eq!(node, expect_node, "HELLO carried the wrong node id");
                    version = negotiate((VERSION_MIN, VERSION), (ver_min, ver_max))
                        .map_err(|e| io_err(e.to_string()))?;
                }
                for (sock, reader, own, peer) in
                    [(end_a, leftover_a, a, b), (end_b, leftover_b, b, a)]
                {
                    sock.set_nonblocking()?;
                    ends.push(End {
                        sock,
                        reader,
                        own,
                        peer,
                        unacked: VecDeque::new(),
                        corked: Vec::new(),
                        corked_frames: 0,
                        rto: Rto::default(),
                        progressed: Instant::now(),
                        ack_debt: 0,
                        ack_owed: false,
                        closed: false,
                    });
                }
            }
        }
        ends.sort_by_key(|e| (e.own, e.peer));
        let procs = node_of.len();

        Ok(Fabric {
            probed: Rc::default(),
            ends,
            inboxes: std::iter::repeat_with(VecDeque::new).take(procs * procs).collect(),
            seqr: PairSequencer::new(nodes * nodes),
            held: BTreeMap::new(),
            send_seqr: PairSequencer::new(nodes * nodes),
            unacked_depth: 0,
            metrics: WireMetrics::new(&Registry::disabled(), nodes),
            node_of,
            nodes,
            backend,
            drops,
            version,
            hello_bytes,
        })
    }

    /// Attaches a metrics registry: registers the wire-layer counters,
    /// gauges, and per-stream histograms, replacing the disabled handles
    /// the fabric was connected with. Recording is purely additive — no
    /// delivery decision ever reads a metric.
    pub(crate) fn set_metrics(&mut self, registry: &Registry) {
        self.metrics = WireMetrics::new(registry, self.nodes);
        // The handshake predates this call; credit its bytes now.
        self.metrics.bytes_hello.add(self.hello_bytes);
    }

    /// Turns on wire-event recording (for `--trace` runs) and returns the
    /// probe that drains the log.
    pub(crate) fn enable_wire_events(&self) -> WireEventsProbe {
        self.probed()
            .events
            .get_or_insert_with(|| WireEventLog { epoch: Instant::now(), events: Vec::new() });
        WireEventsProbe(Rc::clone(&self.probed))
    }

    /// Which socket flavor this fabric runs over.
    pub(crate) fn backend(&self) -> Backend {
        self.backend
    }

    /// Snapshot of the wire tally.
    pub(crate) fn counts(&self) -> WireCounts {
        self.probed().counts
    }

    /// A counts handle that outlives this fabric's owner.
    pub(crate) fn counts_probe(&self) -> WireCountsProbe {
        WireCountsProbe(Rc::clone(&self.probed))
    }

    /// The probes' state, borrowed for one update.
    fn probed(&self) -> RefMut<'_, Probed> {
        self.probed.borrow_mut()
    }

    /// Index into `ends` of node `own`'s end of its connection with `peer`.
    fn end_ix(&self, own: u32, peer: u32) -> usize {
        own as usize * (self.nodes - 1) + peer as usize - usize::from(peer > own)
    }

    /// Index into `inboxes` of the `src -> dst` processor queue.
    fn inbox_ix(&self, src: u32, dst: u32) -> usize {
        src as usize * self.node_of.len() + dst as usize
    }

    /// Encodes one protocol message from processor `src` to processor
    /// `dst` (which must be on different nodes), stamping the next position
    /// on their node-pair stream, corks it on the stream's end and
    /// remembers it until it is acknowledged. The frame reaches the socket
    /// when the receiving end is next drained ([`Fabric::uncork`]). Honors
    /// the [`DropPlan`] by keeping selected frames out of the batch, so
    /// their first transmission never happens. Never touches the socket
    /// otherwise: a stream at its [`SEND_WINDOW`] polls the fabric until
    /// the window reopens.
    pub(crate) fn send_data(
        &mut self,
        src: u32,
        dst: u32,
        via_vnode: bool,
        msg: &ProtoMsg,
        trace: u32,
    ) {
        let (sn, dn) = (self.node_of[src as usize], self.node_of[dst as usize]);
        debug_assert_ne!(sn, dn, "intra-node messages never touch the wire");
        let stream = sn as usize * self.nodes + dn as usize;
        let e = self.end_ix(sn, dn);
        let mut waiting_since = None;
        while self.ends[e].unacked.len() >= SEND_WINDOW {
            self.poll_slow(&mut waiting_since, format_args!("room in the {sn}->{dn} send window"));
        }
        let pair_seq = self.send_seqr.stamp(stream);
        let encode_start = self.metrics.timed.then(Instant::now);
        let bytes = encode_data(&DataRef {
            version: self.version,
            src,
            dst,
            pair_seq,
            via_vnode,
            trace,
            msg,
        })
        .expect("protocol messages fit in a frame");
        if let Some(start) = encode_start {
            self.metrics.encode_ns[stream].record(start.elapsed().as_nanos() as u64);
        }

        let dropped_first = {
            let mut pr = self.probed();
            pr.counts.data_frames += 1;
            let drop_this = self.drops.drop_every > 0
                && pr.counts.data_frames.is_multiple_of(self.drops.drop_every);
            pr.counts.induced_drops += u64::from(drop_this);
            pr.event("wire-send", sn, dn, pair_seq, trace);
            drop_this
        };
        let end = &mut self.ends[e];
        if !dropped_first {
            self.metrics.bytes_data.add(bytes.len() as u64);
            end.corked.extend_from_slice(&bytes);
        }
        end.corked_frames += 1;
        // A placeholder: `uncork` stamps the frame when its batch is written.
        let unwritten = end.progressed;
        end.unacked.push_back(Unacked {
            seq: pair_seq,
            bytes,
            last_sent: unwritten,
            first_sent: unwritten,
            retransmitted: false,
            dropped_first,
            trace,
        });
        self.unacked_depth += 1;
        self.metrics.queue_unacked.set(self.unacked_depth);
    }

    /// Returns the next message on the `(src processor, dst processor)`
    /// queue, polling the wire for it: first the one socket end it arrives
    /// on, then — only if it is not there — the slow path.
    ///
    /// # Panics
    ///
    /// Panics if the connection closed or the stream is corrupt, or if
    /// nothing arrives within the watchdog interval (a lost frame whose
    /// retransmissions also vanish — impossible over healthy loopback).
    pub(crate) fn recv(&mut self, src: u32, dst: u32) -> ProtoMsg {
        let (sn, dn) = (self.node_of[src as usize], self.node_of[dst as usize]);
        let e = self.end_ix(dn, sn);
        let mut waiting_since = None;
        loop {
            let inbox = self.inbox_ix(src, dst);
            if let Some(msg) = self.inboxes[inbox].pop_front() {
                return msg;
            }
            if self.drain(e, false) == 0 {
                assert!(!self.ends[e].closed, "wire fabric failed: {sn}->{dn} closed early");
                self.await_turn(e, &mut waiting_since, format_args!("{src}->{dst} message"));
            }
        }
    }

    /// One turn of a receive's wait on end `e`, whose socket yielded
    /// nothing. The awaited frame was corked and written before this
    /// drain, so it was lost (or, over TCP, is not readable yet) or sits
    /// held behind a lost one, and its sender's head is the frame the end
    /// misses. The first turn says so: it repeats the end's last ACK, which
    /// the forced drains of [`Fabric::poll_slow`] carry to the sender and
    /// its fast retransmit answers within the same turn. Later turns of
    /// the wait write nothing, so a wait for a frame that never comes
    /// sleeps on the timers and reaches the watchdog.
    fn await_turn(
        &mut self,
        e: usize,
        waiting_since: &mut Option<Instant>,
        what: std::fmt::Arguments<'_>,
    ) {
        if waiting_since.is_none() {
            self.repeat_ack(e);
        }
        self.poll_slow(waiting_since, what);
    }

    /// One turn of the slow path: what the caller waits for was not on the
    /// wire, so a frame was lost (or, over TCP, is not readable yet).
    /// `waiting_since` is the caller's, `None` until its first turn.
    ///
    /// Delayed ACKs leave delivered frames in `unacked`, so before any
    /// timer is read every end is drained twice with its ACK forced: the
    /// first pass delivers and acknowledges whatever sits on the wire, the
    /// second collects those ACKs (and fast-retransmits on one that
    /// acknowledges nothing). Then each stream whose head has gone its
    /// [`Rto`] unacknowledged resends it and backs off. The timeout runs
    /// from the latest of the head's last transmission, the stream's last
    /// ACK progress and the start of this wait: while nobody polled, an ACK
    /// could not have been collected, so that time is no evidence of loss.
    /// A turn that moved nothing sleeps until the next timer expires, in one
    /// piece. Every wake-up costs its own lateness (0.1–1 ms on a virtualised
    /// host, more in bursts), and one taken before any timer is due finds
    /// nothing to do. A receive's wait has already had its frame resent on
    /// the ACK its first turn repeated ([`Fabric::await_turn`]), so a timer
    /// serves the waits that repeat nothing — a sender at a full window —
    /// and a repeat that met a full socket and merged with the ACK it
    /// settled.
    fn poll_slow(&mut self, waiting_since: &mut Option<Instant>, what: std::fmt::Arguments<'_>) {
        let mut moved = 0;
        for _pass in 0..2 {
            for e in 0..self.ends.len() {
                moved += self.drain(e, true);
            }
        }
        let now = Instant::now();
        let since = *waiting_since.get_or_insert(now);
        let mut wake = since + RECV_WATCHDOG;
        for e in 0..self.ends.len() {
            let end = &mut self.ends[e];
            let Some(head) = end.unacked.front() else { continue };
            let rto = end.rto.current();
            let due = head.last_sent.max(end.progressed).max(since) + rto;
            if due > now {
                wake = wake.min(due);
                continue;
            }
            end.rto.timeout();
            self.metrics.rto_ns[end.own as usize * self.nodes + end.peer as usize]
                .record(rto.as_nanos() as u64);
            self.metrics.retrans_timeout.inc();
            self.resend_head(e, now);
            moved += 1;
        }
        if moved == 0 {
            if now >= since + RECV_WATCHDOG {
                panic!(
                    "wire watchdog: no {what} within {RECV_WATCHDOG:?} (counts: {:?})",
                    self.counts()
                );
            }
            std::thread::sleep(wake - now);
        }
    }

    /// Writes the oldest unacknowledged frame of the stream end `e` sends
    /// once more, byte for byte, after whatever the end still has corked.
    /// Only ever the head: what follows it is held at the receiver, or the
    /// next cumulative ACK will say otherwise.
    fn resend_head(&mut self, e: usize, now: Instant) {
        self.uncork(e);
        let end = &mut self.ends[e];
        let (own, peer) = (end.own, end.peer);
        let head = end.unacked.front_mut().expect("a stream that resends has a head");
        head.last_sent = now;
        // A resend that recovers a deliberately dropped first transmission
        // vs. one whose ACK is merely late.
        let recovers_drop = head.dropped_first && !head.retransmitted;
        head.retransmitted = true;
        let (seq, trace) = (head.seq, head.trace);
        let bytes = std::mem::take(&mut head.bytes);
        let cause = if recovers_drop {
            &self.metrics.retrans_first_tx_dropped
        } else {
            &self.metrics.retrans_ack_delayed
        };
        cause.inc();
        self.metrics.bytes_data.add(bytes.len() as u64);
        {
            let mut pr = self.probed();
            pr.counts.retransmits += 1;
            pr.event("wire-retransmit", own, peer, seq, trace);
        }
        self.write_frame(e, &bytes, true);
        self.ends[e].unacked[0].bytes = bytes;
    }

    /// Polls end `e`: writes the `DATA` frames the peer end has corked for
    /// it, reads what its socket holds, runs every complete frame through
    /// its handler — `DATA` through the delivery guard, `ACK` against the
    /// send buffer — and then settles the end's ACK debt with one
    /// cumulative `ACK` if `force_ack` asks, a duplicate arrived, the end
    /// learned of a gap, or [`ACK_EVERY`] deliveries are owed. After a gap
    /// that `ACK` repeats the one written to settle earlier deliveries
    /// (see [`Fabric::repeat_ack`]). Returns the frames handled.
    fn drain(&mut self, e: usize, force_ack: bool) -> usize {
        let (own, peer) = (self.ends[e].own, self.ends[e].peer);
        self.uncork(self.end_ix(peer, own));
        self.fill(e);
        let mut handled = 0;
        loop {
            let decode_start = self.metrics.timed.then(Instant::now);
            let frame = match self.ends[e].reader.next_frame() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(err) => panic!("wire fabric failed: node {own} reading from {peer}: {err}"),
            };
            let decode_ns = decode_start.map(|start| start.elapsed().as_nanos() as u64);
            handled += 1;
            match frame {
                Frame::Data(data) => {
                    if let Some(ns) = decode_ns {
                        // Frames on this socket end flow peer -> own.
                        self.metrics.decode_ns[peer as usize * self.nodes + own as usize]
                            .record(ns);
                    }
                    self.accept_data(data, e);
                }
                Frame::Ack { cum_seq, .. } => self.collect_ack(e, cum_seq),
                Frame::Bye => self.ends[e].closed = true,
                Frame::Hello { .. } => {
                    panic!("wire fabric failed: node {own}: HELLO from {peer} after handshake")
                }
            }
        }
        let end = &self.ends[e];
        if end.ack_owed || end.ack_debt >= ACK_EVERY || (force_ack && end.ack_debt > 0) {
            self.write_ack(e);
        }
        handled
    }

    /// Writes end `e`'s corked `DATA` frames with one [`write_frame`] and
    /// stamps them, suppressed ones included, as sent now: a stream's
    /// timer and its round trips run from the write, not from the send.
    ///
    /// [`write_frame`]: Fabric::write_frame
    fn uncork(&mut self, e: usize) {
        let n = self.ends[e].corked_frames;
        if n == 0 {
            return;
        }
        let mut batch = std::mem::take(&mut self.ends[e].corked);
        if !batch.is_empty() {
            self.write_frame(e, &batch, true);
        }
        batch.clear();
        let now = Instant::now();
        let end = &mut self.ends[e];
        // Unwritten frames cannot have been acknowledged: they are still
        // the newest `n`.
        let from = end.unacked.len() - n;
        for u in end.unacked.range_mut(from..) {
            u.first_sent = now;
            u.last_sent = now;
        }
        end.corked = batch;
        end.corked_frames = 0;
    }

    /// Moves every byte end `e`'s socket holds into its reassembler,
    /// handling nothing — which is what lets [`Fabric::write_frame`] call
    /// it from anywhere. A short read means the socket is empty; end of
    /// file (the peer end was shut down) closes the end like a `BYE`.
    fn fill(&mut self, e: usize) {
        let mut buf = [0u8; 4096];
        let end = &mut self.ends[e];
        while !end.closed {
            self.metrics.io_reads.inc();
            match end.sock.read(&mut buf) {
                Ok(0) => end.closed = true,
                Ok(n) => {
                    end.reader.extend(&buf[..n]);
                    if n < buf.len() {
                        break;
                    }
                }
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    self.metrics.io_would_block.inc();
                    break;
                }
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => panic!("wire fabric failed: read {}<-{}: {err}", end.own, end.peer),
            }
        }
    }

    /// Writes encoded frames on end `e`, never leaving part of one
    /// behind. A socket that would block is full of bytes the peer end has
    /// not read, and the thread that would read them is this one: the peer
    /// end is [`fill`](Fabric::fill)ed and the write retried. With `must`
    /// unset, a frame blocked before its first byte is given up (`false`).
    fn write_frame(&mut self, e: usize, bytes: &[u8], must: bool) -> bool {
        let peer_end = self.end_ix(self.ends[e].peer, self.ends[e].own);
        let mut off = 0;
        while off < bytes.len() {
            self.metrics.io_writes.inc();
            match self.ends[e].sock.write(&bytes[off..]) {
                Ok(n) => off += n,
                Err(err) if err.kind() == ErrorKind::WouldBlock => {
                    self.metrics.io_would_block.inc();
                    if off == 0 && !must {
                        return false;
                    }
                    self.fill(peer_end);
                }
                Err(err) if err.kind() == ErrorKind::Interrupted => {}
                Err(err) => {
                    let end = &self.ends[e];
                    panic!("wire fabric failed: write {}->{}: {err}", end.own, end.peer)
                }
            }
        }
        true
    }

    /// Acknowledges everything delivered so far on the stream end `e`
    /// reads. Never written in part: an ACK that would block at its first
    /// byte stays owed and goes out with the end's next drain.
    fn write_ack(&mut self, e: usize) {
        let (own, peer) = (self.ends[e].own, self.ends[e].peer);
        let cum_seq = self.seqr.delivered(peer as usize * self.nodes + own as usize);
        let ack =
            encode_frame(&Frame::Ack { version: self.version, cum_seq }).expect("ACK is tiny");
        let written = self.write_frame(e, &ack, false);
        let end = &mut self.ends[e];
        end.ack_owed = !written;
        if written {
            end.ack_debt = 0;
            self.metrics.bytes_ack.add(ack.len() as u64);
            let mut pr = self.probed();
            pr.counts.acks_sent += 1;
            pr.event("wire-ack", peer, own, cum_seq, 0);
        }
    }

    /// Clears the frames an `ACK` read from end `e` covers out of its send
    /// buffer, sampling their round trips. An `ACK` that covers none is the
    /// receiver saying it misses the head — it holds a later frame, waits
    /// for one, or saw an old one twice: a head that was never resent is
    /// resent now, a round trip after its loss and ahead of its timer.
    fn collect_ack(&mut self, e: usize, cum_seq: u64) {
        let now = Instant::now();
        let end = &mut self.ends[e];
        let acked = end.unacked.partition_point(|u| u.seq <= cum_seq);
        if acked == 0 {
            if end.unacked.front().is_some_and(|head| !head.retransmitted) {
                self.metrics.retrans_fast.inc();
                self.resend_head(e, now);
            }
            return;
        }
        // Karn's rule: only first transmissions that were never resent give
        // an unambiguous round trip. The timer takes one sample per ACK,
        // from the newest frame it covers — the older ones mostly measure
        // how long the receiver sat on its ACK; the histogram keeps all —
        // and none from an ACK that covers a resent frame, which only the
        // oldest can be: the frames behind it were held for the repair, so
        // their "round trip" is the timeout that just expired, and fed back
        // it would lengthen the next.
        if !end.unacked[0].retransmitted {
            end.rto.sample(now.duration_since(end.unacked[acked - 1].first_sent));
        }
        end.rto.progress();
        end.progressed = now;
        let rtt = &self.metrics.ack_rtt_ns[end.own as usize * self.nodes + end.peer as usize];
        for u in end.unacked.drain(..acked).filter(|u| !u.retransmitted) {
            rtt.record(now.duration_since(u.first_sent).as_nanos() as u64);
        }
        self.unacked_depth -= acked as u64;
        self.metrics.queue_unacked.set(self.unacked_depth);
    }

    /// Runs the receiver state machine on one decoded `DATA` frame read
    /// from end `e`: suppress duplicates and hold early arrivals (either
    /// way owing their sender an ACK), deliver in-order frames plus any
    /// held successors they unblock. A new hold, and a repair that stops
    /// with frames of the stream still held (a second gap behind the
    /// first), each repeat the last `ACK` ([`Fabric::repeat_ack`]), so the
    /// sender resends the missing frame at once rather than on its timer.
    ///
    /// # Panics
    ///
    /// Panics if the frame does not belong on this end: it names a
    /// processor the machine does not have, or a node pair other than the
    /// one this connection carries (whose stream it would mis-sequence).
    fn accept_data(&mut self, frame: DataFrame, e: usize) {
        // Frames on this socket end flow peer -> own.
        let (dn, sn) = (self.ends[e].own, self.ends[e].peer);
        let node = |p: u32| self.node_of.get(p as usize).copied();
        assert!(
            (node(frame.src), node(frame.dst)) == (Some(sn), Some(dn)),
            "wire fabric failed: DATA src {} dst {} pair_seq {} does not belong on node {dn}'s \
             end of its connection with node {sn}",
            frame.src,
            frame.dst,
            frame.pair_seq
        );
        let stream = sn as usize * self.nodes + dn as usize;
        match self.seqr.admit(stream, frame.pair_seq) {
            SeqVerdict::Duplicate => self.duplicate(e),
            SeqVerdict::Hold => {
                // A retransmission of an already-held frame is a duplicate
                // in waiting, not a second hold.
                if self.held.insert((stream, frame.pair_seq), frame).is_some() {
                    self.duplicate(e);
                } else {
                    self.probed().counts.holds += 1;
                    self.metrics.holds.inc();
                    self.repeat_ack(e);
                }
            }
            SeqVerdict::Deliver => {
                self.deliver(frame, e, sn, dn);
                while let Some(next) = self.held.remove(&(stream, self.seqr.expected(stream))) {
                    let v = self.seqr.admit(stream, next.pair_seq);
                    debug_assert_eq!(v, SeqVerdict::Deliver);
                    self.probed().counts.resequenced += 1;
                    self.metrics.resequenced.inc();
                    self.deliver(next, e, sn, dn);
                }
                if self.held.range((stream, 0)..(stream + 1, 0)).next().is_some() {
                    self.repeat_ack(e);
                }
            }
        }
        self.metrics.queue_held.set(self.held.len() as u64);
    }

    /// End `e` knows its sender's head is missing: the `ACK` it owes must
    /// cover nothing new, which is how the sender learns that. So settle
    /// whatever is owed now, and have the end's next drain repeat it.
    fn repeat_ack(&mut self, e: usize) {
        if self.ends[e].ack_debt > 0 {
            self.write_ack(e);
        }
        self.ends[e].ack_owed = true;
    }

    /// A frame the guard has seen before: its sender resent it for want of
    /// an ACK, so answer with the current cumulative one.
    fn duplicate(&mut self, e: usize) {
        self.probed().counts.dups_dropped += 1;
        self.metrics.dups_dropped.inc();
        self.ends[e].ack_owed = true;
    }

    fn deliver(&mut self, frame: DataFrame, e: usize, sn: u32, dn: u32) {
        self.probed().event("wire-recv", sn, dn, frame.pair_seq, frame.trace);
        self.ends[e].ack_debt += 1;
        let inbox = self.inbox_ix(frame.src, frame.dst);
        self.inboxes[inbox].push_back(frame.msg);
    }

    /// Tears the fabric down: writes what each end still has corked and
    /// says `BYE` after it (best effort), then closes every socket by
    /// dropping it. Idempotent — the ends are gone.
    pub(crate) fn shutdown(&mut self) {
        let bye = encode_frame(&Frame::Bye).expect("BYE is tiny");
        self.metrics.bytes_bye.add(bye.len() as u64 * self.ends.len() as u64);
        for end in &mut self.ends {
            if end.sock.write_all(&end.corked).is_ok() {
                let _ = end.sock.write(&bye);
            }
        }
        self.ends.clear();
    }
}

impl Drop for Fabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests;
