//! Real-socket delivery fabric: one loopback TCP or Unix-domain stream per
//! physical node pair, polled by the engine thread. Shasta handles messages
//! only at poll points (§1 of the paper), and so does the fabric: it spawns
//! no thread, and every socket end is non-blocking. [`Fabric::send_data`]
//! corks a frame; [`Fabric::recv`] drains the one end its message arrives
//! on — one `write` of what is corked for it, one `read` — and takes the
//! slow path only when the frame is not there. What is resent, held and
//! acknowledged is each direction's [`stream`](crate::stream) machine's
//! call; the fabric does the I/O, keeps the clock and counts.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use shasta_core::protocol::ProtoMsg;
use shasta_obs::{Counter, Gauge, HistogramHandle, Registry};

use crate::stream::{Admitted, Receiver, Sender, Tick};
use crate::wire::{
    encode_data, encode_frame, negotiate, DataFrame, DataRef, Frame, FrameReader, VERSION,
    VERSION_MIN,
};

/// How long a receive (or a send at a full window) polls before declaring
/// the fabric wedged: many times the longest retransmission timeout.
const RECV_WATCHDOG: Duration = Duration::from_secs(10);

/// Which kind of loopback socket carries the frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// TCP over `127.0.0.1` (an ephemeral port per node pair).
    Tcp,
    /// Unix-domain stream sockets (a temporary path, unlinked once connected).
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

/// Deterministic sender-side frame dropping: the first transmission of every
/// `drop_every`-th `DATA` frame (across all streams, in the engine's send
/// order) is not written, and a resend must recover it. The simulator never
/// sees it, so a run under drops must end with the same counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DropPlan {
    /// Drop the first transmission of every Nth `DATA` frame (0 = never).
    pub drop_every: u64,
}

/// Tally of what the wire layer did. Only `data_frames` and `induced_drops`
/// are deterministic: the rest depends on when each end was polled.
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
    /// Received frames discarded as already delivered or held.
    pub dups_dropped: u64,
    /// Received frames held because a stream predecessor was missing.
    pub holds: u64,
    /// Held frames released in order after their predecessor arrived.
    pub resequenced: u64,
}

/// What the probes read after a run has consumed the transport.
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

/// A cloneable handle onto a fabric's [`WireCounts`] that stays valid after
/// a run has consumed the transport.
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

/// A cloneable handle that drains recorded [`WireEvent`]s after a run.
#[derive(Clone, Debug)]
pub struct WireEventsProbe(Rc<RefCell<Probed>>);

impl WireEventsProbe {
    /// Takes every event recorded so far.
    pub fn take(&self) -> Vec<WireEvent> {
        match &mut self.0.borrow_mut().events {
            Some(log) => std::mem::take(&mut log.events),
            None => Vec::new(),
        }
    }
}

/// Registry handles for the `wire.*` metrics (`docs/OBSERVABILITY.md`),
/// no-ops from a disabled registry; no delivery decision reads one.
#[derive(Debug)]
struct WireMetrics {
    /// Per directed node pair (`src * nodes + dst`; self-pairs disabled).
    encode_ns: Vec<HistogramHandle>,
    decode_ns: Vec<HistogramHandle>,
    ack_rtt_ns: Vec<HistogramHandle>,
    rto_ns: Vec<HistogramHandle>,
    /// Two splits of `retransmits`: by trigger, and by cause.
    retrans_fast: Counter,
    retrans_timeout: Counter,
    retrans_first_tx_dropped: Counter,
    retrans_ack_delayed: Counter,
    queue_unacked: Gauge,
    queue_held: Gauge,
    bytes_hello: Counter,
    bytes_data: Counter,
    bytes_ack: Counter,
    bytes_bye: Counter,
    io_reads: Counter,
    io_writes: Counter,
    io_would_block: Counter,
    /// Only an enabled registry times encodes and decodes.
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
            io_reads: registry.counter("wire.io.reads"),
            io_writes: registry.counter("wire.io.writes"),
            io_would_block: registry.counter("wire.io.would_block"),
            timed: registry.is_enabled(),
        }
    }
}

/// Node `own`'s end of its connection with node `peer`: it writes `DATA` of
/// stream `own -> peer` and `ACK`s of `peer -> own`, and reads the others.
#[derive(Debug)]
struct End {
    sock: Box<dyn Sock>,
    reader: FrameReader,
    own: u32,
    peer: u32,
    /// The sending half of stream `own -> peer`.
    tx: Sender,
    /// The receiving half of stream `peer -> own`.
    rx: Receiver,
    /// `DATA` frames not yet written, for the peer end's next drain; and
    /// how many frames that is, those the [`DropPlan`] kept out included.
    corked: Vec<u8>,
    corked_frames: usize,
    /// `BYE` or end-of-file seen: nothing further will be read.
    closed: bool,
}

/// The socket fabric: both ends of one connection per physical node pair.
/// Everything happens inside [`Fabric::send_data`] and [`Fabric::recv`].
#[derive(Debug)]
pub(crate) struct Fabric {
    probed: Rc<RefCell<Probed>>,
    /// Every socket end, sorted by `(own, peer)` (see [`Fabric::end_ix`]).
    ends: Vec<End>,
    /// Delivered messages, one queue per processor pair, at
    /// [`Fabric::inbox_ix`].
    inboxes: Vec<VecDeque<ProtoMsg>>,
    /// Running total of every stream's unacknowledged frames.
    unacked_depth: u64,
    metrics: WireMetrics,
    /// Per-processor physical node, indexed by processor id.
    node_of: Vec<u32>,
    nodes: usize,
    backend: Backend,
    drops: DropPlan,
    version: u8,
    /// `HELLO` bytes, credited when [`Fabric::set_metrics`] attaches one.
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

/// Reads one frame from a still blocking socket (the `HELLO` exchange), and
/// returns it with the reassembler holding any over-read bytes.
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
    /// Connects every node pair over `backend`, negotiates the version with
    /// `HELLO`s, and makes every end non-blocking.
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
                        tx: Sender::new(Instant::now()),
                        rx: Receiver::default(),
                        corked: Vec::new(),
                        corked_frames: 0,
                        closed: false,
                    });
                }
            }
        }
        ends.sort_by_key(|e| (e.own, e.peer));

        Ok(Fabric {
            probed: Rc::default(),
            ends,
            inboxes: std::iter::repeat_with(VecDeque::new).take(node_of.len().pow(2)).collect(),
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

    /// Registers the wire-layer metrics in `registry`.
    pub(crate) fn set_metrics(&mut self, registry: &Registry) {
        self.metrics = WireMetrics::new(registry, self.nodes);
        // The handshake predates this call; credit its bytes now.
        self.metrics.bytes_hello.add(self.hello_bytes);
    }

    /// Turns on wire-event recording and returns the probe that drains it.
    pub(crate) fn enable_wire_events(&self) -> WireEventsProbe {
        self.probed
            .borrow_mut()
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
        self.probed.borrow().counts
    }

    /// A counts handle that outlives this fabric's owner.
    pub(crate) fn counts_probe(&self) -> WireCountsProbe {
        WireCountsProbe(Rc::clone(&self.probed))
    }

    /// Index into `ends` of node `own`'s end of its connection with `peer`.
    fn end_ix(&self, own: u32, peer: u32) -> usize {
        own as usize * (self.nodes - 1) + peer as usize - usize::from(peer > own)
    }

    /// Index into `inboxes` of the `src -> dst` processor queue.
    fn inbox_ix(&self, src: u32, dst: u32) -> usize {
        src as usize * self.node_of.len() + dst as usize
    }

    /// Encodes a message from processor `src` to `dst` (on another node) at
    /// the next position of their stream and corks it for the receiving
    /// end's next drain. A stream at its window polls until it reopens.
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
        while self.ends[e].tx.window_full() {
            self.poll_slow(&mut waiting_since, format_args!("room in the {sn}->{dn} send window"));
        }
        let dropped_first = {
            let mut pr = self.probed.borrow_mut();
            pr.counts.data_frames += 1;
            let drop_this = self.drops.drop_every > 0
                && pr.counts.data_frames.is_multiple_of(self.drops.drop_every);
            pr.counts.induced_drops += u64::from(drop_this);
            drop_this
        };
        let (version, metrics) = (self.version, &self.metrics);
        let end = &mut self.ends[e];
        let frame = end.tx.send(dropped_first, trace, |pair_seq| {
            let encode_start = metrics.timed.then(Instant::now);
            let bytes =
                encode_data(&DataRef { version, src, dst, pair_seq, via_vnode, trace, msg })
                    .expect("protocol messages fit in a frame");
            if let Some(start) = encode_start {
                metrics.encode_ns[stream].record(start.elapsed().as_nanos() as u64);
            }
            bytes
        });
        if !dropped_first {
            metrics.bytes_data.add(frame.bytes.len() as u64);
            end.corked.extend_from_slice(&frame.bytes);
        }
        end.corked_frames += 1;
        self.probed.borrow_mut().event("wire-send", sn, dn, frame.seq, trace);
        self.unacked_depth += 1;
        self.metrics.queue_unacked.set(self.unacked_depth);
    }

    /// Returns the next message from processor `src` to `dst`, polling the
    /// one end it arrives on, and then the slow path.
    ///
    /// # Panics
    ///
    /// If the connection closed or the stream is corrupt, or if nothing
    /// arrives within the watchdog interval.
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

    /// One turn of a receive's wait on end `e`. Only the first tells the
    /// receiver; a wait for a frame that never comes ends at the watchdog.
    fn await_turn(
        &mut self,
        e: usize,
        waiting_since: &mut Option<Instant>,
        what: std::fmt::Arguments<'_>,
    ) {
        if waiting_since.is_none() {
            self.ends[e].rx.on_wait();
            if self.ends[e].rx.settling() {
                self.write_ack(e);
            }
        }
        self.poll_slow(waiting_since, what);
    }

    /// One turn of the slow path (`waiting_since` is `None` until the first).
    /// Every end is drained twice with its ACK forced — deliver and
    /// acknowledge, then collect — before a timer is read, so a delayed ACK
    /// is no loss. A turn that moved nothing sleeps until the next timer, in
    /// one piece: each wake-up costs its own lateness.
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
            match end.tx.on_tick(now, since) {
                Tick::Idle => {}
                Tick::Due(due) => wake = wake.min(due),
                Tick::Expired(rto) => {
                    self.metrics.rto_ns[end.own as usize * self.nodes + end.peer as usize]
                        .record(rto.as_nanos() as u64);
                    self.metrics.retrans_timeout.inc();
                    self.resend_head(e, now);
                    moved += 1;
                }
            }
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

    /// Resends the head of the stream end `e` sends, if it has one, after
    /// what is corked.
    fn resend_head(&mut self, e: usize, now: Instant) {
        self.uncork(e);
        let end = &mut self.ends[e];
        let (own, peer) = (end.own, end.peer);
        let Some((head, recovers_drop)) = end.tx.resend_head(now) else { return };
        let (seq, trace, bytes) = (head.seq, head.trace, head.bytes.clone());
        let m = &self.metrics;
        let cause =
            if recovers_drop { &m.retrans_first_tx_dropped } else { &m.retrans_ack_delayed };
        cause.inc();
        m.bytes_data.add(bytes.len() as u64);
        {
            let mut pr = self.probed.borrow_mut();
            pr.counts.retransmits += 1;
            pr.event("wire-retransmit", own, peer, seq, trace);
        }
        self.write_frame(e, &bytes, true);
    }

    /// Polls end `e`: writes what is corked for it, hands what it reads to its
    /// stream halves, and writes the `ACK` due. Returns the frames handled.
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
        if self.ends[e].rx.ack_due(force_ack) {
            self.write_ack(e);
        }
        handled
    }

    /// Writes end `e`'s corked `DATA` frames with one `write` and tells the
    /// stream they went out now.
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
        let end = &mut self.ends[e];
        end.tx.written(n, Instant::now());
        end.corked = batch;
        end.corked_frames = 0;
    }

    /// Moves every byte end `e`'s socket holds into its reassembler, handling
    /// nothing, so [`Fabric::write_frame`] may call it anywhere. End of file
    /// closes the end like a `BYE`.
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

    /// Writes frames on end `e`, never part of one. A full socket holds bytes
    /// only this thread would read, so the peer end is filled and the write
    /// retried; unless `must`, a frame blocked at its first byte is given up.
    fn write_frame(&mut self, e: usize, bytes: &[u8], must: bool) -> bool {
        let (own, peer) = (self.ends[e].own, self.ends[e].peer);
        let peer_end = self.end_ix(peer, own);
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
                Err(err) => panic!("wire fabric failed: write {own}->{peer}: {err}"),
            }
        }
        true
    }

    /// Acknowledges what end `e`'s receiver has delivered, and tells it
    /// whether the `ACK` went out: one that would block at its first byte
    /// is never written in part, and stays owed.
    fn write_ack(&mut self, e: usize) {
        let end = &self.ends[e];
        let (own, peer, cum_seq) = (end.own, end.peer, end.rx.cum_seq());
        let ack =
            encode_frame(&Frame::Ack { version: self.version, cum_seq }).expect("ACK is tiny");
        let written = self.write_frame(e, &ack, false);
        self.ends[e].rx.acked(written);
        if written {
            self.metrics.bytes_ack.add(ack.len() as u64);
            let mut pr = self.probed.borrow_mut();
            pr.counts.acks_sent += 1;
            pr.event("wire-ack", peer, own, cum_seq, 0);
        }
    }

    /// Hands an `ACK` read from end `e` to the stream it acknowledges.
    fn collect_ack(&mut self, e: usize, cum_seq: u64) {
        let now = Instant::now();
        let end = &mut self.ends[e];
        let rtt = &self.metrics.ack_rtt_ns[end.own as usize * self.nodes + end.peer as usize];
        let depth = &mut self.unacked_depth;
        let resend = end.tx.on_ack(cum_seq, now, |u| {
            *depth -= 1;
            if !u.retransmitted {
                rtt.record(now.duration_since(u.first_sent).as_nanos() as u64);
            }
        });
        self.metrics.queue_unacked.set(self.unacked_depth);
        if resend {
            self.metrics.retrans_fast.inc();
            self.resend_head(e, now);
        }
    }

    /// Hands a `DATA` frame read from end `e` to its receiver, and counts
    /// what it did. Panics if the frame names a processor the machine lacks
    /// or another node pair (whose stream it would mis-sequence).
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
        let (procs, inboxes, probed) = (self.node_of.len(), &mut self.inboxes, &self.probed);
        let admitted = self.ends[e].rx.on_data(frame, |f| {
            probed.borrow_mut().event("wire-recv", sn, dn, f.pair_seq, f.trace);
            inboxes[f.src as usize * procs + f.dst as usize].push_back(f.msg);
        });
        {
            let counts = &mut self.probed.borrow_mut().counts;
            match admitted {
                Admitted::Duplicate => counts.dups_dropped += 1,
                Admitted::Held => counts.holds += 1,
                Admitted::Delivered(released) => counts.resequenced += released,
            }
            // Every held frame is released once.
            self.metrics.queue_held.set(counts.holds - counts.resequenced);
        }
        if self.ends[e].rx.settling() {
            self.write_ack(e);
        }
    }

    /// Writes what each end has corked and a `BYE` (best effort), and drops
    /// the sockets. Idempotent.
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
