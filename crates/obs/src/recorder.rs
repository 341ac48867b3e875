//! The recorder: per-processor bounded event rings plus the streaming
//! aggregators (slice tiling, Figure 7 messages, the sharing profiler), and
//! the immutable [`EventLog`] a finished run hands to the exporters.
//!
//! A ring keeps its events as a byte stream: each event is encoded in a few
//! bytes when it is recorded (a tag byte, then varints, its time and block
//! as steps from the previous event's) and decoded into a [`Stamped`] when
//! an exporter reads it. A delivery recorded with its send stamp
//! ([`Recorder::record_recv`]) keeps the stamp as one more varint, which
//! only the critical path reads. The stream lives in chunks of [`CHUNK_BYTES`],
//! allocated as the ring fills; a full ring reuses its oldest chunk once it
//! has evicted every event in it.

use std::collections::VecDeque;

use crate::event::{DowngradeAction, Event, EventKind, Stamped};
use crate::fig4::Fig4Agg;
use crate::profile::{ProfileAgg, SpaceMap};
use crate::rederive::MsgAgg;
use shasta_stats::{Hops, MissKind, MsgStats, TimeCat};

/// Bytes per ring chunk. A ring allocates its next chunk when the last one
/// has less room than [`MAX_ENCODED`], so a chunk never reallocates, a log
/// holds what its processors recorded rather than `procs × capacity`, and
/// a chunk is small enough to be carved from heap memory an earlier log
/// freed instead of fresh pages.
const CHUNK_BYTES: usize = 32 * 1024;

/// The longest encoding of one event: a check miss with its time, block
/// and offset 10 varint bytes each and its id and length 5 each, after the
/// tag byte. A stamped receive (time, block and stamp 10 bytes each, peer
/// and label id 5 each) takes no more.
const MAX_ENCODED: usize = 1 + 3 * 10 + 2 * 5;

/// Bits of the tag byte holding the kind's tag; the kind's small fields
/// take the 3 bits above.
const TAG_BITS: u32 = 5;

/// Each [`EventKind`] variant's tag in an event's first byte.
mod tag {
    pub const CHECK_MISS: u8 = 0;
    pub const FALSE_MISS: u8 = 1;
    pub const MISS_RESOLVED: u8 = 2;
    pub const PRIVATE_UPGRADE: u8 = 3;
    pub const MISS_MERGED: u8 = 4;
    pub const MSG_SEND: u8 = 5;
    pub const MSG_RECV: u8 = 6;
    pub const HOME_INVALIDATE: u8 = 7;
    pub const DIR_QUEUED: u8 = 8;
    pub const DOWNGRADE_START: u8 = 9;
    pub const DOWNGRADE_ACK: u8 = 10;
    pub const DOWNGRADE_DONE: u8 = 11;
    pub const POLL_DRAIN: u8 = 12;
    pub const LINE_LOCK_ACQUIRE: u8 = 13;
    pub const LINE_LOCK_RELEASE: u8 = 14;
    pub const BLOCK_STATE: u8 = 15;
    pub const STALL_BEGIN: u8 = 16;
    pub const SLICE: u8 = 17;
    pub const WOKEN: u8 = 18;
}

/// The small bit of a [`tag::MSG_RECV`] head that says a send stamp follows.
const STAMPED: u8 = 1;

/// `d` (a wrapping difference) with its sign folded into the low bit, so a
/// small step either way is a small varint.
fn zigzag(d: u64) -> u64 {
    let d = d as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The difference [`zigzag`] folded.
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// What an event's time and block are encoded against: the previous
/// event's, within one chunk. Each chunk starts from zero, so it decodes on
/// its own.
#[derive(Clone, Copy, Default)]
struct Base {
    t: u64,
    block: u64,
}

/// Writes one event into the room at the end of a chunk: `out` is that
/// room, `n` the bytes written so far. The position and the base stay in
/// registers while the event is encoded: its helpers are inlined into
/// [`Enc::event`], which, with them out of line, cost ~40 % more an event
/// (14 ns against 10 on the benchmark's `obs.record_ns_per_event` stream).
struct Enc<'a> {
    out: &'a mut [u8; MAX_ENCODED],
    n: usize,
    base: Base,
}

impl Enc<'_> {
    #[inline(always)]
    fn byte(&mut self, b: u8) {
        self.out[self.n] = b;
        self.n += 1;
    }

    /// A LEB128 varint: seven bits a byte, low bits first, the top bit set
    /// on every byte but the last.
    #[inline(always)]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.byte(v as u8 | 0x80);
            v >>= 7;
        }
        self.byte(v as u8);
    }

    /// The tag byte, then the time as a signed step from the previous
    /// event's.
    #[inline(always)]
    fn head(&mut self, tag: u8, small: u8, t: u64) {
        self.byte(tag | small << TAG_BITS);
        self.varint(zigzag(t.wrapping_sub(self.base.t)));
        self.base.t = t;
    }

    /// A block address as a signed step from the previous block's.
    #[inline(always)]
    fn block(&mut self, block: u64) {
        self.varint(zigzag(block.wrapping_sub(self.base.block)));
        self.base.block = block;
    }

    /// A `u32` field, a label's id, or a slice's cycles.
    #[inline(always)]
    fn field(&mut self, v: impl Into<u64>) {
        self.varint(v.into());
    }

    /// Encodes `kind` at time `t`, interning its label in `labels`: the
    /// head, then the block if the kind has one, then its other fields. A
    /// receive with a send stamp `sent` ends with `t − sent`.
    ///
    /// Borrows `kind` so that each arm reads only its own fields, at their
    /// own widths. A by-value kind was first copied whole, with 8-byte loads
    /// across its narrower fields just after the engine stored them; one of
    /// those loads drew ~8 % of a recorded run's CPU samples.
    fn event(&mut self, t: u64, kind: &EventKind, sent: Option<u64>, labels: &mut Labels) {
        match *kind {
            EventKind::CheckMiss { id, block, addr, len, write } => {
                self.head(tag::CHECK_MISS, u8::from(write), t);
                self.block(block);
                self.field(id);
                self.field(len);
                self.varint(zigzag(addr.wrapping_sub(block)));
            }
            EventKind::FalseMiss { block } => {
                self.head(tag::FALSE_MISS, 0, t);
                self.block(block);
            }
            EventKind::MissResolved { block, kind, hops } => {
                self.head(tag::MISS_RESOLVED, kind as u8 | (hops as u8) << 2, t);
                self.block(block);
            }
            EventKind::PrivateUpgrade { block } => {
                self.head(tag::PRIVATE_UPGRADE, 0, t);
                self.block(block);
            }
            EventKind::MissMerged { block } => {
                self.head(tag::MISS_MERGED, 0, t);
                self.block(block);
            }
            EventKind::MsgSend { msg, peer, block } => {
                self.head(tag::MSG_SEND, 0, t);
                self.block(block);
                self.field(peer);
                self.field(labels.intern(msg));
            }
            EventKind::MsgRecv { msg, peer, block } => {
                self.head(tag::MSG_RECV, if sent.is_some() { STAMPED } else { 0 }, t);
                self.block(block);
                self.field(peer);
                self.field(labels.intern(msg));
                if let Some(sent) = sent {
                    self.varint(t.wrapping_sub(sent));
                }
            }
            EventKind::HomeInvalidate { block, ack_to } => {
                self.head(tag::HOME_INVALIDATE, 0, t);
                self.block(block);
                self.field(ack_to);
            }
            EventKind::DirQueued { block, requester, kind } => {
                self.head(tag::DIR_QUEUED, kind as u8, t);
                self.block(block);
                self.field(requester);
            }
            EventKind::DowngradeStart { block, to_invalid, targets } => {
                self.head(tag::DOWNGRADE_START, u8::from(to_invalid), t);
                self.block(block);
                self.field(targets);
            }
            EventKind::DowngradeAck { block, remaining } => {
                self.head(tag::DOWNGRADE_ACK, 0, t);
                self.block(block);
                self.field(remaining);
            }
            EventKind::DowngradeDone { block, action } => {
                let (variant, lo, acks) = match action {
                    DowngradeAction::ReadReply { requester } => (0, requester, None),
                    DowngradeAction::WriteReply { requester, acks } => (1, requester, Some(acks)),
                    DowngradeAction::InvAck { ack_to } => (2, ack_to, None),
                };
                self.head(tag::DOWNGRADE_DONE, variant, t);
                self.block(block);
                self.field(lo);
                if let Some(acks) = acks {
                    self.field(acks);
                }
            }
            EventKind::PollDrain { handled } => {
                self.head(tag::POLL_DRAIN, 0, t);
                self.field(handled);
            }
            EventKind::LineLockAcquire { block } => {
                self.head(tag::LINE_LOCK_ACQUIRE, 0, t);
                self.block(block);
            }
            EventKind::LineLockRelease { block } => {
                self.head(tag::LINE_LOCK_RELEASE, 0, t);
                self.block(block);
            }
            EventKind::BlockState { block, state } => {
                self.head(tag::BLOCK_STATE, 0, t);
                self.block(block);
                self.field(labels.intern(state));
            }
            EventKind::StallBegin { cat } => self.head(tag::STALL_BEGIN, cat as u8, t),
            EventKind::Slice { cat, cycles } => {
                self.head(tag::SLICE, cat as u8, t);
                self.field(cycles);
            }
            EventKind::Woken { by } => {
                self.head(tag::WOKEN, 0, t);
                self.field(by);
            }
        }
    }
}

/// Reads events back from one chunk's bytes, in the order [`Enc`] wrote
/// them.
struct Dec<'a> {
    bytes: &'a [u8],
    base: Base,
}

impl Dec<'_> {
    fn byte(&mut self) -> u8 {
        let (&b, rest) = self.bytes.split_first().expect("a chunk ends on an event boundary");
        self.bytes = rest;
        b
    }

    /// A varint [`Enc::varint`] wrote.
    fn varint(&mut self) -> u64 {
        let b = self.byte();
        if b < 0x80 {
            return u64::from(b);
        }
        let (mut v, mut shift) = (u64::from(b & 0x7f), 7);
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// A field [`Enc`] wrote from a `u32`.
    fn u32(&mut self) -> u32 {
        self.varint() as u32
    }

    fn block(&mut self) -> u64 {
        self.base.block = self.base.block.wrapping_add(unzigzag(self.varint()));
        self.base.block
    }

    /// The next event, its labels looked up in `labels`: its fields read
    /// in the order [`Enc::event`] wrote them, with a receive's send stamp
    /// if it has one.
    fn event(&mut self, labels: &Labels) -> (Stamped, Option<u64>) {
        let head = self.byte();
        let small = usize::from(head >> TAG_BITS);
        self.base.t = self.base.t.wrapping_add(unzigzag(self.varint()));
        let mut sent = None;
        let kind = match head & ((1 << TAG_BITS) - 1) {
            tag::CHECK_MISS => {
                let (block, id, len) = (self.block(), self.u32(), self.u32());
                let addr = block.wrapping_add(unzigzag(self.varint()));
                EventKind::CheckMiss { id, block, addr, len, write: small & 1 != 0 }
            }
            tag::FALSE_MISS => EventKind::FalseMiss { block: self.block() },
            tag::MISS_RESOLVED => EventKind::MissResolved {
                block: self.block(),
                kind: MissKind::ALL[small & 3],
                hops: Hops::ALL[small >> 2 & 1],
            },
            tag::PRIVATE_UPGRADE => EventKind::PrivateUpgrade { block: self.block() },
            tag::MISS_MERGED => EventKind::MissMerged { block: self.block() },
            tag::MSG_SEND => {
                let (block, peer) = (self.block(), self.u32());
                EventKind::MsgSend { msg: labels.get(self.varint()), peer, block }
            }
            tag::MSG_RECV => {
                let (block, peer) = (self.block(), self.u32());
                let msg = labels.get(self.varint());
                if small & usize::from(STAMPED) != 0 {
                    sent = Some(self.base.t.wrapping_sub(self.varint()));
                }
                EventKind::MsgRecv { msg, peer, block }
            }
            tag::HOME_INVALIDATE => {
                EventKind::HomeInvalidate { block: self.block(), ack_to: self.u32() }
            }
            tag::DIR_QUEUED => EventKind::DirQueued {
                block: self.block(),
                requester: self.u32(),
                kind: MissKind::ALL[small],
            },
            tag::DOWNGRADE_START => EventKind::DowngradeStart {
                block: self.block(),
                to_invalid: small & 1 != 0,
                targets: self.u32(),
            },
            tag::DOWNGRADE_ACK => {
                EventKind::DowngradeAck { block: self.block(), remaining: self.u32() }
            }
            tag::DOWNGRADE_DONE => {
                let (block, lo) = (self.block(), self.u32());
                let action = match small {
                    0 => DowngradeAction::ReadReply { requester: lo },
                    1 => DowngradeAction::WriteReply { requester: lo, acks: self.u32() },
                    _ => DowngradeAction::InvAck { ack_to: lo },
                };
                EventKind::DowngradeDone { block, action }
            }
            tag::POLL_DRAIN => EventKind::PollDrain { handled: self.u32() },
            tag::LINE_LOCK_ACQUIRE => EventKind::LineLockAcquire { block: self.block() },
            tag::LINE_LOCK_RELEASE => EventKind::LineLockRelease { block: self.block() },
            tag::BLOCK_STATE => {
                let block = self.block();
                EventKind::BlockState { block, state: labels.get(self.varint()) }
            }
            tag::STALL_BEGIN => EventKind::StallBegin { cat: TimeCat::ALL[small] },
            tag::SLICE => EventKind::Slice { cat: TimeCat::ALL[small], cycles: self.varint() },
            tag::WOKEN => EventKind::Woken { by: self.u32() },
            other => unreachable!("no event kind has tag {other}"),
        };
        (Stamped { t: self.base.t, kind }, sent)
    }
}

/// A ring's retained events, oldest first, decoded chunk by chunk, each
/// with its send stamp if it is a stamped receive.
struct RingEvents<'a, C> {
    chunks: C,
    dec: Dec<'a>,
    labels: &'a Labels,
}

impl<'a, C: Iterator<Item = &'a Chunk>> Iterator for RingEvents<'a, C> {
    type Item = (Stamped, Option<u64>);

    fn next(&mut self) -> Option<Self::Item> {
        while self.dec.bytes.is_empty() {
            let chunk = self.chunks.next()?;
            self.dec = Dec { bytes: &chunk.bytes[..chunk.used], base: Base::default() };
        }
        Some(self.dec.event(self.labels))
    }
}

/// The message and state labels the rings refer to by id, in first-use
/// order. A label is found by pointer identity: the engine's labels are
/// string literals, so a handful of entries cover a run, and a lookup hands
/// back the very `&'static str` that was recorded.
#[derive(Default)]
struct Labels(Vec<&'static str>);

impl Labels {
    fn intern(&mut self, label: &'static str) -> u64 {
        let id = match self.0.iter().position(|&l| std::ptr::eq(l, label)) {
            Some(id) => id,
            None => {
                self.0.push(label);
                self.0.len() - 1
            }
        };
        id as u64
    }

    fn get(&self, id: u64) -> &'static str {
        self.0[id as usize]
    }
}

/// Every processor's bounded ring of recent events, and the labels their
/// events refer to. Every event in ring `p` happened on `p`, so an encoded
/// event leaves its processor out. When a ring is full, its oldest event is
/// evicted and counted as dropped — the exported timeline is a suffix of
/// the run, but aggregation (fed before eviction) is unaffected.
#[derive(Default)]
struct Rings {
    cap: usize,
    rings: Box<[Ring]>,
    labels: Labels,
}

/// Encoded events: the first `used` of [`CHUNK_BYTES`] bytes.
#[derive(Default)]
struct Chunk {
    bytes: Box<[u8]>,
    used: usize,
    events: usize,
}

impl Chunk {
    fn has_room(&self) -> bool {
        self.bytes.len() - self.used >= MAX_ENCODED
    }
}

/// One processor's ring: its events encoded in chunks, oldest first.
#[derive(Default)]
struct Ring {
    /// Chunks closed for lack of room, oldest first.
    full: VecDeque<Chunk>,
    /// The chunk events are written to; it has no bytes until the first.
    head: Chunk,
    /// What the head's next event is encoded against.
    base: Base,
    /// Events of the oldest chunk already evicted, which decoding skips.
    skip: usize,
    /// Events retained: at most the ring's capacity.
    len: usize,
    dropped: u64,
    /// The last closed chunk evicted whole, to become the next head.
    spare: Option<Box<[u8]>>,
}

impl Rings {
    fn new(procs: usize, cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Rings {
            cap,
            rings: (0..procs).map(|_| Ring::default()).collect(),
            labels: Labels::default(),
        }
    }

    fn push(&mut self, p: usize, t: u64, kind: &EventKind, sent: Option<u64>) {
        let ring = &mut self.rings[p];
        if ring.len == self.cap {
            ring.evict();
        }
        if !ring.head.has_room() {
            ring.open();
        }
        let head = &mut ring.head;
        let out = (&mut head.bytes[head.used..head.used + MAX_ENCODED])
            .try_into()
            .expect("a slice of MAX_ENCODED bytes");
        let mut enc = Enc { out, n: 0, base: ring.base };
        enc.event(t, kind, sent, &mut self.labels);
        ring.base = enc.base;
        head.used += enc.n;
        head.events += 1;
        ring.len += 1;
    }

    /// Processor `p`'s retained timeline.
    fn proc(&self, p: u32) -> ProcEvents<'_> {
        let ring = &self.rings[p as usize];
        ProcEvents { proc: p, dropped: ring.dropped, ring, labels: &self.labels }
    }
}

/// Each ring's evictions and retained events.
impl std::fmt::Debug for Rings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries((0..self.rings.len() as u32).map(|p| self.proc(p))).finish()
    }
}

impl Ring {
    /// Drops the oldest retained event. Once none of the oldest chunk's is
    /// left, a closed chunk becomes the spare and the head starts over.
    fn evict(&mut self) {
        self.skip += 1;
        self.len -= 1;
        self.dropped += 1;
        if self.skip == self.full.front().unwrap_or(&self.head).events {
            self.skip = 0;
            match self.full.pop_front() {
                Some(oldest) => self.spare = Some(oldest.bytes),
                None => {
                    (self.head.used, self.head.events) = (0, 0);
                    self.base = Base::default();
                }
            }
        }
    }

    /// Closes the head and starts a new one, the spare if there is one,
    /// whose deltas start from zero.
    fn open(&mut self) {
        let bytes = self.spare.take().unwrap_or_else(|| vec![0; CHUNK_BYTES].into_boxed_slice());
        let closed = std::mem::replace(&mut self.head, Chunk { bytes, used: 0, events: 0 });
        if closed.events > 0 {
            self.full.push_back(closed);
        }
        self.base = Base::default();
    }

    /// Its chunks, oldest first.
    fn chunks(&self) -> impl Iterator<Item = &Chunk> + '_ {
        self.full.iter().chain(std::iter::once(&self.head))
    }

    /// The retained events, oldest first, with their send stamps: the
    /// oldest chunk's evicted ones are decoded, for the deltas, and passed
    /// over.
    fn events<'a>(
        &'a self,
        labels: &'a Labels,
    ) -> impl Iterator<Item = (Stamped, Option<u64>)> + 'a {
        let dec = Dec { bytes: &[], base: Base::default() };
        let mut events = RingEvents { chunks: self.chunks(), dec, labels };
        for _ in 0..self.skip {
            events.next();
        }
        events
    }
}

/// Records protocol events during a run.
///
/// A disabled recorder (the default) reduces every [`record`](Self::record)
/// call to a single branch; an enabled one streams each event through the
/// aggregators and then appends it to the acting processor's ring.
#[derive(Debug, Default)]
pub struct Recorder {
    rings: Rings,
    agg: Fig4Agg,
    msg: Option<MsgAgg>,
    profile: Option<ProfileAgg>,
    enabled: bool,
}

impl Recorder {
    /// A recorder that ignores every event (the engine's default).
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// A recorder for `procs` processors retaining up to `ring_capacity`
    /// events per processor in the exported timeline. Reserves nothing up
    /// front: each ring grows by a 32 KiB chunk of encoded events (a few
    /// bytes each) as it fills, and a full ring reuses its oldest chunk once
    /// every event in it is evicted.
    pub fn enabled(procs: usize, ring_capacity: usize) -> Self {
        Recorder {
            rings: Rings::new(procs, ring_capacity),
            agg: Fig4Agg::new(procs),
            msg: None,
            profile: None,
            enabled: true,
        }
    }

    /// Whether this recorder keeps events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attaches a shared-space snapshot, enabling the message-class
    /// rederivation and the sharing profiler (both need the allocation table
    /// and processor placement). `Machine::run` does this as it starts, when
    /// every allocation — and its site label — is known.
    pub fn attach_map(&mut self, map: SpaceMap) {
        self.msg = Some(MsgAgg::new(map.clone()));
        self.profile = Some(ProfileAgg::new(map));
    }

    /// Records `kind` happening on processor `p` at simulated cycle `t`.
    /// No-op (one branch, inlined into the engine) when the recorder is
    /// disabled.
    #[inline]
    pub fn record(&mut self, t: u64, p: u32, kind: EventKind) {
        if self.enabled {
            self.stream(t, p, kind, None);
        }
    }

    /// Records the delivery of message `msg` from `peer` about `block` on
    /// processor `p` at cycle `t`: an [`EventKind::MsgRecv`], and beside it
    /// in the ring the cycle `sent` at which the sender recorded the
    /// matching [`EventKind::MsgSend`]. The stamp is the critical path's
    /// delivery edge ([`critpath::analyze`](crate::critpath::analyze)
    /// follows it back to the send); every other reader sees the plain
    /// event.
    #[inline]
    pub fn record_recv(
        &mut self,
        t: u64,
        p: u32,
        msg: &'static str,
        peer: u32,
        block: u64,
        sent: u64,
    ) {
        if self.enabled {
            self.stream(t, p, EventKind::MsgRecv { msg, peer, block }, Some(sent));
        }
    }

    /// Passes one event through the aggregators, in global record order —
    /// the sharing profiler's transitions depend on the cross-processor
    /// interleaving — and then into `p`'s ring. Kept out of line so that
    /// each of the engine's event sites inlines only `record`'s branch.
    #[inline(never)]
    fn stream(&mut self, t: u64, p: u32, kind: EventKind, sent: Option<u64>) {
        if let EventKind::Slice { cycles, .. } = kind {
            self.agg.observe_slice(p, t, cycles);
        }
        if let Some(msg) = &mut self.msg {
            msg.observe(p, &kind);
        }
        if let Some(profile) = &mut self.profile {
            profile.observe(p, &kind);
        }
        self.rings.push(p as usize, t, &kind, sent);
    }

    /// Consumes the recorder into the immutable log handed to exporters;
    /// the rings stay where they were written.
    pub fn into_log(self) -> EventLog {
        EventLog { rings: self.rings, agg: self.agg, msg: self.msg, profile: self.profile }
    }
}

/// The retained timeline of one processor, read from its ring.
#[derive(Clone, Copy)]
pub struct ProcEvents<'a> {
    /// The processor every event here happened on.
    pub proc: u32,
    /// Events evicted from the ring before export (0 = complete timeline).
    pub dropped: u64,
    ring: &'a Ring,
    labels: &'a Labels,
}

impl<'a> ProcEvents<'a> {
    /// Retained events in record (and therefore time) order, oldest first,
    /// each decoded from its ring's bytes.
    pub fn events(&self) -> impl Iterator<Item = Stamped> + 'a {
        self.ring.events(self.labels).map(|(e, _)| e)
    }

    /// [`ProcEvents::events`], each receive recorded by
    /// [`Recorder::record_recv`] with its send stamp.
    pub(crate) fn stamped(&self) -> impl Iterator<Item = (Stamped, Option<u64>)> + 'a {
        self.ring.events(self.labels)
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len
    }

    /// Whether the ring retained no event.
    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }
}

impl std::fmt::Debug for ProcEvents<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcEvents")
            .field("proc", &self.proc)
            .field("dropped", &self.dropped)
            .field("events", &self.events().collect::<Vec<_>>())
            .finish()
    }
}

/// Everything recorded during one run: per-processor timelines plus the
/// streamed aggregates.
#[derive(Debug)]
pub struct EventLog {
    rings: Rings,
    agg: Fig4Agg,
    msg: Option<MsgAgg>,
    profile: Option<ProfileAgg>,
}

impl EventLog {
    /// Number of processors in the log.
    pub fn procs(&self) -> usize {
        self.rings.rings.len()
    }

    /// Processor `p`'s retained timeline.
    pub fn proc(&self, p: u32) -> ProcEvents<'_> {
        self.rings.proc(p)
    }

    /// Total retained events across all processors.
    pub fn len(&self) -> usize {
        self.rings.rings.iter().map(|r| r.len).sum()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of encoded events the rings hold. A full ring's oldest chunk
    /// keeps the bytes of the events it evicted until all of them are.
    pub fn ring_bytes(&self) -> usize {
        self.rings.rings.iter().flat_map(Ring::chunks).map(|c| c.used).sum()
    }

    /// Total events evicted from the rings before export.
    pub fn dropped(&self) -> u64 {
        self.rings.rings.iter().map(|r| r.dropped).sum()
    }

    /// The slice-tiling audit streamed during the run (covers the whole run
    /// regardless of ring eviction).
    pub fn fig4(&self) -> &Fig4Agg {
        &self.agg
    }

    /// The event-derived Figure 7 message counters, if a [`SpaceMap`] was
    /// attached before the run.
    pub fn msgs(&self) -> Option<&MsgAgg> {
        self.msg.as_ref()
    }

    /// The sharing-pattern profiler, if a [`SpaceMap`] was attached before
    /// the run.
    pub fn profile(&self) -> Option<&ProfileAgg> {
        self.profile.as_ref()
    }

    /// Cross-checks the one statistic two layers produce: the messages the
    /// engine reported sending (`msg-send` events, classified against the
    /// attached [`SpaceMap`]) against the transport's own count, `messages`
    /// (`RunStats::messages`). Equality is exact in every class count and
    /// payload-byte total; the first divergence is returned. Vacuous
    /// without a map.
    pub fn crosscheck(&self, messages: &MsgStats) -> Result<(), String> {
        self.msg.as_ref().map_or(Ok(()), |msgs| msgs.crosscheck(messages))
    }

    /// Iterates every retained event, processor by processor, each with
    /// the processor its ring belongs to.
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        (0..self.procs() as u32).flat_map(|p| self.proc(p).events().map(move |e| e.on(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AllocSite;
    use proptest::prelude::*;
    use shasta_stats::MsgClass;
    use std::collections::VecDeque;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.record(5, 0, EventKind::PollDrain { handled: 1 });
        let log = r.into_log();
        assert_eq!(log.procs(), 0);
        assert!(log.is_empty());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = Recorder::enabled(1, 3);
        for i in 0..5u64 {
            r.record(i, 0, EventKind::PollDrain { handled: i as u32 });
        }
        let log = r.into_log();
        let pe = log.proc(0);
        assert_eq!(pe.dropped, 2);
        let ts: Vec<u64> = pe.events().map(|e| e.t).collect();
        assert_eq!(ts, vec![2, 3, 4], "oldest events evicted, order preserved");
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn slices_feed_aggregation_even_after_eviction() {
        let mut r = Recorder::enabled(1, 2);
        for i in 0..10u64 {
            r.record(i * 10, 0, EventKind::Slice { cat: TimeCat::Task, cycles: 10 });
        }
        let log = r.into_log();
        assert_eq!(log.proc(0).len(), 2, "timeline is a suffix");
        assert_eq!(log.fig4().span(0), 100, "aggregation sees all");
        assert_eq!(log.fig4().idle(0), 0);
    }

    #[test]
    fn crosscheck_names_the_message_class_that_diverges() {
        let mut r = Recorder::enabled(2, 8);
        r.attach_map(SpaceMap {
            line_bytes: 64,
            proc_phys_node: vec![0, 1],
            proc_coh_node: vec![0, 1],
            allocs: vec![AllocSite { start: 0x1000, len: 256, block_bytes: 128, label: "a" }],
        });
        r.record(0, 0, EventKind::MsgSend { msg: "read-req", peer: 1, block: 0x1000 });
        r.record(9, 1, EventKind::MsgSend { msg: "read-reply", peer: 0, block: 0x1000 });
        // Facts of other layers are no part of the comparison.
        r.record(9, 0, EventKind::DowngradeStart { block: 0x40, to_invalid: true, targets: 1 });
        let log = r.into_log();

        let mut net = MsgStats::default();
        net.record(MsgClass::Remote, 0);
        let err = log.crosscheck(&net).unwrap_err();
        assert!(err.contains("remote messages: network 1, events 2"), "{err}");
        net.record(MsgClass::Remote, 64);
        let err = log.crosscheck(&net).unwrap_err();
        assert!(err.contains("remote payload bytes: network 64, events 128"), "{err}");

        let mut net = MsgStats::default();
        net.record(MsgClass::Remote, 0);
        net.record(MsgClass::Remote, 128);
        assert_eq!(log.crosscheck(&net), Ok(()));
        // Without a map there is nothing to classify against.
        assert_eq!(Recorder::enabled(1, 8).into_log().crosscheck(&net), Ok(()));
    }

    #[test]
    fn events_route_to_their_processor() {
        let mut r = Recorder::enabled(2, 8);
        r.record(
            1,
            0,
            EventKind::CheckMiss { id: 1, block: 0x40, addr: 0x48, len: 8, write: false },
        );
        r.record(
            2,
            1,
            EventKind::CheckMiss { id: 2, block: 0x80, addr: 0x80, len: 4, write: true },
        );
        let log = r.into_log();
        assert_eq!(log.proc(0).len(), 1);
        assert_eq!(log.proc(1).len(), 1);
        assert_eq!(log.proc(1).proc, 1);
        let procs: Vec<(u64, u32)> = log.iter().map(|e| (e.t, e.proc)).collect();
        assert_eq!(procs, vec![(1, 0), (2, 1)], "the ring hands its processor back");
    }

    const MSGS: [&str; 4] = ["read-req", "read-reply", "downgrade", "inv-ack"];
    const STATES: [&str; 3] = ["pending-read", "exclusive", "shared"];

    /// A `u32` that is 0, `u32::MAX` or an arbitrary value, by `r`.
    fn u32_of(r: u64) -> u32 {
        match r % 4 {
            0 => 0,
            1 => u32::MAX,
            _ => (r >> 2) as u32,
        }
    }

    /// A `u64` that is 0, `u64::MAX` or an arbitrary value, by `r`.
    fn u64_of(r: u64) -> u64 {
        match r % 4 {
            0 => 0,
            1 => u64::MAX,
            _ => r >> 2,
        }
    }

    /// Variant `v` of [`EventKind`] with fields drawn from `x` and `y`.
    fn kind_of(v: u64, x: u64, y: u64) -> EventKind {
        let (block, a, b) = (u64_of(x), u32_of(x), u32_of(y));
        let miss = MissKind::ALL[(y % 3) as usize];
        let cat = TimeCat::ALL[(y % 6) as usize];
        match v {
            0 => EventKind::CheckMiss {
                id: a,
                block: u64_of(y.rotate_left(7)),
                addr: u64_of(x.rotate_left(13)),
                len: b,
                write: (x ^ y) & 1 != 0,
            },
            1 => EventKind::FalseMiss { block },
            2 => EventKind::MissResolved { block, kind: miss, hops: Hops::ALL[(x % 2) as usize] },
            3 => EventKind::PrivateUpgrade { block },
            4 => EventKind::MissMerged { block },
            5 => EventKind::MsgSend { msg: MSGS[(y % 4) as usize], peer: a, block },
            6 => EventKind::MsgRecv { msg: MSGS[(y % 4) as usize], peer: a, block },
            7 => EventKind::HomeInvalidate { block, ack_to: b },
            8 => EventKind::DirQueued { block, requester: b, kind: miss },
            9 => EventKind::DowngradeStart { block, to_invalid: y & 1 != 0, targets: a },
            10 => EventKind::DowngradeAck { block, remaining: b },
            11 => EventKind::DowngradeDone {
                block,
                action: match y % 3 {
                    0 => DowngradeAction::ReadReply { requester: a },
                    1 => DowngradeAction::WriteReply { requester: a, acks: u32_of(y >> 2) },
                    _ => DowngradeAction::InvAck { ack_to: a },
                },
            },
            12 => EventKind::PollDrain { handled: b },
            13 => EventKind::LineLockAcquire { block },
            14 => EventKind::LineLockRelease { block },
            15 => EventKind::BlockState { block, state: STATES[(y % 3) as usize] },
            16 => EventKind::StallBegin { cat },
            17 => EventKind::Slice { cat, cycles: block },
            _ => EventKind::Woken { by: b },
        }
    }

    /// A send stamp for `kind` drawn from `r`: none for most, and for a
    /// receive none, 0, `u64::MAX` or an arbitrary cycle.
    fn sent_of(kind: &EventKind, r: u64) -> Option<u64> {
        matches!(kind, EventKind::MsgRecv { .. } if !r.is_multiple_of(5)).then(|| u64_of(r >> 3))
    }

    /// `e` (with send stamp `sent`) encoded against `base`, which moves on
    /// to `e`.
    fn encode(e: &Stamped, sent: Option<u64>, base: &mut Base, labels: &mut Labels) -> Vec<u8> {
        let mut out = [0; MAX_ENCODED];
        let mut enc = Enc { out: &mut out, n: 0, base: *base };
        enc.event(e.t, &e.kind, sent, labels);
        let n = enc.n;
        *base = enc.base;
        out[..n].to_vec()
    }

    /// A time that is 0, `u64::MAX` or an arbitrary value, by `r`.
    fn t_of(r: u64) -> u64 {
        match r % 3 {
            0 => 0,
            1 => u64::MAX,
            _ => r,
        }
    }

    proptest! {
        /// Every variant, with full-width fields and times, receives with
        /// and without full-width send stamps, and the labels of two tables
        /// interned into one, decodes to what was encoded, whatever was
        /// encoded before it. (An encoding past [`MAX_ENCODED`] bytes would
        /// panic.)
        #[test]
        fn every_kind_encodes_and_decodes_to_itself(
            events in proptest::collection::vec(
                (0u64..19, any::<u64>(), any::<u64>(), any::<u64>()),
                1..80,
            ),
        ) {
            let stamped: Vec<(Stamped, Option<u64>)> = events
                .iter()
                .map(|&(v, x, y, t)| {
                    let kind = kind_of(v, x, y);
                    (Stamped { t: t_of(t), kind }, sent_of(&kind, x ^ t))
                })
                .collect();
            let (mut labels, mut base) = (Labels::default(), Base::default());
            let bytes: Vec<u8> = stamped
                .iter()
                .flat_map(|(e, sent)| encode(e, *sent, &mut base, &mut labels))
                .collect();
            let mut dec = Dec { bytes: &bytes, base: Base::default() };
            for e in &stamped {
                prop_assert_eq!(dec.event(&labels), *e);
            }
            prop_assert!(dec.bytes.is_empty());
        }

        /// The widths the rings once refused: times at `u64::MAX`, check
        /// misses whose address lies below their block, and blocks at
        /// `u64::MAX`, recorded into rings that keep every event and into
        /// rings that wrap, read back as they were recorded.
        #[test]
        fn full_widths_round_trip_through_a_ring(
            events in proptest::collection::vec(
                (0u64..19, any::<u64>(), any::<u64>(), any::<u64>()),
                1..200,
            ),
            cap in 1usize..64,
        ) {
            let stamped: Vec<(Stamped, Option<u64>)> = events
                .iter()
                .map(|&(v, x, y, t)| {
                    let kind = match (v, x % 3) {
                        (0, 0) => EventKind::CheckMiss {
                            id: 7, block: u64::MAX, addr: y, len: 8, write: true,
                        },
                        (0, 1) => EventKind::CheckMiss {
                            id: 8, block: y | 1 << 63, addr: y >> 1, len: 4, write: false,
                        },
                        (1, 0) => EventKind::FalseMiss { block: u64::MAX },
                        _ => kind_of(v, x, y),
                    };
                    let t = if t.is_multiple_of(4) { u64::MAX } else { t_of(t) };
                    (Stamped { t, kind }, sent_of(&kind, y ^ t))
                })
                .collect();
            // Straight into the rings: the tiling audit would add a slice's
            // cycles to its start.
            let (mut whole, mut wrapped) = (Rings::new(2, stamped.len()), Rings::new(2, cap));
            for (i, (e, sent)) in stamped.iter().enumerate() {
                whole.push(i % 2, e.t, &e.kind, *sent);
                wrapped.push(i % 2, e.t, &e.kind, *sent);
            }
            for p in 0..2u32 {
                let mine: Vec<(Stamped, Option<u64>)> =
                    stamped.iter().skip(p as usize).step_by(2).copied().collect();
                prop_assert_eq!(whole.proc(p).stamped().collect::<Vec<_>>(), mine.clone());
                let kept = mine.len().min(cap);
                prop_assert_eq!(
                    wrapped.proc(p).stamped().collect::<Vec<_>>(),
                    mine[mine.len() - kept..].to_vec()
                );
                prop_assert_eq!(wrapped.proc(p).dropped, (mine.len() - kept) as u64);
            }
        }
    }

    /// Values of every length encode as plain LEB128 and decode back,
    /// whether more bytes follow them or they end the chunk.
    #[test]
    fn varints_of_every_length_round_trip() {
        let leb128 = |mut v: u64| {
            let mut bytes = Vec::new();
            while v >= 0x80 {
                bytes.push(v as u8 | 0x80);
                v >>= 7;
            }
            bytes.push(v as u8);
            bytes
        };
        let values = (0..64).flat_map(|b| [1 << b, (1 << b) - 1, 1 << b | 0x55]);
        for v in values.chain([u64::MAX]) {
            let mut out = [0; MAX_ENCODED];
            let mut enc = Enc { out: &mut out, n: 0, base: Base::default() };
            enc.varint(v);
            let n = enc.n;
            assert_eq!(out[..n], leb128(v), "{v:#x}");
            for tail in [0, 8] {
                let mut bytes = out[..n].to_vec();
                bytes.resize(n + tail, 0xff);
                let mut dec = Dec { bytes: &bytes, base: Base::default() };
                assert_eq!((dec.varint(), dec.bytes.len()), (v, tail), "{v:#x}");
            }
        }
    }

    /// The longest event a chunk must have room for is a check miss with
    /// every field at full width, and it takes [`MAX_ENCODED`] bytes; a
    /// receive with a full-width peer and send stamp takes fewer.
    #[test]
    fn a_full_width_check_miss_is_the_longest_encoding() {
        let mut base = Base { t: 1 << 63, block: 1 << 63 };
        let kind = EventKind::CheckMiss {
            id: u32::MAX,
            block: 0,
            addr: 1 << 63,
            len: u32::MAX,
            write: true,
        };
        let bytes = encode(&Stamped { t: 0, kind }, None, &mut base, &mut Labels::default());
        assert_eq!(bytes.len(), MAX_ENCODED);
        let mut base = Base { t: 1 << 63, block: 1 << 63 };
        let kind = EventKind::MsgRecv { msg: MSGS[0], peer: u32::MAX, block: 0 };
        let stamp = Some(1 << 63);
        let bytes = encode(&Stamped { t: 0, kind }, stamp, &mut base, &mut Labels::default());
        assert_eq!(bytes.len(), MAX_ENCODED - 4, "a label id of one byte, not five");
    }

    /// A label is the very `&'static str` recorded, even one equal to
    /// another label but stored apart.
    #[test]
    fn labels_come_back_by_identity() {
        let copy: &'static str = Box::leak(String::from(MSGS[0]).into_boxed_str());
        let mut labels = Labels::default();
        let ids = [MSGS[0], STATES[0], copy, MSGS[0]].map(|l| labels.intern(l));
        assert_eq!(ids, [0, 1, 2, 0]);
        assert!(std::ptr::eq(labels.get(2), copy) && std::ptr::eq(labels.get(0), MSGS[0]));
    }

    /// Event `i` of a stream whose encodings run from 3 to 41 bytes, so
    /// that chunks close after irregular numbers of events.
    fn varied(i: u64) -> Stamped {
        let x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let t = if i.is_multiple_of(5) { x } else { i };
        Stamped { t, kind: kind_of(x % 19, x >> 8, x.rotate_left(29) ^ i) }
    }

    /// The most chunks (the spare included) a ring of `cap` events can
    /// hold: every chunk but the oldest and the newest is closed, so holds
    /// more than `CHUNK_BYTES − MAX_ENCODED` bytes of events retained.
    fn chunk_bound(cap: usize) -> usize {
        (cap * MAX_ENCODED).div_ceil(CHUNK_BYTES - MAX_ENCODED) + 2
    }

    /// Rings of one event, of fewer events than a chunk holds and of
    /// several chunks' worth, fed until they have wrapped across many
    /// chunk boundaries, retain what a `VecDeque` bounded the same way
    /// retains, oldest first, and drop as many. All the while a ring holds
    /// at most [`chunk_bound`] chunks.
    #[test]
    fn a_chunked_ring_matches_a_bounded_deque() {
        for cap in [1, 7, 5_000] {
            let mut r = Rings::new(2, cap);
            let mut model: VecDeque<Stamped> = VecDeque::new();
            let mut dropped = 0u64;
            let (fed, mut opened) = ((10 * cap).max(10_000), 0);
            for i in 0..fed as u64 {
                let e = varied(i);
                r.push(0, e.t, &e.kind, None);
                model.push_back(e);
                if model.len() > cap {
                    model.pop_front();
                    dropped += 1;
                }
                let ring = &r.rings[0];
                if ring.head.events == 1 {
                    opened += 1;
                }
                let held = ring.full.len() + 1 + usize::from(ring.spare.is_some());
                assert!(held <= chunk_bound(cap), "cap {cap}, event {i}: {held} chunks");
                if i.is_multiple_of(997) || i + 1 == fed as u64 {
                    let pe = r.proc(0);
                    assert!(pe.events().eq(model.iter().copied()), "cap {cap}, event {i}");
                    assert_eq!((pe.len(), pe.dropped), (model.len(), dropped), "cap {cap}");
                }
            }
            assert!(opened > 3, "cap {cap}: the ring wrapped across {opened} chunks only");
            assert_eq!(dropped, (fed - cap) as u64);
            assert!(r.proc(1).is_empty());
        }
    }
}
