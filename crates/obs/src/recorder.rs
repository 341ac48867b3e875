//! The recorder: per-processor bounded event rings plus the streaming
//! aggregators (slice tiling, Figure 7 messages, the sharing profiler), and
//! the immutable [`EventLog`] a finished run hands to the exporters.
//!
//! A ring keeps each event in a 24-byte [`Slot`], packed when it is recorded
//! and unpacked into a [`Stamped`] when an exporter reads it, in chunks of
//! [`CHUNK`] slots allocated as the ring fills.

use crate::event::{DowngradeAction, Event, EventKind, Stamped};
use crate::fig4::Fig4Agg;
use crate::profile::{ProfileAgg, SpaceMap};
use crate::rederive::MsgAgg;
use shasta_stats::{Hops, MissKind, MsgStats, TimeCat};

/// Slots per ring chunk. A ring allocates its next chunk when the last one
/// fills (a ring smaller than a chunk allocates only its capacity), so a
/// log holds what its processors recorded rather than `procs × capacity`,
/// and a chunk is small enough to be carved from heap memory an earlier
/// log freed instead of fresh pages.
const CHUNK: usize = 4_096;

/// Bits of [`Slot::head`] holding the event's time.
const TIME_BITS: u32 = 48;
/// Bits of [`Slot::head`] above the time holding the kind's tag.
const TAG_BITS: u32 = 5;
/// Shift of the small fields, the 11 bits above the tag.
const SMALL_SHIFT: u32 = TIME_BITS + TAG_BITS;

/// One retained event, packed: [`Stamped`] takes 40 bytes.
///
/// * `head`: the time (low 48 bits), the kind's tag (5 bits) and the
///   kind's small fields (the top 11 bits): a write or `to_invalid` flag, a
///   [`MissKind`], [`Hops`] or [`TimeCat`] index, a [`DowngradeAction`]
///   variant;
/// * `a`: the block address, a slice's cycles, or a check miss's block and
///   address as two `u32` halves;
/// * `b`: the `u32` fields, low half first: a peer with its message
///   label's id above it, a check miss's id and length, a requester and its
///   acks, a state label's id.
///
/// Labels are ids into the ring set's [`Rings::labels`].
#[derive(Clone, Copy)]
struct Slot {
    head: u64,
    a: u64,
    b: u64,
}

/// Each [`EventKind`] variant's tag in [`Slot::head`].
mod tag {
    pub const CHECK_MISS: u64 = 0;
    pub const FALSE_MISS: u64 = 1;
    pub const MISS_RESOLVED: u64 = 2;
    pub const PRIVATE_UPGRADE: u64 = 3;
    pub const MISS_MERGED: u64 = 4;
    pub const MSG_SEND: u64 = 5;
    pub const MSG_RECV: u64 = 6;
    pub const HOME_INVALIDATE: u64 = 7;
    pub const DIR_QUEUED: u64 = 8;
    pub const DOWNGRADE_START: u64 = 9;
    pub const DOWNGRADE_ACK: u64 = 10;
    pub const DOWNGRADE_DONE: u64 = 11;
    pub const POLL_DRAIN: u64 = 12;
    pub const LINE_LOCK_ACQUIRE: u64 = 13;
    pub const LINE_LOCK_RELEASE: u64 = 14;
    pub const BLOCK_STATE: u64 = 15;
    pub const STALL_BEGIN: u64 = 16;
    pub const SLICE: u64 = 17;
}

/// `lo` in the low half of a word, `hi` in the high half.
fn halves(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

/// `v` as a `u32`, panicking with the field's name if it does not fit.
fn narrow(v: u64, field: &str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("{field} = {v:#x} does not fit in 32 bits"))
}

impl Slot {
    /// Packs `kind` at time `t`, interning its label in `labels`.
    ///
    /// # Panics
    ///
    /// If `t` is 2⁴⁸ or later, or a check miss's block or address does not
    /// fit in 32 bits: no field is truncated.
    ///
    /// Borrows `kind` so that each arm reads only its own fields, at their
    /// own widths. A by-value kind was first copied whole, with 8-byte loads
    /// across its narrower fields just after the engine stored them; one of
    /// those loads drew ~8 % of a recorded run's CPU samples, more than the
    /// narrower slot saved.
    fn pack(t: u64, kind: &EventKind, labels: &mut Labels) -> Slot {
        assert!(t < 1 << TIME_BITS, "event time t = {t} does not fit in {TIME_BITS} bits");
        let (tag, small, a, b) = match *kind {
            EventKind::CheckMiss { id, block, addr, len, write } => {
                let a = halves(narrow(block, "check-miss block"), narrow(addr, "check-miss addr"));
                (tag::CHECK_MISS, u64::from(write), a, halves(id, len))
            }
            EventKind::FalseMiss { block } => (tag::FALSE_MISS, 0, block, 0),
            EventKind::MissResolved { block, kind, hops } => {
                (tag::MISS_RESOLVED, kind as u64 | (hops as u64) << 2, block, 0)
            }
            EventKind::PrivateUpgrade { block } => (tag::PRIVATE_UPGRADE, 0, block, 0),
            EventKind::MissMerged { block } => (tag::MISS_MERGED, 0, block, 0),
            EventKind::MsgSend { msg, peer, block } => {
                (tag::MSG_SEND, 0, block, halves(peer, labels.intern(msg)))
            }
            EventKind::MsgRecv { msg, peer, block } => {
                (tag::MSG_RECV, 0, block, halves(peer, labels.intern(msg)))
            }
            EventKind::HomeInvalidate { block, ack_to } => {
                (tag::HOME_INVALIDATE, 0, block, u64::from(ack_to))
            }
            EventKind::DirQueued { block, requester, kind } => {
                (tag::DIR_QUEUED, kind as u64, block, u64::from(requester))
            }
            EventKind::DowngradeStart { block, to_invalid, targets } => {
                (tag::DOWNGRADE_START, u64::from(to_invalid), block, u64::from(targets))
            }
            EventKind::DowngradeAck { block, remaining } => {
                (tag::DOWNGRADE_ACK, 0, block, u64::from(remaining))
            }
            EventKind::DowngradeDone { block, action } => {
                let (variant, b) = match action {
                    DowngradeAction::ReadReply { requester } => (0, u64::from(requester)),
                    DowngradeAction::WriteReply { requester, acks } => (1, halves(requester, acks)),
                    DowngradeAction::InvAck { ack_to } => (2, u64::from(ack_to)),
                };
                (tag::DOWNGRADE_DONE, variant, block, b)
            }
            EventKind::PollDrain { handled } => (tag::POLL_DRAIN, 0, 0, u64::from(handled)),
            EventKind::LineLockAcquire { block } => (tag::LINE_LOCK_ACQUIRE, 0, block, 0),
            EventKind::LineLockRelease { block } => (tag::LINE_LOCK_RELEASE, 0, block, 0),
            EventKind::BlockState { block, state } => {
                (tag::BLOCK_STATE, 0, block, u64::from(labels.intern(state)))
            }
            EventKind::StallBegin { cat } => (tag::STALL_BEGIN, cat as u64, 0, 0),
            EventKind::Slice { cat, cycles } => (tag::SLICE, cat as u64, cycles, 0),
        };
        Slot { head: t | tag << TIME_BITS | small << SMALL_SHIFT, a, b }
    }

    /// The event this slot holds, its labels looked up in `labels`.
    fn unpack(self, labels: &Labels) -> Stamped {
        let t = self.head & ((1 << TIME_BITS) - 1);
        let small = (self.head >> SMALL_SHIFT) as usize;
        let (block, lo, hi) = (self.a, self.b as u32, (self.b >> 32) as u32);
        let kind = match self.head >> TIME_BITS & ((1 << TAG_BITS) - 1) {
            tag::CHECK_MISS => EventKind::CheckMiss {
                id: lo,
                block: u64::from(self.a as u32),
                addr: self.a >> 32,
                len: hi,
                write: small & 1 != 0,
            },
            tag::FALSE_MISS => EventKind::FalseMiss { block },
            tag::MISS_RESOLVED => EventKind::MissResolved {
                block,
                kind: MissKind::ALL[small & 3],
                hops: Hops::ALL[small >> 2 & 1],
            },
            tag::PRIVATE_UPGRADE => EventKind::PrivateUpgrade { block },
            tag::MISS_MERGED => EventKind::MissMerged { block },
            tag::MSG_SEND => EventKind::MsgSend { msg: labels.get(hi), peer: lo, block },
            tag::MSG_RECV => EventKind::MsgRecv { msg: labels.get(hi), peer: lo, block },
            tag::HOME_INVALIDATE => EventKind::HomeInvalidate { block, ack_to: lo },
            tag::DIR_QUEUED => {
                EventKind::DirQueued { block, requester: lo, kind: MissKind::ALL[small] }
            }
            tag::DOWNGRADE_START => {
                EventKind::DowngradeStart { block, to_invalid: small & 1 != 0, targets: lo }
            }
            tag::DOWNGRADE_ACK => EventKind::DowngradeAck { block, remaining: lo },
            tag::DOWNGRADE_DONE => {
                let action = match small {
                    0 => DowngradeAction::ReadReply { requester: lo },
                    1 => DowngradeAction::WriteReply { requester: lo, acks: hi },
                    _ => DowngradeAction::InvAck { ack_to: lo },
                };
                EventKind::DowngradeDone { block, action }
            }
            tag::POLL_DRAIN => EventKind::PollDrain { handled: lo },
            tag::LINE_LOCK_ACQUIRE => EventKind::LineLockAcquire { block },
            tag::LINE_LOCK_RELEASE => EventKind::LineLockRelease { block },
            tag::BLOCK_STATE => EventKind::BlockState { block, state: labels.get(lo) },
            tag::STALL_BEGIN => EventKind::StallBegin { cat: TimeCat::ALL[small] },
            tag::SLICE => EventKind::Slice { cat: TimeCat::ALL[small], cycles: self.a },
            other => unreachable!("no event kind has slot tag {other}"),
        };
        Stamped { t, kind }
    }
}

/// The message and state labels the rings refer to by id, in first-use
/// order. A label is found by pointer identity: the engine's labels are
/// string literals, so a handful of entries cover a run, and a lookup hands
/// back the very `&'static str` that was recorded.
#[derive(Default)]
struct Labels(Vec<&'static str>);

impl Labels {
    fn intern(&mut self, label: &'static str) -> u32 {
        let id = match self.0.iter().position(|&l| std::ptr::eq(l, label)) {
            Some(id) => id,
            None => {
                self.0.push(label);
                self.0.len() - 1
            }
        };
        narrow(id as u64, "label id")
    }

    fn get(&self, id: u32) -> &'static str {
        self.0[id as usize]
    }
}

/// Every processor's bounded ring of recent events, and the labels their
/// slots refer to. Every event in ring `p` happened on `p`, so a slot does
/// not store its processor. When a ring is full, its oldest event is
/// overwritten and counted as dropped — the exported timeline is a suffix
/// of the run, but aggregation (fed before eviction) is unaffected.
#[derive(Default)]
struct Rings {
    cap: usize,
    rings: Box<[Ring]>,
    labels: Labels,
}

/// One processor's ring: its slots in chunks of [`CHUNK`], slot `i` at
/// `chunks[i / CHUNK][i % CHUNK]`.
#[derive(Default)]
struct Ring {
    chunks: Vec<Vec<Slot>>,
    /// Slots written, from the ring's start: `cap` once it has wrapped.
    len: usize,
    /// Index of the oldest retained event once the ring has wrapped.
    start: usize,
    dropped: u64,
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

    fn push(&mut self, p: usize, t: u64, kind: &EventKind) {
        let slot = Slot::pack(t, kind, &mut self.labels);
        let ring = &mut self.rings[p];
        if ring.len < self.cap {
            if ring.len.is_multiple_of(CHUNK) {
                ring.chunks.push(Vec::with_capacity(CHUNK.min(self.cap - ring.len)));
            }
            ring.chunks.last_mut().expect("a chunk was pushed above").push(slot);
            ring.len += 1;
        } else {
            ring.chunks[ring.start / CHUNK][ring.start % CHUNK] = slot;
            // Wrapping increment without the integer division a `% cap`
            // would cost on this per-event path.
            ring.start += 1;
            if ring.start == self.cap {
                ring.start = 0;
            }
            ring.dropped += 1;
        }
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
    /// The retained slots, oldest first.
    fn slots(&self) -> impl Iterator<Item = &Slot> + '_ {
        let flat = self.chunks.iter().flatten();
        flat.clone().skip(self.start).chain(flat.take(self.start))
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
    /// front: each ring grows by a chunk of 4 096 slots as it fills.
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
            self.stream(t, p, kind);
        }
    }

    /// Passes one event through the aggregators, in global record order —
    /// the sharing profiler's transitions depend on the cross-processor
    /// interleaving — and then into `p`'s ring. Kept out of line so that
    /// each of the engine's event sites inlines only `record`'s branch.
    #[inline(never)]
    fn stream(&mut self, t: u64, p: u32, kind: EventKind) {
        if let EventKind::Slice { cycles, .. } = kind {
            self.agg.observe_slice(p, t, cycles);
        }
        if let Some(msg) = &mut self.msg {
            msg.observe(p, &kind);
        }
        if let Some(profile) = &mut self.profile {
            profile.observe(p, &kind);
        }
        self.rings.push(p as usize, t, &kind);
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
    /// each unpacked from its ring slot.
    pub fn events(&self) -> impl Iterator<Item = Stamped> + 'a {
        let labels = self.labels;
        self.ring.slots().map(move |s| s.unpack(labels))
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

    #[test]
    fn a_ring_slot_is_twenty_four_bytes() {
        // Sixteen rings of 65 536 slots hold 24 MiB at most; a wider slot
        // widens every retained event.
        assert_eq!(std::mem::size_of::<Slot>(), 24);
        assert!(std::mem::size_of::<Stamped>() > std::mem::size_of::<Slot>());
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
                block: u64::from(u32_of(y.rotate_left(7))),
                addr: u64::from(u32_of(x.rotate_left(13))),
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
            _ => EventKind::Slice { cat, cycles: block },
        }
    }

    proptest! {
        /// Every variant, with `u32::MAX` fields, `t` = 2⁴⁸ − 1 and the
        /// labels of two tables interned into one, unpacks to what was
        /// packed, whatever was packed before it.
        #[test]
        fn every_kind_packs_and_unpacks_to_itself(
            events in proptest::collection::vec(
                (0u64..18, any::<u64>(), any::<u64>(), any::<u64>()),
                1..80,
            ),
        ) {
            let mut labels = Labels::default();
            let stamped: Vec<Stamped> = events
                .iter()
                .map(|&(v, x, y, t)| {
                    let t = match t % 3 {
                        0 => 0,
                        1 => (1 << TIME_BITS) - 1,
                        _ => t >> (64 - TIME_BITS),
                    };
                    Stamped { t, kind: kind_of(v, x, y) }
                })
                .collect();
            let slots: Vec<Slot> =
                stamped.iter().map(|e| Slot::pack(e.t, &e.kind, &mut labels)).collect();
            for (slot, e) in slots.iter().zip(&stamped) {
                prop_assert_eq!(slot.unpack(&labels), *e);
            }
        }
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

    /// A ring one chunk and three slots long, fed three chunks' worth of
    /// events, retains what a `VecDeque` bounded the same way retains,
    /// oldest first, and drops as many. A chunk holds at most what its ring
    /// has room for.
    #[test]
    fn a_chunked_ring_matches_a_bounded_deque() {
        let cap = CHUNK + 3;
        let mut r = Recorder::enabled(3, cap);
        let mut model: Vec<VecDeque<Stamped>> = vec![VecDeque::new(); 3];
        let mut dropped = [0u64; 3];
        let fed = [3 * CHUNK, CHUNK + 1, 5];
        for i in 0..3 * CHUNK {
            for p in (0..3).filter(|&p| i < fed[p]) {
                let kind = EventKind::DowngradeAck { block: 0x40 * p as u64, remaining: i as u32 };
                let e = Stamped { t: i as u64, kind };
                r.record(e.t, p as u32, e.kind);
                model[p].push_back(e);
                if model[p].len() > cap {
                    model[p].pop_front();
                    dropped[p] += 1;
                }
            }
        }
        let capacities = |r: &Recorder, p: usize| -> Vec<usize> {
            r.rings.rings[p].chunks.iter().map(Vec::capacity).collect()
        };
        assert_eq!(capacities(&r, 0), [CHUNK, 3]);
        assert_eq!(capacities(&r, 1), [CHUNK, 3]);
        assert_eq!(capacities(&r, 2), [CHUNK]);
        let mut small = Recorder::enabled(1, 5);
        small.record(0, 0, EventKind::PollDrain { handled: 1 });
        assert_eq!(capacities(&small, 0), [5]);
        let log = r.into_log();
        for p in 0..3 {
            let pe = log.proc(p as u32);
            assert_eq!(pe.events().collect::<Vec<_>>(), Vec::from(model[p].clone()), "P{p}");
            assert_eq!((pe.len(), pe.dropped), (model[p].len(), dropped[p]), "P{p}");
        }
        assert_eq!(dropped, [(3 * CHUNK - cap) as u64, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "event time t = 281474976710656 does not fit in 48 bits")]
    fn a_time_past_48_bits_panics() {
        Recorder::enabled(1, 8).record(1 << 48, 0, EventKind::MissMerged { block: 0x40 });
    }

    #[test]
    #[should_panic(expected = "check-miss block = 0x100000000 does not fit in 32 bits")]
    fn a_check_miss_block_past_32_bits_panics() {
        let kind = EventKind::CheckMiss { id: 1, block: 1 << 32, addr: 0x48, len: 8, write: true };
        Recorder::enabled(1, 8).record(1, 0, kind);
    }

    #[test]
    #[should_panic(expected = "check-miss addr = 0x100000008 does not fit in 32 bits")]
    fn a_check_miss_addr_past_32_bits_panics() {
        let kind =
            EventKind::CheckMiss { id: 1, block: 0x40, addr: (1 << 32) + 8, len: 8, write: true };
        Recorder::enabled(1, 8).record(1, 0, kind);
    }
}
