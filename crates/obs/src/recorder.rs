//! The recorder: per-processor bounded event rings plus the streaming
//! aggregators (slice tiling, Figure 7 messages, the sharing profiler), and
//! the immutable [`EventLog`] a finished run hands to the exporters.

use crate::event::{Event, EventKind, Stamped};
use crate::fig4::Fig4Agg;
use crate::profile::{ProfileAgg, SpaceMap};
use crate::rederive::MsgAgg;
use shasta_stats::MsgStats;
use std::mem::MaybeUninit;

/// Every processor's bounded ring of recent events, in one allocation: ring
/// `p` is `slots[p * cap..][..cap]`. A slot holds a [`Stamped`] event, not
/// an [`Event`]: every event in ring `p` happened on `p`. When a ring is
/// full, its oldest event is overwritten and counted as dropped — the
/// exported timeline is a suffix of the run, but aggregation (fed before
/// eviction) is unaffected.
///
/// The allocation is made once, when recording is enabled, and its pages
/// are touched only as events are written. One block sized `procs × cap`
/// (40 MiB for sixteen rings of 65 536) lies past the allocator's mapping
/// threshold and goes back to the system when the log drops, where sixteen
/// rings allocated apart fill and split holes between the run's long-lived
/// heap nodes.
#[derive(Default)]
struct Rings {
    cap: usize,
    slots: Box<[MaybeUninit<Stamped>]>,
    rings: Vec<Ring>,
}

/// Each ring's evictions and written events, not the unwritten slots.
impl std::fmt::Debug for Rings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rings = self.rings.iter().enumerate().map(|(p, r)| (r.dropped, self.written(p)));
        f.debug_list().entries(rings).finish()
    }
}

/// Where one processor's ring stands.
#[derive(Clone, Copy, Debug, Default)]
struct Ring {
    /// Slots written, from the ring's start: `cap` once it has wrapped.
    len: usize,
    /// Index of the oldest retained event once the ring has wrapped.
    start: usize,
    dropped: u64,
}

impl Rings {
    fn new(procs: usize, cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        let slots = procs.checked_mul(cap).expect("procs × ring capacity overflows");
        Rings { cap, slots: Box::new_uninit_slice(slots), rings: vec![Ring::default(); procs] }
    }

    fn push(&mut self, p: usize, e: Stamped) {
        let (ring, slots) = (&mut self.rings[p], &mut self.slots[p * self.cap..]);
        if ring.len < self.cap {
            slots[ring.len].write(e);
            ring.len += 1;
        } else {
            slots[ring.start].write(e);
            // Wrapping increment without the integer division a `% cap`
            // would cost on this per-event path.
            ring.start += 1;
            if ring.start == self.cap {
                ring.start = 0;
            }
            ring.dropped += 1;
        }
    }

    /// Puts every wrapped ring's oldest event first, in place.
    fn unwrap_in_place(&mut self) {
        for (p, ring) in self.rings.iter_mut().enumerate() {
            self.slots[p * self.cap..][..ring.len].rotate_left(ring.start);
            ring.start = 0;
        }
    }

    /// Processor `p`'s retained events, in ring order: oldest first once
    /// [`Rings::unwrap_in_place`] has run.
    #[allow(unsafe_code)]
    fn written(&self, p: usize) -> &[Stamped] {
        let slots = &self.slots[p * self.cap..][..self.rings[p].len];
        // SAFETY: the first `len` slots of ring `p` are initialised: `push`
        // writes them in order before counting them, later overwrites only
        // slots below `len`, and `unwrap_in_place` permutes those among
        // themselves. `MaybeUninit<Stamped>` has `Stamped`'s layout.
        unsafe { &*(std::ptr::from_ref(slots) as *const [Stamped]) }
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
    /// events per processor in the exported timeline. Reserves room for
    /// `procs × ring_capacity` events at once (address space: a page is
    /// touched when an event is first written to it).
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
        self.rings.push(p as usize, Stamped { t, kind });
    }

    /// Consumes the recorder into the immutable log handed to exporters;
    /// the rings stay where they were written.
    pub fn into_log(mut self) -> EventLog {
        self.rings.unwrap_in_place();
        EventLog { rings: self.rings, agg: self.agg, msg: self.msg, profile: self.profile }
    }
}

/// The retained timeline of one processor, lent from its ring.
#[derive(Clone, Copy, Debug)]
pub struct ProcEvents<'a> {
    /// The processor every event here happened on.
    pub proc: u32,
    /// Retained events in record (and therefore time) order.
    pub events: &'a [Stamped],
    /// Events evicted from the ring before export (0 = complete timeline).
    pub dropped: u64,
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
        let dropped = self.rings.rings[p as usize].dropped;
        ProcEvents { proc: p, events: self.rings.written(p as usize), dropped }
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
        (0..self.procs() as u32).flat_map(|p| self.proc(p).events.iter().map(move |e| e.on(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AllocSite;
    use shasta_stats::{MsgClass, TimeCat};

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
        let ts: Vec<u64> = pe.events.iter().map(|e| e.t).collect();
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
        assert_eq!(log.proc(0).events.len(), 2, "timeline is a suffix");
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
        assert_eq!(log.proc(0).events.len(), 1);
        assert_eq!(log.proc(1).events.len(), 1);
        assert_eq!(log.proc(1).proc, 1);
        let procs: Vec<(u64, u32)> = log.iter().map(|e| (e.t, e.proc)).collect();
        assert_eq!(procs, vec![(1, 0), (2, 1)], "the ring hands its processor back");
    }
}
