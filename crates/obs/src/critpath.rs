//! Per-run critical-path analysis over the recorded event stream.
//!
//! Figure 4 explains *where cycles go in aggregate*; this module answers
//! the operator's question: **which chain of misses, wire hops, and waits
//! actually bounded the run?** It walks *backward* from the run's final
//! instant along two causal edges the engine records, emitting one
//! attributed segment per step:
//!
//! * the **delivery edge**: each [`EventKind::MsgRecv`] carries the cycle
//!   of its sender's [`EventKind::MsgSend`], whichever node processor
//!   handled it ([`Recorder::record_recv`](crate::Recorder::record_recv));
//! * the **wake edge**: an [`EventKind::Woken`] names the processor whose
//!   wake set a stall's resume time — a node mate whose reply filled a
//!   merged miss (§3.4.2), a lock or barrier manager, a completed store.
//!
//! # The walk
//!
//! Each processor's timeline becomes intervals: paid slices
//! ([`EventKind::Slice`]) and **stall windows** (a
//! [`EventKind::StallBegin`] at `s` paired with the next slice recorded at
//! `s` with its category — the engine emits the whole window as one slice
//! at resume, just after its `Woken`, if any). Intervals, receives and
//! sends are kept in time order and the walk only moves back in time, so
//! each step is a binary search. From `(p, elapsed)` for the processor
//! whose activity reaches the run's end, each step looks at what covered
//! the instant just before the current time `t` on the current processor:
//!
//! * a **normal slice** `[a, b)` emits `[a, t)` as [`PathCat::Compute`]
//!   (task time) or [`PathCat::Protocol`] (message handling, checks,
//!   bookkeeping) and continues at `(p, a)`;
//! * a **stall window** `[s, e)` is ended by the later of its last arrival
//!   before `t` and its recorded wake (which counts when `t == e`):
//!   * a wake by `q` hops to `(q, e)`, where `q`'s clock stood when it
//!     raised the wake floor;
//!   * an arrival at `w` sent by `q` at `u` emits `[w, t)` as
//!     [`PathCat::Queueing`] (or [`PathCat::Sync`] for lock/barrier
//!     waits), then `[u, w)` as [`PathCat::Wire`] attributed to the node
//!     pair and allocation site, and hops to `(q, u)`;
//!   * with neither, the window was the processor's own work (an inline
//!     self-message, or its own request issued before the first arrival):
//!     it emits `[s, t)` in the wait category and continues at `(p, s)`;
//! * activity that *begins exactly at* a dispatch (an event-driven home
//!   handler, a downgrade ack waking the fan-out collector) hops through
//!   the wire to the sender — how a Figure 2(b) downgrade chain requester
//!   → home → copy holder → home → requester is followed end to end;
//! * a remaining **gap** (an idle processor whose clock jumped) emits
//!   [`PathCat::Queueing`] back to its previous interval's end.
//!
//! Every segment ends exactly where the previous (later) one began, so the
//! emitted segments **tile `[0, elapsed)` exactly by construction** — the
//! zero-tolerance crosscheck of [`CritPath::crosscheck`]. A `Wire` segment
//! spans send to *dispatch* (transit plus any receiver-side queueing before
//! the poll that handled it).
//!
//! [`analyze`] refuses a receive without a send stamp and a hop to a send
//! its sender never recorded.

use std::collections::BTreeMap;

use shasta_stats::{CritReport, TimeCat};

use crate::event::EventKind;
use crate::profile::SpaceMap;
use crate::recorder::EventLog;

/// Category of one critical-path segment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PathCat {
    /// Application compute and inline checks (task slices).
    Compute,
    /// Protocol occupancy: message dispatch and handling, entry overhead,
    /// private-state bookkeeping — any paid non-task slice.
    Protocol,
    /// A message between processors: send to dispatch (transit plus
    /// receiver-side queueing before the handling poll).
    Wire,
    /// Waiting inside a miss/store stall window after (or without) the
    /// satisfying arrival, and idle scheduling gaps.
    Queueing,
    /// Lock, barrier, and release waits.
    Sync,
}

impl PathCat {
    /// All categories in report order.
    pub const ALL: [PathCat; 5] =
        [PathCat::Compute, PathCat::Protocol, PathCat::Wire, PathCat::Queueing, PathCat::Sync];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PathCat::Compute => "compute",
            PathCat::Protocol => "protocol",
            PathCat::Wire => "wire",
            PathCat::Queueing => "queueing",
            PathCat::Sync => "sync",
        }
    }
}

/// One segment of the critical path: `[start, end)` on `proc`.
#[derive(Clone, Debug)]
pub struct Segment {
    /// First cycle covered.
    pub start: u64,
    /// One past the last cycle covered.
    pub end: u64,
    /// The processor whose activity (or wait) covered the span.
    pub proc: u32,
    /// What bounded the run during the span.
    pub cat: PathCat,
    /// Allocation-site label of the block involved, when known.
    pub site: Option<&'static str>,
    /// `(sender node, receiver node)` for [`PathCat::Wire`] segments.
    pub nodes: Option<(u32, u32)>,
    /// Protocol-message label for wire/wait segments, when known.
    pub msg: Option<&'static str>,
}

impl Segment {
    /// A segment with no site, node pair or message.
    fn new(start: u64, end: u64, proc: u32, cat: PathCat) -> Self {
        Segment { start, end, proc, cat, site: None, nodes: None, msg: None }
    }

    /// Cycles covered by the segment.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// The run's critical path: attributed segments tiling `[0, elapsed)`.
#[derive(Clone, Debug)]
pub struct CritPath {
    /// The run's `elapsed_cycles`.
    pub elapsed: u64,
    /// Segments in ascending time order; contiguous from 0 to `elapsed`.
    pub segments: Vec<Segment>,
}

impl CritPath {
    /// Wire hops on the path.
    pub fn wire_hops(&self) -> usize {
        self.segments.iter().filter(|s| s.cat == PathCat::Wire).count()
    }

    /// Always 0: every edge the walk follows is recorded, so no stall
    /// window is attributed wholesale. Kept for `benchmark/` until ROADMAP
    /// item 1(e) retires it.
    pub fn fallback_cycles(&self) -> u64 {
        0
    }

    /// `(category, cycles, segment count)` in fixed report order.
    pub fn by_cat(&self) -> Vec<(PathCat, u64, usize)> {
        PathCat::ALL
            .iter()
            .map(|&c| {
                let (mut cyc, mut n) = (0u64, 0usize);
                for s in self.segments.iter().filter(|s| s.cat == c) {
                    cyc += s.cycles();
                    n += 1;
                }
                (c, cyc, n)
            })
            .collect()
    }

    /// The category covering the most path cycles.
    pub fn top_cat(&self) -> (PathCat, u64) {
        self.by_cat()
            .into_iter()
            .max_by_key(|&(_, cyc, _)| cyc)
            .map(|(c, cyc, _)| (c, cyc))
            .unwrap()
    }

    /// Zero-tolerance accounting: segments must be non-empty, contiguous,
    /// and tile `[0, elapsed)` exactly.
    pub fn crosscheck(&self) -> Result<(), String> {
        let mut at = 0u64;
        for s in &self.segments {
            if s.end <= s.start {
                return Err(format!("empty critical-path segment at [{}, {})", s.start, s.end));
            }
            if s.start != at {
                return Err(format!(
                    "critical path does not tile: segment starts at {} but previous ended at {at}",
                    s.start
                ));
            }
            at = s.end;
        }
        if at != self.elapsed {
            return Err(format!("critical path covers {at} of {} elapsed cycles", self.elapsed));
        }
        Ok(())
    }

    /// Rolls the path up into the plain-data report `shasta-stats` renders
    /// (`critical_path_report`).
    pub fn report(&self) -> CritReport {
        let by_cat =
            self.by_cat().into_iter().map(|(c, cyc, n)| (c.label(), cyc, n)).collect::<Vec<_>>();
        let mut sites: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.segments {
            if let Some(site) = s.site {
                *sites.entry(site).or_insert(0) += s.cycles();
            }
        }
        let mut by_site: Vec<(String, u64)> =
            sites.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        by_site.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut pairs: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for s in &self.segments {
            if let Some(nodes) = s.nodes {
                *pairs.entry(nodes).or_insert(0) += s.cycles();
            }
        }
        let mut by_pair: Vec<(String, u64)> =
            pairs.into_iter().map(|((a, b), v)| (format!("n{a}->n{b}"), v)).collect();
        by_pair.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        CritReport {
            elapsed_cycles: self.elapsed,
            segments: self.segments.len(),
            wire_hops: self.wire_hops(),
            fallback_segments: 0,
            fallback_cycles: 0,
            by_cat,
            by_site,
            by_pair,
        }
    }
}

/// A delivery: the message `msg` about `block` from `peer`, dispatched at
/// `t`, sent at `sent`.
#[derive(Clone, Copy, Debug)]
struct Recv {
    t: u64,
    sent: u64,
    peer: u32,
    msg: &'static str,
    block: u64,
}

/// A recorded send: what [`Recv::sent`] must name.
#[derive(Clone, Copy, Debug)]
struct Sent {
    t: u64,
    msg: &'static str,
    block: u64,
}

/// One preprocessed interval of a processor's timeline.
#[derive(Clone, Copy, Debug)]
struct Iv {
    start: u64,
    end: u64,
    cat: TimeCat,
    /// `None` for a normal paid slice; for a stall window, `Some` of the
    /// processor whose wake set the window's end, if one did.
    stall: Option<Option<u32>>,
}

/// One processor's timeline, each list in time order.
#[derive(Default)]
struct ProcView {
    ivs: Vec<Iv>,
    recvs: Vec<Recv>,
    sends: Vec<Sent>,
}

impl ProcView {
    /// The last interval starting before `t` (it covers the instant before
    /// `t` if it ends no earlier).
    fn last_before(&self, t: u64) -> Option<Iv> {
        let i = self.ivs.partition_point(|iv| iv.start < t);
        i.checked_sub(1).map(|i| self.ivs[i])
    }

    /// The last delivery dispatched before `t` (or at `t`, with `at`).
    fn last_recv(&self, t: u64, at: bool) -> Option<Recv> {
        let i = self.recvs.partition_point(|r| r.t < t || (at && r.t == t));
        i.checked_sub(1).map(|i| self.recvs[i])
    }

    /// Whether this processor recorded the send delivery `r` names: its
    /// message and block, at its send stamp.
    fn sent(&self, r: Recv) -> bool {
        let from = self.sends.partition_point(|s| s.t < r.sent);
        let mut at = self.sends[from..].iter().take_while(|s| s.t == r.sent);
        at.any(|s| s.msg == r.msg && s.block == r.block)
    }
}

fn build_views(log: &EventLog) -> Result<Vec<ProcView>, String> {
    let mut views = Vec::with_capacity(log.procs());
    for p in 0..log.procs() as u32 {
        let mut view = ProcView::default();
        // At most one stall can be open per processor; a zero-length window
        // leaves its `StallBegin` unmatched (the engine skips empty slices)
        // and the next `StallBegin` simply replaces it.
        let mut pending: Option<(u64, TimeCat, Option<u32>)> = None;
        for (e, sent) in log.proc(p).stamped() {
            match e.kind {
                EventKind::StallBegin { cat } => pending = Some((e.t, cat, None)),
                EventKind::Woken { by } => {
                    if let Some((_, _, woken)) = pending.as_mut() {
                        *woken = Some(by);
                    }
                }
                EventKind::Slice { cat, cycles } => {
                    let stall = match pending {
                        Some((s, c, woken)) if s == e.t && c == cat => {
                            pending = None;
                            Some(woken)
                        }
                        _ => None,
                    };
                    view.ivs.push(Iv { start: e.t, end: e.t + cycles, cat, stall });
                }
                EventKind::MsgRecv { msg, peer, block } => {
                    let Some(sent) = sent else {
                        return Err(format!(
                            "P{p}'s {msg} from P{peer} at cycle {} carries no send stamp",
                            e.t
                        ));
                    };
                    view.recvs.push(Recv { t: e.t, sent, peer, msg, block });
                }
                EventKind::MsgSend { msg, block, .. } => {
                    view.sends.push(Sent { t: e.t, msg, block });
                }
                _ => {}
            }
        }
        view.ivs.sort_by_key(|iv| (iv.start, iv.end));
        view.recvs.sort_by_key(|r| r.t);
        view.sends.sort_by_key(|s| s.t);
        views.push(view);
    }
    Ok(views)
}

/// The processor the backward walk starts on: the lowest-numbered one
/// whose recorded activity covers the final instant, else the one whose
/// activity ends latest (its clock set `elapsed`).
fn pick_start(views: &[ProcView], elapsed: u64) -> u32 {
    for (p, v) in views.iter().enumerate() {
        if v.ivs.iter().any(|iv| iv.start < elapsed && iv.end >= elapsed) {
            return p as u32;
        }
    }
    views
        .iter()
        .enumerate()
        .max_by_key(|(p, v)| {
            let end = v.ivs.iter().map(|iv| iv.end).filter(|&e| e <= elapsed).max().unwrap_or(0);
            (end, std::cmp::Reverse(*p))
        })
        .map(|(p, _)| p as u32)
        .unwrap_or(0)
}

fn site_of(map: &SpaceMap, block: u64) -> Option<&'static str> {
    map.site_index_of(block).map(|i| map.allocs[i].label)
}

/// Computes the critical path of a recorded run.
///
/// `elapsed` is the run's `elapsed_cycles` (from
/// [`RunStats`](shasta_stats::RunStats)); the returned path's segments tile
/// `[0, elapsed)` exactly — [`analyze`] runs [`CritPath::crosscheck`]
/// before returning, so an `Ok` is already accounting-verified.
///
/// # Errors
///
/// Fails when a receive carries no send stamp, when a delivery the walk
/// follows names a send its sender did not record (that message, at that
/// cycle) or one no earlier than its dispatch, when wake edges form a
/// cycle, or when the accounting crosscheck finds a hole; the last three
/// would be bugs in the engine's records or the analyzer.
pub fn analyze(log: &EventLog, elapsed: u64) -> Result<CritPath, String> {
    if log.procs() == 0 && elapsed > 0 {
        return Err("critical-path analysis needs an enabled recorder".to_string());
    }
    let map: SpaceMap = log.profile().map(|pr| pr.map().clone()).unwrap_or_default();
    let views = build_views(log)?;
    // The wire segment of delivery `r` to `p`, once its send is verified.
    let wire = |r: Recv, p: u32| {
        if r.sent >= r.t || !views.get(r.peer as usize).is_some_and(|v| v.sent(r)) {
            return Err(format!(
                "P{p}'s {} from P{} at cycle {} names a send at cycle {} that P{} did not record \
                 before it",
                r.msg, r.peer, r.t, r.sent, r.peer
            ));
        }
        let nodes = Some((map.phys_node_of(r.peer), map.phys_node_of(p)));
        let site = site_of(&map, r.block);
        Ok(Segment {
            site,
            nodes,
            msg: Some(r.msg),
            ..Segment::new(r.sent, r.t, r.peer, PathCat::Wire)
        })
    };
    let mut segments: Vec<Segment> = Vec::new();
    let (mut t, mut p) = (elapsed, pick_start(&views, elapsed));
    // Wake hops taken at the current instant: more than one per processor
    // would be a cycle.
    let mut wakes = 0;
    while t > 0 {
        let view = &views[p as usize];
        let last = view.last_before(t);
        let before = t;
        match last.filter(|iv| iv.end >= t) {
            // No interval covers the instant, so activity *begins* exactly
            // at `t`: a message dispatched then started it (an event-driven
            // handler, a downgrade ack, a wake) — hop through the wire to
            // its sender. Otherwise the processor was idle (its clock
            // jumped): the gap is queueing.
            None => match view.last_recv(t, true).filter(|r| r.t == t) {
                Some(r) => {
                    segments.push(wire(r, p)?);
                    (p, t) = (r.peer, r.sent);
                }
                None => {
                    let prev_end = last.map_or(0, |iv| iv.end);
                    segments.push(Segment::new(prev_end, t, p, PathCat::Queueing));
                    t = prev_end;
                }
            },
            Some(iv) => match iv.stall {
                None => {
                    let task = iv.cat == TimeCat::Task;
                    let cat = if task { PathCat::Compute } else { PathCat::Protocol };
                    segments.push(Segment::new(iv.start, t, p, cat));
                    t = iv.start;
                }
                // A wake that set the window's end is its later cause: hop
                // to the waker, whose clock stood at `t`.
                Some(Some(by)) if t == iv.end => {
                    wakes += 1;
                    if wakes > views.len() {
                        return Err(format!("wake edges form a cycle at cycle {t} (P{p})"));
                    }
                    p = by;
                }
                Some(_) => {
                    let sync = iv.cat == TimeCat::Sync;
                    let wait = if sync { PathCat::Sync } else { PathCat::Queueing };
                    match view.last_recv(t, false).filter(|r| r.t >= iv.start) {
                        Some(r) => {
                            let (site, msg) = (site_of(&map, r.block), Some(r.msg));
                            segments.push(Segment { site, msg, ..Segment::new(r.t, t, p, wait) });
                            segments.push(wire(r, p)?);
                            (p, t) = (r.peer, r.sent);
                        }
                        // Neither an arrival nor a wake: the processor's own
                        // work (an inline self-message, or its own request
                        // issued before the first arrival).
                        None => {
                            segments.push(Segment::new(iv.start, t, p, wait));
                            t = iv.start;
                        }
                    }
                }
            },
        }
        if t < before {
            wakes = 0;
        }
    }
    segments.reverse();
    let path = CritPath { elapsed, segments };
    path.crosscheck()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn rec(r: &mut Recorder, t: u64, p: u32, kind: EventKind) {
        r.record(t, p, kind);
    }

    /// `p` dispatches `msg` from `peer` at `t`, sent at `sent`.
    fn recv(r: &mut Recorder, t: u64, p: u32, msg: &'static str, peer: u32, sent: u64) {
        r.record_recv(t, p, msg, peer, 0x1000, sent);
    }

    fn send(r: &mut Recorder, t: u64, p: u32, msg: &'static str, peer: u32) {
        rec(r, t, p, EventKind::MsgSend { msg, peer, block: 0x1000 });
    }

    /// `(start, end, proc, category)` of each segment.
    fn spans(path: &CritPath) -> Vec<(u64, u64, u32, PathCat)> {
        path.segments.iter().map(|s| (s.start, s.end, s.proc, s.cat)).collect()
    }

    /// The hand-worked Figure 2(b) downgrade chain: P0 write-misses on a
    /// block homed at P1 whose exclusive copy lives at P2. The home
    /// dispatches the request, downgrades P2, collects the ack, and
    /// replies. The analyzer must follow the full causal chain
    /// P0 → P1 → P2 → P1 → P0 and tile `[0, elapsed)` exactly.
    #[test]
    fn figure_2b_downgrade_chain_tiles_exactly() {
        use shasta_stats::TimeCat as Tc;
        let mut r = Recorder::new(3);
        let blk = 0x1000u64;
        // P0: compute, miss, request send, stall until the reply.
        rec(&mut r, 0, 0, EventKind::Slice { cat: Tc::Task, cycles: 10 });
        rec(
            &mut r,
            10,
            0,
            EventKind::CheckMiss { id: 1, block: blk, addr: blk, len: 8, write: true },
        );
        rec(&mut r, 10, 0, EventKind::MsgSend { msg: "write-req", peer: 1, block: blk });
        rec(&mut r, 10, 0, EventKind::Slice { cat: Tc::Message, cycles: 3 });
        rec(&mut r, 13, 0, EventKind::StallBegin { cat: Tc::Write });
        // P1 (home): dispatch the request at its arrival, fan out the
        // downgrade, later collect the ack and reply.
        rec(&mut r, 0, 1, EventKind::Slice { cat: Tc::Task, cycles: 8 });
        recv(&mut r, 20, 1, "write-req", 0, 10);
        rec(&mut r, 20, 1, EventKind::Slice { cat: Tc::Message, cycles: 5 });
        rec(&mut r, 25, 1, EventKind::DowngradeStart { block: blk, to_invalid: true, targets: 1 });
        rec(&mut r, 25, 1, EventKind::MsgSend { msg: "downgrade", peer: 2, block: blk });
        rec(&mut r, 25, 1, EventKind::Slice { cat: Tc::Message, cycles: 3 });
        recv(&mut r, 50, 1, "inv-ack", 2, 39);
        rec(&mut r, 50, 1, EventKind::Slice { cat: Tc::Message, cycles: 4 });
        let action = crate::DowngradeAction::WriteReply { requester: 0, acks: 0 };
        rec(&mut r, 54, 1, EventKind::DowngradeDone { block: blk, action });
        rec(&mut r, 54, 1, EventKind::MsgSend { msg: "write-reply", peer: 0, block: blk });
        rec(&mut r, 54, 1, EventKind::Slice { cat: Tc::Message, cycles: 3 });
        // P2 (copy holder): busy computing past the downgrade's arrival,
        // then handles it and acks.
        rec(&mut r, 0, 2, EventKind::Slice { cat: Tc::Task, cycles: 30 });
        recv(&mut r, 35, 2, "downgrade", 1, 25);
        rec(&mut r, 35, 2, EventKind::Slice { cat: Tc::Message, cycles: 4 });
        rec(&mut r, 39, 2, EventKind::MsgSend { msg: "inv-ack", peer: 1, block: blk });
        rec(&mut r, 39, 2, EventKind::Slice { cat: Tc::Message, cycles: 2 });
        // P0: the reply arrives inside the stall window; one slice covers
        // the whole window at resume, then the task finishes.
        recv(&mut r, 65, 0, "write-reply", 1, 54);
        rec(&mut r, 13, 0, EventKind::Slice { cat: Tc::Write, cycles: 56 });
        rec(&mut r, 69, 0, EventKind::Slice { cat: Tc::Task, cycles: 5 });
        let log = r.into_log();
        let path = analyze(&log, 74).expect("analysis must succeed");
        path.crosscheck().expect("segments must tile elapsed exactly");
        assert_eq!(
            spans(&path),
            vec![
                (0, 10, 0, PathCat::Compute),   // requester computes
                (10, 20, 0, PathCat::Wire),     // write-req in flight
                (20, 25, 1, PathCat::Protocol), // home dispatch + handling
                (25, 35, 1, PathCat::Wire),     // downgrade in flight
                (35, 39, 2, PathCat::Protocol), // holder downgrades
                (39, 50, 2, PathCat::Wire),     // inv-ack in flight
                (50, 54, 1, PathCat::Protocol), // home collects, replies
                (54, 65, 1, PathCat::Wire),     // write-reply in flight
                (65, 69, 0, PathCat::Queueing), // resume dispatch in window
                (69, 74, 0, PathCat::Compute),  // requester finishes
            ]
        );
        assert_eq!(path.wire_hops(), 4);
        let total: u64 = path.by_cat().iter().map(|&(_, cyc, _)| cyc).sum();
        assert_eq!(total, 74, "categories must account every elapsed cycle");
        let report = shasta_stats::critical_path_report(&path.report());
        assert!(report.contains("tiling exact"), "report must confirm tiling:\n{report}");
    }

    /// SMP-Shasta's merged miss (§3.4.2): P0 and P1 share a node, P0's
    /// read request to P2 is outstanding when P1 misses on the same block,
    /// so P1 stalls without sending. P0 handles the reply and its grant
    /// wakes P1: P1's window ends at P0's clock, and the walk hops from P1
    /// to P0 there, then follows P0's reply back to the home and P0's
    /// request — no cycle is left without a cause. The wake is later than
    /// the unrelated message P1 handled inside its window, so the wake, not
    /// that arrival, ended the window.
    #[test]
    fn a_merged_miss_hops_to_the_waking_node_mate() {
        use shasta_stats::TimeCat as Tc;
        let mut r = Recorder::new(3);
        rec(&mut r, 0, 0, EventKind::Slice { cat: Tc::Task, cycles: 10 });
        send(&mut r, 10, 0, "read-req", 2);
        rec(&mut r, 10, 0, EventKind::Slice { cat: Tc::Message, cycles: 3 });
        rec(&mut r, 13, 0, EventKind::StallBegin { cat: Tc::Read });
        // P1 misses on the pending block and merges into P0's request.
        rec(&mut r, 0, 1, EventKind::Slice { cat: Tc::Task, cycles: 12 });
        rec(&mut r, 12, 1, EventKind::MissMerged { block: 0x1000 });
        rec(&mut r, 12, 1, EventKind::Slice { cat: Tc::Other, cycles: 2 });
        rec(&mut r, 14, 1, EventKind::StallBegin { cat: Tc::Read });
        // The home serves the request and replies.
        rec(&mut r, 0, 2, EventKind::Slice { cat: Tc::Task, cycles: 8 });
        recv(&mut r, 20, 2, "read-req", 0, 10);
        rec(&mut r, 20, 2, EventKind::Slice { cat: Tc::Message, cycles: 10 });
        send(&mut r, 30, 2, "read-reply", 0);
        rec(&mut r, 30, 2, EventKind::Slice { cat: Tc::Message, cycles: 3 });
        send(&mut r, 33, 2, "invalidate", 1);
        rec(&mut r, 33, 2, EventKind::Slice { cat: Tc::Message, cycles: 3 });
        recv(&mut r, 37, 1, "invalidate", 2, 33);
        // P0 handles the reply inside its window; at its clock 45 the
        // grant wakes the node. P0's own resume is its own clock's.
        recv(&mut r, 40, 0, "read-reply", 2, 30);
        rec(&mut r, 13, 0, EventKind::Slice { cat: Tc::Read, cycles: 32 });
        rec(&mut r, 45, 0, EventKind::Slice { cat: Tc::Task, cycles: 5 });
        // P1's resume is the wake's: 45, set by P0.
        rec(&mut r, 45, 1, EventKind::Woken { by: 0 });
        rec(&mut r, 14, 1, EventKind::Slice { cat: Tc::Read, cycles: 31 });
        rec(&mut r, 45, 1, EventKind::Slice { cat: Tc::Task, cycles: 15 });
        let path = analyze(&r.into_log(), 60).expect("analysis must succeed");
        assert_eq!(
            spans(&path),
            vec![
                (0, 10, 0, PathCat::Compute),   // P0 computes, misses
                (10, 20, 0, PathCat::Wire),     // read-req in flight
                (20, 30, 2, PathCat::Protocol), // home serves it
                (30, 40, 2, PathCat::Wire),     // read-reply in flight
                (40, 45, 0, PathCat::Queueing), // P0 fills, grants, wakes P1
                (45, 60, 1, PathCat::Compute),  // P1 resumes at the wake
            ]
        );
        assert_eq!(path.wire_hops(), 2);
    }

    /// The load-balancing extension (§3.1): P0's request addressed to P2
    /// lands in the node's shared inbox and P3 serves it. The delivery's
    /// send stamp names P0's send although P0 recorded it to P2, so the
    /// walk follows P3's reply back through P3 to P0's request.
    #[test]
    fn a_load_balanced_request_hops_through_the_processor_that_served_it() {
        use shasta_stats::TimeCat as Tc;
        let mut r = Recorder::new(4);
        rec(&mut r, 0, 0, EventKind::Slice { cat: Tc::Task, cycles: 10 });
        send(&mut r, 10, 0, "read-req", 2);
        rec(&mut r, 10, 0, EventKind::Slice { cat: Tc::Message, cycles: 3 });
        rec(&mut r, 13, 0, EventKind::StallBegin { cat: Tc::Read });
        rec(&mut r, 0, 2, EventKind::Slice { cat: Tc::Task, cycles: 40 });
        recv(&mut r, 20, 3, "read-req", 0, 10);
        rec(&mut r, 20, 3, EventKind::Slice { cat: Tc::Message, cycles: 5 });
        send(&mut r, 25, 3, "read-reply", 0);
        rec(&mut r, 25, 3, EventKind::Slice { cat: Tc::Message, cycles: 3 });
        recv(&mut r, 35, 0, "read-reply", 3, 25);
        rec(&mut r, 13, 0, EventKind::Slice { cat: Tc::Read, cycles: 27 });
        rec(&mut r, 40, 0, EventKind::Slice { cat: Tc::Task, cycles: 5 });
        let path = analyze(&r.into_log(), 45).expect("analysis must succeed");
        assert_eq!(
            spans(&path),
            vec![
                (0, 10, 0, PathCat::Compute),
                (10, 20, 0, PathCat::Wire), // addressed to P2, taken by P3
                (20, 25, 3, PathCat::Protocol), // P3 serves it
                (25, 35, 3, PathCat::Wire),
                (35, 40, 0, PathCat::Queueing),
                (40, 45, 0, PathCat::Compute),
            ]
        );
    }

    /// A delivery whose stamp names a send its sender never recorded — at
    /// that cycle, of that message — is an error, not a guess; so is a
    /// receive recorded without a stamp.
    #[test]
    fn a_delivery_without_its_recorded_send_is_an_error() {
        use shasta_stats::TimeCat as Tc;
        let log = |stamped: bool, sent_at: u64, msg: &'static str| {
            let mut r = Recorder::new(2);
            rec(&mut r, 0, 0, EventKind::Slice { cat: Tc::Task, cycles: 10 });
            rec(&mut r, 10, 0, EventKind::StallBegin { cat: Tc::Read });
            send(&mut r, 4, 1, msg, 0);
            rec(&mut r, 4, 1, EventKind::Slice { cat: Tc::Message, cycles: 3 });
            if stamped {
                recv(&mut r, 15, 0, "read-reply", 1, sent_at);
            } else {
                rec(
                    &mut r,
                    15,
                    0,
                    EventKind::MsgRecv { msg: "read-reply", peer: 1, block: 0x1000 },
                );
            }
            rec(&mut r, 10, 0, EventKind::Slice { cat: Tc::Read, cycles: 8 });
            r.into_log()
        };
        let path = analyze(&log(true, 4, "read-reply"), 18).expect("the send is recorded");
        assert_eq!(path.wire_hops(), 1);
        for (stamped, sent_at, msg, why) in [
            (true, 5, "read-reply", "did not record"),
            (true, 4, "write-reply", "did not record"),
            (false, 4, "read-reply", "no send stamp"),
        ] {
            let err = analyze(&log(stamped, sent_at, msg), 18).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    /// Two windows that end at one cycle, each woken by the other, can
    /// only come from a hand-made log; the walk reports the cycle rather
    /// than hopping between them forever.
    #[test]
    fn a_cycle_of_wake_edges_is_an_error() {
        use shasta_stats::TimeCat as Tc;
        let mut r = Recorder::new(2);
        for (p, by) in [(0, 1), (1, 0)] {
            rec(&mut r, 0, p, EventKind::StallBegin { cat: Tc::Read });
            rec(&mut r, 10, p, EventKind::Woken { by });
            rec(&mut r, 0, p, EventKind::Slice { cat: Tc::Read, cycles: 10 });
        }
        let err = analyze(&r.into_log(), 10).unwrap_err();
        assert!(err.contains("wake edges form a cycle at cycle 10"), "{err}");
    }

    /// Sync-category stall windows (lock/barrier waits) surface as
    /// [`PathCat::Sync`], and idle gaps as queueing.
    #[test]
    fn sync_stalls_and_gaps_are_categorized() {
        use shasta_stats::TimeCat as Tc;
        let mut r = Recorder::new(2);
        rec(&mut r, 0, 0, EventKind::Slice { cat: Tc::Task, cycles: 4 });
        rec(&mut r, 4, 0, EventKind::StallBegin { cat: Tc::Sync });
        rec(&mut r, 4, 0, EventKind::Slice { cat: Tc::Sync, cycles: 8 });
        // Gap from 12 to 20 (clock jump), then a final slice.
        rec(&mut r, 20, 0, EventKind::Slice { cat: Tc::Task, cycles: 4 });
        let path = analyze(&r.into_log(), 24).expect("analysis must succeed");
        let cats: Vec<PathCat> = path.segments.iter().map(|s| s.cat).collect();
        assert_eq!(
            cats,
            vec![PathCat::Compute, PathCat::Sync, PathCat::Queueing, PathCat::Compute]
        );
        assert_eq!(path.segments[1].cycles(), 8);
        assert_eq!(path.segments[2].cycles(), 8);
    }

    /// Category labels are stable (they appear in the versioned report).
    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = PathCat::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["compute", "protocol", "wire", "queueing", "sync"]);
    }
}
