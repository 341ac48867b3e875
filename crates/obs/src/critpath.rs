//! Per-run critical-path analysis over the recorded event stream.
//!
//! Figure 4 explains *where cycles go in aggregate*; this module answers
//! the operator's question: **which chain of misses, wire hops, and waits
//! actually bounded the run?** It reconstructs the causal DAG latent in an
//! [`EventLog`] — `CheckMiss` → stall window → satisfying `MsgRecv`,
//! matched back to the `MsgSend` that produced it on the peer, downgrade
//! fan-out and lock/barrier releases included — and walks it *backward*
//! from the run's final instant, emitting one attributed segment per step.
//!
//! # The walk
//!
//! Preprocessing turns each processor's record-ordered timeline into
//! intervals: normal execution slices ([`EventKind::Slice`] from `pay` /
//! `charge`) and **stall windows** (a [`EventKind::StallBegin`] at time `s`
//! paired with the first subsequent slice recorded at `t == s` with the
//! same category — the engine emits the whole window as one slice at
//! resume). Messages received *inside* a window are kept with it: the last
//! one to arrive before the point under examination is the stall's
//! satisfier.
//!
//! Starting at `(p, elapsed)` for the processor whose activity reaches the
//! run's end, each step looks at what covered the instant just before the
//! current time `t` on the current processor:
//!
//! * a **normal slice** `[a, b)` emits `[a, t)` as [`PathCat::Compute`]
//!   (task time) or [`PathCat::Protocol`] (message handling, checks,
//!   bookkeeping) and continues at `(p, a)`;
//! * a **stall window** with satisfying arrival at `w` emits `[w, t)` as
//!   [`PathCat::Queueing`] (or [`PathCat::Sync`] for lock/barrier waits),
//!   FIFO-matches the arrival to its `MsgSend` on the peer `q` at `u` by
//!   `(src, dst, label, block)` occurrence index, emits `[u, w)` as
//!   [`PathCat::Wire`] attributed to the node pair and allocation site,
//!   and hops to `(q, u)`;
//! * a stall the walk cannot resolve causally — satisfied by a node-mate's
//!   merged miss fill, a local store-limit/release quiesce, or a
//!   load-balanced request serviced by a different processor than the one
//!   addressed — emits the window wholesale as a **fallback** segment in
//!   the wait category (counted, so reports show how much of the path is
//!   exact);
//! * activity that *begins exactly at* a message arrival (an event-driven
//!   home handler dispatching a request, a downgrade ack waking the
//!   fan-out collector) hops straight through the wire to the sender —
//!   this is what lets the walk follow a Figure 2(b) downgrade chain
//!   requester → home → copy holder → home → requester end to end;
//! * a remaining **gap** (idle processor whose clock jumped to a wake
//!   floor or an unmatchable arrival) emits [`PathCat::Queueing`].
//!
//! Every segment ends exactly where the previous (later) one began, so the
//! emitted segments **tile `[0, elapsed)` exactly by construction** — the
//! zero-tolerance crosscheck of [`CritPath::crosscheck`], in the style of
//! the Fig4 and topology-breakdown accounting. A `Wire` segment spans send
//! to *dispatch* (transit plus any receiver-side queueing before the poll
//! that handled it).
//!
//! The analysis needs the complete stream: [`analyze`] refuses a log with
//! ring evictions ([`EventLog::dropped`] `> 0`).

use std::collections::HashMap;

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
    /// Whether the causal edge could not be resolved and the stall window
    /// was attributed wholesale.
    pub fallback: bool,
}

impl Segment {
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

    /// Segments whose causal edge was unresolved (attributed wholesale).
    pub fn fallback_segments(&self) -> usize {
        self.segments.iter().filter(|s| s.fallback).count()
    }

    /// Cycles covered by fallback segments.
    pub fn fallback_cycles(&self) -> u64 {
        self.segments.iter().filter(|s| s.fallback).map(Segment::cycles).sum()
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
        let mut sites: HashMap<&'static str, u64> = HashMap::new();
        for s in &self.segments {
            if let Some(site) = s.site {
                *sites.entry(site).or_insert(0) += s.cycles();
            }
        }
        let mut by_site: Vec<(String, u64)> =
            sites.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        by_site.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut pairs: HashMap<(u32, u32), u64> = HashMap::new();
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
            fallback_segments: self.fallback_segments(),
            fallback_cycles: self.fallback_cycles(),
            by_cat,
            by_site,
            by_pair,
        }
    }
}

/// A message arrival kept with the stall window it landed in.
#[derive(Clone, Copy, Debug)]
struct RecvRef {
    t: u64,
    peer: u32,
    msg: &'static str,
    block: u64,
    /// Occurrence index among this processor's receives with the same
    /// `(peer, msg, block)` key — the FIFO rank matched against the peer's
    /// sends.
    occ: u32,
}

/// One preprocessed interval of a processor's timeline.
#[derive(Clone, Copy, Debug)]
struct Iv {
    start: u64,
    end: u64,
    cat: TimeCat,
    /// Index into the processor's stall-window receive lists when this
    /// interval is a stall window; `None` for a normal paid slice.
    stall: Option<usize>,
}

struct ProcView {
    /// Intervals sorted by `(start, end)`.
    ivs: Vec<Iv>,
    /// Per stall window: the arrivals recorded inside it, in order.
    stall_recvs: Vec<Vec<RecvRef>>,
    /// Every arrival on this processor, in record order (for wake hops).
    recvs: Vec<RecvRef>,
}

type SendKey = (u32, u32, &'static str, u64);

fn build_views(log: &EventLog) -> (Vec<ProcView>, HashMap<SendKey, Vec<u64>>) {
    let mut sends: HashMap<SendKey, Vec<u64>> = HashMap::new();
    let mut views = Vec::with_capacity(log.procs());
    for p in 0..log.procs() as u32 {
        let mut ivs = Vec::new();
        let mut stall_recvs: Vec<Vec<RecvRef>> = Vec::new();
        let mut recvs: Vec<RecvRef> = Vec::new();
        let mut recv_occ: HashMap<(u32, &'static str, u64), u32> = HashMap::new();
        // At most one stall can be open per processor; a zero-length window
        // leaves its `StallBegin` unmatched (the engine skips empty slices)
        // and the next `StallBegin` simply replaces it.
        let mut pending: Option<(u64, TimeCat, Vec<RecvRef>)> = None;
        for e in log.proc(p).events() {
            match e.kind {
                EventKind::StallBegin { cat } => pending = Some((e.t, cat, Vec::new())),
                EventKind::Slice { cat, cycles } => {
                    let is_stall = pending.as_ref().is_some_and(|&(s, c, _)| s == e.t && c == cat);
                    let stall = if is_stall {
                        let (_, _, recvs) = pending.take().expect("checked above");
                        stall_recvs.push(recvs);
                        Some(stall_recvs.len() - 1)
                    } else {
                        None
                    };
                    ivs.push(Iv { start: e.t, end: e.t + cycles, cat, stall });
                }
                EventKind::MsgRecv { msg, peer, block } => {
                    let occ = recv_occ.entry((peer, msg, block)).or_insert(0);
                    let r = RecvRef { t: e.t, peer, msg, block, occ: *occ };
                    *occ += 1;
                    if let Some((_, _, win)) = pending.as_mut() {
                        win.push(r);
                    }
                    recvs.push(r);
                }
                EventKind::MsgSend { msg, peer, block } => {
                    sends.entry((p, peer, msg, block)).or_default().push(e.t);
                }
                _ => {}
            }
        }
        ivs.sort_by_key(|iv| (iv.start, iv.end));
        views.push(ProcView { ivs, stall_recvs, recvs });
    }
    (views, sends)
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
/// Fails when the log is incomplete (ring evictions — raise the recording
/// capacity) or when the accounting crosscheck finds a hole, which would be
/// a bug in the analyzer or the event stream.
pub fn analyze(log: &EventLog, elapsed: u64) -> Result<CritPath, String> {
    if log.dropped() != 0 {
        return Err(format!(
            "critical-path analysis needs the complete event stream, but {} events were \
             evicted from the recording rings (raise the ring capacity)",
            log.dropped()
        ));
    }
    if log.procs() == 0 && elapsed > 0 {
        return Err("critical-path analysis needs an enabled recorder".to_string());
    }
    let map: SpaceMap = log.profile().map(|pr| pr.map().clone()).unwrap_or_default();
    let (views, sends) = build_views(log);
    let mut segments: Vec<Segment> = Vec::new();
    let mut t = elapsed;
    let mut p = pick_start(&views, elapsed);
    while t > 0 {
        let view = &views[p as usize];
        // The interval covering the instant just before `t` (maximal start
        // wins if record anomalies ever overlap two).
        let cover =
            view.ivs.iter().filter(|iv| iv.start < t && iv.end >= t).max_by_key(|iv| iv.start);
        let Some(iv) = cover.copied() else {
            // No slice strictly covers the instant, so activity *begins*
            // exactly at `t`. If a message arrived exactly then, it is what
            // started the work (an event-driven handler dispatch, a
            // downgrade ack, a wake) — hop through the wire to its sender.
            let hop = view.recvs.iter().rev().filter(|r| r.t == t).find_map(|r| {
                sends
                    .get(&(r.peer, p, r.msg, r.block))
                    .and_then(|v| v.get(r.occ as usize))
                    .and_then(|&u| (u < t).then_some((*r, u)))
            });
            if let Some((r, u)) = hop {
                segments.push(Segment {
                    start: u,
                    end: t,
                    proc: r.peer,
                    cat: PathCat::Wire,
                    site: site_of(&map, r.block),
                    nodes: Some((map.phys_node_of(r.peer), map.phys_node_of(p))),
                    msg: Some(r.msg),
                    fallback: false,
                });
                p = r.peer;
                t = u;
                continue;
            }
            // Idle gap: the processor's clock jumped (message arrival on a
            // finished processor, or a wake floor). Whatever it waited for
            // is not locally recorded; account the span as queueing.
            let prev_end = view.ivs.iter().map(|iv| iv.end).filter(|&e| e < t).max().unwrap_or(0);
            segments.push(Segment {
                start: prev_end,
                end: t,
                proc: p,
                cat: PathCat::Queueing,
                site: None,
                nodes: None,
                msg: None,
                fallback: false,
            });
            t = prev_end;
            continue;
        };
        let Some(si) = iv.stall else {
            let cat = if iv.cat == TimeCat::Task { PathCat::Compute } else { PathCat::Protocol };
            segments.push(Segment {
                start: iv.start,
                end: t,
                proc: p,
                cat,
                site: None,
                nodes: None,
                msg: None,
                fallback: false,
            });
            t = iv.start;
            continue;
        };
        // Stall window. The satisfier is the last arrival strictly before
        // the instant under examination.
        let wait_cat = if iv.cat == TimeCat::Sync { PathCat::Sync } else { PathCat::Queueing };
        let sat = view.stall_recvs[si].iter().rev().find(|r| r.t < t).copied();
        let hop = sat.and_then(|r| {
            let u = sends.get(&(r.peer, p, r.msg, r.block)).and_then(|v| v.get(r.occ as usize));
            u.and_then(|&u| (u < r.t).then_some((r, u)))
        });
        match hop {
            Some((r, u)) => {
                segments.push(Segment {
                    start: r.t,
                    end: t,
                    proc: p,
                    cat: wait_cat,
                    site: site_of(&map, r.block),
                    nodes: None,
                    msg: Some(r.msg),
                    fallback: false,
                });
                segments.push(Segment {
                    start: u,
                    end: r.t,
                    proc: r.peer,
                    cat: PathCat::Wire,
                    site: site_of(&map, r.block),
                    nodes: Some((map.phys_node_of(r.peer), map.phys_node_of(p))),
                    msg: Some(r.msg),
                    fallback: false,
                });
                p = r.peer;
                t = u;
            }
            None => {
                // Unresolvable causal edge: no arrival in the window (a
                // node-mate's merged fill or a local quiesce satisfied it),
                // or the send could not be FIFO-matched (load-balanced
                // request serviced by a different node processor).
                segments.push(Segment {
                    start: iv.start,
                    end: t,
                    proc: p,
                    cat: wait_cat,
                    site: sat.and_then(|r| site_of(&map, r.block)),
                    nodes: None,
                    msg: sat.map(|r| r.msg),
                    fallback: true,
                });
                t = iv.start;
            }
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

    /// The hand-worked Figure 2(b) downgrade chain: P0 write-misses on a
    /// block homed at P1 whose exclusive copy lives at P2. The home
    /// dispatches the request, downgrades P2, collects the ack, and
    /// replies. The analyzer must follow the full causal chain
    /// P0 → P1 → P2 → P1 → P0 and tile `[0, elapsed)` exactly.
    #[test]
    fn figure_2b_downgrade_chain_tiles_exactly() {
        use shasta_stats::TimeCat as Tc;
        let mut r = Recorder::enabled(3, 4_096);
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
        rec(&mut r, 20, 1, EventKind::MsgRecv { msg: "write-req", peer: 0, block: blk });
        rec(&mut r, 20, 1, EventKind::Slice { cat: Tc::Message, cycles: 5 });
        rec(&mut r, 25, 1, EventKind::DowngradeStart { block: blk, to_invalid: true, targets: 1 });
        rec(&mut r, 25, 1, EventKind::MsgSend { msg: "downgrade", peer: 2, block: blk });
        rec(&mut r, 25, 1, EventKind::Slice { cat: Tc::Message, cycles: 3 });
        rec(&mut r, 50, 1, EventKind::MsgRecv { msg: "inv-ack", peer: 2, block: blk });
        rec(&mut r, 50, 1, EventKind::Slice { cat: Tc::Message, cycles: 4 });
        let action = crate::DowngradeAction::WriteReply { requester: 0, acks: 0 };
        rec(&mut r, 54, 1, EventKind::DowngradeDone { block: blk, action });
        rec(&mut r, 54, 1, EventKind::MsgSend { msg: "write-reply", peer: 0, block: blk });
        rec(&mut r, 54, 1, EventKind::Slice { cat: Tc::Message, cycles: 3 });
        // P2 (copy holder): busy computing past the downgrade's arrival,
        // then handles it and acks.
        rec(&mut r, 0, 2, EventKind::Slice { cat: Tc::Task, cycles: 30 });
        rec(&mut r, 35, 2, EventKind::MsgRecv { msg: "downgrade", peer: 1, block: blk });
        rec(&mut r, 35, 2, EventKind::Slice { cat: Tc::Message, cycles: 4 });
        rec(&mut r, 39, 2, EventKind::MsgSend { msg: "inv-ack", peer: 1, block: blk });
        rec(&mut r, 39, 2, EventKind::Slice { cat: Tc::Message, cycles: 2 });
        // P0: the reply arrives inside the stall window; one slice covers
        // the whole window at resume, then the task finishes.
        rec(&mut r, 65, 0, EventKind::MsgRecv { msg: "write-reply", peer: 1, block: blk });
        rec(&mut r, 13, 0, EventKind::Slice { cat: Tc::Write, cycles: 56 });
        rec(&mut r, 69, 0, EventKind::Slice { cat: Tc::Task, cycles: 5 });
        let log = r.into_log();
        let path = analyze(&log, 74).expect("analysis must succeed");
        path.crosscheck().expect("segments must tile elapsed exactly");
        let got: Vec<(u64, u64, u32, PathCat)> =
            path.segments.iter().map(|s| (s.start, s.end, s.proc, s.cat)).collect();
        assert_eq!(
            got,
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
        assert_eq!(path.fallback_segments(), 0);
        let total: u64 = path.by_cat().iter().map(|&(_, cyc, _)| cyc).sum();
        assert_eq!(total, 74, "categories must account every elapsed cycle");
        let report = shasta_stats::critical_path_report(&path.report());
        assert!(report.contains("tiling exact"), "report must confirm tiling:\n{report}");
    }

    /// A stall window with no recorded arrival (store-limit quiesce,
    /// node-mate merged fill) cannot be causally resolved: the window is
    /// attributed wholesale as a fallback segment — and tiling still holds.
    #[test]
    fn unresolved_stall_falls_back_but_tiles() {
        use shasta_stats::TimeCat as Tc;
        let mut r = Recorder::enabled(1, 256);
        rec(&mut r, 0, 0, EventKind::Slice { cat: Tc::Task, cycles: 10 });
        rec(&mut r, 10, 0, EventKind::StallBegin { cat: Tc::Write });
        rec(&mut r, 10, 0, EventKind::Slice { cat: Tc::Write, cycles: 20 });
        rec(&mut r, 30, 0, EventKind::Slice { cat: Tc::Task, cycles: 5 });
        let path = analyze(&r.into_log(), 35).expect("analysis must succeed");
        assert_eq!(path.fallback_segments(), 1);
        assert_eq!(path.fallback_cycles(), 20);
        assert_eq!(path.wire_hops(), 0);
        path.crosscheck().expect("fallbacks must not break tiling");
        let (top, cyc) = path.top_cat();
        assert_eq!((top, cyc), (PathCat::Queueing, 20));
    }

    /// Sync-category stall windows (lock/barrier waits) surface as
    /// [`PathCat::Sync`], and idle gaps as queueing.
    #[test]
    fn sync_stalls_and_gaps_are_categorized() {
        use shasta_stats::TimeCat as Tc;
        let mut r = Recorder::enabled(2, 256);
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

    /// An incomplete stream (ring evictions) is refused outright — partial
    /// timelines would silently produce wrong attributions.
    #[test]
    fn evicted_events_are_refused() {
        use shasta_stats::TimeCat as Tc;
        let mut r = Recorder::enabled(1, 2);
        for i in 0..8 {
            rec(&mut r, i, 0, EventKind::Slice { cat: Tc::Task, cycles: 1 });
        }
        let err = analyze(&r.into_log(), 8).unwrap_err();
        assert!(err.contains("evicted"), "unexpected error: {err}");
    }

    /// Category labels are stable (they appear in the versioned report).
    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = PathCat::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["compute", "protocol", "wire", "queueing", "sync"]);
    }
}
