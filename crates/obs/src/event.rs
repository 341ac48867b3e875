//! The event schema: everything the protocol engine can report.

use std::fmt;

use shasta_stats::{Hops, MissKind, TimeCat};

/// One recorded protocol event.
///
/// Events are `Copy` and fixed-size so the record path never allocates;
/// message kinds are carried as `&'static str` labels (the engine's own
/// message label table), which keeps this crate decoupled from
/// `shasta-core`'s types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Simulated timestamp in cycles (the acting processor's clock when the
    /// event was recorded; for time slices, the *start* of the slice).
    pub t: u64,
    /// The processor the event happened on.
    pub proc: u32,
    /// What happened.
    pub kind: EventKind,
}

/// An [`Event`] without its processor, as a processor's timeline yields it
/// ([`ProcEvents::events`](crate::ProcEvents::events)): every event in a
/// ring happened on the ring's processor. The ring itself keeps it encoded
/// in a few bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Stamped {
    /// Simulated timestamp in cycles, as [`Event::t`].
    pub t: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Stamped {
    /// This event, on processor `proc`.
    pub fn on(self, proc: u32) -> Event {
        Event { t: self.t, proc, kind: self.kind }
    }
}

/// The protocol-significant event kinds the engine reports.
///
/// Block fields carry the block's starting shared-space address (what the
/// engine prints as `{:#x}` in diagnostics). All timestamps live on the
/// enclosing [`Event`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// An inline check missed and entered the protocol (a real miss: the
    /// flag/state check failed and the state table confirmed it).
    CheckMiss {
        /// Miss id: a per-machine counter (1-based; 0 is reserved for "no
        /// context") that the engine also stamps into every wire `DATA`
        /// frame the miss causes, so one miss renders as a single causal
        /// flow across sim engine and wire in the Chrome exporter. The
        /// counter advances whether or not recording is on, keeping wire
        /// bytes independent of observability.
        id: u32,
        /// Starting address of the missed block.
        block: u64,
        /// The faulting shared-space address (the access that missed; for a
        /// batched range access, the range clamped to the block). The offset
        /// `addr - block` is what the sharing profiler uses to tell true
        /// sharing from false sharing within a block.
        addr: u64,
        /// Access length in bytes (scalar width, or the clamped range
        /// extent), so `[addr, addr + len)` is the touched span.
        len: u32,
        /// True for a store-side miss, false for a load-side miss.
        write: bool,
    },
    /// An inline flag-technique load check fired on application data that
    /// happened to equal the invalid flag (§2.3 "false miss").
    FalseMiss {
        /// Starting address of the falsely-missed block.
        block: u64,
    },
    /// A miss finished: the reply handler classified it for the Figure 6
    /// matrix. Emitting it is what increments the engine's `MissStats`: the
    /// event and the counter are one fact, booked once.
    MissResolved {
        /// Starting address of the block whose miss completed.
        block: u64,
        /// Read / write / upgrade, as recorded by the reply handler (an
        /// upgrade converted to a write serve still counts as an upgrade).
        kind: MissKind,
        /// Two-hop or three-hop per the paper's §4.4 classification.
        hops: Hops,
    },
    /// A store hit a block already exclusive on the node: SMP-Shasta
    /// upgraded the private table without any protocol traffic.
    PrivateUpgrade {
        /// Starting address of the upgraded block.
        block: u64,
    },
    /// A miss merged into an already-pending request for the same block
    /// (SMP-Shasta: a node mate's request is outstanding).
    MissMerged {
        /// Starting address of the pending block.
        block: u64,
    },
    /// A protocol message left this processor for another one.
    MsgSend {
        /// The message kind label (e.g. `"read-req"`, `"downgrade"`).
        msg: &'static str,
        /// Destination processor (or home processor for vnode-queued sends).
        peer: u32,
        /// Block the message concerns, or 0 for sync messages.
        block: u64,
    },
    /// A protocol message was delivered to (and handled by) this processor.
    MsgRecv {
        /// The message kind label (e.g. `"read-reply"`, `"inv-ack"`).
        msg: &'static str,
        /// Source processor.
        peer: u32,
        /// Block the message concerns, or 0 for sync messages.
        block: u64,
    },
    /// A write or upgrade reached the home while the home's own node held a
    /// shared copy, and the home invalidated that copy in place, without a
    /// message (a remote sharer's invalidation is the `msg-recv` of an
    /// `invalidate`).
    HomeInvalidate {
        /// Starting address of the invalidated block.
        block: u64,
        /// The writer the invalidation is acknowledged to.
        ack_to: u32,
    },
    /// A request reached its home while the block's directory entry was busy
    /// with an earlier transaction, and was queued behind it (it is served
    /// when the directory update that ends that transaction arrives).
    DirQueued {
        /// Starting address of the requested block.
        block: u64,
        /// The processor whose request was queued.
        requester: u32,
        /// Read, write or upgrade request.
        kind: MissKind,
    },
    /// A downgrade of a block began on this (home-side acting) processor:
    /// downgrade messages were issued to the private-table targets.
    DowngradeStart {
        /// Starting address of the block being downgraded.
        block: u64,
        /// True when downgrading to invalid, false when to shared.
        to_invalid: bool,
        /// Number of downgrade messages issued (selective targeting).
        targets: u32,
    },
    /// A processor acknowledged its part of a pending downgrade.
    DowngradeAck {
        /// Starting address of the downgrading block.
        block: u64,
        /// Downgrade messages still outstanding after this ack.
        remaining: u32,
    },
    /// The last downgrader completed the downgrade: deferred flag/state
    /// writes were performed and the reply was sent.
    DowngradeDone {
        /// Starting address of the downgraded block.
        block: u64,
        /// The reply the downgrade was for, sent now.
        action: DowngradeAction,
    },
    /// A poll point (operation boundary / loop back-edge) drained messages.
    PollDrain {
        /// Number of messages handled at this poll point.
        handled: u32,
    },
    /// The per-line SMP lock was taken (SMP-Shasta protocol entry).
    LineLockAcquire {
        /// Starting address of the locked block.
        block: u64,
    },
    /// The per-line SMP lock was released.
    LineLockRelease {
        /// Starting address of the unlocked block.
        block: u64,
    },
    /// The processor entered a stall (the matching time slice is emitted
    /// when the stall resumes, covering the whole window).
    StallBegin {
        /// The category the stall window will be attributed to.
        cat: TimeCat,
    },
    /// A span of attributed execution time: `cycles` starting at the
    /// event's timestamp, attributed to `cat`. The slice stream is the
    /// engine's Figure 4 attribution: each slice is folded into the
    /// `shasta-stats` breakdown as it is emitted.
    Slice {
        /// The Figure 4 category the cycles belong to.
        cat: TimeCat,
        /// Length of the slice in cycles.
        cycles: u64,
    },
    /// A stall resumed at the time another processor's wake set: `by`
    /// raised this processor's wake floor past its clock (a node mate's
    /// reply filling a merged miss, a lock grant, a barrier release, a
    /// completed store), so the resume waited for `by` rather than for
    /// anything this processor handled. Recorded at the resume, just before
    /// the stall window's slice. It is the critical path's wake edge; the
    /// text and Chrome exporters skip it.
    Woken {
        /// The processor whose clock the wake floor rose to.
        by: u32,
    },
}

/// What the last downgrader of a block does once every local processor has
/// handled its downgrade message (§3.4.3): send the reply the downgrade was
/// started for. The engine keeps it as the pending downgrade's deferred
/// action and reports it on [`EventKind::DowngradeDone`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DowngradeAction {
    /// The block goes to `requester` as a read reply, and the home learns
    /// that `requester` (and the owner) now share it.
    ReadReply {
        /// The reader.
        requester: u32,
    },
    /// The block and its ownership go to `requester`, which then waits for
    /// `acks` invalidation acknowledgements, and the home learns the new
    /// owner.
    WriteReply {
        /// The writer.
        requester: u32,
        /// Invalidation acks the writer expects.
        acks: u32,
    },
    /// The node's copy is gone: acknowledge the invalidation to `ack_to`.
    InvAck {
        /// The writer awaiting the acknowledgement.
        ack_to: u32,
    },
}

impl fmt::Display for DowngradeAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DowngradeAction::ReadReply { requester } => write!(f, "read-reply to P{requester}"),
            DowngradeAction::WriteReply { requester, acks } => {
                write!(f, "write-reply to P{requester} acks {acks}")
            }
            DowngradeAction::InvAck { ack_to } => write!(f, "inv-ack to P{ack_to}"),
        }
    }
}

impl EventKind {
    /// Short, stable name for this event kind (used as the Chrome trace
    /// event name for instant events; slices are named by their category).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::CheckMiss { .. } => "check-miss",
            EventKind::FalseMiss { .. } => "false-miss",
            EventKind::MissResolved { .. } => "miss-resolved",
            EventKind::PrivateUpgrade { .. } => "private-upgrade",
            EventKind::MissMerged { .. } => "miss-merged",
            EventKind::MsgSend { .. } => "msg-send",
            EventKind::MsgRecv { .. } => "msg-recv",
            EventKind::HomeInvalidate { .. } => "home-invalidate",
            EventKind::DirQueued { .. } => "dir-queued",
            EventKind::DowngradeStart { .. } => "downgrade-start",
            EventKind::DowngradeAck { .. } => "downgrade-ack",
            EventKind::DowngradeDone { .. } => "downgrade-done",
            EventKind::PollDrain { .. } => "poll-drain",
            EventKind::LineLockAcquire { .. } => "line-lock-acquire",
            EventKind::LineLockRelease { .. } => "line-lock-release",
            EventKind::StallBegin { .. } => "stall-begin",
            EventKind::Slice { .. } => "slice",
            EventKind::Woken { .. } => "woken",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(
            EventKind::CheckMiss { id: 1, block: 0, addr: 0, len: 8, write: false }.name(),
            "check-miss"
        );
        assert_eq!(EventKind::Slice { cat: TimeCat::Task, cycles: 1 }.name(), "slice");
        assert_eq!(EventKind::PollDrain { handled: 2 }.name(), "poll-drain");
        assert_eq!(
            EventKind::MissResolved { block: 0, kind: MissKind::Read, hops: Hops::Two }.name(),
            "miss-resolved"
        );
        assert_eq!(EventKind::PrivateUpgrade { block: 0 }.name(), "private-upgrade");
        assert_eq!(EventKind::MissMerged { block: 0 }.name(), "miss-merged");
        assert_eq!(EventKind::Woken { by: 3 }.name(), "woken");
    }

    #[test]
    fn events_are_small_and_copy() {
        // The record path stores events by value; keep them register-friendly.
        assert!(std::mem::size_of::<Event>() <= 48);
        assert!(std::mem::size_of::<EventKind>() <= 32);
        let e = Event { t: 5, proc: 1, kind: EventKind::FalseMiss { block: 0x40 } };
        let f = e; // Copy
        assert_eq!(e, f);
        assert_eq!(Stamped { t: e.t, kind: e.kind }.on(1), e);
    }
}
