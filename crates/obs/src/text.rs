//! Plain-text rendering of an [`EventLog`]: one line per protocol fact, in
//! simulated-time order. This is how a counterexample's trail is printed
//! and what the checker compares when it asks whether two runs took the
//! same schedule.

use std::fmt::Write as _;

use crate::event::{EventKind, Stamped};
use crate::recorder::EventLog;

impl EventLog {
    /// Every protocol fact as `[{t}cy P{p}] {name}: {detail}`
    /// lines; see [`EventLog::render_tail`].
    pub fn render(&self) -> String {
        self.render_tail(usize::MAX)
    }

    /// The last `n` protocol facts as `[{t}cy P{p}] {name}: {detail}`
    /// lines, ordered by `(t, proc, ring index)`: the per-processor rings
    /// merged stably by time. Kinds that only attribute time or keep books
    /// (slices, stall beginnings, wakes, poll drains, the line-lock pair)
    /// are not rendered. A note counting the rendered lines cut off above
    /// the last `n` goes first. An empty or disabled log renders as `""`.
    pub fn render_tail(&self, n: usize) -> String {
        let mut facts: Vec<(u32, Stamped)> = (0..self.procs() as u32)
            .flat_map(|p| self.proc(p).events().map(move |e| (p, e)))
            .filter(|(_, e)| !skipped(&e.kind))
            .collect();
        // Each ring is walked oldest first, so the stable sort keeps ring
        // order among events with the same time and processor.
        facts.sort_by_key(|&(p, e)| (e.t, p));
        let mut out = String::new();
        let elided = facts.len().saturating_sub(n);
        if elided > 0 {
            let _ = writeln!(out, "... {elided} earlier events elided ...");
        }
        for (p, e) in &facts[elided..] {
            line(&mut out, *p, e);
        }
        out
    }
}

/// Kinds that only attribute time or keep books: the text skips them.
fn skipped(kind: &EventKind) -> bool {
    matches!(
        kind,
        EventKind::PollDrain { .. }
            | EventKind::LineLockAcquire { .. }
            | EventKind::LineLockRelease { .. }
            | EventKind::StallBegin { .. }
            | EventKind::Slice { .. }
            | EventKind::Woken { .. }
    )
}

/// Appends the line of `e` on processor `p`, newline included; `e` is not
/// a [`skipped`] kind.
fn line(s: &mut String, p: u32, e: &Stamped) {
    let _ = write!(s, "[{}cy P{p}] {}: ", e.t, e.kind.name());
    let _ = match e.kind {
        EventKind::CheckMiss { id, block, addr, len, write } => {
            let access = if write { "write" } else { "read" };
            write!(s, "{block:#x} {access} {addr:#x}+{len} miss {id}")
        }
        EventKind::FalseMiss { block }
        | EventKind::PrivateUpgrade { block }
        | EventKind::MissMerged { block } => write!(s, "{block:#x}"),
        EventKind::MissResolved { block, kind, hops } => {
            write!(s, "{block:#x} {} {}", kind.label(), hops.label())
        }
        EventKind::MsgSend { msg, peer, block } => write!(s, "{msg} {block:#x} to P{peer}"),
        EventKind::MsgRecv { msg, peer, block } => write!(s, "{msg} {block:#x} from P{peer}"),
        EventKind::HomeInvalidate { block, ack_to } => write!(s, "{block:#x} ack to P{ack_to}"),
        EventKind::DirQueued { block, requester, kind } => {
            write!(s, "{block:#x} {} from P{requester}", kind.label())
        }
        EventKind::DowngradeStart { block, to_invalid, targets } => {
            let to = if to_invalid { "invalid" } else { "shared" };
            write!(s, "{block:#x} to {to} ({targets} msgs)")
        }
        EventKind::DowngradeAck { block, remaining } => write!(s, "{block:#x} ({remaining} left)"),
        EventKind::DowngradeDone { block, action } => write!(s, "{block:#x} {action}"),
        EventKind::PollDrain { .. }
        | EventKind::LineLockAcquire { .. }
        | EventKind::LineLockRelease { .. }
        | EventKind::StallBegin { .. }
        | EventKind::Slice { .. }
        | EventKind::Woken { .. } => unreachable!("{} is not rendered", e.kind.name()),
    };
    s.push('\n');
}

#[cfg(test)]
mod tests {
    use crate::event::{DowngradeAction, EventKind};
    use crate::recorder::Recorder;
    use shasta_stats::TimeCat;

    fn dg_done(requester: u32) -> EventKind {
        EventKind::DowngradeDone { block: 0x40, action: DowngradeAction::ReadReply { requester } }
    }

    /// Facts in `(t, proc)` order, ties in ring order; bookkeeping and wakes
    /// skipped, and a receive's send stamp not shown.
    #[test]
    fn render_is_a_line_per_fact_in_key_order() {
        let mut r = Recorder::new(4);
        r.record_recv(2, 3, "read-reply", 1, 0x40, 0);
        r.record(2, 3, EventKind::Woken { by: 1 });
        r.record(
            1,
            2,
            EventKind::CheckMiss { id: 7, block: 0x40, addr: 0x48, len: 8, write: false },
        );
        r.record(1, 2, EventKind::LineLockAcquire { block: 0x40 });
        r.record(2, 1, dg_done(3));
        r.record(2, 1, EventKind::PollDrain { handled: 1 });
        r.record(2, 1, EventKind::DowngradeAck { block: 0x40, remaining: 0 });
        r.record(0, 1, EventKind::Slice { cat: TimeCat::Task, cycles: 2 });
        assert_eq!(
            r.into_log().render(),
            "[1cy P2] check-miss: 0x40 read 0x48+8 miss 7\n\
             [2cy P1] downgrade-done: 0x40 read-reply to P3\n\
             [2cy P1] downgrade-ack: 0x40 (0 left)\n\
             [2cy P3] msg-recv: read-reply 0x40 from P1\n"
        );
    }

    #[test]
    fn the_tail_notes_what_it_elides() {
        let mut r = Recorder::new(1);
        for i in 0..10 {
            r.record(i, 0, dg_done(i as u32));
        }
        let log = r.into_log();
        let tail = "[8cy P0] downgrade-done: 0x40 read-reply to P8\n\
                    [9cy P0] downgrade-done: 0x40 read-reply to P9\n";
        let note = "... 8 earlier events elided ...\n";
        assert_eq!(log.render_tail(2), format!("{note}{tail}"));
        assert!(log.render().ends_with(tail) && !log.render().contains("elided"));
        assert!(log.render().starts_with("[0cy P0]"));
    }

    /// A disabled recorder keeps nothing, so there is no detail to build.
    #[test]
    fn empty_and_disabled_logs_render_empty() {
        let mut off = Recorder::disabled();
        off.record(1, 0, dg_done(1));
        assert_eq!(off.into_log().render_tail(8), "");
        assert_eq!(Recorder::new(2).into_log().render(), "");
    }
}
