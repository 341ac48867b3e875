//! Plain-text rendering of an [`EventLog`]: one line per protocol fact, in
//! simulated-time order. This is how a counterexample's trail is printed
//! and what the checker compares when it asks whether two runs took the
//! same schedule.

use std::fmt::Write as _;

use crate::event::{EventKind, Stamped};
use crate::recorder::EventLog;

impl EventLog {
    /// Every retained protocol fact as `[{t}cy P{p}] {name}: {detail}`
    /// lines; see [`EventLog::render_tail`].
    pub fn render(&self) -> String {
        self.render_tail(usize::MAX)
    }

    /// The last `n` protocol facts as `[{t}cy P{p}] {name}: {detail}`
    /// lines, ordered by `(t, proc, ring index)`: the per-processor rings
    /// merged stably by time. Kinds that only attribute time or keep books
    /// (slices, stall beginnings, poll drains, the line-lock pair, block
    /// states) are not rendered. Notes go first: one counting the events
    /// the rings evicted, if any, and one counting the rendered lines cut
    /// off above the last `n`. An empty or disabled log renders as `""`.
    ///
    /// The rings evict raw events, rendered or not. The last `n` lines are
    /// those of the whole run as long as every ring that evicted still holds
    /// its processor's last `n` rendered events; a ring filled with skipped
    /// kinds (a processor spinning on slices, say) can lose its older
    /// facts, and the tail then shows other processors' older lines in
    /// their place. An `evicted` note is the sign to check.
    pub fn render_tail(&self, n: usize) -> String {
        let mut facts: Vec<(u32, Stamped)> = (0..self.procs() as u32)
            .flat_map(|p| self.proc(p).events().map(move |e| (p, e)))
            .filter(|(_, e)| !skipped(&e.kind))
            .collect();
        // Each ring is walked oldest first, so the stable sort keeps ring
        // order among events with the same time and processor.
        facts.sort_by_key(|&(p, e)| (e.t, p));
        let mut out = String::new();
        let evicted = self.dropped();
        if evicted > 0 {
            let _ = writeln!(out, "... {evicted} earlier events evicted ...");
        }
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
            | EventKind::BlockState { .. }
            | EventKind::StallBegin { .. }
            | EventKind::Slice { .. }
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
        | EventKind::BlockState { .. }
        | EventKind::StallBegin { .. }
        | EventKind::Slice { .. } => unreachable!("{} is not rendered", e.kind.name()),
    };
    s.push('\n');
}

#[cfg(test)]
mod tests {
    use super::skipped;
    use crate::event::{DowngradeAction, EventKind};
    use crate::recorder::Recorder;
    use proptest::prelude::*;
    use shasta_stats::TimeCat;

    fn dg_done(requester: u32) -> EventKind {
        EventKind::DowngradeDone { block: 0x40, action: DowngradeAction::ReadReply { requester } }
    }

    /// Facts in `(t, proc)` order, ties in ring order; bookkeeping skipped.
    #[test]
    fn render_is_a_line_per_fact_in_key_order() {
        let mut r = Recorder::enabled(4, 8);
        r.record(2, 3, EventKind::MsgRecv { msg: "read-reply", peer: 1, block: 0x40 });
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
    fn the_tail_notes_what_it_elides_and_the_rings_evicted() {
        let mut r = Recorder::enabled(1, 8);
        for i in 0..10 {
            r.record(i, 0, dg_done(i as u32));
        }
        let log = r.into_log();
        let tail = "[8cy P0] downgrade-done: 0x40 read-reply to P8\n\
                    [9cy P0] downgrade-done: 0x40 read-reply to P9\n";
        let notes = "... 2 earlier events evicted ...\n... 6 earlier events elided ...\n";
        assert_eq!(log.render_tail(2), format!("{notes}{tail}"));
        assert!(log.render().ends_with(tail) && !log.render().contains("elided"));
        assert!(log.render().starts_with("... 2 earlier events evicted ...\n[2cy P0]"));
    }

    /// A disabled recorder keeps nothing, so there is no detail to build.
    #[test]
    fn empty_and_disabled_logs_render_empty() {
        let mut off = Recorder::disabled();
        off.record(1, 0, dg_done(1));
        assert_eq!(off.into_log().render_tail(8), "");
        assert_eq!(Recorder::enabled(2, 8).into_log().render(), "");
    }

    /// Four rendered kinds and two skipped ones, by index.
    fn event(i: u64) -> EventKind {
        let block = 0x40 * (i % 5);
        match i % 6 {
            0 => EventKind::MsgSend { msg: "read-req", peer: (i % 3) as u32, block },
            1 => EventKind::DowngradeAck { block, remaining: (i % 7) as u32 },
            2 => dg_done((i % 3) as u32),
            3 => EventKind::MissMerged { block },
            4 => EventKind::Slice { cat: TimeCat::Task, cycles: i },
            _ => EventKind::PollDrain { handled: (i % 3) as u32 },
        }
    }

    proptest! {
        /// Rings that each evicted nothing or still hold their processor's
        /// last `n` rendered events lose nothing of the last `n` lines,
        /// however many events of either sort they evicted: the tail equals
        /// that of an unevicted log of the same stream. Each processor's
        /// clock only moves forward, as the engine's does for every
        /// rendered kind.
        #[test]
        fn the_tail_survives_eviction(
            stream in proptest::collection::vec((0u32..4, 0u64..3, 0u64..1000), 0..300),
            n in 1usize..24,
            cap in 1usize..64,
        ) {
            let mut evicting = Recorder::enabled(4, cap);
            let mut whole = Recorder::enabled(4, stream.len().max(1));
            let mut clocks = [0u64; 4];
            for &(p, dt, i) in &stream {
                clocks[p as usize] += dt;
                evicting.record(clocks[p as usize], p, event(i));
                whole.record(clocks[p as usize], p, event(i));
            }
            let (evicting, whole) = (evicting.into_log(), whole.into_log());
            prop_assert_eq!(whole.dropped(), 0);
            let holds_n = |p| {
                let ring = evicting.proc(p);
                ring.dropped == 0 || ring.events().filter(|e| !skipped(&e.kind)).count() >= n
            };
            let tail = |s: String| {
                let lines: Vec<String> = s.lines().map(str::to_owned).collect();
                lines[lines.len().saturating_sub(n)..].to_vec()
            };
            if (0..4).all(holds_n) {
                prop_assert_eq!(tail(evicting.render_tail(n)), tail(whole.render()));
            }
        }
    }
}
