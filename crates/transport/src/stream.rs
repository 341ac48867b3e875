//! One direction of a node-pair stream as plain data: SHWP's sequence, ACK,
//! hold and timer rules (`docs/TRANSPORT.md` §3.3), with no socket and no
//! clock read. The fabric hands a [`Sender`] and a [`Receiver`] what it read
//! and the time, and does what they ask: deliver, write an `ACK`, resend.
//!
//! A sender resends only its oldest unacknowledged frame, on an `ACK` that
//! covers nothing or on its timer. A receiver that learns of a gap — it
//! holds a frame, a repair leaves frames held, or a receive waits — settles
//! what it owes, then repeats its last `ACK` unless a repeat is unanswered.
//! The timer serves a sender at a full window and an `ACK` a full socket
//! refused.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use shasta_memchan::{PairSequencer, SeqVerdict};

use crate::wire::DataFrame;

/// Most `DATA` frames a stream may have unacknowledged.
pub(crate) const SEND_WINDOW: usize = 256;

/// A receiver acknowledges at the latest once it owes this many deliveries.
pub(crate) const ACK_EVERY: u32 = 16;

/// Shortest retransmission timeout: well above how late a virtualised host
/// wakes a sleeper (up to a few ms), so a loss costs the timeout, not the
/// host's mood (RFC 6298 §2.4: clock granularity).
pub(crate) const RTO_MIN: Duration = Duration::from_millis(4);

/// Longest retransmission timeout, and the timeout before a first sample.
pub(crate) const RTO_MAX: Duration = Duration::from_millis(15);

/// A stream's retransmission timeout, by RFC 6298: `SRTT + 4·RTTVAR`,
/// doubled per expiry until an ACK makes progress, within
/// [`RTO_MIN`]..=[`RTO_MAX`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Rto {
    /// `(SRTT, RTTVAR)`, `None` until the first sample.
    smoothed: Option<(Duration, Duration)>,
    /// Expiries since the last ACK progress.
    backoff: u32,
}

impl Rto {
    fn sample(&mut self, r: Duration) {
        self.smoothed = Some(match self.smoothed {
            None => (r, r / 2),
            Some((srtt, rttvar)) => ((srtt * 7 + r) / 8, (rttvar * 3 + srtt.abs_diff(r)) / 4),
        });
    }

    fn timeout(&mut self) {
        self.backoff += 1;
    }

    fn progress(&mut self) {
        self.backoff = 0;
    }

    /// How long the stream's head may stay unacknowledged.
    pub(crate) fn current(&self) -> Duration {
        let base = self.smoothed.map_or(RTO_MAX, |(srtt, rttvar)| srtt + rttvar * 4);
        // Two doublings already span RTO_MIN..RTO_MAX; the cap on the shift
        // only keeps it from overflowing.
        (base.clamp(RTO_MIN, RTO_MAX) * (1 << self.backoff.min(4))).min(RTO_MAX)
    }
}

/// A `DATA` frame awaiting acknowledgement; `bytes` is the one copy of its
/// encoding, which a resend writes again.
#[derive(Clone, Debug)]
pub(crate) struct Unacked {
    pub(crate) seq: u64,
    pub(crate) bytes: Vec<u8>,
    pub(crate) last_sent: Instant,
    /// When its first transmission's batch was written: its round trip.
    pub(crate) first_sent: Instant,
    pub(crate) retransmitted: bool,
    /// The [`DropPlan`](crate::DropPlan) suppressed the first transmission.
    dropped_first: bool,
    pub(crate) trace: u32,
}

/// The sending half of a stream.
#[derive(Clone, Debug)]
pub(crate) struct Sender {
    /// Oldest first, never longer than `window`.
    unacked: VecDeque<Unacked>,
    /// The last position stamped.
    stamped: u64,
    rto: Rto,
    /// When an ACK last cleared frames (or the stream was set up).
    progressed: Instant,
    /// [`SEND_WINDOW`]; only the crate's tests set a smaller one.
    window: usize,
}

/// A [`Sender`]'s timer: nothing outstanding, the head due, or the head
/// expired with this timeout (now backed off) and to be resent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Tick {
    Idle,
    Due(Instant),
    Expired(Duration),
}

impl Sender {
    pub(crate) fn new(now: Instant) -> Sender {
        Sender {
            unacked: VecDeque::new(),
            stamped: 0,
            rto: Rto::default(),
            progressed: now,
            window: SEND_WINDOW,
        }
    }

    pub(crate) fn window_full(&self) -> bool {
        self.unacked.len() >= self.window
    }

    /// Stamps the next position and keeps `encode`'s frame at it until an
    /// `ACK` covers it.
    pub(crate) fn send(
        &mut self,
        dropped_first: bool,
        trace: u32,
        encode: impl FnOnce(u64) -> Vec<u8>,
    ) -> &Unacked {
        debug_assert!(!self.window_full(), "a send past the window");
        self.stamped += 1;
        let (seq, unwritten) = (self.stamped, self.progressed);
        self.unacked.push_back_mut(Unacked {
            seq,
            bytes: encode(seq),
            last_sent: unwritten,
            first_sent: unwritten,
            retransmitted: false,
            dropped_first,
            trace,
        })
    }

    /// The newest `n` frames went out in one batch at `now`.
    pub(crate) fn written(&mut self, n: usize, now: Instant) {
        let from = self.unacked.len() - n;
        for u in self.unacked.range_mut(from..) {
            (u.first_sent, u.last_sent) = (now, now);
        }
    }

    /// An `ACK` up to `cum_seq`, collected at `now`; `cleared` sees each
    /// frame it clears. Returns whether to resend the head now: the `ACK`
    /// covers nothing, so the receiver misses it, and it was never resent.
    pub(crate) fn on_ack(
        &mut self,
        cum_seq: u64,
        now: Instant,
        mut cleared: impl FnMut(&Unacked),
    ) -> bool {
        let acked = self.unacked.partition_point(|u| u.seq <= cum_seq);
        if acked == 0 {
            return self.unacked.front().is_some_and(|head| !head.retransmitted);
        }
        // Karn's rule, and one sample per ACK, from its newest frame (older
        // ones measure how long the receiver sat on it). Only the oldest can
        // have been resent; the frames behind it were held for the repair.
        if !self.unacked[0].retransmitted {
            self.rto.sample(now.duration_since(self.unacked[acked - 1].first_sent));
        }
        self.rto.progress();
        self.progressed = now;
        self.unacked.drain(..acked).for_each(|u| cleared(&u));
        false
    }

    /// The timer at `now`, in a wait begun at `since`: the head expires its
    /// [`Rto`] after its last transmission, the last progress and the start
    /// of the wait, whichever is latest (unpolled time is no sign of loss).
    pub(crate) fn on_tick(&mut self, now: Instant, since: Instant) -> Tick {
        let Some(head) = self.unacked.front() else { return Tick::Idle };
        let rto = self.rto.current();
        let due = head.last_sent.max(self.progressed).max(since) + rto;
        if due > now {
            return Tick::Due(due);
        }
        self.rto.timeout();
        Tick::Expired(rto)
    }

    /// Marks the head resent at `now` and returns it, with whether it
    /// recovers a suppressed first transmission; `None` when nothing is
    /// unacknowledged.
    pub(crate) fn resend_head(&mut self, now: Instant) -> Option<(&Unacked, bool)> {
        let head = self.unacked.front_mut()?;
        let recovers_drop = head.dropped_first && !head.retransmitted;
        (head.last_sent, head.retransmitted) = (now, true);
        Some((head, recovers_drop))
    }
}

/// Where a [`Receiver`] stands with its `ACK`s, besides its owed deliveries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AckState {
    /// An `ACK` goes out at [`ACK_EVERY`] owed deliveries, or when asked.
    Quiet,
    /// A gap was learned while deliveries were owed: their `ACK` goes out
    /// now, its repeat at the end of the poll.
    Settling,
    /// An `ACK` goes out at the end of the poll: a repeat, a duplicate's
    /// answer, or one a full socket refused.
    Owed,
    /// The last `ACK` covered nothing new, and nothing was delivered since:
    /// the gap is reported, and a wait or a hold repeats nothing more.
    Repeated,
}

/// What a [`Receiver`] made of a `DATA` frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Admitted {
    Duplicate,
    Held,
    /// Delivered, then this many held successors after it.
    Delivered(u64),
}

/// The receiving half of a stream.
#[derive(Clone, Debug)]
pub(crate) struct Receiver {
    /// Positions delivered, as a one-stream admit guard.
    seqr: PairSequencer,
    /// Early frames parked until their predecessors arrive.
    held: BTreeMap<u64, DataFrame>,
    /// Deliveries since the last `ACK` written.
    debt: u32,
    state: AckState,
}

impl Default for Receiver {
    fn default() -> Receiver {
        let seqr = PairSequencer::new(1);
        Receiver { seqr, held: BTreeMap::new(), debt: 0, state: AckState::Quiet }
    }
}

impl Receiver {
    /// What an `ACK` written now says: every position up to it delivered.
    pub(crate) fn cum_seq(&self) -> u64 {
        self.seqr.delivered(0)
    }

    /// Drops a duplicate, holds an early frame, or hands `deliver` the frame
    /// and the held successors it unblocks.
    pub(crate) fn on_data(
        &mut self,
        frame: DataFrame,
        mut deliver: impl FnMut(DataFrame),
    ) -> Admitted {
        match self.seqr.admit(0, frame.pair_seq) {
            SeqVerdict::Duplicate => self.duplicate(),
            SeqVerdict::Hold => match self.held.entry(frame.pair_seq) {
                // A resend of a held frame is a duplicate, not a second hold.
                Entry::Occupied(_) => self.duplicate(),
                Entry::Vacant(slot) => {
                    slot.insert(frame);
                    self.gap();
                    Admitted::Held
                }
            },
            SeqVerdict::Deliver => {
                deliver(frame);
                let mut released = 0;
                while let Some(next) = self.held.remove(&self.seqr.expected(0)) {
                    let v = self.seqr.admit(0, next.pair_seq);
                    debug_assert_eq!(v, SeqVerdict::Deliver);
                    deliver(next);
                    released += 1;
                }
                // A delivery answers a repeat.
                self.debt += 1 + released as u32;
                if self.state == AckState::Repeated {
                    self.state = AckState::Quiet;
                }
                if !self.held.is_empty() {
                    self.gap();
                }
                Admitted::Delivered(released)
            }
        }
    }

    /// A receive waits on the stream and its socket yielded nothing.
    pub(crate) fn on_wait(&mut self) {
        self.gap();
    }

    /// Whether the `ACK` settling owed deliveries is to be written now.
    pub(crate) fn settling(&self) -> bool {
        self.state == AckState::Settling
    }

    /// Whether an `ACK` is due at the end of a poll (`forced`: asked for).
    pub(crate) fn ack_due(&self, forced: bool) -> bool {
        matches!(self.state, AckState::Settling | AckState::Owed)
            || self.debt >= ACK_EVERY
            || (forced && self.debt > 0)
    }

    /// The `ACK` of [`Receiver::cum_seq`] was written, or met a full socket
    /// and stays owed.
    pub(crate) fn acked(&mut self, written: bool) {
        self.state = match self.state {
            _ if !written || self.state == AckState::Settling => AckState::Owed,
            _ if self.debt == 0 => AckState::Repeated,
            _ => AckState::Quiet,
        };
        if written {
            self.debt = 0;
        }
    }

    /// The next `ACK` must cover nothing new to say the head is missing.
    fn gap(&mut self) {
        self.state = match self.state {
            AckState::Repeated => AckState::Repeated,
            _ if self.debt > 0 => AckState::Settling,
            _ => AckState::Owed,
        };
    }

    /// A position seen before: its sender lacks an `ACK`, so answer.
    fn duplicate(&mut self) -> Admitted {
        self.state = AckState::Owed;
        Admitted::Duplicate
    }
}

#[cfg(test)]
pub(crate) mod tests;
