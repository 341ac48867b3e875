//! The stream machine with no socket: its timeout arithmetic, and an
//! exhaustive exploration of one stream's loss patterns, driving a sender
//! and a receiver the way the fabric does.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use shasta_core::protocol::ProtoMsg;
use shasta_core::space::Block;

use super::*;
use crate::wire::VERSION;

/// A sender's unacknowledged frames, for the fabric's tests.
pub(crate) fn unacked(tx: &Sender) -> &VecDeque<Unacked> {
    &tx.unacked
}

/// A sender's retransmission timeout, for the fabric's tests.
pub(crate) fn rto(tx: &Sender) -> Rto {
    tx.rto
}

/// How many frames a receiver holds, for the fabric's tests.
pub(crate) fn held(rx: &Receiver) -> usize {
    rx.held.len()
}

/// A sender's `(SRTT, RTTVAR)`, for the fabric's tests.
pub(crate) fn smoothed(tx: &Sender) -> Option<(Duration, Duration)> {
    tx.rto.smoothed
}

const fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

#[test]
fn the_rto_follows_rfc_6298() {
    let mut rto = Rto::default();
    assert_eq!(rto.current(), RTO_MAX, "no sample yet");

    // First sample R: SRTT = R, RTTVAR = R/2, RTO = 3R.
    rto.sample(us(2_000));
    assert_eq!(rto.smoothed, Some((us(2_000), us(1_000))));
    assert_eq!(rto.current(), us(6_000));

    // Then RTTVAR = 3/4 RTTVAR + 1/4 |SRTT - R| and SRTT = 7/8 SRTT + 1/8 R,
    // the deviation taken against the old SRTT.
    for (r, srtt, rttvar) in [
        (us(3_600), us(2_200), us(1_150)),
        (us(600), us(2_000), us(1_262) + Duration::from_nanos(500)),
        (us(2_000), us(2_000), us(946) + Duration::from_nanos(875)),
    ] {
        rto.sample(r);
        assert_eq!(rto.smoothed, Some((srtt, rttvar)), "after a sample of {r:?}");
        assert_eq!(rto.current(), srtt + rttvar * 4);
    }
}

#[test]
fn the_rto_is_clamped_doubles_per_timeout_and_resets_on_progress() {
    for (r, want) in [(us(5), RTO_MIN), (us(666), RTO_MIN), (us(1_500), us(4_500))] {
        let mut rto = Rto::default();
        rto.sample(r);
        assert_eq!(rto.current(), want, "one sample of {r:?}");
    }
    let mut rto = Rto::default();
    rto.sample(Duration::from_millis(40));
    assert_eq!(rto.current(), RTO_MAX);

    let mut rto = Rto::default();
    rto.sample(us(100));
    let mut seen = Vec::new();
    for _ in 0..6 {
        seen.push(rto.current());
        rto.timeout();
    }
    assert_eq!(seen, [RTO_MIN, RTO_MIN * 2, RTO_MAX, RTO_MAX, RTO_MAX, RTO_MAX]);
    let smoothed = rto.smoothed;
    rto.progress();
    assert_eq!(rto.current(), RTO_MIN);
    assert_eq!(rto.smoothed, smoothed, "progress resets the backoff, not the estimate");

    // Through a stream: the timer expires on a head with no sample yet, and
    // the ACK of the resent head is progress but no sample (Karn's rule),
    // since it times the repair, not a round trip.
    let t = Instant::now();
    let mut tx = Sender::new(t);
    tx.send(false, 0, |_| Vec::new());
    tx.written(1, t);
    assert_eq!(tx.on_tick(t + RTO_MAX, t), Tick::Expired(RTO_MAX));
    tx.resend_head(t + RTO_MAX);
    assert!(!tx.on_ack(1, t + RTO_MAX + us(100), |_| {}));
    assert_eq!(tx.rto, Rto::default(), "the ACK of a resent frame is no sample");
}

/// The largest number of frames an explored stream carries.
const FRAMES: u64 = 4;

/// The exploration's bound on a schedule: turns beyond the sends and
/// receives every schedule has. It does not bind at [`FRAMES`] = 4: a
/// bound of 20 reaches no state that 12 does not.
const EXTRA_TURNS: usize = 12;

/// The most `ACK`s a stream of `frames` frames, `losses` of them lost, may
/// write in a schedule: one per delivery, and one repeat per loss. (Some
/// schedule reaches it for every count of frames and of losses above 0.)
fn ack_bound(frames: u64, losses: u32) -> u64 {
    frames + u64::from(losses)
}

/// What one end of an explored stream does next. The sender's end is A,
/// the receiver's B.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Turn {
    /// A sends the next frame (at a full window it waits for room first).
    Send,
    /// B receives the next message (waiting for it if need be).
    Recv,
    /// A's end is polled: a receive of the reverse stream finds its message
    /// there, collecting the stream's `ACK`s.
    PollA,
    /// B's end is polled without a wait: a receive of another processor
    /// pair's message on the stream finds it there.
    PollB,
    /// B's socket fills up, so its `ACK`s meet a full socket until A next
    /// reads.
    Fill,
}

/// One explored stream: its configuration, the two halves of the machine,
/// the bytes in flight between them, and what the properties remember.
#[derive(Clone, Debug)]
struct World {
    frames: u64,
    /// Bit `i - 1` set: the first transmission of position `i` is lost.
    drops: u32,
    /// Whether a slow-path poll drains A's end before B's (the fabric
    /// drains ends in node order, so either happens).
    a_first: bool,
    start: Instant,
    now: Instant,
    tx: Sender,
    rx: Receiver,
    /// Frames A has sent and not yet written.
    corked: usize,
    /// Positions written to B, unread; `cum_seq`s of `ACK`s written to A.
    data: VecDeque<u64>,
    acks: VecDeque<u64>,
    /// B's socket refuses `ACK`s until A next reads.
    full: bool,
    filled: bool,
    /// Delivered, not yet received; and counts.
    inbox: VecDeque<u64>,
    sent: u64,
    received: u64,
    delivered: u64,
    /// `cum_seq` of the last `ACK` written, written and read.
    last_ack: u64,
    acks_written: u64,
    acks_read: u64,
    /// Bit `i - 1` set: position `i` was resent.
    resent: u32,
    /// An `ACK` met a full socket: from then on a loss may wait for the
    /// timer, and what that timer resends may arrive twice.
    met_full: bool,
    /// A sender waits at its window / a receive waits.
    at_window: bool,
    waiting: bool,
    /// Repeats written in the current wait, and the holds, repairs that
    /// left frames held, and duplicates it met, each of which earns one.
    wait_repeats: u32,
    wait_news: u32,
    /// `(gap, acks)`: B knew position `gap` was missing once it had written
    /// `acks` `ACK`s, so A must have resent it once it has read them.
    owed: Vec<(u64, u64)>,
    /// Which cases of [`SEEN`] the schedule reached.
    seen: u8,
    steps: u32,
    fault: Option<String>,
    trail: Option<Vec<String>>,
}

/// The cases the exploration must reach, as bits of `World::seen`.
const FAST: u8 = 1 << 0;
const TIMER: u8 = 1 << 1;
const REPAIR: u8 = 1 << 2;
const REPORTED_WAIT: u8 = 1 << 3;
const FULL_SOCKET: u8 = 1 << 4;
const SEEN: [(u8, &str); 5] = [
    (FAST, "a resend on a repeated ACK"),
    (TIMER, "a resend on the timer"),
    (REPAIR, "a repair that leaves frames held"),
    (REPORTED_WAIT, "a wait whose gap an unanswered repeat reported"),
    (FULL_SOCKET, "an ACK a full socket refused"),
];

fn bit(seq: u64) -> u32 {
    1 << (seq - 1)
}

fn frame(seq: u64) -> DataFrame {
    DataFrame {
        version: VERSION,
        src: 0,
        dst: 1,
        pair_seq: seq,
        via_vnode: false,
        trace: 0,
        msg: ProtoMsg::ReadReq { block: Block { start: seq * 64, len: 64 } },
    }
}

impl World {
    fn new(frames: u64, window: usize, drops: u32, a_first: bool) -> World {
        let now = Instant::now();
        World {
            frames,
            drops,
            a_first,
            start: now,
            now,
            tx: Sender { window, ..Sender::new(now) },
            rx: Receiver::default(),
            corked: 0,
            data: VecDeque::new(),
            acks: VecDeque::new(),
            full: false,
            filled: false,
            inbox: VecDeque::new(),
            sent: 0,
            received: 0,
            delivered: 0,
            last_ack: 0,
            acks_written: 0,
            acks_read: 0,
            resent: 0,
            met_full: false,
            at_window: false,
            waiting: false,
            wait_repeats: 0,
            wait_news: 0,
            owed: Vec::new(),
            seen: 0,
            steps: 0,
            fault: None,
            trail: None,
        }
    }

    fn note(&mut self, what: impl FnOnce() -> String) {
        if let Some(trail) = &mut self.trail {
            trail.push(what());
        }
    }

    fn fail(&mut self, why: String) {
        self.note(|| format!("FAILED: {why}"));
        self.fault.get_or_insert(why);
    }

    /// Everything that decides what happens next and what the properties
    /// say about it, as one value: two schedules that reach the same key
    /// have the same futures.
    fn key(&self) -> Vec<u64> {
        let ns = |t: Instant| t.duration_since(self.start).as_nanos() as u64;
        let (srtt, rttvar) = self.tx.rto.smoothed.unwrap_or((Duration::MAX, Duration::MAX));
        let mut key = vec![
            self.sent,
            self.received,
            self.delivered,
            self.corked as u64,
            u64::from(self.full) | u64::from(self.filled) << 1 | u64::from(self.met_full) << 2,
            self.last_ack,
            self.acks_written,
            self.acks_read,
            u64::from(self.resent),
            u64::from(self.seen),
            ns(self.now),
            self.tx.stamped,
            ns(self.tx.progressed),
            u64::from(self.tx.rto.backoff),
            srtt.as_nanos() as u64,
            rttvar.as_nanos() as u64,
            self.rx.cum_seq(),
            u64::from(self.rx.debt),
            self.rx.state as u64,
        ];
        for seqs in [&self.data, &self.acks, &self.inbox] {
            key.push(seqs.len() as u64);
            key.extend(seqs);
        }
        key.push(self.rx.held.len() as u64);
        key.extend(self.rx.held.keys());
        key.push(self.owed.len() as u64);
        key.extend(self.owed.iter().flat_map(|&(gap, acks)| [gap, acks]));
        for u in &self.tx.unacked {
            key.extend([u.seq, ns(u.last_sent), ns(u.first_sent), u64::from(u.retransmitted)]);
        }
        key
    }

    /// The turns possible now, none of them a no-op.
    fn turns(&self) -> Vec<Turn> {
        let mut turns = Vec::new();
        if self.sent < self.frames {
            turns.push(Turn::Send);
        }
        if self.received < self.sent {
            turns.push(Turn::Recv);
        }
        if !self.acks.is_empty() {
            turns.push(Turn::PollA);
        }
        if self.corked > 0 || !self.data.is_empty() || (self.rx.ack_due(false) && !self.full) {
            turns.push(Turn::PollB);
        }
        turns
    }

    fn take(&mut self, turn: Turn) {
        self.note(|| format!("{turn:?}"));
        match turn {
            Turn::Send => self.send(),
            Turn::Recv => self.recv(),
            Turn::PollA => {
                self.poll_a();
            }
            Turn::PollB => {
                self.poll_b(false);
            }
            Turn::Fill => {
                self.full = true;
                self.filled = true;
            }
        }
    }

    /// `Fabric::send_data`.
    fn send(&mut self) {
        let mut since = None;
        while self.tx.window_full() && self.fault.is_none() {
            self.at_window = true;
            self.poll_slow(&mut since);
        }
        self.at_window = false;
        self.sent += 1;
        let dropped = self.drops & bit(self.sent) != 0;
        self.tx.send(dropped, 0, |_| Vec::new());
        self.corked += 1;
        let seq = self.sent;
        self.note(|| format!("  A sends {seq}{}", if dropped { " (lost)" } else { "" }));
    }

    /// `Fabric::recv` and `Fabric::await_turn`.
    fn recv(&mut self) {
        let mut since = None;
        while self.fault.is_none() {
            if let Some(seq) = self.inbox.pop_front() {
                self.received = seq;
                break;
            }
            if self.poll_b(false) == 0 {
                if since.is_none() {
                    self.note(|| "  B waits".into());
                    if self.rx.state == AckState::Repeated {
                        self.seen |= REPORTED_WAIT;
                    }
                    self.waiting = true;
                    (self.wait_repeats, self.wait_news) = (0, 0);
                    self.rx.on_wait();
                    self.settle();
                }
                self.poll_slow(&mut since);
            }
        }
        self.waiting = false;
    }

    /// `Fabric::poll_slow`, with the clock jumping to the next timer where
    /// the fabric would sleep.
    fn poll_slow(&mut self, since: &mut Option<Instant>) {
        self.steps += 1;
        if self.steps > 1_000 {
            return self.fail("the stream makes no progress".into());
        }
        let mut moved = 0;
        for _pass in 0..2 {
            let first = if self.a_first { self.poll_a() } else { self.poll_b(true) };
            let second = if self.a_first { self.poll_b(true) } else { self.poll_a() };
            moved += first + second;
        }
        let since = *since.get_or_insert(self.now);
        let mut wake = since + RTO_MAX * 8;
        match self.tx.on_tick(self.now, since) {
            Tick::Idle => {}
            Tick::Due(due) => wake = wake.min(due),
            Tick::Expired(_) => {
                let head = self.tx.unacked[0].seq;
                if !self.at_window && !self.met_full {
                    self.fail(format!(
                        "{head} was resent on its timer, though no sender waited at a full \
                         window and every ACK was written"
                    ));
                }
                self.seen |= TIMER;
                self.resend("its timer");
                moved += 1;
            }
        }
        if moved == 0 {
            if self.now >= since + RTO_MAX * 8 {
                return self.fail("a wait found nothing to do and nothing due".into());
            }
            let slept = wake - self.now;
            self.note(|| format!("  sleep {slept:?}"));
            self.now = wake;
        }
    }

    /// `Fabric::uncork` of A's end.
    fn uncork(&mut self) {
        if self.corked == 0 {
            return;
        }
        let from = self.tx.unacked.len() - self.corked;
        for u in self.tx.unacked.range(from..) {
            if self.drops & bit(u.seq) == 0 {
                self.data.push_back(u.seq);
            }
        }
        self.tx.written(self.corked, self.now);
        self.corked = 0;
    }

    /// `Fabric::drain` of B's end, and what B knows at the end of it.
    fn poll_b(&mut self, forced: bool) -> usize {
        self.uncork();
        let mut handled = 0;
        while let Some(seq) = self.data.pop_front() {
            handled += 1;
            let (inbox, delivered) = (&mut self.inbox, &mut self.delivered);
            let mut order = true;
            let admitted = self.rx.on_data(frame(seq), |f| {
                order &= f.pair_seq == *delivered + 1;
                *delivered = f.pair_seq;
                inbox.push_back(f.pair_seq);
            });
            self.note(|| format!("  B reads {seq}: {admitted:?}"));
            if !order {
                self.fail(format!("{seq} was delivered out of order or twice"));
            }
            let repaired = matches!(admitted, Admitted::Delivered(_));
            if repaired && !self.rx.held.is_empty() {
                self.seen |= REPAIR;
            }
            if !repaired || !self.rx.held.is_empty() {
                self.wait_news += 1;
            }
            self.settle();
        }
        if self.rx.ack_due(forced) {
            self.write_ack();
        }
        // B knows a frame is missing if it holds a later one, or if a
        // receive waits and its message has not been delivered.
        if !self.rx.held.is_empty() || (self.waiting && self.delivered == self.received) {
            self.owed.push((self.delivered + 1, self.acks_written));
        }
        handled
    }

    /// `Fabric::settle`.
    fn settle(&mut self) {
        if self.rx.settling() {
            self.write_ack();
        }
    }

    /// `Fabric::write_ack`.
    fn write_ack(&mut self) {
        let cum = self.rx.cum_seq();
        let written = !self.full;
        self.rx.acked(written);
        if !written {
            self.met_full = true;
            self.seen |= FULL_SOCKET;
            return self.note(|| format!("  B's ACK {cum} meets a full socket"));
        }
        let repeat = cum == self.last_ack;
        self.note(|| format!("  B writes ACK {cum}{}", if repeat { " (a repeat)" } else { "" }));
        if repeat && self.waiting {
            self.wait_repeats += 1;
            if self.wait_repeats > 1 + self.wait_news {
                self.fail(format!("a wait wrote {} repeats of its own", self.wait_repeats));
            }
        }
        self.acks.push_back(cum);
        self.acks_written += 1;
        self.last_ack = cum;
    }

    /// `Fabric::drain` of A's end: it collects `ACK`s, and then A must
    /// have resent every gap B knew of when it wrote them.
    fn poll_a(&mut self) -> usize {
        let mut handled = 0;
        while let Some(cum) = self.acks.pop_front() {
            handled += 1;
            self.acks_read += 1;
            let mut cleared = 0;
            if self.tx.on_ack(cum, self.now, |_| cleared += 1) {
                self.seen |= FAST;
                self.resend("a repeated ACK");
            } else if cleared == 0 && !self.met_full {
                self.fail(format!("B wrote ACK {cum}, which its sender ignores"));
            }
        }
        self.full = false;
        let (read, resent) = (self.acks_read, self.resent);
        if !self.met_full {
            if let Some(&(gap, _)) =
                self.owed.iter().find(|&&(gap, acks)| acks <= read && resent & bit(gap) == 0)
            {
                self.fail(format!(
                    "B knew {gap} was missing, but the ACKs it wrote had A resend nothing"
                ));
            }
        }
        self.owed.retain(|&(_, acks)| acks > read);
        handled
    }

    /// `Fabric::resend_head`.
    fn resend(&mut self, on: &str) {
        self.uncork();
        let seq = self.tx.resend_head(self.now).expect("A resends only a head it has").0.seq;
        self.note(|| format!("  A resends {seq} on {on}"));
        if !self.met_full && (self.drops & bit(seq) == 0 || self.resent & bit(seq) != 0) {
            self.fail(format!("{seq} was resent, though it was not lost or already resent"));
        }
        self.resent |= bit(seq);
        self.data.push_back(seq);
    }

    /// Properties of a schedule that received every message.
    fn finished(&mut self) {
        let bound = ack_bound(self.frames, self.drops.count_ones());
        if self.acks_written > bound {
            let acks = self.acks_written;
            self.fail(format!("{acks} ACKs for {} frames, above {bound}", self.frames));
        }
    }
}

/// One explored configuration and the turns of a schedule in it.
#[derive(Clone, Copy, Debug)]
struct Config {
    frames: u64,
    window: usize,
    drops: u32,
    a_first: bool,
    fill: bool,
}

impl Config {
    fn world(self) -> World {
        World::new(self.frames, self.window, self.drops, self.a_first)
    }

    /// Runs `turns` from the start with the trail kept.
    fn replay(self, turns: &[Turn]) -> World {
        let mut world = self.world();
        world.trail = Some(Vec::new());
        for &turn in turns {
            world.take(turn);
            if world.fault.is_some() {
                break;
            }
        }
        if world.fault.is_none() {
            world.finished();
        }
        world
    }
}

/// What an exploration found: the schedules it ran to the end and the
/// states it reached, the cases they reached, and the shortest schedule that
/// broke a property.
#[derive(Default)]
struct Explored {
    schedules: u64,
    states: u64,
    seen: u8,
    shortest: Option<Vec<Turn>>,
}

/// Runs every schedule of `config` breadth first: every order of the two
/// ends' turns that is not a no-op, with at most [`EXTRA_TURNS`] polls and
/// fills besides the sends and receives. A state reached before (with the
/// same turns left) is not explored again, and the first schedule that
/// breaks a property is a shortest one.
fn explore(config: Config, out: &mut Explored) {
    let mut reached = HashSet::new();
    let mut frontier = vec![(config.world(), Vec::new(), 0)];
    while !frontier.is_empty() {
        let mut next_frontier = Vec::new();
        for (world, turns, extra) in frontier {
            let mut next_turns = world.turns();
            if config.fill && !world.filled {
                next_turns.push(Turn::Fill);
            }
            for turn in next_turns {
                let extra = extra + usize::from(!matches!(turn, Turn::Send | Turn::Recv));
                if extra > EXTRA_TURNS {
                    continue;
                }
                let mut next = world.clone();
                next.take(turn);
                let mut turns = turns.clone();
                turns.push(turn);
                if next.fault.is_none() && next.received == next.frames {
                    next.finished();
                    out.schedules += 1;
                    out.seen |= next.seen;
                }
                if next.fault.is_some() {
                    out.shortest = Some(turns);
                    return;
                }
                if next.received < next.frames && reached.insert((next.key(), extra)) {
                    out.states += 1;
                    next_frontier.push((next, turns, extra));
                }
            }
        }
        frontier = next_frontier;
    }
}

/// Every subset of lost first transmissions of up to [`FRAMES`] frames on
/// one stream, at windows of one, two and [`SEND_WINDOW`] frames, under
/// every schedule of the two ends' turns up to [`EXTRA_TURNS`] polls and
/// fills, with either end polled first on the slow path:
/// - every frame is delivered exactly once, in order;
/// - once the receiver knows a frame is missing — it holds a later one, or
///   a receive waits for it — the sender resends it on reading the `ACK`s
///   the receiver wrote by then, unless one of them met a full socket; so
///   the timer resends only for a sender waiting at a full window;
/// - nothing is resent that was not lost, or twice;
/// - a wait writes at most one repeated `ACK` of its own: any more answer
///   a hold, a repair or a duplicate met during the wait;
/// - the sender ignores no `ACK` the receiver writes;
/// - a stream writes at most one `ACK` per frame and one per loss
///   ([`ack_bound`]).
///
/// Configurations run smallest first (frames, then window, then fewest
/// losses), and a broken property panics with the shortest schedule of the
/// first configuration that breaks it, replayed step by step.
#[test]
fn every_loss_pattern_of_a_short_stream_is_delivered_once_and_resent_on_a_repeat() {
    let mut total = Explored::default();
    for frames in 1..=FRAMES {
        let mut losses: Vec<u32> = (0..1 << frames).collect();
        losses.sort_by_key(|drops| drops.count_ones());
        for window in [1, 2, SEND_WINDOW] {
            for &drops in &losses {
                for (a_first, fill) in [(true, false), (false, false), (true, true), (false, true)]
                {
                    let config = Config { frames, window, drops, a_first, fill };
                    let mut out = Explored::default();
                    explore(config, &mut out);
                    if let Some(turns) = out.shortest {
                        let world = config.replay(&turns);
                        panic!(
                            "{}\n{config:?}, turns {turns:?}:\n{}",
                            world.fault.as_deref().unwrap_or("(no fault on replay)"),
                            world.trail.unwrap_or_default().join("\n")
                        );
                    }
                    total.schedules += out.schedules;
                    total.states += out.states;
                    total.seen |= out.seen;
                }
            }
        }
    }
    for (case, what) in SEEN {
        assert!(total.seen & case != 0, "no schedule reached {what}");
    }
    eprintln!("explored {} states, {} complete schedules", total.states, total.schedules);
}
