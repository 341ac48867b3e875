//! Deterministic coverage of the delivery guard, the ACK policy and loss
//! recovery. With no reader thread or timer racing the engine, duplicates,
//! reordering and split frames no longer happen by themselves, so these
//! tests put them on the wire: `Fabric::write_frame` is the hook, writing
//! raw bytes on an end past the sender's stamping and send buffer. Losses
//! come from a [`DropPlan`], which counts `send_data` calls.

use shasta_core::space::Block;

use super::*;
use crate::stream::tests::{held, rto, smoothed, unacked};
use crate::stream::{ACK_EVERY, RTO_MIN};

/// Two single-processor nodes; processor 0 sends to processor 1.
fn two_nodes() -> (Fabric, usize, usize) {
    two_nodes_dropping(0)
}

/// [`two_nodes`] with the first transmission of every `drop_every`-th
/// `send_data` suppressed.
fn two_nodes_dropping(drop_every: u64) -> (Fabric, usize, usize) {
    let f = Fabric::connect(vec![0, 1], 2, Backend::Uds, DropPlan { drop_every }).expect("fabric");
    let (tx, rx) = (f.end_ix(0, 1), f.end_ix(1, 0));
    (f, tx, rx)
}

/// Sends `seqs` from 0 to 1, receives them, and has the ACK written and
/// collected, so the next ACK on the stream can only repeat this one.
fn exchange(f: &mut Fabric, tx: usize, rx: usize, seqs: std::ops::RangeInclusive<u64>) {
    for seq in seqs.clone() {
        f.send_data(0, 1, false, &msg(seq), 0);
    }
    for seq in seqs {
        assert_eq!(f.recv(0, 1), msg(seq));
    }
    f.drain(rx, true);
    f.drain(tx, false);
    assert!(unacked(&f.ends[tx].tx).is_empty());
}

fn msg(seq: u64) -> ProtoMsg {
    ProtoMsg::ReadReq { block: Block { start: seq * 64, len: 64 } }
}

/// The bytes `send_data(0, 1, false, &msg(seq), 0)` puts on the wire when
/// it stamps position `seq`.
fn data(seq: u64) -> Vec<u8> {
    encode_frame(&Frame::Data(DataFrame {
        version: VERSION,
        src: 0,
        dst: 1,
        pair_seq: seq,
        via_vnode: false,
        trace: 0,
        msg: msg(seq),
    }))
    .expect("encodes")
}

/// The bytes of position `seq` on the reverse stream, processor 1 to 0.
fn reverse_data(seq: u64) -> Vec<u8> {
    encode_frame(&Frame::Data(DataFrame {
        version: VERSION,
        src: 1,
        dst: 0,
        pair_seq: seq,
        via_vnode: false,
        trace: 0,
        msg: msg(seq),
    }))
    .expect("encodes")
}

/// Writes `frame(1)`, `frame(2)`, ... on end `e` until its socket refuses
/// the next one whole, and returns how many it took.
fn park(f: &mut Fabric, e: usize, frame: impl Fn(u64) -> Vec<u8>) -> usize {
    let mut parked = 0;
    while f.write_frame(e, &frame(parked as u64 + 1), false) {
        parked += 1;
    }
    parked
}

#[test]
fn a_duplicate_is_dropped_and_answered_with_the_cumulative_ack() {
    let (mut f, tx, rx) = two_nodes();
    f.send_data(0, 1, false, &msg(1), 0);
    assert_eq!(f.recv(0, 1), msg(1));
    assert_eq!(f.counts().acks_sent, 0, "one delivery is below the ACK interval");
    assert_eq!(unacked(&f.ends[tx].tx).len(), 1);

    f.write_frame(tx, &data(1), true);
    assert_eq!(f.drain(rx, false), 1);
    let counts = f.counts();
    assert_eq!((counts.dups_dropped, counts.acks_sent), (1, 1), "{counts:?}");
    assert!(f.inboxes.iter().all(VecDeque::is_empty), "a duplicate must not be delivered again");

    // The re-ACK is cumulative: collecting it empties the send buffer.
    assert_eq!(f.drain(tx, false), 1);
    assert!(unacked(&f.ends[tx].tx).is_empty());
    assert_eq!(f.unacked_depth, 0);
}

#[test]
fn a_reordered_pair_is_held_and_resequenced() {
    let (mut f, tx, rx) = two_nodes();
    f.write_frame(tx, &data(2), true);
    f.write_frame(tx, &data(1), true);
    assert_eq!(f.recv(0, 1), msg(1));
    assert_eq!(f.recv(0, 1), msg(2));
    let counts = f.counts();
    assert_eq!((counts.holds, counts.resequenced, counts.dups_dropped), (1, 1, 0), "{counts:?}");
    assert_eq!(held(&f.ends[rx].rx), 0);
}

#[test]
fn a_frame_split_across_two_writes_is_reassembled() {
    let (mut f, tx, rx) = two_nodes();
    let bytes = data(1);
    f.write_frame(tx, &bytes[..10], true);
    assert_eq!(f.drain(rx, false), 0, "ten bytes are not a frame");
    assert!(f.inboxes.iter().all(VecDeque::is_empty));
    f.write_frame(tx, &bytes[10..], true);
    assert_eq!(f.recv(0, 1), msg(1));
}

#[test]
fn one_ack_covers_every_delivery_since_the_last() {
    let (mut f, tx, rx) = two_nodes();
    for seq in 1..=u64::from(ACK_EVERY) + 3 {
        f.send_data(0, 1, false, &msg(seq), 0);
    }
    assert_eq!(f.drain(rx, false), ACK_EVERY as usize + 3);
    assert_eq!(f.counts().acks_sent, 1, "the interval was reached within one drain");
    f.drain(tx, false);
    assert_eq!(f.unacked_depth, 0);
    // Below the interval nothing is written until somebody asks.
    f.send_data(0, 1, false, &msg(u64::from(ACK_EVERY) + 4), 0);
    f.drain(rx, false);
    assert_eq!(f.counts().acks_sent, 1);
    f.drain(rx, true);
    assert_eq!(f.counts().acks_sent, 2);
}

#[test]
fn an_ack_that_would_block_stays_owed_and_is_never_written_in_part() {
    let (mut f, tx, rx) = two_nodes();
    f.send_data(0, 1, false, &msg(1), 0);
    assert_eq!(f.recv(0, 1), msg(1));
    // Fill the rx -> tx direction with ACKs that acknowledge nothing.
    // (Collecting the first of them will also make the sender resend its
    // head: one more duplicate.)
    let noop = encode_frame(&Frame::Ack { version: VERSION, cum_seq: 0 }).expect("encodes");
    let parked = park(&mut f, rx, |_| noop.clone());
    f.write_frame(tx, &data(1), true);
    f.drain(rx, false);
    assert!(f.ends[rx].rx.ack_due(false), "the re-ACK met a full socket");
    assert_eq!(f.counts().acks_sent, 0);
    // Every byte the sending end reads is a whole frame, and the ACK goes
    // out with the owing end's next drain.
    assert_eq!(f.drain(tx, false), parked);
    assert_eq!(f.ends[tx].reader.buffered(), 0);
    f.drain(rx, false);
    assert!(!f.ends[rx].rx.ack_due(false));
    assert_eq!(f.counts().acks_sent, 1);
    assert_eq!(f.drain(tx, false), 1);
    assert!(unacked(&f.ends[tx].tx).is_empty());
}

#[test]
fn sends_are_corked_until_the_receiving_end_is_drained() {
    let (mut f, tx, rx) = two_nodes();
    let reg = Registry::enabled();
    f.set_metrics(&reg);
    let io = |what| reg.counter(&format!("wire.io.{what}")).get();
    let (reads, writes) = (io("reads"), io("writes"));
    for seq in 1..=8 {
        f.send_data(0, 1, false, &msg(seq), 0);
    }
    assert_eq!(io("writes"), writes, "a send writes nothing");
    let after_sends = Instant::now();

    // One write puts the whole batch on the wire, one read takes it off.
    assert_eq!(f.drain(rx, false), 8);
    assert_eq!((io("reads"), io("writes")), (reads + 1, writes + 1));
    for seq in 1..=8 {
        assert_eq!(f.recv(0, 1), msg(seq));
    }
    // The timers and round trips run from the write, not the send.
    assert!(unacked(&f.ends[tx].tx).iter().all(|u| u.first_sent >= after_sends));
    assert!(unacked(&f.ends[tx].tx).iter().all(|u| u.last_sent == u.first_sent));
}

#[test]
fn a_loss_inside_a_corked_batch_is_resent_on_a_repeated_ack() {
    let (mut f, tx, rx) = two_nodes_dropping(4);
    let reg = Registry::enabled();
    f.set_metrics(&reg);
    for seq in 1..=5 {
        f.send_data(0, 1, false, &msg(seq), 0);
    }
    assert_eq!(f.counts().induced_drops, 1, "position 4 never reached the wire");
    // 1..=3 are delivered and 5 is held. The hold settles the three owed
    // deliveries with an ACK of 3 and then earns a second ACK of 3.
    assert_eq!(f.drain(rx, false), 4);
    assert_eq!(f.counts().acks_sent, 2);
    let (lost, next) = (&unacked(&f.ends[tx].tx)[3], &unacked(&f.ends[tx].tx)[4]);
    assert_eq!(lost.first_sent, next.first_sent, "stamped with the batch it was dropped from");
    // The first clears 1..=3, the second covers nothing: 4 is resent at once.
    assert_eq!(f.drain(tx, false), 2);
    assert!(unacked(&f.ends[tx].tx)
        .iter()
        .map(|u| (u.seq, u.retransmitted))
        .eq([(4, true), (5, false)]));
    assert_eq!(f.counts().retransmits, 1);
    for seq in 1..=5 {
        assert_eq!(f.recv(0, 1), msg(seq));
    }
    let count = |name| reg.counter(name).get();
    assert_eq!((count("wire.retransmits.fast"), count("wire.retransmits.timeout")), (1, 0));
    let counts = f.counts();
    assert_eq!((counts.holds, counts.resequenced, counts.dups_dropped), (1, 1, 0), "{counts:?}");
}

#[test]
fn a_hold_behind_owed_deliveries_is_resent_without_a_timer() {
    const K: u64 = 5;
    let (mut f, _, _) = two_nodes_dropping(K + 1);
    let reg = Registry::enabled();
    f.set_metrics(&reg);
    // K < ACK_EVERY deliveries leave K ACKs owed and write none.
    for seq in 1..=K {
        f.send_data(0, 1, false, &msg(seq), 0);
        assert_eq!(f.recv(0, 1), msg(seq));
    }
    assert_eq!(f.counts().acks_sent, 0);
    // Position K + 1 is dropped; its one successor is held behind it.
    for seq in K + 1..=K + 2 {
        f.send_data(0, 1, false, &msg(seq), 0);
    }
    assert_eq!(f.counts().induced_drops, 1);
    let start = Instant::now();
    assert_eq!(f.recv(0, 1), msg(K + 1));
    let elapsed = start.elapsed();
    assert_eq!(f.recv(0, 1), msg(K + 2));
    let count = |name| reg.counter(name).get();
    assert_eq!((count("wire.retransmits.fast"), count("wire.retransmits.timeout")), (1, 0));
    assert_eq!(f.counts().retransmits, 1);
    assert!(elapsed < RTO_MIN, "the hold's repeated ACK recovered the loss after {elapsed:?}");
}

#[test]
fn a_settling_ack_that_meets_a_full_socket_leaves_recovery_to_the_timer() {
    let (mut f, tx, rx) = two_nodes_dropping(4);
    let reg = Registry::enabled();
    f.set_metrics(&reg);
    // Fill the rx -> tx direction with DATA of the reverse stream: unlike
    // parked ACKs, collecting them cannot resend anything on 0 -> 1.
    let parked = park(&mut f, rx, reverse_data);
    for seq in 1..=5 {
        f.send_data(0, 1, false, &msg(seq), 0);
    }
    // 1..=3 are delivered, 5 is held, and neither the ACK settling 1..=3
    // nor the hold's repeat of it can be written.
    assert_eq!(f.drain(rx, false), 4);
    assert!(f.ends[rx].rx.ack_due(false));
    assert_eq!((f.ends[rx].rx.cum_seq(), f.counts().acks_sent), (3, 0));

    // The owed ACK goes out once the socket drains, covering 1..=3: to the
    // sender that is progress, not a repeat, so 4 waits for its timer.
    for seq in 1..=5 {
        assert_eq!(f.recv(0, 1), msg(seq));
    }
    let count = |name| reg.counter(name).get();
    assert_eq!((count("wire.retransmits.fast"), count("wire.retransmits.timeout")), (0, 1));
    assert_eq!(count("wire.retransmits.first_tx_dropped"), 1);
    assert_eq!(f.inboxes[f.inbox_ix(1, 0)].len(), parked);
    f.drain(rx, true);
    f.drain(tx, false);
    assert!(unacked(&f.ends[tx].tx).is_empty());
    let counts = f.counts();
    assert_eq!((counts.holds, counts.resequenced, counts.dups_dropped), (1, 1, 0), "{counts:?}");
}

/// Two nodes whose stream 0 -> 1 has delivered and acknowledged position 1
/// and lost the first transmission of position 2, its tail: nothing
/// follows it, so no hold can report it missing. Returns the fabric, its
/// ends, and the registry recording its metrics.
fn a_lost_tail() -> (Fabric, usize, usize, Registry) {
    let (mut f, tx, rx) = two_nodes_dropping(2);
    let reg = Registry::enabled();
    f.set_metrics(&reg);
    exchange(&mut f, tx, rx, 1..=1);
    assert_eq!(
        rto(&f.ends[tx].tx).current(),
        RTO_MIN,
        "a loopback round trip is far below the floor"
    );
    f.send_data(0, 1, false, &msg(2), 0);
    assert_eq!(f.counts().induced_drops, 1);
    (f, tx, rx, reg)
}

#[test]
fn a_tail_loss_awaited_by_a_receive_is_resent_on_the_waits_one_repeated_ack() {
    let (mut f, _, _, reg) = a_lost_tail();
    let events = f.enable_wire_events();
    let start = Instant::now();
    assert_eq!(f.recv(0, 1), msg(2));
    let elapsed = start.elapsed();
    assert!(elapsed < RTO_MIN, "the wait's repeated ACK recovered the loss after {elapsed:?}");
    let count = |name| reg.counter(name).get();
    assert_eq!((count("wire.retransmits.fast"), count("wire.retransmits.timeout")), (1, 0));
    assert_eq!(count("wire.retransmits.first_tx_dropped"), 1);
    assert_eq!(f.counts().retransmits, 1);
    // The wait wrote one ACK that covers nothing new (position 1, already
    // acknowledged) and no more; the forced one after it covers the resend.
    let acks: Vec<u64> =
        events.take().iter().filter(|ev| ev.kind == "wire-ack").map(|ev| ev.seq).collect();
    assert_eq!(acks, [1, 2]);
    assert_eq!(f.counts().dups_dropped, 0);
}

#[test]
fn a_wait_with_no_receive_behind_it_recovers_a_tail_loss_after_rto_min_of_polling() {
    let (mut f, tx, rx, reg) = a_lost_tail();
    let (estimate, samples) =
        (rto(&f.ends[tx].tx), reg.histogram("wire.ack_rtt_ns.n0.n1").load().count());
    // Time nobody spends polling is not evidence of loss.
    std::thread::sleep(RTO_MIN);
    // A wait that repeats no ACK — a sender's at a full window — has only
    // the stream's timer to find the loss.
    let mut waiting_since = None;
    while f.counts().retransmits == 0 {
        f.poll_slow(&mut waiting_since, format_args!("the lost tail's resend"));
    }
    let waited = waiting_since.expect("the wait took a turn").elapsed();
    assert!(waited >= RTO_MIN, "resent after {waited:?}");
    let count = |name| reg.counter(name).get();
    assert_eq!((count("wire.retransmits.timeout"), count("wire.retransmits.fast")), (1, 0));
    assert_eq!(count("wire.retransmits.first_tx_dropped"), 1);
    assert_eq!(reg.histogram("wire.rto_ns.n0.n1").load().count(), 1);
    assert_eq!(
        rto(&f.ends[tx].tx).current(),
        RTO_MIN * 2,
        "backed off until an ACK makes progress"
    );
    assert_eq!(f.recv(0, 1), msg(2));

    // The ACK of a resent frame restarts the timer but is no RTT sample.
    f.drain(rx, true);
    f.drain(tx, false);
    assert!(unacked(&f.ends[tx].tx).is_empty());
    assert_eq!(rto(&f.ends[tx].tx), estimate);
    assert_eq!(reg.histogram("wire.ack_rtt_ns.n0.n1").load().count(), samples);
    assert_eq!(f.counts().dups_dropped, 0);
}

#[test]
fn a_second_loss_behind_a_repaired_one_is_resent_on_the_repairs_repeated_ack() {
    let (mut f, tx, rx) = two_nodes();
    let reg = Registry::enabled();
    f.set_metrics(&reg);
    exchange(&mut f, tx, rx, 1..=1);
    // Positions 2 and 3 are lost, 4 and 5 follow them.
    f.drops = DropPlan { drop_every: 1 };
    for seq in 2..=3 {
        f.send_data(0, 1, false, &msg(seq), 0);
    }
    f.drops = DropPlan::default();
    for seq in 4..=5 {
        f.send_data(0, 1, false, &msg(seq), 0);
    }
    assert_eq!(f.counts().induced_drops, 2);
    // 4 and 5 are held, and their repeated ACK resends 2.
    assert_eq!(f.drain(rx, false), 2);
    assert_eq!(f.drain(tx, false), 1);
    // 2 repairs one gap but leaves 4 and 5 held behind the next: the end
    // settles 2 and repeats that ACK, and the repeat resends 3.
    let acks = f.counts().acks_sent;
    assert_eq!(f.drain(rx, false), 1);
    assert_eq!(f.counts().acks_sent, acks + 2);
    assert_eq!(f.drain(tx, false), 2);
    assert!(unacked(&f.ends[tx].tx).iter().map(|u| (u.seq, u.retransmitted)).eq([
        (3, true),
        (4, false),
        (5, false)
    ]));
    for seq in 2..=5 {
        assert_eq!(f.recv(0, 1), msg(seq));
    }
    let count = |name| reg.counter(name).get();
    assert_eq!((count("wire.retransmits.fast"), count("wire.retransmits.timeout")), (2, 0));
    let counts = f.counts();
    assert_eq!(
        (counts.retransmits, counts.holds, counts.resequenced, counts.dups_dropped),
        (2, 2, 2, 0),
        "{counts:?}"
    );
}

#[test]
fn a_dead_wait_repeats_one_ack_and_then_sleeps() {
    // Stream 0 -> 1 has lost its only frame, so its timer is armed; the
    // wait is for a message 1 -> 0 that nobody sent.
    let (mut f, tx, _) = two_nodes_dropping(1);
    f.send_data(0, 1, false, &msg(1), 0);
    let mut waiting_since = None;
    f.await_turn(tx, &mut waiting_since, format_args!("a message nobody sent"));
    assert_eq!(f.counts().acks_sent, 1, "the first turn repeats the end's last ACK");
    let start = Instant::now();
    f.await_turn(tx, &mut waiting_since, format_args!("a message nobody sent"));
    assert_eq!(f.counts().acks_sent, 1, "the second turn writes nothing");
    // With nothing to do it slept until the lost frame's timer was due.
    assert!(start.elapsed() >= RTO_MIN, "the second turn returned after {:?}", start.elapsed());
    assert_eq!(f.counts().retransmits, 0);
}

#[test]
fn a_mid_stream_loss_is_reported_by_a_repeated_ack_and_resent_at_once() {
    let (mut f, tx, rx) = two_nodes_dropping(3);
    let reg = Registry::enabled();
    f.set_metrics(&reg);
    exchange(&mut f, tx, rx, 1..=2);
    let (acks, estimate) = (f.counts().acks_sent, rto(&f.ends[tx].tx));
    for seq in 3..=5 {
        f.send_data(0, 1, false, &msg(seq), 0);
    }
    assert_eq!(f.counts().induced_drops, 1, "position 3 never reached the wire");

    // Its two successors are held, and holding is answered with one ACK
    // that repeats the last.
    assert_eq!(f.drain(rx, false), 2);
    let counts = f.counts();
    assert_eq!((counts.holds, counts.acks_sent), (2, acks + 1), "{counts:?}");
    // Collecting it resends the head, and only the head, with no timer.
    assert_eq!(f.drain(tx, false), 1);
    assert_eq!(f.counts().retransmits, 1);
    assert!(unacked(&f.ends[tx].tx).iter().map(|u| u.retransmitted).eq([true, false, false]));
    for seq in 3..=5 {
        assert_eq!(f.recv(0, 1), msg(seq));
    }

    f.drain(rx, true);
    f.drain(tx, false);
    assert!(unacked(&f.ends[tx].tx).is_empty());
    // The successors were held for the repair: the ACK that covers them
    // with the resent head times the repair, not a round trip.
    assert_eq!(rto(&f.ends[tx].tx), estimate);
    let counts = f.counts();
    assert_eq!(
        (counts.retransmits, counts.resequenced, counts.dups_dropped),
        (1, 2, 0),
        "{counts:?}"
    );
    let count = |name| reg.counter(name).get();
    assert_eq!((count("wire.retransmits.fast"), count("wire.retransmits.timeout")), (1, 0));
}

#[test]
fn an_ack_gives_the_timer_one_sample_and_the_histogram_one_per_frame() {
    let (mut f, tx, rx) = two_nodes();
    let reg = Registry::enabled();
    f.set_metrics(&reg);
    exchange(&mut f, tx, rx, 1..=3);
    assert_eq!(reg.histogram("wire.ack_rtt_ns.n0.n1").load().count(), 3);
    // A second sample would have moved RTTVAR off SRTT / 2.
    let (srtt, rttvar) = smoothed(&f.ends[tx].tx).expect("the ACK covered a never-resent frame");
    assert_eq!(rttvar, srtt / 2);
}

#[test]
#[should_panic(expected = "wire fabric failed: DATA src 0 dst 7 pair_seq 1")]
fn a_data_frame_for_a_processor_outside_the_machine_fails_the_fabric() {
    let (mut f, tx, rx) = two_nodes();
    let mut frame = data(1);
    // `dst` follows the length, kind, version and `src`.
    frame[10] = 7;
    f.write_frame(tx, &frame, true);
    f.drain(rx, false);
}

#[test]
#[should_panic(expected = "does not belong on node 0's end of its connection with node 1")]
fn a_data_frame_on_the_wrong_end_fails_the_fabric() {
    let (mut f, _, rx) = two_nodes();
    // A 0 -> 1 frame travelling 1 -> 0.
    f.write_frame(rx, &data(1), true);
    f.drain(f.end_ix(0, 1), false);
}
