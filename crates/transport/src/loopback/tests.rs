//! Deterministic coverage of the delivery guard and the ACK policy. With
//! no reader thread or timer racing the engine, duplicates, reordering and
//! split frames no longer happen by themselves, so these tests put them on
//! the wire: `Fabric::write_frame` is the hook, writing raw bytes on an end
//! past the sender's stamping and send buffer.

use shasta_core::space::Block;

use super::*;

/// Two single-processor nodes; processor 0 sends to processor 1.
fn two_nodes() -> (Fabric, usize, usize) {
    let f = Fabric::connect(vec![0, 1], 2, Backend::Uds, DropPlan::default()).expect("fabric");
    let (tx, rx) = (f.end_ix(0, 1), f.end_ix(1, 0));
    (f, tx, rx)
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

#[test]
fn a_duplicate_is_dropped_and_answered_with_the_cumulative_ack() {
    let (mut f, tx, rx) = two_nodes();
    f.send_data(0, 1, false, &msg(1), 0);
    assert_eq!(f.recv(0, 1), msg(1));
    assert_eq!(f.counts().acks_sent, 0, "one delivery is below the ACK interval");
    assert_eq!(f.ends[tx].unacked.len(), 1);

    f.write_frame(tx, &data(1), true);
    assert_eq!(f.drain(rx, false), 1);
    let counts = f.counts();
    assert_eq!((counts.dups_dropped, counts.acks_sent), (1, 1), "{counts:?}");
    assert!(f.inboxes[&(0, 1)].is_empty(), "a duplicate must not be delivered again");

    // The re-ACK is cumulative: collecting it empties the send buffer.
    assert_eq!(f.drain(tx, false), 1);
    assert!(f.ends[tx].unacked.is_empty());
    assert_eq!(f.unacked_depth, 0);
}

#[test]
fn a_reordered_pair_is_held_and_resequenced() {
    let (mut f, tx, _) = two_nodes();
    f.write_frame(tx, &data(2), true);
    f.write_frame(tx, &data(1), true);
    assert_eq!(f.recv(0, 1), msg(1));
    assert_eq!(f.recv(0, 1), msg(2));
    let counts = f.counts();
    assert_eq!((counts.holds, counts.resequenced, counts.dups_dropped), (1, 1, 0), "{counts:?}");
    assert!(f.held.is_empty());
}

#[test]
fn a_frame_split_across_two_writes_is_reassembled() {
    let (mut f, tx, rx) = two_nodes();
    let bytes = data(1);
    f.write_frame(tx, &bytes[..10], true);
    assert_eq!(f.drain(rx, false), 0, "ten bytes are not a frame");
    assert!(f.inboxes.is_empty());
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
    // Fill the rx -> tx direction with ACKs that acknowledge nothing until
    // the socket refuses the next one whole.
    let noop = encode_frame(&Frame::Ack { version: VERSION, cum_seq: 0 }).expect("encodes");
    let mut parked = 0;
    while f.write_frame(rx, &noop, false) {
        parked += 1;
    }
    f.write_frame(tx, &data(1), true);
    f.drain(rx, false);
    assert!(f.ends[rx].ack_owed, "the re-ACK met a full socket");
    assert_eq!(f.counts().acks_sent, 0);
    // Every byte the sending end reads is a whole frame, and the ACK goes
    // out with the owing end's next drain.
    assert_eq!(f.drain(tx, false), parked);
    assert_eq!(f.ends[tx].reader.buffered(), 0);
    f.drain(rx, false);
    assert!(!f.ends[rx].ack_owed);
    assert_eq!(f.counts().acks_sent, 1);
    assert_eq!(f.drain(tx, false), 1);
    assert!(f.ends[tx].unacked.is_empty());
}
