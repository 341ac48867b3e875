//! Framing edge cases: truncation, unknown versions, the frame-length
//! ceiling, interleaved per-source streams, an encode→decode round-trip
//! property over every protocol message kind, and a reassembler fed
//! arbitrary bytes in arbitrary chunks.

use proptest::prelude::*;
use shasta_cluster::{CostModel, Topology};
use shasta_core::protocol::{DirUpdate, DowngradeTo, ProtoMsg};
use shasta_core::space::Block;
use shasta_transport::wire::{
    decode_body, encode_frame, DataFrame, Frame, FrameReader, WireError, KIND_ACK, KIND_DATA,
    MAX_FRAME_LEN, VERSION,
};
use shasta_transport::{Backend, DropPlan, LoopbackTransport, Transport};

fn data_frame(msg: ProtoMsg) -> Frame {
    Frame::Data(DataFrame {
        version: VERSION,
        src: 0,
        dst: 4,
        pair_seq: 1,
        via_vnode: false,
        trace: 0,
        msg,
    })
}

#[test]
fn truncated_frames_are_detected_at_every_cut() {
    let bytes = encode_frame(&data_frame(ProtoMsg::ReadReply {
        block: Block { start: 0x2000, len: 64 },
        data: vec![0xAB; 64],
    }))
    .unwrap();
    // Every proper prefix of the body must decode to Truncated, never panic
    // or succeed.
    for cut in 1..bytes.len() - 4 {
        assert_eq!(
            decode_body(&bytes[4..4 + cut]),
            Err(WireError::Truncated),
            "cut at {cut} bytes"
        );
    }
    // And a FrameReader holding a partial frame just waits for more.
    let mut r = FrameReader::new();
    r.extend(&bytes[..bytes.len() - 1]);
    assert_eq!(r.next_frame(), Ok(None));
    r.extend(&bytes[bytes.len() - 1..]);
    assert!(matches!(r.next_frame(), Ok(Some(Frame::Data(_)))));
}

#[test]
fn unknown_version_and_kind_are_rejected() {
    // A DATA frame stamped with a future version.
    let mut body = vec![KIND_DATA, VERSION + 1];
    body.extend_from_slice(&[0; 21]);
    assert_eq!(decode_body(&body), Err(WireError::UnknownVersion(VERSION + 1)));

    let mut ack = vec![KIND_ACK, 0x7F];
    ack.extend_from_slice(&[0; 8]);
    assert_eq!(decode_body(&ack), Err(WireError::UnknownVersion(0x7F)));

    assert_eq!(decode_body(&[0x6B]), Err(WireError::UnknownKind(0x6B)));

    // HELLO with the wrong magic.
    let bad_hello = [0x01, b'N', b'O', b'P', b'E', 1, 1, 0, 0, 0, 0];
    assert_eq!(decode_body(&bad_hello), Err(WireError::BadMagic(*b"NOPE")));
}

#[test]
fn frame_length_ceiling_is_exact() {
    // A v2 ReadReply DATA body is 44 bytes of fixed fields plus the data:
    // the largest legal payload hits MAX_FRAME_LEN exactly.
    let fixed = 44usize;
    let fits = encode_frame(&data_frame(ProtoMsg::ReadReply {
        block: Block { start: 0, len: 0 },
        data: vec![0; MAX_FRAME_LEN as usize - fixed],
    }))
    .expect("exactly MAX_FRAME_LEN encodes");
    assert_eq!(fits.len(), 4 + MAX_FRAME_LEN as usize);
    let decoded = decode_body(&fits[4..]).expect("and decodes");
    assert!(matches!(decoded, Frame::Data(_)));

    // One byte more refuses to encode...
    assert_eq!(
        encode_frame(&data_frame(ProtoMsg::ReadReply {
            block: Block { start: 0, len: 0 },
            data: vec![0; MAX_FRAME_LEN as usize - fixed + 1],
        })),
        Err(WireError::FrameTooLong(u64::from(MAX_FRAME_LEN) + 1))
    );

    // ...and a stream announcing an over-long frame fails fast, before the
    // (possibly enormous) body ever arrives.
    let mut r = FrameReader::new();
    r.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
    assert_eq!(r.next_frame(), Err(WireError::FrameTooLong(u64::from(MAX_FRAME_LEN) + 1)));
}

/// Two source nodes interleave sends into one destination node over two
/// independent sockets; per-source FIFO must survive the interleaving, and
/// every message must cross the wire. Each source's messages are received
/// in the reverse of the order the sources sent in, so the wire must keep
/// one queue per source, not one per destination.
#[test]
fn interleaved_streams_preserve_per_source_fifo() {
    let topo = Topology::new(12, 4, 4).unwrap();
    let mut t = LoopbackTransport::connect(
        topo,
        CostModel::alpha_4100(),
        Backend::Uds,
        DropPlan::default(),
    )
    .unwrap();
    let mk = |start: u64| ProtoMsg::ReadReq { block: Block { start, len: 64 } };
    for i in 0..8u64 {
        // Node 0 (proc 0) and node 1 (proc 4) alternate sends to proc 8 on
        // node 2; distinct block starts encode (source, position).
        t.send(0, 8, false, &mk(0x1000 + i), 0);
        t.send(4, 8, false, &mk(0x2000 + i), 0);
    }
    let from4: Vec<ProtoMsg> = (0..8).map(|_| t.recv(4, 8)).collect();
    let from0: Vec<ProtoMsg> = (0..8).map(|_| t.recv(0, 8)).collect();
    assert_eq!(from0, (0..8).map(|i| mk(0x1000 + i)).collect::<Vec<_>>());
    assert_eq!(from4, (0..8).map(|i| mk(0x2000 + i)).collect::<Vec<_>>());
    t.shutdown();
    let counts = t.wire_counts();
    assert_eq!(counts.data_frames, 16, "every interleaved send crossed the wire");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]
    #[test]
    fn every_message_kind_round_trips(
        kind in 0u8..17,
        a in any::<u64>(),
        b in any::<u64>(),
        x in any::<u32>(),
        y in any::<u32>(),
        flag in 0u8..2,
        data in proptest::collection::vec(any::<u8>(), 0..96),
        src in 0u32..16,
        dst in 0u32..16,
        pair_seq in any::<u64>(),
        vnode in 0u8..2,
        trace in any::<u32>(),
    ) {
        let block = Block { start: a, len: b };
        let msg = match kind {
            0 => ProtoMsg::ReadReq { block },
            1 => ProtoMsg::WriteReq { block },
            2 => ProtoMsg::UpgradeReq { block },
            3 => ProtoMsg::FwdRead { block, requester: x, owner_exclusive: flag == 1 },
            4 => ProtoMsg::FwdWrite {
                block,
                requester: x,
                acks_expected: y,
                owner_exclusive: flag == 1,
            },
            5 => ProtoMsg::ReadReply { block, data: data.clone() },
            6 => ProtoMsg::WriteReply { block, data: data.clone(), acks_expected: y },
            7 => ProtoMsg::UpgradeReply { block, acks_expected: y },
            8 => ProtoMsg::InvalidateReq { block, ack_to: x },
            9 => ProtoMsg::InvAck { block },
            10 => ProtoMsg::DirUpdateMsg { block, update: if flag == 1 {
                DirUpdate::OwnedBy { writer: x }
            } else {
                DirUpdate::SharedBy { reader: x }
            } },
            11 => ProtoMsg::Downgrade { block, to: if flag == 1 {
                DowngradeTo::Invalid
            } else {
                DowngradeTo::Shared
            } },
            12 => ProtoMsg::LockAcq { lock: x },
            13 => ProtoMsg::LockRel { lock: x },
            14 => ProtoMsg::LockGrant { lock: x },
            15 => ProtoMsg::BarrierArrive { id: x },
            _ => ProtoMsg::BarrierGo { id: x },
        };
        let frame = Frame::Data(DataFrame {
            version: VERSION,
            src,
            dst,
            pair_seq,
            via_vnode: vnode == 1,
            trace,
            msg,
        });
        let bytes = encode_frame(&frame).unwrap();
        prop_assert_eq!(decode_body(&bytes[4..]).unwrap(), frame.clone());

        // Also through the incremental reader, split at an arbitrary point.
        let cut = (a as usize) % bytes.len();
        let mut r = FrameReader::new();
        r.extend(&bytes[..cut]);
        let _ = r.next_frame();
        r.extend(&bytes[cut..]);
        prop_assert_eq!(r.next_frame().unwrap(), Some(frame));
    }
}

/// What any reader must make of `stream`, however it is cut up: the frames
/// before the first bad one, and that one's error with the number of stream
/// bytes it takes to see it (the length prefix for an over-long frame, the
/// whole frame otherwise).
fn whole_stream(stream: &[u8]) -> (Vec<Frame>, Option<(usize, WireError)>) {
    let mut frames = Vec::new();
    let mut at = 0;
    while stream.len() - at >= 4 {
        let len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return (frames, Some((at + 4, WireError::FrameTooLong(u64::from(len)))));
        }
        let end = at + 4 + len as usize;
        if stream.len() < end {
            break;
        }
        match decode_body(&stream[at + 4..end]) {
            Ok(frame) => frames.push(frame),
            Err(err) => return (frames, Some((end, err))),
        }
        at = end;
    }
    (frames, None)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]
    /// A peer can put anything on a socket. Whatever arrives, in whatever
    /// pieces, the reassembler never panics, yields exactly the frames
    /// ahead of the first bad prefix, reports that prefix with a
    /// `WireError` as soon as its last byte is in, and never buffers more
    /// than one maximal frame plus the piece it was just handed.
    #[test]
    fn the_reassembler_survives_arbitrary_bytes_in_arbitrary_chunks(
        parts in proptest::collection::vec(
            (0u8..5, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..48)),
            1..7,
        ),
        chunk_lens in proptest::collection::vec(1usize..72, 1..9),
    ) {
        let mut stream = Vec::new();
        for (kind, n, raw) in &parts {
            let reply = || encode_frame(&data_frame(ProtoMsg::ReadReply {
                block: Block { start: *n, len: raw.len() as u64 },
                data: raw.clone(),
            }))
            .unwrap();
            match kind {
                0 => stream.extend(encode_frame(&Frame::Ack { version: VERSION, cum_seq: *n }).unwrap()),
                1 => stream.extend(reply()),
                // A well-formed frame with one bit wrong somewhere.
                2 => {
                    let mut bytes = reply();
                    let bit = *n as usize % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    stream.extend(bytes);
                }
                3 => stream.extend(raw),
                // A length prefix at, or one past, the ceiling.
                _ => stream.extend((MAX_FRAME_LEN + (*n % 2) as u32).to_le_bytes()),
            }
        }
        let (frames, bad) = whole_stream(&stream);

        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let mut failed = None;
        let (mut fed, mut lens) = (0, chunk_lens.iter().cycle());
        while fed < stream.len() && failed.is_none() {
            let chunk = &stream[fed..stream.len().min(fed + lens.next().unwrap())];
            reader.extend(chunk);
            fed += chunk.len();
            failed = loop {
                match reader.next_frame() {
                    Ok(Some(frame)) => got.push(frame),
                    Ok(None) => break None,
                    Err(err) => break Some(err),
                }
            };
            prop_assert!(reader.buffered() <= 4 + MAX_FRAME_LEN as usize + chunk.len());
            // Reported with the chunk that completes the bad prefix: not
            // before, not later.
            prop_assert_eq!(failed.is_some(), bad.as_ref().is_some_and(|(at, _)| fed >= *at));
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(failed, bad.map(|(_, err)| err));
    }
}
