//! The specification test: every worked hex example in `docs/TRANSPORT.md`
//! must byte-match the production encoder, and decode back to the frame it
//! claims to describe. This is what keeps the document normative — editing
//! either side alone fails here.

use shasta_core::protocol::{DirUpdate, ProtoMsg};
use shasta_core::space::Block;
use shasta_transport::wire::{decode_body, encode_frame, DataFrame, Frame, VERSION, VERSION_MIN};

const SPEC: &str = include_str!("../../../docs/TRANSPORT.md");

/// Every example the document is expected to carry, by name, with the
/// frame its prose describes.
fn expected() -> Vec<(&'static str, Frame)> {
    vec![
        ("hello", Frame::Hello { ver_min: 1, ver_max: 2, node: 2 }),
        (
            "data-read-req",
            Frame::Data(DataFrame {
                version: VERSION,
                src: 1,
                dst: 9,
                pair_seq: 7,
                via_vnode: false,
                trace: 5,
                msg: ProtoMsg::ReadReq { block: Block { start: 0x2000, len: 64 } },
            }),
        ),
        (
            // The same request on a connection negotiated down to v1: the
            // trace-context field is absent, not zero-filled.
            "data-read-req-v1",
            Frame::Data(DataFrame {
                version: 1,
                src: 1,
                dst: 9,
                pair_seq: 7,
                via_vnode: false,
                trace: 0,
                msg: ProtoMsg::ReadReq { block: Block { start: 0x2000, len: 64 } },
            }),
        ),
        (
            "data-read-reply",
            Frame::Data(DataFrame {
                version: VERSION,
                src: 9,
                dst: 1,
                pair_seq: 12,
                via_vnode: false,
                trace: 5,
                msg: ProtoMsg::ReadReply {
                    block: Block { start: 0x2000, len: 64 },
                    data: vec![0xde, 0xad, 0xbe, 0xef],
                },
            }),
        ),
        (
            "data-dir-update-vnode",
            Frame::Data(DataFrame {
                version: VERSION,
                src: 3,
                dst: 8,
                pair_seq: 2,
                via_vnode: true,
                trace: 0,
                msg: ProtoMsg::DirUpdateMsg {
                    block: Block { start: 0x1c0, len: 64 },
                    update: DirUpdate::OwnedBy { writer: 3 },
                },
            }),
        ),
        ("ack", Frame::Ack { version: VERSION, cum_seq: 41 }),
        // One cumulative ACK covering the sixteen frames since the last.
        ("ack-coalesced", Frame::Ack { version: VERSION, cum_seq: 41 + 16 }),
        // The ACK a hold writes first, settling the seven deliveries since
        // a forced ACK at 50: the same bytes as the coalesced one.
        ("ack-settled", Frame::Ack { version: VERSION, cum_seq: 41 + 16 }),
        // The same ACK again, for two frames held behind a missing third:
        // the fast-retransmit signal is a repetition, not a new frame kind.
        ("ack-repeated", Frame::Ack { version: VERSION, cum_seq: 41 + 16 }),
        // A wait's repeat after 58..=60 were delivered and acknowledged: the
        // same signal for a tail loss.
        ("ack-waiting", Frame::Ack { version: VERSION, cum_seq: 41 + 19 }),
        ("bye", Frame::Bye),
    ]
}

/// Parses every ```hex fence in the spec into `(name, bytes)`. A fence's
/// first line must be `# example: <name>`; the remaining lines are
/// whitespace-separated hex bytes.
fn doc_examples() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut lines = SPEC.lines();
    while let Some(line) = lines.next() {
        if line.trim() != "```hex" {
            continue;
        }
        let header = lines.next().expect("hex fence has a header line");
        let name = header
            .strip_prefix("# example: ")
            .unwrap_or_else(|| panic!("hex fence header {header:?} is not `# example: <name>`"))
            .trim()
            .to_string();
        let mut bytes = Vec::new();
        for body in lines.by_ref() {
            if body.trim() == "```" {
                break;
            }
            for tok in body.split_whitespace() {
                let b = u8::from_str_radix(tok, 16)
                    .unwrap_or_else(|_| panic!("bad hex byte {tok:?} in example {name}"));
                bytes.push(b);
            }
        }
        assert!(!bytes.is_empty(), "example {name} is empty");
        out.push((name, bytes));
    }
    out
}

#[test]
fn every_doc_example_byte_matches_the_encoder() {
    let examples = doc_examples();
    assert!(!examples.is_empty(), "docs/TRANSPORT.md has no ```hex examples");
    let table = expected();
    for (name, bytes) in &examples {
        let (_, frame) = table
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("doc example {name:?} has no entry in the test table"));
        let encoded = encode_frame(frame).expect("spec frames encode");
        assert_eq!(
            &encoded, bytes,
            "example {name}: the encoder and the document disagree\n\
             encoder: {encoded:02x?}\n\
             doc:     {bytes:02x?}"
        );
        // And the documented bytes decode back to the documented frame.
        let decoded = decode_body(&bytes[4..]).expect("spec examples decode");
        assert_eq!(&decoded, frame, "example {name}: decode disagrees with the prose");
    }
}

#[test]
fn every_expected_example_is_in_the_doc() {
    let names: Vec<String> = doc_examples().into_iter().map(|(n, _)| n).collect();
    for (name, _) in expected() {
        assert!(
            names.iter().any(|n| n == name),
            "docs/TRANSPORT.md lost its {name:?} example (have: {names:?})"
        );
    }
}

#[test]
fn trace_context_is_absent_when_negotiated_down_to_v1() {
    // Satellite of the v2 extension spec: a sender whose connection
    // negotiated to v1 must emit the exact v1 bytes — whatever trace
    // context the engine installed — and a receiver decoding those bytes
    // reports the context as absent (0), not as garbage read from the
    // message payload.
    let mk = |version, trace| {
        Frame::Data(DataFrame {
            version,
            src: 1,
            dst: 9,
            pair_seq: 7,
            via_vnode: false,
            trace,
            msg: ProtoMsg::ReadReq { block: Block { start: 0x2000, len: 64 } },
        })
    };
    let v1_bytes = encode_frame(&mk(VERSION_MIN, 0xdead_beef)).unwrap();
    // Byte-identical to the documented v1 example (which has trace 0).
    let doc = doc_examples();
    let (_, doc_v1) = doc.iter().find(|(n, _)| n == "data-read-req-v1").unwrap();
    assert_eq!(&v1_bytes, doc_v1);
    // Decodes with the context reported absent.
    assert_eq!(decode_body(&v1_bytes[4..]).unwrap(), mk(VERSION_MIN, 0));
    // The v2 encoding of the same message differs only by the 4 trace
    // bytes between the flags byte and the message tag.
    let v2_bytes = encode_frame(&mk(VERSION, 5)).unwrap();
    assert_eq!(v2_bytes.len(), v1_bytes.len() + 4);
    assert_eq!(v2_bytes[23..27], [5, 0, 0, 0], "trace context sits after the flags byte");
}

#[test]
fn the_doc_documents_every_message_tag() {
    // The section-4 table must name all seventeen message kinds; a new
    // ProtoMsg variant without a spec row should fail here, not ship.
    for kind in [
        "ReadReq",
        "WriteReq",
        "UpgradeReq",
        "FwdRead",
        "FwdWrite",
        "ReadReply",
        "WriteReply",
        "UpgradeReply",
        "InvalidateReq",
        "InvAck",
        "DirUpdateMsg",
        "Downgrade",
        "LockAcq",
        "LockRel",
        "LockGrant",
        "BarrierArrive",
        "BarrierGo",
    ] {
        assert!(
            SPEC.contains(&format!("`{kind}`")),
            "docs/TRANSPORT.md section 4 does not mention {kind}"
        );
    }
}
