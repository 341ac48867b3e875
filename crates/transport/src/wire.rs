//! Wire protocol v2: versioned, length-prefixed framing of every protocol
//! message.
//!
//! This module is the *implementation* of the normative specification in
//! `docs/TRANSPORT.md`; the two are kept in lock-step by
//! `tests/wire_spec.rs`, which encodes the document's worked examples and
//! byte-compares them against this encoder. If you change an encoding here,
//! the spec test fails until the document's hex dumps are updated, and vice
//! versa.
//!
//! Layout rules (see the spec for the full grammar):
//!
//! * all integers are **little-endian**, unaligned;
//! * a frame is a `u32` length (of everything after the length field)
//!   followed by a one-byte frame kind and a kind-specific body;
//! * `HELLO` carries the magic `b"SHWP"` and the sender's supported version
//!   range; `DATA` carries a versioned, per-(src node, dst node)-sequenced
//!   protocol message; `ACK` cumulatively acknowledges a stream; `BYE`
//!   closes a connection;
//! * version 2 extends `DATA` with a 4-byte **trace context** — the id of
//!   the originating miss, for causal cross-layer tracing — between the
//!   flags byte and the message payload. The field exists only on v2
//!   streams: a connection negotiated down to v1 encodes the exact v1
//!   bytes and the receiver reports the context as absent (`0`);
//! * protocol messages are encoded as a one-byte tag in `ProtoMsg`
//!   declaration order (`0x01` = `ReadReq` … `0x11` = `BarrierGo`) followed
//!   by their fields in declaration order; booleans are one byte that must
//!   be 0 or 1; byte vectors are a `u32` length followed by the bytes.

use shasta_core::protocol::{DirUpdate, DowngradeTo, ProtoMsg};
use shasta_core::space::Block;

/// Magic bytes opening every `HELLO` frame: ASCII `"SHWP"` (SHasta Wire
/// Protocol). A connection whose first frame lacks them is not speaking
/// this protocol at all.
pub const MAGIC: [u8; 4] = *b"SHWP";

/// The highest wire protocol version this implementation speaks (see
/// [`negotiate`]). Version 2 adds the 4-byte trace-context extension to
/// `DATA` frames.
pub const VERSION: u8 = 2;

/// The lowest wire protocol version this implementation still decodes.
/// Advertised in `HELLO` so a v1-only peer negotiates the connection down
/// to the trace-free v1 encoding.
pub const VERSION_MIN: u8 = 1;

/// Upper bound on the encoded length of one frame body (the `u32` length
/// prefix may not exceed this). Protects receivers from unbounded
/// allocation on a corrupt or hostile length field; comfortably above the
/// largest legal `DATA` frame (a data reply carrying one variable-sized
/// block).
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Frame kind byte for `HELLO`.
pub const KIND_HELLO: u8 = 0x01;
/// Frame kind byte for `DATA`.
pub const KIND_DATA: u8 = 0x02;
/// Frame kind byte for `ACK`.
pub const KIND_ACK: u8 = 0x03;
/// Frame kind byte for `BYE`.
pub const KIND_BYE: u8 = 0x04;

/// Everything that can go wrong decoding (or encoding) wire bytes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer ended before the announced frame or field did.
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLong(u64),
    /// A `HELLO` frame did not open with [`MAGIC`].
    BadMagic([u8; 4]),
    /// An unrecognized frame kind byte.
    UnknownKind(u8),
    /// An unrecognized protocol-message tag byte.
    UnknownTag(u8),
    /// A versioned frame carried a version this implementation cannot
    /// decode.
    UnknownVersion(u8),
    /// A boolean field held something other than 0 or 1.
    BadBool(u8),
    /// A frame body had bytes left over after its last field.
    TrailingBytes(usize),
    /// Version negotiation failed: the peers' supported ranges do not
    /// intersect.
    Incompatible {
        /// Our supported `(min, max)` version range.
        ours: (u8, u8),
        /// The peer's supported `(min, max)` version range.
        theirs: (u8, u8),
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::FrameTooLong(n) => {
                write!(f, "frame length {n} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}")
            }
            WireError::BadMagic(m) => write!(f, "bad HELLO magic {m:02x?}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag 0x{t:02x}"),
            WireError::UnknownVersion(v) => write!(f, "cannot decode wire version {v}"),
            WireError::BadBool(b) => write!(f, "invalid boolean byte 0x{b:02x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
            WireError::Incompatible { ours, theirs } => write!(
                f,
                "incompatible versions: ours {}..={}, theirs {}..={}",
                ours.0, ours.1, theirs.0, theirs.1
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded `DATA` frame: one protocol message plus the delivery metadata
/// the receiver's exactly-once in-order guard needs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DataFrame {
    /// Negotiated wire version the sender encoded under.
    pub version: u8,
    /// Sending processor.
    pub src: u32,
    /// Destination processor.
    pub dst: u32,
    /// 1-based position on the (source node, destination node) stream,
    /// stamped by the sender; drives duplicate suppression and
    /// resequencing at the receiver.
    pub pair_seq: u64,
    /// Whether the message is addressed to the destination's shared
    /// virtual-node inbox (the load-balancing extension) rather than the
    /// processor's own inbox.
    pub via_vnode: bool,
    /// Causal trace context: the id of the miss whose handling produced
    /// this message (`0` = none). Carried on the wire only under version
    /// ≥ 2; a frame encoded at `version` 1 omits the field entirely and
    /// decodes with the context reported absent (`0`). Pure metadata —
    /// never consulted for sequencing or delivery.
    pub trace: u32,
    /// The protocol message itself.
    pub msg: ProtoMsg,
}

/// One frame of the wire protocol.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Frame {
    /// Connection opener: magic, supported version range, sender's node id.
    /// Each side sends exactly one `HELLO` before anything else; the
    /// agreed version is computed by [`negotiate`].
    Hello {
        /// Lowest wire version the sender can speak.
        ver_min: u8,
        /// Highest wire version the sender can speak.
        ver_max: u8,
        /// The sender's physical node id.
        node: u32,
    },
    /// A sequenced protocol message.
    Data(DataFrame),
    /// Cumulative acknowledgement: every `DATA` frame with `pair_seq <=
    /// cum_seq` on the stream flowing *toward the ACK's sender* on this
    /// connection has been delivered (or absorbed as a duplicate). The
    /// stream is implied by the connection: each socket joins exactly one
    /// node pair.
    Ack {
        /// Wire version.
        version: u8,
        /// Highest delivered stream position.
        cum_seq: u64,
    },
    /// Graceful close. No body; after sending it a peer writes nothing
    /// further on the connection.
    Bye,
}

/// Computes the agreed wire version from two `HELLO` version ranges: the
/// smaller of the two maxima, provided it falls inside both ranges.
///
/// # Errors
///
/// [`WireError::Incompatible`] when the ranges do not intersect.
pub fn negotiate(ours: (u8, u8), theirs: (u8, u8)) -> Result<u8, WireError> {
    let agreed = ours.1.min(theirs.1);
    if agreed < ours.0 || agreed < theirs.0 {
        return Err(WireError::Incompatible { ours, theirs });
    }
    Ok(agreed)
}

// ---- encoding ----

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_block(out: &mut Vec<u8>, b: &Block) {
    put_u64(out, b.start);
    put_u64(out, b.len);
}

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    put_u32(out, data.len() as u32);
    out.extend_from_slice(data);
}

/// Appends the tagged encoding of one protocol message to `out` (the
/// payload grammar of a `DATA` frame; see `docs/TRANSPORT.md` §"Message
/// encodings").
pub fn encode_msg(msg: &ProtoMsg, out: &mut Vec<u8>) {
    match msg {
        ProtoMsg::ReadReq { block } => {
            out.push(0x01);
            put_block(out, block);
        }
        ProtoMsg::WriteReq { block } => {
            out.push(0x02);
            put_block(out, block);
        }
        ProtoMsg::UpgradeReq { block } => {
            out.push(0x03);
            put_block(out, block);
        }
        ProtoMsg::FwdRead { block, requester, owner_exclusive } => {
            out.push(0x04);
            put_block(out, block);
            put_u32(out, *requester);
            put_bool(out, *owner_exclusive);
        }
        ProtoMsg::FwdWrite { block, requester, acks_expected, owner_exclusive } => {
            out.push(0x05);
            put_block(out, block);
            put_u32(out, *requester);
            put_u32(out, *acks_expected);
            put_bool(out, *owner_exclusive);
        }
        ProtoMsg::ReadReply { block, data } => {
            out.push(0x06);
            put_block(out, block);
            put_bytes(out, data);
        }
        ProtoMsg::WriteReply { block, data, acks_expected } => {
            out.push(0x07);
            put_block(out, block);
            put_bytes(out, data);
            put_u32(out, *acks_expected);
        }
        ProtoMsg::UpgradeReply { block, acks_expected } => {
            out.push(0x08);
            put_block(out, block);
            put_u32(out, *acks_expected);
        }
        ProtoMsg::InvalidateReq { block, ack_to } => {
            out.push(0x09);
            put_block(out, block);
            put_u32(out, *ack_to);
        }
        ProtoMsg::InvAck { block } => {
            out.push(0x0A);
            put_block(out, block);
        }
        ProtoMsg::DirUpdateMsg { block, update } => {
            out.push(0x0B);
            put_block(out, block);
            match update {
                DirUpdate::SharedBy { reader } => {
                    out.push(0x00);
                    put_u32(out, *reader);
                }
                DirUpdate::OwnedBy { writer } => {
                    out.push(0x01);
                    put_u32(out, *writer);
                }
            }
        }
        ProtoMsg::Downgrade { block, to } => {
            out.push(0x0C);
            put_block(out, block);
            out.push(match to {
                DowngradeTo::Shared => 0x00,
                DowngradeTo::Invalid => 0x01,
            });
        }
        ProtoMsg::LockAcq { lock } => {
            out.push(0x0D);
            put_u32(out, *lock);
        }
        ProtoMsg::LockRel { lock } => {
            out.push(0x0E);
            put_u32(out, *lock);
        }
        ProtoMsg::LockGrant { lock } => {
            out.push(0x0F);
            put_u32(out, *lock);
        }
        ProtoMsg::BarrierArrive { id } => {
            out.push(0x10);
            put_u32(out, *id);
        }
        ProtoMsg::BarrierGo { id } => {
            out.push(0x11);
            put_u32(out, *id);
        }
    }
}

/// Encodes one frame, length prefix included, into a fresh byte vector.
///
/// # Errors
///
/// [`WireError::FrameTooLong`] when the body would exceed
/// [`MAX_FRAME_LEN`] (only possible for a `DATA` frame carrying an
/// enormous data reply).
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    // The length prefix is patched in once the body is written behind it.
    let payload = match frame {
        Frame::Data(d) => d.msg.payload_bytes() as usize,
        _ => 0,
    };
    let mut body = Vec::with_capacity(64 + payload);
    put_u32(&mut body, 0);
    match frame {
        Frame::Hello { ver_min, ver_max, node } => {
            body.push(KIND_HELLO);
            body.extend_from_slice(&MAGIC);
            body.push(*ver_min);
            body.push(*ver_max);
            put_u32(&mut body, *node);
        }
        Frame::Data(d) => {
            body.push(KIND_DATA);
            body.push(d.version);
            put_u32(&mut body, d.src);
            put_u32(&mut body, d.dst);
            put_u64(&mut body, d.pair_seq);
            body.push(u8::from(d.via_vnode));
            if d.version >= 2 {
                // v2 trace-context extension; v1 streams omit the field.
                put_u32(&mut body, d.trace);
            }
            encode_msg(&d.msg, &mut body);
        }
        Frame::Ack { version, cum_seq } => {
            body.push(KIND_ACK);
            body.push(*version);
            put_u64(&mut body, *cum_seq);
        }
        Frame::Bye => {
            body.push(KIND_BYE);
        }
    }
    let len = body.len() as u64 - 4;
    if len > u64::from(MAX_FRAME_LEN) {
        return Err(WireError::FrameTooLong(len));
    }
    body[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(body)
}

// ---- decoding ----

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    fn block(&mut self) -> Result<Block, WireError> {
        Ok(Block { start: self.u64()?, len: self.u64()? })
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }
}

fn decode_msg(c: &mut Cursor<'_>) -> Result<ProtoMsg, WireError> {
    let tag = c.u8()?;
    Ok(match tag {
        0x01 => ProtoMsg::ReadReq { block: c.block()? },
        0x02 => ProtoMsg::WriteReq { block: c.block()? },
        0x03 => ProtoMsg::UpgradeReq { block: c.block()? },
        0x04 => {
            ProtoMsg::FwdRead { block: c.block()?, requester: c.u32()?, owner_exclusive: c.bool()? }
        }
        0x05 => ProtoMsg::FwdWrite {
            block: c.block()?,
            requester: c.u32()?,
            acks_expected: c.u32()?,
            owner_exclusive: c.bool()?,
        },
        0x06 => ProtoMsg::ReadReply { block: c.block()?, data: c.bytes()? },
        0x07 => {
            ProtoMsg::WriteReply { block: c.block()?, data: c.bytes()?, acks_expected: c.u32()? }
        }
        0x08 => ProtoMsg::UpgradeReply { block: c.block()?, acks_expected: c.u32()? },
        0x09 => ProtoMsg::InvalidateReq { block: c.block()?, ack_to: c.u32()? },
        0x0A => ProtoMsg::InvAck { block: c.block()? },
        0x0B => {
            let block = c.block()?;
            let update = match c.u8()? {
                0x00 => DirUpdate::SharedBy { reader: c.u32()? },
                0x01 => DirUpdate::OwnedBy { writer: c.u32()? },
                t => return Err(WireError::UnknownTag(t)),
            };
            ProtoMsg::DirUpdateMsg { block, update }
        }
        0x0C => {
            let block = c.block()?;
            let to = match c.u8()? {
                0x00 => DowngradeTo::Shared,
                0x01 => DowngradeTo::Invalid,
                t => return Err(WireError::UnknownTag(t)),
            };
            ProtoMsg::Downgrade { block, to }
        }
        0x0D => ProtoMsg::LockAcq { lock: c.u32()? },
        0x0E => ProtoMsg::LockRel { lock: c.u32()? },
        0x0F => ProtoMsg::LockGrant { lock: c.u32()? },
        0x10 => ProtoMsg::BarrierArrive { id: c.u32()? },
        0x11 => ProtoMsg::BarrierGo { id: c.u32()? },
        t => return Err(WireError::UnknownTag(t)),
    })
}

/// Decodes one complete frame body (everything after the length prefix).
/// The body must be exactly one frame: leftover bytes are an error.
///
/// # Errors
///
/// Any [`WireError`] the body's grammar can produce.
pub fn decode_body(body: &[u8]) -> Result<Frame, WireError> {
    let mut c = Cursor::new(body);
    let frame = match c.u8()? {
        KIND_HELLO => {
            let magic: [u8; 4] = c.take(4)?.try_into().unwrap();
            if magic != MAGIC {
                return Err(WireError::BadMagic(magic));
            }
            Frame::Hello { ver_min: c.u8()?, ver_max: c.u8()?, node: c.u32()? }
        }
        KIND_DATA => {
            let version = c.u8()?;
            if !(VERSION_MIN..=VERSION).contains(&version) {
                return Err(WireError::UnknownVersion(version));
            }
            let src = c.u32()?;
            let dst = c.u32()?;
            let pair_seq = c.u64()?;
            let via_vnode = c.bool()?;
            let trace = if version >= 2 { c.u32()? } else { 0 };
            Frame::Data(DataFrame {
                version,
                src,
                dst,
                pair_seq,
                via_vnode,
                trace,
                msg: decode_msg(&mut c)?,
            })
        }
        KIND_ACK => {
            let version = c.u8()?;
            if !(VERSION_MIN..=VERSION).contains(&version) {
                return Err(WireError::UnknownVersion(version));
            }
            Frame::Ack { version, cum_seq: c.u64()? }
        }
        KIND_BYE => Frame::Bye,
        k => return Err(WireError::UnknownKind(k)),
    };
    if c.remaining() != 0 {
        return Err(WireError::TrailingBytes(c.remaining()));
    }
    Ok(frame)
}

/// Incremental frame reassembler for a byte stream: feed it socket reads
/// with [`FrameReader::extend`], drain complete frames with
/// [`FrameReader::next_frame`].
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    head: usize,
}

impl FrameReader {
    /// An empty reassembler.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.head > 0 && (self.head == self.buf.len() || self.head >= 4096) {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Extracts the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; a length prefix over [`MAX_FRAME_LEN`] is
    /// detected before the body arrives, so a corrupt stream fails fast.
    /// Errors are not recoverable: the stream framing is lost and the
    /// connection should be torn down.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.head..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLong(u64::from(len)));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = decode_body(&avail[4..total])?;
        self.head += total;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_frame_layout_is_stable() {
        let bytes = encode_frame(&Frame::Hello { ver_min: VERSION_MIN, ver_max: VERSION, node: 2 })
            .unwrap();
        // len(11) | kind | magic | min | max | node
        assert_eq!(bytes, [11, 0, 0, 0, 0x01, b'S', b'H', b'W', b'P', 1, 2, 2, 0, 0, 0]);
        assert_eq!(
            decode_body(&bytes[4..]).unwrap(),
            Frame::Hello { ver_min: 1, ver_max: 2, node: 2 }
        );
    }

    #[test]
    fn negotiation_picks_min_of_maxima() {
        assert_eq!(negotiate((1, 3), (2, 5)).unwrap(), 3);
        assert_eq!(negotiate((1, 1), (1, 4)).unwrap(), 1);
        assert!(matches!(negotiate((3, 4), (1, 2)), Err(WireError::Incompatible { .. })));
    }

    #[test]
    fn ack_and_bye_round_trip() {
        for f in [
            Frame::Ack { version: VERSION, cum_seq: 0x0102_0304 },
            Frame::Ack { version: VERSION_MIN, cum_seq: 9 },
            Frame::Bye,
        ] {
            let bytes = encode_frame(&f).unwrap();
            assert_eq!(decode_body(&bytes[4..]).unwrap(), f);
        }
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut body = vec![KIND_DATA, VERSION];
        body.extend_from_slice(&0u32.to_le_bytes()); // src
        body.extend_from_slice(&4u32.to_le_bytes()); // dst
        body.extend_from_slice(&1u64.to_le_bytes()); // pair_seq
        body.push(2); // flags byte: not a bool
        body.push(0x01); // ReadReq
        body.extend_from_slice(&[0; 16]); // block
        assert_eq!(decode_body(&body), Err(WireError::BadBool(2)));
    }

    #[test]
    fn frame_reader_reassembles_split_frames() {
        let f = Frame::Data(DataFrame {
            version: VERSION,
            src: 0,
            dst: 4,
            pair_seq: 7,
            via_vnode: false,
            trace: 0x00C0_FFEE,
            msg: ProtoMsg::ReadReq { block: Block { start: 0x2000, len: 64 } },
        });
        let bytes = encode_frame(&f).unwrap();
        let mut r = FrameReader::new();
        for chunk in bytes.chunks(3) {
            r.extend(chunk);
        }
        assert_eq!(r.next_frame().unwrap(), Some(f));
        assert_eq!(r.next_frame().unwrap(), None);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn v1_data_frames_have_no_trace_field() {
        let mk = |version, trace| {
            Frame::Data(DataFrame {
                version,
                src: 1,
                dst: 5,
                pair_seq: 3,
                via_vnode: true,
                trace,
                msg: ProtoMsg::InvAck { block: Block { start: 0x40, len: 64 } },
            })
        };
        // Encoding under a connection negotiated down to v1 drops the
        // trace context entirely: the bytes are exactly the v1 bytes,
        // whatever the struct field held.
        let v1_plain = encode_frame(&mk(1, 0)).unwrap();
        let v1_traced = encode_frame(&mk(1, 42)).unwrap();
        assert_eq!(v1_plain, v1_traced);
        assert_eq!(decode_body(&v1_traced[4..]).unwrap(), mk(1, 0));
        // A v2 frame is exactly 4 bytes longer and round-trips the value.
        let v2 = encode_frame(&mk(2, 42)).unwrap();
        assert_eq!(v2.len(), v1_plain.len() + 4);
        assert_eq!(decode_body(&v2[4..]).unwrap(), mk(2, 42));
    }
}
