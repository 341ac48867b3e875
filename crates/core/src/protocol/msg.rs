//! Protocol message types exchanged between processors.

use crate::space::Block;

/// How a directory update closes a forwarded transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DirUpdate {
    /// A forwarded read completed: the owner downgraded to shared and sent
    /// data to `reader`; both remain/become sharers, block no longer
    /// exclusive.
    SharedBy {
        /// The processor that received the data.
        reader: u32,
    },
    /// A forwarded (or home-local) write completed: `writer` is the new
    /// exclusive owner.
    OwnedBy {
        /// The new owner.
        writer: u32,
    },
}

/// Target of an intra-node downgrade message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DowngradeTo {
    /// exclusive → shared (incoming read).
    Shared,
    /// shared/exclusive → invalid (incoming write or invalidate).
    Invalid,
}

/// A protocol message. Requests are addressed to the block's home processor;
/// forwards carry the original requester; downgrades are intra-node only.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtoMsg {
    /// Read request to the home.
    ReadReq {
        /// Requested block.
        block: Block,
    },
    /// Read-exclusive (write) request to the home.
    WriteReq {
        /// Requested block.
        block: Block,
    },
    /// Exclusive (upgrade) request to the home: the requester believes it
    /// holds a shared copy.
    UpgradeReq {
        /// Requested block.
        block: Block,
    },
    /// Home → owner: service a read for `requester`.
    FwdRead {
        /// Requested block.
        block: Block,
        /// Original requester.
        requester: u32,
        /// Whether the directory was in exclusive mode when forwarding
        /// (lets a pending-upgrade owner distinguish a forward that is
        /// queued *behind* its own upgrade from one sent *after* its grant).
        owner_exclusive: bool,
    },
    /// Home → owner: service a write for `requester`; the home has already
    /// arranged `acks_expected` invalidation acks to flow to the requester.
    FwdWrite {
        /// Requested block.
        block: Block,
        /// Original requester.
        requester: u32,
        /// Invalidation acks the requester should expect.
        acks_expected: u32,
        /// Whether the directory was in exclusive mode when forwarding.
        owner_exclusive: bool,
    },
    /// Data reply granting a shared copy.
    ReadReply {
        /// The block.
        block: Block,
        /// Block contents.
        data: Vec<u8>,
    },
    /// Data reply granting an exclusive copy.
    WriteReply {
        /// The block.
        block: Block,
        /// Block contents.
        data: Vec<u8>,
        /// Invalidation acks the requester should expect.
        acks_expected: u32,
    },
    /// Ownership grant without data (upgrade succeeded).
    UpgradeReply {
        /// The block.
        block: Block,
        /// Invalidation acks the requester should expect.
        acks_expected: u32,
    },
    /// Home → sharer: invalidate your copy and ack `ack_to`.
    InvalidateReq {
        /// The block.
        block: Block,
        /// Processor to acknowledge (the writing requester).
        ack_to: u32,
    },
    /// Sharer → requester: invalidation done.
    InvAck {
        /// The block.
        block: Block,
    },
    /// Owner/executor → home: close a forwarded or home-local transaction.
    DirUpdateMsg {
        /// The block.
        block: Block,
        /// The directory change to apply.
        update: DirUpdate,
    },
    /// Intra-node downgrade request (SMP-Shasta, §3.4.3).
    Downgrade {
        /// The block.
        block: Block,
        /// Downgrade target state.
        to: DowngradeTo,
    },
    /// Application lock acquire request to the lock's manager.
    LockAcq {
        /// Lock id.
        lock: u32,
    },
    /// Application lock release notification to the manager.
    LockRel {
        /// Lock id.
        lock: u32,
    },
    /// Manager → requester: the lock is yours.
    LockGrant {
        /// Lock id.
        lock: u32,
    },
    /// Barrier arrival notification to the barrier manager (processor 0).
    BarrierArrive {
        /// Barrier id.
        id: u32,
    },
    /// Manager → participant: everyone arrived, proceed.
    BarrierGo {
        /// Barrier id.
        id: u32,
    },
}

impl ProtoMsg {
    /// Payload bytes this message carries on the wire (data replies carry
    /// the block; everything else is header-only).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            ProtoMsg::ReadReply { data, .. } | ProtoMsg::WriteReply { data, .. } => {
                data.len() as u64
            }
            _ => 0,
        }
    }

    /// The block this message concerns (`None` for lock and barrier
    /// messages, which carry no block).
    pub fn block(&self) -> Option<Block> {
        match *self {
            ProtoMsg::ReadReq { block }
            | ProtoMsg::WriteReq { block }
            | ProtoMsg::UpgradeReq { block }
            | ProtoMsg::FwdRead { block, .. }
            | ProtoMsg::FwdWrite { block, .. }
            | ProtoMsg::ReadReply { block, .. }
            | ProtoMsg::WriteReply { block, .. }
            | ProtoMsg::UpgradeReply { block, .. }
            | ProtoMsg::InvalidateReq { block, .. }
            | ProtoMsg::InvAck { block }
            | ProtoMsg::DirUpdateMsg { block, .. }
            | ProtoMsg::Downgrade { block, .. } => Some(block),
            ProtoMsg::LockAcq { .. }
            | ProtoMsg::LockRel { .. }
            | ProtoMsg::LockGrant { .. }
            | ProtoMsg::BarrierArrive { .. }
            | ProtoMsg::BarrierGo { .. } => None,
        }
    }

    /// Starting address of the block this message concerns (0 for lock and
    /// barrier messages, which carry no block).
    pub fn block_start(&self) -> u64 {
        self.block().map_or(0, |b| b.start)
    }

    /// Short label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            ProtoMsg::ReadReq { .. } => "read-req",
            ProtoMsg::WriteReq { .. } => "write-req",
            ProtoMsg::UpgradeReq { .. } => "upgrade-req",
            ProtoMsg::FwdRead { .. } => "fwd-read",
            ProtoMsg::FwdWrite { .. } => "fwd-write",
            ProtoMsg::ReadReply { .. } => "read-reply",
            ProtoMsg::WriteReply { .. } => "write-reply",
            ProtoMsg::UpgradeReply { .. } => "upgrade-reply",
            ProtoMsg::InvalidateReq { .. } => "invalidate",
            ProtoMsg::InvAck { .. } => "inv-ack",
            ProtoMsg::DirUpdateMsg { .. } => "dir-update",
            ProtoMsg::Downgrade { .. } => "downgrade",
            ProtoMsg::LockAcq { .. } => "lock-acq",
            ProtoMsg::LockRel { .. } => "lock-rel",
            ProtoMsg::LockGrant { .. } => "lock-grant",
            ProtoMsg::BarrierArrive { .. } => "barrier-arrive",
            ProtoMsg::BarrierGo { .. } => "barrier-go",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_bytes_only_on_data_replies() {
        let b = Block { start: 0x2000, len: 64 };
        assert_eq!(ProtoMsg::ReadReq { block: b }.payload_bytes(), 0);
        assert_eq!(ProtoMsg::ReadReply { block: b, data: vec![0; 64] }.payload_bytes(), 64);
        assert_eq!(
            ProtoMsg::WriteReply { block: b, data: vec![0; 128], acks_expected: 1 }.payload_bytes(),
            128
        );
        assert_eq!(ProtoMsg::UpgradeReply { block: b, acks_expected: 2 }.payload_bytes(), 0);
        assert_eq!(ProtoMsg::Downgrade { block: b, to: DowngradeTo::Invalid }.payload_bytes(), 0);
    }

    #[test]
    fn labels_cover_message_kinds() {
        let b = Block { start: 0, len: 64 };
        assert_eq!(
            ProtoMsg::FwdWrite { block: b, requester: 1, acks_expected: 0, owner_exclusive: true }
                .label(),
            "fwd-write"
        );
        assert_eq!(ProtoMsg::LockGrant { lock: 3 }.label(), "lock-grant");
    }
}
