//! The miss table: outstanding-request entries with non-blocking-store
//! merging and epoch bookkeeping.
//!
//! Shasta emulates a processor with non-blocking stores and a lockup-free
//! cache (§2.1): a store miss issues its request, records the store in a
//! **miss entry**, and continues; the reply is merged with the newly written
//! data. Under SMP-Shasta the miss table is shared by the node's processors
//! so that requests for the same block merge (§3.4.2), and an **epoch**
//! scheme (borrowed from SoftFLASH) makes eager release consistency safe
//! when several processors on a node share data returned before all
//! invalidation acknowledgements have arrived.
//!
//! Unlike the real implementation — where merged store *values* already live
//! in node memory and the reply merge just skips those ranges — the
//! simulator records each merged store in the entry, because an intervening
//! invalidation writes flag values over node memory; re-applying recorded
//! stores after the reply fill reproduces the real memory image.
//!
//! An entry's lists outlive it: the table keeps a retired entry's emptied
//! store and forward lists and hands them to the entries it inserts next, so
//! a node in steady state records merged stores without allocating.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use shasta_obs::DowngradeAction;

use crate::space::{Addr, Block};

/// Outstanding request type of a miss entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ReqKind {
    /// Read request (expects data, grants `Shared`).
    Read,
    /// Read-exclusive request (expects data, grants `Exclusive`).
    Write,
    /// Exclusive/upgrade request (no data needed, grants `Exclusive`).
    Upgrade,
}

/// A scalar store merged into a pending entry: its `size` low-order bytes
/// of `value`, little-endian, at `addr`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StoreRecord {
    /// Target address of the store.
    pub addr: Addr,
    /// Bytes stored (at most 8).
    pub size: u8,
    /// The stored value.
    pub value: u64,
}

/// One outstanding request for a block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MissEntry {
    /// The block being fetched/upgraded.
    pub block: Block,
    /// Current request type.
    pub kind: ReqKind,
    /// Processor whose message is outstanding (the home serializes per-node
    /// requests through this one processor, §3.4.2).
    pub requester: u32,
    /// Stores merged into the entry, re-applied over the reply data.
    pub stores: Vec<StoreRecord>,
    /// A store arrived while a read was pending: after the read reply, the
    /// entry re-issues as an upgrade.
    pub wants_exclusive: bool,
    /// Invalidation acks still expected (set by the data/upgrade reply).
    pub acks_expected: u32,
    /// Acks received before the reply told us how many to expect.
    pub early_acks: u32,
    /// Whether the data/upgrade reply has been processed.
    pub replied: bool,
    /// Node epoch in which the entry became a store operation (`u64::MAX`
    /// while it is a pure read).
    pub store_epoch: u64,
    /// Forwards that raced ahead of this entry's reply (the forward reached
    /// the node before the data reply from a third party), as the replies
    /// they ask for; they are served right after the reply is processed.
    pub queued_fwds: Vec<DowngradeAction>,
    /// An invalidation that met the pending request, for the writer to ack:
    /// executed or acknowledged when the reply arrives.
    pub deferred_inval: Option<u32>,
}

impl MissEntry {
    /// Creates an entry for a fresh request.
    pub fn new(block: Block, kind: ReqKind, requester: u32, epoch: u64) -> Self {
        MissEntry {
            block,
            kind,
            requester,
            stores: Vec::new(),
            wants_exclusive: false,
            acks_expected: 0,
            early_acks: 0,
            replied: false,
            store_epoch: if matches!(kind, ReqKind::Read) { u64::MAX } else { epoch },
            queued_fwds: Vec::new(),
            deferred_inval: None,
        }
    }

    /// Whether this entry represents an outstanding store operation.
    pub fn is_store_op(&self) -> bool {
        self.store_epoch != u64::MAX
    }

    /// Whether the entry is fully complete (reply processed and all acks in).
    pub fn complete(&self) -> bool {
        self.replied && self.early_acks >= self.acks_expected
    }

    /// Records a store of `size` bytes of `value` at `addr` into the entry.
    pub fn merge_store(&mut self, addr: Addr, size: u8, value: u64) {
        self.stores.push(StoreRecord { addr, size, value });
    }

    /// Re-applies merged stores, in the order they were made, over freshly
    /// filled block data. `buf` holds the block contents starting at
    /// `self.block.start`.
    pub fn apply_stores(&self, buf: &mut [u8]) {
        for s in &self.stores {
            let off = (s.addr - self.block.start) as usize;
            let n = usize::from(s.size);
            buf[off..off + n].copy_from_slice(&s.value.to_le_bytes()[..n]);
        }
    }
}

/// Per-node outstanding-store accounting for eager release consistency.
///
/// A release opens a new epoch; the releasing processor stalls until every
/// store operation issued on the node in *earlier* epochs has completed
/// (data reply processed and all invalidation acks received).
#[derive(Clone, Debug, Default)]
pub struct EpochTracker {
    current: u64,
    outstanding: BTreeMap<u64, u32>,
}

impl EpochTracker {
    /// The current epoch number.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Registers a store operation issued in the current epoch, returning
    /// that epoch for the miss entry.
    pub fn issue_store(&mut self) -> u64 {
        *self.outstanding.entry(self.current).or_insert(0) += 1;
        self.current
    }

    /// Marks a store operation from `epoch` complete.
    ///
    /// # Panics
    ///
    /// Panics if no store from that epoch is outstanding.
    pub fn complete_store(&mut self, epoch: u64) {
        let n = self.outstanding.get_mut(&epoch).expect("completing unknown store epoch");
        *n -= 1;
        if *n == 0 {
            self.outstanding.remove(&epoch);
        }
    }

    /// Opens a new epoch (called when a release begins) and returns it.
    pub fn open_epoch(&mut self) -> u64 {
        self.current += 1;
        self.current
    }

    /// Whether all stores issued in epochs strictly before `epoch` are
    /// complete — the release-permission predicate.
    pub fn quiesced_before(&self, epoch: u64) -> bool {
        self.outstanding.range(..epoch).next().is_none()
    }

    /// Total outstanding store operations (diagnostics).
    pub fn outstanding_total(&self) -> u32 {
        self.outstanding.values().sum()
    }
}

/// Emptied lists a table keeps for its next entries: at most the engine's
/// processor limit of each kind, more than a node has entries outstanding
/// under the default store limit.
const MAX_SPARE_LISTS: usize = 64;

/// The per-node miss table: the node's outstanding requests in issue order,
/// found by block start. A node holds only its outstanding requests (a few
/// per processor), so a scan beats hashing.
#[derive(Clone, Debug, Default)]
pub struct MissTable {
    entries: Vec<MissEntry>,
    /// Retired entries' emptied store lists, for the next entries.
    spare_stores: Vec<Vec<StoreRecord>>,
    /// Retired entries' emptied forward lists, for the next entries.
    spare_fwds: Vec<Vec<DowngradeAction>>,
}

impl MissTable {
    /// Creates an empty miss table.
    pub fn new() -> Self {
        MissTable::default()
    }

    fn position(&self, block_start: Addr) -> Option<usize> {
        self.entries.iter().position(|e| e.block.start == block_start)
    }

    /// The entry for the block starting at `block_start`.
    pub fn get(&self, block_start: Addr) -> Option<&MissEntry> {
        self.entries.iter().find(|e| e.block.start == block_start)
    }

    /// Mutable access to the entry for `block_start`.
    #[inline]
    pub fn get_mut(&mut self, block_start: Addr) -> Option<&mut MissEntry> {
        self.entries.iter_mut().find(|e| e.block.start == block_start)
    }

    /// Inserts an entry, last in issue order. An entry without room for
    /// stores or forwards takes a retired entry's emptied lists.
    ///
    /// # Panics
    ///
    /// Panics if an entry for the block already exists (requests for a block
    /// must merge, never duplicate).
    pub fn insert(&mut self, mut entry: MissEntry) {
        assert!(self.position(entry.block.start).is_none(), "duplicate miss entry for block");
        if entry.stores.capacity() == 0 {
            entry.stores = self.spare_stores.pop().unwrap_or_default();
        }
        if entry.queued_fwds.capacity() == 0 {
            entry.queued_fwds = self.spare_fwds.pop().unwrap_or_default();
        }
        self.entries.push(entry);
    }

    /// Removes and returns the entry for `block_start`; the others keep
    /// their issue order. Hand it to [`MissTable::retire`] once done with it.
    pub fn remove(&mut self, block_start: Addr) -> Option<MissEntry> {
        Some(self.entries.remove(self.position(block_start)?))
    }

    /// Takes back a removed entry's lists, emptied, for the entries inserted
    /// next.
    pub fn retire(&mut self, entry: MissEntry) {
        let MissEntry { mut stores, mut queued_fwds, .. } = entry;
        if stores.capacity() > 0 && self.spare_stores.len() < MAX_SPARE_LISTS {
            stores.clear();
            self.spare_stores.push(stores);
        }
        if queued_fwds.capacity() > 0 && self.spare_fwds.len() < MAX_SPARE_LISTS {
            queued_fwds.clear();
            self.spare_fwds.push(queued_fwds);
        }
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (run-end invariant).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over outstanding entries in issue order (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &MissEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> Block {
        Block { start: 0x2000, len: 64 }
    }

    #[test]
    fn read_entry_is_not_a_store_op() {
        let e = MissEntry::new(block(), ReqKind::Read, 0, 5);
        assert!(!e.is_store_op());
        let e = MissEntry::new(block(), ReqKind::Write, 0, 5);
        assert!(e.is_store_op());
        assert_eq!(e.store_epoch, 5);
    }

    #[test]
    fn completion_requires_reply_and_acks() {
        let mut e = MissEntry::new(block(), ReqKind::Write, 0, 0);
        assert!(!e.complete());
        e.replied = true;
        e.acks_expected = 2;
        assert!(!e.complete());
        e.early_acks = 2;
        assert!(e.complete());
    }

    #[test]
    fn acks_may_arrive_before_reply() {
        let mut e = MissEntry::new(block(), ReqKind::Upgrade, 1, 0);
        e.early_acks = 3; // acks raced ahead of the upgrade reply
        e.replied = true;
        e.acks_expected = 3;
        assert!(e.complete());
    }

    #[test]
    fn store_merge_and_apply() {
        let mut e = MissEntry::new(block(), ReqKind::Write, 0, 0);
        e.merge_store(0x2004, 2, 0xBBAA);
        e.merge_store(0x2000, 1, 0x11);
        let mut buf = vec![0u8; 64];
        e.apply_stores(&mut buf);
        assert_eq!(buf[0], 0x11);
        assert_eq!(buf[4], 0xAA);
        assert_eq!(buf[5], 0xBB);
        assert_eq!(buf[6], 0);
    }

    #[test]
    fn later_stores_win_overlaps() {
        let mut e = MissEntry::new(block(), ReqKind::Write, 0, 0);
        e.merge_store(0x2000, 2, 0x0101);
        e.merge_store(0x2000, 2, 0x0202);
        let mut buf = vec![0u8; 64];
        e.apply_stores(&mut buf);
        assert_eq!(&buf[..2], &[2, 2]);
    }

    #[test]
    fn epoch_tracker_release_predicate() {
        let mut t = EpochTracker::default();
        let e0 = t.issue_store();
        assert_eq!(e0, 0);
        let newer = t.open_epoch();
        assert_eq!(newer, 1);
        assert!(!t.quiesced_before(newer), "epoch-0 store still outstanding");
        t.complete_store(e0);
        assert!(t.quiesced_before(newer));
        // Stores in the new epoch do not block a release opening epoch 1.
        let e1 = t.issue_store();
        assert_eq!(e1, 1);
        assert!(t.quiesced_before(1));
        assert!(!t.quiesced_before(2));
        t.complete_store(e1);
        assert_eq!(t.outstanding_total(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate miss entry")]
    fn duplicate_entries_rejected() {
        let mut t = MissTable::new();
        t.insert(MissEntry::new(block(), ReqKind::Read, 0, 0));
        t.insert(MissEntry::new(block(), ReqKind::Read, 1, 0));
    }

    #[test]
    fn table_insert_remove() {
        let mut t = MissTable::new();
        t.insert(MissEntry::new(block(), ReqKind::Read, 0, 0));
        assert_eq!(t.len(), 1);
        assert!(t.get(0x2000).is_some());
        assert!(t.get(0x2040).is_none());
        let e = t.remove(0x2000).unwrap();
        assert_eq!(e.requester, 0);
        assert!(t.is_empty());
    }

    #[test]
    fn issue_order_survives_a_remove() {
        let mut t = MissTable::new();
        for (i, start) in [0x3000, 0x1000, 0x2000, 0x4000].into_iter().enumerate() {
            t.insert(MissEntry::new(Block { start, len: 64 }, ReqKind::Read, i as u32, 0));
        }
        assert_eq!(t.remove(0x1000).unwrap().requester, 1);
        assert!(t.remove(0x1000).is_none());
        let order: Vec<Addr> = t.iter().map(|e| e.block.start).collect();
        assert_eq!(order, vec![0x3000, 0x2000, 0x4000]);
        t.insert(MissEntry::new(Block { start: 0x1000, len: 64 }, ReqKind::Write, 9, 0));
        let order: Vec<Addr> = t.iter().map(|e| e.block.start).collect();
        assert_eq!(order, vec![0x3000, 0x2000, 0x4000, 0x1000]);
        t.get_mut(0x2000).unwrap().early_acks = 2;
        assert_eq!(t.get(0x2000).unwrap().early_acks, 2);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn a_retired_entry_hands_its_emptied_lists_to_the_next() {
        let mut t = MissTable::new();
        t.insert(MissEntry::new(block(), ReqKind::Write, 0, 0));
        let e = t.get_mut(0x2000).unwrap();
        e.merge_store(0x2008, 8, 7);
        e.queued_fwds.push(DowngradeAction::WriteReply { requester: 1, acks: 0 });
        let (stores, fwds) = (e.stores.as_ptr(), e.queued_fwds.as_ptr());
        let e = t.remove(0x2000).unwrap();
        t.retire(e);
        t.insert(MissEntry::new(Block { start: 0x2040, len: 64 }, ReqKind::Read, 2, 0));
        let next = t.get(0x2040).unwrap();
        assert!(next.stores.is_empty() && next.queued_fwds.is_empty());
        assert_eq!((next.stores.as_ptr(), next.queued_fwds.as_ptr()), (stores, fwds));
    }

    #[test]
    #[should_panic(expected = "duplicate miss entry")]
    fn duplicate_insert_panics_among_others() {
        let mut t = MissTable::new();
        t.insert(MissEntry::new(block(), ReqKind::Read, 0, 0));
        t.insert(MissEntry::new(Block { start: 0x2040, len: 64 }, ReqKind::Read, 0, 0));
        t.remove(0x2040);
        t.insert(MissEntry::new(block(), ReqKind::Write, 1, 0));
    }
}
