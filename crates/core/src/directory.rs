//! The directory: owner pointer, sharer bit-vector, and transient
//! transaction queuing.
//!
//! Coherence is maintained with a directory-based invalidation protocol
//! (§2.1). The home of each block keeps (i) a pointer to the current
//! **owner** (the last processor that held an exclusive copy) and (ii) a
//! full **bit vector of sharers**. While a forwarded transaction is in
//! flight (home → owner → requester, closed by a directory update from the
//! owner) the entry is **busy** and later requests queue behind it, so
//! protocol requests for a block serialize at the home.
//!
//! Like Shasta's state table, the directory is direct-indexed: one slot per
//! line, filled at the block's first line. Each block has exactly one entry
//! wherever its home is, so one table serves every home; the home processor
//! still decides where a request goes and who pays for it.

use std::collections::VecDeque;

use crate::misstable::ReqKind;
use crate::space::Addr;

/// The processors of a set held as a mask (bit *p* = processor *p*), lowest
/// first.
pub(crate) fn procs_in(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let p = (mask != 0).then(|| mask.trailing_zeros())?;
        mask &= mask - 1;
        Some(p)
    })
}

/// A request deferred while the directory entry was busy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueuedReq {
    /// Requesting processor.
    pub requester: u32,
    /// Request type.
    pub kind: ReqKind,
}

/// Directory state for one block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DirEntry {
    /// The last processor to hold the block exclusively. Always holds a
    /// valid copy: when `exclusive` it has the only copy, otherwise it is a
    /// member of `sharers`.
    pub owner: u32,
    /// Bit vector of processors holding copies (bit *p* = processor *p*).
    /// Under SMP-Shasta the home is only aware of the one processor per
    /// node that requested the data (§3.4.2).
    pub sharers: u64,
    /// Whether the owner holds the only (writable) copy.
    pub exclusive: bool,
    /// A forwarded transaction is in flight; requests must queue.
    pub busy: bool,
    /// Requests deferred while busy, FIFO.
    pub queue: VecDeque<QueuedReq>,
}

impl DirEntry {
    /// Creates the initial entry: `creator` holds the only, exclusive copy
    /// (data is initialized at its home before the parallel phase).
    pub fn new_exclusive(creator: u32) -> Self {
        DirEntry {
            owner: creator,
            sharers: 1 << creator,
            exclusive: true,
            busy: false,
            queue: VecDeque::new(),
        }
    }

    /// Whether processor `p` is recorded as a sharer.
    pub fn is_sharer(&self, p: u32) -> bool {
        self.sharers & (1 << p) != 0
    }

    /// Adds processor `p` to the sharer set.
    pub fn add_sharer(&mut self, p: u32) {
        self.sharers |= 1 << p;
    }

    /// Removes processor `p` from the sharer set.
    pub fn remove_sharer(&mut self, p: u32) {
        self.sharers &= !(1 << p);
    }

    /// Iterator over current sharers, in processor order.
    pub fn sharer_list(&self) -> impl Iterator<Item = u32> + use<> {
        procs_in(self.sharers)
    }

    /// Number of sharers.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }

    /// The next queued request, unless a transaction is in flight.
    pub fn next_queued(&mut self) -> Option<QueuedReq> {
        if self.busy {
            None
        } else {
            self.queue.pop_front()
        }
    }

    /// Transitions to "exclusive at `p`": `p` becomes owner and sole sharer.
    pub fn grant_exclusive(&mut self, p: u32) {
        self.owner = p;
        self.exclusive = true;
        self.sharers = 1 << p;
    }
}

/// Every block's directory entry, indexed by the block's first line.
#[derive(Clone, Debug)]
pub struct Directory {
    /// log2 of the line size.
    line_shift: u32,
    /// One slot per line; a block's entry sits at its first line.
    slots: Vec<Option<DirEntry>>,
    /// Number of registered blocks.
    len: usize,
}

impl Default for Directory {
    fn default() -> Self {
        Directory::new()
    }
}

impl Directory {
    /// Creates an empty directory over the paper's default 64-byte lines.
    pub fn new() -> Self {
        Directory::with_line_bytes(crate::space::DEFAULT_LINE_BYTES)
    }

    /// Creates an empty directory over `line_bytes`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn with_line_bytes(line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        Directory { line_shift: line_bytes.trailing_zeros(), slots: Vec::new(), len: 0 }
    }

    /// The slot of the line `addr` starts, if `addr` is line-aligned.
    fn slot(&self, addr: Addr) -> Option<usize> {
        (addr & ((1 << self.line_shift) - 1) == 0).then_some((addr >> self.line_shift) as usize)
    }

    /// Makes room for blocks starting below line `lines` (registration
    /// grows the table too; this only saves the regrowth).
    pub fn map_to(&mut self, lines: u64) {
        if self.slots.len() < lines as usize {
            self.slots.resize_with(lines as usize, || None);
        }
    }

    /// Registers a block at initialization time, exclusively owned by
    /// `creator`.
    ///
    /// # Panics
    ///
    /// Panics if `block_start` is not line-aligned.
    pub fn register(&mut self, block_start: Addr, creator: u32) {
        let i = self.slot(block_start).expect("a block starts on a line boundary");
        self.map_to(i as u64 + 1);
        if self.slots[i].replace(DirEntry::new_exclusive(creator)).is_none() {
            self.len += 1;
        }
    }

    /// The entry for `block_start`.
    ///
    /// # Panics
    ///
    /// Panics if no block starting at `block_start` was registered — a
    /// protocol routing bug.
    #[inline]
    pub fn entry(&mut self, block_start: Addr) -> &mut DirEntry {
        match self.slot(block_start).and_then(|i| self.slots.get_mut(i)) {
            Some(Some(e)) => e,
            _ => panic!("no directory entry for block {block_start:#x}"),
        }
    }

    /// Read-only entry lookup (for audits).
    pub fn peek(&self, block_start: Addr) -> Option<&DirEntry> {
        self.slots.get(self.slot(block_start)?)?.as_ref()
    }

    /// Iterator over `(block_start, entry)` pairs in address order (for
    /// audits).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, &DirEntry)> {
        let shift = self.line_shift;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, e)| Some(((i as Addr) << shift, e.as_ref()?)))
    }

    /// Number of registered blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_entry_is_exclusive_at_creator() {
        let e = DirEntry::new_exclusive(3);
        assert_eq!(e.owner, 3);
        assert!(e.exclusive);
        assert!(e.is_sharer(3));
        assert_eq!(e.sharer_count(), 1);
        assert!(!e.busy);
    }

    #[test]
    fn sharer_set_operations() {
        let mut e = DirEntry::new_exclusive(0);
        e.exclusive = false;
        e.add_sharer(5);
        e.add_sharer(63);
        assert!(e.is_sharer(5));
        assert!(e.is_sharer(63));
        assert_eq!(e.sharer_list().collect::<Vec<_>>(), vec![0, 5, 63]);
        e.remove_sharer(0);
        assert!(!e.is_sharer(0));
        assert_eq!(e.sharer_count(), 2);
    }

    #[test]
    fn grant_exclusive_resets_sharers() {
        let mut e = DirEntry::new_exclusive(0);
        e.exclusive = false;
        e.add_sharer(1);
        e.add_sharer(2);
        e.grant_exclusive(2);
        assert!(e.exclusive);
        assert_eq!(e.owner, 2);
        assert_eq!(e.sharer_list().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn queue_is_fifo() {
        let mut e = DirEntry::new_exclusive(0);
        e.queue.push_back(QueuedReq { requester: 1, kind: ReqKind::Read });
        e.queue.push_back(QueuedReq { requester: 2, kind: ReqKind::Write });
        assert_eq!(e.queue.pop_front().unwrap().requester, 1);
        assert_eq!(e.queue.pop_front().unwrap().requester, 2);
    }

    #[test]
    fn directory_register_and_lookup() {
        let mut d = Directory::new();
        d.register(0x4000, 1);
        assert_eq!(d.len(), 1);
        assert_eq!(d.entry(0x4000).owner, 1);
        assert!(d.peek(0x5000).is_none());
    }

    #[test]
    #[should_panic(expected = "no directory entry")]
    fn unregistered_block_panics() {
        let mut d = Directory::new();
        d.entry(0x4000);
    }

    #[test]
    fn iter_runs_in_address_order() {
        let mut d = Directory::new();
        for start in [0x9000, 0x1000, 0x4040, 0x4000] {
            d.register(start, (start / 0x1000) as u32);
        }
        let starts: Vec<Addr> = d.iter().map(|(a, _)| a).collect();
        assert_eq!(starts, vec![0x1000, 0x4000, 0x4040, 0x9000]);
        assert_eq!(d.iter().map(|(_, e)| e.owner).collect::<Vec<_>>(), vec![1, 4, 4, 9]);
    }

    #[test]
    fn blocks_of_different_sizes_share_one_table() {
        let mut d = Directory::new();
        // One allocation of 64-byte blocks, then one of 512-byte blocks.
        for start in (0x1000..0x1100).step_by(64) {
            d.register(start, 1);
        }
        for start in (0x1200..0x1600).step_by(512) {
            d.register(start, 2);
        }
        assert_eq!(d.len(), 4 + 2);
        assert_eq!(d.entry(0x10c0).owner, 1);
        assert_eq!(d.entry(0x1400).owner, 2);
        d.entry(0x1400).add_sharer(7);
        assert!(d.peek(0x1400).unwrap().is_sharer(7));
        assert!(!d.peek(0x1200).unwrap().is_sharer(7));
        assert!(d.peek(0x1240).is_none(), "second line of a 512-byte block");
    }

    #[test]
    #[should_panic(expected = "no directory entry for block 0x1240")]
    fn a_non_first_line_of_a_block_panics() {
        let mut d = Directory::new();
        d.register(0x1200, 0);
        d.entry(0x1240);
    }

    #[test]
    #[should_panic(expected = "no directory entry for block 0x1010")]
    fn an_unaligned_address_panics() {
        let mut d = Directory::new();
        d.register(0x1000, 0);
        d.entry(0x1010);
    }

    #[test]
    fn with_line_bytes_128() {
        let mut d = Directory::with_line_bytes(128);
        d.register(0x1000, 3);
        d.register(0x1080, 4);
        assert_eq!(d.entry(0x1080).owner, 4);
        assert!(d.peek(0x1040).is_none(), "not a 128-byte line boundary");
        assert_eq!(d.iter().map(|(a, _)| a).collect::<Vec<_>>(), vec![0x1000, 0x1080]);
    }
}
