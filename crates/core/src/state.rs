//! Line states, state tables, and the invalid-flag mechanism.
//!
//! Each *virtual node* (sharing group) has one memory image and one **shared
//! state table** with an entry per line. Under SMP-Shasta each processor
//! additionally has a **private state table** (§3.3): the inline checks read
//! only the private table (no fences, no locks), and the protocol upgrades
//! private entries lazily and downgrades them via explicit downgrade
//! messages.
//!
//! When a line is invalidated the protocol stores the [`INVALID_FLAG`] value
//! into each longword (4 bytes) of the line, so a load check can compare the
//! loaded value against the flag instead of consulting the state table
//! (§2.3). A load of data that legitimately equals the flag is a **false
//! miss**: the miss handler consults the state table, sees a valid state,
//! and returns.

use serde::{Deserialize, Serialize};

use crate::space::Addr;

/// The value stored in each longword of an invalidated line.
pub const INVALID_FLAG: u32 = 0xDEAD_BEEF;

/// Coherence state of a line in the shared (per-node) state table.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
#[repr(u8)]
pub enum LineState {
    /// No valid copy on this node.
    #[default]
    Invalid = 0,
    /// Valid read-only copy; other nodes may also have copies.
    Shared = 1,
    /// Valid, writable, and the only copy among nodes.
    Exclusive = 2,
    /// A read request for the line is outstanding.
    PendingRead = 3,
    /// A write (read-exclusive or upgrade) request is outstanding.
    PendingWrite = 4,
    /// SMP-Shasta: downgrade to `Shared` in progress (§3.4.3).
    PendingDgShared = 5,
    /// SMP-Shasta: downgrade to `Invalid` in progress (§3.4.3).
    PendingDgInvalid = 6,
}

impl LineState {
    /// Whether a processor may load from a line in this state without
    /// entering the protocol.
    pub fn readable(self) -> bool {
        matches!(self, LineState::Shared | LineState::Exclusive)
    }

    /// Whether a processor may store to a line in this state without
    /// entering the protocol.
    pub fn writable(self) -> bool {
        self == LineState::Exclusive
    }

    /// Whether a request for the line is outstanding.
    pub fn pending(self) -> bool {
        matches!(self, LineState::PendingRead | LineState::PendingWrite)
    }

    /// Whether the line is in a pending-downgrade state.
    pub fn downgrading(self) -> bool {
        matches!(self, LineState::PendingDgShared | LineState::PendingDgInvalid)
    }

    /// Short label for traces and event exports.
    pub fn label(self) -> &'static str {
        match self {
            LineState::Invalid => "invalid",
            LineState::Shared => "shared",
            LineState::Exclusive => "exclusive",
            LineState::PendingRead => "pending-read",
            LineState::PendingWrite => "pending-write",
            LineState::PendingDgShared => "pending-dg-shared",
            LineState::PendingDgInvalid => "pending-dg-invalid",
        }
    }
}

/// Coherence state of a line in a processor's private state table.
///
/// Private entries are a conservative summary of what the processor itself
/// has established: `Invalid` means "must enter the protocol", not
/// necessarily "no copy on the node".
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
#[repr(u8)]
pub enum PrivState {
    /// Accesses must enter the protocol.
    #[default]
    Invalid = 0,
    /// Loads may proceed inline.
    Shared = 1,
    /// Loads and stores may proceed inline.
    Exclusive = 2,
}

impl PrivState {
    /// Whether an inline load check passes.
    pub fn readable(self) -> bool {
        self >= PrivState::Shared
    }

    /// Whether an inline store check passes.
    pub fn writable(self) -> bool {
        self == PrivState::Exclusive
    }
}

/// One virtual node's memory image plus shared state table.
///
/// An image covers the heap only up to its **mapped end**: the machine maps
/// images as shared memory is allocated, so an image costs what was
/// allocated, not the heap limit. An unmapped longword reads as the
/// [`INVALID_FLAG`]; every other access past the mapped end is an access to
/// unallocated memory and panics saying so.
#[derive(Clone, Debug)]
pub struct NodeMem {
    mem: Vec<u8>,
    state: Vec<LineState>,
    line_bytes: u64,
}

/// Stores the invalid flag into every longword of `bytes`.
fn fill_flags(bytes: &mut [u8]) {
    for w in bytes.chunks_exact_mut(4) {
        w.copy_from_slice(&INVALID_FLAG.to_le_bytes());
    }
}

#[cold]
fn unmapped(addr: Addr) -> ! {
    panic!("access to unallocated shared address {addr:#x} (past the mapped image)")
}

impl NodeMem {
    /// Creates a node image mapped to `mapped_bytes` (see
    /// [`map_to`](Self::map_to)); `NodeMem::new(0, ..)` is the empty image a
    /// machine starts from.
    pub fn new(mapped_bytes: u64, line_bytes: u64) -> Self {
        let mut m = NodeMem { mem: Vec::new(), state: Vec::new(), line_bytes };
        m.map_to(mapped_bytes);
        m
    }

    /// Extends the image to cover `[0, end)`, rounded up to a whole line:
    /// new lines are `Invalid` with every longword holding the invalid flag
    /// (the state a freshly mapped shared page presents to the
    /// flag-technique load check). What is already mapped keeps its bytes
    /// and states; an `end` inside the mapped image changes nothing.
    pub fn map_to(&mut self, end: Addr) {
        let lines = end.div_ceil(self.line_bytes) as usize;
        if lines <= self.state.len() {
            return;
        }
        let old = self.mem.len();
        self.state.resize(lines, LineState::Invalid);
        self.mem.resize(lines * self.line_bytes as usize, 0);
        fill_flags(&mut self.mem[old..]);
    }

    /// Bytes mapped so far (a whole number of lines).
    pub fn mapped_bytes(&self) -> u64 {
        self.mem.len() as u64
    }

    /// Line size this image was built with.
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// State of line `line`.
    #[inline]
    pub fn line_state(&self, line: u64) -> LineState {
        self.state[line as usize]
    }

    /// Sets the state of line `line`.
    pub fn set_line_state(&mut self, line: u64, s: LineState) {
        self.state[line as usize] = s;
    }

    /// Sets the state of every line in `lines`.
    pub fn set_lines_state(&mut self, lines: std::ops::Range<u64>, s: LineState) {
        for l in lines {
            self.state[l as usize] = s;
        }
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the mapped image.
    pub fn read(&self, addr: Addr, len: u64) -> &[u8] {
        let mapped = self.mem.get(addr as usize..).and_then(|m| m.get(..len as usize));
        mapped.unwrap_or_else(|| unmapped(addr))
    }

    /// Writes `data` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the mapped image.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        let mapped = self.mem.get_mut(addr as usize..).and_then(|m| m.get_mut(..data.len()));
        mapped.unwrap_or_else(|| unmapped(addr)).copy_from_slice(data);
    }

    /// Reads the longword (4 bytes, aligned down) containing `addr` — the
    /// value the flag-technique load check compares. An unmapped longword
    /// reads as the invalid flag, so a load of it falls into the miss
    /// handler, whose range check names the unallocated address.
    pub fn longword(&self, addr: Addr) -> u32 {
        let base = (addr & !3) as usize;
        match self.mem.get(base..).and_then(|w| w.first_chunk()) {
            Some(w) => u32::from_le_bytes(*w),
            None => INVALID_FLAG,
        }
    }

    /// Reads an unsigned little-endian value of `size` ∈ {1, 2, 4, 8} bytes.
    pub fn read_scalar(&self, addr: Addr, size: u8) -> u64 {
        let mut buf = [0u8; 8];
        let s = size as usize;
        buf[..s].copy_from_slice(self.read(addr, size as u64));
        u64::from_le_bytes(buf)
    }

    /// Writes an unsigned little-endian value of `size` ∈ {1, 2, 4, 8} bytes.
    pub fn write_scalar(&mut self, addr: Addr, size: u8, value: u64) {
        let bytes = value.to_le_bytes();
        self.write(addr, &bytes[..size as usize]);
    }

    /// Zeroes the byte range `[start, start + len)` (the initial contents of
    /// an allocation at its home).
    pub fn write_zeros(&mut self, start: Addr, len: u64) {
        let s = start as usize;
        self.mem[s..s + len as usize].fill(0);
    }

    /// Writes the invalid flag into every longword of the byte range
    /// `[start, start + len)` (called when a block is invalidated).
    pub fn write_flags(&mut self, start: Addr, len: u64) {
        let s = start as usize;
        fill_flags(&mut self.mem[s..s + len as usize]);
    }
}

/// One processor's private state table (SMP-Shasta, §3.3).
#[derive(Clone, Debug)]
pub struct PrivTable {
    state: Vec<PrivState>,
}

impl PrivTable {
    /// Creates an all-`Invalid` private table covering `lines` lines;
    /// `PrivTable::new(0)` is the empty table a machine starts from.
    pub fn new(lines: u64) -> Self {
        PrivTable { state: vec![PrivState::Invalid; lines as usize] }
    }

    /// Extends the table to cover `lines` lines, the new ones `Invalid`
    /// (mapped together with the node images, see [`NodeMem::map_to`]).
    /// Never shrinks.
    pub fn map_to(&mut self, lines: u64) {
        if lines as usize > self.state.len() {
            self.state.resize(lines as usize, PrivState::Invalid);
        }
    }

    /// State of line `line`.
    #[inline]
    pub fn get(&self, line: u64) -> PrivState {
        self.state[line as usize]
    }

    /// Sets line `line` to `s`.
    pub fn set(&mut self, line: u64, s: PrivState) {
        self.state[line as usize] = s;
    }

    /// Sets every line in `lines` to `s`.
    pub fn set_range(&mut self, lines: std::ops::Range<u64>, s: PrivState) {
        for l in lines {
            self.state[l as usize] = s;
        }
    }

    /// Lowers line `line` to at most `ceiling` (used by downgrade handling;
    /// never raises the state).
    pub fn downgrade(&mut self, line: u64, ceiling: PrivState) {
        let cur = self.get(line);
        if cur > ceiling {
            self.set(line, ceiling);
        }
    }

    /// Lowers every line in `lines` to at most `ceiling`.
    pub fn downgrade_range(&mut self, lines: std::ops::Range<u64>, ceiling: PrivState) {
        for l in lines {
            self.downgrade(l, ceiling);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_state_predicates() {
        assert!(!LineState::Invalid.readable());
        assert!(LineState::Shared.readable());
        assert!(!LineState::Shared.writable());
        assert!(LineState::Exclusive.writable());
        assert!(LineState::PendingRead.pending());
        assert!(LineState::PendingDgShared.downgrading());
        assert!(!LineState::Exclusive.pending());
    }

    #[test]
    fn priv_state_predicates_and_order() {
        assert!(PrivState::Shared.readable());
        assert!(!PrivState::Shared.writable());
        assert!(PrivState::Exclusive.writable());
        assert!(PrivState::Invalid < PrivState::Shared);
        assert!(PrivState::Shared < PrivState::Exclusive);
    }

    #[test]
    fn fresh_node_mem_is_flagged_invalid() {
        let m = NodeMem::new(4_096, 64);
        assert_eq!(m.line_state(0), LineState::Invalid);
        assert_eq!(m.longword(0), INVALID_FLAG);
        assert_eq!(m.longword(4_092), INVALID_FLAG);
    }

    #[test]
    fn map_to_extends_without_touching_what_is_mapped() {
        let mut m = NodeMem::new(0, 64);
        assert_eq!(m.mapped_bytes(), 0);
        m.map_to(100); // rounds up to a whole line
        assert_eq!(m.mapped_bytes(), 128);
        m.write_scalar(64, 8, 0x0102_0304_0506_0708);
        m.set_line_state(1, LineState::Exclusive);
        let before = m.clone();
        for end in [0, 1, 100, 128] {
            m.map_to(end); // inside the mapped image: nothing changes
            assert_eq!(m.mapped_bytes(), 128);
            assert_eq!(m.read(0, 128), before.read(0, 128));
        }
        m.map_to(129);
        assert_eq!(m.mapped_bytes(), 192);
        assert_eq!(m.read(0, 128), before.read(0, 128), "mapped bytes survive");
        assert_eq!(m.line_state(0), LineState::Invalid);
        assert_eq!(m.line_state(1), LineState::Exclusive, "mapped states survive");
        assert_eq!(m.line_state(2), LineState::Invalid);
        for a in (128..192).step_by(4) {
            assert_eq!(m.longword(a), INVALID_FLAG, "new range is flag-filled");
        }
        // Growing in steps and mapping at once give the same image.
        let whole = NodeMem::new(192, 64);
        let mut stepped = NodeMem::new(0, 64);
        for end in [64, 128, 192] {
            stepped.map_to(end);
        }
        assert_eq!(whole.read(0, 192), stepped.read(0, 192));
    }

    #[test]
    fn unmapped_longword_reads_as_the_flag_and_other_accesses_name_the_address() {
        let mut m = NodeMem::new(64, 64);
        m.write_scalar(60, 4, 7);
        assert_eq!(m.longword(60), 7);
        assert_eq!(m.longword(64), INVALID_FLAG);
        assert_eq!(m.longword(u64::MAX), INVALID_FLAG);
        let past = std::panic::catch_unwind(|| m.read_scalar(60, 8));
        let msg = *past.expect_err("read past the mapped end").downcast::<String>().unwrap();
        assert!(msg.contains("unallocated shared address 0x3c"), "{msg}");
    }

    #[test]
    fn priv_table_map_to_keeps_entries_and_never_shrinks() {
        let mut t = PrivTable::new(0);
        t.map_to(2);
        t.set(1, PrivState::Exclusive);
        t.map_to(1);
        t.map_to(4);
        assert_eq!(t.get(1), PrivState::Exclusive);
        assert_eq!(t.get(3), PrivState::Invalid);
    }

    #[test]
    fn scalar_roundtrip() {
        let mut m = NodeMem::new(4_096, 64);
        m.write_scalar(128, 8, 0x0102_0304_0506_0708);
        assert_eq!(m.read_scalar(128, 8), 0x0102_0304_0506_0708);
        m.write_scalar(200, 4, 0xAABB_CCDD);
        assert_eq!(m.read_scalar(200, 4), 0xAABB_CCDD);
        // Little-endian: low byte first.
        assert_eq!(m.read(200, 1)[0], 0xDD);
    }

    #[test]
    fn write_flags_covers_block() {
        let mut m = NodeMem::new(4_096, 64);
        m.write_scalar(256, 4, 7);
        m.write_scalar(316, 4, 9);
        m.write_flags(256, 64);
        assert_eq!(m.longword(256), INVALID_FLAG);
        assert_eq!(m.longword(316), INVALID_FLAG);
        // Neighbouring line untouched.
        m.write_scalar(320, 4, 5);
        m.write_flags(256, 64);
        assert_eq!(m.read_scalar(320, 4), 5);
    }

    #[test]
    fn longword_aligns_down() {
        let mut m = NodeMem::new(4_096, 64);
        m.write_scalar(64, 4, 0x1111_2222);
        assert_eq!(m.longword(66), 0x1111_2222);
    }

    #[test]
    fn priv_table_downgrade_never_raises() {
        let mut t = PrivTable::new(16);
        t.set(3, PrivState::Exclusive);
        t.downgrade(3, PrivState::Shared);
        assert_eq!(t.get(3), PrivState::Shared);
        t.downgrade(3, PrivState::Exclusive); // ceiling above current: no-op
        assert_eq!(t.get(3), PrivState::Shared);
        t.downgrade_range(0..16, PrivState::Invalid);
        assert_eq!(t.get(3), PrivState::Invalid);
    }

    #[test]
    fn set_lines_state_range() {
        let mut m = NodeMem::new(4_096, 64);
        m.set_lines_state(2..5, LineState::Exclusive);
        assert_eq!(m.line_state(1), LineState::Invalid);
        assert_eq!(m.line_state(2), LineState::Exclusive);
        assert_eq!(m.line_state(4), LineState::Exclusive);
        assert_eq!(m.line_state(5), LineState::Invalid);
    }
}
