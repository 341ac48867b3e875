//! Sharing-pattern profiler and per-allocation granularity advisor.
//!
//! The paper's variable coherence granularity (§2.1, Table 2, Figure 5) is
//! Shasta's main knob for trading false sharing against transfer
//! amortization, but the hint passed to `malloc` is normally picked by
//! guesswork. This module closes the loop: a [`ProfileAgg`] streams over the
//! event stream (fed at record time, like every streamed aggregator),
//! maintains a per-block [`BlockHistory`] — miss kind × hop count, downgrade
//! fan-out and direction, protocol-message bytes, inter-node writer
//! alternation, readers per write epoch, and per-node **subline occupancy
//! bitmaps** — and classifies each block's [`SharingPattern`].
//! Classifications roll up to the allocation **site labels** the application
//! passed to `malloc`, and [`ProfileAgg::advise`] emits one [`SiteReport`]
//! per site with a recommended block-size hint and the evidence behind it
//! (e.g. *"2 nodes touch disjoint sublines of each 256 B block — split to
//! 64 B"*).
//!
//! Histories are found the way the engine finds a directory entry: each
//! allocation keeps one slot per block, indexed directly by the block's
//! offset, that points into one table of block records kept in first-touch
//! order (a block outside every allocation goes on a short side list).
//! The table grows in chunks of 128 records that are never reallocated,
//! and a record keeps only what a block's events cannot derive: `u32`
//! counters, `u32` extents, and no block size (its allocation has it).
//! Reports sort that table by address when they are built, not per event.
//!
//! Each block history divides the block into [`SUBLINES`] equal sublines and
//! keeps one read bitmap and one write bitmap per **coherence node** — the
//! virtual protocol node, the unit that actually exchanges coherence
//! messages (every processor under Base-Shasta) — indexed directly by node
//! id, O(1) on the per-check-miss hot path. Bitmaps, not
//! `[lo, hi)` extents, decide false sharing: two nodes whose touched
//! sublines interleave but never coincide are false-shared even though
//! their byte extents overlap, and the split search can recommend any line
//! multiple (including non-powers-of-two) that puts every subline run under
//! a single node.
//!
//! The profiler is decoupled from `shasta-core`: the engine hands it a plain
//! [`SpaceMap`] snapshot (allocation extents, block sizes, labels, and the
//! processor → physical-node and → coherence-node mappings) when
//! observation is enabled.

use std::mem::size_of;
use std::ops::Deref;

use shasta_stats::{Hops, MissKind};

use crate::event::EventKind;

/// Number of occupancy sublines per block history (each bitmap is one
/// machine word).
pub const SUBLINES: u64 = 64;

/// Block records per chunk of the profiler's table. A chunk is allocated
/// whole when the one before it fills and is never reallocated, so the
/// table neither copies itself as it grows nor keeps a doubling `Vec`'s
/// empty half.
const CHUNK_RECORDS: usize = 128;

/// The `site` of a block outside every allocation.
const NO_SITE: u32 = u32::MAX;

/// The `last_writer` of a block no node has write-missed on yet.
const NO_WRITER: u32 = u32::MAX;

/// Adds `by` to one of a block's counters, panicking rather than wrapping
/// past `u32::MAX`.
fn bump(counter: &mut u32, by: u32) {
    *counter = counter.checked_add(by).expect("a block's profile counter passed u32::MAX");
}

/// Occupancy subline width in bytes of a `block_bytes` block.
fn subline_bytes(block_bytes: u64) -> u64 {
    block_bytes.div_ceil(SUBLINES).max(1)
}

/// Bitmap covering byte offsets `[lo, hi)` of a block of `subline`-byte
/// sublines.
fn subline_mask(subline: u64, lo: u64, hi: u64) -> u64 {
    let first = (lo / subline).min(SUBLINES - 1) as u32;
    let last = (hi.saturating_sub(1) / subline).min(SUBLINES - 1) as u32;
    let width = last - first + 1;
    if width >= 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << first
    }
}

/// Coherence node `node`'s bit in a node set.
fn node_bit(node: u32) -> u64 {
    1u64 << node.min(63)
}

/// One shared-space allocation as the profiler sees it: extent, coherence
/// granularity, and the caller-supplied site label.
#[derive(Clone, Copy, Debug)]
pub struct AllocSite {
    /// First byte of the allocation (block-aligned).
    pub start: u64,
    /// Extent in bytes (a multiple of `block_bytes`).
    pub len: u64,
    /// Coherence granularity in bytes.
    pub block_bytes: u64,
    /// The site label passed to `malloc` (e.g. `"bodies"`).
    pub label: &'static str,
}

/// Plain-data snapshot of the shared space and topology, taken when
/// observation is enabled (after application setup, so every allocation is
/// known). Keeps `shasta-obs` decoupled from `shasta-core`'s types.
#[derive(Clone, Debug, Default)]
pub struct SpaceMap {
    /// Line size in bytes — the lower bound for any granularity advice.
    pub line_bytes: u64,
    /// Physical SMP node of each processor (index = processor id). Governs
    /// message *locality* (remote vs hardware-local delivery).
    pub proc_phys_node: Vec<u32>,
    /// Coherence (virtual protocol) node of each processor. This is the
    /// unit the sharing profiler reasons in: under Base-Shasta every
    /// processor is its own coherence node even when several share an SMP
    /// box, so two same-box processors ping-ponging a block is real
    /// protocol traffic, not hardware sharing.
    pub proc_coh_node: Vec<u32>,
    /// Allocations sorted by start address.
    pub allocs: Vec<AllocSite>,
}

impl SpaceMap {
    /// Index into [`allocs`](Self::allocs) of the allocation containing
    /// `addr`, if any.
    pub fn site_index_of(&self, addr: u64) -> Option<usize> {
        let i = self.allocs.partition_point(|a| a.start <= addr).checked_sub(1)?;
        let a = self.allocs.get(i)?;
        (addr >= a.start && addr < a.start + a.len).then_some(i)
    }

    /// Block size of the allocation containing `addr`, if any.
    pub fn block_bytes_of(&self, addr: u64) -> Option<u64> {
        self.site_index_of(addr).map(|i| self.allocs[i].block_bytes)
    }

    /// Physical node of processor `p`.
    pub fn phys_node_of(&self, p: u32) -> u32 {
        self.proc_phys_node.get(p as usize).copied().unwrap_or(0)
    }

    /// Whether two processors share a physical SMP node.
    pub fn same_phys(&self, a: u32, b: u32) -> bool {
        self.phys_node_of(a) == self.phys_node_of(b)
    }

    /// Coherence (protocol) node of processor `p`. Falls back to the
    /// physical node for maps built before the field existed.
    pub fn coh_node_of(&self, p: u32) -> u32 {
        self.proc_coh_node.get(p as usize).copied().unwrap_or_else(|| self.phys_node_of(p))
    }

    /// One more than the largest node id [`coh_node_of`](Self::coh_node_of)
    /// can return (at least 1).
    fn node_count(&self) -> usize {
        let max = self.proc_coh_node.iter().chain(&self.proc_phys_node).copied().max();
        max.map_or(1, |n| n as usize + 1)
    }

    /// The block size the profiler gives a block of allocation `site`
    /// (`None`: of none, which gets the line size, at least 64 B).
    fn block_bytes_at(&self, site: Option<usize>) -> u64 {
        site.map_or(self.line_bytes.max(64), |s| self.allocs[s].block_bytes).max(1)
    }

    /// Heap bytes the snapshot's tables hold.
    pub(crate) fn held_bytes(&self) -> usize {
        (self.proc_phys_node.capacity() + self.proc_coh_node.capacity()) * size_of::<u32>()
            + self.allocs.capacity() * size_of::<AllocSite>()
    }
}

/// The sharing pattern a block's miss history exhibits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SharingPattern {
    /// Only one node ever touched the block after setup.
    Private,
    /// Multiple nodes read the block; writes are absent or negligible.
    ReadMostly,
    /// Ownership ping-pongs between nodes that each read and write the
    /// whole datum (overlapping sublines, few readers between writes).
    Migratory,
    /// A stable writer (or writers) produces values other nodes consume:
    /// write epochs are separated by reads from other nodes.
    ProducerConsumer,
    /// Different nodes touch **disjoint** sublines of the same block — the
    /// coherence traffic is an artifact of the granularity, not of the
    /// data (§2.1's motivation for smaller blocks).
    FalseShared,
}

impl SharingPattern {
    /// All patterns in report order.
    pub const ALL: [SharingPattern; 5] = [
        SharingPattern::Private,
        SharingPattern::ReadMostly,
        SharingPattern::Migratory,
        SharingPattern::ProducerConsumer,
        SharingPattern::FalseShared,
    ];

    /// Short stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SharingPattern::Private => "private",
            SharingPattern::ReadMostly => "read-mostly",
            SharingPattern::Migratory => "migratory",
            SharingPattern::ProducerConsumer => "prod-cons",
            SharingPattern::FalseShared => "false-shared",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&p| p == self).expect("pattern in ALL")
    }
}

/// One node's occupancy of a block: the exact byte extent it has
/// miss-faulted on plus [`SUBLINES`]-wide read/write bitmaps.
#[derive(Clone, Copy, Debug)]
pub struct NodeOcc {
    /// Lowest touched byte offset (`u32::MAX` while untouched).
    pub lo: u32,
    /// One past the highest touched byte offset.
    pub hi: u32,
    /// Bitmap of sublines this node has read-missed on.
    pub read_bits: u64,
    /// Bitmap of sublines this node has write-missed on.
    pub write_bits: u64,
}

impl NodeOcc {
    const UNTOUCHED: NodeOcc = NodeOcc { lo: u32::MAX, hi: 0, read_bits: 0, write_bits: 0 };

    /// Whether the node touched the block at all.
    pub fn touched(&self) -> bool {
        self.read_bits | self.write_bits != 0
    }

    /// Union of read and write sublines.
    pub fn bits(&self) -> u64 {
        self.read_bits | self.write_bits
    }
}

/// The counters the profiler keeps about one coherence block. Its per-node
/// occupancy lives in the profiler's table beside it, and its size in its
/// allocation; [`BlockProfile`] lends the three together. Each counter
/// panics rather than wraps past `u32::MAX`.
#[derive(Clone, Debug)]
pub struct BlockHistory {
    /// The block's first byte.
    block: u64,
    /// Index of the owning allocation in the [`SpaceMap`] ([`NO_SITE`] if
    /// the block start fell outside every known allocation).
    site: u32,
    /// Load-side protocol entries (read misses) on this block.
    pub read_misses: u32,
    /// Store-side protocol entries (write/upgrade misses) on this block;
    /// each opens a write epoch.
    pub write_misses: u32,
    /// Figure 6 matrix for this block: counts\[kind\]\[hops\].
    pub miss_hops: [[u32; 2]; 3],
    /// Downgrades of this block (SMP-Shasta).
    pub downgrades: u32,
    /// Downgrades that went all the way to invalid (exclusive→invalid); the
    /// rest were exclusive→shared.
    pub downgrades_to_invalid: u32,
    /// Pending downgrades resolved (one `downgrade-done` per completed
    /// downgrade, §3.4.3).
    pub downgrade_resolutions: u32,
    /// Total downgrade messages across those downgrades (fan-out).
    pub downgrade_msgs: u32,
    /// Protocol messages whose subject was this block (requests, replies,
    /// invalidations, downgrades — everything the engine sent over a
    /// channel).
    pub protocol_msgs: u32,
    /// Data replies among those messages: each carries the whole block,
    /// everything else is header-only ([`BlockProfile::protocol_bytes`]).
    pub replies: u32,
    /// Misses satisfied by a private-table upgrade (block already on node).
    pub private_upgrades: u32,
    /// Misses merged into an already-pending request.
    pub merged: u32,
    /// Times a write miss came from a different node than the previous one.
    pub writer_alternations: u32,
    last_writer: u32,
    epoch_reader_total: u32,
    epoch_readers: u64,
}

impl BlockHistory {
    fn new(site: Option<usize>, block: u64) -> Self {
        let site = site.map_or(NO_SITE, |s| u32::try_from(s).expect("fewer than 2^32 allocations"));
        BlockHistory {
            block,
            site,
            read_misses: 0,
            write_misses: 0,
            miss_hops: [[0; 2]; 3],
            downgrades: 0,
            downgrades_to_invalid: 0,
            downgrade_resolutions: 0,
            downgrade_msgs: 0,
            protocol_msgs: 0,
            replies: 0,
            private_upgrades: 0,
            merged: 0,
            writer_alternations: 0,
            last_writer: NO_WRITER,
            epoch_reader_total: 0,
            epoch_readers: 0,
        }
    }

    /// Index of the owning allocation in the [`SpaceMap`], if the block
    /// lies in one.
    pub fn site(&self) -> Option<usize> {
        (self.site != NO_SITE).then_some(self.site as usize)
    }

    /// Books a miss by coherence node `node` on `[off, off + len)` of a
    /// block of `subline`-byte sublines; `occ` is that node's occupancy.
    ///
    /// # Panics
    ///
    /// If the range ends past `u32::MAX` bytes into the block.
    fn note_miss(
        &mut self,
        occ: &mut NodeOcc,
        node: u32,
        off: u64,
        len: u64,
        subline: u64,
        write: bool,
    ) {
        let end = off.saturating_add(len.max(1));
        let (Ok(lo), Ok(hi)) = (u32::try_from(off), u32::try_from(end)) else {
            panic!("a miss of {len} bytes at offset {off} ends past u32::MAX bytes into its block");
        };
        let bits = subline_mask(subline, off, end);
        occ.lo = occ.lo.min(lo);
        occ.hi = occ.hi.max(hi);
        if write {
            occ.write_bits |= bits;
            bump(&mut self.write_misses, 1);
            if self.last_writer != NO_WRITER && self.last_writer != node {
                bump(&mut self.writer_alternations, 1);
            }
            self.last_writer = node;
            bump(&mut self.epoch_reader_total, self.epoch_readers.count_ones());
            self.epoch_readers = 0;
        } else {
            occ.read_bits |= bits;
            bump(&mut self.read_misses, 1);
            self.epoch_readers |= node_bit(node);
        }
    }

    /// Mean number of distinct reading nodes between consecutive writes
    /// (each write miss opens an epoch).
    pub fn readers_per_epoch(&self) -> f64 {
        if self.write_misses == 0 {
            0.0
        } else {
            f64::from(self.epoch_reader_total) / f64::from(self.write_misses)
        }
    }
}

/// One touched block as the profiler holds it: its [`BlockHistory`]
/// (reachable through `Deref`) with the per-node occupancy kept beside it
/// and the block size its allocation gives it.
#[derive(Clone, Copy, Debug)]
pub struct BlockProfile<'a> {
    history: &'a BlockHistory,
    /// Indexed by coherence node.
    occ: &'a [NodeOcc],
    block_bytes: u64,
}

impl Deref for BlockProfile<'_> {
    type Target = BlockHistory;

    fn deref(&self) -> &BlockHistory {
        self.history
    }
}

impl<'a> BlockProfile<'a> {
    /// Coherence-block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Occupancy subline width in bytes (`block_bytes / 64`, rounded up).
    pub fn subline_bytes(&self) -> u64 {
        subline_bytes(self.block_bytes)
    }

    /// Data-payload bytes the block's messages carried: a whole block per
    /// reply.
    pub fn protocol_bytes(&self) -> u64 {
        u64::from(self.replies) * self.block_bytes
    }

    /// The nodes that read-missed and the nodes that write-missed on the
    /// block, as node sets (bit `n` for node `n`, node 63 and above on bit
    /// 63).
    fn node_sets(&self) -> (u64, u64) {
        self.occupancy().fold((0, 0), |(readers, writers), (n, o)| {
            let bit = node_bit(n);
            (
                readers | if o.read_bits != 0 { bit } else { 0 },
                writers | if o.write_bits != 0 { bit } else { 0 },
            )
        })
    }

    /// Number of distinct nodes that write-missed on the block.
    pub fn distinct_writers(&self) -> u32 {
        self.node_sets().1.count_ones()
    }

    /// Number of distinct nodes that touched the block at all.
    pub fn distinct_nodes(&self) -> u32 {
        let (readers, writers) = self.node_sets();
        (readers | writers).count_ones()
    }

    /// Per-node occupancy for every node that touched the block, as
    /// `(node, occupancy)` pairs in node order.
    pub fn occupancy(&self) -> impl Iterator<Item = (u32, &'a NodeOcc)> {
        self.occ.iter().enumerate().filter(|(_, o)| o.touched()).map(|(n, o)| (n as u32, o))
    }

    /// Whether the per-node touched **byte extents** `[lo, hi)` are
    /// pairwise disjoint. Extents cannot see interleaving; classification
    /// uses [`occupancy_disjoint`](Self::occupancy_disjoint) instead.
    pub fn extents_disjoint(&self) -> bool {
        let mut spans: Vec<(u32, u32)> = self.occupancy().map(|(_, o)| (o.lo, o.hi)).collect();
        if spans.len() < 2 {
            return false;
        }
        spans.sort_unstable();
        spans.windows(2).all(|w| w[0].1 <= w[1].0)
    }

    /// Whether the per-node subline bitmaps are pairwise disjoint — the
    /// signature of false sharing (each node uses its own sublines of the
    /// block, yet the whole block bounces). Unlike byte extents, this
    /// recognizes interleaved-but-disjoint writers.
    pub fn occupancy_disjoint(&self) -> bool {
        let mut nodes = 0u32;
        let mut seen = 0u64;
        for (_, o) in self.occupancy() {
            let bits = o.bits();
            if seen & bits != 0 {
                return false;
            }
            seen |= bits;
            nodes += 1;
        }
        nodes >= 2
    }

    /// Bytes of the block actually touched by anyone, at subline
    /// resolution (union of all occupancy bitmaps).
    pub fn useful_bytes(&self) -> u64 {
        let union = self.occ.iter().fold(0u64, |u, o| u | o.bits());
        (u64::from(union.count_ones()) * self.subline_bytes()).min(self.block_bytes)
    }

    /// Whether splitting the block into `chunk`-byte pieces would leave
    /// every piece touched by at most one node (i.e. the split eliminates
    /// the sharing), judged at subline resolution.
    pub fn split_separates(&self, chunk: u64) -> bool {
        if chunk == 0 || chunk >= self.block_bytes {
            return false;
        }
        let mut lo = 0u64;
        while lo < self.block_bytes {
            let hi = (lo + chunk).min(self.block_bytes);
            let mask = subline_mask(self.subline_bytes(), lo, hi);
            let mut nodes = 0u32;
            for (_, o) in self.occupancy() {
                if o.bits() & mask != 0 {
                    nodes += 1;
                    if nodes > 1 {
                        return false;
                    }
                }
            }
            lo = hi;
        }
        true
    }

    /// Classifies the block's sharing pattern from its history.
    pub fn pattern(&self) -> SharingPattern {
        if self.distinct_nodes() <= 1 {
            return SharingPattern::Private;
        }
        if self.write_misses == 0 {
            return SharingPattern::ReadMostly;
        }
        if self.occupancy_disjoint() {
            return SharingPattern::FalseShared;
        }
        if u64::from(self.write_misses) * 20 <= u64::from(self.read_misses) {
            return SharingPattern::ReadMostly;
        }
        if self.distinct_writers() >= 2 && self.readers_per_epoch() <= 0.5 {
            return SharingPattern::Migratory;
        }
        SharingPattern::ProducerConsumer
    }
}

/// Granularity advice for one allocation site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Recommendation {
    /// The current block size looks right (or there is no evidence).
    Keep,
    /// Split to smaller blocks of the given size (false sharing dominates).
    Shrink(u64),
    /// Merge into larger blocks of the given size (read-mostly data paying
    /// per-block protocol overhead that larger transfers would amortize).
    Grow(u64),
}

impl Recommendation {
    /// The block-size hint to re-run with, if the advice is a change.
    pub fn hint_bytes(self) -> Option<u64> {
        match self {
            Recommendation::Keep => None,
            Recommendation::Shrink(n) | Recommendation::Grow(n) => Some(n),
        }
    }

    /// Human-readable rendering (`"keep"`, `"split to 64 B"`, …).
    pub fn describe(self) -> String {
        match self {
            Recommendation::Keep => "keep".to_string(),
            Recommendation::Shrink(n) => format!("split to {n} B"),
            Recommendation::Grow(n) => format!("grow to {n} B"),
        }
    }
}

/// The advisor's verdict for one allocation site.
#[derive(Clone, Debug)]
pub struct SiteReport {
    /// The site label passed to `malloc`.
    pub label: &'static str,
    /// The site's current coherence granularity in bytes.
    pub block_bytes: u64,
    /// Blocks of this site that saw any protocol activity.
    pub blocks_touched: u64,
    /// Blocks per sharing pattern, indexed like [`SharingPattern::ALL`].
    pub pattern_blocks: [u64; 5],
    /// Total read misses over the site's blocks.
    pub read_misses: u64,
    /// Total write misses over the site's blocks.
    pub write_misses: u64,
    /// Total block downgrades attributed to the site (SMP-Shasta).
    pub downgrades: u64,
    /// Downgrades that went exclusive→invalid (the rest went →shared).
    pub downgrades_to_invalid: u64,
    /// Pending downgrades resolved (`downgrade-done` events).
    pub downgrade_resolutions: u64,
    /// Downgrade messages sent across those downgrades.
    pub downgrade_msgs: u64,
    /// Protocol messages whose subject block belongs to the site.
    pub protocol_msgs: u64,
    /// Data-payload bytes those messages carried.
    pub protocol_bytes: u64,
    /// Bytes of the site's touched blocks anyone actually touched
    /// (subline-resolution union).
    pub useful_bytes: u64,
    /// The recommended granularity change.
    pub recommendation: Recommendation,
    /// One-line justification of the recommendation.
    pub evidence: String,
}

impl SiteReport {
    /// The most common sharing pattern among the site's touched blocks
    /// (`Private` when nothing was touched).
    pub fn dominant(&self) -> SharingPattern {
        let mut best = SharingPattern::Private;
        let mut best_n = 0;
        for p in SharingPattern::ALL {
            let n = self.pattern_blocks[p.index()];
            if n > best_n {
                best = p;
                best_n = n;
            }
        }
        best
    }

    /// Mean downgrade messages per downgrade (Figure 8's per-site analogue;
    /// 0 when the site saw no downgrades).
    pub fn downgrade_fanout(&self) -> f64 {
        if self.downgrades == 0 {
            0.0
        } else {
            self.downgrade_msgs as f64 / self.downgrades as f64
        }
    }

    /// Payload bytes moved per byte anyone touched — the transfer-waste
    /// ratio the advisor weighs against miss counts (0 when nothing was
    /// touched or no payload moved).
    pub fn bytes_per_useful_byte(&self) -> f64 {
        if self.useful_bytes == 0 {
            0.0
        } else {
            self.protocol_bytes as f64 / self.useful_bytes as f64
        }
    }
}

/// Streaming sharing-pattern aggregator. Fed every recorded event at record
/// time, like every streamed aggregator, so its histories cover the whole
/// run.
#[derive(Clone)]
pub struct ProfileAgg {
    map: SpaceMap,
    /// Per allocation, one slot per block in address order: 1 + the block's
    /// index in the table, or 0 while the block is untouched.
    slots: Vec<Vec<u32>>,
    /// The table: every touched block's history, in first-touch order, in
    /// chunks of [`CHUNK_RECORDS`].
    hist: Vec<Vec<BlockHistory>>,
    /// `nodes` occupancy entries per history, in chunks that match `hist`'s.
    occ: Vec<Vec<NodeOcc>>,
    /// Coherence nodes the map can name: the stride of `occ`.
    nodes: usize,
    /// Touched blocks no allocation's slot table holds (outside every
    /// allocation, or off its block grid), with their table index.
    stray: Vec<(u64, u32)>,
}

/// A profiler over an empty space.
impl Default for ProfileAgg {
    fn default() -> Self {
        ProfileAgg::new(SpaceMap::default())
    }
}

/// The touched blocks in address order, not the slot tables.
impl std::fmt::Debug for ProfileAgg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let blocks: Vec<_> = self.blocks().collect();
        f.debug_struct("ProfileAgg").field("map", &self.map).field("blocks", &blocks).finish()
    }
}

/// Transfer-waste ratio above which the advisor treats a split as justified
/// even without a false-shared majority (payload bytes ≥ 8× touched bytes).
const WASTE_SPLIT_RATIO: f64 = 8.0;

impl ProfileAgg {
    /// A profiler over the given space snapshot. Each allocation's slot
    /// table is zeroed memory, so its pages are touched only where blocks
    /// are.
    pub fn new(map: SpaceMap) -> Self {
        let slots =
            map.allocs.iter().map(|a| vec![0; a.len.div_ceil(a.block_bytes.max(1)) as usize]);
        ProfileAgg {
            slots: slots.collect(),
            hist: Vec::new(),
            occ: Vec::new(),
            nodes: map.node_count(),
            stray: Vec::new(),
            map,
        }
    }

    /// The space snapshot this profiler classifies against.
    pub fn map(&self) -> &SpaceMap {
        &self.map
    }

    /// Feeds one event from processor `p` into the per-block histories.
    ///
    /// # Panics
    ///
    /// If one of the block's counters would pass `u32::MAX`, or a miss
    /// would end past `u32::MAX` bytes into its block.
    pub fn observe(&mut self, p: u32, kind: &EventKind) {
        match *kind {
            EventKind::CheckMiss { block, addr, len, write, .. } => {
                let node = self.map.coh_node_of(p);
                let site = self.map.site_index_of(block);
                let subline = subline_bytes(self.map.block_bytes_at(site));
                let i = self.entry(site, block);
                let (h, occ) = self.record_mut(i);
                let off = addr.saturating_sub(block);
                h.note_miss(&mut occ[node as usize], node, off, u64::from(len), subline, write);
            }
            EventKind::MissResolved { block, kind, hops } => {
                let k = MissKind::ALL.iter().position(|&x| x == kind).expect("kind in ALL");
                let h = Hops::ALL.iter().position(|&x| x == hops).expect("hops in ALL");
                bump(&mut self.touch(block).miss_hops[k][h], 1);
            }
            EventKind::PrivateUpgrade { block } => bump(&mut self.touch(block).private_upgrades, 1),
            EventKind::MissMerged { block } => bump(&mut self.touch(block).merged, 1),
            EventKind::DowngradeStart { block, to_invalid, targets } => {
                let h = self.touch(block);
                bump(&mut h.downgrades, 1);
                bump(&mut h.downgrades_to_invalid, u32::from(to_invalid));
                bump(&mut h.downgrade_msgs, targets);
            }
            EventKind::DowngradeDone { block, .. } => {
                bump(&mut self.touch(block).downgrade_resolutions, 1);
            }
            EventKind::MsgSend { msg, block, .. } => {
                // Attribute only messages about known allocations — sync
                // traffic (locks, barriers) has no site to charge.
                if let Some(site) = self.map.site_index_of(block) {
                    let reply = msg == "read-reply" || msg == "write-reply";
                    let i = self.entry(Some(site), block);
                    let h = self.record_mut(i).0;
                    bump(&mut h.protocol_msgs, 1);
                    bump(&mut h.replies, u32::from(reply));
                }
            }
            _ => {}
        }
    }

    /// The history of `block`, created on first touch.
    fn touch(&mut self, block: u64) -> &mut BlockHistory {
        let i = self.entry(self.map.site_index_of(block), block);
        self.record_mut(i).0
    }

    /// Table index of `block`, which lies in allocation `site` (`None`: in
    /// none), creating its record on first touch.
    fn entry(&mut self, site: Option<usize>, block: u64) -> usize {
        let slot = self.slot_of(site, block);
        if let Some(i) = self.stored(slot, block) {
            return i as usize;
        }
        let i = u32::try_from(self.touched()).expect("fewer than 2^32 touched blocks");
        if self.hist.last().is_none_or(|chunk| chunk.len() == CHUNK_RECORDS) {
            self.hist.push(Vec::with_capacity(CHUNK_RECORDS));
            self.occ.push(Vec::with_capacity(CHUNK_RECORDS * self.nodes));
        }
        let last = self.hist.len() - 1;
        self.hist[last].push(BlockHistory::new(site, block));
        let occ = &mut self.occ[last];
        occ.resize(occ.len() + self.nodes, NodeOcc::UNTOUCHED);
        match slot {
            Some((s, k)) => self.slots[s][k] = i + 1,
            None => self.stray.push((block, i)),
        }
        i as usize
    }

    /// `(site, slot)` of `block`, which lies in allocation `site`, in that
    /// allocation's slot table; `None` (the side list) when it lies in no
    /// allocation or off its block grid.
    fn slot_of(&self, site: Option<usize>, block: u64) -> Option<(usize, usize)> {
        let s = site?;
        let a = &self.map.allocs[s];
        let (off, bb) = (block - a.start, a.block_bytes.max(1));
        off.is_multiple_of(bb).then(|| (s, (off / bb) as usize))
    }

    /// The table index kept for `block` at `slot` (or on the side list).
    fn stored(&self, slot: Option<(usize, usize)>, block: u64) -> Option<u32> {
        match slot {
            Some((s, k)) => self.slots[s][k].checked_sub(1),
            None => self.stray.iter().find(|&&(b, _)| b == block).map(|&(_, i)| i),
        }
    }

    /// The record at table index `i`: its history and occupancy.
    fn record_mut(&mut self, i: usize) -> (&mut BlockHistory, &mut [NodeOcc]) {
        let (chunk, k) = (i / CHUNK_RECORDS, i % CHUNK_RECORDS);
        (&mut self.hist[chunk][k], &mut self.occ[chunk][k * self.nodes..][..self.nodes])
    }

    /// The block at table index `i`, with its occupancy and block size.
    fn profile_at(&self, i: usize) -> (u64, BlockProfile<'_>) {
        let (chunk, k) = (i / CHUNK_RECORDS, i % CHUNK_RECORDS);
        let history = &self.hist[chunk][k];
        let block_bytes = self.map.block_bytes_at(history.site());
        let occ = &self.occ[chunk][k * self.nodes..][..self.nodes];
        (history.block, BlockProfile { history, occ, block_bytes })
    }

    /// History of the block starting at `start`, if it saw any activity.
    pub fn block(&self, start: u64) -> Option<BlockProfile<'_>> {
        let slot = self.slot_of(self.map.site_index_of(start), start);
        self.stored(slot, start).map(|i| self.profile_at(i as usize).1)
    }

    /// All touched blocks with their histories, in address order (sorted
    /// here, on each call).
    pub fn blocks(&self) -> impl Iterator<Item = (u64, BlockProfile<'_>)> {
        let mut order: Vec<(u64, usize)> =
            self.hist.iter().flatten().enumerate().map(|(i, h)| (h.block, i)).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, i)| self.profile_at(i))
    }

    /// Number of blocks that saw any protocol activity.
    pub fn touched(&self) -> usize {
        let full = self.hist.len().saturating_sub(1) * CHUNK_RECORDS;
        full + self.hist.last().map_or(0, Vec::len)
    }

    /// Bytes one touched block's record takes in the table: its history
    /// and one occupancy entry per coherence node.
    pub fn record_bytes(&self) -> usize {
        size_of::<BlockHistory>() + self.nodes * size_of::<NodeOcc>()
    }

    /// Heap bytes the profiler holds: the space snapshot, the slot tables,
    /// the side list and every table chunk, each counted whole.
    pub fn held_bytes(&self) -> usize {
        let slots: usize = self.slots.iter().map(|s| s.capacity() * size_of::<u32>()).sum();
        let hist: usize = self.hist.iter().map(|c| c.capacity() * size_of::<BlockHistory>()).sum();
        let occ: usize = self.occ.iter().map(|c| c.capacity() * size_of::<NodeOcc>()).sum();
        let lists = (self.slots.capacity() + self.hist.capacity() + self.occ.capacity())
            * size_of::<Vec<u32>>()
            + self.stray.capacity() * size_of::<(u64, u32)>();
        self.map.held_bytes() + slots + hist + occ + lists
    }

    /// Largest chunk size (a line multiple below the block size) that
    /// separates the sharers of **every** block `keep` selects, or `None`
    /// when no line-multiple split does.
    fn split_candidate(
        &self,
        a: &AllocSite,
        blocks: &[(u64, BlockProfile<'_>)],
        keep: impl Fn(&BlockProfile<'_>) -> bool,
    ) -> Option<u64> {
        let line = self.map.line_bytes.max(1);
        let mut chunk = (a.block_bytes / line).saturating_sub(1) * line;
        while chunk >= line {
            if blocks.iter().filter(|(_, h)| keep(h)).all(|(_, h)| h.split_separates(chunk)) {
                return Some(chunk);
            }
            chunk -= line;
        }
        None
    }

    /// Largest merge factor `k ≥ 2` (capped so the merged block stays ≤
    /// `cap` bytes) for which merging `k` adjacent blocks never introduces
    /// a new sharer: every `k`-aligned group's union of touching (and
    /// writing) nodes is no larger than its largest constituent's. Returns
    /// `None` when every candidate would create sharing.
    fn grow_candidate(
        &self,
        a: &AllocSite,
        blocks: &[(u64, BlockProfile<'_>)],
        cap: u64,
    ) -> Option<u64> {
        let max_k = (cap / a.block_bytes).min(a.len / a.block_bytes);
        (2..=max_k).rev().find(|&k| self.grow_harmless(a, blocks, k))
    }

    fn grow_harmless(&self, a: &AllocSite, blocks: &[(u64, BlockProfile<'_>)], k: u64) -> bool {
        let merged = a.block_bytes * k;
        let mut group = u64::MAX;
        let (mut un, mut uw) = (0u64, 0u64);
        let (mut mn, mut mw) = (0u32, 0u32);
        let ok =
            |un: u64, uw: u64, mn: u32, mw: u32| un.count_ones() <= mn && uw.count_ones() <= mw;
        for &(addr, h) in blocks {
            let g = addr.saturating_sub(a.start) / merged;
            if g != group {
                if group != u64::MAX && !ok(un, uw, mn, mw) {
                    return false;
                }
                group = g;
                (un, uw, mn, mw) = (0, 0, 0, 0);
            }
            let (readers, writers) = h.node_sets();
            un |= readers | writers;
            uw |= writers;
            mn = mn.max((readers | writers).count_ones());
            mw = mw.max(writers.count_ones());
        }
        group == u64::MAX || ok(un, uw, mn, mw)
    }

    /// Rolls block classifications up to allocation sites and emits one
    /// granularity-advisor report per site (in allocation order).
    ///
    /// The advisor weighs three kinds of evidence: sharing patterns (a
    /// false-shared majority triggers the split search), downgrade fan-out
    /// (reported per site, Figure 8's per-allocation analogue), and the
    /// transfer-waste ratio [`SiteReport::bytes_per_useful_byte`] (payload
    /// bytes moved per touched byte — a high ratio justifies a split even
    /// without a strict false-shared majority; a grow is only recommended
    /// when merging provably adds no sharers).
    pub fn advise(&self) -> Vec<SiteReport> {
        let mut by_site = vec![Vec::new(); self.map.allocs.len()];
        for (b, h) in self.blocks() {
            if let Some(blocks) = h.site().and_then(|s| by_site.get_mut(s)) {
                blocks.push((b, h));
            }
        }
        self.map
            .allocs
            .iter()
            .zip(&by_site)
            .map(|(a, blocks)| self.advise_site(a, blocks))
            .collect()
    }

    fn advise_site(&self, a: &AllocSite, blocks: &[(u64, BlockProfile<'_>)]) -> SiteReport {
        let mut report = SiteReport {
            label: a.label,
            block_bytes: a.block_bytes,
            blocks_touched: blocks.len() as u64,
            pattern_blocks: [0; 5],
            read_misses: 0,
            write_misses: 0,
            downgrades: 0,
            downgrades_to_invalid: 0,
            downgrade_resolutions: 0,
            downgrade_msgs: 0,
            protocol_msgs: 0,
            protocol_bytes: 0,
            useful_bytes: 0,
            recommendation: Recommendation::Keep,
            evidence: String::new(),
        };
        let mut fs_nodes = 0u32;
        for (_, h) in blocks {
            report.read_misses += u64::from(h.read_misses);
            report.write_misses += u64::from(h.write_misses);
            report.downgrades += u64::from(h.downgrades);
            report.downgrades_to_invalid += u64::from(h.downgrades_to_invalid);
            report.downgrade_resolutions += u64::from(h.downgrade_resolutions);
            report.downgrade_msgs += u64::from(h.downgrade_msgs);
            report.protocol_msgs += u64::from(h.protocol_msgs);
            report.protocol_bytes += h.protocol_bytes();
            report.useful_bytes += h.useful_bytes();
            let p = h.pattern();
            report.pattern_blocks[p.index()] += 1;
            if p == SharingPattern::FalseShared {
                fs_nodes = fs_nodes.max(h.distinct_nodes());
            }
        }
        let touched = report.blocks_touched;
        let fs = report.pattern_blocks[SharingPattern::FalseShared.index()];
        let waste = report.bytes_per_useful_byte();
        let fanout = report.downgrade_fanout();
        let fan_note = if report.downgrades > 0 {
            format!("; downgrade fan-out {fanout:.1} over {} downgrades", report.downgrades)
        } else {
            String::new()
        };
        if touched == 0 {
            report.evidence = "no protocol activity".to_string();
            return report;
        }
        if fs > 0 && fs * 2 >= touched {
            let is_fs = |h: &BlockProfile<'_>| h.pattern() == SharingPattern::FalseShared;
            match self.split_candidate(a, blocks, is_fs) {
                Some(rec) => {
                    report.recommendation = Recommendation::Shrink(rec);
                    report.evidence = format!(
                        "{fs_nodes} nodes touch disjoint sublines of each {} B block — \
                         split to {rec} B{fan_note}",
                        a.block_bytes
                    );
                }
                None => {
                    report.evidence = format!(
                        "false sharing detected (disjoint sublines) but no line-multiple \
                         split of the {} B block separates the sharers{fan_note}",
                        a.block_bytes
                    );
                }
            }
            return report;
        }
        let multi_node = blocks.iter().any(|(_, h)| h.distinct_nodes() >= 2);
        if multi_node && waste >= WASTE_SPLIT_RATIO {
            if let Some(rec) = self.split_candidate(a, blocks, |_| true) {
                report.recommendation = Recommendation::Shrink(rec);
                report.evidence = format!(
                    "{waste:.1} payload bytes moved per touched byte and a {rec} B split \
                     separates all sharers{fan_note}"
                );
                return report;
            }
        }
        let dominant = report.dominant();
        let growable = matches!(
            dominant,
            SharingPattern::ReadMostly | SharingPattern::ProducerConsumer | SharingPattern::Private
        );
        if growable && touched >= 4 && a.block_bytes < 2_048 {
            if let Some(k) = self.grow_candidate(a, blocks, 2_048) {
                let rec = a.block_bytes * k;
                report.recommendation = Recommendation::Grow(rec);
                report.evidence = format!(
                    "{} across {touched} blocks with uniform sharers over {k}-block runs — \
                     merging to {rec} B amortizes per-block protocol overhead{fan_note}",
                    dominant.label()
                );
                return report;
            }
        }
        report.evidence =
            format!("dominant pattern {}; granularity left alone{fan_note}", dominant.label());
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_one_alloc(block_bytes: u64) -> SpaceMap {
        SpaceMap {
            line_bytes: 64,
            // 4 processors, 2 per node.
            proc_phys_node: vec![0, 0, 1, 1],
            proc_coh_node: vec![0, 0, 1, 1],
            allocs: vec![AllocSite { start: 0x1000, len: 4_096, block_bytes, label: "arr" }],
        }
    }

    fn miss(agg: &mut ProfileAgg, p: u32, block: u64, off: u64, write: bool) {
        agg.observe(p, &EventKind::CheckMiss { id: 0, block, addr: block + off, len: 8, write });
    }

    #[test]
    fn disjoint_writers_classify_as_false_shared_and_advise_split() {
        let mut agg = ProfileAgg::new(map_one_alloc(256));
        for round in 0..8 {
            for b in (0x1000..0x1400).step_by(256) {
                // Node 0 writes the low half, node 1 the high half.
                miss(&mut agg, 0, b, (round % 4) * 8, true);
                miss(&mut agg, 2, b, 128 + (round % 4) * 8, true);
            }
        }
        let h = agg.block(0x1000).unwrap();
        assert_eq!(h.pattern(), SharingPattern::FalseShared);
        assert!(h.extents_disjoint());
        assert!(h.occupancy_disjoint());
        assert!(h.writer_alternations > 0);
        let reports = agg.advise();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.dominant(), SharingPattern::FalseShared);
        match r.recommendation {
            Recommendation::Shrink(n) => assert!((64..256).contains(&n), "got {n}"),
            other => panic!("expected Shrink, got {other:?}"),
        }
        assert!(r.evidence.contains("disjoint"), "evidence: {}", r.evidence);
    }

    #[test]
    fn interleaved_disjoint_writers_are_false_shared_despite_overlapping_extents() {
        // 512 B block, line-sized stripes: node 0 owns stripes 0/2/4/6,
        // node 1 owns stripes 1/3/5/7. Byte extents overlap almost fully,
        // but the subline bitmaps are disjoint.
        let mut agg = ProfileAgg::new(map_one_alloc(512));
        for round in 0..4 {
            for stripe in 0..8u64 {
                let p = if stripe % 2 == 0 { 0 } else { 2 };
                miss(&mut agg, p, 0x1000, stripe * 64 + (round % 4) * 8, true);
            }
        }
        let h = agg.block(0x1000).unwrap();
        assert!(!h.extents_disjoint(), "extents overlap by construction");
        assert!(h.occupancy_disjoint(), "bitmaps separate the stripes");
        assert_eq!(h.pattern(), SharingPattern::FalseShared);
        let r = &agg.advise()[0];
        assert_eq!(r.recommendation, Recommendation::Shrink(64));
        assert!(r.evidence.contains("disjoint"));
    }

    #[test]
    fn non_power_of_two_stripes_get_non_power_of_two_split() {
        // 768 B block in 192 B stripes alternating between nodes: only a
        // 192 B (non-power-of-two) split separates them.
        let mut agg = ProfileAgg::new(map_one_alloc(768));
        for round in 0..4 {
            for stripe in 0..4u64 {
                let p = if stripe % 2 == 0 { 0 } else { 2 };
                miss(&mut agg, p, 0x1000, stripe * 192 + (round % 4) * 8, true);
                miss(&mut agg, p, 0x1000, stripe * 192 + 184 - (round % 4) * 8, true);
            }
        }
        let h = agg.block(0x1000).unwrap();
        assert_eq!(h.pattern(), SharingPattern::FalseShared);
        assert!(h.split_separates(192));
        assert!(!h.split_separates(256));
        let r = &agg.advise()[0];
        assert_eq!(r.recommendation, Recommendation::Shrink(192));
    }

    #[test]
    fn alternating_whole_block_writers_are_migratory() {
        let mut agg = ProfileAgg::new(map_one_alloc(256));
        for round in 0..6 {
            let p = if round % 2 == 0 { 0 } else { 2 };
            // Both nodes touch the same full range: overlapping sublines.
            miss(&mut agg, p, 0x1000, 0, true);
            miss(&mut agg, p, 0x1000, 200, true);
        }
        assert_eq!(agg.block(0x1000).unwrap().pattern(), SharingPattern::Migratory);
    }

    #[test]
    fn stable_writer_with_remote_readers_is_producer_consumer() {
        let mut agg = ProfileAgg::new(map_one_alloc(256));
        for _ in 0..5 {
            miss(&mut agg, 0, 0x1000, 0, true);
            miss(&mut agg, 2, 0x1000, 0, false);
            miss(&mut agg, 3, 0x1000, 8, false);
        }
        let h = agg.block(0x1000).unwrap();
        assert_eq!(h.pattern(), SharingPattern::ProducerConsumer);
        assert!(h.readers_per_epoch() >= 0.5);
    }

    #[test]
    fn reads_only_are_read_mostly_and_single_node_is_private() {
        let mut agg = ProfileAgg::new(map_one_alloc(256));
        miss(&mut agg, 0, 0x1000, 0, false);
        miss(&mut agg, 2, 0x1000, 0, false);
        assert_eq!(agg.block(0x1000).unwrap().pattern(), SharingPattern::ReadMostly);
        miss(&mut agg, 1, 0x1100, 0, true);
        miss(&mut agg, 0, 0x1100, 8, false);
        assert_eq!(agg.block(0x1100).unwrap().pattern(), SharingPattern::Private);
    }

    #[test]
    fn read_mostly_sites_get_grow_advice() {
        let mut agg = ProfileAgg::new(map_one_alloc(64));
        for b in (0x1000..0x1100).step_by(64) {
            miss(&mut agg, 0, b, 0, false);
            miss(&mut agg, 2, b, 8, false);
        }
        let r = &agg.advise()[0];
        assert_eq!(r.dominant(), SharingPattern::ReadMostly);
        assert!(matches!(r.recommendation, Recommendation::Grow(n) if n > 64));
    }

    #[test]
    fn grow_stops_where_merging_would_add_sharers() {
        // Two runs of 2 contiguous 64 B blocks each owned by a different
        // node: merging by 2 is harmless, merging by 4 would fuse the two
        // owners into one shared block.
        let mut agg = ProfileAgg::new(map_one_alloc(64));
        for (b, p) in [(0x1000u64, 0u32), (0x1040, 0), (0x1080, 2), (0x10c0, 2)] {
            miss(&mut agg, p, b, 0, true);
            miss(&mut agg, p, b, 8, false);
        }
        let r = &agg.advise()[0];
        assert_eq!(r.dominant(), SharingPattern::Private);
        assert_eq!(r.recommendation, Recommendation::Grow(128), "evidence: {}", r.evidence);
    }

    #[test]
    fn miss_matrix_and_downgrades_accumulate_per_block() {
        let mut agg = ProfileAgg::new(map_one_alloc(256));
        agg.observe(
            0,
            &EventKind::MissResolved { block: 0x1000, kind: MissKind::Read, hops: Hops::Three },
        );
        agg.observe(1, &EventKind::DowngradeStart { block: 0x1000, to_invalid: true, targets: 3 });
        agg.observe(1, &EventKind::DowngradeStart { block: 0x1000, to_invalid: false, targets: 1 });
        let action = crate::DowngradeAction::InvAck { ack_to: 0 };
        agg.observe(1, &EventKind::DowngradeDone { block: 0x1000, action });
        agg.observe(1, &EventKind::PrivateUpgrade { block: 0x1000 });
        agg.observe(1, &EventKind::MissMerged { block: 0x1000 });
        let h = agg.block(0x1000).unwrap();
        assert_eq!(h.miss_hops[0][1], 1);
        assert_eq!((h.downgrades, h.downgrade_msgs), (2, 4));
        assert_eq!(h.downgrades_to_invalid, 1);
        assert_eq!(h.downgrade_resolutions, 1);
        assert_eq!((h.private_upgrades, h.merged), (1, 1));
        let r = &agg.advise()[0];
        assert_eq!((r.downgrades, r.downgrade_msgs, r.downgrades_to_invalid), (2, 4, 1));
        assert_eq!(r.downgrade_resolutions, 1);
        assert!((r.downgrade_fanout() - 2.0).abs() < 1e-9);
        assert!(r.evidence.contains("fan-out"), "evidence: {}", r.evidence);
    }

    #[test]
    fn message_bytes_attribute_to_sites_and_sync_traffic_is_skipped() {
        let mut agg = ProfileAgg::new(map_one_alloc(256));
        miss(&mut agg, 0, 0x1000, 0, false);
        agg.observe(0, &EventKind::MsgSend { msg: "read-req", peer: 2, block: 0x1000 });
        agg.observe(2, &EventKind::MsgSend { msg: "read-reply", peer: 0, block: 0x1000 });
        agg.observe(0, &EventKind::MsgSend { msg: "barrier-arrive", peer: 2, block: 0 });
        let h = agg.block(0x1000).unwrap();
        assert_eq!((h.protocol_msgs, h.protocol_bytes()), (2, 256));
        assert!(agg.block(0).is_none(), "sync traffic must not create histories");
        let r = &agg.advise()[0];
        assert_eq!((r.protocol_msgs, r.protocol_bytes), (2, 256));
        // One 8-byte touch rounds up to one 4 B subline... subline is 4 B
        // for a 256 B block, so an 8-byte span covers 2-3 sublines.
        assert!(r.useful_bytes >= 8 && r.useful_bytes <= 16, "useful {}", r.useful_bytes);
        assert!(r.bytes_per_useful_byte() > 8.0);
    }

    #[test]
    fn waste_ratio_triggers_split_without_false_shared_majority() {
        // Two nodes read disjoint halves of a 512 B block (read-only, so it
        // classifies read-mostly, not false-shared), each full-block reply
        // hauling mostly untouched bytes: the waste ratio plus a separating
        // split recommends shrinking.
        let mut agg = ProfileAgg::new(map_one_alloc(512));
        let b = 0x1000u64;
        miss(&mut agg, 0, b, 0, false);
        miss(&mut agg, 2, b, 256, false);
        for _ in 0..20 {
            agg.observe(0, &EventKind::MsgSend { msg: "read-reply", peer: 2, block: b });
        }
        let r = &agg.advise()[0];
        assert_eq!(r.dominant(), SharingPattern::ReadMostly);
        assert!(r.bytes_per_useful_byte() >= WASTE_SPLIT_RATIO);
        assert_eq!(r.recommendation, Recommendation::Shrink(256), "evidence: {}", r.evidence);
    }

    #[test]
    fn untouched_sites_report_no_activity() {
        let agg = ProfileAgg::new(map_one_alloc(256));
        let r = &agg.advise()[0];
        assert_eq!(r.blocks_touched, 0);
        assert_eq!(r.recommendation, Recommendation::Keep);
        assert_eq!(r.evidence, "no protocol activity");
    }

    #[test]
    fn space_map_lookups() {
        let m = map_one_alloc(256);
        assert_eq!(m.site_index_of(0x1000), Some(0));
        assert_eq!(m.site_index_of(0x1fff), Some(0));
        assert_eq!(m.site_index_of(0x2000), None);
        assert_eq!(m.block_bytes_of(0x1234), Some(256));
        assert!(m.same_phys(0, 1));
        assert!(!m.same_phys(1, 2));
    }

    fn map_one_block(block_bytes: u64) -> SpaceMap {
        SpaceMap {
            line_bytes: 64,
            proc_phys_node: vec![0, 0, 1, 1],
            proc_coh_node: vec![0, 0, 1, 1],
            allocs: vec![AllocSite { start: 0x1000, len: block_bytes, block_bytes, label: "arr" }],
        }
    }

    /// The profiler as a tree keyed by block address: every history in one
    /// `BTreeMap`, each block's occupancy grown to the largest node that
    /// touched it. The model the direct-indexed tables must agree with.
    #[derive(Default)]
    struct TreeModel {
        blocks: std::collections::BTreeMap<u64, (BlockHistory, Vec<NodeOcc>)>,
    }

    impl TreeModel {
        fn touch(&mut self, map: &SpaceMap, block: u64) -> &mut (BlockHistory, Vec<NodeOcc>) {
            let site = map.site_index_of(block);
            self.blocks.entry(block).or_insert_with(|| (BlockHistory::new(site, block), Vec::new()))
        }

        fn observe(&mut self, map: &SpaceMap, p: u32, kind: &EventKind) {
            match *kind {
                EventKind::CheckMiss { block, addr, len, write, .. } => {
                    let node = map.coh_node_of(p);
                    let subline = subline_bytes(map.block_bytes_at(map.site_index_of(block)));
                    let (h, occ) = self.touch(map, block);
                    if occ.len() <= node as usize {
                        occ.resize(node as usize + 1, NodeOcc::UNTOUCHED);
                    }
                    let (off, len) = (addr.saturating_sub(block), u64::from(len));
                    h.note_miss(&mut occ[node as usize], node, off, len, subline, write);
                }
                EventKind::MissResolved { block, kind, hops } => {
                    let k = MissKind::ALL.iter().position(|&x| x == kind).unwrap();
                    let h = Hops::ALL.iter().position(|&x| x == hops).unwrap();
                    self.touch(map, block).0.miss_hops[k][h] += 1;
                }
                EventKind::PrivateUpgrade { block } => {
                    self.touch(map, block).0.private_upgrades += 1
                }
                EventKind::MissMerged { block } => self.touch(map, block).0.merged += 1,
                EventKind::DowngradeStart { block, to_invalid, targets } => {
                    let h = &mut self.touch(map, block).0;
                    h.downgrades += 1;
                    h.downgrades_to_invalid += u32::from(to_invalid);
                    h.downgrade_msgs += targets;
                }
                EventKind::DowngradeDone { block, .. } => {
                    self.touch(map, block).0.downgrade_resolutions += 1;
                }
                EventKind::MsgSend { msg, block, .. } if map.site_index_of(block).is_some() => {
                    let h = &mut self.touch(map, block).0;
                    h.protocol_msgs += 1;
                    h.replies += u32::from(msg == "read-reply" || msg == "write-reply");
                }
                _ => {}
            }
        }

        fn view<'a>(&'a self, map: &SpaceMap, block: u64) -> Option<BlockProfile<'a>> {
            self.blocks.get(&block).map(|(history, occ)| {
                let block_bytes = map.block_bytes_at(history.site());
                BlockProfile { history, occ, block_bytes }
            })
        }

        /// Every site's report, from the tree's blocks in address order.
        fn advise(&self, agg: &ProfileAgg) -> Vec<SiteReport> {
            let map = agg.map();
            let site = |i| {
                let views = self.blocks.keys().map(|&b| (b, self.view(map, b).unwrap()));
                views.filter(|(_, h)| h.site() == Some(i)).collect::<Vec<_>>()
            };
            map.allocs.iter().enumerate().map(|(i, a)| agg.advise_site(a, &site(i))).collect()
        }
    }

    /// A block's history and the nodes that touched it, as text.
    fn shown(h: Option<BlockProfile<'_>>) -> String {
        h.map_or("untouched".into(), |h| {
            format!("{:?} {} B {:?}", *h, h.block_bytes(), h.occupancy().collect::<Vec<_>>())
        })
    }

    /// Allocations from `(gap lines, block-size choice, blocks)` triples,
    /// laid out upwards from 0x1000 (so block 0 lies outside every one),
    /// with mixed block sizes including a non-power-of-two one.
    fn random_map(allocs: &[(u64, u64, u64)], nodes: &[(u32, u32)]) -> SpaceMap {
        const SIZES: [u64; 6] = [64, 128, 192, 256, 512, 2_048];
        let mut next = 0x1000;
        let allocs = allocs
            .iter()
            .map(|&(gap, size, blocks)| {
                let block_bytes = SIZES[size as usize % SIZES.len()];
                let start = next + gap * 64;
                next = start + blocks * block_bytes;
                AllocSite { start, len: blocks * block_bytes, block_bytes, label: "site" }
            })
            .collect();
        SpaceMap {
            line_bytes: 64,
            proc_phys_node: nodes.iter().map(|&(phys, _)| phys).collect(),
            proc_coh_node: nodes.iter().map(|&(phys, split)| phys * 2 + split % 2).collect(),
            allocs,
        }
    }

    /// The block an event names: one on an allocation's grid, any line
    /// address up to just past the last allocation (inside one, on or off
    /// its grid, or in a gap), or block 0, where sync messages point.
    fn pick_block(map: &SpaceMap, pick: u64) -> u64 {
        let end = map.allocs.last().map_or(0x1000, |a| a.start + a.len);
        match pick % 4 {
            0 | 1 => {
                let a = &map.allocs[(pick / 4) as usize % map.allocs.len()];
                a.start + (pick >> 16) % (a.len / a.block_bytes) * a.block_bytes
            }
            2 => (pick >> 8) % (end / 64 + 8) * 64,
            _ => 0,
        }
    }

    fn random_event(map: &SpaceMap, (kind, pick, off, misc): (u32, u64, u64, u32)) -> EventKind {
        let block = pick_block(map, pick);
        const MSGS: [&str; 6] =
            ["read-req", "read-reply", "write-reply", "downgrade", "barrier-arrive", "lock-acq"];
        match kind {
            0..=2 => EventKind::CheckMiss {
                id: 0,
                block,
                addr: block + off % 2_048,
                len: misc % 72 + 1,
                write: misc % 3 == 0,
            },
            3 => EventKind::MissResolved {
                block,
                kind: MissKind::ALL[misc as usize % 3],
                hops: Hops::ALL[misc as usize % 2],
            },
            4 => EventKind::PrivateUpgrade { block },
            5 => EventKind::MissMerged { block },
            6 => EventKind::DowngradeStart { block, to_invalid: misc % 2 == 0, targets: misc % 5 },
            7 => {
                let action = crate::DowngradeAction::InvAck { ack_to: misc % 4 };
                EventKind::DowngradeDone { block, action }
            }
            8 | 9 => {
                let msg = MSGS[misc as usize % MSGS.len()];
                // Sync traffic names no block.
                let block =
                    if msg.starts_with("barrier") || msg.starts_with("lock") { 0 } else { block };
                EventKind::MsgSend { msg, peer: misc % 8, block }
            }
            _ => EventKind::PollDrain { handled: misc },
        }
    }

    /// Blocks past the first table chunk land in later chunks, each
    /// allocated whole and never grown, and read back as the tree model
    /// holds them.
    #[test]
    fn the_table_grows_in_whole_chunks_and_matches_the_tree_model() {
        let map = random_map(&[(0, 0, 700), (2, 3, 40)], &[(0, 0), (1, 1), (2, 0), (3, 1)]);
        let (mut agg, mut model) = (ProfileAgg::new(map.clone()), TreeModel::default());
        for i in 0..3_000u64 {
            let pick = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let kind = random_event(&map, ((i % 11) as u32, pick, i * 8, (i * 7) as u32));
            agg.observe((i % 4) as u32, &kind);
            model.observe(&map, (i % 4) as u32, &kind);
        }
        assert!(agg.touched() > 2 * CHUNK_RECORDS, "{} touched", agg.touched());
        assert_eq!(agg.hist.len(), agg.touched().div_ceil(CHUNK_RECORDS));
        for (hist, occ) in agg.hist.iter().zip(&agg.occ) {
            assert_eq!(hist.capacity(), CHUNK_RECORDS);
            let n = agg.nodes;
            assert_eq!((occ.capacity(), occ.len()), (CHUNK_RECORDS * n, hist.len() * n));
        }
        let got: Vec<String> =
            agg.blocks().map(|(b, h)| format!("{b:#x} {}", shown(Some(h)))).collect();
        let want: Vec<String> = model
            .blocks
            .keys()
            .map(|&b| format!("{b:#x} {}", shown(model.view(&map, b))))
            .collect();
        assert_eq!(got, want);
        assert_eq!(format!("{:?}", agg.advise()), format!("{:?}", model.advise(&agg)));
    }

    /// At four coherence nodes a touched block's record takes 192 bytes: a
    /// 96-byte history and four 24-byte occupancy entries.
    #[test]
    fn a_touched_block_takes_under_200_bytes_at_four_nodes() {
        let agg = ProfileAgg::new(random_map(&[(0, 0, 1)], &[(0, 0), (1, 1)]));
        assert_eq!((size_of::<BlockHistory>(), size_of::<NodeOcc>()), (96, 24));
        assert_eq!(agg.record_bytes(), 192);
    }

    /// A counter at `u32::MAX` panics at the next event rather than
    /// wrapping to zero.
    #[test]
    #[should_panic(expected = "a block's profile counter passed u32::MAX")]
    fn a_counter_at_its_maximum_panics_rather_than_wrapping() {
        let mut agg = ProfileAgg::new(map_one_alloc(256));
        agg.observe(0, &EventKind::MissMerged { block: 0x1000 });
        agg.touch(0x1000).merged = u32::MAX;
        agg.observe(0, &EventKind::MissMerged { block: 0x1000 });
    }

    /// So does a downgrade's fan-out that would carry its sum past the top.
    #[test]
    #[should_panic(expected = "a block's profile counter passed u32::MAX")]
    fn a_fan_out_past_the_maximum_panics() {
        let mut agg = ProfileAgg::new(map_one_alloc(256));
        let start =
            |targets| EventKind::DowngradeStart { block: 0x1000, to_invalid: true, targets };
        agg.observe(0, &start(u32::MAX - 1));
        agg.observe(0, &start(2));
    }

    /// A miss's extent is kept in `u32`s: one ending past `u32::MAX` bytes
    /// into its block panics rather than truncating.
    #[test]
    #[should_panic(expected = "ends past u32::MAX bytes into its block")]
    fn a_miss_past_a_u32_extent_panics() {
        let mut agg = ProfileAgg::new(map_one_alloc(256));
        let addr = 0x1000 + u64::from(u32::MAX) - 4;
        agg.observe(0, &EventKind::CheckMiss { id: 0, block: 0x1000, addr, len: 8, write: true });
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 64 })]

        /// The direct-indexed tables and the side list hold exactly what a
        /// tree keyed by block address holds: the same histories, in the
        /// same address order, the same lookups (touched or not), and the
        /// same site reports.
        #[test]
        fn direct_indexed_tables_match_a_tree_model(
            allocs in proptest::collection::vec((0u64..4, 0u64..6, 1u64..12), 1..6),
            nodes in proptest::collection::vec((0u32..4, 0u32..2), 1..9),
            events in proptest::collection::vec((0u32..11, 0u64..u64::MAX, 0u64..4_096, 0u32..1_000), 0..400),
        ) {
            let map = random_map(&allocs, &nodes);
            let mut agg = ProfileAgg::new(map.clone());
            let mut model = TreeModel::default();
            let procs = nodes.len() as u64;
            for (i, &e) in events.iter().enumerate() {
                let p = (e.1.rotate_left(7) % procs) as u32;
                let kind = random_event(&map, e);
                agg.observe(p, &kind);
                model.observe(&map, p, &kind);
                if i % 97 == 0 {
                    proptest::prop_assert_eq!(agg.touched(), model.blocks.len());
                }
            }
            proptest::prop_assert_eq!(agg.touched(), model.blocks.len());
            let got: Vec<String> = agg.blocks().map(|(b, h)| format!("{b:#x} {}", shown(Some(h)))).collect();
            let want: Vec<String> =
                model.blocks.keys().map(|&b| format!("{b:#x} {}", shown(model.view(&map, b)))).collect();
            proptest::prop_assert_eq!(got, want);
            let probes = events.iter().map(|&(_, pick, ..)| pick_block(&map, pick));
            for b in probes.chain((0..map.allocs.len() as u64 * 4).map(|k| pick_block(&map, k))) {
                proptest::prop_assert_eq!(shown(agg.block(b)), shown(model.view(&map, b)), "block {:#x}", b);
            }
            proptest::prop_assert_eq!(
                format!("{:?}", agg.advise()),
                format!("{:?}", model.advise(&agg))
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig { cases: 48 })]

        /// Interleaved-but-disjoint writer stripes classify false-shared
        /// for any power-of-two stripe count and line-multiple stripe
        /// width, whatever the in-stripe write offsets, and the advisor
        /// always finds a line-multiple split that separates the writers.
        #[test]
        fn disjoint_stripes_classify_false_shared_with_separating_split(
            stripes_pow in 1u32..6,
            stripe_lines in 1u64..4,
            offs in proptest::collection::vec(0u64..4096, 2..12),
        ) {
            let stripes = 1u64 << stripes_pow; // 2..32: divides SUBLINES, so
            let stripe = stripe_lines * 64; //     stripes align with sublines
            let bb = stripes * stripe;
            let mut agg = ProfileAgg::new(map_one_block(bb));
            for &o in &offs {
                for s in 0..stripes {
                    let p = if s % 2 == 0 { 0 } else { 2 };
                    miss(&mut agg, p, 0x1000, s * stripe + o % (stripe - 7), true);
                }
            }
            let h = agg.block(0x1000).unwrap();
            proptest::prop_assert!(h.occupancy_disjoint());
            proptest::prop_assert_eq!(h.pattern(), SharingPattern::FalseShared);
            let r = &agg.advise()[0];
            match r.recommendation {
                Recommendation::Shrink(n) => {
                    proptest::prop_assert!(n < bb && n % 64 == 0, "got {n} for {bb} B");
                    proptest::prop_assert!(h.split_separates(n));
                }
                other => panic!("expected Shrink, got {other:?}"),
            }
        }

        /// Writers whose footprints overlap in even one subline are never
        /// classified false-shared, however much of the rest of the block
        /// each node owns privately.
        #[test]
        fn overlapping_writers_never_classify_false_shared(
            bb_lines in 1u64..33,
            offs in proptest::collection::vec((0u64..4096, 0u32..2), 1..12),
        ) {
            let bb = bb_lines * 64;
            let mut agg = ProfileAgg::new(map_one_block(bb));
            // Both nodes write the first word: one shared subline.
            miss(&mut agg, 0, 0x1000, 0, true);
            miss(&mut agg, 2, 0x1000, 0, true);
            for &(o, node) in &offs {
                let p = if node == 0 { 0 } else { 2 };
                miss(&mut agg, p, 0x1000, o % (bb - 7), true);
            }
            let h = agg.block(0x1000).unwrap();
            proptest::prop_assert!(!h.occupancy_disjoint());
            proptest::prop_assert_ne!(h.pattern(), SharingPattern::FalseShared);
        }
    }
}
