//! Counter types populated by the protocol engine during a run.

use serde::{Deserialize, Serialize};

/// Execution-time category, following the breakdown of Figure 4 of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum TimeCat {
    /// Application compute, inline miss checks, and protocol-entry overhead.
    Task,
    /// Stall time for read misses satisfied through the software protocol.
    Read,
    /// Stall time attributable to stores: write-buffer limits and waiting for
    /// outstanding store requests / invalidation acks at a release.
    Write,
    /// Stall time for application locks and barriers.
    Sync,
    /// Time spent handling incoming protocol messages while *not* stalled
    /// (handling during a stall is hidden under the stall categories).
    Message,
    /// Everything else: private-state-table upgrades, pending-downgrade
    /// bookkeeping, non-blocking-store overheads.
    Other,
}

impl TimeCat {
    /// All categories in the paper's stacking order.
    pub const ALL: [TimeCat; 6] = [
        TimeCat::Task,
        TimeCat::Read,
        TimeCat::Write,
        TimeCat::Sync,
        TimeCat::Message,
        TimeCat::Other,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            TimeCat::Task => "task",
            TimeCat::Read => "read",
            TimeCat::Write => "write",
            TimeCat::Sync => "sync",
            TimeCat::Message => "message",
            TimeCat::Other => "other",
        }
    }
}

/// Per-processor execution-time breakdown in cycles.
///
/// # Example
///
/// ```
/// use shasta_stats::{Breakdown, TimeCat};
///
/// let mut b = Breakdown::default();
/// b.add(TimeCat::Task, 900);
/// b.add(TimeCat::Read, 100);
/// assert_eq!(b.total(), 1_000);
/// assert_eq!(b.get(TimeCat::Read), 100);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Breakdown {
    cycles: [u64; 6],
}

impl Breakdown {
    fn idx(cat: TimeCat) -> usize {
        cat as usize
    }

    /// Adds `cycles` to `cat`.
    pub fn add(&mut self, cat: TimeCat, cycles: u64) {
        self.cycles[Self::idx(cat)] += cycles;
    }

    /// Cycles recorded under `cat`.
    pub fn get(&self, cat: TimeCat) -> u64 {
        self.cycles[Self::idx(cat)]
    }

    /// Total cycles across all categories.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Element-wise sum, used to aggregate per-processor breakdowns.
    pub fn merged(&self, other: &Breakdown) -> Breakdown {
        let mut out = *self;
        for i in 0..6 {
            out.cycles[i] += other.cycles[i];
        }
        out
    }

    /// Fraction of total time in `cat`, or 0 for an empty breakdown.
    pub fn fraction(&self, cat: TimeCat) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(cat) as f64 / total as f64
        }
    }
}

/// Software-miss request type (Figure 6's first classification axis).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MissKind {
    /// Read miss (invalid → shared).
    Read,
    /// Write miss needing data (invalid → exclusive, read-exclusive request).
    Write,
    /// Upgrade miss (shared → exclusive, no data needed).
    Upgrade,
}

impl MissKind {
    /// All kinds in report order.
    pub const ALL: [MissKind; 3] = [MissKind::Read, MissKind::Write, MissKind::Upgrade];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MissKind::Read => "read",
            MissKind::Write => "write",
            MissKind::Upgrade => "upgrade",
        }
    }
}

/// Number of message hops a miss took (Figure 6's second axis).
///
/// Following §4.4 of the paper: a request is 3-hop "if the reply is from a
/// processor other than the home processor, even if it is from the same SMP
/// as the home".
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Hops {
    /// Requester → home → requester.
    Two,
    /// Requester → home → owner → requester.
    Three,
}

impl Hops {
    /// All hop classes in report order.
    pub const ALL: [Hops; 2] = [Hops::Two, Hops::Three];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Hops::Two => "2-hop",
            Hops::Three => "3-hop",
        }
    }
}

/// Software-miss counters (Figure 6), plus auxiliary miss-path events.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MissStats {
    counts: [[u64; 2]; 3],
    /// Inline flag checks that fired on application data equal to the
    /// invalid-flag value ("false misses", §2.3).
    pub false_misses: u64,
    /// Misses that were satisfied locally by upgrading the private state
    /// table because the block was already on the node (SMP-Shasta).
    pub private_upgrades: u64,
    /// Misses merged into an already-pending request for the same block
    /// (SMP-Shasta request merging, §3.4.2).
    pub merged: u64,
}

impl MissStats {
    fn k(kind: MissKind) -> usize {
        kind as usize
    }

    fn h(hops: Hops) -> usize {
        hops as usize
    }

    /// Records one software miss that required a remote request.
    pub fn record(&mut self, kind: MissKind, hops: Hops) {
        self.counts[Self::k(kind)][Self::h(hops)] += 1;
    }

    /// Count of misses of `kind` over `hops`.
    pub fn get(&self, kind: MissKind, hops: Hops) -> u64 {
        self.counts[Self::k(kind)][Self::h(hops)]
    }

    /// Total software misses (excluding false misses / private upgrades).
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Element-wise sum.
    pub fn merged_with(&self, other: &MissStats) -> MissStats {
        let mut out = *self;
        for k in 0..3 {
            for h in 0..2 {
                out.counts[k][h] += other.counts[k][h];
            }
        }
        out.false_misses += other.false_misses;
        out.private_upgrades += other.private_upgrades;
        out.merged += other.merged;
        out
    }
}

/// Protocol message classification (Figure 7).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MsgClass {
    /// Between processors on different physical SMP nodes (Memory Channel).
    Remote,
    /// Between processors on the same physical SMP node, excluding
    /// downgrades (shared-memory segment).
    Local,
    /// Intra-node downgrade messages (SMP-Shasta only).
    Downgrade,
}

impl MsgClass {
    /// All classes in report order.
    pub const ALL: [MsgClass; 3] = [MsgClass::Remote, MsgClass::Local, MsgClass::Downgrade];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Remote => "remote",
            MsgClass::Local => "local",
            MsgClass::Downgrade => "downgrade",
        }
    }
}

/// Protocol message counters (Figure 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct MsgStats {
    counts: [u64; 3],
    bytes: [u64; 3],
}

impl MsgStats {
    fn c(class: MsgClass) -> usize {
        class as usize
    }

    /// Records one message of `class` carrying `payload_bytes` of data.
    pub fn record(&mut self, class: MsgClass, payload_bytes: u64) {
        self.counts[Self::c(class)] += 1;
        self.bytes[Self::c(class)] += payload_bytes;
    }

    /// Message count for `class`.
    pub fn count(&self, class: MsgClass) -> u64 {
        self.counts[Self::c(class)]
    }

    /// Payload bytes for `class`.
    pub fn payload_bytes(&self, class: MsgClass) -> u64 {
        self.bytes[Self::c(class)]
    }

    /// Total messages.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise sum.
    pub fn merged_with(&self, other: &MsgStats) -> MsgStats {
        let mut out = *self;
        for i in 0..3 {
            out.counts[i] += other.counts[i];
            out.bytes[i] += other.bytes[i];
        }
        out
    }
}

/// Histogram of downgrade messages sent per block downgrade (Figure 8).
///
/// Bucket `i` counts downgrades that sent exactly `i` messages, for
/// `i < BUCKETS - 1`; the last bucket counts `>= BUCKETS - 1`. With four
/// processors per node at most three downgrade messages are ever needed, so
/// the paper plots buckets 0–3.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct DowngradeHist {
    buckets: [u64; Self::BUCKETS],
}

impl DowngradeHist {
    /// Number of buckets (0, 1, 2, … messages; last bucket is saturating).
    pub const BUCKETS: usize = 8;

    /// Records one block downgrade that sent `messages` downgrade messages.
    pub fn record(&mut self, messages: usize) {
        let i = messages.min(Self::BUCKETS - 1);
        self.buckets[i] += 1;
    }

    /// Count of downgrades that sent exactly `messages` messages
    /// (saturating at the last bucket).
    pub fn count(&self, messages: usize) -> u64 {
        self.buckets[messages.min(Self::BUCKETS - 1)]
    }

    /// Total downgrade events recorded.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fraction of downgrades that sent exactly `messages` messages.
    pub fn fraction(&self, messages: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(messages) as f64 / total as f64
        }
    }

    /// Mean number of downgrade messages per downgrade event.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self.buckets.iter().enumerate().map(|(i, &c)| i as u64 * c).sum();
        weighted as f64 / total as f64
    }

    /// Element-wise sum.
    pub fn merged_with(&self, other: &DowngradeHist) -> DowngradeHist {
        let mut out = *self;
        for i in 0..Self::BUCKETS {
            out.buckets[i] += other.buckets[i];
        }
        out
    }
}

/// Inline-check accounting (Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct CheckStats {
    /// Cycles spent executing inline miss-check code.
    pub check_cycles: u64,
    /// Cycles spent polling at loop back-edges.
    pub poll_cycles: u64,
    /// Number of inline checks executed.
    pub checks: u64,
    /// Number of batched range accesses.
    pub batches: u64,
}

impl CheckStats {
    /// Element-wise sum.
    pub fn merged_with(&self, other: &CheckStats) -> CheckStats {
        CheckStats {
            check_cycles: self.check_cycles + other.check_cycles,
            poll_cycles: self.poll_cycles + other.poll_cycles,
            checks: self.checks + other.checks,
            batches: self.batches + other.batches,
        }
    }
}

/// All statistics gathered from one simulated run.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Per-processor execution-time breakdowns.
    pub breakdowns: Vec<Breakdown>,
    /// Software-miss counters, aggregated over all processors.
    pub misses: MissStats,
    /// Message counters, aggregated over all processors.
    pub messages: MsgStats,
    /// Downgrade histogram (SMP-Shasta only; empty otherwise).
    pub downgrades: DowngradeHist,
    /// Inline-check accounting, aggregated over all processors.
    pub checks: CheckStats,
    /// Simulated end-to-end execution time in cycles (max over processors).
    pub elapsed_cycles: u64,
    /// Sum over read misses of their stall latency, for mean-latency reports.
    pub read_latency_cycles: u64,
    /// Number of read-miss stalls contributing to `read_latency_cycles`.
    pub read_latency_count: u64,
    /// Requests served by reading/modifying the directory directly from a
    /// processor colocated with the home (the shared-directory extension);
    /// each saved one intra-node request message.
    pub shared_dir_lookups: u64,
    /// Home requests serviced by a processor other than the home itself via
    /// the shared incoming queue (the load-balancing extension).
    pub load_balanced_requests: u64,
}

impl RunStats {
    /// Creates empty statistics for `procs` processors.
    pub fn new(procs: usize) -> Self {
        RunStats { breakdowns: vec![Breakdown::default(); procs], ..RunStats::default() }
    }

    /// The aggregate breakdown over all processors.
    pub fn total_breakdown(&self) -> Breakdown {
        self.breakdowns.iter().fold(Breakdown::default(), |acc, b| acc.merged(b))
    }

    /// Mean read-miss stall latency in cycles (0 if no read misses).
    pub fn mean_read_latency(&self) -> f64 {
        if self.read_latency_count == 0 {
            0.0
        } else {
            self.read_latency_cycles as f64 / self.read_latency_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_fractions() {
        let mut b = Breakdown::default();
        b.add(TimeCat::Task, 600);
        b.add(TimeCat::Read, 300);
        b.add(TimeCat::Sync, 100);
        assert_eq!(b.total(), 1_000);
        assert!((b.fraction(TimeCat::Task) - 0.6).abs() < 1e-12);
        assert_eq!(b.fraction(TimeCat::Message), 0.0);
        let merged = b.merged(&b);
        assert_eq!(merged.total(), 2_000);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        assert_eq!(Breakdown::default().fraction(TimeCat::Task), 0.0);
    }

    #[test]
    fn miss_stats_classify() {
        let mut m = MissStats::default();
        m.record(MissKind::Read, Hops::Two);
        m.record(MissKind::Read, Hops::Three);
        m.record(MissKind::Upgrade, Hops::Two);
        assert_eq!(m.get(MissKind::Read, Hops::Two), 1);
        assert_eq!(m.get(MissKind::Read, Hops::Three), 1);
        assert_eq!(m.get(MissKind::Write, Hops::Two), 0);
        assert_eq!(m.total(), 3);
        let two = m.merged_with(&m);
        assert_eq!(two.total(), 6);
    }

    #[test]
    fn msg_stats_classify_and_count_bytes() {
        let mut s = MsgStats::default();
        s.record(MsgClass::Remote, 64);
        s.record(MsgClass::Remote, 0);
        s.record(MsgClass::Downgrade, 0);
        assert_eq!(s.count(MsgClass::Remote), 2);
        assert_eq!(s.payload_bytes(MsgClass::Remote), 64);
        assert_eq!(s.count(MsgClass::Local), 0);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn downgrade_hist_fractions_and_mean() {
        let mut h = DowngradeHist::default();
        for _ in 0..6 {
            h.record(0);
        }
        for _ in 0..3 {
            h.record(1);
        }
        h.record(3);
        assert_eq!(h.total(), 10);
        assert!((h.fraction(0) - 0.6).abs() < 1e-12);
        assert!((h.mean() - 0.6).abs() < 1e-12);
        // Saturating bucket.
        h.record(100);
        assert_eq!(h.count(DowngradeHist::BUCKETS - 1), 1);
    }

    #[test]
    fn run_stats_aggregate() {
        let mut r = RunStats::new(2);
        r.breakdowns[0].add(TimeCat::Task, 10);
        r.breakdowns[1].add(TimeCat::Task, 20);
        r.breakdowns[1].add(TimeCat::Read, 5);
        let total = r.total_breakdown();
        assert_eq!(total.get(TimeCat::Task), 30);
        assert_eq!(total.total(), 35);
        assert_eq!(r.mean_read_latency(), 0.0);
        r.read_latency_cycles = 600;
        r.read_latency_count = 3;
        assert!((r.mean_read_latency() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn all_lists_each_enum_in_discriminant_order() {
        // The counter arrays are indexed by `variant as usize` and reported
        // by walking `ALL`: the two orders must be the same one.
        assert!(TimeCat::ALL.iter().enumerate().all(|(i, &c)| c as usize == i));
        assert!(MissKind::ALL.iter().enumerate().all(|(i, &k)| k as usize == i));
        assert!(Hops::ALL.iter().enumerate().all(|(i, &h)| h as usize == i));
        assert!(MsgClass::ALL.iter().enumerate().all(|(i, &c)| c as usize == i));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TimeCat::Message.label(), "message");
        assert_eq!(MissKind::Upgrade.label(), "upgrade");
        assert_eq!(Hops::Three.label(), "3-hop");
        assert_eq!(MsgClass::Downgrade.label(), "downgrade");
    }
}
