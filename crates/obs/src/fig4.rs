//! Streaming audit of the slice stream: does it tile each processor's
//! simulated time?

/// Per-processor streaming audit of [`Slice`](crate::EventKind::Slice)
/// events: the gaps between them, any overlap among them, and where the
/// last one ended. The cycles *in* the slices are the engine's own Figure 4
/// breakdown (`RunStats::breakdowns`, folded from the same events where they
/// are emitted); this is the other half of the accounting identity.
///
/// The aggregator is fed at record time, as the event goes to its ring.
///
/// Invariant (checked by the bench-level property tests): the engine's
/// per-processor slices are non-overlapping and start-ordered, so for every
/// processor
///
/// ```text
/// stats.breakdowns[p].total() + idle(p) - overlap(p) == span(p)
/// ```
///
/// holds with `overlap(p) == 0`, and `span(p)` equals the processor's final
/// simulated clock.
#[derive(Clone, Debug, Default)]
pub struct Fig4Agg {
    procs: Vec<ProcAgg>,
}

#[derive(Clone, Debug, Default)]
struct ProcAgg {
    idle: u64,
    overlap: u64,
    cursor: u64,
}

impl Fig4Agg {
    /// Creates an aggregator for `procs` processors.
    pub fn new(procs: usize) -> Self {
        Fig4Agg { procs: vec![ProcAgg::default(); procs] }
    }

    /// Number of processors tracked.
    pub fn procs(&self) -> usize {
        self.procs.len()
    }

    /// Feeds one time slice: `cycles` starting at cycle `t` on processor
    /// `p`. Gaps before `t` count as idle; any portion of the slice before
    /// the current cursor counts as overlap (never produced by the engine,
    /// but tracked so the accounting identity always holds).
    ///
    /// # Panics
    ///
    /// Panics if the slice ends past `u64::MAX` cycles, naming the
    /// processor, the start and the length (the engine's clocks stop far
    /// below, at its schedule keys' limit).
    pub fn observe_slice(&mut self, p: u32, t: u64, cycles: u64) {
        let a = &mut self.procs[p as usize];
        let Some(end) = t.checked_add(cycles) else {
            panic!("P{p}'s slice of {cycles} cycles at cycle {t} ends past u64::MAX cycles");
        };
        if t >= a.cursor {
            a.idle += t - a.cursor;
        } else {
            a.overlap += a.cursor.min(end) - t;
        }
        a.cursor = a.cursor.max(end);
    }

    /// Unattributed cycles on `p`: gaps between slices (e.g. a finished
    /// processor waiting for a late message delivery).
    pub fn idle(&self, p: u32) -> u64 {
        self.procs[p as usize].idle
    }

    /// Cycles of `p`'s slices that overlapped earlier slices. Always 0 for
    /// engine-produced streams; nonzero values indicate an attribution bug.
    pub fn overlap(&self, p: u32) -> u64 {
        self.procs[p as usize].overlap
    }

    /// End of the last slice seen on `p` — the processor's derived final
    /// clock in cycles.
    pub fn span(&self, p: u32) -> u64 {
        self.procs[p as usize].cursor
    }

    /// Largest [`span`](Self::span) over all processors — the derived
    /// end-to-end time (an upper bound on `RunStats::elapsed_cycles`, which
    /// stops counting once every fiber has finished).
    pub fn max_span(&self) -> u64 {
        self.procs.iter().map(|a| a.cursor).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_slices_sum_to_span() {
        let mut agg = Fig4Agg::new(1);
        agg.observe_slice(0, 0, 100);
        agg.observe_slice(0, 100, 50);
        agg.observe_slice(0, 150, 25);
        assert_eq!(agg.span(0), 175);
        assert_eq!(agg.idle(0), 0);
        assert_eq!(agg.overlap(0), 0);
    }

    #[test]
    fn gaps_count_as_idle() {
        let mut agg = Fig4Agg::new(2);
        agg.observe_slice(1, 10, 5);
        agg.observe_slice(1, 40, 10);
        assert_eq!(agg.idle(1), 10 + 25);
        assert_eq!(agg.span(1), 50);
        assert_eq!(5 + 10 + agg.idle(1), agg.span(1));
        assert_eq!(agg.max_span(), 50);
        assert_eq!((agg.idle(0), agg.span(0)), (0, 0));
    }

    #[test]
    fn overlap_is_tracked_and_identity_holds() {
        let mut agg = Fig4Agg::new(1);
        agg.observe_slice(0, 0, 100);
        // A pathological overlapping slice (the engine never emits one).
        agg.observe_slice(0, 60, 80);
        assert_eq!(agg.overlap(0), 40);
        assert_eq!(agg.span(0), 140);
        assert_eq!(100 + 80 + agg.idle(0) - agg.overlap(0), agg.span(0));
    }

    #[test]
    #[should_panic(expected = "P1's slice of 2 cycles at cycle 18446744073709551614 ends past")]
    fn a_slice_ending_past_the_last_cycle_panics() {
        let mut agg = Fig4Agg::new(2);
        agg.observe_slice(1, u64::MAX - 1, 1);
        agg.observe_slice(1, u64::MAX - 1, 2);
    }
}
