//! The engine's incremental schedule: every processor's cached scheduling
//! candidates, and a min-tree over their earliest keys.
//!
//! A processor's candidates are a function of its clock, stall, wake floor,
//! fiber and inbox, and (while it is stalled) of the node state it waits
//! for. Instead of rebuilding them for every processor at every event, the
//! engine keeps one [`Cands`] per processor and recomputes it only when an
//! event has *marked* that processor (`Machine::mark`). The [`MinTree`] over
//! each processor's earliest `(time, proc)` key then holds the deterministic
//! policy's next event at its root, and the earliest key of every *other*
//! processor — the run-ahead bound — on the path from a leaf to the root.
//! A key is one integer (see [`key`]), so each of those comparisons is one
//! unsigned compare rather than a tuple's two.

use shasta_cluster::topology::MAX_PROCS;
use shasta_sim::{Scheduler, Time};

/// What the scheduler decided to do next. The discriminants are the codes
/// [`Cands`] packs, in the order a tie between them breaks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Action {
    /// Execute the processor's pending operation.
    Op = 0,
    /// Resume a stalled processor whose condition is satisfied.
    Resume = 1,
    /// Deliver the earliest message to a stalled/finished processor.
    Msg = 2,
}

/// One processor's schedulable actions, at most two: `Resume` then `Msg`
/// for a stalled processor, otherwise one `Op`, or a finished processor's
/// `Msg`. Each is packed as `cycles << 2 | action`: slot 0 holds the `Op`
/// or `Resume`, slot 1 the `Msg`, an empty slot [`NO_ACTION`]. The order is
/// load-bearing: the deterministic policy breaks a time tie by taking
/// slot 0, and because slot 0's action codes are below `Msg`'s, the
/// smaller packed value is exactly that choice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Cands([u64; 2]);

/// An empty [`Cands`] slot: later than every packed action.
const NO_ACTION: u64 = u64::MAX;

impl Cands {
    /// No schedulable action.
    pub(crate) const NONE: Cands = Cands([NO_ACTION; 2]);

    /// Schedules `action` at time `t`, in its slot.
    ///
    /// # Panics
    ///
    /// Panics if `t` is [`KEY_CYCLES`] cycles or later, rather than wrap into
    /// the wrong order.
    #[inline]
    pub(crate) fn set(&mut self, t: Time, action: Action) {
        let cycles = t.cycles();
        assert!(cycles < KEY_CYCLES, "simulated time {t} is past the schedule keys' limit");
        self.0[usize::from(action == Action::Msg)] = cycles << 2 | action as u64;
    }

    /// The actions, slot 0 first.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Time, Action)> + '_ {
        self.0.iter().filter(|&&x| x != NO_ACTION).map(|&x| unpack(x))
    }

    /// The earliest action; slot 0's wins a tie.
    #[inline]
    pub(crate) fn first_min(&self) -> Option<(Time, Action)> {
        let min = self.0[0].min(self.0[1]);
        (min != NO_ACTION).then(|| unpack(min))
    }

    /// Processor `p`'s key: its earliest action's, or [`EMPTY`] when it has
    /// none. [`Cands::set`] checked the time fits.
    #[inline]
    pub(crate) fn key(&self, p: u32) -> Key {
        let min = self.0[0].min(self.0[1]);
        if min == NO_ACTION {
            EMPTY
        } else {
            (min >> 2) << PROC_BITS | u64::from(p)
        }
    }
}

/// A packed action's time and action.
#[inline]
fn unpack(x: u64) -> (Time, Action) {
    let action = match x & 3 {
        0 => Action::Op,
        1 => Action::Resume,
        _ => Action::Msg,
    };
    (Time::from_cycles(x >> 2), action)
}

/// A `(time, proc)` scheduling key packed into one integer, `cycles << 6 |
/// proc`: integer order is the pair's order, because a processor id is
/// below [`MAX_PROCS`] = 64.
pub(crate) type Key = u64;

/// Bits of a key that hold the processor.
const PROC_BITS: u32 = MAX_PROCS.trailing_zeros();

/// An empty leaf: later than every real key.
pub(crate) const EMPTY: Key = u64::MAX;

/// Cycle counts a key can hold: every key built from one is below
/// [`EMPTY`].
pub(crate) const KEY_CYCLES: u64 = EMPTY >> PROC_BITS;

/// The key of time `t` on processor `p`.
///
/// # Panics
///
/// Panics if `t` is [`KEY_CYCLES`] cycles or later, rather than wrap into
/// the wrong order.
#[inline]
pub(crate) fn key(t: Time, p: u32) -> Key {
    debug_assert!(p < MAX_PROCS, "P{p} is past the topology's processor limit");
    let cycles = t.cycles();
    assert!(cycles < KEY_CYCLES, "simulated time {t} is past the schedule keys' limit");
    cycles << PROC_BITS | u64::from(p)
}

/// The processor a key belongs to.
#[inline]
pub(crate) fn key_proc(k: Key) -> u32 {
    (k & u64::from(MAX_PROCS - 1)) as u32
}

/// The seeded policies' pick, without a list of every candidate: one pass
/// over `cache` collects into `ties` the actions at the time of `root` (the
/// tree's root), in processor order and slot 0 first, the order a list of
/// every candidate would hold them in, and [`Scheduler::pick_tie`] chooses
/// among them. So it chooses what [`Scheduler::pick`] chooses over that list,
/// with the same random draws.
pub(crate) fn pick_seeded(
    sched: &mut Scheduler,
    cache: &[Cands],
    root: Key,
    ties: &mut Vec<(u32, Action)>,
) -> (u32, Action) {
    let at = root >> PROC_BITS;
    ties.clear();
    let mut max_proc = 0;
    for (p, c) in cache.iter().enumerate() {
        for &x in &c.0 {
            if x != NO_ACTION {
                max_proc = p as u32;
                if x >> 2 == at {
                    ties.push((p as u32, unpack(x).1));
                }
            }
        }
    }
    ties[sched.pick_tie(ties, |tie| tie.0, max_proc)]
}

/// A tournament tree over one key per processor: each inner node holds the
/// smaller of its children's keys, so the root is the minimum over all
/// processors and an update is one walk from a leaf to the root. Keys are
/// distinct (a processor owns one leaf), so the minimum is unambiguous.
#[derive(Clone, Debug)]
pub(crate) struct MinTree {
    /// Node `i`'s children are `2i` and `2i + 1`; leaf `p` is `base + p`.
    /// Index 0 is unused.
    nodes: Vec<Key>,
    base: usize,
}

impl MinTree {
    /// A tree of `n` empty leaves.
    pub(crate) fn new(n: usize) -> Self {
        let base = n.next_power_of_two();
        MinTree { nodes: vec![EMPTY; 2 * base], base }
    }

    /// Sets processor `p`'s key ([`EMPTY`]: no candidate).
    #[inline]
    pub(crate) fn set(&mut self, p: u32, key: Key) {
        let mut i = self.base + p as usize;
        self.nodes[i] = key;
        while i > 1 {
            i >>= 1;
            self.nodes[i] = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
        }
    }

    /// The smallest key over all processors.
    #[inline]
    pub(crate) fn root(&self) -> Option<Key> {
        Some(self.nodes[1]).filter(|&k| k != EMPTY)
    }

    /// The smallest key over every processor but `p` ([`EMPTY`] if none):
    /// the minimum of the siblings met on the walk from `p`'s leaf to the
    /// root.
    #[inline]
    pub(crate) fn runner_up(&self, p: u32) -> Key {
        let mut i = self.base + p as usize;
        let mut min = EMPTY;
        while i > 1 {
            min = min.min(self.nodes[i ^ 1]);
            i >>= 1;
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use shasta_sim::{SchedulePolicy, Scheduler, SplitMix64};

    use super::*;

    fn random_cands(rng: &mut SplitMix64) -> Cands {
        let mut c = Cands::NONE;
        let shape = rng.below(5);
        // Few distinct times, so key ties within and across processors are common.
        let mut t = || Time::from_cycles(rng.below(6));
        match shape {
            0 => {}
            1 => c.set(t(), Action::Op),
            2 => c.set(t(), Action::Msg),
            3 => c.set(t(), Action::Resume),
            _ => {
                c.set(t(), Action::Resume);
                c.set(t(), Action::Msg);
            }
        }
        c
    }

    /// `(time, proc)` of a key; `None` for [`EMPTY`].
    fn unpack(k: Key) -> Option<(Time, u32)> {
        (k != EMPTY).then(|| (Time::from_cycles(k >> PROC_BITS), key_proc(k)))
    }

    /// Over random candidate sets and random single-leaf updates, the root
    /// is what the deterministic `Scheduler::pick` picks from the same
    /// candidates listed in processor order, the runner-up of every
    /// processor is the minimum over all the others' candidates, and
    /// [`pick_seeded`] chooses what each seeded policy's `Scheduler::pick`
    /// chooses over that list, leaving the same random stream behind.
    #[test]
    fn root_is_the_deterministic_pick_and_runner_up_the_others_minimum() {
        let mut rng = SplitMix64::new(28);
        for n in [1usize, 2, 3, 4, 5, 8, 13, 16] {
            let mut cache = vec![Cands::NONE; n];
            let mut tree = MinTree::new(n);
            let mut sched = Scheduler::default();
            let seeded = [
                SchedulePolicy::SeededRandom { seed: n as u64 },
                SchedulePolicy::Chains { seed: n as u64, change_interval: 3 },
            ];
            let mut listed = seeded.map(Scheduler::new);
            let mut list_free = seeded.map(Scheduler::new);
            let mut ties = Vec::new();
            for round in 0..400 {
                // Round 0 fills every leaf; after that one leaf changes.
                let touched: Vec<usize> =
                    if round == 0 { (0..n).collect() } else { vec![rng.below(n as u64) as usize] };
                for p in touched {
                    cache[p] = random_cands(&mut rng);
                    tree.set(p as u32, cache[p].key(p as u32));
                }
                let list: Vec<(Time, u32, Action)> = cache
                    .iter()
                    .enumerate()
                    .flat_map(|(p, c)| c.iter().map(move |(t, a)| (t, p as u32, a)))
                    .collect();
                let Some((t, p)) = tree.root().and_then(unpack) else {
                    assert!(list.is_empty(), "n={n} round {round}: empty root over {list:?}");
                    continue;
                };
                let picked = list[sched.pick(&list, |c| (c.0, c.1))];
                let action = cache[p as usize].first_min().expect("a keyed leaf has a candidate").1;
                assert_eq!((t, p, action), picked, "n={n} round {round}: {list:?}");
                let root = tree.root().expect("a root");
                for (a, b) in listed.iter_mut().zip(&mut list_free) {
                    let (_, q, act) = list[a.pick(&list, |c| (c.0, c.1))];
                    let got = pick_seeded(b, &cache, root, &mut ties);
                    assert_eq!(got, (q, act), "n={n} round {round} {:?}: {list:?}", a.policy());
                    // The next 64 picks agree, so both left the same draws.
                    let (mut a, mut b) = (a.clone(), b.clone());
                    for _ in 0..64 {
                        let (_, q, act) = list[a.pick(&list, |c| (c.0, c.1))];
                        let got = pick_seeded(&mut b, &cache, root, &mut ties);
                        assert_eq!(got, (q, act), "n={n} round {round} {:?}", a.policy());
                    }
                }
                for q in 0..n as u32 {
                    let others = list.iter().filter(|c| c.1 != q).map(|c| (c.0, c.1)).min();
                    let got = unpack(tree.runner_up(q));
                    assert_eq!(got, others, "n={n} round {round} P{q}: {list:?}");
                }
            }
        }
    }

    /// All 64 leaves, with times drawn from the last few cycles a key can
    /// hold: the root and every runner-up are the minimum under tuple
    /// order, found by brute force, so packing never reorders two keys.
    #[test]
    fn packed_keys_order_like_tuples_up_to_the_limit() {
        let n = MAX_PROCS as usize;
        let mut rng = SplitMix64::new(32);
        let mut tree = MinTree::new(n);
        let mut leaves: Vec<Option<(Time, u32)>> = vec![None; n];
        for round in 0..2_000 {
            let p = rng.below(n as u64) as u32;
            leaves[p as usize] = match rng.below(4) {
                0 => None,
                // Near zero too, so both ends of the range meet in a tree.
                1 => Some((Time::from_cycles(rng.below(3)), p)),
                _ => Some((Time::from_cycles(KEY_CYCLES - 1 - rng.below(3)), p)),
            };
            tree.set(p, leaves[p as usize].map_or(EMPTY, |(t, p)| key(t, p)));
            let min = leaves.iter().flatten().min().copied();
            assert_eq!(tree.root().and_then(unpack), min, "round {round}: {leaves:?}");
            for q in 0..n as u32 {
                let others = leaves.iter().flatten().filter(|l| l.1 != q).min().copied();
                assert_eq!(unpack(tree.runner_up(q)), others, "round {round} P{q}");
            }
        }
        let last = key(Time::from_cycles(KEY_CYCLES - 1), MAX_PROCS - 1);
        assert!(last < EMPTY, "the latest key is still a key");
    }

    #[test]
    #[should_panic(expected = "past the schedule keys' limit")]
    fn a_time_past_the_limit_panics_instead_of_wrapping() {
        key(Time::from_cycles(KEY_CYCLES), 0);
    }
}
