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

use shasta_sim::Time;

/// What the scheduler decided to do next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Action {
    /// Execute the processor's pending operation.
    Op,
    /// Resume a stalled processor whose condition is satisfied.
    Resume,
    /// Deliver the earliest message to a stalled/finished processor.
    Msg,
}

/// One processor's schedulable actions, at most two: `Resume` then `Msg`
/// for a stalled processor, otherwise one `Op`, or a finished processor's
/// `Msg`. The order is load-bearing: the deterministic policy breaks a key
/// tie by taking the first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Cands {
    len: u8,
    items: [(Time, Action); 2],
}

impl Cands {
    /// No schedulable action.
    pub(crate) const NONE: Cands = Cands { len: 0, items: [(Time::ZERO, Action::Op); 2] };

    /// Appends an action at time `t`.
    #[inline]
    pub(crate) fn push(&mut self, t: Time, action: Action) {
        self.items[self.len as usize] = (t, action);
        self.len += 1;
    }

    /// The actions, in push order.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[(Time, Action)] {
        &self.items[..self.len as usize]
    }

    /// The earliest action; the first pushed wins a tie.
    #[inline]
    pub(crate) fn first_min(&self) -> Option<(Time, Action)> {
        match self.len {
            0 => None,
            1 => Some(self.items[0]),
            _ if self.items[1].0 < self.items[0].0 => Some(self.items[1]),
            _ => Some(self.items[0]),
        }
    }
}

/// A `(time, proc)` scheduling key.
pub(crate) type Key = (Time, u32);

/// An empty leaf: later than every real key.
const EMPTY: Key = (Time::MAX, u32::MAX);

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

    /// Sets processor `p`'s key (`None`: no candidate).
    #[inline]
    pub(crate) fn set(&mut self, p: u32, key: Option<Key>) {
        let mut i = self.base + p as usize;
        self.nodes[i] = key.unwrap_or(EMPTY);
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

    /// The smallest key over every processor but `p`: the minimum of the
    /// siblings met on the walk from `p`'s leaf to the root.
    #[inline]
    pub(crate) fn runner_up(&self, p: u32) -> Option<Key> {
        let mut i = self.base + p as usize;
        let mut min = EMPTY;
        while i > 1 {
            min = min.min(self.nodes[i ^ 1]);
            i >>= 1;
        }
        Some(min).filter(|&k| k != EMPTY)
    }
}

#[cfg(test)]
mod tests {
    use shasta_sim::{Scheduler, SplitMix64};

    use super::*;

    fn random_cands(rng: &mut SplitMix64) -> Cands {
        let mut c = Cands::NONE;
        let shape = rng.below(5);
        // Few distinct times, so key ties within and across processors are common.
        let mut t = || Time::from_cycles(rng.below(6));
        match shape {
            0 => {}
            1 => c.push(t(), Action::Op),
            2 => c.push(t(), Action::Msg),
            3 => c.push(t(), Action::Resume),
            _ => {
                c.push(t(), Action::Resume);
                c.push(t(), Action::Msg);
            }
        }
        c
    }

    /// Over random candidate sets and random single-leaf updates, the root
    /// is what the deterministic `Scheduler::pick` picks from the same
    /// candidates listed in processor order, and the runner-up of every
    /// processor is the minimum over all the others' candidates.
    #[test]
    fn root_is_the_deterministic_pick_and_runner_up_the_others_minimum() {
        let mut rng = SplitMix64::new(28);
        for n in [1usize, 2, 3, 4, 5, 8, 13, 16] {
            let mut cache = vec![Cands::NONE; n];
            let mut tree = MinTree::new(n);
            let mut sched = Scheduler::default();
            for round in 0..400 {
                // Round 0 fills every leaf; after that one leaf changes.
                let touched: Vec<usize> =
                    if round == 0 { (0..n).collect() } else { vec![rng.below(n as u64) as usize] };
                for p in touched {
                    cache[p] = random_cands(&mut rng);
                    tree.set(p as u32, cache[p].first_min().map(|(t, _)| (t, p as u32)));
                }
                let list: Vec<(Time, u32, Action)> = cache
                    .iter()
                    .enumerate()
                    .flat_map(|(p, c)| c.as_slice().iter().map(move |&(t, a)| (t, p as u32, a)))
                    .collect();
                let Some((t, p)) = tree.root() else {
                    assert!(list.is_empty(), "n={n} round {round}: empty root over {list:?}");
                    continue;
                };
                let picked = list[sched.pick(&list, |c| (c.0, c.1))];
                let action = cache[p as usize].first_min().expect("a keyed leaf has a candidate").1;
                assert_eq!((t, p, action), picked, "n={n} round {round}: {list:?}");
                for q in 0..n as u32 {
                    let others = list.iter().filter(|c| c.1 != q).map(|c| (c.0, c.1)).min();
                    assert_eq!(tree.runner_up(q), others, "n={n} round {round} P{q}: {list:?}");
                }
            }
        }
    }
}
