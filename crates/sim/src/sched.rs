//! Pluggable schedule policies for the engine's action selection.
//!
//! The protocol engine repeatedly chooses the next action among candidates
//! of the form `(simulated time, processor)`. Conservative causality only
//! requires executing a candidate with the *minimum* time — which candidate
//! to run among equal-time ties is a free choice, and the deterministic
//! `(time, proc)` order explores exactly one interleaving per program.
//!
//! A [`Scheduler`] perturbs that choice to explore the schedule space:
//!
//! * [`SchedulePolicy::Deterministic`] — today's behavior, bit-exact: the
//!   first candidate with minimal `(time, proc)` wins and messages incur no
//!   extra latency.
//! * [`SchedulePolicy::SeededRandom`] — equal-time ties are broken uniformly
//!   at random from a seeded [`SplitMix64`], and every message send may be
//!   delayed by a small random jitter (legal: network latency is
//!   unspecified), which reorders message deliveries within causal bounds.
//! * [`SchedulePolicy::Chains`] — PCT-style priority schedules for small
//!   configurations: each processor gets a random priority; the highest-
//!   priority processor among the minimal-time candidates runs, and at
//!   seeded change points one processor is demoted to the lowest priority.
//!
//! All three are deterministic functions of `(policy, seed)` and the
//! program, so any failure found under a perturbed schedule replays
//! bit-exactly from its seed.

use crate::rng::SplitMix64;
use crate::time::Time;

/// How the engine breaks scheduling ties and jitters message latency.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulePolicy {
    /// Smallest `(time, proc)` wins; no jitter. Bit-exact with the engine's
    /// historical behavior.
    #[default]
    Deterministic,
    /// Seeded uniform tie-breaking among equal-time candidates plus seeded
    /// message-latency jitter.
    SeededRandom {
        /// Seed; equal seeds reproduce the schedule bit-exactly.
        seed: u64,
    },
    /// PCT-style priority schedule: random per-processor priorities with
    /// seeded priority change points.
    Chains {
        /// Seed; equal seeds reproduce the schedule bit-exactly.
        seed: u64,
        /// Scheduling steps between priority change points (0 = never).
        change_interval: u32,
    },
}

/// Maximum extra cycles of seeded message-latency jitter.
const JITTER_MAX_CYCLES: u64 = 96;

/// Runtime state of a schedule policy across one run.
#[derive(Clone, Debug)]
pub struct Scheduler {
    policy: SchedulePolicy,
    rng: SplitMix64,
    /// Per-processor priorities (Chains only); higher value = runs first.
    priorities: Vec<u64>,
    steps: u64,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new(SchedulePolicy::Deterministic)
    }
}

impl Scheduler {
    /// Creates the runtime state for `policy`.
    pub fn new(policy: SchedulePolicy) -> Self {
        let seed = match policy {
            SchedulePolicy::Deterministic => 0,
            SchedulePolicy::SeededRandom { seed } | SchedulePolicy::Chains { seed, .. } => seed,
        };
        Scheduler {
            policy,
            rng: SplitMix64::new(seed ^ 0xC0FF_EE00_5EED_0001),
            priorities: Vec::new(),
            steps: 0,
        }
    }

    /// The policy this scheduler runs.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Whether this scheduler perturbs anything (false for deterministic,
    /// letting hot paths skip work entirely).
    pub fn perturbs(&self) -> bool {
        self.policy != SchedulePolicy::Deterministic
    }

    /// Picks the index of the candidate to run next. `key` projects a
    /// candidate to its `(time, proc)` pair.
    ///
    /// Only candidates whose time equals the minimal candidate time are
    /// eligible (causality); the policy chooses among those.
    ///
    /// # Panics
    ///
    /// Panics if `cands` is empty.
    pub fn pick<T>(&mut self, cands: &[T], key: impl Fn(&T) -> (Time, u32)) -> usize {
        assert!(!cands.is_empty(), "scheduling with no candidates");
        self.steps += 1;
        match self.policy {
            SchedulePolicy::Deterministic => {
                let mut best = 0usize;
                let mut best_key = key(&cands[0]);
                for (i, c) in cands.iter().enumerate().skip(1) {
                    let k = key(c);
                    if k < best_key {
                        best = i;
                        best_key = k;
                    }
                }
                best
            }
            SchedulePolicy::SeededRandom { .. } => {
                let t_min = cands.iter().map(|c| key(c).0).min().expect("nonempty");
                let n_ties = cands.iter().filter(|c| key(c).0 == t_min).count() as u64;
                let pick = self.rng.below(n_ties) as usize;
                cands
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| key(c).0 == t_min)
                    .nth(pick)
                    .expect("tie index in range")
                    .0
            }
            SchedulePolicy::Chains { change_interval, .. } => {
                let t_min = cands.iter().map(|c| key(c).0).min().expect("nonempty");
                // Lazily size the priority table to the processors seen.
                let max_proc = cands.iter().map(|c| key(c).1).max().expect("nonempty") as usize;
                while self.priorities.len() <= max_proc {
                    self.priorities.push(self.rng.next_u64() | 1);
                }
                if change_interval > 0 && self.steps.is_multiple_of(u64::from(change_interval)) {
                    // Priority change point: demote one random processor.
                    let victim = self.rng.below(self.priorities.len() as u64) as usize;
                    self.priorities[victim] = 0;
                    // Re-randomize zeros occasionally so demotion is not
                    // absorbing across the whole run.
                    if self.steps.is_multiple_of(u64::from(change_interval) * 8) {
                        for pr in &mut self.priorities {
                            if *pr == 0 {
                                *pr = self.rng.next_u64() | 1;
                            }
                        }
                    }
                }
                cands
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| key(c).0 == t_min)
                    .max_by_key(|(i, c)| (self.priorities[key(c).1 as usize], usize::MAX - *i))
                    .expect("nonempty tie set")
                    .0
            }
        }
    }

    /// Counts one scheduling step chosen without [`Scheduler::pick`]. A
    /// caller that keeps its candidates in a structure ordered by
    /// `(time, proc)` can read the deterministic policy's choice from it
    /// directly; the step still counts toward [`Scheduler::steps`].
    pub fn count_step(&mut self) {
        self.steps += 1;
    }

    /// Extra cycles of message latency for the next send (always 0 under
    /// the deterministic policy).
    pub fn send_jitter(&mut self) -> u64 {
        match self.policy {
            SchedulePolicy::Deterministic => 0,
            SchedulePolicy::SeededRandom { .. } | SchedulePolicy::Chains { .. } => {
                self.rng.below(JITTER_MAX_CYCLES + 1)
            }
        }
    }

    /// Scheduling steps taken so far (the checker's liveness budget unit).
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(pairs: &[(u64, u32)]) -> Vec<(Time, u32)> {
        pairs.iter().map(|&(t, p)| (Time::from_cycles(t), p)).collect()
    }

    #[test]
    fn deterministic_picks_first_minimal_pair() {
        let mut s = Scheduler::new(SchedulePolicy::Deterministic);
        let c = cands(&[(10, 3), (5, 2), (5, 1), (7, 0)]);
        assert_eq!(s.pick(&c, |&(t, p)| (t, p)), 2);
        // Full tie: the first occurrence wins (matching the engine's
        // historical strict-less-than fold).
        let c = cands(&[(5, 1), (5, 1)]);
        assert_eq!(s.pick(&c, |&(t, p)| (t, p)), 0);
        assert_eq!(s.send_jitter(), 0);
    }

    #[test]
    fn seeded_random_is_reproducible_and_time_safe() {
        let c = cands(&[(5, 0), (5, 1), (5, 2), (9, 3)]);
        let picks = |seed| {
            let mut s = Scheduler::new(SchedulePolicy::SeededRandom { seed });
            (0..64).map(|_| s.pick(&c, |&(t, p)| (t, p))).collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7), "same seed, same schedule");
        assert_ne!(picks(7), picks(8), "different seeds diverge");
        let mut s = Scheduler::new(SchedulePolicy::SeededRandom { seed: 3 });
        for _ in 0..200 {
            let i = s.pick(&c, |&(t, p)| (t, p));
            assert!(i < 3, "a non-minimal-time candidate was scheduled");
        }
    }

    #[test]
    fn seeded_random_explores_all_ties() {
        let c = cands(&[(5, 0), (5, 1), (5, 2)]);
        let mut seen = [false; 3];
        let mut s = Scheduler::new(SchedulePolicy::SeededRandom { seed: 42 });
        for _ in 0..100 {
            seen[s.pick(&c, |&(t, p)| (t, p))] = true;
        }
        assert_eq!(seen, [true; 3], "every tie should be reachable");
    }

    #[test]
    fn chains_respects_minimal_time_and_reproduces() {
        let c = cands(&[(5, 0), (5, 1), (6, 2)]);
        let picks = |seed| {
            let mut s = Scheduler::new(SchedulePolicy::Chains { seed, change_interval: 3 });
            (0..64).map(|_| s.pick(&c, |&(t, p)| (t, p))).collect::<Vec<_>>()
        };
        assert_eq!(picks(1), picks(1));
        for i in picks(1) {
            assert!(i < 2, "chains scheduled a non-minimal-time candidate");
        }
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let mut a = Scheduler::new(SchedulePolicy::SeededRandom { seed: 9 });
        let mut b = Scheduler::new(SchedulePolicy::SeededRandom { seed: 9 });
        for _ in 0..500 {
            let j = a.send_jitter();
            assert_eq!(j, b.send_jitter());
            assert!(j <= JITTER_MAX_CYCLES);
        }
    }
}
