//! Distributed task queues with stealing, shared by Raytrace and Volrend.
//!
//! Each processor owns a queue of task ids in shared memory, guarded by an
//! application lock. A processor pops from its own queue until empty, then
//! scans the other queues and steals. Queue heads are classic migratory
//! data: under SMP-Shasta they bounce between node mates cheaply and only
//! occasionally cross nodes.

use std::rc::Rc;

use shasta_core::api::Dsm;
use shasta_core::protocol::SetupCtx;
use shasta_core::space::{Addr, BlockHint, HomeHint};

/// Shared-memory task queues, one per processor.
#[derive(Clone, Debug)]
pub struct TaskQueues {
    bases: Rc<Vec<Addr>>,
    lock_base: u32,
    procs: u32,
}

impl TaskQueues {
    /// Allocates and seeds one queue per processor. `tasks[p]` are the task
    /// ids initially assigned to processor `p`. `lock_base` reserves lock
    /// ids `lock_base..lock_base + procs`.
    pub fn setup(s: &mut SetupCtx<'_>, tasks: &[Vec<u64>], lock_base: u32) -> TaskQueues {
        let procs = tasks.len() as u32;
        let mut bases = Vec::with_capacity(tasks.len());
        for (p, list) in tasks.iter().enumerate() {
            let bytes = 8 + 8 * list.len() as u64;
            let base = s.malloc_labeled(
                bytes.max(64),
                BlockHint::Line,
                HomeHint::Explicit(p as u32),
                "taskq.queue",
            );
            s.write_u64(base, list.len() as u64);
            for (i, &t) in list.iter().enumerate() {
                s.write_u64(base + 8 + 8 * i as u64, t);
            }
            bases.push(base);
        }
        TaskQueues { bases: Rc::new(bases), lock_base, procs }
    }

    fn pop(&self, dsm: &mut Dsm, q: u32) -> Option<u64> {
        let lock = self.lock_base + q;
        let base = self.bases[q as usize];
        dsm.acquire(lock);
        let len = dsm.load_u64(base);
        let task = if len > 0 {
            let t = dsm.load_u64(base + 8 * len);
            dsm.store_u64(base, len - 1);
            Some(t)
        } else {
            None
        };
        dsm.release(lock);
        task
    }

    /// Pops the next task: own queue first, then steal round-robin.
    /// `None` means every queue was observed empty (tasks are only seeded
    /// at setup, so this is terminal).
    pub fn next_task(&self, dsm: &mut Dsm, me: u32) -> Option<u64> {
        for k in 0..self.procs {
            let q = (me + k) % self.procs;
            if let Some(t) = self.pop(dsm, q) {
                return Some(t);
            }
        }
        None
    }
}

/// Distributes `total` task ids round-robin over `procs` initial queues.
pub fn deal_tasks(total: u64, procs: u32) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); procs as usize];
    for t in 0..total {
        out[(t % procs as u64) as usize].push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dealing_partitions_all_tasks() {
        let dealt = deal_tasks(10, 3);
        let mut all: Vec<u64> = dealt.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert_eq!(dealt[0].len(), 4);
        assert_eq!(dealt[1].len(), 3);
    }
}
