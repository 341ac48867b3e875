//! Protocol message dispatch: coherence messages step the transition
//! table (`rows.rs`); the application lock and barrier managers; and the
//! post-run audit.

use shasta_stats::TimeCat;

use crate::protocol::config::Mode;
use crate::protocol::machine::{grant, Machine, MAX_SPARE_BUFS};
use crate::protocol::msg::ProtoMsg;
use crate::protocol::rows::Input;
use crate::state::LineState;

impl Machine {
    /// Dispatches one incoming protocol message at processor `p`.
    pub(crate) fn handle_message(&mut self, p: u32, src: u32, msg: ProtoMsg) {
        match msg {
            ProtoMsg::LockAcq { lock } => self.handle_lock_acq(p, src, lock),
            ProtoMsg::LockRel { lock } => self.handle_lock_rel(p, src, lock),
            ProtoMsg::LockGrant { lock } => {
                self.pay(p, TimeCat::Message, self.cost.ack_handler_cycles);
                grant(&mut self.lock_grants[p as usize], lock);
                self.bump_wake(p, p);
            }
            ProtoMsg::BarrierArrive { id } => self.handle_barrier_arrive(p, src, id),
            ProtoMsg::BarrierGo { id } => {
                self.pay(p, TimeCat::Message, self.cost.ack_handler_cycles);
                grant(&mut self.barrier_done[p as usize], id);
                self.bump_wake(p, p);
            }
            msg => {
                let block = msg.block().expect("a coherence message names its block");
                self.step_row(p, block, Input::Msg { src, msg });
            }
        }
    }

    // ------------------------------------------------------------------
    // Application synchronization managers
    // ------------------------------------------------------------------

    fn handle_lock_acq(&mut self, mgr: u32, src: u32, lock: u32) {
        self.pay(mgr, TimeCat::Message, self.cost.lock_mgr_cycles);
        let info = self.locks.entry(lock).or_default();
        if info.holder.is_none() {
            info.holder = Some(src);
            self.post(mgr, src, ProtoMsg::LockGrant { lock });
        } else {
            info.queue.push_back(src);
        }
    }

    fn handle_lock_rel(&mut self, mgr: u32, src: u32, lock: u32) {
        self.pay(mgr, TimeCat::Message, self.cost.lock_mgr_cycles);
        let info = self.locks.get_mut(&lock).expect("release of unknown lock");
        assert_eq!(info.holder, Some(src), "lock released by non-holder");
        info.holder = info.queue.pop_front();
        if let Some(next) = info.holder {
            self.post(mgr, next, ProtoMsg::LockGrant { lock });
        }
    }

    fn handle_barrier_arrive(&mut self, mgr: u32, src: u32, id: u32) {
        debug_assert_eq!(mgr, 0, "barriers are managed at processor 0");
        self.pay(mgr, TimeCat::Message, self.cost.barrier_mgr_cycles);
        let procs = self.barrier_count();
        let info = self.barriers.entry(id).or_default();
        info.arrived += 1;
        info.waiting.push(src);
        if info.arrived == procs {
            info.arrived = 0;
            // The list keeps its room for the next episode: releasing a
            // waiter never arrives at a barrier, so nothing joins it meanwhile.
            let mut waiting = std::mem::take(&mut info.waiting);
            for &w in &waiting {
                self.post(mgr, w, ProtoMsg::BarrierGo { id });
            }
            waiting.clear();
            self.barriers.get_mut(&id).expect("entered above").waiting = waiting;
        }
    }

    /// Keeps an emptied data buffer for the next data reply's copy, while
    /// the spare list has room.
    pub(crate) fn give_back(&mut self, mut buf: Vec<u8>) {
        if self.spare_bufs.len() < MAX_SPARE_BUFS {
            buf.clear();
            self.spare_bufs.push(buf);
        }
    }

    // ------------------------------------------------------------------
    // Post-run audit
    // ------------------------------------------------------------------

    /// Verifies protocol invariants after a run has drained: no pending
    /// state anywhere, directory/state-table agreement, and identical data
    /// in every valid copy of every block.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub(crate) fn audit(&self) {
        if self.cfg.mode == Mode::Hardware {
            return;
        }
        for (v, t) in self.miss.iter().enumerate() {
            assert!(t.is_empty(), "vnode {v}: miss table not empty after run");
            assert!(self.downgrades[v].is_empty(), "vnode {v}: downgrade in progress after run");
            assert!(self.lingering[v].is_empty(), "vnode {v}: lingering acks after run");
            assert_eq!(
                self.epochs[v].outstanding_total(),
                0,
                "vnode {v}: outstanding stores after run"
            );
        }
        for (p, n) in self.outstanding_stores.iter().enumerate() {
            assert_eq!(*n, 0, "P{p}: outstanding store count nonzero after run");
        }
        for (start, e) in self.dir.iter() {
            assert!(
                !e.busy,
                "block {start:#x} at home {}: busy after run",
                self.space.home_of(start)
            );
            assert!(e.queue.is_empty(), "block {start:#x}: queued requests after run");
            let block = self.space.block_of(start).expect("registered block");
            if e.exclusive {
                let ov = self.vnode(e.owner);
                assert_eq!(
                    self.block_state(ov, block),
                    LineState::Exclusive,
                    "block {start:#x}: owner node not exclusive"
                );
                for v in 0..self.mems.len() {
                    if v != ov {
                        assert_eq!(
                            self.block_state(v, block),
                            LineState::Invalid,
                            "block {start:#x}: stale copy on vnode {v}, dir owner P{}",
                            e.owner
                        );
                    }
                }
            } else {
                let sharer_vnodes: u64 =
                    e.sharer_list().fold(0, |mask, s| mask | 1 << self.vnode(s));
                let mut reference: Option<&[u8]> = None;
                for v in 0..self.mems.len() {
                    let st = self.block_state(v, block);
                    if sharer_vnodes & 1 << v != 0 {
                        assert!(st.readable(), "block {start:#x}: sharer vnode {v} state {st:?}");
                        let bytes = self.mems[v].read(start, block.len);
                        match reference {
                            None => reference = Some(bytes),
                            Some(r) => assert_eq!(
                                r, bytes,
                                "block {start:#x}: divergent copies between sharer nodes"
                            ),
                        }
                    } else {
                        assert_eq!(
                            st,
                            LineState::Invalid,
                            "block {start:#x}: non-sharer vnode {v} state {st:?}"
                        );
                    }
                }
            }
        }
    }
}
