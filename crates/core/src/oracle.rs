//! Coherence oracles for the schedule-exploration checker.
//!
//! When enabled (see [`Machine::enable_oracle`]), the engine checks three
//! families of invariants while a run executes, independent of the
//! schedule policy in effect:
//!
//! * **Shadow sequential memory** — a plain byte image updated at every
//!   *committed* store in engine execution order and compared at every
//!   completed load. For data-race-free programs release consistency is
//!   indistinguishable from sequential consistency, so a mismatch is a
//!   protocol defect — a lost store (the protocol dropped a committed
//!   write) or a stale read (a load observed a copy that should have been
//!   invalidated). Checker kernels must therefore be DRF.
//! * **Single-writer exclusivity** — at most one virtual node holds a block
//!   in `Exclusive` state at any instant.
//! * **Private-state ceilings** (SMP mode) — no processor's private state
//!   table grants more access than its node's shared state justifies: the
//!   inline check reads *only* the private table, so an over-privileged
//!   entry is exactly the race of Figure 2 that downgrade messages exist to
//!   prevent.
//!
//! Liveness is checked separately through the engine's scheduling-step
//! budget ([`Machine::set_step_limit`]): a protocol that drops a downgrade
//! completion does not deadlock-panic promptly (processors poll forever),
//! but it does exhaust the budget.
//!
//! All violations panic; the checker harness catches the panic, records the
//! `(config, seed)` pair, and replays it.
//!
//! [`Machine::enable_oracle`]: crate::protocol::Machine::enable_oracle
//! [`Machine::set_step_limit`]: crate::protocol::Machine::set_step_limit

use crate::api::{Req, Resp};
use crate::protocol::config::Mode;
use crate::protocol::machine::Machine;
use crate::space::{Addr, Block};
use crate::state::{LineState, PrivState};

/// Oracle state carried by a [`Machine`] during a checked run.
#[derive(Debug)]
pub struct Oracle {
    /// Sequential shadow of the allocated part of the shared heap, updated
    /// in engine commit order.
    shadow: Vec<u8>,
    /// Completed loads/stores observed (reported in violation dumps).
    pub observed_ops: u64,
}

impl Oracle {
    /// Creates an oracle whose shadow covers `[0, mapped_bytes)`, all zeros
    /// (matching `SetupCtx::malloc`).
    pub fn new(mapped_bytes: u64) -> Self {
        Oracle { shadow: vec![0; mapped_bytes as usize], observed_ops: 0 }
    }

    /// Extends the shadow with zeros to cover `[0, end)`: the machine maps it
    /// together with the node images as shared memory is allocated, so the
    /// shadow is allocation-sized whichever of `enable_oracle` and `malloc`
    /// comes first. Never shrinks.
    pub(crate) fn map_to(&mut self, end: Addr) {
        if end as usize > self.shadow.len() {
            self.shadow.resize(end as usize, 0);
        }
    }

    /// Mirrors an initialization or committed application write.
    pub fn shadow_write(&mut self, addr: Addr, data: &[u8]) {
        self.shadow[addr as usize..addr as usize + data.len()].copy_from_slice(data);
    }

    fn shadow_read(&self, addr: Addr, len: u64) -> &[u8] {
        &self.shadow[addr as usize..(addr + len) as usize]
    }

    fn shadow_scalar(&self, addr: Addr, size: u8) -> u64 {
        let mut buf = [0u8; 8];
        buf[..size as usize].copy_from_slice(self.shadow_read(addr, size as u64));
        u64::from_le_bytes(buf)
    }

    fn shadow_write_scalar(&mut self, addr: Addr, size: u8, value: u64) {
        let bytes = value.to_le_bytes();
        self.shadow_write(addr, &bytes[..size as usize]);
    }
}

impl Machine {
    /// Observes one completed application operation: updates/compares the
    /// shadow memory and checks the per-block invariants of every block the
    /// operation touched. Called by the engine only when an oracle is
    /// enabled; never in hardware mode (there is no protocol to check).
    pub(crate) fn oracle_observe(&mut self, p: u32, op: &Req, resp: &Resp) {
        if self.cfg.mode == Mode::Hardware {
            return;
        }
        let Some(oracle) = self.oracle.as_mut() else { return };
        oracle.observed_ops += 1;
        match (op, resp) {
            (Req::Load { addr, size, .. }, Resp::Value(got)) => {
                let want = self.oracle.as_ref().expect("checked above").shadow_scalar(*addr, *size);
                if *got != want {
                    self.oracle_violation(
                        p,
                        format!(
                            "stale read: P{p} loaded {got:#x} from {addr:#x} (size {size}), \
                             shadow sequential memory holds {want:#x}"
                        ),
                    );
                }
            }
            (Req::Store { addr, size, value, .. }, _) => {
                self.oracle
                    .as_mut()
                    .expect("checked above")
                    .shadow_write_scalar(*addr, *size, *value);
            }
            (Req::ReadRange { addr, len, .. }, Resp::Data(got)) => {
                let want = self.oracle.as_ref().expect("checked above").shadow_read(*addr, *len);
                if got.as_slice() != want {
                    let off = got.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0) as u64;
                    self.oracle_violation(
                        p,
                        format!(
                            "stale range read: P{p} read {len} bytes at {addr:#x}; first \
                             divergence at {:#x} (got {:#x}, shadow {:#x})",
                            addr + off,
                            got[off as usize],
                            want[off as usize]
                        ),
                    );
                }
            }
            (Req::WriteRange { addr, data, .. }, _) => {
                self.oracle.as_mut().expect("checked above").shadow_write(*addr, data);
            }
            _ => {}
        }
        if let Some((addr, len)) = op.block_span() {
            for block in self.space.blocks_in(addr, len) {
                self.oracle_check_block(p, block);
            }
        }
    }

    /// Per-block invariants checked at every observation point.
    pub(crate) fn oracle_check_block(&self, p: u32, block: Block) {
        // Single-writer exclusivity across virtual nodes, counted; the
        // nodes are listed only for the diagnosis.
        let holds = |v: &usize| self.block_state(*v, block) == LineState::Exclusive;
        if (0..self.mems.len()).filter(holds).count() > 1 {
            let exclusive: Vec<usize> = (0..self.mems.len()).filter(holds).collect();
            self.oracle_violation(
                p,
                format!(
                    "single-writer violation: block {:#x} is Exclusive on virtual nodes \
                     {exclusive:?} simultaneously",
                    block.start
                ),
            );
        }
        // Private-state ceilings (the inline check consults only the
        // private table, so it must never exceed what the node state
        // justifies).
        if self.cfg.mode != Mode::Smp {
            return;
        }
        for q in 0..self.topo.procs() {
            let ps = self.priv_state(q, block);
            let v = self.vnode(q);
            let ceiling = self.priv_ceiling_for(v, block);
            if ps > ceiling {
                self.oracle_violation(
                    p,
                    format!(
                        "private-state violation: P{q} holds {ps:?} for block {:#x} but its \
                         node state {:?} permits at most {ceiling:?}",
                        block.start,
                        self.block_state(v, block)
                    ),
                );
            }
        }
    }

    /// Most privileged private state any processor of node `v` may hold for
    /// `block` given the node's shared state.
    fn priv_ceiling_for(&self, v: usize, block: Block) -> PrivState {
        match self.block_state(v, block) {
            LineState::Exclusive => PrivState::Exclusive,
            LineState::Shared => PrivState::Shared,
            LineState::Invalid => PrivState::Invalid,
            // Mid-downgrade, processors that have not yet handled their
            // downgrade message legitimately hold the prior state (§3.4.3).
            LineState::PendingDgShared | LineState::PendingDgInvalid => {
                match self.downgrades[v].iter().find(|d| d.block_start == block.start) {
                    Some(d) if d.prior == LineState::Exclusive => PrivState::Exclusive,
                    Some(_) => PrivState::Shared,
                    None => PrivState::Invalid,
                }
            }
            // Mid-miss: an upgrade keeps the old shared copy readable; a
            // read or write miss starts from an invalid copy.
            LineState::PendingRead | LineState::PendingWrite => {
                match self.miss[v].get(block.start).map(|e| e.kind) {
                    Some(crate::misstable::ReqKind::Upgrade) => PrivState::Shared,
                    _ => PrivState::Invalid,
                }
            }
        }
    }

    /// Full-machine oracle sweep, valid only at quiescent moments (no
    /// in-flight messages or open transactions): runs the post-run audit's
    /// directory/state agreement plus the per-block oracle invariants over
    /// every registered block.
    pub(crate) fn oracle_quiescent_sweep(&self) {
        self.audit();
        for (start, _) in self.dir.iter() {
            let block = self.space.block_of(start).expect("registered block");
            self.oracle_check_block(u32::MAX, block);
        }
    }

    /// Whether the machine is quiescent: nothing in flight, no open
    /// transactions, stores all retired.
    pub(crate) fn oracle_quiescent(&self) -> bool {
        self.net.in_flight() == 0
            && self.outstanding_stores.iter().all(|&n| n == 0)
            && (0..self.mems.len()).all(|v| {
                self.miss[v].is_empty()
                    && self.downgrades[v].is_empty()
                    && self.lingering[v].is_empty()
            })
    }

    /// Reports an oracle violation: panics with the violation and the
    /// observing processor (the checker formats these into a replayable
    /// counterexample and attaches the events that led here).
    pub(crate) fn oracle_violation(&self, p: u32, what: String) -> ! {
        let ops = self.oracle.as_ref().map(|o| o.observed_ops).unwrap_or(0);
        let faults = if self.net.fault_active() {
            format!("\n  injected faults: {}", self.net.fault_counts())
        } else {
            String::new()
        };
        panic!(
            "coherence oracle violation at P{p} (after {ops} observed ops, {} sched steps): \
             {what}{faults}",
            self.sched.steps(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_scalar_roundtrip() {
        let mut o = Oracle::new(4096);
        o.shadow_write_scalar(128, 8, 0x0102_0304_0506_0708);
        assert_eq!(o.shadow_scalar(128, 8), 0x0102_0304_0506_0708);
        assert_eq!(o.shadow_scalar(128, 4), 0x0506_0708);
        o.shadow_write(200, &[7, 8, 9]);
        assert_eq!(o.shadow_read(200, 3), &[7, 8, 9]);
        assert_eq!(o.shadow_scalar(0, 8), 0, "untouched shadow is zeros");
    }
}
