//! Protocol message handlers: the home/owner request machinery, the
//! downgrade protocol of §3.4.3, invalidations and acknowledgements, data
//! replies with store merging, and the application lock/barrier managers.

use shasta_obs::DowngradeAction;
use shasta_stats::TimeCat;

use crate::directory::procs_in;
use crate::misstable::{QueuedFwd, ReqKind};
use crate::protocol::config::Mode;
use crate::protocol::engine::{miss_kind_of, priv_ceiling};
use crate::protocol::machine::{grant, DowngradeEntry, LingeringAcks, Machine, MAX_SPARE_BUFS};
use crate::protocol::msg::{DirUpdate, DowngradeTo, ProtoMsg};
use crate::space::Block;
use crate::state::LineState;

impl Machine {
    /// Dispatches one incoming protocol message at processor `p`.
    pub(crate) fn handle_message(&mut self, p: u32, src: u32, msg: ProtoMsg) {
        match msg {
            ProtoMsg::ReadReq { block } => {
                self.handle_request_delivery(p, src, ReqKind::Read, block)
            }
            ProtoMsg::WriteReq { block } => {
                self.handle_request_delivery(p, src, ReqKind::Write, block)
            }
            ProtoMsg::UpgradeReq { block } => {
                self.handle_request_delivery(p, src, ReqKind::Upgrade, block)
            }
            ProtoMsg::FwdRead { block, requester, owner_exclusive } => {
                self.handle_fwd_read(p, block, requester, owner_exclusive)
            }
            ProtoMsg::FwdWrite { block, requester, acks_expected, owner_exclusive } => {
                self.handle_fwd_write(p, block, requester, acks_expected, owner_exclusive)
            }
            ProtoMsg::ReadReply { block, data } => self.handle_read_reply(p, src, block, data),
            ProtoMsg::WriteReply { block, data, acks_expected } => {
                self.handle_write_reply(p, src, block, data, acks_expected)
            }
            ProtoMsg::UpgradeReply { block, acks_expected } => {
                self.handle_upgrade_reply(p, src, block, acks_expected)
            }
            ProtoMsg::InvalidateReq { block, ack_to } => self.handle_invalidate(p, block, ack_to),
            ProtoMsg::InvAck { block } => self.handle_inv_ack(p, block),
            ProtoMsg::DirUpdateMsg { block, update } => self.handle_dir_update(p, block, update),
            ProtoMsg::Downgrade { block, to } => self.handle_downgrade_msg(p, block, to),
            ProtoMsg::LockAcq { lock } => self.handle_lock_acq(p, src, lock),
            ProtoMsg::LockRel { lock } => self.handle_lock_rel(p, src, lock),
            ProtoMsg::LockGrant { lock } => {
                self.pay(p, TimeCat::Message, self.cost.ack_handler_cycles);
                grant(&mut self.lock_grants[p as usize], lock);
                let now = self.clocks[p as usize];
                self.bump_wake(p, now);
            }
            ProtoMsg::BarrierArrive { id } => self.handle_barrier_arrive(p, src, id),
            ProtoMsg::BarrierGo { id } => {
                self.pay(p, TimeCat::Message, self.cost.ack_handler_cycles);
                grant(&mut self.barrier_done[p as usize], id);
                let now = self.clocks[p as usize];
                self.bump_wake(p, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Home-side request handling
    // ------------------------------------------------------------------

    /// Processes a read / write / upgrade request arriving at its home —
    /// or, under the load-balancing extension, at any processor of the
    /// home's node (which then executes the home logic itself).
    fn handle_request_delivery(&mut self, p: u32, requester: u32, kind: ReqKind, block: Block) {
        let home = self.home_proc(block);
        debug_assert!(
            p == home || self.vnode(p) == self.vnode(home),
            "request delivered outside the home's node"
        );
        if p != home {
            self.stats.load_balanced_requests += 1;
        }
        self.handle_home_request_at(p, home, requester, kind, block);
    }

    /// Home request processing executed by `exec` — normally the home
    /// processor itself; under the shared-directory extension a requester
    /// colocated with the home runs this directly (costs accrue to `exec`,
    /// directory state lives at `home`).
    pub(crate) fn handle_home_request_at(
        &mut self,
        exec: u32,
        home: u32,
        requester: u32,
        kind: ReqKind,
        block: Block,
    ) {
        let handler_cost = match kind {
            ReqKind::Read => self.cost.handler_read_cycles,
            ReqKind::Write => self.cost.handler_write_cycles,
            ReqKind::Upgrade => self.cost.handler_upgrade_cycles,
        } + self.smp_lock_cost();
        self.obs_lock_acq(exec, block);
        self.pay(exec, TimeCat::Message, handler_cost);
        self.obs_lock_rel(exec, block);
        self.dispatch_home_request(exec, home, requester, kind, block);
    }

    /// The cost-free body of home request processing (re-entered when a
    /// queued request is drained after a directory update — the handler cost
    /// for drained requests is charged at drain time).
    fn dispatch_home_request(
        &mut self,
        exec: u32,
        home: u32,
        requester: u32,
        kind: ReqKind,
        block: Block,
    ) {
        let entry = self.dir.entry(block.start);
        if entry.busy {
            entry.queue.push_back(crate::directory::QueuedReq { requester, kind });
            self.obs_event(
                exec,
                shasta_obs::EventKind::DirQueued {
                    block: block.start,
                    requester,
                    kind: miss_kind_of(kind),
                },
            );
            return;
        }
        match kind {
            ReqKind::Read => self.home_read(exec, home, requester, block),
            ReqKind::Write => self.home_write(exec, home, requester, block),
            ReqKind::Upgrade => self.home_upgrade(exec, home, requester, block),
        }
    }

    fn home_read(&mut self, exec: u32, home: u32, requester: u32, block: Block) {
        let hv = self.vnode(home);
        let home_serves = self.cfg.home_serves_reads && self.node_has_copy(hv, block);
        let entry = self.dir.entry(block.start);
        if !entry.exclusive && home_serves {
            entry.add_sharer(requester);
            let data = self.block_copy(hv, block);
            self.post(exec, requester, ProtoMsg::ReadReply { block, data });
            return;
        }
        // Forward to the owner: it holds the dirty copy, or (shared mode) a
        // copy the home's node lacks.
        let owner_exclusive = entry.exclusive;
        let owner = entry.owner;
        entry.busy = true;
        if self.vnode(owner) == hv {
            // The owner's copy is on the home's own node: serve it here
            // (§3.1: "the home can trivially satisfy the request ...
            // eliminating the need for an explicit message to the owner"),
            // with the same pending-state handling as a forwarded read.
            self.fwd_read_body(exec, block, requester, owner_exclusive);
        } else {
            self.post(exec, owner, ProtoMsg::FwdRead { block, requester, owner_exclusive });
        }
    }

    fn home_write(&mut self, exec: u32, home: u32, requester: u32, block: Block) {
        let hv = self.vnode(home);
        let rv = self.vnode(requester);
        let home_has_copy = self.node_has_copy(hv, block);
        let entry = self.dir.entry(block.start);
        let owner = entry.owner;
        if entry.exclusive {
            entry.busy = true;
            assert_ne!(self.vnode(owner), rv, "write request from the exclusive owner's own node");
            if self.vnode(owner) == hv {
                self.fwd_write_body(exec, block, requester, 0, true);
            } else {
                self.post(
                    exec,
                    owner,
                    ProtoMsg::FwdWrite {
                        block,
                        requester,
                        acks_expected: 0,
                        owner_exclusive: true,
                    },
                );
            }
            return;
        }
        // Shared mode: all sharers must be invalidated; data comes from the
        // home's copy if present, else from the owner, which then invalidates
        // itself. The directory lists one representative processor per
        // sharing node, so filtering must be by *virtual node*, never by
        // processor id.
        let topo = &self.topo;
        let other_node = |s: u32| usize::from(topo.virt_node_of(s)) != rv;
        debug_assert!(
            entry.sharer_list().all(other_node),
            "write request from a node still listed as sharer"
        );
        let to_inval = entry
            .sharer_list()
            .filter(|&s| other_node(s) && (home_has_copy || s != owner))
            .fold(0u64, |set, s| set | 1 << s);
        if home_has_copy {
            entry.grant_exclusive(requester);
        } else {
            entry.busy = true;
        }
        let acks = to_inval.count_ones();
        if home_has_copy {
            let data = self.block_copy(hv, block);
            self.post(exec, requester, ProtoMsg::WriteReply { block, data, acks_expected: acks });
            self.invalidate_sharers(exec, block, requester, to_inval);
        } else {
            if self.vnode(owner) == hv {
                self.fwd_write_body(exec, block, requester, acks, false);
            } else {
                self.post(
                    exec,
                    owner,
                    ProtoMsg::FwdWrite {
                        block,
                        requester,
                        acks_expected: acks,
                        owner_exclusive: false,
                    },
                );
            }
            for s in procs_in(to_inval) {
                self.post(exec, s, ProtoMsg::InvalidateReq { block, ack_to: requester });
            }
        }
    }

    fn home_upgrade(&mut self, exec: u32, home: u32, requester: u32, block: Block) {
        let topo = &self.topo;
        let rv = topo.virt_node_of(requester);
        let entry = self.dir.entry(block.start);
        // The directory lists one representative per sharing node; the
        // upgrade is valid if the *requester's node* is still a sharer, even
        // when a node mate did the original fetch (§3.4.2).
        if entry.exclusive || !entry.sharer_list().any(|s| topo.virt_node_of(s) == rv) {
            // The requester's copy was invalidated while the upgrade was in
            // flight: it needs data, so serve as a write (§3.4 race rule).
            self.home_write(exec, home, requester, block);
            return;
        }
        let sharers = entry
            .sharer_list()
            .filter(|&s| topo.virt_node_of(s) != rv)
            .fold(0u64, |set, s| set | 1 << s);
        entry.grant_exclusive(requester);
        let acks = sharers.count_ones();
        self.post(exec, requester, ProtoMsg::UpgradeReply { block, acks_expected: acks });
        self.invalidate_sharers(exec, block, requester, sharers);
    }

    // ------------------------------------------------------------------
    // Owner-side forwarded requests
    // ------------------------------------------------------------------

    fn handle_fwd_read(&mut self, owner: u32, block: Block, requester: u32, owner_exclusive: bool) {
        self.obs_lock_acq(owner, block);
        self.pay(owner, TimeCat::Message, self.cost.handler_read_cycles + self.smp_lock_cost());
        self.obs_lock_rel(owner, block);
        self.fwd_read_body(owner, block, requester, owner_exclusive);
    }

    /// Services a read for `requester` against this node's copy; also used
    /// directly by the home when the owner is on the home's own node.
    fn fwd_read_body(&mut self, owner: u32, block: Block, requester: u32, owner_exclusive: bool) {
        let v = self.vnode(owner);
        match self.block_state(v, block) {
            LineState::Exclusive => {
                self.start_downgrade(
                    owner,
                    block,
                    DowngradeTo::Shared,
                    DowngradeAction::ReadReply { requester },
                );
            }
            LineState::Shared => {
                // Shared-mode forward: no downgrade needed, serve directly.
                let data = self.block_copy(v, block);
                let home = self.home_proc(block);
                self.post(owner, requester, ProtoMsg::ReadReply { block, data });
                self.post(
                    owner,
                    home,
                    ProtoMsg::DirUpdateMsg {
                        block,
                        update: DirUpdate::SharedBy { reader: requester },
                    },
                );
            }
            LineState::PendingWrite => {
                let kind = self.miss[v].get(block.start).expect("pending state without entry").kind;
                let stale = self.deferred_invals[v].contains(block.start);
                if kind == ReqKind::Upgrade && !stale && !owner_exclusive {
                    // A shared-mode forward while our (unconverted) upgrade
                    // is queued at the home *behind this very transaction*:
                    // the node's data is current in home serialization
                    // order, so serve the read now — waiting would deadlock.
                    let data = self.block_copy(v, block);
                    let home = self.home_proc(block);
                    self.post(owner, requester, ProtoMsg::ReadReply { block, data });
                    self.post(
                        owner,
                        home,
                        ProtoMsg::DirUpdateMsg {
                            block,
                            update: DirUpdate::SharedBy { reader: requester },
                        },
                    );
                } else {
                    // A data-awaiting write: the reply is already in flight
                    // from a third party (no FIFO with the forward). Queue
                    // the forward on the entry; it drains at the reply.
                    self.miss[v]
                        .get_mut(block.start)
                        .expect("pending state without entry")
                        .queued_fwds
                        .push(QueuedFwd { requester, exclusive: false, acks_expected: 0 });
                }
            }
            other => panic!(
                "forwarded read reached {owner} with block {:#x} in state {other:?}",
                block.start
            ),
        }
    }

    fn handle_fwd_write(
        &mut self,
        owner: u32,
        block: Block,
        requester: u32,
        acks_expected: u32,
        owner_exclusive: bool,
    ) {
        self.obs_lock_acq(owner, block);
        self.pay(owner, TimeCat::Message, self.cost.handler_write_cycles + self.smp_lock_cost());
        self.obs_lock_rel(owner, block);
        self.fwd_write_body(owner, block, requester, acks_expected, owner_exclusive);
    }

    /// Services a write for `requester` (data + ownership transfer) against
    /// this node's copy; also used directly by the home when the owner is on
    /// the home's own node.
    fn fwd_write_body(
        &mut self,
        owner: u32,
        block: Block,
        requester: u32,
        acks_expected: u32,
        owner_exclusive: bool,
    ) {
        let v = self.vnode(owner);
        let state = self.block_state(v, block);
        if state == LineState::PendingWrite {
            let kind = self.miss[v].get(block.start).expect("pending state without entry").kind;
            let stale = self.deferred_invals[v].contains(block.start);
            if kind == ReqKind::Upgrade && !stale && !owner_exclusive {
                // Our upgrade lost the race: this node's (still valid,
                // previously shared) data goes to the new writer, and our
                // upgrade will be converted to a read-exclusive by the home
                // once it sees we are no longer a sharer. Waiting would
                // deadlock (our reply is queued behind this transaction).
                let data = self.block_copy(v, block);
                let home = self.home_proc(block);
                self.post(owner, requester, ProtoMsg::WriteReply { block, data, acks_expected });
                self.post(
                    owner,
                    home,
                    ProtoMsg::DirUpdateMsg {
                        block,
                        update: DirUpdate::OwnedBy { writer: requester },
                    },
                );
                // The entry stays pending; the converted reply will refill
                // the block. Memory keeps the stale copy meanwhile, which
                // racing local loads may legally observe (release
                // consistency) — exactly the paper's pending-line semantics.
            } else {
                // Raced ahead of the ownership-granting reply; queue it.
                self.miss[v]
                    .get_mut(block.start)
                    .expect("pending state without entry")
                    .queued_fwds
                    .push(QueuedFwd { requester, exclusive: true, acks_expected });
            }
            return;
        }
        assert!(
            state.readable(),
            "forwarded write reached {owner} with block {:#x} in state {state:?}",
            block.start
        );
        self.start_downgrade(
            owner,
            block,
            DowngradeTo::Invalid,
            DowngradeAction::WriteReply { requester, acks: acks_expected },
        );
    }

    // ------------------------------------------------------------------
    // The downgrade protocol (§3.3, §3.4.3)
    // ------------------------------------------------------------------

    /// Downgrades `block` on `x`'s node to `to`, sending downgrade messages
    /// to exactly the local processors whose private state tables show they
    /// may have accessed the block. If no messages are needed the deferred
    /// action executes immediately; otherwise the last processor to handle
    /// its downgrade message executes it (§3.4.3) — processors are never
    /// stalled during a downgrade.
    pub(crate) fn start_downgrade(
        &mut self,
        x: u32,
        block: Block,
        to: DowngradeTo,
        deferred: DowngradeAction,
    ) {
        let v = self.vnode(x);
        assert!(
            !self.downgrades[v].contains(block.start),
            "overlapping downgrades for block {:#x}",
            block.start
        );
        let prior = self.block_state(v, block);
        let mut targets = 0u64;
        if self.topo.clustering() > 1 {
            for q in self.topo.virt_node_procs(shasta_cluster::NodeId(v as u32)) {
                let q = q.0;
                if q == x {
                    continue;
                }
                let needs = if self.cfg.selective_downgrades {
                    self.pay(x, TimeCat::Other, self.cost.priv_check_cycles);
                    let ps = self.priv_state(q, block);
                    match to {
                        DowngradeTo::Shared => ps == crate::state::PrivState::Exclusive,
                        DowngradeTo::Invalid => ps >= crate::state::PrivState::Shared,
                    }
                } else {
                    // Ablation D1: SoftFLASH-style shootdown of every node
                    // mate on every downgrade.
                    true
                };
                if needs {
                    targets |= 1 << q;
                }
            }
        }
        // The initiator downgrades its own private entry immediately.
        let lines = block.line_range(self.space.line_bytes());
        self.privs[x as usize].downgrade_range(lines, priv_ceiling(to));
        self.obs_event(
            x,
            shasta_obs::EventKind::DowngradeStart {
                block: block.start,
                to_invalid: to == DowngradeTo::Invalid,
                targets: targets.count_ones(),
            },
        );
        if targets == 0 {
            self.complete_downgrade(x, block, to, deferred, None);
        } else {
            self.pay(x, TimeCat::Other, self.cost.downgrade_setup_cycles);
            let pending = match to {
                DowngradeTo::Shared => LineState::PendingDgShared,
                DowngradeTo::Invalid => LineState::PendingDgInvalid,
            };
            self.set_block_state(v, block, pending);
            self.obs_state(x, block, pending);
            // Injected defect: capture the reply data *now* instead of
            // waiting for every local processor to handle its downgrade
            // message — stores legally serviced during the window (§3.4.3)
            // are then missing from the data the requester receives.
            let early_data = (self.cfg.bug
                == crate::protocol::config::BugInjection::SkipDowngradeWait
                && !matches!(deferred, DowngradeAction::InvAck { .. }))
            .then(|| self.block_copy(v, block));
            self.downgrades[v].push(
                block.start,
                DowngradeEntry { remaining: targets.count_ones(), to, deferred, prior, early_data },
            );
            for q in procs_in(targets) {
                self.post(x, q, ProtoMsg::Downgrade { block, to });
            }
        }
    }

    /// A processor handling its downgrade message (§3.4.3): lower the
    /// private state, and execute the deferred action if last.
    fn handle_downgrade_msg(&mut self, p: u32, block: Block, to: DowngradeTo) {
        self.pay(p, TimeCat::Message, self.cost.downgrade_handler_cycles);
        let v = self.vnode(p);
        let lines = block.line_range(self.space.line_bytes());
        if self.cfg.bug != crate::protocol::config::BugInjection::DropPrivDowngrade {
            self.privs[p as usize].downgrade_range(lines, priv_ceiling(to));
        }
        let entry =
            self.downgrades[v].get_mut(block.start).expect("downgrade message without entry");
        entry.remaining -= 1;
        let remaining = entry.remaining;
        self.obs_event(p, shasta_obs::EventKind::DowngradeAck { block: block.start, remaining });
        if remaining == 0 {
            let entry = self.downgrades[v].remove(block.start).expect("just present");
            self.complete_downgrade(p, block, entry.to, entry.deferred, entry.early_data);
        }
    }

    /// Finishes a downgrade on `executor`'s node: update the shared state
    /// (writing invalid-flag values if invalidating) and run the deferred
    /// action — reading the data *after* every local processor has handled
    /// its downgrade, so in-flight local stores are included.
    fn complete_downgrade(
        &mut self,
        executor: u32,
        block: Block,
        to: DowngradeTo,
        deferred: DowngradeAction,
        early_data: Option<Vec<u8>>,
    ) {
        let v = self.vnode(executor);
        self.pay(executor, TimeCat::Other, self.cost.deferred_action_cycles);
        // Capture data before any flag writes. `early_data` (bug injection
        // only) substitutes a stale pre-downgrade snapshot here.
        let data = match deferred {
            DowngradeAction::ReadReply { .. } | DowngradeAction::WriteReply { .. } => {
                Some(early_data.unwrap_or_else(|| self.block_copy(v, block)))
            }
            DowngradeAction::InvAck { .. } => None,
        };
        match to {
            DowngradeTo::Shared => {
                self.set_block_state(v, block, LineState::Shared);
                self.obs_state(executor, block, LineState::Shared);
            }
            DowngradeTo::Invalid => {
                self.set_block_state(v, block, LineState::Invalid);
                self.obs_state(executor, block, LineState::Invalid);
                self.pay(
                    executor,
                    TimeCat::Other,
                    self.cost.flag_write_per_line_cycles * block.lines(self.space.line_bytes()),
                );
                self.mems[v].write_flags(block.start, block.len);
            }
        }
        self.obs_event(
            executor,
            shasta_obs::EventKind::DowngradeDone { block: block.start, action: deferred },
        );
        let now = self.clocks[executor as usize];
        self.bump_wake_vnode(v, now);
        let home = self.home_proc(block);
        match deferred {
            DowngradeAction::ReadReply { requester } => {
                let data = data.expect("captured above");
                self.post(executor, requester, ProtoMsg::ReadReply { block, data });
                self.post(
                    executor,
                    home,
                    ProtoMsg::DirUpdateMsg {
                        block,
                        update: DirUpdate::SharedBy { reader: requester },
                    },
                );
            }
            DowngradeAction::WriteReply { requester, acks } => {
                let data = data.expect("captured above");
                let reply = ProtoMsg::WriteReply { block, data, acks_expected: acks };
                self.post(executor, requester, reply);
                self.post(
                    executor,
                    home,
                    ProtoMsg::DirUpdateMsg {
                        block,
                        update: DirUpdate::OwnedBy { writer: requester },
                    },
                );
            }
            DowngradeAction::InvAck { ack_to } => {
                self.post(executor, ack_to, ProtoMsg::InvAck { block });
            }
        }
    }

    // ------------------------------------------------------------------
    // Invalidations and acknowledgements
    // ------------------------------------------------------------------

    /// Invalidates the copies of `block` that the processors in the mask
    /// `sharers` hold, lowest first, for the writer `ack_to`, from
    /// the home's node (`exec` acts for the home): a remote sharer by
    /// message, the home's own node in place, with the same state dispatch
    /// as a remote invalidation (the node may have a pending request, in
    /// which case the invalidation is deferred to the reply).
    fn invalidate_sharers(&mut self, exec: u32, block: Block, ack_to: u32, sharers: u64) {
        for s in procs_in(sharers) {
            if self.vnode(s) == self.vnode(exec) {
                let kind = shasta_obs::EventKind::HomeInvalidate { block: block.start, ack_to };
                self.obs_event(exec, kind);
                self.handle_invalidate(exec, block, ack_to);
            } else {
                self.post(exec, s, ProtoMsg::InvalidateReq { block, ack_to });
            }
        }
    }

    fn handle_invalidate(&mut self, p: u32, block: Block, ack_to: u32) {
        self.obs_lock_acq(p, block);
        self.pay(p, TimeCat::Message, self.cost.inv_handler_cycles + self.smp_lock_cost());
        self.obs_lock_rel(p, block);
        let v = self.vnode(p);
        match self.block_state(v, block) {
            LineState::Shared | LineState::Exclusive => {
                self.start_downgrade(
                    p,
                    block,
                    DowngradeTo::Invalid,
                    DowngradeAction::InvAck { ack_to },
                );
            }
            LineState::PendingRead | LineState::PendingWrite => {
                // The copy being invalidated is concurrently being replaced:
                // defer until the reply is processed (§3.4.2's serialization
                // at the home guarantees the reply is in flight).
                assert!(
                    !self.deferred_invals[v].contains(block.start),
                    "two invalidations deferred for one block"
                );
                self.deferred_invals[v].push(block.start, ack_to);
            }
            LineState::Invalid => {
                // Stale invalidation (the copy is already gone): just ack.
                self.post(p, ack_to, ProtoMsg::InvAck { block });
            }
            LineState::PendingDgShared | LineState::PendingDgInvalid => {
                panic!("invalidation raced an in-progress downgrade on block {:#x}", block.start)
            }
        }
    }

    fn handle_inv_ack(&mut self, p: u32, block: Block) {
        self.pay(p, TimeCat::Message, self.cost.ack_handler_cycles);
        let v = self.vnode(p);
        // Acks for a replied entry live in the lingering list; check it
        // first (a *new* entry for the same block may already exist).
        if let Some(i) = self.lingering[v].iter().position(|l| l.block_start == block.start) {
            self.lingering[v][i].remaining -= 1;
            if self.lingering[v][i].remaining == 0 {
                let l = self.lingering[v].swap_remove(i);
                self.finish_store(v, l.epoch, l.requester);
            }
            return;
        }
        let Some(e) = self.miss[v].get_mut(block.start) else {
            panic!(
                "invalidation ack at P{p} without a matching miss entry for block {:#x}",
                block.start
            );
        };
        e.early_acks += 1;
        // Completion is re-checked when the reply arrives.
    }

    /// A store operation fully completed: credit the epoch and the
    /// requester's outstanding-store budget, waking release/store-limit
    /// stalls.
    fn finish_store(&mut self, v: usize, epoch: u64, requester: u32) {
        self.epochs[v].complete_store(epoch);
        self.outstanding_stores[requester as usize] -= 1;
        let t = self.clocks[requester as usize];
        self.bump_wake(requester, t);
        self.bump_wake_vnode(v, t);
    }

    // ------------------------------------------------------------------
    // Directory updates
    // ------------------------------------------------------------------

    fn handle_dir_update(&mut self, home: u32, block: Block, update: DirUpdate) {
        self.pay(home, TimeCat::Message, self.cost.handler_dirupdate_cycles + self.smp_lock_cost());
        {
            let entry = self.dir.entry(block.start);
            assert!(entry.busy, "directory update for a non-busy entry");
            match update {
                DirUpdate::SharedBy { reader } => {
                    entry.exclusive = false;
                    entry.add_sharer(reader);
                    let owner = entry.owner;
                    entry.add_sharer(owner);
                }
                DirUpdate::OwnedBy { writer } => entry.grant_exclusive(writer),
            }
            entry.busy = false;
        }
        // Drain queued requests until one re-busies the entry.
        loop {
            let entry = self.dir.entry(block.start);
            if entry.busy {
                break;
            }
            let Some(q) = entry.queue.pop_front() else { break };
            let cost = match q.kind {
                ReqKind::Read => self.cost.handler_read_cycles,
                ReqKind::Write => self.cost.handler_write_cycles,
                ReqKind::Upgrade => self.cost.handler_upgrade_cycles,
            } + self.smp_lock_cost();
            self.pay(home, TimeCat::Message, cost);
            self.dispatch_home_request(home, home, q.requester, q.kind, block);
        }
    }

    // ------------------------------------------------------------------
    // Replies at the requester
    // ------------------------------------------------------------------

    fn classify_hops(&self, p: u32, src: u32, block: Block) -> shasta_stats::Hops {
        // Self-sourced replies arise when the requester itself executed the
        // home logic (requester == home, or the shared-directory extension):
        // two hops at most.
        if src == self.home_proc(block) || src == p {
            shasta_stats::Hops::Two
        } else {
            shasta_stats::Hops::Three
        }
    }

    fn handle_read_reply(&mut self, p: u32, src: u32, block: Block, data: Vec<u8>) {
        self.obs_lock_acq(p, block);
        self.pay(p, TimeCat::Message, self.cost.reply_receive_cycles + self.smp_lock_cost());
        self.obs_lock_rel(p, block);
        let v = self.vnode(p);
        let mut entry = self.miss[v].remove(block.start).expect("read reply without a miss entry");
        assert_eq!(entry.kind, ReqKind::Read, "read reply for a non-read entry");
        assert_eq!(entry.requester, p, "reply delivered to a non-requester");
        let hops = self.classify_hops(p, src, block);
        self.obs_event(
            p,
            shasta_obs::EventKind::MissResolved {
                block: block.start,
                kind: miss_kind_of(ReqKind::Read),
                hops,
            },
        );
        let mut buf = data;
        entry.apply_stores(&mut buf);
        self.mems[v].write(block.start, &buf);
        self.give_back(buf);
        self.set_block_state(v, block, LineState::Shared);
        self.obs_state(p, block, LineState::Shared);
        self.set_priv(p, block, crate::state::PrivState::Shared);
        let now = self.clocks[p as usize];
        self.bump_wake_vnode(v, now);

        // A deferred invalidation (the copy we just received was already
        // being killed by a concurrent writer): execute it now. Any stalled
        // local readers will retry and re-fetch fresh data.
        if let Some(ack_to) = self.deferred_invals[v].remove(block.start) {
            self.start_downgrade(
                p,
                block,
                DowngradeTo::Invalid,
                DowngradeAction::InvAck { ack_to },
            );
            debug_assert!(
                !self.downgrades[v].contains(block.start),
                "deferred invalidation should complete immediately (no private copies exist)"
            );
        }

        if entry.wants_exclusive {
            // Stores merged while the read was pending: chain an exclusive
            // request (§2.1 non-blocking stores + §3.4.2 merging).
            let kind = if self.block_state(v, block) == LineState::Shared {
                ReqKind::Upgrade
            } else {
                ReqKind::Write
            };
            entry.kind = kind;
            entry.wants_exclusive = false;
            entry.store_epoch = self.epochs[v].issue_store();
            self.outstanding_stores[p as usize] += 1;
            // Re-apply merged stores in case the deferred invalidation wiped
            // them; they stay recorded for the exclusive reply merge.
            if kind == ReqKind::Upgrade {
                let mut cur = self.block_copy(v, block);
                entry.apply_stores(&mut cur);
                self.mems[v].write(block.start, &cur);
                self.give_back(cur);
            }
            self.set_block_state(v, block, LineState::PendingWrite);
            self.obs_state(p, block, LineState::PendingWrite);
            let home = self.home_proc(block);
            let msg = match kind {
                ReqKind::Upgrade => ProtoMsg::UpgradeReq { block },
                _ => ProtoMsg::WriteReq { block },
            };
            self.miss[v].insert(entry);
            self.pay(p, TimeCat::Other, self.cost.miss_entry_cycles);
            if self.cfg.share_directory
                && self.cfg.mode == Mode::Smp
                && p != home
                && self.vnode(p) == self.vnode(home)
            {
                self.stats.shared_dir_lookups += 1;
                self.handle_home_request_at(p, home, p, kind, block);
            } else {
                self.post(p, home, msg);
            }
        } else {
            self.miss[v].retire(entry);
        }
    }

    fn handle_write_reply(&mut self, p: u32, src: u32, block: Block, data: Vec<u8>, acks: u32) {
        self.obs_lock_acq(p, block);
        self.pay(p, TimeCat::Message, self.cost.reply_receive_cycles + self.smp_lock_cost());
        self.obs_lock_rel(p, block);
        let v = self.vnode(p);
        let mut entry = self.miss[v].remove(block.start).expect("write reply without a miss entry");
        assert!(
            matches!(entry.kind, ReqKind::Write | ReqKind::Upgrade),
            "write reply for a read entry"
        );
        let hops = self.classify_hops(p, src, block);
        self.obs_event(
            p,
            shasta_obs::EventKind::MissResolved {
                block: block.start,
                kind: miss_kind_of(entry.kind),
                hops,
            },
        );
        let mut buf = data;
        entry.apply_stores(&mut buf);
        self.mems[v].write(block.start, &buf);
        self.give_back(buf);
        self.set_block_state(v, block, LineState::Exclusive);
        self.obs_state(p, block, LineState::Exclusive);
        self.set_priv(p, block, crate::state::PrivState::Exclusive);
        let now = self.clocks[p as usize];
        self.bump_wake_vnode(v, now);

        // A deferred invalidation targeted the *old* copy; our new exclusive
        // copy postdates the invalidating write (the home serialized them),
        // so acknowledge without invalidating.
        if let Some(ack_to) = self.deferred_invals[v].remove(block.start) {
            self.post(p, ack_to, ProtoMsg::InvAck { block });
        }

        entry.replied = true;
        entry.acks_expected = acks;
        if entry.complete() {
            self.finish_store(v, entry.store_epoch, entry.requester);
        } else {
            self.lingering[v].push(LingeringAcks {
                block_start: block.start,
                remaining: acks - entry.early_acks,
                epoch: entry.store_epoch,
                requester: entry.requester,
            });
        }
        self.drain_queued_fwds(p, block, &entry.queued_fwds);
        self.miss[v].retire(entry);
    }

    fn handle_upgrade_reply(&mut self, p: u32, src: u32, block: Block, acks: u32) {
        self.obs_lock_acq(p, block);
        self.pay(p, TimeCat::Message, self.cost.reply_receive_cycles + self.smp_lock_cost());
        self.obs_lock_rel(p, block);
        let v = self.vnode(p);
        let mut entry =
            self.miss[v].remove(block.start).expect("upgrade reply without a miss entry");
        assert_eq!(entry.kind, ReqKind::Upgrade, "upgrade reply for a non-upgrade entry");
        let hops = self.classify_hops(p, src, block);
        self.obs_event(
            p,
            shasta_obs::EventKind::MissResolved {
                block: block.start,
                kind: miss_kind_of(ReqKind::Upgrade),
                hops,
            },
        );
        assert!(
            !self.deferred_invals[v].contains(block.start),
            "an upgrade cannot be granted to a processor whose copy was invalidated"
        );
        self.set_block_state(v, block, LineState::Exclusive);
        self.obs_state(p, block, LineState::Exclusive);
        self.set_priv(p, block, crate::state::PrivState::Exclusive);
        let now = self.clocks[p as usize];
        self.bump_wake_vnode(v, now);
        entry.replied = true;
        entry.acks_expected = acks;
        if entry.complete() {
            self.finish_store(v, entry.store_epoch, entry.requester);
        } else {
            self.lingering[v].push(LingeringAcks {
                block_start: block.start,
                remaining: acks - entry.early_acks,
                epoch: entry.store_epoch,
                requester: entry.requester,
            });
        }
        self.drain_queued_fwds(p, block, &entry.queued_fwds);
        self.miss[v].retire(entry);
    }

    /// Services forwards that raced ahead of the reply that made this node
    /// the owner, in arrival order.
    fn drain_queued_fwds(&mut self, p: u32, block: Block, fwds: &[QueuedFwd]) {
        for f in fwds {
            if f.exclusive {
                self.start_downgrade(
                    p,
                    block,
                    DowngradeTo::Invalid,
                    DowngradeAction::WriteReply { requester: f.requester, acks: f.acks_expected },
                );
            } else {
                self.start_downgrade(
                    p,
                    block,
                    DowngradeTo::Shared,
                    DowngradeAction::ReadReply { requester: f.requester },
                );
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

    /// A copy of node `v`'s image of `block`, for a data reply, in a buffer
    /// from the spare list when it has one.
    fn block_copy(&mut self, v: usize, block: Block) -> Vec<u8> {
        let mut buf = self.spare_bufs.pop().unwrap_or_default();
        buf.extend_from_slice(self.mems[v].read(block.start, block.len));
        buf
    }

    /// Keeps an emptied data buffer for the next [`Machine::block_copy`],
    /// while the spare list has room.
    fn give_back(&mut self, mut buf: Vec<u8>) {
        if self.spare_bufs.len() < MAX_SPARE_BUFS {
            buf.clear();
            self.spare_bufs.push(buf);
        }
    }

    fn smp_lock_cost(&self) -> u64 {
        if self.cfg.mode == Mode::Smp {
            self.cost.smp_lock_cycles
        } else {
            0
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
            assert!(self.deferred_invals[v].is_empty(), "vnode {v}: deferred invalidation left");
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
