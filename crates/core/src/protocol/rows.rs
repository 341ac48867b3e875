//! The coherence protocol as one transition table (§3.3–§3.4.3).
//!
//! Every coherence transition is a *row*: a pure function of one block's
//! [`View`] at one processor and an [`Input`] — a delivered coherence
//! [`ProtoMsg`] with its sender, a home request executed in place, or the
//! start of a downgrade. A row may update the view's records (the
//! directory entry, the node's miss entry, pending downgrade and lingering
//! acks); everything else it causes is an [`Effect`] appended to a buffer,
//! which the engine's applier (`step_row` in `engine.rs`) performs in order.
//! Where a decision must see what an earlier effect changed — a downgrade
//! that invalidates the home node's own copy, a deferred invalidation, the
//! forwards or directory requests that queued meanwhile, a chained
//! exclusive request — the row emits a nested step, and the applier steps
//! it on a fresh view when it gets there. A forward or an invalidation
//! starts its downgrade, and a downgrade with no node mate to message
//! completes, within the same step: no earlier effect of that step changes
//! what they read.
//!
//! Each row has a stable name ([`Row`]); `docs/PROTOCOL.md` §4 lists them
//! one line each, and the engine ORs in the bit of every row it steps.

use shasta_cluster::{CostModel, NodeId, Topology};
use shasta_obs::{DowngradeAction, EventKind};
use shasta_stats::{Hops, MissKind, TimeCat};

use crate::directory::{procs_in, DirEntry, Directory, QueuedReq};
use crate::misstable::{MissTable, ReqKind};
use crate::protocol::config::{BugInjection, ProtocolConfig};
use crate::protocol::msg::{DirUpdate, DowngradeTo, ProtoMsg};
use crate::space::{Addr, Block, SharedSpace};
use crate::state::{LineState, NodeMem, PrivState, PrivTable};

macro_rules! rows {
    ($($row:ident = $name:literal,)*) => {
        /// A row of the transition table: one decision a coherence step takes.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum Row { $(#[doc = $name] $row,)* }

        impl Row {
            /// Every row, in bit order.
            pub const ALL: &'static [Row] = &[$(Row::$row,)*];

            /// The row's stable name, as `docs/PROTOCOL.md` lists it.
            pub fn name(self) -> &'static str {
                match self { $(Row::$row => $name,)* }
            }

            /// The row's bit in a mask of rows stepped.
            pub fn bit(self) -> u64 {
                1 << self as u32
            }
        }
    };
}

rows! {
    HomeQueued = "home-queued",
    HomeReadServed = "home-read-served",
    HomeReadForwarded = "home-read-forwarded",
    HomeWriteForwarded = "home-write-forwarded",
    HomeWriteGranted = "home-write-granted",
    HomeWriteFetched = "home-write-fetched",
    HomeUpgradeGranted = "home-upgrade-granted",
    HomeUpgradeAsWrite = "home-upgrade-as-write",
    FwdReadDowngrade = "fwd-read-downgrade",
    FwdReadShared = "fwd-read-shared",
    FwdReadBehindUpgrade = "fwd-read-behind-upgrade",
    FwdReadEarly = "fwd-read-early",
    FwdWriteDowngrade = "fwd-write-downgrade",
    FwdWriteBeatsUpgrade = "fwd-write-beats-upgrade",
    FwdWriteEarly = "fwd-write-early",
    DowngradeAtOnce = "downgrade-at-once",
    DowngradeStarted = "downgrade-started",
    DowngradeCounted = "downgrade-counted",
    DowngradeLast = "downgrade-last",
    InvalDowngrade = "inval-downgrade",
    InvalDeferred = "inval-deferred",
    InvalStale = "inval-stale",
    AckLingering = "ack-lingering",
    AckLast = "ack-last",
    AckEarly = "ack-early",
    ReadReply = "read-reply",
    ReadReplyInvalidated = "read-reply-invalidated",
    ReadReplyChained = "read-reply-chained",
    WriteReply = "write-reply",
    WriteReplyAcked = "write-reply-acked",
    UpgradeReply = "upgrade-reply",
    ReplyStoreDone = "reply-store-done",
    ReplyStoreLingers = "reply-store-lingers",
    DirSharedBy = "dir-shared-by",
    DirOwnedBy = "dir-owned-by",
}

/// An in-progress block downgrade on a virtual node.
#[derive(Clone, Debug)]
pub struct DowngradeEntry {
    /// The block being downgraded.
    pub block_start: Addr,
    /// Downgrade messages still unhandled.
    pub remaining: u32,
    /// The reply the last downgrader sends (§3.4.3); it also names the
    /// target state (`Shared` for a read reply, else `Invalid`).
    pub deferred: DowngradeAction,
    /// Block state before the downgrade began; accesses by processors that
    /// already handled their downgrade message may still be serviced if this
    /// prior state was sufficient (§3.4.3).
    pub prior: LineState,
    /// [`BugInjection::SkipDowngradeWait`] only: block data captured when
    /// the downgrade *started* instead of when the last local processor
    /// handled its downgrade message. Using it for the deferred reply loses
    /// any store serviced during the downgrade window — the defect the
    /// checker's oracles must catch. `None` in the correct protocol.
    pub early_data: Option<Vec<u8>>,
}

/// Store entries whose data reply has been processed but whose invalidation
/// acks are still arriving.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LingeringAcks {
    /// Block the store targeted.
    pub block_start: Addr,
    /// Acks still expected.
    pub remaining: u32,
    /// Epoch to credit on completion.
    pub epoch: u64,
    /// Requesting processor (for the outstanding-store limit).
    pub requester: u32,
}

/// What a row reads and writes of one block at processor `p`.
#[derive(Debug)]
pub(crate) struct View<'a> {
    /// The processor stepping the row.
    pub(crate) p: u32,
    pub(crate) block: Block,
    /// The directory: rows touch only the block's entry (kept at the home),
    /// and only home rows look it up.
    pub(crate) dir: &'a mut Directory,
    /// The node's miss table; rows touch only the block's entry, there
    /// while a request for it is outstanding.
    pub(crate) miss: &'a mut MissTable,
    /// The node's pending downgrades, in the order they began; rows touch
    /// only this block's.
    pub(crate) downgrades: &'a mut Vec<DowngradeEntry>,
    /// The node's lingering acks; rows touch only this block's.
    pub(crate) lingering: &'a mut Vec<LingeringAcks>,
    /// Every processor's private state table; a downgrade's start reads
    /// the node mates' entries for the block.
    pub(crate) privs: &'a [PrivTable],
    /// The node's memory image and state table: the block's line state,
    /// and its bytes for data replies.
    pub(crate) image: &'a NodeMem,
    /// Emptied data buffers a reply copies into before allocating.
    pub(crate) spare: &'a mut Vec<Vec<u8>>,
}

/// What a row reads but never changes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ctx<'a> {
    pub(crate) cfg: &'a ProtocolConfig,
    pub(crate) cost: &'a CostModel,
    pub(crate) topo: &'a Topology,
    pub(crate) space: &'a SharedSpace,
}

/// What a row steps on.
#[derive(Clone, PartialEq, Debug)]
pub(crate) enum Input {
    /// A coherence message delivered from `src`.
    Msg { src: u32, msg: ProtoMsg },
    /// A home request executed in place by a processor of the home's node:
    /// a colocated requester's own lookup under the shared-directory
    /// extension, or (`queued`) a request drained from the directory queue.
    Home { req: QueuedReq, queued: bool },
    /// The start of a downgrade of the node's copy, for this deferred action.
    Downgrade(DowngradeAction),
}

/// What a row causes beyond its view, performed in order at the stepping
/// processor.
#[derive(PartialEq, Debug)]
pub(crate) enum Effect {
    /// Charge cycles.
    Pay(TimeCat, u64),
    /// Charge message-handling cycles under the block's line lock.
    Locked(u64),
    /// Record an event.
    Event(EventKind),
    /// Set the node's line state.
    State(LineState),
    /// A reply's grant: the node's line state and the processor's private
    /// state are set, and the node's processors wake.
    Grant(LineState, PrivState),
    /// Lower the processor's private state to at most this.
    PrivCeiling(PrivState),
    /// Send a message (to itself: handled inline).
    Send(u32, ProtoMsg),
    /// Write reply data into the node's image; the buffer is kept.
    Fill(Vec<u8>),
    /// Charge these cycles and write the invalid flag over the node's copy.
    Flags(u64),
    /// Raise every node processor's wake floor to now.
    WakeNode,
    /// A store operation completed.
    FinishStore { epoch: u64, requester: u32 },
    /// Remove the miss entry; the table keeps its lists.
    Retire,
    /// Re-issue the read's miss entry as an exclusive request.
    Chain,
    /// Step a nested row on a fresh view.
    Step(Input),
    /// Step the directory's queued requests while it is not busy.
    Drain,
    /// Count a request a node mate of the home served.
    Balanced,
}

/// The target state of a downgrade for `action`.
pub(crate) fn target(action: DowngradeAction) -> DowngradeTo {
    match action {
        DowngradeAction::ReadReply { .. } => DowngradeTo::Shared,
        _ => DowngradeTo::Invalid,
    }
}

/// The private-state ceiling a downgrade to `to` leaves.
pub(crate) fn priv_ceiling(to: DowngradeTo) -> PrivState {
    match to {
        DowngradeTo::Shared => PrivState::Shared,
        DowngradeTo::Invalid => PrivState::Invalid,
    }
}

/// The miss statistic a request kind produces.
pub(crate) fn miss_kind_of(kind: ReqKind) -> MissKind {
    match kind {
        ReqKind::Read => MissKind::Read,
        ReqKind::Write => MissKind::Write,
        ReqKind::Upgrade => MissKind::Upgrade,
    }
}

/// Steps `input`'s row on `view`, appending its effects to `fx`. Returns the
/// bits of the rows it took.
pub(crate) fn step(cx: &Ctx<'_>, view: &mut View<'_>, input: Input, fx: &mut Vec<Effect>) -> u64 {
    let mut s = Step { cx, v: view, fx, rows: 0 };
    match input {
        Input::Msg { src, msg } => s.message(src, msg),
        Input::Home { req, queued } => s.home(req, queued),
        Input::Downgrade(action) => s.start_downgrade(action),
    }
    s.rows
}

struct Step<'c, 'v, 'f> {
    cx: &'f Ctx<'c>,
    v: &'f mut View<'v>,
    fx: &'f mut Vec<Effect>,
    rows: u64,
}

impl Step<'_, '_, '_> {
    fn hit(&mut self, row: Row) {
        self.rows |= row.bit();
    }

    fn pay(&mut self, cat: TimeCat, cycles: u64) {
        self.fx.push(Effect::Pay(cat, cycles));
    }

    /// Handler cycles plus the line lock's, under the line lock.
    fn locked(&mut self, cycles: u64) {
        self.fx.push(Effect::Locked(cycles + self.cx.cfg.smp_lock_cycles(self.cx.cost)));
    }

    fn send(&mut self, to: u32, msg: ProtoMsg) {
        self.fx.push(Effect::Send(to, msg));
    }

    fn dir(&mut self) -> &mut DirEntry {
        self.v.dir.entry(self.v.block.start)
    }

    /// The block's line state on `p`'s node.
    fn state(&self) -> LineState {
        self.v.image.line_state(self.v.block.first_line(self.v.image.line_bytes()))
    }

    /// The block's home processor.
    fn home_proc(&self) -> u32 {
        self.cx.space.home_of(self.v.block.start)
    }

    fn node_of(&self, q: u32) -> NodeId {
        self.cx.topo.virt_node_of(q)
    }

    /// A copy of the node's image of the block, in a spare buffer if any.
    fn copy(&mut self) -> Vec<u8> {
        let mut buf = self.v.spare.pop().unwrap_or_default();
        buf.extend_from_slice(self.v.image.read(self.v.block.start, self.v.block.len));
        buf
    }

    fn message(&mut self, src: u32, msg: ProtoMsg) {
        let cost = self.cx.cost;
        match msg {
            ProtoMsg::ReadReq { .. } => self.delivered(src, ReqKind::Read),
            ProtoMsg::WriteReq { .. } => self.delivered(src, ReqKind::Write),
            ProtoMsg::UpgradeReq { .. } => self.delivered(src, ReqKind::Upgrade),
            ProtoMsg::FwdRead { requester, owner_exclusive, .. } => {
                self.locked(cost.handler_read_cycles);
                self.serve(DowngradeAction::ReadReply { requester }, owner_exclusive);
            }
            ProtoMsg::FwdWrite { requester, acks_expected: acks, owner_exclusive, .. } => {
                self.locked(cost.handler_write_cycles);
                self.serve(DowngradeAction::WriteReply { requester, acks }, owner_exclusive);
            }
            ProtoMsg::ReadReply { data, .. } => self.reply(src, ReqKind::Read, Some(data), 0),
            ProtoMsg::WriteReply { data, acks_expected, .. } => {
                self.reply(src, ReqKind::Write, Some(data), acks_expected)
            }
            ProtoMsg::UpgradeReply { acks_expected, .. } => {
                self.reply(src, ReqKind::Upgrade, None, acks_expected)
            }
            ProtoMsg::InvalidateReq { ack_to, .. } => self.invalidate(ack_to),
            ProtoMsg::InvAck { .. } => self.inv_ack(),
            ProtoMsg::DirUpdateMsg { update, .. } => self.dir_update(update),
            ProtoMsg::Downgrade { to, .. } => self.downgrade_msg(to),
            other => unreachable!("{} is not a coherence message", other.label()),
        }
    }

    // ------------------------------------------------------------------
    // Home-side requests
    // ------------------------------------------------------------------

    /// A request delivered to the home — or, under the load-balancing
    /// extension, to any processor of the home's node, which then executes
    /// the home logic itself.
    fn delivered(&mut self, requester: u32, kind: ReqKind) {
        let (p, home) = (self.v.p, self.home_proc());
        debug_assert!(
            p == home || self.node_of(p) == self.node_of(home),
            "request delivered outside the home's node"
        );
        if p != home {
            self.fx.push(Effect::Balanced);
        }
        self.home(QueuedReq { requester, kind }, false);
    }

    /// Home request processing by `p`, on the home's node: costs accrue to
    /// `p`, directory state lives at the home. A request drained from the
    /// queue pays outside the line lock's events.
    fn home(&mut self, req: QueuedReq, queued: bool) {
        let cost = self.cx.cost;
        let handler = match req.kind {
            ReqKind::Read => cost.handler_read_cycles,
            ReqKind::Write => cost.handler_write_cycles,
            ReqKind::Upgrade => cost.handler_upgrade_cycles,
        };
        if queued {
            self.pay(TimeCat::Message, handler + self.cx.cfg.smp_lock_cycles(cost));
        } else {
            self.locked(handler);
        }
        let dir = self.dir();
        if dir.busy {
            dir.queue.push_back(req);
            self.hit(Row::HomeQueued);
            let (block, requester, kind) = (self.v.block.start, req.requester, req.kind);
            let kind = miss_kind_of(kind);
            self.fx.push(Effect::Event(EventKind::DirQueued { block, requester, kind }));
            return;
        }
        match req.kind {
            ReqKind::Read => self.home_read(req.requester),
            ReqKind::Write => self.home_write(req.requester),
            ReqKind::Upgrade => self.home_upgrade(req.requester),
        }
    }

    fn home_read(&mut self, requester: u32) {
        let home_serves = self.cx.cfg.home_serves_reads && self.state().readable();
        let dir = self.v.dir.entry(self.v.block.start);
        if !dir.exclusive && home_serves {
            dir.add_sharer(requester);
            self.hit(Row::HomeReadServed);
            let data = self.copy();
            self.send(requester, ProtoMsg::ReadReply { block: self.v.block, data });
            return;
        }
        // Forward to the owner: it holds the dirty copy, or (shared mode) a
        // copy the home's node lacks.
        let (owner, owner_exclusive) = (dir.owner, dir.exclusive);
        dir.busy = true;
        self.hit(Row::HomeReadForwarded);
        self.forward(owner, DowngradeAction::ReadReply { requester }, owner_exclusive);
    }

    fn home_write(&mut self, requester: u32) {
        let topo = self.cx.topo;
        let rv = topo.virt_node_of(requester);
        let home_has_copy = self.state().readable();
        let dir = self.v.dir.entry(self.v.block.start);
        let owner = dir.owner;
        if dir.exclusive {
            dir.busy = true;
            assert_ne!(
                topo.virt_node_of(owner),
                rv,
                "write request from the exclusive owner's own node"
            );
            self.hit(Row::HomeWriteForwarded);
            let action = DowngradeAction::WriteReply { requester, acks: 0 };
            return self.forward(owner, action, true);
        }
        // Shared mode: all sharers must be invalidated; data comes from the
        // home's copy if present, else from the owner, which then invalidates
        // itself. The directory lists one representative processor per
        // sharing node, so filtering must be by *virtual node*, never by
        // processor id.
        let other_node = |s: u32| topo.virt_node_of(s) != rv;
        debug_assert!(
            dir.sharer_list().all(other_node),
            "write request from a node still listed as sharer"
        );
        let to_inval = dir
            .sharer_list()
            .filter(|&s| other_node(s) && (home_has_copy || s != owner))
            .fold(0u64, |set, s| set | 1 << s);
        let acks = to_inval.count_ones();
        if home_has_copy {
            dir.grant_exclusive(requester);
            self.hit(Row::HomeWriteGranted);
            let data = self.copy();
            let block = self.v.block;
            self.send(requester, ProtoMsg::WriteReply { block, data, acks_expected: acks });
            self.invalidate_sharers(requester, to_inval);
        } else {
            dir.busy = true;
            self.hit(Row::HomeWriteFetched);
            self.forward(owner, DowngradeAction::WriteReply { requester, acks }, false);
            for s in procs_in(to_inval) {
                self.send(s, ProtoMsg::InvalidateReq { block: self.v.block, ack_to: requester });
            }
        }
    }

    fn home_upgrade(&mut self, requester: u32) {
        let topo = self.cx.topo;
        let rv = topo.virt_node_of(requester);
        let dir = self.v.dir.entry(self.v.block.start);
        // The directory lists one representative per sharing node; the
        // upgrade is valid if the *requester's node* is still a sharer, even
        // when a node mate did the original fetch (§3.4.2).
        if dir.exclusive || !dir.sharer_list().any(|s| topo.virt_node_of(s) == rv) {
            // The requester's copy was invalidated while the upgrade was in
            // flight: it needs data, so serve as a write (§3.4 race rule).
            self.hit(Row::HomeUpgradeAsWrite);
            return self.home_write(requester);
        }
        let sharers = dir
            .sharer_list()
            .filter(|&s| topo.virt_node_of(s) != rv)
            .fold(0u64, |set, s| set | 1 << s);
        dir.grant_exclusive(requester);
        self.hit(Row::HomeUpgradeGranted);
        let acks_expected = sharers.count_ones();
        self.send(requester, ProtoMsg::UpgradeReply { block: self.v.block, acks_expected });
        self.invalidate_sharers(requester, sharers);
    }

    /// Sends the owner a forward for `action`. An owner on the home's own
    /// node is served here (§3.1: "the home can trivially satisfy the
    /// request ... eliminating the need for an explicit message to the
    /// owner"), with the same pending-state handling as a forward.
    fn forward(&mut self, owner: u32, action: DowngradeAction, owner_exclusive: bool) {
        if self.node_of(owner) == self.node_of(self.v.p) {
            return self.serve(action, owner_exclusive);
        }
        let block = self.v.block;
        let msg = match action {
            DowngradeAction::ReadReply { requester } => {
                ProtoMsg::FwdRead { block, requester, owner_exclusive }
            }
            DowngradeAction::WriteReply { requester, acks: acks_expected } => {
                ProtoMsg::FwdWrite { block, requester, acks_expected, owner_exclusive }
            }
            DowngradeAction::InvAck { .. } => unreachable!("forwards carry replies"),
        };
        self.send(owner, msg);
    }

    /// Invalidates the copies the processors in the mask `sharers` hold,
    /// lowest first, for the writer `ack_to`: a remote sharer by message,
    /// the home's own node in place, with the dispatch of a delivered
    /// invalidation (the node may have a pending request, in which case the
    /// invalidation is deferred to the reply).
    fn invalidate_sharers(&mut self, ack_to: u32, sharers: u64) {
        let block = self.v.block;
        for s in procs_in(sharers) {
            let msg = ProtoMsg::InvalidateReq { block, ack_to };
            if self.node_of(s) == self.node_of(self.v.p) {
                let kind = EventKind::HomeInvalidate { block: block.start, ack_to };
                self.fx.push(Effect::Event(kind));
                self.fx.push(Effect::Step(Input::Msg { src: self.v.p, msg }));
            } else {
                self.send(s, msg);
            }
        }
    }

    /// A directory update closes a forwarded transaction; the requests
    /// queued behind it are stepped next.
    fn dir_update(&mut self, update: DirUpdate) {
        let cost = self.cx.cost;
        self.pay(
            TimeCat::Message,
            cost.handler_dirupdate_cycles + self.cx.cfg.smp_lock_cycles(cost),
        );
        let dir = self.v.dir.entry(self.v.block.start);
        assert!(dir.busy, "directory update for a non-busy entry");
        let row = match update {
            DirUpdate::SharedBy { reader } => {
                dir.exclusive = false;
                dir.add_sharer(reader);
                dir.add_sharer(dir.owner);
                Row::DirSharedBy
            }
            DirUpdate::OwnedBy { writer } => {
                dir.grant_exclusive(writer);
                Row::DirOwnedBy
            }
        };
        dir.busy = false;
        if !dir.queue.is_empty() {
            self.fx.push(Effect::Drain);
        }
        self.hit(row);
    }

    // ------------------------------------------------------------------
    // Owner-side forwards
    // ------------------------------------------------------------------

    /// Serves a forwarded read or write (`action`) from this node's copy.
    fn serve(&mut self, action: DowngradeAction, owner_exclusive: bool) {
        let write = matches!(action, DowngradeAction::WriteReply { .. });
        match self.state() {
            LineState::PendingWrite => {
                let e =
                    self.v.miss.get_mut(self.v.block.start).expect("pending state without entry");
                if e.kind == ReqKind::Upgrade && e.deferred_inval.is_none() && !owner_exclusive {
                    // Our (unconverted) upgrade is queued at the home *behind
                    // this very transaction*: the node's still-valid shared
                    // data is current in home serialization order, so serve
                    // it now — waiting would deadlock. After a write the
                    // home converts our upgrade once it sees we are no
                    // longer a sharer; the entry stays pending, and racing
                    // local loads may legally see the old copy meanwhile.
                    self.hit(if write {
                        Row::FwdWriteBeatsUpgrade
                    } else {
                        Row::FwdReadBehindUpgrade
                    });
                    self.act(action, None);
                } else {
                    // Raced ahead of the ownership-granting reply from a
                    // third party (no FIFO with the forward): it drains at
                    // the reply.
                    e.queued_fwds.push(action);
                    self.hit(if write { Row::FwdWriteEarly } else { Row::FwdReadEarly });
                }
            }
            LineState::Shared if !write => {
                // A shared-mode forward: no downgrade needed.
                self.hit(Row::FwdReadShared);
                self.act(action, None);
            }
            LineState::Shared | LineState::Exclusive => {
                self.hit(if write { Row::FwdWriteDowngrade } else { Row::FwdReadDowngrade });
                self.start_downgrade(action);
            }
            state => panic!(
                "forwarded {} reached {} with block {:#x} in state {state:?}",
                if write { "write" } else { "read" },
                self.v.p,
                self.v.block.start
            ),
        }
    }

    /// Performs a deferred action: a data reply with the directory update
    /// that closes its transaction, or an invalidation ack. The data is the
    /// image as the row found it — before any of its effects — unless
    /// `early` substitutes a snapshot.
    fn act(&mut self, action: DowngradeAction, early: Option<Vec<u8>>) {
        let block = self.v.block;
        let (to, msg, update) = match action {
            DowngradeAction::ReadReply { requester } => {
                let data = early.unwrap_or_else(|| self.copy());
                let update = DirUpdate::SharedBy { reader: requester };
                (requester, ProtoMsg::ReadReply { block, data }, Some(update))
            }
            DowngradeAction::WriteReply { requester, acks: acks_expected } => {
                let data = early.unwrap_or_else(|| self.copy());
                let update = DirUpdate::OwnedBy { writer: requester };
                (requester, ProtoMsg::WriteReply { block, data, acks_expected }, Some(update))
            }
            DowngradeAction::InvAck { ack_to } => (ack_to, ProtoMsg::InvAck { block }, None),
        };
        self.send(to, msg);
        if let Some(update) = update {
            self.send(self.home_proc(), ProtoMsg::DirUpdateMsg { block, update });
        }
    }

    // ------------------------------------------------------------------
    // The downgrade protocol (§3.3, §3.4.3)
    // ------------------------------------------------------------------

    /// Downgrades the block on `p`'s node for `action`, messaging exactly
    /// the node mates whose private state tables show they may have
    /// accessed it. With none, the deferred action runs now; otherwise the
    /// last processor to handle its downgrade message runs it — processors
    /// are never stalled during a downgrade.
    fn start_downgrade(&mut self, action: DowngradeAction) {
        let (p, block) = (self.v.p, self.v.block);
        let to = target(action);
        assert!(
            !self.v.downgrades.iter().any(|d| d.block_start == block.start),
            "overlapping downgrades for block {:#x}",
            block.start
        );
        let (cfg, cost, lb) = (self.cx.cfg, self.cx.cost, self.v.image.line_bytes());
        let mut targets = 0u64;
        for q in self.cx.topo.virt_node_procs(self.node_of(p)).map(|q| q.0) {
            if q == p {
                continue;
            }
            // Ablation D1 (no selective downgrades): a SoftFLASH-style
            // shootdown of every node mate.
            let needs = !cfg.selective_downgrades || {
                self.pay(TimeCat::Other, cost.priv_check_cycles);
                let ps = self.v.privs[q as usize].get(block.first_line(lb));
                match to {
                    DowngradeTo::Shared => ps == PrivState::Exclusive,
                    DowngradeTo::Invalid => ps >= PrivState::Shared,
                }
            };
            if needs {
                targets |= 1 << q;
            }
        }
        // The initiator downgrades its own private entry immediately.
        self.fx.push(Effect::PrivCeiling(priv_ceiling(to)));
        let (to_invalid, count) = (to == DowngradeTo::Invalid, targets.count_ones());
        let kind = EventKind::DowngradeStart { block: block.start, to_invalid, targets: count };
        self.fx.push(Effect::Event(kind));
        if targets == 0 {
            self.hit(Row::DowngradeAtOnce);
            return self.complete(action, None);
        }
        self.hit(Row::DowngradeStarted);
        self.pay(TimeCat::Other, cost.downgrade_setup_cycles);
        let pending =
            if to_invalid { LineState::PendingDgInvalid } else { LineState::PendingDgShared };
        self.fx.push(Effect::State(pending));
        // Injected defect: capture the reply data *now* instead of waiting
        // for every local processor to handle its downgrade message — stores
        // legally serviced during the window (§3.4.3) are then missing from
        // the data the requester receives.
        let early_data = (cfg.bug == BugInjection::SkipDowngradeWait
            && !matches!(action, DowngradeAction::InvAck { .. }))
        .then(|| self.copy());
        let prior = self.state();
        let (block_start, remaining, deferred) = (block.start, count, action);
        let entry = DowngradeEntry { block_start, remaining, deferred, prior, early_data };
        self.v.downgrades.push(entry);
        for q in procs_in(targets) {
            self.send(q, ProtoMsg::Downgrade { block, to });
        }
    }

    /// A processor handling its downgrade message: lower its private state,
    /// and run the deferred action if it is the last.
    fn downgrade_msg(&mut self, to: DowngradeTo) {
        let start = self.v.block.start;
        self.pay(TimeCat::Message, self.cx.cost.downgrade_handler_cycles);
        if self.cx.cfg.bug != BugInjection::DropPrivDowngrade {
            self.fx.push(Effect::PrivCeiling(priv_ceiling(to)));
        }
        let downgrades = &mut *self.v.downgrades;
        let i = downgrades.iter().position(|d| d.block_start == start);
        let i = i.expect("downgrade message without entry");
        downgrades[i].remaining -= 1;
        let remaining = downgrades[i].remaining;
        self.fx.push(Effect::Event(EventKind::DowngradeAck { block: start, remaining }));
        if remaining > 0 {
            return self.hit(Row::DowngradeCounted);
        }
        self.hit(Row::DowngradeLast);
        let entry = self.v.downgrades.remove(i);
        self.complete(entry.deferred, entry.early_data);
    }

    /// Finishes a downgrade: the node's final state (flag values written
    /// when invalidating), then the deferred action, whose data is read
    /// *after* every local processor has handled its downgrade, so in-flight
    /// local stores are included.
    fn complete(&mut self, action: DowngradeAction, early: Option<Vec<u8>>) {
        let (cost, block) = (self.cx.cost, self.v.block);
        self.pay(TimeCat::Other, cost.deferred_action_cycles);
        if target(action) == DowngradeTo::Shared {
            self.fx.push(Effect::State(LineState::Shared));
        } else {
            self.fx.push(Effect::State(LineState::Invalid));
            let lines = block.lines(self.v.image.line_bytes());
            self.fx.push(Effect::Flags(cost.flag_write_per_line_cycles * lines));
        }
        self.fx.push(Effect::Event(EventKind::DowngradeDone { block: block.start, action }));
        self.fx.push(Effect::WakeNode);
        self.act(action, early);
    }

    // ------------------------------------------------------------------
    // Invalidations and acknowledgements
    // ------------------------------------------------------------------

    fn invalidate(&mut self, ack_to: u32) {
        self.locked(self.cx.cost.inv_handler_cycles);
        let block = self.v.block;
        match self.state() {
            LineState::Shared | LineState::Exclusive => {
                self.hit(Row::InvalDowngrade);
                self.start_downgrade(DowngradeAction::InvAck { ack_to });
            }
            LineState::PendingRead | LineState::PendingWrite => {
                // The copy being invalidated is concurrently being replaced:
                // defer until the reply is processed (§3.4.2's serialization
                // at the home guarantees the reply is in flight).
                let e =
                    self.v.miss.get_mut(self.v.block.start).expect("pending state without entry");
                assert!(e.deferred_inval.is_none(), "two invalidations deferred for one block");
                e.deferred_inval = Some(ack_to);
                self.hit(Row::InvalDeferred);
            }
            LineState::Invalid => {
                // Stale invalidation (the copy is already gone): just ack.
                self.hit(Row::InvalStale);
                self.send(ack_to, ProtoMsg::InvAck { block });
            }
            LineState::PendingDgShared | LineState::PendingDgInvalid => {
                panic!("invalidation raced an in-progress downgrade on block {:#x}", block.start)
            }
        }
    }

    fn inv_ack(&mut self) {
        let (p, start) = (self.v.p, self.v.block.start);
        self.pay(TimeCat::Message, self.cx.cost.ack_handler_cycles);
        // Acks for a replied entry linger; check them first (a *new* entry
        // for the same block may already exist).
        if let Some(i) = self.v.lingering.iter().position(|l| l.block_start == start) {
            self.v.lingering[i].remaining -= 1;
            if self.v.lingering[i].remaining > 0 {
                return self.hit(Row::AckLingering);
            }
            let LingeringAcks { epoch, requester, .. } = self.v.lingering.swap_remove(i);
            self.fx.push(Effect::FinishStore { epoch, requester });
            return self.hit(Row::AckLast);
        }
        let Some(e) = self.v.miss.get_mut(self.v.block.start) else {
            panic!("invalidation ack at P{p} without a matching miss entry for block {start:#x}");
        };
        // Completion is re-checked when the reply arrives.
        e.early_acks += 1;
        self.hit(Row::AckEarly);
    }

    // ------------------------------------------------------------------
    // Replies at the requester
    // ------------------------------------------------------------------

    /// A reply to the node's `kind` request: fill the block (merging the
    /// stores recorded meanwhile), grant the state, then settle what waited
    /// for the reply.
    fn reply(&mut self, src: u32, kind: ReqKind, data: Option<Vec<u8>>, acks: u32) {
        let (p, block) = (self.v.p, self.v.block);
        self.locked(self.cx.cost.reply_receive_cycles);
        // Self-sourced replies arise when the requester itself executed the
        // home logic (requester == home, or the shared-directory extension):
        // two hops at most.
        let hops = if src == p || src == self.home_proc() { Hops::Two } else { Hops::Three };
        let Some(e) = self.v.miss.get_mut(self.v.block.start) else {
            panic!("{} reply without a miss entry", ["read", "write", "upgrade"][kind as usize]);
        };
        match kind {
            ReqKind::Read => {
                assert_eq!(e.kind, ReqKind::Read, "read reply for a non-read entry");
                assert_eq!(e.requester, p, "reply delivered to a non-requester");
            }
            ReqKind::Write => assert!(
                matches!(e.kind, ReqKind::Write | ReqKind::Upgrade),
                "write reply for a read entry"
            ),
            ReqKind::Upgrade => {
                assert_eq!(e.kind, ReqKind::Upgrade, "upgrade reply for a non-upgrade entry");
                assert!(
                    e.deferred_inval.is_none(),
                    "an upgrade cannot be granted to a processor whose copy was invalidated"
                );
            }
        }
        let resolved =
            EventKind::MissResolved { block: block.start, kind: miss_kind_of(e.kind), hops };
        self.fx.push(Effect::Event(resolved));
        if let Some(mut buf) = data {
            e.apply_stores(&mut buf);
            self.fx.push(Effect::Fill(buf));
        }
        let (state, private) = match kind {
            ReqKind::Read => (LineState::Shared, PrivState::Shared),
            _ => (LineState::Exclusive, PrivState::Exclusive),
        };
        self.fx.push(Effect::Grant(state, private));
        let deferred = e.deferred_inval.take();
        let mut rows = match kind {
            ReqKind::Read => Row::ReadReply.bit(),
            ReqKind::Write => Row::WriteReply.bit(),
            ReqKind::Upgrade => Row::UpgradeReply.bit(),
        };
        if kind == ReqKind::Read {
            if let Some(ack_to) = deferred {
                // The copy just received was already being killed by a
                // concurrent writer: invalidate it now (it has no private
                // copies yet, so this completes at once). Stalled local
                // readers retry and re-fetch.
                let action = DowngradeAction::InvAck { ack_to };
                self.fx.push(Effect::Step(Input::Downgrade(action)));
                rows |= Row::ReadReplyInvalidated.bit();
            }
            // Stores merged while the read was pending chain an exclusive
            // request (§2.1 non-blocking stores + §3.4.2 merging).
            if e.wants_exclusive {
                rows |= Row::ReadReplyChained.bit();
            }
            self.fx.push(if e.wants_exclusive { Effect::Chain } else { Effect::Retire });
            self.rows |= rows;
            return;
        }
        if let Some(ack_to) = deferred {
            // The invalidation targeted the *old* copy; the new exclusive
            // copy postdates the invalidating write (the home serialized
            // them), so acknowledge without invalidating.
            self.fx.push(Effect::Send(ack_to, ProtoMsg::InvAck { block }));
            rows |= Row::WriteReplyAcked.bit();
        }
        e.replied = true;
        e.acks_expected = acks;
        if e.complete() {
            self.fx.push(Effect::FinishStore { epoch: e.store_epoch, requester: e.requester });
            rows |= Row::ReplyStoreDone.bit();
        } else {
            self.v.lingering.push(LingeringAcks {
                block_start: block.start,
                remaining: acks - e.early_acks,
                epoch: e.store_epoch,
                requester: e.requester,
            });
            rows |= Row::ReplyStoreLingers.bit();
        }
        // Forwards that raced ahead of this reply, in arrival order.
        self.fx.extend(e.queued_fwds.iter().map(|&a| Effect::Step(Input::Downgrade(a))));
        self.fx.push(Effect::Retire);
        self.rows |= rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misstable::MissEntry;
    use crate::state::NodeMem;

    /// The block: the first of the heap, homed at P0.
    const B: Block = Block { start: crate::space::HEAP_BASE, len: 64 };

    /// One block's records, on 4 processors in two nodes of 2 (P0 homes
    /// the block), SMP-Shasta.
    struct Fixture {
        cfg: ProtocolConfig,
        cost: CostModel,
        topo: Topology,
        space: SharedSpace,
        dir: Directory,
        miss: MissTable,
        downgrades: Vec<DowngradeEntry>,
        lingering: Vec<LingeringAcks>,
        privs: Vec<PrivTable>,
        image: NodeMem,
        spare: Vec<Vec<u8>>,
    }

    impl Fixture {
        fn new() -> Self {
            let mut space = SharedSpace::new(1 << 16, 64, 4);
            let home = crate::space::HomeHint::Explicit(0);
            space.malloc(64, crate::space::BlockHint::Line, home).unwrap();
            let mut image = NodeMem::new(B.start + B.len, 64);
            image.write(B.start, &[7; 64]);
            let mut dir = Directory::new();
            dir.register(B.start, 0);
            Fixture {
                cfg: ProtocolConfig::smp(),
                cost: CostModel::alpha_4100(),
                topo: Topology::new(4, 2, 2).unwrap(),
                space,
                dir,
                miss: MissTable::new(),
                downgrades: Vec::new(),
                lingering: Vec::new(),
                privs: (0..4).map(|_| PrivTable::new(B.first_line(64) + 1)).collect(),
                image,
                spare: Vec::new(),
            }
        }

        fn with_entry(kind: ReqKind, requester: u32, deferred_inval: Option<u32>) -> Self {
            let mut f = Fixture::new();
            f.miss.insert(MissEntry { deferred_inval, ..MissEntry::new(B, kind, requester, 0) });
            f
        }

        /// Steps `input` at `p` with the block in `state` on `p`'s node.
        fn step(&mut self, p: u32, state: LineState, input: Input) -> (Vec<Effect>, u64) {
            self.image.set_lines_state(B.line_range(64), state);
            let cx = Ctx { cfg: &self.cfg, cost: &self.cost, topo: &self.topo, space: &self.space };
            let mut view = View {
                p,
                block: B,
                dir: &mut self.dir,
                miss: &mut self.miss,
                downgrades: &mut self.downgrades,
                lingering: &mut self.lingering,
                privs: &self.privs,
                image: &self.image,
                spare: &mut self.spare,
            };
            let mut fx = Vec::new();
            let rows = step(&cx, &mut view, input, &mut fx);
            (fx, rows)
        }

        fn locked(&self, handler: u64) -> Effect {
            Effect::Locked(handler + self.cost.smp_lock_cycles)
        }
    }

    fn msg(src: u32, msg: ProtoMsg) -> Input {
        Input::Msg { src, msg }
    }

    /// A shared-mode `FwdRead` meets an upgrade pending *behind* it at the
    /// home: the node's still-valid shared data serves it now.
    #[test]
    fn an_upgrade_pending_owner_serves_a_shared_mode_read() {
        let mut f = Fixture::with_entry(ReqKind::Upgrade, 2, None);
        let fwd = ProtoMsg::FwdRead { block: B, requester: 1, owner_exclusive: false };
        let (fx, rows) = f.step(2, LineState::PendingWrite, msg(0, fwd));
        let update = DirUpdate::SharedBy { reader: 1 };
        assert_eq!(
            fx,
            [
                f.locked(f.cost.handler_read_cycles),
                Effect::Send(1, ProtoMsg::ReadReply { block: B, data: vec![7; 64] }),
                Effect::Send(0, ProtoMsg::DirUpdateMsg { block: B, update }),
            ]
        );
        assert_eq!(rows, Row::FwdReadBehindUpgrade.bit());
        assert!(f.miss.get(B.start).unwrap().queued_fwds.is_empty());
    }

    /// A forward that meets the exclusive copy starts its downgrade in the
    /// same step, messaging only the node mate whose private table shows
    /// exclusive access.
    #[test]
    fn a_forwarded_read_downgrades_only_the_mates_that_hold_the_block() {
        let mut f = Fixture::new();
        f.privs[3].set_range(B.line_range(64), PrivState::Exclusive);
        let fwd = ProtoMsg::FwdRead { block: B, requester: 0, owner_exclusive: true };
        let (fx, rows) = f.step(2, LineState::Exclusive, msg(0, fwd));
        let start = EventKind::DowngradeStart { block: B.start, to_invalid: false, targets: 1 };
        assert_eq!(
            fx,
            [
                f.locked(f.cost.handler_read_cycles),
                Effect::Pay(TimeCat::Other, f.cost.priv_check_cycles),
                Effect::PrivCeiling(PrivState::Shared),
                Effect::Event(start),
                Effect::Pay(TimeCat::Other, f.cost.downgrade_setup_cycles),
                Effect::State(LineState::PendingDgShared),
                Effect::Send(3, ProtoMsg::Downgrade { block: B, to: DowngradeTo::Shared }),
            ]
        );
        assert_eq!(rows, Row::FwdReadDowngrade.bit() | Row::DowngradeStarted.bit());
        let entry = &f.downgrades[0];
        assert_eq!((entry.block_start, entry.remaining), (B.start, 1));
    }

    /// A `FwdWrite` that overtook the reply making this node the owner
    /// waits on the miss entry for that reply.
    #[test]
    fn an_early_forwarded_write_queues_on_the_miss_entry() {
        let mut f = Fixture::with_entry(ReqKind::Write, 2, None);
        let fwd =
            ProtoMsg::FwdWrite { block: B, requester: 1, acks_expected: 1, owner_exclusive: true };
        let (fx, rows) = f.step(2, LineState::PendingWrite, msg(0, fwd));
        assert_eq!(fx, [f.locked(f.cost.handler_write_cycles)]);
        assert_eq!(rows, Row::FwdWriteEarly.bit());
        let queued = &f.miss.get(B.start).unwrap().queued_fwds;
        assert_eq!(*queued, [DowngradeAction::WriteReply { requester: 1, acks: 1 }]);
    }

    /// After a read reply a deferred invalidation downgrades the new copy,
    /// on a fresh view once the reply's state is in.
    #[test]
    fn a_deferred_invalidation_downgrades_a_read_replys_copy() {
        let mut f = Fixture::with_entry(ReqKind::Read, 3, Some(1));
        let reply = ProtoMsg::ReadReply { block: B, data: vec![5; 64] };
        let (fx, rows) = f.step(3, LineState::PendingRead, msg(0, reply));
        let resolved =
            EventKind::MissResolved { block: B.start, kind: MissKind::Read, hops: Hops::Two };
        assert_eq!(
            fx,
            [
                f.locked(f.cost.reply_receive_cycles),
                Effect::Event(resolved),
                Effect::Fill(vec![5; 64]),
                Effect::Grant(LineState::Shared, PrivState::Shared),
                Effect::Step(Input::Downgrade(DowngradeAction::InvAck { ack_to: 1 })),
                Effect::Retire,
            ]
        );
        assert_eq!(rows, Row::ReadReply.bit() | Row::ReadReplyInvalidated.bit());
    }

    /// After a write reply a deferred invalidation only acks: the new
    /// exclusive copy postdates the invalidating write.
    #[test]
    fn a_deferred_invalidation_only_acks_after_a_write_reply() {
        let mut f = Fixture::with_entry(ReqKind::Write, 3, Some(1));
        let reply = ProtoMsg::WriteReply { block: B, data: vec![5; 64], acks_expected: 0 };
        let (fx, rows) = f.step(3, LineState::PendingWrite, msg(1, reply));
        let resolved =
            EventKind::MissResolved { block: B.start, kind: MissKind::Write, hops: Hops::Three };
        assert_eq!(
            fx,
            [
                f.locked(f.cost.reply_receive_cycles),
                Effect::Event(resolved),
                Effect::Fill(vec![5; 64]),
                Effect::Grant(LineState::Exclusive, PrivState::Exclusive),
                Effect::Send(1, ProtoMsg::InvAck { block: B }),
                Effect::FinishStore { epoch: 0, requester: 3 },
                Effect::Retire,
            ]
        );
        let want = [Row::WriteReply, Row::WriteReplyAcked, Row::ReplyStoreDone];
        assert_eq!(rows, want.iter().fold(0, |m, r| m | r.bit()));
    }

    /// An invalidation that finds the copy already gone just acks.
    #[test]
    fn a_stale_invalidation_acks() {
        let mut f = Fixture::new();
        let inval = ProtoMsg::InvalidateReq { block: B, ack_to: 1 };
        let (fx, rows) = f.step(2, LineState::Invalid, msg(0, inval));
        assert_eq!(
            fx,
            [f.locked(f.cost.inv_handler_cycles), Effect::Send(1, ProtoMsg::InvAck { block: B })]
        );
        assert_eq!(rows, Row::InvalStale.bit());
    }

    /// An upgrade from a node the directory no longer lists as a sharer
    /// needs data: it is served as a write, here from the home's copy, and
    /// the home node's own copy is invalidated in place.
    #[test]
    fn an_upgrade_from_a_node_no_longer_sharing_is_served_as_a_write() {
        let mut f = Fixture::new();
        f.dir.entry(B.start).exclusive = false;
        let (fx, rows) = f.step(0, LineState::Shared, msg(2, ProtoMsg::UpgradeReq { block: B }));
        let inval = ProtoMsg::InvalidateReq { block: B, ack_to: 2 };
        assert_eq!(
            fx,
            [
                f.locked(f.cost.handler_upgrade_cycles),
                Effect::Send(
                    2,
                    ProtoMsg::WriteReply { block: B, data: vec![7; 64], acks_expected: 1 }
                ),
                Effect::Event(EventKind::HomeInvalidate { block: B.start, ack_to: 2 }),
                Effect::Step(msg(0, inval)),
            ]
        );
        assert_eq!(rows, Row::HomeUpgradeAsWrite.bit() | Row::HomeWriteGranted.bit());
        let dir = f.dir.entry(B.start);
        assert_eq!((dir.owner, dir.exclusive, dir.sharers), (2, true, 1 << 2));
    }

    /// `docs/PROTOCOL.md` is the table's one listing: every row name
    /// appears in exactly one of its table lines.
    #[test]
    fn every_row_is_listed_once_in_the_protocol_document() {
        let doc = include_str!("../../../../docs/PROTOCOL.md");
        let table: Vec<&str> = doc.lines().filter(|l| l.starts_with('|')).collect();
        assert!(Row::ALL.len() <= 64, "a row is one bit of a u64");
        for row in Row::ALL {
            let name = format!("`{}`", row.name());
            let n: usize = table.iter().map(|l| l.matches(name.as_str()).count()).sum();
            assert_eq!(n, 1, "{name} appears {n} times in docs/PROTOCOL.md's row table");
        }
    }
}
