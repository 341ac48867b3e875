//! The run loop: conservative global-time scheduling of application fibers,
//! message delivery, and operation execution.
//!
//! The engine always performs the action with the smallest
//! `(simulated time, processor id)` over:
//!
//! * a ready processor's next operation (at its clock plus the operation's
//!   carried compute),
//! * a stalled processor whose stall condition is satisfied (resuming at its
//!   wake floor — the time of the event that satisfied it),
//! * delivery of the earliest arrived message to a stalled or finished
//!   processor (running processors poll at operation boundaries instead,
//!   which is exactly the paper's "poll at loop back-edges" rule: a message
//!   is never handled between an inline check and its load or store).
//!
//! The candidates are not rebuilt per event. Each processor's are cached
//! and recomputed only after an event *marked* it (`Machine::mark`: a step
//! marks its processor, a send its destination, a change to what a stalled
//! processor waits for that processor), and a min-tree over every
//! processor's earliest key yields the deterministic pick at its root (see
//! `crate::protocol::candidates`). Seeded policies choose among the cached
//! candidates at the root's time, listed in processor order, as a full
//! rescan would list them.
//!
//! The loop is the fiber pool's [`Driver`]: `FiberPool::drive` switches to
//! each fiber it answers. While a run-ahead lasts, the fiber's next batch is
//! served on the fiber's own stack by the same `run_ahead`, and only a batch
//! the run-ahead stops in switches back to the loop.

use shasta_sim::{Driver, FiberPool, Stop, Time};
use shasta_stats::{RunStats, TimeCat};

use crate::api::{Dsm, Req, Resp};
use crate::check::AccessKind;
use crate::directory::QueuedReq;
use crate::misstable::{MissEntry, ReqKind};
use crate::protocol::candidates::{self, key, key_proc, Action, Cands, Key, MinTree};
use crate::protocol::config::Mode;
use crate::protocol::machine::{grant, AfterRelease, HostCounts, Machine, Stall, StallKind};
use crate::protocol::msg::ProtoMsg;
use crate::protocol::rows::{self, Ctx, Effect, Input, View};
use crate::space::{Addr, Block};
use crate::state::{LineState, PrivState, INVALID_FLAG};

type Pool = FiberPool<Req, Resp>;

/// The event loop's schedule: every processor's cached candidates.
struct Exec {
    /// Every processor's candidates as last recomputed.
    cache: Vec<Cands>,
    /// Each processor's earliest cached key.
    tree: MinTree,
    /// Reused list of the seeded policies' ties at the minimal time.
    ties: Vec<(u32, Action)>,
    /// Whether the loop stopped inside an iteration, at an answer: re-entry
    /// finishes that iteration (the rest of `ahead`, the oracle sweep) first.
    open: bool,
    /// The run-ahead in progress: the processor and the key its ops must
    /// stay below.
    ahead: Option<(u32, Key)>,
    /// Whether the loop has yet to capture elapsed time.
    elapsed_pending: bool,
}

/// Moves an op that stalls out of the executor into its stall record,
/// leaving a poll behind: an op is observed only when it completes.
fn park(op: &mut Req) -> Req {
    std::mem::replace(op, Req::Poll { pre_cycles: 0 })
}

/// Answers a range read: lands `bytes` in the buffer its request carried
/// and hands that buffer back as the reply. The op keeps its address and
/// length for the oracle.
fn data_reply(op: &mut Req, bytes: &[u8]) -> Resp {
    let Req::ReadRange { buf, .. } = op else { unreachable!("data answers a range read") };
    let mut buf = buf.take().unwrap_or_default();
    buf.clear();
    buf.extend_from_slice(bytes);
    Resp::Data(buf)
}

impl Exec {
    /// The schedule of `n` processors. Its cache starts empty, which is
    /// current because a new machine starts with every processor marked.
    fn new(n: usize) -> Self {
        Exec {
            cache: vec![Cands::NONE; n],
            tree: MinTree::new(n),
            ties: Vec::with_capacity(2 * n),
            open: false,
            ahead: None,
            elapsed_pending: true,
        }
    }
}

/// The machine and its schedule, driving the fiber pool.
struct Run<'m> {
    m: &'m mut Machine,
    ex: Exec,
}

impl Driver<Req, Resp> for Run<'_> {
    /// A run-ahead is what a batch can be served by, so a fiber is offered
    /// to it only while one is open (which `unobserved_steps` gates).
    fn serves(&self) -> bool {
        self.ex.ahead.is_some()
    }

    fn next(&mut self, pool: &mut Pool) -> Stop<Resp> {
        self.m.run_events(&mut self.ex, pool)
    }

    /// Continues the run-ahead that answered `p`, if one did.
    #[inline]
    fn serve(&mut self, pool: &mut Pool, p: u32) -> Option<Resp> {
        debug_assert!(self.ex.ahead.is_none_or(|(q, _)| q == p), "P{p} served out of turn");
        self.m.run_ahead(&mut self.ex, pool).map(|(_, resp)| resp)
    }
}

impl Machine {
    /// Runs one application body per processor to completion and returns the
    /// collected statistics. May be called once per machine.
    ///
    /// # Panics
    ///
    /// Panics on protocol deadlock (with diagnostics), on an application
    /// panic inside a fiber, or if `bodies.len()` differs from the
    /// processor count.
    pub fn run<B: FnOnce(Dsm) + 'static>(&mut self, bodies: Vec<B>) -> RunStats {
        let n = self.topo.procs();
        assert_eq!(bodies.len() as u32, n, "need exactly one program per processor");
        if self.obs.is_enabled() {
            // Everything is allocated by now, whichever of `setup` and
            // `enable_recording` came first.
            self.obs.attach_map(self.space_map());
        }
        // One event loop over every processor, on this thread: the pool
        // switches to each fiber the loop answers, until it hands over a
        // batch its run-ahead does not serve. A panic leaves through here,
        // and dropping `pool` unwinds the suspended fibers.
        let fibers = bodies.into_iter().enumerate().map(|(p, body)| {
            let p = p as u32;
            Box::new(move |api| body(Dsm::new(p, api))) as shasta_sim::FiberBody<Req, Resp>
        });
        let mut pool = FiberPool::spawn_each(fibers.collect());
        pool.drive(&mut Run { m: self, ex: Exec::new(n as usize) });
        self.host = HostCounts {
            picks: self.sched.steps(),
            switches: pool.switches(),
            served: pool.served(),
        };
        if pool.live_count() != 0 || self.net.in_flight() != 0 {
            self.deadlock_panic(&pool);
        }
        pool.join();
        self.stats.messages = *self.net.stats();
        // Release the wire's sockets, if a wire is tapped on.
        if let Some(wire) = &mut self.wire {
            wire.shutdown();
        }
        self.audit();
        self.stats.clone()
    }

    /// The event loop. Executes the scheduling events in order: minimal
    /// `(time, proc)` first, ties broken by candidate position (processor
    /// order) via the schedule policy. Returns [`Stop::Resume`] where it
    /// answers the request a suspended fiber waits on (posted requests and a
    /// finished fiber's tail never stop it), and [`Stop::Idle`] when no
    /// candidate is left (termination, or deadlock: the caller tells which).
    /// The pool delivers the answer and re-enters it once the fiber has
    /// switched back, and it carries on where it stopped.
    fn run_events(&mut self, ex: &mut Exec, pool: &mut Pool) -> Stop<Resp> {
        loop {
            if ex.open {
                if let Some((p, resp)) = self.run_ahead(ex, pool) {
                    return Stop::Resume(p, resp);
                }
                ex.open = false;
                // Checker-only: at quiescent moments the full invariant sweep
                // is sound (no transaction is mid-flight), so run it
                // periodically.
                if self.oracle.is_some()
                    && self.sched.steps().is_multiple_of(512)
                    && self.oracle_quiescent()
                {
                    self.oracle_quiescent_sweep();
                }
            }
            self.refresh(ex, pool);
            // Elapsed time is the clock maximum at the first instant the last
            // fiber has finished.
            if ex.elapsed_pending && pool.live_count() == 0 {
                self.stats.elapsed_cycles =
                    self.clocks.iter().map(|t| t.cycles()).max().unwrap_or(0);
                ex.elapsed_pending = false;
            }
            let Some(root) = ex.tree.root() else { return Stop::Idle };
            let (p, action) = if self.sched.perturbs() {
                candidates::pick_seeded(&mut self.sched, &ex.cache, root, &mut ex.ties)
            } else {
                self.sched.count_step();
                let p = key_proc(root);
                (p, ex.cache[p as usize].first_min().expect("a keyed leaf has a candidate").1)
            };
            if let Some(limit) = self.step_limit {
                if self.sched.steps() > limit {
                    self.liveness_panic(limit, pool);
                }
            }

            ex.open = true;
            let answer = self.step(pool, p, action);
            // Run-ahead (see `unobserved_steps`): an answered `Op` lets `p`'s
            // consecutive ops run without a pick while `p`'s next op stays
            // strictly earlier than every other processor's earliest key.
            // That key is the tree's runner-up, exact as of the pick, and
            // stays exact until an event marks another processor.
            if action == Action::Op && self.stalls[p as usize].is_none() && self.unobserved_steps()
            {
                ex.ahead = Some((p, ex.tree.runner_up(p)));
            }
            if let Some(resp) = answer {
                return Stop::Resume(p, resp);
            }
        }
    }

    /// Services `ex.ahead`'s processor's consecutive ops while (a) no event
    /// marked another processor, so the bound is still every other
    /// processor's earliest key, and (b) the next op is still under it.
    /// Returns the answer to an op its suspended fiber waits on, `ex.ahead`
    /// kept for the fiber's next batch: served on the fiber's stack
    /// ([`Driver::serve`]) or at the loop's re-entry, whichever is reached.
    fn run_ahead(&mut self, ex: &mut Exec, pool: &mut Pool) -> Option<(u32, Resp)> {
        while let Some((p, bound)) = ex.ahead {
            if self.dirty.iter().any(|&q| q != p) || pool.is_finished(p) {
                break;
            }
            let Some(req) = pool.peek_request(p) else { break };
            if key(self.clocks[p as usize] + req.pre_cycles(), p) >= bound {
                break;
            }
            if let Some(resp) = self.step(pool, p, Action::Op) {
                return Some((p, resp));
            }
            if self.stalls[p as usize].is_some() {
                break;
            }
        }
        ex.ahead = None;
        None
    }

    /// Executes one scheduling event. Returns the reply `p`'s fiber is
    /// suspended for, if the event answered it. Marks `p`: an event changes
    /// its own processor's clock, stall, inbox or fiber.
    fn step(&mut self, pool: &mut Pool, p: u32, action: Action) -> Option<Resp> {
        self.mark(p);
        match action {
            Action::Op => self.service_op(pool, p),
            Action::Resume => self.resume_stalled(p).and_then(|resp| pool.reply(p, resp)),
            Action::Msg => {
                self.deliver_inbound(p);
                None
            }
        }
    }

    /// Recomputes the candidates of every processor marked since the last
    /// refresh, leaving the cache and the tree current. Debug builds then
    /// check every processor's cached candidates against a recomputation,
    /// which is what catches an event that changed a candidate unmarked.
    fn refresh(&mut self, ex: &mut Exec, pool: &Pool) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for &p in &dirty {
            self.marked[p as usize] = false;
            let c = self.candidates(pool, p);
            ex.cache[p as usize] = c;
            ex.tree.set(p, c.key(p));
        }
        dirty.clear();
        self.dirty = dirty;
        #[cfg(debug_assertions)]
        for (p, cached) in ex.cache.iter().enumerate() {
            let fresh = self.candidates(pool, p as u32);
            assert_eq!(
                *cached, fresh,
                "P{p}'s cached schedule candidates are stale: an event changed them without \
                 marking P{p}"
            );
        }
    }

    /// Whether nothing observes individual scheduling steps, which is what
    /// makes run-ahead batching legal: the deterministic policy always picks
    /// the minimal `(time, proc)` key (so a locally-minimal run of one
    /// processor's ops is exactly what picking each would choose), and
    /// neither a step limit nor the oracle's periodic quiescent sweep is
    /// consulting the step counter that batched ops skip. An installed fault plan also disqualifies: held-message
    /// releases from the admit guard can introduce new candidates mid-batch,
    /// and the fault RNG draws in global send order.
    fn unobserved_steps(&self) -> bool {
        !self.sched.perturbs()
            && self.oracle.is_none()
            && self.step_limit.is_none()
            && !self.net.fault_active()
    }

    /// `p`'s schedulable actions, computed from scratch: the order — Resume
    /// before Msg for a stalled processor — is load-bearing, because the
    /// deterministic policy breaks key ties by taking the first minimal
    /// entry.
    #[inline]
    fn candidates(&self, pool: &Pool, p: u32) -> Cands {
        let mut cands = Cands::NONE;
        let clock = self.clocks[p as usize];
        match &self.stalls[p as usize] {
            Some(stall) => {
                if self.stall_satisfied(p, stall) {
                    let t = clock.max(self.wake_floor[p as usize]);
                    cands.set(t, Action::Resume);
                }
                if let Some(arr) = self.earliest_inbound(p) {
                    cands.set(clock.max(arr), Action::Msg);
                }
            }
            None => {
                if pool.is_finished(p) {
                    if let Some(arr) = self.earliest_inbound(p) {
                        cands.set(clock.max(arr), Action::Msg);
                    }
                } else if let Some(req) = pool.peek_request(p) {
                    cands.set(clock + req.pre_cycles(), Action::Op);
                }
            }
        }
        cands
    }

    /// Delivers the earliest inbound message to `p` (the `Action::Msg`
    /// step): pop, advance the clock to the arrival, and dispatch.
    pub(crate) fn deliver_inbound(&mut self, p: u32) {
        let env = self.pop_inbound(p).expect("scheduled message vanished");
        let t = self.clocks[p as usize].max(env.arrival);
        self.clocks[p as usize] = t;
        self.dispatch(p, env, t);
    }

    /// Runs one popped message through the delivery guard and, if admitted,
    /// its handler — under the message's causal context, so any message the
    /// handler sends (forward, reply, directory update) inherits the
    /// originating miss's id. The pop costs a dispatch either way. Returns
    /// `false` when the protocol never saw the message: the guard discarded
    /// a duplicate or held an early arrival.
    fn dispatch(&mut self, p: u32, env: shasta_memchan::Envelope<ProtoMsg>, now: Time) -> bool {
        if self.net.fault_active() {
            // A guard release may refill any processor's inbox.
            self.mark_all();
        }
        let admitted = self.net.admit(env, now);
        // Only a recording run needs the event: `emit` counts no message,
        // and labelling one costs a lookup per delivery. It carries the
        // cycle of its `msg-send`, the critical path's delivery edge.
        if let Some(env) = admitted.as_ref().filter(|_| self.obs.is_enabled()) {
            self.obs.record_recv(
                self.clocks[p as usize].cycles(),
                p,
                env.msg.label(),
                env.src,
                env.msg.block_start(),
                env.sent().cycles(),
            );
        }
        self.pay(p, TimeCat::Message, self.cost.msg_dispatch_cycles);
        let Some(env) = admitted else { return false };
        self.set_trace_context(env.trace());
        self.handle_message(p, env.src, env.msg);
        self.set_trace_context(0);
        true
    }

    /// Executes one pending operation of `p` end to end: compute charge,
    /// inline-check surrogate, poll, execute. Returns the reply `p`'s fiber
    /// is suspended for, if the op was answered and was the last it handed over
    /// (an op that stalls leaves a stall record instead).
    pub(crate) fn service_op(&mut self, pool: &mut Pool, p: u32) -> Option<Resp> {
        let req = pool.take_request(p).expect("scheduled op without request");
        self.charge(p, TimeCat::Task, req.pre_cycles());
        // Inline checks on the accesses inside compute loops.
        let surrogate = self.cfg.check.compute_check_cycles(req.pre_cycles());
        if surrogate > 0 {
            self.charge(p, TimeCat::Task, surrogate);
            self.stats.checks.check_cycles += surrogate;
        }
        self.drain_messages(p);
        let Some(resp) = self.exec_op(p, req, false) else {
            debug_assert!(self.stalls[p as usize].is_some(), "no response and no stall");
            return None;
        };
        pool.reply(p, resp)
    }

    /// Handles every message that has arrived at `p` by its current clock
    /// (the poll at an operation boundary / loop back-edge), including the
    /// node's shared incoming queue when load balancing is enabled.
    fn drain_messages(&mut self, p: u32) {
        let mut handled = 0u32;
        loop {
            let now = self.clocks[p as usize];
            match self.earliest_inbound(p) {
                Some(a) if a <= now => {}
                _ => break,
            }
            let Some(env) = self.pop_inbound(p) else { break };
            if self.dispatch(p, env, now) {
                handled += 1;
            }
        }
        if handled > 0 {
            self.obs_event(p, shasta_obs::EventKind::PollDrain { handled });
        }
    }

    /// Earliest message `p` could handle: its own inbox, plus the node's
    /// shared incoming queue under load balancing.
    pub(crate) fn earliest_inbound(&self, p: u32) -> Option<Time> {
        self.net.peek_any_arrival(p, self.cfg.load_balance_incoming)
    }

    /// Pops the earliest message `p` can handle (see [`Self::earliest_inbound`]).
    /// A pop from the node's shared queue moves every node mate's earliest
    /// arrival, so under load balancing it marks them all.
    ///
    /// With a wire tapped on, a remote message is handled in the copy the
    /// wire decodes: the wire is polled until it has arrived. Per (src,
    /// dst) processor pair both the network and the wire deliver in send
    /// order, so the copy is this envelope's; a divergence fails a debug
    /// assertion here, and in release flows into the protocol and fails
    /// the counter differential against a pure-simulation run.
    fn pop_inbound(&mut self, p: u32) -> Option<shasta_memchan::Envelope<ProtoMsg>> {
        let lb = self.cfg.load_balance_incoming;
        if lb {
            self.mark_inbox(p, true);
        }
        let mut env = self.net.pop_any_earliest(p, lb)?;
        if let Some(wire) = &mut self.wire {
            if !self.topo.same_phys_node(env.src, env.dst) {
                let copy = wire.recv(env.src, env.dst);
                debug_assert_eq!(
                    copy, env.msg,
                    "wire-decoded message diverged from the simulated envelope ({} -> {})",
                    env.src, env.dst
                );
                env.msg = copy;
            }
        }
        Some(env)
    }

    /// Advances `p`'s clock by `cycles`; attributes them to `cat` only when
    /// the processor is not stalled (stall windows are attributed wholesale
    /// at resume, which is how the paper hides message handling under stall
    /// time).
    pub(crate) fn pay(&mut self, p: u32, cat: TimeCat, cycles: u64) {
        let start = self.clocks[p as usize];
        self.clocks[p as usize] += cycles;
        if self.stalls[p as usize].is_none() {
            self.obs_slice(p, start, cat, cycles);
        }
    }

    /// Advances `p`'s clock by `cycles`, always attributing them to `cat`
    /// (used before a stall is recorded).
    pub(crate) fn charge(&mut self, p: u32, cat: TimeCat, cycles: u64) {
        let start = self.clocks[p as usize];
        self.clocks[p as usize] += cycles;
        self.obs_slice(p, start, cat, cycles);
    }

    /// Records a stall beginning now.
    fn begin_stall(&mut self, p: u32, kind: StallKind, cat: TimeCat) {
        debug_assert!(self.stalls[p as usize].is_none(), "nested stall");
        self.obs_event(p, shasta_obs::EventKind::StallBegin { cat });
        self.stalls[p as usize] = Some(Stall { kind, since: self.clocks[p as usize], cat });
    }

    /// Records a stall on a miss: `op` retries once every block it touches
    /// has left the pending states.
    fn stall_on_miss(&mut self, p: u32, op: Req, is_read: bool) {
        let cat = if is_read { TimeCat::Read } else { TimeCat::Write };
        self.begin_stall(p, StallKind::Miss { op, is_read }, cat);
    }

    /// Whether `p`'s stall condition is satisfied.
    fn stall_satisfied(&self, p: u32, stall: &Stall) -> bool {
        match &stall.kind {
            StallKind::Miss { op, .. } => {
                let v = self.vnode(p);
                let (addr, len) = op.block_span().expect("a miss stalls an access");
                self.space.blocks_in(addr, len).all(|b| {
                    let s = self.block_state(v, b);
                    !s.pending() && !s.downgrading()
                })
            }
            StallKind::StoreLimit { .. } => {
                self.outstanding_stores[p as usize] < self.cfg.max_outstanding_stores
            }
            StallKind::ReleaseWait { epoch, .. } => {
                self.epochs[self.vnode(p)].quiesced_before(*epoch)
            }
            StallKind::LockWait { lock } => self.lock_grants[p as usize].contains(lock),
            StallKind::BarrierWait { id } => self.barrier_done[p as usize].contains(id),
        }
    }

    /// Resumes a stalled processor; returns the response to hand to its
    /// fiber, or `None` if it transitioned into another stall.
    pub(crate) fn resume_stalled(&mut self, p: u32) -> Option<Resp> {
        let (clock, floor) = (self.clocks[p as usize], self.wake_floor[p as usize]);
        let now = clock.max(floor);
        self.clocks[p as usize] = now;
        let stall = self.stalls[p as usize].take().expect("resume without stall");
        // Another processor's wake set the resume's time (a processor's own
        // bump never raises its floor past its clock).
        if let Some(&by) = self.waker.get(p as usize).filter(|_| floor > clock) {
            self.obs_event(p, shasta_obs::EventKind::Woken { by });
        }
        let window = now - stall.since;
        // The whole stall window becomes one slice (message handling during
        // the stall advanced the clock without attributing — the paper hides
        // it under the stall category).
        self.obs_slice(p, stall.since, stall.cat, window);
        match stall.kind {
            StallKind::Miss { op, is_read, .. } => {
                if is_read {
                    self.stats.read_latency_cycles += window;
                    self.stats.read_latency_count += 1;
                }
                self.exec_op(p, op, true)
            }
            StallKind::StoreLimit { op } => self.exec_op(p, op, true),
            StallKind::ReleaseWait { then, .. } => match then {
                AfterRelease::Nothing => Some(Resp::Unit),
                AfterRelease::Lock(lock) => {
                    self.charge(p, TimeCat::Sync, self.cost.sync_issue_cycles);
                    let mgr = self.lock_manager(lock);
                    self.post(p, mgr, ProtoMsg::LockRel { lock });
                    Some(Resp::Unit)
                }
                AfterRelease::Barrier(id) => {
                    self.charge(p, TimeCat::Sync, self.cost.sync_issue_cycles);
                    self.begin_stall(p, StallKind::BarrierWait { id }, TimeCat::Sync);
                    self.post(p, 0, ProtoMsg::BarrierArrive { id });
                    None
                }
            },
            StallKind::LockWait { lock } => {
                self.lock_grants[p as usize].retain(|&l| l != lock);
                Some(Resp::Unit)
            }
            StallKind::BarrierWait { id } => {
                self.barrier_done[p as usize].retain(|&b| b != id);
                Some(Resp::Unit)
            }
        }
    }

    /// Sends a protocol message, or handles it inline when `src == dst`
    /// (a processor "messaging itself" is a function call in Shasta).
    pub(crate) fn post(&mut self, src: u32, dst: u32, msg: ProtoMsg) {
        self.post_via(src, dst, msg, false);
    }

    /// [`Self::post`], optionally routed to the shared incoming queue of
    /// `dst`'s node (`to_vnode`, the load-balancing extension) instead of
    /// `dst`'s own inbox.
    fn post_via(&mut self, src: u32, dst: u32, msg: ProtoMsg, to_vnode: bool) {
        // A send moves the earliest arrival of the processors polling the
        // inbox it lands in.
        self.mark_inbox(dst, to_vnode);
        if src == dst {
            // A processor "messaging itself" is a plain function call; no
            // send/receive events are recorded for it.
            self.handle_message(src, src, msg);
            return;
        }
        if self.obs.is_enabled() {
            self.obs_event(
                src,
                shasta_obs::EventKind::MsgSend {
                    msg: msg.label(),
                    peer: dst,
                    block: msg.block_start(),
                },
            );
        }
        // The envelope names the send by the cycle its `msg-send` carries.
        self.net.set_send_stamp(self.clocks[src as usize]);
        self.pay(src, TimeCat::Message, self.cost.msg_send_cycles);
        let payload = msg.payload_bytes();
        // Seeded schedule policies stretch individual message latencies
        // (within legal bounds — latency is unspecified) to reorder
        // deliveries; the deterministic policy adds zero.
        let t = self.clocks[src as usize] + self.sched.send_jitter();
        if let Some(wire) = &mut self.wire {
            if !self.topo.same_phys_node(src, dst) {
                wire.send(src, dst, to_vnode, &msg, self.net.trace_context());
            }
        }
        if to_vnode {
            self.net.send_to_vnode(src, dst, msg, payload, t);
        } else {
            let class = matches!(msg, ProtoMsg::Downgrade { .. })
                .then_some(shasta_stats::MsgClass::Downgrade);
            self.net.send(src, dst, msg, payload, t, class);
        }
    }

    /// Manager processor for application lock `lock`.
    pub(crate) fn lock_manager(&self, lock: u32) -> u32 {
        lock % self.topo.procs()
    }

    // ------------------------------------------------------------------
    // Operation execution
    // ------------------------------------------------------------------

    /// Executes one application operation for `p`. Returns the response, or
    /// `None` if the processor stalled (a stall record has been created).
    /// `retry` skips compute and check charging when re-executing after a
    /// stall. An op that stalls moves into its stall record; a range read
    /// that completes moves its buffer into the reply.
    fn exec_op(&mut self, p: u32, mut op: Req, retry: bool) -> Option<Resp> {
        let resp = self.exec_op_inner(p, &mut op, retry);
        if let Some(r) = &resp {
            // A fiber posts these and never reads the reply, so it is checked here.
            let reads = matches!(op, Req::Load { .. } | Req::ReadRange { .. });
            assert!(reads || *r == Resp::Unit, "engine returned {r:?} where unit was expected");
            // Oracle observation happens at commit: the operation completed (a
            // stalled op is observed when its retry finally returns a response).
            if self.oracle.is_some() {
                self.oracle_observe(p, &op, r);
            }
        }
        resp
    }

    fn exec_op_inner(&mut self, p: u32, op: &mut Req, retry: bool) -> Option<Resp> {
        if self.cfg.mode == Mode::Hardware {
            return self.exec_hw(p, op);
        }
        match *op {
            Req::Load { addr, size, fp, .. } => self.exec_load(p, addr, size, fp, retry, op),
            Req::Store { addr, size, value, fp, .. } => {
                self.exec_store(p, addr, size, value, fp, retry, op)
            }
            Req::ReadRange { addr, len, .. } => self.exec_read_range(p, addr, len, retry, op),
            Req::WriteRange { .. } => self.exec_write_range(p, retry, op),
            Req::Acquire { lock, .. } => {
                self.charge(p, TimeCat::Task, self.cost.sync_issue_cycles);
                self.begin_stall(p, StallKind::LockWait { lock }, TimeCat::Sync);
                let mgr = self.lock_manager(lock);
                self.post(p, mgr, ProtoMsg::LockAcq { lock });
                None
            }
            Req::Release { lock, .. } => {
                let v = self.vnode(p);
                let epoch = self.epochs[v].open_epoch();
                self.begin_stall(
                    p,
                    StallKind::ReleaseWait { epoch, then: AfterRelease::Lock(lock) },
                    TimeCat::Write,
                );
                None
            }
            Req::Fence { .. } => {
                let v = self.vnode(p);
                let epoch = self.epochs[v].open_epoch();
                self.begin_stall(
                    p,
                    StallKind::ReleaseWait { epoch, then: AfterRelease::Nothing },
                    TimeCat::Write,
                );
                None
            }
            Req::Barrier { id, .. } => {
                let v = self.vnode(p);
                let epoch = self.epochs[v].open_epoch();
                self.begin_stall(
                    p,
                    StallKind::ReleaseWait { epoch, then: AfterRelease::Barrier(id) },
                    TimeCat::Write,
                );
                None
            }
            Req::Poll { .. } => {
                if self.cfg.check.enabled {
                    let c = self.cfg.check.poll_cycles;
                    self.charge(p, TimeCat::Task, c);
                    self.stats.checks.poll_cycles += c;
                }
                Some(Resp::Unit)
            }
        }
    }

    /// Charges the inline-check cost for a scalar access.
    fn charge_check(&mut self, p: u32, kind: AccessKind) {
        let c = self.cfg.check.check_cycles(kind) + self.cfg.check.poll_cycles;
        self.charge(p, TimeCat::Task, c);
        self.stats.checks.check_cycles += self.cfg.check.check_cycles(kind);
        self.stats.checks.poll_cycles += self.cfg.check.poll_cycles;
        self.stats.checks.checks += 1;
    }

    fn block_of(&self, addr: Addr) -> Block {
        self.space
            .block_of(addr)
            .unwrap_or_else(|| panic!("access to unallocated shared address {addr:#x}"))
    }

    fn exec_load(
        &mut self,
        p: u32,
        addr: Addr,
        size: u8,
        fp: bool,
        retry: bool,
        op: &mut Req,
    ) -> Option<Resp> {
        let v = self.vnode(p);
        if !retry {
            let kind = if fp { AccessKind::FpLoad } else { AccessKind::IntLoad };
            self.charge_check(p, kind);
        }
        // The flag-technique check: compare the loaded longword against the
        // invalid flag; only on a match fall into the miss handler.
        if self.cfg.check.flag_loads() {
            let word = self.mems[v].longword(addr);
            if word != INVALID_FLAG {
                return Some(Resp::Value(self.mems[v].read_scalar(addr, size)));
            }
        } else {
            // No instrumentation: consult the state table directly (used by
            // check-disabled configurations, which also never miss).
            let block = self.block_of(addr);
            if self.block_state(v, block).readable() {
                return Some(Resp::Value(self.mems[v].read_scalar(addr, size)));
            }
        }
        // Miss path: range check + state table lookup distinguishes a real
        // miss from a false miss.
        let block = self.block_of(addr);
        let state = self.block_state(v, block);
        if state.readable() {
            // Application data happened to equal the flag value.
            self.obs_event(p, shasta_obs::EventKind::FalseMiss { block: block.start });
            self.charge(p, TimeCat::Task, self.cfg.check.false_miss_cycles);
            return Some(Resp::Value(self.mems[v].read_scalar(addr, size)));
        }
        let miss_id = self.begin_miss_context();
        self.obs_event(
            p,
            shasta_obs::EventKind::CheckMiss {
                id: miss_id,
                block: block.start,
                addr,
                len: u32::from(size),
                write: false,
            },
        );
        self.charge(p, TimeCat::Task, self.cost.protocol_entry_cycles);
        let resp = match state {
            LineState::PendingDgShared | LineState::PendingDgInvalid => {
                // §3.4.3: the block is mid-downgrade but the prior state was
                // sufficient for a read; service it under the line lock.
                self.pay_locked_priv_update(p, block);
                if state == LineState::PendingDgShared {
                    self.set_priv(p, block, PrivState::Shared);
                }
                Some(Resp::Value(self.mems[v].read_scalar(addr, size)))
            }
            LineState::PendingRead | LineState::PendingWrite => {
                // Another processor on the node already requested the block.
                if self.cfg.mode == Mode::Smp {
                    self.obs_event(p, shasta_obs::EventKind::MissMerged { block: block.start });
                }
                self.stall_on_miss(p, park(op), true);
                self.pay(p, TimeCat::Read, self.smp_lock());
                None
            }
            LineState::Invalid => {
                self.stall_on_miss(p, park(op), true);
                self.issue_request(p, block, ReqKind::Read);
                None
            }
            // readable states were handled above
            LineState::Shared | LineState::Exclusive => unreachable!("readable handled earlier"),
        };
        self.set_trace_context(0);
        resp
    }

    /// Charges a private-state-table update made under `block`'s line lock
    /// (servicing an access the node-level state already permits, §3.4.3).
    fn pay_locked_priv_update(&mut self, p: u32, block: Block) {
        let cycles = self.cost.smp_lock_cycles + self.cost.priv_upgrade_cycles;
        self.locked_pay(p, block, TimeCat::Other, cycles);
    }

    fn smp_lock(&self) -> u64 {
        self.cfg.smp_lock_cycles(&self.cost)
    }

    /// Whether an inline store check passes for `p` on `block`.
    fn store_check_passes(&self, p: u32, block: Block) -> bool {
        match self.cfg.mode {
            // SMP-Shasta: the inline check reads only the private table.
            Mode::Smp => self.priv_state(p, block).writable(),
            // Base-Shasta: the processor's own (node) state table.
            Mode::Base => self.block_state(self.vnode(p), block).writable(),
            Mode::Hardware => true,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_store(
        &mut self,
        p: u32,
        addr: Addr,
        size: u8,
        value: u64,
        _fp: bool,
        retry: bool,
        op: &mut Req,
    ) -> Option<Resp> {
        let v = self.vnode(p);
        if !retry {
            self.charge_check(p, AccessKind::Store);
        }
        let block = self.block_of(addr);
        if self.store_check_passes(p, block) {
            self.mems[v].write_scalar(addr, size, value);
            return Some(Resp::Unit);
        }
        let miss_id = self.begin_miss_context();
        self.obs_event(
            p,
            shasta_obs::EventKind::CheckMiss {
                id: miss_id,
                block: block.start,
                addr,
                len: u32::from(size),
                write: true,
            },
        );
        self.charge(p, TimeCat::Task, self.cost.protocol_entry_cycles);
        let state = self.block_state(v, block);
        let resp = match state {
            LineState::Exclusive => {
                // The node already holds it exclusively: upgrade the private
                // state table (SMP only; unreachable in Base where the check
                // reads the same table).
                debug_assert_eq!(self.cfg.mode, Mode::Smp);
                self.pay_locked_priv_update(p, block);
                self.set_priv(p, block, PrivState::Exclusive);
                self.obs_event(p, shasta_obs::EventKind::PrivateUpgrade { block: block.start });
                self.mems[v].write_scalar(addr, size, value);
                Some(Resp::Unit)
            }
            LineState::PendingDgShared => {
                // Prior state was exclusive: this store may be serviced
                // before the downgrade completes; it will be included in the
                // data the last downgrader sends (§3.4.3).
                self.pay_locked_priv_update(p, block);
                self.mems[v].write_scalar(addr, size, value);
                self.set_priv(p, block, PrivState::Shared);
                Some(Resp::Unit)
            }
            LineState::PendingDgInvalid => {
                let entry = self.downgrades[v].iter().find(|d| d.block_start == block.start);
                let prior = entry.expect("pending-downgrade state without entry").prior;
                if prior.writable() {
                    self.pay_locked_priv_update(p, block);
                    self.mems[v].write_scalar(addr, size, value);
                    self.set_priv(p, block, PrivState::Invalid);
                    Some(Resp::Unit)
                } else {
                    // Prior state insufficient (shared → invalid): wait for
                    // the downgrade to finish, then re-execute as a write
                    // miss on the invalid block.
                    self.stall_on_miss(p, park(op), false);
                    self.pay(p, TimeCat::Write, self.smp_lock());
                    None
                }
            }
            LineState::PendingWrite | LineState::PendingRead if !self.cfg.nonblocking_stores => {
                self.stall_on_miss(p, park(op), false);
                None
            }
            LineState::PendingWrite | LineState::PendingRead => {
                if self.cfg.mode == Mode::Smp {
                    self.obs_event(p, shasta_obs::EventKind::MissMerged { block: block.start });
                }
                self.pay(p, TimeCat::Other, self.smp_lock() + self.cost.miss_entry_cycles);
                self.mems[v].write_scalar(addr, size, value);
                let e =
                    self.miss[v].get_mut(block.start).expect("pending state without miss entry");
                e.merge_store(addr, size, value);
                // A store meeting a pending read chains an exclusive request
                // after the read reply.
                e.wants_exclusive |= state == LineState::PendingRead;
                Some(Resp::Unit)
            }
            LineState::Shared | LineState::Invalid => {
                // A genuine store miss: upgrade (shared) or read-exclusive
                // (invalid) request. Respect the outstanding-store limit.
                if self.outstanding_stores[p as usize] >= self.cfg.max_outstanding_stores {
                    self.begin_stall(p, StallKind::StoreLimit { op: park(op) }, TimeCat::Write);
                    self.set_trace_context(0);
                    return None;
                }
                let kind =
                    if state == LineState::Shared { ReqKind::Upgrade } else { ReqKind::Write };
                if self.cfg.nonblocking_stores {
                    self.issue_request(p, block, kind);
                    // When the requester is its own home the transaction may
                    // have completed inline (the entry is already retired and
                    // the block exclusive); otherwise record the store for
                    // the reply merge.
                    self.mems[v].write_scalar(addr, size, value);
                    if let Some(e) = self.miss[v].get_mut(block.start) {
                        e.merge_store(addr, size, value);
                    } else {
                        debug_assert!(self.block_state(v, block).writable());
                    }
                    Some(Resp::Unit)
                } else {
                    self.stall_on_miss(p, park(op), false);
                    self.issue_request(p, block, kind);
                    None
                }
            }
        };
        self.set_trace_context(0);
        resp
    }

    /// Issues a request for `block` to its home (creating the miss entry and
    /// setting the pending state). Costs accrue to `p` (inside its stall
    /// window if it is stalled).
    pub(crate) fn issue_request(&mut self, p: u32, block: Block, kind: ReqKind) {
        assert!(
            self.miss[self.vnode(p)].get(block.start).is_none(),
            "P{p} issuing {kind:?} for block {:#x} which already has an entry",
            block.start
        );
        self.send_request(p, block, MissEntry::new(block, kind, p, 0), true);
    }

    /// Re-issues the entry of a replied read whose node merged stores while
    /// it was pending (§2.1 non-blocking stores + §3.4.2 merging): an upgrade
    /// if the node still holds the copy the read brought, else a write. The
    /// merged stores stay recorded for the exclusive reply.
    fn chain_request(&mut self, p: u32, block: Block) {
        let v = self.vnode(p);
        let shared = self.block_state(v, block) == LineState::Shared;
        let mut entry = self.miss[v].remove(block.start).expect("a chained read's entry");
        entry.kind = if shared { ReqKind::Upgrade } else { ReqKind::Write };
        entry.wants_exclusive = false;
        self.send_request(p, block, entry, false);
    }

    /// Enters `entry` in `p`'s node's miss table, sets the pending state and
    /// sends the request to the home. A fresh request (`fresh`) takes the
    /// line lock to create its entry; a chained one reuses its entry.
    fn send_request(&mut self, p: u32, block: Block, mut entry: MissEntry, fresh: bool) {
        let v = self.vnode(p);
        let kind = entry.kind;
        if kind != ReqKind::Read {
            self.outstanding_stores[p as usize] += 1;
            entry.store_epoch = self.epochs[v].issue_store();
        }
        self.miss[v].insert(entry);
        let pending = match kind {
            ReqKind::Read => LineState::PendingRead,
            _ => LineState::PendingWrite,
        };
        self.set_block_state(v, block, pending);
        if fresh {
            let cycles = self.smp_lock() + self.cost.miss_entry_cycles;
            self.locked_pay(p, block, TimeCat::Other, cycles);
        } else {
            self.pay(p, TimeCat::Other, self.cost.miss_entry_cycles);
        }
        let home = self.home_proc(block);
        let msg = match kind {
            ReqKind::Read => ProtoMsg::ReadReq { block },
            ReqKind::Write => ProtoMsg::WriteReq { block },
            ReqKind::Upgrade => ProtoMsg::UpgradeReq { block },
        };
        // Future-work extension (§3.1/§5): with shared directory state a
        // requester colocated with the home performs the lookup itself,
        // eliminating the intra-node request message.
        if self.cfg.share_directory
            && self.cfg.mode == Mode::Smp
            && p != home
            && self.vnode(p) == self.vnode(home)
        {
            self.stats.shared_dir_lookups += 1;
            let req = QueuedReq { requester: p, kind };
            self.step_row(p, block, Input::Home { req, queued: false });
        } else {
            // Load-balancing extension: a remote request lands in the home
            // node's shared queue; whichever node processor polls first
            // services it (directory state is shared).
            let to_vnode = self.cfg.load_balance_incoming && self.vnode(p) != self.vnode(home);
            self.post_via(p, home, msg, to_vnode);
        }
    }

    // ------------------------------------------------------------------
    // The transition table's applier
    // ------------------------------------------------------------------

    /// Steps `input`'s row of the transition table for `block` at `p`
    /// (`crate::protocol::rows`) and performs the effects it returns, in
    /// order. The view is built here, so a nested step sees every effect
    /// applied before it.
    pub(crate) fn step_row(&mut self, p: u32, block: Block, input: Input) {
        let v = self.vnode(p);
        let mut view = View {
            p,
            block,
            dir: &mut self.dir,
            miss: &mut self.miss[v],
            downgrades: &mut self.downgrades[v],
            lingering: &mut self.lingering[v],
            privs: &self.privs,
            image: &self.mems[v],
            spare: &mut self.spare_bufs,
        };
        let cx = Ctx { cfg: &self.cfg, cost: &self.cost, topo: &self.topo, space: &self.space };
        // The row's effects go on top of the buffer, above those of the
        // steps this one is nested in, and are popped in the order the row
        // returned them; a nested step pops its own before this one goes on.
        let base = self.fx.len();
        self.rows_stepped |= rows::step(&cx, &mut view, input, &mut self.fx);
        self.fx[base..].reverse();
        while self.fx.len() > base {
            let effect = self.fx.pop().expect("effects above the base");
            self.apply(p, v, block, effect);
        }
    }

    /// Performs one effect of a row stepped at `p` (on virtual node `v`).
    fn apply(&mut self, p: u32, v: usize, block: Block, effect: Effect) {
        match effect {
            Effect::Pay(cat, cycles) => self.pay(p, cat, cycles),
            Effect::Locked(cycles) => self.locked_pay(p, block, TimeCat::Message, cycles),
            Effect::Event(kind) => self.obs_event(p, kind),
            Effect::State(s) => self.set_block_state(v, block, s),
            Effect::Grant(s, private) => {
                self.set_block_state(v, block, s);
                self.set_priv(p, block, private);
                self.bump_wake_vnode(v, p);
            }
            Effect::PrivCeiling(s) => {
                let lines = block.line_range(self.space.line_bytes());
                self.privs[p as usize].downgrade_range(lines, s);
            }
            Effect::Send(to, msg) => self.post(p, to, msg),
            Effect::Fill(buf) => {
                self.mems[v].write(block.start, &buf);
                self.give_back(buf);
            }
            Effect::Flags(cycles) => {
                self.pay(p, TimeCat::Other, cycles);
                self.mems[v].write_flags(block.start, block.len);
            }
            Effect::WakeNode => self.bump_wake_vnode(v, p),
            Effect::FinishStore { epoch, requester } => {
                // Credit the epoch and the requester's outstanding-store
                // budget, waking release and store-limit stalls at the
                // requester's clock.
                self.epochs[v].complete_store(epoch);
                self.outstanding_stores[requester as usize] -= 1;
                self.bump_wake(requester, requester);
                self.bump_wake_vnode(v, requester);
            }
            Effect::Retire => {
                let entry = self.miss[v].remove(block.start).expect("a replied entry");
                self.miss[v].retire(entry);
            }
            Effect::Chain => self.chain_request(p, block),
            Effect::Step(input) => self.step_row(p, block, input),
            Effect::Drain => {
                while let Some(req) = self.dir.entry(block.start).next_queued() {
                    self.step_row(p, block, Input::Home { req, queued: true });
                }
            }
            Effect::Balanced => self.stats.load_balanced_requests += 1,
        }
    }

    // ------------------------------------------------------------------
    // Batched (range) accesses
    // ------------------------------------------------------------------

    /// Classifies the blocks of a range for a batched access, in address
    /// order, requesting any missing ones. Returns whether any block is
    /// still pending (none = ready). `addr`/`len` is the full access range,
    /// so each insufficient block can report the touched span it
    /// contributes.
    fn prepare_range(&mut self, p: u32, write: bool, addr: Addr, len: u64) -> bool {
        let v = self.vnode(p);
        let mut pending = false;
        let end = addr + len;
        let mut next = addr;
        while next < end {
            let block = self.block_of(next);
            next = block.start + block.len;
            let state = self.block_state(v, block);
            let sufficient = if write { state.writable() } else { state.readable() };
            if sufficient {
                // Upgrade the private table if this processor had not
                // established access (SMP; batch checks always use the
                // private table, §3.4.1).
                if self.cfg.mode == Mode::Smp {
                    let want = if write { PrivState::Exclusive } else { PrivState::Shared };
                    if self.priv_state(p, block) < want {
                        self.pay(p, TimeCat::Other, self.cost.priv_upgrade_cycles);
                        self.set_priv(p, block, want);
                        self.obs_event(
                            p,
                            shasta_obs::EventKind::PrivateUpgrade { block: block.start },
                        );
                    }
                }
                continue;
            }
            // The batch check missed on this block: report the span of the
            // range that falls inside it (what the sharing profiler uses).
            let lo = addr.max(block.start);
            let hi = end.min(block.start + block.len);
            let miss_id = self.begin_miss_context();
            self.obs_event(
                p,
                shasta_obs::EventKind::CheckMiss {
                    id: miss_id,
                    block: block.start,
                    addr: lo,
                    len: (hi - lo) as u32,
                    write,
                },
            );
            match state {
                LineState::PendingRead | LineState::PendingWrite => {
                    if self.cfg.mode == Mode::Smp {
                        self.obs_event(p, shasta_obs::EventKind::MissMerged { block: block.start });
                    }
                    // A write needs exclusivity; a pending read will not
                    // grant it, but the wake-and-retry loop re-requests.
                    pending = true;
                }
                LineState::PendingDgShared | LineState::PendingDgInvalid => {
                    if !write && state == LineState::PendingDgShared {
                        // Prior exclusive ⇒ readable during the downgrade.
                        continue;
                    }
                    if !write {
                        // Invalid-bound downgrade: memory is intact until the
                        // last downgrader writes flags; readable now.
                        continue;
                    }
                    pending = true;
                }
                LineState::Invalid => {
                    let kind = if write { ReqKind::Write } else { ReqKind::Read };
                    self.issue_request(p, block, kind);
                    pending = true;
                }
                LineState::Shared => {
                    debug_assert!(write, "shared is readable");
                    self.issue_request(p, block, ReqKind::Upgrade);
                    pending = true;
                }
                LineState::Exclusive => unreachable!("exclusive is sufficient"),
            }
        }
        self.set_trace_context(0);
        pending
    }

    fn charge_batch(&mut self, p: u32, addr: Addr, len: u64, loads_only: bool) {
        let line = self.space.line_bytes();
        let lines = (addr + len - 1) / line - addr / line + 1;
        let c = self.cfg.check.batch_cycles(lines, loads_only) + self.cfg.check.poll_cycles;
        self.charge(p, TimeCat::Task, c);
        self.stats.checks.check_cycles += self.cfg.check.batch_cycles(lines, loads_only);
        self.stats.checks.poll_cycles += self.cfg.check.poll_cycles;
        self.stats.checks.batches += 1;
    }

    fn exec_read_range(
        &mut self,
        p: u32,
        addr: Addr,
        len: u64,
        retry: bool,
        op: &mut Req,
    ) -> Option<Resp> {
        if !retry {
            self.charge_batch(p, addr, len, true);
        }
        if !self.prepare_range(p, false, addr, len) {
            let v = self.vnode(p);
            return Some(data_reply(op, self.mems[v].read(addr, len)));
        }
        self.stall_on_miss(p, park(op), true);
        None
    }

    fn exec_write_range(&mut self, p: u32, retry: bool, op: &mut Req) -> Option<Resp> {
        let Req::WriteRange { addr, ref data, .. } = *op else { unreachable!("a range write") };
        if !retry {
            self.charge_batch(p, addr, data.len() as u64, false);
        }
        if !self.prepare_range(p, true, addr, data.len() as u64) {
            let v = self.vnode(p);
            self.mems[v].write(addr, data);
            return Some(Resp::Unit);
        }
        self.stall_on_miss(p, park(op), false);
        None
    }

    // ------------------------------------------------------------------
    // Hardware (ANL) mode
    // ------------------------------------------------------------------

    fn exec_hw(&mut self, p: u32, op: &mut Req) -> Option<Resp> {
        match *op {
            Req::Load { addr, size, .. } => Some(Resp::Value(self.mems[0].read_scalar(addr, size))),
            Req::Store { addr, size, value, .. } => {
                self.mems[0].write_scalar(addr, size, value);
                Some(Resp::Unit)
            }
            Req::ReadRange { addr, len, .. } => Some(data_reply(op, self.mems[0].read(addr, len))),
            Req::WriteRange { addr, ref data, .. } => {
                self.mems[0].write(addr, data);
                Some(Resp::Unit)
            }
            Req::Acquire { lock, .. } => {
                self.charge(p, TimeCat::Sync, self.cost.hw_lock_cycles);
                let info = self.locks.entry(lock).or_default();
                if info.holder.is_none() {
                    info.holder = Some(p);
                    Some(Resp::Unit)
                } else {
                    info.queue.push_back(p);
                    self.begin_stall(p, StallKind::LockWait { lock }, TimeCat::Sync);
                    None
                }
            }
            Req::Release { lock, .. } => {
                self.charge(p, TimeCat::Sync, self.cost.hw_lock_cycles);
                let info = self.locks.get_mut(&lock).expect("release of unknown lock");
                assert_eq!(info.holder, Some(p), "hardware lock released by non-holder");
                info.holder = info.queue.pop_front();
                if let Some(next) = info.holder {
                    grant(&mut self.lock_grants[next as usize], lock);
                    self.bump_wake(next, p);
                }
                Some(Resp::Unit)
            }
            Req::Barrier { id, .. } => {
                self.charge(p, TimeCat::Sync, self.cost.hw_barrier_cycles);
                let procs = self.barrier_count();
                let info = self.barriers.entry(id).or_default();
                info.arrived += 1;
                if info.arrived == procs {
                    info.arrived = 0;
                    let mut waiting = std::mem::take(&mut info.waiting);
                    for &w in &waiting {
                        grant(&mut self.barrier_done[w as usize], id);
                        self.bump_wake(w, p);
                    }
                    waiting.clear();
                    self.barriers.get_mut(&id).expect("entered above").waiting = waiting;
                    Some(Resp::Unit)
                } else {
                    info.waiting.push(p);
                    self.begin_stall(p, StallKind::BarrierWait { id }, TimeCat::Sync);
                    None
                }
            }
            Req::Fence { .. } => Some(Resp::Unit),
            Req::Poll { .. } => Some(Resp::Unit),
        }
    }

    /// The checker's liveness oracle fired: the run exceeded its scheduling
    /// step budget without completing.
    fn liveness_panic(&self, limit: u64, pool: &Pool) -> ! {
        let mut diag = format!(
            "liveness violation: run exceeded {limit} scheduling steps without completing\n"
        );
        self.append_proc_diag(&mut diag, pool);
        panic!("{diag}");
    }

    /// Appends the state every stuck-run diagnostic opens with: one line per
    /// processor, the in-flight message count, and the fault tally.
    fn append_proc_diag(&self, diag: &mut String, pool: &Pool) {
        use std::fmt::Write as _;
        for p in 0..self.topo.procs() {
            let _ = writeln!(
                diag,
                "  P{p}: clock={} finished={} stall={:?}",
                self.clocks[p as usize],
                pool.is_finished(p),
                self.stalls[p as usize].as_ref().map(|s| &s.kind)
            );
        }
        let _ = writeln!(diag, "  in-flight messages: {}", self.net.in_flight());
        self.append_fault_diag(diag);
    }

    /// Appends the fault-injection tally (and, when messages were lost, the
    /// broken-assumption note) to a panic diagnostic. No-op when no fault
    /// plan is installed, keeping unfaulted diagnostics byte-identical.
    fn append_fault_diag(&self, diag: &mut String) {
        use std::fmt::Write as _;
        if !self.net.fault_active() {
            return;
        }
        let counts = self.net.fault_counts();
        let _ = writeln!(diag, "  injected faults: {counts}");
        let _ = writeln!(diag, "  held awaiting lost predecessor: {}", self.net.held_messages());
        if counts.lost > 0 {
            let _ = writeln!(
                diag,
                "  violated assumption: reliable exactly-once Memory Channel delivery (§2) — \
                 the protocol has no retransmit path, so message loss cannot be tolerated"
            );
        }
    }

    fn deadlock_panic(&self, pool: &Pool) -> ! {
        use std::fmt::Write as _;
        let mut diag = String::from("protocol deadlock: no runnable processor\n");
        self.append_proc_diag(&mut diag, pool);
        for (v, t) in self.miss.iter().enumerate() {
            for e in t.iter() {
                let _ = writeln!(
                    diag,
                    "  vnode {v}: miss entry block={:#x} kind={:?} requester={} replied={}",
                    e.block.start, e.kind, e.requester, e.replied
                );
            }
        }
        panic!("{diag}");
    }
}
