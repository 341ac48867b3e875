//! The conservative parallel discrete-event engine: per-physical-node
//! sharding with lookahead windows, bit-identical to the serial loop.
//!
//! # Model
//!
//! Every *physical node* of the topology becomes a **shard**: a private
//! [`Machine`] holding exactly the protocol state its processors can touch
//! (virtual nodes nest inside physical nodes, so memories, miss tables,
//! epoch trackers, and downgrade maps partition cleanly; every cross-node
//! effect in the protocol travels as a message). Each shard owns a network
//! derived from the run's ([`Transport::pdes_shard`]) that delivers
//! intra-node messages locally and journals cross-node sends for the
//! coordinator, and runs the engine's one event loop
//! (`Machine::run_events`) over its own processors — the serial engine is
//! the same loop as a single shard over every processor with an unbounded
//! window. What is left here is coordination: windows, the merge, and the
//! state split.
//!
//! Execution proceeds in **windows**. Let `H` be the smallest candidate key
//! `(time, proc)` over all shards and `L` the transport's lookahead — the
//! minimum one-way latency of any cross-node link ([`NetProfile::lookahead`]
//! / [`Network::lookahead`]). Any message a shard sends at time `t ≥ H`
//! arrives at another shard no earlier than `t + L ≥ H + L`, so no event
//! with key inside the window `[H, H + L)` can *receive* a message produced
//! by a concurrently executing shard. That is the classical conservative
//! (Chandy–Misra–Bryant-style) argument, with the Memory Channel's latency
//! floor as the lookahead.
//!
//! Plain key-below-the-window is *not* sufficient here, though: the serial
//! engine's operation boundary poll (`drain_messages`) is a cascade — each
//! handled message pays dispatch and handler cycles, advancing the clock,
//! which can make further messages eligible — so an event whose key is
//! inside the window can observe arrivals far beyond `H + L`, where
//! not-yet-injected sends from other shards may exist. Two rules restore
//! exactness (see `Machine::op_poll_safe`):
//!
//! * the **globally minimal event** `H` runs with an unbounded cascade —
//!   serially it executes before everything else pending, so its inbox is
//!   provably complete — and guarantees every window makes progress;
//! * any other operation runs only if its poll provably pops *nothing*
//!   (its poll point lies inside the window and strictly before every
//!   visible arrival); otherwise the shard **defers**: it ends its window
//!   early and the event re-runs later, eventually as the global minimum.
//!   Deferral is transparent — simulated time never depends on wall-clock
//!   scheduling, and the event re-executes at the same key with the same
//!   (by then complete) inbox. Message deliveries and resumes never
//!   cascade, so they need no guard.
//!
//! # Reconstructing the serial order
//!
//! Bit-identity needs more: the serial engine stamps every send with a
//! global sequence number (tie-breaker for same-arrival delivery), so the
//! serial *send order* must be reproduced exactly. Each shard's log is
//! exactly the subsequence of serial events on that shard's processors, in
//! order, and the serial scheduler always executes the globally minimal
//! `(time, proc)` candidate — which at every step is some shard's *next
//! unconsumed log entry*. The coordinator therefore performs a min-key
//! merge over the shard log streams, numbering each event's journaled sends
//! in merge order, which reproduces the serial sequence counter value for
//! value. Because deferral lets window key ranges overlap, an executed
//! event is held back from finalization until no shard can still execute a
//! smaller key; provisional numbers on locally delivered messages are
//! rewritten (possibly barriers later — still order-equivalent, see
//! `shasta_memchan::pdes`) and cross-node envelopes injected via
//! [`Transport::pdes_apply`].
//!
//! The merge also replays each event's post-state (executing clock, live
//! fiber count), so `elapsed_cycles` is captured at exactly the serial
//! moment: the first instant the last fiber finished.
//!
//! # Coordination
//!
//! What a window costs on the host is thread handoffs, so the coordinator
//! spends as few as the dependencies allow. Shard `s` lives on worker
//! `s % workers`, and **worker 0 is the coordinator's own thread**: its
//! shards are served inline by the same `serve` function the remote
//! workers loop over, so `set_sim_threads(2)` means two threads. Each round
//! has up to two *phases*, and a phase is one message per remote worker —
//! a `Vec<Cmd>` out (remote batches first, the local shards served while
//! they run), a `Vec<Reply>` back on that worker's own reply channel. A
//! worker with nothing to do in a phase is not woken.
//!
//! * **Apply** goes only to shards with pending injections. The coordinator
//!   caches every shard's latest `ShardStatus` (each reply carries one), and
//!   nothing but an `Apply` or a `Run` changes a shard, so an untouched
//!   shard's cached status is exactly what it would report.
//! * **Run** goes to the shards with a candidate inside the window.
//!
//! A shard's finalized sequence rewrites ride whichever of the two it gets
//! next. The one ordering rule: **whenever injections are applied to a
//! shard, every remap finalized so far is applied in the same
//! `pdes_apply`** — a finalized-but-unapplied local send still carries a
//! provisional number, and would sort behind an injected envelope with a
//! larger final sequence number at the same arrival. Between injections a
//! delayed remap is order-equivalent: a still-provisional number orders
//! after every final one, which is the serial order, because the finalized
//! sender always precedes the provisional sender in the global event order
//! (and a shard that is neither applied to nor run is not observed at all).
//!
//! **Panics.** An application panic re-raised by a fiber (or a protocol
//! assertion) unwinds out of `serve`. On the coordinator's own shards that
//! is already the caller's thread; a remote worker catches it around its
//! batch and sends the payload back in place of the replies, and the
//! coordinator resumes it. Either way the scope closure unwinds, the
//! command channels drop, the remaining workers see the hang-up and return,
//! and `Machine::run` surfaces the *original* panic — as the serial engine
//! does.
//!
//! # Sharded recording
//!
//! Event recording (`shasta-obs`) rides the same merge. A recording shard
//! gets a *journal-mode* recorder — events accumulate in record order,
//! never flushed to rings — drained at every window boundary and shipped
//! with the window log, each `EventEntry` carrying the journal high-water
//! mark that delimits which recorded events it produced. During
//! finalization the coordinator replays each event's slice through the
//! **parent** recorder, so the rings, their eviction and the streaming
//! aggregators (whose transitions depend on the global interleaving) all
//! see the serial record order — byte-identical to an unsharded run. The
//! one piece of global state in the stream, the check-miss id, restarts
//! from zero on every shard; the coordinator rewrites `CheckMiss` ids with
//! the serial allocator formula in finalization order, which reproduces the
//! serial ids exactly.
//!
//! # Why conservative, not optimistic
//!
//! Optimistic PDES (Time Warp) would speculate past the window and roll
//! back on a straggler message. Rollback needs either full state snapshots
//! (memories, directories, miss tables — far too heavy per event) or
//! reverse handlers for every protocol transition (unmaintainable next to
//! a protocol whose correctness is oracle-checked). The Memory Channel's
//! uniform ~1μs latency floor gives a lookahead of thousands of cycles, so
//! windows are wide enough to amortize barriers; conservative execution
//! gets the parallelism without ever needing to undo anything — and keeps
//! the bit-identity argument a proof instead of a hope.
//!
//! See `docs/PERFORMANCE.md` ("Parallel discrete-event execution") for the
//! operational description and `crates/check/tests/parallel_engine_equivalence.rs`
//! for the property suite that pins serial/sharded equality.
//!
//! [`Transport::pdes_shard`]: shasta_memchan::Transport::pdes_shard
//! [`Transport::pdes_apply`]: shasta_memchan::Transport::pdes_apply
//! [`NetProfile::lookahead`]: shasta_cluster::NetProfile::lookahead
//! [`Network::lookahead`]: shasta_memchan::Network

use std::collections::BTreeMap;
use std::mem::take;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};

use shasta_cluster::NodeId;
use shasta_memchan::{Envelope, PdesSendRecord};
use shasta_sim::{FiberPool, Stop, Time};

use crate::api::Dsm;
use crate::protocol::engine::{fiber_body, EventEntry, Exec, Window};
use crate::protocol::machine::Machine;
use crate::protocol::msg::ProtoMsg;

/// An executed-but-unfinalized shard event buffered at the coordinator:
/// the log entry plus everything the event produced — journaled sends and
/// the observability events it recorded.
struct Pending {
    e: EventEntry,
    sends: Vec<PdesSendRecord<ProtoMsg>>,
    obs: Vec<shasta_obs::Event>,
}

/// A shard's schedulable state between phases: its next candidate key, live
/// fibers, and messages in flight (including its journaled outbox). The
/// coordinator caches the latest one per shard; `next_key` is a sound lower
/// bound on every future event of the shard until injections next land on it
/// (a deferral leaves it below the window end).
struct ShardStatus {
    next_key: Option<(Time, u32)>,
    live: u32,
    in_flight: usize,
}

/// Coordinator → worker commands, tagged with the shard they address (a
/// worker may multiplex several shards). Both carry the shard's finalized
/// sequence rewrites so far; see "Coordination" in the module docs for when
/// each is sent.
enum Cmd {
    /// Apply `remap`, execute the window's events, then report the window
    /// log, send journal and resulting status.
    Run { shard: usize, remap: Vec<(u64, u64)>, window: Window },
    /// Apply `remap` and the cross-shard injections in one `pdes_apply`,
    /// then report the resulting status.
    Apply { shard: usize, remap: Vec<(u64, u64)>, inject: Vec<(Envelope<ProtoMsg>, u64)> },
}

/// Worker → coordinator replies.
enum Reply {
    Status {
        shard: usize,
        status: ShardStatus,
    },
    Window {
        shard: usize,
        events: Vec<EventEntry>,
        journal: Vec<(u32, PdesSendRecord<ProtoMsg>)>,
        /// Observability events journaled during the window, in shard
        /// record order; sliced per scheduling event by `obs_upto`.
        obs_events: Vec<shasta_obs::Event>,
        status: ShardStatus,
    },
}

/// One shard: its machine slice, and its fibers and processor set.
struct ShardExec {
    m: Machine,
    ex: Exec,
}

impl ShardExec {
    /// The shard's current status: minimal candidate key, live fibers,
    /// messages in flight.
    fn status(&mut self) -> ShardStatus {
        ShardStatus {
            next_key: self.m.next_key(&mut self.ex),
            live: self.ex.pool.live_count() as u32,
            in_flight: self.m.net.in_flight(),
        }
    }
}

/// The shards one worker owns, by shard index.
type Shards = BTreeMap<usize, ShardExec>;

/// Executes one command on the shard it addresses — the only interpreter of
/// [`Cmd`], shared by the coordinator (for its own shards) and the remote
/// workers.
fn serve(execs: &mut Shards, cmd: Cmd) -> Reply {
    match cmd {
        Cmd::Run { shard, remap, window } => {
            let exec = execs.get_mut(&shard).expect("run for foreign shard");
            exec.m.net.pdes_apply(&remap, Vec::new());
            // The worker answers with the blocking `resume`, which returns
            // once the fiber has handed over its next batch or finished: the
            // answering event's live count includes that.
            while let Stop::Resume(p, resp) = exec.m.run_events(&mut exec.ex, Some(window)) {
                exec.ex.pool.resume(p, resp);
                let answered = exec.ex.log.last_mut().expect("an answer is an event");
                answered.live_after = exec.ex.pool.live_count() as u32;
            }
            let events = take(&mut exec.ex.log);
            let journal = exec.m.net.pdes_take_window();
            let obs_events =
                if exec.m.obs.is_enabled() { exec.m.obs.take_journal() } else { Vec::new() };
            let status = exec.status();
            Reply::Window { shard, events, journal, obs_events, status }
        }
        Cmd::Apply { shard, remap, inject } => {
            let exec = execs.get_mut(&shard).expect("apply for foreign shard");
            // Injections move their destinations' earliest arrivals; a remap
            // only renumbers, which moves no arrival time.
            let shared = exec.m.cfg.load_balance_incoming;
            for (env, _) in &inject {
                exec.m.mark_inbox(env.dst, shared);
            }
            exec.m.net.pdes_apply(&remap, inject);
            Reply::Status { shard, status: exec.status() }
        }
    }
}

/// A remote worker's answer to one batch: the replies in command order, or
/// the payload of the panic (an application panic inside a fiber, a protocol
/// assertion) that interrupted it.
type Served = std::thread::Result<Vec<Reply>>;

/// A remote worker's loop: serve one batch of commands per phase until the
/// coordinator hangs up, then hand the shards back. A panic ends the loop
/// early; its payload travels to the coordinator in place of the replies.
fn worker(mut execs: Shards, rx: Receiver<Vec<Cmd>>, tx: Sender<Served>) -> Shards {
    while let Ok(batch) = rx.recv() {
        let served = catch_unwind(AssertUnwindSafe(|| {
            batch.into_iter().map(|cmd| serve(&mut execs, cmd)).collect()
        }));
        let panicked = served.is_err();
        if tx.send(served).is_err() || panicked {
            break;
        }
    }
    execs
}

/// Runs `bodies` on the sharded engine. Only called from [`Machine::run`]
/// after [`Machine::pdes_eligible`] approved; leaves `m` — statistics
/// included — bit-identical to what the serial loop would have produced.
pub(crate) fn run_sharded(
    m: &mut Machine,
    bodies: Vec<Box<dyn FnOnce(Dsm) + Send>>,
    lookahead: u64,
) {
    let n = m.topo.procs() as usize;
    let shards = m.topo.phys_nodes() as usize;
    let workers = m.sim_threads.min(shards);

    // Route each application body to its owning shard's fiber pool (foreign
    // slots stay permanently finished placeholders, preserving global
    // processor indexing).
    let mut per_shard: Vec<Vec<_>> = (0..shards).map(|_| (0..n).map(|_| None).collect()).collect();
    for (p, body) in bodies.into_iter().enumerate() {
        let s = usize::from(m.topo.phys_node_of(p as u32));
        per_shard[s][p] = Some(fiber_body(p as u32, body));
    }

    let mut execs: Vec<ShardExec> = split_shards(m)
        .into_iter()
        .zip(per_shard)
        .map(|(sm, bodies)| ShardExec { m: sm, ex: Exec::new(FiberPool::spawn_selected(bodies)) })
        .collect();

    // Deterministic telemetry (purely additive; disabled registry = no-op).
    let metrics = m.metrics.clone();
    let m_windows = metrics.counter("pdes.windows");
    let m_rounds = metrics.counter("pdes.rounds");
    let m_remote_rounds = metrics.counter("pdes.remote_rounds");
    let m_events = metrics.counter("pdes.events");
    let m_window_events = metrics.histogram("pdes.window_events");
    let m_shard_events: Vec<_> =
        (0..shards).map(|s| metrics.counter(&format!("pdes.shard.n{s}.events"))).collect();
    let m_shard_idle: Vec<_> =
        (0..shards).map(|s| metrics.counter(&format!("pdes.shard.n{s}.idle_windows"))).collect();
    metrics.gauge("pdes.lookahead_cycles").set(lookahead);
    metrics.gauge("pdes.shards").set(shards as u64);
    metrics.gauge("pdes.workers").set(workers as u64);

    // Recording merge state: the parent's recorder, taken out of
    // `m` so the coordinator can feed them mutably inside the scope (which
    // also borrows `m` for topology lookups); restored after the merge.
    // Shard-local miss ids restart from zero per shard, so CheckMiss events
    // are renumbered with the serial formula in finalization (= serial)
    // order — the merged stream carries the exact serial ids.
    let mut obs_merge = std::mem::take(&mut m.obs);
    let mut merged_next_miss_id: u32 = m.next_miss_id;

    // The latest status of every shard: refreshed by each reply, and exact
    // in between (nothing but an `Apply` or a `Run` changes a shard).
    let mut status: Vec<ShardStatus> = execs.iter_mut().map(ShardExec::status).collect();
    let mut elapsed: Option<u64> = None;
    let mut live: Vec<u32> = status.iter().map(|st| st.live).collect();
    let finished: Shards = std::thread::scope(|scope| {
        // Shard `s` lives on worker `s % workers`; worker 0 is this thread.
        let mut owned: Vec<Shards> = (0..workers).map(|_| Shards::new()).collect();
        for (s, exec) in execs.into_iter().enumerate() {
            owned[s % workers].insert(s, exec);
        }
        let mut owned = owned.into_iter();
        let mut local = owned.next().expect("at least two workers");
        let remotes: Vec<_> = owned
            .map(|shards| {
                let (cmd_tx, cmd_rx) = channel::<Vec<Cmd>>();
                let (reply_tx, reply_rx) = channel::<Served>();
                (cmd_tx, reply_rx, scope.spawn(move || worker(shards, cmd_rx, reply_tx)))
            })
            .collect();
        // One phase: hand every worker its batch (remote workers first, so
        // they run while this thread serves its own shards) and collect the
        // replies. A worker with an empty batch is not woken at all. A
        // remote panic is re-raised here with its original payload, exactly
        // as a panic in a local shard unwinds by itself; either way the
        // command channels drop, the other workers drain out, and the scope
        // joins them before `Machine::run` unwinds to the caller.
        let mut phase = |cmds: Vec<Cmd>| -> Vec<Reply> {
            if cmds.is_empty() {
                return Vec::new();
            }
            let mut batches: Vec<Vec<Cmd>> = (0..workers).map(|_| Vec::new()).collect();
            for cmd in cmds {
                let (Cmd::Run { shard, .. } | Cmd::Apply { shard, .. }) = &cmd;
                batches[shard % workers].push(cmd);
            }
            let mut batches = batches.into_iter();
            let own = batches.next().expect("at least two workers");
            let mut woken = Vec::new();
            for ((cmd_tx, reply_rx, _), batch) in remotes.iter().zip(batches) {
                if !batch.is_empty() {
                    cmd_tx.send(batch).expect("worker hung up");
                    woken.push(reply_rx);
                }
            }
            m_rounds.inc();
            if !woken.is_empty() {
                m_remote_rounds.inc();
            }
            let mut replies: Vec<Reply> =
                own.into_iter().map(|cmd| serve(&mut local, cmd)).collect();
            for reply_rx in woken {
                match reply_rx.recv().expect("worker hung up") {
                    Ok(served) => replies.extend(served),
                    Err(payload) => resume_unwind(payload),
                }
            }
            replies
        };

        // Replay state for elapsed-time capture: the executing clocks and
        // per-shard live counts as of the most recent merged event.
        let mut clocks = vec![Time::ZERO; n];
        if live.iter().all(|&l| l == 0) {
            elapsed = Some(0);
        }

        let mut next_seq: u64 = 0;
        // Executed-but-unfinalized events, per shard, in shard key order
        // (which is nondecreasing across windows: a shard always executes
        // its minimal candidate). An event is *finalized* — its sends
        // numbered and injected, its clock/live effect replayed — only once
        // no shard can still execute an event with a smaller key. A shard
        // that defers mid-window (see `run_events`) leaves events behind the
        // window end, so later windows can overlap this one's key range and
        // the logs cannot simply be merged barrier by barrier.
        let mut buffers: Vec<std::collections::VecDeque<Pending>> =
            (0..shards).map(|_| std::collections::VecDeque::new()).collect();
        // Sequence rewrites and cross-shard injections finalized for each
        // shard and not yet shipped to it (refilled by finalization).
        let mut remaps: Vec<Vec<(u64, u64)>> = (0..shards).map(|_| Vec::new()).collect();
        let mut injections: Vec<Vec<(Envelope<ProtoMsg>, u64)>> =
            (0..shards).map(|_| Vec::new()).collect();
        loop {
            // Apply phase: only a shard that received injections can have a
            // new status (they may add candidates anywhere); every other
            // shard's cached status still stands.
            let mut applies = Vec::new();
            for (s, inject) in injections.iter_mut().enumerate().filter(|(_, i)| !i.is_empty()) {
                applies.push(Cmd::Apply {
                    shard: s,
                    remap: take(&mut remaps[s]),
                    inject: take(inject),
                });
            }
            for reply in phase(applies) {
                let Reply::Status { shard, status: st } = reply else {
                    unreachable!("expected status reply")
                };
                status[shard] = st;
            }

            // `status[s].next_key` lower-bounds shard `s`'s next *execution*
            // key (`None` = no candidate). Sound across the apply phase:
            // injections can only add candidates at or beyond the end of the
            // window whose sends they carry, which is past every currently
            // buffered key.
            let horizon = status.iter().filter_map(|st| st.next_key).min();
            if horizon.is_none() && buffers.iter().all(|b| b.is_empty()) {
                let live_total: u32 = status.iter().map(|st| st.live).sum();
                let in_flight: usize = status.iter().map(|st| st.in_flight).sum();
                if live_total == 0 && in_flight == 0 {
                    break;
                }
                panic!(
                    "parallel engine deadlock: no schedulable candidate on any shard \
                     with {live_total} live fibers and {in_flight} messages in flight \
                     (per-shard live/in-flight: {:?})",
                    status.iter().map(|st| (st.live, st.in_flight)).collect::<Vec<_>>()
                );
            }

            if let Some((h, h_proc)) = horizon {
                let end = h + lookahead;
                let h_shard = usize::from(m.topo.phys_node_of(h_proc));

                // Only shards with sub-horizon work execute this window; the
                // rest cannot act before `end` by construction. The shard
                // owning the horizon event learns its key: that event
                // executes with the global minimum's privileges (see
                // `Machine::run_events`).
                let active: Vec<usize> = (0..shards)
                    .filter(|&s| status[s].next_key.is_some_and(|(t, _)| t < end))
                    .collect();
                let runs = active.iter().map(|&s| {
                    let h_key = (s == h_shard).then_some((h, h_proc));
                    Cmd::Run {
                        shard: s,
                        remap: take(&mut remaps[s]),
                        window: Window { end, h_key },
                    }
                });
                let mut window_total = 0u64;
                for reply in phase(runs.collect()) {
                    let Reply::Window { shard, events: ev, journal, obs_events, status: st } =
                        reply
                    else {
                        unreachable!("expected window reply")
                    };
                    // Group journaled sends under their producing event and
                    // append to the shard's pending buffer.
                    let mut groups: Vec<Vec<PdesSendRecord<ProtoMsg>>> =
                        (0..ev.len()).map(|_| Vec::new()).collect();
                    for (ei, rec) in journal {
                        groups[ei as usize].push(rec);
                    }
                    let cnt = ev.len() as u64;
                    window_total += cnt;
                    if cnt == 0 {
                        m_shard_idle[shard].inc();
                    } else {
                        m_shard_events[shard].add(cnt);
                        m_events.add(cnt);
                    }
                    // Slice the window's recording journal per scheduling
                    // event by the high-water mark the shard logged with
                    // each event.
                    let mut obs_it = obs_events.into_iter();
                    let mut obs_at = 0u32;
                    for (e, sends) in ev.into_iter().zip(groups) {
                        let obs = obs_it.by_ref().take((e.obs_upto - obs_at) as usize).collect();
                        obs_at = e.obs_upto;
                        buffers[shard].push_back(Pending { e, sends, obs });
                    }
                    debug_assert!(
                        obs_it.next().is_none(),
                        "recorded events outside any scheduling event"
                    );
                    status[shard] = st;
                }
                for (s, idle) in m_shard_idle.iter().enumerate() {
                    if !active.contains(&s) {
                        idle.inc();
                    }
                }
                m_windows.inc();
                m_window_events.record(window_total);
            }

            // Finalization: a min-key merge over the buffered stream heads
            // replays the serial event order. The global minimum head is
            // finalizable unless a shard with an *empty* buffer could still
            // execute something smaller (its frontier is at or below the
            // key); numbering journaled sends in finalization order then
            // mirrors the serial sequence counter value for value.
            loop {
                let mut best: Option<((Time, u32), usize)> = None;
                for (s, buf) in buffers.iter().enumerate() {
                    if let Some(pending) = buf.front() {
                        let k = (pending.e.time, pending.e.proc);
                        if best.is_none_or(|(bk, _)| k < bk) {
                            best = Some((k, s));
                        }
                    }
                }
                let Some((k, s)) = best else { break };
                let blocked = (0..shards).any(|s2| {
                    s2 != s && buffers[s2].is_empty() && status[s2].next_key.is_some_and(|f| f <= k)
                });
                if blocked {
                    break;
                }
                let Pending { e, sends, obs } = buffers[s].pop_front().expect("best head vanished");
                // Replay the event's recordings through the parent recorder
                // in finalization order — exactly the serial record order,
                // so rings, their eviction and the aggregators behave
                // byte-identically to a serial run. Shard-local
                // CheckMiss ids are rewritten with the serial allocator.
                for ev in obs {
                    let kind = match ev.kind {
                        shasta_obs::EventKind::CheckMiss { id: _, block, addr, len, write } => {
                            merged_next_miss_id = merged_next_miss_id.wrapping_add(1).max(1);
                            shasta_obs::EventKind::CheckMiss {
                                id: merged_next_miss_id,
                                block,
                                addr,
                                len,
                                write,
                            }
                        }
                        kind => kind,
                    };
                    obs_merge.record(ev.t, ev.proc, kind);
                }
                for rec in sends {
                    next_seq += 1;
                    match rec {
                        PdesSendRecord::Local { prov_seq } => {
                            remaps[s].push((prov_seq, next_seq));
                        }
                        PdesSendRecord::Remote { env } => {
                            let d = usize::from(m.topo.phys_node_of(env.dst));
                            debug_assert_ne!(d, s, "remote record on its own shard");
                            injections[d].push((env, next_seq));
                        }
                    }
                }
                clocks[e.proc as usize] = e.clock_after;
                live[s] = e.live_after;
                if elapsed.is_none() && live.iter().all(|&l| l == 0) {
                    elapsed = Some(clocks.iter().map(|t| t.cycles()).max().unwrap_or(0));
                }
            }
        }

        // Hang up; every remote worker answers by handing its shards back.
        let mut out = local;
        for (cmd_tx, _, handle) in remotes {
            drop(cmd_tx);
            out.extend(handle.join().expect("worker panicked outside a batch"));
        }
        out
    });

    // Join fibers (propagating any application panic), then merge the shard
    // state (in shard order, which is the map's) back into the caller's
    // machine so post-run accessors (stats, audits, memory inspection) see
    // exactly the serial end state.
    let merged: Vec<Machine> = finished
        .into_values()
        .map(|exec| {
            exec.ex.pool.join();
            exec.m
        })
        .collect();
    merge_shards(m, merged);
    m.obs = obs_merge;
    m.stats.elapsed_cycles = elapsed.expect("termination implies elapsed capture");
}

/// Physical node owning virtual node `v` (virtual nodes nest inside
/// physical nodes — `Topology` guarantees clustering divides procs/node).
fn shard_of_vnode(m: &Machine, v: usize) -> usize {
    let p =
        m.topo.virt_node_procs(NodeId(v as u32)).next().expect("virtual node with no processors");
    usize::from(m.topo.phys_node_of(p.0))
}

/// Splits `m`'s protocol state into one machine per physical node. Real
/// state moves to its owning shard; every other slot holds an inert
/// placeholder (foreign state is never touched by construction — all
/// cross-node effects are messages). `m` itself is left holding
/// placeholders until [`merge_shards`] restores it.
fn split_shards(m: &mut Machine) -> Vec<Machine> {
    let n = m.topo.procs() as usize;
    let vnodes = m.topo.virt_nodes() as usize;
    let shards = m.topo.phys_nodes() as usize;

    let mut out: Vec<Machine> = (0..shards)
        .map(|_| {
            // A new machine has nothing mapped, so it is all placeholders:
            // serial, unobserved, deterministic policy, no oracle or step
            // limit.
            let mut sm = Machine::with_line_size(
                m.topo.clone(),
                m.cost.clone(),
                m.cfg,
                m.space.heap_bytes(),
                m.space.line_bytes(),
            );
            sm.space = m.space.clone();
            sm.barrier_participants = m.barrier_participants;
            sm.net = m.net.pdes_shard().expect("pdes_eligible approved an unshardable transport");
            // Recording shards journal in-order and ship each window's
            // events to the coordinator, which replays them through the
            // parent's ring recorder in the merged (serial) event order.
            if m.obs.is_enabled() {
                sm.obs = shasta_obs::Recorder::journal();
            }
            sm
        })
        .collect();

    for v in 0..vnodes {
        let s = shard_of_vnode(m, v);
        std::mem::swap(&mut m.mems[v], &mut out[s].mems[v]);
        std::mem::swap(&mut m.miss[v], &mut out[s].miss[v]);
        std::mem::swap(&mut m.epochs[v], &mut out[s].epochs[v]);
        std::mem::swap(&mut m.downgrades[v], &mut out[s].downgrades[v]);
        std::mem::swap(&mut m.deferred_invals[v], &mut out[s].deferred_invals[v]);
        std::mem::swap(&mut m.lingering[v], &mut out[s].lingering[v]);
    }
    for p in 0..n {
        let s = usize::from(m.topo.phys_node_of(p as u32));
        std::mem::swap(&mut m.privs[p], &mut out[s].privs[p]);
        std::mem::swap(&mut m.dirs[p], &mut out[s].dirs[p]);
        std::mem::swap(&mut m.stalls[p], &mut out[s].stalls[p]);
        std::mem::swap(&mut m.lock_grants[p], &mut out[s].lock_grants[p]);
        std::mem::swap(&mut m.barrier_done[p], &mut out[s].barrier_done[p]);
        out[s].clocks[p] = m.clocks[p];
        out[s].wake_floor[p] = m.wake_floor[p];
        out[s].outstanding_stores[p] = m.outstanding_stores[p];
    }
    // Synchronization managers live where their manager processor lives:
    // lock `l` at processor `l % procs`, barriers at processor 0.
    for (lock, info) in m.locks.drain() {
        let mgr = lock % m.topo.procs();
        let s = usize::from(m.topo.phys_node_of(mgr));
        out[s].locks.insert(lock, info);
    }
    let s0 = usize::from(m.topo.phys_node_of(0));
    out[s0].barriers.extend(m.barriers.drain());
    out
}

/// Moves every shard's end-of-run state back into `m` and folds the
/// per-shard statistics (disjoint by construction: a shard only ever
/// touches its own processors' entries).
fn merge_shards(m: &mut Machine, mut finished: Vec<Machine>) {
    let n = m.topo.procs() as usize;
    let vnodes = m.topo.virt_nodes() as usize;
    for (s, sm) in finished.iter_mut().enumerate() {
        for v in 0..vnodes {
            if shard_of_vnode(m, v) != s {
                continue;
            }
            std::mem::swap(&mut m.mems[v], &mut sm.mems[v]);
            std::mem::swap(&mut m.miss[v], &mut sm.miss[v]);
            std::mem::swap(&mut m.epochs[v], &mut sm.epochs[v]);
            std::mem::swap(&mut m.downgrades[v], &mut sm.downgrades[v]);
            std::mem::swap(&mut m.deferred_invals[v], &mut sm.deferred_invals[v]);
            std::mem::swap(&mut m.lingering[v], &mut sm.lingering[v]);
        }
        for p in 0..n {
            if usize::from(m.topo.phys_node_of(p as u32)) != s {
                continue;
            }
            std::mem::swap(&mut m.privs[p], &mut sm.privs[p]);
            std::mem::swap(&mut m.dirs[p], &mut sm.dirs[p]);
            std::mem::swap(&mut m.stalls[p], &mut sm.stalls[p]);
            std::mem::swap(&mut m.lock_grants[p], &mut sm.lock_grants[p]);
            std::mem::swap(&mut m.barrier_done[p], &mut sm.barrier_done[p]);
            m.clocks[p] = sm.clocks[p];
            m.wake_floor[p] = sm.wake_floor[p];
            m.outstanding_stores[p] = sm.outstanding_stores[p];
            m.stats.breakdowns[p] = sm.stats.breakdowns[p];
        }
        m.locks.extend(sm.locks.drain());
        m.barriers.extend(sm.barriers.drain());
        m.stats.misses = m.stats.misses.merged_with(&sm.stats.misses);
        m.stats.messages = m.stats.messages.merged_with(sm.net.stats());
        m.stats.downgrades = m.stats.downgrades.merged_with(&sm.stats.downgrades);
        m.stats.checks = m.stats.checks.merged_with(&sm.stats.checks);
        m.stats.read_latency_cycles += sm.stats.read_latency_cycles;
        m.stats.read_latency_count += sm.stats.read_latency_count;
        m.stats.shared_dir_lookups += sm.stats.shared_dir_lookups;
        m.stats.load_balanced_requests += sm.stats.load_balanced_requests;
        // Each shard allocated ids 1..=k for its own k misses; the serial
        // allocator would have ended at the total across shards.
        m.next_miss_id = m.next_miss_id.wrapping_add(sm.next_miss_id);
    }
}
