//! Shard state of the simulated [`Network`] for the conservative parallel
//! discrete-event engine.
//!
//! The sharded engine (see `docs/PERFORMANCE.md`, "Parallel discrete-event
//! execution") gives every *physical node* its own network, derived from the
//! run's network by [`Network::for_shard`]. It is the same type on the same
//! send path: intra-node traffic is enqueued as usual, and the one
//! difference is that a cross-node send is journaled instead of enqueued,
//! because it cannot be delivered until the coordinator's next window
//! barrier. The whole-cluster network is simply the case of one shard that
//! owns every node, with nothing to journal.
//!
//! Determinism is the whole game. The serial network stamps every envelope
//! with a global sequence number in send order, and per-inbox delivery is
//! ordered by `(arrival, seq)` — so the *serial send order* is load-bearing
//! state that a parallel execution must reconstruct exactly. A shard cannot
//! know its sends' final positions in that order while a window is still
//! executing, so:
//!
//! * locally delivered sends get **provisional** sequence numbers starting
//!   at [`PDES_PROVISIONAL_BASE`] (far above any final number, so they never
//!   interleave with already-finalized messages in a heap), and
//! * every send is journaled under the index of the window-local event that
//!   produced it ([`Network::pdes_begin_event`]); cross-node sends ride
//!   the journal as full envelopes instead of entering any inbox.
//!
//! At each window barrier the coordinator merges the shards' event logs
//! into the serial execution order, numbers every *finalizable* journaled
//! send in that order, and calls [`Network::pdes_apply`] on each shard to
//! (a) rewrite those provisional numbers to final ones and (b) inject the
//! cross-node envelopes into their destination shards. An event may stay
//! unfinalized across several barriers (the coordinator holds it back while
//! another shard could still execute an earlier event), so a remap is
//! *partial*: queued messages whose provisional number is absent simply
//! stay provisional — they still order after every final number and in
//! send order among themselves, which is exactly the serial order, because
//! finalization follows the global event order. The end result is
//! bit-identical per-inbox delivery order — and even bit-identical sequence
//! numbers — to the serial engine.
//!
//! A shard network refuses fault plans: the sharded engine only engages on
//! fault-free deterministic runs (the gating lives in `shasta-core`), and
//! the fault path's RNG draws are ordered by global send order, which a
//! shard cannot observe mid-window.

use std::cmp::Reverse;

use crate::{Envelope, Network};

/// First provisional sequence number. Far above any final sequence number a
/// real run can reach (the serial counter increments once per send), so a
/// provisionally numbered message never sorts among finalized ones. The
/// provisional counter is never reset: messages may stay queued provisional
/// across barriers, and a reset would let a later window reuse their
/// numbers.
pub const PDES_PROVISIONAL_BASE: u64 = 1 << 62;

/// One send journaled by a shard network during a window, tagged with the
/// window-local index of the event that produced it.
#[derive(Debug)]
pub enum PdesSendRecord<M> {
    /// An intra-shard send, already enqueued in a local inbox under a
    /// provisional sequence number that the barrier will rewrite.
    Local {
        /// The provisional sequence number assigned at send time.
        prov_seq: u64,
    },
    /// A cross-shard send, buffered here (it must not become visible to its
    /// destination until the barrier). The envelope's arrival time was
    /// fully computed at send time — sender-side link state is shard-local
    /// — and its sequence number is assigned by the coordinator.
    Remote {
        /// The complete envelope, routed by its `dst` / `via_vnode` fields.
        env: Envelope<M>,
    },
}

/// What a [`Network`] carries when it is one physical node's shard.
#[derive(Debug)]
pub(crate) struct ShardState<M> {
    /// Window-local index of the event currently executing.
    event: u32,
    /// Sends of the current window, in execution order.
    journal: Vec<(u32, PdesSendRecord<M>)>,
    /// Cross-shard envelopes currently buffered in `journal` (they count as
    /// in flight: they have been sent but not delivered).
    pub(crate) outbox_pending: usize,
}

impl<M> ShardState<M> {
    /// Journals one send under the currently executing event.
    pub(crate) fn journal(&mut self, rec: PdesSendRecord<M>) {
        self.outbox_pending += usize::from(matches!(rec, PdesSendRecord::Remote { .. }));
        self.journal.push((self.event, rec));
    }
}

impl<M: Eq + Clone> Network<M> {
    /// Derives one physical node's shard network from the run's network:
    /// same topology, cost model, link profile and metrics handles (counter
    /// adds commute, so sharded totals equal the serial run's), empty
    /// queues, and a sequence counter in the provisional range.
    ///
    /// The shard network is full-size (global processor indexing), but only
    /// its own node's inboxes and link entry ever hold state.
    ///
    /// # Panics
    ///
    /// Panics if a fault plan is installed: shards cannot reproduce the
    /// fault RNG's global draw order.
    pub fn for_shard(&self) -> Self {
        assert!(self.fault.is_none(), "a faulted network cannot be sharded");
        let mut net = Network::new(self.topo.clone(), self.cost.clone());
        net.profile = self.profile.clone();
        net.metrics = self.metrics.clone();
        net.seq = PDES_PROVISIONAL_BASE;
        net.shard = Some(ShardState { event: 0, journal: Vec::new(), outbox_pending: 0 });
        net
    }

    /// Names the window-local event about to execute, so the sends it makes
    /// are journaled under that index. No-op on a whole-cluster network.
    pub fn pdes_begin_event(&mut self, event_index: u32) {
        if let Some(shard) = &mut self.shard {
            shard.event = event_index;
        }
    }

    /// Drains the per-window send journal, handing the cross-shard outbox
    /// (the `Remote` records) to the coordinator. Empty on a whole-cluster
    /// network.
    pub fn pdes_take_window(&mut self) -> Vec<(u32, PdesSendRecord<M>)> {
        self.shard.as_mut().map_or_else(Vec::new, |shard| {
            shard.outbox_pending = 0;
            std::mem::take(&mut shard.journal)
        })
    }

    /// Applies a window barrier: rewrites the provisional sequence numbers
    /// of queued messages to their final (serial-order) values per `remap`,
    /// and enqueues the cross-shard `injections` (each an envelope plus its
    /// final sequence number).
    ///
    /// `remap` is sorted by provisional number (the coordinator assigns both
    /// monotonically) and partial — a provisional whose producing event the
    /// coordinator is still holding back stays provisional, which orders
    /// identically (after every final, in send order among provisionals).
    pub fn pdes_apply(&mut self, remap: &[(u64, u64)], injections: Vec<(Envelope<M>, u64)>) {
        for heap in self.inboxes.iter_mut().chain(self.node_inboxes.iter_mut()) {
            if remap.is_empty() || heap.is_empty() {
                continue;
            }
            let mut entries = std::mem::take(heap).into_vec();
            for q in &mut entries {
                let Reverse((arrival, seq)) = q.key;
                if seq >= PDES_PROVISIONAL_BASE {
                    if let Ok(i) = remap.binary_search_by_key(&seq, |&(prov, _)| prov) {
                        q.key = Reverse((arrival, remap[i].1));
                    }
                }
            }
            *heap = entries.into();
        }
        for (env, seq) in injections {
            debug_assert!(seq < PDES_PROVISIONAL_BASE);
            self.enqueue_at(env, seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use shasta_cluster::{CostModel, Topology};
    use shasta_sim::Time;
    use shasta_stats::MsgClass;

    use super::*;
    use crate::FaultPlan;

    fn parent() -> Network<u32> {
        Network::new(Topology::new(8, 4, 4).unwrap(), CostModel::alpha_4100())
    }

    /// Intra-shard sends take the ordinary path (provisional numbering
    /// aside) and cross-shard sends stay invisible until applied.
    #[test]
    fn local_delivery_remote_buffering() {
        let mut reference = parent();
        let mut s = reference.for_shard();

        let a_local = s.send(0, 1, 10, 0, Time::ZERO, None);
        let a_remote = s.send(0, 4, 11, 64, Time::ZERO, None);
        assert_eq!(a_local, reference.send(0, 1, 10, 0, Time::ZERO, None));
        assert_eq!(a_remote, reference.send(0, 4, 11, 64, Time::ZERO, None));

        // The local message is poll-able; the remote one is journaled, not
        // queued anywhere — but still counts as in flight.
        assert_eq!(s.peek_any_arrival(1, false), Some(a_local));
        assert_eq!(s.peek_any_arrival(4, false), None);
        assert_eq!(s.in_flight(), 2);
        assert_eq!(s.stats().count(MsgClass::Remote), 1);
        assert_eq!(s.stats().count(MsgClass::Local), 1);

        let window = s.pdes_take_window();
        assert_eq!(window.len(), 2);
        assert!(
            matches!(window[0].1, PdesSendRecord::Local { prov_seq } if prov_seq >= PDES_PROVISIONAL_BASE)
        );
        let PdesSendRecord::Remote { env } = &window[1].1 else {
            panic!("cross-node send must be journaled as Remote")
        };
        assert_eq!((env.src, env.dst, env.arrival), (0, 4, a_remote));
        assert_eq!(s.in_flight(), 1, "taking the window hands the outbox to the coordinator");
    }

    /// A barrier rewrite makes queued provisional messages sort exactly
    /// like serially numbered ones, and injections land in the right inbox.
    #[test]
    fn barrier_apply_finalizes_order() {
        let mut s = parent().for_shard();
        // Two same-arrival local messages, provisionally numbered in send
        // order.
        s.send(4, 5, 40, 0, Time::ZERO, None);
        s.send(4, 5, 41, 0, Time::ZERO, None);
        let window = s.pdes_take_window();
        let provs: Vec<u64> = window
            .iter()
            .map(|(_, r)| match r {
                PdesSendRecord::Local { prov_seq } => *prov_seq,
                PdesSendRecord::Remote { .. } => panic!("local sends only"),
            })
            .collect();
        // Final numbering inverts nothing: serial order == shard order here.
        let remap: Vec<(u64, u64)> =
            provs.iter().enumerate().map(|(i, &p)| (p, i as u64 + 1)).collect();

        // An injected envelope from node 0's shard, final seq 3, same
        // arrival as nothing else (remote latency), routed via the proc
        // inbox.
        let mut donor = parent().for_shard();
        donor.send(0, 5, 99, 0, Time::ZERO, None);
        let mut dw = donor.pdes_take_window();
        let PdesSendRecord::Remote { env } = dw.remove(0).1 else { panic!() };

        s.pdes_apply(&remap, vec![(env, 3)]);
        let a = s.pop_any_earliest(5, false).unwrap();
        let b = s.pop_any_earliest(5, false).unwrap();
        let c = s.pop_any_earliest(5, false).unwrap();
        assert_eq!((a.msg, b.msg, c.msg), (40, 41, 99), "local pair in seq order, MC arrival last");
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "fault plans cannot be installed")]
    fn shard_network_refuses_fault_plans() {
        parent().for_shard().set_fault_plan(FaultPlan::delay(1));
    }
}
