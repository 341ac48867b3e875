//! Inbox order against a reference: every inbox pops its messages in
//! (arrival, enqueue order), whatever mix of sends, pops, fault-plan
//! duplicates and admit-guard releases put them there.
//!
//! The reference keeps each inbox as an unsorted list and takes the minimum
//! `(arrival, enqueue count)` at every pop. Arrival times come from a twin
//! network fed the same sends and drained after each one (the fault plan
//! draws only at send time, so the twin's arrivals are the real network's);
//! the admit guard is modelled from its rules, per (source node,
//! destination node) stream.

use proptest::prelude::*;
use shasta_cluster::{CostModel, Topology};
use shasta_memchan::{FaultPlan, Network};
use shasta_sim::Time;

const PROCS: u32 = 8;

/// Two physical nodes of four processors, four virtual nodes of two.
fn topo() -> Topology {
    Topology::new(PROCS, 4, 2).unwrap()
}

/// One random step: `(kind, bits, time, size)`. Kinds 0 and 1 send, with
/// source, destination and routing taken from `bits`; kind 2 pops.
type Op = (u8, u32, u64, u64);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    // Coarse times and sizes, so equal arrivals (the tie-break) are common.
    proptest::collection::vec((0u8..3, any::<u32>(), 0u64..6, 0u64..3), 1..120)
}

/// A message as the reference queues it.
#[derive(Clone, Copy, Debug)]
struct Queued {
    arrival: Time,
    /// Enqueue count: the tie-break among equal arrivals.
    order: u64,
    id: u32,
    src: u32,
    dst: u32,
    /// Position on its node-pair stream (0 = unsequenced).
    seq: u64,
    /// Index into [`Reference::inboxes`].
    inbox: usize,
}

/// The reference network: unsorted inboxes and a model of the admit guard.
struct Reference {
    topo: Topology,
    /// Processor inboxes, then one shared inbox per virtual node.
    inboxes: Vec<Vec<Queued>>,
    enqueued: u64,
    stamped: Vec<u64>,
    delivered: Vec<u64>,
    held: Vec<Queued>,
}

impl Reference {
    fn new() -> Self {
        let topo = topo();
        let streams = (topo.phys_nodes() * topo.phys_nodes()) as usize;
        Reference {
            inboxes: vec![Vec::new(); (topo.procs() + topo.virt_nodes()) as usize],
            enqueued: 0,
            stamped: vec![0; streams],
            delivered: vec![0; streams],
            held: Vec::new(),
            topo,
        }
    }

    fn stream(&self, src: u32, dst: u32) -> usize {
        let nodes = self.topo.phys_nodes();
        (self.topo.phys_node_of(src).0 * nodes + self.topo.phys_node_of(dst).0) as usize
    }

    fn vnode_inbox(&self, p: u32) -> usize {
        (PROCS + self.topo.virt_node_of(p).0) as usize
    }

    fn enqueue(&mut self, mut q: Queued, arrival: Time) {
        q.arrival = arrival;
        q.order = self.enqueued;
        self.enqueued += 1;
        self.inboxes[q.inbox].push(q);
    }

    /// Position of `inbox`'s earliest `(arrival, order)` entry.
    fn head(&self, inbox: usize) -> Option<usize> {
        let q = &self.inboxes[inbox];
        (0..q.len()).min_by_key(|&i| (q[i].arrival, q[i].order))
    }

    fn head_arrival(&self, inbox: usize) -> Option<Time> {
        self.head(inbox).map(|i| self.inboxes[inbox][i].arrival)
    }

    fn peek_any(&self, p: u32, include_vnode: bool) -> Option<Time> {
        let own = self.head_arrival(p as usize);
        let shared = if include_vnode { self.head_arrival(self.vnode_inbox(p)) } else { None };
        own.into_iter().chain(shared).min()
    }

    /// The processor's own inbox wins an arrival tie with the shared one.
    fn pop_any(&mut self, p: u32, include_vnode: bool) -> Option<Queued> {
        let own = self.head_arrival(p as usize);
        let shared = if include_vnode { self.head_arrival(self.vnode_inbox(p)) } else { None };
        let inbox = match (own, shared) {
            (Some(a), Some(b)) if b < a => self.vnode_inbox(p),
            (Some(_), _) => p as usize,
            (None, Some(_)) => self.vnode_inbox(p),
            (None, None) => return None,
        };
        let i = self.head(inbox).expect("a head was peeked");
        Some(self.inboxes[inbox].remove(i))
    }

    /// The admit guard: a stream's positions pass once each and in order;
    /// an early one is held until its predecessor passes, then re-queued
    /// no earlier than `now`.
    fn admit(&mut self, q: Queued, now: Time) -> Option<Queued> {
        if q.seq == 0 {
            return Some(q);
        }
        let s = self.stream(q.src, q.dst);
        if q.seq <= self.delivered[s] {
            return None;
        }
        if q.seq > self.delivered[s] + 1 {
            self.held.push(q);
            return None;
        }
        self.delivered[s] = q.seq;
        let next = q.seq + 1;
        let (release, keep): (Vec<Queued>, Vec<Queued>) = std::mem::take(&mut self.held)
            .into_iter()
            .partition(|h| self.stream(h.src, h.dst) == s && h.seq <= next);
        self.held = keep;
        for h in release.into_iter().filter(|h| h.seq == next) {
            self.enqueue(h, h.arrival.max(now));
        }
        Some(q)
    }

    fn in_flight(&self) -> usize {
        self.inboxes.iter().map(Vec::len).sum::<usize>() + self.held.len()
    }
}

/// Runs `ops` on a network and on the reference, comparing every pop, every
/// admit verdict and every processor's `peek_any_arrival`, then drains both.
fn check(ops: &[Op], plan: FaultPlan, guard: bool) {
    let cost = CostModel::alpha_4100();
    let mut net: Network<u32> = Network::new(topo(), cost.clone());
    let mut twin: Network<u32> = Network::new(topo(), cost);
    net.set_fault_plan(plan);
    twin.set_fault_plan(plan);
    let mut reference = Reference::new();

    let pop = |net: &mut Network<u32>, reference: &mut Reference, p: u32, lb: bool, late: u64| {
        let got = net.pop_any_earliest(p, lb);
        let want = reference.pop_any(p, lb);
        assert_eq!(
            got.as_ref().map(|e| (e.msg, e.arrival, e.src, e.dst)),
            want.map(|q| (q.id, q.arrival, q.src, q.dst)),
            "P{p} (shared inbox: {lb}) popped out of (arrival, enqueue) order"
        );
        let (Some(env), Some(q)) = (got, want) else { return false };
        if guard {
            let now = env.arrival.max(Time::from_cycles(late));
            let admitted = net.admit(env, now).map(|e| e.msg);
            assert_eq!(admitted, reference.admit(q, now).map(|q| q.id), "admit verdict");
            assert_eq!(net.held_messages(), reference.held.len(), "held messages");
        }
        true
    };

    for (id, &(kind, bits, time, size)) in ops.iter().enumerate() {
        let id = id as u32;
        if kind < 2 {
            let (src, dst, vnode) = (bits % PROCS, (bits >> 3) % PROCS, (bits >> 6) & 1 == 1);
            let (now, payload) = (Time::from_cycles(time * 500), size * 64);
            if vnode {
                net.send_to_vnode(src, dst, id, payload, now);
                twin.send_to_vnode(src, dst, id, payload, now);
            } else {
                net.send(src, dst, id, payload, now, None);
                twin.send(src, dst, id, payload, now, None);
            }
            // The twin's inbox held nothing before this send: what it pops
            // now is the message and, if the plan duplicated it, its copy.
            let mut arrivals = Vec::new();
            while let Some(env) = twin.pop_any_earliest(dst, vnode) {
                arrivals.push(env.arrival);
            }
            arrivals.sort();
            assert!((1..=2).contains(&arrivals.len()), "a send queues itself and maybe a copy");
            let seq = if !plan.is_none() && !reference.topo.same_phys_node(src, dst) {
                let s = reference.stream(src, dst);
                reference.stamped[s] += 1;
                reference.stamped[s]
            } else {
                0
            };
            let inbox = if vnode { reference.vnode_inbox(dst) } else { dst as usize };
            let q = Queued { arrival: Time::ZERO, order: 0, id, src, dst, seq, inbox };
            for a in arrivals {
                reference.enqueue(q, a);
            }
        } else {
            pop(&mut net, &mut reference, bits % PROCS, (bits >> 3) & 1 == 1, time * 500);
        }
        assert_eq!(net.in_flight(), reference.in_flight(), "in flight after op {id}");
        for p in 0..PROCS {
            for lb in [false, true] {
                assert_eq!(
                    net.peek_any_arrival(p, lb),
                    reference.peek_any(p, lb),
                    "P{p}'s earliest arrival (shared inbox: {lb}) after op {id}"
                );
            }
        }
    }
    // Drain: no plan here loses a message, so every hold is released.
    while (0..PROCS).any(|p| pop(&mut net, &mut reference, p, true, 0)) {}
    assert_eq!((net.in_flight(), reference.in_flight()), (0, 0), "drained");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    #[test]
    fn inboxes_pop_in_arrival_then_enqueue_order(ops in ops()) {
        check(&ops, FaultPlan::none(), false);
    }

    #[test]
    fn the_guard_passes_unsequenced_messages_in_order(ops in ops()) {
        check(&ops, FaultPlan::none(), true);
    }

    #[test]
    fn duplicates_and_reorders_queue_in_arrival_order(ops in ops(), seed in any::<u64>()) {
        check(&ops, FaultPlan::chaos(seed), false);
    }

    #[test]
    fn released_held_messages_queue_behind_their_arrival(ops in ops(), seed in any::<u64>()) {
        check(&ops, FaultPlan::chaos(seed), true);
    }
}
