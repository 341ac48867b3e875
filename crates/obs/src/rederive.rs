//! Event-derived aggregates the engine's own counters do not hold.
//!
//! [`MsgAgg`] rebuilds [`MsgStats`] from `msg-send` events plus the
//! [`SpaceMap`] (message class follows physical placement exactly as in the
//! network layer, and reply payloads are whole blocks), keeping a
//! per-message-kind count/byte table on the side. Messages are the one
//! statistic with two producers in two *layers* — the engine's sends here,
//! the transport's own count in `RunStats::messages` — so [`MsgAgg`] keeps a
//! `crosscheck` demanding **exact** equality between them. [`DowngradeAgg`]
//! adds Figure 8's direction split, acknowledgements and resolutions to the
//! histogram `RunStats` carries. Both are streamed at record time, so ring
//! eviction cannot lose counts. (Misses, downgrade histograms and the
//! Figure 4 breakdown have one producer: the engine folds them into
//! `RunStats` where it emits the event.)

use shasta_stats::{MsgClass, MsgStats};

use crate::event::EventKind;
use crate::profile::SpaceMap;

/// Streaming reconstruction of [`MsgStats`] from `msg-send` events.
///
/// The engine emits exactly one `msg-send` per network send (same-processor
/// posts are plain function calls on both paths), so parity is 1:1. The
/// class is rederived from placement: `downgrade` messages are the
/// downgrade class, everything else is local or remote by whether sender
/// and destination share a physical node. Reply payloads (`read-reply`,
/// `write-reply`) carry a whole coherence block; every other message has no
/// data payload.
#[derive(Clone, Debug, Default)]
pub struct MsgAgg {
    map: SpaceMap,
    stats: MsgStats,
    /// `(label, count, payload bytes)` per message kind, in first-send
    /// order: a short scan, as the engine has under twenty kinds.
    kinds: Vec<(&'static str, u64, u64)>,
}

impl MsgAgg {
    /// An aggregator classifying against the given space snapshot.
    pub fn new(map: SpaceMap) -> Self {
        MsgAgg { map, stats: MsgStats::default(), kinds: Vec::new() }
    }

    /// Feeds one event recorded on processor `p`.
    pub fn observe(&mut self, p: u32, kind: &EventKind) {
        if let EventKind::MsgSend { msg, peer, block } = *kind {
            let class = if msg == "downgrade" {
                MsgClass::Downgrade
            } else if self.map.same_phys(p, peer) {
                MsgClass::Local
            } else {
                MsgClass::Remote
            };
            let payload = if msg == "read-reply" || msg == "write-reply" {
                self.map.block_bytes_of(block).unwrap_or(0)
            } else {
                0
            };
            self.stats.record(class, payload);
            let k = self.kinds.iter().position(|&(label, ..)| label == msg).unwrap_or_else(|| {
                self.kinds.push((msg, 0, 0));
                self.kinds.len() - 1
            });
            let (_, n, bytes) = &mut self.kinds[k];
            *n += 1;
            *bytes += payload;
        }
    }

    /// The rederived counters.
    pub fn stats(&self) -> &MsgStats {
        &self.stats
    }

    /// Per-message-kind `(label, count, payload bytes)` totals in label
    /// order (sorted here, on each call). Sums across kinds equal the class
    /// totals in [`stats`](Self::stats) by construction (each send is
    /// charged to exactly one kind and one class).
    pub fn by_kind(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        let mut kinds = self.kinds.clone();
        kinds.sort_unstable_by_key(|&(label, ..)| label);
        kinds.into_iter()
    }

    /// Compares the event-derived counters against the transport's own,
    /// demanding exact equality in every Figure 7 count and payload-byte
    /// total.
    pub fn crosscheck(&self, network: &MsgStats) -> Result<(), String> {
        for class in MsgClass::ALL {
            let (n, d) = (network.count(class), self.stats.count(class));
            if n != d {
                return Err(format!("{} messages: network {n}, events {d}", class.label()));
            }
            let (n, d) = (network.payload_bytes(class), self.stats.payload_bytes(class));
            if n != d {
                return Err(format!("{} payload bytes: network {n}, events {d}", class.label()));
            }
        }
        Ok(())
    }
}

/// What `downgrade-start` / `-ack` / `-done` events say beyond the Figure 8
/// histogram in `RunStats::downgrades`: the direction split
/// (exclusive→shared vs exclusive→invalid), acknowledgements, and
/// pending-downgrade resolutions.
#[derive(Clone, Debug, Default)]
pub struct DowngradeAgg {
    to_shared: u64,
    to_invalid: u64,
    resolutions: u64,
    acks: u64,
}

impl DowngradeAgg {
    /// Feeds one event.
    pub fn observe(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::DowngradeStart { to_invalid: true, .. } => self.to_invalid += 1,
            EventKind::DowngradeStart { to_invalid: false, .. } => self.to_shared += 1,
            EventKind::DowngradeAck { .. } => self.acks += 1,
            EventKind::DowngradeDone { .. } => self.resolutions += 1,
            _ => {}
        }
    }

    /// Downgrades that left the block shared (exclusive→shared).
    pub fn to_shared(&self) -> u64 {
        self.to_shared
    }

    /// Downgrades that invalidated the block (exclusive→invalid).
    pub fn to_invalid(&self) -> u64 {
        self.to_invalid
    }

    /// Pending downgrades resolved (`downgrade-done` events, §3.4.3).
    pub fn resolutions(&self) -> u64 {
        self.resolutions
    }

    /// Downgrade acknowledgements observed.
    pub fn acks(&self) -> u64 {
        self.acks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::AllocSite;

    #[test]
    fn msg_agg_classifies_by_placement_and_block_payload() {
        let map = SpaceMap {
            line_bytes: 64,
            proc_phys_node: vec![0, 0, 1, 1],
            proc_coh_node: vec![0, 0, 1, 1],
            allocs: vec![AllocSite { start: 0x1000, len: 1_024, block_bytes: 256, label: "a" }],
        };
        let mut agg = MsgAgg::new(map);
        // Remote request (node 0 -> node 1), no payload.
        agg.observe(0, &EventKind::MsgSend { msg: "read-req", peer: 2, block: 0x1000 });
        // Remote reply carries a whole 256 B block.
        agg.observe(2, &EventKind::MsgSend { msg: "read-reply", peer: 0, block: 0x1000 });
        // Local (same node) reply.
        agg.observe(0, &EventKind::MsgSend { msg: "write-reply", peer: 1, block: 0x1100 });
        // Downgrade class wins over placement.
        agg.observe(0, &EventKind::MsgSend { msg: "downgrade", peer: 1, block: 0x1000 });

        let mut want = MsgStats::default();
        want.record(MsgClass::Remote, 0);
        want.record(MsgClass::Remote, 256);
        want.record(MsgClass::Local, 256);
        want.record(MsgClass::Downgrade, 0);
        assert!(agg.crosscheck(&want).is_ok());

        want.record(MsgClass::Local, 0);
        assert!(agg.crosscheck(&want).is_err());
    }

    #[test]
    fn msg_agg_kind_table_sums_to_class_totals() {
        let map = SpaceMap {
            line_bytes: 64,
            proc_phys_node: vec![0, 1],
            proc_coh_node: vec![0, 1],
            allocs: vec![AllocSite { start: 0x1000, len: 1_024, block_bytes: 128, label: "a" }],
        };
        let mut agg = MsgAgg::new(map);
        agg.observe(0, &EventKind::MsgSend { msg: "read-req", peer: 1, block: 0x1000 });
        agg.observe(1, &EventKind::MsgSend { msg: "read-reply", peer: 0, block: 0x1000 });
        agg.observe(1, &EventKind::MsgSend { msg: "read-reply", peer: 0, block: 0x1080 });
        agg.observe(0, &EventKind::MsgSend { msg: "downgrade", peer: 1, block: 0x1000 });
        let kinds: Vec<_> = agg.by_kind().collect();
        assert_eq!(kinds, vec![("downgrade", 1, 0), ("read-reply", 2, 256), ("read-req", 1, 0)]);
    }

    #[test]
    fn downgrade_agg_splits_direction_and_counts_acks() {
        let mut agg = DowngradeAgg::default();
        agg.observe(&EventKind::DowngradeStart { block: 0x1000, to_invalid: false, targets: 2 });
        agg.observe(&EventKind::DowngradeAck { block: 0x1000, remaining: 1 });
        agg.observe(&EventKind::DowngradeAck { block: 0x1000, remaining: 0 });
        let action = crate::DowngradeAction::InvAck { ack_to: 0 };
        agg.observe(&EventKind::DowngradeDone { block: 0x1000, action });
        agg.observe(&EventKind::DowngradeStart { block: 0x1100, to_invalid: true, targets: 0 });
        agg.observe(&EventKind::PollDrain { handled: 1 }); // ignored

        assert_eq!((agg.to_shared(), agg.to_invalid()), (1, 1));
        assert_eq!((agg.resolutions(), agg.acks()), (1, 2));
    }

    #[test]
    fn sync_messages_have_no_payload() {
        let map = SpaceMap {
            line_bytes: 64,
            proc_phys_node: vec![0, 1],
            proc_coh_node: vec![0, 1],
            allocs: Vec::new(),
        };
        let mut agg = MsgAgg::new(map);
        agg.observe(0, &EventKind::MsgSend { msg: "barrier-arrive", peer: 1, block: 0 });
        assert_eq!(agg.stats().count(MsgClass::Remote), 1);
        assert_eq!(agg.stats().payload_bytes(MsgClass::Remote), 0);
    }
}
