//! The engine's sends, classified as the transport classifies them.
//!
//! [`MsgAgg`] rebuilds [`MsgStats`] from `msg-send` events plus the
//! [`SpaceMap`] (message class follows physical placement exactly as in the
//! network layer, and reply payloads are whole blocks). Messages are the one
//! statistic with two producers in two *layers* — the engine's sends here,
//! the transport's own count in `RunStats::messages` — so [`MsgAgg`] keeps a
//! `crosscheck` demanding **exact** equality between them. It is streamed at
//! record time. (Misses, downgrade histograms and the Figure 4 breakdown
//! have one producer: the engine folds them into `RunStats` where it emits
//! the event. Figure 8's direction split and resolutions come from the
//! sharing profiler's per-block histories.)

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
}

impl MsgAgg {
    /// An aggregator classifying against the given space snapshot.
    pub fn new(map: SpaceMap) -> Self {
        MsgAgg { map, stats: MsgStats::default() }
    }

    /// Heap bytes the aggregator holds: its space snapshot's tables.
    pub(crate) fn held_bytes(&self) -> usize {
        self.map.held_bytes()
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
        }
    }

    /// The rederived counters.
    pub fn stats(&self) -> &MsgStats {
        &self.stats
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
