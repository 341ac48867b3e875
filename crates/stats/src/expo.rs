//! Metric snapshots and their deterministic text exposition.
//!
//! The metrics *registry* (counters, gauges, histograms, and the hot-path
//! recording machinery) lives in `shasta-obs`; what lives here is the
//! plain-data **snapshot** a registry exports and the line-oriented text
//! format it is rendered in. Keeping the data model in `shasta-stats`
//! mirrors the crate's role for every other counter family: producers live
//! upstream, the portable representation and its rendering live here, and
//! downstream consumers (the bench bins and the benchmark harness, which
//! read a snapshot's entries, not its text) never need the producer crate.
//!
//! The exposition format is one metric per line, sorted by name, so two
//! snapshots of equal state render byte-identically:
//!
//! ```text
//! # shasta metrics v1
//! counter wire.bytes.data 18724
//! gauge wire.queue.unacked 0 high 7
//! hist wire.ack_rtt_ns.n0.n1 count 120 sum 4567213 min 10433 max 261200 p50 65535 p95 131071 p99 262143
//! ```

use serde::{Deserialize, Serialize};

/// The value of one snapshotted metric.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A sampled level with its high-water mark.
    Gauge {
        /// The most recently set level.
        value: u64,
        /// The highest level ever set.
        high: u64,
    },
    /// A log-scale latency histogram, reduced to its summary statistics.
    /// Percentiles are nearest-rank values at histogram-bucket resolution;
    /// `min`/`max` are exact. All fields are zero when `count` is zero.
    Hist {
        /// Samples recorded.
        count: u64,
        /// Sum of all samples (exact).
        sum: u64,
        /// Smallest sample (exact; 0 when empty).
        min: u64,
        /// Largest sample (exact; 0 when empty).
        max: u64,
        /// 50th percentile (bucket resolution).
        p50: u64,
        /// 95th percentile (bucket resolution).
        p95: u64,
        /// 99th percentile (bucket resolution).
        p99: u64,
    },
}

/// One named metric in a snapshot.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MetricEntry {
    /// Dotted metric name (e.g. `wire.ack_rtt_ns.n0.n1`).
    pub name: String,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time export of a whole metrics registry: entries sorted by
/// name, independent of registration or recording order.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// All metrics, sorted by `name`.
    pub entries: Vec<MetricEntry>,
}

impl Snapshot {
    /// Looks up an entry by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// The counter named `name`, or 0 when absent (absent and never-
    /// incremented are indistinguishable by design).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Entries whose name starts with `prefix`, in name order.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a MetricEntry> {
        self.entries.iter().filter(move |e| e.name.starts_with(prefix))
    }

    /// Renders the deterministic text exposition (see the module docs for
    /// the grammar). Equal snapshots render byte-identically.
    pub fn render(&self) -> String {
        let mut out = String::from("# shasta metrics v1\n");
        for e in &self.entries {
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("counter {} {v}\n", e.name));
                }
                MetricValue::Gauge { value, high } => {
                    out.push_str(&format!("gauge {} {value} high {high}\n", e.name));
                }
                MetricValue::Hist { count, sum, min, max, p50, p95, p99 } => {
                    out.push_str(&format!(
                        "hist {} count {count} sum {sum} min {min} max {max} \
                         p50 {p50} p95 {p95} p99 {p99}\n",
                        e.name
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            entries: vec![
                MetricEntry { name: "a.count".into(), value: MetricValue::Counter(3) },
                MetricEntry {
                    name: "b.depth".into(),
                    value: MetricValue::Gauge { value: 1, high: 9 },
                },
                MetricEntry {
                    name: "c.lat".into(),
                    value: MetricValue::Hist {
                        count: 2,
                        sum: 30,
                        min: 10,
                        max: 20,
                        p50: 15,
                        p95: 20,
                        p99: 20,
                    },
                },
            ],
        }
    }

    #[test]
    fn render_is_deterministic_and_line_oriented() {
        let s = sample();
        let text = s.render();
        assert_eq!(text, s.render());
        assert_eq!(
            text,
            "# shasta metrics v1\n\
             counter a.count 3\n\
             gauge b.depth 1 high 9\n\
             hist c.lat count 2 sum 30 min 10 max 20 p50 15 p95 20 p99 20\n"
        );
    }

    #[test]
    fn lookup_helpers_find_entries() {
        let s = sample();
        assert_eq!(s.counter("a.count"), 3);
        assert_eq!(s.counter("missing"), 0);
        assert!(matches!(s.get("b.depth"), Some(MetricValue::Gauge { high: 9, .. })));
        assert_eq!(s.with_prefix("c.").count(), 1);
    }
}
