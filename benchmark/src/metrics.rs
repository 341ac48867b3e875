//! The benchmark's vocabulary: every workload and every metric it may print,
//! with unit and direction. `BENCHMARK.json` is the published copy of these
//! tables (`tests/contract.rs` keeps the two identical), and a report is
//! produced by walking a table, so each name is printed exactly once.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics are unbounded).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower, bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher, bound: 0.0 }
}

/// `(name, why)` — the one-line reason is what `BENCHMARK.json` publishes;
/// the README has the long form.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "hw16_hits",
        "4 kernels, hardware coherence 16p: zero misses and messages, so only fiber rendezvous and schedule pick run; bypasses every protocol layer",
    ),
    (
        "base16_msgs",
        "4 kernels, Base-Shasta 16p, one processor per node: every miss is remote, so protocol handlers and memchan do the most work",
    ),
    (
        "smp16c4_sharing",
        "4 kernels, SMP-Shasta 16p clustering 4: same handlers used for downgrades, merged misses, private tables and intra-node messages",
    ),
    (
        "smp16c4_pdes2",
        "smp16c4_sharing with set_sim_threads(2): isolates the sharded engine's window coordination; ratio to the serial run is its work efficiency",
    ),
    (
        "smp16c4_recorded",
        "smp16c4_sharing with event recording (ring 65536) and take_obs timed: isolates the obs recorder and aggregators",
    ),
    (
        "wire_uds",
        "LU and Water-Nsq, SMP 16p/c4, over the lossless UDS loopback transport, checked against pure-sim twins: encode, syscall and ACK path",
    ),
    (
        "wire_lossy",
        "LU Tiny SMP 8p/c4 over UDS with every 7th DATA frame dropped: retransmit timer, holds and resequencing; wall is mostly timer sleep",
    ),
    (
        "check_sweep",
        "default_scenarios x 170 seeds from --seed x 2 policies, oracle on, one RunCtx: machine and fiber set-up, teardown and the oracle dominate",
    ),
];

/// What a user of the simulator sees. `runs_total` and `runs_failed` of the
/// issue are the result line's `attempted` and `failed`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_ms", "ms", Better::Lower, 0.25),
    e2e("runs_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
];

/// Single-layer numbers, named `<crate>.<what>`. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // ---- traced rep ----
    lower("sim_cycles", "cycles"),
    lower("apps.build_ms", "ms"),
    lower("core.machine_setup_ms", "ms"),
    lower("transport.connect_ms", "ms"),
    lower("core.run_ms", "ms"),
    lower("obs.take_obs_ms", "ms"),
    lower("core.msgs", "count"),
    lower("core.misses", "count"),
    lower("core.downgrades", "count"),
    lower("core.check_batches", "count"),
    lower("memchan.link_bytes", "bytes"),
    lower("memchan.link_occupancy_cycles", "cycles"),
    lower("obs.events", "count"),
    lower("obs.events_dropped", "count"),
    lower("core.us_per_msg", "us"),
    lower("sim.engine_ctx_switches", "count"),
    lower("sim.cpu_user_ms", "ms"),
    lower("sim.cpu_sys_ms", "ms"),
    lower("sim.switch_est_share", "ratio"),
    lower("core.pdes.windows", "count"),
    higher("core.pdes.events_per_window", "count"),
    lower("core.pdes.idle_window_share", "ratio"),
    lower("core.pdes.slowdown_x", "ratio"),
    lower("obs.recording_overhead_pct", "%"),
    lower("obs.trace_overhead_pct", "%"),
    lower("host.handoff_ns", "ns"),
    lower("host.steal_pct", "%"),
    lower("obs.critpath_analyze_ms", "ms"),
    lower("obs.chrome_export_ms", "ms"),
    lower("obs.chrome_mb", "MiB"),
    lower("obs.critpath_fallback_pct", "%"),
    lower("transport.data_frames", "count"),
    lower("transport.acks", "count"),
    lower("transport.retransmits", "count"),
    lower("transport.induced_drops", "count"),
    lower("transport.dups_dropped", "count"),
    lower("transport.holds", "count"),
    lower("transport.resequenced", "count"),
    lower("transport.bytes_data", "bytes"),
    lower("transport.ack_rtt_p50_ns", "ns"),
    lower("transport.ack_rtt_p99_ns", "ns"),
    lower("transport.us_per_frame", "us"),
    lower("transport.ms_per_drop", "ms"),
    higher("transport.retx_useful_ratio", "ratio"),
    lower("transport.sleep_share", "ratio"),
    higher("check.schedules", "count"),
    lower("check.run_us_p50", "us"),
    lower("check.run_us_p99", "us"),
    lower("check.oracle_share_pct", "%"),
    // ---- layer microbenchmarks ----
    lower("sim.rendezvous_ns", "ns"),
    lower("sim.rendezvous16_ns", "ns"),
    lower("sim.spawn_join16_us", "us"),
    lower("sim.sched_pick_ns", "ns"),
    lower("sim.rendezvous_unpinned_ns", "ns"),
    lower("sim.unpinned_slowdown_x", "ratio"),
    lower("memchan.send_pop_remote_ns", "ns"),
    lower("memchan.send_pop_local_ns", "ns"),
    lower("memchan.seqguard_ns", "ns"),
    lower("memchan.fault_admit_ns", "ns"),
    lower("cluster.wire_cycles_ns", "ns"),
    lower("cluster.topology_lookup_ns", "ns"),
    lower("core.hit_us_per_op", "us"),
    lower("core.remote_miss_us", "us"),
    lower("core.downgrade_round_us", "us"),
    lower("core.lock_handoff_us", "us"),
    lower("core.barrier_us", "us"),
    lower("core.directory_entry_ns", "ns"),
    lower("core.misstable_ns", "ns"),
    lower("core.block_of_ns", "ns"),
    lower("core.privtable_downgrade_ns", "ns"),
    lower("core.sim_remote_fetch_us", "us"),
    lower("core.sim_intranode_fetch_us", "us"),
    higher("core.sim_2kb_fetch_mbps", "MB/s"),
    lower("core.sim_fetch_err_pct", "%"),
    lower("obs.record_ns_per_event", "ns"),
    lower("obs.counter_inc_ns", "ns"),
    lower("obs.counter_disabled_ns", "ns"),
    lower("obs.histogram_record_ns", "ns"),
    lower("stats.critreport_render_us", "us"),
    lower("transport.encode_ns", "ns"),
    lower("transport.decode_ns", "ns"),
    lower("transport.handshake_ms_uds", "ms"),
    lower("transport.handshake_ms_tcp", "ms"),
    lower("transport.rtt_us_uds", "us"),
    lower("transport.rtt_us_tcp", "us"),
];

/// Measured values for one report, keyed by a name from one of the tables.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table, is set twice, or `value` is not
    /// finite — each is a bug in the harness, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name:?} is not in the benchmark's tables"
        );
        assert!(value.is_finite(), "metric {name:?} measured a non-finite value");
        assert!(self.0.insert(name, value).is_none(), "metric {name:?} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `(name, value, unit)` for every metric of `table`, in table order;
    /// unmeasured (not applicable) metrics read 0.
    pub fn report(&self, table: &[MetricDef]) -> Vec<(String, f64, String)> {
        table
            .iter()
            .map(|d| (d.name.to_string(), self.get(d.name).unwrap_or(0.0), d.unit.to_string()))
            .collect()
    }
}

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use shasta_obs::chrome::{parse, Json};

    fn contract() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json is valid JSON")
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a str {
        obj.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{obj:?} lacks string {key}"))
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_are_the_published_contract() {
        let doc = contract();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!((field(w, "name"), field(w, "why")), (*name, *why));
        }
        for (key, table, bounded) in
            [("end_to_end", END_TO_END, true), ("per_layer", PER_LAYER, false)]
        {
            let published = list(key);
            assert_eq!(published.len(), table.len(), "{key}");
            for (m, def) in published.iter().zip(table) {
                assert_eq!(field(m, "name"), def.name);
                assert_eq!(field(m, "unit"), def.unit, "{}", def.name);
                assert_eq!(field(m, "better"), def.better.label(), "{}", def.name);
                match (bounded, m.get("bound")) {
                    (true, Some(Json::Num(b))) => assert_eq!(*b, def.bound, "{}", def.name),
                    (false, None) => {}
                    (_, other) => panic!("{}: bound {other:?}", def.name),
                }
            }
        }
    }

    #[test]
    fn tables_stay_inside_the_contracts_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        for name in &names {
            assert!(valid_name(name), "{name:?}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is too long");
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_unit(def.unit), "{}: unit {:?}", def.name, def.unit);
        }
        for def in END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "set twice")]
    fn a_metric_is_reported_once() {
        let mut v = Values::default();
        v.set("wall_ms", 1.0);
        v.set("wall_ms", 2.0);
    }

    #[test]
    fn unmeasured_metrics_read_zero_in_table_order() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        let report = v.report(END_TO_END);
        let names: Vec<&str> = report.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        assert_eq!(report[2], ("setup_s".to_string(), 0.5, "s".to_string()));
        assert_eq!(report[0].1, 0.0);
    }
}
