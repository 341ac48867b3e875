//! Per-topology execution-time breakdown trajectories: sweeps the checker's
//! cluster shapes (`ClusterKind`) over Table 2 kernels on 8-processor
//! SMP-Shasta (clustering 4) and appends Figure 3/4-style breakdowns to the
//! `BENCH_topology_breakdown.json` trajectory.
//!
//! Every cell runs **twice** — once bare and once with a live metrics
//! registry attached — and the binary asserts three invariants:
//!
//! * on every processor the `shasta-stats` category totals plus the idle
//!   gaps between the recorded slices equal the processor's span exactly
//!   (zero tolerance, no overlap), so the printed bars account for every
//!   cycle;
//! * the two runs' simulated statistics are bit-identical — metrics
//!   recording never perturbs simulated time;
//! * the per-link occupancy counters reported by the metrics registry are
//!   consistent with a run that actually moved protocol traffic.
//!
//! ```text
//! topology_breakdown [--quick] [--preset tiny|default|large] [--out PATH]
//! ```
//!
//! `--quick` restricts the sweep to LU at the tiny preset (the CI smoke
//! configuration); the full sweep covers LU, Volrend and Water-Nsq.

use std::time::Instant;

use shasta_apps::{
    run_app_observed_memory_home, run_app_observed_shaped, AppSpec, Preset, Proto, RunConfig,
};
use shasta_bench::trajectory::{Entry, Num};
use shasta_bench::{apps_for, breakdown_bar, preset_from_args, TRACE_RING_CAPACITY};
use shasta_check::{cluster_kinds, ClusterKind};
use shasta_core::{Machine, NetProfile};
use shasta_obs::{EventLog, Registry};
use shasta_stats::{RunStats, TimeCat};

const PROCS: u32 = 8;
const CLUSTERING: u32 = 4;

/// The full sweep's kernels (all in Table 2); `--quick` keeps only LU.
const KERNELS: [&str; 3] = ["LU", "Volrend", "Water-Nsq"];

struct Cell {
    kind: ClusterKind,
    app: &'static str,
    stats: RunStats,
    log: EventLog,
    /// Simulated stats of the metrics-on twin run (must equal `stats`).
    stats_metrics: RunStats,
    /// Sum of `cluster.link.occupancy_cycles.*` from the metrics-on run.
    link_occupancy_cycles: u64,
    wall_ms: f64,
}

impl Cell {
    /// Zero-tolerance accounting check: on every processor the slices tile
    /// its clock — category totals plus idle equal its span, no overlap.
    fn crosscheck_pass(&self) -> bool {
        let agg = self.log.fig4();
        self.stats
            .breakdowns
            .iter()
            .zip(0u32..)
            .all(|(b, p)| agg.overlap(p) == 0 && b.total() + agg.idle(p) == agg.span(p))
    }

    fn metrics_identity(&self) -> bool {
        self.stats == self.stats_metrics
    }
}

/// Runs one `(kind, app)` cell, mirroring the checker's `build_machine`
/// shaping for each [`ClusterKind`] exactly. `registry`, when given, is
/// attached to the machine after shaping.
fn run_cell(
    kind: ClusterKind,
    spec: &AppSpec,
    preset: Preset,
    registry: Option<&Registry>,
) -> (RunStats, EventLog) {
    let app = (spec.build)(preset, false);
    let cfg = RunConfig::new(Proto::Smp, PROCS, CLUSTERING);
    let shape = move |m: &mut Machine| {
        let nodes = m.topology().phys_nodes();
        let cost = m.cost_model().clone();
        match kind {
            // MemoryHome's shape lives in the topology itself (the extra
            // memory-only node), installed by the driver helper below.
            ClusterKind::Uniform | ClusterKind::MemoryHome => {}
            ClusterKind::UniformExplicit => {
                m.set_net_profile(NetProfile::uniform(nodes, &cost));
            }
            ClusterKind::AsymLinks => {
                m.set_net_profile(
                    NetProfile::uniform(nodes, &cost)
                        .scale_link_bandwidth(nodes - 1, 4)
                        .scale_node_latency(nodes - 1, 3),
                );
            }
        }
        if let Some(reg) = registry {
            m.set_metrics(reg);
        }
    };
    match kind {
        ClusterKind::MemoryHome => {
            run_app_observed_memory_home(app.as_ref(), &cfg, TRACE_RING_CAPACITY, shape)
        }
        _ => run_app_observed_shaped(app.as_ref(), &cfg, TRACE_RING_CAPACITY, shape),
    }
}

fn measure(kind: ClusterKind, spec: &AppSpec, preset: Preset) -> Cell {
    let t = Instant::now();
    let (stats, log) = run_cell(kind, spec, preset, None);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let reg = Registry::enabled();
    let (stats_metrics, _) = run_cell(kind, spec, preset, Some(&reg));
    let snap = reg.snapshot();
    let link_occupancy_cycles = snap
        .with_prefix("cluster.link.occupancy_cycles.")
        .map(|e| match e.value {
            shasta_stats::MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum();
    Cell { kind, app: spec.name, stats, log, stats_metrics, link_occupancy_cycles, wall_ms }
}

/// One cell's detail row of the trajectory entry.
fn cell_json(c: &Cell) -> String {
    let agg = c.log.fig4();
    let total = c.stats.total_breakdown();
    let (mut idle, mut span) = (0u64, 0u64);
    for p in 0..agg.procs() as u32 {
        idle += agg.idle(p);
        span += agg.span(p);
    }
    let comps: Vec<String> = TimeCat::ALL
        .into_iter()
        .map(|cat| format!("\"{}\": {}", cat.label(), total.get(cat)))
        .collect();
    format!(
        "{{\"kind\": \"{:?}\", \"app\": \"{}\", \"elapsed_cycles\": {}, \"components\": {{{}}}, \"idle_cycles\": {idle}, \"span_cycles\": {span}, \"link_occupancy_cycles\": {}, \"crosscheck_pass\": {}, \"metrics_identity\": {}, \"wall_ms\": {:.2}}}",
        c.kind,
        c.app,
        c.stats.elapsed_cycles,
        comps.join(", "),
        c.link_occupancy_cycles,
        c.crosscheck_pass(),
        c.metrics_identity(),
        Num(c.wall_ms),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let preset = if quick { Preset::Tiny } else { preset_from_args() };

    let kernels: Vec<AppSpec> = apps_for(true, false)
        .into_iter()
        .filter(|s| if quick { s.name == "LU" } else { KERNELS.contains(&s.name) })
        .collect();
    assert!(!kernels.is_empty(), "kernel filter matched nothing");

    println!(
        "Per-topology breakdowns: {} on {PROCS}-processor SMP-Shasta C{CLUSTERING} ({preset:?} inputs)\n",
        kernels.iter().map(|s| s.name).collect::<Vec<_>>().join(", ")
    );
    let t0 = Instant::now();
    let mut cells = Vec::new();
    for spec in &kernels {
        println!("{}:", spec.name);
        let mut norm = 0u64;
        for kind in cluster_kinds() {
            let cell = measure(kind, spec, preset);
            if norm == 0 {
                // cluster_kinds() leads with Uniform: the bar baseline.
                norm = cell.stats.elapsed_cycles;
            }
            println!(
                "  {} [occupancy {} cycles, crosscheck {}, metrics {}]",
                breakdown_bar(
                    match cell.kind {
                        ClusterKind::Uniform => "UNI",
                        ClusterKind::UniformExplicit => "UNIE",
                        ClusterKind::AsymLinks => "ASYM",
                        ClusterKind::MemoryHome => "MEMH",
                    },
                    &cell.stats,
                    norm,
                ),
                cell.link_occupancy_cycles,
                if cell.crosscheck_pass() { "exact" } else { "DIVERGED" },
                if cell.metrics_identity() { "identical" } else { "PERTURBED" },
            );
            cells.push(cell);
        }
        println!();
    }
    let total_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut entry = Entry::new(
        "topology_breakdown",
        &format!(
            "\"quick\": {quick}, \"preset\": \"{preset:?}\", \"procs\": {PROCS}, \"clustering\": {CLUSTERING}"
        ),
    );
    entry.criterion("crosscheck_pass", cells.iter().all(Cell::crosscheck_pass));
    entry.criterion("metrics_identity", cells.iter().all(Cell::metrics_identity));
    entry.wall("total_wall_ms", total_wall_ms);
    let rows: Vec<String> = cells.iter().map(cell_json).collect();
    entry.members(&format!("\"cells\": [{}]", rows.join(", ")));
    entry.append();
}
