//! Figure 4: execution-time breakdowns for 8- and 16-processor runs on
//! Base-Shasta ("B") and SMP-Shasta with clustering 1, 2 and 4 ("C1", "C2",
//! "C4"), normalized to the Base-Shasta run of each application.
//!
//! The bars are the engine's `RunStats` breakdowns. Every run is also
//! *recorded* (`run_observed`), which is what makes this binary CI's probe
//! that observation perturbs nothing: its stdout is byte-diffed with and
//! without `--metrics` and with and without the `obs-block-state` feature.
//! Pass `--trace <path>` to also export the first run's timeline as Chrome
//! `trace_event` JSON.
//!
//! `--metrics` attaches a live metrics registry to every run. The registry
//! is never printed — the flag exists so `scripts/ci.sh` can byte-diff the
//! figure with metrics off vs on and prove recording perturbs nothing.
//!
//! `--critical-path` adds one causal summary line per bar: the critical
//! path extracted from the same event stream (`shasta_obs::critpath`),
//! following the engine's recorded delivery and wake edges, whose segments
//! must tile `elapsed_cycles` exactly — the binary panics on any accounting
//! hole or unrecorded edge. Runs whose ring evicted events print `skipped`
//! (the analyzer refuses incomplete streams; the standalone
//! `critical_path` binary deepens the ring instead).

use shasta_apps::{registry, Proto};
use shasta_bench::{
    breakdown_bar, flag, preset_from_args, run_observed, run_observed_metrics, write_chrome_trace,
};
use shasta_obs::EventLog;
use shasta_stats::RunStats;

/// One causal summary line for `--critical-path`: top category share and
/// wire hops, with the tiling crosscheck enforced.
fn critical_path_line(stats: &RunStats, log: &EventLog) -> String {
    if log.dropped() > 0 {
        return format!("critical path: skipped ({} events evicted)", log.dropped());
    }
    let path = shasta_obs::critpath::analyze(log, stats.elapsed_cycles)
        .unwrap_or_else(|e| panic!("critical-path analysis failed: {e}"));
    let (top, cycles) = path.top_cat();
    format!(
        "critical path: {} segments, top {} {:.1}%, {} wire hops, tiling exact",
        path.segments.len(),
        top.label(),
        cycles as f64 / stats.elapsed_cycles.max(1) as f64 * 100.0,
        path.wire_hops(),
    )
}

fn main() {
    let preset = preset_from_args();
    // `--trace PATH`: export the first run's timeline as Chrome `trace_event` JSON.
    let mut trace = flag(&["--trace"]);
    let metrics = std::env::args().any(|a| a == "--metrics");
    let critical = std::env::args().any(|a| a == "--critical-path");
    let observe = if metrics { run_observed_metrics } else { run_observed };
    println!(
        "Figure 4: execution-time breakdowns, normalized to Base-Shasta ({preset:?} inputs)\n"
    );
    for procs in [8u32, 16] {
        println!("=== {procs}-processor runs ===");
        for spec in registry() {
            println!("{}:", spec.name);
            let (base, log) = observe(&spec, preset, Proto::Base, procs, 1, false);
            let norm = base.elapsed_cycles;
            println!("  {}", breakdown_bar("B", &base, norm));
            if critical {
                println!("     {}", critical_path_line(&base, &log));
            }
            if let Some(path) = trace.take() {
                write_chrome_trace(&path, &log);
            }
            for clustering in [1u32, 2, 4] {
                let (st, log) = observe(&spec, preset, Proto::Smp, procs, clustering, false);
                println!("  {}", breakdown_bar(&format!("C{clustering}"), &st, norm));
                if critical {
                    println!("     {}", critical_path_line(&st, &log));
                }
            }
        }
        println!();
    }
}
