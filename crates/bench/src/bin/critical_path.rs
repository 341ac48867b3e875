//! Causal run reports: per-kernel critical-path analysis over the six
//! Table 2 kernels, with zero-tolerance accounting.
//!
//! Each kernel runs on clustered SMP-Shasta (8 processors, clustering 4 —
//! two physical nodes) with full event recording, once as configured and
//! once more with the load-balancing extension (`RunConfig::load_balance`,
//! where a node processor other than the addressed one serves a request).
//! The walk follows the delivery and wake edges the engine recorded
//! (`shasta_obs::critpath`), and the critical path is printed as a
//! deterministic text report (`# shasta critical-path v2`): compute /
//! protocol / wire / queueing / sync segments that must **tile
//! `[0, elapsed_cycles)` exactly** — the binary aborts on any accounting
//! hole or unrecorded edge. When the default ring would evict events the
//! run is retried with a deeper ring (the analysis refuses incomplete
//! streams), deterministically.
//!
//! Everything printed derives from simulated counters, so stdout is
//! byte-identical run to run. Host wall time goes only to the
//! `BENCH_critical_path.json` trajectory (one [`Entry`] appended per
//! invocation).
//!
//! ```text
//! critical_path [--preset tiny|default|large] [--quick] [--out PATH]
//! ```
//!
//! `--quick` is the CI smoke configuration: tiny preset unless `--preset`
//! says otherwise.

use std::time::Instant;

use shasta_apps::{run_app_observed_shaped, Preset, Proto, RunConfig};
use shasta_bench::trajectory::{Entry, Num};
use shasta_bench::{apps_for, preset_from_args};
use shasta_obs::{critpath, CritPath};
use shasta_stats::{critical_path_report, RunStats};

const PROCS: u32 = 8;
const CLUSTERING: u32 = 4;
/// Ring-capacity ladder: start at the shared default, deepen on eviction.
const RINGS: [usize; 3] = [65_536, 262_144, 1 << 20];

/// Runs and analyzes one kernel under `cfg`, climbing the ring ladder
/// until the complete stream fits. Returns the stats, the verified path,
/// and the wall time of the final (analyzed) run.
fn analyze_kernel(
    spec: &shasta_apps::AppSpec,
    preset: Preset,
    cfg: &RunConfig,
) -> (RunStats, CritPath, f64) {
    let mut last_err = String::new();
    for ring in RINGS {
        let t = Instant::now();
        let app = (spec.build)(preset, false);
        let (stats, log) = run_app_observed_shaped(app.as_ref(), cfg, ring, |_| {});
        let wall = t.elapsed().as_secs_f64() * 1e3;
        if log.dropped() > 0 && ring != RINGS[RINGS.len() - 1] {
            continue;
        }
        match critpath::analyze(&log, stats.elapsed_cycles) {
            Ok(path) => return (stats, path, wall),
            Err(e) => last_err = e,
        }
    }
    panic!("{}: critical-path analysis failed: {last_err}", spec.name);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut preset = preset_from_args();
    if quick && !args.iter().any(|a| a == "--preset") {
        preset = Preset::Tiny;
    }

    println!(
        "critical_path: causal run reports, SMP-Shasta {PROCS}p/{CLUSTERING}, {preset:?} inputs\n"
    );
    let mut kernels = Vec::new();
    let mut tiling = 0;
    let mut total_wall = 0.0;
    let plain = RunConfig::new(Proto::Smp, PROCS, CLUSTERING);
    for (config, cfg) in [("plain", plain.clone()), ("load_balance", plain.load_balance())] {
        for spec in apps_for(true, false) {
            let (stats, path, wall) = analyze_kernel(&spec, preset, &cfg);
            total_wall += wall;
            match config {
                "plain" => println!("=== {} ===", spec.name),
                _ => println!("=== {} ({config}) ===", spec.name),
            }
            println!("{}", critical_path_report(&path.report()));
            let tiling_exact = path.crosscheck().is_ok();
            tiling += usize::from(tiling_exact);
            let (top, top_cycles) = path.top_cat();
            kernels.push(format!(
                "{{\"name\": \"{}\", \"config\": \"{config}\", \"elapsed_cycles\": {}, \"segments\": {}, \"wire_hops\": {}, \"top_cat\": \"{}\", \"top_cat_pct\": {:.2}, \"tiling_exact\": {tiling_exact}, \"wall_ms\": {:.2}}}",
                spec.name,
                stats.elapsed_cycles,
                path.segments.len(),
                path.wire_hops(),
                top.label(),
                Num(top_cycles as f64 / stats.elapsed_cycles.max(1) as f64 * 100.0),
                Num(wall),
            ));
        }
    }

    let mut entry = Entry::new(
        "critical_path",
        &format!("\"preset\": \"{preset:?}\", \"procs\": {PROCS}, \"clustering\": {CLUSTERING}"),
    );
    entry.criterion("tiling_pass", tiling == kernels.len());
    entry.wall("total_wall_ms", total_wall);
    entry.members(&format!("\"kernels\": [{}]", kernels.join(", ")));
    println!("tiling exact on {tiling}/{} kernels", kernels.len());
    entry.append();
}
