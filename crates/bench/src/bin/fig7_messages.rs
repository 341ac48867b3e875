//! Figure 7: protocol messages in 8- and 16-processor runs, classified
//! remote / local / downgrade, for Base-Shasta and SMP-Shasta with
//! clustering 2 and 4, normalized to the Base-Shasta total.
//!
//! Messages are counted in two layers: by the network layer (`MsgStats`,
//! what the bars show) and by the engine, whose `msg-send` events
//! `shasta_obs::MsgAgg` classifies by physical placement from the space
//! snapshot. Counts *and* payload bytes must agree **exactly**, or
//! `run_observed` aborts the binary (`EventLog::crosscheck`).
//!
//! `-j`/`--jobs` fans the independent (procs, app) blocks across worker
//! threads (0 = one per CPU; default serial). Each block's bars come from
//! deterministic simulated counters, and blocks are printed in sweep order,
//! so the output is byte-identical for any worker count.

use shasta_apps::{registry, AppSpec, Preset, Proto};
use shasta_bench::{jobs_from_args, preset_from_args, run_observed};
use shasta_check::par_map;
use shasta_stats::{MsgClass, RunStats};

fn bar(label: &str, st: &RunStats, norm: u64) -> String {
    let pct = |n: u64| n as f64 / norm as f64 * 100.0;
    let mut out = format!("{label:<4} {:>6.1}% |", pct(st.messages.total()));
    for class in MsgClass::ALL {
        out.push_str(&format!(" {}={:.1}%", class.label(), pct(st.messages.count(class))));
    }
    out
}

/// One application's block at one processor count: the Base bar plus the
/// clustering-2 and clustering-4 SMP bars.
fn block(spec: &AppSpec, preset: Preset, procs: u32) -> String {
    let mut out = format!("{}:\n", spec.name);
    let (base, _) = run_observed(spec, preset, Proto::Base, procs, 1, false);
    let norm = base.messages.total().max(1);
    out.push_str(&format!("  {}\n", bar("B", &base, norm)));
    for clustering in [2u32, 4] {
        let (st, _) = run_observed(spec, preset, Proto::Smp, procs, clustering, false);
        out.push_str(&format!("  {}\n", bar(&format!("C{clustering}"), &st, norm)));
    }
    out
}

fn main() {
    let preset = preset_from_args();
    let jobs = jobs_from_args();
    println!("Figure 7: messages by class, normalized to Base-Shasta ({preset:?} inputs)\n");
    let apps = registry();
    for procs in [8u32, 16] {
        println!("=== {procs}-processor runs ===");
        let blocks = par_map(apps.len(), jobs, |i| block(&apps[i], preset, procs));
        for b in blocks {
            print!("{b}");
        }
        println!();
    }
    println!("event-derived message counters matched the network layer's exactly in every run");
}
