//! Figure 8: the distribution of downgrade messages sent per block downgrade
//! in 8- and 16-processor SMP-Shasta runs (clustering 4).
//!
//! The histogram is the engine's `DowngradeHist`; the last three columns
//! sum the sharing profiler's per-block histories over the recorded event
//! stream (`shasta_obs::ProfileAgg::blocks`), which split downgrade
//! direction (exclusive→shared vs exclusive→invalid) and count resolved
//! pending downgrades — facts the histogram does not keep.
//!
//! `-j`/`--jobs` fans the independent (procs, app) runs across worker
//! threads (0 = one per CPU; default serial); rows are printed in sweep
//! order, so the output is byte-identical for any worker count.

use shasta_apps::{registry, AppSpec, Preset, Proto};
use shasta_bench::{jobs_from_args, preset_from_args, run_observed};
use shasta_check::par_map;
use shasta_stats::Table;

fn row(spec: &AppSpec, preset: Preset, procs: u32) -> Vec<String> {
    let (st, log) = run_observed(spec, preset, Proto::Smp, procs, 4, false);
    let profile = log.profile().expect("the run attached the space map");
    let (downgrades, to_inv, resolved) =
        profile.blocks().fold((0u64, 0u64, 0u64), |(n, inv, r), (_, b)| {
            let (d, i, res) = (b.downgrades, b.downgrades_to_invalid, b.downgrade_resolutions);
            (n + u64::from(d), inv + u64::from(i), r + u64::from(res))
        });
    let h = &st.downgrades;
    let pct = |k: usize| format!("{:.1}%", h.fraction(k) * 100.0);
    vec![
        spec.name.to_string(),
        h.total().to_string(),
        pct(0),
        pct(1),
        pct(2),
        pct(3),
        format!("{:.2}", h.mean()),
        (downgrades - to_inv).to_string(),
        to_inv.to_string(),
        resolved.to_string(),
    ]
}

fn main() {
    let preset = preset_from_args();
    let jobs = jobs_from_args();
    println!(
        "Figure 8: downgrade-message distribution, SMP-Shasta clustering 4 ({preset:?} inputs)\n"
    );
    for procs in [8u32, 16] {
        println!("=== {procs}-processor runs ===");
        let mut t = Table::new(vec![
            "app",
            "downgrades",
            "0 msgs",
            "1 msg",
            "2 msgs",
            "3 msgs",
            "mean",
            "to-shd",
            "to-inv",
            "resolved",
        ]);
        let apps = registry();
        let rows = par_map(apps.len(), jobs, |i| row(&apps[i], preset, procs));
        for r in rows {
            t.row(r);
        }
        println!("{t}");
    }
}
