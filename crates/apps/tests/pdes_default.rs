//! The sharded engine against its serial twin on a full-size kernel. The
//! schedule-level equivalence suites (`pdes_equivalence`,
//! `parallel_engine_equivalence`, `recording_equivalence`) run small
//! scenarios; a window-widening experiment passed all three and still moved
//! LU `Preset::Default`'s cycles and message counts, so this run — the one
//! that diverged — is pinned here.

use shasta_apps::{lu::Lu, run_app_shaped, Preset, Proto, RunConfig};
use shasta_obs::Registry;

fn lu_smp_sharded_stats_equal_serial(preset: Preset, procs: u32) {
    let app = Lu::new(preset, false);
    let cfg = RunConfig::new(Proto::Smp, procs, 4);
    let serial = run_app_shaped(&app, &cfg, |_| {});
    let reg = Registry::enabled();
    let sharded = run_app_shaped(&app, &cfg, |m| {
        m.set_metrics(&reg);
        m.set_sim_threads(2);
    });
    assert_eq!(serial, sharded);
    // A silent fallback to the serial loop would pass the equality above.
    assert!(
        reg.snapshot().counter("pdes.windows") > 0,
        "the sharded run never entered the parallel engine"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "~1.5 s optimized; rides the --release workspace run")]
fn lu_default_smp16c4_sharded_stats_equal_serial() {
    lu_smp_sharded_stats_equal_serial(Preset::Default, 16);
}

/// The same on a kernel small enough for debug builds: splitting and
/// merging shards swaps whole memory images, which are only as long as what
/// `plan` allocated.
#[test]
fn lu_tiny_smp8c4_sharded_stats_equal_serial() {
    lu_smp_sharded_stats_equal_serial(Preset::Tiny, 8);
}
