//! PDES scaling benchmark: wall-clock cost of the conservative parallel
//! discrete-event engine (`--sim-threads`) against the serial event loop,
//! on real Table 2 kernels at the largest paper topology (16 processors,
//! clustering 4 — four physical nodes, so four shards).
//!
//! Each kernel runs twice per rep: once on the serial engine, once sharded
//! with the resolved `--sim-threads` worker count, best-of-`--reps` wall
//! time each. The sharded run must be **bit-identical** — `RunStats`
//! equality and the rendered `Debug` form both — and must actually engage
//! the parallel engine (`pdes.windows > 0` in the metrics registry), or the
//! binary aborts. Beside the walls it prints the engine's deterministic
//! coordination counts: `pdes.rounds` (batched phases) and
//! `pdes.remote_rounds` (phases that woke a worker thread), the latter also
//! per window — the thread handoffs a window costs. The speedup is reported honestly: on a single-CPU host the
//! sharded wall reflects window-coordination overhead with no parallelism to
//! pay for it, so values below 1.0 are expected there (the JSON entry
//! records `host_cpus` so a reader can tell the two regimes apart). See
//! `docs/PERFORMANCE.md` §"Parallel discrete-event execution".
//!
//! ```text
//! pdes_scaling [--preset tiny|default|large] [--sim-threads N] [--reps N]
//!              [--quick] [--out PATH]
//! ```
//!
//! `--quick` is the CI smoke configuration: tiny preset (unless `--preset`
//! is given) and 1 rep. Appends one run object to the
//! `BENCH_pdes_scaling.json` trajectory.

use std::time::Instant;

use shasta_apps::{registry, run_app_shaped, Preset, Proto, RunConfig};
use shasta_bench::trajectory::{Entry, Num};
use shasta_bench::{num_flag, preset_from_args, sim_threads_from_args};
use shasta_obs::Registry;
use shasta_stats::RunStats;

const PROCS: u32 = 16;
const CLUSTERING: u32 = 4;
/// Table 2 kernels with distinct sharing profiles: dense panel traffic
/// (LU), read-mostly maps with hot write regions (Volrend), and all-pairs
/// migratory sharing (Water-Nsq).
const KERNELS: [&str; 3] = ["LU", "Volrend", "Water-Nsq"];

struct Row {
    name: &'static str,
    wall_serial_ms: f64,
    wall_sharded_ms: f64,
    /// `pdes.windows`, `pdes.rounds`, `pdes.remote_rounds` of the last
    /// sharded rep (deterministic, so any rep would do).
    pdes: [u64; 3],
    identical: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.wall_serial_ms / self.wall_sharded_ms
    }
}

fn measure(
    spec: &shasta_apps::AppSpec,
    preset: Preset,
    sim_threads: usize,
) -> (RunStats, f64, [u64; 3]) {
    let app = (spec.build)(preset, false);
    let cfg = RunConfig::new(Proto::Smp, PROCS, CLUSTERING);
    let reg = Registry::enabled();
    let t = Instant::now();
    let stats = run_app_shaped(app.as_ref(), &cfg, |m| {
        m.set_metrics(&reg);
        if sim_threads > 1 {
            m.set_sim_threads(sim_threads);
        }
    });
    let wall = t.elapsed().as_secs_f64() * 1e3;
    let snapshot = reg.snapshot();
    let pdes = ["pdes.windows", "pdes.rounds", "pdes.remote_rounds"].map(|n| snapshot.counter(n));
    (stats, wall, pdes)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut preset = preset_from_args();
    if quick && !args.iter().any(|a| a == "--preset") {
        preset = Preset::Tiny;
    }
    let reps: u32 = num_flag(&["--reps"]).unwrap_or(if quick { 1 } else { 3 });
    // Floored at 2 (an absent flag means serial) so the sharded engine
    // always engages — this binary exists to measure it.
    let sim_threads = sim_threads_from_args().max(2);
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);

    println!(
        "pdes_scaling: SMP-Shasta {PROCS}p/{CLUSTERING} ({} shards), {preset:?} inputs, \
         --sim-threads {sim_threads}, {host_cpus} host CPU(s)\n",
        PROCS / CLUSTERING
    );
    let mut rows = Vec::new();
    for name in KERNELS {
        let spec = registry()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the app registry"));
        let mut wall_serial = f64::INFINITY;
        let mut wall_sharded = f64::INFINITY;
        let mut serial_stats = None;
        let mut sharded_stats = None;
        let mut pdes = [0; 3];
        for _ in 0..reps {
            let (stats, wall, w) = measure(&spec, preset, 1);
            wall_serial = wall_serial.min(wall);
            serial_stats = Some(stats);
            assert_eq!(w, [0; 3], "{name}: serial run must not touch the parallel engine");
            let (stats, wall, w) = measure(&spec, preset, sim_threads);
            wall_sharded = wall_sharded.min(wall);
            sharded_stats = Some(stats);
            pdes = w;
        }
        let (serial, sharded) = (serial_stats.unwrap(), sharded_stats.unwrap());
        let identical = serial == sharded && format!("{serial:?}") == format!("{sharded:?}");
        let row = Row {
            name: spec.name,
            wall_serial_ms: wall_serial,
            wall_sharded_ms: wall_sharded,
            pdes,
            identical,
        };
        // A round is one batched phase (apply or run); a remote round is
        // one that woke a worker thread other than the coordinator's own.
        let [windows, rounds, remote_rounds] = row.pdes;
        println!(
            "{:<10} serial {:>8.1}ms  sharded {:>8.1}ms  ({:.2}x, {windows} windows, \
             {rounds} rounds, {remote_rounds} remote = {:.2}/window, {})",
            row.name,
            row.wall_serial_ms,
            row.wall_sharded_ms,
            row.speedup(),
            remote_rounds as f64 / windows.max(1) as f64,
            if row.identical { "identical" } else { "DIVERGED" },
        );
        rows.push(row);
    }

    let geomean = rows.iter().map(|r| r.speedup().ln()).sum::<f64>() / rows.len() as f64;
    let geomean = geomean.exp();

    let mut entry = Entry::new(
        "pdes_scaling",
        &format!(
            "\"preset\": \"{preset:?}\", \"procs\": {PROCS}, \"clustering\": {CLUSTERING}, \"sim_threads\": {sim_threads}, \"reps\": {reps}"
        ),
    );
    entry.criterion("all_identical", rows.iter().all(|r| r.identical));
    entry.criterion("all_windowed", rows.iter().all(|r| r.pdes[0] > 0));
    entry.wall("serial_wall_ms", rows.iter().map(|r| r.wall_serial_ms).sum());
    entry.wall("sharded_wall_ms", rows.iter().map(|r| r.wall_sharded_ms).sum());
    let kernels: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"name\": \"{}\", \"wall_ms_serial\": {:.2}, \"wall_ms_sharded\": {:.2}, \"speedup\": {:.3}, \"windows\": {}, \"rounds\": {}, \"remote_rounds\": {}, \"identical\": {}}}",
                r.name,
                Num(r.wall_serial_ms),
                Num(r.wall_sharded_ms),
                Num(r.speedup()),
                r.pdes[0],
                r.pdes[1],
                r.pdes[2],
                r.identical,
            )
        })
        .collect();
    entry.members(&format!(
        "\"geomean_speedup\": {:.3}, \"kernels\": [{}]",
        Num(geomean),
        kernels.join(", ")
    ));

    println!("\ngeomean speedup {geomean:.2}x at --sim-threads {sim_threads}");
    if host_cpus == 1 {
        println!(
            "note: single-CPU host — the sharded wall measures window-coordination \
             overhead with no parallel hardware to amortize it; speedups near or \
             below 1.0 are expected here (see docs/PERFORMANCE.md)."
        );
    }
    entry.append();
}
