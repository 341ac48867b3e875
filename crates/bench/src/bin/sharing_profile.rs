//! Sharing-pattern profiler demo and granularity-advisor closed loop;
//! appends to the `BENCH_sharing_advisor.json` trajectory.
//!
//! Three steps:
//!
//! 1. Profile a Table 2 kernel (LU) under Base-Shasta and print the
//!    per-allocation-site advisor table — the profiler's classification of
//!    each `malloc` site plus its block-size recommendation and evidence.
//!    The kernel is then re-run with its Table 2 variable-granularity hints
//!    and the simulated-cycle delta reported next to the advice.
//! 2. Run a synthetic false-sharing workload (each processor repeatedly
//!    writes its own 64 B slice of shared 512 B blocks), confirm the
//!    profiler classifies the blocks false-shared and the advisor
//!    recommends a smaller granularity.
//! 3. Re-run the synthetic workload with the advisor's recommended hint and
//!    report the simulated-cycle reduction. The entry's criteria — the
//!    profiler sees the false sharing, the advisor shrinks the block, the
//!    hint reduces simulated cycles — are the closed-loop acceptance check,
//!    asserted once the entry is written.
//!
//! The entry also records what a recorded run keeps resident, on the
//! benchmark's recorded workload (the four Table 2 kernels LU, Barnes,
//! Water-Nsq and Volrend under SMP-Shasta 16p/c4, at the same preset): ring
//! bytes per event, profiler bytes per touched block and the bytes one
//! pass's four logs hold. Nothing of it is printed; the trajectory gate
//! (`crates/bench/tests/trajectories.rs`) bounds the last entry's.
//!
//! ```text
//! sharing_profile [--preset tiny|default|large] [--out PATH]
//! ```

use shasta_apps::{registry, run_app_observed, Body, DsmApp, PlanOpts, Preset, Proto, RunConfig};
use shasta_bench::trajectory::{Entry, Num};
use shasta_bench::{preset_from_args, run, run_observed};
use shasta_core::protocol::SetupCtx;
use shasta_core::space::{BlockHint, HomeHint};
use shasta_obs::{Recommendation, SharingPattern, SiteReport};
use shasta_stats::{advisor_table, AdvisorRow};

const PROCS: u32 = 8;
/// Shared regions in the synthetic workload.
const REGIONS: u64 = 16;
/// Bytes each processor owns within one region.
const SLICE: u64 = 64;
/// Write rounds (barrier-separated so ownership keeps alternating).
const ROUNDS: u32 = 6;

/// The synthetic false-sharing workload: one allocation of
/// `REGIONS × PROCS × SLICE` bytes; processor `p` only ever touches bytes
/// `[p·SLICE, (p+1)·SLICE)` of each region, yet with a region-sized
/// coherence block every store bounces ownership across nodes. With a
/// `SLICE`-sized block each processor's slice is private and the traffic
/// vanishes — granularity, not data, causes the sharing.
struct FalseShareSynth {
    hint: BlockHint,
}

impl DsmApp for FalseShareSynth {
    fn name(&self) -> &'static str {
        "FalseShareSynth"
    }

    fn heap_bytes(&self) -> u64 {
        1 << 20
    }

    fn plan(&self, s: &mut SetupCtx<'_>, opts: &PlanOpts) -> Vec<Body> {
        let region = PROCS as u64 * SLICE;
        let base =
            s.malloc_labeled(REGIONS * region, self.hint, HomeHint::Explicit(0), "synth.regions");
        (0..opts.procs)
            .map(|p| {
                let body: Body = Box::new(move |mut dsm| {
                    for round in 0..ROUNDS {
                        for r in 0..REGIONS {
                            let slice = base + r * region + p as u64 * SLICE;
                            for slot in (0..SLICE).step_by(8) {
                                dsm.store_u64(slice + slot, (round as u64) << 32 | r);
                            }
                        }
                        dsm.barrier(round);
                    }
                });
                body
            })
            .collect()
    }
}

fn run_synth(hint: BlockHint) -> (u64, Vec<SiteReport>) {
    let app = FalseShareSynth { hint };
    let cfg = RunConfig::new(Proto::Base, PROCS, 1);
    let (stats, log) = run_app_observed(&app, &cfg, |_| {});
    let reports = log.profile().expect("observed runs attach the space map").advise();
    (stats.elapsed_cycles, reports)
}

fn rows_of(reports: &[SiteReport]) -> Vec<AdvisorRow> {
    reports
        .iter()
        .map(|r| AdvisorRow {
            label: r.label.to_string(),
            block_bytes: r.block_bytes,
            blocks_touched: r.blocks_touched,
            pattern: r.dominant().label().to_string(),
            read_misses: r.read_misses,
            write_misses: r.write_misses,
            downgrades: r.downgrades,
            downgrade_fanout: r.downgrade_fanout(),
            bytes_per_useful: r.bytes_per_useful_byte(),
            recommendation: r.recommendation.describe(),
        })
        .collect()
}

fn sites_json(reports: &[SiteReport]) -> String {
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"label\": \"{}\", \"block_bytes\": {}, \"blocks_touched\": {}, \"pattern\": \"{}\", \"read_misses\": {}, \"write_misses\": {}, \"downgrades\": {}, \"downgrade_fanout\": {:.2}, \"bytes_per_useful\": {:.2}, \"recommendation\": \"{}\", \"evidence\": \"{}\"}}",
                r.label,
                r.block_bytes,
                r.blocks_touched,
                r.dominant().label(),
                r.read_misses,
                r.write_misses,
                r.downgrades,
                Num(r.downgrade_fanout()),
                Num(r.bytes_per_useful_byte()),
                r.recommendation.describe(),
                r.evidence,
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

/// What one pass of the benchmark's recorded workload keeps: its four logs'
/// events, the bytes encoding them, the blocks their profilers touched, a
/// profiler record's size, and the heap bytes the profilers and the whole
/// logs hold.
#[derive(Default)]
struct Footprint {
    events: usize,
    ring_bytes: usize,
    touched: usize,
    record_bytes: usize,
    profiler_bytes: usize,
    log_bytes: usize,
}

fn recorded_footprint(preset: Preset) -> Footprint {
    let mut f = Footprint::default();
    for name in ["LU", "Barnes", "Water-Nsq", "Volrend"] {
        let spec = registry().into_iter().find(|s| s.name == name).expect("a registered kernel");
        let (_, log) = run_observed(&spec, preset, Proto::Smp, 16, 4, false);
        let profile = log.profile().expect("observed runs attach the space map");
        f.events += log.len();
        f.ring_bytes += log.ring_bytes();
        f.touched += profile.touched();
        f.record_bytes = profile.record_bytes();
        f.profiler_bytes += profile.held_bytes();
        f.log_bytes += log.held_bytes();
    }
    f
}

fn delta_pct(base: u64, new: u64) -> f64 {
    (new as f64 / base as f64 - 1.0) * 100.0
}

fn main() {
    let preset = preset_from_args();

    // --- 1. Profile a Table 2 kernel and re-run with its hints. ------------
    let spec = registry().into_iter().find(|s| s.name == "LU").expect("LU in registry");
    println!("profiling {} (Base-Shasta, {PROCS} processors, {preset:?} inputs)\n", spec.name);
    let (kernel_base, log) = run_observed(&spec, preset, Proto::Base, PROCS, 1, false);
    let kernel_reports = log.profile().expect("observed runs attach the space map").advise();
    println!("{}", advisor_table(&rows_of(&kernel_reports)));
    let kernel_vg = run(&spec, preset, Proto::Base, PROCS, 1, true);
    println!(
        "{} with Table 2 granularity hints: {} -> {} simulated cycles ({:+.1}%)\n",
        spec.name,
        kernel_base.elapsed_cycles,
        kernel_vg.elapsed_cycles,
        delta_pct(kernel_base.elapsed_cycles, kernel_vg.elapsed_cycles),
    );

    // --- 2. Synthetic false sharing: profile at a region-sized block. ------
    let region_bytes = PROCS as u64 * SLICE;
    let (synth_base, reports) = run_synth(BlockHint::Bytes(region_bytes));
    println!("synthetic false-sharing workload ({region_bytes} B blocks):\n");
    println!("{}", advisor_table(&rows_of(&reports)));
    let synth = reports
        .iter()
        .find(|r| r.label == "synth.regions")
        .expect("synthetic site in advisor report");
    let fs_blocks = synth.pattern_blocks[SharingPattern::ALL
        .iter()
        .position(|&p| p == SharingPattern::FalseShared)
        .expect("pattern in ALL")];
    // Step 3 has nothing to re-run with unless the advisor names a size.
    let rec = match synth.recommendation {
        Recommendation::Shrink(n) => n,
        other => panic!("advisor should recommend a smaller granularity, got {other:?}"),
    };
    println!("evidence: {}\n", synth.evidence);

    // --- 3. Closed loop: re-run with the recommended hint. -----------------
    let (synth_hint, _) = run_synth(BlockHint::Bytes(rec));
    println!(
        "re-run with advisor hint ({rec} B blocks): {synth_base} -> {synth_hint} simulated cycles ({:+.1}%)",
        delta_pct(synth_base, synth_hint),
    );

    let foot = recorded_footprint(preset);
    let ring_per_event = foot.ring_bytes as f64 / foot.events as f64;
    let profiler_per_block = foot.profiler_bytes as f64 / foot.touched as f64;

    let mut entry = Entry::new(
        "sharing_advisor",
        &format!("\"preset\": \"{preset:?}\", \"proto\": \"Base\", \"procs\": {PROCS}"),
    );
    entry.criterion("false_sharing_classified", fs_blocks > 0);
    entry.criterion("recommendation_shrinks_block", rec < region_bytes);
    entry.criterion("hint_reduces_cycles", synth_hint < synth_base);
    entry.members(&format!(
        "\"kernel\": {{\"name\": \"{}\", \"cycles_base\": {}, \"cycles_table2_hints\": {}, \"cycle_delta_pct\": {:.2}, \"sites\": {}}}, \"synthetic\": {{\"block_bytes\": {region_bytes}, \"blocks_false_shared\": {fs_blocks}, \"recommended_bytes\": {rec}, \"cycles_base\": {synth_base}, \"cycles_with_hint\": {synth_hint}, \"cycle_delta_pct\": {:.2}, \"sites\": {}}}, \"recorded_footprint\": {{\"workload\": \"smp16c4_recorded\", \"events\": {}, \"ring_bytes\": {}, \"ring_bytes_per_event\": {:.3}, \"touched_blocks\": {}, \"profile_record_bytes\": {}, \"profiler_bytes\": {}, \"profiler_bytes_per_block\": {:.1}, \"log_bytes_per_pass\": {}}}",
        spec.name,
        kernel_base.elapsed_cycles,
        kernel_vg.elapsed_cycles,
        Num(delta_pct(kernel_base.elapsed_cycles, kernel_vg.elapsed_cycles)),
        sites_json(&kernel_reports),
        Num(delta_pct(synth_base, synth_hint)),
        sites_json(&reports),
        foot.events,
        foot.ring_bytes,
        Num(ring_per_event),
        foot.touched,
        foot.record_bytes,
        foot.profiler_bytes,
        Num(profiler_per_block),
        foot.log_bytes,
    ));
    entry.append();
}
