//! Fault-injecting checker sweep over heterogeneous topologies: drives the
//! seeded [`shasta_check::FaultPlan`] fabric through every default scenario
//! and cluster shape, and appends a run to the `BENCH_fault_sweep.json`
//! trajectory, whose criteria `crates/bench/tests/trajectories.rs` gates.
//!
//! Four measurement sections, mirroring the issue's acceptance criteria:
//!
//! 1. **Tolerance (a)** — delay, duplication, reordering, and the combined
//!    chaos plan swept over every default scenario × `--seeds` seeds × both
//!    seeded policies; every run must pass every oracle (zero failures).
//! 2. **Heterogeneity (a/c)** — asymmetric links and a memory-only home
//!    node, each swept clean and under chaos; zero failures required.
//! 3. **Loss (b)** — 10% loss with no retransmit path must be *caught*: the
//!    sweep finds a counterexample, its replay fails with the byte-identical
//!    message, and shrinking keeps the loss category while still failing.
//! 4. **Identity (c)** — a disabled fault plan and the explicit uniform
//!    profile leave stats *and* event traces byte-identical to the
//!    historical checker, for every scenario.
//!
//! The four criteria are asserted at exit (after the entry is written) so a
//! regression aborts the binary, and the CI smoke stage, rather than
//! silently logging `false`; `walls.total_wall_ms` sums the section walls.
//!
//! ```text
//! fault_sweep [--seeds N] [--loss-seeds N] [-j N] [--quick] [--out PATH]
//!             [--loss-cx PATH]
//! ```
//!
//! `--quick` is the CI smoke configuration: 2 tolerance seeds per plan.
//! `--loss-cx PATH` writes the shrunken loss counterexample (scenario,
//! policy, and full violation message) to PATH; two independent invocations
//! must produce byte-identical files — the CI determinism diff.

use std::time::Instant;

use shasta_bench::trajectory::{Entry, Num};
use shasta_bench::{flag, num_flag};
use shasta_check::{
    default_scenarios, loss_fault_plan, resolve_threads, run_checked, run_scenario_traced, shrink,
    silence_expected_panics, sweep_jobs, ClusterKind, FaultPlan, Scenario,
};
use shasta_core::BugInjection;
use shasta_sim::SchedulePolicy;

struct SectionRow {
    label: String,
    runs: u64,
    failures: usize,
    wall_ms: f64,
}

/// Sweeps `scenarios` over `seeds` seeds and returns one trajectory row.
fn sweep_section(label: String, scenarios: &[Scenario], seeds: u64, jobs: usize) -> SectionRow {
    let t = Instant::now();
    let report = sweep_jobs(scenarios, 0..seeds, BugInjection::None, 1, jobs);
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    for cx in &report.failures {
        eprintln!("{cx}");
    }
    SectionRow { label, runs: report.runs, failures: report.failures.len(), wall_ms }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let seeds: u64 = num_flag(&["--seeds"]).unwrap_or(if quick { 2 } else { 4 });
    // Loss is probabilistic per (seed, schedule): 8 seeds is the same budget
    // the integration test proves sufficient for the 10% plan, and the sweep
    // short-circuits on the first counterexample anyway.
    let loss_seeds: u64 = num_flag(&["--loss-seeds"]).unwrap_or(8);
    let jobs = resolve_threads(Some(num_flag(&["-j", "--jobs"]).unwrap_or(0))).max(2);

    silence_expected_panics();
    let base = default_scenarios();

    // --- Section 1: tolerated fault plans must pass every oracle. ---
    let mut tolerated = Vec::new();
    for (label, plan) in shasta_check::tolerated_fault_plans(0) {
        let scenarios: Vec<Scenario> =
            base.iter().map(|s| Scenario { fault: plan, ..*s }).collect();
        let row = sweep_section(label.to_string(), &scenarios, seeds, jobs);
        println!(
            "tolerate {:<10} {} runs, {} failures, {:.1}ms",
            row.label, row.runs, row.failures, row.wall_ms
        );
        tolerated.push(row);
    }
    let tolerated_pass = tolerated.iter().all(|r| r.failures == 0);

    // --- Section 2: heterogeneous shapes, clean and under chaos. ---
    let mut hetero = Vec::new();
    for cluster in [ClusterKind::AsymLinks, ClusterKind::MemoryHome] {
        for (fault_label, fault) in [("none", FaultPlan::none()), ("chaos", FaultPlan::chaos(0))] {
            let scenarios: Vec<Scenario> =
                base.iter().map(|s| Scenario { cluster, fault, ..*s }).collect();
            let row = sweep_section(format!("{cluster:?}+{fault_label}"), &scenarios, seeds, jobs);
            println!(
                "hetero   {:<18} {} runs, {} failures, {:.1}ms",
                row.label, row.runs, row.failures, row.wall_ms
            );
            hetero.push(row);
        }
    }
    let hetero_pass = hetero.iter().all(|r| r.failures == 0);

    // --- Section 3: loss must be caught, replay bit-exactly, and shrink. ---
    let t = Instant::now();
    let loss_scenarios: Vec<Scenario> =
        base.iter().map(|s| Scenario { fault: loss_fault_plan(0), ..*s }).collect();
    let loss_report = sweep_jobs(&loss_scenarios, 0..loss_seeds, BugInjection::None, 1, jobs);
    let (loss_caught, replay_identical, shrink_keeps_loss, shrunk_fails, shrunk_iters) =
        match loss_report.failures.first() {
            Some(cx) => {
                let replayed = run_checked(&cx.scenario, cx.policy, cx.bug).err();
                let identical = replayed.as_ref().is_some_and(|r| r.message == cx.message);
                let small = shrink(cx);
                let keeps_loss = small.scenario.fault.loss_permille > 0;
                let still_fails = run_checked(&small.scenario, small.policy, small.bug)
                    .err()
                    .is_some_and(|r| r.message == small.message);
                if let Some(path) = flag(&["--loss-cx"]) {
                    std::fs::write(&path, format!("{small}"))
                        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                }
                (true, identical, keeps_loss, still_fails, small.scenario.iters)
            }
            None => (false, false, false, false, 0),
        };
    let loss_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "loss     caught={loss_caught} replay_identical={replay_identical} \
         shrink_keeps_loss={shrink_keeps_loss} shrunk_fails={shrunk_fails} \
         shrunk_iters={shrunk_iters} ({loss_wall_ms:.1}ms)"
    );

    // --- Section 4: disabled faults / explicit uniform profile are inert. ---
    let t = Instant::now();
    let mut disabled_inert = true;
    let mut uniform_identical = true;
    for s in &base {
        for policy in [
            SchedulePolicy::SeededRandom { seed: 5 },
            SchedulePolicy::Chains { seed: 11, change_interval: 7 },
        ] {
            let baseline = run_scenario_traced(s, policy, BugInjection::None);
            let inert = Scenario { fault: FaultPlan { seed: 0xFA_u64, ..FaultPlan::none() }, ..*s };
            if run_scenario_traced(&inert, policy, BugInjection::None) != baseline {
                disabled_inert = false;
                eprintln!("identity: disabled faults perturbed {s} under {policy:?}");
            }
            let explicit = Scenario { cluster: ClusterKind::UniformExplicit, ..*s };
            if run_scenario_traced(&explicit, policy, BugInjection::None) != baseline {
                uniform_identical = false;
                eprintln!("identity: explicit uniform profile perturbed {s} under {policy:?}");
            }
        }
    }
    let identity_wall_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "identity disabled_inert={disabled_inert} uniform_bit_identical={uniform_identical} \
         ({identity_wall_ms:.1}ms)"
    );

    let loss_pass = loss_caught && replay_identical && shrink_keeps_loss && shrunk_fails;
    let identity_pass = disabled_inert && uniform_identical;
    let total_wall_ms = tolerated.iter().map(|r| r.wall_ms).sum::<f64>()
        + hetero.iter().map(|r| r.wall_ms).sum::<f64>()
        + loss_wall_ms
        + identity_wall_ms;

    let mut entry = Entry::new(
        "fault_sweep",
        &format!("\"seeds\": {seeds}, \"loss_seeds\": {loss_seeds}, \"jobs\": {jobs}"),
    );
    entry.criterion("tolerated_pass", tolerated_pass);
    entry.criterion("hetero_pass", hetero_pass);
    entry.criterion("loss_pass", loss_pass);
    entry.criterion("identity_pass", identity_pass);
    entry.wall("total_wall_ms", total_wall_ms);
    let section = |key: &str, rows: &[SectionRow]| {
        let rows: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"{key}\": \"{}\", \"runs\": {}, \"failures\": {}, \"wall_ms\": {:.2}}}",
                    r.label,
                    r.runs,
                    r.failures,
                    Num(r.wall_ms)
                )
            })
            .collect();
        rows.join(", ")
    };
    entry.members(&format!(
        "\"tolerated\": [{}], \"heterogeneous\": [{}], \"loss\": {{\"seeds\": {loss_seeds}, \"caught\": {loss_caught}, \"replay_identical\": {replay_identical}, \"shrink_keeps_loss\": {shrink_keeps_loss}, \"shrunk_fails\": {shrunk_fails}, \"shrunk_iters\": {shrunk_iters}, \"wall_ms\": {:.2}}}, \"identity\": {{\"disabled_inert\": {disabled_inert}, \"uniform_bit_identical\": {uniform_identical}, \"wall_ms\": {:.2}}}",
        section("kind", &tolerated),
        section("shape", &hetero),
        Num(loss_wall_ms),
        Num(identity_wall_ms),
    ));
    println!();
    entry.append();
}
