//! Seed-sweep driver: explores seeded schedules over the default scenarios
//! with coherence oracles enabled, then validates the oracles against the
//! deliberately broken protocol variants.
//!
//! ```text
//! check [--seeds N] [-j N] [--skip-validation] [--quiet] [--trace PATH] [--metrics]
//! ```
//!
//! `-j`/`--jobs` fans the independent `(scenario, seed)` runs across worker
//! threads (0 = one per CPU; default serial). The report is byte-identical
//! for any worker count.
//!
//! `--trace PATH` exports a Chrome `trace_event` JSON timeline (open it in
//! `chrome://tracing` or Perfetto): of the first counterexample's replay
//! when the sweep fails, or of a deterministic run of the first scenario
//! when it passes.
//!
//! `--critical-path` re-runs the first scenario deterministically with
//! event recording and prints its causal run report (`# shasta
//! critical-path v2`): the chain of compute, protocol occupancy, wire
//! hops, queueing, and synchronization that bounded the run, followed
//! along the delivery and wake edges the engine recorded and tiling
//! `elapsed_cycles` exactly (the process exits 2 on an accounting hole or
//! an unrecorded edge).
//!
//! `--metrics` attaches a metrics registry to every machine the sweep
//! builds. The registry is never read here — the flag exists so CI can
//! byte-diff two otherwise identical invocations (metrics off vs on) and
//! prove recording perturbs nothing.
//!
//! Exit status: 0 when the correct protocol passes every schedule AND the
//! broken variants are caught; 1 otherwise.

use std::process::ExitCode;
use std::time::Instant;

use shasta_check::{
    default_scenarios, replay_observed, resolve_threads, run_scenario_observed, sweep_jobs,
    validate_oracles_jobs, TRACE_RING,
};
use shasta_core::BugInjection;
use shasta_sim::SchedulePolicy;

fn main() -> ExitCode {
    let mut seeds: u64 = 170;
    let mut jobs: Option<usize> = None;
    let mut validate = true;
    let mut quiet = false;
    let mut only: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut critical_path = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                let v = args.next().unwrap_or_default();
                seeds = v.parse().unwrap_or_else(|_| {
                    eprintln!("--seeds expects a number, got {v:?}");
                    std::process::exit(2);
                });
            }
            "-j" | "--jobs" => {
                let v = args.next().unwrap_or_default();
                jobs = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("{a} expects a number (0 = one worker per CPU), got {v:?}");
                    std::process::exit(2);
                }));
            }
            "--skip-validation" => validate = false,
            "--quiet" => quiet = true,
            "--only" => only = Some(args.next().unwrap_or_default()),
            "--trace" => trace = Some(args.next().unwrap_or_default()),
            "--metrics" => shasta_check::set_metrics_enabled(true),
            "--critical-path" => critical_path = true,
            "--help" | "-h" => {
                println!(
                    "usage: check [--seeds N] [-j N] [--only NAME-SUBSTR] [--skip-validation] [--quiet] [--trace PATH] [--metrics] [--critical-path]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let mut scenarios = default_scenarios();
    if let Some(f) = &only {
        scenarios.retain(|s| s.name.contains(f.as_str()));
        if scenarios.is_empty() {
            eprintln!("--only {f:?} matched no scenario");
            return ExitCode::from(2);
        }
    }
    let workers = resolve_threads(jobs);
    let start = Instant::now();
    let report = sweep_jobs(&scenarios, 0..seeds, BugInjection::None, 8, workers);
    let elapsed = start.elapsed();
    if !quiet {
        println!(
            "swept {} schedules ({} seeds x {} scenarios x 2 policies, {} worker{}) in {:.1?}",
            report.runs,
            seeds,
            scenarios.len(),
            workers,
            if workers == 1 { "" } else { "s" },
            elapsed
        );
        println!("{}", report.rows_line());
    }
    if let Some(path) = &trace {
        // Replay the first counterexample so its timeline can be inspected
        // visually; on a clean sweep trace a deterministic healthy run.
        let (scenario, policy, bug) = match report.failures.first() {
            Some(cx) => (cx.scenario, cx.policy, cx.bug),
            None => (scenarios[0], SchedulePolicy::Deterministic, BugInjection::None),
        };
        let (outcome, log) = replay_observed(&scenario, policy, bug, TRACE_RING);
        if let Err(e) = std::fs::write(path, shasta_obs::chrome::to_chrome_json(&log)) {
            eprintln!("cannot write trace to {path}: {e}");
            return ExitCode::from(2);
        }
        if !quiet {
            let verdict = if outcome.is_ok() { "clean run" } else { "counterexample replay" };
            let events = log.iter().filter(|e| shasta_obs::chrome::is_exported(&e.kind)).count();
            println!("wrote Chrome trace ({verdict}, {events} events) to {path}");
        }
    }
    if critical_path {
        // A clean deterministic recorded run of the first scenario; the
        // analyzer refuses incomplete streams, so keep the whole run.
        let (stats, log) = run_scenario_observed(
            &scenarios[0],
            SchedulePolicy::Deterministic,
            BugInjection::None,
            TRACE_RING,
        );
        match shasta_obs::critpath::analyze(&log, stats.elapsed_cycles) {
            Ok(path) => {
                println!("\ncritical path of {} (deterministic run):", scenarios[0]);
                println!("{}", shasta_stats::critical_path_report(&path.report()));
            }
            Err(e) => {
                eprintln!("critical-path analysis failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut ok = true;
    if report.failures.is_empty() {
        if !quiet {
            println!("correct protocol: all oracles passed");
        }
    } else {
        ok = false;
        println!("correct protocol FAILED {} schedule(s):", report.failures.len());
        for cx in &report.failures {
            println!("{cx}");
        }
    }

    if validate {
        match validate_oracles_jobs(&scenarios, seeds.max(8), workers) {
            Ok(caught) => {
                for cx in &caught {
                    if !quiet {
                        println!(
                            "oracle validation: {:?} caught (shrunk to {} rounds)",
                            cx.bug, cx.scenario.iters
                        );
                        println!("{cx}");
                    }
                }
                if !quiet {
                    println!("oracle validation: every injected bug was caught");
                }
            }
            Err(e) => {
                ok = false;
                println!("{e}");
            }
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
