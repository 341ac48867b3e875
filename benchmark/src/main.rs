//! The repository's benchmark: eight workloads, end-to-end metrics from
//! timed runs with tracing off, per-layer metrics from a separate traced
//! run. See `README.md` for the vocabulary and `BENCHMARK.json` for the
//! published contract.
//!
//! ```text
//! benchmark/run.sh [--workload NAME] [--seed S] [--seconds T | --reps R]
//!                  [--trace 0|1] [--quick] [--selfcheck] [--bless]
//! ```
//!
//! With `--workload` the last line of standard output is that workload's
//! result object (`correct`, `attempted`, `failed`, `metrics`); without it
//! every workload runs and one report document is printed. Each workload
//! runs in a child process of this binary that pins itself to one CPU before
//! it spawns a thread.

mod golden;
mod host;
mod hostspeed;
mod layers;
mod metrics;
mod report;
mod spans;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use metrics::{Better, END_TO_END, WORKLOADS};
use report::Outcome;
use workloads::Opts;

/// Length of a timed region when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

/// A child that has not finished by then is killed and counted as crashed.
const CHILD_LIMIT: Duration = Duration::from_secs(170);

struct Cli {
    workload: Option<String>,
    opts: Opts,
    selfcheck: bool,
    child: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Opts {
            seed: 0,
            seconds: DEFAULT_SECONDS,
            reps: None,
            quick: false,
            trace: false,
            bless: false,
            host_cpus: Vec::new(),
        },
        selfcheck: false,
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot parse {v:?}");
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|(w, _)| w == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                cli.workload = Some(name.clone());
            }
            "--seed" => cli.opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                cli.opts.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(cli.opts.seconds > 0.0 && cli.opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--reps" => {
                let reps: u32 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if reps == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                cli.opts.reps = Some(reps);
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cli.opts.quick = true,
            "--bless" => cli.opts.bless = true,
            "--selfcheck" => cli.selfcheck = true,
            "--child" => cli.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.opts.quick && cli.opts.reps.is_none() {
        cli.opts.reps = Some(1);
    }
    if cli.opts.bless && cli.opts.trace {
        return Err("--bless takes its fingerprints from a timed run; drop --trace 1".to_string());
    }
    Ok(cli)
}

/// The child: pin, run one workload, print its result line (with extras).
fn child_main(workload: &str, mut opts: Opts) -> Result<(), String> {
    opts.host_cpus = host::allowed_cpus()?;
    // Refuse to measure unpinned: on a multi-vCPU VM an unpinned wall
    // measures cross-CPU futex wakes, not the program.
    host::pin_to_first_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    let outcome = workloads::run(workload, &opts)?;
    println!("{}", outcome.to_line(true));
    Ok(())
}

/// Spawns the pinned child for `workload` and waits for it. A child that
/// crashes, hangs or prints no result fails the workload as a whole (it
/// never said how many runs it got through), and the caller carries on.
fn run_child(workload: &str, opts: &Opts) -> Outcome {
    let crashed = |why: String| {
        eprintln!("FAILED {workload}: {why}");
        Outcome { correct: false, attempted: 1, failed: 1, notes: vec![why], ..Outcome::default() }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return crashed(format!("cannot find this executable: {e}")),
    };
    // The UDS transport binds under `temp_dir()`; keep that inside the
    // checkout, and relative so the socket path stays short.
    if let Err(e) = std::fs::create_dir_all("benchmark/out/tmp") {
        return crashed(format!("benchmark/out/tmp: {e}"));
    }
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .env("TMPDIR", "benchmark/out/tmp")
        // glibc adapts its mmap and trim thresholds to what is freed, so
        // whether a machine's 16 MB memory images come back as resident heap
        // or as fresh pages to fault in depends on heap layout and thread
        // timing: the same set-up read 25 ms in one process and 100 ms in
        // the next. Naming both thresholds switches the adaptation off, at
        // the values a process reaches after dropping its first machine
        // (no mmap below 32 MiB, no trimming), so memory is reused as in any
        // process that runs more than one machine.
        .env("MALLOC_MMAP_THRESHOLD_", "33554432")
        .env("MALLOC_TRIM_THRESHOLD_", "1073741824")
        .stdout(Stdio::piped());
    if let Some(reps) = opts.reps {
        cmd.args(["--reps", &reps.to_string()]);
    }
    if opts.quick {
        cmd.arg("--quick");
    }
    if opts.bless {
        cmd.arg("--bless");
    }
    let mut child = match cmd.spawn() {
        Ok(child) => child,
        Err(e) => return crashed(format!("cannot start the child: {e}")),
    };
    // Drain standard output while waiting, so a chatty child cannot block on
    // a full pipe.
    let stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = std::io::Read::read_to_string(&mut { stdout }, &mut text);
        text
    });
    let began = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if began.elapsed() < CHILD_LIMIT => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return crashed(format!("child exceeded {CHILD_LIMIT:?} and was killed"));
            }
            Err(e) => return crashed(format!("waiting for the child: {e}")),
        }
    };
    let text = reader.join().unwrap_or_default();
    if !status.success() {
        return crashed(format!("child ended with {status}"));
    }
    match text.lines().last().map(Outcome::from_line) {
        Some(Ok(outcome)) => outcome,
        Some(Err(e)) => crashed(format!("unreadable result line: {e}")),
        None => crashed("child printed no result".to_string()),
    }
}

/// Every workload, timed (and traced with `--trace 1`), as one document.
fn full_report(opts: &Opts) -> bool {
    let mut ok = true;
    let mut section = |trace: bool| -> String {
        let rows: Vec<String> = WORKLOADS
            .iter()
            .map(|(w, _)| {
                let o = run_child(w, &Opts { trace, ..opts.clone() });
                ok &= o.correct;
                format!("    \"{w}\": {}", o.to_line(true))
            })
            .collect();
        rows.join(",\n")
    };
    let timed = section(false);
    let traced = opts.trace.then(|| section(true));
    println!("{{");
    println!(
        "  \"host\": {{{}, \"seed\": {}, \"seconds\": {}, \"reps\": {}, \"quick\": {}}},",
        host::stamp_json(),
        opts.seed,
        opts.seconds,
        opts.reps.map_or("null".to_string(), |r| r.to_string()),
        opts.quick
    );
    print!("  \"end_to_end\": {{\n{timed}\n  }}");
    if let Some(traced) = traced {
        print!(",\n  \"per_layer\": {{\n{traced}\n  }}");
    }
    println!("\n}}");
    ok
}

/// A/A: the timed set twice on the same build, in opposite workload order.
/// Fails if any end-to-end metric moved by more than its bound, or any
/// exact quantity moved at all.
fn selfcheck(opts: &Opts) -> bool {
    let opts = Opts { trace: false, bless: false, ..opts.clone() };
    let a: Vec<Outcome> = WORKLOADS.iter().map(|(w, _)| run_child(w, &opts)).collect();
    let mut b: Vec<Outcome> = WORKLOADS.iter().rev().map(|(w, _)| run_child(w, &opts)).collect();
    b.reverse();
    let mut ok = true;
    println!("| workload | metric | better | A | B | B worse by | bound | verdict |");
    println!("|---|---|---|---:|---:|---:|---:|---|");
    for (((w, _), a), b) in WORKLOADS.iter().zip(&a).zip(&b) {
        for def in END_TO_END {
            let (x, y) = (a.metric(def.name).unwrap_or(0.0), b.metric(def.name).unwrap_or(0.0));
            let worse = match def.better {
                Better::Lower => y / x - 1.0,
                Better::Higher => x / y - 1.0,
            };
            let pass = worse.abs() <= def.bound;
            ok &= pass;
            println!(
                "| {w} | {} | {} | {x:.4} | {y:.4} | {:+.2} % | {:.0} % | {} |",
                def.name,
                def.better.label(),
                worse * 100.0,
                def.bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
        let exact_a = (a.sim_cycles, a.runs_per_pass, a.failed);
        let exact_b = (b.sim_cycles, b.runs_per_pass, b.failed);
        let pass = exact_a == exact_b && a.correct && b.correct;
        ok &= pass;
        println!(
            "| {w} | sim_cycles, runs per pass, failed | equal | {exact_a:?} | {exact_b:?} | | 0 | {} |",
            if pass { "ok" } else { "FAIL" }
        );
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, cpus] = args.as_slice() {
        if flag == "--unpinned-probe" {
            // Started by a pinned child: widen back to the CPUs it had.
            let cpus: Vec<usize> = cpus.split(',').filter_map(|c| c.parse().ok()).collect();
            if let Err(e) = host::set_affinity(&cpus) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            let (ns, lu_ms) = layers::pinning_probe();
            println!("{ns} {lu_ms}");
            return ExitCode::SUCCESS;
        }
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&cli.workload, cli.child, cli.selfcheck) {
        (Some(w), true, _) => match child_main(w, cli.opts) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("error: {e}");
                false
            }
        },
        (_, _, true) => selfcheck(&cli.opts),
        (Some(w), false, false) => {
            // A crashed child measured nothing: no result line, non-zero exit.
            let outcome = run_child(w, &cli.opts);
            let measured = !outcome.metrics.is_empty();
            if measured {
                println!("{}", outcome.to_line(false));
            }
            measured
        }
        (None, _, false) => full_report(&cli.opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn default_seconds_is_the_published_run_seconds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = shasta_obs::chrome::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc.get("run_seconds").and_then(|s| s.as_u64()), Some(DEFAULT_SECONDS as u64));
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let c = cli(&["--workload", "wire_uds", "--seed", "7", "--seconds", "3", "--trace", "1"])
            .unwrap();
        assert_eq!(c.workload.as_deref(), Some("wire_uds"));
        assert_eq!((c.opts.seed, c.opts.seconds, c.opts.trace), (7, 3.0, true));
        assert_eq!((c.opts.reps, c.child, c.selfcheck), (None, false, false));
        assert_eq!(cli(&["--quick"]).unwrap().opts.reps, Some(1));
        assert_eq!(cli(&["--quick", "--reps", "2"]).unwrap().opts.reps, Some(2));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--reps", "0"],
            &["--trace", "2"],
            &["--bless", "--trace", "1"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
