//! Runs every table/figure binary in sequence, writing each output to
//! `results/<name>.txt` as well as stdout. Pass `--preset tiny` for a quick
//! smoke run. `--list` prints the binaries' names, one a line, and runs
//! nothing: `scripts/ci.sh` diffs each one's Default output against
//! `results/`, so a figure added here is gated there too.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "table1",
    "fig3_speedups",
    "fig4_breakdown",
    "table2_granularity",
    "fig5_granularity",
    "table3_large",
    "fig6_misses",
    "fig7_messages",
    "fig8_downgrades",
    "micro_latency",
    "anl_compare",
    "placement_compare",
    "ablations",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--list"] {
        println!("{}", EXPERIMENTS.join("\n"));
        return;
    }
    let exe_dir =
        std::env::current_exe().expect("current exe").parent().expect("exe dir").to_path_buf();
    std::fs::create_dir_all("results").expect("create results dir");
    for name in EXPERIMENTS {
        eprintln!("== running {name} ==");
        let out = Command::new(exe_dir.join(name))
            .args(&args)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        assert!(out.status.success(), "{name} failed:\n{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        println!("{text}");
        std::fs::write(format!("results/{name}.txt"), text.as_bytes()).expect("write result file");
    }
    eprintln!("all experiments complete; outputs in results/");
}
