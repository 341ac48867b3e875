//! Advisor validation sweep: profile-guided auto-hinting vs the paper's
//! hand-curated Table 2 granularity hints; appends `BENCH_advisor_sweep.json`.
//!
//! For every Table 2 kernel the sweep runs the profile→advise→replay loop
//! end to end:
//!
//! 1. **Profile** the kernel on tiny inputs (Base-Shasta, 16 processors,
//!    default 64 B blocks) with event recording on, and ask the sharing
//!    profiler for a hint file (`ProfileAgg::advise_hints`). The hints are
//!    derived twice and must serialize byte-identically — the advisor is
//!    deterministic or the binary aborts.
//! 2. **Replay** the kernel on the evaluation inputs (large by default)
//!    three ways: unhinted (uniform 64 B blocks), auto-hinted (the tiny-run
//!    hint file applied through `RunConfig::with_site_hints`, exactly the
//!    path a user's persisted hint file takes), and hand-hinted (the
//!    kernel's own Table 2 `variable_granularity` hints).
//! 3. **Judge**: on a full sweep the entry carries the acceptance criteria,
//!    asserted once it is written — wherever the hand hints beat the
//!    unhinted run, the auto hints must too, and on at least half the
//!    kernels the auto-hinted cycles must be within 5% of (or beat) the
//!    hand-hinted cycles.
//!
//! ```text
//! advisor_sweep [--preset tiny|default|large] [--quick] [--out PATH]
//!               [--hints-dir DIR] [--apps A,B,...] [-j N]
//! ```
//!
//! `--preset` selects the evaluation inputs (profiling always uses tiny);
//! `--quick` is the CI smoke mode: tiny evaluation inputs, first two
//! kernels only, acceptance criteria left out (tiny inputs are too small for
//! granularity hints to pay off — Table 2 is a large-input effect).
//! `--hints-dir` writes each kernel's hint file to `DIR/<app>.hints` so CI
//! can diff two sweeps for byte-identical hint replay. `-j`/`--jobs` fans
//! kernels across worker threads; output is byte-identical for any worker
//! count.

use shasta_apps::{run_app, AppSpec, Preset, Proto, RunConfig};
use shasta_bench::trajectory::{Entry, Num};
use shasta_bench::{apps_for, flag, jobs_from_args, preset_from_args, run, run_observed};
use shasta_check::par_map;
use shasta_stats::Table;

const PROCS: u32 = 16;

struct KernelResult {
    name: &'static str,
    hint_text: String,
    hint_lines: usize,
    unhinted: u64,
    auto: u64,
    hand: u64,
}

impl KernelResult {
    fn auto_delta_pct(&self) -> f64 {
        delta_pct(self.unhinted, self.auto)
    }

    fn hand_delta_pct(&self) -> f64 {
        delta_pct(self.unhinted, self.hand)
    }

    /// Auto-hinted cycles relative to hand-hinted (negative = auto faster).
    fn auto_vs_hand_pct(&self) -> f64 {
        delta_pct(self.hand, self.auto)
    }

    fn hand_improves(&self) -> bool {
        self.hand < self.unhinted
    }

    fn auto_improves(&self) -> bool {
        self.auto < self.unhinted
    }

    fn auto_within_5pct_of_hand(&self) -> bool {
        self.auto as f64 <= self.hand as f64 * 1.05
    }
}

fn delta_pct(base: u64, new: u64) -> f64 {
    (new as f64 / base as f64 - 1.0) * 100.0
}

/// Stage progress on stderr (stdout stays byte-identical for any worker
/// count; stderr is informational and may interleave).
fn note<T>(name: &str, stage: &str, f: impl FnOnce() -> T) -> T {
    eprintln!("[{name}] {stage}...");
    let t0 = std::time::Instant::now();
    let out = f();
    eprintln!("[{name}] {stage} done in {:.1?}", t0.elapsed());
    out
}

/// One kernel through the whole loop: tiny profile → hints → three
/// evaluation runs.
fn sweep_kernel(spec: &AppSpec, eval: Preset) -> KernelResult {
    let name = spec.name;
    let (_, log) = note(name, "profile (tiny)", || {
        run_observed(spec, Preset::Tiny, Proto::Base, PROCS, 1, false)
    });
    let profile = log.profile().expect("observed runs attach the space map");
    let hints = profile.advise_hints();
    let hint_text = hints.to_text();
    assert_eq!(
        hint_text,
        profile.advise_hints().to_text(),
        "{name}: advisor output must be deterministic"
    );
    for h in &hints.hints {
        eprintln!(
            "[{name}] hint: {} {} B (from {} B, {})",
            h.label, h.block_bytes, h.from_bytes, h.pattern
        );
    }

    let unhinted = note(name, "unhinted eval", || run(spec, eval, Proto::Base, PROCS, 1, false))
        .elapsed_cycles;
    let auto = note(name, "auto-hinted eval", || {
        let app = (spec.build)(eval, false);
        let cfg = RunConfig::new(Proto::Base, PROCS, 1).with_site_hints(hints.overrides());
        run_app(app.as_ref(), &cfg).elapsed_cycles
    });
    let hand = note(name, "hand-hinted eval", || run(spec, eval, Proto::Base, PROCS, 1, true))
        .elapsed_cycles;

    KernelResult { name, hint_lines: hints.hints.len(), hint_text, unhinted, auto, hand }
}

fn kernel_json(r: &KernelResult) -> String {
    format!(
        "{{\"name\": \"{}\", \"hint_lines\": {}, \"cycles_unhinted\": {}, \"cycles_auto\": {}, \"cycles_hand\": {}, \"auto_delta_pct\": {:.2}, \"hand_delta_pct\": {:.2}, \"auto_vs_hand_pct\": {:.2}}}",
        r.name,
        r.hint_lines,
        r.unhinted,
        r.auto,
        r.hand,
        Num(r.auto_delta_pct()),
        Num(r.hand_delta_pct()),
        Num(r.auto_vs_hand_pct()),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let eval = if args.iter().any(|a| a == "--preset") {
        preset_from_args()
    } else if quick {
        Preset::Tiny
    } else {
        Preset::Large
    };
    let hints_dir = flag(&["--hints-dir"]);
    let jobs = jobs_from_args();

    let mut kernels = apps_for(true, false);
    if let Some(filter) = flag(&["--apps"]) {
        let names: Vec<&str> = filter.split(',').collect();
        kernels.retain(|s| names.contains(&s.name));
    }
    if quick {
        kernels.truncate(2);
    }
    println!(
        "Advisor sweep: tiny-input profile -> auto hints -> {eval:?}-input replay, \
         Base-Shasta, {PROCS} processors ({} kernels)\n",
        kernels.len()
    );

    let results = par_map(kernels.len(), jobs, |i| sweep_kernel(&kernels[i], eval));

    if let Some(dir) = hints_dir {
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {dir}: {e}"));
        for r in &results {
            let path = format!("{dir}/{}.hints", r.name);
            std::fs::write(&path, &r.hint_text)
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
        println!("wrote {} hint files to {dir}/\n", results.len());
    }

    let mut t = Table::new(vec![
        "app",
        "hints",
        "unhinted",
        "auto",
        "hand",
        "auto %",
        "hand %",
        "auto vs hand",
    ]);
    for r in &results {
        t.row(vec![
            r.name.to_string(),
            r.hint_lines.to_string(),
            r.unhinted.to_string(),
            r.auto.to_string(),
            r.hand.to_string(),
            format!("{:+.1}%", r.auto_delta_pct()),
            format!("{:+.1}%", r.hand_delta_pct()),
            format!("{:+.1}%", r.auto_vs_hand_pct()),
        ]);
    }
    println!("{t}");

    let hand_improves: Vec<&KernelResult> = results.iter().filter(|r| r.hand_improves()).collect();
    let auto_matches: usize = hand_improves.iter().filter(|r| r.auto_improves()).count();
    let within: usize = results.iter().filter(|r| r.auto_within_5pct_of_hand()).count();
    println!(
        "hand hints improve {}/{} kernels; auto hints improve {auto_matches} of those; \
         auto within 5% of hand on {within}/{}",
        hand_improves.len(),
        results.len(),
        results.len()
    );

    let mut entry = Entry::new(
        "advisor_sweep",
        &format!(
            "\"eval_preset\": \"{eval:?}\", \"profile_preset\": \"Tiny\", \"procs\": {PROCS}, \"quick\": {quick}"
        ),
    );
    if !quick {
        for r in hand_improves.iter().filter(|r| !r.auto_improves()) {
            eprintln!(
                "{}: hand hints beat unhinted ({} -> {}) but auto hints did not ({} -> {})",
                r.name, r.unhinted, r.hand, r.unhinted, r.auto
            );
        }
        entry.criterion("auto_improves_where_hand_does", auto_matches == hand_improves.len());
        entry.criterion("auto_within_5pct_on_half", within * 2 >= results.len());
    }
    let rows: Vec<String> = results.iter().map(kernel_json).collect();
    entry.members(&format!(
        "\"hand_improves\": {}, \"auto_matches_hand_improvement\": {auto_matches}, \"auto_within_5pct_of_hand\": {within}, \"kernels\": [{}]",
        hand_improves.len(),
        rows.join(", "),
    ));
    entry.append();
}
