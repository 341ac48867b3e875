#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Experiment harness shared by the per-table/per-figure binaries.
//!
//! See `docs/ARCHITECTURE.md` for where this crate sits in the workspace.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md`'s per-experiment index): it sweeps the applications
//! through the relevant protocol/processor/clustering configurations via
//! [`shasta_apps::run_app`] and prints paper-style rows with
//! [`shasta_stats::Table`].
//!
//! Run them all with `cargo run --release -p shasta-bench --bin all_experiments`.

use shasta_apps::{registry, run_app, run_app_observed_shaped, AppSpec, Preset, Proto, RunConfig};
use shasta_obs::EventLog;
use shasta_stats::{RunStats, TimeCat};

/// Default per-processor event-ring capacity for observed runs: deep enough
/// to keep the interesting tail of a Table 2 kernel while bounding memory.
/// The streamed aggregates stay exact even when the ring overflows.
pub const TRACE_RING_CAPACITY: usize = 65_536;

/// The processor/clustering points of the paper's parallel runs: 2- and
/// 4-processor runs use one node; 8 and 16 use two and four nodes (§4.3),
/// and SMP-Shasta uses clustering 2 at 2 processors, 4 elsewhere.
pub const PAPER_POINTS: [(u32, u32); 4] = [(2, 2), (4, 4), (8, 4), (16, 4)];

fn config(proto: Proto, procs: u32, clustering: u32, vg: bool) -> RunConfig {
    RunConfig { variable_granularity: vg, ..RunConfig::new(proto, procs, clustering) }
}

/// Runs `spec` at one configuration.
pub fn run(
    spec: &AppSpec,
    preset: Preset,
    proto: Proto,
    procs: u32,
    clustering: u32,
    vg: bool,
) -> RunStats {
    run_app((spec.build)(preset, false).as_ref(), &config(proto, procs, clustering, vg))
}

/// Runs `spec` at one configuration with event recording enabled, returning
/// the statistics plus the captured event log (ring capacity
/// [`TRACE_RING_CAPACITY`] per processor).
///
/// # Panics
///
/// Panics, naming the application and configuration, if the engine's
/// recorded sends diverge from the network layer's message counters
/// ([`EventLog::crosscheck`]).
pub fn run_observed(
    spec: &AppSpec,
    preset: Preset,
    proto: Proto,
    procs: u32,
    clustering: u32,
    vg: bool,
) -> (RunStats, EventLog) {
    observe(spec, preset, config(proto, procs, clustering, vg), |_| {})
}

/// [`run_observed`] with a live metrics registry attached to the machine's
/// transport. The registry is write-only here: the caller gets the same
/// `(stats, log)` pair, which must be identical to a metrics-off run —
/// recording is purely additive (`scripts/ci.sh` byte-diffs Figure 4 both
/// ways to enforce it).
pub fn run_observed_metrics(
    spec: &AppSpec,
    preset: Preset,
    proto: Proto,
    procs: u32,
    clustering: u32,
    vg: bool,
) -> (RunStats, EventLog) {
    observe(spec, preset, config(proto, procs, clustering, vg), |m| {
        m.set_metrics(&shasta_obs::Registry::enabled());
    })
}

fn observe(
    spec: &AppSpec,
    preset: Preset,
    cfg: RunConfig,
    shape: impl FnOnce(&mut shasta_core::Machine),
) -> (RunStats, EventLog) {
    let app = (spec.build)(preset, false);
    let (stats, log) = run_app_observed_shaped(app.as_ref(), &cfg, TRACE_RING_CAPACITY, shape);
    if let Err(e) = log.crosscheck(&stats.messages) {
        panic!(
            "{} {:?} {}p c{}: engine/network message divergence: {e}",
            spec.name, cfg.proto, cfg.procs, cfg.clustering
        );
    }
    (stats, log)
}

/// Sequential baseline cycles for `spec` at `preset`.
pub fn seq_cycles(spec: &AppSpec, preset: Preset) -> u64 {
    run(spec, preset, Proto::Sequential, 1, 1, false).elapsed_cycles
}

/// Formats a cycle count as simulated seconds at 300 MHz.
pub fn secs(cycles: u64) -> String {
    format!("{:.2}s", cycles as f64 / 300e6)
}

/// Formats an overhead percentage relative to `base`.
pub fn overhead(cycles: u64, base: u64) -> String {
    format!("{:.1}%", (cycles as f64 / base as f64 - 1.0) * 100.0)
}

/// Formats a speedup.
pub fn speedup(seq: u64, par: u64) -> String {
    format!("{:.2}", seq as f64 / par as f64)
}

/// Renders one execution-time bar (normalized to `norm` cycles): total
/// percent plus the six category percentages — the textual analogue of one
/// bar in Figures 4 and 5.
pub fn breakdown_bar(label: &str, stats: &RunStats, norm: u64) -> String {
    let total = stats.total_breakdown();
    let scale = stats.elapsed_cycles as f64 / norm as f64 * 100.0;
    let mut out = format!("{label:<4} {scale:>6.1}% |");
    for cat in TimeCat::ALL {
        out.push_str(&format!(" {}={:>4.1}%", cat.label(), total.fraction(cat) * scale));
    }
    out
}

/// Prints a one-line usage error and exits non-zero: a mistyped flag value
/// must never fall back to a default (and a multi-minute full-size run).
fn usage_error(msg: &str) -> ! {
    eprintln!("usage error: {msg}");
    std::process::exit(2)
}

/// The value following the first of the CLI flags `names`, if one is present.
pub fn flag(names: &[&str]) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| names.contains(&a.as_str()))?;
    Some(
        args.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage_error(&format!("{} takes a value", args[i]))),
    )
}

/// Parses the numeric CLI flag `names` (`None` when absent). A value that
/// does not parse is a usage error: one line on stderr and exit status 2.
pub fn num_flag<T: std::str::FromStr>(names: &[&str]) -> Option<T> {
    flag(names).map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("{} takes a number, got {v:?}", names[0])))
    })
}

/// Writes `log` as Chrome `trace_event` JSON to `path`.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_chrome_trace(path: &str, log: &EventLog) {
    std::fs::write(path, shasta_obs::chrome::to_chrome_json(log))
        .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
    let events = log.iter().filter(|e| shasta_obs::chrome::is_exported(&e.kind)).count();
    eprintln!("wrote Chrome trace ({events} events) to {path}");
}

/// Splices the wire fabric's event log into an engine-side Chrome trace:
/// wire events become instant markers on a second trace process (`pid` 1,
/// one row per physical node), and every event carrying a nonzero trace
/// context additionally emits a flow **step** bound to the engine-side flow
/// **start** of the same miss id — so one miss renders as a single causal
/// arrow spanning the simulator and the wire (see `docs/TRANSPORT.md` §6).
///
/// The two processes count time in different units — engine rows in
/// simulated cycles, wire rows in wall-clock microseconds since wire-event
/// recording was enabled — which Chrome/Perfetto display side by side;
/// flows still bind purely by `(cat, name, id)`.
///
/// # Panics
///
/// Panics if `engine_json` is not an exporter-shaped trace document
/// (`...]}` tail), which would mean it did not come from
/// [`shasta_obs::chrome::to_chrome_json`].
pub fn merge_wire_trace(engine_json: &str, events: &[shasta_transport::WireEvent]) -> String {
    use shasta_obs::chrome::{MISS_FLOW_CAT, MISS_FLOW_NAME};
    use std::fmt::Write as _;
    let body = engine_json
        .strip_suffix("]}")
        .unwrap_or_else(|| panic!("engine trace does not end in ']}}'"));
    let mut out = String::with_capacity(engine_json.len() + 160 * events.len() + 256);
    out.push_str(body);
    let _ = write!(
        out,
        ",{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{{\"name\":\"wire fabric (wall-clock us)\"}}}}"
    );
    let mut nodes: Vec<u32> = events.iter().map(|e| e.src_node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for n in &nodes {
        let _ = write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{n},\
             \"args\":{{\"name\":\"node {n} tx\"}}}}"
        );
    }
    for e in events {
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"wire\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
             \"tid\":{},\"ts\":{},\"args\":{{\"src\":{},\"dst\":{},\"seq\":{},\"trace\":{}}}}}",
            e.kind, e.src_node, e.t_us, e.src_node, e.dst_node, e.seq, e.trace
        );
        if e.trace != 0 {
            let _ = write!(
                out,
                ",{{\"name\":\"{MISS_FLOW_NAME}\",\"cat\":\"{MISS_FLOW_CAT}\",\"ph\":\"t\",\
                 \"id\":{},\"pid\":1,\"tid\":{},\"ts\":{}}}",
                e.trace, e.src_node, e.t_us
            );
        }
    }
    out.push_str("]}");
    out
}

/// Applications selected for a table, in registry order.
pub fn apps_for(table2_only: bool, table3_only: bool) -> Vec<AppSpec> {
    registry()
        .into_iter()
        .filter(|s| (!table2_only || s.in_table2) && (!table3_only || s.in_table3))
        .collect()
}

/// Parses the common `--preset tiny|default|large` CLI flag so experiments
/// can be smoke-tested quickly; empty or absent means `default`, anything
/// else is a usage error (exit status 2).
pub fn preset_from_args() -> Preset {
    match flag(&["--preset"]).unwrap_or_default().as_str() {
        "tiny" => Preset::Tiny,
        "" | "default" => Preset::Default,
        "large" => Preset::Large,
        other => usage_error(&format!("--preset takes tiny|default|large, got {other:?}")),
    }
}

/// Parses the common `-j`/`--jobs` CLI flag (0 = one worker per CPU) and
/// resolves it the same way `shasta-check` does: an absent flag means
/// serial. Safe for any binary whose printed output is derived purely from
/// simulated counters — the simulation is deterministic, so worker count
/// never changes the bytes printed.
pub fn jobs_from_args() -> usize {
    shasta_check::resolve_threads(num_flag(&["-j", "--jobs"]))
}

/// The one schema of the append-only `BENCH_*.json` *trajectory* files: every
/// invocation of a trajectory bin appends one [`Entry`](trajectory::Entry) to
/// the file's `"runs"` array. `crates/bench/tests/trajectories.rs` gates the
/// tracked files on their last entry's criteria; no wall is compared (host
/// time is measured, pinned, by `benchmark/`).
pub mod trajectory {
    use shasta_obs::chrome::{parse, quote, Json};

    /// A float for a detail row's format string: honours the precision of
    /// its `{:.N}` placeholder, and prints `null` when non-finite (a ratio
    /// over a zero wall) so the row stays JSON.
    pub struct Num(pub f64);

    impl std::fmt::Display for Num {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            if self.0.is_finite() {
                self.0.fmt(f)
            } else {
                f.write_str("null")
            }
        }
    }

    /// Compact serialization of a JSON value; a non-finite number is `null`.
    fn render(v: &Json) -> String {
        match v {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) if !n.is_finite() => "null".to_string(),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9e15 => format!("{}", *n as i64),
            Json::Num(n) => format!("{n}"),
            Json::Str(s) => quote(s),
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(render).collect();
                format!("[{}]", inner.join(", "))
            }
            Json::Obj(members) => {
                let inner: Vec<String> =
                    members.iter().map(|(k, v)| format!("{}: {}", quote(k), render(v))).collect();
                format!("{{{}}}", inner.join(", "))
            }
        }
    }

    /// The rendered prior entries of the trajectory at `path`; none when the
    /// file is absent or empty (`mktemp` makes it so).
    ///
    /// # Panics
    ///
    /// Panics, naming the file, if it holds anything but a `"runs"` array:
    /// appending would overwrite, and so destroy, whatever it is.
    fn prior_runs(path: &str) -> Vec<String> {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        if text.trim().is_empty() {
            return Vec::new();
        }
        let doc = parse(&text)
            .unwrap_or_else(|e| panic!("{path} is not valid JSON ({e}); left untouched"));
        let runs = doc
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{path} has no \"runs\" array; left untouched"));
        runs.iter().map(render).collect()
    }

    /// One trajectory entry: `config` (stamped with `host_cpus` and
    /// `unix_time`), `criteria` (name → bool), `walls` (name → ms), then the
    /// bin's own members (scalars and detail rows).
    pub struct Entry {
        out: String,
        config: Vec<(String, Json)>,
        criteria: Vec<(String, bool)>,
        walls: Vec<(String, Json)>,
        members: Vec<(String, Json)>,
    }

    fn members_of(what: &str, json: &str) -> Vec<(String, Json)> {
        match parse(&format!("{{{json}}}")) {
            Ok(Json::Obj(members)) => members,
            other => panic!("{what} is not a list of JSON members ({other:?}): {json}"),
        }
    }

    impl Entry {
        /// An entry bound for `--out PATH`, by default `BENCH_<name>.json` in
        /// the working directory, whose `config` is the JSON members
        /// `config` (`"key": value, …`).
        pub fn new(name: &str, config: &str) -> Entry {
            let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
            let unix_time = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or_default();
            let mut config = members_of("config", config);
            config.push(("host_cpus".into(), Json::Num(host_cpus as f64)));
            config.push(("unix_time".into(), Json::Num(unix_time as f64)));
            Entry {
                out: crate::flag(&["--out"]).unwrap_or_else(|| format!("BENCH_{name}.json")),
                config,
                criteria: Vec::new(),
                walls: Vec::new(),
                members: Vec::new(),
            }
        }

        /// Records one of the conditions the bin asserts; [`append`](Self::append)
        /// panics after the write if any is false.
        pub fn criterion(&mut self, name: &str, pass: bool) {
            self.criteria.push((name.into(), pass));
        }

        /// Records a host wall time in milliseconds (kept to 0.01 ms).
        pub fn wall(&mut self, name: &str, ms: f64) {
            self.walls.push((name.into(), Json::Num((ms * 100.0).round() / 100.0)));
        }

        /// Adds the bin's own JSON members (`"key": value, …`): summary
        /// scalars and detail rows, typically straight from a format string.
        pub fn members(&mut self, json: &str) {
            self.members.extend(members_of("entry detail", json));
        }

        /// Appends the entry to its trajectory (creating the file when
        /// absent) and prints the criteria and the `wrote …` line.
        ///
        /// # Panics
        ///
        /// Panics before writing if the existing file is not a trajectory or
        /// cannot be written; panics after writing, naming every false
        /// criterion, if any criterion is false.
        pub fn append(self) {
            let Entry { out, config, criteria, walls, members } = self;
            let summary: Vec<String> =
                criteria.iter().map(|(k, pass)| format!("{k}={pass}")).collect();
            let failed: Vec<&str> =
                criteria.iter().filter(|(_, pass)| !pass).map(|(k, _)| k.as_str()).collect();
            let verdicts =
                criteria.iter().map(|(k, pass)| (k.clone(), Json::Bool(*pass))).collect();
            let mut entry = vec![
                ("config".to_string(), Json::Obj(config)),
                ("criteria".to_string(), Json::Obj(verdicts)),
                ("walls".to_string(), Json::Obj(walls)),
            ];
            entry.extend(members);
            let mut runs = prior_runs(&out);
            runs.push(render(&Json::Obj(entry)));
            let json = format!("{{\n  \"runs\": [\n    {}\n  ]\n}}\n", runs.join(",\n    "));
            std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
            if !summary.is_empty() {
                println!("{}", summary.join(" "));
            }
            println!("wrote {out} (trajectory run #{})", runs.len());
            assert!(failed.is_empty(), "criteria failed: {}", failed.join(", "));
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// An entry bound for a fresh file under the temp dir.
        fn entry_at(tag: &str) -> Entry {
            let path =
                std::env::temp_dir().join(format!("shasta-{}-{tag}.json", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let mut entry = Entry::new("unit", "\"preset\": \"Tiny\", \"procs\": 8");
            entry.out = path.to_str().expect("utf-8 temp dir").to_string();
            entry
        }

        #[test]
        fn entries_round_trip_through_the_parser_and_accumulate() {
            let mut first = entry_at("roundtrip");
            let out = first.out.clone();
            first.criterion("tiles", true);
            first.wall("total_wall_ms", 12.3456);
            first.members(&format!("\"ratio\": {:.2}, \"rows\": [{{\"k\": 1}}]", Num(1.0 / 0.0)));
            first.append();
            let mut second = entry_at("unused");
            second.out = out.clone();
            second.wall("bad", f64::NAN);
            second.append();
            let doc = parse(&std::fs::read_to_string(&out).unwrap()).expect("valid JSON");
            let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
            assert_eq!(runs.len(), 2, "the second append keeps the first entry");
            let config = runs[0].get("config").expect("config");
            assert_eq!(config.get("preset").and_then(Json::as_str), Some("Tiny"));
            assert!(config.get("unix_time").and_then(Json::as_u64).is_some_and(|t| t > 0));
            assert!(config.get("host_cpus").and_then(Json::as_u64).is_some_and(|n| n > 0));
            assert_eq!(
                runs[0].get("criteria"),
                Some(&Json::Obj(vec![("tiles".into(), Json::Bool(true))]))
            );
            let walls = runs[0].get("walls").expect("walls");
            assert_eq!(walls.get("total_wall_ms"), Some(&Json::Num(12.35)));
            assert_eq!(
                runs[0].get("ratio"),
                Some(&Json::Null),
                "Num renders a non-finite float null"
            );
            assert_eq!(runs[1].get("walls").and_then(|w| w.get("bad")), Some(&Json::Null));
            let _ = std::fs::remove_file(&out);
        }

        #[test]
        fn a_false_criterion_is_written_then_panics_by_name() {
            let mut entry = entry_at("criterion");
            let out = entry.out.clone();
            entry.criterion("holds", true);
            entry.criterion("tiling_pass", false);
            let err = std::panic::catch_unwind(|| entry.append()).expect_err("must panic");
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("tiling_pass") && !msg.contains("holds"), "{msg}");
            let text = std::fs::read_to_string(&out).expect("entry written before the panic");
            assert!(text.contains("\"tiling_pass\": false"), "{text}");
            let _ = std::fs::remove_file(&out);
        }

        #[test]
        fn a_file_that_is_not_a_trajectory_is_left_untouched() {
            for (tag, junk) in
                [("junk", "{\"runs\": [ {\"speedup\": inf} ]}"), ("noruns", "{\"a\": 1}")]
            {
                let entry = entry_at(tag);
                let out = entry.out.clone();
                std::fs::write(&out, junk).unwrap();
                let err = std::panic::catch_unwind(|| entry.append()).expect_err("must panic");
                let msg = err.downcast_ref::<String>().expect("formatted panic");
                assert!(msg.contains(&out), "the panic names the file: {msg}");
                assert_eq!(std::fs::read_to_string(&out).unwrap(), junk, "byte-for-byte unchanged");
                let _ = std::fs::remove_file(&out);
            }
        }

        #[test]
        fn render_escapes_control_characters_in_strings_and_keys() {
            let v = Json::Obj(vec![("a\nb".into(), Json::Str("tab\there \"q\" \u{1}".into()))]);
            let text = render(&v);
            assert_eq!(text, r#"{"a\nb": "tab\there \"q\" \u0001"}"#);
            assert_eq!(parse(&text), Ok(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(300_000_000), "1.00s");
        assert_eq!(overhead(121, 100), "21.0%");
        assert_eq!(speedup(100, 20), "5.00");
    }

    #[test]
    fn paper_points_match_section_4_3() {
        assert_eq!(PAPER_POINTS, [(2, 2), (4, 4), (8, 4), (16, 4)]);
    }

    #[test]
    fn app_filters() {
        assert_eq!(apps_for(false, false).len(), 9);
        assert_eq!(apps_for(true, false).len(), 6);
        assert_eq!(apps_for(false, true).len(), 7);
    }

    #[test]
    fn merged_wire_trace_parses_and_carries_flow_steps() {
        // The exporter always leads with a process_name metadata record, so
        // this literal matches the real `to_chrome_json` document shape.
        let engine = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
                      {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
                      \"args\":{\"name\":\"shasta simulated run\"}}]}";
        let events = vec![
            shasta_transport::WireEvent {
                t_us: 10,
                kind: "data_tx",
                src_node: 0,
                dst_node: 1,
                seq: 1,
                trace: 7,
            },
            shasta_transport::WireEvent {
                t_us: 25,
                kind: "ack_rx",
                src_node: 1,
                dst_node: 0,
                seq: 1,
                trace: 0,
            },
        ];
        let merged = merge_wire_trace(engine, &events);
        let doc = shasta_obs::chrome::parse(&merged).expect("merged trace must stay valid JSON");
        let evs = doc.get("traceEvents").and_then(|v| v.as_arr()).expect("traceEvents array");
        let wire: Vec<_> =
            evs.iter().filter(|e| e.get("cat").and_then(|c| c.as_str()) == Some("wire")).collect();
        assert_eq!(wire.len(), 2, "one instant per wire event");
        let steps: Vec<_> = evs
            .iter()
            .filter(|e| {
                e.get("cat").and_then(|c| c.as_str()) == Some(shasta_obs::chrome::MISS_FLOW_CAT)
                    && e.get("ph").and_then(|p| p.as_str()) == Some("t")
            })
            .collect();
        assert_eq!(steps.len(), 1, "only the trace!=0 event emits a flow step");
        assert_eq!(steps[0].get("id").and_then(|v| v.as_u64()), Some(7));
    }
}
