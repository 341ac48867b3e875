//! End-to-end check of the benchmark's contract: the built harness, run the
//! way the driver runs it (one workload per invocation, from the repository
//! root), prints every name `BENCHMARK.json` publishes exactly once — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` — each with its published unit, and finds every output
//! correct. Uses `--quick` (Tiny preset, one pass) to stay a smoke test.

use std::path::Path;
use std::process::Command;

use shasta_obs::chrome::{parse, Json};

fn names_and_units(doc: &Json, key: &str) -> Vec<(String, String)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
    doc.get(key)
        .and_then(Json::as_arr)
        .expect(key)
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[test]
fn every_published_name_is_printed_exactly_once_per_workload() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root");
    let contract = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let contract = parse(&contract).expect("BENCHMARK.json is valid JSON");
    assert_eq!(contract.get("paths").and_then(Json::as_arr).map(<[Json]>::len), Some(1));

    let workloads = contract.get("workloads").and_then(Json::as_arr).expect("workloads");
    for workload in workloads.iter().map(|w| w.get("name").and_then(Json::as_str).expect("name")) {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_shasta-benchmark"))
                .current_dir(root)
                .args(["--quick", "--workload", workload, "--seed", "0", "--trace", trace])
                .output()
                .expect("harness starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().expect("a result line");
            let Json::Obj(result) = parse(line).expect("the result line is JSON") else {
                panic!("{workload}: result is not an object: {line}");
            };
            let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{workload}");
            assert_eq!(result[0].1, Json::Bool(true), "{workload} --trace {trace}:\n{stderr}");
            assert!(result[1].1.as_u64().is_some_and(|n| n >= 1), "{workload}: attempted");
            assert_eq!(result[2].1.as_u64(), Some(0), "{workload}: failed");

            let Json::Obj(metrics) = &result[3].1 else { panic!("{workload}: metrics") };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(matches!(m.get("value"), Some(Json::Num(v)) if v.is_finite()));
                    (name.clone(), m.get("unit").and_then(Json::as_str).expect("unit").to_string())
                })
                .collect();
            assert_eq!(printed, names_and_units(&contract, key), "{workload} --trace {trace}");
            if trace == "0" {
                for (name, m) in metrics {
                    assert!(
                        matches!(m.get("value"), Some(Json::Num(v)) if *v > 0.0),
                        "{workload}: end-to-end metric {name} must never be 0"
                    );
                }
            }
        }
    }
    assert!(root.join("benchmark/out/trace.json").is_file(), "the traced run writes its spans");
}
