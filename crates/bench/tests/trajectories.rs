//! The trajectory gate: the last entry of every root `BENCH_*.json` carries
//! `config`/`criteria`/`walls` and only true criteria, and the recording
//! footprint `sharing_profile` tracks stays within its bounds. No wall is
//! compared.
use shasta_obs::chrome::{parse, Json};

/// One line per violation among `dir`'s trajectory files.
fn violations(dir: &std::path::Path) -> Vec<String> {
    let mut bad = Vec::new();
    for file in std::fs::read_dir(dir).expect("readable directory").flatten() {
        let name = file.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let doc = parse(&std::fs::read_to_string(file.path()).expect("readable file"));
        let runs = doc.as_ref().ok().and_then(|d| d.get("runs")).and_then(Json::as_arr);
        let last = runs.and_then(|r| r.last()).unwrap_or(&Json::Null);
        for key in ["config", "criteria", "walls"] {
            let Some(Json::Obj(members)) = last.get(key) else {
                bad.push(format!("{name}: the last entry has no {key} object"));
                continue;
            };
            let verdicts = members.iter().filter(|_| key == "criteria");
            let failed = verdicts.filter(|(_, v)| *v != Json::Bool(true));
            bad.extend(failed.map(|(k, v)| format!("{name}: criterion {k} is {v:?}")));
        }
    }
    bad
}

#[test]
fn tracked_trajectories_hold_and_a_flipped_criterion_fails() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert_eq!(violations(&root), Vec::<String>::new());
    let tmp = std::env::temp_dir().join(format!("shasta-gate-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let tracked = std::fs::read_to_string(root.join("BENCH_fault_sweep.json")).unwrap();
    let flipped = tracked.replace("\"loss_pass\": true", "\"loss_pass\": false");
    std::fs::write(tmp.join("BENCH_fault_sweep.json"), flipped).unwrap();
    assert_eq!(violations(&tmp), ["BENCH_fault_sweep.json: criterion loss_pass is Bool(false)"]);
    std::fs::remove_dir_all(&tmp).unwrap();
}

/// The last `BENCH_sharing_advisor.json` entry's `recorded_footprint`, what
/// one pass of the benchmark's recorded workload keeps: a touched block's
/// profiler record takes at most 200 bytes (192 since it keeps `u32`
/// counters and no block size; 344 before), and an event at most 4.5 bytes
/// of ring (4.02 at Default since a ring leaves out what it predicts; 4.92
/// before).
#[test]
fn the_tracked_recording_footprint_holds() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("BENCH_sharing_advisor.json")).unwrap();
    let doc = parse(&text).expect("a trajectory");
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
    let foot = runs.last().and_then(|r| r.get("recorded_footprint")).expect("a footprint");
    let num = |key| foot.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("{key}"));
    assert!(num("profile_record_bytes") <= 200, "{:?}", foot);
    assert!(2 * num("ring_bytes") <= 9 * num("events"), "{:?}", foot);
}
