//! The correctness gate's reference: `benchmark/golden.json` maps
//! `workload → run → [elapsed_cycles, misses, messages, downgrades]`
//! (for `check_sweep`: `[schedules, counterexamples, Σ elapsed_cycles]`).
//! Simulated results are deterministic, so any difference is a changed
//! program, never noise. `--bless` rewrites a workload's section.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use shasta_obs::chrome::{parse, Json};

pub const PATH: &str = "benchmark/golden.json";

type Section = BTreeMap<String, Vec<u64>>;

#[derive(Debug, Default, PartialEq)]
pub struct Golden(BTreeMap<String, Section>);

impl Golden {
    pub fn parse(text: &str) -> Result<Golden, String> {
        let Json::Obj(sections) = parse(text)? else {
            return Err("golden file is not a JSON object".to_string());
        };
        let mut out = BTreeMap::new();
        for (workload, runs) in sections {
            let Json::Obj(runs) = runs else {
                return Err(format!("golden section {workload:?} is not an object"));
            };
            let mut section = Section::new();
            for (run, print) in runs {
                let print: Option<Vec<u64>> =
                    print.as_arr().and_then(|a| a.iter().map(Json::as_u64).collect());
                section.insert(
                    run.clone(),
                    print.ok_or_else(|| format!("golden entry {workload}/{run} is not [u64]"))?,
                );
            }
            out.insert(workload, section);
        }
        Ok(Golden(out))
    }

    /// Loads [`PATH`]; a missing file is an empty reference (every compared
    /// run then fails until the file is blessed).
    pub fn load() -> Result<Golden, String> {
        match std::fs::read_to_string(PATH) {
            Ok(text) => Golden::parse(&text).map_err(|e| format!("{PATH}: {e}")),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Golden::default()),
            Err(e) => Err(format!("{PATH}: {e}")),
        }
    }

    pub fn get(&self, workload: &str, run: &str) -> Option<&[u64]> {
        self.0.get(workload)?.get(run).map(Vec::as_slice)
    }

    pub fn set_section(&mut self, workload: &str, section: Section) {
        self.0.insert(workload.to_string(), section);
    }

    /// One run per line, keys sorted, so a re-bless diffs cleanly.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (workload, runs)) in self.0.iter().enumerate() {
            let _ = writeln!(out, "  \"{workload}\": {{");
            for (j, (run, print)) in runs.iter().enumerate() {
                let nums: Vec<String> = print.iter().map(u64::to_string).collect();
                let comma = if j + 1 < runs.len() { "," } else { "" };
                let _ = writeln!(out, "    \"{run}\": [{}]{comma}", nums.join(", "));
            }
            let _ = writeln!(out, "  }}{}", if i + 1 < self.0.len() { "," } else { "" });
        }
        out.push_str("}\n");
        out
    }

    pub fn save(&self) -> Result<(), String> {
        std::fs::write(PATH, self.render()).map_err(|e| format!("{PATH}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parses_back() {
        let mut g = Golden::default();
        g.set_section(
            "smp16c4_sharing",
            Section::from([("LU".to_string(), vec![1, 2, 3, 4]), ("Barnes".to_string(), vec![5])]),
        );
        g.set_section("check_sweep", Section::from([("seed0".to_string(), vec![1700, 0, 99])]));
        assert_eq!(Golden::parse(&g.render()).unwrap(), g);
        assert_eq!(g.get("smp16c4_sharing", "LU"), Some(&[1, 2, 3, 4][..]));
        assert_eq!(g.get("smp16c4_sharing", "Ocean"), None);
    }

    #[test]
    fn malformed_entries_are_errors_not_panics() {
        assert!(Golden::parse("[]").is_err());
        assert!(Golden::parse("{\"w\": 3}").is_err());
        assert!(Golden::parse("{\"w\": {\"r\": [1, -2]}}").is_err());
    }
}
