//! The result of one workload, and its one-line JSON form.
//!
//! The child process prints the line with `extra` members (what the parent
//! needs for `--selfcheck` and the full report); the parent re-prints it
//! without them, which is exactly the shape the benchmark contract fixes:
//! `correct`, `attempted`, `failed`, `metrics`.

use std::fmt::Write as _;

use shasta_obs::chrome::{parse, Json};

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Every run's outputs checked out (`failed == 0`).
    pub correct: bool,
    /// Machine runs performed and checked (timed reps plus verification).
    pub attempted: u64,
    /// Runs whose check failed; each is listed in `notes`.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
    /// Simulated cycles of one pass over the workload's runs (exact).
    pub sim_cycles: u64,
    /// Machine runs (sweep: schedules) in one pass (exact).
    pub runs_per_pass: u64,
    /// Timed passes the medians were taken over.
    pub reps: u64,
    /// `wall_ms` as the host's wall clock read it, before normalisation.
    pub raw_wall_ms: f64,
    /// Median reading of the handoff probe over the timed regions.
    pub handoff_ns: f64,
    /// One line per failed check, naming the run.
    pub notes: Vec<String>,
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

impl Outcome {
    /// The contract's result line; with `extra`, also `sim_cycles`,
    /// `runs_per_pass`, `reps`, `raw_wall_ms`, `handoff_ns` and `notes`.
    pub fn to_line(&self, extra: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        if extra {
            let notes: Vec<String> =
                self.notes.iter().map(|n| format!("\"{}\"", escape(n))).collect();
            let _ = write!(
                out,
                ", \"sim_cycles\": {}, \"runs_per_pass\": {}, \"reps\": {}, \
                 \"raw_wall_ms\": {}, \"handoff_ns\": {}, \"notes\": [{}]",
                self.sim_cycles,
                self.runs_per_pass,
                self.reps,
                self.raw_wall_ms,
                self.handoff_ns,
                notes.join(", ")
            );
        }
        out.push('}');
        out
    }

    /// Parses a line written by [`Outcome::to_line`] (with or without the
    /// extra members).
    pub fn from_line(line: &str) -> Result<Outcome, String> {
        let doc = parse(line)?;
        let int = |k: &str| doc.get(k).and_then(Json::as_u64);
        let num = |k: &str| match doc.get(k) {
            Some(Json::Num(v)) => *v,
            _ => 0.0,
        };
        let correct = match doc.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("result line has no boolean `correct`".to_string()),
        };
        let Some(Json::Obj(members)) = doc.get("metrics") else {
            return Err("result line has no `metrics` object".to_string());
        };
        let mut metrics = Vec::with_capacity(members.len());
        for (name, m) in members {
            match (m.get("value"), m.get("unit").and_then(Json::as_str)) {
                (Some(Json::Num(v)), Some(unit)) => {
                    metrics.push((name.clone(), *v, unit.to_string()));
                }
                _ => return Err(format!("metric {name:?} lacks a numeric value or a unit")),
            }
        }
        Ok(Outcome {
            correct,
            attempted: int("attempted").ok_or("result line has no `attempted`")?,
            failed: int("failed").ok_or("result line has no `failed`")?,
            metrics,
            sim_cycles: int("sim_cycles").unwrap_or(0),
            runs_per_pass: int("runs_per_pass").unwrap_or(0),
            reps: int("reps").unwrap_or(0),
            raw_wall_ms: num("raw_wall_ms"),
            handoff_ns: num("handoff_ns"),
            notes: doc
                .get("notes")
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(|n| n.as_str().map(str::to_string)).collect())
                .unwrap_or_default(),
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trips_with_and_without_extras() {
        let o = Outcome {
            correct: false,
            attempted: 12,
            failed: 1,
            metrics: vec![
                ("wall_ms".to_string(), 1234.567890123, "ms".to_string()),
                ("setup_s".to_string(), 0.0123, "s".to_string()),
            ],
            sim_cycles: 987_654_321,
            runs_per_pass: 4,
            reps: 3,
            raw_wall_ms: 1300.25,
            handoff_ns: 5123.5,
            notes: vec!["LU: \"cycles\" 1 != 2".to_string()],
        };
        assert_eq!(Outcome::from_line(&o.to_line(true)).unwrap(), o);
        let bare = Outcome::from_line(&o.to_line(false)).unwrap();
        assert_eq!(bare.metrics, o.metrics);
        assert_eq!(
            (bare.sim_cycles, bare.runs_per_pass, bare.reps, bare.notes.len()),
            (0, 0, 0, 0)
        );
        let doc = parse(&o.to_line(false)).unwrap();
        let Json::Obj(members) = doc else { panic!("not an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
