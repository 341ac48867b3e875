//! Text rendering of paper-style tables and figure series.
//!
//! The experiment binaries in `shasta-bench` print their results through
//! [`Table`], which right-aligns numeric columns the way the paper's tables
//! read, and through small helpers for normalized stacked-bar data
//! (Figures 4–8 are rendered as rows of percentages).

use std::fmt;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use shasta_stats::Table;
///
/// let mut t = Table::new(vec!["app", "seq time", "overhead"]);
/// t.row(vec!["LU".to_string(), "27.06s".to_string(), "21.3%".to_string()]);
/// t.row(vec!["Ocean".to_string(), "11.07s".to_string(), "18.7%".to_string()]);
/// let s = t.to_string();
/// assert!(s.contains("LU"));
/// assert_eq!(s.lines().count(), 4); // header + rule + 2 rows
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row. Short rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are headers.
    pub fn row(&mut self, mut cells: Vec<String>) -> &mut Self {
        assert!(
            cells.len() <= self.headers.len(),
            "row has {} cells but table has {} columns",
            cells.len(),
            self.headers.len()
        );
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        // First column left-aligned (names), the rest right-aligned (numbers).
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                if i == 0 {
                    write!(f, "{:<w$}", cell, w = widths[i])?;
                } else {
                    write!(f, "{:>w$}", cell, w = widths[i])?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(rule_len))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `"21.3%"`.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats a cycle count as seconds at the given clock rate, e.g. `"27.06s"`.
pub fn cycles_as_secs(cycles: u64, cpu_mhz: u64) -> String {
    format!("{:.2}s", cycles as f64 / (cpu_mhz as f64 * 1e6))
}

/// Formats a speedup with two decimals, e.g. `"8.80"`.
pub fn speedup(seq_cycles: u64, par_cycles: u64) -> String {
    if par_cycles == 0 {
        "inf".to_string()
    } else {
        format!("{:.2}", seq_cycles as f64 / par_cycles as f64)
    }
}

/// One allocation site's row in the granularity-advisor table (the
/// paper-style companion to Table 2's per-application block-size hints).
///
/// The profiler in `shasta-obs` rolls per-block sharing histories up to the
/// `malloc` site; this struct is the plain-data form the report layer
/// renders, keeping `shasta-stats` free of any dependency on the profiler.
#[derive(Clone, Debug)]
pub struct AdvisorRow {
    /// The allocation's site label (e.g. `"lu.matrix"`).
    pub label: String,
    /// Configured coherence-block size in bytes.
    pub block_bytes: u64,
    /// Blocks of the allocation that saw any protocol activity.
    pub blocks_touched: u64,
    /// Dominant sharing pattern label (e.g. `"false-shared"`).
    pub pattern: String,
    /// Read misses attributed to the site.
    pub read_misses: u64,
    /// Write (and upgrade) misses attributed to the site.
    pub write_misses: u64,
    /// Block downgrades attributed to the site (SMP-Shasta; 0 elsewhere).
    pub downgrades: u64,
    /// Mean downgrade messages per downgrade (Figure 8's per-site
    /// analogue), rendered with one decimal.
    pub downgrade_fanout: f64,
    /// Protocol payload bytes moved per byte anyone touched (transfer
    /// waste), rendered with one decimal.
    pub bytes_per_useful: f64,
    /// Advisor verdict (e.g. `"split to 64 B"` or `"keep"`).
    pub recommendation: String,
}

/// Renders advisor rows as an aligned table:
///
/// `site  block B  blocks  pattern  rd-miss  wr-miss  dgrades  fan-out
/// B/useful  advice`.
pub fn advisor_table(rows: &[AdvisorRow]) -> Table {
    let mut t = Table::new(vec![
        "site", "block B", "blocks", "pattern", "rd-miss", "wr-miss", "dgrades", "fan-out",
        "B/useful", "advice",
    ]);
    for r in rows {
        t.row(vec![
            r.label.clone(),
            r.block_bytes.to_string(),
            r.blocks_touched.to_string(),
            r.pattern.clone(),
            r.read_misses.to_string(),
            r.write_misses.to_string(),
            r.downgrades.to_string(),
            format!("{:.1}", r.downgrade_fanout),
            format!("{:.1}", r.bytes_per_useful),
            r.recommendation.clone(),
        ]);
    }
    t
}

/// Plain-data summary of one run's critical-path analysis, ready to
/// render. Computed by the causal analyzer in `shasta-obs`
/// (`critpath::CritPath::report`); this layer only formats, keeping
/// `shasta-stats` free of any dependency on the event layer — the same
/// split as [`AdvisorRow`].
#[derive(Clone, Debug)]
pub struct CritReport {
    /// The run's `elapsed_cycles`; critical-path segments tile it exactly.
    pub elapsed_cycles: u64,
    /// Number of segments on the path.
    pub segments: usize,
    /// Wire hops on the path (send → arrival crossings).
    pub wire_hops: usize,
    /// Always 0 since the critical path follows recorded edges, and not
    /// rendered; kept because `benchmark/` builds this struct (ROADMAP item
    /// 1(e) retires it).
    pub fallback_segments: usize,
    /// Always 0 and not rendered, as `fallback_segments`.
    pub fallback_cycles: u64,
    /// `(category label, cycles, segment count)` in fixed category order
    /// (compute, protocol, wire, queueing, sync).
    pub by_cat: Vec<(&'static str, u64, usize)>,
    /// `(allocation-site label, cycles)` for attributable segments,
    /// descending cycles then label.
    pub by_site: Vec<(String, u64)>,
    /// `(node-pair label, cycles)` for wire segments, descending cycles
    /// then label.
    pub by_pair: Vec<(String, u64)>,
}

/// Renders a critical-path summary as deterministic text with a versioned
/// header, in the style of the `# shasta metrics v1` exposition: category
/// tiling first (shares of `elapsed_cycles`), then per-site and
/// per-node-pair attribution.
pub fn critical_path_report(r: &CritReport) -> String {
    use fmt::Write as _;
    let mut out = String::from("# shasta critical-path v2\n");
    let _ = writeln!(out, "elapsed_cycles {}", r.elapsed_cycles);
    let _ = writeln!(out, "segments {} wire_hops {}", r.segments, r.wire_hops);
    let mut cats = Table::new(vec!["category", "cycles", "share", "segments"]);
    let total: u64 = r.by_cat.iter().map(|&(_, c, _)| c).sum();
    for &(label, cycles, count) in &r.by_cat {
        let share =
            if r.elapsed_cycles == 0 { 0.0 } else { cycles as f64 / r.elapsed_cycles as f64 };
        cats.row(vec![label.to_string(), cycles.to_string(), pct(share), count.to_string()]);
    }
    let _ = write!(out, "{cats}");
    let _ = writeln!(
        out,
        "tiling {} ({} of {} cycles)",
        if total == r.elapsed_cycles { "exact" } else { "BROKEN" },
        total,
        r.elapsed_cycles
    );
    if !r.by_site.is_empty() {
        let _ = writeln!(out, "\nper-site attribution:");
        let mut t = Table::new(vec!["site", "cycles", "share"]);
        for (site, cycles) in &r.by_site {
            let share =
                if r.elapsed_cycles == 0 { 0.0 } else { *cycles as f64 / r.elapsed_cycles as f64 };
            t.row(vec![site.clone(), cycles.to_string(), pct(share)]);
        }
        let _ = write!(out, "{t}");
    }
    if !r.by_pair.is_empty() {
        let _ = writeln!(out, "\nwire time by node pair:");
        let mut t = Table::new(vec!["nodes", "cycles", "share"]);
        for (pair, cycles) in &r.by_pair {
            let share =
                if r.elapsed_cycles == 0 { 0.0 } else { *cycles as f64 / r.elapsed_cycles as f64 };
            t.row(vec![pair.clone(), cycles.to_string(), pct(share)]);
        }
        let _ = write!(out, "{t}");
    }
    out
}

/// Renders a normalized stacked bar as `label: total% [seg1 seg2 …]`, the
/// textual analogue of one bar in Figures 4–7.
pub fn stacked_bar(label: &str, segments: &[(&str, f64)]) -> String {
    use fmt::Write as _;
    let total: f64 = segments.iter().map(|(_, v)| v).sum();
    let mut out = String::new();
    let _ = write!(out, "{label:<10} {:>6.1}% |", total * 100.0);
    for (name, v) in segments {
        let _ = write!(out, " {name}={:.1}%", v * 100.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "12345".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width for the numeric column (right aligned).
        assert!(lines[2].ends_with("    1"));
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["x".into()]);
        assert_eq!(t.len(), 1);
        let s = t.to_string();
        assert!(s.contains('x'));
    }

    #[test]
    #[should_panic(expected = "row has 3 cells")]
    fn long_rows_panic() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.213), "21.3%");
        assert_eq!(cycles_as_secs(300_000_000, 300), "1.00s");
        assert_eq!(speedup(100, 25), "4.00");
        assert_eq!(speedup(100, 0), "inf");
    }

    #[test]
    fn advisor_table_renders_rows() {
        let rows = vec![AdvisorRow {
            label: "lu.matrix".into(),
            block_bytes: 256,
            blocks_touched: 12,
            pattern: "false-shared".into(),
            read_misses: 40,
            write_misses: 80,
            downgrades: 12,
            downgrade_fanout: 1.5,
            bytes_per_useful: 3.2,
            recommendation: "split to 64 B".into(),
        }];
        let s = advisor_table(&rows).to_string();
        assert!(s.contains("lu.matrix"));
        assert!(s.contains("false-shared"));
        assert!(s.contains("split to 64 B"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn critical_path_report_is_versioned_and_checks_tiling() {
        let r = CritReport {
            elapsed_cycles: 100,
            segments: 3,
            wire_hops: 1,
            fallback_segments: 0,
            fallback_cycles: 0,
            by_cat: vec![("compute", 60, 1), ("wire", 25, 1), ("queueing", 15, 1)],
            by_site: vec![("lu.matrix".into(), 25)],
            by_pair: vec![("n0->n1".into(), 25)],
        };
        let s = critical_path_report(&r);
        assert!(s.starts_with("# shasta critical-path v2\n"));
        assert!(s.contains("elapsed_cycles 100\nsegments 3 wire_hops 1\n"));
        assert!(s.contains("tiling exact (100 of 100 cycles)"));
        assert!(s.contains("lu.matrix"));
        assert!(s.contains("n0->n1"));
        let broken = CritReport { by_cat: vec![("compute", 60, 1)], ..r };
        assert!(critical_path_report(&broken).contains("tiling BROKEN (60 of 100 cycles)"));
    }

    #[test]
    fn stacked_bar_renders_segments() {
        let s = stacked_bar("C4", &[("task", 0.5), ("read", 0.25)]);
        assert!(s.contains("task=50.0%"));
        assert!(s.contains("read=25.0%"));
        assert!(s.contains("75.0%"));
    }
}
