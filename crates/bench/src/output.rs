//! Table/CSV/JSON output helpers shared by the experiment binaries.
//!
//! The paper's artifact writes JSON run logs into `strong-scaling-logs-*`
//! directories and summarizes them into `speedup_ic.csv` / `speedup_lt.csv`;
//! the binaries here mirror that interface (plus a plain-text table printed
//! to stdout so the result is readable without post-processing).

use crate::runner::BenchMeasurement;
use std::io::Write;
use std::path::Path;

/// A plain-text table with aligned columns.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append one row (must have the same number of cells as the header).
    ///
    /// # Panics
    /// Panics if the cell count does not match the header.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width must match header");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let escape = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV form to `path`, creating parent directories.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }
}

/// Format seconds with three significant decimals.
pub fn fmt_seconds(s: f64) -> String {
    format!("{s:.3}")
}

/// Format a speedup/ratio with two decimals and an `x` suffix.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

/// Format a fraction as a percentage with one decimal.
pub fn fmt_percent(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

/// Write a batch of measurements as a JSON log (the artifact's per-run log
/// format), creating parent directories.
pub fn write_json_log(
    path: impl AsRef<Path>,
    measurements: &[BenchMeasurement],
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let json = serde_json::to_string_pretty(measurements).expect("measurements are serializable");
    std::fs::write(path, json)
}

/// Directory the experiment binaries drop their CSV/JSON outputs into
/// (`results/` next to the workspace root, overridable with
/// `IMM_RESULTS_DIR`).
pub fn results_dir() -> std::path::PathBuf {
    std::env::var_os("IMM_RESULTS_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(&["Graph", "Speedup"]);
        t.add_row(vec!["com-Amazon".into(), "5.9x".into()]);
        t.add_row(vec!["lj".into(), "12.10x".into()]);
        let s = t.render();
        assert!(s.contains("Graph"));
        assert!(s.contains("com-Amazon"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines have the same width as or less than the header line.
        assert!(lines[2].starts_with("com-Amazon"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = TextTable::new(&["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(&["name", "note"]);
        t.add_row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_seconds(1.23456), "1.235");
        assert_eq!(fmt_ratio(5.903), "5.90x");
        assert_eq!(fmt_percent(0.385), "38.5%");
    }

    #[test]
    fn csv_and_json_round_trip_to_disk() {
        let dir = std::env::temp_dir().join("imm_bench_output_test");
        let csv_path = dir.join("t.csv");
        let mut t = TextTable::new(&["x"]);
        t.add_row(vec!["1".into()]);
        t.write_csv(&csv_path).unwrap();
        assert!(std::fs::read_to_string(&csv_path).unwrap().contains('1'));

        let json_path = dir.join("log.json");
        write_json_log(&json_path, &[]).unwrap();
        assert_eq!(std::fs::read_to_string(&json_path).unwrap().trim(), "[]");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn results_dir_honours_env_override() {
        // Note: avoid mutating the real environment; just check the default.
        let d = results_dir();
        assert!(!d.as_os_str().is_empty());
    }
}
