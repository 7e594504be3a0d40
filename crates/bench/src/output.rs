//! Rendering and persistence for experiment results: aligned text tables,
//! simple log-scale ASCII charts, and JSON files under `results/`.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Renders a log-scale ASCII bar chart (one bar per `(label, value)`),
/// used for Figure 2's exponential series and Figures 5–6's timings.
pub fn log_bars(points: &[(String, f64)], unit: &str) -> String {
    let mut out = String::new();
    let max = points.iter().map(|&(_, v)| v).fold(1.0f64, f64::max);
    let max_log = max.log10().max(1.0);
    for (label, v) in points {
        let bar = if *v > 0.0 {
            let frac = (v.max(1e-9).log10().max(0.0) / max_log).clamp(0.0, 1.0);
            "#".repeat(1 + (frac * 40.0) as usize)
        } else {
            String::new()
        };
        let _ = writeln!(out, "{label:>18}  {bar:<42} {v:.3} {unit}");
    }
    out
}

/// Directory experiment artifacts are written to.
pub fn results_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    // Walk up to the workspace root (where Cargo.toml with [workspace] is).
    loop {
        if dir.join("Cargo.toml").exists()
            && fs::read_to_string(dir.join("Cargo.toml"))
                .map(|s| s.contains("[workspace]"))
                .unwrap_or(false)
        {
            return dir.join("results");
        }
        if !dir.pop() {
            return Path::new("results").to_path_buf();
        }
    }
}

/// Writes both a text rendering and a JSON value for an experiment.
pub fn persist(name: &str, text: &str, json: &crate::json::Json) {
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_err() {
        return;
    }
    let _ = fs::write(dir.join(format!("{name}.txt")), text);
    let _ = fs::write(dir.join(format!("{name}.json")), json.to_string_pretty());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = TextTable::new(["a", "bbb"]);
        t.row(["1", "2"]);
        t.row(["333", "4"]);
        let r = t.render();
        assert!(r.contains("  a  bbb"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    fn row_padded_to_header() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["1"]);
        assert_eq!(t.rows[0].len(), 3);
    }

    #[test]
    fn bars_scale_logarithmically() {
        let pts = vec![("ten".to_string(), 10.0), ("thousand".to_string(), 1000.0)];
        let s = log_bars(&pts, "execs");
        let ten_bar = s.lines().next().unwrap().matches('#').count();
        let k_bar = s.lines().nth(1).unwrap().matches('#').count();
        assert!(k_bar > ten_bar);
    }
}
