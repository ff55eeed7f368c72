//! Plain-text tables and CSV output for the experiment harness.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple fixed-width table printer matching the paper's tabular style.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// The rows as CSV (header included).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes `content` to `results/<name>` (creating the directory) and
/// returns that path ([`results_file`]).
pub fn write_csv(name: &str, content: &str) -> std::io::Result<PathBuf> {
    let path = results_file(name)?;
    fs::write(&path, content)?;
    Ok(path)
}

/// Resolves (and creates) `results/<name>` under the workspace root when
/// run inside it, else under the current directory. The path is relative
/// to the current directory, so what a run prints does not depend on where
/// the checkout lives.
pub(crate) fn results_file(name: &str) -> std::io::Result<PathBuf> {
    let cwd = std::env::current_dir()?;
    let is_root = |dir: &Path| dir.join("Cargo.toml").exists() && dir.join("crates").exists();
    let depth = cwd.ancestors().position(is_root).unwrap_or(0);
    let dir: PathBuf = (0..depth).map(|_| "..").chain(["results"]).collect();
    fs::create_dir_all(&dir)?;
    Ok(dir.join(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["n", "similarity"]);
        t.row(vec!["5", "0.90"]);
        t.row(vec!["25", "0.75"]);
        let s = t.render();
        assert!(s.contains(" n  similarity"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["a,b"]);
        assert_eq!(t.to_csv(), "x\n\"a,b\"\n");
    }
}
