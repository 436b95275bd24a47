//! Tiny result-table type: CSV output plus markdown rendering, hand-rolled
//! to avoid a serialization dependency (see DESIGN.md §7).

use erpd_edge::Strategy;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A named table of experiment results.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment id, e.g. `fig10a_left_turn`; also the CSV file stem.
    pub name: String,
    /// Column names.
    pub header: Vec<String>,
    /// Rows of stringified values.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Table {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub(crate) fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table as CSV.
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(|h| escape(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.name);
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Writes the table as `<dir>/<name>.csv`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("{}.csv", self.name)), self.to_csv())
    }
}

/// Formats a float with 3 decimal places for table cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal place for table cells.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// A strategy's name in table cells, as the paper's figures label it.
pub(crate) fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Single => "Single",
        Strategy::Emp => "EMP",
        Strategy::Ours => "Ours",
        Strategy::Unlimited => "Unlimited",
        Strategy::V2v => "V2V",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into(), "x,y".into()]);
        t
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = sample().to_csv();
        assert!(csv.contains("a,b"));
        assert!(csv.contains("\"x,y\""));
    }

    #[test]
    fn markdown_has_header_rule() {
        let md = sample().to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn write_round_trip() {
        let dir = std::env::temp_dir().join("erpd_table_test");
        sample().write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert!(content.starts_with("a,b"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
    }
}
