//! Experiment output: aligned text tables plus JSON artifacts.
//!
//! JSON is emitted by hand (string/array escaping only — the report
//! shape is flat), keeping the harness free of external serialization
//! dependencies.

use std::fmt::Write as _;
use std::path::Path;

/// One experiment's printable + serializable result.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id, e.g. "table4" or "fig13".
    pub id: String,
    /// Human title (paper artifact name).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (stringified cells, first cell is the row label).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes: what to compare against the paper.
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<S: ToString>(&mut self, cells: &[S]) {
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"id\": {},", json_string(&self.id));
        let _ = writeln!(out, "  \"title\": {},", json_string(&self.title));
        let _ = writeln!(out, "  \"columns\": {},", json_string_array(&self.columns));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(out, "    {}", json_string_array(row));
        }
        out.push_str(if self.rows.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let _ = writeln!(out, "  \"notes\": {}", json_string_array(&self.notes));
        out.push_str("}\n");
        out
    }

    /// Writes the report as JSON under `dir/<id>.json`.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(path, self.to_json())
    }
}

/// Escapes a string into a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a flat string array on a single line.
fn json_string_array<S: AsRef<str>>(items: &[S]) -> String {
    let body: Vec<String> = items.iter().map(|s| json_string(s.as_ref())).collect();
    format!("[{}]", body.join(", "))
}

/// Formats nanoseconds as milliseconds with 3 decimals.
pub fn ms(ns: f64) -> String {
    format!("{:.3}", ns / 1e6)
}

/// Formats a fraction as a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("t", "Title", &["name", "value"]);
        r.row(&["short", "1"]);
        r.row(&["a-much-longer-name", "23456"]);
        let s = r.render();
        assert!(s.contains("t — Title"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn json_roundtrip() {
        let mut r = Report::new("x", "X", &["a"]);
        r.row(&["1"]);
        r.note("hello");
        let dir = std::env::temp_dir().join("smartstore_report_test");
        r.write_json(&dir).unwrap();
        let body = std::fs::read_to_string(dir.join("x.json")).unwrap();
        assert!(body.contains("\"hello\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(1_500_000.0), "1.500");
        assert_eq!(pct(0.873), "87.3");
    }
}
