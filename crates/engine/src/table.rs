//! The tabular exhibit format scenarios produce: header plus string
//! rows, renderable as aligned text, CSV, or a JSON object.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::Path;

/// A rendered exhibit: header row plus data rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    /// Exhibit identifier, e.g. `"tab5"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Table {
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }

    /// Renders as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// CSV form (RFC 4180): a cell containing `,`, `"`, CR or LF is
    /// quoted, with its quotes doubled; every other cell is written
    /// verbatim.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(&self.rows) {
            let cells: Vec<Cow<'_, str>> = row.iter().map(|cell| csv_cell(cell)).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }

    /// JSON object form: `{"id", "title", "header", "rows"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"id\":{},\"title\":{},\"header\":[{}],\"rows\":[",
            json_string(&self.id),
            json_string(&self.title),
            self.header
                .iter()
                .map(|h| json_string(h))
                .collect::<Vec<_>>()
                .join(",")
        ));
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(
                &row.iter()
                    .map(|c| json_string(c))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// One CSV cell, quoted only when its content requires it.
fn csv_cell(cell: &str) -> Cow<'_, str> {
    if cell.contains([',', '"', '\r', '\n']) {
        Cow::Owned(format!("\"{}\"", cell.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(cell)
    }
}

/// Escapes and quotes a string for JSON output.
pub fn json_string(s: &str) -> String {
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes a table's CSV under `dir/<id>.csv`.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_csv(table: &Table, dir: &Path) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.csv", table.id));
    std::fs::write(&path, table.to_csv())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t1", "Sample", &["a", "b"]);
        t.push(vec!["1".into(), "x\"y".into()]);
        t
    }

    #[test]
    fn render_and_csv() {
        let mut t = sample();
        t.push(vec!["2".into(), "two\nlines".into()]);
        assert!(t.render().contains("== t1 — Sample =="));
        assert_eq!(t.to_csv(), "a,b\n1,\"x\"\"y\"\n2,\"two\nlines\"\n");
    }

    #[test]
    fn json_escapes_quotes() {
        let j = sample().to_json();
        assert!(j.contains("\"x\\\"y\""), "{j}");
        assert!(j.starts_with("{\"id\":\"t1\""));
    }
}
