//! Report formatting and CSV output helpers.

use std::path::{Path, PathBuf};

use rocket_core::study::csv_field;

/// A simple fixed-width text table builder for terminal reports.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns (delegates to the driver API's shared
    /// renderer, so experiment tables and study tables look alike).
    pub fn render(&self) -> String {
        rocket_core::study::render_table(&self.header, &self.rows)
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(&self.rows) {
            let fields: Vec<_> = row.iter().map(|c| csv_field(c)).collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats seconds compactly (ms / s / min / h).
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2} s")
    } else if s < 7200.0 {
        format!("{:.1} min", s / 60.0)
    } else {
        format!("{:.2} h", s / 3600.0)
    }
}

/// Formats bytes compactly.
pub fn fmt_bytes(b: u64) -> String {
    const KB: f64 = 1e3;
    const MB: f64 = 1e6;
    const GB: f64 = 1e9;
    let b = b as f64;
    if b >= GB {
        format!("{:.1} GB", b / GB)
    } else if b >= MB {
        format!("{:.1} MB", b / MB)
    } else if b >= KB {
        format!("{:.1} KB", b / KB)
    } else {
        format!("{b:.0} B")
    }
}

/// Writes `content` under the results directory, creating it as needed;
/// returns the path.
pub fn write_result(dir: &Path, name: &str, content: &str) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("write result file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "200".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(&["k", "v"]);
        t.row(vec!["a,b".into(), "plain".into()]);
        t.row(vec!["two\nlines".into(), "cr\r".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\",plain"));
        // A line break inside a field must not split its row.
        assert!(csv.contains("\"two\nlines\",\"cr\r\""));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(0.0011), "1.1 ms");
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(600.0), "10.0 min");
        assert_eq!(fmt_secs(14400.0), "4.00 h");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(38_100_000), "38.1 MB");
        assert_eq!(fmt_bytes(19_400_000_000), "19.4 GB");
    }

    #[test]
    fn write_result_creates_file() {
        let dir = std::env::temp_dir().join(format!("rocket-results-{}", std::process::id()));
        let p = write_result(&dir, "x.txt", "hello");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
