//! The figures' one table type: each column is declared once, and the text
//! table and the CSV render from the same rows.

use rocket_core::study::{csv_field, render_table};

/// How a column shows its values, in the text table and in the CSV. A
/// float prints `{:.4}` in the CSV under every formatter but
/// [`Fmt::Plain`] and [`Fmt::Gb`]; every other value prints as is there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// As is (`Display`) in both renderings.
    Plain,
    /// Seconds: [`fmt_secs`] in the text (`3.6 min`).
    Secs,
    /// A fraction: `86.3%` in the text, `0.8627` in the CSV.
    Pct,
    /// A percentage already in points: `86.3%` in the text, `86.2700` in
    /// the CSV.
    Points,
    /// `{:.N}` in the text.
    Fixed(usize),
    /// `{:.N}` plus a unit in the text: speedups (`1.0x`), wall times.
    Suffix(usize, &'static str),
    /// Gigabytes: `20 GB` in the text, `20` in the CSV.
    Gb,
    /// A byte count: [`fmt_bytes`] in the text (`32.9 KB`).
    Bytes,
    /// A flag: `on`/`off` in the text, `true`/`false` in the CSV.
    OnOff,
}

/// A value a [`Table`] cell holds.
pub trait Cell {
    /// The value under `fmt`, as `(text, csv)`.
    fn render(&self, fmt: Fmt) -> (String, String);
}

impl Cell for f64 {
    fn render(&self, fmt: Fmt) -> (String, String) {
        let x = *self;
        let text = match fmt {
            Fmt::Secs => fmt_secs(x),
            Fmt::Pct => format!("{:.1}%", x * 100.0),
            Fmt::Points => format!("{x:.1}%"),
            Fmt::Fixed(d) => format!("{x:.d$}"),
            Fmt::Suffix(d, unit) => format!("{x:.d$}{unit}"),
            Fmt::Gb => format!("{x} GB"),
            Fmt::Plain | Fmt::Bytes | Fmt::OnOff => x.to_string(),
        };
        let csv = match fmt {
            Fmt::Plain | Fmt::Gb => x.to_string(),
            _ => format!("{x:.4}"),
        };
        (text, csv)
    }
}

impl Cell for u64 {
    fn render(&self, fmt: Fmt) -> (String, String) {
        let text = match fmt {
            Fmt::Bytes => fmt_bytes(*self),
            _ => self.to_string(),
        };
        (text, self.to_string())
    }
}

impl Cell for bool {
    fn render(&self, fmt: Fmt) -> (String, String) {
        let text = match (fmt, self) {
            (Fmt::OnOff, true) => "on".into(),
            (Fmt::OnOff, false) => "off".into(),
            _ => self.to_string(),
        };
        (text, self.to_string())
    }
}

/// `Cell` for values shown as is under every formatter.
macro_rules! plain_cells {
    ($($t:ty),*) => {$(
        impl Cell for $t {
            fn render(&self, _: Fmt) -> (String, String) {
                (self.to_string(), self.to_string())
            }
        }
    )*};
}

plain_cells!(usize, &str, String);

/// A table row: a tuple of cells, one per column.
pub trait Row {
    /// The row's cells in column order.
    fn cells(&self) -> Vec<&dyn Cell>;
}

/// `Row` for every tuple of two to eight cells.
macro_rules! tuple_rows {
    ($v:ident) => {};
    ($v:ident, $($vs:ident),+) => {
        impl<$v: Cell, $($vs: Cell),+> Row for ($v, $($vs,)+) {
            #[allow(non_snake_case)]
            fn cells(&self) -> Vec<&dyn Cell> {
                let ($v, $($vs,)+) = self;
                vec![$v, $($vs),+]
            }
        }
        tuple_rows!($($vs),+);
    };
}

tuple_rows!(A, B, C, D, E, F, G, H);

/// One column: its CSV header, its text label and its formatter.
pub type Col = (&'static str, &'static str, Fmt);

/// A figure's table: rows of values under declared columns, rendered as
/// an aligned text table ([`Table::render`]) and as CSV
/// ([`Table::to_csv`]).
#[derive(Debug, Default)]
pub struct Table {
    cols: Vec<Col>,
    text: Vec<Vec<String>>,
    csv: Vec<Vec<String>>,
}

impl Table {
    /// An empty table over `cols`.
    pub fn new(cols: &[Col]) -> Self {
        Self {
            cols: cols.to_vec(),
            ..Self::default()
        }
    }

    /// Appends a row (must match the column count).
    pub fn row(&mut self, row: impl Row) -> &mut Self {
        let cells = row.cells();
        assert_eq!(cells.len(), self.cols.len(), "row width mismatch");
        let fmts = self.cols.iter().map(|c| c.2);
        let (text, csv) = cells.iter().zip(fmts).map(|(c, f)| c.render(f)).unzip();
        self.text.push(text);
        self.csv.push(csv);
        self
    }

    /// Renders the text labels and values with aligned columns (the
    /// renderer `StudyReport::table` uses too, so figure tables and study
    /// tables look alike).
    pub fn render(&self) -> String {
        let labels: Vec<String> = self.cols.iter().map(|c| c.1.to_string()).collect();
        render_table(&labels, &self.text)
    }

    /// Renders the CSV headers and values.
    pub fn to_csv(&self) -> String {
        let header: Vec<String> = self.cols.iter().map(|c| c.0.to_string()).collect();
        let mut out = String::new();
        for row in std::iter::once(&header).chain(&self.csv) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&[("name", "name", Fmt::Plain), ("v", "value", Fmt::Plain)]);
        t.row(("a", 1u64));
        t.row(("long-name", 200u64));
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("value"));
        assert!(lines[2].ends_with("1"));
        assert_eq!(t.to_csv(), "name,v\na,1\nlong-name,200\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&[("a", "a", Fmt::Plain), ("b", "b", Fmt::Plain)]);
        t.row(("only-one", "and", "three"));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(&[("k", "k", Fmt::Plain), ("v", "v", Fmt::Plain)]);
        t.row(("a,b", "plain"));
        t.row(("two\nlines", "cr\r"));
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\",plain"));
        // A line break inside a field must not split its row.
        assert!(csv.contains("\"two\nlines\",\"cr\r\""));
    }

    #[test]
    fn one_formatter_gives_both_renderings() {
        let cases: [(Fmt, &dyn Cell, &str, &str); 10] = [
            (Fmt::Plain, &0.5, "0.5", "0.5"),
            (Fmt::Secs, &216.0, "3.6 min", "216.0000"),
            (Fmt::Pct, &0.86271, "86.3%", "0.8627"),
            (Fmt::Points, &86.271, "86.3%", "86.2710"),
            (Fmt::Fixed(2), &1.23456, "1.23", "1.2346"),
            (Fmt::Suffix(1, "x"), &1.0, "1.0x", "1.0000"),
            (Fmt::Gb, &20.0, "20 GB", "20"),
            (Fmt::Bytes, &32_900u64, "32.9 KB", "32900"),
            (Fmt::OnOff, &true, "on", "true"),
            (Fmt::Plain, &7usize, "7", "7"),
        ];
        for (fmt, cell, text, csv) in cases {
            assert_eq!(cell.render(fmt), (text.into(), csv.into()), "{fmt:?}");
        }
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
}
