//! Diagnostics: stable codes, deterministic ordering, human and JSON
//! rendering.

/// One finding. `suppressed` findings are reported (for audit) but do
/// not fail the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `RL-D001`.
    pub code: &'static str,
    /// Rule family: `determinism`, `panic-path` or `wire-drift`.
    pub rule: &'static str,
    /// Path relative to the lint root.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// Excused by a `lint:allow` marker or an `allow_files` entry.
    pub suppressed: bool,
}

/// Sorts diagnostics into the canonical (path, line, code) order.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.code).cmp(&(b.path.as_str(), b.line, b.code)));
}

/// Renders one diagnostic for terminals.
pub fn render_human(d: &Diagnostic) -> String {
    let mark = if d.suppressed { " (suppressed)" } else { "" };
    format!(
        "{}: {}:{}: [{}] {}{}",
        d.code, d.path, d.line, d.rule, d.message, mark
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Version of the JSON report format. Bumped on any structural change
/// to `render_json` output so downstream tooling (the CI artifact
/// check, the perf-log parser's sibling) can detect drift instead of
/// misparsing. History: 1 = PR 6 original (no schema field), 2 = this
/// field added.
pub const SCHEMA: u32 = 2;

/// Renders the full report as a stable JSON document.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let unsuppressed = diags.iter().filter(|d| !d.suppressed).count();
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": {SCHEMA},\n"));
    out.push_str(&format!("  \"total\": {},\n", diags.len()));
    out.push_str(&format!("  \"unsuppressed\": {unsuppressed},\n"));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"code\": \"{}\", ", json_escape(d.code)));
        out.push_str(&format!("\"rule\": \"{}\", ", json_escape(d.rule)));
        out.push_str(&format!("\"path\": \"{}\", ", json_escape(&d.path)));
        out.push_str(&format!("\"line\": {}, ", d.line));
        out.push_str(&format!("\"suppressed\": {}, ", d.suppressed));
        out.push_str(&format!("\"message\": \"{}\"", json_escape(&d.message)));
        out.push('}');
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(code: &'static str, path: &str, line: u32) -> Diagnostic {
        Diagnostic {
            code,
            rule: "determinism",
            path: path.into(),
            line,
            message: "msg with \"quotes\"".into(),
            suppressed: false,
        }
    }

    #[test]
    fn sort_is_path_line_code() {
        let mut v = vec![
            d("RL-D002", "b.rs", 1),
            d("RL-D001", "a.rs", 9),
            d("RL-D001", "a.rs", 2),
        ];
        sort(&mut v);
        assert_eq!(
            v.iter()
                .map(|x| (x.path.clone(), x.line))
                .collect::<Vec<_>>(),
            [
                ("a.rs".to_string(), 2),
                ("a.rs".to_string(), 9),
                ("b.rs".to_string(), 1)
            ]
        );
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut one = d("RL-D001", "a.rs", 1);
        one.suppressed = true;
        let json = render_json(&[one, d("RL-D002", "b.rs", 3)]);
        assert!(json.starts_with("{\n  \"schema\": 2,"));
        assert!(json.contains("\"total\": 2"));
        assert!(json.contains("\"unsuppressed\": 1"));
        assert!(json.contains("msg with \\\"quotes\\\""));
    }

    #[test]
    fn empty_report_is_valid() {
        let json = render_json(&[]);
        assert!(json.contains("\"diagnostics\": []"));
        assert!(json.contains("\"total\": 0"));
    }
}
