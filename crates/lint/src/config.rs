//! `lint.toml` loading via a minimal hand-rolled TOML-subset parser.
//!
//! Supported syntax: `[section]` headers, `key = value` pairs where the
//! value is a flat array of quoted strings (single line or spread across
//! lines), and `#` comments. That subset is all the config needs;
//! anything else is a hard error so typos fail loudly instead of silently
//! disabling a rule.

use std::collections::BTreeMap;

/// Where a rule family looks, and what it ignores.
#[derive(Debug, Clone, Default)]
pub struct RuleScope {
    /// Files or directories (relative to the lint root) to scan.
    pub paths: Vec<String>,
    /// Files inside `paths` exempt from the family (sanctioned shims).
    pub allow_files: Vec<String>,
}

/// Whole-run configuration (one section per rule family).
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    pub determinism: RuleScope,
    pub panic_path: RuleScope,
}

fn parse_string(s: &str) -> Result<String, String> {
    let s = s.trim();
    if s.len() < 2 || !s.starts_with('"') || !s.ends_with('"') {
        return Err(format!("expected quoted string, got `{s}`"));
    }
    Ok(s[1..s.len() - 1].to_string())
}

fn parse_array(raw: &str) -> Result<Vec<String>, String> {
    let raw = raw.trim();
    let inner = raw
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array of strings, got `{raw}`"))?;
    let mut items = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        items.push(parse_string(part)?);
    }
    Ok(items)
}

/// Strips a trailing `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses the TOML subset into section → key → array maps.
fn parse_toml(src: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<String>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    let mut section = String::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((n, raw_line)) = lines.next() {
        let line = strip_comment(raw_line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            section = line
                .strip_prefix('[')
                .and_then(|l| l.strip_suffix(']'))
                .ok_or_else(|| format!("line {}: malformed section `{line}`", n + 1))?
                .trim()
                .to_string();
            out.entry(section.clone()).or_default();
            continue;
        }
        let Some((key, val)) = line.split_once('=') else {
            return Err(format!(
                "line {}: expected `key = value`, got `{line}`",
                n + 1
            ));
        };
        // A multi-line array: keep consuming lines until the bracket
        // closes.
        let mut val = val.trim().to_string();
        while val.starts_with('[') && !val.ends_with(']') {
            let Some((_, next)) = lines.next() else {
                return Err(format!("line {}: unterminated array", n + 1));
            };
            val.push_str(strip_comment(next).trim());
        }
        let value = parse_array(&val).map_err(|e| format!("line {}: {e}", n + 1))?;
        out.entry(section.clone())
            .or_default()
            .insert(key.trim().to_string(), value);
    }
    Ok(out)
}

fn take_array(sec: &BTreeMap<String, Vec<String>>, key: &str) -> Vec<String> {
    sec.get(key).cloned().unwrap_or_default()
}

impl LintConfig {
    /// Parses a `lint.toml` document.
    pub fn parse(src: &str) -> Result<LintConfig, String> {
        let doc = parse_toml(src)?;
        let mut cfg = LintConfig::default();
        for (section, keys) in &doc {
            match section.as_str() {
                "determinism" | "panic_path" => {
                    let scope = RuleScope {
                        paths: take_array(keys, "paths"),
                        allow_files: take_array(keys, "allow_files"),
                    };
                    if section == "determinism" {
                        cfg.determinism = scope;
                    } else {
                        cfg.panic_path = scope;
                    }
                }
                other => return Err(format!("unknown section [{other}]")),
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let src = r#"
# comment
[determinism]
paths = ["crates/sim/src", "crates/core/src"]
allow_files = ["crates/core/src/clock.rs"]

[panic_path]
paths = [
    "crates/cluster/src/driver.rs",  # trailing comment
    "crates/comm/src/socket.rs",
]
"#;
        let cfg = LintConfig::parse(src).unwrap();
        assert_eq!(cfg.determinism.paths.len(), 2);
        assert_eq!(cfg.determinism.allow_files, ["crates/core/src/clock.rs"]);
        assert_eq!(cfg.panic_path.paths.len(), 2);
    }

    #[test]
    fn unknown_section_is_an_error() {
        // The sections of the retired families included: a stale
        // lint.toml must fail loudly rather than silently pass.
        for section in [
            "typo",
            "lock_order",
            "blocking",
            "shared_state",
            "hot_path",
            "wire_drift",
        ] {
            let src = format!("[{section}]\npaths = []\n");
            assert!(LintConfig::parse(&src).is_err(), "[{section}] accepted");
        }
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(LintConfig::parse("[determinism]\nnot a kv\n").is_err());
        assert!(LintConfig::parse("[determinism]\npaths = \"crates\"\n").is_err());
    }
}
