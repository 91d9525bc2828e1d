//! A hand-rolled Rust tokenizer — just enough lexical structure for the
//! lint rules, with no dependency on `syn` or the compiler.
//!
//! The lexer understands comments (line and nested block), string/char
//! literals (including raw and byte strings), lifetimes, identifiers,
//! numbers, and single-character punctuation. Multi-character operators
//! come out as punctuation sequences (`::` is two `:` tokens); rules
//! match on token-text sequences, so this costs nothing.
//!
//! Comments are not tokens, but `lint:allow(...)` markers inside them are
//! extracted as [`Suppression`]s.

/// Lexical class of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Lifetime,
    Num,
    Str,
    Char,
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

/// A `lint:allow(rule, ...)` marker found in a comment.
///
/// A suppression covers the line the marker sits on and — so that a
/// multi-line rationale comment can precede the code it excuses — the
/// first line after the marker that carries any token.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Line of the comment containing the marker.
    pub line: u32,
    /// First token-bearing line at or after `line` (the code the marker
    /// excuses). Equal to `line` when the marker trails code.
    pub covers: u32,
    /// Rule families or diagnostic codes named in the marker.
    pub rules: Vec<String>,
}

impl Suppression {
    /// Whether this suppression excuses a diagnostic of the given rule
    /// family / code at `line`.
    pub fn matches(&self, line: u32, rule: &str, code: &str) -> bool {
        (line == self.line || line == self.covers)
            && self
                .rules
                .iter()
                .any(|r| r == rule || r == code || r == "all")
    }
}

/// Token stream plus suppression markers for one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub suppressions: Vec<Suppression>,
}

impl Lexed {
    /// Whether a diagnostic (`rule`, `code`) at `line` is suppressed.
    pub fn suppressed(&self, line: u32, rule: &str, code: &str) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.matches(line, rule, code))
    }
}

/// Extracts the rule list from a comment body containing `lint:allow(`.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let start = comment.find("lint:allow(")?;
    let rest = &comment[start + "lint:allow(".len()..];
    let end = rest.find(')')?;
    let rules: Vec<String> = rest[..end]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

/// Tokenizes `src`, collecting suppressions along the way.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut suppressions: Vec<Suppression> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! bump_lines {
        ($s:expr) => {
            line += $s.bytes().filter(|&b| b == b'\n').count() as u32
        };
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        // Whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            let end = src[i..].find('\n').map(|n| i + n).unwrap_or(bytes.len());
            if let Some(rules) = parse_allow(&src[i..end]) {
                suppressions.push(Suppression {
                    line,
                    covers: line,
                    rules,
                });
            }
            i = end;
            continue;
        }
        // Block comment (nested).
        if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let start_line = line;
            let mut depth = 1usize;
            let mut j = i + 2;
            while j + 1 < bytes.len() && depth > 0 {
                if bytes[j] == b'/' && bytes[j + 1] == b'*' {
                    depth += 1;
                    j += 2;
                } else if bytes[j] == b'*' && bytes[j + 1] == b'/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            if depth > 0 {
                j = bytes.len();
            }
            let body = &src[i..j.min(bytes.len())];
            if let Some(rules) = parse_allow(body) {
                suppressions.push(Suppression {
                    line: start_line,
                    covers: start_line,
                    rules,
                });
            }
            bump_lines!(body);
            i = j;
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br#"..."# (any hash count).
        if c == 'r' || c == 'b' {
            let mut j = i;
            if bytes[j] == b'b' {
                j += 1;
            }
            if bytes.get(j) == Some(&b'r') {
                let mut hashes = 0usize;
                let mut k = j + 1;
                while bytes.get(k) == Some(&b'#') {
                    hashes += 1;
                    k += 1;
                }
                if bytes.get(k) == Some(&b'"') {
                    // Find closing `"` + hashes.
                    let close = format!("\"{}", "#".repeat(hashes));
                    let body_start = k + 1;
                    let end = src[body_start..]
                        .find(&close)
                        .map(|n| body_start + n + close.len())
                        .unwrap_or(bytes.len());
                    let text = &src[i..end];
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: text.to_string(),
                        line,
                    });
                    bump_lines!(text);
                    i = end;
                    continue;
                }
                // Raw identifier: `r#ident` (exactly one hash, no byte
                // prefix). Lexed as one Ident token — splitting it into
                // `r` `#` `ident` would fabricate a keyword token (e.g.
                // `r#fn` -> `fn`) that corrupts test-mask recovery
                // downstream.
                if j == i
                    && hashes == 1
                    && bytes
                        .get(k)
                        .is_some_and(|b| b.is_ascii_alphabetic() || *b == b'_')
                {
                    let mut end = k + 1;
                    while end < bytes.len()
                        && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_')
                    {
                        end += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Ident,
                        text: src[i..end].to_string(),
                        line,
                    });
                    i = end;
                    continue;
                }
            }
        }
        // Byte string b"..." handled with plain strings below.
        if c == '"' || (c == 'b' && bytes.get(i + 1) == Some(&b'"')) {
            let start = i;
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            let text = &src[start..j.min(bytes.len())];
            toks.push(Tok {
                kind: TokKind::Str,
                text: text.to_string(),
                line,
            });
            bump_lines!(text);
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // Lifetime: 'ident not closed by a quote.
            let mut j = i + 1;
            let mut ident_len = 0usize;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                ident_len += 1;
                j += 1;
            }
            if ident_len > 0 && bytes.get(j) != Some(&b'\'') {
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
                continue;
            }
            // Char literal: 'x', '\n', '\'', '\u{1F600}'.
            let mut j = i + 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'\'' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            toks.push(Tok {
                kind: TokKind::Char,
                text: src[i..j.min(bytes.len())].to_string(),
                line,
            });
            i = j;
            continue;
        }
        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: src[i..j].to_string(),
                line,
            });
            i = j;
            continue;
        }
        // Number. Consume digits/alphanumerics/underscores; a `.` joins
        // only when followed by a digit (so `0..n` stays three tokens).
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < bytes.len() {
                let b = bytes[j];
                let dot_joins = b == b'.'
                    && bytes.get(j + 1).is_some_and(|n| n.is_ascii_digit())
                    && !src[i..j].contains('.');
                if b.is_ascii_alphanumeric() || b == b'_' || dot_joins {
                    j += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: src[i..j].to_string(),
                line,
            });
            i = j;
            continue;
        }
        // Everything else: one punctuation character per token.
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += c.len_utf8();
    }

    // Resolve each suppression's covered code line: the first
    // token-bearing line at or after the marker (skipping over further
    // comment-only lines, which carry no tokens).
    for s in &mut suppressions {
        s.covers = toks
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > s.line)
            .min()
            .unwrap_or(s.line);
    }

    Lexed { toks, suppressions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            texts("let x = foo.bar(1);"),
            ["let", "x", "=", "foo", ".", "bar", "(", "1", ")", ";"]
        );
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        assert_eq!(texts("0..n"), ["0", ".", ".", "n"]);
        assert_eq!(texts("1.5 + 2"), ["1.5", "+", "2"]);
    }

    #[test]
    fn lifetimes_vs_chars() {
        assert_eq!(texts("&'a str"), ["&", "'a", "str"]);
        let lx = lex("let c = 'x'; let n = '\\n';");
        let chars: Vec<_> = lx
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Char)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(chars, ["'x'", "'\\n'"]);
    }

    #[test]
    fn strings_absorb_contents() {
        let lx = lex("f(\"a // not a comment\", r#\"raw \" here\"#);");
        let strs = lx.toks.iter().filter(|t| t.kind == TokKind::Str).count();
        assert_eq!(strs, 2);
        assert!(lx.toks.iter().all(|t| t.text != "not"));
    }

    #[test]
    fn comments_are_skipped_and_nested_blocks_close() {
        assert_eq!(texts("a /* x /* y */ z */ b // tail\nc"), ["a", "b", "c"]);
    }

    // Nested block comments are depth-counted like rustc's lexer. These
    // pin the tricky closings so a future rewrite cannot regress them:
    // early termination here would silently un-mask tokens (test-mask and
    // suppression recovery both run on the token stream).
    #[test]
    fn nested_block_comment_edge_cases() {
        // Back-to-back closers.
        assert_eq!(texts("a /* /* */*/ b"), ["a", "b"]);
        // Opener immediately followed by a closer at depth 2.
        assert_eq!(texts("a /*/**/ */ b"), ["a", "b"]);
        // `/*/` opens then the next `/` is comment text, not a closer.
        assert_eq!(texts("a /* /*/ */ */ b"), ["a", "b"]);
        // A `//` inside a block comment does not hide the closer.
        assert_eq!(texts("a /* // */ b"), ["a", "b"]);
        // Unterminated comment swallows the rest of the input.
        assert_eq!(texts("a /* /* */ b"), ["a"]);
    }

    #[test]
    fn raw_identifiers_lex_as_single_tokens() {
        assert_eq!(
            texts("let r#type = r#fn + 1;"),
            ["let", "r#type", "=", "r#fn", "+", "1", ";"]
        );
        let lx = lex("r#type");
        assert_eq!(lx.toks.len(), 1);
        assert_eq!(lx.toks[0].kind, TokKind::Ident);
        // The keyword must never leak out of a raw identifier: `r#fn`
        // yielding an `fn` token would fabricate a phantom item.
        assert!(lex("let x = r#fn;").toks.iter().all(|t| t.text != "fn"));
        // Raw strings with one hash still lex as strings, not raw idents.
        let lx = lex("r#\"text\"#");
        assert_eq!(lx.toks.len(), 1);
        assert_eq!(lx.toks[0].kind, TokKind::Str);
    }

    #[test]
    fn lines_are_tracked_through_literals() {
        let lx = lex("a\n\"two\nlines\"\nb");
        let a = lx.toks.iter().find(|t| t.text == "a").unwrap();
        let b = lx.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(a.line, 1);
        assert_eq!(b.line, 4);
    }

    #[test]
    fn suppression_covers_marker_and_next_code_line() {
        let src = "fn f() {\n    // lint:allow(determinism) — rationale\n    // spanning two comment lines.\n    let t = now();\n}\n";
        let lx = lex(src);
        assert_eq!(lx.suppressions.len(), 1);
        let s = &lx.suppressions[0];
        assert_eq!(s.line, 2);
        assert_eq!(s.covers, 4);
        assert!(lx.suppressed(4, "determinism", "RL-D002"));
        assert!(lx.suppressed(2, "determinism", "RL-D002"));
        assert!(!lx.suppressed(5, "determinism", "RL-D002"));
        assert!(!lx.suppressed(4, "panic-path", "RL-P001"));
    }

    #[test]
    fn suppression_by_code_and_trailing_marker() {
        let src = "let x = v.get(0); // lint:allow(RL-P003)\n";
        let lx = lex(src);
        assert!(lx.suppressed(1, "panic-path", "RL-P003"));
        assert!(!lx.suppressed(1, "panic-path", "RL-P001"));
    }
}
