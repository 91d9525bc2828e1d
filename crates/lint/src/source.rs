//! Item-level structure recovered from the token stream: which tokens
//! belong to test code, and where bracket groups close.

use crate::lexer::{Lexed, Tok, TokKind};

/// A loaded, lexed source file plus derived structure.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as reported in diagnostics (relative to the lint root).
    pub rel_path: String,
    pub lexed: Lexed,
    /// `mask[i]` is true when token `i` lies inside test-only code
    /// (a `#[cfg(test)]` module or a `#[test]` function).
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    pub fn new(rel_path: String, src: &str) -> Self {
        let lexed = crate::lexer::lex(src);
        let test_mask = test_mask(&lexed.toks);
        SourceFile {
            rel_path,
            lexed,
            test_mask,
        }
    }

    /// Whether token `i` is test-only code.
    pub fn is_test(&self, i: usize) -> bool {
        self.test_mask.get(i).copied().unwrap_or(false)
    }
}

/// Index of the token matching the opener at `open` (`{`/`}`, `[`/`]`,
/// `(`/`)`), or the last token if unbalanced.
fn matching(toks: &[Tok], open: usize, open_ch: &str, close_ch: &str) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == open_ch {
                depth += 1;
            } else if t.text == close_ch {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Marks tokens covered by `#[cfg(test)] mod`/`#[test] fn` items.
///
/// The heuristic: any attribute `#[...]` whose bracket contents mention
/// the identifier `test` marks the next item (after any further
/// attributes) as test code, through the end of its brace block.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            let close = matching(toks, i + 1, "[", "]");
            let mentions_test = toks[i + 2..close].iter().any(|t| t.text == "test");
            if mentions_test {
                // Skip over any further attributes to the item keyword.
                let mut j = close + 1;
                while j < toks.len()
                    && toks[j].text == "#"
                    && toks.get(j + 1).is_some_and(|t| t.text == "[")
                {
                    j = matching(toks, j + 1, "[", "]") + 1;
                }
                // Find the item's opening brace (or `;` for `mod x;`).
                let mut k = j;
                while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                    k += 1;
                }
                if k < toks.len() && toks[k].text == "{" {
                    let end = matching(toks, k, "{", "}");
                    for slot in mask.iter_mut().take(end + 1).skip(i) {
                        *slot = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_masked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn helper() { y.unwrap(); }\n}\nfn live2() {}\n";
        let f = SourceFile::new("a.rs".into(), src);
        let toks = &f.lexed.toks;
        let live = toks.iter().position(|t| t.text == "live").unwrap();
        let helper = toks.iter().position(|t| t.text == "helper").unwrap();
        let live2 = toks.iter().position(|t| t.text == "live2").unwrap();
        assert!(!f.is_test(live));
        assert!(f.is_test(helper));
        assert!(!f.is_test(live2));
    }

    #[test]
    fn test_attr_fn_is_masked() {
        let src = "#[test]\nfn check() { assert!(true); }\nfn real() {}\n";
        let f = SourceFile::new("a.rs".into(), src);
        let toks = &f.lexed.toks;
        let check = toks.iter().position(|t| t.text == "check").unwrap();
        let real = toks.iter().position(|t| t.text == "real").unwrap();
        assert!(f.is_test(check));
        assert!(!f.is_test(real));
    }

    #[test]
    fn non_test_attrs_do_not_mask() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f() {}\n";
        let f = SourceFile::new("a.rs".into(), src);
        assert!(f.test_mask.iter().all(|&m| !m));
    }
}
