//! The two rule families.
//!
//! | Family         | Codes            | What it enforces                          |
//! |----------------|------------------|-------------------------------------------|
//! | `determinism`  | RL-D001..D004    | no order-random collections, wall clocks, |
//! |                |                  | sleeps, or unseeded RNG in sim/core/steal  |
//! | `panic-path`   | RL-P001..P003    | no unwrap/expect/panic/indexing on fault   |
//! |                |                  | paths                                      |
//!
//! Each family is a per-file token scan; neither needs a call graph.
//! `docs/lint-rules.md` records why these two are the ones kept.

pub mod determinism;
pub mod panic_path;

use crate::diag::Diagnostic;
use crate::source::SourceFile;

/// Pushes a diagnostic, marking it suppressed when an in-source
/// `lint:allow` marker covers it.
pub(crate) fn emit(
    out: &mut Vec<Diagnostic>,
    file: &SourceFile,
    code: &'static str,
    rule: &'static str,
    line: u32,
    message: String,
) {
    let suppressed = file.lexed.suppressed(line, rule, code);
    out.push(Diagnostic {
        code,
        rule,
        path: file.rel_path.clone(),
        line,
        message,
        suppressed,
    });
}

/// Whether the token texts starting at `i` equal `pat`.
pub(crate) fn seq_at(file: &SourceFile, i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| file.lexed.toks.get(i + k).is_some_and(|t| t.text == *p))
}
