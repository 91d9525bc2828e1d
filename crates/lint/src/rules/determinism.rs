//! RL-D001..RL-D004: sources of run-to-run nondeterminism in the
//! simulation core.
//!
//! The engine's contract is bit-identical replay for a fixed seed
//! (ROADMAP: "same scenario, same numbers"). Four things break that
//! contract silently:
//!
//! - **RL-D001** — `std::collections::HashMap`/`HashSet`: the std hasher
//!   is randomly keyed per process, so iteration order varies between
//!   runs. Use `rocket_cache::FxHashMap`/`FxHashSet` (deterministic
//!   hasher) or a dense index-keyed table.
//! - **RL-D002** — `Instant::now()` / `SystemTime`: wall-clock reads feed
//!   host timing into simulated results. Use `rocket_core::clock`.
//! - **RL-D003** — `thread::sleep`: host-timed pauses in scoped code.
//!   Block on a channel or condition variable instead: the engines are
//!   woken by work, never by a clock.
//! - **RL-D004** — unseeded RNG entry points (`thread_rng`,
//!   `from_entropy`, `OsRng`, `getrandom`): all randomness must flow from
//!   the scenario seed.

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::rules::{emit, seq_at};
use crate::source::SourceFile;

const RULE: &str = "determinism";

/// Idents that mean "entropy not derived from the scenario seed".
const UNSEEDED: [&str; 4] = ["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Scans one file (already scoped by the caller).
pub fn check(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if file.is_test(i) || t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => emit(
                out,
                file,
                "RL-D001",
                RULE,
                t.line,
                format!(
                    "std {} iterates in randomized order; use rocket_cache::Fx{} or a dense table",
                    t.text, t.text
                ),
            ),
            "Instant" if seq_at(file, i, &["Instant", ":", ":", "now"]) => emit(
                out,
                file,
                "RL-D002",
                RULE,
                t.line,
                "wall-clock read (Instant::now) in deterministic code; use rocket_core::clock"
                    .into(),
            ),
            "SystemTime" => emit(
                out,
                file,
                "RL-D002",
                RULE,
                t.line,
                "wall-clock read (SystemTime) in deterministic code; use rocket_core::clock".into(),
            ),
            "thread" if seq_at(file, i, &["thread", ":", ":", "sleep"]) => emit(
                out,
                file,
                "RL-D003",
                RULE,
                t.line,
                "host-timed sleep in deterministic code; block on a channel or condvar".into(),
            ),
            name if UNSEEDED.contains(&name) => emit(
                out,
                file,
                "RL-D004",
                RULE,
                t.line,
                format!(
                    "unseeded randomness ({name}); derive all RNG state from the scenario seed"
                ),
            ),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new("x.rs".into(), src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_all_four_codes() {
        let src = "use std::collections::HashMap;\nfn f() {\n    let t = std::time::Instant::now();\n    std::thread::sleep(d);\n    let r = thread_rng();\n}\n";
        let codes: Vec<_> = run(src).iter().map(|d| d.code).collect();
        assert_eq!(codes, ["RL-D001", "RL-D002", "RL-D003", "RL-D004"]);
    }

    #[test]
    fn fx_collections_are_clean() {
        assert!(run(
            "use rocket_cache::{FxHashMap, FxHashSet};\nfn f() { let m = FxHashMap::default(); }\n"
        )
        .is_empty());
    }

    #[test]
    fn instant_as_plain_type_is_not_a_read() {
        // Storing an Instant handed in from elsewhere is fine; only the
        // `::now()` read is flagged.
        assert!(run("fn f(t: Instant) -> Instant { t }\n").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let m = std::collections::HashMap::new(); }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f() {\n    // lint:allow(determinism) — rationale\n    let t = std::time::Instant::now();\n}\n";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].suppressed);
    }
}
