//! RL-B001/RL-B002: blocking while holding a lock.
//!
//! A thread that blocks — on a channel `recv`, a `join`, a condvar or
//! barrier `wait`, stream IO, `thread::sleep`/`clock::pace` — while
//! holding a lock extends that lock's critical section by an unbounded
//! amount and is one lock-inversion away from a deadlock. The elasticity
//! story depends on the fault path never doing this.
//!
//! - **RL-B001** — a blocking operation appears directly inside a lock's
//!   hold range.
//! - **RL-B002** — a call inside a hold range resolves (transitively,
//!   across files and crates) to a function that can block; the message
//!   carries the witness call chain.
//!
//! Hold ranges are block-scoped for `let`-bound guards and
//! statement-scoped for temporaries (see `crate::callgraph`); an early
//! `drop(guard)` is invisible, so deliberate wait-under-lock patterns
//! (condvars *require* one) carry `lint:allow(RL-B001)` with a
//! rationale.

use std::collections::BTreeSet;

use crate::callgraph::{CallGraph, Step};
use crate::diag::Diagnostic;
use crate::rules::emit;
use crate::source::SourceFile;

const RULE: &str = "blocking";

pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let graph = CallGraph::build(files);
    let may_block = graph.may_block();
    // Closure spans nest inside their enclosing fn's span, so the same
    // token can surface twice; dedup on (file, line, code, message).
    let mut seen: BTreeSet<(usize, u32, &'static str, String)> = BTreeSet::new();
    for variants in graph.bodies.values() {
        for body in variants {
            let Some(file) = files.get(body.file_idx) else {
                continue;
            };
            for (i, held) in body.steps.iter().enumerate() {
                let Step::Acquire {
                    lock, at, until, ..
                } = held
                else {
                    continue;
                };
                for later in body.steps.iter().skip(i + 1) {
                    if later.at() <= *at || later.at() > *until {
                        continue;
                    }
                    match later {
                        Step::Block { what, line, .. } => {
                            let msg = format!(
                                "{what} while holding lock `{lock}` — the critical \
                                 section blocks for an unbounded time"
                            );
                            if seen.insert((body.file_idx, *line, "RL-B001", msg.clone())) {
                                emit(out, file, "RL-B001", RULE, *line, msg);
                            }
                        }
                        Step::Call { callee, line, .. } => {
                            if let Some(chain) = may_block.get(callee) {
                                let msg = format!(
                                    "call may block ({}) while holding lock `{lock}`",
                                    chain.render(callee)
                                );
                                if seen.insert((body.file_idx, *line, "RL-B002", msg.clone())) {
                                    emit(out, file, "RL-B002", RULE, *line, msg);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(srcs: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::new(p.to_string(), s))
            .collect();
        let mut out = Vec::new();
        check(&files, &mut out);
        out
    }

    #[test]
    fn recv_under_lock_is_b001() {
        let src = "fn f(&self) { let g = self.m.lock(); let x = self.rx.recv(); }";
        let diags = run(&[("a.rs", src)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL-B001");
        assert!(diags[0].message.contains("`m`"));
    }

    #[test]
    fn recv_after_scope_is_clean() {
        let src = "fn f(&self) { { let g = self.m.lock(); g.push(1); } let x = self.rx.recv(); }";
        assert!(run(&[("a.rs", src)]).is_empty());
    }

    #[test]
    fn transitive_blocking_across_files_is_b002() {
        let a = "fn send(&self) { self.stream.write_all(b); }";
        let b = "fn publish(&self) { let g = self.m.lock(); self.peer.send(x); }";
        let diags = run(&[("comm.rs", a), ("driver.rs", b)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL-B002");
        assert_eq!(diags[0].path, "driver.rs");
        assert!(
            diags[0].message.contains("send -> stream IO"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn blocking_without_lock_is_clean() {
        let src = "fn f(&self) { let x = self.rx.recv(); let g = self.m.lock(); }";
        assert!(run(&[("a.rs", src)]).is_empty());
    }

    #[test]
    fn condvar_wait_under_lock_is_b001() {
        let src = "fn acquire(&self) { let mut avail = self.available.lock(); self.cond.wait_while(&mut avail, |a| *a == 0); }";
        let diags = run(&[("a.rs", src)]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("condvar/barrier wait"));
    }

    #[test]
    fn suppression_marks_finding() {
        let src = "fn f(&self) { let g = self.m.lock();\n    // lint:allow(RL-B001) — bounded by test harness\n    let x = self.rx.recv(); }";
        let diags = run(&[("a.rs", src)]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].suppressed);
    }
}
