//! RL-L001: lock-acquisition cycles.
//!
//! Rocket holds several locks on its hot paths (cache slot tables, steal
//! deques, the directory). A deadlock needs two threads acquiring the
//! same pair of locks in opposite orders; this rule approximates that
//! check statically on the shared call graph (`crate::callgraph`):
//!
//! 1. For every non-test function in scope, record the ordered sequence
//!    of lock acquisitions with their hold ranges (block-scoped for
//!    `let`-bound guards, statement-scoped for temporaries). An
//!    acquisition is a *zero-argument* `.lock()` / `.read()` /
//!    `.write()` call — the zero-argument requirement keeps
//!    `io::Read::read(&mut buf)` and friends out. The lock's name is
//!    the receiver identifier (field or method) nearest the call.
//! 2. Propagate acquisitions through resolved calls between in-scope
//!    functions to a fixpoint, so `a.lock(); helper();` sees the locks
//!    `helper` takes.
//! 3. Build the "held while acquiring" digraph over lock names and
//!    report every cycle.
//!
//! This is name-based: two fields spelled the same in different structs
//! alias, and an early `drop(guard)` is invisible. Rocket's lock
//! population is small enough that this approximation is useful, and
//! `lint:allow(lock-order)` documents the deliberate exceptions.
//!
//! The same edge set feeds the witness cross-check (`rocket-lint
//! --witness`, RL-X001/RL-X002 in [`crate::rules::witness`]).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, Step};
use crate::diag::Diagnostic;
use crate::rules::emit;
use crate::source::SourceFile;

const RULE: &str = "lock-order";

/// A "held while acquiring" edge with one witness location.
#[derive(Debug, Clone)]
pub(crate) struct StaticEdge {
    pub from: String,
    pub to: String,
    pub file_idx: usize,
    pub line: u32,
}

/// Derives the "held while acquiring" edges from the call graph: within
/// each body, every acquisition is held across the steps inside its hold
/// range; later direct acquisitions and callee lock sets become edge
/// targets. One witness location per distinct edge, first in sorted
/// body order.
pub(crate) fn static_edges(graph: &CallGraph) -> Vec<StaticEdge> {
    let effective = graph.effective_locks();
    let mut edges: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();
    for variants in graph.bodies.values() {
        for body in variants {
            for (i, held) in body.steps.iter().enumerate() {
                let Step::Acquire {
                    lock: held_lock,
                    until,
                    at,
                    ..
                } = held
                else {
                    continue;
                };
                for later in body.steps.iter().skip(i + 1) {
                    if later.at() <= *at || later.at() > *until {
                        continue;
                    }
                    match later {
                        Step::Acquire { lock, line, .. } if lock != held_lock => {
                            edges
                                .entry((held_lock.clone(), lock.clone()))
                                .or_insert((body.file_idx, *line));
                        }
                        Step::Call { callee, line, .. } => {
                            for lock in effective.get(callee).into_iter().flatten() {
                                if lock != held_lock {
                                    edges
                                        .entry((held_lock.clone(), lock.clone()))
                                        .or_insert((body.file_idx, *line));
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    edges
        .into_iter()
        .map(|((from, to), (file_idx, line))| StaticEdge {
            from,
            to,
            file_idx,
            line,
        })
        .collect()
}

pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let graph = CallGraph::build(files);
    let edges = static_edges(&graph);

    // Cycle detection: for each node in sorted order, DFS for a path
    // back to itself. Each cycle is reported once, keyed by its sorted
    // node set.
    let edge_map: BTreeMap<(String, String), &StaticEdge> = edges
        .iter()
        .map(|e| ((e.from.clone(), e.to.clone()), e))
        .collect();
    let adj: BTreeMap<&String, Vec<&String>> = {
        let mut m: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for e in &edges {
            m.entry(&e.from).or_default().push(&e.to);
        }
        m
    };
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in adj.keys() {
        if let Some(path) = find_cycle(start, &adj) {
            let mut key = path.clone();
            key.sort();
            key.dedup();
            if !reported.insert(key) {
                continue;
            }
            // Witness: the edge that closes the cycle back to `start`.
            let witness = path
                .windows(2)
                .filter_map(|w| edge_map.get(&(w[0].clone(), w[1].clone())))
                .next_back();
            let Some(witness) = witness else { continue };
            let Some(file) = files.get(witness.file_idx) else {
                continue;
            };
            emit(
                out,
                file,
                "RL-L001",
                RULE,
                witness.line,
                format!(
                    "lock-acquisition cycle: {} — two threads taking these locks in \
                     different orders can deadlock",
                    path.join(" -> ")
                ),
            );
        }
    }
}

/// DFS from `start`; returns a node path `start .. start` if a cycle
/// through `start` exists.
fn find_cycle<'a>(
    start: &'a String,
    adj: &BTreeMap<&'a String, Vec<&'a String>>,
) -> Option<Vec<String>> {
    let mut stack: Vec<(&String, usize)> = vec![(start, 0)];
    let mut path: Vec<&String> = vec![start];
    let mut visited: BTreeSet<&String> = BTreeSet::new();
    while let Some((node, idx)) = stack.last_mut() {
        let next = adj.get(*node).and_then(|ns| ns.get(*idx));
        match next {
            Some(&n) => {
                *idx += 1;
                if n == start {
                    let mut cycle: Vec<String> = path.iter().map(|s| s.to_string()).collect();
                    cycle.push(start.to_string());
                    return Some(cycle);
                }
                if visited.insert(n) {
                    stack.push((n, 0));
                    path.push(n);
                }
            }
            None => {
                stack.pop();
                path.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new("x.rs".into(), src);
        let mut out = Vec::new();
        check(&[f], &mut out);
        out
    }

    #[test]
    fn opposite_orders_in_two_fns_cycle() {
        let src = "fn a(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); }\nfn b(&self) { let h = self.beta.lock(); let g = self.alpha.lock(); }\n";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "RL-L001");
        assert!(diags[0].message.contains("alpha"));
        assert!(diags[0].message.contains("beta"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "fn a(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); }\nfn b(&self) { let g = self.alpha.lock(); let h = self.beta.lock(); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn interprocedural_cycle_found() {
        let src = "fn outer(&self) { let g = self.alpha.lock(); helper(self); }\nfn helper(s: &S) { let h = s.beta.lock(); }\nfn other(&self) { let h = self.beta.lock(); let g = self.alpha.lock(); }\n";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn io_read_with_args_is_not_a_lock() {
        let src = "fn pump(s: &mut TcpStream) { let mut b = [0u8; 8]; let n = s.read(&mut b); }\nfn other(&self) { let g = self.read_lock.read(); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn rwlock_read_write_participate() {
        let src = "fn a(&self) { let g = self.table.read(); let h = self.queue.lock(); }\nfn b(&self) { let h = self.queue.lock(); let g = self.table.write(); }\n";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn reacquiring_same_lock_is_not_a_cycle() {
        let src =
            "fn a(&self) { let g = self.alpha.lock(); drop(g); let h = self.alpha.lock(); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn scoped_guards_do_not_edge() {
        // The alpha guard dies at its inner block's brace before beta is
        // taken, so the opposite order elsewhere is not a cycle.
        let src = "fn a(&self) { { let g = self.alpha.lock(); } let h = self.beta.lock(); }\nfn b(&self) { let h = self.beta.lock(); let g = self.alpha.lock(); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn statement_temporaries_do_not_edge() {
        let src = "fn a(&self) { self.alpha.lock().push(1); let h = self.beta.lock(); }\nfn b(&self) { self.beta.lock().push(2); let g = self.alpha.lock(); }\n";
        assert!(run(src).is_empty());
    }
}
