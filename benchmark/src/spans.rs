//! Harness spans: name, start, end and parent, kept in memory until the
//! workload ends. Recorded only in traced runs, from the harness's own
//! files around the calls into each layer; spans inside the program are a
//! later issue.

use std::sync::Mutex;
use std::time::Instant;

use rocket::apps::json::Json;

use crate::obj;

/// Index of a span within its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

/// In-memory span recorder shared by the generator thread and, through
/// [`crate::workloads::SpanTap`], the study's cell threads (hence the
/// explicit parent instead of a thread-local stack).
pub struct Spans {
    origin: Instant,
    /// `None` when disabled: untraced runs record nothing.
    spans: Option<Mutex<Vec<Span>>>,
}

impl Spans {
    pub fn enabled() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Some(Mutex::new(Vec::new())),
        }
    }

    pub fn disabled() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, Vec<Span>>> {
        self.spans.as_ref().map(|m| {
            m.lock()
                .expect("span recorder poisoned by a panicking holder")
        })
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id to parent its own children (`None` when disabled).
    pub fn scope<R>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let start_ns = self.now_ns();
        let id = self.lock().map(|mut spans| {
            spans.push(Span {
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
                parent,
            });
            spans.len() - 1
        });
        let result = f(id);
        let end_ns = self.now_ns();
        if let (Some(id), Some(mut spans)) = (id, self.lock()) {
            spans[id].end_ns = end_ns;
        }
        result
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// The span file: one object per span with its self time, plus the run id
/// shared by all spans of this workload run.
pub fn to_json(run_id: &str, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let rows = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(id, (s, self_ns))| {
            obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(s.name.clone())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
            ])
        })
        .collect();
    obj([
        ("run_id", Json::Str(run_id.to_string())),
        ("spans", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            // Overlaps the previous child (two study threads at once).
            span(30, 60, Some(0)),
            span(70, 80, Some(0)),
            // A grandchild only reduces its own parent.
            span(72, 75, Some(3)),
            // A child sticking out of its parent is clipped to it.
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 7, 3, 40]);
    }

    #[test]
    fn scope_records_nesting_and_disabled_records_nothing() {
        let spans = Spans::enabled();
        let out = spans.scope("outer", None, |outer| {
            spans.scope("inner", outer, |inner| {
                assert_eq!(inner, Some(1));
                7
            })
        });
        assert_eq!(out, 7);
        let recorded = spans.snapshot();
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[1].parent, Some(0));
        assert!(recorded[0].start_ns <= recorded[1].start_ns);
        assert!(recorded[1].end_ns <= recorded[0].end_ns);

        let off = Spans::disabled();
        assert_eq!(off.scope("x", None, |id| id), None);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn span_file_round_trips_through_the_parser() {
        let spans = [span(0, 10, None), span(2, 5, Some(0))];
        let text = to_json("des-seq/seed1", &spans).to_string_compact();
        let parsed = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            parsed.get("run_id"),
            Some(&Json::Str("des-seq/seed1".into()))
        );
        let rows = parsed.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("self_ns").and_then(Json::as_f64), Some(7.0));
        assert_eq!(rows[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(rows[0].get("parent"), Some(&Json::Null));
    }
}
