//! Chrome-trace (`about:tracing` / Perfetto) JSON export of a perf log.
//!
//! The writer is hand-rolled: the format is a flat array of complete events
//! (`"ph": "X"`) and needs no general-purpose JSON dependency. Durations are
//! exported in microseconds as the format requires.

use std::fmt::Write as _;

use crate::perflog::{PerfKind, PerfRecord};

/// The resource thread that executes a stage kind, as `(tid, label)` in the
/// order the paper's Fig 8 presents them; `None` for non-stage kinds.
fn resource(kind: PerfKind) -> Option<(u32, &'static str)> {
    match kind {
        PerfKind::Preprocess | PerfKind::Compare => Some((0, "GPU")),
        PerfKind::Parse | PerfKind::Postprocess => Some((1, "CPU")),
        PerfKind::CopyIn => Some((2, "CPU→GPU")),
        PerfKind::CopyOut => Some((3, "GPU→CPU")),
        PerfKind::Read => Some((4, "IO")),
        _ => None,
    }
}

/// Serializes the stage records of a perf log into Chrome trace-event JSON.
///
/// A stage record is stamped at completion and carries its duration, so the
/// event starts at `t_ns − value`. Nodes become trace "processes" and
/// resources become "threads", which renders each resource on its own row
/// like the paper's Fig 6 (a pooled resource — the CPU workers, a node's
/// GPUs — shares one row). Event-valued records (cache, directory, steal,
/// engine gauges, pair completions) have no duration and are skipped.
/// Works on the log of either engine.
pub fn to_chrome_json(records: &[PerfRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 96);
    out.push('[');
    let mut sep = "\n";
    for r in records {
        let Some((tid, label)) = resource(r.kind) else {
            continue;
        };
        // Escape-free by construction: labels are static identifiers.
        let _ = write!(
            out,
            "{sep}  {{\"name\":\"{}\",\"cat\":\"{label}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{tid}}}",
            r.kind.label(),
            r.t_ns.saturating_sub(r.value) / 1_000,
            (r.value / 1_000).max(1),
            r.node,
        );
        sep = ",\n";
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_ns: u64, kind: PerfKind, node: u32, value: u64) -> PerfRecord {
        PerfRecord {
            t_ns,
            kind,
            node,
            value,
        }
    }

    fn sample() -> Vec<PerfRecord> {
        vec![
            rec(3_000, PerfKind::Compare, 2, 2_000),
            rec(3_000, PerfKind::DevHit, 2, 7),
            rec(10_000, PerfKind::Read, 0, 10_000),
        ]
    }

    #[test]
    fn emits_one_event_per_stage_record() {
        let json = to_chrome_json(&sample());
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"compare\",\"cat\":\"GPU\""));
        assert!(json.contains("\"pid\":2,\"tid\":0"));
        assert!(json.contains("\"cat\":\"IO\""));
        assert!(!json.contains("dev_hit"));
        assert!(!json.contains(",\n]"), "no trailing comma");
    }

    #[test]
    fn starts_at_completion_minus_duration_in_microseconds() {
        let json = to_chrome_json(&sample());
        assert!(json.contains("\"ts\":1,\"dur\":2"));
        assert!(json.contains("\"ts\":0,\"dur\":10"));
    }

    #[test]
    fn zero_duration_clamped_to_one_us() {
        let json = to_chrome_json(&[rec(0, PerfKind::Parse, 0, 0)]);
        assert!(json.contains("\"ts\":0,\"dur\":1"));
    }

    #[test]
    fn every_stage_kind_has_a_row_and_nothing_else_does() {
        for &k in PerfKind::ALL {
            assert_eq!(resource(k).is_some(), k.is_stage(), "{k:?}");
        }
    }

    #[test]
    fn empty_log_is_valid_array() {
        assert_eq!(to_chrome_json(&[]), "[\n]");
        assert_eq!(to_chrome_json(&[rec(1, PerfKind::Steal, 0, 4)]), "[\n]");
    }
}
