//! Structured performance logs: per-stage / per-resource samples behind a
//! near-zero-cost-when-disabled handle.
//!
//! The perf log is the one record stream both engines write: flat
//! [`PerfRecord`]s (timestamp, kind, node, value) recorded during a run,
//! written as versioned JSONL, and rolled up through [`PerfQuery`] /
//! [`PerfRollup`] into p50/p99 stage latencies and event rates that
//! studies and CI gates can compare across commits. [`crate::chrome`]
//! renders the same records for a human in a trace viewer.
//!
//! Three invariants the rest of the workspace relies on:
//!
//! * **Disabled is (nearly) free.** A disabled [`PerfLog`] is a `None`;
//!   every record site is one branch. Engines thread the handle through
//!   and never pay allocation or locking unless a caller opted in.
//! * **Recording never changes results.** The handle is write-only during
//!   a run; engines buffer records out-of-band and fold them after the
//!   result is final (`crates/sim` pins `RunReport` byte-equality with
//!   logging on).
//! * **Determinism.** Rollups use nearest-rank percentiles over integer
//!   nanoseconds — no floating-point accumulation order to vary — so the
//!   same records give byte-identical rollups on any thread count.

// The panic-path set: faults and hostile bytes return errors (docs/static-checks.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use std::borrow::Cow;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use crate::json;

/// Version of the JSONL schema ([`write_jsonl`] stamps it, the parser
/// rejects anything newer).
pub const PERFLOG_SCHEMA: u32 = 1;

/// What one [`PerfRecord`] measures.
///
/// Stage kinds carry a duration in `value` (nanoseconds of service time);
/// cache and directory kinds are discrete events (`value` is the item);
/// `Steal` carries the pairs moved; `QueueDepth` and `Window` are engine
/// gauges sampled at window barriers (`node` is then the shard id);
/// `PairDone` marks one finished pair (`value` is the device index on
/// `node`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "variant meanings are the table above")]
pub enum PerfKind {
    Read,
    Parse,
    Preprocess,
    Compare,
    CopyIn,
    CopyOut,
    Postprocess,
    DevHit,
    DevMiss,
    HostHit,
    HostMiss,
    Probe,
    ProbeHit,
    ProbeMiss,
    Steal,
    QueueDepth,
    Window,
    PairDone,
}

/// Coarse resource class of a [`PerfKind`] (the `resource` filter axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PerfClass {
    /// Pipeline stages: `value` is a service duration in ns.
    Stage,
    /// Device/host cache hit-miss events.
    Cache,
    /// Distributed-directory probe traffic.
    Directory,
    /// Work-stealing events.
    Steal,
    /// Event-engine gauges (queue depth, window cost).
    Engine,
    /// Pair completions per device (Fig 14's throughput series).
    Progress,
}

impl PerfKind {
    /// Every kind, in canonical (serialization and rollup) order.
    pub const ALL: &'static [PerfKind] = &[
        PerfKind::Read,
        PerfKind::Parse,
        PerfKind::Preprocess,
        PerfKind::Compare,
        PerfKind::CopyIn,
        PerfKind::CopyOut,
        PerfKind::Postprocess,
        PerfKind::DevHit,
        PerfKind::DevMiss,
        PerfKind::HostHit,
        PerfKind::HostMiss,
        PerfKind::Probe,
        PerfKind::ProbeHit,
        PerfKind::ProbeMiss,
        PerfKind::Steal,
        PerfKind::QueueDepth,
        PerfKind::Window,
        PerfKind::PairDone,
    ];

    /// Stable wire label (the JSONL `k` field).
    pub fn label(self) -> &'static str {
        match self {
            PerfKind::Read => "read",
            PerfKind::Parse => "parse",
            PerfKind::Preprocess => "preprocess",
            PerfKind::Compare => "compare",
            PerfKind::CopyIn => "copy_in",
            PerfKind::CopyOut => "copy_out",
            PerfKind::Postprocess => "postprocess",
            PerfKind::DevHit => "dev_hit",
            PerfKind::DevMiss => "dev_miss",
            PerfKind::HostHit => "host_hit",
            PerfKind::HostMiss => "host_miss",
            PerfKind::Probe => "probe",
            PerfKind::ProbeHit => "probe_hit",
            PerfKind::ProbeMiss => "probe_miss",
            PerfKind::Steal => "steal",
            PerfKind::QueueDepth => "queue_depth",
            PerfKind::Window => "window",
            PerfKind::PairDone => "pair_done",
        }
    }

    /// Inverse of [`PerfKind::label`].
    pub fn from_label(s: &str) -> Option<PerfKind> {
        PerfKind::ALL.iter().copied().find(|k| k.label() == s)
    }

    /// The resource class this kind belongs to.
    pub fn class(self) -> PerfClass {
        match self {
            PerfKind::Read
            | PerfKind::Parse
            | PerfKind::Preprocess
            | PerfKind::Compare
            | PerfKind::CopyIn
            | PerfKind::CopyOut
            | PerfKind::Postprocess => PerfClass::Stage,
            PerfKind::DevHit | PerfKind::DevMiss | PerfKind::HostHit | PerfKind::HostMiss => {
                PerfClass::Cache
            }
            PerfKind::Probe | PerfKind::ProbeHit | PerfKind::ProbeMiss => PerfClass::Directory,
            PerfKind::Steal => PerfClass::Steal,
            PerfKind::QueueDepth | PerfKind::Window => PerfClass::Engine,
            PerfKind::PairDone => PerfClass::Progress,
        }
    }

    /// True for duration-valued pipeline stages.
    pub fn is_stage(self) -> bool {
        self.class() == PerfClass::Stage
    }
}

impl fmt::Display for PerfKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One perf sample: when, what, where, how much.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfRecord {
    /// Timestamp in nanoseconds (virtual time in the simulator, wall
    /// clock relative to run start in the threaded runtime).
    pub t_ns: u64,
    /// What was measured.
    pub kind: PerfKind,
    /// Node (or shard, for [`PerfClass::Engine`] gauges) the sample
    /// belongs to.
    pub node: u32,
    /// Kind-dependent payload: duration ns for stages, item id for cache
    /// and directory events, pairs moved for steals, gauge value for
    /// engine kinds.
    pub value: u64,
}

impl PerfRecord {
    /// A `kind` sample of node `node` carrying `value`, stamped at `t_ns`.
    pub fn new(t_ns: u64, kind: PerfKind, node: u32, value: u64) -> Self {
        Self {
            t_ns,
            kind,
            node,
            value,
        }
    }

    /// Splits a task, given as its duration (`value`) stamped at its
    /// start, into `n` records of equal shares, such as one launch that
    /// compares `n` pairs: the first `value % n` one nanosecond longer,
    /// stamped back to back, so they sum to the duration exactly and the
    /// last is stamped at the task's end.
    pub fn shares(self, n: usize) -> impl Iterator<Item = Self> {
        let (n, dur, mut record) = (n as u64, self.value, self);
        (0..n).map(move |i| {
            record.value = dur / n + u64::from(i < dur % n);
            record.t_ns += record.value;
            record
        })
    }
}

/// Shared recording handle. Cheap to clone; disabled by default.
///
/// A disabled handle makes every [`PerfLog::record`] a single branch —
/// engines thread it unconditionally and callers opt in per run with
/// [`PerfLog::enabled`].
#[derive(Clone, Default)]
pub struct PerfLog {
    inner: Option<Arc<Mutex<Vec<PerfRecord>>>>,
}

impl fmt::Debug for PerfLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PerfLog")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl PerfLog {
    /// A recording handle.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(Vec::new()))),
        }
    }

    /// A no-op handle (the default): every record call is one branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Whether records are being kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends one record (no-op when disabled).
    #[inline]
    pub fn record(&self, rec: PerfRecord) {
        if let Some(buf) = &self.inner {
            buf.lock().unwrap_or_else(PoisonError::into_inner).push(rec);
        }
    }

    /// Appends many records at once — the engines' fold path: buffer
    /// per-shard during the run, extend once at the end.
    pub fn extend(&self, records: impl IntoIterator<Item = PerfRecord>) {
        if let Some(buf) = &self.inner {
            buf.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend(records);
        }
    }

    /// Takes every record out of the handle (empty afterwards).
    pub fn take(&self) -> Vec<PerfRecord> {
        match &self.inner {
            Some(buf) => std::mem::take(&mut *buf.lock().unwrap_or_else(PoisonError::into_inner)),
            None => Vec::new(),
        }
    }

    /// Copies the records out without draining.
    pub fn snapshot(&self) -> Vec<PerfRecord> {
        match &self.inner {
            Some(buf) => buf.lock().unwrap_or_else(PoisonError::into_inner).clone(),
            None => Vec::new(),
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(buf) => buf.lock().unwrap_or_else(PoisonError::into_inner).len(),
            None => 0,
        }
    }

    /// True when no records are held (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// File-level metadata: which run a perf log belongs to.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PerfMeta {
    /// Run / experiment name.
    pub run: String,
    /// Study cell index, when the log belongs to one grid cell.
    pub cell: Option<u64>,
    /// Backend that produced the records.
    pub backend: String,
}

/// Serializes a perf log as versioned JSONL: one meta header line, then
/// one record per line (`{"t":…,"k":"…","n":…,"v":…}`).
pub fn write_jsonl(meta: &PerfMeta, records: &[PerfRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 48);
    out.push_str(&format!("{{\"perflog\":{PERFLOG_SCHEMA},\"run\":"));
    json::push_str(&mut out, &meta.run);
    if let Some(cell) = meta.cell {
        out.push_str(&format!(",\"cell\":{cell}"));
    }
    out.push_str(",\"backend\":");
    json::push_str(&mut out, &meta.backend);
    out.push_str(&format!(",\"records\":{}}}\n", records.len()));
    for r in records {
        out.push_str(&format!(
            "{{\"t\":{},\"k\":\"{}\",\"n\":{},\"v\":{}}}\n",
            r.t_ns,
            r.kind.label(),
            r.node,
            r.value
        ));
    }
    out
}

/// A required `u64` field, read exactly from its digits (never through
/// `f64`).
fn uint(key: &str, value: Option<json::Scalar<'_>>) -> Result<u64, String> {
    match value {
        Some(json::Scalar::Num(text)) => text.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| format!("field {key:?} is missing or not a u64"))
}

/// A required string field.
fn string<'a>(key: &str, value: Option<json::Scalar<'a>>) -> Result<Cow<'a, str>, String> {
    match value {
        Some(json::Scalar::Str(s)) => Some(s),
        _ => None,
    }
    .ok_or_else(|| format!("field {key:?} is missing or not a string"))
}

fn parse_record(line: &str) -> Result<PerfRecord, String> {
    let [t, k, n, v] = json::read_flat(line, ["t", "k", "n", "v"]).map_err(|e| e.to_string())?;
    let label = string("k", k)?;
    let node = uint("n", n)?;
    Ok(PerfRecord {
        t_ns: uint("t", t)?,
        kind: PerfKind::from_label(&label).ok_or_else(|| format!("unknown perf kind {label:?}"))?,
        node: u32::try_from(node).map_err(|_| format!("node {node} exceeds u32"))?,
        value: uint("v", v)?,
    })
}

/// Parses a perf log produced by [`write_jsonl`]. Strict: malformed JSON,
/// a missing, repeated or unknown field, unknown kinds, a schema bump, or
/// a record-count mismatch are errors — the committed artifacts must not
/// drift silently, and hostile input never panics.
pub fn parse_jsonl(text: &str) -> Result<(PerfMeta, Vec<PerfRecord>), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty perf log")?;
    let keys = ["perflog", "run", "cell", "backend", "records"];
    let [schema, run, cell, backend, declared] =
        json::read_flat(header, keys).map_err(|e| format!("header: {e}"))?;
    let schema = uint("perflog", schema)?;
    if schema > u64::from(PERFLOG_SCHEMA) {
        return Err(format!(
            "perf log schema {schema} is newer than supported {PERFLOG_SCHEMA}"
        ));
    }
    let meta = PerfMeta {
        run: string("run", run)?.into_owned(),
        cell: cell.map(|c| uint("cell", Some(c))).transpose()?,
        backend: string("backend", backend)?.into_owned(),
    };
    let declared = uint("records", declared)?;
    // Grown by the lines present, never sized by the (untrusted) declared count.
    let records = lines
        .enumerate()
        .map(|(i, line)| parse_record(line).map_err(|e| format!("record {}: {e}", i + 1)))
        .collect::<Result<Vec<_>, _>>()?;
    if records.len() as u64 != declared {
        return Err(format!(
            "perf log declares {declared} records but carries {}",
            records.len()
        ));
    }
    Ok((meta, records))
}

/// Filtered view over a record slice: chainable filters, then terminal
/// aggregates. Borrowing and allocation-free until a terminal call.
#[derive(Debug, Clone, Copy)]
pub struct PerfQuery<'a> {
    records: &'a [PerfRecord],
    kind: Option<PerfKind>,
    class: Option<PerfClass>,
    node: Option<u32>,
    since: u64,
    until: u64,
}

impl<'a> PerfQuery<'a> {
    /// A query over every record in `records`.
    pub fn new(records: &'a [PerfRecord]) -> Self {
        Self {
            records,
            kind: None,
            class: None,
            node: None,
            since: 0,
            until: u64::MAX,
        }
    }

    /// Keep only records of `kind`.
    pub fn kind(mut self, kind: PerfKind) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Keep only records whose kind belongs to `class`.
    pub fn class(mut self, class: PerfClass) -> Self {
        self.class = Some(class);
        self
    }

    /// Keep only records of one node (or shard, for engine gauges).
    pub fn node(mut self, node: u32) -> Self {
        self.node = Some(node);
        self
    }

    /// Keep only records with `since <= t_ns < until`.
    pub fn between(mut self, since: u64, until: u64) -> Self {
        self.since = since;
        self.until = until;
        self
    }

    fn matches(&self, r: &PerfRecord) -> bool {
        self.kind.is_none_or(|k| r.kind == k)
            && self.class.is_none_or(|c| r.kind.class() == c)
            && self.node.is_none_or(|n| r.node == n)
            && r.t_ns >= self.since
            && r.t_ns < self.until
    }

    /// Iterator over the matching records.
    pub fn iter(&self) -> impl Iterator<Item = &'a PerfRecord> + '_ {
        self.records.iter().filter(|r| self.matches(r))
    }

    /// Number of matching records.
    pub fn count(&self) -> u64 {
        self.iter().count() as u64
    }

    /// Matching `value`s, sorted ascending (the percentile input).
    pub fn values(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.iter().map(|r| r.value).collect();
        v.sort_unstable();
        v
    }

    /// Sum of matching `value`s.
    pub fn total(&self) -> u64 {
        self.iter().map(|r| r.value).sum()
    }

    /// Nearest-rank percentile of the matching values (`p` in 1..=100).
    /// Pure integer selection — byte-stable on every platform.
    pub fn percentile(&self, p: u8) -> Option<u64> {
        percentile(&self.values(), p)
    }
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub fn percentile(sorted: &[u64], p: u8) -> Option<u64> {
    if sorted.is_empty() || p == 0 || p > 100 {
        return None;
    }
    let rank = (u64::from(p) * sorted.len() as u64).div_ceil(100);
    sorted.get(rank as usize - 1).copied()
}

/// p50/p99 summary of one stage kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Which stage.
    pub kind: PerfKind,
    /// Samples seen.
    pub count: u64,
    /// Median service time, ns.
    pub p50_ns: u64,
    /// 99th-percentile service time, ns (nearest rank).
    pub p99_ns: u64,
}

/// Study-level rollup of one run's perf log: per-stage latency
/// percentiles plus steal/probe rates — the summary `StudyReport`
/// carries into JSON/CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRollup {
    /// Stages that recorded at least one sample, in [`PerfKind::ALL`]
    /// order.
    pub stages: Vec<StageStats>,
    /// Total records rolled up.
    pub records: u64,
    /// Timestamp of the latest record, ns (the rate denominator).
    pub span_ns: u64,
    /// Work-steal events.
    pub steals: u64,
    /// Steals per second of span.
    pub steal_per_sec: f64,
    /// Directory probes issued.
    pub probes: u64,
    /// Probes per second of span.
    pub probe_per_sec: f64,
    /// Device-cache hit ratio over hit+miss events (0 when none).
    pub dev_hit_ratio: f64,
    /// Host-cache hit ratio over hit+miss events (0 when none).
    pub host_hit_ratio: f64,
}

impl PerfRollup {
    /// Rolls up a record set. Depends only on the multiset of records, so
    /// it is byte-stable across engine thread counts.
    pub fn from_records(records: &[PerfRecord]) -> Self {
        let span_ns = records.iter().map(|r| r.t_ns).max().unwrap_or(0);
        let mut stages = Vec::new();
        for &kind in PerfKind::ALL.iter().filter(|k| k.is_stage()) {
            let vals = PerfQuery::new(records).kind(kind).values();
            if let (Some(p50), Some(p99)) = (percentile(&vals, 50), percentile(&vals, 99)) {
                stages.push(StageStats {
                    kind,
                    count: vals.len() as u64,
                    p50_ns: p50,
                    p99_ns: p99,
                });
            }
        }
        let q = |k: PerfKind| PerfQuery::new(records).kind(k).count();
        let ratio = |hit: u64, miss: u64| {
            if hit + miss == 0 {
                0.0
            } else {
                hit as f64 / (hit + miss) as f64
            }
        };
        let steals = q(PerfKind::Steal);
        let probes = q(PerfKind::Probe);
        let rate = |n: u64| {
            if span_ns == 0 {
                0.0
            } else {
                n as f64 * 1e9 / span_ns as f64
            }
        };
        Self {
            stages,
            records: records.len() as u64,
            span_ns,
            steals,
            steal_per_sec: rate(steals),
            probes,
            probe_per_sec: rate(probes),
            dev_hit_ratio: ratio(q(PerfKind::DevHit), q(PerfKind::DevMiss)),
            host_hit_ratio: ratio(q(PerfKind::HostHit), q(PerfKind::HostMiss)),
        }
    }

    /// The rolled-up stats of one stage, if it recorded samples.
    pub fn stage(&self, kind: PerfKind) -> Option<&StageStats> {
        self.stages.iter().find(|s| s.kind == kind)
    }

    /// Serializes the rollup as one JSON object (floats under the
    /// [`json::num`] policy).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"stages\":{");
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                s.kind.label(),
                s.count,
                s.p50_ns,
                s.p99_ns
            ));
        }
        out.push_str(&format!(
            "}},\"records\":{},\"span_ns\":{},\"steals\":{},\"steal_per_sec\":{},\
             \"probes\":{},\"probe_per_sec\":{},\"dev_hit_ratio\":{},\"host_hit_ratio\":{}}}",
            self.records,
            self.span_ns,
            self.steals,
            json::num(self.steal_per_sec),
            self.probes,
            json::num(self.probe_per_sec),
            json::num(self.dev_hit_ratio),
            json::num(self.host_hit_ratio),
        ));
        out
    }
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

    #[test]
    fn kind_labels_round_trip() {
        for &k in PerfKind::ALL {
            assert_eq!(PerfKind::from_label(k.label()), Some(k), "{k:?}");
        }
        assert_eq!(PerfKind::from_label("bogus"), None);
        // Labels must be unique (they are the wire representation).
        let mut labels: Vec<&str> = PerfKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), PerfKind::ALL.len());
    }

    #[test]
    fn disabled_log_is_inert() {
        let log = PerfLog::disabled();
        assert!(!log.is_enabled());
        log.record(rec(1, PerfKind::Compare, 0, 10));
        log.extend([rec(2, PerfKind::Parse, 0, 20)]);
        assert!(log.is_empty());
        assert!(log.take().is_empty());
    }

    #[test]
    fn enabled_log_collects_and_drains() {
        let log = PerfLog::enabled();
        let clone = log.clone();
        log.record(rec(1, PerfKind::Compare, 0, 10));
        clone.record(rec(2, PerfKind::Compare, 1, 30));
        assert_eq!(log.len(), 2);
        let taken = log.take();
        assert_eq!(taken.len(), 2);
        assert!(clone.is_empty(), "take drains every clone's view");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = vec![10, 20, 30, 40];
        assert_eq!(percentile(&v, 50), Some(20));
        assert_eq!(percentile(&v, 99), Some(40));
        assert_eq!(percentile(&v, 100), Some(40));
        assert_eq!(percentile(&v, 1), Some(10));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&v, 0), None);
        assert_eq!(percentile(&[7], 50), Some(7));
    }

    #[test]
    fn query_filters_compose() {
        let records = vec![
            rec(10, PerfKind::Compare, 0, 100),
            rec(20, PerfKind::Compare, 1, 200),
            rec(30, PerfKind::Parse, 0, 300),
            rec(40, PerfKind::Steal, 2, 4),
            rec(50, PerfKind::DevHit, 0, 7),
        ];
        let q = PerfQuery::new(&records);
        assert_eq!(q.count(), 5);
        assert_eq!(q.kind(PerfKind::Compare).count(), 2);
        assert_eq!(q.kind(PerfKind::Compare).node(1).count(), 1);
        assert_eq!(q.class(PerfClass::Stage).count(), 3);
        assert_eq!(q.class(PerfClass::Cache).count(), 1);
        assert_eq!(q.between(20, 40).count(), 2);
        assert_eq!(q.kind(PerfKind::Compare).percentile(50), Some(100));
        assert_eq!(q.kind(PerfKind::Steal).total(), 4);
    }

    #[test]
    fn busy_time_is_the_per_kind_sum_of_stage_durations() {
        // What Fig 8's bars plot: total time of the tasks each resource ran.
        let records = vec![
            rec(10, PerfKind::Compare, 0, 10),
            rec(30, PerfKind::Compare, 1, 20),
            rec(35, PerfKind::Preprocess, 0, 5),
            rec(7, PerfKind::Parse, 1, 7),
            rec(35, PerfKind::DevHit, 0, 99),
        ];
        let q = PerfQuery::new(&records);
        assert_eq!(q.kind(PerfKind::Compare).total(), 30);
        assert_eq!(q.kind(PerfKind::Compare).node(1).total(), 20);
        assert_eq!(q.kind(PerfKind::Preprocess).total(), 5);
        assert_eq!(q.kind(PerfKind::Read).total(), 0);
        assert_eq!(q.class(PerfClass::Stage).total(), 42);
        let roll = PerfRollup::from_records(&records);
        assert_eq!(roll.span_ns, 35, "makespan is the latest completion");
        assert_eq!(roll.stage(PerfKind::Compare).map(|s| s.count), Some(2));
    }

    #[test]
    fn jsonl_round_trips() {
        let meta = PerfMeta {
            run: "fig12".into(),
            cell: Some(3),
            backend: "sim".into(),
        };
        let records = vec![
            rec(10, PerfKind::Read, 0, 1000),
            rec(20, PerfKind::Compare, 5, 2000),
            rec(30, PerfKind::QueueDepth, 1, 42),
        ];
        let text = write_jsonl(&meta, &records);
        assert!(text.starts_with(&format!("{{\"perflog\":{PERFLOG_SCHEMA},")));
        let (meta2, records2) = parse_jsonl(&text).expect("parse");
        assert_eq!(meta, meta2);
        assert_eq!(records, records2);
        // Serialization is deterministic.
        assert_eq!(text, write_jsonl(&meta2, &records2));
    }

    #[test]
    fn jsonl_without_cell_round_trips() {
        let meta = PerfMeta {
            run: "adhoc".into(),
            cell: None,
            backend: "threaded".into(),
        };
        let text = write_jsonl(&meta, &[]);
        let (meta2, records) = parse_jsonl(&text).expect("parse");
        assert_eq!(meta2.cell, None);
        assert!(records.is_empty());
    }

    #[test]
    fn parser_rejects_drift() {
        assert!(parse_jsonl("").is_err());
        let newer = format!(
            "{{\"perflog\":{},\"run\":\"x\",\"backend\":\"sim\",\"records\":0}}\n",
            PERFLOG_SCHEMA + 1
        );
        assert!(parse_jsonl(&newer).unwrap_err().contains("newer"));
        let unknown = "{\"perflog\":1,\"run\":\"x\",\"backend\":\"sim\",\"records\":1}\n\
                       {\"t\":1,\"k\":\"warp_drive\",\"n\":0,\"v\":2}\n";
        assert!(parse_jsonl(unknown).unwrap_err().contains("warp_drive"));
        let short = "{\"perflog\":1,\"run\":\"x\",\"backend\":\"sim\",\"records\":2}\n\
                     {\"t\":1,\"k\":\"compare\",\"n\":0,\"v\":2}\n";
        assert!(parse_jsonl(short).unwrap_err().contains("declares 2"));
        let header = "{\"perflog\":1,\"run\":\"x\",\"backend\":\"sim\",\"records\":1}\n";
        for (line, why) in [
            (
                "{\"t\":1,\"k\":\"compare\",\"n\":0}",
                "field \"v\" is missing",
            ),
            (
                "{\"t\":1,\"k\":\"compare\",\"n\":0,\"v\":2,\"t\":3}",
                "repeated field \"t\"",
            ),
            (
                "{\"t\":1,\"k\":\"compare\",\"n\":0,\"v\":2,\"x\":3}",
                "unknown field \"x\"",
            ),
            ("{\"t\":1.5,\"k\":\"compare\",\"n\":0,\"v\":2}", "not a u64"),
            ("{\"t\":-1,\"k\":\"compare\",\"n\":0,\"v\":2}", "not a u64"),
            (
                "{\"t\":\"1\",\"k\":\"compare\",\"n\":0,\"v\":2}",
                "not a u64",
            ),
            (
                "{\"t\":[1],\"k\":\"compare\",\"n\":0,\"v\":2}",
                "unexpected '['",
            ),
        ] {
            let err = parse_jsonl(&format!("{header}{line}\n")).unwrap_err();
            assert!(err.contains(why), "{line}: {err}");
        }
        let no_run = "{\"perflog\":1,\"backend\":\"sim\",\"records\":0}\n";
        assert!(parse_jsonl(no_run)
            .unwrap_err()
            .contains("field \"run\" is missing"));
    }

    #[test]
    fn hostile_names_round_trip() {
        for name in ["a\"b", "a\nb", "x\"cell\":7", "\u{1}", "ä→"] {
            let meta = PerfMeta {
                run: name.into(),
                cell: None,
                backend: format!("{name}{name}"),
            };
            let records = vec![rec(1, PerfKind::Compare, 0, 2)];
            let text = write_jsonl(&meta, &records);
            assert!(
                !text.trim_end().contains(|c: char| c < ' ' && c != '\n'),
                "{name:?} wrote a raw control character"
            );
            assert_eq!(parse_jsonl(&text), Ok((meta, records)), "{name:?}");
        }
    }

    #[test]
    fn declared_count_never_sizes_the_allocation() {
        let text = "{\"perflog\":1,\"run\":\"x\",\"backend\":\"sim\",\"records\":1000000000000}\n\
                    {\"t\":1,\"k\":\"compare\",\"n\":0,\"v\":2}\n";
        let err = parse_jsonl(text).unwrap_err();
        assert!(
            err.contains("declares 1000000000000 records but carries 1"),
            "{err}"
        );
    }

    #[test]
    fn integers_read_back_exactly() {
        let meta = PerfMeta::default();
        for x in [u64::MAX, (1 << 53) + 1] {
            let records = vec![rec(x, PerfKind::Steal, u32::MAX, x)];
            let (_, back) = parse_jsonl(&write_jsonl(&meta, &records)).expect("parse");
            assert_eq!(back, records);
        }
        // A node id wider than u32 is an error, not a silent truncation.
        let text = "{\"perflog\":1,\"run\":\"\",\"backend\":\"\",\"records\":1}\n\
                    {\"t\":1,\"k\":\"steal\",\"n\":9007199254740993,\"v\":2}\n";
        assert!(parse_jsonl(text).unwrap_err().contains("exceeds u32"));
    }

    #[test]
    fn rollup_summarizes_stages_and_rates() {
        let mut records = Vec::new();
        for i in 0..100u64 {
            records.push(rec(i * 10, PerfKind::Compare, 0, 1000 + i));
        }
        records.push(rec(1000, PerfKind::Steal, 1, 64));
        records.push(rec(1000, PerfKind::Probe, 1, 3));
        records.push(rec(1000, PerfKind::DevHit, 0, 1));
        records.push(rec(1000, PerfKind::DevHit, 0, 2));
        records.push(rec(1000, PerfKind::DevMiss, 0, 3));
        let roll = PerfRollup::from_records(&records);
        assert_eq!(roll.records, records.len() as u64);
        assert_eq!(roll.span_ns, 1000);
        let cmp = roll.stage(PerfKind::Compare).expect("compare stage");
        assert_eq!(cmp.count, 100);
        assert_eq!(cmp.p50_ns, 1049);
        assert_eq!(cmp.p99_ns, 1098);
        assert_eq!(roll.stage(PerfKind::Parse), None);
        assert_eq!(roll.steals, 1);
        assert!((roll.steal_per_sec - 1e6).abs() < 1e-9);
        assert_eq!(roll.probes, 1);
        assert!((roll.dev_hit_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(roll.host_hit_ratio, 0.0);
        let json = roll.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"compare\":{\"count\":100,\"p50_ns\":1049,\"p99_ns\":1098}"));
        // Rollup is a pure function of the record multiset.
        assert_eq!(roll, PerfRollup::from_records(&records));
    }

    #[test]
    fn empty_rollup_is_all_zeroes() {
        let roll = PerfRollup::from_records(&[]);
        assert!(roll.stages.is_empty());
        assert_eq!(roll.span_ns, 0);
        assert_eq!(roll.steal_per_sec, 0.0);
        assert_eq!(roll.to_json().matches(':').count(), 9);
    }
}
