//! Workload descriptions: the stage-time and size characteristics a
//! [`crate::Scenario`] carries.
//!
//! A [`WorkloadProfile`] statistically describes one all-pairs workload —
//! item counts and sizes plus per-stage service-time distributions. The
//! discrete-event simulator samples the distributions; the threaded
//! runtime executes a real [`crate::Application`] and uses only the item
//! count. The paper's three measured profiles (Table 1 / Fig 7) are
//! constructed in `rocket_apps::profiles`.

use rocket_stats::Dist;

/// Statistical description of one all-pairs workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Application name.
    pub name: &'static str,
    /// Number of input files (the paper's n).
    pub items: u64,
    /// Average file size on disk in bytes.
    pub file_bytes: u64,
    /// Pre-processed item size in bytes (= cache slot size).
    pub item_bytes: u64,
    /// Parse time on the CPU, seconds.
    pub parse: Dist,
    /// Pre-processing kernel time on the baseline GPU, seconds (`None` for
    /// applications without a pre-processing stage).
    pub preprocess: Option<Dist>,
    /// Comparison kernel time on the baseline GPU, seconds.
    pub compare: Dist,
    /// Post-processing time on the CPU, seconds.
    pub postprocess: Dist,
    /// Device cache slots used in the paper's single-node baseline.
    pub paper_device_slots: usize,
    /// Host cache slots used in the paper's single-node baseline.
    pub paper_host_slots: usize,
}

impl WorkloadProfile {
    /// A featureless workload of `items` items with zero-cost stages.
    ///
    /// Lets threaded-runtime scenarios describe cluster topology without
    /// measured stage statistics — the real [`crate::Application`] supplies
    /// the actual compute. Simulating such a workload is legal but
    /// degenerate (every stage takes zero virtual time).
    pub fn items_only(items: u64) -> Self {
        Self {
            name: "custom",
            items,
            file_bytes: 1,
            item_bytes: 1,
            parse: Dist::Constant(0.0),
            preprocess: None,
            compare: Dist::Constant(0.0),
            postprocess: Dist::Constant(0.0),
            paper_device_slots: 2,
            paper_host_slots: 2,
        }
    }

    /// Total number of pairs `n(n−1)/2`.
    pub fn pairs(&self) -> u64 {
        self.items * (self.items - 1) / 2
    }

    /// Mean time of one full load `ℓ` (parse + pre-process), seconds.
    pub fn mean_load_seconds(&self) -> f64 {
        self.parse.mean() + self.preprocess.as_ref().map_or(0.0, |d| d.mean())
    }

    /// Scales the data-set size by `1/scale`, preserving both the
    /// cache-slots to items ratio (what the reuse factor R depends on) and
    /// the compute-to-load balance. `scale = 1` is the paper's full size.
    ///
    /// Comparisons are quadratic in n while loads are linear, so shrinking
    /// n alone would make loading look artificially expensive; multiplying
    /// the comparison time by the same factor keeps
    /// `pairs·t_cmp : n·t_load` invariant.
    pub fn scaled(&self, scale: u64) -> WorkloadProfile {
        assert!(scale >= 1);
        let mut p = self.clone();
        p.items = (p.items / scale).max(4);
        p.compare = p.compare.scaled_by(scale as f64);
        let s = |slots: usize| ((slots as u64 / scale) as usize).max(2);
        p.paper_device_slots = s(p.paper_device_slots);
        p.paper_host_slots = s(p.paper_host_slots);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_only_is_minimal_but_valid() {
        let w = WorkloadProfile::items_only(12);
        assert_eq!(w.items, 12);
        assert_eq!(w.pairs(), 66);
        assert_eq!(w.mean_load_seconds(), 0.0);
        assert!(w.preprocess.is_none());
    }

    #[test]
    fn scaling_shrinks_items_and_slots() {
        let mut w = WorkloadProfile::items_only(100);
        w.paper_device_slots = 50;
        w.paper_host_slots = 80;
        let s = w.scaled(10);
        assert_eq!(s.items, 10);
        assert_eq!(s.paper_device_slots, 5);
        assert_eq!(s.paper_host_slots, 8);
        // Floor of 4 items.
        assert_eq!(w.scaled(1000).items, 4);
    }
}
