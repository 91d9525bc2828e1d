//! Fixed-bin histograms.
//!
//! Used by the reproduction harness for Fig 7 (comparison-time histograms).

/// A histogram with uniform bins over `[lo, hi)`.
///
/// Samples outside the range land in no bin but still count in
/// [`count`](Self::count), so no observation is silently dropped.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "histogram range must be non-empty");
        assert!(bins > 0, "histogram needs at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            count: 0,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        if (self.lo..self.hi).contains(&x) {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            // Floating-point edge: (hi - eps) can round up to bins.len().
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of observations (including out-of-range).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The raw bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// `(bin_center, count)` pairs, for plotting / CSV export.
    pub fn centers(&self) -> Vec<(f64, u64)> {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * w, c))
            .collect()
    }

    /// Renders a compact ASCII sparkline-style row, used in `repro fig7`.
    pub fn ascii(&self, width_per_bin: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let glyphs = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let mut out = String::new();
        for &c in &self.bins {
            let level = (c as f64 / max as f64 * 8.0).round() as usize;
            for _ in 0..width_per_bin.max(1) {
                out.push(glyphs[level.min(8)]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_range() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 10);
        assert!(h.bins().iter().all(|&c| c == 1));
    }

    #[test]
    fn out_of_range_counted() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-0.1);
        h.push(1.0); // hi is exclusive
        h.push(5.0);
        h.push(0.5);
        assert_eq!(h.count(), 4);
        assert_eq!(h.bins(), &[0, 0, 1, 0]);
    }

    #[test]
    fn edge_just_below_hi_lands_in_last_bin() {
        let mut h = Histogram::new(0.0, 1.0, 3);
        h.push(1.0 - 1e-12);
        assert_eq!(h.bins()[2], 1);
    }

    #[test]
    fn centers_are_midpoints() {
        let h = Histogram::new(0.0, 4.0, 4);
        let centers: Vec<f64> = h.centers().iter().map(|&(c, _)| c).collect();
        assert_eq!(centers, vec![0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn ascii_output_has_expected_len() {
        let mut h = Histogram::new(0.0, 1.0, 8);
        h.push(0.1);
        let s = h.ascii(2);
        assert_eq!(s.chars().count(), 16);
    }
}
