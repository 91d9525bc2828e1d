//! Cache statistics.

/// Counters for one [`crate::SlotCache`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests satisfied by a READ slot immediately.
    pub hits: u64,
    /// Requests that found the item being written and had to wait.
    pub hits_pending: u64,
    /// Requests that missed and reserved a slot for loading.
    pub misses: u64,
    /// Requests that found no evictable slot and had to back off.
    pub capacity_stalls: u64,
    /// Occupied slots discarded to make room.
    pub evictions: u64,
    /// Writes aborted (load failures).
    pub aborts: u64,
}

impl CacheStats {
    /// Total requests observed (hits + pending hits + misses; capacity
    /// stalls are retried and counted again on the retry).
    pub fn requests(&self) -> u64 {
        self.hits + self.hits_pending + self.misses
    }

    /// Hit ratio over all requests, counting pending hits as hits (the data
    /// was present or in flight — no extra load was triggered).
    pub fn hit_ratio(&self) -> f64 {
        let req = self.requests();
        if req == 0 {
            0.0
        } else {
            (self.hits + self.hits_pending) as f64 / req as f64
        }
    }

    /// Adds another instance's counters (for per-node → cluster roll-ups).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.hits_pending += other.hits_pending;
        self.misses += other.misses;
        self.capacity_stalls += other.capacity_stalls;
        self.evictions += other.evictions;
        self.aborts += other.aborts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_counts_pending_as_hits() {
        let s = CacheStats {
            hits: 6,
            hits_pending: 2,
            misses: 2,
            ..Default::default()
        };
        assert_eq!(s.requests(), 10);
        assert!((s.hit_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_ratio_zero() {
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CacheStats {
            hits: 1,
            hits_pending: 2,
            misses: 3,
            capacity_stalls: 4,
            evictions: 5,
            aborts: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.hits, 2);
        assert_eq!(a.aborts, 12);
    }
}
