//! Device performance profiles.
//!
//! The constants model the GPUs named in the paper's evaluation (§6.2, §6.5,
//! §6.6). `compute_scale` is relative single-precision throughput normalized
//! to the TitanX Maxwell (the paper's single-node baseline, Table 1);
//! memory sizes are the boards' actual capacities. Bandwidths approximate
//! PCIe 3.0 x16 (the DAS-5 nodes).

use std::time::Duration;

/// Static performance description of one (virtual) GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name, e.g. "TitanX-Maxwell".
    pub name: String,
    /// Device memory capacity in bytes.
    pub memory_bytes: u64,
    /// Relative compute throughput (1.0 = TitanX Maxwell). A kernel that
    /// takes `t` on the baseline takes `t / compute_scale` here.
    pub compute_scale: f64,
    /// Host-to-device copy bandwidth in bytes/second.
    pub h2d_bytes_per_sec: f64,
    /// Device-to-host copy bandwidth in bytes/second.
    pub d2h_bytes_per_sec: f64,
    /// GPU architecture generation (for reporting).
    pub generation: &'static str,
}

const GB: u64 = 1_000_000_000;
const PCIE3: f64 = 12.0e9; // ~12 GB/s effective PCIe 3.0 x16

impl DeviceProfile {
    fn new(name: &str, memory_bytes: u64, compute_scale: f64, generation: &'static str) -> Self {
        Self {
            name: name.to_string(),
            memory_bytes,
            compute_scale,
            h2d_bytes_per_sec: PCIE3,
            d2h_bytes_per_sec: PCIE3,
            generation,
        }
    }

    /// NVIDIA TitanX (Maxwell) — the paper's Table 1 baseline device.
    pub fn titanx_maxwell() -> Self {
        Self::new("TitanX-Maxwell", 12 * GB, 1.0, "Maxwell")
    }

    /// NVIDIA Tesla K20m (node I of §6.5).
    pub fn k20m() -> Self {
        Self::new("K20m", 5 * GB, 0.52, "Kepler")
    }

    /// NVIDIA GTX Titan (node IV of §6.5).
    pub fn gtx_titan() -> Self {
        Self::new("GTX-Titan", 6 * GB, 0.70, "Kepler")
    }

    /// NVIDIA GTX 980 (node II of §6.5).
    pub fn gtx980() -> Self {
        Self::new("GTX980", 4 * GB, 0.75, "Maxwell")
    }

    /// NVIDIA TitanX (Pascal) (nodes II and IV of §6.5).
    pub fn titanx_pascal() -> Self {
        Self::new("TitanX-Pascal", 12 * GB, 1.64, "Pascal")
    }

    /// NVIDIA RTX 2080 Ti (node III of §6.5).
    pub fn rtx2080ti() -> Self {
        Self::new("RTX2080Ti", 11 * GB, 2.00, "Turing")
    }

    /// NVIDIA Tesla K40m (Cartesius, §6.6).
    pub fn k40m() -> Self {
        Self::new("K40m", 12 * GB, 0.64, "Kepler")
    }

    /// A tiny device for tests: 1 MB of memory, baseline speed.
    pub fn test_tiny() -> Self {
        Self::new("test-tiny", 1_000_000, 1.0, "Test")
    }

    /// Overrides the memory capacity (used by cache-size sweeps).
    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// Time for this device to run a kernel that takes `baseline` on the
    /// TitanX Maxwell reference.
    pub fn scaled(&self, baseline: Duration) -> Duration {
        Duration::from_secs_f64(baseline.as_secs_f64() / self.compute_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_unit_scale() {
        assert_eq!(DeviceProfile::titanx_maxwell().compute_scale, 1.0);
    }

    #[test]
    fn faster_device_runs_kernels_faster() {
        let base = Duration::from_millis(100);
        let fast = DeviceProfile::rtx2080ti().scaled(base);
        let slow = DeviceProfile::k20m().scaled(base);
        assert!(fast < base);
        assert!(slow > base);
        assert!((fast.as_secs_f64() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn paper_device_memories() {
        assert_eq!(DeviceProfile::k20m().memory_bytes, 5 * GB);
        assert_eq!(DeviceProfile::rtx2080ti().memory_bytes, 11 * GB);
        assert_eq!(DeviceProfile::titanx_maxwell().memory_bytes, 12 * GB);
    }

    #[test]
    fn builders_override() {
        let p = DeviceProfile::test_tiny().with_memory(42);
        assert_eq!(p.memory_bytes, 42);
    }

    #[test]
    fn ordering_of_paper_generations() {
        // §6.5: "more powerful GPUs (e.g., RTX2080Ti) delivering a higher
        // processing rate than others (e.g., GTX980)".
        assert!(DeviceProfile::rtx2080ti().compute_scale > DeviceProfile::gtx980().compute_scale);
        assert!(
            DeviceProfile::titanx_pascal().compute_scale
                > DeviceProfile::titanx_maxwell().compute_scale
        );
        assert!(DeviceProfile::k20m().compute_scale < DeviceProfile::gtx_titan().compute_scale);
    }
}
