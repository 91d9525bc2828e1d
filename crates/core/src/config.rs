//! Runtime configuration.

use rocket_gpu::DeviceProfile;

/// Configuration of one Rocket node (and, via [`crate::cluster`], of every
/// node of an in-process cluster).
#[derive(Debug, Clone)]
pub struct RocketConfig {
    /// Device profiles — one virtual GPU per entry.
    pub devices: Vec<DeviceProfile>,
    /// Slots in each per-device cache (level 1).
    pub device_cache_slots: usize,
    /// Slots in the per-node host cache (level 2).
    pub host_cache_slots: usize,
    /// Maximum jobs simultaneously in flight per node (§4.2 back-pressure).
    pub concurrent_job_limit: usize,
    /// CPU worker threads per node (parse / post-process pool).
    pub cpu_threads: usize,
    /// Maximum hops of the distributed cache lookup (the paper's `h`).
    pub distributed_hops: usize,
    /// Whether the level-3 distributed cache is enabled at all (Fig 12
    /// compares both settings).
    pub distributed_cache: bool,
    /// Pairs per leaf task in the quadrant decomposition.
    pub leaf_pairs: u64,
    /// Deterministic work assignment: statically partition the pair
    /// triangle over workers instead of work-stealing (reproducible
    /// per-node pair counts; static load balance).
    pub static_partition: bool,
    /// Storage read retries before an item load fails.
    pub io_retries: usize,
    /// Attempts to load an item before failing jobs that depend on it.
    pub max_item_failures: u32,
    /// Root seed for all randomized decisions.
    pub seed: u64,
}

const SEED_DEFAULT: u64 = 0x52_6f_63_6b_65_74_21_21; // "Rocket!!"

impl Default for RocketConfig {
    fn default() -> Self {
        RocketConfigBuilder::default().config
    }
}

impl RocketConfig {
    /// Starts a builder with defaults.
    pub fn builder() -> RocketConfigBuilder {
        RocketConfigBuilder::default()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices.is_empty() {
            return Err("at least one device is required".into());
        }
        if self.device_cache_slots < 2 {
            return Err("device cache needs at least 2 slots (a pair occupies two)".into());
        }
        if self.host_cache_slots < 1 {
            return Err("host cache needs at least 1 slot".into());
        }
        if self.concurrent_job_limit < 1 {
            return Err("concurrent job limit must be positive".into());
        }
        if self.cpu_threads < 1 {
            return Err("at least one CPU thread is required".into());
        }
        if self.distributed_hops < 1 {
            return Err("distributed hops (h) must be at least 1".into());
        }
        Ok(())
    }
}

/// Builder for [`RocketConfig`].
#[derive(Debug, Clone)]
pub struct RocketConfigBuilder {
    config: RocketConfig,
}

impl Default for RocketConfigBuilder {
    fn default() -> Self {
        Self {
            config: RocketConfig {
                devices: vec![DeviceProfile::titanx_maxwell()],
                device_cache_slots: 64,
                host_cache_slots: 256,
                concurrent_job_limit: 64,
                cpu_threads: 2,
                distributed_hops: 1,
                distributed_cache: true,
                leaf_pairs: 1,
                static_partition: false,
                io_retries: 2,
                max_item_failures: 5,
                seed: SEED_DEFAULT,
            },
        }
    }
}

impl RocketConfigBuilder {
    /// Uses `n` TitanX-Maxwell devices.
    pub fn devices(mut self, n: usize) -> Self {
        self.config.devices = (0..n).map(|_| DeviceProfile::titanx_maxwell()).collect();
        self
    }

    /// Uses the given device profiles.
    pub fn device_profiles(mut self, profiles: Vec<DeviceProfile>) -> Self {
        self.config.devices = profiles;
        self
    }

    /// Sets per-device cache slots.
    pub fn device_cache_slots(mut self, slots: usize) -> Self {
        self.config.device_cache_slots = slots;
        self
    }

    /// Sets host cache slots.
    pub fn host_cache_slots(mut self, slots: usize) -> Self {
        self.config.host_cache_slots = slots;
        self
    }

    /// Sets the concurrent job limit.
    pub fn concurrent_job_limit(mut self, limit: usize) -> Self {
        self.config.concurrent_job_limit = limit;
        self
    }

    /// Sets CPU pool size.
    pub fn cpu_threads(mut self, n: usize) -> Self {
        self.config.cpu_threads = n;
        self
    }

    /// Sets the distributed-cache hop limit `h`.
    pub fn distributed_hops(mut self, h: usize) -> Self {
        self.config.distributed_hops = h;
        self
    }

    /// Enables/disables the level-3 distributed cache.
    pub fn distributed_cache(mut self, on: bool) -> Self {
        self.config.distributed_cache = on;
        self
    }

    /// Sets pairs per leaf task.
    pub fn leaf_pairs(mut self, pairs: u64) -> Self {
        self.config.leaf_pairs = pairs;
        self
    }

    /// Enables/disables deterministic static work assignment.
    pub fn static_partition(mut self, on: bool) -> Self {
        self.config.static_partition = on;
        self
    }

    /// Sets storage retries.
    pub fn io_retries(mut self, retries: usize) -> Self {
        self.config.io_retries = retries;
        self
    }

    /// Sets the per-item failure budget.
    pub fn max_item_failures(mut self, n: u32) -> Self {
        self.config.max_item_failures = n;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finalizes the configuration (panics on invalid settings; use
    /// [`RocketConfigBuilder::try_build`] for fallible construction).
    pub fn build(self) -> RocketConfig {
        self.try_build().expect("invalid RocketConfig")
    }

    /// Finalizes, returning an error message for invalid settings.
    pub fn try_build(self) -> Result<RocketConfig, String> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let c = RocketConfig::builder().build();
        assert_eq!(c.devices.len(), 1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_overrides() {
        let c = RocketConfig::builder()
            .devices(2)
            .device_cache_slots(8)
            .host_cache_slots(32)
            .concurrent_job_limit(4)
            .distributed_hops(3)
            .distributed_cache(false)
            .seed(42)
            .build();
        assert_eq!(c.devices.len(), 2);
        assert_eq!(c.device_cache_slots, 8);
        assert_eq!(c.distributed_hops, 3);
        assert!(!c.distributed_cache);
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(RocketConfig::builder().devices(0).try_build().is_err());
        assert!(RocketConfig::builder()
            .device_cache_slots(1)
            .try_build()
            .is_err());
        assert!(RocketConfig::builder()
            .concurrent_job_limit(0)
            .try_build()
            .is_err());
        assert!(RocketConfig::builder().cpu_threads(0).try_build().is_err());
        assert!(RocketConfig::builder()
            .distributed_hops(0)
            .try_build()
            .is_err());
    }
}
