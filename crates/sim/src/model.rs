//! The paper's performance model (§6.1, Equations 1–5).
//!
//! A lower bound on the run time of an all-pairs workload on a hypothetical
//! system with infinite memory (perfect reuse, R = 1), infinite I/O
//! bandwidth, and perfectly overlapped processing:
//!
//! * Eq 1: `T_GPU = R·n·t_pre + C(n,2)·t_cmp`
//! * Eq 2: `T_CPU = R·n·t_parse + C(n,2)·t_post`
//! * Eq 3: `T_IO ≈ R·n·file_size / io_bandwidth`
//! * Eq 4: `T_min = n·t_pre + C(n,2)·t_cmp` (T_GPU at R = 1)
//! * Eq 5: `system efficiency = (T_min / p) / T_measured`
//!
//! All times are seconds on the baseline GPU (TitanX Maxwell); for
//! heterogeneous platforms `p` generalizes to the sum of relative compute
//! scales.

use rocket_core::WorkloadProfile;
use rocket_gpu::DeviceProfile;

/// Eq 1: total GPU processing time for a given reuse factor R.
pub fn t_gpu(w: &WorkloadProfile, r: f64) -> f64 {
    let pre = w.preprocess.as_ref().map_or(0.0, |d| d.mean());
    r * w.items as f64 * pre + w.pairs() as f64 * w.compare.mean()
}

/// Eq 2: total CPU processing time for a given reuse factor R.
pub fn t_cpu(w: &WorkloadProfile, r: f64) -> f64 {
    r * w.items as f64 * w.parse.mean() + w.pairs() as f64 * w.postprocess.mean()
}

/// Eq 3: I/O time estimate for a given reuse factor R and bandwidth
/// (bytes/second).
pub fn t_io(w: &WorkloadProfile, r: f64, io_bandwidth: f64) -> f64 {
    if !io_bandwidth.is_finite() || io_bandwidth <= 0.0 {
        return 0.0;
    }
    r * w.items as f64 * w.file_bytes as f64 / io_bandwidth
}

/// Eq 4: the lower bound on run time (`T_GPU` at `R = 1`), single baseline
/// GPU.
pub fn t_min(w: &WorkloadProfile) -> f64 {
    t_gpu(w, 1.0)
}

/// Aggregate compute capacity of a set of GPUs relative to the baseline
/// (1.0 per TitanX Maxwell).
pub fn capacity(gpus: &[DeviceProfile]) -> f64 {
    gpus.iter().map(|g| g.compute_scale).sum()
}

/// Eq 5: system efficiency of a measured run time on `gpus`.
pub fn system_efficiency(w: &WorkloadProfile, gpus: &[DeviceProfile], measured_secs: f64) -> f64 {
    if measured_secs <= 0.0 {
        return 0.0;
    }
    (t_min(w) / capacity(gpus)) / measured_secs
}

/// The modelled best-case run time: max of the three resource times, with
/// GPU capacity `cap` (Eq "perfect overlap" paragraph).
pub fn t_model(w: &WorkloadProfile, r: f64, cap: f64, io_bandwidth: f64) -> f64 {
    let gpu = t_gpu(w, r) / cap;
    let cpu = t_cpu(w, r); // CPU pool capacity folded into caller if needed
    let io = t_io(w, r, io_bandwidth);
    gpu.max(cpu).max(io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket_apps::profiles;

    #[test]
    fn tmin_matches_hand_computation() {
        let w = profiles::forensics();
        // n·20.5ms + C(n,2)·1.1ms
        let expect = 4980.0 * 20.5e-3 + 12_397_710.0 * 1.1e-3;
        assert!((t_min(&w) - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn forensics_single_node_runtime_magnitude() {
        // §6.3/Fig 8: the forensics run on one TitanX takes ~4 hours.
        let w = profiles::forensics();
        let t = t_min(&w);
        assert!(t > 3.0 * 3600.0 && t < 5.0 * 3600.0, "T_min = {t} s");
    }

    #[test]
    fn microscopy_tmin_is_compare_only() {
        let w = profiles::microscopy();
        assert!((t_min(&w) - w.pairs() as f64 * 564.3e-3).abs() < 1.0);
    }

    #[test]
    fn higher_r_increases_all_times() {
        let w = profiles::bioinformatics();
        assert!(t_gpu(&w, 5.0) > t_gpu(&w, 1.0));
        assert!(t_cpu(&w, 5.0) > t_cpu(&w, 1.0));
        assert!(t_io(&w, 5.0, 1e9) > t_io(&w, 1.0, 1e9));
    }

    #[test]
    fn efficiency_of_perfect_run_is_one() {
        let w = profiles::microscopy();
        let gpus = vec![DeviceProfile::titanx_maxwell(); 4];
        let perfect = t_min(&w) / 4.0;
        let eff = system_efficiency(&w, &gpus, perfect);
        assert!((eff - 1.0).abs() < 1e-12);
        // Slower measured run → lower efficiency.
        assert!(system_efficiency(&w, &gpus, perfect * 2.0) < 0.51);
    }

    #[test]
    fn heterogeneous_capacity_sums_scales() {
        let gpus = vec![DeviceProfile::k20m(), DeviceProfile::rtx2080ti()];
        assert!((capacity(&gpus) - 2.52).abs() < 1e-12);
    }

    #[test]
    fn infinite_bandwidth_makes_io_free() {
        let w = profiles::forensics();
        assert_eq!(t_io(&w, 3.0, f64::INFINITY), 0.0);
    }

    #[test]
    fn model_takes_binding_resource() {
        let w = profiles::forensics();
        // With massive R and slow storage, I/O dominates.
        let io_bound = t_model(&w, 100.0, 1.0, 1e6);
        assert!((io_bound - t_io(&w, 100.0, 1e6)).abs() < 1e-6);
        // With R = 1 and fast storage, the GPU dominates.
        let gpu_bound = t_model(&w, 1.0, 1.0, f64::INFINITY);
        assert!((gpu_bound - t_gpu(&w, 1.0)).abs() < 1e-6);
    }
}
