//! Virtual GPU device model — the stand-in for CUDA in this reproduction.
//!
//! Rocket treats application kernels as black boxes (§5 of the paper); what
//! the runtime needs from a "GPU" is:
//!
//! * **device memory with a hard capacity** — this is what forces cache
//!   evictions and drives the paper's R (re-load) metric,
//! * **in-order execution per engine** — one kernel queue plus separate
//!   host-to-device and device-to-host copy engines, so transfers overlap
//!   compute (§4.3),
//! * **a performance profile** — relative compute speed and link bandwidth,
//!   which is how the heterogeneity experiments (Fig 13/14) distinguish a
//!   K20m from an RTX 2080 Ti.
//!
//! [`VirtualDevice`] provides all three. Kernels are plain Rust closures
//! executed on host memory standing in for device memory; the runtime's
//! per-device threads serialize engine use exactly like CUDA streams.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod profile;

pub use device::{BufferId, DeviceError, VirtualDevice};
pub use profile::DeviceProfile;
