//! Deterministic random-number generation, probability distributions, and
//! summary statistics for the Rocket framework.
//!
//! Everything in the Rocket workspace that needs randomness — synthetic data
//! generators, service-time sampling in the discrete-event simulator — draws
//! from this crate so that every experiment is reproducible from a single
//! `u64` seed.
//!
//! The crate provides:
//!
//! * [`rng`] — a self-contained `xoshiro256**` generator ([`rng::Xoshiro256`]),
//!   plus [`rng::SeedSequence`] for deriving independent child seeds for
//!   sub-components,
//! * [`dist`] — continuous distributions (normal, log-normal, gamma,
//!   exponential, …) implemented directly on top of the generator since
//!   `rand_distr` is not available offline,
//! * [`online`] — streaming mean/variance/min/max (Welford),
//! * [`histogram`] — fixed-bin histograms used by the figure reproduction
//!   harness.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod histogram;
pub mod online;
pub mod rng;

pub use dist::Dist;
pub use histogram::Histogram;
pub use online::OnlineStats;
pub use rng::{splitmix64, SeedSequence, Xoshiro256};
