//! The three real-world applications of the Rocket paper (§5), rebuilt on
//! synthetic data with verifiable ground truth:
//!
//! * [`forensics`] — common-source camera identification: PRNU noise
//!   residual extraction + normalized cross-correlation,
//! * [`bioinfo`] — alignment-free phylogeny: k-mer composition vectors +
//!   sparse correlation distance (with [`phylo`] finishing the tree),
//! * [`microscopy`] — localization-microscopy particle fusion: GMM-based
//!   registration with rotation search.
//!
//! Each module ships a data generator (`*Dataset::generate`) producing an
//! in-memory object store plus ground truth, and an [`rocket_core::Application`]
//! implementation whose stages do real compute. [`profiles`] exposes the
//! paper's Table 1 timing/size characteristics for the simulator.

#![warn(missing_docs)]

pub mod bioinfo;
pub mod forensics;
/// JSON for particle files and the benchmark harness — the workspace's
/// one JSON module, defined in `rocket-trace` (see [`rocket_core::json`]).
pub use rocket_core::json;
pub mod microscopy;
pub mod phylo;
pub mod profiles;

pub use bioinfo::{BioApp, BioConfig, BioDataset};
pub use forensics::{ForensicsApp, ForensicsConfig, ForensicsDataset};
pub use microscopy::{Metric, MicroscopyApp, MicroscopyConfig, MicroscopyDataset, Registration};
pub use profiles::WorkloadProfile;
