//! Quickstart: define a tiny all-pairs application and run it on Rocket.
//!
//! The "application" hashes each input file into a 64-bit fingerprint
//! (the load pipeline ℓ) and compares fingerprints by Hamming distance
//! (the pairwise function f). Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use rocket::core::{AppError, Application, NodeSpec, Pair, Scenario, ThreadedBackend};
use rocket::storage::MemStore;

/// Hamming distance between per-file fingerprints.
struct Fingerprint {
    files: u64,
}

impl Application for Fingerprint {
    type Output = u32;

    fn name(&self) -> &str {
        "fingerprint"
    }

    fn item_count(&self) -> u64 {
        self.files
    }

    fn file_for(&self, item: u64) -> String {
        format!("inputs/{item}.bin")
    }

    fn parsed_bytes(&self) -> usize {
        8
    }

    fn item_bytes(&self) -> usize {
        8
    }

    fn result_bytes(&self) -> usize {
        4
    }

    fn has_preprocess(&self) -> bool {
        false // parse output is directly comparable
    }

    /// CPU stage: FNV-hash the raw bytes into a fingerprint.
    fn parse(&self, _item: u64, raw: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in raw {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        out[..8].copy_from_slice(&h.to_le_bytes());
        Ok(())
    }

    /// "GPU" stage: Hamming distance of the two fingerprints.
    fn compare(
        &self,
        left: (u64, &[u8]),
        right: (u64, &[u8]),
        out: &mut [u8],
    ) -> Result<(), AppError> {
        let l = u64::from_le_bytes(left.1[..8].try_into().unwrap());
        let r = u64::from_le_bytes(right.1[..8].try_into().unwrap());
        out[..4].copy_from_slice(&(l ^ r).count_ones().to_le_bytes());
        Ok(())
    }

    fn postprocess(&self, _pair: Pair, raw: &[u8]) -> u32 {
        u32::from_le_bytes(raw[..4].try_into().unwrap())
    }
}

fn main() {
    // Synthetic inputs: 12 files, three of which are identical copies.
    let store = MemStore::new();
    for i in 0..12u64 {
        let content = if i % 4 == 0 {
            b"the same file content".to_vec()
        } else {
            format!("file number {i} with unique content").into_bytes()
        };
        store.put(format!("inputs/{i}.bin"), content);
    }

    // Declare the run: 12 items on one node with one GPU, a 6-slot device
    // cache, and a 12-slot host cache.
    let scenario = Scenario::builder()
        .items(12)
        .node(NodeSpec::uniform(1, 6, 12))
        .job_limit(8)
        .build();

    let app = Arc::new(Fingerprint { files: 12 });
    let backend = ThreadedBackend::new(app, Arc::new(store));
    let report = backend.run_app(&scenario).expect("run failed");

    println!(
        "processed {} pairs in {:.3}s",
        report.outputs.len(),
        report.report.elapsed
    );
    println!(
        "loads: {} (R = {:.2}), device cache hit ratio {:.0}%",
        report.report.loads,
        report.report.r_factor(),
        report.report.device_cache.hit_ratio() * 100.0
    );
    let identical: Vec<_> = report
        .sorted_outputs()
        .into_iter()
        .filter(|(_, d)| *d == 0)
        .map(|(p, _)| (p.left, p.right))
        .collect();
    println!("identical file pairs (Hamming distance 0): {identical:?}");
    assert_eq!(identical, vec![(0, 4), (0, 8), (4, 8)]);
    println!("ok");
}
