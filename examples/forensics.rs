//! Common-source camera identification (the paper's §5.1 application).
//!
//! Generates a synthetic image set with genuine per-camera PRNU noise,
//! runs the all-pairs NCC comparison on the Rocket runtime with two
//! virtual GPUs, and checks the scores separate same-camera pairs from
//! different-camera pairs.
//!
//! ```text
//! cargo run --release --example forensics
//! ```

use std::sync::Arc;

use rocket::apps::{ForensicsApp, ForensicsConfig, ForensicsDataset};
use rocket::core::{NodeSpec, Scenario, ThreadedBackend};

fn main() {
    let config = ForensicsConfig {
        images: 32,
        cameras: 4,
        width: 64,
        height: 64,
        ..Default::default()
    };
    println!(
        "generating {} images from {} cameras ({}x{}) ...",
        config.images, config.cameras, config.width, config.height
    );
    let dataset = ForensicsDataset::generate(config.clone());
    let app = Arc::new(ForensicsApp::new(&config));

    let scenario = Scenario::builder()
        .items(config.images)
        // Two virtual GPUs share the node's host cache.
        .node(NodeSpec::uniform(2, 12, 32))
        .job_limit(12)
        .build();
    let camera_of = dataset.camera_of.clone();
    let backend = ThreadedBackend::new(app, Arc::new(dataset.store));
    let report = backend.run_app(&scenario).expect("run failed");

    println!(
        "compared {} pairs in {:.3}s | loads {} (R = {:.2}) | host hits {:.0}%",
        report.outputs.len(),
        report.report.elapsed,
        report.report.loads,
        report.report.r_factor(),
        report.report.host_cache.hit_ratio() * 100.0
    );

    // Score separation: the smallest same-camera NCC must exceed the
    // largest different-camera NCC.
    let mut same = Vec::new();
    let mut diff = Vec::new();
    for &(pair, score) in report.sorted_outputs().into_iter() {
        if camera_of[pair.left as usize] == camera_of[pair.right as usize] {
            same.push(score);
        } else {
            diff.push(score);
        }
    }
    let min_same = same.iter().cloned().fold(f64::INFINITY, f64::min);
    let max_diff = diff.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "same-camera NCC range  [{min_same:.4}, {:.4}]  ({} pairs)",
        same.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        same.len()
    );
    println!(
        "cross-camera NCC range [{:.4}, {max_diff:.4}]  ({} pairs)",
        diff.iter().cloned().fold(f64::INFINITY, f64::min),
        diff.len()
    );
    assert!(min_same > max_diff, "PRNU failed to separate cameras");
    println!("camera attribution is perfectly separable: ok");
}
