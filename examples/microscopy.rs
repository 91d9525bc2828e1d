//! Localization-microscopy particle fusion (the paper's §5.3 application):
//! all-to-all registration of synthetic particles on the Rocket runtime,
//! verifying pose recovery against the generator's ground truth.
//!
//! ```text
//! cargo run --release --example microscopy
//! ```

use std::sync::Arc;

use rocket::apps::{MicroscopyApp, MicroscopyConfig, MicroscopyDataset};
use rocket::core::{NodeSpec, Scenario, ThreadedBackend};

fn main() {
    let config = MicroscopyConfig {
        particles: 10,
        structures: 1, // one structure: every pair should register
        labelling: 1.0,
        noise: 0.02, // σ = 2·noise stays well under the spiral radial step
        points_min: 80,
        points_max: 140,
        ..Default::default()
    };
    println!("generating {} particles ...", config.particles);
    let dataset = MicroscopyDataset::generate(config.clone());
    let rotation_of = dataset.rotation_of.clone();
    let app = Arc::new(MicroscopyApp::new(&config));

    let scenario = Scenario::builder()
        .items(config.particles)
        .node(NodeSpec::uniform(1, 10, 10))
        .job_limit(4)
        .build();
    let backend = ThreadedBackend::new(app, Arc::new(dataset.store));
    let report = backend.run_app(&scenario).expect("run failed");
    println!(
        "registered {} particle pairs in {:.3}s",
        report.outputs.len(),
        report.report.elapsed
    );

    let tau = std::f64::consts::TAU;
    let mut worst = 0.0f64;
    let mut evals = Vec::new();
    for &(pair, reg) in report.sorted_outputs().into_iter() {
        let expected =
            (rotation_of[pair.right as usize] - rotation_of[pair.left as usize]).rem_euclid(tau);
        let mut err = (reg.rotation - expected).abs();
        err = err.min(tau - err);
        worst = worst.max(err);
        evals.push(reg.evaluations);
    }
    println!(
        "worst pose-recovery error: {:.1}° | score evaluations per pair: {}..{}",
        worst.to_degrees(),
        evals.iter().min().unwrap(),
        evals.iter().max().unwrap()
    );
    assert!(worst < 0.3, "registration failed: {worst} rad");
    println!("all relative poses recovered: ok");
}
