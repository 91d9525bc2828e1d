//! Run a real application over both cluster transports and compare:
//! in-process channels vs loopback TCP sockets — the same `Scenario`, the
//! same results, but the socket run pushes the directory and item-fetch
//! protocols through real length-prefixed frames over real connections.
//!
//! ```text
//! cargo run --release --example socket_cluster [nodes]
//! ```

use std::sync::Arc;

use rocket::apps::{ForensicsApp, ForensicsConfig, ForensicsDataset};
use rocket::core::{Application, NodeSpec, Scenario, ThreadedBackend, TransportKind};

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    // A small synthetic forensics data set; every node sees the same
    // shared object store (the paper's central file server).
    let cfg = ForensicsConfig {
        images: 32,
        cameras: 4,
        width: 48,
        height: 48,
        seed: 0xC0FFEE,
        ..Default::default()
    };
    let ds = ForensicsDataset::generate(cfg.clone());
    let app = Arc::new(ForensicsApp::new(&cfg));
    let items = app.item_count();
    let backend = ThreadedBackend::new(app, Arc::new(ds.store));

    println!("forensics, n = {items}, {nodes} nodes × 1 GPU, distributed cache on\n");
    println!(
        "{:<10}  {:>16}  {:>7}  {:>5}  {:>9}  {:>12}  {:>9}",
        "transport", "backend", "pairs", "R", "net msgs", "net bytes", "runtime"
    );
    for kind in [TransportKind::Local, TransportKind::Socket] {
        let scenario = Scenario::builder()
            .items(items)
            .nodes(nodes, NodeSpec::uniform(1, 8, items as usize))
            .job_limit(8)
            .cpu_threads(2)
            .leaf_pairs(8)
            // Static partition: per-node pair counts become deterministic,
            // so the two transports are comparable row by row.
            .static_partition(true)
            .transport(kind)
            .build();
        let report = backend.run_app(&scenario).expect("cluster run").report;
        println!(
            "{:<10}  {:>16}  {:>7}  {:>5.2}  {:>9}  {:>12}  {:>8.2}s",
            kind.label(),
            report.backend,
            report.pairs,
            report.r_factor(),
            report.net_msgs,
            report.net_bytes,
            report.elapsed,
        );
    }
    println!(
        "\nthe socket row names the backend \"threaded+socket\" and pushes\n\
         its traffic through real TCP frames; pair counts are identical —\n\
         the transport changes the wire, never the answer."
    );
}
