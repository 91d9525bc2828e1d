//! Phylogeny tree construction (the paper's §5.2 application), end to end:
//! synthetic proteomes → all-pairs composition-vector distances on Rocket →
//! UPGMA tree → Newick output, with a cluster-recovery check.
//!
//! ```text
//! cargo run --release --example phylogeny
//! ```

use std::sync::Arc;

use rocket::apps::phylo;
use rocket::apps::{BioApp, BioConfig, BioDataset};
use rocket::core::{NodeSpec, Scenario, ThreadedBackend};

fn main() {
    let config = BioConfig {
        species: 18,
        clusters: 3,
        proteome_len: 3000,
        ..Default::default()
    };
    println!(
        "generating {} proteomes from {} ancestral clusters ...",
        config.species, config.clusters
    );
    let dataset = BioDataset::generate(config.clone());
    let app = Arc::new(BioApp::new(&config));
    let cluster_of = dataset.cluster_of.clone();

    let scenario = Scenario::builder()
        .items(config.species)
        .node(NodeSpec::uniform(1, 9, 18))
        .job_limit(4)
        .build();
    let backend = ThreadedBackend::new(app, Arc::new(dataset.store));
    let report = backend.run_app(&scenario).expect("run failed");
    println!(
        "computed {} pairwise distances in {:.3}s (R = {:.2})",
        report.outputs.len(),
        report.report.elapsed,
        report.report.r_factor()
    );

    // Assemble the condensed distance matrix in canonical order.
    let n = config.species as usize;
    let mut dist = vec![0.0f64; n * (n - 1) / 2];
    for &(pair, d) in report.sorted_outputs().into_iter() {
        dist[phylo::condensed_index(n, pair.left as usize, pair.right as usize)] = d;
    }

    let tree = phylo::upgma(n, &dist);
    let newick = tree.to_newick(&|leaf| format!("sp{leaf:02}c{}", cluster_of[leaf]));
    println!("UPGMA tree:\n{newick}");

    // Every ancestral cluster must form a clade.
    for c in 0..config.clusters {
        let want: Vec<usize> = (0..n).filter(|&s| cluster_of[s] == c).collect();
        let found = (tree.leaves..tree.leaves + tree.merges.len())
            .any(|node| tree.leaves_under(node) == want);
        assert!(found, "cluster {c} is not a clade");
        println!("cluster {c}: {} species form a clade: ok", want.len());
    }
}
