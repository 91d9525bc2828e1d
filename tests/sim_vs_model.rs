//! Integration tests of the simulator against the paper's performance
//! model and headline claims (shape, not absolute numbers).

use rocket::apps::{profiles, WorkloadProfile};
use rocket::core::{Backend, NodeSpec, RunReport, Scenario};
use rocket::gpu::DeviceProfile;
use rocket::sim::{model, SimBackend};

fn scaled_forensics() -> WorkloadProfile {
    profiles::forensics().scaled(40)
}

fn das5_node(w: &WorkloadProfile, scale: u64) -> NodeSpec {
    let slots = |gb: f64| ((gb * 1e9 / w.item_bytes as f64 / scale as f64) as usize).max(2);
    NodeSpec::uniform(1, slots(11.0), slots(40.0))
}

/// `nodes` copies of `node` running `w`, on the builder defaults.
fn cluster(w: &WorkloadProfile, nodes: usize, node: &NodeSpec) -> Scenario {
    Scenario::builder()
        .workload(w.clone())
        .nodes(nodes, node.clone())
        .build()
}

fn sim(s: &Scenario) -> RunReport {
    SimBackend::new().run(s).expect("sim run")
}

#[test]
fn perfect_cache_meets_model_lower_bound() {
    for w in profiles::all() {
        let w = w.scaled(40);
        let node = NodeSpec::uniform(1, w.items as usize, w.items as usize);
        let r = sim(&cluster(&w, 1, &node));
        assert!((r.r_factor() - 1.0).abs() < 1e-9, "{}: R != 1", w.name);
        let tmin = model::t_min(&w);
        let ratio = r.elapsed / tmin;
        assert!(
            (0.95..1.2).contains(&ratio),
            "{}: makespan {} vs T_min {tmin} (ratio {ratio})",
            w.name,
            r.elapsed
        );
    }
}

#[test]
fn super_linear_speedup_with_distributed_cache() {
    // The paper's headline (Fig 12): forensics on 16 nodes is super-linear
    // with the distributed cache, sub-linear without.
    let scale = 40;
    let w = scaled_forensics();
    let node = das5_node(&w, scale);
    let run = |nodes: usize, dist: bool| {
        let mut s = cluster(&w, nodes, &node);
        s.distributed_cache = dist;
        sim(&s)
    };
    let t1 = run(1, true);
    let on = run(8, true);
    let off = run(8, false);
    let speedup_on = t1.elapsed / on.elapsed;
    let speedup_off = t1.elapsed / off.elapsed;
    assert!(
        speedup_on > 8.0,
        "expected super-linear speedup with distributed cache, got {speedup_on:.2}"
    );
    assert!(speedup_on > speedup_off, "{speedup_on} vs {speedup_off}");
    // R falls with the distributed cache, grows without it.
    assert!(on.r_factor() < t1.r_factor());
    assert!(off.r_factor() >= t1.r_factor() * 0.95);
    // I/O pressure is much lower with the distributed cache.
    assert!(on.io_bytes < off.io_bytes);
}

#[test]
fn heterogeneous_cluster_is_balanced() {
    // §6.5: combined heterogeneous nodes reach at least the sum of parts,
    // and each GPU's share tracks its relative speed.
    let w = profiles::microscopy().scaled(2);
    let slots = w.items as usize;
    let mk = |gpus: Vec<DeviceProfile>| NodeSpec::with_gpus(gpus, slots, slots);
    let nodes = [
        mk(vec![DeviceProfile::k20m()]),
        mk(vec![DeviceProfile::rtx2080ti(), DeviceProfile::rtx2080ti()]),
    ];
    let mut sum = 0.0;
    for n in &nodes {
        sum += sim(&cluster(&w, 1, n)).throughput();
    }
    let both = Scenario::builder()
        .workload(w)
        .node(nodes[0].clone())
        .node(nodes[1].clone())
        .build();
    let all = sim(&both);
    assert!(
        all.throughput() > 0.9 * sum,
        "combined {:.1} pairs/s vs sum {sum:.1}",
        all.throughput()
    );
    // Node II (2× RTX) must do far more pairs than node I (1× K20m).
    assert!(all.pairs_per_node[1] > 3 * all.pairs_per_node[0]);
}

#[test]
fn hop_distribution_dominated_by_first_hop() {
    let scale = 40;
    let w = scaled_forensics();
    let mut s = cluster(&w, 8, &das5_node(&w, scale));
    s.hops = 3;
    let r = sim(&s);
    let lookups = r.directory.lookups();
    assert!(lookups > 0);
    let hop1 = r.directory.hits_at_hop.first().copied().unwrap_or(0);
    let later: u64 = r.directory.hits_at_hop.iter().skip(1).sum();
    assert!(
        hop1 > 3 * later,
        "first hop {hop1} vs later hops {later} of {lookups}"
    );
}

#[test]
fn r_factor_decreases_with_cluster_size() {
    // Fig 15's driving effect: more nodes → larger combined cache → lower R.
    let scale = 40;
    let w = profiles::bioinformatics_large().scaled(scale);
    let slots = |gb: f64| ((gb * 1e9 / w.item_bytes as f64 / scale as f64) as usize).max(2);
    let node = NodeSpec::with_gpus(
        vec![DeviceProfile::k40m(), DeviceProfile::k40m()],
        slots(11.0),
        slots(80.0),
    );
    let r_of = |p: usize| sim(&cluster(&w, p, &node)).r_factor();
    let r1 = r_of(1);
    let r4 = r_of(4);
    let r8 = r_of(8);
    assert!(
        r1 > r4 && r4 > r8,
        "R sequence {r1:.2} → {r4:.2} → {r8:.2} not decreasing"
    );
    assert!(r1 > 2.0, "single node should thrash: R = {r1:.2}");
}

#[test]
fn simulator_is_deterministic_across_runs() {
    let w = profiles::bioinformatics().scaled(40);
    let s = cluster(&w, 4, &das5_node(&w, 40));
    let a = sim(&s);
    let b = sim(&s);
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.loads, b.loads);
    assert_eq!(a.io_bytes, b.io_bytes);
    assert_eq!(a.pairs_per_node, b.pairs_per_node);
}
