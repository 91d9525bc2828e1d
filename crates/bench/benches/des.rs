//! Micro-benchmarks for the discrete-event simulator: raw event-queue
//! throughput (the engine's slab heap and the unused calendar queue) and
//! full cluster-simulation rate (pairs simulated/second) through the
//! unified `Scenario`/`Backend` API.
//!
//! The cluster scenarios are the canonical anchors from
//! [`rocket_bench::anchors`] — the same configurations the `benchmark/`
//! harness and the shard-equivalence tests use, so a
//! bench regression and a correctness regression point at the same
//! scenario.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rocket_bench::anchors;
use rocket_core::{Backend, Scenario};
use rocket_sim::{CalendarQueue, EventQueue, SimBackend, SlabEventQueue};

fn bench_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(1));
    group.bench_function("schedule_pop", |b| {
        let mut q: SlabEventQueue<u64> = SlabEventQueue::new();
        let mut t = 0u64;
        // Keep a standing population of 1024 events.
        for i in 0..1024 {
            q.schedule_at(i, i);
        }
        b.iter(|| {
            let (at, _) = q.pop().expect("event");
            t = at + 1000;
            q.schedule_at(black_box(t), t);
        });
    });
    group.bench_function("schedule_pop_calendar", |b| {
        let mut q: CalendarQueue<u64> = CalendarQueue::new();
        let mut t = 0u64;
        for i in 0..1024 {
            q.schedule_at(i, i);
        }
        b.iter(|| {
            let (at, _) = q.pop().expect("event");
            t = at + 1000;
            q.schedule_at(black_box(t), t);
        });
    });
    group.finish();
}

fn run_pairs(backend: &SimBackend, s: &Scenario) -> u64 {
    backend.run(black_box(s)).expect("sim run").pairs
}

fn bench_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_sim");
    group.sample_size(10);
    let n = 96u64;
    group.throughput(Throughput::Elements(n * (n - 1) / 2));
    group.bench_function("single_node_n96", |b| {
        let s = anchors::single_node_n96();
        b.iter(|| run_pairs(&SimBackend::new(), &s));
    });
    group.bench_function("four_nodes_n96_distcache", |b| {
        let s = anchors::four_nodes_n96_distcache();
        b.iter(|| run_pairs(&SimBackend::new(), &s));
    });
    group.bench_function("four_nodes_n96_distcache_4shards", |b| {
        let s = anchors::four_nodes_n96_distcache();
        b.iter(|| run_pairs(&SimBackend::sharded(4), &s));
    });
    group.finish();
}

fn bench_large_cluster(c: &mut Criterion) {
    // The scaling configuration the hot-path overhaul targets: 64 GPUs over
    // 16 nodes, n=256 items (32 640 pairs), distributed cache on.
    let mut group = c.benchmark_group("cluster_sim");
    group.sample_size(10);
    let n = 256u64;
    group.throughput(Throughput::Elements(n * (n - 1) / 2));
    group.bench_function("sixteen_nodes_4gpu_n256_distcache", |b| {
        let s = anchors::sixteen_nodes_4gpu_n256_distcache();
        b.iter(|| run_pairs(&SimBackend::new(), &s));
    });
    group.finish();
}

fn bench_thousand_nodes(c: &mut Criterion) {
    // The thousands-of-nodes anchor the sharded engine targets: 1024
    // single-GPU nodes, 523 776 pairs, cloud-scale network latency.
    // Sequential vs 8 shards on the steal pool — the results are
    // byte-identical, only wall-clock differs (the parallel win needs
    // hardware threads; the benchmark harness labels every number with
    // host_parallelism).
    let mut group = c.benchmark_group("cluster_sim");
    group.sample_size(10);
    let n = 1024u64;
    group.throughput(Throughput::Elements(n * (n - 1) / 2));
    group.bench_function("thousand_nodes", |b| {
        let s = anchors::thousand_nodes();
        b.iter(|| run_pairs(&SimBackend::new(), &s));
    });
    group.bench_function("thousand_nodes_8shards", |b| {
        let s = anchors::thousand_nodes();
        b.iter(|| run_pairs(&SimBackend::sharded(8), &s));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_queue,
    bench_cluster,
    bench_large_cluster,
    bench_thousand_nodes
);
criterion_main!(benches);
