//! Micro-benchmarks for the slot cache (§4.1's central data structure):
//! hit path, miss + eviction churn, and the distributed-cache directory.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rocket_cache::{Directory, Lookup, SlotCache};
use rocket_stats::Xoshiro256;

fn bench_hits(c: &mut Criterion) {
    let mut group = c.benchmark_group("slot_cache");
    group.throughput(Throughput::Elements(1));

    group.bench_function("hit_release", |b| {
        let mut cache: SlotCache<u32> = SlotCache::with_item_space(1024, 1024);
        for item in 0..1024u64 {
            if let Lookup::MustLoad(slot) = cache.get(item, || 0) {
                cache.publish(slot);
            }
        }
        let mut rng = Xoshiro256::seed_from(1);
        b.iter(|| {
            let item = rng.below(1024) as u64;
            if let Lookup::Hit(slot) = cache.get(black_box(item), || 0) {
                cache.release(slot);
            }
        });
    });

    group.bench_function("miss_evict_publish", |b| {
        // Working set twice the cache: every access evicts.
        let mut cache: SlotCache<u32> = SlotCache::with_item_space(512, 4096);
        let mut rng = Xoshiro256::seed_from(2);
        b.iter(|| {
            let item = rng.below(4096) as u64;
            match cache.get(black_box(item), || 0) {
                Lookup::Hit(slot) => {
                    cache.release(slot);
                }
                Lookup::MustLoad(slot) => {
                    cache.publish(slot);
                }
                _ => {}
            }
        });
    });

    group.bench_function("lru_scan_resistance_1m_slots", |b| {
        // O(1) eviction must hold at Fig 9's extreme slot counts.
        let mut cache: SlotCache<u32> = SlotCache::with_item_space(1_000_000, 1_000_000);
        for item in 0..1_000_000u64 {
            if let Lookup::MustLoad(slot) = cache.get(item, || 0) {
                cache.publish(slot);
            }
        }
        let mut next = 1_000_000u64;
        b.iter(|| {
            if let Lookup::MustLoad(slot) = cache.get(black_box(next), || 0) {
                cache.publish(slot);
            }
            next += 1;
        });
    });
    group.finish();
}

fn bench_directory(c: &mut Criterion) {
    let mut group = c.benchmark_group("directory");
    group.throughput(Throughput::Elements(1));
    group.bench_function("lookup_roundtrip_16_nodes", |b| {
        let mut dirs: Vec<Directory> = (0..16).map(|n| Directory::new(n, 16, 3)).collect();
        let mut item = 0u64;
        b.iter(|| {
            let requester = (item % 16) as usize;
            let (mut to, mut msg) = dirs[requester].begin_lookup(black_box(item));
            loop {
                let (outgoing, res) = dirs[to].handle(msg, |_| false);
                if to == requester && res != rocket_cache::Resolution::InFlight {
                    break;
                }
                let Some((next_to, next_msg)) = outgoing.into_iter().next() else {
                    break;
                };
                to = next_to;
                msg = next_msg;
            }
            item += 1;
        });
    });
    group.finish();
}

criterion_group!(benches, bench_hits, bench_directory);
criterion_main!(benches);
