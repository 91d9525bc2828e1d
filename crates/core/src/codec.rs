//! Wire encoding of [`Scenario`] and [`RunReport`] — what the cluster
//! backend ships between driver and worker processes.
//!
//! The [`rocket_comm::Wire`] trait supplies the buffer plumbing
//! (length-prefixed strings and vectors, little-endian integers, bit-exact
//! `f64` via `to_bits`); this module supplies the field layouts. Foreign
//! types ([`Dist`], [`DeviceProfile`], [`CacheStats`]…) cannot implement
//! the foreign trait here, so they are encoded through private helper
//! functions; the core-local [`Scenario`], [`WorkloadProfile`],
//! [`NodeSpec`], and [`RunReport`] get real `Wire` impls.
//!
//! Every struct encoder destructures its value with no `..`, and every
//! decoder builds a struct literal, so a field added without a codec edit
//! fails the build (E0027 in the encoder, E0063 in the decoder). Changes
//! to the byte layout itself are caught by the protocol golden in
//! `rocket-cluster` (`crates/cluster/tests/protocol_golden.rs`).
//!
//! `&'static str` fields (workload names, backend names, GPU generations)
//! decode through a process-global interner: known strings are reused,
//! novel ones are leaked exactly once — a worker sees a handful of
//! distinct names over its whole lifetime, so the leak is bounded.

// The panic-path set: faults and hostile bytes return errors (docs/static-checks.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use std::sync::OnceLock;

use rocket_cache::{CacheStats, DirectoryStats, FxHashSet};
use rocket_comm::wire::{Wire, WireError, WireReader, WireWriter};
use rocket_comm::TransportKind;
use rocket_gpu::DeviceProfile;
use rocket_stats::Dist;

use crate::report::{BusyTimes, RunReport};
use crate::scenario::{NodeSpec, Scenario};
use crate::workload::WorkloadProfile;

/// Interns a decoded string into a `&'static str`, leaking each distinct
/// string at most once per process.
#[expect(
    clippy::disallowed_types,
    reason = "a leaf lock held for one set probe and insert, never around another \
              lock, so the lock-order witness has no edge to record"
)]
fn intern(s: String) -> &'static str {
    use std::sync::Mutex;
    static CACHE: OnceLock<Mutex<FxHashSet<&'static str>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(FxHashSet::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(&known) = cache.get(s.as_str()) {
        return known;
    }
    let leaked: &'static str = Box::leak(s.into_boxed_str());
    cache.insert(leaked);
    leaked
}

fn put_bool(w: &mut WireWriter, v: bool) {
    w.put_u8(v as u8);
}

fn get_bool(r: &mut WireReader) -> Result<bool, WireError> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_usize(w: &mut WireWriter, v: usize) {
    w.put_u64(v as u64);
}

fn get_usize(r: &mut WireReader) -> Result<usize, WireError> {
    let v = r.get_u64()?;
    usize::try_from(v).map_err(|_| WireError::BadLength(v))
}

fn put_dist(w: &mut WireWriter, d: &Dist) {
    match d {
        Dist::Constant(v) => {
            w.put_u8(0);
            w.put_f64(*v);
        }
        Dist::Uniform { lo, hi } => {
            w.put_u8(1);
            w.put_f64(*lo);
            w.put_f64(*hi);
        }
        Dist::Normal { mean, std } => {
            w.put_u8(2);
            w.put_f64(*mean);
            w.put_f64(*std);
        }
        Dist::LogNormal { mean, std } => {
            w.put_u8(3);
            w.put_f64(*mean);
            w.put_f64(*std);
        }
        Dist::Gamma { shape, scale } => {
            w.put_u8(4);
            w.put_f64(*shape);
            w.put_f64(*scale);
        }
        Dist::Exponential { mean } => {
            w.put_u8(5);
            w.put_f64(*mean);
        }
        Dist::Truncated { inner, lo, hi } => {
            w.put_u8(6);
            put_dist(w, inner);
            w.put_f64(*lo);
            w.put_f64(*hi);
        }
    }
}

/// Nesting bound for [`Dist::Truncated`]: a hostile frame of repeated
/// tag bytes must fail to decode, not overflow the stack.
const MAX_DIST_DEPTH: u32 = 16;

fn get_dist(r: &mut WireReader) -> Result<Dist, WireError> {
    get_dist_within(r, MAX_DIST_DEPTH)
}

fn get_dist_within(r: &mut WireReader, depth: u32) -> Result<Dist, WireError> {
    Ok(match r.get_u8()? {
        0 => Dist::Constant(r.get_f64()?),
        1 => Dist::Uniform {
            lo: r.get_f64()?,
            hi: r.get_f64()?,
        },
        2 => Dist::Normal {
            mean: r.get_f64()?,
            std: r.get_f64()?,
        },
        3 => Dist::LogNormal {
            mean: r.get_f64()?,
            std: r.get_f64()?,
        },
        4 => Dist::Gamma {
            shape: r.get_f64()?,
            scale: r.get_f64()?,
        },
        5 => Dist::Exponential { mean: r.get_f64()? },
        6 if depth > 0 => Dist::Truncated {
            inner: Box::new(get_dist_within(r, depth - 1)?),
            lo: r.get_f64()?,
            hi: r.get_f64()?,
        },
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_opt_dist(w: &mut WireWriter, d: &Option<Dist>) {
    match d {
        None => w.put_u8(0),
        Some(d) => {
            w.put_u8(1);
            put_dist(w, d);
        }
    }
}

fn get_opt_dist(r: &mut WireReader) -> Result<Option<Dist>, WireError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_dist(r)?)),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_device(w: &mut WireWriter, d: &DeviceProfile) {
    let DeviceProfile {
        name,
        memory_bytes,
        compute_scale,
        h2d_bytes_per_sec,
        d2h_bytes_per_sec,
        generation,
    } = d;
    w.put_str(name);
    w.put_u64(*memory_bytes);
    w.put_f64(*compute_scale);
    w.put_f64(*h2d_bytes_per_sec);
    w.put_f64(*d2h_bytes_per_sec);
    w.put_str(generation);
}

fn get_device(r: &mut WireReader) -> Result<DeviceProfile, WireError> {
    Ok(DeviceProfile {
        name: r.get_str()?,
        memory_bytes: r.get_u64()?,
        compute_scale: r.get_f64()?,
        h2d_bytes_per_sec: r.get_f64()?,
        d2h_bytes_per_sec: r.get_f64()?,
        generation: intern(r.get_str()?),
    })
}

fn put_transport(w: &mut WireWriter, t: TransportKind) {
    w.put_u8(match t {
        TransportKind::Local => 0,
        TransportKind::Socket => 1,
    });
}

fn get_transport(r: &mut WireReader) -> Result<TransportKind, WireError> {
    Ok(match r.get_u8()? {
        0 => TransportKind::Local,
        1 => TransportKind::Socket,
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_cache_stats(w: &mut WireWriter, s: &CacheStats) {
    let CacheStats {
        hits,
        hits_pending,
        misses,
        capacity_stalls,
        evictions,
        aborts,
    } = *s;
    w.put_u64(hits);
    w.put_u64(hits_pending);
    w.put_u64(misses);
    w.put_u64(capacity_stalls);
    w.put_u64(evictions);
    w.put_u64(aborts);
}

fn get_cache_stats(r: &mut WireReader) -> Result<CacheStats, WireError> {
    Ok(CacheStats {
        hits: r.get_u64()?,
        hits_pending: r.get_u64()?,
        misses: r.get_u64()?,
        capacity_stalls: r.get_u64()?,
        evictions: r.get_u64()?,
        aborts: r.get_u64()?,
    })
}

fn put_directory_stats(w: &mut WireWriter, s: &DirectoryStats) {
    let DirectoryStats {
        hits_at_hop,
        misses,
        messages_sent,
    } = s;
    hits_at_hop.encode(w);
    w.put_u64(*misses);
    w.put_u64(*messages_sent);
}

fn get_directory_stats(r: &mut WireReader) -> Result<DirectoryStats, WireError> {
    Ok(DirectoryStats {
        hits_at_hop: Vec::<u64>::decode(r)?,
        misses: r.get_u64()?,
        messages_sent: r.get_u64()?,
    })
}

impl Wire for WorkloadProfile {
    fn encode(&self, w: &mut WireWriter) {
        let WorkloadProfile {
            name,
            items,
            file_bytes,
            item_bytes,
            parse,
            preprocess,
            compare,
            postprocess,
            paper_device_slots,
            paper_host_slots,
        } = self;
        w.put_str(name);
        w.put_u64(*items);
        w.put_u64(*file_bytes);
        w.put_u64(*item_bytes);
        put_dist(w, parse);
        put_opt_dist(w, preprocess);
        put_dist(w, compare);
        put_dist(w, postprocess);
        put_usize(w, *paper_device_slots);
        put_usize(w, *paper_host_slots);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Self {
            name: intern(r.get_str()?),
            items: r.get_u64()?,
            file_bytes: r.get_u64()?,
            item_bytes: r.get_u64()?,
            parse: get_dist(r)?,
            preprocess: get_opt_dist(r)?,
            compare: get_dist(r)?,
            postprocess: get_dist(r)?,
            paper_device_slots: get_usize(r)?,
            paper_host_slots: get_usize(r)?,
        })
    }
}

impl Wire for NodeSpec {
    fn encode(&self, w: &mut WireWriter) {
        let NodeSpec {
            gpus,
            device_slots,
            host_slots,
        } = self;
        w.put_u32(gpus.len() as u32);
        for g in gpus {
            put_device(w, g);
        }
        put_usize(w, *device_slots);
        put_usize(w, *host_slots);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let n = r.get_u32()?;
        // The count is untrusted: reserve as `Vec::<T>::decode` does, so a
        // corrupt prefix fails on the missing bytes instead of aborting
        // the process on an allocation it sized.
        let mut gpus = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            gpus.push(get_device(r)?);
        }
        Ok(Self {
            gpus,
            device_slots: get_usize(r)?,
            host_slots: get_usize(r)?,
        })
    }
}

impl Wire for Scenario {
    fn encode(&self, w: &mut WireWriter) {
        let Scenario {
            workload,
            nodes,
            distributed_cache,
            hops,
            job_limit,
            cpu_threads,
            leaf_pairs,
            static_partition,
            transport,
            storage_bandwidth,
            storage_latency,
            net_bandwidth,
            net_latency,
            seed,
        } = self;
        workload.encode(w);
        nodes.encode(w);
        put_bool(w, *distributed_cache);
        put_usize(w, *hops);
        put_usize(w, *job_limit);
        put_usize(w, *cpu_threads);
        w.put_u64(*leaf_pairs);
        put_bool(w, *static_partition);
        put_transport(w, *transport);
        w.put_f64(*storage_bandwidth);
        w.put_f64(*storage_latency);
        w.put_f64(*net_bandwidth);
        w.put_f64(*net_latency);
        w.put_u64(*seed);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Self {
            workload: WorkloadProfile::decode(r)?,
            nodes: Vec::<NodeSpec>::decode(r)?,
            distributed_cache: get_bool(r)?,
            hops: get_usize(r)?,
            job_limit: get_usize(r)?,
            cpu_threads: get_usize(r)?,
            leaf_pairs: r.get_u64()?,
            static_partition: get_bool(r)?,
            transport: get_transport(r)?,
            storage_bandwidth: r.get_f64()?,
            storage_latency: r.get_f64()?,
            net_bandwidth: r.get_f64()?,
            net_latency: r.get_f64()?,
            seed: r.get_u64()?,
        })
    }
}

impl Wire for RunReport {
    fn encode(&self, w: &mut WireWriter) {
        let RunReport {
            backend,
            elapsed,
            items,
            pairs,
            failed_pairs,
            loads,
            remote_fetches,
            io_bytes,
            net_bytes,
            net_msgs,
            steals,
            busy:
                BusyTimes {
                    preprocess,
                    compare,
                    h2d,
                    d2h,
                    cpu,
                    io,
                },
            device_cache,
            host_cache,
            directory,
            pairs_per_node,
            sim_shards,
            sim_windows,
            degraded,
        } = self;
        w.put_str(backend);
        w.put_f64(*elapsed);
        w.put_u64(*items);
        w.put_u64(*pairs);
        w.put_u64(*failed_pairs);
        w.put_u64(*loads);
        w.put_u64(*remote_fetches);
        w.put_u64(*io_bytes);
        w.put_u64(*net_bytes);
        w.put_u64(*net_msgs);
        w.put_u64(*steals);
        w.put_f64(*preprocess);
        w.put_f64(*compare);
        w.put_f64(*h2d);
        w.put_f64(*d2h);
        w.put_f64(*cpu);
        w.put_f64(*io);
        put_cache_stats(w, device_cache);
        put_cache_stats(w, host_cache);
        put_directory_stats(w, directory);
        pairs_per_node.encode(w);
        w.put_u32(*sim_shards);
        w.put_u64(*sim_windows);
        put_bool(w, *degraded);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(Self {
            backend: intern(r.get_str()?),
            elapsed: r.get_f64()?,
            items: r.get_u64()?,
            pairs: r.get_u64()?,
            failed_pairs: r.get_u64()?,
            loads: r.get_u64()?,
            remote_fetches: r.get_u64()?,
            io_bytes: r.get_u64()?,
            net_bytes: r.get_u64()?,
            net_msgs: r.get_u64()?,
            steals: r.get_u64()?,
            busy: BusyTimes {
                preprocess: r.get_f64()?,
                compare: r.get_f64()?,
                h2d: r.get_f64()?,
                d2h: r.get_f64()?,
                cpu: r.get_f64()?,
                io: r.get_f64()?,
            },
            device_cache: get_cache_stats(r)?,
            host_cache: get_cache_stats(r)?,
            directory: get_directory_stats(r)?,
            pairs_per_node: Vec::<u64>::decode(r)?,
            sim_shards: r.get_u32()?,
            sim_windows: r.get_u64()?,
            degraded: get_bool(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fancy_scenario() -> Scenario {
        let mut workload = WorkloadProfile::items_only(24);
        workload.file_bytes = 2_000_000;
        workload.item_bytes = 30_000_000;
        workload.parse = Dist::normal_nonneg(10e-3, 2e-3);
        workload.preprocess = Some(Dist::Gamma {
            shape: 2.0,
            scale: 3e-3,
        });
        workload.compare = Dist::LogNormal {
            mean: 1e-3,
            std: 4e-4,
        };
        workload.postprocess = Dist::Exponential { mean: 5e-4 };
        Scenario::builder()
            .workload(workload)
            .node(NodeSpec::uniform(2, 8, 16))
            .node(NodeSpec::with_gpus(
                vec![
                    rocket_gpu::DeviceProfile::rtx2080ti(),
                    rocket_gpu::DeviceProfile::gtx980(),
                ],
                4,
                8,
            ))
            .hops(2)
            .job_limit(7)
            .cpu_threads(3)
            .leaf_pairs(5)
            .static_partition(true)
            .transport(TransportKind::Socket)
            .storage(1.5e9, 3e-3)
            .network(6e9, 25e-6)
            .seed(0xC0FFEE)
            .build()
    }

    #[test]
    fn scenario_roundtrips_bit_exact() {
        let s = fancy_scenario();
        let back = Scenario::from_bytes(s.to_bytes()).expect("decode");
        assert_eq!(back, s);
        // Uniform is the one Dist variant the fancy scenario misses.
        let mut u = s.clone();
        u.workload.parse = Dist::Uniform { lo: 0.1, hi: 0.9 };
        assert_eq!(Scenario::from_bytes(u.to_bytes()).unwrap(), u);
    }

    #[test]
    fn infinity_bounds_survive() {
        // normal_nonneg truncates at [0, +inf); f64 goes over as to_bits.
        let s = fancy_scenario();
        let back = Scenario::from_bytes(s.to_bytes()).unwrap();
        match &back.workload.parse {
            Dist::Truncated { hi, .. } => assert!(hi.is_infinite()),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn report_roundtrips() {
        let r = RunReport {
            backend: "sim",
            elapsed: 12.5,
            items: 24,
            pairs: 276,
            failed_pairs: 1,
            loads: 48,
            remote_fetches: 7,
            io_bytes: 1 << 30,
            net_bytes: 1 << 20,
            net_msgs: 333,
            steals: 11,
            busy: BusyTimes {
                preprocess: 1.0,
                compare: 2.0,
                h2d: 0.5,
                d2h: 0.25,
                cpu: 3.5,
                io: 4.0,
            },
            device_cache: CacheStats {
                hits: 1,
                hits_pending: 2,
                misses: 3,
                capacity_stalls: 4,
                evictions: 5,
                aborts: 6,
            },
            host_cache: CacheStats::default(),
            directory: DirectoryStats {
                hits_at_hop: vec![10, 4],
                misses: 2,
                messages_sent: 40,
            },
            pairs_per_node: vec![100, 176],
            sim_shards: 4,
            sim_windows: 1234,
            degraded: true,
        };
        let back = RunReport::from_bytes(r.to_bytes()).expect("decode");
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
        assert_eq!(back.backend, "sim");
    }

    #[test]
    fn empty_report_roundtrips() {
        let mut r = RunReport {
            backend: "threaded",
            elapsed: 0.0,
            items: 0,
            pairs: 0,
            failed_pairs: 0,
            loads: 0,
            remote_fetches: 0,
            io_bytes: 0,
            net_bytes: 0,
            net_msgs: 0,
            steals: 0,
            busy: BusyTimes::default(),
            device_cache: CacheStats::default(),
            host_cache: CacheStats::default(),
            directory: DirectoryStats::default(),
            pairs_per_node: Vec::new(),
            sim_shards: 0,
            sim_windows: 0,
            degraded: false,
        };
        let back = RunReport::from_bytes(r.to_bytes()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
        r.degraded = true;
        assert!(RunReport::from_bytes(r.to_bytes()).unwrap().degraded);
    }

    #[test]
    fn interner_reuses_known_names() {
        let a = intern("some-backend-name".to_string());
        let b = intern("some-backend-name".to_string());
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn hostile_gpu_count_is_an_error_not_an_abort() {
        // A count of u32::MAX with no devices behind it: the decoder must
        // run out of bytes, not reserve ~300 GB up front.
        let bytes = bytes::Bytes::from_static(&[0xff; 4]);
        assert_eq!(NodeSpec::from_bytes(bytes), Err(WireError::Truncated));
    }

    #[test]
    fn deeply_nested_dist_is_an_error_not_a_stack_overflow() {
        let mut w = WireWriter::new();
        for _ in 0..100_000 {
            w.put_u8(6);
        }
        assert!(matches!(
            get_dist(&mut WireReader::new(w.finish())),
            Err(WireError::BadTag(6))
        ));
        // Real nesting stays well inside the bound.
        let mut d = Dist::Constant(1.0);
        for _ in 0..MAX_DIST_DEPTH {
            d = Dist::Truncated {
                inner: Box::new(d),
                lo: 0.0,
                hi: 2.0,
            };
        }
        let mut w = WireWriter::new();
        put_dist(&mut w, &d);
        assert_eq!(get_dist(&mut WireReader::new(w.finish())), Ok(d));
    }

    #[test]
    fn corrupt_tags_rejected() {
        let s = fancy_scenario();
        let mut bytes = s.to_bytes().to_vec();
        // Truncation must error, not panic.
        bytes.truncate(bytes.len() / 2);
        assert!(Scenario::from_bytes(bytes.into()).is_err());
        // Trailing garbage is rejected (full-consumption contract).
        let mut padded = s.to_bytes().to_vec();
        padded.push(0xFF);
        assert!(Scenario::from_bytes(padded.into()).is_err());
    }
}
