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
//! `&'static str` fields (workload names, backend names, GPU generations)
//! decode through a process-global interner: known strings are reused,
//! novel ones are leaked exactly once — a worker sees a handful of
//! distinct names over its whole lifetime, so the leak is bounded.

use std::sync::Mutex;
use std::sync::OnceLock;

use rocket_cache::{CacheStats, DirectoryStats, FxHashSet};
use rocket_comm::wire::{Wire, WireError, WireReader, WireWriter};
use rocket_comm::TransportKind;
use rocket_gpu::DeviceProfile;
use rocket_stats::Dist;
use rocket_trace::ThroughputSeries;

use crate::report::{BusyTimes, RunReport};
use crate::scenario::{NodeSpec, Scenario};
use crate::workload::WorkloadProfile;

/// Interns a decoded string into a `&'static str`, leaking each distinct
/// string at most once per process.
fn intern(s: String) -> &'static str {
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

fn get_dist(r: &mut WireReader) -> Result<Dist, WireError> {
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
        6 => Dist::Truncated {
            inner: Box::new(get_dist(r)?),
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
    w.put_str(&d.name);
    w.put_u64(d.memory_bytes);
    w.put_f64(d.compute_scale);
    w.put_f64(d.h2d_bytes_per_sec);
    w.put_f64(d.d2h_bytes_per_sec);
    w.put_str(d.generation);
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
    w.put_u64(s.hits);
    w.put_u64(s.hits_pending);
    w.put_u64(s.misses);
    w.put_u64(s.capacity_stalls);
    w.put_u64(s.evictions);
    w.put_u64(s.aborts);
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
    s.hits_at_hop.encode(w);
    w.put_u64(s.misses);
    w.put_u64(s.messages_sent);
}

fn get_directory_stats(r: &mut WireReader) -> Result<DirectoryStats, WireError> {
    Ok(DirectoryStats {
        hits_at_hop: Vec::<u64>::decode(r)?,
        misses: r.get_u64()?,
        messages_sent: r.get_u64()?,
    })
}

fn put_series(w: &mut WireWriter, s: &ThroughputSeries) {
    let sources = s.sources();
    w.put_u32(sources.len() as u32);
    for src in sources {
        w.put_u32(src);
        s.timestamps(src).to_vec().encode(w);
    }
}

fn get_series(r: &mut WireReader) -> Result<ThroughputSeries, WireError> {
    let n = r.get_u32()?;
    let mut s = ThroughputSeries::new();
    for _ in 0..n {
        let src = r.get_u32()?;
        for t in Vec::<u64>::decode(r)? {
            s.record(src, t);
        }
    }
    Ok(s)
}

impl Wire for WorkloadProfile {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self.name);
        w.put_u64(self.items);
        w.put_u64(self.file_bytes);
        w.put_u64(self.item_bytes);
        put_dist(w, &self.parse);
        put_opt_dist(w, &self.preprocess);
        put_dist(w, &self.compare);
        put_dist(w, &self.postprocess);
        put_usize(w, self.paper_device_slots);
        put_usize(w, self.paper_host_slots);
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
        w.put_u32(self.gpus.len() as u32);
        for g in &self.gpus {
            put_device(w, g);
        }
        put_usize(w, self.device_slots);
        put_usize(w, self.host_slots);
    }

    fn decode(r: &mut WireReader) -> Result<Self, WireError> {
        let n = r.get_u32()?;
        let mut gpus = Vec::with_capacity(n as usize);
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
        self.workload.encode(w);
        self.nodes.encode(w);
        put_bool(w, self.distributed_cache);
        put_usize(w, self.hops);
        put_usize(w, self.job_limit);
        put_usize(w, self.cpu_threads);
        w.put_u64(self.leaf_pairs);
        put_bool(w, self.static_partition);
        put_transport(w, self.transport);
        w.put_f64(self.storage_bandwidth);
        w.put_f64(self.storage_latency);
        w.put_f64(self.net_bandwidth);
        w.put_f64(self.net_latency);
        put_bool(w, self.record_completions);
        w.put_u64(self.seed);
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
            record_completions: get_bool(r)?,
            seed: r.get_u64()?,
        })
    }
}

impl Wire for RunReport {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self.backend);
        w.put_f64(self.elapsed);
        w.put_u64(self.items);
        w.put_u64(self.pairs);
        w.put_u64(self.failed_pairs);
        w.put_u64(self.loads);
        w.put_u64(self.remote_fetches);
        w.put_u64(self.io_bytes);
        w.put_u64(self.net_bytes);
        w.put_u64(self.net_msgs);
        w.put_u64(self.steals);
        w.put_f64(self.busy.preprocess);
        w.put_f64(self.busy.compare);
        w.put_f64(self.busy.h2d);
        w.put_f64(self.busy.d2h);
        w.put_f64(self.busy.cpu);
        w.put_f64(self.busy.io);
        put_cache_stats(w, &self.device_cache);
        put_cache_stats(w, &self.host_cache);
        put_directory_stats(w, &self.directory);
        self.pairs_per_node.encode(w);
        match &self.completions {
            None => w.put_u8(0),
            Some(s) => {
                w.put_u8(1);
                put_series(w, s);
            }
        }
        w.put_u32(self.sim_shards);
        w.put_u64(self.sim_windows);
        put_bool(w, self.degraded);
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
            completions: match r.get_u8()? {
                0 => None,
                1 => Some(get_series(r)?),
                t => return Err(WireError::BadTag(t)),
            },
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
            .record_completions(true)
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
        let mut series = ThroughputSeries::new();
        series.record(0, 10);
        series.record(0, 20);
        series.record(3, 15);
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
            completions: Some(series),
            sim_shards: 4,
            sim_windows: 1234,
            degraded: true,
        };
        let back = RunReport::from_bytes(r.to_bytes()).expect("decode");
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
        assert_eq!(back.backend, "sim");
        let c = back.completions.as_ref().unwrap();
        assert_eq!(c.timestamps(0), &[10, 20]);
        assert_eq!(c.timestamps(3), &[15]);
    }

    #[test]
    fn report_without_completions_roundtrips() {
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
            completions: None,
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
