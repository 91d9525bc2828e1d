//! The virtual device: capacity-accounted buffers.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use crate::profile::DeviceProfile;

/// Handle to a device-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(u64);

/// Device operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// Allocation would exceed device memory capacity.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// The buffer handle is not live on this device.
    InvalidBuffer(BufferId),
    /// Source data does not fit in the destination buffer.
    SizeMismatch {
        /// Destination capacity in bytes.
        dst: u64,
        /// Source length in bytes.
        src: u64,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfMemory { requested, free } => {
                write!(
                    f,
                    "device out of memory: requested {requested} B, free {free} B"
                )
            }
            DeviceError::InvalidBuffer(id) => write!(f, "invalid device buffer {id:?}"),
            DeviceError::SizeMismatch { dst, src } => {
                write!(f, "copy size mismatch: dst {dst} B, src {src} B")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Result alias for device operations.
pub type Result<T> = std::result::Result<T, DeviceError>;

#[derive(Default)]
struct MemState {
    buffers: HashMap<u64, Arc<RwLock<Box<[u8]>>>>,
    used: u64,
    next_id: u64,
}

impl MemState {
    fn buffer(&self, id: BufferId) -> Result<Arc<RwLock<Box<[u8]>>>> {
        self.buffers
            .get(&id.0)
            .cloned()
            .ok_or(DeviceError::InvalidBuffer(id))
    }
}

/// A virtual GPU: device memory with a hard capacity and buffer storage
/// backed by host memory.
///
/// Thread-safe; buffer contents use per-buffer `RwLock`s so a kernel reading
/// two item buffers and writing a result buffer holds exactly the locks it
/// needs (mirroring CUDA's requirement that a buffer not be freed while a
/// kernel uses it).
pub struct VirtualDevice {
    profile: DeviceProfile,
    mem: Mutex<MemState>,
}

impl VirtualDevice {
    /// Creates a device with the given profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Self {
            profile,
            mem: Mutex::new(MemState::default()),
        }
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner).used
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.profile.memory_bytes
    }

    /// Allocates a zero-initialized buffer of `size` bytes.
    pub fn alloc(&self, size: u64) -> Result<BufferId> {
        let mut mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
        let free = self.profile.memory_bytes - mem.used;
        if size > free {
            return Err(DeviceError::OutOfMemory {
                requested: size,
                free,
            });
        }
        let id = mem.next_id;
        mem.next_id += 1;
        mem.used += size;
        mem.buffers.insert(
            id,
            Arc::new(RwLock::new(vec![0u8; size as usize].into_boxed_slice())),
        );
        Ok(BufferId(id))
    }

    /// Frees a buffer. Blocks until no kernel or copy is using it.
    pub fn free(&self, id: BufferId) -> Result<()> {
        let arc = {
            let mut mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
            let arc = mem
                .buffers
                .remove(&id.0)
                .ok_or(DeviceError::InvalidBuffer(id))?;
            mem.used -= arc.read().unwrap_or_else(PoisonError::into_inner).len() as u64;
            arc
        };
        // Wait for in-flight users: taking the write lock serializes with them.
        drop(arc.write().unwrap_or_else(PoisonError::into_inner));
        Ok(())
    }

    fn buffer(&self, id: BufferId) -> Result<Arc<RwLock<Box<[u8]>>>> {
        self.mem
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .buffer(id)
    }

    /// Copies host data into a device buffer (H2D engine).
    pub fn copy_h2d(&self, src: &[u8], dst: BufferId) -> Result<()> {
        let buf = self.buffer(dst)?;
        let mut guard = buf.write().unwrap_or_else(PoisonError::into_inner);
        if guard.len() < src.len() {
            return Err(DeviceError::SizeMismatch {
                dst: guard.len() as u64,
                src: src.len() as u64,
            });
        }
        guard[..src.len()].copy_from_slice(src);
        Ok(())
    }

    /// Copies a device buffer back to host memory (D2H engine), returning the
    /// full buffer contents.
    pub fn copy_d2h(&self, src: BufferId, dst: &mut Vec<u8>) -> Result<()> {
        let buf = self.buffer(src)?;
        let guard = buf.read().unwrap_or_else(PoisonError::into_inner);
        dst.clear();
        dst.extend_from_slice(&guard);
        Ok(())
    }

    /// Launches a kernel: `f` receives read-only views of `inputs` and a
    /// mutable view of `output`, all resident in device memory.
    ///
    /// `output` must not appear in `inputs` (that would deadlock, exactly as
    /// aliased buffers are undefined on a real device — here it is detected).
    pub fn launch<R>(
        &self,
        inputs: &[BufferId],
        output: BufferId,
        f: impl FnOnce(&[&[u8]], &mut [u8]) -> R,
    ) -> Result<R> {
        if inputs.contains(&output) {
            return Err(DeviceError::InvalidBuffer(output));
        }
        // Every buffer of the call is looked up under one `mem` lock.
        let (in_arcs, out_arc) = {
            let mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
            let in_arcs: Vec<_> = inputs
                .iter()
                .map(|&id| mem.buffer(id))
                .collect::<Result<_>>()?;
            (in_arcs, mem.buffer(output)?)
        };
        let in_guards: Vec<_> = in_arcs
            .iter()
            .map(|a| a.read().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let in_slices: Vec<&[u8]> = in_guards.iter().map(|g| &g[..]).collect();
        let mut out_guard = out_arc.write().unwrap_or_else(PoisonError::into_inner);
        Ok(f(&in_slices, &mut out_guard))
    }
}

impl fmt::Debug for VirtualDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualDevice")
            .field("profile", &self.profile.name)
            .field("used", &self.used_bytes())
            .field("capacity", &self.capacity_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> VirtualDevice {
        VirtualDevice::new(DeviceProfile::test_tiny())
    }

    #[test]
    fn alloc_accounts_capacity() {
        let d = tiny();
        let a = d.alloc(400_000).unwrap();
        assert_eq!(d.used_bytes(), 400_000);
        d.free(a).unwrap();
        assert_eq!(d.used_bytes(), 0);
    }

    #[test]
    fn oom_when_capacity_exceeded() {
        let d = tiny();
        let _a = d.alloc(900_000).unwrap();
        match d.alloc(200_000) {
            Err(DeviceError::OutOfMemory { requested, free }) => {
                assert_eq!(requested, 200_000);
                assert_eq!(free, 100_000);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn free_invalid_buffer_errors() {
        let d = tiny();
        let a = d.alloc(10).unwrap();
        d.free(a).unwrap();
        assert!(matches!(d.free(a), Err(DeviceError::InvalidBuffer(_))));
    }

    #[test]
    fn h2d_d2h_roundtrip() {
        let d = tiny();
        let b = d.alloc(8).unwrap();
        d.copy_h2d(&[1, 2, 3, 4, 5, 6, 7, 8], b).unwrap();
        let mut out = Vec::new();
        d.copy_d2h(b, &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn h2d_size_mismatch() {
        let d = tiny();
        let b = d.alloc(4).unwrap();
        assert!(matches!(
            d.copy_h2d(&[0u8; 8], b),
            Err(DeviceError::SizeMismatch { dst: 4, src: 8 })
        ));
    }

    #[test]
    fn kernel_reads_inputs_writes_output() {
        let d = tiny();
        let x = d.alloc(4).unwrap();
        let y = d.alloc(4).unwrap();
        let out = d.alloc(4).unwrap();
        d.copy_h2d(&[1, 2, 3, 4], x).unwrap();
        d.copy_h2d(&[10, 20, 30, 40], y).unwrap();
        let sum = d
            .launch(&[x, y], out, |inputs, output| {
                let mut total = 0u32;
                for i in 0..4 {
                    output[i] = inputs[0][i] + inputs[1][i];
                    total += output[i] as u32;
                }
                total
            })
            .unwrap();
        assert_eq!(sum, 11 + 22 + 33 + 44);
        let mut host = Vec::new();
        d.copy_d2h(out, &mut host).unwrap();
        assert_eq!(host, vec![11, 22, 33, 44]);
    }

    #[test]
    fn kernel_rejects_aliased_output() {
        let d = tiny();
        let x = d.alloc(4).unwrap();
        assert!(d.launch(&[x], x, |_, _| ()).is_err());
    }

    #[test]
    fn concurrent_kernels_on_distinct_buffers() {
        let d = Arc::new(tiny());
        let bufs: Vec<_> = (0..4).map(|_| d.alloc(16).unwrap()).collect();
        let outs: Vec<_> = (0..4).map(|_| d.alloc(16).unwrap()).collect();
        let mut handles = Vec::new();
        for i in 0..4 {
            let d = Arc::clone(&d);
            let (inp, out) = (bufs[i], outs[i]);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    d.launch(&[inp], out, |ins, o| {
                        o[0] = ins[0][0].wrapping_add(1);
                    })
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut host = Vec::new();
        for out in outs {
            d.copy_d2h(out, &mut host).unwrap();
            assert_eq!(host[0], 1);
        }
    }
}
