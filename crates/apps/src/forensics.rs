//! Common-source identification (digital forensics, §5.1 of the paper).
//!
//! Cameras imprint a Photo Response Non-Uniformity (PRNU) noise pattern on
//! every photo they take: per-pixel sensitivity deviations that survive in
//! the image as a weak multiplicative noise. Comparing the noise residuals
//! of two images with Normalized Cross-Correlation (NCC) reveals whether
//! they came from the same sensor.
//!
//! The paper processes 4980 Dresden-database JPEGs with the Netherlands
//! Forensic Institute's GPU kernels. Here both the data and kernels are
//! rebuilt: [`ForensicsDataset::generate`] synthesizes images with genuine
//! per-camera PRNU patterns (so the *answer* is verifiable), and the
//! pipeline stages implement real residual extraction and NCC:
//!
//! * **parse** (CPU): decode the image container to grayscale floats
//!   (stand-in for libjpeg decoding),
//! * **pre-process** (GPU): extract the noise residual — subtract a 3×3
//!   local mean (a denoising filter; border pixels average the part of
//!   the window inside the image), then normalize to zero mean and unit
//!   L2 norm,
//! * **compare** (GPU): NCC of two residuals = dot product of the
//!   normalized patterns, summed in eight interleaved `f64` partial sums
//!   combined in a fixed order — deterministic and exactly symmetric, and
//!   the one kernel both a serial reference loop and the runtime call;
//!   it runs at AVX2 width when the CPU has AVX2, with the same bits. The
//!   runtime compares a GPU task's pairs in one batch, up to four at a
//!   time: on a CPU with AVX-512F one pass over the residuals keeps every
//!   pair's sums in flight, again with the bits of one compare per pair,
//! * **post-process** (CPU): read out the correlation score.

use rocket_core::bytesutil;
use rocket_core::{AppError, Application, ItemId, Operand, Pair};
use rocket_stats::Xoshiro256;
use rocket_storage::MemStore;

const MAGIC: &[u8; 8] = b"PRNUIMG1";

/// Synthetic image-set configuration.
#[derive(Debug, Clone)]
pub struct ForensicsConfig {
    /// Number of images (the paper's n = 4980; tests use far fewer).
    pub images: u64,
    /// Number of distinct cameras.
    pub cameras: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// PRNU strength (relative per-pixel sensitivity deviation).
    pub prnu_strength: f32,
    /// Additive readout-noise sigma (in \[0,1\] pixel units).
    pub readout_noise: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ForensicsConfig {
    fn default() -> Self {
        Self {
            images: 48,
            cameras: 4,
            width: 64,
            height: 64,
            prnu_strength: 0.03,
            readout_noise: 0.02,
            seed: 0xF02E,
        }
    }
}

/// A generated data set plus its ground truth.
pub struct ForensicsDataset {
    /// The image files.
    pub store: MemStore,
    /// `camera_of[i]` = camera that took image `i`.
    pub camera_of: Vec<usize>,
    /// The configuration used.
    pub config: ForensicsConfig,
}

impl ForensicsDataset {
    /// Storage key of image `i`.
    pub fn key(i: ItemId) -> String {
        format!("images/{i:06}.img")
    }

    /// Generates a synthetic image set with per-camera PRNU patterns.
    pub fn generate(config: ForensicsConfig) -> ForensicsDataset {
        let (w, h) = (config.width, config.height);
        let mut rng = Xoshiro256::seed_from(config.seed);
        // One fixed PRNU pattern per camera.
        let prnu: Vec<Vec<f32>> = (0..config.cameras)
            .map(|_| {
                (0..w * h)
                    .map(|_| (rng.f64() as f32 * 2.0 - 1.0) * config.prnu_strength)
                    .collect()
            })
            .collect();
        let store = MemStore::new();
        let mut camera_of = Vec::with_capacity(config.images as usize);
        for i in 0..config.images {
            let cam = rng.below(config.cameras);
            camera_of.push(cam);
            // Scene: a smooth random gradient plus a bright blob, different
            // per image so scene content does not correlate across images.
            let gx = rng.f64() as f32;
            let gy = rng.f64() as f32;
            let bx = rng.f64() as f32 * w as f32;
            let by = rng.f64() as f32 * h as f32;
            let brad = (w.min(h) as f32) * (0.15 + 0.2 * rng.f64() as f32);
            let mut pixels = vec![0u8; w * h];
            for y in 0..h {
                for x in 0..w {
                    let idx = y * w + x;
                    let mut scene =
                        0.35 + 0.3 * (gx * x as f32 / w as f32 + gy * y as f32 / h as f32);
                    let d2 = (x as f32 - bx).powi(2) + (y as f32 - by).powi(2);
                    if d2 < brad * brad {
                        scene += 0.25 * (1.0 - d2 / (brad * brad));
                    }
                    // PRNU is multiplicative sensor noise.
                    let noise = (rng.f64() as f32 * 2.0 - 1.0) * config.readout_noise;
                    let value = scene * (1.0 + prnu[cam][idx]) + noise;
                    pixels[idx] = (value.clamp(0.0, 1.0) * 255.0) as u8;
                }
            }
            let mut file = Vec::with_capacity(16 + w * h);
            file.extend_from_slice(MAGIC);
            file.extend_from_slice(&(w as u32).to_le_bytes());
            file.extend_from_slice(&(h as u32).to_le_bytes());
            file.extend_from_slice(&pixels);
            store.put(Self::key(i), file);
        }
        ForensicsDataset {
            store,
            camera_of,
            config,
        }
    }
}

/// The forensics [`Application`]: PRNU extraction + NCC scoring.
pub struct ForensicsApp {
    images: u64,
    width: usize,
    height: usize,
}

impl ForensicsApp {
    /// Creates the application for a data set generated with `config`.
    pub fn new(config: &ForensicsConfig) -> Self {
        Self {
            images: config.images,
            width: config.width,
            height: config.height,
        }
    }

    fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// A pair's residuals, each cut to one item: an error names the pair
    /// when an operand is shorter than that.
    fn operands<'a>(
        &self,
        left: (ItemId, &'a [u8]),
        right: (ItemId, &'a [u8]),
    ) -> Result<(&'a [u8], &'a [u8]), AppError> {
        let len = self.pixels() * 4;
        match (left.1.get(..len), right.1.get(..len)) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(AppError::new(
                "compare",
                format!(
                    "items {} and {}: operands of {} and {} bytes, expected {len}",
                    left.0,
                    right.0,
                    left.1.len(),
                    right.1.len()
                ),
            )),
        }
    }

    /// 3×3 box-filter local mean (the denoising filter of the residual
    /// extraction), exposed for kernel testing.
    ///
    /// Each output is the `f32` sum of its window in row-major order,
    /// starting from `0.0`, divided by the window's pixel count. Interior
    /// pixels sum three row slices with no bounds test per neighbour;
    /// border pixels average only the neighbours inside the image (4 at a
    /// corner, 6 along an edge).
    pub fn box_mean(input: &[f32], w: usize, h: usize, out: &mut [f32]) {
        if w == 0 {
            return;
        }
        let (input, out) = (&input[..w * h], &mut out[..w * h]);
        for (y, row) in out.chunks_exact_mut(w).enumerate() {
            if y == 0 || y + 1 == h || w < 3 {
                for (x, o) in row.iter_mut().enumerate() {
                    *o = clamped_mean(input, w, h, x, y);
                }
                continue;
            }
            let above = input[(y - 1) * w..y * w].windows(3);
            let centre = input[y * w..(y + 1) * w].windows(3);
            let below = input[(y + 1) * w..(y + 2) * w].windows(3);
            for (o, ((a, c), b)) in row[1..w - 1].iter_mut().zip(above.zip(centre).zip(below)) {
                *o = (0.0 + a[0] + a[1] + a[2] + c[0] + c[1] + c[2] + b[0] + b[1] + b[2]) / 9.0;
            }
            row[0] = clamped_mean(input, w, h, 0, y);
            row[w - 1] = clamped_mean(input, w, h, w - 1, y);
        }
    }

    /// Residual extraction + normalization, exposed for kernel testing:
    /// the output has zero mean and unit L2 norm, so NCC is a plain dot
    /// product.
    pub fn extract_residual(gray: &[f32], w: usize, h: usize) -> Vec<f32> {
        let mut mean = vec![0.0f32; w * h];
        Self::box_mean(gray, w, h, &mut mean);
        let mut res: Vec<f32> = gray.iter().zip(&mean).map(|(&p, &m)| p - m).collect();
        let avg = res.iter().sum::<f32>() / res.len() as f32;
        for r in &mut res {
            *r -= avg;
        }
        let norm = res.iter().map(|r| r * r).sum::<f32>().sqrt();
        if norm > 0.0 {
            for r in &mut res {
                *r /= norm;
            }
        }
        res
    }
}

/// Mean of the part of `(x, y)`'s 3×3 window inside the `w`×`h` image,
/// summed in row-major order: [`ForensicsApp::box_mean`]'s border rule.
fn clamped_mean(input: &[f32], w: usize, h: usize, x: usize, y: usize) -> f32 {
    let cols = x.saturating_sub(1)..(x + 2).min(w);
    let rows = y.saturating_sub(1)..(y + 2).min(h);
    let count = (cols.len() * rows.len()) as f32;
    let mut sum = 0.0f32;
    for ny in rows {
        for &v in &input[ny * w + cols.start..ny * w + cols.end] {
            sum += v;
        }
    }
    sum / count
}

/// Independent partial sums in [`dot_le_f32`].
const LANES: usize = 8;

/// Dot product of two equal-length buffers of little-endian `f32`s.
///
/// Each term is the `f32` product widened to `f64`. Term `i` of every
/// 32-byte chunk goes to partial sum `i % 8`; the partial sums fold in
/// halves, `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`, and the terms past
/// the last whole chunk are then added in order. The order depends only
/// on the length, so the result is deterministic, and `dot(a, b)` equals
/// `dot(b, a)` bit for bit. Folding in halves keeps sum `i` in vector
/// lane `i % width`, so the loop needs no shuffles; combining
/// neighbours, `(s0+s1)+…`, measured 1.7× slower with SSE2.
///
/// On an x86-64 CPU with AVX2 the sum runs in [`dot_le_f32_avx2`], which
/// computes the same bits; elsewhere in [`dot_le_f32_portable`].
fn dot_le_f32(a: &[u8], b: &[u8]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { dot_le_f32_avx2(a, b) };
    }
    dot_le_f32_portable(a, b)
}

/// [`dot_le_f32`] in scalar Rust: the only path on CPUs without AVX2, and
/// the reference the AVX2 and AVX-512 bodies are tested against.
fn dot_le_f32_portable(a: &[u8], b: &[u8]) -> f64 {
    let f32_at = |c: &[u8]| f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    let term = |x: &[u8], y: &[u8]| (f32_at(x) * f32_at(y)) as f64;
    let (a_chunks, b_chunks) = (a.chunks_exact(4 * LANES), b.chunks_exact(4 * LANES));
    let tail = (a_chunks.remainder().chunks_exact(4)).zip(b_chunks.remainder().chunks_exact(4));
    let mut lanes = [0.0f64; LANES];
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for (lane, (x, y)) in lanes
            .iter_mut()
            .zip(ca.chunks_exact(4).zip(cb.chunks_exact(4)))
        {
            *lane += term(x, y);
        }
    }
    let [s0, s1, s2, s3, s4, s5, s6, s7] = lanes;
    let dot = ((s0 + s4) + (s2 + s6)) + ((s1 + s5) + (s3 + s7));
    tail.fold(dot, |dot, (x, y)| dot + term(x, y))
}

/// [`dot_le_f32`] at AVX2 width, bit for bit [`dot_le_f32_portable`].
///
/// Partial sums 0–3 live in `lo` and 4–7 in `hi`. Each 32-byte chunk is
/// one 8-wide `f32` multiply, so every product rounds to `f32` before it
/// widens (no FMA), then two widening converts and two `f64` adds. Adding
/// `hi` to `lo` gives `(s0+s4, s1+s5, s2+s6, s3+s7)`, which
/// [`fold_and_tail`] finishes.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_le_f32_avx2(a: &[u8], b: &[u8]) -> f64 {
    use std::arch::x86_64::*;
    let (a_chunks, b_chunks) = (a.chunks_exact(4 * LANES), b.chunks_exact(4 * LANES));
    let tail = (a_chunks.remainder(), b_chunks.remainder());
    let (mut lo, mut hi) = (_mm256_setzero_pd(), _mm256_setzero_pd());
    for (ca, cb) in a_chunks.zip(b_chunks) {
        // SAFETY: `chunks_exact(32)` makes `ca` and `cb` 32 bytes each, one
        // unaligned 8-float load; x86-64 is little-endian.
        let (x, y) = unsafe {
            (
                _mm256_loadu_ps(ca.as_ptr().cast()),
                _mm256_loadu_ps(cb.as_ptr().cast()),
            )
        };
        let p = _mm256_mul_ps(x, y);
        lo = _mm256_add_pd(lo, _mm256_cvtps_pd(_mm256_castps256_ps128(p)));
        hi = _mm256_add_pd(hi, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(p)));
    }
    fold_and_tail(_mm256_add_pd(lo, hi), tail)
}

/// The end of the AVX bodies: `quad` holds `(s0+s4, s1+s5, s2+s6,
/// s3+s7)`. Adding its upper 128-bit half to the lower gives
/// `((s0+s4)+(s2+s6), (s1+s5)+(s3+s7))`, then those two are added: the
/// portable fold exactly. The terms of `tail`, the bytes past the last
/// whole chunk, are then added in order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_and_tail(quad: std::arch::x86_64::__m256d, tail: (&[u8], &[u8])) -> f64 {
    use std::arch::x86_64::*;
    let pair = _mm_add_pd(
        _mm256_castpd256_pd128(quad),
        _mm256_extractf128_pd::<1>(quad),
    );
    let dot = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
    let f32_at = |c: &[u8]| f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    (tail.0.chunks_exact(4).zip(tail.1.chunks_exact(4)))
        .fold(dot, |dot, (x, y)| dot + (f32_at(x) * f32_at(y)) as f64)
}

/// Pairs one pass of [`dot_le_f32_avx512`] scores at most.
const GROUP: usize = 4;

/// `dots[k]` = [`dot_le_f32`] of pair `k`, bit for bit, for pairs whose
/// buffers all have one length.
///
/// The pairs go in groups of at most [`GROUP`], as even as possible (five
/// pairs as 3 + 2, not 4 + 1). On an x86-64 CPU with AVX-512F a group of
/// two or more runs in [`dot_le_f32_avx512`], one pass that keeps every
/// pair's sums in flight; [`dot_le_f32_avx2`] adds each chunk of its one
/// pair into the same two accumulators, so each add waits on the last. A
/// group of one, or any group elsewhere, runs [`dot_le_f32`] per pair.
fn dot_le_f32_batch(pairs: &[(&[u8], &[u8])], dots: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    let avx512 = std::arch::is_x86_feature_detected!("avx512f");
    let groups = pairs.len().div_ceil(GROUP).max(1);
    let size = pairs.len().div_ceil(groups).max(1);
    for (group, dots) in pairs.chunks(size).zip(dots.chunks_mut(size)) {
        #[cfg(target_arch = "x86_64")]
        if avx512 && group.len() > 1 {
            // SAFETY: the CPU supports AVX-512F, checked above.
            unsafe { dot_le_f32_group_avx512(group, dots) };
            continue;
        }
        for (dot, &(a, b)) in dots.iter_mut().zip(group) {
            *dot = dot_le_f32(a, b);
        }
    }
}

/// [`dot_le_f32_avx512`] on a group of two to four pairs.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn dot_le_f32_group_avx512(group: &[(&[u8], &[u8])], dots: &mut [f64]) {
    match *group {
        [p, q] => dots.copy_from_slice(&dot_le_f32_avx512([p, q])),
        [p, q, r] => dots.copy_from_slice(&dot_le_f32_avx512([p, q, r])),
        [p, q, r, s] => dots.copy_from_slice(&dot_le_f32_avx512([p, q, r, s])),
        _ => unreachable!("a group of {} pairs", group.len()),
    }
}

/// [`dot_le_f32`] of `N` pairs in one pass, each bit for bit
/// [`dot_le_f32_portable`].
///
/// Pair `k`'s partial sums s0–s7 live in one `__m512d`, sum `i` in lane
/// `i`. Per 32-byte chunk each pair costs one 8-wide `f32` multiply (every
/// product rounds to `f32` before it widens; no FMA), one widening convert
/// and one `f64` add, and the `N` adds of a chunk do not wait on each
/// other. Adding the upper 256 bits of the sums to the lower gives
/// `(s0+s4, s1+s5, s2+s6, s3+s7)`, which [`fold_and_tail`] finishes.
///
/// # Safety
///
/// The CPU must support AVX-512F.
///
/// # Panics
///
/// If the buffers do not all have one length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn dot_le_f32_avx512<const N: usize>(pairs: [(&[u8], &[u8]); N]) -> [f64; N] {
    use std::arch::x86_64::*;
    let len = pairs.first().map_or(0, |(a, _)| a.len());
    assert!(
        pairs.iter().all(|(a, b)| a.len() == len && b.len() == len),
        "operands of one length"
    );
    let whole = len - len % (4 * LANES);
    let mut sums = [_mm512_setzero_pd(); N];
    for at in (0..whole).step_by(4 * LANES) {
        for (sum, (a, b)) in sums.iter_mut().zip(pairs) {
            // SAFETY: `at + 32 <= whole <= len`, the length of every buffer
            // (asserted above): one unaligned 8-float load from each;
            // x86-64 is little-endian.
            let (x, y) = unsafe {
                (
                    _mm256_loadu_ps(a.as_ptr().add(at).cast()),
                    _mm256_loadu_ps(b.as_ptr().add(at).cast()),
                )
            };
            *sum = _mm512_add_pd(*sum, _mm512_cvtps_pd(_mm256_mul_ps(x, y)));
        }
    }
    std::array::from_fn(|k| {
        let (sum, (a, b)) = (sums[k], pairs[k]);
        let quad = _mm256_add_pd(
            _mm512_castpd512_pd256(sum),
            _mm512_extractf64x4_pd::<1>(sum),
        );
        fold_and_tail(quad, (&a[whole..], &b[whole..]))
    })
}

impl Application for ForensicsApp {
    type Output = f64;

    fn name(&self) -> &str {
        "forensics"
    }

    fn item_count(&self) -> u64 {
        self.images
    }

    fn file_for(&self, item: ItemId) -> String {
        ForensicsDataset::key(item)
    }

    fn parsed_bytes(&self) -> usize {
        self.pixels() * 4
    }

    fn item_bytes(&self) -> usize {
        self.pixels() * 4
    }

    fn result_bytes(&self) -> usize {
        8
    }

    fn parse(&self, item: ItemId, raw: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        if raw.len() < 16 || &raw[..8] != MAGIC {
            return Err(AppError::new(
                "parse",
                format!("item {item}: bad image magic"),
            ));
        }
        let w = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]) as usize;
        let h = u32::from_le_bytes([raw[12], raw[13], raw[14], raw[15]]) as usize;
        if w != self.width || h != self.height {
            return Err(AppError::new(
                "parse",
                format!(
                    "item {item}: dimensions {w}x{h}, expected {}x{}",
                    self.width, self.height
                ),
            ));
        }
        let pixels = &raw[16..];
        if pixels.len() != w * h {
            return Err(AppError::new(
                "parse",
                format!("item {item}: truncated pixel data"),
            ));
        }
        let gray: Vec<f32> = pixels.iter().map(|&p| p as f32 / 255.0).collect();
        bytesutil::write_f32(out, &gray);
        Ok(())
    }

    fn preprocess(&self, _item: ItemId, input: &[u8], out: &mut [u8]) -> Result<(), AppError> {
        let gray = bytesutil::read_f32(input, self.pixels());
        let residual = ForensicsApp::extract_residual(&gray, self.width, self.height);
        bytesutil::write_f32(out, &residual);
        Ok(())
    }

    fn compare(
        &self,
        left: (ItemId, &[u8]),
        right: (ItemId, &[u8]),
        out: &mut [u8],
    ) -> Result<(), AppError> {
        // NCC of unit-norm residuals = dot product; read directly from the
        // device buffers to avoid allocating per pair.
        let (a, b) = self.operands(left, right)?;
        out[..8].copy_from_slice(&dot_le_f32(a, b).to_le_bytes());
        Ok(())
    }

    /// Scores the pairs whose operands are whole in groups of up to four,
    /// with the bits `compare` gives each; a pair with a short operand
    /// fails alone.
    fn compare_batch(
        &self,
        pairs: &[(Operand, Operand)],
        out: &mut [u8],
    ) -> Vec<Result<(), AppError>> {
        let operands: Vec<_> = pairs
            .iter()
            .map(|&(left, right)| self.operands(left, right))
            .collect();
        let whole: Vec<_> = operands.iter().flatten().copied().collect();
        let mut dots = vec![0.0; whole.len()];
        dot_le_f32_batch(&whole, &mut dots);
        let scored = out
            .chunks_exact_mut(8)
            .zip(&operands)
            .filter(|(_, ab)| ab.is_ok());
        for ((out, _), dot) in scored.zip(dots) {
            out.copy_from_slice(&dot.to_le_bytes());
        }
        operands.into_iter().map(|ab| ab.map(|_| ())).collect()
    }

    fn postprocess(&self, _pair: Pair, raw: &[u8]) -> f64 {
        f64::from_le_bytes(raw[..8].try_into().expect("8-byte result"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocket_storage::ObjectStore;

    fn small() -> (ForensicsDataset, ForensicsApp) {
        let config = ForensicsConfig {
            images: 12,
            cameras: 3,
            width: 48,
            height: 48,
            ..Default::default()
        };
        let app = ForensicsApp::new(&config);
        (ForensicsDataset::generate(config), app)
    }

    fn residual_of(ds: &ForensicsDataset, app: &ForensicsApp, i: u64) -> Vec<f32> {
        let raw = ds.store.read(&ForensicsDataset::key(i)).unwrap();
        let mut parsed = vec![0u8; app.parsed_bytes()];
        app.parse(i, &raw, &mut parsed).unwrap();
        let mut item = vec![0u8; app.item_bytes()];
        app.preprocess(i, &parsed, &mut item).unwrap();
        bytesutil::read_f32(&item, app.pixels())
    }

    fn ncc(ds: &ForensicsDataset, app: &ForensicsApp, i: u64, j: u64) -> f64 {
        let a = residual_of(ds, app, i);
        let b = residual_of(ds, app, j);
        a.iter().zip(&b).map(|(&x, &y)| (x * y) as f64).sum()
    }

    #[test]
    fn dataset_is_deterministic() {
        let c = ForensicsConfig {
            images: 4,
            ..Default::default()
        };
        let a = ForensicsDataset::generate(c.clone());
        let b = ForensicsDataset::generate(c);
        assert_eq!(a.camera_of, b.camera_of);
        for i in 0..4 {
            assert_eq!(
                a.store.read(&ForensicsDataset::key(i)).unwrap(),
                b.store.read(&ForensicsDataset::key(i)).unwrap()
            );
        }
    }

    #[test]
    fn residuals_are_normalized() {
        let (ds, app) = small();
        let r = residual_of(&ds, &app, 0);
        let mean: f32 = r.iter().sum::<f32>() / r.len() as f32;
        let norm: f32 = r.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(mean.abs() < 1e-5, "mean {mean}");
        assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
    }

    #[test]
    fn same_camera_correlates_higher() {
        let (ds, app) = small();
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for i in 0..ds.camera_of.len() as u64 {
            for j in (i + 1)..ds.camera_of.len() as u64 {
                let score = ncc(&ds, &app, i, j);
                if ds.camera_of[i as usize] == ds.camera_of[j as usize] {
                    same.push(score);
                } else {
                    diff.push(score);
                }
            }
        }
        assert!(!same.is_empty() && !diff.is_empty());
        let min_same = same.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_diff = diff.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            min_same > max_diff,
            "PRNU must separate cameras: min same {min_same:.4} vs max diff {max_diff:.4}"
        );
    }

    #[test]
    fn ncc_is_symmetric_and_selfcorrelated() {
        let (ds, app) = small();
        let ab = ncc(&ds, &app, 0, 1);
        let ba = ncc(&ds, &app, 1, 0);
        assert!((ab - ba).abs() < 1e-9);
        let aa = ncc(&ds, &app, 0, 0);
        assert!((aa - 1.0).abs() < 1e-4, "self NCC {aa}");
    }

    #[test]
    fn parse_rejects_corrupt_files() {
        let (_, app) = small();
        let mut out = vec![0u8; app.parsed_bytes()];
        assert!(app.parse(0, b"short", &mut out).is_err());
        let mut bad_magic = vec![0u8; 16 + 48 * 48];
        bad_magic[..8].copy_from_slice(b"NOTANIMG");
        assert!(app.parse(0, &bad_magic, &mut out).is_err());
        let mut wrong_dims = Vec::new();
        wrong_dims.extend_from_slice(MAGIC);
        wrong_dims.extend_from_slice(&10u32.to_le_bytes());
        wrong_dims.extend_from_slice(&10u32.to_le_bytes());
        wrong_dims.extend_from_slice(&[0u8; 100]);
        assert!(app.parse(0, &wrong_dims, &mut out).is_err());
    }

    #[test]
    fn box_mean_of_constant_is_constant() {
        let input = vec![0.5f32; 25];
        let mut out = vec![0.0f32; 25];
        ForensicsApp::box_mean(&input, 5, 5, &mut out);
        for v in out {
            assert!((v - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn compare_via_application_trait() {
        let (ds, app) = small();
        // Drive the exact byte-level kernel interface.
        let a = residual_of(&ds, &app, 0);
        let b = residual_of(&ds, &app, 1);
        let mut abuf = vec![0u8; app.item_bytes()];
        let mut bbuf = vec![0u8; app.item_bytes()];
        bytesutil::write_f32(&mut abuf, &a);
        bytesutil::write_f32(&mut bbuf, &b);
        let mut result = vec![0u8; app.result_bytes()];
        app.compare((0, &abuf), (1, &bbuf), &mut result).unwrap();
        let score = app.postprocess(Pair::new(0, 1), &result);
        let expected: f64 = a.iter().zip(&b).map(|(&x, &y)| (x * y) as f64).sum();
        assert!((score - expected).abs() < 1e-12);
    }

    /// The original per-neighbour bounds-tested filter: the oracle
    /// `box_mean` must match bit for bit.
    fn naive_box_mean(input: &[f32], w: usize, h: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; w * h];
        for y in 0..h {
            for x in 0..w {
                let mut sum = 0.0f32;
                let mut count = 0.0f32;
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let (nx, ny) = (x as i64 + dx, y as i64 + dy);
                        if nx >= 0 && ny >= 0 && (nx as usize) < w && (ny as usize) < h {
                            sum += input[ny as usize * w + nx as usize];
                            count += 1.0;
                        }
                    }
                }
                out[y * w + x] = sum / count;
            }
        }
        out
    }

    /// `n` values in \[-1, 1) scaled to unit L2 norm, like a residual.
    fn unit_vector(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256::seed_from(seed);
        let v: Vec<f32> = (0..n).map(|_| rng.f64() as f32 * 2.0 - 1.0).collect();
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.into_iter().map(|x| x / norm).collect()
    }

    /// Like [`unit_vector`], but each value scaled by 2^-k, k uniform in
    /// 0..40. Products of residual-like values span so few binades that
    /// their `f64` sums are usually exact in any order, which would hide a
    /// changed fold or tail order. Products spread over 80 binades make
    /// the sums round, so the bits depend on the order.
    fn wide_unit_vector(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256::seed_from(seed);
        let v: Vec<f32> = (0..n)
            .map(|_| (rng.f64() as f32 * 2.0 - 1.0) * 2f32.powi(-(rng.below(40) as i32)))
            .collect();
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.into_iter().map(|x| x / norm).collect()
    }

    fn app_of(width: usize, height: usize) -> ForensicsApp {
        ForensicsApp::new(&ForensicsConfig {
            width,
            height,
            ..Default::default()
        })
    }

    fn score(app: &ForensicsApp, a: &[u8], b: &[u8]) -> f64 {
        let mut result = vec![0u8; app.result_bytes()];
        app.compare((0, a), (1, b), &mut result).unwrap();
        app.postprocess(Pair::new(0, 1), &result)
    }

    #[test]
    fn compare_matches_serial_sum_and_is_symmetric() {
        // 1×1 is all tail, 7×9 is seven 8-term chunks plus a 7-term tail,
        // 128×128 is whole chunks only.
        for (w, h) in [(1, 1), (7, 9), (128, 128)] {
            let app = app_of(w, h);
            let (a, b) = (unit_vector(w * h, 1), unit_vector(w * h, 2));
            let mut abuf = vec![0u8; app.item_bytes()];
            let mut bbuf = vec![0u8; app.item_bytes()];
            bytesutil::write_f32(&mut abuf, &a);
            bytesutil::write_f32(&mut bbuf, &b);
            let serial = a
                .iter()
                .zip(&b)
                .fold(0.0f64, |dot, (&x, &y)| dot + (x * y) as f64);
            let ab = score(&app, &abuf, &bbuf);
            assert!((ab - serial).abs() < 1e-12, "{w}x{h}: {ab} vs {serial}");
            assert_eq!(ab.to_bits(), score(&app, &bbuf, &abuf).to_bits());
        }
    }

    /// Lengths in floats: all tail (0, 1, 7), one chunk with and without
    /// a tail (8, 9), a 7-term tail after seven chunks (63, the 7×9
    /// image), one term past eight chunks (65), and the 128×128 image.
    const LENGTHS: [usize; 8] = [0, 1, 7, 8, 9, 63, 65, 128 * 128];

    /// Nine [`wide_unit_vector`] residuals of `n` floats each.
    fn wide_residuals(n: usize) -> Vec<Vec<u8>> {
        (0..9)
            .map(|seed| {
                let mut buf = vec![0u8; 4 * n];
                bytesutil::write_f32(&mut buf, &wide_unit_vector(n, 10 * n as u64 + seed));
                buf
            })
            .collect()
    }

    /// Batches of one to eight pairs over nine buffers: each pair's left
    /// operand is the first buffer (a row of the all-pairs triangle, as a
    /// GPU task usually holds), or each pair has its own two buffers.
    fn batches(bufs: &[Vec<u8>]) -> Vec<Vec<(&[u8], &[u8])>> {
        let mut batches = Vec::new();
        for size in 1..=8 {
            let shared = (1..=size).map(|k| (&bufs[0][..], &bufs[k][..]));
            let distinct = (0..size).map(|k| (&bufs[k][..], &bufs[(k + 2) % 9][..]));
            batches.push(shared.collect());
            batches.push(distinct.collect());
        }
        batches
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn simd_dots_match_portable_bit_for_bit() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for n in LENGTHS {
            let bufs = wide_residuals(n);
            for (x, y) in [(&bufs[0], &bufs[1]), (&bufs[1], &bufs[0])] {
                // SAFETY: the CPU supports AVX2, checked above.
                let fast = unsafe { dot_le_f32_avx2(x, y) };
                let portable = dot_le_f32_portable(x, y);
                assert_eq!(fast.to_bits(), portable.to_bits(), "{n} floats");
            }
        }
        if !std::arch::is_x86_feature_detected!("avx512f") {
            return;
        }
        for n in LENGTHS {
            let bufs = wide_residuals(n);
            let groups = batches(&bufs).into_iter();
            for group in groups.filter(|g| (2..=GROUP).contains(&g.len())) {
                let mut fast = vec![f64::NAN; group.len()];
                // SAFETY: the CPU supports AVX-512F, checked above.
                unsafe { dot_le_f32_group_avx512(&group, &mut fast) };
                for (&(x, y), fast) in group.iter().zip(fast) {
                    let portable = dot_le_f32_portable(x, y);
                    assert_eq!(fast.to_bits(), portable.to_bits(), "{n} floats");
                }
            }
        }
    }

    #[test]
    fn compare_batch_matches_compare_bit_for_bit() {
        for n in LENGTHS {
            let app = app_of(n, 1);
            let bufs = wide_residuals(n);
            for batch in batches(&bufs) {
                let pairs: Vec<_> = batch.iter().map(|&(a, b)| ((0, a), (1, b))).collect();
                let mut out = vec![0u8; 8 * pairs.len()];
                let results = app.compare_batch(&pairs, &mut out);
                assert_eq!(results.len(), pairs.len());
                for (k, (&(a, b), result)) in batch.iter().zip(results).enumerate() {
                    result.unwrap();
                    let batched = app.postprocess(Pair::new(0, 1), &out[8 * k..]);
                    let alone = score(&app, a, b);
                    assert_eq!(batched.to_bits(), alone.to_bits(), "{n} floats, pair {k}");
                }
            }
        }
    }

    #[test]
    fn compare_rejects_short_operands() {
        let app = app_of(2, 2);
        let full = vec![0u8; app.item_bytes()];
        let mut result = vec![0u8; app.result_bytes()];
        let short = [0u8; 4];
        assert!(app.compare((0, &short), (1, &full), &mut result).is_err());
        assert!(app.compare((0, &full), (1, &short), &mut result).is_err());
        // A longer buffer (a larger device slot) is read up to its item.
        let long = vec![0u8; app.item_bytes() + 4];
        assert!(app.compare((0, &long), (1, &full), &mut result).is_ok());

        // In a batch, a short operand fails only its own pair; the other
        // pairs are scored as if alone.
        let app = app_of(7, 9);
        let bufs = wide_residuals(63);
        let (a, b, c) = (&bufs[0][..], &bufs[1][..], &bufs[2][..]);
        let pairs = [
            ((0, a), (1, b)),
            ((0, a), (2, &short[..])),
            ((0, a), (3, c)),
            ((4, &short[..]), (1, b)),
            ((1, b), (3, c)),
        ];
        let mut out = vec![0u8; 8 * pairs.len()];
        let results = app.compare_batch(&pairs, &mut out);
        let failed: Vec<bool> = results.iter().map(Result::is_err).collect();
        assert_eq!(failed, [false, true, false, true, false]);
        for k in [0, 2, 4] {
            let ((_, x), (_, y)) = pairs[k];
            let batched = app.postprocess(Pair::new(0, 1), &out[8 * k..]);
            assert_eq!(batched.to_bits(), score(&app, x, y).to_bits(), "pair {k}");
        }
    }

    #[test]
    fn box_mean_matches_naive_filter_bit_for_bit() {
        let sizes = [(1, 1), (1, 5), (5, 1), (2, 2), (3, 3), (7, 9), (128, 128)];
        for (seed, (w, h)) in sizes.into_iter().enumerate() {
            let input = unit_vector(w * h, seed as u64);
            let mut out = vec![f32::NAN; w * h];
            ForensicsApp::box_mean(&input, w, h, &mut out);
            let want = naive_box_mean(&input, w, h);
            let (got, want): (Vec<u32>, Vec<u32>) = (
                out.iter().map(|v| v.to_bits()).collect(),
                want.iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(got, want, "{w}x{h}");
        }
    }

    #[test]
    fn table1_shape_data_grows_after_preprocess() {
        // Table 1: forensics data grows ~10x from disk to memory. Synthetic
        // u8 → f32 conversion reproduces the direction (4x + header loss).
        let (ds, app) = small();
        let disk = ds.store.size(&ForensicsDataset::key(0)).unwrap();
        assert!(app.item_bytes() as u64 > 3 * disk);
    }
}
