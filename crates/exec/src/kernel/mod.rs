//! The `q×q` block micro-kernel subsystem.
//!
//! Every algorithm in the paper bottoms out in "BLAS routines" on `q×q`
//! blocks (§2.1). This module tree is that routine, grown from a single
//! auto-vectorized scalar loop into register-blocked kernels:
//!
//! * [`elem`] — the [`Element`](elem::Element) abstraction (`f64` /
//!   `f32`) carrying each type's kernel dispatch;
//! * [`scalar`] — the portable fallback: the original `i/k/j` triple loop
//!   whose inner loop the compiler auto-vectorizes;
//! * [`x86`] (x86_64 only) — register-blocked kernels: AVX2+FMA holding a
//!   6×8 (`f64`) or 6×16 (`f32`) tile of `C` in twelve YMM accumulators,
//!   and AVX-512F holding an 8×16 (`f64`) or 8×32 (`f32`) tile in sixteen
//!   ZMM accumulators;
//! * [`neon`] (aarch64 only) — the YMM tile shapes on 128-bit NEON;
//! * [`pack`] — copies of `A` row-panels and `B` column-panels into
//!   micro-panel order, kept as a measured layer; the executor itself
//!   runs every kernel straight off the block storage.
//!
//! The register tile is a property of the (variant, element type) pair,
//! [`KernelVariant::tile`]: the packing layouts read it from the variant
//! they pack for. So is the compute roof, [`roof_gflops`]: the pair's own
//! block kernel timed on hot-cache blocks, the rate every compute
//! prediction and roofline record is priced at.
//!
//! # Dispatch
//!
//! The active [`KernelVariant`] is selected once per process (cached in a
//! `OnceLock`): AVX-512F when `is_x86_feature_detected!` says so, then
//! AVX2+FMA, NEON on aarch64, otherwise the scalar loop. Set
//! `MMC_KERNEL` to a variant name ([`VARIANT_NAMES`]) before the first
//! kernel call to override; an unknown name is a hard error listing the
//! valid variants.
//!
//! # Determinism
//!
//! Within one variant and element type, every executor path performs, for
//! each `C` element, one multiply-accumulate per `k` step in ascending
//! `k` order — the SIMD variants use fused multiply-add everywhere
//! (vector lanes and scalar edges alike), the scalar variant uses an
//! unfused multiply+add everywhere. Results are therefore
//! **bit-identical across executors** (`gemm_naive`, `run_schedule`,
//! `gemm_into` under any tiling) for any fixed variant,
//! which the test suite checks with `==`. The register tile only decides
//! which elements share a vector register, never the per-element
//! sequence, so the fused SIMD variants (`avx2_fma`, `avx512_fma`,
//! `neon`) also agree with each other bit for bit. Only the scalar
//! variant rounds differently (unfused), so comparisons between scalar
//! and a SIMD variant use a tolerance.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod elem;
pub mod pack;
pub mod scalar;

#[cfg(target_arch = "aarch64")]
pub mod neon;
#[cfg(target_arch = "x86_64")]
pub mod x86;

use elem::Element;

/// One implementation of the `q×q` block kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Portable scalar triple loop (auto-vectorized by the compiler).
    Scalar,
    /// Register-tiled AVX2 kernel using fused multiply-add (x86_64).
    Avx2Fma,
    /// Register-tiled AVX-512F kernel using fused multiply-add (x86_64).
    Avx512Fma,
    /// Register-tiled NEON kernel using fused multiply-add (aarch64).
    Neon,
}

/// The spellings [`KernelVariant::from_name`] and `MMC_KERNEL` accept,
/// for usage and error messages.
pub const VARIANT_NAMES: &str =
    "scalar, avx2_fma (alias: avx2), avx512_fma (alias: avx512), neon, auto";

/// A kernel's register tile: the `mr×nr` corner of `C` it keeps in
/// vector registers across the `k` loop. Packed `A` micro-panels hold
/// `mr` values per `k` step, packed `B` micro-panels `nr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegTile {
    /// Rows of `C` per register tile.
    pub mr: usize,
    /// Columns of `C` per register tile.
    pub nr: usize,
}

impl RegTile {
    /// Six rows of two 32-byte YMM registers (6×8 `f64`, 6×16 `f32`):
    /// the AVX2 kernels' tile, which the NEON and scalar kernels share.
    pub const fn ymm<T>() -> RegTile {
        RegTile { mr: 6, nr: 64 / std::mem::size_of::<T>() }
    }

    /// Eight rows of two 64-byte ZMM registers (8×16 `f64`, 8×32 `f32`):
    /// sixteen accumulators out of AVX-512's 32 registers.
    pub const fn zmm<T>() -> RegTile {
        RegTile { mr: 8, nr: 128 / std::mem::size_of::<T>() }
    }
}

impl KernelVariant {
    /// Every variant, scalar first.
    pub const ALL: [KernelVariant; 4] = [
        KernelVariant::Scalar,
        KernelVariant::Avx2Fma,
        KernelVariant::Avx512Fma,
        KernelVariant::Neon,
    ];

    /// Stable lowercase name, as reported by `mmc exec --json` and the
    /// `BENCH_exec.json` records.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Avx2Fma => "avx2_fma",
            KernelVariant::Avx512Fma => "avx512_fma",
            KernelVariant::Neon => "neon",
        }
    }

    /// The variant a name or its short alias (`avx2`, `avx512`) spells;
    /// `None` for anything else, `auto` included. See [`VARIANT_NAMES`].
    pub fn from_name(name: &str) -> Option<KernelVariant> {
        match name {
            "scalar" => Some(KernelVariant::Scalar),
            "avx2" | "avx2_fma" => Some(KernelVariant::Avx2Fma),
            "avx512" | "avx512_fma" => Some(KernelVariant::Avx512Fma),
            "neon" => Some(KernelVariant::Neon),
            _ => None,
        }
    }

    /// Whether this variant has vector register kernels (everything but
    /// the scalar fallback does) and so rounds with fused multiply-add.
    pub fn is_simd(self) -> bool {
        !matches!(self, KernelVariant::Scalar)
    }

    /// Whether the current CPU can actually run this variant.
    pub fn is_available(self) -> bool {
        match self {
            KernelVariant::Scalar => true,
            KernelVariant::Avx2Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                false
            }
            KernelVariant::Avx512Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                }
                #[cfg(not(target_arch = "x86_64"))]
                false
            }
            KernelVariant::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// The variant that actually runs when `self` is asked for: `self`
    /// if the CPU can run it, else the scalar fallback.
    pub fn runnable(self) -> KernelVariant {
        if self.is_available() {
            self
        } else {
            KernelVariant::Scalar
        }
    }

    /// The register tile of this variant's micro-kernels for element type
    /// `T`: [`RegTile::zmm`] for `avx512_fma`, [`RegTile::ymm`] for every
    /// other variant. A variant the CPU cannot run gets the scalar
    /// fallback's tile, matching the kernel that runs.
    pub fn tile<T: Element>(self) -> RegTile {
        if self.runnable() == KernelVariant::Avx512Fma {
            RegTile::zmm::<T>()
        } else {
            RegTile::ymm::<T>()
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every variant the current CPU supports (the scalar fallback first).
pub fn variants_available() -> Vec<KernelVariant> {
    KernelVariant::ALL.into_iter().filter(|v| v.is_available()).collect()
}

/// The dispatched kernel variant, selected once per process and cached.
///
/// Honors `MMC_KERNEL` (a name from [`VARIANT_NAMES`]) if it is set
/// before the first kernel call; a requested variant the CPU lacks falls
/// back to auto-detection. An *unknown* name is a usage error: the
/// process exits with a message listing the valid variants rather than
/// silently benchmarking the wrong kernel.
pub fn variant() -> KernelVariant {
    static VARIANT: OnceLock<KernelVariant> = OnceLock::new();
    *VARIANT.get_or_init(|| match select(std::env::var("MMC_KERNEL").ok().as_deref()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mmc-exec: {e}");
            std::process::exit(2);
        }
    })
}

/// Resolve an `MMC_KERNEL`-style request against the CPU's abilities.
///
/// `Ok`: the variant to run (a known-but-unavailable request falls back
/// to the best available variant, with a note on stderr). `Err`: the
/// name is not a kernel variant at all; the message lists the valid
/// spellings so callers can fail cleanly.
pub fn select(request: Option<&str>) -> Result<KernelVariant, String> {
    let requested = match request {
        Some("auto") | None => None,
        Some(name) => match KernelVariant::from_name(name) {
            Some(v) => Some(v),
            None => {
                return Err(format!("unknown kernel {name:?}; valid variants: {VARIANT_NAMES}"))
            }
        },
    };
    Ok(match requested {
        Some(v) if v.is_available() => v,
        Some(v) => {
            eprintln!("mmc-exec: MMC_KERNEL={} unavailable on this CPU; auto-detecting", v.name());
            best_available()
        }
        None => best_available(),
    })
}

/// The fastest variant the CPU supports.
fn best_available() -> KernelVariant {
    [KernelVariant::Avx512Fma, KernelVariant::Avx2Fma, KernelVariant::Neon]
        .into_iter()
        .find(|v| v.is_available())
        .unwrap_or(KernelVariant::Scalar)
}

/// Hint the cache to pull the line at `p` toward L1.
///
/// Prefetch instructions never fault, even on addresses past the end of
/// an allocation, so callers may aim a fixed distance ahead of a stream
/// without clamping (use `wrapping_add` to form such pointers). No-op on
/// architectures without a stable prefetch primitive.
#[inline(always)]
pub(crate) fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it cannot fault or write.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: prfm is a hint; it cannot fault or write.
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// `c += a × b` for row-major `q×q` blocks, via the dispatched kernel.
///
/// Deterministic: for a fixed [`variant`], the accumulation order per `C`
/// element is ascending `k` with one multiply-accumulate per step, so
/// every executor that calls this kernel with the same operand order
/// produces bit-identical results — which the test-suite exploits to
/// compare schedules exactly.
///
/// # Panics
/// Panics (via `debug_assert!` in debug builds and slice indexing
/// otherwise) if any slice is shorter than `q²`.
#[inline]
pub fn block_fma<T: Element>(c: &mut [T], a: &[T], b: &[T], q: usize) {
    block_fma_with(variant(), c, a, b, q)
}

/// [`block_fma`] through an explicitly chosen variant (for tests and
/// benches). A variant the CPU lacks falls back to the scalar loop.
#[inline]
pub fn block_fma_with<T: Element>(v: KernelVariant, c: &mut [T], a: &[T], b: &[T], q: usize) {
    debug_assert!(c.len() >= q * q && a.len() >= q * q && b.len() >= q * q);
    T::block_fma(v, c, a, b, q)
}

/// Reference scalar implementation (j-inner with explicit indexing), used
/// to validate every dispatched variant.
pub fn block_fma_reference<T: Element>(c: &mut [T], a: &[T], b: &[T], q: usize) {
    for i in 0..q {
        for j in 0..q {
            let mut acc = T::ZERO;
            for k in 0..q {
                acc = acc + a[i * q + k] * b[k * q + j];
            }
            c[i * q + j] = c[i * q + j] + acc;
        }
    }
}

/// Block side [`roof_gflops`] times its kernel at: three `f64` blocks
/// are 24 KiB, inside any L1d, so the kernel never waits on memory.
const ROOF_Q: usize = 32;

/// The measured single-core compute roof of `variant` on element type
/// `T`, GFLOP/s: the best of timed batches of 64 calls to its own
/// [`block_fma_with`] on hot-cache `32×32` blocks, at least five batches
/// and at least 2 ms of them. A variant the CPU lacks is measured as the
/// kernel that runs in its place ([`KernelVariant::runnable`]).
///
/// Sampling for 2 ms rather than five batches matters on a shared VM:
/// a SIMD batch takes under 0.1 ms, and the best of only five
/// read 5–30% below the best of forty, low enough for a real product
/// to run above its "roof".
///
/// Measured on first use and cached for the rest of the process per
/// (variant, element type), each measurement counted under
/// [`mmc_obs::roofline::KERNEL_ROOF_MEASUREMENTS_COUNTER`]. It costs
/// about 2 ms for the SIMD variants and a few for the scalar loop. This
/// is the only compute roof: drift predictions and roofline records
/// divide by it.
pub fn roof_gflops<T: Element>(variant: KernelVariant) -> f64 {
    static ROOFS: Mutex<Vec<(KernelVariant, &'static str, f64)>> = Mutex::new(Vec::new());
    let v = variant.runnable();
    // Held across the measurement: two threads asking for the same roof
    // measure it once, and no two measurements share the cores.
    let mut roofs = ROOFS.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&(_, _, gflops)) = roofs.iter().find(|r| r.0 == v && r.1 == T::NAME) {
        return gflops;
    }
    const CALLS: usize = 64;
    let q = ROOF_Q;
    let fill = |seed: usize| -> Vec<T> {
        (0..q * q).map(|i| T::from_f64(((i * seed) % 11) as f64 / 11.0 - 0.5)).collect()
    };
    let (a, b, mut c) = (fill(7), fill(3), vec![T::ZERO; q * q]);
    block_fma_with(v, &mut c, &a, &b, q);
    let started = Instant::now();
    let mut best = f64::INFINITY;
    for batch in 0.. {
        if batch >= 5 && started.elapsed().as_secs_f64() >= 2e-3 {
            break;
        }
        let t0 = Instant::now();
        for _ in 0..CALLS {
            block_fma_with(v, &mut c, &a, &b, q);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&c);
    let gflops = (2 * q.pow(3) * CALLS) as f64 / best.max(1e-9) / 1e9;
    mmc_obs::global().counter(mmc_obs::roofline::KERNEL_ROOF_MEASUREMENTS_COUNTER).add(1);
    roofs.push((v, T::NAME, gflops));
    gflops
}

/// Fused-FMA remainder kernel on unpacked row-major `q×q` operands:
/// updates the `mi×nj` sub-tile of `C` at `(i0, j0)`, ascending `k` per
/// element, one fused `mul_add` per step — bit-identical to the SIMD
/// lanes, so partial register tiles round exactly like full ones.
pub(crate) fn edge_fused<T: Element>(
    c: &mut [T],
    a: &[T],
    b: &[T],
    q: usize,
    (i0, mi, j0, nj): (usize, usize, usize, usize),
) {
    for i in i0..i0 + mi {
        for j in j0..j0 + nj {
            let mut acc = c[i * q + j];
            for k in 0..q {
                acc = a[i * q + k].mul_add(b[k * q + j], acc);
            }
            c[i * q + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(q: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        let mut v = vec![0.0; q * q];
        for i in 0..q {
            for j in 0..q {
                v[i * q + j] = f(i, j);
            }
        }
        v
    }

    #[test]
    fn identity_times_anything() {
        let q = 8;
        let id = pattern(q, |i, j| if i == j { 1.0 } else { 0.0 });
        let b = pattern(q, |i, j| (i * q + j) as f64);
        let mut c = vec![0.0; q * q];
        block_fma(&mut c, &id, &b, q);
        assert_eq!(c, b);
    }

    #[test]
    fn accumulates_into_c() {
        let q = 4;
        let a = pattern(q, |_, _| 1.0);
        let b = pattern(q, |_, _| 2.0);
        let mut c = pattern(q, |_, _| 5.0);
        block_fma(&mut c, &a, &b, q);
        // Each element gains sum_k 1·2 = 2q.
        assert!(c.iter().all(|&x| (x - (5.0 + 2.0 * q as f64)).abs() < 1e-12));
    }

    #[test]
    fn every_variant_matches_reference_on_irregular_data() {
        for v in variants_available() {
            for q in [1usize, 2, 3, 5, 8, 16, 32] {
                let a = pattern(q, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
                let b = pattern(q, |i, j| ((i * 3 + j * 5) % 7) as f64 * 0.25);
                let mut c1 = pattern(q, |i, j| (i + j) as f64);
                let mut c2 = c1.clone();
                block_fma_with(v, &mut c1, &a, &b, q);
                block_fma_reference(&mut c2, &a, &b, q);
                for (x, y) in c1.iter().zip(&c2) {
                    assert!((x - y).abs() < 1e-9, "{v} q={q}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn f32_variants_match_f32_reference() {
        for v in variants_available() {
            for q in [1usize, 3, 7, 16, 17] {
                let a: Vec<f32> = (0..q * q).map(|x| ((x * 7) % 11) as f32 - 5.0).collect();
                let b: Vec<f32> = (0..q * q).map(|x| ((x * 3) % 7) as f32 * 0.25).collect();
                let mut c1 = vec![1.0f32; q * q];
                let mut c2 = c1.clone();
                block_fma_with(v, &mut c1, &a, &b, q);
                block_fma_reference(&mut c2, &a, &b, q);
                for (x, y) in c1.iter().zip(&c2) {
                    assert!((x - y).abs() < 1e-3, "{v} q={q}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn q1_is_scalar_fma() {
        let mut c = [10.0];
        block_fma(&mut c, &[3.0], &[4.0], 1);
        assert_eq!(c[0], 22.0);
    }

    /// CI smoke: the dispatched kernel agrees with the scalar fallback on
    /// a `q=64` block (tolerance — fused vs unfused rounding differs).
    #[test]
    fn dispatched_matches_scalar_fallback() {
        let q = 64;
        let a = crate::BlockMatrix::pseudo_random(1, 1, q, 101);
        let b = crate::BlockMatrix::pseudo_random(1, 1, q, 202);
        let mut cd = vec![0.5; q * q];
        let mut cs = cd.clone();
        block_fma_with(variant(), &mut cd, a.block(0, 0), b.block(0, 0), q);
        block_fma_with(KernelVariant::Scalar, &mut cs, a.block(0, 0), b.block(0, 0), q);
        for (x, y) in cd.iter().zip(&cs) {
            assert!((x - y).abs() < 1e-10, "dispatched {} vs scalar: {x} vs {y}", variant());
        }
    }

    #[test]
    fn roofs_are_measured_once_per_variant_and_element_type() {
        let roofs = || {
            variants_available()
                .into_iter()
                .map(|v| (roof_gflops::<f64>(v), roof_gflops::<f32>(v)))
                .collect::<Vec<_>>()
        };
        let first = roofs();
        for (v, &(r64, r32)) in variants_available().iter().zip(&first) {
            assert!(r64.is_finite() && r64 > 0.0, "{v} f64 roof {r64}");
            assert!(r32.is_finite() && r32 > 0.0, "{v} f32 roof {r32}");
        }
        // Cached: the same numbers, and no pair measured twice. Other
        // tests can only ask for these same pairs (an unavailable
        // variant is measured as the one that runs), so the counter
        // holds exactly one measurement per pair.
        assert_eq!(roofs(), first);
        for v in KernelVariant::ALL {
            assert_eq!(roof_gflops::<f64>(v), roof_gflops::<f64>(v.runnable()));
        }
        let measured = mmc_obs::global()
            .snapshot()
            .counter(mmc_obs::roofline::KERNEL_ROOF_MEASUREMENTS_COUNTER);
        assert_eq!(measured, Some(2 * variants_available().len() as u64));
    }

    #[test]
    fn selection_honors_requests_and_rejects_unknown_names() {
        assert_eq!(select(Some("scalar")).unwrap(), KernelVariant::Scalar);
        let auto = select(None).unwrap();
        assert!(auto.is_available());
        // Bogus names are a hard error whose message lists every valid
        // spelling — no silent fallback to auto-detection.
        let err = select(Some("definitely-not-a-kernel")).unwrap_err();
        for valid in ["scalar", "avx2_fma", "avx512_fma", "neon", "auto"] {
            assert!(err.contains(valid), "error must list {valid:?}: {err}");
        }
        // A known SIMD request resolves to something the CPU can run.
        assert!(select(Some("avx2")).unwrap().is_available());
        assert!(select(Some("avx512")).unwrap().is_available());
        assert!(select(Some("neon")).unwrap().is_available());
        // With nothing requested, ZMM wins over YMM where the CPU has it.
        if KernelVariant::Avx512Fma.is_available() {
            assert_eq!(auto, KernelVariant::Avx512Fma);
        }
        // The cached dispatch returns an available variant and is stable.
        assert_eq!(variant(), variant());
        assert!(variant().is_available());
    }

    #[test]
    fn variant_names_are_stable() {
        assert_eq!(KernelVariant::Scalar.name(), "scalar");
        assert_eq!(KernelVariant::Avx2Fma.name(), "avx2_fma");
        assert_eq!(KernelVariant::Avx512Fma.name(), "avx512_fma");
        assert_eq!(KernelVariant::Neon.name(), "neon");
        assert!(!KernelVariant::Scalar.is_simd());
        assert!(KernelVariant::Avx2Fma.is_simd() && KernelVariant::Neon.is_simd());
        assert!(KernelVariant::Avx512Fma.is_simd());
        assert_eq!(variants_available().first(), Some(&KernelVariant::Scalar));
    }

    #[test]
    fn names_and_aliases_round_trip() {
        for v in KernelVariant::ALL {
            assert_eq!(KernelVariant::from_name(v.name()), Some(v));
            assert!(VARIANT_NAMES.contains(v.name()), "{v} missing from {VARIANT_NAMES}");
        }
        assert_eq!(KernelVariant::from_name("avx2"), Some(KernelVariant::Avx2Fma));
        assert_eq!(KernelVariant::from_name("avx512"), Some(KernelVariant::Avx512Fma));
        assert_eq!(KernelVariant::from_name("auto"), None);
        assert_eq!(KernelVariant::from_name("AVX512"), None);
    }

    #[test]
    fn tiles_follow_the_runnable_variant() {
        for v in KernelVariant::ALL {
            let (t64, t32) = (v.tile::<f64>(), v.tile::<f32>());
            if v.runnable() == KernelVariant::Avx512Fma {
                assert_eq!((t64.mr, t64.nr, t32.nr), (8, 16, 32));
            } else {
                // Everything else, unavailable variants included, runs
                // a 6×8 (f64) / 6×16 (f32) tile.
                assert_eq!((t64.mr, t64.nr, t32.nr), (6, 8, 16), "{v}");
            }
            assert!(v.runnable().is_available());
            if !v.is_available() {
                assert_eq!(v.runnable(), KernelVariant::Scalar);
                assert_eq!(t64, KernelVariant::Scalar.tile::<f64>());
            }
        }
    }
}
