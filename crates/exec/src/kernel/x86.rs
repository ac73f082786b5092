//! Register-blocked micro-kernels for AVX2+FMA and AVX-512F (x86_64).
//!
//! The YMM tile shapes are chosen against Haswell-class port budgets,
//! where two FMA ports compete with two load ports:
//!
//! * `f64` 6×8 — twelve YMM accumulators (two 4-wide registers per `C`
//!   row). Per `k` step: two `B` loads + six `A` broadcasts = 8 load-port
//!   µops against 12 FMAs, so the kernel runs at the FMA limit
//!   (16 FLOP/cycle) instead of the load-port limit the old 8×4 shape hit
//!   (one `B` load + eight broadcasts = 9 load µops per 8 FMAs).
//! * `f32` 6×16 — the same twelve accumulators at twice the lane width.
//!
//! Twelve accumulators also cover the FMA latency×throughput product
//! (4–5 cycles × 2 ports), so the dependency chains never stall. Software
//! prefetch pulls the packed streams a few steps ahead; the two extra
//! load-port µops still fit under the FMA-bound cycle count.
//!
//! The ZMM kernels keep two registers per row at twice the width and
//! take eight rows: `f64` 8×16 and `f32` 8×32, sixteen accumulators out
//! of AVX-512's 32 registers. Per `k` step that is two `B` loads + eight
//! broadcasts against 16 FMAs, each twice as wide as a YMM FMA. Eight
//! rows also divide the benchmark's `q = 32` and `q = 64` blocks, so
//! those blocks have no edge tiles. Taller or wider shapes (12×16,
//! 8×24, 6×32, 4×32) measured slower on a Xeon with two FMA units.
//!
//! Rounding contract: every element update is one *fused* multiply-add
//! per `k` step, ascending `k` — identical to the scalar `mul_add` edge
//! paths, so full and partial register tiles agree bitwise, every
//! executor path through one variant is bit-identical, and the YMM and
//! ZMM variants agree with each other.

use super::{edge_fused, prefetch_read};
use core::arch::x86_64::*;

/// Rows of `C` per register tile (both element types).
const MR: usize = 6;
/// `f64` columns per register tile (two 4-wide YMM registers).
const NR_F64: usize = 8;
/// `f32` columns per register tile (two 8-wide YMM registers).
const NR_F32: usize = 16;
/// How many `k` steps ahead the packed streams are prefetched.
const PF_AHEAD: usize = 8;
/// Rows of `C` per ZMM register tile (both element types).
const MR_ZMM: usize = 8;
/// `f64` columns per ZMM register tile (two 8-wide ZMM registers).
const NR_F64_ZMM: usize = 16;
/// `f32` columns per ZMM register tile (two 16-wide ZMM registers).
const NR_F32_ZMM: usize = 32;

/// `C(6×8) += Apanel × Bpanel` on packed `f64` micro-panels.
///
/// `ap` holds `kc` groups of 6 `A` values (one per `C` row), `bp` holds
/// `kc` groups of 8 `B` values (one per `C` column), `c` points at a
/// 6×8 tile stored with row stride `ldc`.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available, `ap` has at least
/// `kc·6` elements, `bp` at least `kc·8`, and the 6 rows of 8 elements
/// at `c` (stride `ldc`) are in bounds and unaliased.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn micro_6x8_f64(kc: usize, ap: *const f64, bp: *const f64, c: *mut f64, ldc: usize) {
    let mut acc = [[_mm256_setzero_pd(); 2]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_pd(c.add(r * ldc));
        row[1] = _mm256_loadu_pd(c.add(r * ldc + 4));
    }
    for k in 0..kc {
        prefetch_read(bp.wrapping_add((k + PF_AHEAD) * NR_F64));
        prefetch_read(ap.wrapping_add((k + PF_AHEAD) * MR));
        let b0 = _mm256_loadu_pd(bp.add(k * NR_F64));
        let b1 = _mm256_loadu_pd(bp.add(k * NR_F64 + 4));
        let ak = ap.add(k * MR);
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_pd(*ak.add(r));
            row[0] = _mm256_fmadd_pd(av, b0, row[0]);
            row[1] = _mm256_fmadd_pd(av, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_pd(c.add(r * ldc), row[0]);
        _mm256_storeu_pd(c.add(r * ldc + 4), row[1]);
    }
}

/// `C(6×16) += Apanel × Bpanel` on packed `f32` micro-panels.
///
/// Same layout contract as [`micro_6x8_f64`] with `NR = 16`: `ap` holds
/// `kc` groups of 6 `A` values, `bp` holds `kc` groups of 16 `B` values.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available, `ap` has at least
/// `kc·6` elements, `bp` at least `kc·16`, and the 6 rows of 16 elements
/// at `c` (stride `ldc`) are in bounds and unaliased.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn micro_6x16_f32(kc: usize, ap: *const f32, bp: *const f32, c: *mut f32, ldc: usize) {
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(c.add(r * ldc));
        row[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
    }
    for k in 0..kc {
        prefetch_read(bp.wrapping_add((k + PF_AHEAD) * NR_F32));
        prefetch_read(ap.wrapping_add((k + PF_AHEAD) * MR));
        let b0 = _mm256_loadu_ps(bp.add(k * NR_F32));
        let b1 = _mm256_loadu_ps(bp.add(k * NR_F32 + 8));
        let ak = ap.add(k * MR);
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm256_set1_ps(*ak.add(r));
            row[0] = _mm256_fmadd_ps(av, b0, row[0]);
            row[1] = _mm256_fmadd_ps(av, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm256_storeu_ps(c.add(r * ldc), row[0]);
        _mm256_storeu_ps(c.add(r * ldc + 8), row[1]);
    }
}

/// `c += a × b` on unpacked row-major `q×q` `f64` blocks, register-blocked.
///
/// Full 6×8 tiles run the vector kernel straight off the block storage
/// (broadcasting `A` with stride `q`, loading `B` rows contiguously);
/// the `q % 6` row strip runs the same vector loop with a runtime row
/// count, and only the `q % 8` column sliver uses the fused scalar
/// remainder — all paths round identically (fused, ascending `k`).
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available and each slice holds at
/// least `q²` elements.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn block_fma_avx2(c: &mut [f64], a: &[f64], b: &[f64], q: usize) {
    debug_assert!(c.len() >= q * q && a.len() >= q * q && b.len() >= q * q);
    let cp = c.as_mut_ptr();
    let apn = a.as_ptr();
    let bpn = b.as_ptr();
    let mut ir = 0;
    while ir + MR <= q {
        let mut jr = 0;
        while jr + NR_F64 <= q {
            let ctile = cp.add(ir * q + jr);
            let mut acc = [[_mm256_setzero_pd(); 2]; MR];
            for (r, row) in acc.iter_mut().enumerate() {
                row[0] = _mm256_loadu_pd(ctile.add(r * q));
                row[1] = _mm256_loadu_pd(ctile.add(r * q + 4));
            }
            for k in 0..q {
                let b0 = _mm256_loadu_pd(bpn.add(k * q + jr));
                let b1 = _mm256_loadu_pd(bpn.add(k * q + jr + 4));
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = _mm256_set1_pd(*apn.add((ir + r) * q + k));
                    row[0] = _mm256_fmadd_pd(av, b0, row[0]);
                    row[1] = _mm256_fmadd_pd(av, b1, row[1]);
                }
            }
            for (r, row) in acc.iter().enumerate() {
                _mm256_storeu_pd(ctile.add(r * q), row[0]);
                _mm256_storeu_pd(ctile.add(r * q + 4), row[1]);
            }
            jr += NR_F64;
        }
        if jr < q {
            edge_fused(c, a, b, q, (ir, MR, jr, q - jr));
        }
        ir += MR;
    }
    // Row-remainder strip (`q % 6` rows): the same vector loop with a
    // runtime row count, so the strip stays FMA-bound instead of falling
    // into the latency-bound scalar chain. Fused ascending-`k` like the
    // full tiles, so the rounding is unchanged.
    if ir < q {
        let mi = q - ir;
        let mut jr = 0;
        while jr + NR_F64 <= q {
            let ctile = cp.add(ir * q + jr);
            let mut acc = [[_mm256_setzero_pd(); 2]; MR];
            for (r, row) in acc.iter_mut().take(mi).enumerate() {
                row[0] = _mm256_loadu_pd(ctile.add(r * q));
                row[1] = _mm256_loadu_pd(ctile.add(r * q + 4));
            }
            for k in 0..q {
                let b0 = _mm256_loadu_pd(bpn.add(k * q + jr));
                let b1 = _mm256_loadu_pd(bpn.add(k * q + jr + 4));
                for (r, row) in acc.iter_mut().take(mi).enumerate() {
                    let av = _mm256_set1_pd(*apn.add((ir + r) * q + k));
                    row[0] = _mm256_fmadd_pd(av, b0, row[0]);
                    row[1] = _mm256_fmadd_pd(av, b1, row[1]);
                }
            }
            for (r, row) in acc.iter().take(mi).enumerate() {
                _mm256_storeu_pd(ctile.add(r * q), row[0]);
                _mm256_storeu_pd(ctile.add(r * q + 4), row[1]);
            }
            jr += NR_F64;
        }
        if jr < q {
            edge_fused(c, a, b, q, (ir, mi, jr, q - jr));
        }
    }
}

/// `C(8×16) += Apanel × Bpanel` on packed `f64` micro-panels.
///
/// `ap` holds `kc` groups of 8 `A` values (one per `C` row), `bp` holds
/// `kc` groups of 16 `B` values (one per `C` column), `c` points at an
/// 8×16 tile stored with row stride `ldc`. Each `B` group spans two
/// cache lines, so both are prefetched.
///
/// # Safety
/// Caller must ensure AVX-512F is available, `ap` has at least `kc·8`
/// elements, `bp` at least `kc·16`, and the 8 rows of 16 elements at `c`
/// (stride `ldc`) are in bounds and unaliased.
#[target_feature(enable = "avx512f")]
pub unsafe fn micro_8x16_f64(kc: usize, ap: *const f64, bp: *const f64, c: *mut f64, ldc: usize) {
    let mut acc = [[_mm512_setzero_pd(); 2]; MR_ZMM];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm512_loadu_pd(c.add(r * ldc));
        row[1] = _mm512_loadu_pd(c.add(r * ldc + 8));
    }
    for k in 0..kc {
        let pf = (k + PF_AHEAD) * NR_F64_ZMM;
        prefetch_read(bp.wrapping_add(pf));
        prefetch_read(bp.wrapping_add(pf + 8));
        prefetch_read(ap.wrapping_add((k + PF_AHEAD) * MR_ZMM));
        let b0 = _mm512_loadu_pd(bp.add(k * NR_F64_ZMM));
        let b1 = _mm512_loadu_pd(bp.add(k * NR_F64_ZMM + 8));
        let ak = ap.add(k * MR_ZMM);
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*ak.add(r));
            row[0] = _mm512_fmadd_pd(av, b0, row[0]);
            row[1] = _mm512_fmadd_pd(av, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm512_storeu_pd(c.add(r * ldc), row[0]);
        _mm512_storeu_pd(c.add(r * ldc + 8), row[1]);
    }
}

/// `C(8×32) += Apanel × Bpanel` on packed `f32` micro-panels.
///
/// Same layout contract as [`micro_8x16_f64`] with `NR = 32`: `ap` holds
/// `kc` groups of 8 `A` values, `bp` holds `kc` groups of 32 `B` values.
///
/// # Safety
/// Caller must ensure AVX-512F is available, `ap` has at least `kc·8`
/// elements, `bp` at least `kc·32`, and the 8 rows of 32 elements at `c`
/// (stride `ldc`) are in bounds and unaliased.
#[target_feature(enable = "avx512f")]
pub unsafe fn micro_8x32_f32(kc: usize, ap: *const f32, bp: *const f32, c: *mut f32, ldc: usize) {
    let mut acc = [[_mm512_setzero_ps(); 2]; MR_ZMM];
    for (r, row) in acc.iter_mut().enumerate() {
        row[0] = _mm512_loadu_ps(c.add(r * ldc));
        row[1] = _mm512_loadu_ps(c.add(r * ldc + 16));
    }
    for k in 0..kc {
        let pf = (k + PF_AHEAD) * NR_F32_ZMM;
        prefetch_read(bp.wrapping_add(pf));
        prefetch_read(bp.wrapping_add(pf + 16));
        prefetch_read(ap.wrapping_add((k + PF_AHEAD) * MR_ZMM));
        let b0 = _mm512_loadu_ps(bp.add(k * NR_F32_ZMM));
        let b1 = _mm512_loadu_ps(bp.add(k * NR_F32_ZMM + 16));
        let ak = ap.add(k * MR_ZMM);
        for (r, row) in acc.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ak.add(r));
            row[0] = _mm512_fmadd_ps(av, b0, row[0]);
            row[1] = _mm512_fmadd_ps(av, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().enumerate() {
        _mm512_storeu_ps(c.add(r * ldc), row[0]);
        _mm512_storeu_ps(c.add(r * ldc + 16), row[1]);
    }
}

/// `c += a × b` on unpacked row-major `q×q` `f64` blocks, with 8×16 ZMM
/// register tiles.
///
/// Tiles run straight off the block storage (broadcasting `A` with
/// stride `q`, loading `B` rows contiguously). The `q % 8` row strip
/// runs the same loop with a runtime row count, and the `q % 16` column
/// sliver runs it with masked loads and stores, whose masked-off lanes
/// touch no memory — every element is one fused multiply-add per
/// ascending `k`, like the full tiles.
///
/// # Safety
/// Caller must ensure AVX-512F is available and each slice holds at
/// least `q²` elements.
#[target_feature(enable = "avx512f")]
pub unsafe fn block_fma_avx512(c: &mut [f64], a: &[f64], b: &[f64], q: usize) {
    debug_assert!(c.len() >= q * q && a.len() >= q * q && b.len() >= q * q);
    let (cp, ap, bp) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut ir = 0;
    while ir < q {
        let rows = MR_ZMM.min(q - ir);
        let mut jr = 0;
        while jr + NR_F64_ZMM <= q {
            if rows == MR_ZMM {
                tile_8x16_unpacked::<false>(cp, ap, bp, q, ir, MR_ZMM, jr, [0xff; 2]);
            } else {
                tile_8x16_unpacked::<false>(cp, ap, bp, q, ir, rows, jr, [0xff; 2]);
            }
            jr += NR_F64_ZMM;
        }
        if jr < q {
            let live = (1u32 << (q - jr)) - 1;
            let masks = [live as __mmask8, (live >> 8) as __mmask8];
            tile_8x16_unpacked::<true>(cp, ap, bp, q, ir, rows, jr, masks);
        }
        ir += MR_ZMM;
    }
}

/// One `rows×16` register tile of [`block_fma_avx512`] at `(ir, jr)`:
/// `C` rows are loaded, take `q` fused steps and are stored back. With
/// `MASKED`, `masks` select the live columns of the two ZMM halves.
///
/// # Safety
/// Caller must ensure AVX-512F is available, `cp`, `ap` and `bp` each
/// point at `q²` elements, `ir + rows ≤ q`, `rows ≤ 8`, and the columns
/// from `jr` that the masks (or, unmasked, all 16) select lie below `q`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_8x16_unpacked<const MASKED: bool>(
    cp: *mut f64,
    ap: *const f64,
    bp: *const f64,
    q: usize,
    ir: usize,
    rows: usize,
    jr: usize,
    masks: [__mmask8; 2],
) {
    let load = |p: *const f64, h: usize| {
        if MASKED {
            _mm512_maskz_loadu_pd(masks[h], p)
        } else {
            _mm512_loadu_pd(p)
        }
    };
    // `wrapping_add`: a masked-off half may start past the block's end.
    let ctile = cp.add(ir * q + jr);
    let mut acc = [[_mm512_setzero_pd(); 2]; MR_ZMM];
    for (r, row) in acc.iter_mut().take(rows).enumerate() {
        row[0] = load(ctile.add(r * q), 0);
        row[1] = load(ctile.wrapping_add(r * q + 8), 1);
    }
    for k in 0..q {
        let b0 = load(bp.add(k * q + jr), 0);
        let b1 = load(bp.wrapping_add(k * q + jr + 8), 1);
        for (r, row) in acc.iter_mut().take(rows).enumerate() {
            let av = _mm512_set1_pd(*ap.add((ir + r) * q + k));
            row[0] = _mm512_fmadd_pd(av, b0, row[0]);
            row[1] = _mm512_fmadd_pd(av, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().take(rows).enumerate() {
        if MASKED {
            _mm512_mask_storeu_pd(ctile.add(r * q), masks[0], row[0]);
            _mm512_mask_storeu_pd(ctile.wrapping_add(r * q + 8), masks[1], row[1]);
        } else {
            _mm512_storeu_pd(ctile.add(r * q), row[0]);
            _mm512_storeu_pd(ctile.add(r * q + 8), row[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::elem::Element;
    use crate::kernel::{block_fma_reference, KernelVariant};

    /// A packed micro-kernel's signature, for the shared checks below.
    type Micro<T> = unsafe fn(usize, *const T, *const T, *mut T, usize);

    /// Run `micro` on one hand-packed `mr×nr` tile with depth `kc` and a
    /// non-zero starting `C`; it must equal fused scalar `mul_add` per
    /// element, ascending `k`, exactly.
    fn check_packed_against_fused_scalar<T: Element>(micro: Micro<T>, mr: usize, nr: usize) {
        for kc in [1usize, 11, 64] {
            let val = |x: usize, m: usize, d: usize, off: f64| {
                T::from_f64(((x * m) % d) as f64 * 0.37 - off)
            };
            let a: Vec<T> = (0..mr * kc).map(|x| val(x, 11, 19, 3.0)).collect(); // row-major mr×kc
            let b: Vec<T> = (0..kc * nr).map(|x| val(x, 7, 13, 2.0)).collect(); // row-major kc×nr
            let mut ap = vec![T::ZERO; kc * mr];
            for k in 0..kc {
                for r in 0..mr {
                    ap[k * mr + r] = a[r * kc + k];
                }
            }
            let mut c: Vec<T> = (0..mr * nr).map(|x| val(x, 5, 17, 1.0)).collect();
            let mut oracle = c.clone();
            // SAFETY: callers check availability; buffers sized exactly.
            unsafe { micro(kc, ap.as_ptr(), b.as_ptr(), c.as_mut_ptr(), nr) };
            for r in 0..mr {
                for j in 0..nr {
                    let mut acc = oracle[r * nr + j];
                    for k in 0..kc {
                        acc = a[r * kc + k].mul_add(b[k * nr + j], acc);
                    }
                    oracle[r * nr + j] = acc;
                }
            }
            assert_eq!(
                c,
                oracle,
                "{} {mr}x{nr} kc={kc}: vector lanes must equal fused scalar",
                T::NAME
            );
        }
    }

    #[test]
    fn zmm_packed_micro_kernels_match_fused_scalar() {
        if !KernelVariant::Avx512Fma.is_available() {
            eprintln!("skipping: no AVX-512F on this host");
            return;
        }
        check_packed_against_fused_scalar::<f64>(micro_8x16_f64, MR_ZMM, NR_F64_ZMM);
        check_packed_against_fused_scalar::<f32>(micro_8x32_f32, MR_ZMM, NR_F32_ZMM);
    }

    #[test]
    fn avx512_block_kernel_matches_reference_and_fused_scalar() {
        if !KernelVariant::Avx512Fma.is_available() {
            eprintln!("skipping: no AVX-512F on this host");
            return;
        }
        // Multiples of the 8×16 tile, ragged rows, ragged (masked)
        // columns, and blocks smaller than one tile.
        for q in [1usize, 3, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 64] {
            let a: Vec<f64> = (0..q * q).map(|x| ((x * 37) % 23) as f64 * 0.3 - 3.1).collect();
            let b: Vec<f64> = (0..q * q).map(|x| ((x * 5) % 17) as f64 * 0.125 - 1.0).collect();
            let c0: Vec<f64> = (0..q * q).map(|x| x as f64 * 0.01 - 0.5).collect();
            let mut c = c0.clone();
            // SAFETY: availability checked above; slices are q².
            unsafe { block_fma_avx512(&mut c, &a, &b, q) };
            let mut reference = c0.clone();
            block_fma_reference(&mut reference, &a, &b, q);
            for (i, (x, y)) in c.iter().zip(&reference).enumerate() {
                assert!((x - y).abs() < 1e-9, "q={q} elem {i}: {x} vs {y}");
            }
            let mut fused = c0.clone();
            edge_fused(&mut fused, &a, &b, q, (0, q, 0, q));
            assert_eq!(c, fused, "q={q}: every lane must round like fused scalar");
        }
    }

    #[test]
    fn avx2_block_kernel_matches_reference() {
        if !KernelVariant::Avx2Fma.is_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        // Multiples of the register tile and ragged edges alike.
        for q in [1usize, 4, 6, 7, 8, 9, 12, 14, 31, 32, 64] {
            let a: Vec<f64> = (0..q * q).map(|x| ((x * 37) % 23) as f64 - 11.0).collect();
            let b: Vec<f64> = (0..q * q).map(|x| ((x * 5) % 17) as f64 * 0.125).collect();
            let mut c1: Vec<f64> = (0..q * q).map(|x| x as f64 * 0.01).collect();
            let mut c2 = c1.clone();
            // SAFETY: availability checked above; slices are q².
            unsafe { block_fma_avx2(&mut c1, &a, &b, q) };
            block_fma_reference(&mut c2, &a, &b, q);
            for (i, (x, y)) in c1.iter().zip(&c2).enumerate() {
                assert!((x - y).abs() < 1e-9, "q={q} elem {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn packed_micro_kernel_matches_unpacked_tile() {
        if !KernelVariant::Avx2Fma.is_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        // One full 6×8 tile with kc = 16: pack operands by hand.
        let kc = 16usize;
        let a: Vec<f64> = (0..MR * kc).map(|x| ((x * 11) % 19) as f64 - 9.0).collect(); // row-major MR×kc
        let b: Vec<f64> = (0..kc * NR_F64).map(|x| ((x * 7) % 13) as f64 * 0.25).collect(); // row-major kc×NR
        let mut ap = vec![0.0; kc * MR];
        for k in 0..kc {
            for r in 0..MR {
                ap[k * MR + r] = a[r * kc + k];
            }
        }
        let mut c = vec![1.0; MR * NR_F64];
        let mut oracle = c.clone();
        // SAFETY: availability checked; buffers sized exactly.
        unsafe { micro_6x8_f64(kc, ap.as_ptr(), b.as_ptr(), c.as_mut_ptr(), NR_F64) };
        for r in 0..MR {
            for j in 0..NR_F64 {
                let mut acc = oracle[r * NR_F64 + j];
                for k in 0..kc {
                    acc = a[r * kc + k].mul_add(b[k * NR_F64 + j], acc);
                }
                oracle[r * NR_F64 + j] = acc;
            }
        }
        assert_eq!(c, oracle, "fused vector lanes must equal fused scalar exactly");
    }

    #[test]
    fn packed_f32_micro_kernel_matches_fused_scalar() {
        if !KernelVariant::Avx2Fma.is_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        let kc = 11usize;
        let a: Vec<f32> = (0..MR * kc).map(|x| ((x * 11) % 19) as f32 - 9.0).collect();
        let b: Vec<f32> = (0..kc * NR_F32).map(|x| ((x * 7) % 13) as f32 * 0.25).collect();
        let mut ap = vec![0.0f32; kc * MR];
        for k in 0..kc {
            for r in 0..MR {
                ap[k * MR + r] = a[r * kc + k];
            }
        }
        let mut c = vec![1.0f32; MR * NR_F32];
        let mut oracle = c.clone();
        // SAFETY: availability checked; buffers sized exactly.
        unsafe { micro_6x16_f32(kc, ap.as_ptr(), b.as_ptr(), c.as_mut_ptr(), NR_F32) };
        for r in 0..MR {
            for j in 0..NR_F32 {
                let mut acc = oracle[r * NR_F32 + j];
                for k in 0..kc {
                    acc = a[r * kc + k].mul_add(b[k * NR_F32 + j], acc);
                }
                oracle[r * NR_F32 + j] = acc;
            }
        }
        assert_eq!(c, oracle, "fused f32 vector lanes must equal fused scalar exactly");
    }
}
