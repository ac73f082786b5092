//! Register-blocked block kernels for AVX2+FMA and AVX-512F (x86_64).
//!
//! Every kernel updates one row-major `q×q` block of `C` straight off the
//! block storage: `A` is broadcast with stride `q` and `B` rows load
//! contiguously, so nothing is copied before the multiply.
//!
//! The YMM tile shapes are chosen against Haswell-class port budgets,
//! where two FMA ports compete with two load ports:
//!
//! * `f64` 6×8 — twelve YMM accumulators (two 4-wide registers per `C`
//!   row). Per `k` step: two `B` loads + six `A` broadcasts = 8 load-port
//!   µops against 12 FMAs, so the kernel runs at the FMA limit
//!   (16 FLOP/cycle) instead of the load-port limit an 8×4 shape hits
//!   (one `B` load + eight broadcasts = 9 load µops per 8 FMAs).
//! * `f32` 6×16 — the same twelve accumulators at twice the lane width.
//!
//! Twelve accumulators also cover the FMA latency×throughput product
//! (4–5 cycles × 2 ports), so the dependency chains never stall.
//!
//! The ZMM kernels keep two registers per row at twice the width and
//! take eight rows: `f64` 8×16 and `f32` 8×32, sixteen accumulators out
//! of AVX-512's 32 registers. Per `k` step that is two `B` loads + eight
//! broadcasts against 16 FMAs, each twice as wide as a YMM FMA. Eight
//! rows also divide the benchmark's `q = 32` and `q = 64` blocks, so
//! those blocks have no row strip. Their column sliver runs with masked
//! loads and stores instead of a scalar remainder.
//!
//! Rounding contract: every element update is one *fused* multiply-add
//! per `k` step, ascending `k` — identical to the scalar `mul_add` edge
//! path, so full and partial register tiles agree bitwise, every
//! executor path through one variant is bit-identical, and the YMM and
//! ZMM variants agree with each other.

use super::edge_fused;
use core::arch::x86_64::*;

/// Rows of `C` per YMM register tile (both element types).
const MR: usize = 6;
/// `f64` columns per YMM register tile (two 4-wide registers).
const NR_F64: usize = 8;
/// `f32` columns per YMM register tile (two 8-wide registers).
const NR_F32: usize = 16;
/// Rows of `C` per ZMM register tile (both element types).
const MR_ZMM: usize = 8;
/// `f64` columns per ZMM register tile (two 8-wide ZMM registers).
const NR_F64_ZMM: usize = 16;
/// `f32` columns per ZMM register tile (two 16-wide ZMM registers).
const NR_F32_ZMM: usize = 32;

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

/// `c += a × b` on unpacked row-major `q×q` `f32` blocks, with 6×16 YMM
/// register tiles.
///
/// The `f32` twin of [`block_fma_avx2`]: full tiles and the `q % 6` row
/// strip run the vector loop (the strip with a runtime row count), and
/// only the `q % 16` column sliver uses the fused scalar remainder.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available and each slice holds at
/// least `q²` elements.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn block_fma_avx2_f32(c: &mut [f32], a: &[f32], b: &[f32], q: usize) {
    debug_assert!(c.len() >= q * q && a.len() >= q * q && b.len() >= q * q);
    let (cp, ap, bp) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut ir = 0;
    while ir < q {
        let rows = MR.min(q - ir);
        let mut jr = 0;
        while jr + NR_F32 <= q {
            if rows == MR {
                tile_6x16_f32(cp, ap, bp, q, ir, MR, jr);
            } else {
                tile_6x16_f32(cp, ap, bp, q, ir, rows, jr);
            }
            jr += NR_F32;
        }
        if jr < q {
            edge_fused(c, a, b, q, (ir, rows, jr, q - jr));
        }
        ir += MR;
    }
}

/// One `rows×16` register tile of [`block_fma_avx2_f32`] at `(ir, jr)`.
///
/// # Safety
/// Caller must ensure AVX2 and FMA are available, `cp`, `ap` and `bp`
/// each point at `q²` elements, `ir + rows ≤ q`, `rows ≤ 6` and
/// `jr + 16 ≤ q`.
#[inline(always)]
unsafe fn tile_6x16_f32(
    cp: *mut f32,
    ap: *const f32,
    bp: *const f32,
    q: usize,
    ir: usize,
    rows: usize,
    jr: usize,
) {
    let ctile = cp.add(ir * q + jr);
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    for (r, row) in acc.iter_mut().take(rows).enumerate() {
        row[0] = _mm256_loadu_ps(ctile.add(r * q));
        row[1] = _mm256_loadu_ps(ctile.add(r * q + 8));
    }
    for k in 0..q {
        let b0 = _mm256_loadu_ps(bp.add(k * q + jr));
        let b1 = _mm256_loadu_ps(bp.add(k * q + jr + 8));
        for (r, row) in acc.iter_mut().take(rows).enumerate() {
            let av = _mm256_set1_ps(*ap.add((ir + r) * q + k));
            row[0] = _mm256_fmadd_ps(av, b0, row[0]);
            row[1] = _mm256_fmadd_ps(av, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().take(rows).enumerate() {
        _mm256_storeu_ps(ctile.add(r * q), row[0]);
        _mm256_storeu_ps(ctile.add(r * q + 8), row[1]);
    }
}

/// `c += a × b` on unpacked row-major `q×q` `f32` blocks, with 8×32 ZMM
/// register tiles.
///
/// The `f32` twin of [`block_fma_avx512`]: the `q % 8` row strip runs
/// with a runtime row count and the `q % 32` column sliver with masked
/// loads and stores, so every element takes the vector path.
///
/// # Safety
/// Caller must ensure AVX-512F is available and each slice holds at
/// least `q²` elements.
#[target_feature(enable = "avx512f")]
pub unsafe fn block_fma_avx512_f32(c: &mut [f32], a: &[f32], b: &[f32], q: usize) {
    debug_assert!(c.len() >= q * q && a.len() >= q * q && b.len() >= q * q);
    let (cp, ap, bp) = (c.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut ir = 0;
    while ir < q {
        let rows = MR_ZMM.min(q - ir);
        let mut jr = 0;
        while jr + NR_F32_ZMM <= q {
            if rows == MR_ZMM {
                tile_8x32_unpacked::<false>(cp, ap, bp, q, ir, MR_ZMM, jr, [0xffff; 2]);
            } else {
                tile_8x32_unpacked::<false>(cp, ap, bp, q, ir, rows, jr, [0xffff; 2]);
            }
            jr += NR_F32_ZMM;
        }
        if jr < q {
            let live = (1u64 << (q - jr)) - 1;
            let masks = [live as __mmask16, (live >> 16) as __mmask16];
            tile_8x32_unpacked::<true>(cp, ap, bp, q, ir, rows, jr, masks);
        }
        ir += MR_ZMM;
    }
}

/// One `rows×32` register tile of [`block_fma_avx512_f32`] at `(ir, jr)`;
/// the `f32` twin of [`tile_8x16_unpacked`].
///
/// # Safety
/// As [`tile_8x16_unpacked`], with 32 columns in place of 16.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_8x32_unpacked<const MASKED: bool>(
    cp: *mut f32,
    ap: *const f32,
    bp: *const f32,
    q: usize,
    ir: usize,
    rows: usize,
    jr: usize,
    masks: [__mmask16; 2],
) {
    let load = |p: *const f32, h: usize| {
        if MASKED {
            _mm512_maskz_loadu_ps(masks[h], p)
        } else {
            _mm512_loadu_ps(p)
        }
    };
    // `wrapping_add`: a masked-off half may start past the block's end.
    let ctile = cp.add(ir * q + jr);
    let mut acc = [[_mm512_setzero_ps(); 2]; MR_ZMM];
    for (r, row) in acc.iter_mut().take(rows).enumerate() {
        row[0] = load(ctile.add(r * q), 0);
        row[1] = load(ctile.wrapping_add(r * q + 16), 1);
    }
    for k in 0..q {
        let b0 = load(bp.add(k * q + jr), 0);
        let b1 = load(bp.wrapping_add(k * q + jr + 16), 1);
        for (r, row) in acc.iter_mut().take(rows).enumerate() {
            let av = _mm512_set1_ps(*ap.add((ir + r) * q + k));
            row[0] = _mm512_fmadd_ps(av, b0, row[0]);
            row[1] = _mm512_fmadd_ps(av, b1, row[1]);
        }
    }
    for (r, row) in acc.iter().take(rows).enumerate() {
        if MASKED {
            _mm512_mask_storeu_ps(ctile.add(r * q), masks[0], row[0]);
            _mm512_mask_storeu_ps(ctile.wrapping_add(r * q + 16), masks[1], row[1]);
        } else {
            _mm512_storeu_ps(ctile.add(r * q), row[0]);
            _mm512_storeu_ps(ctile.add(r * q + 16), row[1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::elem::Element;
    use crate::kernel::{block_fma_reference, KernelVariant};

    /// Block sides for the `f32` kernels: below one tile, multiples of
    /// the 16- and 32-wide tiles, and ragged rows and columns around them.
    const F32_SIDES: [usize; 12] = [1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64];

    /// Run `kernel` on irregular `q×q` `f32` data from a non-zero `C`; it
    /// must equal the fused scalar remainder ([`edge_fused`]) bit for bit.
    fn check_f32_against_fused_scalar(
        name: &str,
        kernel: unsafe fn(&mut [f32], &[f32], &[f32], usize),
    ) {
        for q in F32_SIDES {
            let val = |x: usize, m: usize, d: usize, off: f64| {
                f32::from_f64(((x * m) % d) as f64 * 0.37 - off)
            };
            let a: Vec<f32> = (0..q * q).map(|x| val(x, 37, 23, 3.1)).collect();
            let b: Vec<f32> = (0..q * q).map(|x| val(x, 5, 17, 1.0)).collect();
            let c0: Vec<f32> = (0..q * q).map(|x| val(x, 11, 19, 0.5)).collect();
            let mut c = c0.clone();
            // SAFETY: callers check availability; slices are q².
            unsafe { kernel(&mut c, &a, &b, q) };
            let mut fused = c0;
            edge_fused(&mut fused, &a, &b, q, (0, q, 0, q));
            assert_eq!(c, fused, "{name} q={q}: every lane must round like fused scalar");
        }
    }

    #[test]
    fn avx2_f32_block_kernel_matches_fused_scalar() {
        if !KernelVariant::Avx2Fma.is_available() {
            eprintln!("skipping: no AVX2+FMA on this host");
            return;
        }
        check_f32_against_fused_scalar("avx2_f32", block_fma_avx2_f32);
    }

    #[test]
    fn avx512_f32_block_kernel_matches_fused_scalar() {
        if !KernelVariant::Avx512Fma.is_available() {
            eprintln!("skipping: no AVX-512F on this host");
            return;
        }
        check_f32_against_fused_scalar("avx512_f32", block_fma_avx512_f32);
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
}
