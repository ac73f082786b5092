//! NEON register-blocked block kernels (aarch64).
//!
//! Same tile shapes as the AVX2 kernels — 6×8 for `f64`, 6×16 for `f32`
//! — but on 128-bit vectors: each `C` row is four `float64x2_t` (or
//! `float32x4_t`) registers, so the tile occupies 24 of the 32 vector
//! registers, leaving room for the four `B` vectors and the `A`
//! broadcast of each `k` step. Like [`super::x86`], the kernels run
//! straight off the row-major `q×q` block storage.
//!
//! Rounding contract matches [`super::x86`]: one fused multiply-add per
//! element per `k` step, ascending `k`, so full tiles, edges, and every
//! executor path through the NEON variant agree bitwise.

use super::edge_fused;
use core::arch::aarch64::*;

/// Rows of `C` per register tile (both element types).
const MR: usize = 6;
/// `f64` columns per register tile (four 2-wide NEON registers).
const NR_F64: usize = 8;
/// `f32` columns per register tile (four 4-wide NEON registers).
const NR_F32: usize = 16;
/// `c += a × b` on unpacked row-major `q×q` `f64` blocks, register-blocked.
///
/// # Safety
/// Each slice must hold at least `q²` elements.
#[target_feature(enable = "neon")]
pub unsafe fn block_fma_neon(c: &mut [f64], a: &[f64], b: &[f64], q: usize) {
    debug_assert!(c.len() >= q * q && a.len() >= q * q && b.len() >= q * q);
    let cp = c.as_mut_ptr();
    let apn = a.as_ptr();
    let bpn = b.as_ptr();
    let mut ir = 0;
    while ir + MR <= q {
        let mut jr = 0;
        while jr + NR_F64 <= q {
            let ctile = cp.add(ir * q + jr);
            let mut acc = [[vdupq_n_f64(0.0); 4]; MR];
            for (r, row) in acc.iter_mut().enumerate() {
                for (s, lane) in row.iter_mut().enumerate() {
                    *lane = vld1q_f64(ctile.add(r * q + 2 * s));
                }
            }
            for k in 0..q {
                let bk = bpn.add(k * q + jr);
                let bv = [
                    vld1q_f64(bk),
                    vld1q_f64(bk.add(2)),
                    vld1q_f64(bk.add(4)),
                    vld1q_f64(bk.add(6)),
                ];
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = vdupq_n_f64(*apn.add((ir + r) * q + k));
                    for (s, lane) in row.iter_mut().enumerate() {
                        *lane = vfmaq_f64(*lane, av, bv[s]);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (s, lane) in row.iter().enumerate() {
                    vst1q_f64(ctile.add(r * q + 2 * s), *lane);
                }
            }
            jr += NR_F64;
        }
        if jr < q {
            edge_fused(c, a, b, q, (ir, MR, jr, q - jr));
        }
        ir += MR;
    }
    if ir < q {
        edge_fused(c, a, b, q, (ir, q - ir, 0, q));
    }
}

/// `c += a × b` on unpacked row-major `q×q` `f32` blocks, register-blocked:
/// the `f32` twin of [`block_fma_neon`] with 6×16 tiles.
///
/// # Safety
/// Each slice must hold at least `q²` elements.
#[target_feature(enable = "neon")]
pub unsafe fn block_fma_neon_f32(c: &mut [f32], a: &[f32], b: &[f32], q: usize) {
    debug_assert!(c.len() >= q * q && a.len() >= q * q && b.len() >= q * q);
    let cp = c.as_mut_ptr();
    let apn = a.as_ptr();
    let bpn = b.as_ptr();
    let mut ir = 0;
    while ir + MR <= q {
        let mut jr = 0;
        while jr + NR_F32 <= q {
            let ctile = cp.add(ir * q + jr);
            let mut acc = [[vdupq_n_f32(0.0); 4]; MR];
            for (r, row) in acc.iter_mut().enumerate() {
                for (s, lane) in row.iter_mut().enumerate() {
                    *lane = vld1q_f32(ctile.add(r * q + 4 * s));
                }
            }
            for k in 0..q {
                let bk = bpn.add(k * q + jr);
                let bv = [
                    vld1q_f32(bk),
                    vld1q_f32(bk.add(4)),
                    vld1q_f32(bk.add(8)),
                    vld1q_f32(bk.add(12)),
                ];
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = vdupq_n_f32(*apn.add((ir + r) * q + k));
                    for (s, lane) in row.iter_mut().enumerate() {
                        *lane = vfmaq_f32(*lane, av, bv[s]);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (s, lane) in row.iter().enumerate() {
                    vst1q_f32(ctile.add(r * q + 4 * s), *lane);
                }
            }
            jr += NR_F32;
        }
        if jr < q {
            edge_fused(c, a, b, q, (ir, MR, jr, q - jr));
        }
        ir += MR;
    }
    if ir < q {
        edge_fused(c, a, b, q, (ir, q - ir, 0, q));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::block_fma_reference;

    #[test]
    fn neon_block_kernel_matches_reference() {
        for q in [1usize, 4, 6, 7, 8, 9, 12, 14, 31, 32, 64] {
            let a: Vec<f64> = (0..q * q).map(|x| ((x * 37) % 23) as f64 - 11.0).collect();
            let b: Vec<f64> = (0..q * q).map(|x| ((x * 5) % 17) as f64 * 0.125).collect();
            let mut c1: Vec<f64> = (0..q * q).map(|x| x as f64 * 0.01).collect();
            let mut c2 = c1.clone();
            // SAFETY: NEON is baseline on aarch64; slices are q².
            unsafe { block_fma_neon(&mut c1, &a, &b, q) };
            block_fma_reference(&mut c2, &a, &b, q);
            for (i, (x, y)) in c1.iter().zip(&c2).enumerate() {
                assert!((x - y).abs() < 1e-9, "q={q} elem {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn neon_f32_block_kernel_matches_fused_scalar() {
        for q in [1usize, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64] {
            let a: Vec<f32> = (0..q * q).map(|x| ((x * 37) % 23) as f32 * 0.37 - 3.1).collect();
            let b: Vec<f32> = (0..q * q).map(|x| ((x * 5) % 17) as f32 * 0.37 - 1.0).collect();
            let c0: Vec<f32> = (0..q * q).map(|x| ((x * 11) % 19) as f32 * 0.37 - 0.5).collect();
            let mut c = c0.clone();
            // SAFETY: NEON is baseline on aarch64; slices are q².
            unsafe { block_fma_neon_f32(&mut c, &a, &b, q) };
            let mut fused = c0;
            edge_fused(&mut fused, &a, &b, q, (0, q, 0, q));
            assert_eq!(c, fused, "q={q}: every lane must round like fused scalar");
        }
    }
}
