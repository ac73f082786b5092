//! Packed-panel driver: register kernels over one `C` block.
//!
//! [`block_mul_packed`] updates a single row-major `q×q` `C` block from
//! packed `A` and `B` micro-panels (see [`super::pack`] for the layout),
//! walking the block's `MR×NR` register-tile grid of the variant and
//! element type ([`KernelVariant::tile`]).
//! Full tiles run the variant's vector kernel straight on `C`; tiles
//! clipped by the `q % MR` / `q % NR` edges run the *same* vector kernel
//! into a scratch `MR×NR` tile (the panels are zero-padded to full
//! register width, so the pad lanes accumulate exact zeros) and copy the
//! live corner back. Every element therefore takes one fused
//! multiply-add per ascending `k` step regardless of which path ran, and
//! edge tiles run at vector speed instead of a latency-bound scalar
//! chain. The scalar variant (and any variant the CPU cannot run) takes
//! one *unfused* multiply then add per ascending `k` step instead. Either
//! way a packed update is bit-identical to the same variant's unpacked
//! [`super::block_fma_with`] applied `k`-block by `k`-block.

use super::elem::Element;
use super::{KernelVariant, RegTile};

/// `C += Apanel × Bpanel` for one row-major `q×q` block of `C`.
///
/// `apack` is this block row's packed micro-panels (`⌈q/MR⌉·kc·MR`
/// elements), `bpack` this block column's (`⌈q/NR⌉·kc·NR` elements), both
/// packed for `v`, with `kc` the element depth of the current `k` panel.
/// Accumulation per `C` element is ascending `k` with one
/// multiply-accumulate per step: fused for SIMD variants, unfused for the
/// scalar one. A variant the CPU cannot run degrades to the scalar
/// kernel and its tile, as [`super::block_fma_with`] and the packing do.
///
/// # Panics
/// Panics (in debug builds) if the slice sizes disagree with `q`/`kc`.
pub fn block_mul_packed<T: Element>(
    v: KernelVariant,
    cblk: &mut [T],
    q: usize,
    kc: usize,
    apack: &[T],
    bpack: &[T],
) {
    let v = v.runnable();
    let tile = v.tile::<T>();
    let (mr, nr) = (tile.mr, tile.nr);
    let n_ip = q.div_ceil(mr);
    let n_jp = q.div_ceil(nr);
    debug_assert!(cblk.len() >= q * q);
    debug_assert!(apack.len() >= n_ip * kc * mr && bpack.len() >= n_jp * kc * nr);
    // Scratch C tile for edge tiles on the vector path. The packed
    // panels are zero-padded to full `MR`/`NR`, so the full vector
    // kernel can run against this tile: pad lanes accumulate exact
    // zeros onto scratch values that are never copied back, while the
    // live `mrc×nrc` corner sees the identical fused ascending-`k`
    // chain it would get from the scalar remainder. 256 elements is the
    // largest tile of any variant and element type (f32's 8×32).
    let mut scratch = [T::ZERO; 256];
    debug_assert!(mr * nr <= scratch.len());
    for jp in 0..n_jp {
        let nrc = nr.min(q - jp * nr);
        let bp = &bpack[jp * kc * nr..][..kc * nr];
        for ip in 0..n_ip {
            let mrc = mr.min(q - ip * mr);
            let ap = &apack[ip * kc * mr..][..kc * mr];
            let coff = ip * mr * q + jp * nr;
            if !v.is_simd() {
                micro_unfused(kc, ap, bp, &mut cblk[coff..], q, mrc, nrc);
                continue;
            }
            if mrc == mr && nrc == nr {
                if T::micro_full(v, kc, ap, bp, &mut cblk[coff..], q) {
                    continue;
                }
            } else {
                for r in 0..mrc {
                    scratch[r * nr..r * nr + nrc].copy_from_slice(&cblk[coff + r * q..][..nrc]);
                }
                if T::micro_full(v, kc, ap, bp, &mut scratch, nr) {
                    for r in 0..mrc {
                        cblk[coff + r * q..][..nrc].copy_from_slice(&scratch[r * nr..r * nr + nrc]);
                    }
                    continue;
                }
            }
            micro_edge_packed(kc, ap, bp, &mut cblk[coff..], q, tile, mrc, nrc);
        }
    }
}

/// Unfused scalar micro-kernel over packed panels: updates the `mr×nr`
/// corner of the tile at `c` (row stride `ldc`) with `acc = acc + a·b`
/// per ascending `k` step — the rounding sequence of
/// [`super::scalar::block_fma_scalar`].
///
/// Rows go two at a time with full-width `NR` accumulators in a local
/// array: `2·NR` accumulators fit the baseline target's sixteen vector
/// registers, where the whole `MR×NR` tile would spill, and the
/// fixed-size inner loop vectorizes. The panels are packed for the
/// scalar variant's tile, [`RegTile::ymm`], whose `MR` is even, so the
/// second row always exists in the packed panel; pad rows and columns
/// are zeros and are never copied back.
fn micro_unfused<T: Element>(
    kc: usize,
    ap: &[T],
    bp: &[T],
    c: &mut [T],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let RegTile { mr: tmr, nr: tnr } = RegTile::ymm::<T>();
    const { assert!(RegTile::ymm::<T>().mr.is_multiple_of(2) && RegTile::ymm::<T>().nr <= 16) };
    for r0 in (0..mr).step_by(2) {
        let rows = (mr - r0).min(2);
        let mut acc = [[T::ZERO; 16]; 2];
        for r in 0..rows {
            acc[r][..nr].copy_from_slice(&c[(r0 + r) * ldc..][..nr]);
        }
        for k in 0..kc {
            let (a0, a1) = (ap[k * tmr + r0], ap[k * tmr + r0 + 1]);
            let b = &bp[k * tnr..][..tnr];
            for j in 0..tnr {
                acc[0][j] = acc[0][j] + a0 * b[j];
                acc[1][j] = acc[1][j] + a1 * b[j];
            }
        }
        for r in 0..rows {
            c[(r0 + r) * ldc..][..nr].copy_from_slice(&acc[r][..nr]);
        }
    }
}

/// Fused scalar micro-kernel over packed panels for register tiles a
/// SIMD variant's `micro_full` declines: updates the `mr×nr` corner of
/// the tile at `c` (row stride `ldc`), one fused `mul_add` per `k` step,
/// ascending `k` — bit-identical to the vector lanes.
#[allow(clippy::too_many_arguments)]
fn micro_edge_packed<T: Element>(
    kc: usize,
    ap: &[T],
    bp: &[T],
    c: &mut [T],
    ldc: usize,
    tile: RegTile,
    mr: usize,
    nr: usize,
) {
    for r in 0..mr {
        for j in 0..nr {
            let idx = r * ldc + j;
            let mut acc = c[idx];
            for k in 0..kc {
                acc = ap[k * tile.mr + r].mul_add(bp[k * tile.nr + j], acc);
            }
            c[idx] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{block_fma_with, pack, variants_available};
    use crate::matrix::{BlockMatrix, BlockMatrixOf};

    /// Packed and unpacked paths of the same variant are bit-identical,
    /// including ragged q and multi-block k panels.
    #[test]
    fn packed_update_is_bit_identical_to_blockwise_kernel() {
        for v in variants_available() {
            for q in [1usize, 3, 5, 8, 12, 16, 31, 32] {
                let kb = 3u32;
                let a = BlockMatrix::pseudo_random(1, kb, q, 7);
                let b = BlockMatrix::pseudo_random(kb, 1, q, 8);
                let mut c_packed = BlockMatrix::pseudo_random(1, 1, q, 9);
                let mut c_block = c_packed.clone();

                let kc = kb as usize * q;
                let (mut ap, mut bp) = (Vec::new(), Vec::new());
                pack::pack_a_panel_for(v, &mut ap, &a, 0, 1, 0, kb);
                pack::pack_b_panel_for(v, &mut bp, &b, 0, 1, 0, kb);
                block_mul_packed(v, c_packed.block_mut(0, 0), q, kc, &ap, &bp);

                for k in 0..kb {
                    block_fma_with(v, c_block.block_mut(0, 0), a.block(0, k), b.block(k, 0), q);
                }
                assert_eq!(c_packed, c_block, "{v} q={q}");
            }
        }
    }

    /// Same bit-identity for f32: packed and unpacked kernels share one
    /// rounding contract per variant.
    #[test]
    fn packed_f32_update_is_bit_identical_to_blockwise_kernel() {
        for v in variants_available() {
            for q in [1usize, 5, 16, 19, 32] {
                let kb = 2u32;
                let a = BlockMatrixOf::<f32>::pseudo_random(1, kb, q, 7);
                let b = BlockMatrixOf::<f32>::pseudo_random(kb, 1, q, 8);
                let mut c_packed = BlockMatrixOf::<f32>::pseudo_random(1, 1, q, 9);
                let mut c_block = c_packed.clone();

                let kc = kb as usize * q;
                let (mut ap, mut bp) = (Vec::new(), Vec::new());
                pack::pack_a_panel_for(v, &mut ap, &a, 0, 1, 0, kb);
                pack::pack_b_panel_for(v, &mut bp, &b, 0, 1, 0, kb);
                block_mul_packed(v, c_packed.block_mut(0, 0), q, kc, &ap, &bp);

                for k in 0..kb {
                    block_fma_with(v, c_block.block_mut(0, 0), a.block(0, k), b.block(k, 0), q);
                }
                assert_eq!(c_packed, c_block, "{v} q={q}");
            }
        }
    }
}
