//! Panel packing: contiguous micro-panel copies of `A` and `B`.
//!
//! The executor multiplies straight off block-major storage (see
//! [`crate::runner`]) and never packs. These routines remain as a
//! measured layer of their own: they copy an `A` row-panel or a `B`
//! column-panel of a [`BlockMatrixOf`] into the order a register kernel
//! with variant `v`'s tile ([`KernelVariant::tile`]) would consume it:
//!
//! * `A` panels: per local block row, `⌈q/MR⌉` micro-panels of `MR`
//!   values per `k` step (`[ip][k][r]`, rows past `q` zero-padded);
//! * `B` panels: per local block column, `⌈q/NR⌉` micro-panels of `NR`
//!   values per `k` step (`[jp][k][c]`, columns past `q` zero-padded).
//!
//! A reused destination buffer is **not** re-zeroed: every slot below
//! the packed length, padding lanes included, is written explicitly, so
//! the buffer only grows and repacking costs one pass.

use super::elem::Element;
use super::KernelVariant;
use crate::matrix::BlockMatrixOf;

/// Packed size of one block row's `A` micro-panels for a depth-`kc`
/// panel under variant `v`.
pub fn a_panel_stride<T: Element>(v: KernelVariant, q: usize, kc: usize) -> usize {
    let mr = v.tile::<T>().mr;
    q.div_ceil(mr) * kc * mr
}

/// Packed size of one block column's `B` micro-panels for a depth-`kc`
/// panel under variant `v`.
pub fn b_panel_stride<T: Element>(v: KernelVariant, q: usize, kc: usize) -> usize {
    let nr = v.tile::<T>().nr;
    q.div_ceil(nr) * kc * nr
}

/// Size `dst` for `len` packed elements without re-zeroing retained
/// capacity: grow (zero-filling only the new tail) or truncate, never
/// clear-and-refill. Callers overwrite every slot below `len`.
fn size_for_pack<T: Element>(dst: &mut Vec<T>, len: usize) {
    if dst.len() < len {
        dst.resize(len, T::ZERO);
    } else {
        dst.truncate(len);
    }
}

/// [`pack_a_panel_for`] the dispatched variant ([`super::variant`]).
pub fn pack_a_panel<T: Element>(
    dst: &mut Vec<T>,
    a: &BlockMatrixOf<T>,
    i0: u32,
    th: u32,
    k0: u32,
    kb: u32,
) {
    pack_a_panel_for(super::variant(), dst, a, i0, th, k0, kb)
}

/// Pack the `A` row-panel `A[i0..i0+th, k0..k0+kb]` into `dst` for
/// variant `v`'s micro-kernel.
///
/// Layout: block row `bi`, then micro-panel `ip`, then `k` ascending over
/// the whole `kb·q`-deep panel, then `MR` row values (zero-padded past
/// `q`). `dst` is sized to `th · `[`a_panel_stride`]` elements. While one
/// source block streams out, the next block's rows are prefetched.
pub fn pack_a_panel_for<T: Element>(
    v: KernelVariant,
    dst: &mut Vec<T>,
    a: &BlockMatrixOf<T>,
    i0: u32,
    th: u32,
    k0: u32,
    kb: u32,
) {
    let q = a.q();
    let kc = kb as usize * q;
    let mr = v.tile::<T>().mr;
    let n_ip = q.div_ceil(mr);
    let len = th as usize * a_panel_stride::<T>(v, q, kc);
    size_for_pack(dst, len);
    let mut off = 0;
    for bi in 0..th {
        for ip in 0..n_ip {
            let rows = ip * mr..((ip + 1) * mr).min(q);
            for kblk in 0..kb {
                let blk = a.block(i0 + bi, k0 + kblk);
                if kblk + 1 < kb {
                    let next = a.block(i0 + bi, k0 + kblk + 1);
                    for row in rows.clone() {
                        super::prefetch_read(&next[row * q]);
                    }
                }
                for kk in 0..q {
                    for r in 0..mr {
                        let row = ip * mr + r;
                        dst[off] = if row < q { blk[row * q + kk] } else { T::ZERO };
                        off += 1;
                    }
                }
            }
        }
    }
    debug_assert_eq!(off, len, "packed A panel length must match tile geometry");
}

/// [`pack_b_panel_for`] the dispatched variant ([`super::variant`]).
pub fn pack_b_panel<T: Element>(
    dst: &mut Vec<T>,
    b: &BlockMatrixOf<T>,
    j0: u32,
    tw: u32,
    k0: u32,
    kb: u32,
) {
    pack_b_panel_for(super::variant(), dst, b, j0, tw, k0, kb)
}

/// Pack the `B` column-panel `B[k0..k0+kb, j0..j0+tw]` into `dst` for
/// variant `v`'s micro-kernel.
///
/// Layout: block column `bj`, then micro-panel `jp`, then `k` ascending
/// over the whole `kb·q`-deep panel, then `NR` column values
/// (zero-padded past `q`). `dst` is sized to `tw · `[`b_panel_stride`]`
/// elements. While one source block streams out, the next block's first
/// rows are prefetched.
pub fn pack_b_panel_for<T: Element>(
    v: KernelVariant,
    dst: &mut Vec<T>,
    b: &BlockMatrixOf<T>,
    j0: u32,
    tw: u32,
    k0: u32,
    kb: u32,
) {
    let q = b.q();
    let kc = kb as usize * q;
    let nr = v.tile::<T>().nr;
    let n_jp = q.div_ceil(nr);
    let len = tw as usize * b_panel_stride::<T>(v, q, kc);
    size_for_pack(dst, len);
    let mut off = 0;
    for bj in 0..tw {
        for jp in 0..n_jp {
            for kblk in 0..kb {
                let blk = b.block(k0 + kblk, j0 + bj);
                if kblk + 1 < kb {
                    let next = b.block(k0 + kblk + 1, j0 + bj);
                    for kk in 0..q.min(4) {
                        super::prefetch_read(&next[kk * q + jp * nr]);
                    }
                }
                for kk in 0..q {
                    let row = &blk[kk * q..(kk + 1) * q];
                    for c in 0..nr {
                        let col = jp * nr + c;
                        dst[off] = if col < q { row[col] } else { T::ZERO };
                        off += 1;
                    }
                }
            }
        }
    }
    debug_assert_eq!(off, len, "packed B panel length must match tile geometry");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::BlockMatrix;

    /// The variants whose layouts the tests check: the scalar tile runs
    /// everywhere, the ZMM tile where the CPU has AVX-512F.
    fn layouts() -> Vec<KernelVariant> {
        let mut vs = vec![KernelVariant::Scalar];
        if KernelVariant::Avx512Fma.is_available() {
            vs.push(KernelVariant::Avx512Fma);
        }
        vs
    }

    #[test]
    fn a_panel_layout_round_trips() {
        // 1 block row, 2 k blocks, q = 5 (ragged: n_ip = 1, rows 5..MR padded).
        let q = 5;
        let a = BlockMatrix::from_fn(1, 2, q, |i, j| (i * 100 + j) as f64);
        for v in layouts() {
            let mr = v.tile::<f64>().mr;
            let mut dst = Vec::new();
            pack_a_panel_for(v, &mut dst, &a, 0, 1, 0, 2);
            let kc = 2 * q;
            assert_eq!(dst.len(), a_panel_stride::<f64>(v, q, kc));
            // Element (row r, global k) lives at [k][r]; global k spans both blocks.
            for k in 0..kc {
                for r in 0..mr {
                    let want = if r < q { (r * 100 + k) as f64 } else { 0.0 };
                    assert_eq!(dst[k * mr + r], want, "{v} k={k} r={r}");
                }
            }
        }
    }

    #[test]
    fn b_panel_layout_round_trips() {
        // 2 k blocks, 1 block col, q = 6 (n_jp = 1, cols 6..NR of the panel padded).
        let q = 6;
        let b = BlockMatrix::from_fn(2, 1, q, |i, j| (i * 10 + j) as f64);
        for v in layouts() {
            let nr = v.tile::<f64>().nr;
            let mut dst = Vec::new();
            pack_b_panel_for(v, &mut dst, &b, 0, 1, 0, 2);
            let kc = 2 * q;
            assert_eq!(dst.len(), b_panel_stride::<f64>(v, q, kc));
            for jp in 0..q.div_ceil(nr) {
                for k in 0..kc {
                    for c in 0..nr {
                        let col = jp * nr + c;
                        let want = if col < q { (k * 10 + col) as f64 } else { 0.0 };
                        assert_eq!(dst[jp * kc * nr + k * nr + c], want, "{v} jp={jp} k={k} c={c}");
                    }
                }
            }
        }
    }

    /// Shrinking repacks leave no stale tail and growing repacks pad
    /// correctly — the grow-only sizing never exposes old data because
    /// every slot below the packed length is overwritten.
    #[test]
    fn repacking_after_shrink_holds_no_stale_data() {
        let big = BlockMatrix::from_fn(1, 2, 9, |i, j| (i * 50 + j) as f64 + 1.0);
        let small = BlockMatrix::from_fn(1, 1, 3, |i, j| -((i * 10 + j) as f64) - 1.0);
        for v in layouts() {
            let mr = v.tile::<f64>().mr;
            let mut dst = Vec::new();
            pack_a_panel_for(v, &mut dst, &big, 0, 1, 0, 2);
            pack_a_panel_for(v, &mut dst, &small, 0, 1, 0, 1);
            assert_eq!(dst.len(), a_panel_stride::<f64>(v, 3, 3));
            // q = 3 < MR: lanes 3..MR of each k group must be freshly
            // zeroed, not residue from the larger pack.
            for k in 0..3 {
                for r in 0..mr {
                    let want = if r < 3 { -((r * 10 + k) as f64) - 1.0 } else { 0.0 };
                    assert_eq!(dst[k * mr + r], want, "{v} k={k} r={r}");
                }
            }
        }
    }
}
