//! Z-order (Morton) block layout for the Strassen–Winograd recursion.
//!
//! The recursion halves a square matrix into quadrants at every level, so
//! the natural storage is the one where **every quadrant at every level
//! is one contiguous slice**. A pure element-wise Z-order curve would buy
//! that at the price of scattering the `q×q` blocks the block kernels
//! consume; this module uses the hybrid the cache-oblivious
//! literature recommends instead:
//!
//! * the padded matrix is a `2^d × 2^d` grid of *leaf tiles*, stored in
//!   Morton order of their `(tile_row, tile_col)` coordinates;
//! * each leaf tile is an `ℓ×ℓ` grid of `q×q` blocks in ordinary
//!   block-row-major order — byte-for-byte the [`BlockMatrixOf`] layout,
//!   so a leaf converts to the block kernels' input with one `memcpy`.
//!
//! Splitting a Morton square of side `2^k` tiles yields four contiguous
//! chunks, in the order `[Q11, Q12, Q21, Q22]` (the row bit interleaves
//! *above* the column bit), and the recursion bottoms out on slices that
//! are whole leaf tiles. Conversion from/to row-major [`BlockMatrixOf`]
//! pads with zero blocks on the right/bottom; the round trip is the
//! identity on the logical `rows × cols` region (tested below).

use mmc_exec::{BlockMatrixOf, Element};

/// Spread the low 32 bits of `x` so bit `i` lands at position `2i`.
#[inline]
fn spread(x: u32) -> u64 {
    let mut x = x as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Compact the even-position bits of `x` back into the low 32 bits.
#[inline]
fn compact(x: u64) -> u32 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// Morton index of tile `(row, col)`: row bits interleaved above column
/// bits, so quadrants of a `2^k` square enumerate as Q11, Q12, Q21, Q22.
#[inline]
pub fn morton_encode(row: u32, col: u32) -> u64 {
    (spread(row) << 1) | spread(col)
}

/// Inverse of [`morton_encode`]: `(row, col)` of a tile index.
#[inline]
pub fn morton_decode(idx: u64) -> (u32, u32) {
    (compact(idx >> 1), compact(idx))
}

/// Geometry of one Morton-hybrid layout: `2^depth × 2^depth` leaf tiles
/// of `leaf_side × leaf_side` blocks of `q×q` elements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MortonLayout {
    /// Recursion depth `d` (number of quadrant splits until a leaf).
    pub depth: u32,
    /// Leaf tile side `ℓ`, in blocks.
    pub leaf_side: u32,
    /// Block side `q`, in elements.
    pub q: usize,
}

impl MortonLayout {
    /// The layout the recursion uses for an `m×z · z×n` block product
    /// with the given leaf `cutoff`: pad all three extents to the square
    /// side `S = ℓ·2^d` where `d` is the *smallest* depth that brings
    /// the leaf side `ℓ = ⌈max(m,n,z)/2^d⌉` down to `cutoff` blocks.
    ///
    /// Padding overhead is bounded: `S < max(m,n,z) + 2^d` and the
    /// minimal depth keeps `2^d ≤ 2·max(m,n,z)/cutoff`, so the padded
    /// area exceeds the logical one by at most a `(1 + 2/cutoff)²`
    /// factor — unlike pad-to-power-of-two, which can double each side.
    pub fn for_shape(m: u32, n: u32, z: u32, cutoff: u32, q: usize) -> MortonLayout {
        let base = m.max(n).max(z).max(1);
        let cutoff = cutoff.max(1);
        let mut depth = 0u32;
        while base.div_ceil(1 << depth) > cutoff && depth < 20 {
            depth += 1;
        }
        MortonLayout { depth, leaf_side: base.div_ceil(1 << depth), q }
    }

    /// Padded side `S = ℓ·2^d`, in blocks.
    pub fn side(&self) -> u32 {
        self.leaf_side << self.depth
    }

    /// Elements in one leaf tile (`ℓ²q²`) — the contiguous chunk size at
    /// the bottom of the recursion.
    pub fn leaf_len(&self) -> usize {
        let l = self.leaf_side as usize;
        l * l * self.q * self.q
    }

    /// Total elements in the padded Morton buffer (`S²q²`).
    pub fn len(&self) -> usize {
        self.leaf_len() << (2 * self.depth)
    }

    /// Whether the layout holds no elements (never true: sides are ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A square matrix stored in the Morton-hybrid layout, remembering the
/// logical (unpadded) block extents it was converted from.
#[derive(Clone, Debug)]
pub struct MortonMatrix<T> {
    layout: MortonLayout,
    rows: u32,
    cols: u32,
    data: Vec<T>,
}

impl<T: Element> MortonMatrix<T> {
    /// An all-zero Morton matrix with logical extent `rows × cols`.
    pub fn zeros(layout: MortonLayout, rows: u32, cols: u32) -> MortonMatrix<T> {
        assert!(rows <= layout.side() && cols <= layout.side(), "logical extent exceeds layout");
        MortonMatrix { layout, rows, cols, data: vec![T::ZERO; layout.len()] }
    }

    /// Convert a row-major block matrix into the layout, padding the
    /// right/bottom with zero blocks.
    pub fn from_blocks(src: &BlockMatrixOf<T>, layout: MortonLayout) -> MortonMatrix<T> {
        assert_eq!(src.q(), layout.q, "block sides must agree");
        let mut m = MortonMatrix::zeros(layout, src.rows(), src.cols());
        let (l, q2) = (layout.leaf_side, layout.q * layout.q);
        let tiles = 1u64 << (2 * layout.depth);
        for t in 0..tiles {
            let (tr, tc) = morton_decode(t);
            let chunk = &mut m.data[t as usize * layout.leaf_len()..][..layout.leaf_len()];
            for i in 0..l {
                let gr = tr * l + i;
                if gr >= src.rows() {
                    break;
                }
                for j in 0..l {
                    let gc = tc * l + j;
                    if gc >= src.cols() {
                        break;
                    }
                    let dst = &mut chunk[(i * l + j) as usize * q2..][..q2];
                    dst.copy_from_slice(src.block(gr, gc));
                }
            }
        }
        m
    }

    /// Convert back to a row-major block matrix, dropping the padding.
    pub fn to_blocks(&self) -> BlockMatrixOf<T> {
        let mut out = BlockMatrixOf::zeros(self.rows, self.cols, self.layout.q);
        let (l, q2) = (self.layout.leaf_side, self.layout.q * self.layout.q);
        let tiles = 1u64 << (2 * self.layout.depth);
        for t in 0..tiles {
            let (tr, tc) = morton_decode(t);
            let chunk = &self.data[t as usize * self.layout.leaf_len()..][..self.layout.leaf_len()];
            for i in 0..l {
                let gr = tr * l + i;
                if gr >= self.rows {
                    break;
                }
                for j in 0..l {
                    let gc = tc * l + j;
                    if gc >= self.cols {
                        break;
                    }
                    out.block_mut(gr, gc)
                        .copy_from_slice(&chunk[(i * l + j) as usize * q2..][..q2]);
                }
            }
        }
        out
    }

    /// The layout geometry.
    pub fn layout(&self) -> MortonLayout {
        self.layout
    }

    /// The full padded buffer, quadrants contiguous at every level.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the full padded buffer.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmc_exec::BlockMatrix;

    #[test]
    fn encode_decode_round_trip_and_quadrant_order() {
        for row in [0u32, 1, 2, 3, 7, 100, 65535] {
            for col in [0u32, 1, 2, 3, 5, 99, 65535] {
                assert_eq!(morton_decode(morton_encode(row, col)), (row, col));
            }
        }
        // 2x2 tile grid enumerates Q11, Q12, Q21, Q22.
        assert_eq!(morton_encode(0, 0), 0);
        assert_eq!(morton_encode(0, 1), 1);
        assert_eq!(morton_encode(1, 0), 2);
        assert_eq!(morton_encode(1, 1), 3);
        // The four 2x2 quadrants of a 4x4 grid are contiguous index ranges.
        for (tr, tc, base) in [(0, 0, 0u64), (0, 2, 4), (2, 0, 8), (2, 2, 12)] {
            for di in 0..2 {
                for dj in 0..2 {
                    let idx = morton_encode(tr + di, tc + dj);
                    assert!((base..base + 4).contains(&idx), "({},{}) -> {idx}", tr + di, tc + dj);
                }
            }
        }
    }

    #[test]
    fn layout_picks_minimal_depth_for_cutoff() {
        let l = MortonLayout::for_shape(12, 12, 12, 4, 8);
        assert_eq!((l.depth, l.leaf_side, l.side()), (2, 3, 12));
        let l = MortonLayout::for_shape(13, 13, 13, 4, 8);
        assert_eq!((l.depth, l.leaf_side, l.side()), (2, 4, 16));
        // Already under the cutoff: no recursion, no padding.
        let l = MortonLayout::for_shape(3, 3, 3, 4, 8);
        assert_eq!((l.depth, l.leaf_side, l.side()), (0, 3, 3));
        // Ragged shapes pad to the largest extent.
        let l = MortonLayout::for_shape(5, 9, 2, 4, 8);
        assert_eq!((l.depth, l.leaf_side, l.side()), (2, 3, 12));
    }

    #[test]
    fn block_round_trip_is_identity_on_ragged_shapes() {
        for (rows, cols, q, cutoff) in [(5u32, 7u32, 4usize, 2u32), (1, 1, 3, 1), (8, 3, 2, 2)] {
            let src = BlockMatrix::pseudo_random(rows, cols, q, 42);
            let layout = MortonLayout::for_shape(rows, cols, rows.max(cols), cutoff, q);
            let m = MortonMatrix::from_blocks(&src, layout);
            assert_eq!(m.data().len(), layout.len());
            assert_eq!(m.to_blocks(), src);
        }
    }

    #[test]
    fn padding_is_zero_blocks() {
        let src = BlockMatrix::pseudo_random(3, 3, 2, 7);
        let layout = MortonLayout::for_shape(3, 3, 3, 2, 2);
        assert_eq!(layout.side(), 4);
        let m = MortonMatrix::from_blocks(&src, layout);
        let logical: f64 = src.data().iter().map(|v| v.abs()).sum();
        let total: f64 = m.data().iter().map(|v| v.abs()).sum();
        assert!((logical - total).abs() < 1e-12, "padding must not add mass");
    }
}
