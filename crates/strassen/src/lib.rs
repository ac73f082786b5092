//! Strassen–Winograd recursive GEMM over Morton-ordered blocks.
//!
//! Classic GEMM is cubic: every path in this repo so far — the block
//! executor, the out-of-core pipeline, the serve scheduler — runs and
//! prices `2n³q³` flops. This crate adds the first sub-cubic path: the
//! Winograd variant of Strassen's recursion, which multiplies two `2×2`
//! quadrant matrices with **7** recursive products and 15 quadrant
//! additions (the classic schedule needs 8 and 4), so `d` levels of
//! recursion cost `7^d` leaf products instead of `8^d`.
//!
//! The implementation follows three design rules:
//!
//! * **Morton layout** ([`morton`]): operands convert once into a hybrid
//!   Z-order layout where every quadrant at every recursion level is one
//!   contiguous slice, so the recursion is pure slice arithmetic with no
//!   strided views, and each leaf is byte-identical to the row-major
//!   [`BlockMatrixOf`] layout the block kernels consume.
//! * **Classic leaves**: below a tunable `cutoff` (in blocks), products
//!   are handed to the classic executor via [`mmc_exec::gemm_into`],
//!   inheriting its SIMD block kernels and `µ×µ` work units unchanged.
//! * **Pooled workspace** ([`pool`]): the recursion runs its 7 products
//!   sequentially with two quadrant temporaries per level, recycled
//!   through a free list, so the live workspace is bounded by the
//!   geometric series `2·S²/4·(1 + 1/4 + …) ≤ (2/3)·S²` blocks plus one
//!   leaf staging set — and the realized high-water mark is reported in
//!   [`StrassenReport::workspace_bytes`].
//!
//! The 22-step in-place schedule below (two temps `X`, `Y`; every
//! recursive call *overwrites* its destination) is the classic
//! memory-lean ordering of Winograd's `S`/`T`/`P`/`U` terms; it was
//! re-derived and checked term-by-term against
//! `C11=P1+P2, C12=U3+P3, C21=U2−P4, C22=U2+P5` with
//! `U1=P1+P6, U2=U1+P7, U3=U1+P5`.
//!
//! Numerically, Winograd's recursion is stabler than folklore suggests
//! but weaker than classic GEMM: the max-norm error grows like `18^d`
//! (Higham, *Accuracy and Stability of Numerical Algorithms*, §23.2.2).
//! [`winograd_error_bound`] exposes that bound so callers can verify
//! results with an honest, documented tolerance instead of exact
//! comparison.

#![warn(missing_docs)]

pub mod morton;
pub mod pool;

use std::ops::Sub;

use mmc_exec::{
    gemm_into, BlockMatrixOf, BlockingPlan, CancelToken, Element, GemmOpts, KernelVariant, Tiling,
};
use serde::{Deserialize, Serialize};

use morton::{MortonLayout, MortonMatrix};
use pool::BufferPool;

/// Default leaf cutoff, in blocks: recursion stops once a quadrant side
/// is at most this many `q×q` blocks and hands the product to the
/// classic block executor. 8 blocks keeps the leaf big enough to fill a
/// `µ×µ` work unit while still reaching depth ≥ 1 on modest problem
/// sizes.
pub const DEFAULT_CUTOFF: u32 = 8;

/// Tunable knobs for one Strassen–Winograd multiply.
#[derive(Clone, Copy, Debug)]
pub struct StrassenOpts {
    /// Leaf cutoff in blocks (see [`DEFAULT_CUTOFF`]).
    pub cutoff: u32,
    /// Kernel variant the leaf products run.
    pub variant: KernelVariant,
    /// Unused: the executor no longer runs a 5-loop. Kept because the
    /// benchmark harness still sets it.
    pub plan: BlockingPlan,
    /// Task tiling for leaf products, clamped to the leaf side.
    pub tiling: Tiling,
}

impl StrassenOpts {
    /// Options with the given cutoff and the host's detected kernel
    /// variant, and a whole-leaf tiling.
    pub fn with_cutoff<T: Element>(cutoff: u32) -> StrassenOpts {
        StrassenOpts {
            cutoff,
            variant: mmc_exec::kernel::variant(),
            plan: mmc_exec::blocking::active_plan::<T>(),
            tiling: Tiling { tile_m: u32::MAX, tile_n: u32::MAX, tile_k: u32::MAX },
        }
    }
}

/// What one Strassen–Winograd multiply actually did — geometry, work,
/// and realized workspace — for pricing reconciliation and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StrassenReport {
    /// Recursion depth `d` (0 means the classic fallback ran).
    pub depth: u32,
    /// Leaf side `ℓ`, in blocks.
    pub leaf_side: u32,
    /// Padded square side `S = ℓ·2^d`, in blocks.
    pub padded_side: u32,
    /// Leaf products executed — exactly `7^d`.
    pub leaf_products: u64,
    /// High-water mark of pooled recursion workspace, in bytes
    /// (0 on the depth-0 fallback, which needs no quadrant temps).
    pub workspace_bytes: u64,
}

/// Higham's max-norm forward error bound for Winograd's variant,
/// recursing from element side `n` down to leaf side `n0 = n/2^depth`:
///
/// `max|C − Ĉ| ≤ [(n/n0)^log2(18) · (n0² + 5n0)] · u · max|A| · max|B|`
///
/// (§23.2.2 of *Accuracy and Stability of Numerical Algorithms*; the
/// small `−5n` sharpening is dropped, keeping the bound conservative).
/// `unit` is the unit roundoff of the element type — `EPSILON / 2`.
/// At `depth == 0` this degenerates to the classic `n²u` style bound.
pub fn winograd_error_bound(n_elems: u64, depth: u32, unit: f64) -> f64 {
    let n0 = (n_elems.max(1) as f64) / (1u64 << depth) as f64;
    18f64.powi(depth as i32) * (n0 * n0 + 5.0 * n0) * unit
}

/// Tolerance for comparing a Strassen result against a classic one:
/// [`winograd_error_bound`] scaled by the operands' max magnitudes.
pub fn comparison_tolerance<T: Element>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    report: &StrassenReport,
    unit: f64,
) -> f64 {
    let amax = a.data().iter().map(|v| v.to_f64().abs()).fold(0.0, f64::max);
    let bmax = b.data().iter().map(|v| v.to_f64().abs()).fold(0.0, f64::max);
    let n = report.padded_side as u64 * a.q() as u64;
    // Both runs commit rounding errors; double the one-sided bound.
    2.0 * winograd_error_bound(n, report.depth, unit) * amax * bmax
}

#[inline]
fn sub_into<T: Element + Sub<Output = T>>(dst: &mut [T], a: &[T], b: &[T]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x - y;
    }
}

#[inline]
fn add_into<T: Element>(dst: &mut [T], a: &[T], b: &[T]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x + y;
    }
}

#[inline]
fn add_assign<T: Element>(dst: &mut [T], src: &[T]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = *d + s;
    }
}

#[inline]
fn sub_assign<T: Element + Sub<Output = T>>(dst: &mut [T], src: &[T]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = *d - s;
    }
}

/// `dst = src − dst`.
#[inline]
fn rsub_from<T: Element + Sub<Output = T>>(dst: &mut [T], src: &[T]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s - *d;
    }
}

/// Clamp a requested tiling to an `side × side` product so leaf tasks
/// never exceed the leaf extent.
fn clamped_tiling(t: Tiling, side: u32) -> Tiling {
    Tiling {
        tile_m: t.tile_m.clamp(1, side),
        tile_n: t.tile_n.clamp(1, side),
        tile_k: t.tile_k.clamp(1, side),
    }
}

struct Recursion<'a, T> {
    leaf_side: u32,
    q: usize,
    gemm: GemmOpts<'a>,
    leaf_tiling: Tiling,
    pool: BufferPool<T>,
    leaf_products: u64,
}

impl<T: Element + Sub<Output = T>> Recursion<'_, T> {
    /// One leaf product `dst = a·b` through the classic executor:
    /// stage the Morton chunks as row-major block matrices (they are
    /// byte-identical — one memcpy each), run, copy the result back.
    fn leaf(&mut self, dst: &mut [T], a: &[T], b: &[T]) -> bool {
        let (l, len) = (self.leaf_side, dst.len());
        let mut av = self.pool.take(len);
        av.copy_from_slice(a);
        let mut bv = self.pool.take(len);
        bv.copy_from_slice(b);
        let am = BlockMatrixOf::from_vec(l, l, self.q, av);
        let bm = BlockMatrixOf::from_vec(l, l, self.q, bv);
        let mut cm = BlockMatrixOf::from_vec(l, l, self.q, self.pool.take_zeroed(len));
        let ok = gemm_into(&mut cm, &am, &bm, self.leaf_tiling, &self.gemm);
        if ok {
            dst.copy_from_slice(cm.data());
            self.leaf_products += 1;
        }
        self.pool.put(am.into_vec());
        self.pool.put(bm.into_vec());
        self.pool.put(cm.into_vec());
        ok
    }

    /// Winograd recursion over contiguous Morton chunks: fully overwrite
    /// `dst = a·b` where all three are squares of side `ℓ·2^depth`
    /// blocks. Returns `false` when cancelled mid-recursion.
    fn rec(&mut self, dst: &mut [T], a: &[T], b: &[T], depth: u32) -> bool {
        if self.gemm.cancel.is_some_and(CancelToken::is_cancelled) {
            return false;
        }
        if depth == 0 {
            return self.leaf(dst, a, b);
        }
        let half = dst.len() / 4;
        let (a11, a12, a21, a22) =
            (&a[..half], &a[half..2 * half], &a[2 * half..3 * half], &a[3 * half..]);
        let (b11, b12, b21, b22) =
            (&b[..half], &b[half..2 * half], &b[2 * half..3 * half], &b[3 * half..]);
        let (c_top, c_bot) = dst.split_at_mut(2 * half);
        let (c11, c12) = c_top.split_at_mut(half);
        let (c21, c22) = c_bot.split_at_mut(half);

        let mut x = self.pool.take(half);
        let mut y = self.pool.take(half);
        let d = depth - 1;
        // The 22-step two-temp schedule; `rec` overwrites its target.
        sub_into(&mut x, a11, a21); //  1. X = A11 − A21          (= S3)
        sub_into(&mut y, b22, b12); //  2. Y = B22 − B12          (= T3)
        let ok = self.rec(c21, &x, &y, d)
            && {
                //                           3. C21 = X·Y             (= P7)
                add_into(&mut x, a21, a22); //  4. X = A21 + A22      (= S1)
                sub_into(&mut y, b12, b11); //  5. Y = B12 − B11      (= T1)
                self.rec(c22, &x, &y, d) //     6. C22 = X·Y          (= P5)
            }
            && {
                sub_assign(&mut x, a11); //     7. X = X − A11        (= S2)
                rsub_from(&mut y, b22); //      8. Y = B22 − Y        (= T2)
                self.rec(c11, &x, &y, d) //     9. C11 = X·Y          (= P6)
            }
            && {
                rsub_from(&mut x, a12); //     10. X = A12 − X        (= S4)
                self.rec(c12, &x, b22, d) //   11. C12 = X·B22        (= P3)
            }
            && {
                add_assign(c12, c22); //       12. C12 += C22
                self.rec(&mut x, a11, b11, d) // 13. X = A11·B11      (= P1)
            }
            && {
                add_assign(c11, &x); //        14. C11 += X           (= U1)
                add_assign(c12, c11); //       15. C12 += C11         (final C12)
                add_assign(c11, c21); //       16. C11 += C21         (= U2)
                sub_assign(&mut y, b21); //    17. Y = Y − B21        (= T4)
                self.rec(c21, a22, &y, d) //   18. C21 = A22·Y        (= P4)
            }
            && {
                rsub_from(c21, c11); //        19. C21 = C11 − C21    (final C21)
                add_assign(c22, c11); //       20. C22 += C11         (final C22)
                self.rec(&mut y, a12, b21, d) // 21. Y = A12·B21      (= P2)
            };
        if !ok {
            return false;
        }
        add_into(c11, &x, &y); //          22. C11 = X + Y        (final C11)
        self.pool.put(x);
        self.pool.put(y);
        true
    }
}

/// [`strassen_multiply`] with cooperative cancellation: returns `None`
/// if `cancel` fires before the recursion completes.
pub fn strassen_multiply_cancellable<T: Element + Sub<Output = T>>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    opts: &StrassenOpts,
    cancel: Option<&CancelToken>,
) -> Option<(BlockMatrixOf<T>, StrassenReport)> {
    assert_eq!(a.cols(), b.rows(), "inner block dimensions must agree");
    assert_eq!(a.q(), b.q(), "block sides must agree");
    let layout = MortonLayout::for_shape(a.rows(), b.cols(), a.cols(), opts.cutoff, a.q());
    let gemm = GemmOpts { variant: opts.variant, cancel };
    if layout.depth == 0 {
        // Already at or below the cutoff: the recursion would be a
        // single leaf, so skip the Morton round trip entirely and run
        // the classic path on the original row-major operands.
        let tiling = clamped_tiling(opts.tiling, a.rows().max(b.cols()).max(a.cols()));
        let mut c = BlockMatrixOf::zeros(a.rows(), b.cols(), a.q());
        if !gemm_into(&mut c, a, b, tiling, &gemm) {
            return None;
        }
        let report = StrassenReport {
            depth: 0,
            leaf_side: layout.leaf_side,
            padded_side: layout.side(),
            leaf_products: 1,
            workspace_bytes: 0,
        };
        return Some((c, report));
    }
    let ma = MortonMatrix::from_blocks(a, layout);
    let mb = MortonMatrix::from_blocks(b, layout);
    let mut mc = MortonMatrix::<T>::zeros(layout, a.rows(), b.cols());
    let mut r = Recursion {
        leaf_side: layout.leaf_side,
        q: layout.q,
        gemm,
        leaf_tiling: clamped_tiling(opts.tiling, layout.leaf_side),
        pool: BufferPool::new(),
        leaf_products: 0,
    };
    if !r.rec(mc.data_mut(), ma.data(), mb.data(), layout.depth) {
        return None;
    }
    let report = StrassenReport {
        depth: layout.depth,
        leaf_side: layout.leaf_side,
        padded_side: layout.side(),
        leaf_products: r.leaf_products,
        workspace_bytes: r.pool.peak_bytes(),
    };
    Some((mc.to_blocks(), report))
}

/// Multiply `a·b` with the Strassen–Winograd recursion, returning the
/// product and a [`StrassenReport`] of what ran. Accepts any block
/// shapes (ragged and odd sides are padded internally); the result has
/// the exact logical shape `a.rows() × b.cols()`.
pub fn strassen_multiply<T: Element + Sub<Output = T>>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    opts: &StrassenOpts,
) -> (BlockMatrixOf<T>, StrassenReport) {
    strassen_multiply_cancellable(a, b, opts, None).expect("uncancellable run cannot be cancelled")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmc_exec::gemm_naive;

    fn opts(cutoff: u32) -> StrassenOpts {
        StrassenOpts::with_cutoff::<f64>(cutoff)
    }

    fn check_f64(rows: u32, inner: u32, cols: u32, q: usize, cutoff: u32, want_depth: u32) {
        let a = BlockMatrixOf::<f64>::pseudo_random(rows, inner, q, 11);
        let b = BlockMatrixOf::<f64>::pseudo_random(inner, cols, q, 23);
        let (c, report) = strassen_multiply(&a, &b, &opts(cutoff));
        assert_eq!(report.depth, want_depth);
        assert_eq!(report.leaf_products, 7u64.pow(report.depth));
        let oracle = gemm_naive(&a, &b);
        let tol = comparison_tolerance(&a, &b, &report, f64::EPSILON / 2.0);
        let diff = c.max_abs_diff(&oracle);
        assert!(diff <= tol, "diff {diff:e} exceeds Winograd bound {tol:e}");
    }

    #[test]
    fn matches_naive_within_winograd_bound_on_square_shapes() {
        check_f64(8, 8, 8, 3, 2, 2);
        check_f64(16, 16, 16, 2, 2, 3);
    }

    #[test]
    fn matches_naive_on_ragged_and_odd_shapes() {
        check_f64(5, 3, 7, 3, 2, 2);
        check_f64(1, 9, 2, 2, 2, 3);
        check_f64(3, 3, 3, 4, 4, 0); // below cutoff: classic fallback
    }

    #[test]
    fn f32_path_matches_naive_within_its_bound() {
        let a = BlockMatrixOf::<f32>::pseudo_random(6, 5, 3, 5);
        let b = BlockMatrixOf::<f32>::pseudo_random(5, 7, 3, 9);
        let (c, report) = strassen_multiply(&a, &b, &opts(2));
        assert!(report.depth >= 1);
        let oracle = gemm_naive(&a, &b);
        let tol = comparison_tolerance(&a, &b, &report, f32::EPSILON as f64 / 2.0);
        assert!(c.max_abs_diff(&oracle) <= tol);
    }

    #[test]
    fn workspace_is_pooled_and_bounded() {
        let a = BlockMatrixOf::<f64>::pseudo_random(8, 8, 2, 1);
        let b = BlockMatrixOf::<f64>::pseudo_random(8, 8, 2, 2);
        let (_, report) = strassen_multiply(&a, &b, &opts(2));
        assert_eq!(report.depth, 2);
        assert!(report.workspace_bytes > 0);
        // Analytic bound: two temps per live level (geometric, ≤ (2/3)S²
        // blocks) plus one leaf staging set of 3ℓ² blocks.
        let s = report.padded_side as u64;
        let l = report.leaf_side as u64;
        let block_bytes = (a.q() * a.q() * std::mem::size_of::<f64>()) as u64;
        let bound = (2 * s * s / 3 + 3 * l * l + 1) * block_bytes;
        assert!(
            report.workspace_bytes <= bound,
            "pool peak {} exceeds analytic bound {}",
            report.workspace_bytes,
            bound
        );
    }

    #[test]
    fn cancellation_stops_the_recursion() {
        let a = BlockMatrixOf::<f64>::pseudo_random(8, 8, 2, 3);
        let b = BlockMatrixOf::<f64>::pseudo_random(8, 8, 2, 4);
        let token = CancelToken::new();
        token.cancel();
        assert!(strassen_multiply_cancellable(&a, &b, &opts(2), Some(&token)).is_none());
    }

    #[test]
    fn report_serializes_round_trip() {
        let r = StrassenReport {
            depth: 3,
            leaf_side: 4,
            padded_side: 32,
            leaf_products: 343,
            workspace_bytes: 65536,
        };
        let json = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<StrassenReport>(&json).unwrap(), r);
    }
}
