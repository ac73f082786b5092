//! Rayon-parallel blocked LU.
//!
//! The sequential [`exec`](crate::exec) path replays the schedule through
//! hooks; this module runs the same factorization with real parallelism:
//! the column-panel solves, the `U` block-row solves and the trailing
//! update — everything outside the tiny diagonal factor — fan out over a
//! rayon pool. Each parallel region writes disjoint blocks, and every
//! block's updates apply in ascending `k` order. The Schur-complement
//! trailing update runs through the block executor
//! [`gemm_into`] (with `L` negated during extraction, so the
//! kernel's `+=` applies the subtraction); its block kernel associates
//! its FMAs differently from the blockwise stripes, so the
//! parallel result agrees with the sequential factorization to rounding
//! (tests bound `max_abs_diff`), not bit-for-bit.

use crate::kernel::{block_fms, getrf_nopiv, trsm_left_lower_unit, trsm_right_upper};
use crate::schedule::LuError;
use mmc_exec::{gemm_into, BlockMatrix, GemmOpts, Tiling};
use rayon::prelude::*;

/// Raw-pointer wrapper for disjoint-block writes from rayon tasks.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: every parallel region below hands each task a disjoint set of
// block indices; no block is written by two tasks in one region, and
// regions are separated by the implicit joins of rayon's scope.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    #[inline]
    fn get(self) -> *mut f64 {
        self.0
    }
}

/// `q²`-element mutable slice of block `(i, j)` behind the raw pointer.
///
/// # Safety
/// Caller must guarantee `(i, j)` is in bounds and not aliased by any
/// concurrent access.
#[inline]
unsafe fn block_mut<'a>(p: SendPtr, n: usize, q2: usize, i: u32, j: u32) -> &'a mut [f64] {
    std::slice::from_raw_parts_mut(p.get().add((i as usize * n + j as usize) * q2), q2)
}

/// Shared (read-only) view of block `(i, j)`.
///
/// # Safety
/// Caller must guarantee `(i, j)` is in bounds and not concurrently
/// written.
#[inline]
unsafe fn block_ref<'a>(p: SendPtr, n: usize, q2: usize, i: u32, j: u32) -> &'a [f64] {
    std::slice::from_raw_parts(p.get().add((i as usize * n + j as usize) * q2), q2)
}

/// Factor `m` in place, panel width `w`, with rayon-parallel solves and
/// trailing updates. Bit-identical to
/// [`lu_factor`](crate::exec::lu_factor) with any tiling.
pub fn lu_factor_parallel(m: &mut BlockMatrix, w: u32) -> Result<(), LuError> {
    if w == 0 {
        return Err(LuError::Invalid("panel width must be at least 1".into()));
    }
    assert_eq!(m.rows(), m.cols(), "LU needs a square block matrix");
    let n = m.rows();
    let q = m.q();
    let q2 = q * q;
    let ncols = n as usize;
    let ptr = SendPtr(m.data_mut().as_mut_ptr());

    let mut kp = 0;
    while kp < n {
        let pw = w.min(n - kp);
        // --- 1. Panel factorization --------------------------------------
        for t in 0..pw {
            let k = kp + t;
            // SAFETY: exclusive access (no parallelism around this call).
            let diag = unsafe { block_mut(ptr, ncols, q2, k, k) };
            if !getrf_nopiv(diag, q) {
                return Err(LuError::SingularPivot { k });
            }
            let diag_copy = diag.to_vec();
            // Column solves: disjoint target blocks (i, k), i > k.
            let col_err = (k + 1..n)
                .into_par_iter()
                .map(|i| {
                    // SAFETY: each task owns block (i, k) exclusively; the
                    // diagonal is read from the private copy.
                    let target = unsafe { block_mut(ptr, ncols, q2, i, k) };
                    if trsm_right_upper(&diag_copy, target, q) {
                        Ok(())
                    } else {
                        Err(LuError::SingularPivot { k })
                    }
                })
                .find_any(|r| r.is_err());
            if let Some(err) = col_err {
                err?;
            }
            // Row solves within the panel: disjoint blocks (k, j).
            (k + 1..kp + pw).into_par_iter().for_each(|j| {
                // SAFETY: each task owns block (k, j) exclusively.
                let target = unsafe { block_mut(ptr, ncols, q2, k, j) };
                trsm_left_lower_unit(&diag_copy, target, q);
            });
            // Rank-1 update inside the panel: row stripes, disjoint (i, j).
            (k + 1..n).into_par_iter().for_each(|i| {
                for j in k + 1..kp + pw {
                    // SAFETY: task `i` owns row `i`; (i,k) and (k,j) are
                    // finalized by the joins above and only read.
                    let (a, b) = unsafe {
                        (block_ref(ptr, ncols, q2, i, k), block_ref(ptr, ncols, q2, k, j))
                    };
                    let c = unsafe { block_mut(ptr, ncols, q2, i, j) };
                    block_fms(c, a, b, q);
                }
            });
        }
        // --- 2. U block row right of the panel ---------------------------
        let base = kp + pw;
        if base < n {
            (base..n).into_par_iter().for_each(|j| {
                for k in kp..kp + pw {
                    for t in kp..k {
                        // SAFETY: column j is owned by this task; panel
                        // blocks (k, t) are read-only here.
                        let (a, b) = unsafe {
                            (block_ref(ptr, ncols, q2, k, t), block_ref(ptr, ncols, q2, t, j))
                        };
                        let c = unsafe { block_mut(ptr, ncols, q2, k, j) };
                        block_fms(c, a, b, q);
                    }
                    // SAFETY: diagonal (k, k) finalized in step 1.
                    let diag = unsafe { block_ref(ptr, ncols, q2, k, k) };
                    let target = unsafe { block_mut(ptr, ncols, q2, k, j) };
                    trsm_left_lower_unit(diag, target, q);
                }
            });
            // --- 3. Trailing update: Schur complement ---------------------
            // C[base.., base..] -= L[base.., kp..base] · U[kp..base, base..]
            // through `gemm_into`: `L` is negated during extraction so
            // the kernel's `+=` applies the subtraction, and the whole
            // panel width goes in one call (ascending `k`, like the
            // stripes this replaces — only the FMA association differs).
            let tn = n - base;
            let mut lneg = BlockMatrix::zeros(tn, pw, q);
            let mut upan = BlockMatrix::zeros(pw, tn, q);
            let mut csub = BlockMatrix::zeros(tn, tn, q);
            for i in 0..tn {
                for k in 0..pw {
                    // SAFETY: exclusive access between parallel regions.
                    let src = unsafe { block_ref(ptr, ncols, q2, base + i, kp + k) };
                    for (d, s) in lneg.block_mut(i, k).iter_mut().zip(src) {
                        *d = -*s;
                    }
                }
            }
            for k in 0..pw {
                for j in 0..tn {
                    // SAFETY: as above.
                    let src = unsafe { block_ref(ptr, ncols, q2, kp + k, base + j) };
                    upan.block_mut(k, j).copy_from_slice(src);
                }
            }
            for i in 0..tn {
                for j in 0..tn {
                    // SAFETY: as above.
                    let src = unsafe { block_ref(ptr, ncols, q2, base + i, base + j) };
                    csub.block_mut(i, j).copy_from_slice(src);
                }
            }
            // Row-stripe tiles keep the update's rayon granularity.
            let tiling = Tiling { tile_m: 1, tile_n: tn, tile_k: pw };
            gemm_into(&mut csub, &lneg, &upan, tiling, &GemmOpts::dispatched());
            for i in 0..tn {
                for j in 0..tn {
                    // SAFETY: as above.
                    let dst = unsafe { block_mut(ptr, ncols, q2, base + i, base + j) };
                    dst.copy_from_slice(csub.block(i, j));
                }
            }
        }
        kp += pw;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{diagonally_dominant, lu_factor, residual};
    use crate::schedule::{BlockedLu, UpdateTiling};
    use mmc_sim::MachineConfig;

    #[test]
    fn parallel_matches_sequential_to_rounding() {
        let machine = MachineConfig::quad_q32();
        let a = diagonally_dominant(14, 5, 3);
        let mut reference = a.clone();
        lu_factor(&mut reference, &machine, &BlockedLu::new(4, UpdateTiling::RowStripes)).unwrap();
        for w in [1u32, 2, 4, 7, 14, 30] {
            let mut m = a.clone();
            lu_factor_parallel(&mut m, w).unwrap();
            // The packed trailing update reassociates FMAs, so equality
            // holds to rounding, not bit-for-bit.
            assert!(m.max_abs_diff(&reference) < 1e-11, "w={w}");
        }
    }

    #[test]
    fn parallel_residual_is_tiny() {
        let a = diagonally_dominant(12, 8, 9);
        let mut m = a.clone();
        lu_factor_parallel(&mut m, 4).unwrap();
        assert!(residual(&m, &a) < 1e-11);
    }

    #[test]
    fn singular_pivot_detected_in_parallel() {
        let mut m = mmc_exec::BlockMatrix::zeros(4, 4, 4);
        assert!(matches!(lu_factor_parallel(&mut m, 2), Err(LuError::SingularPivot { k: 0 })));
    }

    #[test]
    fn zero_panel_width_rejected() {
        let mut m = diagonally_dominant(4, 4, 1);
        assert!(lu_factor_parallel(&mut m, 0).is_err());
    }

    #[test]
    fn n1_matrix_works() {
        let a = diagonally_dominant(1, 6, 2);
        let mut m = a.clone();
        lu_factor_parallel(&mut m, 3).unwrap();
        assert!(residual(&m, &a) < 1e-12);
    }
}
