//! Portable scalar fallback kernel.
//!
//! A register-tiled `i/k/j` loop: two `C` rows by one YMM tile's width of
//! columns ([`RegTile::ymm`]) stay in a local accumulator array across
//! the whole `k` loop, whose fixed-size inner loop the compiler
//! auto-vectorizes. Every multiply-accumulate is an *unfused* multiply
//! then add, per element in ascending `k` order — the determinism
//! contract the SIMD variants mirror (with fused ops) on their side.
//! Generic over the element type, since unfused multiply+add needs
//! nothing beyond `Add`/`Mul`.

use super::elem::Element;
use super::RegTile;

/// `c += a × b` for row-major `q×q` blocks, scalar triple loop.
///
/// # Panics
/// Panics (via `debug_assert!` in debug builds and slice indexing
/// otherwise) if any slice is shorter than `q²`.
#[inline]
pub fn block_fma_scalar<T: Element>(c: &mut [T], a: &[T], b: &[T], q: usize) {
    debug_assert!(c.len() >= q * q && a.len() >= q * q && b.len() >= q * q);
    // `2·NR` accumulators fit the baseline target's sixteen vector
    // registers, where a taller tile would spill.
    let nr = RegTile::ymm::<T>().nr;
    const { assert!(RegTile::ymm::<T>().nr <= 16) };
    for i0 in (0..q).step_by(2) {
        let rows = (q - i0).min(2);
        for j0 in (0..q).step_by(nr) {
            let cols = (q - j0).min(nr);
            let mut acc = [[T::ZERO; 16]; 2];
            for r in 0..rows {
                acc[r][..cols].copy_from_slice(&c[(i0 + r) * q + j0..][..cols]);
            }
            if rows == 2 && cols == nr {
                for k in 0..q {
                    let (a0, a1) = (a[i0 * q + k], a[(i0 + 1) * q + k]);
                    let b_row = &b[k * q + j0..][..nr];
                    for j in 0..nr {
                        acc[0][j] = acc[0][j] + a0 * b_row[j];
                        acc[1][j] = acc[1][j] + a1 * b_row[j];
                    }
                }
            } else {
                for k in 0..q {
                    let b_row = &b[k * q + j0..][..cols];
                    for (r, acc_row) in acc.iter_mut().take(rows).enumerate() {
                        let aik = a[(i0 + r) * q + k];
                        for (acc, &bv) in acc_row.iter_mut().zip(b_row) {
                            *acc = *acc + aik * bv;
                        }
                    }
                }
            }
            for r in 0..rows {
                c[(i0 + r) * q + j0..][..cols].copy_from_slice(&acc[r][..cols]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::block_fma_reference;

    #[test]
    fn scalar_matches_reference() {
        for q in [1usize, 3, 8, 17] {
            let a: Vec<f64> = (0..q * q).map(|x| (x % 13) as f64 - 6.0).collect();
            let b: Vec<f64> = (0..q * q).map(|x| (x % 7) as f64 * 0.5).collect();
            let mut c1 = vec![1.0; q * q];
            let mut c2 = c1.clone();
            block_fma_scalar(&mut c1, &a, &b, q);
            block_fma_reference(&mut c2, &a, &b, q);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-9, "q={q}");
            }
        }
    }

    /// The register tile changes which elements share a loop, never an
    /// element's sequence: bit-identical to the plain unfused `i/k/j`
    /// loop, full tiles and ragged edges alike.
    #[test]
    fn scalar_rounds_like_the_plain_unfused_loop() {
        fn plain<T: Element>(c: &mut [T], a: &[T], b: &[T], q: usize) {
            for i in 0..q {
                for k in 0..q {
                    for j in 0..q {
                        c[i * q + j] = c[i * q + j] + a[i * q + k] * b[k * q + j];
                    }
                }
            }
        }
        fn check<T: Element>() {
            for q in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 33, 64] {
                let val =
                    |x: usize, m: usize, d: usize| T::from_f64(((x * m) % d) as f64 * 0.37 - 2.0);
                let a: Vec<T> = (0..q * q).map(|x| val(x, 37, 23)).collect();
                let b: Vec<T> = (0..q * q).map(|x| val(x, 5, 17)).collect();
                let mut c1: Vec<T> = (0..q * q).map(|x| val(x, 11, 19)).collect();
                let mut c2 = c1.clone();
                block_fma_scalar(&mut c1, &a, &b, q);
                plain(&mut c2, &a, &b, q);
                assert_eq!(c1, c2, "{} q={q}", T::NAME);
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn scalar_is_generic_over_f32() {
        let q = 5usize;
        let a: Vec<f32> = (0..q * q).map(|x| (x % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..q * q).map(|x| (x % 7) as f32 * 0.5).collect();
        let mut c1 = vec![1.0f32; q * q];
        let mut c2 = c1.clone();
        block_fma_scalar(&mut c1, &a, &b, q);
        block_fma_reference(&mut c2, &a, &b, q);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-4, "q={q}");
        }
    }
}
