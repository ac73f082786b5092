//! Property tests for the `µ×µ` block executor on ragged shapes.
//!
//! The load-bearing invariant: for any shape, tiling, block side and
//! thread count, `gemm_into` through a kernel variant computes exactly the
//! bits of the naive block loop through that variant. Block sides run
//! from 1 to 19, so every variant's partial register tiles — the AVX-512
//! masked lanes, the YMM and NEON row strips and column remainders —
//! take part, and the grid is ragged against both the tiling and `µ`.

use mmc_exec::kernel::{self, block_fma_with, KernelVariant};
use mmc_exec::{gemm_into, gemm_naive, BlockMatrix, BlockMatrixOf, Element, GemmOpts, Tiling};
use proptest::prelude::*;

/// The naive `i, j, k` block loop through variant `v` — [`gemm_naive`]
/// runs the dispatched variant, this runs any.
fn naive_with<T: Element>(
    v: KernelVariant,
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
) -> BlockMatrixOf<T> {
    let q = a.q();
    let mut c = BlockMatrixOf::<T>::zeros(a.rows(), b.cols(), q);
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            for k in 0..a.cols() {
                block_fma_with(v, c.block_mut(i, j), a.block(i, k), b.block(k, j), q);
            }
        }
    }
    c
}

/// Check every available variant on one shape, on a one-thread pool and
/// on the default pool, against the naive loop of the same variant.
fn check_every_variant<T: Element>(
    (m, n, z, q): (u32, u32, u32, usize),
    tiling: Tiling,
    seed: u64,
) -> Result<(), TestCaseError> {
    let a = BlockMatrixOf::<T>::pseudo_random(m, z, q, seed);
    let b = BlockMatrixOf::<T>::pseudo_random(z, n, q, seed ^ 0x5A5A);
    let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for v in kernel::variants_available() {
        let oracle = naive_with(v, &a, &b);
        if v == kernel::variant() {
            prop_assert!(oracle == gemm_naive(&a, &b), "{} oracle drifted from gemm_naive", v);
        }
        let run = || {
            let mut c = BlockMatrixOf::<T>::zeros(m, n, q);
            assert!(gemm_into(&mut c, &a, &b, tiling, &GemmOpts { variant: v, cancel: None }));
            c
        };
        prop_assert!(one.install(run) == oracle, "{} {} one thread {:?}", T::NAME, v, tiling);
        prop_assert!(run() == oracle, "{} {} default pool {:?}", T::NAME, v, tiling);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// f64: ragged grids, random tilings, block sides 1..20.
    #[test]
    fn f64_products_equal_the_naive_loop_per_variant(
        m in 1u32..9,
        n in 1u32..9,
        z in 1u32..6,
        q in 1usize..20,
        tm in 1u32..7,
        tn in 1u32..7,
        seed in any::<u64>(),
    ) {
        let tiling = Tiling { tile_m: tm, tile_n: tn, tile_k: 1 };
        check_every_variant::<f64>((m, n, z, q), tiling, seed)?;
    }

    /// f32: the same for the narrow element type, whose tiles are twice
    /// as wide (6×16 and 8×32).
    #[test]
    fn f32_products_equal_the_naive_loop_per_variant(
        m in 1u32..9,
        n in 1u32..9,
        z in 1u32..6,
        q in 1usize..20,
        tm in 1u32..7,
        tn in 1u32..7,
        seed in any::<u64>(),
    ) {
        let tiling = Tiling { tile_m: tm, tile_n: tn, tile_k: 1 };
        check_every_variant::<f32>((m, n, z, q), tiling, seed)?;
    }

    /// f32 executors track the f64 oracle of the same pseudo-random
    /// stream to single-precision accuracy: `pseudo_random::<f32>`
    /// narrows the exact f64 values, so the products differ only by f32
    /// rounding — bounded well under 1e-3 for these magnitudes (inputs
    /// in [0,1), dot products of length ≤ `z·q` ≤ 114).
    #[test]
    fn f32_product_stays_within_f32_rounding_of_f64(
        m in 1u32..5,
        n in 1u32..5,
        z in 1u32..7,
        q in 1usize..20,
    ) {
        let a64 = BlockMatrix::pseudo_random(m, z, q, 91);
        let b64 = BlockMatrix::pseudo_random(z, n, q, 92);
        let a32 = BlockMatrixOf::<f32>::pseudo_random(m, z, q, 91);
        let b32 = BlockMatrixOf::<f32>::pseudo_random(z, n, q, 92);
        let oracle = gemm_naive(&a64, &b64);
        let tiling = Tiling { tile_m: 2, tile_n: 3, tile_k: 3 };
        for v in kernel::variants_available() {
            let c = mmc_exec::gemm_parallel_with_kernel(&a32, &b32, tiling, v);
            let mut worst = 0.0f64;
            for i in 0..m as usize * q {
                for j in 0..n as usize * q {
                    worst = worst.max((c.get(i, j) as f64 - oracle.get(i, j)).abs());
                }
            }
            prop_assert!(worst < 1e-3, "variant {} worst gap {}", v, worst);
        }
    }
}
