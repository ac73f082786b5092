//! Property tests for the micro-kernel subsystem: every dispatchable
//! variant agrees with the plain reference kernel on random blocks, and
//! the executor paths (naive oracle, schedule replayer, parallel packed
//! path) stay *bit-identical* to each other under the dispatched kernel,
//! and the ZMM and YMM variants are bit-identical to each other.

use multicore_matmul::exec::kernel::{self, block_fma_reference, block_fma_with};
use multicore_matmul::exec::Element;
use multicore_matmul::prelude::*;
use proptest::prelude::*;

/// Block sides exercising every kernel regime: sub-vector (1, 3),
/// partial register tiles (5, 7, 31), exact tiles (8, 16, 32) and the
/// benchmark size (64).
fn block_side() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(3),
        Just(5),
        Just(7),
        Just(8),
        Just(16),
        Just(31),
        Just(32),
        Just(64),
    ]
}

/// Variant-vs-reference tolerance: SIMD variants fuse the multiply-add
/// while the reference rounds twice per step, so allow one ulp-ish slack
/// per accumulation step.
fn tol(q: usize) -> f64 {
    1e-13 * q as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every variant this host can dispatch matches the reference kernel
    /// on random operands, including accumulation into a non-zero C.
    #[test]
    fn all_variants_match_reference(q in block_side(), seed in any::<u64>()) {
        let a = BlockMatrix::pseudo_random(1, 1, q, seed);
        let b = BlockMatrix::pseudo_random(1, 1, q, seed ^ 0xA5A5_A5A5);
        let c0 = BlockMatrix::pseudo_random(1, 1, q, seed.wrapping_add(1));
        let mut want = c0.block(0, 0).to_vec();
        block_fma_reference(&mut want, a.block(0, 0), b.block(0, 0), q);
        for v in kernel::variants_available() {
            let mut got = c0.block(0, 0).to_vec();
            block_fma_with(v, &mut got, a.block(0, 0), b.block(0, 0), q);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(
                    (g - w).abs() <= tol(q),
                    "variant {v} q={q} element {i}: {g} vs {w}"
                );
            }
        }
    }

    /// Repeated dispatch is deterministic: the same variant on the same
    /// operands produces the same bits.
    #[test]
    fn variants_are_deterministic(q in block_side(), seed in any::<u64>()) {
        let a = BlockMatrix::pseudo_random(1, 1, q, seed);
        let b = BlockMatrix::pseudo_random(1, 1, q, !seed);
        for v in kernel::variants_available() {
            let mut c1 = vec![0.0; q * q];
            let mut c2 = vec![0.0; q * q];
            block_fma_with(v, &mut c1, a.block(0, 0), b.block(0, 0), q);
            block_fma_with(v, &mut c2, a.block(0, 0), b.block(0, 0), q);
            prop_assert_eq!(&c1, &c2, "variant {} not deterministic", v);
        }
    }
}

/// The parallel executor (packed SIMD path or scalar fallback), the
/// schedule replayer and the naive oracle all bottom out in the same
/// dispatched kernel with `k`-ascending accumulation, so their results
/// are bit-identical — `==`, no tolerance — for every tiling family.
#[test]
fn executor_paths_are_bit_identical_for_all_tilings() {
    let machine = MachineConfig::quad_q32();
    let q = 8; // multiple of the register tile: exercises the vector path
    let a = BlockMatrix::pseudo_random(7, 5, q, 11);
    let b = BlockMatrix::pseudo_random(5, 6, q, 12);
    let want = gemm_naive(&a, &b);

    let tilings = [
        ("shared_opt", Tiling::shared_opt(&machine).unwrap()),
        ("distributed_opt", Tiling::distributed_opt(&machine).unwrap()),
        ("tradeoff", Tiling::tradeoff(&machine).unwrap()),
        ("equal", Tiling::equal(machine.shared_capacity).unwrap()),
    ];
    for (name, tiling) in tilings {
        let got = gemm_parallel(&a, &b, tiling);
        assert_eq!(got, want, "gemm_parallel/{name} differs from gemm_naive");
    }

    let square = BlockMatrix::pseudo_random(6, 6, q, 21);
    let square_b = BlockMatrix::pseudo_random(6, 6, q, 22);
    let want_sq = gemm_naive(&square, &square_b);
    for algo in [
        AlgorithmKind::SharedOpt,
        AlgorithmKind::DistributedOpt,
        AlgorithmKind::Tradeoff,
        AlgorithmKind::SharedEqual,
    ] {
        let algo = algo.build();
        let got = run_schedule(algo.as_ref(), &machine, &square, &square_b).unwrap();
        assert_eq!(got, want_sq, "run_schedule/{} differs from gemm_naive", algo.name());
    }
}

/// Forcing each available variant through the public
/// `gemm_parallel_with_kernel` API agrees with the oracle within
/// rounding (scalar is unfused, SIMD is fused, so `==` only holds
/// within one variant — across variants we use a tolerance).
#[test]
fn forced_variants_agree_with_oracle() {
    let machine = MachineConfig::quad_q32();
    let a = BlockMatrix::pseudo_random(5, 4, 13, 31);
    let b = BlockMatrix::pseudo_random(4, 6, 13, 32);
    let want = gemm_naive(&a, &b);
    let tiling = Tiling::tradeoff(&machine).unwrap();
    for v in kernel::variants_available() {
        let got = gemm_parallel_with_kernel(&a, &b, tiling, v);
        assert!(
            got.max_abs_diff(&want) <= 1e-10,
            "variant {v}: max diff {}",
            got.max_abs_diff(&want)
        );
    }
}

/// Whether both fused x86 variants run on this host; prints the skip
/// note (once) when they do not.
fn zmm_and_ymm() -> bool {
    let both = KernelVariant::Avx512Fma.is_available() && KernelVariant::Avx2Fma.is_available();
    if !both {
        static NOTE: std::sync::Once = std::sync::Once::new();
        NOTE.call_once(|| {
            eprintln!("skipping: the cross-variant suite needs AVX-512F and AVX2+FMA")
        });
    }
    both
}

/// Block sides divisible by neither 8 nor 16, so both register tiles
/// (6×8 / 8×16 for f64, 6×16 / 8×32 for f32) leave partial tiles.
fn ragged_side() -> impl Strategy<Value = usize> {
    (1usize..48).prop_map(|q| if q % 8 == 0 { q + 1 } else { q })
}

/// `gemm_into` under `avx512_fma` and under `avx2_fma`, from the same
/// non-zero starting `C`.
fn zmm_vs_ymm<T: Element>(
    q: usize,
    (m, n, z): (u32, u32, u32),
    tiling: Tiling,
    seed: u64,
) -> [BlockMatrixOf<T>; 2] {
    let a = BlockMatrixOf::<T>::pseudo_random(m, z, q, seed);
    let b = BlockMatrixOf::<T>::pseudo_random(z, n, q, seed ^ 0x5A5A);
    let c0 = BlockMatrixOf::<T>::pseudo_random(m, n, q, seed.wrapping_add(7));
    let variants = [KernelVariant::Avx512Fma, KernelVariant::Avx2Fma];
    std::array::from_fn(|i| {
        let mut c = c0.clone();
        let opts = GemmOpts { variant: variants[i], cancel: None };
        assert!(gemm_into(&mut c, &a, &b, tiling, &opts));
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused SIMD variants differ only in which `C` elements share a
    /// register, never in an element's fused ascending-`k` chain, so the
    /// ZMM and YMM f64 products are bit-identical.
    #[test]
    fn zmm_and_ymm_f64_products_are_bit_identical(
        q in ragged_side(),
        dims in (1u32..4, 1u32..4, 1u32..5),
        tile in (1u32..4, 1u32..4),
        seed in any::<u64>(),
    ) {
        if !zmm_and_ymm() {
            return Ok(());
        }
        let tiling = Tiling { tile_m: tile.0, tile_n: tile.1, tile_k: 1 };
        let [zmm, ymm] = zmm_vs_ymm::<f64>(q, dims, tiling, seed);
        prop_assert!(zmm == ymm, "q={q} dims={dims:?}");
    }

    /// The same bit identity for f32 (8×32 against 6×16 tiles).
    #[test]
    fn zmm_and_ymm_f32_products_are_bit_identical(
        q in ragged_side(),
        dims in (1u32..4, 1u32..4, 1u32..5),
        tile in (1u32..4, 1u32..4),
        seed in any::<u64>(),
    ) {
        if !zmm_and_ymm() {
            return Ok(());
        }
        let tiling = Tiling { tile_m: tile.0, tile_n: tile.1, tile_k: 1 };
        let [zmm, ymm] = zmm_vs_ymm::<f32>(q, dims, tiling, seed);
        prop_assert!(zmm == ymm, "q={q} dims={dims:?}");
    }

    /// The unpacked block kernels (`block_fma`, behind `gemm_naive` and
    /// the schedule replayer) agree bit for bit across the two as well.
    #[test]
    fn zmm_and_ymm_block_kernels_are_bit_identical(q in ragged_side(), seed in any::<u64>()) {
            if !zmm_and_ymm() {
            return Ok(());
        }
        let a = BlockMatrix::pseudo_random(1, 1, q, seed);
        let b = BlockMatrix::pseudo_random(1, 1, q, seed ^ 0xA5A5);
        let c0 = BlockMatrix::pseudo_random(1, 1, q, seed.wrapping_add(1));
        let mut zmm = c0.block(0, 0).to_vec();
        let mut ymm = zmm.clone();
        block_fma_with(KernelVariant::Avx512Fma, &mut zmm, a.block(0, 0), b.block(0, 0), q);
        block_fma_with(KernelVariant::Avx2Fma, &mut ymm, a.block(0, 0), b.block(0, 0), q);
        prop_assert_eq!(zmm, ymm, "q={}", q);
    }
}
