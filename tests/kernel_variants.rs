//! Property tests for the micro-kernel subsystem: every dispatchable
//! variant agrees with the plain reference kernel on random blocks, and
//! the executor paths (naive oracle, schedule replayer, parallel packed
//! path) stay *bit-identical* to each other under the dispatched kernel.

use multicore_matmul::exec::kernel::{self, block_fma_reference, block_fma_with};
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
/// `gemm_parallel_with_plan` API agrees with the oracle within
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
        let plan = multicore_matmul::exec::blocking::active_plan::<f64>();
        let got = gemm_parallel_with_plan(&a, &b, tiling, v, plan);
        assert!(
            got.max_abs_diff(&want) <= 1e-10,
            "variant {v}: max diff {}",
            got.max_abs_diff(&want)
        );
    }
}
