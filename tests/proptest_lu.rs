//! Property-based tests of the LU extension: correctness of the
//! factorization on random well-conditioned inputs across configurations,
//! plus configuration-independence of the arithmetic.

use multicore_matmul::lu::{exec, lu_factor_parallel, BlockedLu, UpdateTiling};
use multicore_matmul::prelude::*;
use proptest::prelude::*;

fn tiling() -> impl Strategy<Value = UpdateTiling> {
    prop_oneof![
        Just(UpdateTiling::RowStripes),
        Just(UpdateTiling::SharedOpt),
        Just(UpdateTiling::Tradeoff),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any panel width and tiling factors any diagonally-dominant matrix
    /// with a tiny reconstruction residual.
    #[test]
    fn factorization_is_correct(
        n in 1u32..10,
        q in 1usize..6,
        w in 1u32..12,
        t in tiling(),
        seed in any::<u64>(),
    ) {
        let machine = MachineConfig::quad_q32();
        let a = exec::diagonally_dominant(n, q, seed);
        let mut m = a.clone();
        exec::lu_factor(&mut m, &machine, &BlockedLu::new(w, t)).unwrap();
        let r = exec::residual(&m, &a);
        prop_assert!(r < 1e-9, "n={n} q={q} w={w} {t:?}: residual {r}");
    }

    /// The factors are bit-identical across every (panel width, tiling)
    /// configuration of the sequential path — ascending-k accumulation is
    /// a schedule invariant, not an accident of one code path. The
    /// parallel path routes its trailing update through the packed
    /// `gemm_into`, whose micro-kernel reassociates FMAs, so it
    /// agrees to rounding rather than bit-for-bit.
    #[test]
    fn factors_are_configuration_independent(
        n in 2u32..9,
        q in 1usize..5,
        w1 in 1u32..10,
        w2 in 1u32..10,
        t1 in tiling(),
        t2 in tiling(),
        seed in any::<u64>(),
    ) {
        let machine = MachineConfig::quad_q32();
        let a = exec::diagonally_dominant(n, q, seed);
        let mut m1 = a.clone();
        exec::lu_factor(&mut m1, &machine, &BlockedLu::new(w1, t1)).unwrap();
        let mut m2 = a.clone();
        exec::lu_factor(&mut m2, &machine, &BlockedLu::new(w2, t2)).unwrap();
        prop_assert_eq!(&m1, &m2);
        let mut m3 = a.clone();
        lu_factor_parallel(&mut m3, w1).unwrap();
        let diff = m1.max_abs_diff(&m3);
        prop_assert!(diff < 1e-10, "parallel vs sequential diff {diff}");
    }

    /// Simulated operation volume is machine- and tiling-independent.
    #[test]
    fn update_volume_is_invariant(
        n in 1u32..20,
        w in 1u32..8,
        t in tiling(),
        p_root in 1usize..4,
    ) {
        use multicore_matmul::lu::{CountingLuHooks, schedule::expected_counts};
        let machine = MachineConfig::new(p_root * p_root, 977, 21, 32);
        let mut hooks = CountingLuHooks::default();
        BlockedLu::new(w, t).run(&machine, n, &mut hooks).unwrap();
        let (g, trsm, upd) = expected_counts(n as u64);
        prop_assert_eq!(hooks.getrfs, g);
        prop_assert_eq!(hooks.trsm_cols, trsm);
        prop_assert_eq!(hooks.trsm_rows, trsm);
        prop_assert_eq!(hooks.updates, upd);
    }
}
