//! Workspace-level integration of the Strassen–Winograd subsystem:
//! the recursion must agree with the classic parallel executor within
//! the Winograd forward-error bound on arbitrary ragged shapes (both
//! element widths), the Morton layout must be a true bijection, the
//! observability registry must reconcile exactly with the simulator's
//! closed-form work count for a recursive run, and the model-driven
//! `auto` selection must flip exactly at its own predicted crossover.

use multicore_matmul::obs;
use multicore_matmul::prelude::*;
use multicore_matmul::sim::strassen as sim_strassen;
use multicore_matmul::strassen::morton::{morton_decode, morton_encode};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that read registry counter deltas against everything
/// else in this binary that retires FLOPs: global counters are only
/// attributable when one measured region runs at a time.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    REGISTRY_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn whole_tiling(m: u32, n: u32, z: u32) -> Tiling {
    Tiling { tile_m: m, tile_n: n, tile_k: z }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any ragged/odd block shape, any cutoff: the recursion agrees with
    /// the classic parallel path within the Higham bound for Winograd's
    /// variant (f64).
    #[test]
    fn strassen_matches_classic_f64(
        m in 1u32..9,
        n in 1u32..9,
        z in 1u32..9,
        q in 1usize..5,
        cutoff in 1u32..5,
        seed in any::<u64>(),
    ) {
        let _g = lock();
        let a = BlockMatrix::pseudo_random(m, z, q, seed);
        let b = BlockMatrix::pseudo_random(z, n, q, seed.wrapping_add(1));
        let reference = gemm_parallel(&a, &b, whole_tiling(m, n, z));
        let (c, report) = strassen_multiply(&a, &b, &StrassenOpts::with_cutoff::<f64>(cutoff));
        prop_assert_eq!((c.rows(), c.cols()), (m, n));
        let tol = multicore_matmul::strassen::comparison_tolerance(
            &a, &b, &report, f64::EPSILON / 2.0,
        );
        let diff = c.max_abs_diff(&reference);
        prop_assert!(
            diff <= tol,
            "m={m} n={n} z={z} q={q} cutoff={cutoff} depth={}: {diff:e} > {tol:e}",
            report.depth,
        );
    }

    /// The same agreement in f32, against the f32 unit roundoff.
    #[test]
    fn strassen_matches_classic_f32(
        m in 1u32..8,
        n in 1u32..8,
        z in 1u32..8,
        q in 1usize..5,
        cutoff in 1u32..4,
        seed in any::<u64>(),
    ) {
        let _g = lock();
        let a = BlockMatrixOf::<f32>::pseudo_random(m, z, q, seed);
        let b = BlockMatrixOf::<f32>::pseudo_random(z, n, q, seed.wrapping_add(1));
        let reference = gemm_parallel(&a, &b, whole_tiling(m, n, z));
        let (c, report) = strassen_multiply(&a, &b, &StrassenOpts::with_cutoff::<f32>(cutoff));
        let tol = multicore_matmul::strassen::comparison_tolerance(
            &a, &b, &report, f64::from(f32::EPSILON) / 2.0,
        );
        let diff = c.max_abs_diff(&reference);
        prop_assert!(
            diff <= tol,
            "m={m} n={n} z={z} q={q} cutoff={cutoff} depth={}: {diff:e} > {tol:e}",
            report.depth,
        );
    }

    /// Morton encode/decode is a bijection on the block-index grid.
    #[test]
    fn morton_round_trip(r in 0u32..(1 << 16), c in 0u32..(1 << 16)) {
        prop_assert_eq!(morton_decode(morton_encode(r, c)), (r, c));
    }
}

/// Sibling blocks differ in the lowest interleaved bits: a 2×2 quadrant
/// of the grid is contiguous in Morton order, which is what lets the
/// recursion split buffers with `split_at_mut` instead of strided views.
#[test]
fn morton_quadrants_are_contiguous() {
    for (r, c) in [(0u32, 0u32), (2, 6), (14, 8)] {
        let base = morton_encode(r & !1, c & !1);
        assert_eq!(morton_encode(r & !1, c | 1), base + 1);
        assert_eq!(morton_encode(r | 1, c & !1), base + 2);
        assert_eq!(morton_encode(r | 1, c | 1), base + 3);
    }
}

/// Golden reconciliation: the registry FLOPs retired by a depth-2 ragged
/// recursion equal exactly `7^d · ℓ³ · 2q³` — the simulator's closed
/// form — because the leaves are the only kernel work and padding blocks
/// are real (zero-valued) work the counter must still charge.
#[test]
fn registry_flops_match_sim_closed_form() {
    let _g = lock();
    let (m, n, z, q, cutoff) = (5u32, 3u32, 4u32, 4usize, 2u32);
    let a = BlockMatrix::pseudo_random(m, z, q, 31);
    let b = BlockMatrix::pseudo_random(z, n, q, 32);
    let mut opts = StrassenOpts::with_cutoff::<f64>(cutoff);
    opts.variant = KernelVariant::Scalar;

    let before = obs::global().snapshot();
    let (c, report) = strassen_multiply(&a, &b, &opts);
    let after = obs::global().snapshot();
    std::hint::black_box(&c);

    let plan = sim_strassen::strassen_plan(u64::from(m.max(n).max(z)), u64::from(cutoff));
    assert_eq!(plan.depth, report.depth, "sim and executor must agree on geometry");
    assert_eq!(plan.leaf_side, u64::from(report.leaf_side));
    assert!(report.depth >= 2, "shape must actually recurse");
    assert_eq!(report.leaf_products, 7u64.pow(report.depth));

    let counted = after.counter("exec.flops.scalar").unwrap_or(0)
        - before.counter("exec.flops.scalar").unwrap_or(0);
    let q3 = (q as u64).pow(3);
    let closed_form = 7u64.pow(plan.depth) * plan.leaf_side.pow(3) * 2 * q3;
    assert_eq!(counted, closed_form, "registry FLOPs must match 7^d ℓ³ 2q³");
    assert_eq!(counted, sim_strassen::flops(&plan, q as u64), "and the sim closed form");
}

/// The model's `auto` selection flips exactly at its own predicted
/// crossover: classic one order below, Strassen at the crossover — the
/// contract the CLI's `--algo auto` and the CI smoke job rely on.
#[test]
fn auto_choice_brackets_predicted_crossover() {
    let machine = MachineConfig::quad_q32();
    let tiling = Tiling::shared_opt(&machine).expect("shared_opt feasible on q32");
    let env = CostEnv::for_machine(
        &machine,
        u64::from(tiling.tile_m),
        u64::from(tiling.tile_k),
        u64::from(tiling.tile_n),
    );
    let (q, cutoff) = (2, u64::from(DEFAULT_CUTOFF));
    let xover = predicted_crossover(q, cutoff, &env, 4096)
        .expect("q32 must have a crossover below 4096 blocks");
    assert!(xover > 1, "crossover at order 1 leaves no classic side to test");
    let below = choose_algorithm(xover - 1, q, cutoff, &env);
    let at = choose_algorithm(xover, q, cutoff, &env);
    assert!(!below.use_strassen, "order {} must stay classic", xover - 1);
    assert!(at.use_strassen, "order {xover} must pick Strassen");
    assert!(at.strassen_time < at.classic_time);
    assert!(at.depth > 0, "a winning recursion must actually recurse");
}
