//! Quick standalone kernel throughput probe: times the parallel block
//! GEMM and the raw `block_fma_with` kernel for every kernel variant
//! this host can dispatch, in `f64` and `f32`, without the criterion
//! harness.
//!
//! ```bash
//! cargo run --release -p mmc-exec --example kbench
//! ```
//!
//! An unknown `MMC_KERNEL` value fails with the dispatcher's error
//! listing the valid variants (exit 2) instead of silently falling back.

fn main() {
    use mmc_exec::kernel::variant;

    // Resolves MMC_KERNEL (and exits with the valid-variant list on a
    // bogus value) before any timing starts.
    let dispatched = variant();
    probe::<f64>(dispatched);
    probe::<f32>(dispatched);
}

/// One element type: the executor over a 384×384 product, then the raw
/// block kernel, one line per variant.
fn probe<T: mmc_exec::Element>(dispatched: mmc_exec::KernelVariant) {
    use mmc_exec::kernel::{block_fma_with, variants_available};
    use mmc_exec::{gemm_parallel_with_kernel, BlockMatrixOf, Tiling};

    // Full executor probe: µ×µ work units of one whole-problem tile.
    let (order, q) = (6u32, 64usize);
    let a = BlockMatrixOf::<T>::pseudo_random(order, order, q, 1);
    let b = BlockMatrixOf::<T>::pseudo_random(order, order, q, 2);
    let gemm_flops = 2.0 * (order as f64 * q as f64).powi(3);
    let tiling = Tiling { tile_m: order, tile_n: order, tile_k: 4 };
    for v in variants_available() {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            std::hint::black_box(gemm_parallel_with_kernel(&a, &b, tiling, v));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        println!(
            "gemm {t} {n}x{n} kernel={v}{mark}: {rate:.2} GFLOP/s (mu = {mu})",
            t = T::NAME,
            n = order as usize * q,
            mark = if v == dispatched { " [dispatched]" } else { "" },
            rate = gemm_flops / best / 1e9,
            mu = mmc_exec::unit_mu::<T>(order, order, q),
        );
    }

    // Raw per-block kernel probe (no threading).
    for q in [32usize, 64, 96] {
        let a = BlockMatrixOf::<T>::pseudo_random(1, 1, q, 1);
        let b = BlockMatrixOf::<T>::pseudo_random(1, 1, q, 2);
        let flops = 2.0 * (q as f64).powi(3);
        for v in variants_available() {
            let mut c = vec![T::ZERO; q * q];
            let reps = (2e8 / flops) as usize;
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                block_fma_with(v, &mut c, a.block(0, 0), b.block(0, 0), q);
            }
            let s = t0.elapsed().as_secs_f64();
            println!(
                "block {} q={q} kernel={v}: {:.2} GFLOP/s",
                T::NAME,
                flops * reps as f64 / s / 1e9
            );
            std::hint::black_box(&c);
        }
    }
}
