//! Quick standalone kernel throughput probe: times the 5-loop parallel
//! GEMM and the raw `block_fma_with` kernel for every micro-kernel
//! variant this host can dispatch, without the criterion harness.
//!
//! ```bash
//! cargo run --release -p mmc-exec --example kbench
//! MMC_BLOCKING=384,256,4096 cargo run --release -p mmc-exec --example kbench
//! ```
//!
//! An unknown `MMC_KERNEL` value fails with the dispatcher's error
//! listing the valid variants (exit 2) instead of silently falling back.

fn main() {
    use mmc_exec::kernel::{block_fma_with, variant, variants_available};
    use mmc_exec::{blocking, gemm_parallel_with_plan, BlockMatrix, Tiling};

    // Resolves MMC_KERNEL (and exits with the valid-variant list on a
    // bogus value) before any timing starts.
    let dispatched = variant();
    let plan = blocking::active_plan::<f64>();

    // Full executor probe: the 5-loop macro-kernel over a 384×384
    // product, one line per variant with the blocking it ran under.
    let (order, q) = (6u32, 64usize);
    let a = BlockMatrix::pseudo_random(order, order, q, 1);
    let b = BlockMatrix::pseudo_random(order, order, q, 2);
    let gemm_flops = 2.0 * (order as f64 * q as f64).powi(3);
    let tiling = Tiling { tile_m: order, tile_n: order, tile_k: 4 };
    for v in variants_available() {
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            std::hint::black_box(gemm_parallel_with_plan(&a, &b, tiling, v, plan));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        println!(
            "gemm {n}x{n} kernel={v}{mark}: {rate:.2} GFLOP/s ({plan})",
            n = order as usize * q,
            mark = if v == dispatched { " [dispatched]" } else { "" },
            rate = gemm_flops / best / 1e9,
        );
    }

    // Raw per-block kernel probe (no packing, no threading).
    for q in [32usize, 64, 96] {
        let a = BlockMatrix::pseudo_random(1, 1, q, 1);
        let b = BlockMatrix::pseudo_random(1, 1, q, 2);
        let flops = 2.0 * (q as f64).powi(3);
        for v in variants_available() {
            let mut c = vec![0.0; q * q];
            let reps = (2e8 / flops) as usize;
            let t0 = std::time::Instant::now();
            for _ in 0..reps {
                block_fma_with(v, &mut c, a.block(0, 0), b.block(0, 0), q);
            }
            let s = t0.elapsed().as_secs_f64();
            println!("block q={q} kernel={v}: {:.2} GFLOP/s", flops * reps as f64 / s / 1e9);
            std::hint::black_box(&c);
        }
    }
}
