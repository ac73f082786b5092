//! Criterion benches for the real executor: the `q×q` micro-kernel and
//! the tiled GEMM variants whose tilings come from the paper's
//! parameters. This is the wall-clock side of the study the paper leaves
//! as future work ("implement all algorithms on state-of-the-art
//! multicore machines").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmc_exec::{gemm_naive, gemm_parallel, BlockMatrix, Tiling};
use mmc_sim::MachineConfig;

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("block_kernel");
    for q in [32usize, 64, 80] {
        let a = BlockMatrix::pseudo_random(1, 1, q, 1);
        let b = BlockMatrix::pseudo_random(1, 1, q, 2);
        let mut out = BlockMatrix::zeros(1, 1, q);
        g.throughput(Throughput::Elements((2 * q * q * q) as u64)); // flops
        g.bench_with_input(BenchmarkId::new("fma", q), &q, |bench, &q| {
            bench.iter(|| {
                mmc_exec::kernel::block_fma(out.block_mut(0, 0), a.block(0, 0), b.block(0, 0), q);
                out.block(0, 0)[0]
            })
        });
        // One series per dispatchable variant, so the SIMD-over-scalar
        // ratio is visible in the criterion report on any host.
        for v in mmc_exec::kernel::variants_available() {
            g.bench_with_input(
                BenchmarkId::new(format!("fma_{}", v.name()), q),
                &q,
                |bench, &q| {
                    bench.iter(|| {
                        mmc_exec::kernel::block_fma_with(
                            v,
                            out.block_mut(0, 0),
                            a.block(0, 0),
                            b.block(0, 0),
                            q,
                        );
                        out.block(0, 0)[0]
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_gemm_variants(c: &mut Criterion) {
    let machine = MachineConfig::quad_q32();
    let q = 32usize;
    let d = 8u32; // 256×256 elements: quick but past the kernel-only regime
    let a = BlockMatrix::pseudo_random(d, d, q, 1);
    let b = BlockMatrix::pseudo_random(d, d, q, 2);
    let flops = 2 * (d as u64 * q as u64).pow(3);
    let mut g = c.benchmark_group("gemm_256");
    g.sample_size(10);
    g.throughput(Throughput::Elements(flops));
    g.bench_function("naive", |bench| bench.iter(|| gemm_naive(&a, &b)));
    let tilings = [
        ("shared_opt", Tiling::shared_opt(&machine).unwrap()),
        ("distributed_opt", Tiling::distributed_opt(&machine).unwrap()),
        ("tradeoff", Tiling::tradeoff(&machine).unwrap()),
        ("equal_thirds", Tiling::equal(machine.shared_capacity).unwrap()),
    ];
    let one_thread = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    for (name, tiling) in tilings {
        g.bench_with_input(BenchmarkId::new("parallel", name), &tiling, |bench, t| {
            bench.iter(|| gemm_parallel(&a, &b, *t))
        });
        g.bench_with_input(BenchmarkId::new("blocked_1thread", name), &tiling, |bench, t| {
            bench.iter(|| one_thread.install(|| gemm_parallel(&a, &b, *t)))
        });
    }
    g.finish();
}

fn bench_schedule_replay(c: &mut Criterion) {
    use mmc_core::algorithms::all_algorithms;
    let machine = MachineConfig::quad_q32();
    let q = 16usize;
    let d = 6u32;
    let a = BlockMatrix::pseudo_random(d, d, q, 1);
    let b = BlockMatrix::pseudo_random(d, d, q, 2);
    let mut g = c.benchmark_group("schedule_replay_96");
    g.sample_size(10);
    for algo in all_algorithms() {
        g.bench_function(algo.id(), |bench| {
            bench.iter(|| mmc_exec::run_schedule(algo.as_ref(), &machine, &a, &b).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernel, bench_gemm_variants, bench_schedule_replay);
criterion_main!(benches);
