//! `perf` — emit `BENCH_*.json` machine-readable performance records.
//!
//! ```bash
//! cargo run -p mmc-bench --release --bin perf -- [--out DIR] [--order N] [--q Q]
//! cargo run -p mmc-bench --release --bin perf -- --check BENCH_exec.json
//! ```
//!
//! Writes `BENCH_exec.json` (GEMM wall-clock on every thread and on one, a
//! per-micro-kernel-variant comparison at q=64 in both f64 and f32 so
//! the dispatched SIMD path's speedup over the scalar fallback is
//! recorded, an out-of-core streamed run of the same product at a
//! ~5x-undersized RAM budget, and one `roofline` point per kernel
//! variant and element width — arithmetic intensity, GFLOP/s, measured
//! STREAM-triad bandwidth, percent-of-peak, and the `µ` of the
//! executor's work units) and
//! `BENCH_sim.json` (simulator event throughput per algorithm) into the
//! output directory (default `.`).
//!
//! With `--check BASELINE`, the exec suite is re-measured and compared
//! against the committed baseline instead of written: any kernel-variant
//! record whose rate drops more than 20% below the baseline's fails the
//! run (exit 1) — the CI `perf-regression` gate.

use mmc_bench::figures::SweepOpts;
use mmc_bench::perf::{
    best_seconds, regressions, write_records, write_report, PerfRecord, PerfReport,
};
use mmc_bench::{run_figure_sharded, HarnessOpts, Setting};
use mmc_core::algorithms::all_algorithms;
use mmc_core::ProblemSpec;
use mmc_exec::{
    blocking, exec_drift, gemm_parallel, gemm_parallel_with_kernel, kernel, run_traced,
    BlockMatrix, BlockMatrixOf, ExecModel, Tiling,
};
use mmc_obs::{span, PerfCounters, RooflineRecord};
use mmc_sim::MachineConfig;
use std::path::PathBuf;
use std::process::exit;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Fraction below the baseline rate that counts as a regression.
const REGRESSION_TOLERANCE: f64 = 0.2;

/// One roofline point for a kernel-variant run: bytes moved from LLC
/// misses when the PMU is live, else the model's compulsory traffic
/// (2 operand reads + 1 result write of `N²` elements of `elem_bytes`).
#[allow(clippy::too_many_arguments)]
fn roofline_point(
    name: &str,
    kernel_name: &str,
    blocking: &str,
    korder: u32,
    kq: usize,
    elem_bytes: u64,
    kflops: f64,
    seconds: f64,
    bandwidth_gbs: f64,
    run: impl FnOnce(),
) -> RooflineRecord {
    let counters = PerfCounters::open();
    run();
    let reading = counters.read();
    let n = korder as u64 * kq as u64;
    let (bytes_moved, bytes_source) = match reading.get("llc_load_misses") {
        Some(misses) if counters.hardware_available() => (misses * 64, "llc_misses"),
        _ => (3 * n * n * elem_bytes, "model"),
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let peak = mmc_obs::peak_gflops_estimate(
        threads,
        mmc_obs::host_roofs().ghz,
        mmc_obs::flops_per_cycle_for_kernel(kernel_name),
    );
    RooflineRecord::from_measurements(
        name,
        kernel_name,
        blocking,
        korder as usize,
        kflops as u64,
        seconds,
        bytes_moved,
        bytes_source,
        bandwidth_gbs,
        peak,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = PathBuf::from(flag(&args, "--out").unwrap_or_else(|| ".".into()));
    let order: u32 = flag(&args, "--order").map_or(12, |v| v.parse().unwrap_or(12));
    let q: usize = flag(&args, "--q").map_or(16, |v| v.parse().unwrap_or(16));
    let check: Option<PathBuf> = flag(&args, "--check").map(PathBuf::from);
    if check.is_none() && !out.is_dir() {
        eprintln!("--out {} is not a directory", out.display());
        exit(2);
    }
    let machine = MachineConfig::quad_q32();
    let dispatched = kernel::variant().name();

    // Executor suite: the parallel GEMM on every thread vs on a
    // one-thread pool (built once, outside the timed closures).
    let one_thread =
        rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("one-thread pool");
    let a = BlockMatrix::pseudo_random(order, order, q, 1);
    let b = BlockMatrix::pseudo_random(order, order, q, 2);
    let flops = 2.0 * (order as f64 * q as f64).powi(3);
    let mut exec_records = Vec::new();
    for (name, tiling) in [
        ("tradeoff", Tiling::tradeoff(&machine)),
        ("shared_opt", Tiling::shared_opt(&machine)),
        ("equal", Tiling::equal(machine.shared_capacity)),
    ] {
        let Some(tiling) = tiling else { continue };
        // Sub-millisecond runs: best-of-10 so the committed rate is the
        // machine's actual capability, not scheduler noise — the 20%
        // regression gate needs stable numerators.
        let secs = best_seconds(10, || {
            std::hint::black_box(gemm_parallel(&a, &b, tiling));
        });
        exec_records.push(PerfRecord {
            suite: "exec".into(),
            name: format!("gemm_parallel/{name}"),
            order,
            seconds: secs,
            work: flops,
            rate_unit: "flop".into(),
            kernel: dispatched.into(),
        });
        let secs = best_seconds(10, || {
            std::hint::black_box(one_thread.install(|| gemm_parallel(&a, &b, tiling)));
        });
        exec_records.push(PerfRecord {
            suite: "exec".into(),
            name: format!("gemm_blocked/{name}"),
            order,
            seconds: secs,
            work: flops,
            rate_unit: "flop".into(),
            kernel: dispatched.into(),
        });
    }

    // Kernel comparison: the same parallel GEMM at q=64 under every
    // micro-kernel variant this host supports. Every variant runs the
    // same µ×µ block path, so the dispatched SIMD record vs the scalar
    // record *is* the vector register kernel's speedup claim, kept
    // machine-readable.
    let kq = 64;
    let korder = 6u32;
    let ka = BlockMatrix::pseudo_random(korder, korder, kq, 3);
    let kb = BlockMatrix::pseudo_random(korder, korder, kq, 4);
    let kflops = 2.0 * (korder as f64 * kq as f64).powi(3);
    let mut roofline = Vec::new();
    let mut drift_reports = Vec::new();
    let bandwidth_gbs = mmc_obs::host_roofs().stream_gbs;
    if let Some(tiling) = Tiling::tradeoff(&machine) {
        for v in kernel::variants_available() {
            let secs = best_seconds(5, || {
                std::hint::black_box(gemm_parallel_with_kernel(&ka, &kb, tiling, v));
            });
            exec_records.push(PerfRecord {
                suite: "exec".into(),
                name: format!("gemm_q64/{}", v.name()),
                order: korder,
                seconds: secs,
                work: kflops,
                rate_unit: "flop".into(),
                kernel: v.name().into(),
            });
            // One extra counted run puts the variant under the roofline
            // (bytes from LLC misses when the PMU is live).
            roofline.push(roofline_point(
                &format!("gemm_q64/{}", v.name()),
                v.name(),
                &format!("mu={}", blocking::host_mu::<f64>(kq)),
                korder,
                kq,
                8,
                kflops,
                secs,
                bandwidth_gbs,
                || {
                    std::hint::black_box(gemm_parallel_with_kernel(&ka, &kb, tiling, v));
                },
            ));
        }
        // The same product in f32: twice the SIMD lanes, half the
        // traffic. Records are named `gemm_q64_f32/<variant>` with kernel
        // `<variant>_f32` so the roofline uses the doubled flat roof.
        let ka32 = BlockMatrixOf::<f32>::pseudo_random(korder, korder, kq, 3);
        let kb32 = BlockMatrixOf::<f32>::pseudo_random(korder, korder, kq, 4);
        for v in kernel::variants_available() {
            let kname = format!("{}_f32", v.name());
            let secs = best_seconds(5, || {
                std::hint::black_box(gemm_parallel_with_kernel(&ka32, &kb32, tiling, v));
            });
            exec_records.push(PerfRecord {
                suite: "exec".into(),
                name: format!("gemm_q64_f32/{}", v.name()),
                order: korder,
                seconds: secs,
                work: kflops,
                rate_unit: "flop".into(),
                kernel: kname.clone(),
            });
            roofline.push(roofline_point(
                &format!("gemm_q64_f32/{}", v.name()),
                &kname,
                &format!("mu={}", blocking::host_mu::<f32>(kq)),
                korder,
                kq,
                4,
                kflops,
                secs,
                bandwidth_gbs,
                || {
                    std::hint::black_box(gemm_parallel_with_kernel(&ka32, &kb32, tiling, v));
                },
            ));
        }
        // Span-recorder overhead A/B: the dispatched variant again with
        // recording disabled. `gemm_q64/<k>` vs `gemm_q64_nospans/<k>`
        // in the committed file *is* the always-on-tracing overhead
        // claim, machine-readable.
        let v = kernel::variant();
        let spans_were_on = span::enabled();
        span::set_enabled(false);
        let secs = best_seconds(5, || {
            std::hint::black_box(gemm_parallel_with_kernel(&ka, &kb, tiling, v));
        });
        span::set_enabled(spans_were_on);
        exec_records.push(PerfRecord {
            suite: "exec".into(),
            name: format!("gemm_q64_nospans/{}", v.name()),
            order: korder,
            seconds: secs,
            work: kflops,
            rate_unit: "flop".into(),
            kernel: v.name().into(),
        });
        // Drift leg: one whole-problem-tile traced run, its tile phase
        // held to account against the FLOP roof.
        if span::enabled() {
            let whole = Tiling { tile_m: korder, tile_n: korder, tile_k: 1 };
            let (_c, trun) = run_traced(&ka, &kb, whole, v);
            let model = ExecModel::for_run(&ka, &kb, v);
            drift_reports.push(exec_drift(&trun, &model, mmc_obs::drift::DEFAULT_BAND));
        }
    }
    // Strassen–Winograd suite: the recursion against the classic block
    // path, machine-readable. Three record families:
    //   gemm_strassen_q64/<variant> — a depth-1 recursion at the
    //     kernel-comparison shape with work set to the simulator's
    //     closed-form flop count, so the rate column is directly
    //     comparable with gemm_q64/<variant>;
    //   strassen_cutoff/<c> — one fixed shape swept across leaf
    //     cutoffs (the largest cutoff degenerates to the classic
    //     fallback, anchoring the sweep);
    //   strassen_crossover/measured — the first swept block order where
    //     the measured recursion beats the measured classic run, stored
    //     in the `order` field (0 when classic won everywhere). `work`
    //     is 0 so the regression gate skips this record: the crossover
    //     is a claim about the machine, not a rate to defend.
    {
        use mmc_sim::strassen as sim_strassen;
        use mmc_strassen::{strassen_multiply, StrassenOpts};
        let plan = sim_strassen::strassen_plan(u64::from(korder), 3);
        let sflops = sim_strassen::flops(&plan, kq as u64) as f64;
        for v in kernel::variants_available() {
            let mut opts = StrassenOpts::with_cutoff::<f64>(3);
            opts.variant = v;
            let secs = best_seconds(5, || {
                std::hint::black_box(strassen_multiply(&ka, &kb, &opts));
            });
            exec_records.push(PerfRecord {
                suite: "exec".into(),
                name: format!("gemm_strassen_q64/{}", v.name()),
                order: korder,
                seconds: secs,
                work: sflops,
                rate_unit: "flop".into(),
                kernel: v.name().into(),
            });
        }
        let sorder = 8u32;
        let sa = BlockMatrix::pseudo_random(sorder, sorder, kq, 5);
        let sb = BlockMatrix::pseudo_random(sorder, sorder, kq, 6);
        for cutoff in [2u32, 4, 8] {
            let plan = sim_strassen::strassen_plan(u64::from(sorder), u64::from(cutoff));
            let work = sim_strassen::flops(&plan, kq as u64) as f64;
            let secs = best_seconds(3, || {
                let opts = StrassenOpts::with_cutoff::<f64>(cutoff);
                std::hint::black_box(strassen_multiply(&sa, &sb, &opts));
            });
            exec_records.push(PerfRecord {
                suite: "exec".into(),
                name: format!("strassen_cutoff/{cutoff}"),
                order: sorder,
                seconds: secs,
                work,
                rate_unit: "flop".into(),
                kernel: dispatched.into(),
            });
        }
        // Crossover sweep at q=32 so the cubic growth stays affordable:
        // best-of-3 classic vs best-of-3 depth-capable recursion per
        // order, first strassen win recorded.
        let xq = 32usize;
        let mut measured = 0u32;
        let mut measured_secs = 0.0f64;
        if let Some(tiling) = Tiling::tradeoff(&machine) {
            for n in [4u32, 6, 8, 10, 12] {
                let a = BlockMatrix::pseudo_random(n, n, xq, 7);
                let b = BlockMatrix::pseudo_random(n, n, xq, 8);
                let classic = best_seconds(3, || {
                    std::hint::black_box(gemm_parallel(&a, &b, tiling));
                });
                let strassen = best_seconds(3, || {
                    let opts = StrassenOpts::with_cutoff::<f64>(2);
                    std::hint::black_box(strassen_multiply(&a, &b, &opts));
                });
                println!(
                    "  strassen crossover n={n}: classic {classic:.3e}s, strassen {strassen:.3e}s"
                );
                if measured == 0 && strassen < classic {
                    measured = n;
                    measured_secs = strassen;
                }
            }
        }
        exec_records.push(PerfRecord {
            suite: "exec".into(),
            name: "strassen_crossover/measured".into(),
            order: measured,
            seconds: measured_secs,
            work: 0.0,
            rate_unit: "blocks".into(),
            kernel: dispatched.into(),
        });
    }
    // Out-of-core suite: the same product streamed from tiled files on
    // disk through the double-buffered prefetch pipeline, with a RAM
    // budget ~5x smaller than the operands so the record tracks the
    // end-to-end out-of-core path, not a cached in-RAM run.
    {
        use mmc_ooc::{ooc_multiply, write_pseudo_random, OocOpts};
        let dir = std::env::temp_dir().join(format!("mmc-perf-ooc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("ooc temp dir");
        let (a_path, b_path, c_path) =
            (dir.join("a.tiled"), dir.join("b.tiled"), dir.join("c.tiled"));
        write_pseudo_random(&a_path, order, order, q, 1).expect("gen A");
        write_pseudo_random(&b_path, order, order, q, 2).expect("gen B");
        let operand_blocks = 3 * u64::from(order) * u64::from(order);
        let opts = OocOpts::new(operand_blocks / 5 * (q * q * 8) as u64);
        let mut streamed = None;
        let secs = best_seconds(3, || {
            span::new_job();
            streamed = Some(ooc_multiply(&a_path, &b_path, &c_path, &opts).expect("ooc multiply"));
        });
        if let Some(d) = streamed.and_then(|r| r.drift) {
            drift_reports.push(d);
        }
        exec_records.push(PerfRecord {
            suite: "exec".into(),
            name: "ooc_stream/tradeoff".into(),
            order,
            seconds: secs,
            work: flops,
            rate_unit: "flop".into(),
            kernel: dispatched.into(),
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    let mut exec_report = PerfReport::new("exec", exec_records, roofline);
    exec_report.drift = drift_reports;

    // Regression-gate mode: compare against the committed baseline and
    // exit without writing anything.
    if let Some(baseline_path) = check {
        let text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {}: {e}", baseline_path.display());
            exit(2);
        });
        let baseline: PerfReport = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse baseline {}: {e}", baseline_path.display());
            exit(2);
        });
        let kernel_records: Vec<&PerfRecord> =
            baseline.records.iter().filter(|r| r.kernel != "-").collect();
        println!(
            "checking {} kernel records against {} (tolerance {:.0}%)",
            kernel_records.len(),
            baseline_path.display(),
            100.0 * REGRESSION_TOLERANCE
        );
        for r in &exec_report.records {
            if let Some(base) = baseline.record(&r.name) {
                println!(
                    "  {}: {:.3e} {}/s (baseline {:.3e})",
                    r.name,
                    r.rate(),
                    r.rate_unit,
                    base.rate()
                );
            }
        }
        let bad = regressions(&baseline, &exec_report, REGRESSION_TOLERANCE);
        if bad.is_empty() {
            println!("perf gate: OK");
            exit(0);
        }
        eprintln!("perf gate: {} regression(s) beyond 20%:", bad.len());
        for line in &bad {
            eprintln!("  REGRESSION {line}");
        }
        exit(1);
    }

    let path = write_report(&out, &exec_report).expect("write BENCH_exec.json");
    println!(
        "wrote {} ({} records, {} roofline points)",
        path.display(),
        exec_report.records.len(),
        exec_report.roofline.len()
    );
    for r in &exec_report.roofline {
        println!(
            "  roofline {}: {:.2} GFLOP/s, AI {:.2} flop/B ({}), bw {:.2} GB/s, {:.1}% of roof",
            r.name,
            r.gflops,
            r.arithmetic_intensity,
            r.bytes_source,
            r.bandwidth_gbs,
            r.percent_of_peak
        );
    }

    // Simulator suite: block-FMA throughput under LRU per algorithm.
    let problem = ProblemSpec::square(order.max(20));
    let mut sim_records = Vec::new();
    for algo in all_algorithms() {
        let mut fmas = 0u64;
        let secs = best_seconds(2, || {
            let stats = mmc_bench::simulate(algo.as_ref(), &machine, Setting::LruAt(1), problem)
                .expect("simulate");
            fmas = stats.total_fmas();
        });
        sim_records.push(PerfRecord {
            suite: "sim".into(),
            name: format!("lru/{}", algo.id()),
            order: problem.m,
            seconds: secs,
            work: fmas as f64,
            rate_unit: "block_fmas".into(),
            kernel: "-".into(),
        });
    }
    // Sharded figure harness: serial vs pooled wall-clock for one
    // representative figure. The ratio of these two records is the
    // `--jobs` speedup quoted in EXPERIMENTS.md.
    let sweep = SweepOpts { orders: Some(vec![60, 120, 180, 240]), ..SweepOpts::default() };
    let mut points = 0usize;
    let serial_secs = best_seconds(2, || {
        let opts = HarnessOpts { serial: true, ..HarnessOpts::default() };
        let (_, report) = run_figure_sharded("fig4", &sweep, &opts);
        points = report.total();
    });
    sim_records.push(PerfRecord {
        suite: "sim".into(),
        name: "figures/fig4_serial".into(),
        order: 240,
        seconds: serial_secs,
        work: points as f64,
        rate_unit: "points".into(),
        kernel: "-".into(),
    });
    let jobs = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
    let sharded_secs = best_seconds(2, || {
        let opts = HarnessOpts { jobs: Some(jobs), ..HarnessOpts::default() };
        let (_, report) = run_figure_sharded("fig4", &sweep, &opts);
        points = report.total();
    });
    sim_records.push(PerfRecord {
        suite: "sim".into(),
        name: format!("figures/fig4_jobs{jobs}"),
        order: 240,
        seconds: sharded_secs,
        work: points as f64,
        rate_unit: "points".into(),
        kernel: "-".into(),
    });
    println!(
        "figures fig4: serial {serial_secs:.3}s, --jobs {jobs} {sharded_secs:.3}s ({:.2}x)",
        serial_secs / sharded_secs
    );

    let path = write_records(&out, "sim", &sim_records).expect("write BENCH_sim.json");
    println!("wrote {} ({} records)", path.display(), sim_records.len());
}
