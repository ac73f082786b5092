//! `gemm_ladder`: a closed loop of square f64 `gemm_parallel` calls over
//! a ladder of sizes, one caller.

use std::time::Instant;

use multicore_matmul::exec::{gemm_naive, gemm_parallel, BlockMatrix};
use multicore_matmul::obs::span;

use crate::host::{nproc, peak_rss_mib, reset_peak_rss};
use crate::layers::{served_tiling, ExecCounters, ExecTrace};
use crate::report::Outcome;
use crate::stats::{fingerprint, gflops, median, tail};
use crate::{timed, Rng, RunCfg, SETUP_REPS};

/// Why this workload is in the benchmark.
pub const WHY: &str = "kernel, packing and tile split do almost all the work, with no I/O, \
                       queueing or per-call overhead worth measuring";

/// Block side of every rung.
pub const Q: usize = 64;
/// Orders (blocks per side) of the rungs: n = 1024, 1536, 2560.
pub const ORDERS: [u32; 3] = [16, 24, 40];
/// Calls per rung in one round, so each rung gets a similar share of
/// the time (FLOPs grow as order³: 16·16³ ≈ 5·24³ ≈ 40³).
pub const WEIGHTS: [usize; 3] = [16, 5, 1];

struct Rung {
    order: u32,
    a: BlockMatrix,
    b: BlockMatrix,
}

impl Rung {
    fn flops(&self) -> f64 {
        2.0 * ((self.order as usize * Q) as f64).powi(3)
    }
}

fn setup(seed: u64) -> Vec<Rung> {
    let mut rng = Rng::new(seed, 1);
    let rungs: Vec<Rung> = ORDERS
        .iter()
        .map(|&order| Rung {
            order,
            a: BlockMatrix::pseudo_random(order, order, Q, rng.next_u64()),
            b: BlockMatrix::pseudo_random(order, order, Q, rng.next_u64()),
        })
        .collect();
    // Warm-up: kernel dispatch, pack arenas and the first-touch faults of
    // the smallest product.
    drop(gemm_parallel(&rungs[0].a, &rungs[0].b, served_tiling()));
    rungs
}

/// Operand bytes of each rung against the host's caches, for the stamp.
pub fn operand_bytes() -> Vec<(String, String)> {
    ORDERS
        .iter()
        .map(|&o| {
            let bytes = 3 * (o as u64 * Q as u64).pow(2) * 8;
            (format!("operand_bytes_o{o}"), bytes.to_string())
        })
        .collect()
}

/// Run the workload.
pub fn run(cfg: &RunCfg<'_>) -> Outcome {
    let mut setups = Vec::new();
    let mut rungs = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut rungs));
        let (r, s) = timed(|| setup(cfg.seed));
        rungs = r;
        setups.push(s);
    }
    let mut out = Outcome::default();
    let mut trace = ExecTrace::default();
    let mut per_order: Vec<Vec<(f64, f64)>> = vec![Vec::new(); ORDERS.len()];
    // Round-level throughput, split by whether the round was traced.
    let mut round_rates = [Vec::new(), Vec::new()];
    let mut latencies_ms = Vec::new();
    let mut prints: Vec<Vec<u64>> = vec![Vec::new(); ORDERS.len()];
    let mut rng = Rng::new(cfg.seed, 2);
    let tiling = served_tiling();

    reset_peak_rss();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && round % 2 == 1;
        let mut schedule: Vec<usize> =
            WEIGHTS.iter().enumerate().flat_map(|(i, &w)| std::iter::repeat_n(i, w)).collect();
        rng.shuffle(&mut schedule);
        let mut ops = Vec::new();
        let round_start = Instant::now();
        let mut round_flops = 0.0;
        for i in schedule {
            let rung = &rungs[i];
            let job = if traced { span::new_job() } else { 0 };
            let before = ExecCounters::read();
            let (c, secs) = timed(|| gemm_parallel(&rung.a, &rung.b, tiling));
            if traced {
                let delta = ExecCounters::read().since(before);
                trace.absorb(&span::collect_job(job), delta, Some(nproc()));
                per_order[i].push((rung.flops(), secs));
            }
            prints[i].push(fingerprint(c.data()));
            drop(c);
            ops.push((rung.flops(), secs));
            latencies_ms.push(secs * 1e3);
            round_flops += rung.flops();
        }
        if cfg.trace {
            // Wall-clock rate of the whole round, checks and span
            // collection included: the traced/untraced difference is
            // what tracing costs.
            round_rates[traced as usize]
                .push(round_flops / round_start.elapsed().as_secs_f64() / 1e9);
        } else {
            round_rates[0].push(gflops(&ops));
        }
        round += 1;
    }
    let peak = peak_rss_mib();

    // Checks, outside every timed region: each product bit-identical to
    // the sequential oracle.
    for (rung, fps) in rungs.iter().zip(&prints) {
        let want = fingerprint(gemm_naive(&rung.a, &rung.b).data());
        out.attempted += fps.len() as u64;
        out.failed += fps.iter().filter(|&&f| f != want).count() as u64;
    }

    if cfg.trace {
        trace.report(&mut out);
        let calls: usize = per_order.iter().map(Vec::len).sum();
        out.set("exec.gemm.calls", calls as f64);
        let busy: f64 = per_order.iter().flatten().map(|&(_, s)| s).sum();
        out.set("exec.gemm.busy_s", busy);
        for (o, ops) in ORDERS.iter().zip(&per_order) {
            out.set(&format!("exec.gemm.gflops.o{o}"), gflops(ops));
        }
        out.set("bench.spans_lost", trace.spans_lost as f64);
        let (plain, traced) = (median(&round_rates[0]), median(&round_rates[1]));
        out.set("bench.trace_overhead_frac", if plain > 0.0 { 1.0 - traced / plain } else { 0.0 });
    } else {
        out.set("setup_s", median(&setups));
        out.set("gflops", median(&round_rates[0]));
        out.set("p50_ms", median(&latencies_ms));
        out.set_tail(tail(&latencies_ms));
        out.set("peak_rss_mib", peak);
        out.notes.push(format!("{round} rounds of {:?} calls at orders {ORDERS:?}", WEIGHTS));
    }
    out
}
