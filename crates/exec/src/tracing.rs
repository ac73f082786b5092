//! Job-scoped trace capture over the executors, plus the exec-side
//! drift model.
//!
//! [`run_traced`] wraps [`gemm_parallel_with_plan`]: it opens a fresh
//! trace job in [`mmc_obs::span`], runs the product (every 5-loop
//! macro-step and pack emits into its thread's lock-free ring), and
//! collects the job's spans back out. The result is a [`TracedRun`] —
//! the raw material for two consumers:
//!
//! * [`spans_to_chrome`] — a Perfetto/Chrome trace with one lane per
//!   `(loop level, thread)` pair, using the **process-wide** trace
//!   epoch so exec and ooc traces merge coherently into one timeline;
//! * [`exec_drift`] — a [`DriftReport`] holding each loop level and
//!   pack phase against the paper's closed forms: FLOP phases against
//!   the kernel's roofline peak, pack phases against the five-loop
//!   traffic terms `m·z·⌈n/NC⌉` (A repacked per `jc` pass) and `z·n`
//!   (B packed once), priced at measured STREAM bandwidth.
//!
//! [`ExecModel::for_run`] prices every run at the host's rates from
//! [`mmc_obs::host_roofs`], which measures STREAM bandwidth and the clock
//! once per process. Building a model is therefore cheap after the first
//! one, and a server that builds one per job (`mmc serve`) pays for the
//! measurement only at start-up. Every run in a process is priced at the
//! same roofs, so drift ratios of different runs compare directly.

use crate::blocking::BlockingPlan;
use crate::kernel::elem::Element;
use crate::kernel::KernelVariant;
use crate::matrix::BlockMatrixOf;
use crate::runner::{gemm_parallel_with_plan, work_units, Tiling};
use mmc_obs::span::{self, SpanKind, SpanRecord};
use mmc_obs::{DriftReport, PhaseSample};
use mmc_sim::ChromeTraceBuilder;

/// One traced executor run: the job id it recorded under, the process
/// epoch offset when it started, and every span it left in the rings.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// Trace job id (process-unique; see [`span::new_job`]).
    pub job: u64,
    /// [`span::now_ns`] immediately before the run: every span of the
    /// run starts at or after it.
    pub epoch_ns: u64,
    /// Kernel variant the run dispatched to.
    pub variant: KernelVariant,
    /// Blocking plan the macro-kernel ran under.
    pub plan: BlockingPlan,
    /// Every span the job recorded, sorted by start time. Empty when
    /// recording is disabled (`MMC_SPANS=off`).
    pub spans: Vec<SpanRecord>,
}

/// Run `C = A × B` under a fresh trace job and collect its spans.
///
/// Recording is *not* force-enabled: with `MMC_SPANS=off` the product
/// is still computed (and still correct) but `spans` comes back empty —
/// that is exactly the configuration the overhead A/B in `BENCH_exec`
/// measures.
pub fn run_traced<T: Element>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    tiling: Tiling,
    variant: KernelVariant,
    plan: BlockingPlan,
) -> (BlockMatrixOf<T>, TracedRun) {
    let job = span::new_job();
    let epoch_ns = span::now_ns();
    let c = gemm_parallel_with_plan(a, b, tiling, variant, plan);
    let spans = span::collect_job(job);
    (c, TracedRun { job, epoch_ns, variant, plan, spans })
}

/// Lane label for a span: worker/io/caller prefix plus the loop level,
/// so Perfetto groups each loop level into its own track per thread.
fn lane_name(kind: SpanKind, thread: Option<u32>) -> String {
    let prefix = match (kind, thread) {
        (_, None) => "caller".to_string(),
        (SpanKind::Read | SpanKind::Stage, Some(t)) => format!("io{t}"),
        (_, Some(t)) => format!("w{t}"),
    };
    format!("{prefix} {}", kind.name())
}

/// Render spans (from one or several jobs — exec and ooc runs merge
/// cleanly because both stamp the process-wide epoch) as Chrome
/// trace-event JSON with one lane per `(loop level, thread)` pair.
/// `counters` adds Chrome counter events at the trace end (registry
/// totals, so the Perfetto view carries the FLOP/byte tallies too).
pub fn spans_to_chrome(title: &str, spans: &[SpanRecord], counters: &[(String, f64)]) -> String {
    let mut b = ChromeTraceBuilder::new(title);
    // Stable lane order: loop level first, then thread (caller last).
    let mut lanes: Vec<(u8, u64)> =
        spans.iter().map(|s| (s.kind as u8, s.thread.map_or(u64::MAX, u64::from))).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let tid_of = |kind: SpanKind, thread: Option<u32>| -> u64 {
        lanes
            .binary_search(&(kind as u8, thread.map_or(u64::MAX, u64::from)))
            .expect("lane registered") as u64
    };
    for &(kind, thread) in &lanes {
        let kind = SpanKind::from_u8(kind).expect("lane kind");
        let thread = if thread == u64::MAX { None } else { Some(thread as u32) };
        b.thread(tid_of(kind, thread), &lane_name(kind, thread));
    }
    let mut end_us = 0.0f64;
    for s in spans {
        let ts_us = s.start_ns as f64 / 1e3;
        let dur_us = s.dur_ns as f64 / 1e3;
        end_us = end_us.max(ts_us + dur_us);
        b.span(
            tid_of(s.kind, s.thread),
            s.kind.name(),
            ts_us,
            dur_us,
            &[("pred", s.pred as f64), ("val", s.val as f64), ("job", s.job as f64)],
        );
    }
    for (name, value) in counters {
        b.counter(name, end_us, *value);
    }
    b.finish()
}

/// The machine/problem context [`exec_drift`] prices predictions with.
#[derive(Clone, Debug)]
pub struct ExecModel {
    /// Block rows of `A` / `C`.
    pub m: u32,
    /// Block columns of `B` / `C`.
    pub n: u32,
    /// Inner block extent.
    pub z: u32,
    /// Block side in elements.
    pub q: usize,
    /// Bytes per element (8 for f64, 4 for f32).
    pub elem_bytes: usize,
    /// Tiling the run used (tiles bound the per-tile loop extents).
    pub tiling: Tiling,
    /// Threads the run could use, which decides how tiles split into
    /// work units (see `runner::work_units`).
    pub threads: usize,
    /// Single-thread peak for the dispatched kernel, GFLOP/s — measured
    /// span time is *summed across threads* (CPU-seconds), so the
    /// prediction must be priced at one thread's roof, not the chip's.
    pub peak_gflops: f64,
    /// Measured STREAM-triad bandwidth, GB/s, pricing pack traffic.
    pub stream_gbs: f64,
}

impl ExecModel {
    /// Build the model for a run: problem shape from the operand grid,
    /// roofs from the process's one host measurement
    /// ([`mmc_obs::host_roofs`]).
    pub fn for_run<T: Element>(
        a: &BlockMatrixOf<T>,
        b: &BlockMatrixOf<T>,
        tiling: Tiling,
        variant: KernelVariant,
    ) -> ExecModel {
        let kernel_name = if std::mem::size_of::<T>() == 4 {
            format!("{}_f32", variant.name())
        } else {
            variant.name().to_string()
        };
        let roofs = mmc_obs::host_roofs();
        ExecModel {
            m: a.rows(),
            n: b.cols(),
            z: a.cols(),
            q: a.q(),
            elem_bytes: std::mem::size_of::<T>(),
            tiling,
            threads: rayon::current_num_threads(),
            peak_gflops: mmc_obs::peak_gflops_estimate(
                1,
                roofs.ghz,
                mmc_obs::flops_per_cycle_for_kernel(&kernel_name),
            ),
            stream_gbs: roofs.stream_gbs,
        }
    }

    /// Total useful FLOPs of the product — the prediction every loop
    /// level is held to (each level covers the whole problem once).
    pub fn total_flops(&self) -> u64 {
        2 * (self.q as u64).pow(3) * self.m as u64 * self.n as u64 * self.z as u64
    }

    /// Predicted pack traffic in bytes, per side, from the five-loop
    /// model applied work unit by work unit: `A` is repacked once per
    /// `jc` pass (`th·z·⌈tw/NC_b⌉` blocks per unit — the `m·z·⌈n/NC⌉`
    /// term of `M_S`), `B` is packed once per `(jc, pc)` (`tw·z` blocks
    /// per unit — the `z·n` term, repeated for every row chunk of a
    /// split tile).
    pub fn pack_bytes(&self, plan: BlockingPlan) -> (u64, u64) {
        let nc_b = ((plan.nc / self.q).max(1)) as u64;
        let block_bytes = (self.q * self.q * self.elem_bytes) as u64;
        let (mut a_blocks, mut b_blocks) = (0u64, 0u64);
        for (_, th, _, tw) in work_units(self.m, self.n, self.tiling, self.threads) {
            let (th, tw) = (th as u64, tw as u64);
            let jc_passes = tw.div_ceil(nc_b.min(tw).max(1));
            a_blocks += th * self.z as u64 * jc_passes;
            b_blocks += tw * self.z as u64;
        }
        (a_blocks * block_bytes, b_blocks * block_bytes)
    }
}

/// Microseconds to retire `flops` at `gflops` GFLOP/s.
fn flop_us(flops: u64, gflops: f64) -> f64 {
    flops as f64 / (gflops.max(1e-9) * 1e3)
}

/// Microseconds to move `bytes` at `gbs` GB/s.
fn byte_us(bytes: u64, gbs: f64) -> f64 {
    bytes as f64 / (gbs.max(1e-9) * 1e3)
}

/// Build the drift report for one traced run: every loop level and pack
/// phase, measured (summed span time, CPU-µs) against predicted (closed
/// forms priced at the model's roofs). Phases the run never entered are
/// dropped, not flagged.
pub fn exec_drift(run: &TracedRun, model: &ExecModel, band: f64) -> DriftReport {
    let sum = |kind: SpanKind| -> (u64, f64, u64) {
        run.spans.iter().filter(|s| s.kind == kind).fold((0u64, 0.0f64, 0u64), |acc, s| {
            (acc.0 + 1, acc.1 + s.dur_ns as f64 / 1e3, acc.2 + s.val)
        })
    };
    let flop_sample = |kind: SpanKind| -> PhaseSample {
        let (spans, measured_us, measured) = sum(kind);
        let predicted = model.total_flops();
        PhaseSample {
            phase: kind.name().to_string(),
            spans,
            measured_us,
            predicted_us: flop_us(predicted, model.peak_gflops),
            unit: "flop".to_string(),
            measured_units: measured as f64,
            predicted_units: predicted as f64,
        }
    };
    let (pack_a_bytes, pack_b_bytes) = model.pack_bytes(run.plan);
    let byte_sample = |kind: SpanKind, predicted: u64| -> PhaseSample {
        let (spans, measured_us, measured) = sum(kind);
        PhaseSample {
            phase: kind.name().to_string(),
            spans,
            measured_us,
            predicted_us: byte_us(predicted, model.stream_gbs),
            unit: "byte".to_string(),
            measured_units: measured as f64,
            predicted_units: predicted as f64,
        }
    };
    DriftReport::from_samples(
        "exec",
        run.job,
        band,
        vec![
            flop_sample(SpanKind::Tile),
            flop_sample(SpanKind::LoopJc),
            flop_sample(SpanKind::LoopPc),
            flop_sample(SpanKind::LoopIc),
            byte_sample(SpanKind::PackA, pack_a_bytes),
            byte_sample(SpanKind::PackB, pack_b_bytes),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking;
    use crate::kernel;
    use crate::matrix::BlockMatrix;
    use crate::naive::gemm_naive;

    fn operands(m: u32, n: u32, z: u32, q: usize) -> (BlockMatrix, BlockMatrix) {
        (BlockMatrix::pseudo_random(m, z, q, 31), BlockMatrix::pseudo_random(z, n, q, 32))
    }

    fn traced(
        m: u32,
        n: u32,
        z: u32,
        q: usize,
        tiling: Tiling,
    ) -> (BlockMatrix, BlockMatrix, TracedRun) {
        let (a, b) = operands(m, n, z, q);
        let (c, run) =
            run_traced(&a, &b, tiling, kernel::variant(), blocking::active_plan::<f64>());
        assert_eq!(c, gemm_naive(&a, &b));
        (a, b, run)
    }

    #[test]
    fn traced_run_collects_every_loop_level() {
        let tiling = Tiling { tile_m: 3, tile_n: 3, tile_k: 2 };
        let (_, _, run) = traced(6, 6, 5, 4, tiling);
        if !span::enabled() {
            assert!(run.spans.is_empty());
            return;
        }
        // 4 tiles (split into work units on a multicore), each unit with
        // at least one span per active loop level.
        let units = work_units(6, 6, tiling, rayon::current_num_threads()).len();
        assert!(units >= 4);
        let count = |k: SpanKind| run.spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(count(SpanKind::Tile), units);
        for kind in
            [SpanKind::LoopJc, SpanKind::LoopPc, SpanKind::LoopIc, SpanKind::PackA, SpanKind::PackB]
        {
            assert!(count(kind) >= units, "{} spans from every unit", kind.name());
        }
        // Every span belongs to this run's job.
        assert!(run.spans.iter().all(|s| s.job == run.job));
        // FLOP accounting closes: tile spans sum to the whole product.
        let tile_flops: u64 =
            run.spans.iter().filter(|s| s.kind == SpanKind::Tile).map(|s| s.val).sum();
        assert_eq!(tile_flops, 2 * 4u64.pow(3) * 6 * 6 * 5);
    }

    #[test]
    fn two_traced_runs_do_not_bleed_spans() {
        let tiling = Tiling { tile_m: 2, tile_n: 2, tile_k: 2 };
        let (_, _, first) = traced(4, 4, 3, 3, tiling);
        let (_, _, second) = traced(4, 4, 3, 3, tiling);
        assert_ne!(first.job, second.job);
        assert!(second.spans.iter().all(|s| s.job == second.job));
        if span::enabled() {
            let units = work_units(4, 4, tiling, rayon::current_num_threads()).len();
            assert_eq!(second.spans.iter().filter(|s| s.kind == SpanKind::Tile).count(), units);
        }
    }

    #[test]
    fn exec_drift_reports_every_active_level_with_finite_ratios() {
        let tiling = Tiling { tile_m: 4, tile_n: 4, tile_k: 2 };
        let (a, b, run) = traced(8, 8, 6, 4, tiling);
        if !span::enabled() {
            return;
        }
        let model = ExecModel::for_run(&a, &b, tiling, run.variant);
        let report = exec_drift(&run, &model, 1e9);
        assert!(report.all_finite());
        let names: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
        for n in ["tile", "jc", "pc", "ic", "pack_a", "pack_b"] {
            assert!(names.contains(&n), "missing {n} in {names:?}");
        }
        // Work accounting: every FLOP level measured exactly the model's
        // total, so units_ratio is 1 (instrumentation covers the nest).
        for p in report.phases.iter().filter(|p| p.unit == "flop") {
            assert!(
                (p.units_ratio - 1.0).abs() < 1e-12,
                "{}: units_ratio {}",
                p.phase,
                p.units_ratio
            );
        }
        // Astronomical band: nothing flagged.
        assert!(report.flagged.is_empty(), "{:?}", report.flagged);
    }

    #[test]
    fn pack_byte_accounting_matches_the_five_loop_terms() {
        // Whole problem as one tile: on one thread the pack predictions
        // reduce to the exact M_S terms m·z·⌈n/NC⌉ and z·n; on four the
        // tile splits into row chunks that each pack B. Either way the
        // packed path's measured `pred` bytes (logical panel bytes) must
        // agree with the model.
        let variant = kernel::variant();
        let (m, n, z, q) = (6u32, 8u32, 5u32, 4usize);
        let tiling = Tiling { tile_m: m, tile_n: n, tile_k: 1 };
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (run, model) = pool.install(|| {
                let (a, b, run) = traced(m, n, z, q, tiling);
                (run, ExecModel::for_run(&a, &b, tiling, variant))
            });
            if !span::enabled() {
                return;
            }
            let (pack_a_bytes, pack_b_bytes) = model.pack_bytes(run.plan);
            let nc_b = ((run.plan.nc / q).max(1) as u64).min(n as u64);
            let block = (q * q * 8) as u64;
            assert_eq!(pack_a_bytes, m as u64 * z as u64 * (n as u64).div_ceil(nc_b) * block);
            let chunks = work_units(m, n, tiling, threads).len() as u64;
            assert_eq!(chunks == 1, threads == 1);
            assert_eq!(pack_b_bytes, chunks * z as u64 * n as u64 * block);
            let logical = |kind: SpanKind| -> u64 {
                run.spans.iter().filter(|s| s.kind == kind).map(|s| s.pred).sum()
            };
            assert_eq!(logical(SpanKind::PackA), pack_a_bytes);
            assert_eq!(logical(SpanKind::PackB), pack_b_bytes);
        }
    }

    #[test]
    fn chrome_export_groups_lanes_by_loop_level() {
        let tiling = Tiling { tile_m: 2, tile_n: 2, tile_k: 1 };
        let (_, _, run) = traced(4, 4, 3, 3, tiling);
        // A span recorded off any pool thread (here: by hand, on the
        // test thread) must land on its own "caller" lane, never on a
        // worker's (`w0 …`, `w1 …`, …).
        let mut spans = run.spans.clone();
        spans.push(SpanRecord {
            job: run.job,
            kind: SpanKind::Tile,
            thread: None,
            start_ns: run.epoch_ns,
            dur_ns: 1_000,
            pred: 0,
            val: 0,
            args: [1, 1, 1, 1],
        });
        let text = spans_to_chrome("merged", &spans, &[("exec.flops".to_string(), 1234.0)]);
        let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
        // (lane name, tid) of every track the export declared.
        let lanes: Vec<(&str, u64)> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .filter_map(|e| Some((e.get("args")?.get("name")?.as_str()?, e.get("tid")?.as_u64()?)))
            .collect();
        let caller = lanes.iter().find(|(name, _)| *name == "caller tile").expect("caller lane").1;
        let worker_tids: Vec<u64> =
            lanes.iter().filter(|(name, _)| name.starts_with('w')).map(|l| l.1).collect();
        assert!(!worker_tids.contains(&caller), "caller lane {caller} shared with {lanes:?}");
        if span::enabled() {
            assert!(!worker_tids.is_empty(), "{text}");
            assert!(text.contains("\"tile\""), "{text}");
            assert!(text.contains(" pc\"") || text.contains(" tile\""), "lane names present");
            assert!(text.contains("\"pred\""));
            assert!(text.contains("exec.flops"));
        }
    }
}
