//! Job-scoped trace capture over the executors, plus the exec-side
//! drift model.
//!
//! [`run_traced`] wraps [`gemm_parallel_with_kernel`]: it opens a fresh
//! trace job in [`mmc_obs::span`], runs the product (every work unit
//! emits one `tile` span into its thread's lock-free ring), and collects
//! the job's spans back out. The result is a [`TracedRun`] — the raw
//! material for two consumers:
//!
//! * [`spans_to_chrome`] — a Perfetto/Chrome trace with one lane per
//!   `(loop level, thread)` pair, using the **process-wide** trace
//!   epoch so exec and ooc traces merge coherently into one timeline
//!   (the one trace exporter: `mmc exec`, `mmc drift` and
//!   `mmc ooc multiply` all write through it);
//! * [`exec_drift`] — a [`DriftReport`] holding the summed `tile` span
//!   time against the product's FLOPs at the kernel's measured roof.
//!
//! [`ExecModel::for_run`] prices every run at the dispatched kernel's
//! measured roof ([`kernel::roof_gflops`]), which each process measures
//! once per (variant, element type). Building a model is therefore cheap
//! after the first one, and a server that builds one per job
//! (`mmc serve`) pays for the measurement only at start-up. Every run in
//! a process is priced at the same roof, so drift ratios of different
//! runs compare directly. [`compute_us`] is the one compute price: the
//! out-of-core `accumulate` phase is priced through it too.

use crate::kernel::elem::Element;
use crate::kernel::{self, KernelVariant};
use crate::matrix::BlockMatrixOf;
use crate::runner::{gemm_parallel_with_kernel, Tiling};
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
) -> (BlockMatrixOf<T>, TracedRun) {
    let job = span::new_job();
    let epoch_ns = span::now_ns();
    let c = gemm_parallel_with_kernel(a, b, tiling, variant);
    let spans = span::collect_job(job);
    (c, TracedRun { job, epoch_ns, variant, spans })
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
    /// One core's measured roof for the dispatched kernel and element
    /// type, GFLOP/s ([`kernel::roof_gflops`]) — measured span time is
    /// *summed across threads* (CPU-seconds), so the prediction is
    /// priced at one core's roof, not the chip's.
    pub roof_gflops: f64,
}

impl ExecModel {
    /// Build the model for a run: problem shape from the operand grid,
    /// roof from the process's one measurement of `variant` on `T`.
    pub fn for_run<T: Element>(
        a: &BlockMatrixOf<T>,
        b: &BlockMatrixOf<T>,
        variant: KernelVariant,
    ) -> ExecModel {
        ExecModel {
            m: a.rows(),
            n: b.cols(),
            z: a.cols(),
            q: a.q(),
            roof_gflops: kernel::roof_gflops::<T>(variant),
        }
    }

    /// Total useful FLOPs of the product — the prediction the `tile`
    /// phase is held to (the work units cover the whole problem once).
    pub fn total_flops(&self) -> u64 {
        2 * (self.q as u64).pow(3) * self.m as u64 * self.n as u64 * self.z as u64
    }
}

/// Microseconds `cores` cores take to retire `flops` at `roof_gflops`
/// GFLOP/s each: the compute price of the exec `tile` phase (one core,
/// against CPU time) and the ooc `accumulate` phase (the pool, against
/// wall time).
pub fn compute_us(flops: f64, roof_gflops: f64, cores: usize) -> f64 {
    flops / ((roof_gflops * cores.max(1) as f64).max(1e-9) * 1e3)
}

/// Build the drift report for one traced run: the `tile` phase, measured
/// (summed span time, CPU-µs) against predicted (the product's FLOPs at
/// the model's roof). A run with no tile spans reports no phase.
pub fn exec_drift(run: &TracedRun, model: &ExecModel, band: f64) -> DriftReport {
    let tiles = run.spans.iter().filter(|s| s.kind == SpanKind::Tile);
    let (spans, measured_us, measured) = tiles.fold((0u64, 0.0f64, 0u64), |acc, s| {
        (acc.0 + 1, acc.1 + s.dur_ns as f64 / 1e3, acc.2 + s.val)
    });
    let predicted = model.total_flops();
    let tile = PhaseSample {
        phase: SpanKind::Tile.name().to_string(),
        spans,
        measured_us,
        predicted_us: compute_us(predicted as f64, model.roof_gflops, 1),
        unit: "flop".to_string(),
        measured_units: measured as f64,
        predicted_units: predicted as f64,
    };
    DriftReport::from_samples("exec", run.job, band, vec![tile])
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (c, run) = run_traced(&a, &b, tiling, kernel::variant());
        assert_eq!(c, gemm_naive(&a, &b));
        (a, b, run)
    }

    #[test]
    fn traced_run_collects_one_tile_span_per_unit() {
        let tiling = Tiling { tile_m: 3, tile_n: 3, tile_k: 2 };
        let (_, _, run) = traced(6, 6, 5, 4, tiling);
        if !span::enabled() {
            assert!(run.spans.is_empty());
            return;
        }
        // 4 tiles, each cut into µ×µ units; every unit leaves one tile
        // span and nothing else.
        let units = crate::runner::call_units::<f64>(6, 6, 4, tiling).len();
        assert!(units >= 4);
        assert_eq!(run.spans.len(), units);
        assert!(run.spans.iter().all(|s| s.kind == SpanKind::Tile));
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
            let units = crate::runner::call_units::<f64>(4, 4, 3, tiling).len();
            assert_eq!(second.spans.iter().filter(|s| s.kind == SpanKind::Tile).count(), units);
        }
    }

    #[test]
    fn exec_drift_reports_the_tile_phase_with_a_finite_ratio() {
        let tiling = Tiling { tile_m: 4, tile_n: 4, tile_k: 2 };
        let (a, b, run) = traced(8, 8, 6, 4, tiling);
        if !span::enabled() {
            return;
        }
        let model = ExecModel::for_run(&a, &b, run.variant);
        let report = exec_drift(&run, &model, 1e9);
        assert!(report.all_finite());
        let names: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(names, ["tile"]);
        // Work accounting: the tile spans measured exactly the model's
        // total, so units_ratio is 1 (the units cover the product).
        for p in report.phases.iter().filter(|p| p.unit == "flop") {
            assert!(
                (p.units_ratio - 1.0).abs() < 1e-12,
                "{}: units_ratio {}",
                p.phase,
                p.units_ratio
            );
        }
        // Priced at one core's measured roof for this variant and type.
        let tile = &report.phases[0];
        let want = model.total_flops() as f64 / (kernel::roof_gflops::<f64>(run.variant) * 1e3);
        assert_eq!(model.roof_gflops, kernel::roof_gflops::<f64>(run.variant));
        assert!((tile.predicted_us - want).abs() <= 1e-9 * want, "{} vs {want}", tile.predicted_us);
        // Astronomical band: nothing flagged.
        assert!(report.flagged.is_empty(), "{:?}", report.flagged);
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
            assert!(text.contains(" tile\""), "lane names present");
            assert!(text.contains("\"pred\""));
            assert!(text.contains("exec.flops"));
        }
    }
}
