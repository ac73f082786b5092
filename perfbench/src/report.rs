//! The metric catalog and the result a run prints.
//!
//! `BENCHMARK.json` lists the same names; `tests/catalog.rs` keeps the
//! two in step. The layer table also records, for each per-layer metric,
//! which end-to-end metric it should move, on which workloads, and where
//! it should stay flat — the prediction a change to that layer is judged
//! against.

use crate::host::json_str;
use crate::stats::Tail;

/// `(name, unit, better)` of one end-to-end metric.
pub type E2eMetric = (&'static str, &'static str, &'static str);

/// The end-to-end metrics every untraced run reports. `failed_frac` is
/// printed too, but travels as the result's `failed`/`attempted` counts:
/// it reads exactly 0 on a healthy tree, which no relative bound can
/// judge.
pub const END_TO_END: &[E2eMetric] = &[
    ("setup_s", "s", "lower"),
    ("gflops", "GFLOP/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("tail_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
];

/// One per-layer metric and the prediction attached to it.
#[derive(Clone, Copy, Debug)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The module the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric a gain here should move.
    pub moves: &'static str,
    /// Workloads on which it should move.
    pub on: &'static str,
    /// Workloads whose end-to-end metrics should stay flat.
    pub flat_on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
    flat_on: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, better, layer, moves, on, flat_on }
}

const K: &str = "exec::kernel";
const R: &str = "exec::runner";
const RAYON: &str = "vendor/rayon";
const OOC: &str = "ooc";
const ST: &str = "strassen";
const SV: &str = "serve";
const B: &str = "benchmark";
const LADDER_OOC: &str = "gemm_ladder,ooc_stream";
const ALL: &str = "gemm_ladder,ooc_stream,serve_mixed";

/// Every per-layer metric a traced run reports. A traced run reports all
/// of them on every workload; a layer the workload never reaches reads 0.
pub const LAYERS: &[LayerMetric] = &[
    m("exec.microkernel.gflops", "GFLOP/s", "higher", K, "gflops", LADDER_OOC, ""),
    m("exec.pack_a.gbs", "GB/s", "higher", K, "gflops", LADDER_OOC, ""),
    m("exec.pack_b.gbs", "GB/s", "higher", K, "gflops", LADDER_OOC, ""),
    m("exec.ic.self_s", "s", "lower", K, "gflops", LADDER_OOC, ""),
    m("exec.pack_a.busy_s", "s", "lower", K, "gflops", LADDER_OOC, ""),
    m("exec.pack_b.busy_s", "s", "lower", K, "gflops", LADDER_OOC, ""),
    m("exec.flops", "count", "higher", K, "gflops", LADDER_OOC, ""),
    m("exec.pack_bytes", "bytes", "lower", K, "gflops", LADDER_OOC, ""),
    m("exec.flop_per_pack_byte", "ratio", "higher", K, "gflops", LADDER_OOC, ""),
    m("exec.gemm.calls", "count", "higher", R, "gflops", "gemm_ladder", ""),
    m("exec.gemm.busy_s", "s", "lower", R, "gflops", "gemm_ladder", ""),
    m("exec.gemm.gflops.o16", "GFLOP/s", "higher", R, "gflops", "gemm_ladder", ""),
    m("exec.gemm.gflops.o24", "GFLOP/s", "higher", R, "gflops", "gemm_ladder", ""),
    m("exec.gemm.gflops.o40", "GFLOP/s", "higher", R, "gflops", "gemm_ladder", ""),
    m("exec.tile.count", "count", "higher", R, "gflops", "gemm_ladder", ""),
    m("exec.tile.imbalance", "ratio", "lower", R, "gflops", "gemm_ladder", ""),
    m("exec.gemm.t1.gflops", "GFLOP/s", "higher", R, "gflops", "gemm_ladder", ""),
    m("exec.gemm.t2.gflops", "GFLOP/s", "higher", R, "gflops", "gemm_ladder", ""),
    m("exec.scaling_eff", "ratio", "higher", R, "gflops", "gemm_ladder", ""),
    m("rayon.dispatch_us", "us", "lower", RAYON, "p50_ms", "ooc_stream,serve_mixed", "gemm_ladder"),
    m("ooc.multiply.busy_s", "s", "lower", OOC, "p50_ms", "ooc_stream", "gemm_ladder"),
    m("ooc.accumulate.calls", "count", "higher", OOC, "gflops", "ooc_stream", "gemm_ladder"),
    m("ooc.accumulate.busy_s", "s", "lower", OOC, "gflops", "ooc_stream", "gemm_ladder"),
    m("ooc.accumulate.gflops", "GFLOP/s", "higher", OOC, "gflops", "ooc_stream", "gemm_ladder"),
    m("ooc.read.busy_s", "s", "lower", OOC, "p50_ms", "ooc_stream", "gemm_ladder"),
    m("ooc.read.gbs", "GB/s", "higher", OOC, "p50_ms", "ooc_stream", "gemm_ladder"),
    m("ooc.read_amplification", "ratio", "lower", OOC, "p50_ms", "ooc_stream", "gemm_ladder"),
    m("ooc.stall_s", "s", "lower", OOC, "p50_ms", "ooc_stream", "gemm_ladder"),
    m("ooc.buffer_wait_s", "s", "lower", OOC, "gflops", "ooc_stream", "gemm_ladder"),
    m("ooc.driver.self_s", "s", "lower", OOC, "p50_ms", "ooc_stream", "gemm_ladder"),
    m("ooc.peak_resident_mib", "MiB", "lower", OOC, "peak_rss_mib", "ooc_stream", "gemm_ladder"),
    m("ooc.budget_frac", "ratio", "lower", OOC, "peak_rss_mib", "ooc_stream", "gemm_ladder"),
    m("strassen.multiply.gflops", "GFLOP/s", "higher", ST, "p50_ms", "serve_mixed", LADDER_OOC),
    m("serve.service_ms.strassen", "ms", "lower", ST, "p50_ms", "serve_mixed", LADDER_OOC),
    m("serve.submit.rtt_ms", "ms", "lower", SV, "p50_ms", "serve_mixed", LADDER_OOC),
    m("serve.price_us", "us", "lower", SV, "p50_ms", "serve_mixed", LADDER_OOC),
    m("serve.queue_wait_ms", "ms", "lower", SV, "tail_ms", "serve_mixed", LADDER_OOC),
    m("serve.service_ms.small", "ms", "lower", SV, "p50_ms", "serve_mixed", LADDER_OOC),
    m("serve.service_ms.medium", "ms", "lower", SV, "tail_ms", "serve_mixed", LADDER_OOC),
    m("serve.service_ms.ooc", "ms", "lower", SV, "tail_ms", "serve_mixed", LADDER_OOC),
    m("serve.running_mean", "jobs", "lower", SV, "tail_ms", "serve_mixed", LADDER_OOC),
    m("serve.ram_peak_frac", "ratio", "lower", SV, "tail_ms", "serve_mixed", LADDER_OOC),
    m("serve.completed", "count", "higher", SV, "gflops", "serve_mixed", LADDER_OOC),
    m("serve.rejected", "count", "lower", SV, "gflops", "serve_mixed", LADDER_OOC),
    m("serve.failed", "count", "lower", SV, "gflops", "serve_mixed", LADDER_OOC),
    m("serve.goodput_frac", "ratio", "higher", SV, "gflops", "serve_mixed", LADDER_OOC),
    m("loadgen.late_ms", "ms", "lower", B, "validity", "serve_mixed", ""),
    m("bench.trace_overhead_frac", "ratio", "lower", B, "validity", ALL, ""),
    m("bench.spans_lost", "count", "lower", B, "validity", ALL, ""),
];

/// What one run measured, ready to print.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were rejected or gave a wrong result.
    pub failed: u64,
    /// `(name, value)` in catalog order.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Record the tail with its percentile and sample count.
    pub fn set_tail(&mut self, tail: Option<Tail>) {
        let t = tail.unwrap_or(Tail { percentile: 0.0, value: 0.0, beyond: 0, samples: 0 });
        self.set("tail_ms", t.value);
        self.notes.push(format!(
            "tail_ms is p{} of {} samples ({} beyond)",
            t.percentile, t.samples, t.beyond
        ));
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The unit of a catalogued metric (end-to-end or per-layer).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(_, u, _)| u)
        .or_else(|| LAYERS.iter().find(|l| l.name == name).map(|l| l.unit))
        .unwrap_or("")
}

/// A finite number with all its digits (JSON has no NaN or infinity).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The one-line JSON result: `metrics` restricted to `names`, in order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v)| {
            let unit = unit_of(n.rsplit('/').next().unwrap_or(n));
            format!("{}:{{\"value\":{},\"unit\":{}}}", json_str(n), num(*v), json_str(unit))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    )
}

/// The human-readable metric table of one workload.
pub fn table(workload: &str, o: &Outcome) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, v) in &o.metrics {
        lines.push(format!("{workload:<12} {name:<28} {v:>14.6} {}", unit_of(name)));
    }
    lines.push(format!(
        "{workload:<12} {:<28} {:>14.6} ratio ({} of {})",
        "failed_frac",
        o.failed_frac(),
        o.failed,
        o.attempted
    ));
    lines
}
