//! `ooc_stream`: a closed loop of out-of-core multiplies over `.tiled`
//! files generated once per set-up, with `C` rewritten on every call.
//!
//! The files live in the run's scratch directory, so after the first
//! read they come from the page cache: this measures the prefetch
//! pipeline and its overlap with compute, not a physical disk.

use std::path::{Path, PathBuf};
use std::time::Instant;

use multicore_matmul::core::params::ooc_staging;
use multicore_matmul::exec::{gemm_parallel, BlockMatrix};
use multicore_matmul::obs::span::{self, SpanKind};
use multicore_matmul::ooc::RING_SLOTS;
use multicore_matmul::ooc::{ooc_multiply, write_pseudo_random, OocOpts, OocReport, TiledFile};

use crate::host::{peak_rss_mib, reset_peak_rss};
use crate::layers::{served_tiling, ExecCounters, ExecTrace};
use crate::report::Outcome;
use crate::stats::FINGERPRINT_SEED;
use crate::stats::{fingerprint, fingerprint_update, median, self_time, tail, Interval};
use crate::{timed, Rng, RunCfg, SETUP_REPS};

/// Why this workload is in the benchmark.
pub const WHY: &str = "reads and writes run beside compute and I/O threads compete for the \
                       cores on a thin-panel shape; files are page-cache backed, not a physical disk";

/// Order (blocks per side) of `A`, `B` and `C`.
pub const ORDER: u32 = 32;
/// Block side.
pub const Q: usize = 64;
/// Multiplies per requested second: a multiply takes about 0.6 s on a
/// two-core host. The count, not the clock, ends the loop, because every
/// multiply leaves its worker threads' span rings resident, so peak RSS
/// follows the number of multiplies.
const OPS_PER_SECOND: f64 = 5.0 / 3.0;

/// Bytes of one operand.
fn operand_bytes() -> u64 {
    (ORDER as u64 * Q as u64).pow(2) * 8
}

/// Staging budget: a fifth of the three operands' bytes.
pub fn budget_bytes() -> u64 {
    3 * operand_bytes() / 5
}

/// The staging geometry and budget, for the stamp.
pub fn stamp_fields() -> Vec<(String, String)> {
    let block = (Q * Q * 8) as u64;
    let staging = ooc_staging(budget_bytes() / block, RING_SLOTS, 0.1, 1.0);
    vec![
        ("ooc_budget_bytes".into(), budget_bytes().to_string()),
        ("ooc_alpha".into(), staging.map_or(0, |s| s.alpha).to_string()),
        ("ooc_beta".into(), staging.map_or(0, |s| s.beta).to_string()),
    ]
}

fn seeds(seed: u64) -> (u64, u64) {
    let mut rng = Rng::new(seed, 3);
    (rng.next_u64(), rng.next_u64())
}

/// Fingerprint of a tiled file's elements, read one block row at a time
/// so the check never holds the whole matrix.
pub(crate) fn file_fingerprint(path: &Path) -> Option<u64> {
    let f = TiledFile::open(path).ok()?;
    let h = f.header();
    let mut row = vec![0.0f64; h.cols as usize * h.q * h.q];
    let mut fp = FINGERPRINT_SEED;
    for bi in 0..h.rows {
        f.read_panel(bi, 0, 1, h.cols, &mut row).ok()?;
        fp = fingerprint_update(fp, &row);
    }
    Some(fp)
}

#[derive(Default)]
struct OocTrace {
    multiply_s: f64,
    acc_calls: u64,
    acc_s: f64,
    acc_flops: f64,
    read_s: f64,
    bytes_read: u64,
    operand_bytes: u64,
    stall_s: f64,
    buffer_wait_s: f64,
    driver_self_ns: u64,
    peak_resident: u64,
}

impl OocTrace {
    fn absorb(&mut self, r: &OocReport, secs: f64, call: Interval, spans: &[span::SpanRecord]) {
        self.multiply_s += secs;
        self.acc_calls += r.compute_spans.len() as u64;
        self.acc_s += r.compute_seconds;
        self.acc_flops += 2.0 * (Q as f64).powi(3) * r.m as f64 * r.n as f64 * r.z as f64;
        self.read_s += r.prefetch.io_seconds;
        self.bytes_read += r.prefetch.bytes_read;
        self.operand_bytes += 2 * operand_bytes();
        self.stall_s += r.prefetch.stall_seconds;
        self.buffer_wait_s += r.prefetch.buffer_wait_seconds;
        self.peak_resident = self.peak_resident.max(r.peak_resident_bytes);
        // The driver's own time: the call minus what its thread spent in
        // accumulate calls and waiting for panels.
        let children: Vec<Interval> = spans
            .iter()
            .filter(|s| s.thread.is_none())
            .filter(|s| matches!(s.kind, SpanKind::Accumulate | SpanKind::Stall))
            .map(|s| Interval::from_dur(s.start_ns, s.dur_ns))
            .collect();
        self.driver_self_ns += self_time(call, &children);
    }

    fn report(&self, out: &mut Outcome) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        out.set("ooc.multiply.busy_s", self.multiply_s);
        out.set("ooc.accumulate.calls", self.acc_calls as f64);
        out.set("ooc.accumulate.busy_s", self.acc_s);
        out.set("ooc.accumulate.gflops", ratio(self.acc_flops, self.acc_s) / 1e9);
        out.set("ooc.read.busy_s", self.read_s);
        out.set("ooc.read.gbs", ratio(self.bytes_read as f64, self.read_s) / 1e9);
        out.set("ooc.read_amplification", ratio(self.bytes_read as f64, self.operand_bytes as f64));
        out.set("ooc.stall_s", self.stall_s);
        out.set("ooc.buffer_wait_s", self.buffer_wait_s);
        out.set("ooc.driver.self_s", self.driver_self_ns as f64 / 1e9);
        out.set("ooc.peak_resident_mib", self.peak_resident as f64 / (1 << 20) as f64);
        out.set("ooc.budget_frac", ratio(self.peak_resident as f64, budget_bytes() as f64));
    }
}

struct Files {
    a: PathBuf,
    b: PathBuf,
}

impl Files {
    /// A fresh `C` path per call: rewriting one path would have the file
    /// system flush the truncated file to disk on every close.
    fn c(&self, op: usize) -> PathBuf {
        self.a.with_file_name(format!("c{op}.tiled"))
    }
}

fn setup(files: &Files, seed: u64, opts: &OocOpts) -> Result<(), String> {
    let (sa, sb) = seeds(seed);
    write_pseudo_random(&files.a, ORDER, ORDER, Q, sa).map_err(|e| e.to_string())?;
    write_pseudo_random(&files.b, ORDER, ORDER, Q, sb).map_err(|e| e.to_string())?;
    // Warm-up: one whole multiply (I/O threads, arenas, a C file).
    let c = files.c(usize::MAX);
    let r = ooc_multiply(&files.a, &files.b, &c, opts).map_err(|e| e.to_string());
    let _ = std::fs::remove_file(&c);
    r.map(drop)
}

/// Run the workload.
pub fn run(cfg: &RunCfg<'_>) -> Outcome {
    let files = Files { a: cfg.work.file("a.tiled"), b: cfg.work.file("b.tiled") };
    let opts = OocOpts::new(budget_bytes());
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let (r, s) = timed(|| setup(&files, cfg.seed, &opts));
        if let Err(e) = r {
            eprintln!("ooc_stream: set-up failed: {e}");
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
        setups.push(s);
    }

    let flops = 2.0 * ((ORDER as usize * Q) as f64).powi(3);
    let mut trace = OocTrace::default();
    let mut exec = ExecTrace::default();
    let mut rates = [Vec::new(), Vec::new()];
    let mut latencies_ms = Vec::new();
    let mut prints = Vec::new();
    reset_peak_rss();
    let ops = (cfg.seconds * OPS_PER_SECOND).round().max(2.0) as usize;
    for op in 0..ops {
        let traced = cfg.trace && op % 2 == 1;
        let op_start = Instant::now();
        let job = if traced { span::new_job() } else { 0 };
        let before = ExecCounters::read();
        let t0 = span::now_ns();
        let c = files.c(op);
        let (res, secs) = timed(|| ooc_multiply(&files.a, &files.b, &c, &opts));
        let call = Interval { start: t0, end: span::now_ns() };
        out.attempted += 1;
        let report = match res {
            Ok(r) => r,
            Err(e) => {
                eprintln!("ooc_stream: multiply failed: {e}");
                out.failed += 1;
                continue;
            }
        };
        prints.push(file_fingerprint(&c));
        let _ = std::fs::remove_file(&c);
        latencies_ms.push(secs * 1e3);
        if traced {
            let spans = span::collect_job(job);
            exec.absorb(&spans, ExecCounters::read().since(before), None);
            let accumulates = spans.iter().filter(|s| s.kind == SpanKind::Accumulate).count();
            exec.spans_lost += report.compute_spans.len().saturating_sub(accumulates) as u64;
            trace.absorb(&report, secs, call, &spans);
        }
        if cfg.trace {
            rates[traced as usize].push(flops / op_start.elapsed().as_secs_f64() / 1e9);
        } else {
            rates[0].push(flops / secs / 1e9);
        }
    }
    let peak = peak_rss_mib();

    // Check, outside every timed region: each C file bit-identical to
    // the in-core product of the same seeded operands.
    let (sa, sb) = seeds(cfg.seed);
    let a = BlockMatrix::pseudo_random(ORDER, ORDER, Q, sa);
    let b = BlockMatrix::pseudo_random(ORDER, ORDER, Q, sb);
    let want = fingerprint(gemm_parallel(&a, &b, served_tiling()).data());
    out.failed += prints.iter().filter(|&&p| p != Some(want)).count() as u64;

    if cfg.trace {
        exec.report(&mut out);
        trace.report(&mut out);
        out.set("bench.spans_lost", exec.spans_lost as f64);
        let (plain, traced) = (median(&rates[0]), median(&rates[1]));
        out.set("bench.trace_overhead_frac", if plain > 0.0 { 1.0 - traced / plain } else { 0.0 });
    } else {
        out.set("setup_s", median(&setups));
        out.set("gflops", median(&rates[0]));
        out.set("p50_ms", median(&latencies_ms));
        out.set_tail(tail(&latencies_ms));
        out.set("peak_rss_mib", peak);
        out.notes.push(format!(
            "{ops} multiplies at order {ORDER}, q={Q}, budget {} bytes",
            budget_bytes()
        ));
    }
    out
}
