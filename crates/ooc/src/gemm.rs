//! The out-of-core multiply driver: walk the Tradeoff staging order over
//! tiled files, stream `A`/`B` panels through the prefetch pipeline, and
//! accumulate each resident `C` tile with the in-core block executor.
//!
//! The schedule is the paper's Tradeoff algorithm lifted one level: RAM
//! plays the role of the shared cache, disk the role of main memory. A
//! `C` tile of `α×α` blocks stays resident while `β`-deep `A` row-panels
//! and `B` column-panels stream past it, with `(α, β)` sized from the
//! user's RAM budget by [`mmc_core::params::ooc_staging`] exactly as §3.3
//! sizes them from `C_S` — the footprint `α² + 2·slots·αβ` (the `C`
//! tile plus a `slots`-deep ring for each operand stream) never exceeds
//! the budget.
//!
//! Every `C` element still accumulates its `z·q` contributions in
//! ascending `k` with one kernel multiply-accumulate per step, so the
//! result is bit-identical (`==`) to [`mmc_exec::gemm_parallel`] under
//! the same kernel variant — the integration tests assert exactly that.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use mmc_core::params::ooc_staging;
use mmc_core::{formulas, OocStaging, ProblemSpec};
use mmc_exec::{
    gemm_into, gemm_parallel_with_kernel, BlockMatrix, CancelToken, GemmOpts, KernelVariant, Tiling,
};
use mmc_obs::span::{self, SpanKind};
use mmc_obs::{DriftReport, PhaseSample};
use mmc_sim::{ChromeTraceBuilder, MachineConfig, TData3};

use crate::pipeline::{PrefetchStats, Prefetcher, StageRequest};
use crate::tiled::{TiledError, TiledFile, TiledOutput};

/// Ring depth per operand stream: 2 = double buffering (one panel in
/// compute, one in flight).
pub const RING_SLOTS: u32 = 2;

/// Options for an out-of-core multiply.
#[derive(Clone, Debug)]
pub struct OocOpts {
    /// RAM budget in bytes for the resident `C` tile plus the panel ring.
    pub mem_budget_bytes: u64,
    /// Dedicated I/O (prefetch) threads.
    pub io_threads: usize,
    /// Kernel variant for the in-core accumulation.
    pub variant: KernelVariant,
    /// Machine model used for the two in-core terms of the `T_data`
    /// report and the compute tiling heuristic.
    pub machine: MachineConfig,
    /// Assumed disk/RAM bandwidth ratio `σ_F/σ_S` used only to *size*
    /// `α` before the run (the report uses the measured `σ_F`). Smaller
    /// means slower disk, which pushes `α` up to buy more reuse.
    pub sigma_ratio_hint: f64,
}

impl OocOpts {
    /// Defaults: dispatched kernel, two I/O threads, `quad_q32` model,
    /// disk assumed 10× slower than RAM.
    pub fn new(mem_budget_bytes: u64) -> OocOpts {
        OocOpts {
            mem_budget_bytes,
            io_threads: 2,
            variant: mmc_exec::kernel::variant(),
            machine: MachineConfig::quad_q32(),
            sigma_ratio_hint: 0.1,
        }
    }
}

/// Errors from the out-of-core driver.
#[derive(Debug)]
pub enum OocError {
    /// Reading or writing a tiled file failed.
    Tiled(TiledError),
    /// Operand shapes or block sides disagree.
    Shape(String),
    /// The RAM budget cannot hold even the minimal staging footprint.
    BudgetTooSmall(u64, u64),
    /// The run was cancelled through its [`CancelToken`]; the partial
    /// output file has been removed.
    Cancelled,
}

impl std::fmt::Display for OocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OocError::Tiled(e) => write!(f, "{e}"),
            OocError::Shape(why) => write!(f, "operand mismatch: {why}"),
            OocError::BudgetTooSmall(budget, need) => write!(
                f,
                "--mem-budget of {budget} bytes is below the minimal staging footprint \
                 ({need} bytes: a 1-block C tile plus a {RING_SLOTS}-deep ring per operand)"
            ),
            OocError::Cancelled => write!(f, "multiply cancelled before completion"),
        }
    }
}

impl std::error::Error for OocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OocError::Tiled(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TiledError> for OocError {
    fn from(e: TiledError) -> OocError {
        OocError::Tiled(e)
    }
}

/// One in-core accumulation step, for the trace's compute lane.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ComputeSpan {
    /// First block row of the resident `C` tile.
    pub i0: u32,
    /// First block column of the resident `C` tile.
    pub j0: u32,
    /// First `k` block of the accumulated panel pair.
    pub k0: u32,
    /// Microseconds from run start.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// The JSON metrics snapshot of one out-of-core run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OocReport {
    /// Report schema version ([`mmc_obs::SCHEMA_VERSION`]); reports
    /// written before the field read back as 0.
    #[serde(default)]
    pub schema_version: u32,
    /// `C` block rows.
    pub m: u32,
    /// `C` block columns.
    pub n: u32,
    /// Inner block dimension.
    pub z: u32,
    /// Block side in elements.
    pub q: usize,
    /// Kernel variant that ran.
    pub kernel: String,
    /// I/O threads that staged panels.
    pub io_threads: usize,
    /// The staging geometry the budget bought.
    pub staging: OocStaging,
    /// The RAM budget, bytes.
    pub budget_bytes: u64,
    /// The budget in `q×q` blocks (what the sizing saw).
    pub budget_blocks: u64,
    /// Measured peak bytes checked out of the panel ring.
    pub peak_panel_bytes: u64,
    /// Bytes of the largest resident `C` tile.
    pub c_tile_bytes: u64,
    /// Measured peak resident staging memory: panels + `C` tile.
    pub peak_resident_bytes: u64,
    /// Whether `peak_resident_bytes` stayed within `budget_bytes`.
    pub within_budget: bool,
    /// Bytes written to the `C` file.
    pub bytes_written: u64,
    /// Measured disk streaming bandwidth, blocks per second per thread —
    /// `None` when the run performed no timed I/O (everything served
    /// from cache in under the clock's resolution), in which case
    /// [`OocReport::t_data3`] prices the disk term at the machine
    /// model's assumed bandwidth ([`default_sigma_f`]) instead.
    pub sigma_f_blocks_per_s: Option<f64>,
    /// The three-term data access time: measured disk term (or the
    /// model default when unmeasured) next to the model's two in-core
    /// terms. `sigma_f` here is always finite and meaningful.
    pub t_data3: TData3,
    /// Wall-clock seconds for the whole multiply.
    pub elapsed_seconds: f64,
    /// Summed seconds inside the in-core accumulation calls.
    pub compute_seconds: f64,
    /// Pipeline statistics (bytes read, stalls, I/O spans).
    pub prefetch: PrefetchStats,
    /// Compute lane spans for the trace.
    pub compute_spans: Vec<ComputeSpan>,
    /// Trace job id the run recorded under ([`mmc_obs::span`]); 0 when
    /// the caller never opened a job. Reports written before the field
    /// read back as 0.
    #[serde(default)]
    pub trace_job: u64,
    /// Predicted-vs-measured drift over the run's phases (see
    /// [`ooc_drift`]); absent in reports written before the field.
    #[serde(default)]
    pub drift: Option<DriftReport>,
}

fn ceil_div(a: u32, b: u32) -> u32 {
    a.div_ceil(b)
}

/// The compute tiling inside one resident `th×tw` `C` tile: split it
/// into roughly `√p × √p` sub-tiles so every core gets work, with the
/// panel's full depth as `tile_k` (any split is bit-identical; the
/// executor cuts each sub-tile further into `µ×µ` work units).
fn inner_tiling(th: u32, tw: u32, kd: u32, cores: usize) -> Tiling {
    let pr = ((cores as f64).sqrt().round() as u32).max(1);
    Tiling { tile_m: ceil_div(th, pr).max(1), tile_n: ceil_div(tw, pr).max(1), tile_k: kd.max(1) }
}

/// Build the Tradeoff staging order: for every `α×α` `C` tile in
/// row-major order, alternate `A` row-panel and `B` column-panel
/// requests along `k` in `β` steps.
fn staging_requests(m: u32, n: u32, z: u32, staging: OocStaging) -> Vec<StageRequest> {
    let (alpha, beta) = (staging.alpha, staging.beta);
    let mut reqs = Vec::new();
    for i0 in (0..m).step_by(alpha as usize) {
        let th = alpha.min(m - i0);
        for j0 in (0..n).step_by(alpha as usize) {
            let tw = alpha.min(n - j0);
            for k0 in (0..z).step_by(beta as usize) {
                let kd = beta.min(z - k0);
                let seq = reqs.len();
                reqs.push(StageRequest {
                    seq,
                    file: 0,
                    bi0: i0,
                    bj0: k0,
                    rows: th,
                    cols: kd,
                    label: format!("A[i={i0},k={k0}]"),
                });
                reqs.push(StageRequest {
                    seq: seq + 1,
                    file: 1,
                    bi0: k0,
                    bj0: j0,
                    rows: kd,
                    cols: tw,
                    label: format!("B[k={k0},j={j0}]"),
                });
            }
        }
    }
    reqs
}

/// The measured disk bandwidth of a run, blocks per second per thread —
/// `None` when no I/O time was observed (nothing read, or reads too
/// fast for the clock), so callers never divide by a fictitious rate.
pub fn measured_sigma_f(read_blocks: u64, io_seconds: f64) -> Option<f64> {
    (io_seconds > 0.0 && read_blocks > 0).then(|| read_blocks as f64 / io_seconds)
}

/// The machine model's assumed disk bandwidth in blocks/s: `σ_S`
/// scaled by the disk/RAM ratio hint. This is what prices the `M_F`
/// term of [`TData3`] when a run measured no I/O — an explicit model
/// default rather than the old silent `1.0 block/s` fallback, which
/// predicted multi-second read legs for instant runs.
pub fn default_sigma_f(machine: &MachineConfig, sigma_ratio_hint: f64) -> f64 {
    (machine.sigma_s * sigma_ratio_hint.max(1e-6)).max(1e-6)
}

/// Multiply the tiled files at `a_path` and `b_path` out of core,
/// writing the tiled product to `out_path` and returning the run report.
pub fn ooc_multiply(
    a_path: &Path,
    b_path: &Path,
    out_path: &Path,
    opts: &OocOpts,
) -> Result<OocReport, OocError> {
    let result = ooc_multiply_inner(a_path, b_path, out_path, opts, None);
    release_free_heap();
    result
}

/// [`ooc_multiply`] as a cancellable job unit: the driver polls `cancel`
/// at every panel-stage boundary (before claiming the next prefetched
/// panel pair) and inside the in-core accumulation's macro loops. On
/// cancellation the prefetch pipeline is shut down and joined
/// mid-stream, the partial output file is removed, and
/// [`OocError::Cancelled`] comes back — the worker pool and filesystem
/// are left exactly as before the job started.
pub fn ooc_multiply_cancellable(
    a_path: &Path,
    b_path: &Path,
    out_path: &Path,
    opts: &OocOpts,
    cancel: &CancelToken,
) -> Result<OocReport, OocError> {
    let result = ooc_multiply_inner(a_path, b_path, out_path, opts, Some(cancel));
    release_free_heap();
    result
}

/// Return the heap's free pages to the OS once a multiply is over, on
/// every path (success, error or cancellation).
///
/// The staging buffers are large. Freeing the `C` tile raises glibc's
/// dynamic mmap threshold, so later panel buffers come from the heap,
/// and small long-lived allocations made between multiplies then keep
/// the freed space from shrinking back. Without the trim, resident
/// memory after the same loop of multiplies depends on that allocation
/// history; with it, the loop stays at the size its first multiply
/// reached (EXPERIMENTS.md, "Allocator state and ooc RSS"). Pinning
/// `M_MMAP_THRESHOLD` instead would turn every large allocation in the
/// process into an mmap/munmap pair. glibc shrinks the top of the main
/// thread's heap only; on other threads the trim releases free chunks
/// but leaves their arena's top in place.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // the allocator holds free; it is thread-safe in glibc.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

fn ooc_multiply_inner(
    a_path: &Path,
    b_path: &Path,
    out_path: &Path,
    opts: &OocOpts,
    cancel: Option<&CancelToken>,
) -> Result<OocReport, OocError> {
    let started = Instant::now();
    let fa = Arc::new(TiledFile::open(a_path)?);
    let fb = Arc::new(TiledFile::open(b_path)?);
    let (ha, hb) = (fa.header(), fb.header());
    if ha.q != hb.q {
        return Err(OocError::Shape(format!(
            "block sides differ: {} has q={}, {} has q={}",
            a_path.display(),
            ha.q,
            b_path.display(),
            hb.q
        )));
    }
    if ha.cols != hb.rows {
        return Err(OocError::Shape(format!(
            "inner dimensions differ: {} is {}x{} blocks, {} is {}x{}",
            a_path.display(),
            ha.rows,
            ha.cols,
            b_path.display(),
            hb.rows,
            hb.cols
        )));
    }
    let (m, z, n, q) = (ha.rows, ha.cols, hb.cols, ha.q);
    let block_bytes = (q * q * 8) as u64;
    // The caller's trace job (the CLI opens one before the run); the
    // pipeline's I/O threads pick it up through `Prefetcher::spawn`.
    let trace_job = span::current_job();

    let budget_blocks = opts.mem_budget_bytes / block_bytes;
    let min_blocks = 1 + 2 * RING_SLOTS as u64; // α = β = 1 footprint
    let staging = ooc_staging(budget_blocks, RING_SLOTS, opts.sigma_ratio_hint, 1.0)
        .ok_or(OocError::BudgetTooSmall(opts.mem_budget_bytes, min_blocks * block_bytes))?;
    let (alpha, beta) = (staging.alpha, staging.beta);

    let requests = staging_requests(m, n, z, staging);
    let n_requests = requests.len();
    let panel_elems = alpha as usize * beta as usize * q * q;
    let pool_buffers = 2 * RING_SLOTS as usize; // ring per operand stream
    let mut pf = Prefetcher::spawn(
        vec![Arc::clone(&fa), Arc::clone(&fb)],
        requests,
        pool_buffers,
        opts.io_threads.max(1),
        panel_elems,
    );
    let epoch = Instant::now();

    let out = TiledOutput::create(out_path, m, n, q)?;
    let mut bytes_written = 0u64;
    let mut compute_spans = Vec::new();
    let mut compute_seconds = 0.0;
    let mut c_buf: Vec<f64> = Vec::new();
    let mut consumed = 0usize;

    let gemm_opts = GemmOpts { variant: opts.variant, cancel };
    let mut cancelled = false;
    'tiles: for i0 in (0..m).step_by(alpha as usize) {
        let th = alpha.min(m - i0);
        for j0 in (0..n).step_by(alpha as usize) {
            let tw = alpha.min(n - j0);
            c_buf.clear();
            c_buf.resize(th as usize * tw as usize * q * q, 0.0);
            let mut c_tile = BlockMatrix::from_vec(th, tw, q, std::mem::take(&mut c_buf));
            for k0 in (0..z).step_by(beta as usize) {
                // Panel-stage boundary: the coarsest cooperative
                // cancellation point — bail before claiming the next
                // prefetched pair so the ring never deadlocks.
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    cancelled = true;
                    break 'tiles;
                }
                let kd = beta.min(z - k0);
                let pa = pf.next().expect("staging order exhausted early")?;
                let pb = pf.next().expect("staging order exhausted early")?;
                consumed += 2;
                let a_panel = BlockMatrix::from_vec(th, kd, q, pa.data);
                let b_panel = BlockMatrix::from_vec(kd, tw, q, pb.data);
                let tiling = inner_tiling(th, tw, kd, opts.machine.cores);
                let acc_start = if span::enabled() { span::now_ns() } else { 0 };
                let t0 = Instant::now();
                // Accumulating panel-by-panel here stays bit-identical
                // to a one-shot in-RAM product because every path
                // applies one multiply-accumulate per C element per
                // ascending k step, and neither the panel split nor the
                // work units move that order.
                let finished = gemm_into(&mut c_tile, &a_panel, &b_panel, tiling, &gemm_opts);
                if !finished {
                    cancelled = true;
                    break 'tiles;
                }
                let dur = t0.elapsed();
                compute_seconds += dur.as_secs_f64();
                compute_spans.push(ComputeSpan {
                    i0,
                    j0,
                    k0,
                    start_us: t0.duration_since(epoch).as_micros() as u64,
                    dur_us: dur.as_micros() as u64,
                });
                if span::enabled() {
                    let flops = 2 * (q as u64).pow(3) * th as u64 * tw as u64 * kd as u64;
                    span::emit(
                        trace_job,
                        SpanKind::Accumulate,
                        None,
                        acc_start,
                        dur.as_nanos() as u64,
                        flops,
                        flops,
                        [i0, j0, k0, kd],
                    );
                }
                pf.recycle(a_panel.into_vec());
                pf.recycle(b_panel.into_vec());
            }
            bytes_written += out.write_panel(i0, j0, th, tw, c_tile.data())?;
            c_buf = c_tile.into_vec();
        }
    }
    if cancelled {
        // Dropping the prefetcher shuts down and joins the I/O threads
        // mid-stream (the pipeline is proven safe against this); the
        // partial output must not look like a product.
        drop(pf);
        drop(out);
        let _ = std::fs::remove_file(out_path);
        return Err(OocError::Cancelled);
    }
    debug_assert_eq!(consumed, n_requests, "every staged panel consumed");
    out.finish()?;
    let prefetch = pf.finish();

    let c_tile_bytes = alpha as u64 * alpha as u64 * block_bytes;
    let peak_resident_bytes = prefetch.peak_resident_bytes + c_tile_bytes;
    let read_blocks = prefetch.bytes_read / block_bytes;
    let sigma_f = measured_sigma_f(read_blocks, prefetch.io_seconds);
    let problem = ProblemSpec::new(m, n, z);
    let (ms, md) = formulas::tradeoff(&problem, &opts.machine)
        .or_else(|| formulas::shared_opt(&problem, &opts.machine))
        .map(|p| (p.ms, p.md))
        .unwrap_or((0.0, 0.0));
    let t_data3 = TData3 {
        mf: (read_blocks + bytes_written / block_bytes) as f64,
        ms,
        md,
        // Unmeasured bandwidth prices at the machine model's assumed
        // rate, never a fictitious 1 block/s.
        sigma_f: sigma_f.unwrap_or_else(|| default_sigma_f(&opts.machine, opts.sigma_ratio_hint)),
        sigma_s: opts.machine.sigma_s,
        sigma_d: opts.machine.sigma_d,
    };

    let mut report = OocReport {
        schema_version: mmc_obs::SCHEMA_VERSION,
        m,
        n,
        z,
        q,
        kernel: opts.variant.name().to_string(),
        io_threads: opts.io_threads.max(1),
        staging,
        budget_bytes: opts.mem_budget_bytes,
        budget_blocks,
        peak_panel_bytes: prefetch.peak_resident_bytes,
        c_tile_bytes,
        peak_resident_bytes,
        within_budget: peak_resident_bytes <= opts.mem_budget_bytes,
        bytes_written,
        sigma_f_blocks_per_s: sigma_f,
        t_data3,
        elapsed_seconds: started.elapsed().as_secs_f64(),
        compute_seconds,
        prefetch,
        compute_spans,
        trace_job,
        drift: None,
    };
    report.drift = Some(ooc_drift(&report, mmc_obs::drift::DEFAULT_BAND));
    Ok(report)
}

/// Predicted-vs-measured drift for an out-of-core run, from the report's
/// aggregate statistics (so it works even with `MMC_SPANS=off`):
///
/// * `read` — measured positioned-read time against the staging
///   predictor's traffic ([`OocStaging::disk_blocks`] minus the written
///   `C`) priced at the report's `σ_F` — the *measured* bandwidth when
///   the run timed any I/O, else the machine model's assumed rate
///   (`t_data3.sigma_f` either way, never a `1.0 block/s` artifact);
///   with a measured `σ_F` the time ratio equals the traffic ratio
///   `bytes_read / predicted_bytes`, which is the paper-accountability
///   check in time units.
/// * `accumulate` — in-core compute wall time against the product's
///   `2·m·n·z·q³` FLOPs at the machine model's full-chip in-core rate
///   (the `M_S/σ_S + M_D/σ_D` terms of the three-term `T_data`).
/// * `stall` — measured compute-side prefetch stall against the
///   pipeline model's prediction: zero when predicted compute time
///   covers predicted read time (perfect overlap), else the uncovered
///   remainder.
pub fn ooc_drift(report: &OocReport, band: f64) -> DriftReport {
    let block_bytes = (report.q * report.q * 8) as u64;
    let write_blocks = report.m as u64 * report.n as u64;
    let pred_read_blocks =
        report.staging.disk_blocks(report.m, report.n, report.z).saturating_sub(write_blocks);
    let pred_read_bytes = pred_read_blocks * block_bytes;
    let sigma_f_bytes_per_us = (report.t_data3.sigma_f * block_bytes as f64 / 1e6).max(1e-9);
    let pred_read_us = pred_read_bytes as f64 / sigma_f_bytes_per_us;
    let measured_read_us = report.prefetch.io_seconds * 1e6;

    // In-core terms of T_data, in block accesses per σ (the machine
    // model's native unit), converted to µs through σ_S blocks/s.
    let pred_acc_us = (report.t_data3.ms / report.t_data3.sigma_s
        + report.t_data3.md / report.t_data3.sigma_d)
        * 1e6;
    let flops =
        2.0 * (report.q as f64).powi(3) * report.m as f64 * report.n as f64 * report.z as f64;
    let measured_acc_us = report.compute_seconds * 1e6;

    let pred_stall_us = (pred_read_us - pred_acc_us).max(0.0);
    let measured_stall_us = report.prefetch.stall_seconds * 1e6;

    DriftReport::from_samples(
        "ooc",
        report.trace_job,
        band,
        vec![
            PhaseSample {
                phase: "read".to_string(),
                spans: report.prefetch.io_spans.len().max(report.prefetch.panels_staged as usize)
                    as u64,
                measured_us: measured_read_us,
                predicted_us: pred_read_us,
                unit: "byte".to_string(),
                measured_units: report.prefetch.bytes_read as f64,
                predicted_units: pred_read_bytes as f64,
            },
            PhaseSample {
                phase: "accumulate".to_string(),
                spans: report.compute_spans.len() as u64,
                measured_us: measured_acc_us,
                predicted_us: pred_acc_us,
                unit: "flop".to_string(),
                measured_units: flops,
                predicted_units: flops,
            },
            PhaseSample {
                phase: "stall".to_string(),
                spans: report.prefetch.panels_staged,
                measured_us: measured_stall_us,
                predicted_us: pred_stall_us,
                unit: "ns".to_string(),
                measured_units: measured_stall_us * 1e3,
                predicted_units: pred_stall_us * 1e3,
            },
        ],
    )
}

/// Stream a deterministic pseudo-random matrix straight to a tiled file,
/// one block row at a time (never materializing the matrix), bit-exact
/// with [`BlockMatrix::pseudo_random`] for the same `(rows, cols, q,
/// seed)`.
pub fn write_pseudo_random(
    path: &Path,
    rows: u32,
    cols: u32,
    q: usize,
    seed: u64,
) -> Result<(), TiledError> {
    const M: u64 = 0x9E3779B97F4A7C15;
    let mut w = crate::tiled::TiledWriter::create(path, rows, cols, q)?;
    let mut slab = vec![0.0f64; cols as usize * q * q];
    for bi in 0..rows {
        for bj in 0..cols {
            let blk = &mut slab[bj as usize * q * q..][..q * q];
            let base_i = bi as usize * q;
            let base_j = bj as usize * q;
            for ii in 0..q {
                let row_mul = (((base_i + ii) as u64) << 32).wrapping_mul(M);
                let mut col_mul = (base_j as u64).wrapping_mul(M);
                for jj in 0..q {
                    let mut x = seed ^ row_mul.wrapping_add(col_mul);
                    x ^= x >> 30;
                    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
                    x ^= x >> 27;
                    x = x.wrapping_mul(0x94D049BB133111EB);
                    x ^= x >> 31;
                    blk[ii * q + jj] = (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
                    col_mul = col_mul.wrapping_add(M);
                }
            }
        }
        w.append_blocks(&slab)?;
    }
    w.finish()
}

/// Re-read all three tiled files, recompute the product in core with the
/// same kernel variant, and return the element count that differs
/// (0 means bit-identical). Intended for test- and smoke-scale matrices
/// — it materializes all three operands.
pub fn ooc_verify(
    a_path: &Path,
    b_path: &Path,
    c_path: &Path,
    variant: KernelVariant,
    machine: &MachineConfig,
) -> Result<u64, OocError> {
    let a = TiledFile::open(a_path)?.read_matrix()?;
    let b = TiledFile::open(b_path)?.read_matrix()?;
    let c = TiledFile::open(c_path)?.read_matrix()?;
    if a.cols() != b.rows() || a.q() != b.q() {
        return Err(OocError::Shape("A and B do not multiply".into()));
    }
    if (c.rows(), c.cols(), c.q()) != (a.rows(), b.cols(), a.q()) {
        return Err(OocError::Shape("C has the wrong shape for A*B".into()));
    }
    let tiling = Tiling::tradeoff(machine)
        .or_else(|| Tiling::shared_opt(machine))
        .unwrap_or(Tiling { tile_m: 1, tile_n: 1, tile_k: 1 });
    let want = gemm_parallel_with_kernel(&a, &b, tiling, variant);
    let mismatches =
        c.data().iter().zip(want.data()).filter(|(x, y)| x.to_bits() != y.to_bits()).count() as u64;
    Ok(mismatches)
}

/// Export the run as a Chrome trace: one Perfetto lane per I/O thread,
/// one compute lane, and a cumulative `bytes_read` counter track.
pub fn chrome_trace(report: &OocReport) -> String {
    let mut b = ChromeTraceBuilder::new("mmc-ooc multiply");
    for t in 0..report.io_threads {
        b.thread(t as u64, &format!("io {t}"));
    }
    let compute_tid = report.io_threads as u64;
    b.thread(compute_tid, "compute");
    let mut reads: Vec<_> = report.prefetch.io_spans.iter().collect();
    reads.sort_by_key(|s| s.start_us);
    let mut cumulative = 0u64;
    for s in &reads {
        b.span(
            s.thread as u64,
            &s.label,
            s.start_us as f64,
            (s.dur_us.max(1)) as f64,
            &[("bytes", s.bytes as f64)],
        );
        cumulative += s.bytes;
        b.counter("bytes_read", (s.start_us + s.dur_us) as f64, cumulative as f64);
    }
    for s in &report.compute_spans {
        b.span(
            compute_tid,
            &format!("C[{},{}] += k{}", s.i0, s.j0, s.k0),
            s.start_us as f64,
            (s.dur_us.max(1)) as f64,
            &[],
        );
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmc_exec::kernel::variants_available;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mmc-ooc-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn streamed_generation_matches_in_core_pseudo_random() {
        let dir = tmp("gen");
        let path = dir.join("a.tiled");
        write_pseudo_random(&path, 5, 3, 7, 0xC0FFEE).unwrap();
        let got = TiledFile::open(&path).unwrap().read_matrix().unwrap();
        assert_eq!(got, BlockMatrix::pseudo_random(5, 3, 7, 0xC0FFEE));
    }

    #[test]
    fn multiply_is_bit_identical_to_in_core_for_every_kernel() {
        let dir = tmp("bitid");
        let (m, z, n, q) = (9u32, 7u32, 8u32, 8usize);
        let a_path = dir.join("a.tiled");
        let b_path = dir.join("b.tiled");
        write_pseudo_random(&a_path, m, z, q, 1).unwrap();
        write_pseudo_random(&b_path, z, n, q, 2).unwrap();
        let a = BlockMatrix::pseudo_random(m, z, q, 1);
        let b = BlockMatrix::pseudo_random(z, n, q, 2);
        for variant in variants_available() {
            let c_path = dir.join(format!("c-{}.tiled", variant.name()));
            let mut opts = OocOpts::new(0);
            opts.variant = variant;
            // Budget: ~20 blocks — far below the 9*7 + 7*8 + 9*8 = 191
            // blocks the three operands need in core.
            opts.mem_budget_bytes = 20 * (q * q * 8) as u64;
            let report = ooc_multiply(&a_path, &b_path, &c_path, &opts).unwrap();
            assert!(
                report.within_budget,
                "peak {} > budget {}",
                report.peak_resident_bytes, report.budget_bytes
            );
            assert!(report.staging.alpha >= 1 && report.staging.beta >= 1);
            let got = TiledFile::open(&c_path).unwrap().read_matrix().unwrap();
            let tiling = Tiling { tile_m: 3, tile_n: 3, tile_k: 2 };
            let want = gemm_parallel_with_kernel(&a, &b, tiling, variant);
            assert_eq!(got, want, "ooc result must be bit-identical ({})", variant.name());
            assert_eq!(ooc_verify(&a_path, &b_path, &c_path, variant, &opts.machine).unwrap(), 0);
            // Disk traffic matches the staging predictor exactly.
            let blocks = (q * q * 8) as u64;
            assert_eq!(
                report.prefetch.bytes_read / blocks + report.bytes_written / blocks,
                report.staging.disk_blocks(m, n, z)
            );
        }
    }

    #[test]
    fn tiny_budget_is_rejected_with_context() {
        let dir = tmp("smallbudget");
        let a_path = dir.join("a.tiled");
        let b_path = dir.join("b.tiled");
        write_pseudo_random(&a_path, 2, 2, 4, 1).unwrap();
        write_pseudo_random(&b_path, 2, 2, 4, 2).unwrap();
        let opts = OocOpts::new(64); // less than one block
        let err = ooc_multiply(&a_path, &b_path, &dir.join("c.tiled"), &opts).unwrap_err();
        assert!(matches!(err, OocError::BudgetTooSmall(64, _)), "{err}");
        assert!(err.to_string().contains("--mem-budget"));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let dir = tmp("shape");
        let a_path = dir.join("a.tiled");
        let b_path = dir.join("b.tiled");
        write_pseudo_random(&a_path, 2, 3, 4, 1).unwrap();
        write_pseudo_random(&b_path, 2, 2, 4, 2).unwrap();
        let opts = OocOpts::new(1 << 20);
        let err = ooc_multiply(&a_path, &b_path, &dir.join("c.tiled"), &opts).unwrap_err();
        assert!(matches!(err, OocError::Shape(_)), "{err}");
    }

    #[test]
    fn run_carries_a_drift_report_and_recorder_spans() {
        let dir = tmp("drift");
        let a_path = dir.join("a.tiled");
        let b_path = dir.join("b.tiled");
        let c_path = dir.join("c.tiled");
        let (m, z, n, q) = (6u32, 5u32, 4u32, 4usize);
        write_pseudo_random(&a_path, m, z, q, 1).unwrap();
        write_pseudo_random(&b_path, z, n, q, 2).unwrap();
        let job = span::new_job();
        let opts = OocOpts::new(24 * (q * q * 8) as u64);
        let report = ooc_multiply(&a_path, &b_path, &c_path, &opts).unwrap();
        assert_eq!(report.trace_job, job);
        let drift = report.drift.as_ref().expect("drift attached");
        assert_eq!(drift.source, "ooc");
        assert_eq!(drift.job, job);
        assert!(drift.all_finite());
        let names: Vec<&str> = drift.phases.iter().map(|p| p.phase.as_str()).collect();
        for phase in ["read", "accumulate", "stall"] {
            assert!(names.contains(&phase), "missing {phase} in {names:?}");
        }
        // Traffic accounting: measured read bytes equal the staging
        // predictor's read term, so the read phase's units_ratio is 1.
        let read = drift.phases.iter().find(|p| p.phase == "read").unwrap();
        assert!((read.units_ratio - 1.0).abs() < 1e-12, "units_ratio {}", read.units_ratio);
        // The recorder saw the pipeline: read/stage spans per staged
        // panel, one accumulate span per compute step.
        if span::enabled() {
            let spans = span::collect_job(job);
            let count = |k: SpanKind| spans.iter().filter(|s| s.kind == k).count() as u64;
            assert_eq!(count(SpanKind::Read), report.prefetch.panels_staged);
            assert_eq!(count(SpanKind::Stage), report.prefetch.panels_staged);
            assert_eq!(count(SpanKind::Accumulate), report.compute_spans.len() as u64);
            assert!(count(SpanKind::Stall) >= 1, "compute stalls are recorded");
            let read_bytes: u64 =
                spans.iter().filter(|s| s.kind == SpanKind::Read).map(|s| s.val).sum();
            assert_eq!(read_bytes, report.prefetch.bytes_read);
        }
        // The report round-trips with the new optional fields.
        let json = serde_json::to_string(&report).unwrap();
        let back: OocReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trace_job, report.trace_job);
        assert_eq!(back.drift, report.drift);
    }

    #[test]
    fn unmeasured_bandwidth_is_explicit_and_never_one_block_per_s() {
        // The helper itself: zero timed I/O (or zero blocks) is None,
        // not a made-up rate.
        assert_eq!(measured_sigma_f(0, 0.0), None);
        assert_eq!(measured_sigma_f(100, 0.0), None);
        assert_eq!(measured_sigma_f(0, 1.0), None);
        assert_eq!(measured_sigma_f(50, 2.0), Some(25.0));

        // A real run, then the pathological zero-I/O case layered on
        // top: the drift's read leg must price at the machine default,
        // not at 1 block/s (which predicted multi-second read legs for
        // instant runs).
        let dir = tmp("nosigma");
        let a_path = dir.join("a.tiled");
        let b_path = dir.join("b.tiled");
        let (m, z, n, q) = (4u32, 3u32, 4u32, 4usize);
        write_pseudo_random(&a_path, m, z, q, 1).unwrap();
        write_pseudo_random(&b_path, z, n, q, 2).unwrap();
        let opts = OocOpts::new(16 * (q * q * 8) as u64);
        let mut report = ooc_multiply(&a_path, &b_path, &dir.join("c.tiled"), &opts).unwrap();
        // Whatever was measured, the modelled sigma_f is finite and
        // consistent with the report.
        assert!(report.t_data3.sigma_f.is_finite() && report.t_data3.sigma_f > 0.0);
        if let Some(s) = report.sigma_f_blocks_per_s {
            assert_eq!(s, report.t_data3.sigma_f);
        }

        // Zero-I/O run: unmeasured bandwidth, model default in TData3.
        report.prefetch.io_seconds = 0.0;
        report.sigma_f_blocks_per_s = None;
        report.t_data3.sigma_f = default_sigma_f(&opts.machine, opts.sigma_ratio_hint);
        // The default carries the machine's semantics — σ_S scaled by
        // the disk/RAM ratio hint — not the old hardcoded 1.0 (which,
        // unrelated to any bandwidth, predicted multi-second read legs
        // for instant runs on real-bandwidth machines).
        assert_eq!(report.t_data3.sigma_f, opts.machine.sigma_s * opts.sigma_ratio_hint);
        let drift = ooc_drift(&report, 1.0);
        assert!(drift.all_finite());
        let read = drift.phases.iter().find(|p| p.phase == "read").unwrap();
        // The read leg is priced exactly at the model default: predicted
        // time = predicted bytes / (default sigma_f in bytes/us).
        let block_bytes = (q * q * 8) as f64;
        let want_us = read.predicted_units / (report.t_data3.sigma_f * block_bytes / 1e6);
        assert!(
            (read.predicted_us - want_us).abs() <= 1e-9 * want_us.abs(),
            "priced at the model default: {} vs {}",
            read.predicted_us,
            want_us
        );
        // And on a machine with *real* bandwidths the default scales
        // with them — the fix is machine-derived, not another constant.
        let fast = MachineConfig::quad_q32().with_bandwidths(2.0e5, 8.0e5);
        assert_eq!(default_sigma_f(&fast, 0.1), 2.0e4);

        // The Option round-trips as null through the report JSON.
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"sigma_f_blocks_per_s\":null"));
        let back: OocReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.sigma_f_blocks_per_s, None);
        assert_eq!(back.t_data3.sigma_f, report.t_data3.sigma_f);
    }

    #[test]
    fn cancelled_multiply_cleans_up_and_pool_keeps_serving() {
        let dir = tmp("cancel");
        let a_path = dir.join("a.tiled");
        let b_path = dir.join("b.tiled");
        let c_path = dir.join("c.tiled");
        let (m, z, n, q) = (6u32, 5u32, 4u32, 4usize);
        write_pseudo_random(&a_path, m, z, q, 1).unwrap();
        write_pseudo_random(&b_path, z, n, q, 2).unwrap();
        let opts = OocOpts::new(24 * (q * q * 8) as u64);
        let token = CancelToken::new();
        token.cancel();
        let err = ooc_multiply_cancellable(&a_path, &b_path, &c_path, &opts, &token).unwrap_err();
        assert!(matches!(err, OocError::Cancelled), "{err}");
        assert!(!c_path.exists(), "partial output removed");
        // The same process (same rayon pool, fresh prefetcher) serves
        // the next, uncancelled job to completion, bit-identically.
        let live = CancelToken::new();
        let report = ooc_multiply_cancellable(&a_path, &b_path, &c_path, &opts, &live).unwrap();
        assert!(report.within_budget);
        assert_eq!(ooc_verify(&a_path, &b_path, &c_path, opts.variant, &opts.machine).unwrap(), 0);
    }

    #[test]
    fn report_serializes_and_traces() {
        let dir = tmp("report");
        let a_path = dir.join("a.tiled");
        let b_path = dir.join("b.tiled");
        let c_path = dir.join("c.tiled");
        write_pseudo_random(&a_path, 4, 4, 4, 1).unwrap();
        write_pseudo_random(&b_path, 4, 4, 4, 2).unwrap();
        let opts = OocOpts::new(10 * 4 * 4 * 8);
        let report = ooc_multiply(&a_path, &b_path, &c_path, &opts).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"within_budget\""));
        assert!(json.contains("\"stall_seconds\""));
        assert!(json.contains("\"bytes_read\""));
        let back: OocReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.staging, report.staging);
        assert!(report.t_data3.total() > 0.0);
        let trace = chrome_trace(&report);
        assert!(trace.contains("\"io 0\""), "I/O lane present");
        assert!(trace.contains("\"compute\""), "compute lane present");
        assert!(trace.contains("bytes_read"), "counter track present");
        assert!(trace.contains("A[i=0,k=0]"), "panel span labeled");
    }
}
