//! Executors: run the paper's schedules on real data.
//!
//! Two complementary paths:
//!
//! * [`ExecSink`] replays *exactly* the schedule an algorithm streams —
//!   every `fma` event performs the `q×q` kernel — proving the schedules
//!   compute the right product (the simulator only proved they touch the
//!   right blocks);
//! * [`gemm_into`] runs the tilings the algorithms prescribe with a
//!   rayon thread pool, every core taking row chunks of each `C` tile,
//!   which is how the schedules map onto a real shared-memory machine
//!   (the paper's "future work: implement all algorithms on
//!   state-of-the-art multicore machines"). [`gemm_parallel`] and
//!   [`gemm_parallel_with_plan`] are its fresh-product forms.
//!
//! Inside each work unit, every kernel variant runs one BLIS-style
//! 5-loop macro-kernel:
//!
//! ```text
//! jc over NC columns of the tile          (B panel chosen)
//!   pc over KC of k                       (B panel packed once, L3/L2)
//!     ic over MC rows of the tile         (A block packed, L2)
//!       jr over NR columns                (B micro-panel, L1)
//!         ir over MR rows                 (register micro-kernel)
//! ```
//!
//! with `MC`/`KC`/`NC` supplied by [`crate::blocking`] — derived from the
//! paper's footprint constraint per cache level, or pinned via
//! `MMC_BLOCKING`. The packed `B` panel is built once per `(jc, pc)` and
//! reused across the entire `ic` loop; `A` micro-panels are repacked per
//! `MC` block, which is the macro-kernel's intended `⌈n/NC⌉`-fold `A`
//! traffic (see `mmc_sim`'s five-loop traffic model).
//!
//! All executors accumulate each `C` block's contributions in ascending
//! `k` order with one multiply-accumulate per step, so results are
//! bit-identical across every path *and every blocking plan* of a given
//! variant — tests compare with `==`.

use crate::blocking::{self, BlockingPlan};
use crate::job::CancelToken;
use crate::kernel::elem::Element;
use crate::kernel::{self, block_fma, KernelVariant};
use crate::matrix::{BlockMatrix, BlockMatrixOf};
use mmc_core::algorithms::{AlgoError, Algorithm};
use mmc_core::{params, ProblemSpec};
use mmc_obs::span::{self, SpanKind};
use mmc_sim::{Block, MachineConfig, MatrixId, SimError, SimSink};
use rayon::prelude::*;

/// A [`SimSink`] that *performs* the block arithmetic of a schedule.
///
/// Residency directives and reads are ignored (`manages_residency` is
/// `false`, so schedules take their streamlined LRU-style path); each
/// `fma(core, a, b, c)` event executes `C[c] += A[a] × B[b]`.
pub struct ExecSink<'m> {
    a: &'m BlockMatrix,
    b: &'m BlockMatrix,
    c: &'m mut BlockMatrix,
    fmas: u64,
}

impl<'m> ExecSink<'m> {
    /// Wrap the operands. `c` must be `a.rows × b.cols` blocks of the same
    /// block side.
    pub fn new(a: &'m BlockMatrix, b: &'m BlockMatrix, c: &'m mut BlockMatrix) -> ExecSink<'m> {
        assert_eq!(a.cols(), b.rows(), "inner block dimensions must agree");
        assert_eq!(a.q(), b.q(), "block sides must agree");
        assert_eq!((c.rows(), c.cols(), c.q()), (a.rows(), b.cols(), a.q()));
        ExecSink { a, b, c, fmas: 0 }
    }

    /// Number of block FMAs performed.
    pub fn fmas(&self) -> u64 {
        self.fmas
    }
}

impl SimSink for ExecSink<'_> {
    fn read(&mut self, _core: usize, _block: Block) -> Result<(), SimError> {
        Ok(())
    }
    fn write(&mut self, _core: usize, _block: Block) -> Result<(), SimError> {
        Ok(())
    }
    fn fma(&mut self, _core: usize, a: Block, b: Block, c: Block) -> Result<(), SimError> {
        debug_assert_eq!(a.matrix, MatrixId::A);
        debug_assert_eq!(b.matrix, MatrixId::B);
        debug_assert_eq!(c.matrix, MatrixId::C);
        debug_assert_eq!(a.col, b.row, "fma operands must share the k index");
        block_fma(
            self.c.block_mut(c.row, c.col),
            self.a.block(a.row, a.col),
            self.b.block(b.row, b.col),
            self.a.q(),
        );
        self.fmas += 1;
        let q = self.a.q() as u64;
        crate::metrics::schedule_flops().add(2 * q * q * q);
        Ok(())
    }
    fn load_shared(&mut self, _block: Block) -> Result<(), SimError> {
        Ok(())
    }
    fn evict_shared(&mut self, _block: Block) -> Result<(), SimError> {
        Ok(())
    }
    fn load_dist(&mut self, _core: usize, _block: Block) -> Result<(), SimError> {
        Ok(())
    }
    fn evict_dist(&mut self, _core: usize, _block: Block) -> Result<(), SimError> {
        Ok(())
    }
    fn barrier(&mut self) -> Result<(), SimError> {
        Ok(())
    }
}

/// Run `algorithm`'s exact schedule on real data (sequential replay).
pub fn run_schedule(
    algorithm: &dyn Algorithm,
    machine: &MachineConfig,
    a: &BlockMatrix,
    b: &BlockMatrix,
) -> Result<BlockMatrix, AlgoError> {
    let problem = ProblemSpec::new(a.rows(), b.cols(), a.cols());
    let mut c = BlockMatrix::zeros(a.rows(), b.cols(), a.q());
    let mut sink = ExecSink::new(a, b, &mut c);
    algorithm.execute(machine, &problem, &mut sink)?;
    Ok(c)
}

/// A 3-D blocking of the product loop nest, in blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tiling {
    /// `C` tile rows.
    pub tile_m: u32,
    /// `C` tile columns.
    pub tile_n: u32,
    /// The paper's `k`-panel depth for this tiling (`β` for Tradeoff).
    /// The executor's own `k` panels come from the [`BlockingPlan`]'s
    /// `KC`; cost models that price a tiling read this depth.
    pub tile_k: u32,
}

impl Tiling {
    /// The tiling Shared Opt prescribes: `λ×λ` `C` tiles, rank-1 `k` panels.
    pub fn shared_opt(machine: &MachineConfig) -> Option<Tiling> {
        let l = params::lambda(machine)?;
        Some(Tiling { tile_m: l, tile_n: l, tile_k: 1 })
    }

    /// The tiling Distributed Opt prescribes: `√p·µ` tiles, rank-1 panels.
    pub fn distributed_opt(machine: &MachineConfig) -> Option<Tiling> {
        let mu = params::mu(machine)?;
        let grid = params::CoreGrid::square(machine.cores)?;
        Some(Tiling { tile_m: grid.rows * mu, tile_n: grid.cols * mu, tile_k: 1 })
    }

    /// The tiling Tradeoff prescribes: `α×α` tiles, `β`-deep panels.
    pub fn tradeoff(machine: &MachineConfig) -> Option<Tiling> {
        let t = params::tradeoff_params(machine)?;
        Some(Tiling { tile_m: t.alpha, tile_n: t.alpha, tile_k: t.beta })
    }

    /// Equal-thirds tiling for a cache of `capacity` blocks.
    pub fn equal(capacity: usize) -> Option<Tiling> {
        let t = params::equal_tile(capacity)?;
        Some(Tiling { tile_m: t, tile_n: t, tile_k: t })
    }
}

/// How [`gemm_into`] runs: which micro-kernel, under which blocking
/// plan, and whether a job may cancel it.
#[derive(Clone, Copy, Debug)]
pub struct GemmOpts<'a> {
    /// Micro-kernel variant. A variant the CPU cannot run degrades to
    /// the scalar kernel, as [`kernel::block_fma_with`] does.
    pub variant: KernelVariant,
    /// `MC`/`KC`/`NC` of the 5-loop macro-kernel. Results are
    /// bit-identical across plans for a given variant.
    pub plan: BlockingPlan,
    /// Cooperative cancellation: every worker polls the token at its
    /// `jc` macro-loop boundaries and bails within one macro-panel.
    pub cancel: Option<&'a CancelToken>,
}

impl GemmOpts<'_> {
    /// The dispatched kernel variant under the active blocking plan for
    /// `T`, with no cancel token.
    pub fn dispatched<T: Element>() -> GemmOpts<'static> {
        GemmOpts { variant: kernel::variant(), plan: blocking::active_plan::<T>(), cancel: None }
    }
}

/// Raw pointer wrapper so disjoint `C` tiles can be filled from rayon
/// tasks. Soundness argument at the single unsafe use site below.
struct SendPtr<T>(*mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: the pointer is only dereferenced for block indices owned by the
// current task; tasks own disjoint index sets (see `gemm_into`).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Sync> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than a public field) so closures capture the
    /// `Sync` wrapper itself — Rust 2021's precise capture would otherwise
    /// grab the raw `*mut T` field, which is not `Sync`.
    #[inline]
    fn get(self) -> *mut T {
        self.0
    }
}

/// `C += A × B` with rayon tasks over the work units of `tiling`-sized
/// `C` tiles — the one GEMM entry point every caller goes through.
///
/// Each task computes one work unit completely (all `k` panels in
/// ascending order): a `C` tile, or a row chunk of one when there are
/// too few tiles to keep every thread busy (see `work_units`). This
/// mirrors how the paper's algorithms hand each shared-cache tile to all
/// cores, each owning its sub-blocks, so that each output block is
/// written by exactly one core. Within a task the 5-loop macro-kernel
/// runs under `opts.plan`.
///
/// Per `C` element the kernel sequence is one multiply-accumulate per
/// ascending `k` step, starting from the element's value in `c`. So a
/// fresh product is [`BlockMatrixOf::zeros`] followed by one call, and
/// accumulating a product `k` panel by `k` panel (the out-of-core
/// driver's streaming loop) is bit-identical to computing it in one
/// call — tests pin both down with `==`.
///
/// Returns `false` when `opts.cancel` fired: `c` then holds an
/// unspecified partial accumulation and must be discarded. The rayon
/// pool is reusable immediately either way.
///
/// # Panics
/// Panics if the shapes or block sides are incompatible (`c` must be
/// `a.rows × b.cols`) or the tiling has a zero dimension.
pub fn gemm_into<T: Element>(
    c: &mut BlockMatrixOf<T>,
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    tiling: Tiling,
    opts: &GemmOpts<'_>,
) -> bool {
    assert_eq!(a.cols(), b.rows(), "inner block dimensions must agree");
    assert_eq!(a.q(), b.q(), "block sides must agree");
    assert_eq!((c.rows(), c.cols(), c.q()), (a.rows(), b.cols(), a.q()), "C must be A.rows×B.cols");
    assert!(
        tiling.tile_m > 0 && tiling.tile_n > 0 && tiling.tile_k > 0,
        "tiling must be positive, got {tiling:?}"
    );
    let units = work_units(a.rows(), b.cols(), tiling, rayon::current_num_threads());
    let cptr = SendPtr(c.data_mut().as_mut_ptr());
    // The caller's trace context, carried into the pool closures (worker
    // threads cannot see the caller's thread-local job).
    let job = span::current_job();
    units.par_iter().for_each(|&unit| run_tile(a, b, cptr, opts, unit, job));
    !opts.cancel.is_some_and(CancelToken::is_cancelled)
}

/// `C = A × B` through the dispatched kernel and the active plan.
///
/// # Panics
/// As [`gemm_into`].
pub fn gemm_parallel<T: Element>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    tiling: Tiling,
) -> BlockMatrixOf<T> {
    gemm_parallel_with_plan(a, b, tiling, kernel::variant(), blocking::active_plan::<T>())
}

/// `C = A × B` through an explicit kernel variant and blocking plan.
///
/// # Panics
/// As [`gemm_into`].
pub fn gemm_parallel_with_plan<T: Element>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    tiling: Tiling,
    variant: KernelVariant,
    plan: BlockingPlan,
) -> BlockMatrixOf<T> {
    let mut c = BlockMatrixOf::zeros(a.rows(), b.cols(), a.q());
    gemm_into(&mut c, a, b, tiling, &GemmOpts { variant, plan, cancel: None });
    c
}

/// The work units a `threads`-way parallel call runs: the `tiling`'s `C`
/// tiles, each split into near-equal row chunks of at most about
/// `1/(2·threads)` of the product's blocks, largest first.
///
/// This is the paper's per-core share of a shared-cache tile: every core
/// works on each big tile, so a one-tile product or a ragged edge no
/// longer leaves cores idle. Each unit still covers whole `C` blocks
/// through all of `k`, so the per-element accumulation order — and every
/// result bit — is the same as one task per tile. About two units per
/// thread keeps the dynamic claim order balanced without duplicating
/// much `B` packing (each chunk packs its tile's `B` panels itself). A
/// single thread runs the tiles as they are.
pub(crate) fn work_units(
    m: u32,
    n: u32,
    tiling: Tiling,
    threads: usize,
) -> Vec<(u32, u32, u32, u32)> {
    let tiles = enumerate_tiles(m, n, tiling);
    if threads <= 1 {
        return tiles;
    }
    let area = |&(_, th, _, tw): &(u32, u32, u32, u32)| th as u64 * tw as u64;
    let total: u64 = tiles.iter().map(area).sum();
    let target = total.div_ceil(2 * threads as u64).max(1);
    let mut units = Vec::with_capacity(tiles.len());
    for tile @ (i0, th, j0, tw) in tiles {
        let chunks = area(&tile).div_ceil(target).min(th as u64) as u32;
        let (base, extra) = (th / chunks, th % chunks);
        let mut r = i0;
        for c in 0..chunks {
            let rows = base + u32::from(c < extra);
            units.push((r, rows, j0, tw));
            r += rows;
        }
    }
    // Largest first: greedy claiming then approximates a longest-
    // processing-time schedule, so a small edge unit finishes the call.
    units.sort_by_key(|u| std::cmp::Reverse(area(u)));
    units
}

/// Tile decomposition of an `m×n` block grid (clamped at the edges).
fn enumerate_tiles(m: u32, n: u32, tiling: Tiling) -> Vec<(u32, u32, u32, u32)> {
    let mut tiles = Vec::new();
    let mut i0 = 0;
    while i0 < m {
        let th = tiling.tile_m.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let tw = tiling.tile_n.min(n - j0);
            tiles.push((i0, th, j0, tw));
            j0 += tw;
        }
        i0 += th;
    }
    tiles
}

/// Compute one work unit — a `C` tile or a row chunk of one — completely
/// (all `k` panels in ascending order) through the packed 5-loop path,
/// then charge its FLOPs and emit its tile span.
fn run_tile<T: Element>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    cptr: SendPtr<T>,
    opts: &GemmOpts<'_>,
    tile: (u32, u32, u32, u32),
    job: u64,
) {
    if opts.cancel.is_some_and(CancelToken::is_cancelled) {
        return;
    }
    let start = if span::enabled() { span::now_ns() } else { 0 };
    run_tile_packed(a, b, cptr, opts, tile, job);
    if opts.cancel.is_some_and(CancelToken::is_cancelled) {
        // A cancelled tile did partial (discarded) work — keep the FLOP
        // counters honest by not charging the full tile.
        return;
    }
    // One relaxed add per *tile* (not per block): th·tw C blocks each
    // accumulate z block FMAs of 2q³ FLOPs.
    let (i0, th, j0, tw) = tile;
    let q = a.q() as u64;
    let flops = 2 * q * q * q * th as u64 * tw as u64 * a.cols() as u64;
    crate::metrics::flops(opts.variant).add(flops);
    crate::metrics::tiles(opts.variant).add(1);
    if span::enabled() {
        span::emit(
            job,
            SpanKind::Tile,
            worker_thread(),
            start,
            span::now_ns().saturating_sub(start),
            flops,
            flops,
            [i0, th, j0, tw],
        );
    }
}

/// The rayon worker index of the current thread, in span form.
#[inline]
fn worker_thread() -> Option<u32> {
    rayon::current_thread_index().map(|t| t as u32)
}

/// Mutable view of `C` block `(i, j)` through the shared tile pointer.
///
/// # Safety
/// Block `(i, j)` must belong to the caller's unit — units partition the
/// `(i, j)` index grid and each unit is processed by exactly one task, so
/// the slice is never aliased. The offset is in bounds for `i < m`,
/// `j < n`.
#[inline]
unsafe fn c_block_mut<'c, T>(
    cptr: SendPtr<T>,
    ncols: usize,
    q2: usize,
    i: u32,
    j: u32,
) -> &'c mut [T] {
    std::slice::from_raw_parts_mut(cptr.get().add((i as usize * ncols + j as usize) * q2), q2)
}

/// The 5-loop macro-kernel over one `C` tile.
///
/// Loop order is `jc` (NC) → `pc` (KC) → `ic` (MC) → register tiles:
/// `B[k panel, jc columns]` is packed **once** per `(jc, pc)` and reused
/// across the whole `ic` loop; `A[ic rows, k panel]` is packed per `MC`
/// block. The plan's element counts convert to whole-block loop steps
/// (at least one block each, clamped to the tile), so a plan finer than
/// one block degenerates to the block-at-a-time schedule.
///
/// For a fixed `C` block the `pc` loop is the only loop that revisits it,
/// in ascending `k` — panel boundaries never reorder or re-associate the
/// per-element accumulation, which keeps results bit-identical across
/// plans and to the unpacked block kernel of the same variant.
fn run_tile_packed<T: Element>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    cptr: SendPtr<T>,
    opts: &GemmOpts<'_>,
    (i0, th, j0, tw): (u32, u32, u32, u32),
    job: u64,
) {
    let (plan, z) = (opts.plan, a.cols());
    let q = a.q();
    let q2 = q * q;
    let ncols = b.cols() as usize;
    let nc_b = ((plan.nc / q).max(1) as u32).min(tw);
    let kc_b = ((plan.kc / q).max(1) as u32).min(z);
    let mc_b = ((plan.mc / q).max(1) as u32).min(th);
    let tracing = span::enabled();
    let es = std::mem::size_of::<T>() as u64;
    let q3_2 = 2 * (q as u64).pow(3);
    kernel::pack::with_arena::<T, _>(|arena| {
        let mut jc = 0;
        while jc < tw {
            if opts.cancel.is_some_and(CancelToken::is_cancelled) {
                return;
            }
            let jw = nc_b.min(tw - jc);
            let jc_start = if tracing { span::now_ns() } else { 0 };
            let mut k0 = 0;
            while k0 < z {
                let kb = kc_b.min(z - k0);
                let kc = kb as usize * q;
                let pc_start = if tracing { span::now_ns() } else { 0 };
                kernel::pack::pack_b_panel(&mut arena.b, b, j0 + jc, jw, k0, kb);
                let a_stride = kernel::pack::a_panel_stride::<T>(q, kc);
                let b_stride = kernel::pack::b_panel_stride::<T>(q, kc);
                if tracing {
                    // pred = logical panel bytes, val = padded packed
                    // bytes actually written (stride includes edge pad).
                    span::emit(
                        job,
                        SpanKind::PackB,
                        worker_thread(),
                        pc_start,
                        span::now_ns().saturating_sub(pc_start),
                        jw as u64 * kb as u64 * q2 as u64 * es,
                        jw as u64 * b_stride as u64 * es,
                        [j0 + jc, jw, k0, kb],
                    );
                }
                let pc_body = if tracing { span::now_ns() } else { 0 };
                let mut ic = 0;
                while ic < th {
                    let ih = mc_b.min(th - ic);
                    let pack_a_start = if tracing { span::now_ns() } else { 0 };
                    kernel::pack::pack_a_panel(&mut arena.a, a, i0 + ic, ih, k0, kb);
                    if tracing {
                        span::emit(
                            job,
                            SpanKind::PackA,
                            worker_thread(),
                            pack_a_start,
                            span::now_ns().saturating_sub(pack_a_start),
                            ih as u64 * kb as u64 * q2 as u64 * es,
                            ih as u64 * a_stride as u64 * es,
                            [i0 + ic, ih, k0, kb],
                        );
                    }
                    let ic_start = if tracing { span::now_ns() } else { 0 };
                    for bj in 0..jw {
                        let bpack = &arena.b[bj as usize * b_stride..][..b_stride];
                        for bi in 0..ih {
                            let apack = &arena.a[bi as usize * a_stride..][..a_stride];
                            // SAFETY: see `c_block_mut` — (i0+ic+bi,
                            // j0+jc+bj) is owned by this unit.
                            let cblk =
                                unsafe { c_block_mut(cptr, ncols, q2, i0 + ic + bi, j0 + jc + bj) };
                            kernel::packed::block_mul_packed(
                                opts.variant,
                                cblk,
                                q,
                                kc,
                                apack,
                                bpack,
                            );
                        }
                    }
                    if tracing {
                        let flops = q3_2 * ih as u64 * jw as u64 * kb as u64;
                        span::emit(
                            job,
                            SpanKind::LoopIc,
                            worker_thread(),
                            ic_start,
                            span::now_ns().saturating_sub(ic_start),
                            flops,
                            flops,
                            [i0 + ic, ih, j0 + jc, jw],
                        );
                    }
                    ic += ih;
                }
                if tracing {
                    let flops = q3_2 * th as u64 * jw as u64 * kb as u64;
                    span::emit(
                        job,
                        SpanKind::LoopPc,
                        worker_thread(),
                        pc_body,
                        span::now_ns().saturating_sub(pc_body),
                        flops,
                        flops,
                        [j0 + jc, jw, k0, kb],
                    );
                }
                k0 += kb;
            }
            if tracing {
                let flops = q3_2 * th as u64 * jw as u64 * z as u64;
                span::emit(
                    job,
                    SpanKind::LoopJc,
                    worker_thread(),
                    jc_start,
                    span::now_ns().saturating_sub(jc_start),
                    flops,
                    flops,
                    [i0, th, j0 + jc, jw],
                );
            }
            jc += jw;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::gemm_naive;
    use mmc_core::algorithms::all_algorithms;

    fn operands(m: u32, n: u32, z: u32, q: usize) -> (BlockMatrix, BlockMatrix) {
        (BlockMatrix::pseudo_random(m, z, q, 11), BlockMatrix::pseudo_random(z, n, q, 22))
    }

    /// A fresh product through variant `v` under the active plan.
    fn with_kernel<T: Element>(
        a: &BlockMatrixOf<T>,
        b: &BlockMatrixOf<T>,
        tiling: Tiling,
        v: KernelVariant,
    ) -> BlockMatrixOf<T> {
        gemm_parallel_with_plan(a, b, tiling, v, blocking::active_plan::<T>())
    }

    /// `c += a × b` through variant `v` under the active plan.
    fn accumulate<T: Element>(
        c: &mut BlockMatrixOf<T>,
        a: &BlockMatrixOf<T>,
        b: &BlockMatrixOf<T>,
        tiling: Tiling,
        v: KernelVariant,
    ) {
        assert!(gemm_into(
            c,
            a,
            b,
            tiling,
            &GemmOpts { variant: v, ..GemmOpts::dispatched::<T>() }
        ));
    }

    fn one_thread() -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap()
    }

    #[test]
    fn every_schedule_computes_the_product_bit_exactly() {
        let machine = MachineConfig::quad_q32();
        let (a, b) = operands(9, 17, 6, 4);
        let oracle = gemm_naive(&a, &b);
        for algo in all_algorithms() {
            let c = run_schedule(algo.as_ref(), &machine, &a, &b)
                .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
            assert_eq!(c, oracle, "{} result differs from oracle", algo.name());
        }
    }

    #[test]
    fn exec_sink_counts_fmas() {
        let machine = MachineConfig::quad_q32();
        let (a, b) = operands(4, 4, 4, 2);
        let mut c = BlockMatrix::zeros(4, 4, 2);
        let mut sink = ExecSink::new(&a, &b, &mut c);
        mmc_core::algorithms::SharedOpt::run(&machine, &ProblemSpec::new(4, 4, 4), &mut sink)
            .unwrap();
        assert_eq!(sink.fmas(), 64);
    }

    #[test]
    fn parallel_tilings_match_oracle() {
        let machine = MachineConfig::quad_q32();
        let (a, b) = operands(13, 7, 9, 4);
        let oracle = gemm_naive(&a, &b);
        let one = one_thread();
        for tiling in [
            Tiling::shared_opt(&machine).unwrap(),
            Tiling::distributed_opt(&machine).unwrap(),
            Tiling::tradeoff(&machine).unwrap(),
            Tiling::equal(machine.shared_capacity).unwrap(),
            Tiling { tile_m: 1, tile_n: 1, tile_k: 1 },
            Tiling { tile_m: 64, tile_n: 64, tile_k: 64 },
        ] {
            let c = gemm_parallel(&a, &b, tiling);
            assert_eq!(c, oracle, "tiling {tiling:?}");
            let c = one.install(|| gemm_parallel(&a, &b, tiling));
            assert_eq!(c, oracle, "blocked tiling {tiling:?}");
        }
    }

    /// Every CPU-supported kernel variant, through both the packed
    /// parallel path and the blockwise naive oracle, computes the same
    /// product (tolerance across variants — fused vs unfused rounding —
    /// and bit-exact against the oracle for the dispatched variant,
    /// which `parallel_tilings_match_oracle` already pins down).
    #[test]
    fn kernel_variants_agree_across_paths() {
        let (a, b) = operands(7, 5, 6, 8);
        let oracle = gemm_naive(&a, &b);
        for v in kernel::variants_available() {
            for tiling in [
                Tiling { tile_m: 3, tile_n: 2, tile_k: 2 },
                Tiling { tile_m: 8, tile_n: 8, tile_k: 1 },
            ] {
                let c = with_kernel(&a, &b, tiling, v);
                assert!(
                    c.max_abs_diff(&oracle) < 1e-10,
                    "variant {v} tiling {tiling:?} diverges: {}",
                    c.max_abs_diff(&oracle)
                );
            }
        }
    }

    /// Ragged shapes for every variant: a `k` extent the tile depth does
    /// not divide (`tile_k = 4`, `z = 10`) and block sides that are not
    /// multiples of the register tile (`MR = 6`, `NR = 8` for f64), so
    /// every edge micro-kernel and the clipped final `k` panel are
    /// exercised. SIMD variants are fused end to end and must match the
    /// fused oracle bitwise; the scalar block kernel is unfused, so it
    /// gets a tolerance.
    #[test]
    fn ragged_shapes_match_oracle_for_every_variant() {
        for q in [5usize, 9, 13] {
            let (a, b) = operands(6, 7, 10, q);
            let oracle = gemm_naive(&a, &b);
            for v in kernel::variants_available() {
                let tiling = Tiling { tile_m: 4, tile_n: 5, tile_k: 4 };
                let c = with_kernel(&a, &b, tiling, v);
                if v.is_simd() {
                    assert_eq!(c, oracle, "variant {v} q={q}");
                } else {
                    assert!(
                        c.max_abs_diff(&oracle) < 1e-10,
                        "variant {v} q={q} diverges: {}",
                        c.max_abs_diff(&oracle)
                    );
                }
            }
        }
    }

    /// The blocking plan moves macro-loop boundaries, never the
    /// per-element accumulation order: any two plans — including
    /// degenerate one-block steps and steps larger than the whole tile —
    /// produce bit-identical products for every variant.
    #[test]
    fn five_loop_results_are_invariant_across_blocking_plans() {
        for q in [4usize, 7] {
            let (a, b) = operands(9, 8, 11, q);
            let tiling = Tiling { tile_m: 5, tile_n: 6, tile_k: 3 };
            for v in kernel::variants_available() {
                let baseline = gemm_parallel_with_plan(
                    &a,
                    &b,
                    tiling,
                    v,
                    BlockingPlan { mc: 1, kc: 1, nc: 1 },
                );
                for plan in [
                    BlockingPlan { mc: 2 * q, kc: 3 * q, nc: 2 * q },
                    BlockingPlan { mc: q, kc: 5 * q, nc: 1000 * q },
                    BlockingPlan { mc: 1000, kc: 1000, nc: 1000 },
                    blocking::active_plan::<f64>(),
                ] {
                    let c = gemm_parallel_with_plan(&a, &b, tiling, v, plan);
                    assert_eq!(c, baseline, "variant {v} q={q} plan {plan:?}");
                }
            }
        }
    }

    /// Two products with *different* block sides on the same worker
    /// thread: the thread-local [`kernel::pack::PackArena`] keeps its
    /// buffers between calls, so the second product packs into vectors
    /// still holding the first product's (larger or smaller) panels. A
    /// stale-length bug would feed leftover elements of the old `q` into
    /// the micro-kernels; both orders (shrinking and growing `q`) must
    /// still match the oracle.
    #[test]
    fn arena_reuse_across_block_sides_stays_correct() {
        for v in kernel::variants_available() {
            let check = |q: usize| {
                let (a, b) = operands(5, 4, 7, q);
                let oracle = gemm_naive(&a, &b);
                let tiling = Tiling { tile_m: 3, tile_n: 2, tile_k: 3 };
                let c = with_kernel(&a, &b, tiling, v);
                if v.is_simd() {
                    assert_eq!(c, oracle, "variant {v} q={q}");
                } else {
                    assert!(c.max_abs_diff(&oracle) < 1e-10, "variant {v} q={q}");
                }
            };
            // One worker thread → one arena reused by every product.
            one_thread().install(|| {
                check(13); // large, ragged q seeds the arena
                check(5); // shrink: stale tail beyond the new panels
                check(16); // grow back past the original length
            });
        }
    }

    /// Accumulating a product one `k` panel at a time is bit-identical to
    /// the one-shot parallel product for every variant — the invariant the
    /// out-of-core executor's streaming loop relies on.
    #[test]
    fn panelwise_accumulation_is_bit_identical_to_one_shot() {
        for q in [4usize, 5] {
            let (a, b) = operands(6, 5, 9, q);
            for v in kernel::variants_available() {
                let tiling = Tiling { tile_m: 3, tile_n: 4, tile_k: 2 };
                let oracle = with_kernel(&a, &b, tiling, v);
                let mut c = BlockMatrix::zeros(6, 5, q);
                let mut k0 = 0;
                while k0 < 9 {
                    let kb = tiling.tile_k.min(9 - k0);
                    // Copy the k panel out, as the streaming path does.
                    let ap = BlockMatrix::from_fn(6, kb, q, |i, j| a.get(i, k0 as usize * q + j));
                    let bp = BlockMatrix::from_fn(kb, 5, q, |i, j| b.get(k0 as usize * q + i, j));
                    accumulate(&mut c, &ap, &bp, Tiling { tile_m: 3, tile_n: 4, tile_k: kb }, v);
                    k0 += kb;
                }
                assert_eq!(c, oracle, "variant {v} q={q}");
            }
        }
    }

    /// The generic executors compute correct f32 products against an f64
    /// oracle of the same inputs, within single-precision tolerance.
    #[test]
    fn f32_parallel_product_tracks_the_f64_oracle() {
        let (a64, b64) = operands(6, 5, 7, 9);
        let oracle = gemm_naive(&a64, &b64);
        let a32 = BlockMatrixOf::<f32>::pseudo_random(6, 7, 9, 11);
        let b32 = BlockMatrixOf::<f32>::pseudo_random(7, 5, 9, 22);
        for v in kernel::variants_available() {
            let c = with_kernel(&a32, &b32, Tiling { tile_m: 3, tile_n: 2, tile_k: 2 }, v);
            // pseudo_random narrows the same f64 stream, so the f32
            // product approximates the f64 oracle to f32 accuracy. The
            // stream is in [0,1): accumulated dot products of length 63
            // stay O(16), so 1e-3 absolute is comfortably loose.
            let mut worst = 0.0f64;
            for i in 0..c.rows() as usize * c.q() {
                for j in 0..c.cols() as usize * c.q() {
                    worst = worst.max((c.get(i, j) as f64 - oracle.get(i, j)).abs());
                }
            }
            assert!(worst < 1e-3, "variant {v} worst f32-vs-f64 gap {worst}");
        }
    }

    #[test]
    fn tilings_derive_from_machine_params() {
        let machine = MachineConfig::quad_q32();
        assert_eq!(
            Tiling::shared_opt(&machine).unwrap(),
            Tiling { tile_m: 30, tile_n: 30, tile_k: 1 }
        );
        assert_eq!(
            Tiling::distributed_opt(&machine).unwrap(),
            Tiling { tile_m: 8, tile_n: 8, tile_k: 1 }
        );
        let t = Tiling::tradeoff(&machine).unwrap();
        assert_eq!(t.tile_m % 8, 0);
        assert!(t.tile_k >= 1);
    }

    #[test]
    fn traced_gemm_matches_and_covers_every_tile() {
        let (a, b) = operands(9, 7, 5, 4);
        let oracle = gemm_naive(&a, &b);
        let tiling = Tiling { tile_m: 4, tile_n: 3, tile_k: 2 };
        let (c, run) = crate::tracing::run_traced(
            &a,
            &b,
            tiling,
            kernel::variant(),
            blocking::active_plan::<f64>(),
        );
        assert_eq!(c, oracle);
        if !span::enabled() {
            return;
        }
        // One tile span per work unit: the 3×3 tiles, split into row
        // chunks when the host has many threads; units partition the 9×7
        // grid.
        let tiles: Vec<_> = run.spans.iter().filter(|s| s.kind == SpanKind::Tile).collect();
        let units = work_units(9, 7, tiling, rayon::current_num_threads()).len();
        assert!(units >= 3 * 3);
        assert_eq!(tiles.len(), units);
        let covered: u64 = tiles.iter().map(|s| s.args[1] as u64 * s.args[3] as u64).sum();
        assert_eq!(covered, 9 * 7);
        assert!(tiles.iter().all(|s| s.start_ns >= run.epoch_ns));
        // Sorted by start time.
        assert!(tiles.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    /// Every `(threads, shape, tiling)` the split tests sweep: one-tile
    /// products, equal tile grids, ragged edges and degenerate tilings.
    fn split_cases() -> Vec<(usize, u32, u32, Tiling)> {
        let sq = |t: u32| Tiling { tile_m: t, tile_n: t, tile_k: 1 };
        let mut cases = Vec::new();
        for threads in [1, 2, 3, 4, 8] {
            for (m, n, tiling) in [
                (16, 16, sq(16)),
                (24, 24, sq(16)),
                (40, 40, sq(16)),
                (20, 20, sq(16)),
                (32, 32, sq(16)),
                (9, 7, Tiling { tile_m: 4, tile_n: 3, tile_k: 2 }),
                (5, 30, sq(30)),
                (1, 1, sq(1)),
                (13, 7, sq(64)),
            ] {
                cases.push((threads, m, n, tiling));
            }
        }
        cases
    }

    #[test]
    fn work_units_partition_every_c_block_exactly_once() {
        for (threads, m, n, tiling) in split_cases() {
            let mut hits = vec![0u32; (m * n) as usize];
            for (i0, th, j0, tw) in work_units(m, n, tiling, threads) {
                assert!(th > 0 && tw > 0 && th <= tiling.tile_m && tw <= tiling.tile_n);
                for i in i0..i0 + th {
                    for j in j0..j0 + tw {
                        hits[(i * n + j) as usize] += 1;
                    }
                }
            }
            assert!(hits.iter().all(|&h| h == 1), "{threads} threads, {m}x{n}, {tiling:?}");
        }
    }

    #[test]
    fn work_units_are_near_equal_when_tile_rows_allow_it() {
        let mut checked = 0;
        for (threads, m, n, tiling) in split_cases() {
            let tiles = enumerate_tiles(m, n, tiling);
            let units = work_units(m, n, tiling, threads);
            if threads == 1 {
                assert_eq!(units, tiles, "one thread runs the tiles as they are");
                continue;
            }
            // Rows allow a near-equal split when every tile has the same
            // shape and at least four rows per chunk, or rows divide evenly.
            let chunks = units.len() / tiles.len();
            let th = tiles[0].1;
            let uniform = tiles.iter().all(|t| (t.1, t.3) == (tiles[0].1, tiles[0].3))
                && units.len().is_multiple_of(tiles.len());
            if !(uniform && (th.is_multiple_of(chunks as u32) || th >= 4 * chunks as u32)) {
                continue;
            }
            let work: Vec<f64> = units.iter().map(|u| (u.1 * u.3) as f64).collect();
            let max = work.iter().cloned().fold(0.0, f64::max);
            let mean = work.iter().sum::<f64>() / work.len() as f64;
            assert!(max / mean <= 1.25, "{threads} threads, {m}x{n}: max/mean {}", max / mean);
            // About two units per thread, as far as the rows go.
            assert!(units.len() >= (2 * threads).min(tiles.len() * th as usize));
            checked += 1;
        }
        assert!(checked >= 10, "only {checked} cases exercised the bound");
    }

    /// The split moves unit boundaries, never the per-element `k` order:
    /// a four-thread run is bit-identical to the single-thread pool for a
    /// one-tile product and a ragged panel accumulation, in f64 and f32.
    #[test]
    fn split_runs_are_bit_identical_to_a_single_thread_run() {
        fn check<T: Element>() {
            let four = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
            let single = one_thread();
            let tiling = Tiling { tile_m: 16, tile_n: 16, tile_k: 1 };
            for v in kernel::variants_available() {
                // One 16×16-block tile: split into row chunks on 4 threads.
                let a = BlockMatrixOf::<T>::pseudo_random(16, 16, 8, 41);
                let b = BlockMatrixOf::<T>::pseudo_random(16, 16, 8, 42);
                let plan = blocking::active_plan::<T>();
                let one = single.install(|| gemm_parallel_with_plan(&a, &b, tiling, v, plan));
                let split = four.install(|| gemm_parallel_with_plan(&a, &b, tiling, v, plan));
                assert!(split == one, "variant {v}: one-tile product");

                // A ragged 20×20-block panel under 16×16 tiling, into a
                // non-zero C.
                let a = BlockMatrixOf::<T>::pseudo_random(20, 4, 8, 43);
                let b = BlockMatrixOf::<T>::pseudo_random(4, 20, 8, 44);
                let c0 = BlockMatrixOf::<T>::pseudo_random(20, 20, 8, 45);
                let (mut c1, mut c4) = (c0.clone(), c0);
                single.install(|| accumulate(&mut c1, &a, &b, tiling, v));
                four.install(|| accumulate(&mut c4, &a, &b, tiling, v));
                assert!(c4 == c1, "variant {v}: ragged accumulate");
            }
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn mismatched_operands_rejected() {
        let a = BlockMatrix::zeros(2, 3, 4);
        let b = BlockMatrix::zeros(2, 2, 4);
        let r = std::panic::catch_unwind(|| {
            gemm_parallel(&a, &b, Tiling { tile_m: 1, tile_n: 1, tile_k: 1 })
        });
        assert!(r.is_err());
    }

    #[test]
    fn pre_cancelled_run_returns_false_and_pool_keeps_serving() {
        let (a, b) = operands(6, 6, 5, 4);
        let tiling = Tiling { tile_m: 2, tile_n: 2, tile_k: 2 };
        let token = CancelToken::new();
        token.cancel();
        let cancelled = GemmOpts { cancel: Some(&token), ..GemmOpts::dispatched::<f64>() };
        let mut c = BlockMatrix::zeros(6, 6, 4);
        assert!(!gemm_into(&mut c, &a, &b, tiling, &cancelled));
        // The same rayon pool immediately serves the next (live) job.
        let live = CancelToken::new();
        let opts = GemmOpts { cancel: Some(&live), ..GemmOpts::dispatched::<f64>() };
        let mut c = BlockMatrix::zeros(6, 6, 4);
        assert!(gemm_into(&mut c, &a, &b, tiling, &opts), "uncancelled job completes");
        assert_eq!(c, gemm_naive(&a, &b));
    }

    #[test]
    fn uncancelled_cancellable_run_is_bit_identical_to_plain_run() {
        let (a, b) = operands(7, 5, 6, 4);
        let tiling = Tiling { tile_m: 3, tile_n: 2, tile_k: 2 };
        let plan = blocking::active_plan::<f64>();
        for v in kernel::variants_available() {
            let token = CancelToken::new();
            let mut c = BlockMatrix::zeros(7, 5, 4);
            assert!(gemm_into(
                &mut c,
                &a,
                &b,
                tiling,
                &GemmOpts { variant: v, plan, cancel: Some(&token) }
            ));
            assert_eq!(c, gemm_parallel_with_plan(&a, &b, tiling, v, plan), "variant {v}");
        }
    }
}
