//! Executors: run the paper's schedules on real data.
//!
//! Two complementary paths:
//!
//! * [`ExecSink`] replays *exactly* the schedule an algorithm streams —
//!   every `fma` event performs the `q×q` kernel — proving the schedules
//!   compute the right product (the simulator only proved they touch the
//!   right blocks);
//! * [`gemm_into`] runs the tilings the algorithms prescribe with a
//!   rayon thread pool, every core taking `µ×µ` sub-tiles of each `C`
//!   tile, which is how the schedules map onto a real shared-memory
//!   machine (the paper's "future work: implement all algorithms on
//!   state-of-the-art multicore machines"). [`gemm_parallel`] and
//!   [`gemm_parallel_with_kernel`] are its fresh-product forms.
//!
//! Inside each tile of the [`Tiling`], the executor runs the paper's
//! Maximum Reuse schedule as Distributed Opt hands it to each core
//! (§3.2, Algorithm 2): the tile is cut into near-equal `µ×µ` sub-tiles
//! of `C` blocks, with `µ` the largest integer such that
//! `1 + µ + µ² ≤ C_D` ([`crate::blocking::host_mu`]; smaller when the
//! product has too few blocks to give every core a `µ×µ` share, see
//! [`unit_mu`]). Each sub-tile is one work unit, and a unit runs
//!
//! ```text
//! k over the z block columns of A        (ascending)
//!   i over the unit's block rows         (A[i,k] reused across j)
//!     j over the unit's block columns    (B[k, j0..j0+µ] reused across i)
//!       C[i,j] += A[i,k] × B[k,j]        (the variant's q×q block kernel)
//! ```
//!
//! so its `µ²` `C` blocks stay in the core's private cache while one `A`
//! block and a row of `µ` `B` blocks stream past them. The kernels read
//! the block-major operands in place; nothing is packed.
//!
//! All executors accumulate each `C` block's contributions in ascending
//! `k` order with one multiply-accumulate per step, so results are
//! bit-identical across every path, tiling and thread count of a given
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
    /// The executor runs all of `k` inside each work unit; cost models
    /// that price a tiling read this depth.
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

/// How [`gemm_into`] runs: which kernel, and whether a job may cancel it.
#[derive(Clone, Copy, Debug)]
pub struct GemmOpts<'a> {
    /// Block kernel variant. A variant the CPU cannot run degrades to
    /// the scalar kernel, as [`kernel::block_fma_with`] does.
    pub variant: KernelVariant,
    /// Cooperative cancellation: every worker polls the token before each
    /// `k` step of its unit and bails within one step.
    pub cancel: Option<&'a CancelToken>,
}

impl GemmOpts<'_> {
    /// The dispatched kernel variant, with no cancel token.
    pub fn dispatched() -> GemmOpts<'static> {
        GemmOpts { variant: kernel::variant(), cancel: None }
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

/// `C += A × B` with rayon tasks over the `µ×µ` work units of
/// `tiling`-sized `C` tiles — the one GEMM entry point every caller goes
/// through.
///
/// Each task computes one work unit completely (all of `k`, ascending;
/// see the module docs), so each output block is written by exactly one
/// core, as in the paper's algorithms. `µ` is [`blocking::host_mu`] for
/// this block side and element type, capped by [`unit_mu`].
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
    let (m, n) = (a.rows(), b.cols());
    let units = call_units::<T>(m, n, a.q(), tiling);
    // The soundness of every `c_block_mut` below rests on this.
    debug_assert!(covers_each_block_once(m, n, &units), "units must partition C");
    let cptr = SendPtr(c.data_mut().as_mut_ptr());
    // The caller's trace context, carried into the pool closures (worker
    // threads cannot see the caller's thread-local job).
    let job = span::current_job();
    units.par_iter().for_each(|&unit| run_unit(a, b, cptr, opts, unit, job));
    !opts.cancel.is_some_and(CancelToken::is_cancelled)
}

/// `C = A × B` through the dispatched kernel.
///
/// # Panics
/// As [`gemm_into`].
pub fn gemm_parallel<T: Element>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    tiling: Tiling,
) -> BlockMatrixOf<T> {
    gemm_parallel_with_kernel(a, b, tiling, kernel::variant())
}

/// `C = A × B` through an explicit kernel variant.
///
/// # Panics
/// As [`gemm_into`].
pub fn gemm_parallel_with_kernel<T: Element>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    tiling: Tiling,
    variant: KernelVariant,
) -> BlockMatrixOf<T> {
    let mut c = BlockMatrixOf::zeros(a.rows(), b.cols(), a.q());
    gemm_into(&mut c, a, b, tiling, &GemmOpts { variant, cancel: None });
    c
}

/// [`gemm_parallel_with_kernel`] under its name from when the executor
/// ran a 5-loop: `plan` is unused. Kept because the benchmark harness
/// calls it by this name.
///
/// # Panics
/// As [`gemm_into`].
pub fn gemm_parallel_with_plan<T: Element>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    tiling: Tiling,
    variant: KernelVariant,
    _plan: BlockingPlan,
) -> BlockMatrixOf<T> {
    gemm_parallel_with_kernel(a, b, tiling, variant)
}

/// The sub-tile side [`gemm_into`] cuts an `m×n` grid of `q×q` blocks
/// of `T` by on the current pool: the host's `µ`
/// ([`blocking::host_mu`]), capped at `⌊√(m·n/threads)⌋` (and at least
/// 1) when the grid is too small to give every thread a `µ×µ` unit.
pub fn unit_mu<T: Element>(m: u32, n: u32, q: usize) -> u32 {
    cap_mu(m, n, blocking::host_mu::<T>(q), rayon::current_num_threads())
}

/// `mu`, capped at `⌊√(m·n/threads)⌋` (and at least 1), so that every
/// one of `threads` cores gets at least one unit whenever the grid has
/// that many blocks.
///
/// Distributed Opt gives each of its `p` cores a `µ×µ` sub-tile of every
/// `√p·µ`-sided shared tile; the paper's `µ` is the largest sub-tile that
/// fits `C_D`, and any smaller one fits too. The cap changes only which
/// blocks share a unit, never a `C` element's `k` order.
fn cap_mu(m: u32, n: u32, mu: u32, threads: usize) -> u32 {
    let per_thread = (m as f64 * n as f64 / threads.max(1) as f64).sqrt() as u32;
    mu.min(per_thread).max(1)
}

/// The work units [`gemm_into`] runs for an `m×n` grid of `q×q` blocks
/// of `T` on the current pool.
pub(crate) fn call_units<T: Element>(m: u32, n: u32, q: usize, tiling: Tiling) -> Vec<Unit> {
    block_units(m, n, tiling, unit_mu::<T>(m, n, q))
}

/// One work unit: `(i0, rows, j0, cols)` in blocks of `C`.
pub(crate) type Unit = (u32, u32, u32, u32);

/// The work units of an `m×n` block grid: every `tiling` tile cut into
/// `⌈th/µ⌉×⌈tw/µ⌉` near-equal sub-tiles (a 40-block side at `µ = 7`
/// cuts as 7,7,7,7,6,6, never 7,…,7,5), largest first.
///
/// Each unit is one core's `µ×µ` share of a shared-cache tile in
/// Distributed Opt. Each covers whole `C` blocks through all of `k`, so
/// the result bits depend neither on `µ` nor on how the pool claims the
/// units. Largest first makes greedy claiming approximate a
/// longest-processing-time schedule, so a small edge unit finishes the
/// call. A `µ` of 0 counts as 1.
pub(crate) fn block_units(m: u32, n: u32, tiling: Tiling, mu: u32) -> Vec<Unit> {
    let mu = mu.max(1);
    let mut units = Vec::new();
    for (i0, th, j0, tw) in enumerate_tiles(m, n, tiling) {
        for (i, h) in near_equal_parts(i0, th, mu) {
            units.extend(near_equal_parts(j0, tw, mu).map(|(j, w)| (i, h, j, w)));
        }
    }
    units.sort_by_key(|&(_, h, _, w)| std::cmp::Reverse(h as u64 * w as u64));
    units
}

/// `len` blocks from `start` cut into `⌈len/mu⌉` parts whose lengths
/// differ by at most one, longer parts first: `(start, length)` each.
fn near_equal_parts(start: u32, len: u32, mu: u32) -> impl Iterator<Item = (u32, u32)> {
    let parts = len.div_ceil(mu);
    let (base, extra) = (len / parts, len % parts);
    (0..parts).scan(start, move |at, p| {
        let part = (*at, base + u32::from(p < extra));
        *at += part.1;
        Some(part)
    })
}

/// Whether `units` cover every block of an `m×n` grid exactly once — the
/// disjointness that makes the shared `C` pointer sound.
pub(crate) fn covers_each_block_once(m: u32, n: u32, units: &[Unit]) -> bool {
    let mut hits = vec![0u8; m as usize * n as usize];
    for &(i0, th, j0, tw) in units {
        if th == 0 || tw == 0 || i0 + th > m || j0 + tw > n {
            return false;
        }
        for i in i0..i0 + th {
            for hit in &mut hits[(i * n + j0) as usize..(i * n + j0 + tw) as usize] {
                *hit += 1;
                if *hit > 1 {
                    return false;
                }
            }
        }
    }
    hits.iter().all(|&h| h == 1)
}

/// Tile decomposition of an `m×n` block grid (clamped at the edges).
fn enumerate_tiles(m: u32, n: u32, tiling: Tiling) -> Vec<Unit> {
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

/// Compute one work unit completely — `k` ascending, then the unit's
/// block rows and columns, one block kernel per `(i, j, k)` — then
/// charge its FLOPs and emit its tile span.
fn run_unit<T: Element>(
    a: &BlockMatrixOf<T>,
    b: &BlockMatrixOf<T>,
    cptr: SendPtr<T>,
    opts: &GemmOpts<'_>,
    unit: Unit,
    job: u64,
) {
    let start = if span::enabled() { span::now_ns() } else { 0 };
    let (i0, th, j0, tw) = unit;
    let q = a.q();
    let ncols = b.cols() as usize;
    for k in 0..a.cols() {
        if opts.cancel.is_some_and(CancelToken::is_cancelled) {
            // A cancelled unit did partial (discarded) work — keep the
            // FLOP counters honest by not charging it.
            return;
        }
        for i in i0..i0 + th {
            let ablk = a.block(i, k);
            for j in j0..j0 + tw {
                // SAFETY: see `c_block_mut` — (i, j) lies in this unit.
                let cblk = unsafe { c_block_mut(cptr, ncols, q * q, i, j) };
                kernel::block_fma_with(opts.variant, cblk, ablk, b.block(k, j), q);
            }
        }
    }
    // One relaxed add per unit (not per block): th·tw C blocks each
    // accumulate z block FMAs of 2q³ FLOPs.
    let q = q as u64;
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

/// Mutable view of `C` block `(i, j)` through the shared `C` pointer.
///
/// # Safety
/// Block `(i, j)` must belong to the caller's unit — units partition the
/// `(i, j)` index grid ([`covers_each_block_once`], checked in debug
/// builds) and each unit is processed by exactly one task, so the slice
/// is never aliased. The offset is in bounds for `i < m`, `j < n`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::gemm_naive;
    use mmc_core::algorithms::all_algorithms;

    fn operands(m: u32, n: u32, z: u32, q: usize) -> (BlockMatrix, BlockMatrix) {
        (BlockMatrix::pseudo_random(m, z, q, 11), BlockMatrix::pseudo_random(z, n, q, 22))
    }

    /// `c += a × b` through variant `v`.
    fn accumulate<T: Element>(
        c: &mut BlockMatrixOf<T>,
        a: &BlockMatrixOf<T>,
        b: &BlockMatrixOf<T>,
        tiling: Tiling,
        v: KernelVariant,
    ) {
        assert!(gemm_into(c, a, b, tiling, &GemmOpts { variant: v, cancel: None }));
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

    /// Every CPU-supported kernel variant, through both the parallel
    /// block path and the blockwise naive oracle, computes the same
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
                let c = gemm_parallel_with_kernel(&a, &b, tiling, v);
                assert!(
                    c.max_abs_diff(&oracle) < 1e-10,
                    "variant {v} tiling {tiling:?} diverges: {}",
                    c.max_abs_diff(&oracle)
                );
            }
        }
    }

    /// Does variant `v` round like the [`gemm_naive`] oracle, which runs
    /// the dispatched kernel? SIMD variants are fused end to end and the
    /// scalar block kernel is unfused, so `v` matches the oracle bitwise
    /// exactly when it is fused iff the dispatched variant is (with
    /// `MMC_KERNEL=scalar` the scalar variant is the bitwise one).
    fn rounds_like_oracle(v: KernelVariant) -> bool {
        v.is_simd() == kernel::variant().is_simd()
    }

    /// Ragged shapes for every variant: a `k` extent the tile depth does
    /// not divide (`tile_k = 4`, `z = 10`) and block sides that are not
    /// multiples of the register tile (`MR = 6`, `NR = 8` for f64), so
    /// every edge of the block kernels is exercised. A variant that rounds like the oracle must match it
    /// bitwise; fused against unfused gets a tolerance.
    #[test]
    fn ragged_shapes_match_oracle_for_every_variant() {
        for q in [5usize, 9, 13] {
            let (a, b) = operands(6, 7, 10, q);
            let oracle = gemm_naive(&a, &b);
            for v in kernel::variants_available() {
                let tiling = Tiling { tile_m: 4, tile_n: 5, tile_k: 4 };
                let c = gemm_parallel_with_kernel(&a, &b, tiling, v);
                if rounds_like_oracle(v) {
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

    /// Accumulating a product one `k` panel at a time is bit-identical to
    /// the one-shot parallel product for every variant — the invariant the
    /// out-of-core executor's streaming loop relies on.
    #[test]
    fn panelwise_accumulation_is_bit_identical_to_one_shot() {
        for q in [4usize, 5] {
            let (a, b) = operands(6, 5, 9, q);
            for v in kernel::variants_available() {
                let tiling = Tiling { tile_m: 3, tile_n: 4, tile_k: 2 };
                let oracle = gemm_parallel_with_kernel(&a, &b, tiling, v);
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
            let c = gemm_parallel_with_kernel(
                &a32,
                &b32,
                Tiling { tile_m: 3, tile_n: 2, tile_k: 2 },
                v,
            );
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
        let (c, run) = crate::tracing::run_traced(&a, &b, tiling, kernel::variant());
        assert_eq!(c, oracle);
        if !span::enabled() {
            return;
        }
        // One tile span per work unit: the 3×3 tiles, cut into µ×µ
        // sub-tiles; units partition the 9×7 grid.
        let tiles: Vec<_> = run.spans.iter().filter(|s| s.kind == SpanKind::Tile).collect();
        let units = call_units::<f64>(9, 7, 4, tiling).len();
        assert!(units >= 3 * 3);
        assert_eq!(tiles.len(), units);
        let covered: u64 = tiles.iter().map(|s| s.args[1] as u64 * s.args[3] as u64).sum();
        assert_eq!(covered, 9 * 7);
        assert!(tiles.iter().all(|s| s.start_ns >= run.epoch_ns));
        // Sorted by start time.
        assert!(tiles.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// For any ragged grid, tiling and `µ ≥ 1`, the units cover every
        /// `C` block exactly once and none is larger than `µ×µ` or its
        /// tile — the disjointness `SendPtr` relies on.
        #[test]
        fn block_units_partition_every_c_block_exactly_once(
            m in 1u32..60,
            n in 1u32..60,
            tm in 1u32..40,
            tn in 1u32..40,
            mu in 1u32..20,
        ) {
            let tiling = Tiling { tile_m: tm, tile_n: tn, tile_k: 1 };
            let units = block_units(m, n, tiling, mu);
            proptest::prop_assert!(covers_each_block_once(m, n, &units));
            for &(_, h, _, w) in &units {
                proptest::prop_assert!(h <= mu.min(tm) && w <= mu.min(tn));
            }
            let area = |u: &Unit| u.1 as u64 * u.3 as u64;
            proptest::prop_assert!(units.windows(2).all(|w| area(&w[0]) >= area(&w[1])));
        }
    }

    #[test]
    fn small_grids_shrink_mu_so_every_thread_gets_a_unit() {
        // Big grids keep the host µ.
        assert_eq!(cap_mu(40, 40, 7, 2), 7);
        assert_eq!(cap_mu(16, 16, 7, 2), 7);
        // A 6×6 grid on two threads: ⌊√18⌋ = 4, so 2×2 units of 3×3.
        assert_eq!(cap_mu(6, 6, 7, 2), 4);
        let whole = Tiling { tile_m: 6, tile_n: 6, tile_k: 1 };
        assert_eq!(block_units(6, 6, whole, 4).len(), 4);
        // One thread, or fewer blocks than threads, never goes below 1.
        assert_eq!(cap_mu(6, 6, 7, 1), 6);
        assert_eq!(cap_mu(1, 1, 7, 4), 1);
        assert_eq!(cap_mu(3, 3, 0, 1), 1);
        for (m, n, threads) in [(6, 6, 2), (3, 5, 4), (9, 2, 3), (2, 2, 4), (24, 7, 8)] {
            let whole = Tiling { tile_m: m, tile_n: n, tile_k: 1 };
            let units = block_units(m, n, whole, cap_mu(m, n, 64, threads));
            assert!(units.len() >= threads.min((m * n) as usize), "{m}x{n} on {threads}");
        }
    }

    #[test]
    fn coverage_check_rejects_gaps_overlaps_and_overhangs() {
        assert!(covers_each_block_once(2, 2, &[(0, 2, 0, 2)]));
        assert!(!covers_each_block_once(2, 2, &[(0, 1, 0, 2)]), "gap");
        assert!(!covers_each_block_once(2, 2, &[(0, 2, 0, 2), (1, 1, 1, 1)]), "overlap");
        assert!(!covers_each_block_once(2, 2, &[(0, 2, 0, 3)]), "overhang");
        assert!(!covers_each_block_once(2, 2, &[(0, 2, 0, 2), (0, 0, 0, 1)]), "empty unit");
    }

    #[test]
    fn tiles_cut_into_near_equal_parts_longest_first() {
        let parts = |len, mu| near_equal_parts(0, len, mu).map(|p| p.1).collect::<Vec<_>>();
        assert_eq!(parts(40, 7), [7, 7, 7, 7, 6, 6]);
        assert_eq!(parts(16, 7), [6, 5, 5]);
        assert_eq!(parts(7, 7), [7]);
        assert_eq!(parts(3, 7), [3]);
        assert_eq!(parts(5, 1), [1, 1, 1, 1, 1]);
        // A 16×16 tile at µ = 7 is nine units, 6×6 first.
        let whole = Tiling { tile_m: 16, tile_n: 16, tile_k: 1 };
        let units = block_units(16, 16, whole, 7);
        assert_eq!(units.len(), 9);
        assert_eq!(units[0], (0, 6, 0, 6));
        // µ = 0 is treated as 1 rather than dividing by zero.
        assert_eq!(block_units(2, 3, whole, 0).len(), 6);
    }

    /// Claim order moves between threads, never the per-element `k` order:
    /// a four-thread run is bit-identical to the single-thread pool for a
    /// one-tile product and a ragged panel accumulation, in f64 and f32.
    #[test]
    fn split_runs_are_bit_identical_to_a_single_thread_run() {
        fn check<T: Element>() {
            let four = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
            let single = one_thread();
            let tiling = Tiling { tile_m: 16, tile_n: 16, tile_k: 1 };
            for v in kernel::variants_available() {
                // One 16×16-block tile, cut into µ×µ units.
                let a = BlockMatrixOf::<T>::pseudo_random(16, 16, 8, 41);
                let b = BlockMatrixOf::<T>::pseudo_random(16, 16, 8, 42);
                let one = single.install(|| gemm_parallel_with_kernel(&a, &b, tiling, v));
                let split = four.install(|| gemm_parallel_with_kernel(&a, &b, tiling, v));
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
        let cancelled = GemmOpts { cancel: Some(&token), ..GemmOpts::dispatched() };
        let mut c = BlockMatrix::zeros(6, 6, 4);
        assert!(!gemm_into(&mut c, &a, &b, tiling, &cancelled));
        // The same rayon pool immediately serves the next (live) job.
        let live = CancelToken::new();
        let opts = GemmOpts { cancel: Some(&live), ..GemmOpts::dispatched() };
        let mut c = BlockMatrix::zeros(6, 6, 4);
        assert!(gemm_into(&mut c, &a, &b, tiling, &opts), "uncancelled job completes");
        assert_eq!(c, gemm_naive(&a, &b));
    }

    #[test]
    fn uncancelled_cancellable_run_is_bit_identical_to_plain_run() {
        let (a, b) = operands(7, 5, 6, 4);
        let tiling = Tiling { tile_m: 3, tile_n: 2, tile_k: 2 };
        for v in kernel::variants_available() {
            let token = CancelToken::new();
            let mut c = BlockMatrix::zeros(7, 5, 4);
            assert!(gemm_into(
                &mut c,
                &a,
                &b,
                tiling,
                &GemmOpts { variant: v, cancel: Some(&token) }
            ));
            assert_eq!(c, gemm_parallel_with_kernel(&a, &b, tiling, v), "variant {v}");
        }
    }
}
