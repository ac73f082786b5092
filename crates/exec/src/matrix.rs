//! Block-major dense matrix storage.
//!
//! A [`BlockMatrixOf<T>`] stores an `R·q × C·q` matrix of elements as
//! `R × C` square `q×q` blocks, each block contiguous in memory
//! (row-major inside the block, blocks laid out row-major). This is the
//! storage layout the paper's algorithms assume — "the atomic elements
//! that we manipulate are not matrix coefficients but rather square
//! blocks of coefficients of size q × q" — and it makes every
//! block-level operation a dense cache-friendly kernel call.
//!
//! The element type defaults to `f64`; [`BlockMatrix`] is the `f64`
//! alias the rest of the workspace uses. `f32` matrices flow through the
//! same executors via the [`Element`] abstraction.

use crate::kernel::elem::Element;
use rayon::prelude::*;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// A dense matrix stored as square `q×q` blocks of `T`.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockMatrixOf<T = f64> {
    rows: u32,
    cols: u32,
    q: usize,
    data: Vec<T>,
}

/// The default `f64` block matrix (the type every schedule executor and
/// downstream crate works with).
pub type BlockMatrix = BlockMatrixOf<f64>;

impl<T: Element> BlockMatrixOf<T> {
    /// An all-zero matrix of `rows × cols` blocks of side `q`.
    #[must_use]
    pub fn zeros(rows: u32, cols: u32, q: usize) -> BlockMatrixOf<T> {
        assert!(rows > 0 && cols > 0, "matrix must have at least one block");
        assert!(q > 0, "block side must be positive");
        let len = rows as usize * cols as usize * q * q;
        BlockMatrixOf { rows, cols, q, data: vec![T::ZERO; len] }
    }

    /// Build from a function of *global element* coordinates
    /// `(row, col) ∈ [0, rows·q) × [0, cols·q)`.
    #[must_use]
    pub fn from_fn(
        rows: u32,
        cols: u32,
        q: usize,
        mut f: impl FnMut(usize, usize) -> T,
    ) -> BlockMatrixOf<T> {
        let mut m = BlockMatrixOf::zeros(rows, cols, q);
        for bi in 0..rows {
            for bj in 0..cols {
                let base_i = bi as usize * q;
                let base_j = bj as usize * q;
                let blk = m.block_mut(bi, bj);
                for i in 0..q {
                    for j in 0..q {
                        blk[i * q + j] = f(base_i + i, base_j + j);
                    }
                }
            }
        }
        m
    }

    /// Filled with a deterministic pseudo-random pattern seeded by `seed`
    /// (splitmix64 over the element index — reproducible without pulling a
    /// RNG into the library API). The stream is generated in `f64` and
    /// narrowed via [`Element::from_f64`], so every element type draws
    /// from the same underlying pattern (and `f64` matrices are
    /// bit-stable across releases).
    ///
    /// Element `(i, j)` hashes `(i << 32 | j) · M` and maps the result to
    /// `[-1, 1)`. The matrix is generated in parallel on the rayon pool
    /// through the fastest [`StreamPath`] this CPU has (see
    /// [`extend_pseudo_random`]); every path and thread count gives the
    /// same stream, bit for bit.
    #[must_use]
    pub fn pseudo_random(rows: u32, cols: u32, q: usize, seed: u64) -> BlockMatrixOf<T> {
        let blocks = rows as usize * cols as usize;
        let mut data = Vec::new();
        extend_pseudo_random(&mut data, cols, q, 0..blocks, seed, StreamPath::detected());
        BlockMatrixOf::from_vec(rows, cols, q, data)
    }

    /// Wrap an existing block-major buffer (row-major `q×q` blocks, blocks
    /// laid out row-major) as a matrix of `rows × cols` blocks. The
    /// inverse of [`BlockMatrixOf::into_vec`]; together they let streaming
    /// executors recycle one allocation across many panel shapes.
    ///
    /// # Panics
    /// Panics if `data.len() != rows · cols · q²` or any dimension is 0.
    #[must_use]
    pub fn from_vec(rows: u32, cols: u32, q: usize, data: Vec<T>) -> BlockMatrixOf<T> {
        assert!(rows > 0 && cols > 0, "matrix must have at least one block");
        assert!(q > 0, "block side must be positive");
        assert_eq!(
            data.len(),
            rows as usize * cols as usize * q * q,
            "buffer length must match {rows}x{cols} blocks of side {q}"
        );
        BlockMatrixOf { rows, cols, q, data }
    }

    /// Consume the matrix, returning its block-major storage (so the
    /// allocation can be resized and re-wrapped with
    /// [`BlockMatrixOf::from_vec`]).
    #[must_use]
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Block rows.
    #[inline]
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Block columns.
    #[inline]
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Block side `q` (elements).
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// Element rows (`rows · q`).
    pub fn elem_rows(&self) -> usize {
        self.rows as usize * self.q
    }

    /// Element columns (`cols · q`).
    pub fn elem_cols(&self) -> usize {
        self.cols as usize * self.q
    }

    #[inline]
    fn offset(&self, bi: u32, bj: u32) -> usize {
        debug_assert!(bi < self.rows && bj < self.cols, "block ({bi},{bj}) out of bounds");
        (bi as usize * self.cols as usize + bj as usize) * self.q * self.q
    }

    /// The `q²` elements of block `(bi, bj)`, row-major.
    #[inline]
    pub fn block(&self, bi: u32, bj: u32) -> &[T] {
        let o = self.offset(bi, bj);
        &self.data[o..o + self.q * self.q]
    }

    /// Mutable access to block `(bi, bj)`.
    #[inline]
    pub fn block_mut(&mut self, bi: u32, bj: u32) -> &mut [T] {
        let o = self.offset(bi, bj);
        let q2 = self.q * self.q;
        &mut self.data[o..o + q2]
    }

    /// Read one element by global coordinates.
    pub fn get(&self, i: usize, j: usize) -> T {
        let (bi, ii) = ((i / self.q) as u32, i % self.q);
        let (bj, jj) = ((j / self.q) as u32, j % self.q);
        self.block(bi, bj)[ii * self.q + jj]
    }

    /// Write one element by global coordinates.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let q = self.q;
        let (bi, ii) = ((i / q) as u32, i % q);
        let (bj, jj) = ((j / q) as u32, j % q);
        self.block_mut(bi, bj)[ii * q + jj] = v;
    }

    /// Raw storage (block-major), for executors that partition it.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Raw mutable storage (block-major).
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Maximum absolute element-wise difference against `other`, in `f64`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &BlockMatrixOf<T>) -> f64 {
        assert_eq!((self.rows, self.cols, self.q), (other.rows, other.cols, other.q));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(x, y)| (x.to_f64() - y.to_f64()).abs())
            .fold(0.0, f64::max)
    }
}

/// splitmix64's increment (the golden ratio in 64 bits); it also spreads
/// the element coordinates of the operand stream.
const GOLDEN: u64 = 0x9E3779B97F4A7C15;

/// Elements one generation task writes at least (256 KiB of `f64`), so
/// small operands skip the pool dispatch.
const MIN_TASK_ELEMS: usize = 1 << 15;

/// The routine that writes each block of the operand stream
/// ([`BlockMatrixOf::pseudo_random`]). All paths write the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamPath {
    /// The per-element formula, one element at a time (every target).
    Scalar,
    /// Eight AVX-512DQ lanes of the same finalizer (`vpmullq`,
    /// `vcvtuqq2pd`); the `q % 8` tail of each row runs the scalar
    /// formula.
    Avx512Dq,
}

impl StreamPath {
    /// Every path, scalar first.
    pub const ALL: [StreamPath; 2] = [StreamPath::Scalar, StreamPath::Avx512Dq];

    /// Stable lowercase name, used in bench records.
    pub fn name(self) -> &'static str {
        match self {
            StreamPath::Scalar => "scalar",
            StreamPath::Avx512Dq => "avx512dq",
        }
    }

    /// Whether the current CPU can run this path.
    pub fn is_available(self) -> bool {
        match self {
            StreamPath::Scalar => true,
            StreamPath::Avx512Dq => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx512f")
                        && std::arch::is_x86_feature_detected!("avx512dq")
                }
                #[cfg(not(target_arch = "x86_64"))]
                false
            }
        }
    }

    /// The fastest path this CPU runs, picked once per process.
    pub fn detected() -> StreamPath {
        static PATH: OnceLock<StreamPath> = OnceLock::new();
        *PATH.get_or_init(|| {
            if StreamPath::Avx512Dq.is_available() {
                StreamPath::Avx512Dq
            } else {
                StreamPath::Scalar
            }
        })
    }
}

/// Append blocks `blocks` of the operand stream for `seed` to `out`:
/// block indices count row-major over a matrix `cols` blocks wide with
/// side `q`, so `0..rows·cols` is the whole of
/// [`BlockMatrixOf::pseudo_random`] and `bi·cols..(bi+1)·cols` is its
/// block row `bi`.
///
/// The blocks are split into contiguous runs, one rayon task each, and
/// every task writes its own run straight into `out`'s spare capacity
/// (no zero fill first), one block per `path` call.
///
/// # Panics
/// Panics if `cols` or `q` is 0, or `path` is not available on this CPU.
pub fn extend_pseudo_random<T: Element>(
    out: &mut Vec<T>,
    cols: u32,
    q: usize,
    blocks: Range<usize>,
    seed: u64,
    path: StreamPath,
) {
    assert!(cols > 0 && q > 0, "matrix must have at least one column and a positive block side");
    assert!(path.is_available(), "stream path {} is not available on this CPU", path.name());
    let q2 = q * q;
    let len = blocks.len() * q2;
    out.reserve_exact(len);
    let spare = &mut out.spare_capacity_mut()[..len];
    let threads = rayon::current_num_threads();
    let per_task = blocks.len().div_ceil(4 * threads).max(MIN_TASK_ELEMS.div_ceil(q2));
    // One lock per task, each taken once by the worker that claims it:
    // the safe way to hand disjoint `&mut` runs to pool closures.
    let runs: Vec<Mutex<&mut [MaybeUninit<T>]>> =
        spare.chunks_mut(per_task * q2).map(Mutex::new).collect();
    (0..runs.len()).into_par_iter().for_each(|t| {
        let mut run = runs[t].lock().expect("each run is locked by one task only");
        fill_blocks(&mut run, cols as usize, q, blocks.start + t * per_task, seed, path);
    });
    // SAFETY: the runs partition the first `len` spare elements and every
    // task wrote all of its run: each run is whole blocks, and
    // `fill_stream` of the sealed `Element` impls writes every element
    // of each. A panicking task unwinds past this line.
    unsafe { out.set_len(out.len() + len) };
}

/// Write whole blocks of the stream into `dst`, starting at block index
/// `first` of a matrix `cols` blocks wide.
fn fill_blocks<T: Element>(
    dst: &mut [MaybeUninit<T>],
    cols: usize,
    q: usize,
    first: usize,
    seed: u64,
    path: StreamPath,
) {
    for (k, block) in dst.chunks_exact_mut(q * q).enumerate() {
        let (bi, bj) = ((first + k) / cols, (first + k) % cols);
        T::fill_stream(path, block, q, seed, bi * q, bj * q);
    }
}

/// The stream's per-element formula over a `width`-wide window: element
/// `(row + r, col + t)` into `out[r·width + t]`.
///
/// `(i·2³² | j)·M = (i·2³²)·M + j·M (mod 2⁶⁴)` since `j < 2³²`, so each
/// row pays one multiply and each element one add.
pub(crate) fn stream_scalar<T: Element>(
    out: &mut [MaybeUninit<T>],
    width: usize,
    seed: u64,
    row: usize,
    col: usize,
) {
    for (r, segment) in out.chunks_exact_mut(width).enumerate() {
        let row_mul = (((row + r) as u64) << 32).wrapping_mul(GOLDEN);
        let mut col_mul = (col as u64).wrapping_mul(GOLDEN);
        for o in segment {
            o.write(T::from_f64(finalize(seed ^ row_mul.wrapping_add(col_mul))));
            col_mul = col_mul.wrapping_add(GOLDEN);
        }
    }
}

/// splitmix64's finalizer, mapped to `[-1, 1)` to keep products
/// well-conditioned.
#[inline(always)]
fn finalize(mut x: u64) -> f64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// The AVX-512DQ stream routines.
///
/// They compute [`finalize`] exactly: `x >> 11 < 2⁵³` converts to `f64`
/// without rounding, the scale by `2⁻⁵²` is exact, and the `− 1.0` is the
/// same single rounding; `f32` narrows round-to-nearest like `as f32`.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::{stream_scalar, GOLDEN};
    use core::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// `u64` lanes per ZMM register.
    const LANES: usize = 8;

    /// [`super::finalize`] on eight keys.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn finalize8(seed: __m512i, keys: __m512i) -> __m512d {
        let mut x = _mm512_xor_si512(seed, keys);
        x = _mm512_xor_si512(x, _mm512_srli_epi64::<30>(x));
        x = _mm512_mullo_epi64(x, _mm512_set1_epi64(0xBF58476D1CE4E5B9u64 as i64));
        x = _mm512_xor_si512(x, _mm512_srli_epi64::<27>(x));
        x = _mm512_mullo_epi64(x, _mm512_set1_epi64(0x94D049BB133111EBu64 as i64));
        x = _mm512_xor_si512(x, _mm512_srli_epi64::<31>(x));
        let v = _mm512_cvtepu64_pd(_mm512_srli_epi64::<11>(x));
        let scale = _mm512_set1_pd(1.0 / (1u64 << 52) as f64);
        _mm512_sub_pd(_mm512_mul_pd(v, scale), _mm512_set1_pd(1.0))
    }

    /// The stream over a `width`-wide window (see [`stream_scalar`]):
    /// `store` writes each full 8-lane chunk of a row, the scalar formula
    /// the `width % 8` tail.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn window<T: crate::Element>(
        out: &mut [MaybeUninit<T>],
        width: usize,
        seed: u64,
        row: usize,
        col: usize,
        store: impl Fn(&mut [MaybeUninit<T>], __m512d),
    ) {
        let row_mul = ((row as u64) << 32).wrapping_mul(GOLDEN);
        let key = |lane: u64| row_mul.wrapping_add((col as u64 + lane).wrapping_mul(GOLDEN)) as i64;
        let mut row_keys =
            _mm512_setr_epi64(key(0), key(1), key(2), key(3), key(4), key(5), key(6), key(7));
        let lane_step = _mm512_set1_epi64(GOLDEN.wrapping_mul(LANES as u64) as i64);
        let row_step = _mm512_set1_epi64((1u64 << 32).wrapping_mul(GOLDEN) as i64);
        let seed_v = _mm512_set1_epi64(seed as i64);
        let full = width / LANES * LANES;
        for (r, segment) in out.chunks_exact_mut(width).enumerate() {
            let (body, tail) = segment.split_at_mut(full);
            let mut keys = row_keys;
            for chunk in body.chunks_exact_mut(LANES) {
                store(chunk, finalize8(seed_v, keys));
                keys = _mm512_add_epi64(keys, lane_step);
            }
            if !tail.is_empty() {
                stream_scalar(tail, tail.len(), seed, row + r, col + full);
            }
            row_keys = _mm512_add_epi64(row_keys, row_step);
        }
    }

    /// The `f64` stream over a `width`-wide window.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F and AVX-512DQ are available.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) unsafe fn stream_f64(
        out: &mut [MaybeUninit<f64>],
        width: usize,
        seed: u64,
        row: usize,
        col: usize,
    ) {
        window(out, width, seed, row, col, |chunk, v| {
            // SAFETY: `chunk` holds eight elements.
            unsafe { _mm512_storeu_pd(chunk.as_mut_ptr().cast(), v) }
        });
    }

    /// The `f32` stream over a `width`-wide window.
    ///
    /// # Safety
    /// Caller must ensure AVX-512F and AVX-512DQ are available.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(crate) unsafe fn stream_f32(
        out: &mut [MaybeUninit<f32>],
        width: usize,
        seed: u64,
        row: usize,
        col: usize,
    ) {
        window(out, width, seed, row, col, |chunk, v| {
            // SAFETY: `chunk` holds eight elements.
            unsafe { _mm256_storeu_ps(chunk.as_mut_ptr().cast(), _mm512_cvtpd_ps(v)) }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_layout_is_contiguous_row_major() {
        let m = BlockMatrix::from_fn(2, 3, 2, |i, j| (i * 100 + j) as f64);
        // Block (1,2) covers elements rows 2..4, cols 4..6.
        let b = m.block(1, 2);
        assert_eq!(b, &[204.0, 205.0, 304.0, 305.0]);
        assert_eq!(m.get(3, 5), 305.0);
    }

    #[test]
    fn set_get_round_trip() {
        let mut m = BlockMatrix::zeros(3, 3, 4);
        m.set(7, 11, 42.5);
        assert_eq!(m.get(7, 11), 42.5);
        assert_eq!(m.block(1, 2)[3 * 4 + 3], 42.5);
    }

    /// The hoisted-multiply fill is bit-identical to the original
    /// per-element splitmix64 formula, so seeds keep producing the same
    /// matrices across releases.
    #[test]
    fn pseudo_random_matches_per_element_formula() {
        let m = BlockMatrix::pseudo_random(3, 2, 5, 0xDEADBEEF);
        let want = BlockMatrix::from_fn(3, 2, 5, |i, j| {
            let mut x =
                0xDEADBEEFu64 ^ ((i as u64) << 32 | j as u64).wrapping_mul(0x9E3779B97F4A7C15);
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58476D1CE4E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D049BB133111EB);
            x ^= x >> 31;
            (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        });
        assert_eq!(m, want);
    }

    #[test]
    fn pseudo_random_is_deterministic_and_bounded() {
        let a = BlockMatrix::pseudo_random(2, 2, 8, 7);
        let b = BlockMatrix::pseudo_random(2, 2, 8, 7);
        assert_eq!(a, b);
        let c = BlockMatrix::pseudo_random(2, 2, 8, 8);
        assert!(a.max_abs_diff(&c) > 0.0, "different seeds differ");
        assert!(a.data().iter().all(|x| (-1.0..1.0).contains(x)));
    }

    /// The f32 fill narrows the f64 stream element-by-element, so both
    /// element types see the same underlying pattern.
    #[test]
    fn f32_pseudo_random_narrows_the_f64_stream() {
        let a64 = BlockMatrix::pseudo_random(2, 3, 5, 42);
        let a32 = BlockMatrixOf::<f32>::pseudo_random(2, 3, 5, 42);
        for (x64, x32) in a64.data().iter().zip(a32.data()) {
            assert_eq!(*x32, *x64 as f32);
        }
    }

    /// The per-element formula, written out independently of the
    /// generator (the same oracle as
    /// `pseudo_random_matches_per_element_formula`).
    fn formula(seed: u64, i: usize, j: usize) -> f64 {
        let mut x = seed ^ ((i as u64) << 32 | j as u64).wrapping_mul(0x9E3779B97F4A7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58476D1CE4E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D049BB133111EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Blocks `first..first + count` of a `cols`-wide stream, through
    /// `path`, against the formula (as `f64` and as narrowed `f32`).
    fn check_run(path: StreamPath, cols: u32, q: usize, first: usize, count: usize, seed: u64) {
        let mut got64: Vec<f64> = Vec::new();
        let mut got32: Vec<f32> = Vec::new();
        extend_pseudo_random(&mut got64, cols, q, first..first + count, seed, path);
        extend_pseudo_random(&mut got32, cols, q, first..first + count, seed, path);
        assert_eq!((got64.len(), got32.len()), (count * q * q, count * q * q));
        let blocks = got64.chunks_exact(q * q).zip(got32.chunks_exact(q * q));
        for (k, (b64, b32)) in blocks.enumerate() {
            let (bi, bj) = ((first + k) / cols as usize, (first + k) % cols as usize);
            for (e, (x64, x32)) in b64.iter().zip(b32).enumerate() {
                let want = formula(seed, bi * q + e / q, bj * q + e % q);
                assert_eq!(x64.to_bits(), want.to_bits(), "{path:?} f64 q={q} block {k} elem {e}");
                assert_eq!(x32.to_bits(), (want as f32).to_bits(), "{path:?} f32 q={q} elem {e}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Every stream path writes the per-element formula bit for bit,
        /// for every lane-tail length (`q` in `1..=70`), seed and block
        /// offset. The scalar path runs on every host; the vector path
        /// wherever the CPU has it.
        #[test]
        fn stream_paths_match_the_per_element_formula(
            seed in proptest::prelude::any::<u64>(),
            cols in 1u32..10,
            first in 0usize..100_000,
            count in 1usize..4,
        ) {
            for path in StreamPath::ALL.into_iter().filter(|p| p.is_available()) {
                for q in 1..=70 {
                    check_run(path, cols, q, first, count, seed);
                }
            }
        }
    }

    /// A one-thread pool and the default pool split the generation
    /// differently (inline vs several tasks) and give `==` matrices.
    #[test]
    fn generation_is_independent_of_the_thread_count() {
        fn both<T: Element>() {
            // 70 blocks of 40² elements: runs of 21 blocks with a ragged
            // last run, so several tasks on any pool with helpers.
            let many = BlockMatrixOf::<T>::pseudo_random(10, 7, 40, 0xFEED);
            let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
            let single = one.install(|| BlockMatrixOf::<T>::pseudo_random(10, 7, 40, 0xFEED));
            assert_eq!(many, single);
            let want = BlockMatrix::from_fn(10, 7, 40, |i, j| formula(0xFEED, i, j));
            for (x, w) in many.data().iter().zip(want.data()) {
                assert_eq!(*x, T::from_f64(*w));
            }
        }
        both::<f64>();
        both::<f32>();
    }

    #[test]
    fn dims() {
        let m = BlockMatrix::zeros(3, 5, 16);
        assert_eq!(m.elem_rows(), 48);
        assert_eq!(m.elem_cols(), 80);
        assert_eq!(m.data().len(), 3 * 5 * 256);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_blocks_rejected() {
        let _ = BlockMatrix::zeros(0, 1, 4);
    }

    #[test]
    fn from_vec_round_trips_without_reallocating() {
        let m = BlockMatrix::pseudo_random(3, 2, 4, 9);
        let copy = m.clone();
        let data = m.into_vec();
        let ptr = data.as_ptr();
        let back = BlockMatrix::from_vec(3, 2, 4, data);
        assert_eq!(back, copy);
        assert_eq!(back.data().as_ptr(), ptr, "round trip must reuse the allocation");
        // The same storage can be re-wrapped under a different shape.
        let mut data = back.into_vec();
        data.truncate(2 * 2 * 16);
        let reshaped = BlockMatrix::from_vec(2, 2, 4, data);
        assert_eq!(reshaped.block(0, 0), copy.block(0, 0));
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_rejects_mismatched_length() {
        let _ = BlockMatrix::from_vec(2, 2, 4, vec![0.0; 63]);
    }
}
