//! Element-type abstraction for the kernel stack.
//!
//! Everything below [`super::block_fma_with`] — packing layouts, the
//! packed-panel driver, the register micro-kernels — is generic over an
//! [`Element`]: the scalar type flowing through the product. Two
//! implementations exist, `f64` (the default everywhere) and `f32`,
//! whose register tile is twice as wide for the same vector registers.
//!
//! The trait pins the pieces that differ per type:
//!
//! * the register-tile shape [`Element::MR`]`×`[`Element::NR`] the
//!   packed layouts and micro-kernels agree on;
//! * the arch micro-kernel dispatch ([`Element::micro_full`]) and the
//!   unpacked block kernel ([`Element::block_fma`]);
//! * the per-type thread-local packing arena ([`Element::with_arena`] —
//!   `thread_local!` statics cannot be generic, so each impl owns its
//!   slot).
//!
//! The determinism contract of [`super`] holds per element type: for a
//! fixed variant, every path accumulates each `C` element in ascending
//! `k`, fused for SIMD variants and unfused for the scalar one, so
//! executors of the same type and variant stay bit-identical.

use super::pack::PackArena;
use super::{scalar, KernelVariant};
use std::cell::RefCell;

/// A scalar type the kernel stack can multiply: `f64` or `f32`.
pub trait Element:
    Copy
    + Send
    + Sync
    + PartialEq
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Mul<Output = Self>
    + 'static
{
    /// Rows of `C` held in registers by this type's SIMD micro-kernels.
    const MR: usize;
    /// Columns of `C` held in registers by this type's SIMD micro-kernels.
    const NR: usize;
    /// Stable lowercase name (`"f64"` / `"f32"`), used in bench records.
    const NAME: &'static str;
    /// Additive identity (packing pads ragged edges with it).
    const ZERO: Self;

    /// Lossy conversion from `f64` (exact for `f64` itself).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64` (for diffs and diagnostics).
    fn to_f64(self) -> f64;
    /// Fused multiply-add `self × mul + add` (one rounding).
    fn mul_add(self, mul: Self, add: Self) -> Self;

    /// Run the variant's full `MR×NR` vector kernel on one register tile
    /// of packed panels, returning `false` when this type has no vector
    /// kernel for `v` on this arch (the caller then takes the fused
    /// scalar tile path, which rounds identically).
    fn micro_full(
        v: KernelVariant,
        kc: usize,
        ap: &[Self],
        bp: &[Self],
        c: &mut [Self],
        ldc: usize,
    ) -> bool;

    /// `c += a × b` on unpacked row-major `q×q` blocks through variant
    /// `v` — the entry the schedule replayer and the naive oracle use.
    fn block_fma(v: KernelVariant, c: &mut [Self], a: &[Self], b: &[Self], q: usize);

    /// Run `f` with this thread's packing arena for this element type.
    fn with_arena<R>(f: impl FnOnce(&mut PackArena<Self>) -> R) -> R;
}

impl Element for f64 {
    // 6×8: twelve 4-wide YMM accumulators on AVX2, twenty-four 2-wide
    // NEON accumulators — deep enough to hide FMA latency while leaving
    // the load ports under the FMA throughput (see `super::x86`).
    const MR: usize = 6;
    const NR: usize = 8;
    const NAME: &'static str = "f64";
    const ZERO: f64 = 0.0;

    #[inline(always)]
    fn from_f64(x: f64) -> f64 {
        x
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn mul_add(self, mul: f64, add: f64) -> f64 {
        f64::mul_add(self, mul, add)
    }

    #[inline]
    fn micro_full(
        v: KernelVariant,
        kc: usize,
        ap: &[f64],
        bp: &[f64],
        c: &mut [f64],
        ldc: usize,
    ) -> bool {
        debug_assert!(ap.len() >= kc * Self::MR && bp.len() >= kc * Self::NR);
        debug_assert!(c.len() >= (Self::MR - 1) * ldc + Self::NR);
        match v {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: availability checked; panel/tile sizes checked by
            // the debug_asserts above and the packed driver.
            KernelVariant::Avx2Fma if v.is_available() => {
                unsafe {
                    super::x86::micro_6x8_f64(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), ldc)
                };
                true
            }
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64; sizes checked as above.
            KernelVariant::Neon => {
                unsafe {
                    super::neon::micro_6x8_f64(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), ldc)
                };
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn block_fma(v: KernelVariant, c: &mut [f64], a: &[f64], b: &[f64], q: usize) {
        match v {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `is_available` verified AVX2+FMA; slice lengths
            // checked by the caller's debug_assert and kernel indexing.
            KernelVariant::Avx2Fma if v.is_available() => unsafe {
                super::x86::block_fma_avx2(c, a, b, q)
            },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            KernelVariant::Neon if v.is_available() => unsafe {
                super::neon::block_fma_neon(c, a, b, q)
            },
            _ => scalar::block_fma_scalar(c, a, b, q),
        }
    }

    fn with_arena<R>(f: impl FnOnce(&mut PackArena<f64>) -> R) -> R {
        thread_local! {
            static ARENA_F64: RefCell<PackArena<f64>> = const { RefCell::new(PackArena::new()) };
        }
        ARENA_F64.with(|cell| f(&mut cell.borrow_mut()))
    }
}

impl Element for f32 {
    // Same six rows as f64, twice the columns: the vector registers are
    // the same width, each lane holds twice as many f32s.
    const MR: usize = 6;
    const NR: usize = 16;
    const NAME: &'static str = "f32";
    const ZERO: f32 = 0.0;

    #[inline(always)]
    fn from_f64(x: f64) -> f32 {
        x as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    #[inline(always)]
    fn mul_add(self, mul: f32, add: f32) -> f32 {
        f32::mul_add(self, mul, add)
    }

    #[inline]
    fn micro_full(
        v: KernelVariant,
        kc: usize,
        ap: &[f32],
        bp: &[f32],
        c: &mut [f32],
        ldc: usize,
    ) -> bool {
        debug_assert!(ap.len() >= kc * Self::MR && bp.len() >= kc * Self::NR);
        debug_assert!(c.len() >= (Self::MR - 1) * ldc + Self::NR);
        match v {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: availability checked; sizes checked as for f64.
            KernelVariant::Avx2Fma if v.is_available() => {
                unsafe {
                    super::x86::micro_6x16_f32(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), ldc)
                };
                true
            }
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64; sizes checked as above.
            KernelVariant::Neon => {
                unsafe {
                    super::neon::micro_6x16_f32(kc, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), ldc)
                };
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn block_fma(v: KernelVariant, c: &mut [f32], a: &[f32], b: &[f32], q: usize) {
        if v.is_simd() && v.is_available() {
            // Fused whole-block scalar loop: the same rounding contract
            // (one fused multiply-add per element per ascending `k`) as
            // the f32 vector kernels, so blockwise and packed paths of a
            // SIMD variant stay bit-identical without a dedicated
            // unpacked f32 vector kernel.
            super::edge_fused(c, a, b, q, (0, q, 0, q));
        } else {
            scalar::block_fma_scalar(c, a, b, q);
        }
    }

    fn with_arena<R>(f: impl FnOnce(&mut PackArena<f32>) -> R) -> R {
        thread_local! {
            static ARENA_F32: RefCell<PackArena<f32>> = const { RefCell::new(PackArena::new()) };
        }
        ARENA_F32.with(|cell| f(&mut cell.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_shapes_share_rows_and_double_width() {
        assert_eq!(<f64 as Element>::MR, <f32 as Element>::MR);
        assert_eq!(<f32 as Element>::NR, 2 * <f64 as Element>::NR);
        assert_eq!(<f64 as Element>::NAME, "f64");
        assert_eq!(<f32 as Element>::NAME, "f32");
    }

    #[test]
    fn conversions_round_trip_exactly_for_f64() {
        let x = 0.123456789f64;
        assert_eq!(f64::from_f64(x), x);
        assert_eq!(x.to_f64(), x);
        assert_eq!(f32::from_f64(0.5).to_f64(), 0.5);
    }

    #[test]
    fn arenas_are_per_type_and_per_thread() {
        let cap = f64::with_arena(|ar| {
            ar.a.resize(777, 0.0);
            ar.a.capacity()
        });
        assert_eq!(f64::with_arena(|ar| ar.a.capacity()), cap);
        // The f32 arena is a distinct slot.
        assert_eq!(f32::with_arena(|ar| ar.a.len()), 0);
    }
}
