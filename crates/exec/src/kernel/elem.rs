//! Element-type abstraction for the kernel stack.
//!
//! Everything below [`super::block_fma_with`] — the register kernels and
//! the panel-packing layouts — is generic over an [`Element`]: the scalar
//! type flowing through the product. Two implementations exist, `f64`
//! (the default everywhere) and `f32`, whose register tile is twice as
//! wide for the same vector registers (the tile itself is
//! [`KernelVariant::tile`]).
//!
//! The trait pins the piece that differs per type: which arch kernel
//! [`Element::block_fma`] dispatches to for each variant.
//!
//! The determinism contract of [`super`] holds per element type: for a
//! fixed variant, every path accumulates each `C` element in ascending
//! `k`, fused for SIMD variants and unfused for the scalar one, so
//! executors of the same type and variant stay bit-identical.

use super::{scalar, KernelVariant};

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

    /// `c += a × b` on unpacked row-major `q×q` blocks through variant
    /// `v` — the entry the schedule replayer and the naive oracle use.
    fn block_fma(v: KernelVariant, c: &mut [Self], a: &[Self], b: &[Self], q: usize);
}

impl Element for f64 {
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
    fn block_fma(v: KernelVariant, c: &mut [f64], a: &[f64], b: &[f64], q: usize) {
        match v {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `is_available` verified AVX2+FMA; slice lengths
            // checked by the caller's debug_assert and kernel indexing.
            KernelVariant::Avx2Fma if v.is_available() => unsafe {
                super::x86::block_fma_avx2(c, a, b, q)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `is_available` verified AVX-512F; lengths as above.
            KernelVariant::Avx512Fma if v.is_available() => unsafe {
                super::x86::block_fma_avx512(c, a, b, q)
            },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            KernelVariant::Neon if v.is_available() => unsafe {
                super::neon::block_fma_neon(c, a, b, q)
            },
            _ => scalar::block_fma_scalar(c, a, b, q),
        }
    }
}

impl Element for f32 {
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
    fn block_fma(v: KernelVariant, c: &mut [f32], a: &[f32], b: &[f32], q: usize) {
        match v {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `is_available` verified AVX2+FMA; slice lengths
            // checked by the caller's debug_assert and kernel indexing.
            KernelVariant::Avx2Fma if v.is_available() => unsafe {
                super::x86::block_fma_avx2_f32(c, a, b, q)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `is_available` verified AVX-512F; lengths as above.
            KernelVariant::Avx512Fma if v.is_available() => unsafe {
                super::x86::block_fma_avx512_f32(c, a, b, q)
            },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            KernelVariant::Neon if v.is_available() => unsafe {
                super::neon::block_fma_neon_f32(c, a, b, q)
            },
            _ => scalar::block_fma_scalar(c, a, b, q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_shapes_share_rows_and_double_width() {
        for v in KernelVariant::ALL {
            let (t64, t32) = (v.tile::<f64>(), v.tile::<f32>());
            assert_eq!(t64.mr, t32.mr, "{v}");
            assert_eq!(t32.nr, 2 * t64.nr, "{v}");
        }
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
}
