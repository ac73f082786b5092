//! Host cache sizes and the executor's block-tile parameter `µ`.
//!
//! [`gemm_into`](crate::gemm_into) runs the paper's Maximum Reuse
//! schedule inside each tile of its [`Tiling`](crate::Tiling): a `µ×µ`
//! sub-tile of `C` blocks stays resident in one core's private cache
//! while `k` streams one `A` block and a row of `µ` `B` blocks past it
//! (Distributed Opt, §3.2). [`host_mu`] picks `µ` as the paper does —
//! the largest integer with `1 + µ + µ² ≤ C_D` — with `C_D` the host's
//! per-core L2 measured in `q×q` blocks of the element type.
//!
//! Cache sizes come from `/sys/devices/system/cpu/cpu0/cache` with
//! conservative fallbacks ([`CacheLevels`]). `mmc exec --json` reports
//! the `µ` each run used.
//!
//! [`BlockingPlan`], [`derive_plan`] and [`active_plan`] describe the
//! `MC`/`KC`/`NC` panels of a BLIS-style 5-loop. No executor runs that
//! loop any more; the plan is still derived, by the same footprint rule,
//! for the benchmark harness that stamps it and sizes its packing probes.

use crate::kernel::elem::Element;
use crate::kernel::{self, RegTile};
use mmc_core::params;
use std::fmt;
use std::sync::OnceLock;

/// One 5-loop blocking decision, in **elements** (not blocks). Only the
/// benchmark harness reads it; no executor runs these panels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockingPlan {
    /// `A`-panel rows resident in L2 (the `ic` loop step).
    pub mc: usize,
    /// `k` depth packed per panel (the `pc` loop step).
    pub kc: usize,
    /// `B`-panel columns per outer pass (the `jc` loop step).
    pub nc: usize,
}

impl fmt::Display for BlockingPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mc={} kc={} nc={}", self.mc, self.kc, self.nc)
    }
}

/// Detected (or fallback) cache capacities of the host, in bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLevels {
    /// Per-core L1 data cache.
    pub l1d_bytes: u64,
    /// Per-core unified L2.
    pub l2_bytes: u64,
    /// Last-level (shared) cache — L3 when present, else L2.
    pub shared_bytes: u64,
}

impl CacheLevels {
    /// Conservative defaults for hosts without a readable sysfs cache
    /// topology (32 KiB L1d / 1 MiB L2 / 8 MiB shared — the paper's §4.1
    /// machine is in the same regime).
    pub const FALLBACK: CacheLevels =
        CacheLevels { l1d_bytes: 32 << 10, l2_bytes: 1 << 20, shared_bytes: 8 << 20 };

    /// The host's cache sizes from
    /// `/sys/devices/system/cpu/cpu0/cache/index*`, falling back per
    /// level to [`CacheLevels::FALLBACK`]. Read once per process.
    pub fn detect_host() -> CacheLevels {
        static LEVELS: OnceLock<CacheLevels> = OnceLock::new();
        *LEVELS.get_or_init(|| CacheLevels::from_sysfs("/sys/devices/system/cpu/cpu0/cache"))
    }

    /// Parse a sysfs cache directory (factored out of [`detect_host`] so
    /// tests can point it at a fixture).
    fn from_sysfs(base: &str) -> CacheLevels {
        let mut l1d = None;
        let mut l2 = None;
        let mut l3 = None;
        for i in 0..8 {
            let read = |leaf: &str| std::fs::read_to_string(format!("{base}/index{i}/{leaf}")).ok();
            let (Some(level), Some(ty), Some(size)) = (read("level"), read("type"), read("size"))
            else {
                continue;
            };
            let Some(bytes) = parse_bytes(size.trim()) else { continue };
            match (level.trim(), ty.trim()) {
                ("1", "Data") => l1d = Some(bytes),
                ("2", _) => l2 = Some(bytes),
                ("3", _) => l3 = Some(bytes),
                _ => {}
            }
        }
        CacheLevels {
            l1d_bytes: l1d.unwrap_or(CacheLevels::FALLBACK.l1d_bytes),
            l2_bytes: l2.unwrap_or(CacheLevels::FALLBACK.l2_bytes),
            shared_bytes: l3.or(l2).unwrap_or(CacheLevels::FALLBACK.shared_bytes),
        }
    }
}

/// Parse a byte-size string with an optional binary suffix (`"48K"`,
/// `"64m"`, `"2g"`, bare bytes) into bytes.
///
/// This is the one byte-size parser shared by the sysfs cache probe,
/// the CLI budget flags (`--mem-budget`, `serve --ram-budget`) and any
/// other place that accepts human-sized capacities. Multiplication is
/// checked: a hostile or corrupt value like `"99999999999999999G"`
/// returns `None` instead of overflowing in release builds.
pub fn parse_bytes(s: &str) -> Option<u64> {
    let (digits, mul) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1 << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().and_then(|v| v.checked_mul(mul))
}

/// Derive the analytic plan for element type `T` and register tile
/// `tile` from `levels`.
///
/// `KC` is the deepest `B` micro-panel that fits half of L1 (see the
/// module docs). `MC` and `NC` each come from one
/// [`params::max_panel_depth`] solve — the paper's `α² + 2αβ ≤ C_S`
/// footprint with the resident panel of the level below as `α` — over
/// half the level's capacity in elements.
pub fn derive_plan<T: Element>(levels: &CacheLevels, tile: RegTile) -> BlockingPlan {
    let RegTile { mr, nr } = tile;
    let es = std::mem::size_of::<T>();
    let budget = |bytes: u64| (bytes as usize / es / 2).max(mr * nr + mr + nr);
    let kc = (budget(levels.l1d_bytes) / nr).max(8);
    let mc = params::max_panel_depth(budget(levels.l2_bytes), kc, nr).unwrap_or(mr).max(mr);
    // Round MC down to whole register-tile rows so the MC loop cuts on
    // micro-panel boundaries when it can.
    let mc = (mc / mr * mr).max(mr);
    let nc = params::max_panel_depth(budget(levels.shared_bytes), mc, kc).unwrap_or(nr).max(nr);
    let nc = (nc / nr * nr).max(nr);
    BlockingPlan { mc, kc, nc }
}

/// The 5-loop plan for element type `T` and the dispatched kernel
/// variant's register tile, derived from the host's cache levels.
pub fn active_plan<T: Element>() -> BlockingPlan {
    derive_plan::<T>(&CacheLevels::detect_host(), kernel::variant().tile::<T>())
}

/// The paper's `µ` for `q×q` blocks of `T` on this host: the largest
/// integer with `1 + µ + µ² ≤ C_D`, where `C_D` is the per-core L2 in
/// blocks ([`params::max_reuse_param`]). At least 1, so a block too big
/// for L2 still runs one block at a time.
pub fn host_mu<T: Element>(q: usize) -> u32 {
    let block_bytes = (q * q * std::mem::size_of::<T>()).max(1) as u64;
    let capacity = CacheLevels::detect_host().l2_bytes / block_bytes;
    params::max_reuse_param(capacity as usize).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bytes_handles_sysfs_and_cli_spellings() {
        assert_eq!(parse_bytes("48K"), Some(48 << 10));
        assert_eq!(parse_bytes("2048K"), Some(2 << 20));
        assert_eq!(parse_bytes("8M"), Some(8 << 20));
        assert_eq!(parse_bytes("64m"), Some(64 << 20));
        assert_eq!(parse_bytes("2g"), Some(2 << 30));
        assert_eq!(parse_bytes("512"), Some(512));
        assert_eq!(parse_bytes("nope"), None);
        assert_eq!(parse_bytes(""), None);
    }

    #[test]
    fn parse_bytes_rejects_overflowing_sizes_instead_of_wrapping() {
        // A corrupt sysfs string (or hostile CLI flag) whose product
        // exceeds u64 must come back None, not a wrapped small number.
        assert_eq!(parse_bytes("99999999999999999G"), None);
        assert_eq!(parse_bytes("18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_bytes("18446744073709551616"), None);
    }

    const TILES_F64: [RegTile; 2] = [RegTile::ymm::<f64>(), RegTile::zmm::<f64>()];

    #[test]
    fn derived_plan_respects_the_footprint_constraint_per_level() {
        let levels = CacheLevels::FALLBACK;
        let es = std::mem::size_of::<f64>();
        for tile in TILES_F64 {
            let plan = derive_plan::<f64>(&levels, tile);
            let RegTile { mr, nr } = tile;
            // KC: the B micro-panel within half of L1, and no shallower
            // than that budget allows.
            assert!(plan.kc * nr * es <= levels.l1d_bytes as usize / 2);
            assert!((plan.kc + 1) * nr * es > levels.l1d_bytes as usize / 2);
            // MC: B micro-panel + A panel within half of L2.
            assert!(
                (plan.kc * nr + plan.mc * (plan.kc + nr)) * es
                    <= levels.l2_bytes as usize / 2 + (plan.kc + nr) * es * mr
            );
            // Ordering sanity: a k panel is deeper than the register tile
            // and NC covers at least one register tile of columns.
            assert!(plan.kc >= 8 && plan.mc >= mr && plan.nc >= nr);
            assert_eq!(plan.mc % mr, 0);
            assert_eq!(plan.nc % nr, 0);
        }
    }

    #[test]
    fn wider_f32_tiles_get_deeper_panels() {
        // Same byte budgets, half the element size: the f32 plan's KC
        // must be at least the f64 plan's, for every variant's tile.
        let levels = CacheLevels::FALLBACK;
        for v in crate::KernelVariant::ALL {
            let p64 = derive_plan::<f64>(&levels, v.tile::<f64>());
            let p32 = derive_plan::<f32>(&levels, v.tile::<f32>());
            assert!(p32.kc >= p64.kc, "{v}: f32 {p32:?} vs f64 {p64:?}");
        }
    }

    #[test]
    fn active_plan_follows_the_dispatched_tile() {
        let want = derive_plan::<f64>(&CacheLevels::detect_host(), kernel::variant().tile::<f64>());
        assert_eq!(active_plan::<f64>(), want);
    }

    #[test]
    fn host_mu_is_the_max_reuse_parameter_of_l2_in_blocks() {
        let l2 = CacheLevels::detect_host().l2_bytes;
        for q in [1usize, 8, 32, 64, 80] {
            let mu = host_mu::<f64>(q) as u64;
            let blocks = l2 / (q * q * 8) as u64;
            assert!(mu >= 1, "q={q}");
            if blocks >= 3 {
                // µ is the largest value whose footprint 1 + µ + µ² fits.
                assert!(1 + mu + mu * mu <= blocks, "q={q}: µ={mu} over {blocks} blocks");
                assert!(1 + (mu + 1) + (mu + 1) * (mu + 1) > blocks, "q={q}: µ={mu}");
            }
            // Half-size elements fit at least as many blocks.
            assert!(host_mu::<f32>(q) as u64 >= mu, "q={q}");
        }
        // A block larger than L2 still runs, one block at a time.
        assert_eq!(host_mu::<f64>(1 << 16), 1);
    }

    #[test]
    fn detect_host_is_positive_and_ordered() {
        let levels = CacheLevels::detect_host();
        assert!(levels.l1d_bytes > 0 && levels.l2_bytes > 0 && levels.shared_bytes > 0);
        assert!(levels.l1d_bytes <= levels.shared_bytes);
    }

    #[test]
    fn display_matches_report_format() {
        let plan = BlockingPlan { mc: 576, kc: 216, nc: 21504 };
        assert_eq!(plan.to_string(), "mc=576 kc=216 nc=21504");
    }

    #[test]
    fn missing_sysfs_falls_back() {
        let levels = CacheLevels::from_sysfs("/definitely/not/a/cache/dir");
        assert_eq!(levels, CacheLevels::FALLBACK);
    }
}
