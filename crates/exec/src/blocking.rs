//! Analytic 5-loop blocking: `MC`/`KC`/`NC` derived from the cache model.
//!
//! The packed executor runs a BLIS-style 5-loop macro-kernel (see
//! [`crate::runner`]); this module decides, at dispatch time, how deep
//! each macro loop steps. The derivation applies the paper's Tradeoff
//! footprint constraint `α² + 2αβ ≤ C_S` (§3.3) — generalized to
//! non-square tiles by [`mmc_core::params::max_panel_depth`] — at the
//! outer cache levels, innermost out:
//!
//! * `KC` — deepest `k` panel whose `KC×NR` `B` micro-panel fits in
//!   (half of) L1, with `NR` from the kernel variant's register tile
//!   ([`crate::kernel::KernelVariant::tile`]). That micro-panel is the
//!   one operand the register kernel re-reads from L1 (once per `A`
//!   micro-panel of a block); the `MR×KC` `A` micro-panels stream
//!   through the other half and the `MR×NR` `C` tile lives in
//!   registers, so neither is charged to L1;
//! * `MC` — tallest `A` block such that the resident `KC×NR` `B`
//!   micro-panel plus `MC×KC` `A` panel fit in (half of) L2;
//! * `NC` — widest `B` panel such that the resident `MC×KC` `A` panel
//!   plus `MC×NC` of `C` traffic fit in (half of) the shared cache.
//!
//! Half of each level is budgeted for the resident operands; the other
//! half absorbs the `C` streams, the source-side packing reads, and
//! conflict misses — the same spirit as the paper's LRU-50 declaration,
//! which tells algorithms about half the physical capacity and lets the
//! replacement policy use the rest as "kind of an automatic prefetching
//! buffer" (§4.2).
//!
//! Cache sizes come from `/sys/devices/system/cpu/cpu0/cache` with
//! conservative fallbacks, and the whole plan can be pinned with
//! `MMC_BLOCKING=mc,kc,nc` (elements) for experiments. Plans are
//! reported by `mmc exec --json` and recorded in `BENCH_exec.json` so
//! every measured rate carries the blocking it ran under.

use crate::kernel::elem::Element;
use crate::kernel::{self, KernelVariant, RegTile};
use mmc_core::params;
use std::fmt;
use std::sync::OnceLock;

/// One 5-loop blocking decision, in **elements** (not blocks): the
/// executor converts to whole `q×q` block multiples at the tile loop.
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

/// The `MMC_BLOCKING=mc,kc,nc` override (elements), parsed once per
/// process. Unset, empty, or `auto` means no override; a malformed value
/// is a usage error that exits with a parse message rather than silently
/// running a different experiment than the one asked for.
pub fn env_override() -> Option<BlockingPlan> {
    static OVERRIDE: OnceLock<Option<BlockingPlan>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| match std::env::var("MMC_BLOCKING") {
        Err(_) => None,
        Ok(s) if s.is_empty() || s == "auto" => None,
        Ok(s) => match parse_override(&s) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("mmc-exec: {e}");
                std::process::exit(2);
            }
        },
    })
}

/// Parse an `MMC_BLOCKING` value (`"mc,kc,nc"` in elements).
pub fn parse_override(s: &str) -> Result<BlockingPlan, String> {
    let parts: Vec<&str> = s.split(',').map(str::trim).collect();
    if parts.len() != 3 {
        return Err(format!(
            "MMC_BLOCKING must be \"mc,kc,nc\" (three positive element counts), got {s:?}"
        ));
    }
    let field = |text: &str, name: &str| {
        text.parse::<usize>()
            .ok()
            .filter(|&v| v >= 1)
            .ok_or_else(|| format!("MMC_BLOCKING {name} must be a positive integer, got {text:?}"))
    };
    Ok(BlockingPlan {
        mc: field(parts[0], "mc")?,
        kc: field(parts[1], "kc")?,
        nc: field(parts[2], "nc")?,
    })
}

/// The plan the packed executor runs under for element type `T` and
/// the dispatched kernel variant ([`active_plan_for`] of
/// [`kernel::variant`]).
pub fn active_plan<T: Element>() -> BlockingPlan {
    active_plan_for::<T>(kernel::variant())
}

/// The plan for element type `T` under kernel variant `v`: the
/// `MMC_BLOCKING` override when set, else the analytic derivation for
/// `v`'s register tile from the host's detected cache levels.
pub fn active_plan_for<T: Element>(v: KernelVariant) -> BlockingPlan {
    env_override().unwrap_or_else(|| derive_plan::<T>(&CacheLevels::detect_host(), v.tile::<T>()))
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
        for v in KernelVariant::ALL {
            let p64 = derive_plan::<f64>(&levels, v.tile::<f64>());
            let p32 = derive_plan::<f32>(&levels, v.tile::<f32>());
            assert!(p32.kc >= p64.kc, "{v}: f32 {p32:?} vs f64 {p64:?}");
        }
    }

    #[test]
    fn active_plans_follow_the_variant_tile() {
        for v in KernelVariant::ALL {
            let plan = active_plan_for::<f64>(v);
            if env_override().is_none() {
                let want = derive_plan::<f64>(&CacheLevels::detect_host(), v.tile::<f64>());
                assert_eq!(plan, want, "{v}");
            }
        }
        assert_eq!(active_plan::<f64>(), active_plan_for::<f64>(kernel::variant()));
    }

    #[test]
    fn detect_host_is_positive_and_ordered() {
        let levels = CacheLevels::detect_host();
        assert!(levels.l1d_bytes > 0 && levels.l2_bytes > 0 && levels.shared_bytes > 0);
        assert!(levels.l1d_bytes <= levels.shared_bytes);
    }

    #[test]
    fn override_parser_accepts_good_and_names_bad_fields() {
        assert_eq!(
            parse_override("384, 256,4096").unwrap(),
            BlockingPlan { mc: 384, kc: 256, nc: 4096 }
        );
        assert!(parse_override("1,2").unwrap_err().contains("mc,kc,nc"));
        assert!(parse_override("1,x,3").unwrap_err().contains("kc"));
        assert!(parse_override("0,2,3").unwrap_err().contains("mc"));
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
