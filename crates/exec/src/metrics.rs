//! Executor metrics: per-kernel FLOP and tile counters, registered in
//! the process-wide [`mmc_obs`] registry.
//!
//! Counter names are stable API (the `mmc counters` subcommand and the
//! golden reconciliation tests key on them):
//!
//! * `exec.flops.<variant>` — useful FLOPs retired through the tiled
//!   executor ([`crate::gemm_into`] and its wrappers), counted as
//!   `2·q³` per block FMA and bumped **once per work unit**, so the hot
//!   loop pays one relaxed atomic add per unit, not per block.
//! * `exec.flops.schedule` — FLOPs retired by the exact schedule
//!   replayer ([`crate::ExecSink`]), counted per `fma` event.
//! * `exec.tiles.<variant>` — work units (`µ×µ` sub-tiles of `C`)
//!   completed per kernel variant.

use crate::kernel::KernelVariant;
use mmc_obs::{global, Counter};
use std::sync::{Arc, OnceLock};

/// The `exec.flops.<variant>` counter for `variant`, cached after first
/// lookup so the tile loop never touches the registry mutex.
pub fn flops(variant: KernelVariant) -> &'static Counter {
    static FLOPS: OnceLock<[Arc<Counter>; 4]> = OnceLock::new();
    &FLOPS.get_or_init(|| per_variant("exec.flops"))[variant as usize]
}

/// The `exec.tiles.<variant>` counter for `variant`.
pub fn tiles(variant: KernelVariant) -> &'static Counter {
    static TILES: OnceLock<[Arc<Counter>; 4]> = OnceLock::new();
    &TILES.get_or_init(|| per_variant("exec.tiles"))[variant as usize]
}

/// One `<prefix>.<variant>` counter per variant, indexed by
/// `variant as usize` ([`KernelVariant::ALL`] is in declaration order).
fn per_variant(prefix: &str) -> [Arc<Counter>; 4] {
    KernelVariant::ALL.map(|v| global().counter(&format!("{prefix}.{}", v.name())))
}

/// The `exec.flops.schedule` counter (exact schedule replay).
pub fn schedule_flops() -> &'static Counter {
    static SCHEDULE: OnceLock<Arc<Counter>> = OnceLock::new();
    SCHEDULE.get_or_init(|| global().counter("exec.flops.schedule"))
}

/// Total `exec.flops.*` across every kernel variant plus the schedule
/// replayer, read from a snapshot of the global registry.
pub fn total_flops_snapshot() -> u64 {
    mmc_obs::global()
        .snapshot()
        .counters
        .iter()
        .filter(|c| c.name.starts_with("exec.flops."))
        .map(|c| c.value)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_cached_and_shared() {
        let before = flops(KernelVariant::Scalar).get();
        flops(KernelVariant::Scalar).add(10);
        assert_eq!(flops(KernelVariant::Scalar).get(), before + 10);
        // The cached Arc and a fresh registry lookup see the same metric.
        assert_eq!(global().counter("exec.flops.scalar").get(), before + 10);
    }

    #[test]
    fn every_variant_has_its_named_counters() {
        for (i, v) in KernelVariant::ALL.into_iter().enumerate() {
            assert_eq!(v as usize, i, "ALL must list variants in declaration order");
            let name = v.name();
            let (f, t) = (flops(v).get(), tiles(v).get());
            flops(v).add(3);
            tiles(v).add(1);
            assert_eq!(global().counter(&format!("exec.flops.{name}")).get(), f + 3);
            assert_eq!(global().counter(&format!("exec.tiles.{name}")).get(), t + 1);
        }
    }
}
