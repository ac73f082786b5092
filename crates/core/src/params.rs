//! Tile-parameter selection: `λ`, `µ`, the Equal blocking factor, core
//! grids, and the Tradeoff algorithm's `(α, β)` optimization (§3.3).

use mmc_sim::MachineConfig;
use serde::{Deserialize, Serialize};

/// Largest integer `λ ≥ 1` with `1 + λ + λ² ≤ capacity` — the Maximum
/// Reuse footprint of one `C` tile (`λ²`), one row of `B` (`λ`) and one
/// element of `A` (§3). Returns `None` when even `λ = 1` does not fit
/// (capacity < 3).
pub fn max_reuse_param(capacity: usize) -> Option<u32> {
    if capacity < 3 {
        return None;
    }
    // λ = floor((−1 + √(4·capacity − 3)) / 2), then fix up any floating
    // rounding by checking the defining inequality on the integers.
    let mut lambda = (((4.0 * capacity as f64 - 3.0).sqrt() - 1.0) / 2.0).floor() as u64;
    let fits = |l: u64| l >= 1 && 1 + l + l * l <= capacity as u64;
    while !fits(lambda) {
        lambda -= 1;
    }
    while fits(lambda + 1) {
        lambda += 1;
    }
    Some(lambda as u32)
}

/// The paper's `λ` (shared cache): largest `λ` with `1 + λ + λ² ≤ C_S`.
pub fn lambda(machine: &MachineConfig) -> Option<u32> {
    max_reuse_param(machine.shared_capacity)
}

/// The paper's `µ` (distributed cache): largest `µ` with `1 + µ + µ² ≤ C_D`.
pub fn mu(machine: &MachineConfig) -> Option<u32> {
    max_reuse_param(machine.dist_capacity)
}

/// Largest `t ≥ 1` with `3·t² ≤ capacity` — the equal-thirds blocking of
/// the Toledo-style *Equal* baseline (§4.1: "one third of distributed
/// caches is equally allocated to each loaded matrix sub-block").
pub fn equal_tile(capacity: usize) -> Option<u32> {
    if capacity < 3 {
        return None;
    }
    let mut t = ((capacity as f64 / 3.0).sqrt()).floor() as u64;
    let fits = |t: u64| t >= 1 && 3 * t * t <= capacity as u64;
    while !fits(t) {
        t -= 1;
    }
    while fits(t + 1) {
        t += 1;
    }
    Some(t as u32)
}

/// Largest panel depth `d ≥ 1` such that a resident `rows×cols` tile plus
/// one depth-`d` panel along each side fits in `capacity`:
/// `rows·cols + d·(rows + cols) ≤ capacity`.
///
/// This is the Tradeoff footprint constraint `α² + 2αβ ≤ C_S` (§3.3)
/// generalized to a non-square tile — with `rows = cols = α` it returns
/// exactly the paper's `β = ⌊(C_S − α²)/(2α)⌋`. The executor's analytic
/// 5-loop blocking applies it at the outer cache levels: `MC` from L2
/// around the `KC×NR` B micro-panel, `NC` from the shared cache around
/// the `MC×KC` A panel (`KC` itself sizes that B micro-panel to L1).
///
/// Returns `None` when even `d = 1` does not fit.
pub fn max_panel_depth(capacity: usize, rows: usize, cols: usize) -> Option<usize> {
    if rows == 0 || cols == 0 {
        return None;
    }
    let tile = rows.checked_mul(cols)?;
    let edges = rows + cols;
    if capacity < tile + edges {
        return None;
    }
    Some((capacity - tile) / edges)
}

/// A 2-D arrangement of the `p` cores into `rows × cols == p`.
///
/// The paper assumes `√p` is an integer (§3.2); [`CoreGrid::square`]
/// returns that arrangement when it exists, and [`CoreGrid::balanced`] is
/// our extension to arbitrary `p` (most-square factorization).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreGrid {
    /// Grid rows (`√p` in the paper).
    pub rows: u32,
    /// Grid columns (`√p` in the paper).
    pub cols: u32,
}

impl CoreGrid {
    /// The `√p × √p` grid, if `p` is a perfect square.
    pub fn square(p: usize) -> Option<CoreGrid> {
        let r = (p as f64).sqrt().round() as usize;
        if r * r == p {
            Some(CoreGrid { rows: r as u32, cols: r as u32 })
        } else {
            None
        }
    }

    /// The most-square factorization `rows × cols == p` with
    /// `rows ≤ cols` (extension beyond the paper, for non-square `p`).
    pub fn balanced(p: usize) -> CoreGrid {
        assert!(p > 0, "need at least one core");
        let mut rows = (p as f64).sqrt().floor() as usize;
        while !p.is_multiple_of(rows) {
            rows -= 1;
        }
        CoreGrid { rows: rows as u32, cols: (p / rows) as u32 }
    }

    /// Total cores covered.
    pub fn cores(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// Grid coordinates of linear core index `c` (column-major like the
    /// paper's `offset_i = (c−1) mod √p`, `offset_j = ⌊(c−1)/√p⌋`).
    pub fn coords(&self, core: usize) -> (u32, u32) {
        debug_assert!(core < self.cores());
        ((core as u32) % self.rows, (core as u32) / self.rows)
    }
}

/// The Tradeoff algorithm's tile parameters (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TradeoffParams {
    /// Side of the square `C` tile kept in the shared cache.
    pub alpha: u32,
    /// Depth of the `A`/`B` panels kept alongside it (`α² + 2αβ ≤ C_S`).
    pub beta: u32,
    /// Distributed-cache Maximum Reuse parameter `µ`.
    pub mu: u32,
    /// Core grid used for the 2-D cyclic distribution of `µ×µ` sub-blocks.
    pub grid: CoreGrid,
}

impl TradeoffParams {
    /// The shared-cache footprint `α² + 2αβ` (must be `≤ C_S`).
    pub fn shared_footprint(&self) -> u64 {
        let a = self.alpha as u64;
        let b = self.beta as u64;
        a * a + 2 * a * b
    }
}

/// The unconstrained optimum `α_num` of the data-access-time objective
/// `F(α) = 2/(σ_S·α) + 2α/(p·σ_D·(C_S − α²))` (§3.3).
///
/// Closed form:
/// `α_num = √( C_S · (1 + 2g − √(1 + 8g)) / (2(g − 1)) )` with
/// `g = p·σ_D/σ_S`; the removable singularity at `g = 1` has limit
/// `√(C_S/3)`.
pub fn alpha_num(machine: &MachineConfig) -> f64 {
    let g = machine.cores as f64 * machine.sigma_d / machine.sigma_s;
    alpha_num_for(machine.shared_capacity as f64, g)
}

/// [`alpha_num`]'s closed form for an arbitrary capacity and bandwidth
/// ratio `g` (= aggregate lower-level bandwidth over upper-level
/// bandwidth). Shared by the in-core Tradeoff sizing (`C_S`, `p·σ_D/σ_S`)
/// and the out-of-core staging ([`ooc_staging`]: RAM budget, `σ_S/σ_F`) —
/// the paper's two-level objective is the same at every pair of adjacent
/// hierarchy levels.
pub fn alpha_num_for(capacity: f64, g: f64) -> f64 {
    if (g - 1.0).abs() < 1e-9 {
        return (capacity / 3.0).sqrt();
    }
    let t = (1.0 + 2.0 * g - (1.0 + 8.0 * g).sqrt()) / (2.0 * (g - 1.0));
    // `t` is positive for all g > 0 (both numerator and denominator change
    // sign at g = 1); clamp defensively against rounding.
    (capacity * t.max(0.0)).sqrt()
}

/// Numerically minimize `F(α)` by golden-section search on
/// `[lo, hi] ⊂ (0, √C_S)`. Used as a cross-check of [`alpha_num`] and as
/// a fallback for configurations where the closed form degenerates.
pub fn alpha_numeric(machine: &MachineConfig, lo: f64, hi: f64) -> f64 {
    let cs = machine.shared_capacity as f64;
    let p = machine.cores as f64;
    let f = |a: f64| -> f64 {
        2.0 / (machine.sigma_s * a) + 2.0 * a / (p * machine.sigma_d * (cs - a * a))
    };
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut lo, mut hi) = (lo.max(1e-9), hi.min(cs.sqrt() - 1e-9));
    if lo >= hi {
        return lo;
    }
    let (mut x1, mut x2) = (hi - phi * (hi - lo), lo + phi * (hi - lo));
    let (mut f1, mut f2) = (f(x1), f(x2));
    for _ in 0..200 {
        if f1 < f2 {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - phi * (hi - lo);
            f1 = f(x1);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + phi * (hi - lo);
            f2 = f(x2);
        }
        if hi - lo < 1e-9 {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Pick the Tradeoff parameters for `machine` (§3.3):
///
/// * `α = min(α_max, max(√p·µ, α_num))`, rounded down to a multiple of
///   `√p·µ` so the `C` tile divides into whole `µ×µ` sub-blocks across the
///   core grid;
/// * `β = max(⌊(C_S − α²)/(2α)⌋, 1)`;
/// * `α_max` = the largest feasible multiple of `√p·µ` with
///   `α² + 2α ≤ C_S`.
///
/// Returns `None` when the machine cannot host the algorithm at all
/// (`µ` undefined, non-square core count, or no feasible `α`).
pub fn tradeoff_params(machine: &MachineConfig) -> Option<TradeoffParams> {
    tradeoff_params_with_mu(machine, mu(machine)?)
}

/// [`tradeoff_params`] with an explicit `µ` (used by LRU-mode runs where
/// the distributed-cache constraint is advisory and `µ` degrades to 1).
pub fn tradeoff_params_with_mu(machine: &MachineConfig, mu: u32) -> Option<TradeoffParams> {
    if mu == 0 {
        return None;
    }
    let grid = CoreGrid::square(machine.cores)?;
    let step = grid.rows as u64 * mu as u64;
    let cs = machine.shared_capacity as u64;
    // Largest multiple of `step` with α² + 2α·1 ≤ C_S (β ≥ 1 must fit).
    let mut alpha_max = ((cs as f64 + 1.0).sqrt() - 1.0).floor() as u64;
    alpha_max -= alpha_max % step;
    while alpha_max >= step && alpha_max * alpha_max + 2 * alpha_max > cs {
        alpha_max -= step;
    }
    if alpha_max < step {
        // Even one sub-block per core cannot fit in the shared cache.
        return None;
    }
    let target = alpha_num(machine);
    let mut alpha = (target / step as f64).floor() as u64 * step;
    alpha = alpha.clamp(step, alpha_max);
    let beta = (((cs - alpha * alpha) / (2 * alpha)).max(1)) as u32;
    Some(TradeoffParams { alpha: alpha as u32, beta, mu, grid })
}

/// Out-of-core staging parameters: the Tradeoff algorithm's `α`-staging
/// lifted one level up the hierarchy, where "cache" is the RAM budget and
/// "memory" is a disk/NVMe tier of tiled files.
///
/// The streaming GEMM keeps one `α×α` block tile of `C` resident plus
/// `slots` in-flight copies of an `α×β` `A` panel and a `β×α` `B` panel
/// (the prefetch ring), so its resident footprint is
/// `α² + 2·slots·α·β` blocks — the paper's `α² + 2αβ ≤ C_S` constraint
/// with the panel term scaled by the ring depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OocStaging {
    /// Side of the square `C` block tile kept resident in RAM.
    pub alpha: u32,
    /// Depth of each prefetched `A`/`B` panel, in blocks.
    pub beta: u32,
    /// Panel-ring depth the footprint was sized for (2 = double buffer).
    pub slots: u32,
}

impl OocStaging {
    /// Resident RAM footprint `α² + 2·slots·α·β`, in blocks.
    pub fn resident_blocks(&self) -> u64 {
        let a = self.alpha as u64;
        a * a + 2 * self.slots as u64 * a * self.beta as u64
    }

    /// Predicted disk traffic of the staged product of an `m×n×z` block
    /// problem, in blocks: every `C` tile streams full `A` row-panels and
    /// `B` column-panels (`2·m·n·z/α` for divisible shapes, exact tile
    /// clamping included here) and writes its `α²` tile once (`m·n`).
    pub fn disk_blocks(&self, m: u32, n: u32, z: u32) -> u64 {
        let (m, n, z) = (m as u64, n as u64, z as u64);
        let a = self.alpha as u64;
        let tiles_i = m.div_ceil(a);
        let tiles_j = n.div_ceil(a);
        // Per tile row: each of the `tiles_j` tiles reads its A row-panel
        // (th·z blocks) and B column-panel (z·tw blocks); summing over the
        // grid gives z·(tiles_j·m + tiles_i·n). C is written once: m·n.
        z * (tiles_j * m + tiles_i * n) + m * n
    }
}

/// Size the out-of-core staging from a RAM budget, exactly as §3.3 sizes
/// the Tradeoff tile from `C_S`:
///
/// * `α` targets [`alpha_num_for`]`(budget, g)` with `g = σ_RAM/σ_F`
///   (aggregate RAM bandwidth over disk bandwidth — the paper's
///   `p·σ_D/σ_S` with the disk tier playing the memory role), clamped to
///   `[1, α_max]` where `α_max` is the largest `α` with
///   `α² + 2·slots·α ≤ budget` (a `β ≥ 1` ring must fit);
/// * `β = max(⌊(budget − α²)/(2·slots·α)⌋, 1)`.
///
/// Returns `None` when the budget cannot hold even a `1×1` tile plus a
/// depth-1 ring (`budget < 1 + 2·slots`).
pub fn ooc_staging(
    budget_blocks: u64,
    slots: u32,
    sigma_f: f64,
    sigma_ram: f64,
) -> Option<OocStaging> {
    assert!(slots >= 1, "panel ring needs at least one slot");
    assert!(sigma_f > 0.0 && sigma_ram > 0.0, "bandwidths must be positive");
    let d = slots as u64;
    if budget_blocks < 1 + 2 * d {
        return None;
    }
    // Largest α with α² + 2·d·α ≤ budget.
    let mut alpha_max = ((budget_blocks as f64 + (d * d) as f64).sqrt() - d as f64).floor() as u64;
    while alpha_max >= 1 && alpha_max * alpha_max + 2 * d * alpha_max > budget_blocks {
        alpha_max -= 1;
    }
    while (alpha_max + 1).pow(2) + 2 * d * (alpha_max + 1) <= budget_blocks {
        alpha_max += 1;
    }
    if alpha_max == 0 {
        return None;
    }
    let target = alpha_num_for(budget_blocks as f64, sigma_ram / sigma_f);
    let alpha = (target.floor() as u64).clamp(1, alpha_max);
    let beta = ((budget_blocks - alpha * alpha) / (2 * d * alpha)).max(1);
    let staging = OocStaging { alpha: alpha as u32, beta: beta.min(u32::MAX as u64) as u32, slots };
    debug_assert!(staging.resident_blocks() <= budget_blocks);
    Some(staging)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lambda_values() {
        // §4.1 presets: C_S = 977 → λ = 30 (1+30+900 = 931 ≤ 977);
        // 245 → 15 (241 ≤ 245); 157 → 12 (1+12+144 = 157 exactly).
        assert_eq!(max_reuse_param(977), Some(30));
        assert_eq!(max_reuse_param(245), Some(15));
        assert_eq!(max_reuse_param(157), Some(12));
    }

    #[test]
    fn paper_mu_values() {
        // C_D = 21 → µ = 4 (1+4+16 = 21); 16 → 3; 6 → 1; 4 → 1; 3 → 1.
        assert_eq!(max_reuse_param(21), Some(4));
        assert_eq!(max_reuse_param(16), Some(3));
        assert_eq!(max_reuse_param(6), Some(1));
        assert_eq!(max_reuse_param(4), Some(1));
        assert_eq!(max_reuse_param(3), Some(1));
        assert_eq!(max_reuse_param(2), None);
    }

    #[test]
    fn max_reuse_is_maximal() {
        for c in 3..5000usize {
            let l = max_reuse_param(c).unwrap() as u64;
            assert!(1 + l + l * l <= c as u64, "capacity {c}");
            let l1 = l + 1;
            assert!(1 + l1 + l1 * l1 > c as u64, "capacity {c}: λ not maximal");
        }
    }

    #[test]
    fn max_panel_depth_generalizes_tradeoff_beta() {
        // With rows = cols = α it is exactly the paper's
        // β = ⌊(C_S − α²)/(2α)⌋ — cross-check against the Tradeoff
        // derivation over a range of capacities and tile sides.
        for cs in [157usize, 245, 977, 4096] {
            for alpha in [4usize, 8, 12, 30] {
                let beta = max_panel_depth(cs, alpha, alpha);
                let direct = if cs >= alpha * alpha + 2 * alpha {
                    Some((cs - alpha * alpha) / (2 * alpha))
                } else {
                    None
                };
                assert_eq!(beta, direct, "C_S={cs} α={alpha}");
                if let Some(d) = beta {
                    // Maximality: d fits, d+1 does not.
                    assert!(alpha * alpha + d * 2 * alpha <= cs);
                    assert!(alpha * alpha + (d + 1) * 2 * alpha > cs);
                }
            }
        }
        // Non-square tiles and degenerate inputs.
        assert_eq!(max_panel_depth(100, 6, 8), Some((100 - 48) / 14));
        assert_eq!(max_panel_depth(61, 6, 8), None); // 48 + 14 > 61
        assert_eq!(max_panel_depth(1000, 0, 8), None);
        assert_eq!(max_panel_depth(1000, 8, 0), None);
    }

    #[test]
    fn equal_tile_is_maximal() {
        assert_eq!(equal_tile(2), None);
        for c in 3..5000usize {
            let t = equal_tile(c).unwrap() as u64;
            assert!(3 * t * t <= c as u64);
            assert!(3 * (t + 1) * (t + 1) > c as u64);
        }
        // C_S = 977 → t = 18 (3·324 = 972 ≤ 977).
        assert_eq!(equal_tile(977), Some(18));
    }

    #[test]
    fn square_grid_detection() {
        assert_eq!(CoreGrid::square(4), Some(CoreGrid { rows: 2, cols: 2 }));
        assert_eq!(CoreGrid::square(9), Some(CoreGrid { rows: 3, cols: 3 }));
        assert_eq!(CoreGrid::square(6), None);
        assert_eq!(CoreGrid::square(1), Some(CoreGrid { rows: 1, cols: 1 }));
    }

    #[test]
    fn balanced_grid_covers_all_cores() {
        for p in 1..=64usize {
            let g = CoreGrid::balanced(p);
            assert_eq!(g.cores(), p);
            assert!(g.rows <= g.cols);
        }
        assert_eq!(CoreGrid::balanced(6), CoreGrid { rows: 2, cols: 3 });
        assert_eq!(CoreGrid::balanced(7), CoreGrid { rows: 1, cols: 7 });
    }

    #[test]
    fn coords_are_column_major() {
        let g = CoreGrid { rows: 2, cols: 2 };
        assert_eq!(g.coords(0), (0, 0));
        assert_eq!(g.coords(1), (1, 0));
        assert_eq!(g.coords(2), (0, 1));
        assert_eq!(g.coords(3), (1, 1));
    }

    #[test]
    fn alpha_num_matches_numeric_minimizer() {
        for (ss, sd) in [(1.0, 1.0), (1.0, 4.0), (4.0, 1.0), (0.3, 0.7), (1.0, 0.25001)] {
            let m = MachineConfig::quad_q32().with_bandwidths(ss, sd);
            let closed = alpha_num(&m);
            let numeric = alpha_numeric(&m, 1.0, (m.shared_capacity as f64).sqrt());
            assert!(
                (closed - numeric).abs() < 1e-3 * numeric.max(1.0),
                "σ_S={ss} σ_D={sd}: closed {closed} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn alpha_num_limits() {
        // σ_D ≫ σ_S: the tradeoff degenerates to the shared-optimized
        // tiling, α_num → √C_S (paper §3.3).
        let m = MachineConfig::quad_q32().with_bandwidths(1.0, 1e9);
        assert!((alpha_num(&m) - (977f64).sqrt()).abs() < 0.5);
        // σ_S ≫ σ_D: α_num collapses toward 0 → clamped at √p·µ later.
        let m = MachineConfig::quad_q32().with_bandwidths(1e9, 1.0);
        assert!(alpha_num(&m) < 1.0);
    }

    #[test]
    fn tradeoff_params_respect_constraints() {
        for (_, machine) in MachineConfig::paper_presets() {
            let t = tradeoff_params(&machine).expect("paper presets feasible");
            let step = t.grid.rows * t.mu;
            assert_eq!(t.alpha % step, 0, "α multiple of √p·µ");
            assert!(t.shared_footprint() <= machine.shared_capacity as u64);
            assert!(t.beta >= 1);
        }
    }

    #[test]
    fn tradeoff_alpha_tracks_bandwidth_ratio() {
        // Fast distributed caches → shared-optimized tiling (large α, β=1).
        let m = MachineConfig::quad_q32().with_bandwidths(1.0, 1e6);
        let t = tradeoff_params(&m).unwrap();
        let step = (t.grid.rows * t.mu) as u64;
        let amax = {
            let mut a = ((977f64 + 1.0).sqrt() - 1.0).floor() as u64;
            a -= a % step;
            a
        };
        assert_eq!(t.alpha as u64, amax);
        // Fast shared cache → distributed-optimized tiling (α = √p·µ).
        let m = MachineConfig::quad_q32().with_bandwidths(1e6, 1.0);
        let t = tradeoff_params(&m).unwrap();
        assert_eq!(t.alpha, t.grid.rows * t.mu);
    }

    #[test]
    fn ooc_staging_respects_budget_and_is_maximal_in_alpha_max() {
        for budget in [8u64, 64, 977, 4096, 100_000] {
            for slots in [1u32, 2, 4] {
                for (sf, sr) in [(1.0, 1.0), (1.0, 50.0), (50.0, 1.0)] {
                    let Some(s) = ooc_staging(budget, slots, sf, sr) else {
                        assert!(budget < 1 + 2 * slots as u64, "budget {budget} slots {slots}");
                        continue;
                    };
                    assert!(s.alpha >= 1 && s.beta >= 1);
                    assert!(
                        s.resident_blocks() <= budget,
                        "budget {budget} slots {slots}: footprint {} > budget",
                        s.resident_blocks()
                    );
                }
            }
        }
        assert_eq!(ooc_staging(4, 2, 1.0, 1.0), None);
    }

    #[test]
    fn ooc_alpha_tracks_disk_ram_bandwidth_ratio() {
        // Slow disk, fast RAM → minimize disk traffic: α near α_max.
        let fast_ram = ooc_staging(10_000, 2, 1.0, 1e6).unwrap();
        // Fast disk, slow RAM → small α (traffic shifts to the RAM tier).
        let fast_disk = ooc_staging(10_000, 2, 1e6, 1.0).unwrap();
        assert!(fast_ram.alpha > fast_disk.alpha, "{fast_ram:?} vs {fast_disk:?}");
        assert_eq!(fast_disk.alpha, 1);
        // Balanced: matches the paper's g = 1 limit √(C/3), rounded down.
        let balanced = ooc_staging(10_000, 2, 1.0, 1.0).unwrap();
        assert_eq!(balanced.alpha, ((10_000f64 / 3.0).sqrt()).floor() as u32);
    }

    #[test]
    fn ooc_disk_traffic_counts_clamped_tiles() {
        let s = OocStaging { alpha: 4, beta: 2, slots: 2 };
        // 8×8×8 blocks, α = 4: 2×2 tiles, each reads 4·8 + 8·4 panels and
        // writes 16 C blocks → 4·(32+32) + 64 = 320.
        assert_eq!(s.disk_blocks(8, 8, 8), 320);
        // Ragged 9×5×7: tiles_i = 3, tiles_j = 2 → 7·(2·9 + 3·5) + 45.
        assert_eq!(s.disk_blocks(9, 5, 7), 7 * (2 * 9 + 3 * 5) + 45);
    }

    #[test]
    fn tradeoff_infeasible_cases() {
        // Non-square core count.
        let m = MachineConfig::new(6, 977, 21, 32);
        assert_eq!(tradeoff_params(&m), None);
        // Distributed cache below the 3-block minimum.
        let m = MachineConfig::new(4, 977, 2, 32);
        assert_eq!(tradeoff_params(&m), None);
    }
}
