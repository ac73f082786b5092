//! Cache planner: size the paper's tile parameters for *your* machine and
//! pick the algorithm with the best predicted data access time.
//!
//! This is the workload the paper's introduction motivates: you have a
//! multicore with a shared L3 and private L2s and want to know how to
//! block a huge matrix product for it.
//!
//! ```bash
//! cargo run --release --example cache_planner -- \
//!     --cores 4 --shared-kb 8192 --dist-kb 256 --q 32 \
//!     --sigma-s 1 --sigma-d 4 --order 1000
//! ```
//!
//! All flags are optional; defaults describe the paper's quad-core.
//!
//! Pass `--calibrate FILE` with a saved `mmc counters --json` report to
//! fold the machine's measured-vs-predicted shared-traffic ratio into
//! the plan: the observed ratio deflates the effective sigma_S before
//! the out-of-core staging is sized, so a machine that misses more than
//! the model predicts gets deeper staging.

use multicore_matmul::prelude::*;

struct Args {
    cores: usize,
    shared_kb: usize,
    dist_kb: usize,
    q: usize,
    sigma_s: f64,
    sigma_d: f64,
    order: u32,
    data_fraction: f64,
    ram_mb: Option<usize>,
    sigma_f: f64,
    calibrate: Option<String>,
}

/// A calibration extracted from an `mmc counters --json` report:
/// the measured LLC-miss traffic over the model's predicted shared
/// traffic for the same point, or the reason no ratio is available.
enum Calibration {
    Ratio(f64),
    Unavailable(String),
}

/// Read the measured-vs-predicted ratio out of a counters report. The
/// report carries the precomputed ratio when hardware counters were
/// live (`derived.measured_vs_predicted_bytes`); when they were not it
/// says so via `counters: "unavailable"`, and the plan proceeds
/// uncalibrated rather than failing.
fn read_calibration(path: &str) -> Calibration {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return Calibration::Unavailable(format!("cannot read {path}: {e}")),
    };
    let report: serde::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => return Calibration::Unavailable(format!("cannot parse {path}: {e}")),
    };
    if report.get("counters").and_then(|c| c.as_str()) == Some("unavailable") {
        let reason = report
            .get("counters_reason")
            .and_then(|r| r.as_str())
            .unwrap_or("no reason recorded")
            .to_string();
        return Calibration::Unavailable(format!("report has counters: unavailable ({reason})"));
    }
    match report
        .get("derived")
        .and_then(|d| d.get("measured_vs_predicted_bytes"))
        .and_then(|r| r.as_f64())
    {
        Some(r) if r > 0.0 => Calibration::Ratio(r),
        _ => Calibration::Unavailable(
            "report carries no measured_vs_predicted_bytes ratio".to_string(),
        ),
    }
}

fn parse_args() -> Args {
    let mut a = Args {
        cores: 4,
        shared_kb: 8192,
        dist_kb: 256,
        q: 32,
        sigma_s: 1.0,
        sigma_d: 4.0,
        order: 1000,
        data_fraction: 2.0 / 3.0,
        ram_mb: None,
        sigma_f: multicore_matmul::ooc::DISK_RAM_RATIO,
        calibrate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--cores" => a.cores = val().parse().expect("--cores"),
            "--shared-kb" => a.shared_kb = val().parse().expect("--shared-kb"),
            "--dist-kb" => a.dist_kb = val().parse().expect("--dist-kb"),
            "--q" => a.q = val().parse().expect("--q"),
            "--sigma-s" => a.sigma_s = val().parse().expect("--sigma-s"),
            "--sigma-d" => a.sigma_d = val().parse().expect("--sigma-d"),
            "--order" => a.order = val().parse().expect("--order"),
            "--data-fraction" => a.data_fraction = val().parse().expect("--data-fraction"),
            "--ram-mb" => a.ram_mb = Some(val().parse().expect("--ram-mb")),
            "--sigma-f" => a.sigma_f = val().parse().expect("--sigma-f"),
            "--calibrate" => a.calibrate = Some(val()),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    a
}

fn main() {
    let args = parse_args();
    // Convert byte capacities to q×q f64-block capacities, reserving
    // (1 − data_fraction) of the private caches for instructions as the
    // paper does in §4.1.
    let block_bytes = args.q * args.q * std::mem::size_of::<f64>();
    let cs = args.shared_kb * 1024 / block_bytes;
    let cd = (args.dist_kb as f64 * 1024.0 * args.data_fraction / block_bytes as f64) as usize;
    if cs == 0 || cd == 0 {
        eprintln!("caches too small for {0}x{0} blocks — reduce --q", args.q);
        std::process::exit(1);
    }
    let machine =
        MachineConfig::new(args.cores, cs, cd, args.q).with_bandwidths(args.sigma_s, args.sigma_d);
    let problem = ProblemSpec::square(args.order);

    println!("derived capacities: C_S = {cs} blocks, C_D = {cd} blocks (q = {})", args.q);
    if !machine.inclusivity_holds() {
        println!(
            "warning: C_S < p*C_D — the paper's inclusive-hierarchy assumption \
             does not hold on this machine"
        );
    }

    match params::lambda(&machine) {
        Some(l) => println!("Shared Opt     : lambda = {l} (C tile {l}x{l} in shared cache)"),
        None => println!("Shared Opt     : infeasible (C_S < 3)"),
    }
    match params::mu(&machine) {
        Some(mu) => println!("Distributed Opt: mu = {mu} (C sub-block {mu}x{mu} per core)"),
        None => println!("Distributed Opt: infeasible (C_D < 3)"),
    }
    match params::tradeoff_params(&machine) {
        Some(t) => println!(
            "Tradeoff       : alpha = {}, beta = {} (grid {}x{}, alpha_num = {:.1})",
            t.alpha,
            t.beta,
            t.grid.rows,
            t.grid.cols,
            params::alpha_num(&machine)
        ),
        None => println!("Tradeoff       : infeasible (needs square p and C_D >= 3)"),
    }
    if let Some(t) = params::equal_tile(machine.shared_capacity) {
        println!(
            "Equal thirds   : t = {t} (shared), t_D = {:?} (distributed)",
            params::equal_tile(machine.dist_capacity)
        );
    }

    println!(
        "\npredicted costs for a {0}x{0} block product (sigma_S = {1}, sigma_D = {2}):",
        args.order, args.sigma_s, args.sigma_d
    );
    println!("{:<18} {:>16} {:>16} {:>16}", "algorithm", "pred. M_S", "pred. M_D", "pred. T_data");
    let mut best: Option<(String, f64)> = None;
    for algo in all_algorithms() {
        if let Some(p) = algo.predict(&machine, &problem) {
            let t = p.t_data(&machine);
            println!("{:<18} {:>16.0} {:>16.0} {:>16.0}", algo.name(), p.ms, p.md, t);
            if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
                best = Some((algo.name().to_string(), t));
            }
        } else {
            println!("{:<18} {:>16} {:>16} {:>16}", algo.name(), "-", "-", "-");
        }
    }

    // The closed forms above assume divisible tile sizes; the `exact`
    // module mirrors the schedules' edge clamping, so these counts are
    // what an IDEAL simulation of this exact problem would report.
    use multicore_matmul::core::exact;
    println!("\nexact (clamped-tile) counts for this problem:");
    if let Some(e) = exact::shared_opt(&problem, &machine) {
        println!("{:<18} M_S = {:>14}  M_D = {:>14}", "Shared Opt.", e.ms, e.md());
    }
    if let Some(e) = exact::distributed_opt(&problem, &machine, None) {
        println!("{:<18} M_S = {:>14}  M_D = {:>14}", "Distributed Opt.", e.ms, e.md());
    }
    if let Some(t) = params::tradeoff_params(&machine) {
        if let Some(e) = exact::tradeoff(&problem, &machine, &t) {
            println!("{:<18} M_S = {:>14}  M_D = {:>14}", "Tradeoff", e.ms, e.md());
        }
    }
    println!("\nlower bound     T_data >= {:.0}", bounds::tdata_lower_bound(&problem, &machine));
    if let Some((name, t)) = best {
        println!("recommendation: {name} (predicted T_data = {t:.0})");
    }

    // Calibration: a prior `mmc counters --json` report tells us how far
    // this machine's measured LLC traffic sits from the model. A ratio
    // above 1 means the model is optimistic here, so the effective
    // shared-level bandwidth is derated by the same factor before the
    // staging parameters are sized.
    let mut effective_sigma_s = args.sigma_s;
    if let Some(path) = &args.calibrate {
        match read_calibration(path) {
            Calibration::Ratio(r) => {
                effective_sigma_s = args.sigma_s / r;
                println!(
                    "\ncalibration ({path}): measured / predicted shared traffic = {r:.2}x \
                     -> effective sigma_S {:.3} (was {:.3})",
                    effective_sigma_s, args.sigma_s
                );
            }
            Calibration::Unavailable(why) => {
                println!("\ncalibration ({path}): skipped — {why}");
            }
        }
    }

    // With --ram-mb the planner also sizes the out-of-core level: RAM
    // plays the role of the shared cache and disk the role of memory, so
    // the same §3.3 sizing yields the (alpha, beta) staging for
    // `mmc ooc multiply --mem-budget`.
    if let Some(ram_mb) = args.ram_mb {
        let budget_bytes = ram_mb as u64 * 1024 * 1024;
        let budget_blocks = budget_bytes / block_bytes as u64;
        println!("\nout-of-core staging for a {ram_mb} MiB RAM budget ({budget_blocks} blocks):");
        match params::ooc_staging(
            budget_blocks,
            multicore_matmul::ooc::RING_SLOTS,
            args.sigma_f,
            effective_sigma_s,
        ) {
            Some(s) => {
                let n = args.order;
                println!(
                    "  alpha = {}, beta = {} (ring depth {}, resident {} blocks = {:.1} MiB)",
                    s.alpha,
                    s.beta,
                    s.slots,
                    s.resident_blocks(),
                    s.resident_blocks() as f64 * block_bytes as f64 / (1 << 20) as f64
                );
                println!(
                    "  predicted disk traffic for the {n}x{n} block product: {} blocks \
                     ({:.1} MiB at sigma_F = {})",
                    s.disk_blocks(n, n, n),
                    s.disk_blocks(n, n, n) as f64 * block_bytes as f64 / (1 << 20) as f64,
                    args.sigma_f
                );
                println!(
                    "  run: mmc ooc multiply --a A.tiled --b B.tiled --out C.tiled \
                     --mem-budget {ram_mb}m"
                );
            }
            None => println!(
                "  infeasible: the budget holds fewer than {} blocks — raise --ram-mb or lower --q",
                1 + 2 * multicore_matmul::ooc::RING_SLOTS
            ),
        }
    }
}
