//! `mmc` — command-line front end to the multicore-matmul library.
//!
//! ```text
//! mmc simulate --algo shared_opt --preset q32 --order 120 --setting ideal
//! mmc plan     --preset q32 --order 1000
//! mmc exec     --order 8 --q 32 --tiling tradeoff
//! mmc lu       --order 64 --panel 8 --tiling shared_opt
//! mmc profile  --algo shared_opt --order 60
//! mmc counters --order 12 --tiling tradeoff --json
//! mmc trace    --algo shared_opt --order 60 --out trace.json
//! mmc figures  fig7 --jobs 4 --resume
//! mmc ooc gen --out a.tiled --rows 64 --cols 64 --q 32
//! mmc ooc multiply --a a.tiled --b b.tiled --out c.tiled --mem-budget 8m
//! mmc ooc verify --a a.tiled --b b.tiled --c c.tiled
//! mmc list
//! ```
//!
//! Every subcommand prints a compact human-readable report; simulation
//! counts are exact (the simulator is deterministic). `simulate`, `exec`,
//! `profile` and `counters` accept `--json` for machine-readable output
//! (all reports share one `schema_version`); `counters` samples hardware
//! events via `perf_event_open(2)` next to the model's predicted misses,
//! printing `counters: "unavailable"` and exiting zero when the PMU or
//! permissions are missing; `trace`
//! records a flight-recorder journal and exports Chrome trace-event JSON
//! loadable at <https://ui.perfetto.dev>.

use multicore_matmul::exec::parse_bytes;
use multicore_matmul::lu::{bounds as lu_bounds, BlockedLu, SimLuHooks, UpdateTiling};
use multicore_matmul::prelude::*;
use multicore_matmul::sim::ProfilingSink;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::process::exit;
use std::time::Instant;

fn usage() -> ! {
    let kernels = multicore_matmul::exec::kernel::VARIANT_NAMES;
    eprintln!(
        "usage:\n  mmc simulate --algo A --order N [--preset P] [--setting ideal|lru|lru2|lru50] [--json]\n  \
           mmc plan [--preset P] [--order N] [--sigma-s X --sigma-d Y]\n  \
           mmc exec --order N [--q Q] [--tiling T] [--algo classic|strassen|auto] [--cutoff N] [--seed S] [--json] [--trace-out F] [--drift] [--band X]\n  \
           mmc drift --order N [--q Q] [--kernel K] [--preset P] [--seed S] [--band X] [--mem-budget BYTES[k|m|g]] [--json] [--trace-out F]\n  \
           mmc lu --order N [--panel W] [--tiling T] [--q Q]\n  \
           mmc profile --algo A --order N [--preset P] [--json]\n  \
           mmc counters --order N [--q Q] [--tiling T] [--kernel K] [--preset P] [--seed S] [--json]\n  \
           mmc trace --algo A --order N --out F [--preset P] [--setting S] [--granularity G] [--fma-time T]\n  \
           mmc figures <id>...|all|list [--out DIR] [--full] [--jobs N] [--resume] [--serial] [--quiet]\n  \
           mmc ooc gen --out F --rows R --cols C [--q Q] [--seed S]\n  \
           mmc ooc multiply --a F --b F --out F --mem-budget BYTES[k|m|g] [--io-threads N] [--kernel K] [--preset P] [--json] [--trace-out F] [--drift]\n  \
           mmc ooc verify --a F --b F --c F [--kernel K] [--preset P]\n  \
           mmc serve [--addr HOST:PORT] [--ram-budget BYTES[k|m|g]] [--workers N] [--preset P] [--band X]\n  \
           mmc list\n\
         presets: q32 q32p q64 q64p q80 q80p;\n\
         algorithms: shared_opt distributed_opt tradeoff outer_product shared_equal distributed_equal cache_oblivious;\n\
         tilings (exec): shared_opt distributed_opt tradeoff equal; (lu): row_stripes shared_opt tradeoff;\n\
         granularities (trace): auto events steps;\n\
         kernels (--kernel K, env MMC_KERNEL=K forces the exec micro-kernel variant): {kernels};\n\
         env: MMC_SPANS=off disables the always-on span recorder; MMC_SPAN_RING=N sets its per-thread ring capacity"
    );
    exit(2);
}

/// Flags that take no value (presence means `"true"`).
const BOOL_FLAGS: &[&str] = &["json", "drift"];

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            eprintln!("unexpected argument {flag:?}");
            usage();
        };
        if BOOL_FLAGS.contains(&name) {
            flags.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            eprintln!("missing value for --{name}");
            usage();
        };
        flags.insert(name.to_string(), value.clone());
    }
    flags
}

fn preset(flags: &HashMap<String, String>) -> MachineConfig {
    match flags.get("preset").map(String::as_str).unwrap_or("q32") {
        "q32" => MachineConfig::quad_q32(),
        "q32p" => MachineConfig::quad_q32_pessimistic(),
        "q64" => MachineConfig::quad_q64(),
        "q64p" => MachineConfig::quad_q64_pessimistic(),
        "q80" => MachineConfig::quad_q80(),
        "q80p" => MachineConfig::quad_q80_pessimistic(),
        other => {
            eprintln!("unknown preset {other:?}");
            usage();
        }
    }
}

fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --{key}: {v:?}");
            usage();
        }),
    }
}

fn algo(flags: &HashMap<String, String>) -> Box<dyn Algorithm> {
    match flags.get("algo").map(String::as_str).unwrap_or_else(|| usage()) {
        "shared_opt" => Box::new(SharedOpt),
        "distributed_opt" => Box::new(DistributedOpt::default()),
        "tradeoff" => Box::new(Tradeoff::default()),
        "outer_product" => Box::new(OuterProduct::default()),
        "shared_equal" => Box::new(SharedEqual),
        "distributed_equal" => Box::new(DistributedEqual::default()),
        "cache_oblivious" => Box::new(CacheOblivious::new()),
        other => {
            eprintln!("unknown algorithm {other:?}");
            usage();
        }
    }
}

/// Resolve a `--setting` name to the `(declared machine, sim config)`
/// pair shared by `simulate` and `trace`.
fn sim_setting(
    setting: &str,
    machine: &MachineConfig,
    a: &dyn Algorithm,
) -> (MachineConfig, SimConfig) {
    match setting {
        "ideal" if a.id() == "outer_product" || a.id() == "cache_oblivious" => {
            eprintln!("note: {} manages no residency; running under LRU", a.name());
            (machine.clone(), SimConfig::lru(machine))
        }
        "ideal" => (machine.clone(), SimConfig::ideal(machine)),
        "lru" => (machine.clone(), SimConfig::lru(machine)),
        "lru2" => (machine.clone(), SimConfig::lru_scaled(machine, 2)),
        "lru50" => (machine.halved(), SimConfig::lru(machine)),
        other => {
            eprintln!("unknown setting {other:?}");
            usage();
        }
    }
}

/// Machine-readable `mmc simulate --json` output.
#[derive(Serialize, Deserialize)]
struct SimulateReport {
    #[serde(default)]
    schema_version: u32,
    algo: String,
    order: u32,
    setting: String,
    ms_lower_bound: f64,
    md_lower_bound: f64,
    predicted_ms: Option<f64>,
    predicted_md: Option<f64>,
    metrics: MetricsSnapshot,
}

fn cmd_simulate(flags: HashMap<String, String>) {
    let machine = preset(&flags);
    let order: u32 = num(&flags, "order", 0);
    if order == 0 {
        eprintln!("--order is required");
        usage();
    }
    let a = algo(&flags);
    let problem = ProblemSpec::square(order);
    let setting = flags.get("setting").map(String::as_str).unwrap_or("ideal");
    let (declared, cfg) = sim_setting(setting, &machine, a.as_ref());
    let mut sim = Simulator::new(cfg, order, order, order);
    let t0 = Instant::now();
    if let Err(e) = a.execute(&declared, &problem, &mut sim) {
        eprintln!("error: {e}");
        exit(1);
    }
    let dt = t0.elapsed();
    let stats = sim.stats();
    let pred = a.predict(&declared, &problem);
    if flags.contains_key("json") {
        let model = TimingModel::data_only(machine.sigma_s, machine.sigma_d);
        let report = SimulateReport {
            schema_version: SCHEMA_VERSION,
            algo: a.id().to_string(),
            order,
            setting: setting.to_string(),
            ms_lower_bound: bounds::ms_lower_bound(&problem, &declared),
            md_lower_bound: bounds::md_lower_bound(&problem, &declared),
            predicted_ms: pred.as_ref().map(|p| p.ms),
            predicted_md: pred.as_ref().map(|p| p.md),
            metrics: MetricsSnapshot::from_stats(
                a.id(),
                sim.config().policy.label(),
                stats,
                &model,
            ),
        };
        println!("{}", serde_json::to_string_pretty(&report).expect("serialize report"));
        return;
    }
    println!("{} on {} blocks ({setting}):", a.name(), problem);
    println!("{stats}");
    println!(
        "bounds: M_S >= {:.0}, M_D >= {:.0}",
        bounds::ms_lower_bound(&problem, &declared),
        bounds::md_lower_bound(&problem, &declared)
    );
    println!(
        "T_data = {:.0} (sigma_S = {}, sigma_D = {})",
        stats.t_data(machine.sigma_s, machine.sigma_d),
        machine.sigma_s,
        machine.sigma_d
    );
    if let Some(pred) = pred {
        println!("paper formula: M_S = {:.0}, M_D = {:.0}", pred.ms, pred.md);
    }
    println!("({} block FMAs simulated in {:.2}s)", stats.total_fmas(), dt.as_secs_f64());
}

fn cmd_plan(flags: HashMap<String, String>) {
    let mut machine = preset(&flags);
    if let (Some(_), _) | (_, Some(_)) = (flags.get("sigma-s"), flags.get("sigma-d")) {
        machine = machine.with_bandwidths(num(&flags, "sigma-s", 1.0), num(&flags, "sigma-d", 1.0));
    }
    let order: u32 = num(&flags, "order", 1000);
    let problem = ProblemSpec::square(order);
    println!(
        "machine: p = {}, C_S = {}, C_D = {}, q = {}, sigma_S = {}, sigma_D = {}",
        machine.cores,
        machine.shared_capacity,
        machine.dist_capacity,
        machine.block_size,
        machine.sigma_s,
        machine.sigma_d
    );
    println!("  lambda = {:?}, mu = {:?}", params::lambda(&machine), params::mu(&machine));
    println!(
        "  tradeoff: {:?} (alpha_num = {:.2})",
        params::tradeoff_params(&machine),
        params::alpha_num(&machine)
    );
    println!("\npredictions for a square order-{order} product:");
    let mut best: Option<(&'static str, f64)> = None;
    for a in all_algorithms() {
        match a.predict(&machine, &problem) {
            Some(p) => {
                let t = p.t_data(&machine);
                println!(
                    "  {:<20} M_S = {:>14.0}  M_D = {:>14.0}  T_data = {:>14.0}",
                    a.name(),
                    p.ms,
                    p.md,
                    t
                );
                if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                    best = Some((a.name(), t));
                }
            }
            None => println!("  {:<20} (no closed form)", a.name()),
        }
    }
    println!("\nT_data lower bound: {:.0}", bounds::tdata_lower_bound(&problem, &machine));
    if let Some((name, t)) = best {
        println!("recommendation: {name} (predicted T_data = {t:.0})");
    }
}

/// Machine-readable `mmc exec --json` output.
#[derive(Serialize, Deserialize)]
struct ExecReport {
    #[serde(default)]
    schema_version: u32,
    order: u32,
    q: usize,
    tiling: String,
    /// Dispatched micro-kernel variant (`scalar`, `avx2_fma`, `avx512_fma`, `neon`).
    kernel: String,
    /// The `µ` the executor cut its tiles by: the largest integer with
    /// `1 + µ + µ² ≤ C_D` (`C_D` the host L2 in blocks), capped so every
    /// thread gets a `µ×µ` unit.
    #[serde(default)]
    mu: u32,
    tasks: usize,
    threads: usize,
    seconds: f64,
    gflops: f64,
    naive_seconds: f64,
    matches: bool,
    /// Algorithm that ran: `classic` or `strassen` (after `auto`
    /// resolution).
    #[serde(default)]
    algo: String,
    /// Smallest square side (blocks) where the cost model predicts the
    /// Strassen recursion beats the classic block path.
    #[serde(default)]
    predicted_crossover_blocks: Option<u64>,
    /// Geometry/workspace report of the Strassen run, when one ran.
    #[serde(default)]
    strassen: Option<multicore_matmul::strassen::StrassenReport>,
    /// Strassen-vs-oracle max elementwise difference.
    #[serde(default)]
    max_abs_diff: Option<f64>,
    /// The documented Winograd error bound the difference was checked
    /// against (Higham's `18^d` growth, scaled by the operand maxima).
    #[serde(default)]
    tolerance: Option<f64>,
    /// Predicted-vs-measured drift over the traced tile phase; present
    /// only under `--drift` on the classic path.
    #[serde(default)]
    drift: Option<DriftReport>,
}

fn cmd_exec(flags: HashMap<String, String>) {
    let machine = preset(&flags);
    let order: u32 = num(&flags, "order", 8);
    let q: usize = num(&flags, "q", 16);
    let seed: u64 = num(&flags, "seed", 1);
    let tiling_name = flags.get("tiling").cloned().unwrap_or_else(|| "tradeoff".into());
    let tiling = match tiling_name.as_str() {
        "shared_opt" => Tiling::shared_opt(&machine),
        "distributed_opt" => Tiling::distributed_opt(&machine),
        "tradeoff" => Tiling::tradeoff(&machine),
        "equal" => Tiling::equal(machine.shared_capacity),
        other => {
            eprintln!("unknown tiling {other:?}");
            usage();
        }
    }
    .unwrap_or_else(|| {
        eprintln!("tiling infeasible on this preset");
        exit(1);
    });
    let a = BlockMatrix::pseudo_random(order, order, q, seed);
    let b = BlockMatrix::pseudo_random(order, order, q, seed + 1);
    let variant = multicore_matmul::exec::kernel::variant();
    let mu = multicore_matmul::exec::unit_mu::<f64>(order, order, q);

    // Model-driven algorithm selection: price the classic block path
    // and the Strassen recursion in the chosen preset machine's world
    // (same convention as `mmc plan`), with the selected tiling as the
    // model's blocking — so the prediction is deterministic per preset,
    // independent of the host caches the real executor tunes for.
    let cutoff: u32 = num(&flags, "cutoff", multicore_matmul::strassen::DEFAULT_CUTOFF);
    let env = CostEnv::for_machine(
        &machine,
        tiling.tile_m as u64,
        tiling.tile_k as u64,
        tiling.tile_n as u64,
    );
    let choice = choose_algorithm(order as u64, q as u64, cutoff as u64, &env);
    let crossover = predicted_crossover(q as u64, cutoff as u64, &env, 8192);
    let algo = match flags.get("algo").map(String::as_str).unwrap_or("classic") {
        "classic" => "classic",
        "strassen" => "strassen",
        "auto" => {
            if choice.use_strassen {
                "strassen"
            } else {
                "classic"
            }
        }
        other => {
            eprintln!("unknown algo {other:?} (expected classic|strassen|auto)");
            usage();
        }
    };

    let mut strassen_report = None;
    let t0 = Instant::now();
    let (c, run) = if algo == "strassen" {
        let opts = multicore_matmul::strassen::StrassenOpts {
            variant,
            tiling,
            ..multicore_matmul::strassen::StrassenOpts::with_cutoff::<f64>(cutoff)
        };
        let trace_job = multicore_matmul::obs::span::new_job();
        let epoch_ns = multicore_matmul::obs::span::now_ns();
        let (c, sr) = multicore_matmul::strassen::strassen_multiply(&a, &b, &opts);
        let spans = multicore_matmul::obs::span::collect_job(trace_job);
        strassen_report = Some(sr);
        (c, TracedRun { job: trace_job, epoch_ns, variant, spans })
    } else {
        run_traced(&a, &b, tiling, variant)
    };
    let dt = t0.elapsed().as_secs_f64();
    let tasks = run.spans.iter().filter(|s| s.kind == SpanKind::Tile).count();
    // Effective flops: Strassen does fewer, but GFLOP/s is reported
    // against the classic 2n³ so the two algorithms compare directly.
    let flops = 2.0 * (order as f64 * q as f64).powi(3);
    let threads = run.spans.iter().filter_map(|s| s.thread).max().map_or(0, |t| t as usize + 1);
    if let Some(path) = flags.get("trace-out") {
        let trace = spans_to_chrome("mmc exec", &run.spans, &registry_counters());
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("error writing {path}: {e}");
            exit(1);
        }
    }
    let drift = if flags.contains_key("drift") {
        if algo == "strassen" {
            eprintln!("note: --drift models the classic tile phase; skipped for strassen");
            None
        } else {
            let band: f64 = num(&flags, "band", multicore_matmul::obs::drift::DEFAULT_BAND);
            let model = ExecModel::for_run(&a, &b, variant);
            Some(exec_drift(&run, &model, band))
        }
    } else {
        None
    };
    let t0 = Instant::now();
    let oracle = gemm_naive(&a, &b);
    let dt_naive = t0.elapsed().as_secs_f64();
    // Classic runs round identically to the blockwise oracle; Winograd
    // re-associates, so it is checked against its documented bound.
    let (matches, max_abs_diff, tolerance) = match &strassen_report {
        None => (c == oracle, None, None),
        Some(sr) => {
            let tol =
                multicore_matmul::strassen::comparison_tolerance(&a, &b, sr, f64::EPSILON / 2.0);
            let diff = c.max_abs_diff(&oracle);
            (diff <= tol, Some(diff), Some(tol))
        }
    };
    let kernel = variant.name();
    if flags.contains_key("json") {
        let report = ExecReport {
            schema_version: SCHEMA_VERSION,
            order,
            q,
            tiling: tiling_name,
            kernel: kernel.to_string(),
            mu,
            tasks,
            threads,
            seconds: dt,
            gflops: flops / dt / 1e9,
            naive_seconds: dt_naive,
            matches,
            algo: algo.to_string(),
            predicted_crossover_blocks: crossover,
            strassen: strassen_report,
            max_abs_diff,
            tolerance,
            drift,
        };
        println!("{}", serde_json::to_string_pretty(&report).expect("serialize report"));
    } else {
        println!(
            "C = A x B, {}x{} blocks of {q}x{q} ({} x {} elements), tiling {:?}",
            order,
            order,
            order as usize * q,
            order as usize * q,
            tiling
        );
        println!(
            "  algorithm: {algo} (predicted classic {:.3e} vs strassen {:.3e}; crossover ~{} blocks)",
            choice.classic_time,
            choice.strassen_time,
            crossover.map_or_else(|| "none".into(), |x| x.to_string()),
        );
        println!(
            "  {dt:.3}s  ->  {:.2} GFLOP/s ({} tile tasks over {threads} threads, {kernel} kernel, mu = {mu})",
            flops / dt / 1e9,
            tasks
        );
        match (&strassen_report, max_abs_diff, tolerance) {
            (Some(sr), Some(diff), Some(tol)) => {
                println!(
                    "  depth {} over {}x{} padded blocks (leaf {}), {} leaf products, {} workspace bytes",
                    sr.depth,
                    sr.padded_side,
                    sr.padded_side,
                    sr.leaf_side,
                    sr.leaf_products,
                    sr.workspace_bytes
                );
                println!(
                    "  naive oracle: {dt_naive:.3}s; within Winograd tolerance: {matches} (max diff {diff:.3e} <= {tol:.3e})"
                );
            }
            _ => println!("  naive oracle: {dt_naive:.3}s; results identical: {matches}"),
        }
        if let Some(d) = &drift {
            print!("{}", d.render_text());
        }
    }
    if !matches {
        exit(1);
    }
}

fn cmd_lu(flags: HashMap<String, String>) {
    let machine = preset(&flags);
    let order: u32 = num(&flags, "order", 64);
    let panel: u32 = num(&flags, "panel", 8);
    let q: usize = num(&flags, "q", 8);
    let tiling = match flags.get("tiling").map(String::as_str).unwrap_or("shared_opt") {
        "row_stripes" => UpdateTiling::RowStripes,
        "shared_opt" => UpdateTiling::SharedOpt,
        "tradeoff" => UpdateTiling::Tradeoff,
        other => {
            eprintln!("unknown LU tiling {other:?}");
            usage();
        }
    };
    // Simulated misses.
    let lu = BlockedLu::new(panel, tiling);
    let mut sim = Simulator::new(SimConfig::lru(&machine), order, order, 1);
    let mut hooks = SimLuHooks::new(&mut sim);
    if let Err(e) = lu.run(&machine, order, &mut hooks) {
        eprintln!("error: {e}");
        exit(1);
    }
    println!("blocked LU, {order}x{order} blocks, panel {panel}, {tiling:?} updates:");
    println!(
        "  simulated LRU: M_S = {}, M_D = {} ({} update FMAs; bounds {:.0} / {:.0})",
        sim.stats().ms(),
        sim.stats().md(),
        lu_bounds::update_fmas(order as u64),
        lu_bounds::ms_lower_bound(order as u64, &machine),
        lu_bounds::md_lower_bound(order as u64, &machine),
    );
    // Real factorization on a smaller instance if order is big.
    let n_exec = order.min(24);
    let a = multicore_matmul::lu::exec::diagonally_dominant(n_exec, q, 7);
    let mut m = a.clone();
    let t0 = Instant::now();
    if let Err(e) = multicore_matmul::lu::lu_factor_parallel(&mut m, panel.min(n_exec)) {
        eprintln!("error: {e}");
        exit(1);
    }
    println!(
        "  executed {n_exec}x{n_exec} blocks (q = {q}) in {:.3}s; residual = {:.2e}",
        t0.elapsed().as_secs_f64(),
        multicore_matmul::lu::residual(&m, &a)
    );
}

/// Machine-readable `mmc profile --json` output.
#[derive(Serialize, Deserialize)]
struct ProfileReport {
    #[serde(default)]
    schema_version: u32,
    algo: String,
    order: u32,
    capacities: Vec<u64>,
    misses: Vec<u64>,
    accesses: u64,
    distinct: u64,
    working_set: u64,
}

fn cmd_profile(flags: HashMap<String, String>) {
    let machine = preset(&flags);
    let order: u32 = num(&flags, "order", 60);
    let a = algo(&flags);
    let problem = ProblemSpec::square(order);
    let mut sink = ProfilingSink::new(problem.block_space(), machine.cores, machine.dist_capacity);
    if let Err(e) = a.execute(&machine, &problem, &mut sink) {
        eprintln!("error: {e}");
        exit(1);
    }
    let base = machine.shared_capacity;
    let capacities = [base / 4, base / 2, base, 2 * base, 4 * base];
    if flags.contains_key("json") {
        let report = ProfileReport {
            schema_version: SCHEMA_VERSION,
            algo: a.id().to_string(),
            order,
            capacities: capacities.iter().map(|&c| c as u64).collect(),
            misses: capacities
                .iter()
                .map(|&c| sink.shared_profile.misses_for_capacity(c))
                .collect(),
            accesses: sink.shared_profile.accesses(),
            distinct: sink.shared_profile.distinct(),
            working_set: sink.shared_profile.working_set() as u64,
        };
        println!("{}", serde_json::to_string_pretty(&report).expect("serialize report"));
        return;
    }
    println!(
        "{} on {problem} blocks — shared-level LRU miss curve (private caches at C_D = {}):",
        a.name(),
        machine.dist_capacity
    );
    println!("  {:>8} {:>14}", "C_S", "misses");
    for cs in capacities {
        println!("  {:>8} {:>14}", cs, sink.shared_profile.misses_for_capacity(cs));
    }
    println!(
        "  stream: {} accesses, {} distinct blocks, deepest reuse {}",
        sink.shared_profile.accesses(),
        sink.shared_profile.distinct(),
        sink.shared_profile.working_set()
    );
}

/// The algorithm whose block schedule an exec tiling implements, so the
/// `counters` subcommand can place model predictions (closed form + exact
/// LRU simulation) next to hardware measurements of the same point.
fn tiling_algorithm(name: &str) -> Box<dyn Algorithm> {
    match name {
        "shared_opt" => Box::new(SharedOpt),
        "distributed_opt" => Box::new(DistributedOpt::default()),
        "tradeoff" => Box::new(Tradeoff::default()),
        "equal" => Box::new(SharedEqual),
        other => {
            eprintln!("unknown tiling {other:?}");
            usage();
        }
    }
}

/// An object `Value` from literal key/value pairs. The `counters` report
/// is assembled by hand because its `counters` field is a union (object
/// when the PMU is live, the string `"unavailable"` otherwise), which the
/// derive facade cannot express.
fn jobj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `mmc counters` — model-vs-machine reconciliation for one GEMM point.
///
/// Runs the chosen tiling's schedule twice: once through the cache
/// simulator (exact LRU misses at the declared capacities) and once for
/// real under `perf_event_open(2)` hardware counters, then prints both
/// sides. Degrades gracefully: when the PMU is missing (container,
/// `perf_event_paranoid`, `MMC_PERF=off`) the report carries
/// `counters: "unavailable"` plus the reason and the command still exits
/// zero, so scripted callers never have to special-case permission
/// errors.
fn cmd_counters(flags: HashMap<String, String>) {
    let machine = preset(&flags);
    let order: u32 = num(&flags, "order", 12);
    let q: usize = num(&flags, "q", 16);
    let seed: u64 = num(&flags, "seed", 1);
    let tiling_name = flags.get("tiling").cloned().unwrap_or_else(|| "tradeoff".into());
    let tiling = match tiling_name.as_str() {
        "shared_opt" => Tiling::shared_opt(&machine),
        "distributed_opt" => Tiling::distributed_opt(&machine),
        "tradeoff" => Tiling::tradeoff(&machine),
        "equal" => Tiling::equal(machine.shared_capacity),
        other => {
            eprintln!("unknown tiling {other:?}");
            usage();
        }
    }
    .unwrap_or_else(|| {
        eprintln!("tiling infeasible on this preset");
        exit(1);
    });
    let variant = kernel_flag(&flags);
    let a = tiling_algorithm(&tiling_name);
    let problem = ProblemSpec::square(order);

    // Model side: paper closed form plus an exact LRU simulation of the
    // same (algorithm, order) point.
    let pred = a.predict(&machine, &problem);
    let mut sim = Simulator::new(SimConfig::lru(&machine), order, order, order);
    if let Err(e) = a.execute(&machine, &problem, &mut sim) {
        eprintln!("error: {e}");
        exit(1);
    }
    let stats = sim.stats();
    let block_bytes = (q * q * 8) as u64;
    let predicted_bytes = stats.ms() * block_bytes;

    // Machine side: the same schedule executed for real, wrapped in perf
    // counters, with registry deltas isolating this run's contribution.
    let ma = BlockMatrix::pseudo_random(order, order, q, seed);
    let mb = BlockMatrix::pseudo_random(order, order, q, seed + 1);
    let before = multicore_matmul::obs::global().snapshot();
    let counters = PerfCounters::open();
    let t0 = Instant::now();
    let c = gemm_parallel_with_kernel(&ma, &mb, tiling, variant);
    let seconds = t0.elapsed().as_secs_f64();
    let reading = counters.read();
    let after = multicore_matmul::obs::global().snapshot();
    std::hint::black_box(&c);

    let delta = |name: &str| {
        after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
    };
    let flops = delta(&format!("exec.flops.{}", variant.name()));
    let gflops = if seconds > 0.0 { flops as f64 / seconds / 1e9 } else { 0.0 };
    let llc_miss_bytes = if counters.hardware_available() {
        reading.get("llc_load_misses").or_else(|| reading.get("cache_misses")).map(|m| m * 64)
    } else {
        None
    };

    if flags.contains_key("json") {
        let predicted = jobj(vec![
            ("ms_formula_blocks", pred.as_ref().map_or(Value::Null, |p| Value::Float(p.ms))),
            ("md_formula_blocks", pred.as_ref().map_or(Value::Null, |p| Value::Float(p.md))),
            (
                "t_data_formula",
                pred.as_ref().map_or(Value::Null, |p| Value::Float(p.t_data(&machine))),
            ),
            ("ms_simulated_blocks", Value::UInt(stats.ms())),
            ("md_simulated_blocks", Value::UInt(stats.md())),
            ("t_data_simulated", Value::Float(stats.t_data(machine.sigma_s, machine.sigma_d))),
            ("shared_traffic_bytes", Value::UInt(predicted_bytes)),
        ]);
        let measured = jobj(vec![
            ("wall_seconds", Value::Float(seconds)),
            ("gflops", Value::Float(gflops)),
            ("kernel_flops", Value::UInt(flops)),
        ]);
        let (counters_value, mut extra) = if counters.hardware_available() {
            let hw: Vec<(&str, Value)> =
                reading.hardware.iter().map(|v| (v.event.as_str(), Value::UInt(v.value))).collect();
            let hw =
                Value::Object(hw.into_iter().map(|(k, v)| (k.to_string(), v)).collect::<Vec<_>>());
            let mut extra =
                vec![("counters_multiplexed".to_string(), Value::Bool(reading.multiplexed))];
            if let Some(bytes) = llc_miss_bytes {
                let mut derived = vec![("llc_miss_bytes".to_string(), Value::UInt(bytes))];
                if predicted_bytes > 0 {
                    derived.push((
                        "measured_vs_predicted_bytes".to_string(),
                        Value::Float(bytes as f64 / predicted_bytes as f64),
                    ));
                }
                extra.push(("derived".to_string(), Value::Object(derived)));
            }
            (hw, extra)
        } else {
            (
                Value::Str("unavailable".to_string()),
                vec![(
                    "counters_reason".to_string(),
                    Value::Str(counters.unavailable_reason().unwrap_or("unknown").to_string()),
                )],
            )
        };
        let software = Value::Object(
            reading
                .software
                .iter()
                .map(|v| (v.event.clone(), Value::UInt(v.value)))
                .collect::<Vec<_>>(),
        );
        let mut fields = vec![
            ("schema_version".to_string(), Value::UInt(SCHEMA_VERSION as u64)),
            ("order".to_string(), Value::UInt(order as u64)),
            ("q".to_string(), Value::UInt(q as u64)),
            ("tiling".to_string(), Value::Str(tiling_name)),
            ("algorithm".to_string(), Value::Str(a.id().to_string())),
            ("kernel".to_string(), Value::Str(variant.name().to_string())),
            ("predicted".to_string(), predicted),
            ("measured".to_string(), measured),
            ("counters".to_string(), counters_value),
        ];
        fields.append(&mut extra);
        fields.push(("software_counters".to_string(), software));
        let report = Value::Object(fields);
        println!("{}", serde_json::to_string_pretty(&report).expect("serialize report"));
        return;
    }

    println!(
        "{} schedule on {order}x{order} blocks of {q}x{q} ({} kernel):",
        a.name(),
        variant.name()
    );
    match &pred {
        Some(p) => println!(
            "  model:    M_S = {:.0} (formula) / {} (LRU sim), M_D = {:.0} / {}, \
             shared traffic {:.1} MiB",
            p.ms,
            stats.ms(),
            p.md,
            stats.md(),
            mib(predicted_bytes)
        ),
        None => println!(
            "  model:    M_S = {} (LRU sim), M_D = {} (no closed form), \
             shared traffic {:.1} MiB",
            stats.ms(),
            stats.md(),
            mib(predicted_bytes)
        ),
    }
    println!("  machine:  {seconds:.3}s wall, {gflops:.2} GFLOP/s, {flops} kernel FLOPs");
    if counters.hardware_available() {
        for v in &reading.hardware {
            println!("  counter:  {:<18} {}", v.event, v.value);
        }
        if reading.multiplexed {
            println!("  counter:  (values scaled for multiplexing)");
        }
        if let Some(bytes) = llc_miss_bytes {
            print!("  derived:  LLC miss traffic {:.1} MiB", mib(bytes));
            if predicted_bytes > 0 {
                print!(" = {:.2}x predicted shared traffic", bytes as f64 / predicted_bytes as f64);
            }
            println!();
        }
    } else {
        println!(
            "  counters: unavailable ({})",
            counters.unavailable_reason().unwrap_or("unknown")
        );
    }
    for v in &reading.software {
        println!("  software: {:<18} {}", v.event, v.value);
    }
}

/// `mmc figures` — the sharded figure harness, embedded in the CLI so the
/// paper sweep is reachable without `cargo run -p mmc-bench`. Positional
/// ids plus the `figures` binary's flags (`--jobs`, `--resume`,
/// `--serial`, `--full`, `--out`, `--quiet`).
fn cmd_figures(args: &[String]) {
    use mmc_bench::{figure_ids, run_figure_sharded, HarnessOpts, SweepOpts};
    let mut ids: Vec<String> = Vec::new();
    let mut out = std::path::PathBuf::from("target/figures");
    let mut opts = SweepOpts { verbose: true, ..SweepOpts::default() };
    let mut harness = HarnessOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = std::path::PathBuf::from(it.next().unwrap_or_else(|| usage())),
            "--full" => opts.full = true,
            "--quiet" => opts.verbose = false,
            "--jobs" => {
                harness.jobs = it.next().and_then(|v| v.parse().ok()).or_else(|| usage());
            }
            "--resume" => harness.resume = true,
            "--serial" => harness.serial = true,
            "--orders" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let orders: Result<Vec<u32>, _> =
                    spec.split(',').map(|t| t.trim().parse::<u32>()).collect();
                match orders {
                    Ok(o) if !o.is_empty() => opts.orders = Some(o),
                    _ => usage(),
                }
            }
            "list" => {
                for id in figure_ids() {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(figure_ids().iter().map(|s| s.to_string())),
            s if s.starts_with('-') => usage(),
            s => ids.push(s.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
    }
    ids.dedup();
    for id in &ids {
        if !figure_ids().contains(&id.as_str()) {
            eprintln!("unknown figure id {id:?}");
            usage();
        }
    }
    harness.cache_dir = Some(out.join("cache"));
    let mut failures = 0usize;
    for id in &ids {
        let t0 = Instant::now();
        eprintln!("== {id} ==");
        let (panels, report) = run_figure_sharded(id, &opts, &harness);
        eprintln!("{}", report.summary(id));
        for err in &report.errors {
            eprintln!("  [points] FAILED {}: {}", err.point, err.message);
        }
        failures += report.failed;
        for panel in &panels {
            match panel.write_csv(&out) {
                Ok(path) => eprintln!("  wrote {}", path.display()),
                Err(e) => {
                    eprintln!("  failed to write CSV for {}: {e}", panel.id);
                    exit(1);
                }
            }
            println!("{}", panel.to_table());
        }
        eprintln!("== {id} done in {:.1}s ==\n", t0.elapsed().as_secs_f64());
    }
    if failures > 0 {
        eprintln!("{failures} point(s) failed; affected cells are empty");
        exit(1);
    }
}

/// Journal-size threshold above which `--granularity auto` switches from
/// per-event spans to per-superstep aggregation.
const AUTO_GRANULARITY_LIMIT: usize = 200_000;

fn cmd_trace(flags: HashMap<String, String>) {
    let machine = preset(&flags);
    let order: u32 = num(&flags, "order", 0);
    if order == 0 {
        eprintln!("--order is required");
        usage();
    }
    let Some(out) = flags.get("out") else {
        eprintln!("--out is required");
        usage();
    };
    let a = algo(&flags);
    let problem = ProblemSpec::square(order);
    let setting = flags.get("setting").map(String::as_str).unwrap_or("lru");
    let (declared, cfg) = sim_setting(setting, &machine, a.as_ref());
    // Default FMA cost: one distributed-cache fill time per block FMA, so
    // compute and data spans are comparable in the timeline.
    let fma_time: f64 = num(&flags, "fma-time", 1.0 / machine.sigma_d);
    let model = TimingModel { fma_time, sigma_s: machine.sigma_s, sigma_d: machine.sigma_d };
    let mut rec = FlightRecorder::new(Simulator::new(cfg, order, order, order), model);
    let t0 = Instant::now();
    if let Err(e) = a.execute(&declared, &problem, &mut rec) {
        eprintln!("error: {e}");
        exit(1);
    }
    let dt = t0.elapsed();
    let granularity = match flags.get("granularity").map(String::as_str).unwrap_or("auto") {
        "events" => ChromeGranularity::Events,
        "steps" => ChromeGranularity::Supersteps,
        "auto" if rec.journal().len() <= AUTO_GRANULARITY_LIMIT => ChromeGranularity::Events,
        "auto" => ChromeGranularity::Supersteps,
        other => {
            eprintln!("unknown granularity {other:?}");
            usage();
        }
    };
    let text = rec.chrome_trace(granularity);
    if let Err(e) = std::fs::write(out, &text) {
        eprintln!("error writing {out}: {e}");
        exit(1);
    }
    let stats = rec.stats();
    println!("{} on {} blocks ({setting}), flight recorder:", a.name(), problem);
    println!(
        "  {} journal events, {} supersteps, logical makespan {:.0}",
        rec.journal().len(),
        rec.supersteps(),
        rec.elapsed()
    );
    println!(
        "  M_S = {}, M_D = {}, {} block FMAs (recorded in {:.2}s)",
        stats.ms(),
        stats.md(),
        stats.total_fmas(),
        dt.as_secs_f64()
    );
    println!(
        "  wrote {out} ({:.1} KiB, {granularity:?} granularity) — load at https://ui.perfetto.dev",
        text.len() as f64 / 1024.0
    );
}

/// A flag whose value is required; missing means usage error (exit 2).
fn req<'a>(flags: &'a HashMap<String, String>, key: &str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or_else(|| {
        eprintln!("--{key} is required");
        usage();
    })
}

/// Resolve a `--<key> BYTES[k|m|g]` budget flag through the shared
/// overflow-checked [`parse_bytes`] helper (the same one the blocking
/// planner uses on sysfs cache sizes). `default` fills in when the flag
/// is absent; `None` makes the flag required. Malformed or overflowing
/// spellings are a usage error, never a wrapped value.
fn budget_flag(flags: &HashMap<String, String>, key: &str, default: Option<u64>) -> u64 {
    match flags.get(key) {
        Some(text) => parse_bytes(text.trim()).unwrap_or_else(|| {
            eprintln!("invalid --{key} {text:?} (use e.g. 4096, 64k, 8m, 1g)");
            usage();
        }),
        None => default.unwrap_or_else(|| {
            eprintln!("--{key} is required");
            usage();
        }),
    }
}

/// Resolve `--kernel` to a variant runnable on this CPU.
fn kernel_flag(flags: &HashMap<String, String>) -> KernelVariant {
    let v = match flags.get("kernel").map(String::as_str).unwrap_or("auto") {
        "auto" => multicore_matmul::exec::kernel::variant(),
        name => KernelVariant::from_name(name).unwrap_or_else(|| {
            eprintln!("unknown kernel {name:?}");
            usage();
        }),
    };
    if !v.is_available() {
        eprintln!("error: kernel {} is not available on this CPU", v.name());
        exit(1);
    }
    v
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// `mmc ooc gen|multiply|verify` — the out-of-core streaming subsystem.
/// Every file argument that is missing, unreadable, or not a tiled
/// matrix produces a clean error and a nonzero exit, never a panic.
fn cmd_ooc(args: &[String]) {
    use multicore_matmul::ooc;
    let Some((sub, rest)) = args.split_first() else {
        eprintln!("ooc needs a subcommand: gen, multiply, verify");
        usage();
    };
    let flags = parse_flags(rest);
    match sub.as_str() {
        "gen" => {
            let out = req(&flags, "out");
            let rows: u32 = num(&flags, "rows", 0);
            let cols: u32 = num(&flags, "cols", 0);
            if rows == 0 || cols == 0 {
                eprintln!("--rows and --cols are required");
                usage();
            }
            let q: usize = num(&flags, "q", 32);
            let seed: u64 = num(&flags, "seed", 1);
            if let Err(e) = ooc::write_pseudo_random(std::path::Path::new(out), rows, cols, q, seed)
            {
                eprintln!("error: {e}");
                exit(1);
            }
            println!(
                "wrote {out}: {rows}x{cols} blocks of {q}x{q} (seed {seed}, {:.1} MiB)",
                mib(40 + rows as u64 * cols as u64 * (q * q * 8) as u64)
            );
        }
        "multiply" => {
            let a = req(&flags, "a").to_string();
            let b = req(&flags, "b").to_string();
            let out = req(&flags, "out").to_string();
            let budget = budget_flag(&flags, "mem-budget", None);
            let mut opts = ooc::OocOpts::new(budget);
            opts.io_threads = num(&flags, "io-threads", 2usize).max(1);
            opts.variant = kernel_flag(&flags);
            opts.machine = preset(&flags);
            // Give the run its own trace job so recorder spans (and the
            // report's drift section) are attributable to this invocation.
            multicore_matmul::obs::span::new_job();
            let report = match ooc::ooc_multiply(
                std::path::Path::new(&a),
                std::path::Path::new(&b),
                std::path::Path::new(&out),
                &opts,
            ) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    exit(1);
                }
            };
            if let Some(path) = flags.get("trace-out") {
                let spans = multicore_matmul::obs::span::collect_job(report.trace_job);
                let trace = spans_to_chrome("mmc ooc multiply", &spans, &registry_counters());
                if let Err(e) = std::fs::write(path, trace) {
                    eprintln!("error writing {path}: {e}");
                    exit(1);
                }
            }
            if flags.contains_key("json") {
                println!("{}", serde_json::to_string_pretty(&report).expect("serialize report"));
                return;
            }
            let s = report.staging;
            println!(
                "out-of-core C = A x B: {}x{}x{} blocks of {}x{} through a {:.1} MiB budget",
                report.m,
                report.n,
                report.z,
                report.q,
                report.q,
                mib(report.budget_bytes)
            );
            println!(
                "  staging: alpha = {}, beta = {}, ring depth {} (resident {} blocks)",
                s.alpha,
                s.beta,
                s.slots,
                s.resident_blocks()
            );
            let sigma_f = match report.sigma_f_blocks_per_s {
                Some(s) => format!("measured sigma_F = {s:.0} blocks/s/thread"),
                None => format!(
                    "sigma_F unmeasured (no timed I/O); model assumes {:.0} blocks/s",
                    report.t_data3.sigma_f
                ),
            };
            println!(
                "  disk: read {:.1} MiB over {} panels, wrote {:.1} MiB; {sigma_f}",
                mib(report.prefetch.bytes_read),
                report.prefetch.panels_staged,
                mib(report.bytes_written),
            );
            println!(
                "  peak resident {:.2} MiB of {:.2} MiB budget (within budget: {})",
                mib(report.peak_resident_bytes),
                mib(report.budget_bytes),
                report.within_budget
            );
            println!(
                "  stalls: compute waited {:.3}s for disk, disk waited {:.3}s for buffers",
                report.prefetch.stall_seconds, report.prefetch.buffer_wait_seconds
            );
            println!("  {}", report.t_data3);
            println!(
                "  {:.3}s wall ({:.3}s compute, {} kernel, {} I/O threads); wrote {out}",
                report.elapsed_seconds, report.compute_seconds, report.kernel, report.io_threads
            );
            if flags.contains_key("drift") {
                if let Some(d) = &report.drift {
                    print!("{}", d.render_text());
                }
            }
            if !report.within_budget {
                exit(1);
            }
        }
        "verify" => {
            let a = req(&flags, "a");
            let b = req(&flags, "b");
            let c = req(&flags, "c");
            let variant = kernel_flag(&flags);
            let machine = preset(&flags);
            match ooc::ooc_verify(
                std::path::Path::new(a),
                std::path::Path::new(b),
                std::path::Path::new(c),
                variant,
                &machine,
            ) {
                Ok(0) => println!("{c} is bit-identical to the in-core {} product", variant.name()),
                Ok(mismatches) => {
                    eprintln!(
                        "error: {c} differs from the in-core product in {mismatches} elements"
                    );
                    exit(1);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    exit(1);
                }
            }
        }
        other => {
            eprintln!("unknown ooc subcommand {other:?}");
            usage();
        }
    }
}

/// Combined `mmc drift --json` payload: one in-memory and one
/// out-of-core drift report over the same problem shape.
#[derive(Serialize, Deserialize)]
struct DriftSummary {
    schema_version: u32,
    order: u32,
    q: usize,
    band: f64,
    exec: DriftReport,
    ooc: DriftReport,
}

/// Registry counter totals, as Chrome counter events for a trace export.
fn registry_counters() -> Vec<(String, f64)> {
    multicore_matmul::obs::global()
        .snapshot()
        .counters
        .into_iter()
        .map(|c| (c.name, c.value as f64))
        .collect()
}

fn cmd_drift(flags: HashMap<String, String>) {
    use multicore_matmul::obs::span;
    use multicore_matmul::ooc;

    let machine = preset(&flags);
    let order: u32 = num(&flags, "order", 6);
    let q: usize = num(&flags, "q", 16);
    let seed: u64 = num(&flags, "seed", 1);
    let band: f64 = num(&flags, "band", multicore_matmul::obs::drift::DEFAULT_BAND);
    if order == 0 || q == 0 {
        eprintln!("--order and --q must be positive");
        usage();
    }
    if !span::enabled() {
        eprintln!("error: the span recorder is disabled (MMC_SPANS=off); drift needs spans");
        exit(1);
    }
    let variant = kernel_flag(&flags);

    // In-memory leg: one whole-problem tile, cut into µ×µ work units.
    let a = BlockMatrix::pseudo_random(order, order, q, seed);
    let b = BlockMatrix::pseudo_random(order, order, q, seed + 1);
    let tiling = Tiling { tile_m: order, tile_n: order, tile_k: 1 };
    let (_c, run) = run_traced(&a, &b, tiling, variant);
    let model = ExecModel::for_run(&a, &b, variant);
    let exec_report = exec_drift(&run, &model, band);

    // Out-of-core leg: the same shape streamed from disk through a
    // small budget, in a scratch directory we clean up afterwards.
    let block_bytes = (q * q * 8) as u64;
    let budget = budget_flag(&flags, "mem-budget", Some(24 * block_bytes));
    let dir = std::env::temp_dir().join(format!("mmc-drift-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error creating {}: {e}", dir.display());
        exit(1);
    }
    let (fa, fb, fc) = (dir.join("a.tiled"), dir.join("b.tiled"), dir.join("c.tiled"));
    let gen = ooc::write_pseudo_random(&fa, order, order, q, seed)
        .and_then(|()| ooc::write_pseudo_random(&fb, order, order, q, seed + 1));
    if let Err(e) = gen {
        eprintln!("error generating operands: {e}");
        exit(1);
    }
    let mut opts = ooc::OocOpts::new(budget);
    opts.variant = variant;
    opts.machine = machine;
    let ooc_job = span::new_job();
    let report = match ooc::ooc_multiply(&fa, &fb, &fc, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            let _ = std::fs::remove_dir_all(&dir);
            exit(1);
        }
    };
    let ooc_report = ooc_drift(&report, band);

    if let Some(path) = flags.get("trace-out") {
        // Both jobs stamp the process-wide epoch, so their spans merge
        // into one coherent timeline; registry totals ride along as
        // Chrome counter events.
        let mut merged = run.spans.clone();
        merged.extend(span::collect_job(ooc_job));
        merged.sort_by_key(|s| (s.start_ns, s.kind, s.thread));
        let trace = spans_to_chrome("mmc drift", &merged, &registry_counters());
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("error writing {path}: {e}");
            let _ = std::fs::remove_dir_all(&dir);
            exit(1);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    if flags.contains_key("json") {
        let summary = DriftSummary {
            schema_version: SCHEMA_VERSION,
            order,
            q,
            band,
            exec: exec_report,
            ooc: ooc_report,
        };
        println!("{}", serde_json::to_string_pretty(&summary).expect("serialize summary"));
    } else {
        println!(
            "drift check: {order}x{order} blocks of {q}x{q}, {} kernel, band ±{:.0}%",
            variant.name(),
            band * 100.0
        );
        print!("{}", exec_report.render_text());
        print!("{}", ooc_report.render_text());
    }
}

/// `mmc serve` — run the model-driven GEMM-as-a-service daemon until a
/// client sends `shutdown` (or the process is killed). The listening
/// line is printed (and flushed) first so wrappers can scrape the bound
/// port even when `--addr` asked for an ephemeral one.
fn cmd_serve(flags: HashMap<String, String>) {
    use multicore_matmul::serve::{ServeConfig, Server};
    let config = ServeConfig {
        addr: flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:0".into()),
        ram_budget_bytes: budget_flag(&flags, "ram-budget", Some(256 << 20)),
        max_concurrent: num(&flags, "workers", 4usize).max(1),
        machine: preset(&flags),
        band: num(&flags, "band", multicore_matmul::obs::drift::DEFAULT_BAND),
    };
    let budget = config.ram_budget_bytes;
    let workers = config.max_concurrent;
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error starting server: {e}");
            exit(1);
        }
    };
    println!(
        "mmc serve listening on {} (ram budget {:.1} MiB, {workers} workers)",
        server.local_addr(),
        mib(budget)
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    println!("mmc serve: clean shutdown");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else { usage() };
    match cmd.as_str() {
        "simulate" => cmd_simulate(parse_flags(rest)),
        "plan" => cmd_plan(parse_flags(rest)),
        "exec" => cmd_exec(parse_flags(rest)),
        "drift" => cmd_drift(parse_flags(rest)),
        "lu" => cmd_lu(parse_flags(rest)),
        "profile" => cmd_profile(parse_flags(rest)),
        "counters" => cmd_counters(parse_flags(rest)),
        "trace" => cmd_trace(parse_flags(rest)),
        "figures" => cmd_figures(rest),
        "ooc" => cmd_ooc(rest),
        "serve" => cmd_serve(parse_flags(rest)),
        "list" => {
            for a in all_algorithms() {
                println!("{:<20} {}", a.id(), a.name());
            }
            println!("{:<20} Cache Oblivious (extension)", "cache_oblivious");
        }
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command {other:?}");
            usage();
        }
    }
}
