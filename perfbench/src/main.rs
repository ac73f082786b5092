//! `perfbench --workload <gemm_ladder|ooc_stream|serve_mixed|all> --seed N
//! --seconds S --trace <0|1>`
//!
//! Prints a stamp, a metric table and, as the last line, one JSON result
//! object. Exits 1 when an output check fails, 2 on a usage error.

use std::process::ExitCode;

use mmc_perfbench::host::{self, WorkDir};
use mmc_perfbench::report::{self, Outcome, LAYERS};
use mmc_perfbench::{ladder, layers, ooc_stream, serve_mixed, RunCfg};

const WORKLOADS: [&str; 3] = ["gemm_ladder", "ooc_stream", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

fn why(workload: &str) -> &'static str {
    match workload {
        "gemm_ladder" => ladder::WHY,
        "ooc_stream" => ooc_stream::WHY,
        _ => serve_mixed::WHY,
    }
}

fn run_one(workload: &str, cfg: &RunCfg<'_>) -> Outcome {
    let mut extra = ladder::operand_bytes();
    extra.extend(ooc_stream::stamp_fields());
    extra.extend(serve_mixed::stamp_fields());
    println!("stamp {}", host::stamp(workload, cfg.seed, why(workload), &extra));
    let mut out = match workload {
        "gemm_ladder" => ladder::run(cfg),
        "ooc_stream" => ooc_stream::run(cfg),
        _ => serve_mixed::run(cfg),
    };
    if cfg.trace {
        let (mem, ooc) = serve_mixed::pricing_specs(cfg.seed);
        layers::probes(&mut out, &mem, &ooc, cfg.seed);
        // Every layer metric appears in every traced run: a layer this
        // workload never reaches reads 0.
        for l in LAYERS {
            if out.get(l.name).is_none() {
                out.set(l.name, 0.0);
            }
        }
        let order = |n: &str| LAYERS.iter().position(|l| l.name == n);
        out.metrics.sort_by_key(|(n, _)| order(n));
        for l in LAYERS {
            println!(
                "layer {:<26} {:<13} moves {:<12} on {:<34} flat on {}",
                l.name,
                l.layer,
                l.moves,
                l.on,
                if l.flat_on.is_empty() { "-" } else { l.flat_on }
            );
        }
    }
    for line in out.notes.iter().map(|n| format!("{workload:<12} note: {n}")) {
        println!("{line}");
    }
    for line in report::table(workload, &out) {
        println!("{line}");
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::from(1);
        }
    };
    let cfg = RunCfg { seed: args.seed, seconds: args.seconds, trace: args.trace, work: &work };
    let (attempted, failed, metrics) = if args.workload == "all" {
        let mut total = (0, 0, Vec::new());
        for w in WORKLOADS {
            let o = run_one(w, &cfg);
            total.0 += o.attempted;
            total.1 += o.failed;
            total.2.extend(o.metrics.into_iter().map(|(n, v)| (format!("{w}/{n}"), v)));
        }
        total
    } else {
        let o = run_one(&args.workload, &cfg);
        (o.attempted, o.failed, o.metrics)
    };
    drop(work);
    let correct = failed == 0 && attempted > 0;
    println!("{}", report::result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
