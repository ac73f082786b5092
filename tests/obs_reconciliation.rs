//! Golden reconciliation: the mmc-obs registry's counters must agree
//! exactly with the simulator's and the prefetch pipeline's own
//! bookkeeping for the same run — the observability layer may not
//! drift from the sources of truth it mirrors.
//!
//! The registry is process-global, so every test takes before/after
//! snapshots and asserts on deltas, serialized under one mutex so
//! concurrent tests cannot interleave their contributions.

use multicore_matmul::obs;
use multicore_matmul::ooc::{ooc_multiply, write_pseudo_random, OocOpts};
use multicore_matmul::prelude::*;
use std::sync::Mutex;

/// Serializes registry-delta tests: global counter deltas are only
/// attributable when one measured region runs at a time.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn counter_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
}

/// The executor's FLOP counter must equal both the closed-form count
/// (2·m·n·z·q³ for block GEMM) and the simulator's FMA count for the
/// same problem scaled by the per-block cost 2q³ — model and machine
/// agree on the work done, exactly.
#[test]
fn exec_flop_counter_matches_simulator_fma_count() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    let machine = MachineConfig::quad_q32();
    let (order, q) = (6u32, 8usize);
    let a = BlockMatrix::pseudo_random(order, order, q, 11);
    let b = BlockMatrix::pseudo_random(order, order, q, 12);
    let tiling = Tiling::tradeoff(&machine).expect("tradeoff feasible on q32");

    let before = obs::global().snapshot();
    let c = gemm_parallel_with_kernel(&a, &b, tiling, KernelVariant::Scalar);
    let after = obs::global().snapshot();
    std::hint::black_box(&c);

    let flops = counter_delta(&before, &after, "exec.flops.scalar");
    let closed_form = 2 * (order as u64 * q as u64).pow(3);
    assert_eq!(flops, closed_form, "registry FLOPs must match 2(nq)^3");

    // The simulator executing the same schedule family counts order^3
    // block FMAs; each block FMA is 2q^3 scalar FLOPs.
    let problem = ProblemSpec::square(order);
    let mut sim = Simulator::new(SimConfig::lru(&machine), order, order, order);
    Tradeoff::default().execute(&machine, &problem, &mut sim).unwrap();
    let sim_flops = sim.stats().total_fmas() * 2 * (q as u64).pow(3);
    assert_eq!(flops, sim_flops, "registry FLOPs must match simulator FMAs x 2q^3");

    // At least one tile task ran and was counted.
    assert!(counter_delta(&before, &after, "exec.tiles.scalar") >= 1);
}

/// The schedule-level FLOP counter (fed by `ExecSink::fma`) reconciles
/// with the simulator the same way: one counted block FMA per simulated
/// block FMA.
#[test]
fn schedule_flop_counter_matches_sink_fmas() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    let machine = MachineConfig::quad_q32();
    let order = 4u32;
    let q = machine.block_size;
    let problem = ProblemSpec::square(order);

    let ma = BlockMatrix::pseudo_random(order, order, q, 21);
    let mb = BlockMatrix::pseudo_random(order, order, q, 22);
    let before = obs::global().snapshot();
    let c = run_schedule(&SharedOpt, &machine, &ma, &mb).expect("schedule runs");
    let after = obs::global().snapshot();
    std::hint::black_box(&c);

    let mut sim = Simulator::new(SimConfig::lru(&machine), order, order, order);
    SharedOpt.execute(&machine, &problem, &mut sim).unwrap();
    let expected = sim.stats().total_fmas() * 2 * (q as u64).pow(3);
    assert_eq!(
        counter_delta(&before, &after, "exec.flops.schedule"),
        expected,
        "schedule FLOP counter must equal simulated FMAs x 2q^3"
    );
}

/// The ooc registry counters must equal the prefetch pipeline's own
/// `PrefetchStats` for the same multiply: same bytes read, same panels
/// staged.
#[test]
fn ooc_registry_deltas_match_prefetch_stats() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("mmc-obs-recon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (pa, pb, pc) = (dir.join("a.tiled"), dir.join("b.tiled"), dir.join("c.tiled"));
    write_pseudo_random(&pa, 4, 3, 5, 31).unwrap();
    write_pseudo_random(&pb, 3, 4, 5, 32).unwrap();

    let before = obs::global().snapshot();
    let opts = OocOpts::new(64 * 1024);
    let report = ooc_multiply(&pa, &pb, &pc, &opts).expect("ooc multiply succeeds");
    let after = obs::global().snapshot();

    assert_eq!(
        counter_delta(&before, &after, "ooc.bytes_read"),
        report.prefetch.bytes_read,
        "registry bytes_read must equal PrefetchStats.bytes_read"
    );
    assert_eq!(
        counter_delta(&before, &after, "ooc.panels_staged"),
        report.prefetch.panels_staged,
        "registry panels_staged must equal PrefetchStats.panels_staged"
    );
    // The read-latency histogram saw exactly one observation per panel.
    let reads_before = before.histogram("ooc.read_us").map_or(0, |h| h.count);
    let reads_after = after.histogram("ooc.read_us").map_or(0, |h| h.count);
    assert_eq!(reads_after - reads_before, report.prefetch.panels_staged);

    for p in [&pa, &pb, &pc] {
        let _ = std::fs::remove_file(p);
    }
}
