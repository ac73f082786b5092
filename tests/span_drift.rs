//! Golden span/drift reconciliation: the recorder's span accounting
//! must agree exactly with the registry counters and the closed forms
//! for the same run — three views of one product (spans, counters,
//! formulas) may not disagree.
//!
//! The registry and the span recorder are process-global, so tests that
//! measure deltas serialize under one mutex.

use multicore_matmul::obs::{self, span};
use multicore_matmul::ooc::{ooc_drift, ooc_multiply, write_pseudo_random, OocOpts};
use multicore_matmul::prelude::*;
use std::sync::Mutex;

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

fn counter_delta(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
}

/// The tile spans of a traced run must account for exactly the FLOPs
/// the registry counted and the closed form 2·m·n·z·q³ predicts.
#[test]
fn exec_span_flops_reconcile_with_registry_counters() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    if !span::enabled() {
        return; // MMC_SPANS=off: nothing recorded, nothing to reconcile.
    }
    let (order, q) = (5u32, 8usize);
    let a = BlockMatrix::pseudo_random(order, order, q, 41);
    let b = BlockMatrix::pseudo_random(order, order, q, 42);
    let tiling = Tiling { tile_m: 2, tile_n: 3, tile_k: 1 };
    let variant = multicore_matmul::exec::kernel::variant();

    let before = obs::global().snapshot();
    let (c, run) = run_traced(&a, &b, tiling, variant);
    let after = obs::global().snapshot();
    assert_eq!(c, gemm_naive(&a, &b), "traced product stays bit-identical");

    let closed_form = 2 * (order as u64 * q as u64).pow(3);
    let span_flops: u64 =
        run.spans.iter().filter(|s| s.kind == SpanKind::Tile).map(|s| s.val).sum();
    assert_eq!(span_flops, closed_form, "tile spans must cover every FLOP once");
    assert_eq!(
        span_flops,
        counter_delta(&before, &after, &format!("exec.flops.{}", variant.name())),
        "span FLOP total must equal the registry's counter delta"
    );
    // Every span belongs to the run's job, and the executor records
    // one tile span per work unit and nothing else.
    assert!(run.spans.iter().all(|s| s.job == run.job));
    assert!(run.spans.iter().all(|s| s.kind == SpanKind::Tile));
}

/// Drift reports for both legs have the pinned phase structure: every
/// ratio finite, flop phases' units_ratio exactly 1, ooc phases named.
#[test]
fn drift_reports_have_golden_structure() {
    let _guard = REGISTRY_LOCK.lock().unwrap();
    if !span::enabled() {
        return;
    }
    // Exec leg: one whole-problem tile.
    let (order, q) = (4u32, 8usize);
    let a = BlockMatrix::pseudo_random(order, order, q, 51);
    let b = BlockMatrix::pseudo_random(order, order, q, 52);
    let tiling = Tiling { tile_m: order, tile_n: order, tile_k: 1 };
    let variant = multicore_matmul::exec::kernel::variant();
    let (_c, run) = run_traced(&a, &b, tiling, variant);
    let model = ExecModel::for_run(&a, &b, variant);
    let exec_report = exec_drift(&run, &model, 1.0);
    assert_eq!(exec_report.source, "exec");
    assert_eq!(exec_report.job, run.job);
    assert!(exec_report.all_finite());
    let names: Vec<&str> = exec_report.phases.iter().map(|p| p.phase.as_str()).collect();
    assert_eq!(names, ["tile"]);
    for p in exec_report.phases.iter().filter(|p| p.unit == "flop") {
        assert!(
            (p.units_ratio - 1.0).abs() < 1e-12,
            "{}: instrumentation must cover exactly the modeled FLOPs",
            p.phase
        );
    }

    // Ooc leg: the streamed product carries its own report.
    let dir = std::env::temp_dir().join(format!("mmc-span-drift-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (pa, pb, pc) = (dir.join("a.tiled"), dir.join("b.tiled"), dir.join("c.tiled"));
    write_pseudo_random(&pa, order, order, q, 53).unwrap();
    write_pseudo_random(&pb, order, order, q, 54).unwrap();
    let ooc_job = span::new_job();
    let report = ooc_multiply(&pa, &pb, &pc, &OocOpts::new(64 * 1024)).expect("ooc multiply");
    assert_eq!(report.trace_job, ooc_job, "report records the job it traced under");
    let ooc_report = ooc_drift(&report, 1.0);
    assert_eq!(ooc_report.source, "ooc");
    assert!(ooc_report.all_finite());
    let names: Vec<&str> = ooc_report.phases.iter().map(|p| p.phase.as_str()).collect();
    for phase in ["read", "accumulate"] {
        assert!(names.contains(&phase), "missing {phase} in {names:?}");
    }
    // The embedded report (default band) has the same phases.
    let embedded = report.drift.as_ref().expect("ooc report embeds drift");
    assert_eq!(
        embedded.phases.iter().map(|p| &p.phase).collect::<Vec<_>>(),
        ooc_report.phases.iter().map(|p| &p.phase).collect::<Vec<_>>()
    );

    // Merged Perfetto export: exec and ooc spans share the process
    // epoch, so one export carries both; it must parse as JSON with
    // a lane-named metadata event per (kind, thread) pair.
    let mut merged = run.spans.clone();
    merged.extend(span::collect_job(ooc_job));
    merged.sort_by_key(|s| (s.start_ns, s.kind, s.thread));
    assert!(!merged.is_empty());
    let text = spans_to_chrome("merged", &merged, &[("exec.flops".to_string(), 1.0)]);
    let parsed: serde_json::Value = serde_json::from_str(&text).expect("valid chrome JSON");
    let events = parsed.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents array");
    assert!(events.len() >= merged.len(), "one event per span at least");
    assert!(text.contains("\"tile\"") && text.contains("\"read\""), "both legs exported");

    let _ = std::fs::remove_dir_all(&dir);
}
