//! # mmc-obs
//!
//! Observability substrate for the multicore matrix-product workspace:
//! the layer that closes the paper's predicted-vs-measured loop.
//!
//! * [`registry`] — a zero-dependency, lock-free metrics registry
//!   (one relaxed atomic per counter, gauges, log2-bucketed histograms)
//!   with a process-wide instance ([`registry::global`]), serializable
//!   snapshots, and the Prometheus-style text that `mmc serve` answers
//!   `GET /metrics` with.
//! * [`perf_event`] — a raw `perf_event_open(2)` wrapper (no external
//!   deps) that samples cycles / instructions / LLC loads & misses
//!   around any GEMM run and degrades gracefully to a
//!   `counters: "unavailable"` marker when the PMU or permissions are
//!   missing.
//! * [`roofline`] — the host's measured memory rate ([`host_roofs`]:
//!   STREAM-triad bandwidth, measured once per process) plus derived
//!   arithmetic-intensity / percent-of-peak records for
//!   `BENCH_exec.json`.
//! * [`span`] — per-job span tracing: one bounded, overwrite-oldest
//!   process-wide log behind a mutex, stamping every executor work unit
//!   and ooc pipeline stage with its predicted cost.
//! * [`drift`] — per-phase measured/predicted ratio reports over traced
//!   spans, with band flagging and always-finite ratios.
//!
//! Every `--json` report in the workspace stamps [`SCHEMA_VERSION`] so
//! downstream tooling (the perf regression gate, scrapers) can parse all
//! subcommands with one schema.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod drift;
pub mod perf_event;
pub mod registry;
pub mod roofline;
pub mod span;

pub use drift::{DriftReport, PhaseDrift, PhaseSample};
pub use perf_event::{CounterReading, CounterValue, PerfCounters};
pub use registry::{
    global, Counter, CounterSnapshot, Gauge, GaugeSnapshot, Histogram, HistogramBucket,
    HistogramSnapshot, Registry, RegistrySnapshot,
};
pub use roofline::{host_roofs, roofline_bound, HostRoofs, RooflineRecord};
pub use span::{SpanKind, SpanRecord};

/// Version stamped into every `--json` report across `simulate` / `exec`
/// / `profile` / `ooc` / `counters` and `BENCH_*.json`. Bump when a
/// field is renamed or removed (additions are backward compatible).
pub const SCHEMA_VERSION: u32 = 1;

/// Default value hook for `#[serde(default = "...")]` on report structs:
/// reports loaded from files that predate the field read as version 0.
pub fn schema_version_default() -> u32 {
    0
}
