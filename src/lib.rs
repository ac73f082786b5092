//! # multicore-matmul
//!
//! A full Rust reproduction of
//!
//! > Mathias Jacquelin, Loris Marchal, Yves Robert,
//! > *Complexity analysis and performance evaluation of matrix product on
//! > multicore architectures*, LIP RRLIP2009-09 / ICPP 2009
//! > (HAL `ensl-00381458`).
//!
//! This facade crate re-exports the three library layers:
//!
//! * [`sim`] (`mmc-sim`) — the two-level (shared + distributed) multicore
//!   cache-hierarchy simulator with LRU and IDEAL replacement policies;
//! * [`core`] (`mmc-core`) — the paper's algorithms (Shared Opt,
//!   Distributed Opt, Tradeoff) and baselines (Outer Product, Shared /
//!   Distributed Equal), plus tile-parameter selection, lower bounds and
//!   closed-form miss predictions;
//! * [`exec`] (`mmc-exec`) — block-matrix storage, the `q×q` micro-kernel
//!   and rayon-parallel executors that run the same schedules on real
//!   data;
//! * [`strassen`] (`mmc-strassen`) — Strassen–Winograd recursive GEMM
//!   over Morton-ordered blocks: sub-cubic `7^d` leaf products handed to
//!   the classic block executor below a tunable cutoff, with pooled,
//!   bounded workspace and a cost-model-predicted crossover;
//! * [`ooc`] (`mmc-ooc`) — out-of-core streaming GEMM over block-major
//!   tiled files, with a bounded double-buffered prefetch pipeline and a
//!   three-level `T_data` report;
//! * [`obs`] (`mmc-obs`) — the observability substrate: a lock-free
//!   metrics registry, raw `perf_event_open` hardware-counter sampling
//!   with graceful fallback, roofline records that put the paper's
//!   predicted `M_S`/`T_data` next to measured LLC misses, per-job span
//!   tracing into one bounded process-wide log, and
//!   predicted-vs-measured drift reports over the traced phases.
//!
//! On top of those it adds [`serve`] — the `mmc serve` daemon: a
//! std-only TCP server that prices every submitted multiply with the
//! paper's model (`T_data`, predicted FLOPs, peak resident bytes) and
//! packs compatible jobs onto a shared worker pool under a RAM budget,
//! with cooperative cancellation and per-job drift reports.
//!
//! See `examples/quickstart.rs` for a guided tour, and the `mmc-bench`
//! crate for the harness that regenerates every figure of the paper.
//!
//! ```
//! use multicore_matmul::prelude::*;
//!
//! // Simulate Algorithm 1 on the paper's quad-core q=32 preset and check
//! // the shared-miss count against the paper's closed form mn + 2mnz/λ.
//! let machine = MachineConfig::quad_q32();
//! let problem = ProblemSpec::square(60);
//! let mut sim = Simulator::new(SimConfig::ideal(&machine), 60, 60, 60);
//! SharedOpt.execute(&machine, &problem, &mut sim).unwrap();
//! assert_eq!(sim.stats().ms(), 60 * 60 + 2 * 60 * 60 * 60 / 30);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use mmc_core as core;
pub use mmc_exec as exec;
pub use mmc_lu as lu;
pub use mmc_obs as obs;
pub use mmc_ooc as ooc;
pub use mmc_sim as sim;
pub use mmc_strassen as strassen;

pub mod serve;

/// The names most programs need, in one `use`.
pub mod prelude {
    pub use mmc_core::algorithms::{
        all_algorithms, AlgoError, Algorithm, AlgorithmKind, CacheOblivious, DistributedEqual,
        DistributedOpt, HierarchicalMaxReuse, OuterProduct, SharedEqual, SharedOpt, Tradeoff,
    };
    pub use mmc_core::{
        bounds, formulas, params, CoreGrid, Prediction, ProblemSpec, TradeoffParams,
    };
    pub use mmc_exec::{
        exec_drift, gemm_into, gemm_naive, gemm_parallel, gemm_parallel_with_kernel, run_schedule,
        run_traced, spans_to_chrome, BlockMatrix, BlockMatrixOf, ExecModel, ExecSink, GemmOpts,
        KernelVariant, Tiling, TracedRun,
    };
    pub use mmc_obs::{
        CounterReading, DriftReport, PerfCounters, PhaseDrift, Registry, RegistrySnapshot,
        RooflineRecord, SpanKind, SpanRecord, SCHEMA_VERSION,
    };
    pub use mmc_ooc::{
        ooc_drift, ooc_multiply, ooc_verify, write_pseudo_random, OocOpts, OocReport,
    };
    pub use mmc_sim::{
        choose_algorithm, predicted_crossover, AlgoChoice, Block, BlockSpace, ChromeGranularity,
        ChromeTraceBuilder, CostEnv, CountingSink, EventKind, FileLevel, FlightRecorder,
        MachineConfig, MatrixId, MetricsSnapshot, Policy, SimConfig, SimError, SimSink, SimStats,
        Simulator, StrassenPlan, TData3, TimingModel, TraceSink,
    };
    pub use mmc_strassen::{
        strassen_multiply, strassen_multiply_cancellable, StrassenOpts, StrassenReport,
        DEFAULT_CUTOFF,
    };
}
