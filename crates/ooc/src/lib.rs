//! # mmc-ooc — out-of-core streaming GEMM
//!
//! The paper's two-level model stops at main memory; this crate adds the
//! level below it. Operands live in block-major [`tiled`] files on disk,
//! and a bounded, double-buffered [`pipeline`] streams `A` row-panels and
//! `B` column-panels through dedicated I/O threads into the in-core
//! block executor of `mmc-exec`, while each `α×α` `C` tile stays resident
//! in RAM — the Tradeoff algorithm lifted one level, with `(α, β)` sized
//! from the user's RAM budget exactly as §3.3 sizes them from `C_S`
//! ([`mmc_core::params::ooc_staging`]).
//!
//! Three invariants the tests pin down:
//!
//! * **Bounded memory** — resident panel + tile bytes never exceed the
//!   budget: the ring owns a fixed set of reusable buffers and I/O
//!   threads block (backpressure) when compute lags.
//! * **Bit identity** — the streamed product equals
//!   [`mmc_exec::gemm_parallel`] with `==` for every kernel variant,
//!   because each `C` element accumulates ascending `k` with the same
//!   per-step kernel operation regardless of how panels split the sum.
//! * **Accountable traffic** — bytes moved match
//!   [`mmc_core::OocStaging::disk_blocks`] exactly, and the run reports a
//!   three-term `T_data = M_F/σ_F + M_S/σ_S + M_D/σ_D`
//!   ([`mmc_sim::TData3`]) with the *measured* disk bandwidth.
//!
//! Until disk bandwidth is measured before a run, one constant stands
//! for it: [`DISK_RAM_RATIO`] (`σ_F/σ_S`) sizes `(α, β)`
//! ([`staging_for_budget`], shared with the serve daemon's admission
//! price) and prices the disk term of a run that timed no I/O. The drift
//! report ([`ooc_drift`]) prices compute at the kernel's measured roof
//! (`mmc_exec::kernel::roof_gflops`), not at the paper preset's `σ`, and
//! the run's spans export through `mmc_exec::spans_to_chrome` like every
//! other traced job.
//!
//! ```no_run
//! use mmc_ooc::{ooc_multiply, write_pseudo_random, OocOpts};
//! use std::path::Path;
//!
//! write_pseudo_random(Path::new("a.tiled"), 64, 64, 32, 1).unwrap();
//! write_pseudo_random(Path::new("b.tiled"), 64, 64, 32, 2).unwrap();
//! let opts = OocOpts::new(8 << 20); // stage through 8 MiB of RAM
//! let report =
//!     ooc_multiply(Path::new("a.tiled"), Path::new("b.tiled"), Path::new("c.tiled"), &opts)
//!         .unwrap();
//! assert!(report.within_budget);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gemm;
pub mod metrics;
pub mod pipeline;
pub mod tiled;

pub use gemm::{
    measured_sigma_f, ooc_drift, ooc_multiply, ooc_multiply_cancellable, ooc_verify,
    staging_for_budget, write_pseudo_random, ComputeSpan, OocError, OocOpts, OocReport,
    DISK_RAM_RATIO, RING_SLOTS,
};
pub use pipeline::{PrefetchStats, Prefetcher, StageRequest, StagedPanel};
pub use tiled::{TiledError, TiledFile, TiledHeader, TiledOutput, TiledWriter};
