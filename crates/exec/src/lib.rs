//! # mmc-exec — real execution of the paper's schedules
//!
//! While `mmc-sim` counts the cache misses of each schedule, this crate
//! *runs* them: dense block-major matrices generic over `f64`/`f32`
//! ([`BlockMatrix`] / [`BlockMatrixOf`]), a register-blocked `q×q`
//! block-kernel subsystem with runtime CPU dispatch ([`kernel`]), the
//! host's cache sizes and the paper's `µ` ([`blocking`]), an exact
//! schedule replayer ([`ExecSink`] / [`run_schedule`]) and one
//! rayon-parallel tiled GEMM entry point ([`gemm_into`], with
//! [`gemm_parallel`] as its fresh-product form) whose tilings come
//! straight from the paper's parameters (`λ`, `√p·µ`, `(α, β)`) and
//! whose cores each run `µ×µ` sub-tiles of `C` blocks.
//!
//! Every path accumulates contributions in ascending `k` order with the
//! same dispatched kernel, so all executors produce bit-identical
//! results — across code paths, tilings and thread counts — and the
//! tests compare them with `==`. See [`kernel`] for the dispatch rules
//! and the `MMC_KERNEL` override.
//!
//! ```
//! use mmc_exec::{gemm_parallel, gemm_naive, BlockMatrix, Tiling};
//! use mmc_sim::MachineConfig;
//!
//! let machine = MachineConfig::quad_q32();
//! let a = BlockMatrix::pseudo_random(6, 4, 8, 1);
//! let b = BlockMatrix::pseudo_random(4, 5, 8, 2);
//! let c = gemm_parallel(&a, &b, Tiling::shared_opt(&machine).unwrap());
//! assert_eq!(c, gemm_naive(&a, &b));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blocking;
pub mod job;
pub mod kernel;
pub mod matrix;
pub mod metrics;
pub mod naive;
pub mod runner;
pub mod tracing;

pub use blocking::{parse_bytes, BlockingPlan};
pub use job::CancelToken;
pub use kernel::elem::Element;
pub use kernel::KernelVariant;
pub use matrix::{extend_pseudo_random, BlockMatrix, BlockMatrixOf, StreamPath};
pub use naive::gemm_naive;
pub use runner::{
    gemm_into, gemm_parallel, gemm_parallel_with_kernel, gemm_parallel_with_plan, run_schedule,
    unit_mu, ExecSink, GemmOpts, Tiling,
};
pub use tracing::{compute_us, exec_drift, run_traced, spans_to_chrome, ExecModel, TracedRun};
