//! # mmc-core — cache-aware matrix-product algorithms
//!
//! The primary contribution of
//!
//! > M. Jacquelin, L. Marchal, Y. Robert, *Complexity analysis and
//! > performance evaluation of matrix product on multicore architectures*,
//! > LIP RRLIP2009-09 / ICPP 2009,
//!
//! implemented on top of the [`mmc_sim`] cache-hierarchy substrate:
//!
//! * [`algorithms`] — the three Multicore Maximum Reuse algorithms
//!   (Shared Opt, Distributed Opt, Tradeoff) and the two reference
//!   algorithms (Outer Product, Shared/Distributed Equal), all as
//!   streaming schedule generators over any [`mmc_sim::SimSink`];
//! * [`params`] — tile-parameter selection (`λ`, `µ`, `α`, `β`, core
//!   grids) including the Tradeoff bandwidth-dependent optimization;
//! * [`bounds`] — the Loomis–Whitney communication lower bounds extended
//!   to the two-level hierarchy (§2.3);
//! * [`formulas`] — the paper's closed-form miss predictions, which the
//!   test-suite matches *exactly* against IDEAL-mode simulation;
//! * [`problem`] — problem dimensions in block units.
//!
//! ## Quick example
//!
//! ```
//! use mmc_core::algorithms::{Algorithm, SharedOpt};
//! use mmc_core::{formulas, ProblemSpec};
//! use mmc_sim::{MachineConfig, SimConfig, Simulator};
//!
//! let machine = MachineConfig::quad_q32(); // the paper's q=32 preset
//! let problem = ProblemSpec::square(60);
//! let mut sim = Simulator::new(SimConfig::ideal(&machine), 60, 60, 60);
//! SharedOpt.execute(&machine, &problem, &mut sim).unwrap();
//! // The simulated shared misses equal the paper's formula mn + 2mnz/λ.
//! let predicted = formulas::shared_opt(&problem, &machine).unwrap();
//! assert_eq!(sim.stats().ms() as f64, predicted.ms);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod bounds;
pub mod exact;
pub mod formulas;
pub mod params;
pub mod problem;

pub use algorithms::{AlgoError, Algorithm, AlgorithmKind};
pub use formulas::Prediction;
pub use params::{CoreGrid, OocStaging, TradeoffParams};
pub use problem::ProblemSpec;
