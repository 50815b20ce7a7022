//! # idde-sim — the §4 experiment harness
//!
//! Everything needed to regenerate the paper's evaluation:
//!
//! * [`experiment`] — the four parameter sets of Table 2 (`N`, `M`, `K`,
//!   `density` sweeps around the `N=30, M=200, K=5, density=1.0` default);
//! * [`runner`] — seeded, `idde-par`-parallel execution of the 50-repetition
//!   sweeps over the five-approach panel, with per-run wall-clock timing;
//! * [`stats`] — summary statistics (mean/std/quartiles) for the series
//!   plots (Figs. 3–6) and the computation-time box plot (Fig. 7);
//! * [`report`] — ASCII tables for the terminal and CSV files for external
//!   plotting;
//! * [`figures`] — the Fig. 1 end-to-end latency micro-experiment.
//!
//! Reproducibility: every repetition's randomness derives from
//! `(master_seed, set, point, repetition)` through `ChaCha8Rng`, so each
//! figure in `EXPERIMENTS.md` regenerates bit-identically on any machine
//! (modulo wall-clock timings).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod experiment;
pub mod figures;
pub mod plot;
pub mod report;
pub mod runner;
pub mod stats;

pub use analysis::{advantage_report, advantages, Advantage};
pub use experiment::{table2_sets, ExperimentPoint, ExperimentSet};
pub use runner::{PointResult, RunConfig, Runner, SetResult};
pub use stats::Summary;
