//! # idde-eua — the EUA-like dataset substrate
//!
//! The paper's experiments (§4.2) run on the EUA dataset: real positions of
//! 125 edge-server sites and 816 users in the Melbourne CBD. That dataset is
//! a GitHub download and is not available in this offline build, so this
//! crate provides **both**:
//!
//! * [`SyntheticEua`] — a deterministic generator producing a base
//!   population with the same published shape (server count, user count,
//!   area, coverage overlap), documented as a substitution in `DESIGN.md`;
//! * [`csv`] — a loader for the real EUA CSV files
//!   (`site-optus-melbCBD.csv`, `users-melbcbd-2018.csv`): drop them into a
//!   directory and [`csv::load_base_population`] swaps the real coordinates
//!   in, no other code changes.
//!
//! Either path yields a [`BasePopulation`], from which experiment instances
//! are drawn exactly as in §4.3: sample `N` servers and `M` covered users,
//! generate `K` data items sized from `{30, 60, 90}` MB, reserve storage
//! uniformly in `[30, 300]` MB per server, 3 channels of 200 MB/s each,
//! user powers uniform in `[1, 5]` W.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csv;
pub mod population;
pub mod sampling;
pub mod synthetic;

pub use population::BasePopulation;
pub use sampling::{SampleConfig, ZipfPopularity};
pub use synthetic::SyntheticEua;
