//! # idde-core — the IDDE-G algorithm (the paper's contribution)
//!
//! Implements §3 of *"Formulating Interference-aware Data Delivery
//! Strategies in Edge Storage Systems"*:
//!
//! * [`Problem`] — a solvable IDDE instance: scenario + wireless environment
//!   + network topology, with the shared strategy evaluator (Eqs. 5 and 9).
//! * [`game`] — **Phase #1**: the IDDE-U user-allocation game. Best-response
//!   dynamics over the benefit function (Eq. 12), every improving user
//!   committing in a per-pass shuffled order, terminating in a Nash
//!   equilibrium (Theorem 3: IDDE-U is a potential game; Theorem 4 bounds
//!   the iterations).
//! * [`delivery`] — **Phase #2**: the greedy data delivery heuristic that
//!   repeatedly commits the placement decision with the highest latency
//!   reduction per megabyte (Eq. 17) under the storage constraint (Eq. 6);
//!   Theorems 6/7 give its `(e−1)/2e`-style approximation bound.
//! * [`potential`] — the potential function underpinning Theorem 3 and the
//!   property tests that verify the potential-game argument.
//! * [`nash`] — a posteriori Nash-equilibrium verification.
//! * [`IddeG`] — the two phases glued together (Algorithm 1).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod delivery;
pub mod game;
pub mod iddeg;
pub mod metrics;
pub mod nash;
pub mod potential;
pub mod problem;
pub mod strategy;

pub use delivery::{evict_useless_replicas, DeliveryConfig, DeliveryOutcome, GreedyDelivery};
pub use game::{AcceptanceRule, BenefitModel, GameConfig, GameOutcome, IddeUGame, QuietPlayers};
pub use iddeg::{IddeG, IddeGReport};
pub use metrics::Metrics;
pub use nash::is_nash_equilibrium;
pub use potential::{congestion_benefit, congestion_potential};
pub use problem::Problem;
pub use strategy::Strategy;
