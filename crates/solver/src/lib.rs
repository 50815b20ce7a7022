//! # idde-solver — exact and anytime solvers for the IDDE decision space
//!
//! The paper's strongest baseline, **IDDE-IP**, feeds the §2.3 model to IBM
//! CPLEX's CP Optimizer with a 100-second search limit. CPLEX is proprietary
//! and unavailable here, so this crate implements the substitute documented
//! in `DESIGN.md`: a from-scratch **anytime branch-and-bound** over the same
//! joint decision space,
//!
//! * [`AllocationSearch`] — maximises the total data rate `Σ_j R_j`
//!   (Objective #1) over all user allocation profiles, with the admissible
//!   bound *current rate sum + `R_max` per unassigned user* (rates only fall
//!   as more users are packed in, so the partial sum never underestimates);
//! * [`PlacementSearch`] — minimises the total delivery latency `L(σ)`
//!   (Objective #2) over all storage-feasible delivery profiles, with an
//!   exact suffix-relaxation lower bound;
//! * [`ExhaustiveSolver`] — brute force over tiny instances, the ground
//!   truth oracle for tests and the `optimality_gap` binary, which prices
//!   the decentralisation of the IDDE-U game against the exact optimum;
//! * [`Budget`] — wall-clock/node budgets making every search anytime: it
//!   always returns the best incumbent found, plus whether optimality was
//!   *proved*.
//!
//! Like CP Optimizer, the searches know nothing about the IDDE-G heuristic;
//! given a short budget they return honestly solver-ish incumbents, given
//! enough budget they return certified optima.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocation;
pub mod budget;
pub mod exhaustive;
pub mod placement;

pub use allocation::AllocationSearch;
pub use budget::{Budget, SearchStats};
pub use exhaustive::ExhaustiveSolver;
pub use placement::PlacementSearch;
