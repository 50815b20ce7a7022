//! # idde-audit — runtime invariant auditing for the serving path
//!
//! The serving engine computes every paper quantity — SINR (Eq. 2), capped
//! rate (Eqs. 3–4), benefit (Eq. 12), delivery latency (Eq. 8), greedy
//! scores (Eq. 17) — from *incrementally maintained caches*: the
//! [`idde_radio::InterferenceField`]'s per-channel occupant lists and power
//! sums, and the [`idde_model::Placement`]'s running storage counters. Those
//! caches are exactly where silent state-divergence bugs live, so this crate
//! provides a from-scratch reference implementation of each formula and an
//! [`Auditor`] that cross-checks the live state against it:
//!
//! * [`Auditor::audit_field`] — rebuilds the interference field from the
//!   allocation profile and compares per-channel occupants and power sums,
//!   then recomputes every allocated user's SINR and capped rate (Eqs. 2–4)
//!   by scanning the raw profile (no caches) and compares those too;
//! * [`Auditor::certify_equilibrium`] — the Phase #1 postcondition: proves
//!   no player has a profitable unilateral deviation *that the game's own
//!   acceptance discipline would commit*
//!   ([`idde_core::IddeUGame::profitable_deviation`]). Pass the restricted
//!   player set when certifying a dirty-set repair — frozen users may hold
//!   stale best responses by design, bounded by the engine's drift
//!   checkpoints;
//! * [`Auditor::audit_placement`] — re-derives each server's storage usage
//!   and each request's Eq. 8 delivery latency from first principles and
//!   compares against the placement's cached counters, the storage budget
//!   (Eq. 6) and the topology's min-tracking fast path;
//! * [`Auditor::audit_strategy`] — the field and placement audits composed
//!   over one (allocation, placement) strategy;
//! * [`Auditor::audit_distribution`] — re-derives a bulk-distribution
//!   plan's routes, analytic delays, per-strategy costs, the best-path
//!   lower bound and the delay-guarantee recount (see
//!   [`distribution`]).
//!
//! ## Tolerance policy
//!
//! Every float comparison is *relative*: `a ≈ b` iff
//! `|a − b| ≤ rel_tol · max(|a|, |b|)`. Power sums use
//! [`idde_radio::InterferenceField::POWER_SUM_REL_TOL`] (`1e-12` — the live
//! and rebuilt sums differ only by summation order after the
//! resnap-on-remove fix); derived quantities (SINR, rate, latency) use
//! [`auditor::REL_TOL`] (`1e-9`, absorbing the longer operation chains);
//! bulk-distribution costs and delays use [`distribution::DIST_REL_TOL`]
//! (`1e-12`). Storage counters use the absolute [`auditor::STORAGE_TOL`]
//! megabytes, matching [`idde_model::Placement::respects_storage`]. The
//! tolerances are constants: every caller audits against the same bounds.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod auditor;
pub mod distribution;
pub mod report;

pub use auditor::Auditor;
pub use report::{AuditReport, Violation};
