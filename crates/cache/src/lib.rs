//! # idde-cache — popularity-driven on-path caching between serves and solves
//!
//! The IDDE placement (Eq. 17) is static between repairs: it optimises the
//! *scenario's* request matrix, not the live stream the engine actually
//! serves. Under a non-stationary workload (Zipf drift, flash crowds,
//! diurnal waves — see `idde_engine::workload`) the hot set walks away from
//! the solved placement long before the next churn-triggered re-solve. This
//! crate adds the classic content-network answer: **opportunistic on-path
//! replicas**, installed per served request by a pluggable admission policy
//! and evicted by popularity under the Eq. 6 storage budget.
//!
//! * [`policy`] — the three admission policies, one enum selected by
//!   [`PolicyKind`]: leave-copy-everywhere (LCE), leave-copy-down (LCD)
//!   and probabilistic admission (ProbCache).
//! * [`layer`] — the [`CacheLayer`]: the engine-side state (cached replica
//!   store, popularity counters, seeded RNG) with the
//!   admission/eviction flow. Cached replicas live **outside** the solver's
//!   placement, in the *residual* Eq. 6 budget `A_i − used_i(σ)`, so the
//!   cache never perturbs the game: with the policy off the serve CSV is
//!   byte-identical to an uncached engine, and across policies the engine
//!   state fingerprint is invariant (the bench ledger's `cache_drift` case
//!   observes exactly this).
//! * [`audit`] — the cache extension of the invariant auditor: combined
//!   storage budgets, store/placement disjointness and no replicas on
//!   downed servers (stale paths).
//!
//! Everything is deterministic: admission randomness comes from a
//! `ChaCha8Rng` seeded by [`CacheConfig::seed`], eviction is ordered by
//! (popularity, data id), and no step depends on the worker count — the
//! serve CSV of a cached run is byte-identical at any
//! `RAYON_NUM_THREADS`.

#![warn(missing_docs)]

pub mod audit;
pub mod layer;
pub mod policy;

pub use audit::audit_cache;
pub use layer::{CacheConfig, CacheCounters, CacheLayer, Observation};
pub use policy::PolicyKind;
