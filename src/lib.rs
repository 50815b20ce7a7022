//! # idde — Interference-aware Data Delivery at the network Edge
//!
//! Façade crate re-exporting the whole IDDE workspace: the problem model,
//! the wireless and network substrates, the IDDE-G algorithm, the four
//! baselines, the EUA-like dataset generator, the simulation harness, the
//! online serving engine with its invariant auditor and popularity-driven
//! on-path cache ([`cache`]), and the deterministic parallel-evaluation
//! layer ([`par`], see `ARCHITECTURE.md` §3 for the thread-count
//! determinism contract).
//!
//! This reproduces *"Formulating Interference-aware Data Delivery Strategies
//! in Edge Storage Systems"* (Xia et al., ICPP 2022). See `README.md` for a
//! quickstart and `DESIGN.md` for the full system inventory.
//!
//! ```
//! // The 60-second tour: generate a city, solve it with IDDE-G, inspect the
//! // strategy quality.
//! use idde::prelude::*;
//!
//! let scenario = idde::eua::SyntheticEua::default()
//!     .sample(30, 200, 5, &mut idde::seeded_rng(42));
//! let problem = Problem::standard(scenario, &mut idde::seeded_rng(43));
//! let strategy = IddeG::default().solve(&problem);
//! let metrics = problem.evaluate(&strategy);
//! assert!(metrics.average_data_rate.value() > 0.0);
//! ```

#![warn(missing_docs)]

pub use idde_audit as audit;
pub use idde_baselines as baselines;
pub use idde_cache as cache;
pub use idde_chaos as chaos;
pub use idde_core as core;
pub use idde_dist as dist;
pub use idde_engine as engine;
pub use idde_eua as eua;
pub use idde_model as model;
pub use idde_net as net;
pub use idde_par as par;
pub use idde_radio as radio;
pub use idde_shard as shard;
pub use idde_sim as sim;
pub use idde_solver as solver;

/// Creates the deterministic RNG used throughout the workspace.
///
/// All experiments derive their randomness from `ChaCha8Rng` streams seeded
/// from a master seed, making every figure in `EXPERIMENTS.md` exactly
/// reproducible.
pub fn seeded_rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use idde_audit::{AuditReport, Auditor};
    pub use idde_baselines::{Cdp, DupG, IddeGStrategy, IddeIp, Saa, SolveStrategy};
    pub use idde_cache::{CacheConfig, CacheLayer, PolicyKind};
    pub use idde_chaos::{FaultPlan, FaultSpec};
    pub use idde_core::{IddeG, Metrics, Problem, Strategy};
    pub use idde_engine::{DriftProfile, Engine, EngineConfig, WorkloadConfig, WorkloadGenerator};
    pub use idde_eua::SyntheticEua;
    pub use idde_model::{
        Allocation, CoverageMap, DataId, DataItem, EdgeServer, MegaBytes, MegaBytesPerSec,
        Milliseconds, Placement, Point, RequestMatrix, Scenario, ScenarioBuilder, ServerId, User,
        UserId, Watts,
    };
    pub use idde_net::Topology;
    pub use idde_radio::RadioEnvironment;
    pub use idde_shard::{ShardEngine, ShardPlan, ShardRouter};
}
