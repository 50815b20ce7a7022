//! # idde-engine — online event-driven serving with incremental repair
//!
//! The paper formulates IDDE as an *offline* problem: given a snapshot of
//! users, servers and requests, compute one strategy. Real edge storage
//! systems face a *stream*: users arrive, depart and move while requests
//! keep being served. This crate turns the workspace's offline machinery
//! into an online serving engine:
//!
//! * [`events`] — a deterministic `(tick, seq)`-ordered event queue;
//! * [`workload`] — a seeded generator of Poisson arrivals/departures,
//!   random-waypoint mobility and Zipf-skewed request streams, with an
//!   optional non-stationary mode ([`DriftProfile`]: Zipf-exponent drift,
//!   hot-set rotation, diurnal waves, seeded flash crowds);
//! * [`engine`] — the serving loop: **incremental equilibrium repair**
//!   (restricted best-response over the dirty set of each churn event, via
//!   [`idde_core::IddeUGame::run_restricted_with`] against quiet-player
//!   records carried across repairs) and **incremental placement
//!   repair** (eviction of dead replicas plus Eq. 17 greedy re-insertion),
//!   with periodic drift checkpoints that fall back to a full re-solve and
//!   an optional on-path caching layer ([`idde_cache::CacheLayer`]) whose
//!   opportunistic replicas join the Eq. 8 minimum between repairs;
//! * [`metrics`] — a fixed-bucket latency histogram, running averages, a
//!   drift gauge and repair accounting, rendered as a table (with wall-clock
//!   throughput) or as byte-identical deterministic CSV.
//!
//! ```
//! use idde_engine::{Engine, EngineConfig, WorkloadConfig, WorkloadGenerator};
//! use idde_core::Problem;
//! use idde_eua::{SampleConfig, SyntheticEua};
//!
//! let mut rng = idde_engine::seeded_rng(42);
//! let population = SyntheticEua::default().generate(&mut rng);
//! let scenario = SampleConfig::paper(10, 40, 3).sample(&population, &mut rng);
//! let problem = Problem::standard(scenario, &mut rng);
//!
//! let mut workload = WorkloadGenerator::new(WorkloadConfig::default(), 3, 42);
//! let initial = workload.initial_active(problem.scenario.num_users());
//! let mut engine = Engine::new(problem, EngineConfig::default(), initial);
//! engine.run(&mut workload, 20);
//! assert_eq!(engine.metrics().ticks, 20);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod events;
pub mod metrics;
pub mod workload;

pub use engine::{Engine, EngineConfig, EventSource};
pub use events::{Event, EventQueue, ScheduledEvent};
pub use metrics::{LatencyHistogram, ServeMetrics, LATENCY_BUCKET_BOUNDS_MS};
pub use workload::{poisson, DriftProfile, WorkloadConfig, WorkloadGenerator};

/// The workspace's deterministic RNG constructor (mirrors `idde::seeded_rng`
/// without depending on the façade crate).
pub fn seeded_rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}
