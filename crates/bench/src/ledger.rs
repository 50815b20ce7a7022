//! The benchmark ledger — reproducible, committed performance baselines.
//!
//! The ledger answers two questions the ad-hoc Criterion benches cannot:
//!
//! 1. **What did it cost on a known workload?** Each suite runs *seeded*
//!    workloads (the paper-scale 125-server/816-user EUA sample for the
//!    solver; a churning serve for the engine) and records median + p95
//!    wall-clock per case, so numbers are comparable across commits.
//! 2. **Is the determinism contract holding?** Every case is swept across
//!    worker counts (default 1/2/4/8 via [`idde_par::set_threads`]) and a
//!    result *fingerprint* — a hash over the bit patterns of the produced
//!    equilibrium metrics or serve CSV — is recorded per thread point. The
//!    contract "same seed + any thread count ⇒ identical result" is checked
//!    right here, not just claimed: `deterministic` in the emitted JSON is
//!    the conjunction over the sweep.
//!
//! Timing numbers are honest measurements of the host that ran them; the
//! JSON therefore records `host.available_parallelism`. On a single-core
//! container the >1-thread points measure oversubscription, not speedup —
//! interpret them accordingly (see EXPERIMENTS.md § Benchmarking).
//!
//! Output is hand-rolled JSON (the workspace is offline and carries no
//! serde), written by `idde-cli bench` as `BENCH_engine.json` and
//! `BENCH_solver.json`.

use std::time::Instant;

use idde_cache::{CacheConfig, PolicyKind};
use idde_core::{GameConfig, GreedyDelivery, IddeG, IddeUGame, Problem, ScoringMode};
use idde_dist::{DistConfig, StrategyKind};
use idde_engine::{DriftProfile, Engine, EngineConfig, Event, WorkloadConfig, WorkloadGenerator};
use idde_eua::SyntheticEua;
use idde_model::{
    CoverageMap, EdgeServer, MegaBytes, MegaBytesPerSec, Point, Rect, ScenarioBuilder, ServerId,
    User, UserId, Watts,
};
use idde_shard::ShardPlan;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of a ledger run.
#[derive(Clone, Debug)]
pub struct LedgerConfig {
    /// Timing samples per `(case, thread-count)` point.
    pub samples: usize,
    /// Worker counts to sweep, in order.
    pub threads: Vec<usize>,
    /// Master seed for workload construction.
    pub seed: u64,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        Self { samples: 5, threads: vec![1, 2, 4, 8], seed: 2022 }
    }
}

/// One `(case, thread-count)` measurement.
#[derive(Clone, Debug)]
pub struct ThreadPoint {
    /// Worker count this point ran under.
    pub threads: usize,
    /// Raw wall-clock samples, milliseconds, in execution order.
    pub samples_ms: Vec<f64>,
    /// FNV-1a hash over the bit patterns of the case's result.
    pub fingerprint: u64,
}

impl ThreadPoint {
    /// Median of the samples (lower of the two middles for even counts).
    pub fn median_ms(&self) -> f64 {
        percentile(&self.samples_ms, 0.5)
    }

    /// 95th percentile of the samples (nearest-rank).
    pub fn p95_ms(&self) -> f64 {
        percentile(&self.samples_ms, 0.95)
    }
}

/// One benchmarked case: a fixed workload swept across thread counts.
#[derive(Clone, Debug)]
pub struct BenchCase {
    /// Stable case identifier (a JSON key, effectively).
    pub name: String,
    /// Human-readable workload description.
    pub workload: String,
    /// One entry per swept thread count.
    pub points: Vec<ThreadPoint>,
}

impl BenchCase {
    /// True iff every thread point produced the same result fingerprint —
    /// the determinism contract, observed rather than asserted.
    pub fn deterministic(&self) -> bool {
        self.points.windows(2).all(|w| w[0].fingerprint == w[1].fingerprint)
    }
}

/// A full suite run, ready to serialise.
#[derive(Clone, Debug)]
pub struct Ledger {
    /// Suite identifier (`"engine"` or `"solver"`).
    pub suite: String,
    /// Master seed the workloads were built from.
    pub seed: u64,
    /// Samples per thread point.
    pub samples: usize,
    /// `std::thread::available_parallelism()` of the measuring host —
    /// required context for reading the thread sweep.
    pub host_parallelism: usize,
    /// The benchmarked cases.
    pub cases: Vec<BenchCase>,
}

impl Ledger {
    /// Serialises the ledger as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"suite\": {},\n", json_str(&self.suite)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"samples_per_point\": {},\n", self.samples));
        out.push_str("  \"host\": {\n");
        out.push_str(&format!("    \"available_parallelism\": {}\n  }},\n", self.host_parallelism));
        out.push_str("  \"cases\": [\n");
        for (i, case) in self.cases.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_str(&case.name)));
            out.push_str(&format!("      \"workload\": {},\n", json_str(&case.workload)));
            out.push_str(&format!(
                "      \"deterministic_across_threads\": {},\n",
                case.deterministic()
            ));
            out.push_str("      \"points\": [\n");
            for (j, p) in case.points.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"threads\": {}, \"median_ms\": {}, \"p95_ms\": {}, \
                     \"fingerprint\": \"{:016x}\", \"samples_ms\": [{}]}}{}\n",
                    p.threads,
                    json_f64(p.median_ms()),
                    json_f64(p.p95_ms()),
                    p.fingerprint,
                    p.samples_ms.iter().map(|&s| json_f64(s)).collect::<Vec<_>>().join(", "),
                    if j + 1 == case.points.len() { "" } else { "," },
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!("    }}{}\n", if i + 1 == self.cases.len() { "" } else { "," }));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Nearest-rank percentile over unsorted samples (`q` in `[0, 1]`).
fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    let mut sorted = samples.to_vec();
    // `total_cmp` is a total order, so a stray NaN timing (a clock glitch)
    // sorts above +inf and surfaces at high ranks instead of panicking
    // halfway through a suite run.
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite `f64` → JSON number (shortest round-trip form).
fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "JSON numbers must be finite");
    format!("{v}")
}

/// FNV-1a over a stream of words — stable, dependency-free fingerprinting.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs one 64-bit word (e.g. an `f64`'s bit pattern).
    pub fn absorb(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs raw bytes (e.g. a CSV artefact).
    pub fn absorb_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The accumulated digest.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// The paper-scale problem instance both suites measure against:
/// `N = 125` servers, `M = 816` users (the EUA dataset scale the paper
/// samples from), `K = 5` data items, standard radio/topology substrates.
pub fn fullscale_problem(seed: u64) -> Problem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let scenario = SyntheticEua::default().sample(125, 816, 5, &mut rng);
    Problem::standard(scenario, &mut rng)
}

/// Phase #1 configuration used by the solver suite: parallel scoring with
/// otherwise-default knobs, so the sweep exercises the frozen-snapshot path.
fn par_game() -> GameConfig {
    GameConfig { scoring: ScoringMode::Parallel, ..GameConfig::default() }
}

/// Runs `case` once per thread count per sample, timing each run and
/// fingerprinting each result.
fn sweep<R>(
    cfg: &LedgerConfig,
    name: &str,
    workload: &str,
    mut run: impl FnMut() -> R,
    fingerprint: impl Fn(&R) -> u64,
) -> BenchCase {
    let mut points = Vec::with_capacity(cfg.threads.len());
    for &t in &cfg.threads {
        idde_par::set_threads(t);
        let mut samples_ms = Vec::with_capacity(cfg.samples);
        let mut digest = 0u64;
        for _ in 0..cfg.samples {
            let start = Instant::now();
            let result = run();
            samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            digest = fingerprint(&result);
        }
        points.push(ThreadPoint { threads: t, samples_ms, fingerprint: digest });
    }
    // Leave the pool at the ambient default rather than the last sweep value.
    idde_par::set_threads(0);
    BenchCase { name: name.into(), workload: workload.into(), points }
}

fn metrics_fingerprint(problem: &Problem, strategy: &idde_core::Strategy) -> u64 {
    let m = problem.evaluate(strategy);
    let mut fp = Fingerprint::new();
    fp.absorb(m.average_data_rate.value().to_bits());
    fp.absorb(m.average_delivery_latency.value().to_bits());
    fp.digest()
}

/// The solver suite: Phase #1, Phase #2 and end-to-end IDDE-G on the
/// paper-scale instance.
pub fn run_solver_suite(cfg: &LedgerConfig) -> Ledger {
    let problem = fullscale_problem(cfg.seed);
    let workload = "SyntheticEua 125 servers / 816 users / 5 data, standard substrates";

    let game_case = sweep(
        cfg,
        "iddeu_game",
        workload,
        || IddeUGame::new(par_game()).run(&problem).field.into_allocation(),
        |alloc| {
            let mut fp = Fingerprint::new();
            for user in problem.scenario.user_ids() {
                match alloc.decision(user) {
                    Some((s, x)) => {
                        fp.absorb(s.index() as u64 + 1);
                        fp.absorb(x.index() as u64 + 1);
                    }
                    None => fp.absorb(0),
                }
            }
            fp.digest()
        },
    );

    let fixed_alloc = IddeUGame::new(par_game()).run(&problem).field.into_allocation();
    let delivery_case = sweep(
        cfg,
        "greedy_delivery",
        workload,
        || GreedyDelivery::default().run(&problem, &fixed_alloc),
        |outcome| {
            let mut fp = Fingerprint::new();
            fp.absorb(outcome.final_total_latency.value().to_bits());
            fp.digest()
        },
    );

    let end_to_end = sweep(
        cfg,
        "iddeg_end_to_end",
        workload,
        || IddeG { game: par_game(), ..IddeG::default() }.solve(&problem),
        |strategy| metrics_fingerprint(&problem, strategy),
    );

    Ledger {
        suite: "solver".into(),
        seed: cfg.seed,
        samples: cfg.samples,
        host_parallelism: host_parallelism(),
        cases: vec![game_case, delivery_case, end_to_end],
    }
}

/// The engine suite: initial solve and a churning serve on the paper-scale
/// instance, with the engine's default (parallel-scoring) configuration.
pub fn run_engine_suite(cfg: &LedgerConfig) -> Ledger {
    let problem = fullscale_problem(cfg.seed);
    let num_data = problem.scenario.num_data();
    let workload = "SyntheticEua 125/816/5; WorkloadConfig::default churn, 50 ticks";

    let init_case = sweep(
        cfg,
        "engine_initial_solve",
        workload,
        || {
            let mut wl = WorkloadGenerator::new(WorkloadConfig::default(), num_data, cfg.seed);
            let initial = wl.initial_active(problem.scenario.num_users());
            Engine::new(problem.clone(), EngineConfig::default(), initial)
        },
        |engine| {
            let mut fp = Fingerprint::new();
            fp.absorb(engine.average_active_rate().to_bits());
            fp.digest()
        },
    );

    let serve_case = sweep(
        cfg,
        "engine_serve_50_ticks",
        workload,
        || {
            let mut wl = WorkloadGenerator::new(WorkloadConfig::default(), num_data, cfg.seed);
            let initial = wl.initial_active(problem.scenario.num_users());
            let mut engine = Engine::new(problem.clone(), EngineConfig::default(), initial);
            engine.run(&mut wl, 50);
            engine.metrics().to_csv()
        },
        |csv| {
            let mut fp = Fingerprint::new();
            fp.absorb_bytes(csv.as_bytes());
            fp.digest()
        },
    );

    // Scaling sweep: the same seeded mobility walk replayed through the
    // coverage-maintenance layer on a 2000-server geography, once with the
    // spatial grid and once with the brute-force oracle. The two cases must
    // land on the same adjacency fingerprint — the differential check the
    // unit/property tests make at small scale, observed here at large scale
    // — and their median ratio is the recorded speedup of the index.
    let (scale_servers, scale_users, scale_events) =
        scale_mobility_workload(cfg.seed, 2_000, 5_000, 100_000);
    let scale_workload =
        "SyntheticEua::scaled 2000 servers / 5000 users; 100000-event seeded mobility walk";
    // Both maps are built *outside* the timed closures: construction is a
    // one-off per deployment, while the thing being measured is the
    // per-event maintenance cost. Each sample clones the prototype (a cost
    // both cases pay identically) and replays the walk on the clone.
    let grid_proto = CoverageMap::compute(&scale_servers, &scale_users);
    let brute_proto = CoverageMap::compute_brute_force(&scale_servers, &scale_users);
    assert!(grid_proto.has_spatial_index());
    assert!(!brute_proto.has_spatial_index());
    let grid_case = sweep(
        cfg,
        "scale_mobility_grid",
        scale_workload,
        || replay_mobility(&scale_servers, &scale_users, &scale_events, &grid_proto),
        adjacency_fingerprint,
    );
    let brute_case = sweep(
        cfg,
        "scale_mobility_brute",
        scale_workload,
        || replay_mobility(&scale_servers, &scale_users, &scale_events, &brute_proto),
        adjacency_fingerprint,
    );

    // Shard-scaling sweep: the same walk partitioned by a real ShardPlan
    // tiling. The `threads` column of this case records the *shard count* K
    // (reusing the sweep's 1/2/4/8 axis), and the determinism check becomes
    // the partition-invariance contract: every K must land on the identical
    // global coverage fingerprint — including K = 1, whose digest equals the
    // unsharded `scale_mobility_brute` fingerprint by construction.
    let shard_case = shard_scaling_case(cfg, &scale_servers, &scale_users, &scale_events);

    // Batch-ingestion sweep: one churn stream through a full-scale engine
    // at group-commit sizes B ∈ {1, 7, 64, 512} (the `threads` column
    // records B; every point runs single-threaded). The fingerprint hashes
    // the ingest-invariant state and must be equal at every B.
    let batch_case = batch_ingestion_case(cfg, &[1, 7, 64, 512]);

    // Cache-drift sweep: the same full-scale geography under a
    // non-stationary, request-heavy workload, once per caching policy (the
    // `threads` column records the policy index). The shared fingerprint is
    // the "cache never perturbs the solver" contract observed at scale.
    let cache_case = cache_drift_case(cfg);

    // Bulk-distribution sweep: an outage storm over the same full-scale
    // geography, once per delivery strategy (the `threads` column records
    // the strategy index). The shared fingerprint is the "delivery only
    // changes how installs travel, never what lands where" contract.
    let dist_case = dist_bulk_case(cfg);

    Ledger {
        suite: "engine".into(),
        seed: cfg.seed,
        samples: cfg.samples,
        host_parallelism: host_parallelism(),
        cases: vec![
            init_case, serve_case, grid_case, brute_case, shard_case, batch_case, cache_case,
            dist_case,
        ],
    }
}

/// The `batch_ingestion` case: one seeded churn-only event stream (moves,
/// arrivals, departures — requests and faults are flush barriers and would
/// collapse every batch to size 1) replayed through a pre-built
/// 2000-server / 5000-user engine at several group-commit sizes. The
/// `threads` column records the batch size B and every point runs
/// single-threaded, so the medians' ratio is the pure batching win:
/// at B = 1 ingestion pays a full interference-field rebuild, a restricted
/// Nash repair and a placement repair *per event*, while the group commit
/// pays them once per batch. Engine construction (a full-scale initial
/// solve) and the per-sample engine clone happen outside the timed region —
/// the online ingestion regime is the thing measured. Events/sec is
/// `events ÷ median`; the fingerprint hashes the ingest-invariant state
/// (bitwise positions, activity flags, the coverage adjacency), so the
/// standard `deterministic_across_threads` gate doubles as the batching
/// determinism contract observed at scale.
fn batch_ingestion_case(cfg: &LedgerConfig, batches: &[u64]) -> BenchCase {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x0bac_7ced);
    let gen = SyntheticEua::scaled(2_000, 5_000).expect("bench workloads use positive scales");
    let scenario = gen.sample(2_000, 5_000, 5, &mut rng);
    let problem = Problem::standard(scenario, &mut rng);
    let m = problem.scenario.num_users();
    // A third of the population starts active: representative repair cost
    // without making the B = 1 point glacial (~1 s per event).
    let initial: Vec<bool> = (0..m).map(|j| j % 3 == 0).collect();
    let config = EngineConfig { checkpoint_interval: 0, ..EngineConfig::default() };
    let proto = Engine::new(problem, config, initial);
    let events: Vec<Event> = (0..64)
        .map(|_| {
            let user = UserId(rng.gen_range(0..m as u32));
            match rng.gen_range(0..10u32) {
                0..=7 => Event::Move {
                    user,
                    dx: rng.gen_range(-80.0..=80.0),
                    dy: rng.gen_range(-80.0..=80.0),
                },
                8 => Event::Depart { user },
                _ => Event::Arrive { user },
            }
        })
        .collect();

    let mut points = Vec::with_capacity(batches.len());
    idde_par::set_threads(1);
    for &b in batches {
        let mut samples_ms = Vec::with_capacity(cfg.samples);
        let mut digest = 0u64;
        for _ in 0..cfg.samples {
            let mut engine = proto.clone();
            engine.set_batch(b);
            let start = Instant::now();
            engine.apply_batch(&events);
            samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            digest = ingest_state_fingerprint(&engine);
        }
        points.push(ThreadPoint { threads: b as usize, samples_ms, fingerprint: digest });
    }
    idde_par::set_threads(0);
    BenchCase {
        name: "batch_ingestion".into(),
        workload: "SyntheticEua::scaled 2000 servers / 5000 users; 64-event churn stream; \
                   threads column = batch size B, all points single-threaded"
            .into(),
        points,
    }
}

/// FNV digest over the engine state the batching layer must keep
/// batch-size-invariant: bitwise user positions, activity flags and the
/// coverage adjacency relation.
fn ingest_state_fingerprint(engine: &Engine) -> u64 {
    let mut fp = Fingerprint::new();
    for (j, user) in engine.problem().scenario.users.iter().enumerate() {
        fp.absorb(user.position.x.to_bits());
        fp.absorb(user.position.y.to_bits());
        fp.absorb(u64::from(engine.active()[j]));
    }
    fp.absorb(adjacency_fingerprint(&engine.problem().scenario.coverage));
    fp.digest()
}

/// The `cache_drift` case: a request-heavy non-stationary serve (Zipf drift,
/// hot-set rotation, diurnal waves, flash crowds) on a 2000-server /
/// 5000-user geography, repeated once per caching policy. The `threads`
/// column records the *policy index* over `[off, lce, lcd, probcache]` and
/// every point runs single-threaded, so the medians compare the policies'
/// serving cost head-to-head. The fingerprint deliberately hashes only the
/// state the cache must never perturb — the ingest-invariant state plus the
/// solver's allocation and placement profiles — so the standard
/// `deterministic_across_threads` gate becomes the on-path contract observed
/// at scale: every policy, including `off`, lands on the identical solver
/// trajectory. Per-policy hit and latency figures are embedded in the
/// workload string (they are seeded-deterministic, so regeneration is
/// stable).
fn cache_drift_case(cfg: &LedgerConfig) -> BenchCase {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x000c_ac4e);
    let gen = SyntheticEua::scaled(2_000, 5_000).expect("bench workloads use positive scales");
    let scenario = gen.sample(2_000, 5_000, 8, &mut rng);
    let problem = Problem::standard(scenario, &mut rng);
    let m = problem.scenario.num_users();
    let num_data = problem.scenario.num_data();
    // A fifth of the population starts active, and the workload is skewed
    // towards requests (low churn, high request rate): the thing measured is
    // the serving path the cache sits on, not the repair machinery the
    // batching case already covers.
    let initial: Vec<bool> = (0..m).map(|j| j % 5 == 0).collect();
    let wcfg = WorkloadConfig {
        arrival_rate: 0.2,
        departure_rate: 0.2,
        move_probability: 0.001,
        request_rate: 120.0,
        drift: DriftProfile::drifting(),
        ..WorkloadConfig::default()
    };

    let policies = [PolicyKind::Off, PolicyKind::Lce, PolicyKind::Lcd, PolicyKind::ProbCache];
    let mut points = Vec::with_capacity(policies.len());
    let mut summary = String::new();
    idde_par::set_threads(1);
    for (ix, &policy) in policies.iter().enumerate() {
        let config = EngineConfig {
            checkpoint_interval: 0,
            cache: CacheConfig { policy, seed: cfg.seed, ..CacheConfig::default() },
            ..EngineConfig::default()
        };
        // The initial solve is a one-off per deployment; each timed sample
        // clones the prototype and pays only the 10-tick drift serve.
        let proto = Engine::new(problem.clone(), config, initial.clone());
        let mut samples_ms = Vec::with_capacity(cfg.samples);
        let mut digest = 0u64;
        let mut observed = (0u64, 0u64, 0.0f64);
        for _ in 0..cfg.samples {
            let mut engine = proto.clone();
            let mut wl = WorkloadGenerator::new(wcfg, num_data, cfg.seed);
            let start = Instant::now();
            engine.run(&mut wl, 10);
            samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            digest = solver_state_fingerprint(&engine);
            let hits = engine.metrics().cache.map_or(0, |c| c.hits);
            observed = (hits, engine.metrics().requests, engine.metrics().average_latency_ms());
        }
        let (hits, requests, latency) = observed;
        summary.push_str(&format!("; {policy}: {hits}/{requests} hits, L_avg {latency:.4} ms"));
        points.push(ThreadPoint { threads: ix, samples_ms, fingerprint: digest });
    }
    idde_par::set_threads(0);
    BenchCase {
        name: "cache_drift".into(),
        workload: format!(
            "SyntheticEua::scaled 2000 servers / 5000 users / 8 items; request-heavy drift \
             workload, 10 ticks; threads column = policy index [0 off, 1 lce, 2 lcd, 3 \
             probcache], all points single-threaded{summary}"
        ),
        points,
    }
}

/// The `dist_bulk` case: an outage storm on the full-scale geography, run
/// once per delivery strategy with distribution recording on (the `threads`
/// column records the strategy index; every point runs single-threaded).
///
/// The storm takes down the eight busiest replica holders in waves of two
/// and restores them empty-handed; every failure forces a re-replication
/// round through the bulk-install path, so the case measures exactly the
/// machinery the strategies differ on. The fingerprint is the solver-state
/// digest: delivery planning is observational, so Unicast and SteinerTree
/// must land on the identical placement — the ISSUE's "equal
/// final-placement fingerprints" gate *is* the standard
/// `deterministic_across_threads` check. Per-strategy distribution cost,
/// delay-violation and audit figures are embedded in the workload string
/// (seeded-deterministic, so regeneration is stable); the Steiner row must
/// come in strictly below the Unicast row on total cost.
fn dist_bulk_case(cfg: &LedgerConfig) -> BenchCase {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x00d1_57b1);
    let gen = SyntheticEua::scaled(2_000, 5_000).expect("bench workloads use positive scales");
    let scenario = gen.sample(2_000, 5_000, 6, &mut rng);
    let problem = Problem::standard(scenario, &mut rng);
    let m = problem.scenario.num_users();
    let initial: Vec<bool> = (0..m).map(|j| j % 5 == 0).collect();

    let strategies = [StrategyKind::Unicast, StrategyKind::Steiner];
    let mut points = Vec::with_capacity(strategies.len());
    let mut summary = String::new();
    idde_par::set_threads(1);
    for (ix, &strategy) in strategies.iter().enumerate() {
        let config = EngineConfig {
            checkpoint_interval: 0,
            // Arms the per-round distribution audit; the periodic full
            // audit never fires inside the storm's small event budget.
            audit_every: u64::MAX,
            dist: DistConfig { strategy, record: true, ..DistConfig::default() },
            ..EngineConfig::default()
        };
        // The initial solve (and its recorded install round) is a one-off
        // per deployment; each timed sample clones the prototype and pays
        // only the storm's re-replication rounds.
        let proto = Engine::new(problem.clone(), config, initial.clone());
        let mut load: Vec<(usize, ServerId)> = problem
            .scenario
            .server_ids()
            .map(|s| (proto.placement().data_on(s).count(), s))
            .collect();
        load.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.index().cmp(&b.1.index())));
        let victims: Vec<ServerId> = load.into_iter().take(8).map(|(_, s)| s).collect();
        let mut storm = Vec::with_capacity(2 * victims.len());
        for wave in victims.chunks(2) {
            for &server in wave {
                storm.push(Event::ServerDown { server });
            }
            for &server in wave {
                storm.push(Event::ServerRestore { server });
            }
        }
        let mut samples_ms = Vec::with_capacity(cfg.samples);
        let mut digest = 0u64;
        let mut observed = (0u64, 0u64, 0.0f64, 0u64, 0u64);
        for _ in 0..cfg.samples {
            let mut engine = proto.clone();
            let start = Instant::now();
            for event in &storm {
                engine.apply(event);
            }
            samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            digest = solver_state_fingerprint(&engine);
            let d = engine.metrics().dist.unwrap_or_default();
            observed = (
                d.bulk_installs,
                d.replicas_installed,
                d.dist_cost_ms,
                d.delay_violations,
                engine.metrics().audit_violations,
            );
        }
        let (rounds, replicas, cost, delay_viol, audit_viol) = observed;
        summary.push_str(&format!(
            "; {strategy}: {rounds} rounds, {replicas} replicas, cost {cost:.3} ms, \
             {delay_viol} delay violations, {audit_viol} audit violations"
        ));
        points.push(ThreadPoint { threads: ix, samples_ms, fingerprint: digest });
    }
    idde_par::set_threads(0);
    BenchCase {
        name: "dist_bulk".into(),
        workload: format!(
            "SyntheticEua::scaled 2000 servers / 5000 users / 6 items; outage storm over the 8 \
             busiest replica holders (waves of 2, down then restore); threads column = strategy \
             index [0 unicast, 1 steiner], all points single-threaded{summary}"
        ),
        points,
    }
}

/// FNV digest over the engine state the caching layer must never perturb:
/// the ingest-invariant state (bitwise positions, activity flags, coverage
/// adjacency) plus the solver-side allocation and placement profiles. Every
/// caching policy must land on the digest the cache-off run produces — the
/// ledger's observed proof that cached replicas stay out of the game.
fn solver_state_fingerprint(engine: &Engine) -> u64 {
    let mut fp = Fingerprint::new();
    fp.absorb(ingest_state_fingerprint(engine));
    for user in engine.problem().scenario.user_ids() {
        match engine.allocation().decision(user) {
            Some((server, channel)) => {
                fp.absorb(server.index() as u64 + 1);
                fp.absorb(channel.index() as u64 + 1);
            }
            None => fp.absorb(0),
        }
    }
    for server in engine.problem().scenario.server_ids() {
        for data in engine.placement().data_on(server) {
            fp.absorb(server.index() as u64);
            fp.absorb(data.index() as u64);
        }
    }
    fp.digest()
}

/// One shard's pre-partitioned slice of the scaling walk: the servers it
/// owns re-numbered to local ids (coverage maps index their tables by raw
/// id, so a subset map needs a dense id space), the local→global id map,
/// the events routed to it, and the coverage prototype replays clone.
struct ShardWork {
    globals: Vec<ServerId>,
    servers: Vec<EdgeServer>,
    events: Vec<(usize, Point)>,
    proto: CoverageMap,
}

/// Partitions the scaling walk for `k` shards using a [`ShardPlan`] tiling
/// over the server sites. An event is routed to every shard whose tile is
/// within one interference range of the user's previous *or* new position
/// (the dilated-rect rule): a server owned by shard `k` sits inside
/// `rect(k)`, so a user farther than the maximum coverage radius from the
/// rect cannot be covered by any of the shard's servers — missed events can
/// only toggle coverage that is empty on both sides.
fn partition_shard_work(
    k: usize,
    servers: &[EdgeServer],
    users: &[User],
    events: &[(usize, Point)],
) -> Vec<ShardWork> {
    // A minimal scenario carrying just the geometry ShardPlan reads: the
    // area (the server bounding box; the plan dilates to it anyway) and the
    // server sites with their real coverage radii.
    let mut b = ScenarioBuilder::new();
    let mut lo = servers[0].position;
    let mut hi = servers[0].position;
    for s in servers {
        lo = Point::new(lo.x.min(s.position.x), lo.y.min(s.position.y));
        hi = Point::new(hi.x.max(s.position.x), hi.y.max(s.position.y));
        b.server(s.position, s.coverage_radius_m, s.num_channels, s.channel_bandwidth, s.storage);
    }
    b.user(servers[0].position, Watts(0.5), MegaBytesPerSec(100.0));
    let d = b.data(MegaBytes(1.0));
    b.request(UserId(0), d);
    let scenario = b.area(Rect::new(lo, hi)).build().expect("scaling geometry is valid");
    let plan = ShardPlan::build(&scenario, k).expect("2000 sites tile into any benched K");

    let mut work: Vec<ShardWork> = (0..k)
        .map(|shard| {
            let globals: Vec<ServerId> = plan
                .owner()
                .iter()
                .enumerate()
                .filter(|&(_, &o)| o == shard)
                .map(|(i, _)| ServerId::from_index(i))
                .collect();
            let servers: Vec<EdgeServer> = globals
                .iter()
                .enumerate()
                .map(|(local, &g)| EdgeServer {
                    id: ServerId::from_index(local),
                    ..servers[g.index()].clone()
                })
                .collect();
            let proto = CoverageMap::compute_brute_force(&servers, users);
            ShardWork { globals, servers, events: Vec::new(), proto }
        })
        .collect();
    let range = plan.interference_range();
    let mut positions: Vec<Point> = users.iter().map(|u| u.position).collect();
    for &(j, next) in events {
        let prev = positions[j];
        for (shard, w) in work.iter_mut().enumerate() {
            let rect = plan.rect(shard);
            if rect.distance_to(prev) <= range || rect.distance_to(next) <= range {
                w.events.push((j, next));
            }
        }
        positions[j] = next;
    }
    work
}

/// FNV digest over the union of the shards' coverage relations, rows in
/// global server-id order — shaped exactly like [`adjacency_fingerprint`],
/// so any shard count (including 1) must reproduce the unsharded digest.
fn sharded_adjacency_fingerprint(num_users: usize, shards: &[(&[ServerId], &CoverageMap)]) -> u64 {
    let mut fp = Fingerprint::new();
    let mut row: Vec<u64> = Vec::new();
    for j in 0..num_users {
        row.clear();
        for (globals, map) in shards {
            for &local in map.servers_of(UserId::from_index(j)) {
                row.push(globals[local.index()].index() as u64);
            }
        }
        row.sort_unstable();
        fp.absorb(row.len() as u64);
        for &g in &row {
            fp.absorb(g);
        }
    }
    fp.digest()
}

/// The `shard_scaling` case: the scaling walk replayed through per-shard
/// coverage maps for K ∈ `cfg.threads` shards (the `threads` column records
/// K). Partitioning and prototype construction happen outside the timed
/// region — the measurement is the per-event maintenance cost, which drops
/// with K because each shard only scans the servers it owns.
fn shard_scaling_case(
    cfg: &LedgerConfig,
    servers: &[EdgeServer],
    users: &[User],
    events: &[(usize, Point)],
) -> BenchCase {
    let mut points = Vec::with_capacity(cfg.threads.len());
    for &k in &cfg.threads {
        let work = partition_shard_work(k, servers, users, events);
        let mut samples_ms = Vec::with_capacity(cfg.samples);
        let mut digest = 0u64;
        for _ in 0..cfg.samples {
            let start = Instant::now();
            let maps: Vec<CoverageMap> = work
                .iter()
                .map(|w| replay_mobility(&w.servers, users, &w.events, &w.proto))
                .collect();
            samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let views: Vec<(&[ServerId], &CoverageMap)> =
                work.iter().zip(&maps).map(|(w, m)| (w.globals.as_slice(), m)).collect();
            digest = sharded_adjacency_fingerprint(users.len(), &views);
        }
        points.push(ThreadPoint { threads: k, samples_ms, fingerprint: digest });
    }
    BenchCase {
        name: "shard_scaling".into(),
        workload: "scale walk partitioned by ShardPlan; threads column = shard count K".into(),
        points,
    }
}

/// Builds the scaling-sweep workload: a density-preserving enlargement of
/// the EUA geography to `num_servers`/`num_users` plus a pre-generated
/// random mobility walk of `num_events` absolute position updates.
///
/// Entities are built straight from the base population — the radio and
/// solver substrates are irrelevant to coverage maintenance, and a
/// 2000-server gain table would dwarf the thing being measured.
fn scale_mobility_workload(
    seed: u64,
    num_servers: usize,
    num_users: usize,
    num_events: usize,
) -> (Vec<EdgeServer>, Vec<User>, Vec<(usize, Point)>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5ca1_ab1e);
    let gen = SyntheticEua::scaled(num_servers, num_users)
        .expect("bench workloads use positive scale factors");
    let pop = gen.generate(&mut rng);
    let servers = pop
        .server_sites
        .iter()
        .zip(&pop.coverage_radii_m)
        .enumerate()
        .map(|(i, (&position, &coverage_radius_m))| EdgeServer {
            id: ServerId::from_index(i),
            position,
            coverage_radius_m,
            num_channels: 10,
            channel_bandwidth: MegaBytesPerSec(200.0),
            storage: MegaBytes(1_000.0),
        })
        .collect();
    let users: Vec<User> = pop
        .user_sites
        .iter()
        .enumerate()
        .map(|(j, &position)| {
            User::new(UserId::from_index(j), position, Watts(0.5), MegaBytesPerSec(100.0))
        })
        .collect();
    // A bounded random walk: each event flings one user by up to ±40 m per
    // axis (a few seconds of vehicular motion) and records the resulting
    // absolute position, so replays are independent of one another.
    let mut positions: Vec<Point> = users.iter().map(|u| u.position).collect();
    let events = (0..num_events)
        .map(|_| {
            let j = rng.gen_range(0..positions.len());
            let p = positions[j];
            let next = pop.area.clamp(Point::new(
                p.x + rng.gen_range(-40.0..=40.0),
                p.y + rng.gen_range(-40.0..=40.0),
            ));
            positions[j] = next;
            (j, next)
        })
        .collect();
    (servers, users, events)
}

/// Replays a pre-generated mobility walk through [`CoverageMap::update_user`]
/// on fresh per-sample state cloned from `proto` (a grid-backed map keeps
/// its index across the clone; a brute-force map keeps its linear scans).
fn replay_mobility(
    servers: &[EdgeServer],
    users: &[User],
    events: &[(usize, Point)],
    proto: &CoverageMap,
) -> CoverageMap {
    let mut users = users.to_vec();
    let mut map = proto.clone();
    for &(j, position) in events {
        users[j].position = position;
        map.update_user(servers, &users[j]);
    }
    map
}

/// FNV digest over the full user→server coverage relation.
fn adjacency_fingerprint(map: &CoverageMap) -> u64 {
    let mut fp = Fingerprint::new();
    for j in 0..map.num_users() {
        let row = map.servers_of(UserId::from_index(j));
        fp.absorb(row.len() as u64);
        for &s in row {
            fp.absorb(s.index() as u64);
        }
    }
    fp.digest()
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LedgerConfig {
        LedgerConfig { samples: 2, threads: vec![1, 2], seed: 7 }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.95), 5.0);
        assert_eq!(percentile(&[7.5], 0.5), 7.5);
        // Nearest-rank index math at a larger n: ceil(0.95·20) = 19.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.95), 19.0);
        // Even n: the lower of the two middles, per the doc comment.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        // q = 0 and q = 1 never index out of bounds.
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
    }

    /// A stray NaN timing must not panic the suite (the old
    /// `partial_cmp(...).expect` sort did). Under `total_cmp` positive NaNs
    /// sort above `+inf`, so low/mid ranks stay meaningful and the NaN only
    /// shows up at the ranks it occupies.
    #[test]
    fn percentile_tolerates_nan_timings() {
        let s = vec![2.0, f64::NAN, 1.0];
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert!(percentile(&s, 1.0).is_nan());
        assert!(percentile(&[f64::NAN], 0.5).is_nan());
    }

    /// The scale-suite replay helpers: grid and brute paths of the same
    /// walk must agree exactly (here at a small geography; the committed
    /// BENCH_engine.json observes the same equality at 2000 servers).
    #[test]
    fn scale_mobility_replays_agree_across_grid_and_brute() {
        let (servers, users, events) = scale_mobility_workload(7, 60, 150, 400);
        assert_eq!(servers.len(), 60);
        assert_eq!(users.len(), 150);
        assert_eq!(events.len(), 400);
        let grid_proto = CoverageMap::compute(&servers, &users);
        let brute_proto = CoverageMap::compute_brute_force(&servers, &users);
        let grid = replay_mobility(&servers, &users, &events, &grid_proto);
        let brute = replay_mobility(&servers, &users, &events, &brute_proto);
        assert!(grid.has_spatial_index());
        assert!(!brute.has_spatial_index());
        assert_eq!(grid, brute);
        assert_eq!(adjacency_fingerprint(&grid), adjacency_fingerprint(&brute));
        // The walk must actually change the relation, or the bench would
        // time a no-op.
        let initial = CoverageMap::compute(&servers, &users);
        assert_ne!(grid, initial, "mobility walk left coverage untouched");
    }

    /// The shard_scaling case's partition-invariance contract, observed at
    /// small scale: every shard count lands on one global coverage digest,
    /// and K = 1 equals the unsharded brute fingerprint exactly.
    #[test]
    fn shard_scaling_fingerprints_are_partition_invariant() {
        let (servers, users, events) = scale_mobility_workload(7, 60, 150, 400);
        let unsharded = adjacency_fingerprint(&replay_mobility(
            &servers,
            &users,
            &events,
            &CoverageMap::compute_brute_force(&servers, &users),
        ));
        for k in [1usize, 2, 3, 4] {
            let work = partition_shard_work(k, &servers, &users, &events);
            assert_eq!(work.len(), k);
            assert_eq!(work.iter().map(|w| w.servers.len()).sum::<usize>(), servers.len());
            let maps: Vec<CoverageMap> = work
                .iter()
                .map(|w| replay_mobility(&w.servers, &users, &w.events, &w.proto))
                .collect();
            let views: Vec<(&[ServerId], &CoverageMap)> =
                work.iter().zip(&maps).map(|(w, m)| (w.globals.as_slice(), m)).collect();
            assert_eq!(
                sharded_adjacency_fingerprint(users.len(), &views),
                unsharded,
                "K = {k} diverged from the unsharded coverage relation"
            );
            // Sharding must actually shed work: each shard sees no more
            // events than the full walk, and for K > 1 strictly fewer.
            for w in &work {
                assert!(w.events.len() <= events.len());
            }
            if k > 1 {
                assert!(
                    work.iter().any(|w| w.events.len() < events.len()),
                    "no shard shed any events at K = {k}"
                );
            }
        }
    }

    /// The batch_ingestion contract at small scale: every group-commit
    /// size lands on the same ingest-state fingerprint (the full-scale
    /// ledger case observes the same equality at 2000 servers), and the
    /// whole-stream batch strictly coalesces repairs.
    #[test]
    fn batch_ingestion_fingerprints_are_batch_size_invariant() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let scenario = SyntheticEua::default().sample(10, 40, 3, &mut rng);
        let problem = Problem::standard(scenario, &mut rng);
        let initial: Vec<bool> = (0..40).map(|j| j % 3 == 0).collect();
        let config = EngineConfig { checkpoint_interval: 0, ..EngineConfig::default() };
        let proto = Engine::new(problem, config, initial);
        let events: Vec<Event> = (0..48)
            .map(|_| {
                let user = UserId(rng.gen_range(0..40));
                match rng.gen_range(0..10u32) {
                    0..=7 => Event::Move {
                        user,
                        dx: rng.gen_range(-80.0..=80.0),
                        dy: rng.gen_range(-80.0..=80.0),
                    },
                    8 => Event::Depart { user },
                    _ => Event::Arrive { user },
                }
            })
            .collect();
        let mut digests = Vec::new();
        let mut repairs = Vec::new();
        for b in [1u64, 7, 48] {
            let mut engine = proto.clone();
            engine.set_batch(b);
            engine.apply_batch(&events);
            digests.push(ingest_state_fingerprint(&engine));
            repairs.push(engine.metrics().repairs);
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "ingest-state digests diverged across batch sizes: {digests:x?}"
        );
        assert!(
            repairs[2] < repairs[0],
            "whole-stream batching must coalesce repairs ({repairs:?})"
        );
    }

    /// The cache_drift contract at small scale: every caching policy lands
    /// on the cache-off solver-state fingerprint (the full-scale ledger case
    /// observes the same equality at 2000 servers), and at least one cached
    /// policy actually serves traffic from its store.
    #[test]
    fn cache_drift_fingerprints_are_policy_invariant() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let scenario = SyntheticEua::default().sample(12, 60, 4, &mut rng);
        let problem = Problem::standard(scenario, &mut rng);
        let initial: Vec<bool> = (0..60).map(|j| j % 2 == 0).collect();
        let wcfg = WorkloadConfig {
            request_rate: 40.0,
            drift: DriftProfile::drifting(),
            ..WorkloadConfig::default()
        };
        let mut digests = Vec::new();
        let mut hits = Vec::new();
        for policy in [PolicyKind::Off, PolicyKind::Lce, PolicyKind::Lcd, PolicyKind::ProbCache] {
            let config = EngineConfig {
                checkpoint_interval: 0,
                cache: CacheConfig { policy, ..CacheConfig::default() },
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(problem.clone(), config, initial.clone());
            let mut wl = WorkloadGenerator::new(wcfg, 4, 23);
            engine.run(&mut wl, 40);
            digests.push(solver_state_fingerprint(&engine));
            hits.push(engine.metrics().cache.map_or(0, |c| c.hits));
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "solver-state digests diverged across caching policies: {digests:x?}"
        );
        assert_eq!(hits[0], 0, "cache-off must record no cache traffic");
        assert!(hits.iter().skip(1).any(|&h| h > 0), "no caching policy recorded a hit ({hits:?})");
    }

    /// The dist_bulk contract at small scale: both delivery strategies land
    /// on the same solver-state fingerprint (the full-scale ledger case
    /// observes the same equality at 2000 servers), every recorded round
    /// audits clean, and the Steiner trees come in strictly below the
    /// unicast per-destination plans on total distribution cost.
    #[test]
    fn dist_bulk_steiner_is_cheaper_and_placement_invariant() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let scenario = SyntheticEua::default().sample(12, 60, 4, &mut rng);
        let problem = Problem::standard(scenario, &mut rng);
        let initial: Vec<bool> = (0..60).map(|j| j % 2 == 0).collect();
        let mut digests = Vec::new();
        let mut costs = Vec::new();
        for strategy in [StrategyKind::Unicast, StrategyKind::Steiner] {
            let config = EngineConfig {
                checkpoint_interval: 0,
                audit_every: u64::MAX,
                dist: DistConfig { strategy, record: true, ..DistConfig::default() },
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(problem.clone(), config, initial.clone());
            let mut load: Vec<(usize, ServerId)> = engine
                .problem()
                .scenario
                .server_ids()
                .map(|s| (engine.placement().data_on(s).count(), s))
                .collect();
            load.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.index().cmp(&b.1.index())));
            for (_, server) in load.into_iter().take(3) {
                engine.apply(&Event::ServerDown { server });
                engine.apply(&Event::ServerRestore { server });
            }
            let d = engine.metrics().dist.unwrap_or_default();
            assert!(d.bulk_installs >= 1, "{strategy}: no bulk round was recorded");
            assert!(d.replicas_installed > 0, "{strategy}: no replica installs were recorded");
            assert_eq!(
                engine.metrics().audit_violations,
                0,
                "{strategy}: distribution audit flagged violations"
            );
            digests.push(solver_state_fingerprint(&engine));
            costs.push(d.dist_cost_ms);
        }
        assert_eq!(
            digests[0], digests[1],
            "solver-state digests diverged across delivery strategies: {digests:x?}"
        );
        assert!(
            costs[1] < costs[0],
            "Steiner trees must beat unicast on total distribution cost ({costs:?})"
        );
    }

    #[test]
    fn fingerprint_distinguishes_streams() {
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        a.absorb(1);
        a.absorb(2);
        b.absorb(2);
        b.absorb(1);
        assert_ne!(a.digest(), b.digest(), "order must matter");
    }

    #[test]
    fn json_escapes_and_parses_shape() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        let ledger = Ledger {
            suite: "solver".into(),
            seed: 1,
            samples: 2,
            host_parallelism: 4,
            cases: vec![BenchCase {
                name: "x".into(),
                workload: "w".into(),
                points: vec![ThreadPoint {
                    threads: 1,
                    samples_ms: vec![1.25, 2.5],
                    fingerprint: 0xdead_beef,
                }],
            }],
        };
        let json = ledger.to_json();
        assert!(json.contains("\"suite\": \"solver\""));
        assert!(json.contains("\"available_parallelism\": 4"));
        assert!(json.contains("\"deterministic_across_threads\": true"));
        assert!(json.contains("\"fingerprint\": \"00000000deadbeef\""));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser in the dependency set.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn solver_suite_is_deterministic_across_the_sweep() {
        // A scaled-down run of the real harness: thread sweep 1→2 must not
        // change any case's fingerprint. (The committed BENCH_*.json files
        // re-check this at full scale on every regeneration.)
        let cfg = tiny();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let scenario = SyntheticEua::default().sample(20, 120, 3, &mut rng);
        let problem = Problem::standard(scenario, &mut rng);
        let case = sweep(
            &cfg,
            "iddeg_small",
            "20/120/3",
            || IddeG { game: par_game(), ..IddeG::default() }.solve(&problem),
            |s| metrics_fingerprint(&problem, s),
        );
        assert!(case.deterministic(), "thread sweep changed the equilibrium");
        assert_eq!(case.points.len(), 2);
        assert!(case.points.iter().all(|p| p.samples_ms.len() == 2));
        assert!(case.points.iter().all(|p| p.median_ms() > 0.0));
    }
}
