//! The benchmark ledger — reproducible, committed performance baselines.
//!
//! The ledger answers two questions:
//!
//! 1. **What did it cost on a known workload?** Each suite runs *seeded*
//!    workloads (the paper-scale 125-server/816-user EUA sample for the
//!    solver; a churning serve for the engine) and records median + p95
//!    wall-clock per case, so numbers are comparable across commits.
//! 2. **Is the determinism contract holding?** Every case runs through one
//!    harness, `sweep`, over an axis of points: worker counts (default
//!    1/2/4/8 via [`idde_par::set_threads`]) for the paper-scale cases that
//!    use the pool, or a case parameter — batch size B, caching policy,
//!    delivery strategy, shard count K — run on one worker. The serial
//!    `iddeu_game` case has a single point on one worker. A result
//!    *fingerprint* — a hash over the bit patterns of the produced
//!    equilibrium metrics, serve CSV or solver state — is taken for every
//!    sample. The contract "same seed ⇒ identical result at every sample
//!    and every point" is checked right here, not just claimed:
//!    `deterministic` in the emitted JSON is the conjunction over the
//!    sweep. The one case whose axis changes the result, `shard_scaling`
//!    (the merged CSV of a K-shard serve carries per-shard rows), is held
//!    to every sample of each point agreeing, and its K = 1 point carries
//!    the fingerprint of `engine_serve_50_ticks`: the router's byte-identity
//!    contract, observed.
//!
//! `sweep` is the only timing loop: a case hands it an untimed per-point
//! setup (a prototype engine or shard router), an untimed per-sample
//! preparation (cloning the prototype), the timed run and the fingerprint,
//! and gets back what it keeps of each point's last result (the serve
//! metrics its workload summary reports). Each large-scale case is a
//! function of its problem and stream length, so the unit tests below run
//! the same case code at small scale.
//!
//! Timing numbers are honest measurements of the host that ran them; the
//! JSON therefore records `host.available_parallelism`. On a single-core
//! container the >1-thread points measure oversubscription, not speedup —
//! interpret them accordingly (see EXPERIMENTS.md § Benchmarking).
//!
//! Output is hand-rolled, line-oriented JSON (the workspace is offline and
//! carries no serde), written by `idde-cli bench` as `BENCH_engine.json`
//! and `BENCH_solver.json`. The bench gate reads it back here too:
//! [`Ledger::check_against`] compares a fresh run with a committed file.

use std::time::Instant;

use idde_cache::{CacheConfig, PolicyKind};
use idde_core::{GreedyDelivery, IddeG, IddeUGame, Problem};
use idde_dist::{DistConfig, StrategyKind};
use idde_engine::{
    DriftProfile, Engine, EngineConfig, Event, ServeMetrics, WorkloadConfig, WorkloadGenerator,
};
use idde_eua::SyntheticEua;
use idde_model::{
    Allocation, CoverageMap, EdgeServer, MegaBytes, MegaBytesPerSec, Point, ServerId, User, UserId,
    Watts,
};
use idde_shard::ShardRouter;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Configuration of a ledger run.
#[derive(Clone, Debug)]
pub struct LedgerConfig {
    /// Timing samples per `(case, axis point)`.
    pub samples: usize,
    /// Worker counts the thread-axis cases sweep, in order. Parameter axes
    /// (B, policy, strategy, shard count K) are fixed by their cases.
    pub threads: Vec<usize>,
    /// Master seed for workload construction.
    pub seed: u64,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        Self { samples: 5, threads: vec![1, 2, 4, 8], seed: 2022 }
    }
}

/// One `(case, axis point)` measurement.
#[derive(Clone, Debug)]
pub struct ThreadPoint {
    /// The axis value: the worker count for a thread sweep, otherwise the
    /// case parameter (B, policy or strategy index, K) its workload names.
    pub threads: usize,
    /// Raw wall-clock samples, milliseconds, in execution order.
    pub samples_ms: Vec<f64>,
    /// FNV-1a hash over the bit patterns of the first sample's result.
    pub fingerprint: u64,
    /// True iff every sample's result hashed to `fingerprint`.
    pub samples_agree: bool,
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

/// One benchmarked case: a fixed workload swept across an axis.
#[derive(Clone, Debug)]
pub struct BenchCase {
    /// Stable case identifier (a JSON key, effectively).
    pub name: String,
    /// Human-readable workload description, including any seeded-
    /// deterministic per-point figures the case records.
    pub workload: String,
    /// One entry per axis point.
    pub points: Vec<ThreadPoint>,
    /// True when every point must produce one shared result (worker
    /// counts, batch sizes, caching policies, delivery strategies); false
    /// when the axis legitimately changes the result (shard counts K, whose
    /// merged CSV carries per-shard rows).
    pub shared_fingerprint: bool,
}

impl BenchCase {
    /// True iff every sample of every point reproduced its point's result
    /// fingerprint and, for a [`shared_fingerprint`](Self::shared_fingerprint)
    /// case, every point produced the same one — the determinism contract,
    /// observed rather than asserted.
    pub fn deterministic(&self) -> bool {
        self.points.iter().all(|p| p.samples_agree)
            && (!self.shared_fingerprint
                || self.points.windows(2).all(|w| w[0].fingerprint == w[1].fingerprint))
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

    /// The bench gate: compares this run with a committed ledger JSON value
    /// by value — each case's workload string (which carries the seeded
    /// per-point figures, such as cache hits, distribution cost and
    /// handoffs) and each point's result fingerprint. Timings never gate.
    pub fn check_against(&self, committed_json: &str) -> Result<(), String> {
        let suite = &self.suite;
        let committed = gated_values(suite, committed_json)?;
        let current = extract_gated(&self.to_json());
        if committed.len() != current.len() {
            return Err(format!(
                "{suite}: committed ledger has {} gated values, this run produced {} \
                 (sweep or case set changed — re-run `idde bench` and commit the result)",
                committed.len(),
                current.len()
            ));
        }
        let mut diverged = Vec::new();
        for ((case_a, value_a), (case_b, value_b)) in committed.iter().zip(&current) {
            if case_a != case_b || value_a != value_b {
                diverged.push(format!("{case_b}: committed {case_a}={value_a}, got {value_b}"));
            }
        }
        if !diverged.is_empty() {
            return Err(format!(
                "{suite}: {} of {} gated values diverged from the committed ledger:\n  {}\n\
                 if the change is intentional, re-run `idde bench` and commit BENCH_{suite}.json",
                diverged.len(),
                committed.len(),
                diverged.join("\n  ")
            ));
        }
        Ok(())
    }
}

/// The gated `(case, value)` sequence of a committed `suite` ledger, or an
/// error when it holds none: the gate would have nothing to compare.
/// `idde bench --check` calls this before it runs the suite.
pub fn gated_values(suite: &str, committed_json: &str) -> Result<Vec<(String, String)>, String> {
    let committed = extract_gated(committed_json);
    if committed.is_empty() {
        return Err(format!("committed {suite} ledger contains no gated values"));
    }
    Ok(committed)
}

/// Pulls the gated `(case, value)` sequence out of a ledger JSON: per case
/// its raw workload string, then one fingerprint per point. [`Ledger::to_json`]
/// writes one field per line, so a line scan is exact: each case opens with
/// its `"name"` and `"workload"` lines, each point line carries one
/// `"fingerprint"`.
fn extract_gated(ledger_json: &str) -> Vec<(String, String)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let (_, tail) = line.split_once(&format!("\"{key}\": \""))?;
        tail.split_once('"').map(|(v, _)| v.to_string())
    };
    let mut current_case = String::new();
    let mut out = Vec::new();
    for line in ledger_json.lines() {
        if let Some(name) = field(line, "name") {
            current_case = name;
        }
        if let Some((_, workload)) = line.split_once("\"workload\": ") {
            out.push((current_case.clone(), workload.trim_end_matches(',').to_string()));
        }
        if let Some(fp) = field(line, "fingerprint") {
            out.push((current_case.clone(), fp));
        }
    }
    out
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

/// What a case's sweep axis varies — the value its `threads` column records.
#[derive(Clone, Copy, Debug)]
enum Axis<'a> {
    /// Worker counts: each point runs under `idde_par::set_threads(t)`.
    Threads(&'a [usize]),
    /// A case parameter (batch size B, policy or strategy index, shard
    /// count K): every point runs on one worker, so the medians compare the
    /// parameter alone.
    Param(&'a [usize]),
}

/// The ledger's one timing loop. For each point `x` of `axis` it sets the
/// worker count, runs `setup(x)` once, then per sample runs `prepare`
/// (e.g. cloning a prototype engine) and times `run` alone. `inspect`
/// returns each result's fingerprint and what the case keeps of it (a
/// metrics snapshot, not the engine, so results do not pile up in memory).
/// Every sample's fingerprint is compared with the point's first, so a
/// result that changes between samples fails [`BenchCase::deterministic`].
/// Returns the measured points and what was kept of each point's last
/// result, and leaves the pool at the ambient default rather than the last
/// sweep value.
fn sweep<P, S, R, K>(
    samples: usize,
    axis: Axis<'_>,
    mut setup: impl FnMut(usize) -> P,
    mut prepare: impl FnMut(&P) -> S,
    mut run: impl FnMut(&P, S) -> R,
    inspect: impl Fn(&P, &R) -> (u64, K),
) -> (Vec<ThreadPoint>, Vec<K>) {
    assert!(samples > 0, "a sweep point takes at least one sample");
    let (xs, one_worker) = match axis {
        Axis::Threads(xs) => (xs, false),
        Axis::Param(xs) => (xs, true),
    };
    let mut points = Vec::with_capacity(xs.len());
    let mut last = Vec::with_capacity(xs.len());
    for &x in xs {
        idde_par::set_threads(if one_worker { 1 } else { x });
        let point = setup(x);
        let mut samples_ms = Vec::with_capacity(samples);
        let mut digests = Vec::with_capacity(samples);
        for sample in 0..samples {
            let input = prepare(&point);
            let start = Instant::now();
            let result = run(&point, input);
            samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let (digest, kept) = inspect(&point, &result);
            digests.push(digest);
            if sample + 1 == samples {
                last.push(kept);
            }
        }
        let samples_agree = digests.iter().all(|&d| d == digests[0]);
        points.push(ThreadPoint { threads: x, samples_ms, fingerprint: digests[0], samples_agree });
    }
    idde_par::set_threads(0);
    (points, last)
}

/// A case swept over the configured worker counts with nothing to set up:
/// every sample times `run` from scratch.
fn thread_sweep<R>(
    cfg: &LedgerConfig,
    name: &str,
    workload: &str,
    mut run: impl FnMut() -> R,
    fingerprint: impl Fn(&R) -> u64,
) -> BenchCase {
    let threads = Axis::Threads(&cfg.threads);
    let (points, _) =
        sweep(cfg.samples, threads, |_| (), |_| (), |_, ()| run(), |_, r| (fingerprint(r), ()));
    BenchCase { name: name.into(), workload: workload.into(), points, shared_fingerprint: true }
}

fn metrics_fingerprint(problem: &Problem, strategy: &idde_core::Strategy) -> u64 {
    let m = problem.evaluate(strategy);
    let mut fp = Fingerprint::new();
    fp.absorb(m.average_data_rate.value().to_bits());
    fp.absorb(m.average_delivery_latency.value().to_bits());
    fp.digest()
}

/// Absorbs an allocation profile in user order: `server + 1, channel + 1`
/// for an allocated user, `0` for an unallocated one.
fn absorb_allocation(fp: &mut Fingerprint, alloc: &Allocation) {
    for (_, decision) in alloc.iter() {
        match decision {
            Some((server, channel)) => {
                fp.absorb(server.index() as u64 + 1);
                fp.absorb(channel.index() as u64 + 1);
            }
            None => fp.absorb(0),
        }
    }
}

/// The solver suite: Phase #1, Phase #2 and end-to-end IDDE-G on the
/// paper-scale instance.
pub fn run_solver_suite(cfg: &LedgerConfig) -> Ledger {
    let problem = fullscale_problem(cfg.seed);
    let workload = "SyntheticEua 125 servers / 816 users / 5 data, standard substrates";

    // The game makes no `idde-par` call, so it is timed once, on one worker.
    let (points, _) = sweep(
        cfg.samples,
        Axis::Param(&[1]),
        |_| (),
        |_| (),
        |_, ()| IddeUGame::default().run(&problem).field.into_allocation(),
        |_, alloc| {
            let mut fp = Fingerprint::new();
            absorb_allocation(&mut fp, alloc);
            (fp.digest(), ())
        },
    );
    let game_case = BenchCase {
        name: "iddeu_game".into(),
        workload: workload.into(),
        points,
        shared_fingerprint: true,
    };

    let fixed_alloc = IddeUGame::default().run(&problem).field.into_allocation();
    let delivery_case = thread_sweep(
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

    let end_to_end = thread_sweep(
        cfg,
        "iddeg_end_to_end",
        workload,
        || IddeG::default().solve(&problem),
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
/// instance, with the engine's default configuration.
pub fn run_engine_suite(cfg: &LedgerConfig) -> Ledger {
    let problem = fullscale_problem(cfg.seed);
    let num_data = problem.scenario.num_data();
    let workload = "SyntheticEua 125/816/5; WorkloadConfig::default churn, 50 ticks";

    let init_case = thread_sweep(
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

    let serve_case = thread_sweep(
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

    // Shard sweep: the same churn serve through the sharded router. K = 1
    // is the monolithic engine byte for byte, so its fingerprint equals
    // `engine_serve_50_ticks`'s.
    let (shard_case, _) =
        shard_scaling_case(cfg, "SyntheticEua 125/816/5", &problem, 50, &SHARD_COUNTS);

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
    let grid_case = thread_sweep(
        cfg,
        "scale_mobility_grid",
        scale_workload,
        || replay_mobility(&scale_servers, &scale_users, &scale_events, &grid_proto),
        adjacency_fingerprint,
    );
    let brute_case = thread_sweep(
        cfg,
        "scale_mobility_brute",
        scale_workload,
        || replay_mobility(&scale_servers, &scale_users, &scale_events, &brute_proto),
        adjacency_fingerprint,
    );

    // Batch-ingestion sweep: one churn stream through a full-scale engine
    // at group-commit sizes B ∈ {1, 7, 64, 512} (the `threads` column
    // records B; every point runs single-threaded). The fingerprint hashes
    // the ingest-invariant state and must be equal at every B.
    let (batch_problem, batch_rng) = scaled_problem(cfg.seed ^ 0x0bac_7ced, 5);
    let (batch_case, _) =
        batch_ingestion_case(cfg, SCALED, batch_problem, batch_rng, 64, &[1, 7, 64, 512]);

    // Cache-drift sweep: the same full-scale geography under a
    // non-stationary, request-heavy workload, once per caching policy (the
    // `threads` column records the policy index). The shared fingerprint is
    // the "cache never perturbs the solver" contract observed at scale.
    let (cache_problem, _) = scaled_problem(cfg.seed ^ 0x000c_ac4e, 8);
    let (cache_case, _) = cache_drift_case(cfg, &format!("{SCALED} / 8 items"), cache_problem, 10);

    // Bulk-distribution sweep: an outage storm over the same full-scale
    // geography, once per delivery strategy (the `threads` column records
    // the strategy index). The shared fingerprint is the "delivery only
    // changes how installs travel, never what lands where" contract.
    let (dist_problem, _) = scaled_problem(cfg.seed ^ 0x00d1_57b1, 6);
    let (dist_case, _) = dist_bulk_case(cfg, &format!("{SCALED} / 6 items"), dist_problem, 8);

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

/// The shard counts K `shard_scaling` serves at.
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// The `shard_scaling` case: `ticks` ticks of the default churn workload on
/// `problem`, served through [`ShardRouter`] at each shard count in
/// `shards` (the `threads` column records K; every point runs on one
/// worker). The router is built once per point, untimed; each sample
/// clones it together with the workload generator (taken after
/// `initial_active` drew the initial activity) and times the serve alone.
/// The fingerprint hashes the merged serve CSV exactly as
/// `engine_serve_50_ticks` hashes the engine's, so the K = 1 point carries
/// that case's fingerprint: the router's byte-identity contract. At K > 1
/// the per-shard rows of the CSV (checkpoints, repairs, rates) differ, so
/// the points share no fingerprint; each K's handoffs are appended to the
/// workload string. Returns the case and each point's last merged metrics
/// and handoff count.
fn shard_scaling_case(
    cfg: &LedgerConfig,
    geography: &str,
    problem: &Problem,
    ticks: u64,
    shards: &[usize],
) -> (BenchCase, Vec<(ServeMetrics, u64)>) {
    let (points, kept) = sweep(
        cfg.samples,
        Axis::Param(shards),
        |k| {
            let num_data = problem.scenario.num_data();
            let mut wl = WorkloadGenerator::new(WorkloadConfig::default(), num_data, cfg.seed);
            let initial = wl.initial_active(problem.scenario.num_users());
            let router = ShardRouter::new(problem.clone(), EngineConfig::default(), k, initial)
                .expect("the bench geography tiles into every benched K");
            (router, wl)
        },
        |proto| proto.clone(),
        |_, (mut router, mut wl)| {
            router.run(&mut wl, ticks);
            router
        },
        |_, router| {
            let metrics = router.metrics();
            let mut fp = Fingerprint::new();
            fp.absorb_bytes(metrics.to_csv().as_bytes());
            (fp.digest(), (metrics, router.handoffs()))
        },
    );
    let mut workload = format!(
        "{geography}; WorkloadConfig::default churn, {ticks} ticks; ShardRouter serve; threads \
         column = shard count K, all points single-threaded"
    );
    for (k, (_, handoffs)) in shards.iter().zip(&kept) {
        workload.push_str(&format!("; K = {k}: {handoffs} handoffs"));
    }
    let case =
        BenchCase { name: "shard_scaling".into(), workload, points, shared_fingerprint: false };
    (case, kept)
}

/// Geography label of the engine suite's full-scale serve cases.
const SCALED: &str = "SyntheticEua::scaled 2000 servers / 5000 users";

/// A [`SCALED`] problem with `data` items and standard substrates, plus the
/// generator positioned after it (the batch case draws its stream from it).
fn scaled_problem(seed: u64, data: usize) -> (Problem, ChaCha8Rng) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let gen = SyntheticEua::scaled(2_000, 5_000).expect("bench workloads use positive scales");
    let scenario = gen.sample(2_000, 5_000, data, &mut rng);
    (Problem::standard(scenario, &mut rng), rng)
}

/// The `batch_ingestion` case: one seeded churn-only stream of `len` events
/// drawn from `rng` (moves, arrivals, departures — requests and faults are
/// flush barriers and would collapse every batch to size 1) replayed
/// through a pre-built engine on `problem` at each group-commit size in
/// `batches`. Every point runs single-threaded, so the medians' ratio is
/// the pure batching win: at B = 1 ingestion pays a full interference-field
/// rebuild, a restricted Nash repair and a placement repair *per event*,
/// while the group commit pays them once per batch. Engine construction (a
/// full-scale initial solve) and the per-sample engine clone happen outside
/// the timed region — the online ingestion regime is the thing measured.
/// Events/sec is `len ÷ median`; the fingerprint hashes the ingest-invariant
/// state (bitwise positions, activity flags, the coverage adjacency), so
/// the standard determinism gate doubles as the batching determinism
/// contract. Returns the case and each point's last serve metrics.
fn batch_ingestion_case(
    cfg: &LedgerConfig,
    geography: &str,
    problem: Problem,
    mut rng: ChaCha8Rng,
    len: usize,
    batches: &[usize],
) -> (BenchCase, Vec<ServeMetrics>) {
    let m = problem.scenario.num_users();
    // A third of the population starts active: representative repair cost
    // without making the full-scale B = 1 point glacial (~1 s per event).
    let initial: Vec<bool> = (0..m).map(|j| j % 3 == 0).collect();
    let config = EngineConfig { checkpoint_interval: 0, ..EngineConfig::default() };
    let proto = Engine::new(problem, config, initial);
    let events: Vec<Event> = (0..len)
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

    let (points, metrics) = sweep(
        cfg.samples,
        Axis::Param(batches),
        |b| b as u64,
        |&b| {
            let mut engine = proto.clone();
            engine.set_batch(b);
            engine
        },
        |_, mut engine| {
            engine.apply_batch(&events);
            engine
        },
        |_, engine| (ingest_state_fingerprint(engine), engine.metrics().clone()),
    );
    let workload = format!(
        "{geography}; {len}-event churn stream; threads column = batch size B, all points \
         single-threaded"
    );
    let case =
        BenchCase { name: "batch_ingestion".into(), workload, points, shared_fingerprint: true };
    (case, metrics)
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
/// hot-set rotation, diurnal waves, flash crowds) of `ticks` ticks on
/// `problem`, repeated once per caching policy. The `threads` column
/// records the *policy index* over `[off, lce, lcd, probcache]` and every
/// point runs single-threaded, so the medians compare the policies' serving
/// cost head-to-head. The fingerprint deliberately hashes only the state
/// the cache must never perturb — the ingest-invariant state plus the
/// solver's allocation and placement profiles — so the standard determinism
/// gate becomes the on-path contract: every policy, including `off`, lands
/// on the identical solver trajectory. Per-policy hit and latency figures
/// are appended to the workload string (they are seeded-deterministic, so
/// the bench gate compares them). Returns the case and each policy's last
/// serve metrics.
fn cache_drift_case(
    cfg: &LedgerConfig,
    geography: &str,
    problem: Problem,
    ticks: u64,
) -> (BenchCase, Vec<ServeMetrics>) {
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

    let (points, metrics) = sweep(
        cfg.samples,
        Axis::Param(&[0, 1, 2, 3]),
        // The initial solve is a one-off per deployment; each timed sample
        // clones the prototype and pays only the drift serve.
        |ix| {
            let config = EngineConfig {
                checkpoint_interval: 0,
                cache: CacheConfig { policy: policies[ix], seed: cfg.seed },
                ..EngineConfig::default()
            };
            Engine::new(problem.clone(), config, initial.clone())
        },
        |proto| (proto.clone(), WorkloadGenerator::new(wcfg, num_data, cfg.seed)),
        |_, (mut engine, mut wl)| {
            engine.run(&mut wl, ticks);
            engine
        },
        |_, engine| (solver_state_fingerprint(engine), engine.metrics().clone()),
    );
    let mut workload = format!(
        "{geography}; request-heavy drift workload, {ticks} ticks; threads column = policy \
         index [0 off, 1 lce, 2 lcd, 3 probcache], all points single-threaded"
    );
    for (policy, m) in policies.iter().zip(&metrics) {
        let hits = m.cache.map_or(0, |c| c.hits);
        let (requests, latency) = (m.requests, m.average_latency_ms());
        workload.push_str(&format!("; {policy}: {hits}/{requests} hits, L_avg {latency:.4} ms"));
    }
    let case = BenchCase { name: "cache_drift".into(), workload, points, shared_fingerprint: true };
    (case, metrics)
}

/// The `dist_bulk` case: an outage storm on `problem`, run once per
/// delivery strategy with distribution recording on (the `threads` column
/// records the strategy index; every point runs single-threaded).
///
/// The storm takes down the `victims` busiest replica holders in waves of
/// two and restores them empty-handed; every failure forces a
/// re-replication round through the bulk-install path, so the case
/// measures exactly the machinery the strategies differ on. The fingerprint
/// is the solver-state digest: delivery planning is observational, so
/// Unicast and SteinerTree must land on the identical placement — equal
/// final-placement fingerprints *are* the standard determinism check.
/// Per-strategy distribution cost, delay-violation and audit figures are
/// appended to the workload string (seeded-deterministic, so the bench gate
/// compares them); the Steiner row must come in strictly below the Unicast
/// row on total cost. Returns the case and each strategy's last serve
/// metrics.
fn dist_bulk_case(
    cfg: &LedgerConfig,
    geography: &str,
    problem: Problem,
    victims: usize,
) -> (BenchCase, Vec<ServeMetrics>) {
    let m = problem.scenario.num_users();
    let initial: Vec<bool> = (0..m).map(|j| j % 5 == 0).collect();
    let strategies = [StrategyKind::Unicast, StrategyKind::Steiner];

    let (points, metrics) = sweep(
        cfg.samples,
        Axis::Param(&[0, 1]),
        // The initial solve (and its recorded install round) is a one-off
        // per deployment; each timed sample clones the prototype and pays
        // only the storm's re-replication rounds.
        |ix| {
            let config = EngineConfig {
                checkpoint_interval: 0,
                // Arms the per-round distribution audit; the periodic full
                // audit never fires inside the storm's small event budget.
                audit_every: u64::MAX,
                dist: DistConfig {
                    strategy: strategies[ix],
                    record: true,
                    ..DistConfig::default()
                },
                ..EngineConfig::default()
            };
            let proto = Engine::new(problem.clone(), config, initial.clone());
            let storm = outage_storm(&proto, victims);
            (proto, storm)
        },
        |(proto, _)| proto.clone(),
        |(_, storm), mut engine| {
            for event in storm {
                engine.apply(event);
            }
            engine
        },
        |_, engine| (solver_state_fingerprint(engine), engine.metrics().clone()),
    );
    let mut workload = format!(
        "{geography}; outage storm over the {victims} busiest replica holders (waves of 2, down \
         then restore); threads column = strategy index [0 unicast, 1 steiner], all points \
         single-threaded"
    );
    for (strategy, m) in strategies.iter().zip(&metrics) {
        let d = m.dist.unwrap_or_default();
        workload.push_str(&format!(
            "; {strategy}: {} rounds, {} replicas, cost {:.3} ms, {} delay violations, {} audit \
             violations",
            d.bulk_installs,
            d.replicas_installed,
            d.dist_cost_ms,
            d.delay_violations,
            m.audit_violations,
        ));
    }
    let case = BenchCase { name: "dist_bulk".into(), workload, points, shared_fingerprint: true };
    (case, metrics)
}

/// Down-then-restore events for the `victims` servers holding the most
/// replicas (ties by id), in waves of two.
fn outage_storm(engine: &Engine, victims: usize) -> Vec<Event> {
    let mut load: Vec<(usize, ServerId)> = engine
        .problem()
        .scenario
        .server_ids()
        .map(|s| (engine.placement().data_on(s).count(), s))
        .collect();
    load.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.index().cmp(&b.1.index())));
    let victims: Vec<ServerId> = load.into_iter().take(victims).map(|(_, s)| s).collect();
    let mut storm = Vec::with_capacity(2 * victims.len());
    for wave in victims.chunks(2) {
        storm.extend(wave.iter().map(|&server| Event::ServerDown { server }));
        storm.extend(wave.iter().map(|&server| Event::ServerRestore { server }));
    }
    storm
}

/// FNV digest over the engine state the caching layer must never perturb:
/// the ingest-invariant state (bitwise positions, activity flags, coverage
/// adjacency) plus the solver-side allocation and placement profiles. Every
/// caching policy must land on the digest the cache-off run produces — the
/// ledger's observed proof that cached replicas stay out of the game.
fn solver_state_fingerprint(engine: &Engine) -> u64 {
    let mut fp = Fingerprint::new();
    fp.absorb(ingest_state_fingerprint(engine));
    absorb_allocation(&mut fp, engine.allocation());
    for server in engine.problem().scenario.server_ids() {
        for data in engine.placement().data_on(server) {
            fp.absorb(server.index() as u64);
            fp.absorb(data.index() as u64);
        }
    }
    fp.digest()
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

    /// A small-scale stand-in for a full-scale serve case's problem.
    fn small_problem(seed: u64, n: usize, m: usize, k: usize) -> (Problem, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let scenario = SyntheticEua::default().sample(n, m, k, &mut rng);
        (Problem::standard(scenario, &mut rng), rng)
    }

    /// The shard_scaling case at small scale: every sample agrees, the
    /// K = 1 point carries the fingerprint of the monolithic engine's serve
    /// CSV, and at every K > 1 users cross cuts while the event and fault
    /// rows stay the monolithic run's.
    #[test]
    fn shard_scaling_serves_through_the_router() {
        let (problem, _) = small_problem(5, 14, 60, 4);
        let cfg = LedgerConfig { samples: 2, threads: vec![1], seed: 5 };
        let (case, kept) = shard_scaling_case(&cfg, "14/60/4", &problem, 50, &[1, 2, 3, 4]);
        assert!(case.deterministic(), "a shard count's samples diverged: {case:x?}");

        let mut wl = WorkloadGenerator::new(WorkloadConfig::default(), 4, cfg.seed);
        let initial = wl.initial_active(problem.scenario.num_users());
        let mut mono = Engine::new(problem, EngineConfig::default(), initial);
        mono.run(&mut wl, 50);
        let mut fp = Fingerprint::new();
        fp.absorb_bytes(mono.metrics().to_csv().as_bytes());
        assert_eq!(case.points[0].fingerprint, fp.digest(), "K = 1 diverged from the engine");

        let rows = |m: &ServeMetrics| {
            [
                m.ticks,
                m.events,
                m.arrivals,
                m.departures,
                m.moves,
                m.requests,
                m.link_faults,
                m.server_outages,
                m.jam_events,
                m.restorations,
            ]
        };
        for (k, (metrics, handoffs)) in [1, 2, 3, 4].into_iter().zip(&kept).skip(1) {
            assert!(*handoffs > 0, "K = {k}: no user crossed a cut");
            assert_eq!(rows(metrics), rows(mono.metrics()), "K = {k}");
        }
    }

    /// The batch_ingestion case at small scale: every group-commit size
    /// lands on the same ingest-state fingerprint (the full-scale ledger
    /// case observes the same equality at 2000 servers), and the
    /// whole-stream batch strictly coalesces repairs.
    #[test]
    fn batch_ingestion_fingerprints_are_batch_size_invariant() {
        let (problem, rng) = small_problem(11, 10, 40, 3);
        let (case, metrics) =
            batch_ingestion_case(&tiny(), "10/40/3", problem, rng, 48, &[1, 7, 48]);
        assert!(
            case.deterministic(),
            "ingest-state digests diverged across batch sizes: {case:x?}"
        );
        let repairs: Vec<u64> = metrics.iter().map(|m| m.repairs).collect();
        assert!(
            repairs[2] < repairs[0],
            "whole-stream batching must coalesce repairs ({repairs:?})"
        );
    }

    /// The cache_drift case at small scale: every caching policy lands on
    /// the cache-off solver-state fingerprint (the full-scale ledger case
    /// observes the same equality at 2000 servers), and at least one cached
    /// policy actually serves traffic from its store.
    #[test]
    fn cache_drift_fingerprints_are_policy_invariant() {
        let (problem, _) = small_problem(23, 12, 60, 4);
        let (case, metrics) = cache_drift_case(&tiny(), "12/60/4", problem, 40);
        assert!(case.deterministic(), "solver-state digests diverged across policies: {case:x?}");
        let hits: Vec<u64> = metrics.iter().map(|m| m.cache.map_or(0, |c| c.hits)).collect();
        assert_eq!(hits[0], 0, "cache-off must record no cache traffic");
        assert!(hits.iter().skip(1).any(|&h| h > 0), "no caching policy recorded a hit ({hits:?})");
    }

    /// The dist_bulk case at small scale: both delivery strategies land on
    /// the same solver-state fingerprint (the full-scale ledger case
    /// observes the same equality at 2000 servers), every recorded round
    /// audits clean, and the Steiner trees come in strictly below the
    /// unicast per-destination plans on total distribution cost.
    #[test]
    fn dist_bulk_steiner_is_cheaper_and_placement_invariant() {
        let (problem, _) = small_problem(29, 12, 60, 4);
        let (case, metrics) = dist_bulk_case(&tiny(), "12/60/4", problem, 3);
        assert!(case.deterministic(), "solver-state digests diverged across strategies: {case:x?}");
        let mut costs = Vec::new();
        for (strategy, m) in ["unicast", "steiner"].into_iter().zip(&metrics) {
            let d = m.dist.unwrap_or_default();
            assert!(d.bulk_installs >= 1, "{strategy}: no bulk round was recorded");
            assert!(d.replicas_installed > 0, "{strategy}: no replica installs were recorded");
            assert_eq!(m.audit_violations, 0, "{strategy}: distribution audit flagged violations");
            costs.push(d.dist_cost_ms);
        }
        assert!(
            costs[1] < costs[0],
            "Steiner trees must beat unicast on total distribution cost ({costs:?})"
        );
    }

    /// A result that changes between repeated samples at one point fails
    /// the determinism gate even though every point agrees on its first
    /// sample.
    #[test]
    fn sweep_flags_a_result_that_changes_between_samples() {
        let calls = std::cell::Cell::new(0u64);
        let (points, last) = sweep(
            3,
            Axis::Param(&[0, 1]),
            |_| calls.set(0),
            |_| (),
            |_, ()| {
                calls.set(calls.get() + 1);
                calls.get()
            },
            |_, &n| (n, n),
        );
        assert_eq!(last, vec![3, 3], "each point's last result is returned");
        let case = BenchCase {
            name: "drift".into(),
            workload: "w".into(),
            points,
            shared_fingerprint: true,
        };
        assert!(case.points.iter().all(|p| p.fingerprint == 1 && !p.samples_agree));
        assert!(!case.deterministic());
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
                shared_fingerprint: true,
                points: vec![ThreadPoint {
                    threads: 1,
                    samples_ms: vec![1.25, 2.5],
                    fingerprint: 0xdead_beef,
                    samples_agree: true,
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
        let (problem, _) = small_problem(cfg.seed, 20, 120, 3);
        let case = thread_sweep(
            &cfg,
            "iddeg_small",
            "20/120/3",
            || IddeG::default().solve(&problem),
            |s| metrics_fingerprint(&problem, s),
        );
        assert!(case.deterministic(), "thread sweep changed the equilibrium");
        assert_eq!(case.points.len(), 2);
        assert!(case.points.iter().all(|p| p.samples_ms.len() == 2));
        assert!(case.points.iter().all(|p| p.median_ms() > 0.0));
    }
}
