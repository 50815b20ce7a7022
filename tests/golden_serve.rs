//! Golden serve fingerprints for the one ingestion path at `batch == 1`.
//!
//! Every event — churn, request or fault — goes through `Engine::apply_batch`
//! and its single dirty-set builder. These runs pin the builder's two
//! admission rules against serve CSVs recorded when per-event serving was
//! a separate hand-written path, so each run breaks under one wrong rule:
//!
//! * a monolithic churn serve pins the churn neighbourhood itself (the
//!   seeds' vacated and current covering servers);
//! * a two-shard serve with cut-crossing handoffs pins that churn flushes
//!   admit *allocated* users only — shard engines hold active users that
//!   only foreign servers cover, so they stay unallocated;
//! * a dense `rand:` fault storm pins that fault repairs also admit
//!   *unallocated* users covered near the fault.
//!
//! Three further runs reproduce `idde serve` invocations whose CSVs are
//! committed under `ci/golden/` (the `cache` and `dist` legs of
//! `ci/scenarios.sh` `cmp` against them). They pin the rows no run above
//! reaches: the `cache_*` and `dist_*` counter blocks, and how those
//! optional blocks merge across shards.
//!
//! A last run is a read-only two-shard serve: drifting requests only, an
//! LCE cache, Steiner installs and a fault storm with server outages. No
//! user moves, arrives or departs, so every halo mirror is re-installed at
//! the position it already holds, tick after tick; it pins that a halo
//! refresh of unmoved mirrors leaves every shard's state as it was.
//!
//! A fingerprint is the FNV-1a hash of the whole metrics CSV. If a change
//! alters one on purpose, the new value must be justified in review.

use idde::dist::{DistConfig, StrategyKind};
use idde::prelude::*;

fn sampled_problem(seed: u64, servers: usize, users: usize, data: usize) -> Problem {
    let mut rng = idde::seeded_rng(seed);
    let scenario = SyntheticEua::default().sample(servers, users, data, &mut rng);
    Problem::standard(scenario, &mut rng)
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn workload(problem: &Problem, seed: u64) -> (WorkloadGenerator, Vec<bool>) {
    let mut workload =
        WorkloadGenerator::new(WorkloadConfig::default(), problem.scenario.num_data(), seed);
    let initial = workload.initial_active(problem.scenario.num_users());
    (workload, initial)
}

fn assert_fingerprint(name: &str, csv: &str, expected: u64) {
    assert!(csv.contains("\naudit_violations,0\n"), "{name}: audit violations\n{csv}");
    let actual = fnv1a(csv.as_bytes());
    assert_eq!(actual, expected, "{name}: serve CSV fingerprint {actual:#018x} moved\n{csv}");
}

#[test]
fn monolithic_churn_serve_matches_its_golden_csv() {
    let problem = sampled_problem(7, 20, 100, 5);
    let (mut workload, initial) = workload(&problem, 7);
    let config = EngineConfig { audit_every: 50, ..Default::default() };
    let mut engine = Engine::new(problem, config, initial);
    engine.run(&mut workload, 100);
    assert_fingerprint("monolithic churn", &engine.metrics().to_csv(), 0x12b4_b616_867a_af18);
}

#[test]
fn two_shard_handoff_serve_matches_its_golden_csv() {
    let problem = sampled_problem(7, 20, 100, 5);
    let (mut workload, initial) = workload(&problem, 7);
    let config = EngineConfig { audit_every: 50, ..Default::default() };
    let mut router = ShardRouter::new(problem, config, 2, initial).unwrap();
    router.run(&mut workload, 100);
    assert!(router.handoffs() > 0, "the run must cross the shard cut");
    assert_eq!(router.cross_audit_stats().2, 0, "cross-shard audit violations");
    assert_fingerprint("two-shard handoffs", &router.metrics().to_csv(), 0x12a7_6c27_7788_0514);
}

#[test]
fn fault_storm_serve_matches_its_golden_csv() {
    let problem = sampled_problem(5, 40, 200, 8);
    let (mut workload, initial) = workload(&problem, 5);
    let config = EngineConfig { audit_every: 50, ..Default::default() };
    let mut engine = Engine::new(problem, config, initial);
    let mut plan = FaultSpec::parse("rand:11:12:8:4@80+20")
        .and_then(|spec| spec.compile(engine.base_graph()))
        .unwrap();
    engine.run_sources(&mut [&mut plan, &mut workload], 120);
    let csv = engine.metrics().to_csv();
    assert!(csv.contains("\nserver_outages,8\n"), "the storm must fire\n{csv}");
    assert_fingerprint("fault storm", &csv, 0x6a32_3c0b_5fbe_c7a2);
}

/// The problem `idde serve --servers N --users M --data K --seed S` builds
/// (default density and network seed).
fn cli_problem(seed: u64, servers: usize, users: usize, data: usize) -> Problem {
    let scenario =
        SyntheticEua::default().sample(servers, users, data, &mut idde::seeded_rng(seed));
    Problem::standard(scenario, &mut idde::seeded_rng(1))
}

/// `idde serve` over `problem` with `config`, optionally sharded and under
/// a `--chaos` spec, ending with the CLI's final audit; returns its CSV.
fn cli_serve(
    problem: Problem,
    config: EngineConfig,
    workload: WorkloadConfig,
    seed: u64,
    ticks: u64,
    shards: Option<usize>,
    chaos: Option<&str>,
) -> String {
    let mut workload = WorkloadGenerator::new(workload, problem.scenario.num_data(), seed);
    let initial = workload.initial_active(problem.scenario.num_users());
    let mut plan = chaos.map(|spec| {
        FaultSpec::parse(spec).and_then(|s| s.compile(problem.topology.graph())).unwrap()
    });
    match shards {
        None => {
            let mut engine = Engine::new(problem, config, initial);
            match plan.as_mut() {
                Some(plan) => engine.run_sources(&mut [plan, &mut workload], ticks),
                None => engine.run(&mut workload, ticks),
            }
            engine.run_audit();
            engine.metrics().to_csv()
        }
        Some(k) => {
            let mut router = ShardRouter::new(problem, config, k, initial).unwrap();
            match plan.as_mut() {
                Some(plan) => router.run_sources(&mut [plan, &mut workload], ticks),
                None => router.run(&mut workload, ticks),
            }
            router.run_audit();
            assert_eq!(router.cross_audit_stats().2, 0, "cross-shard audit violations");
            router.metrics().to_csv()
        }
    }
}

fn steiner() -> DistConfig {
    DistConfig { strategy: StrategyKind::Steiner, record: true, ..DistConfig::default() }
}

/// `ci/golden/serve_cache.csv`: `serve --servers 20 --users 100 --data 6
/// --seed 7 --ticks 150 --audit 50 --cache probcache --workload drift`.
#[test]
fn probcache_drift_serve_matches_its_golden_csv() {
    let config = EngineConfig {
        audit_every: 50,
        cache: CacheConfig { policy: PolicyKind::ProbCache, seed: 7 },
        ..Default::default()
    };
    let workload = WorkloadConfig { drift: DriftProfile::drifting(), ..WorkloadConfig::default() };
    let csv = cli_serve(cli_problem(7, 20, 100, 6), config, workload, 7, 150, None, None);
    assert!(!csv.contains("\ncache_hits,0\n"), "the cache must carry traffic\n{csv}");
    assert_fingerprint("probcache drift", &csv, 0xd31d_400a_02e6_4e5c);
}

/// `ci/golden/serve_dist.csv`: `serve --servers 15 --users 70 --data 10
/// --seed 7 --ticks 200 --audit 25 --chaos 'rand:2022:2:1:1@120+50'
/// --delivery steiner`.
#[test]
fn steiner_chaos_serve_matches_its_golden_csv() {
    let config = EngineConfig { audit_every: 25, dist: steiner(), ..Default::default() };
    let chaos = Some("rand:2022:2:1:1@120+50");
    let csv = cli_serve(
        cli_problem(7, 15, 70, 10),
        config,
        WorkloadConfig::default(),
        7,
        200,
        None,
        chaos,
    );
    assert!(csv.contains("\ndist_delay_violations,0\n"), "delay guarantee broken\n{csv}");
    assert_fingerprint("steiner chaos", &csv, 0x2fe2_686c_1d6c_180a);
}

/// `ci/golden/serve_composed.csv`: `serve --servers 20 --users 100 --data 5
/// --seed 7 --ticks 100 --shards 3 --batch 8 --cache lce --delivery steiner
/// --audit 50 --chaos 'rand:2022:2:1:1@60+25'` — every layer at once, so
/// the cache and distribution counter blocks merge across three shards.
#[test]
fn composed_sharded_serve_matches_its_golden_csv() {
    let config = EngineConfig {
        audit_every: 50,
        batch: 8,
        cache: CacheConfig { policy: PolicyKind::Lce, seed: 7 },
        dist: steiner(),
        ..Default::default()
    };
    let chaos = Some("rand:2022:2:1:1@60+25");
    let csv = cli_serve(
        cli_problem(7, 20, 100, 5),
        config,
        WorkloadConfig::default(),
        7,
        100,
        Some(3),
        chaos,
    );
    assert!(csv.contains("\nserver_outages,1\n"), "the fault plan must fire\n{csv}");
    assert_fingerprint("composed sharded", &csv, 0xf4f5_4979_842c_5d05);
}

/// A read-only, drifting two-shard serve at `batch` 64 with an LCE cache,
/// Steiner installs and a `rand:` fault storm with server outages: no
/// user ever moves, so every halo mirror is re-installed unmoved.
#[test]
fn read_only_sharded_storm_serve_matches_its_golden_csv() {
    let config = EngineConfig {
        audit_every: 50,
        batch: 64,
        cache: CacheConfig { policy: PolicyKind::Lce, seed: 7 },
        dist: steiner(),
        ..Default::default()
    };
    let workload = WorkloadConfig {
        arrival_rate: 0.0,
        departure_rate: 0.0,
        move_probability: 0.0,
        request_rate: 40.0,
        drift: DriftProfile::drifting(),
        ..WorkloadConfig::default()
    };
    let chaos = Some("rand:2022:3:2:1@60+20");
    let csv = cli_serve(cli_problem(7, 30, 150, 6), config, workload, 7, 120, Some(2), chaos);
    for row in ["moves", "arrivals", "departures"] {
        assert!(csv.contains(&format!("\n{row},0\n")), "the run must be read-only\n{csv}");
    }
    assert!(csv.contains("\nserver_outages,2\n"), "the storm must down servers\n{csv}");
    assert!(!csv.contains("\ncache_hits,0\n"), "the cache must carry traffic\n{csv}");
    assert_fingerprint("read-only sharded storm", &csv, 0xfb97_8709_9940_de8f);
}
