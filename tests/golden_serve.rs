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
//! A fingerprint is the FNV-1a hash of the whole metrics CSV. If a change
//! alters one on purpose, the new value must be justified in review.

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
    assert_fingerprint("monolithic churn", &engine.metrics().to_csv(), 0x7623_0315_8270_7f6c);
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
    assert_fingerprint("two-shard handoffs", &router.metrics().to_csv(), 0x0776_a090_e932_98e1);
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
    assert_fingerprint("fault storm", &csv, 0x1b49_06b4_524a_f4dc);
}
