//! Determinism under parallelism: the contract documented in
//! `crates/par` and ARCHITECTURE.md — *same seed + any worker count ⇒
//! identical equilibrium, identical placement, byte-identical serve CSV* —
//! checked end to end.
//!
//! All sweeping tests funnel through [`with_threads`], which serialises
//! access to the global worker-count override (the test harness runs tests
//! concurrently; the override is process-wide).

use idde::core::Problem;
use idde::prelude::*;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serialises tests that mutate the process-wide worker-count override.
fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        // A panic under a previous override must not poison the suite.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs `f` once per worker count in `sweep`, restoring the ambient
/// default afterwards, and returns the per-count results.
fn with_threads<R>(sweep: &[usize], mut f: impl FnMut() -> R) -> Vec<R> {
    let _guard = threads_lock();
    let results = sweep
        .iter()
        .map(|&t| {
            idde::par::set_threads(t);
            f()
        })
        .collect();
    idde::par::set_threads(0);
    results
}

fn sampled_problem(seed: u64) -> Problem {
    let mut rng = idde::seeded_rng(seed);
    let scenario = SyntheticEua::default().sample(15, 80, 4, &mut rng);
    Problem::standard(scenario, &mut rng)
}

#[test]
fn serve_csv_and_final_strategy_are_thread_count_invariant() {
    // The contract on the full online path: engine default config,
    // churning workload, worker counts 1/2/8.
    let runs = with_threads(&[1, 2, 8], || {
        let problem = sampled_problem(42);
        let mut workload = WorkloadGenerator::new(WorkloadConfig::default(), 4, 42);
        let initial = workload.initial_active(problem.scenario.num_users());
        let mut engine = Engine::new(problem, EngineConfig::default(), initial);
        engine.run(&mut workload, 25);
        (engine.metrics().to_csv(), engine.strategy())
    });
    let (csv_1, strategy_1) = &runs[0];
    for (t, (csv, strategy)) in [1usize, 2, 8].into_iter().zip(&runs) {
        assert_eq!(csv, csv_1, "serve CSV changed between 1 and {t} workers");
        assert_eq!(
            strategy.allocation, strategy_1.allocation,
            "final allocation changed between 1 and {t} workers"
        );
        assert_eq!(
            strategy.placement, strategy_1.placement,
            "final placement changed between 1 and {t} workers"
        );
    }
}

#[test]
fn chaos_serve_csv_is_thread_count_invariant() {
    // Same contract as the healthy serve, with a seeded fault schedule —
    // outages, link cuts and jamming — injected into the event stream: the
    // degradation and repair paths must be as thread-count invariant as the
    // steady state. Same seed + same spec ⇒ byte-identical CSV at 1/2/8
    // workers.
    let runs = with_threads(&[1, 2, 8], || {
        let problem = sampled_problem(42);
        let mut plan = idde::chaos::FaultSpec::parse("rand:2022:2:1:1@15+8")
            .unwrap()
            .compile(problem.topology.graph())
            .unwrap();
        let mut workload = WorkloadGenerator::new(WorkloadConfig::default(), 4, 42);
        let initial = workload.initial_active(problem.scenario.num_users());
        let config = EngineConfig { audit_every: 50, ..EngineConfig::default() };
        let mut engine = Engine::new(problem, config, initial);
        engine.run_sources(&mut [&mut plan, &mut workload], 25);
        assert_eq!(engine.metrics().audit_violations, 0, "chaos run must stay audit-clean");
        assert!(engine.metrics().server_outages > 0, "the fault plan must actually fire");
        (engine.metrics().to_csv(), engine.strategy())
    });
    let (csv_1, strategy_1) = &runs[0];
    for (t, (csv, strategy)) in [1usize, 2, 8].into_iter().zip(&runs) {
        assert_eq!(csv, csv_1, "chaos serve CSV changed between 1 and {t} workers");
        assert_eq!(
            strategy.allocation, strategy_1.allocation,
            "final allocation changed between 1 and {t} workers"
        );
        assert_eq!(
            strategy.placement, strategy_1.placement,
            "final placement changed between 1 and {t} workers"
        );
    }
}

#[test]
fn cached_drift_serve_is_thread_count_invariant() {
    // The caching tentpole's determinism contract: same seed + any worker
    // count ⇒ identical eviction sequence, identical cache store and
    // byte-identical serve CSV — for every caching policy, under the
    // non-stationary workload that actually exercises admission/eviction.
    for policy in [PolicyKind::Lce, PolicyKind::Lcd, PolicyKind::ProbCache] {
        let runs = with_threads(&[1, 2, 8], || {
            let problem = sampled_problem(42);
            let cfg = WorkloadConfig { drift: DriftProfile::drifting(), ..Default::default() };
            let mut workload = WorkloadGenerator::new(cfg, 4, 42);
            let initial = workload.initial_active(problem.scenario.num_users());
            let config = EngineConfig {
                audit_every: 50,
                cache: CacheConfig { policy, ..CacheConfig::default() },
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(problem, config, initial);
            engine.run(&mut workload, 60);
            assert_eq!(engine.metrics().audit_violations, 0, "{policy}: audit violation");
            let cache = engine.cache().expect("cache enabled");
            (engine.metrics().to_csv(), cache.eviction_log().to_vec(), cache.store().clone())
        });
        let (csv_1, log_1, store_1) = &runs[0];
        for (t, (csv, log, store)) in [1usize, 2, 8].into_iter().zip(&runs) {
            assert_eq!(csv, csv_1, "{policy}: serve CSV changed between 1 and {t} workers");
            assert_eq!(log, log_1, "{policy}: eviction sequence changed at {t} workers");
            assert_eq!(store, store_1, "{policy}: cache store changed at {t} workers");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Property form of the cache determinism contract across random
    /// seeds: for an arbitrary seed and policy, a 1-worker and a 4-worker
    /// cached drift serve produce the same eviction sequence and CSV.
    #[test]
    fn cache_policy_determinism_holds_for_arbitrary_seeds(
        seed in 0u64..10_000,
        policy_ix in 0usize..3,
    ) {
        let policy = [PolicyKind::Lce, PolicyKind::Lcd, PolicyKind::ProbCache][policy_ix];
        let runs = with_threads(&[1, 4], || {
            let problem = sampled_problem(seed);
            let cfg = WorkloadConfig { drift: DriftProfile::drifting(), ..Default::default() };
            let mut workload = WorkloadGenerator::new(cfg, 4, seed);
            let initial = workload.initial_active(problem.scenario.num_users());
            let config = EngineConfig {
                cache: CacheConfig { policy, ..CacheConfig::default() },
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(problem, config, initial);
            engine.run(&mut workload, 30);
            let cache = engine.cache().expect("cache enabled");
            (engine.metrics().to_csv(), cache.eviction_log().to_vec())
        });
        prop_assert_eq!(&runs[0], &runs[1], "seed {}: {} diverged across workers", seed, policy);
    }
}

#[test]
fn offline_solve_is_thread_count_invariant() {
    // Phase #1 + Phase #2 from scratch, swept across worker counts: the
    // equilibrium and its metrics must not move a single bit.
    let runs = with_threads(&[1, 2, 3, 8], || {
        let problem = sampled_problem(7);
        let strategy = idde::core::IddeG::default().solve(&problem);
        let metrics = problem.evaluate(&strategy);
        (
            strategy,
            metrics.average_data_rate.value().to_bits(),
            metrics.average_delivery_latency.value().to_bits(),
        )
    });
    for run in &runs[1..] {
        assert_eq!(run.0, runs[0].0, "strategy differs across worker counts");
        assert_eq!(run.1, runs[0].1, "rate differs at the bit level");
        assert_eq!(run.2, runs[0].2, "latency differs at the bit level");
    }
}
