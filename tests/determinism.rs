//! Reproducibility guarantees: everything EXPERIMENTS.md claims is
//! bit-reproducible must actually be bit-reproducible.

use idde::prelude::*;

fn sampled_problem(seed: u64) -> Problem {
    let mut rng = idde::seeded_rng(seed);
    let scenario = SyntheticEua::default().sample(20, 100, 4, &mut rng);
    Problem::standard(scenario, &mut rng)
}

#[test]
fn every_deterministic_approach_reproduces_bit_identically() {
    let p1 = sampled_problem(42);
    let p2 = sampled_problem(42);
    let approaches: Vec<Box<dyn idde_baselines::SolveStrategy>> = vec![
        Box::new(IddeGStrategy::default()),
        Box::new(Saa::default()),
        Box::new(Cdp),
        Box::new(DupG::default()),
        // IDDE-IP under *node* limits is deterministic too (wall-clock
        // budgets are not).
        Box::new(IddeIp::with_node_limits(5_000, 5_000)),
    ];
    for approach in approaches {
        let a = approach.solve_seeded(&p1, 7);
        let b = approach.solve_seeded(&p2, 7);
        assert_eq!(a, b, "{} is not reproducible", approach.name());
        let ma = p1.evaluate(&a);
        let mb = p2.evaluate(&b);
        assert_eq!(
            ma.average_data_rate.value().to_bits(),
            mb.average_data_rate.value().to_bits(),
            "{} rate differs at the bit level",
            approach.name()
        );
        assert_eq!(
            ma.average_delivery_latency.value().to_bits(),
            mb.average_delivery_latency.value().to_bits(),
            "{} latency differs at the bit level",
            approach.name()
        );
    }
}

#[test]
fn different_strategy_seeds_change_randomised_approaches_only() {
    let p = sampled_problem(43);
    // Deterministic approaches ignore the seed entirely.
    assert_eq!(Cdp.solve_seeded(&p, 1), Cdp.solve_seeded(&p, 2));
    // SAA's random allocation must react to it.
    assert_ne!(
        Saa::default().solve_seeded(&p, 1).allocation,
        Saa::default().solve_seeded(&p, 2).allocation
    );
}

#[test]
fn scenario_io_round_trips_sampled_float_precision() {
    // The plain-text format writes floats with Rust's shortest-round-trip
    // Display; a sampled scenario full of irrational-looking coordinates
    // must survive a save/load cycle exactly.
    let mut rng = idde::seeded_rng(44);
    let scenario = SyntheticEua::default().sample(12, 60, 3, &mut rng);
    let text = idde::model::io::to_string(&scenario);
    let parsed = idde::model::io::from_str(&text).expect("round trip parses");
    assert_eq!(parsed.servers, scenario.servers);
    assert_eq!(parsed.users, scenario.users);
    assert_eq!(parsed.data, scenario.data);
    assert_eq!(parsed.requests, scenario.requests);
    // And the *solutions* on both copies agree bit-for-bit.
    let mut rng_a = idde::seeded_rng(45);
    let mut rng_b = idde::seeded_rng(45);
    let pa = Problem::with_density(scenario, 1.0, &mut rng_a);
    let pb = Problem::with_density(parsed, 1.0, &mut rng_b);
    let sa = IddeGStrategy::default().solve_seeded(&pa, 0);
    let sb = IddeGStrategy::default().solve_seeded(&pb, 0);
    assert_eq!(sa, sb);
}

#[test]
fn svg_rendering_is_stable_across_runs() {
    let mut rng = idde::seeded_rng(46);
    let scenario = SyntheticEua::default().sample(8, 30, 2, &mut rng);
    let problem = Problem::standard(scenario, &mut rng);
    let strategy = IddeGStrategy::default().solve_seeded(&problem, 0);
    let opts = idde::model::svg::SvgOptions::default();
    let a = idde::model::svg::render(
        &problem.scenario,
        Some(&strategy.allocation),
        Some(&strategy.placement),
        &opts,
    );
    let b = idde::model::svg::render(
        &problem.scenario,
        Some(&strategy.allocation),
        Some(&strategy.placement),
        &opts,
    );
    assert_eq!(a, b);
    assert!(a.contains("<line "), "strategy render should include spokes");
}

#[test]
fn serving_engine_metrics_csv_is_byte_identical() {
    let run = || {
        let mut rng = idde::seeded_rng(42);
        let scenario = SyntheticEua::default().sample(12, 50, 3, &mut rng);
        let problem = Problem::standard(scenario, &mut rng);
        let config = idde::engine::EngineConfig { checkpoint_interval: 10, ..Default::default() };
        let mut workload = WorkloadGenerator::new(WorkloadConfig::default(), 3, 42);
        let initial = workload.initial_active(problem.scenario.num_users());
        let mut engine = Engine::new(problem, config, initial);
        engine.run(&mut workload, 30);
        engine.metrics().to_csv()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same (seed, workload config) must produce identical CSV bytes");
    assert!(a.contains("ticks,30\n"));
    assert!(a.contains("checkpoints,3\n"));
}

#[test]
fn fig1_and_table2_artifacts_are_deterministic() {
    use idde::sim::figures::{fig1_latency_test, Fig1Config};
    let a = fig1_latency_test(&Fig1Config::default());
    let b = fig1_latency_test(&Fig1Config::default());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.summary, y.summary);
    }
    let sets_a = idde::sim::table2_sets();
    let sets_b = idde::sim::table2_sets();
    assert_eq!(sets_a, sets_b);
}
