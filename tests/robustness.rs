//! Robustness tests across the model's pluggable axes: both game
//! acceptance rules, heterogeneous servers and open-coverage sampling.

use idde::core::{AcceptanceRule, GameConfig, IddeG, IddeUGame, Problem};
use idde::eua::{SampleConfig, SyntheticEua};
use idde::model::testkit;
use idde::prelude::IddeGStrategy;
use idde_baselines::SolveStrategy as _;

fn sampled_scenario(seed: u64) -> idde::model::Scenario {
    let mut rng = idde::seeded_rng(seed);
    SyntheticEua::default().sample(15, 80, 4, &mut rng)
}

#[test]
fn benefit_only_rule_converges_on_small_instances() {
    // The paper-literal acceptance rule works fine when a pure equilibrium
    // exists — e.g. on the Fig. 2 example.
    let mut rng = idde::seeded_rng(5);
    let problem = Problem::standard(testkit::fig2_example(), &mut rng);
    let game = IddeUGame::new(GameConfig {
        acceptance: AcceptanceRule::BenefitOnly,
        max_passes: 5_000,
        ..Default::default()
    });
    let outcome = game.run(&problem);
    assert!(outcome.converged);
    assert!(idde::core::is_nash_equilibrium(&game, &outcome.field, 1e-9));
}

#[test]
fn guarded_and_unguarded_agree_when_no_cycles_exist() {
    // On fig2 both rules reach (possibly different) equilibria of similar
    // quality.
    let mut rng = idde::seeded_rng(6);
    let problem = Problem::standard(testkit::fig2_example(), &mut rng);
    let guarded = IddeUGame::default().run(&problem);
    let unguarded = IddeUGame::new(GameConfig {
        acceptance: AcceptanceRule::BenefitOnly,
        max_passes: 5_000,
        ..Default::default()
    })
    .run(&problem);
    assert!(guarded.converged && unguarded.converged);
    let a = guarded.field.average_rate().value();
    let b = unguarded.field.average_rate().value();
    assert!((a - b).abs() / b < 0.2, "equilibria should be of similar quality ({a} vs {b})");
}

#[test]
fn heterogeneous_servers_solve_end_to_end() {
    let mut rng = idde::seeded_rng(7);
    let population = SyntheticEua::default().generate(&mut rng);
    let mut cfg = SampleConfig::paper(12, 60, 3);
    cfg.channels_range = Some((1, 5));
    cfg.bandwidth_range_mbps = Some((50.0, 400.0));
    let scenario = cfg.sample(&population, &mut rng);
    let problem = Problem::standard(scenario, &mut rng);
    let report = IddeG::default().solve_with_report(&problem);
    assert!(report.game_converged);
    assert!(problem.is_feasible(&report.strategy));
    // Allocation must respect each server's own channel count.
    for (user, decision) in report.strategy.allocation.iter() {
        if let Some((server, channel)) = decision {
            assert!(
                (channel.index() as u16) < problem.scenario.servers[server.index()].num_channels,
                "user {user} sits on a channel its server does not expose"
            );
        }
    }
}

#[test]
fn open_coverage_users_fall_back_to_cloud() {
    let mut rng = idde::seeded_rng(8);
    let population = SyntheticEua::default().generate(&mut rng);
    let mut cfg = SampleConfig::paper(8, 120, 3);
    cfg.require_coverage = false;
    let scenario = cfg.sample(&population, &mut rng);
    let uncovered: Vec<_> = scenario.coverage.uncovered_users().collect();
    assert!(!uncovered.is_empty(), "8 of 125 sites must leave gaps");
    let problem = Problem::standard(scenario, &mut rng);
    let strategy = IddeGStrategy::default().solve_seeded(&problem, 1);
    let metrics = problem.evaluate(&strategy);
    assert_eq!(
        metrics.allocated_users,
        problem.scenario.num_users() - uncovered.len(),
        "exactly the covered users get allocated"
    );
    for user in uncovered {
        assert_eq!(strategy.allocation.decision(user), None);
        for &data in problem.scenario.requests.of_user(user) {
            let latency = problem.request_latency(&strategy, user, data);
            let cloud = problem.topology.cloud_latency(problem.scenario.data[data.index()].size);
            assert!((latency.value() - cloud.value()).abs() < 1e-9);
        }
    }
}

#[test]
fn fill_zero_benefit_mode_is_storage_feasible_end_to_end() {
    let scenario = sampled_scenario(9);
    let mut rng = idde::seeded_rng(10);
    let problem = Problem::standard(scenario, &mut rng);
    let solver = IddeG {
        delivery: idde::core::DeliveryConfig { fill_zero_benefit: true },
        ..Default::default()
    };
    let strategy = solver.solve(&problem);
    assert!(problem.is_feasible(&strategy));
    // Paper-literal mode packs storage much fuller.
    let lean = IddeG::default().solve(&problem);
    assert!(strategy.placement.num_placements() >= lean.placement.num_placements());
}
