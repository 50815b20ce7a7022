//! Machine-checkable versions of the paper's §3 theory:
//!
//! * Theorem 3 — IDDE-U restricted to the proof's uniform-gain regime is a
//!   potential game: improving unilateral moves raise the potential.
//! * Theorem 4 — best-response dynamics terminate after finitely many
//!   moves, within the derived bound.
//! * Theorem 5 — the price of anarchy of the achieved equilibrium lies in
//!   `[R_min/R_max, 1]` against the exhaustive optimum.
//! * Theorems 6/7 — the greedy delivery profile's latency reduction is at
//!   least `(e−1)/2e` of the optimal reduction.

use idde::core::{congestion_benefit, congestion_potential, BenefitModel, GameConfig, IddeUGame};
use idde::prelude::*;
use idde::solver::ExhaustiveSolver;
use idde_radio::InterferenceField;
use rand::Rng;

fn tiny_problem(seed: u64) -> Problem {
    let mut rng = idde::seeded_rng(seed);
    Problem::standard(idde::model::testkit::tiny_overlap(), &mut rng)
}

fn small_random_problem(seed: u64) -> Problem {
    let mut rng = idde::seeded_rng(seed);
    let scenario = SyntheticEua {
        num_servers: 6,
        num_users: 12,
        width_m: 700.0,
        height_m: 500.0,
        ..Default::default()
    }
    .sample(4, 8, 2, &mut rng);
    Problem::standard(scenario, &mut rng)
}

#[test]
fn theorem3_improving_moves_raise_the_potential() {
    // Random walk over profiles: whenever a user's congestion benefit
    // improves by a move, the potential must strictly increase; whenever it
    // worsens, the potential must strictly decrease.
    for seed in 0..10u64 {
        let problem = small_random_problem(seed);
        let mut rng = idde::seeded_rng(1_000 + seed);
        let mut field = InterferenceField::new(&problem.radio, &problem.scenario);
        let mut checked = 0;
        for _ in 0..300 {
            let user = UserId(rng.gen_range(0..problem.scenario.num_users() as u32));
            let servers = problem.scenario.coverage.servers_of(user);
            if servers.is_empty() {
                continue;
            }
            let server = servers[rng.gen_range(0..servers.len())];
            let channels = problem.scenario.servers[server.index()].num_channels;
            let channel = idde::model::ChannelIndex(rng.gen_range(0..channels));
            if field.allocation().decision(user) == Some((server, channel)) {
                continue;
            }
            let was_allocated = field.allocation().decision(user).is_some();

            let benefit_before = congestion_benefit(&field, user);
            let potential_before = congestion_potential(&field);
            field.allocate(user, server, channel);
            let benefit_after = congestion_benefit(&field, user);
            let potential_after = congestion_potential(&field);

            if !was_allocated {
                assert!(
                    potential_after > potential_before,
                    "allocating a user must raise the potential"
                );
            } else if benefit_after > benefit_before + 1e-12 {
                assert!(
                    potential_after > potential_before,
                    "seed {seed}: improving move must raise π ({potential_before} → {potential_after})"
                );
            } else if benefit_after < benefit_before - 1e-12 {
                assert!(
                    potential_after < potential_before,
                    "seed {seed}: worsening move must lower π"
                );
            }
            checked += 1;
        }
        assert!(checked > 100, "the walk must actually exercise moves");
    }
}

#[test]
fn theorem4_dynamics_terminate_within_the_bound() {
    for seed in 0..5u64 {
        let problem = small_random_problem(100 + seed);
        let game =
            IddeUGame::new(GameConfig { benefit: BenefitModel::Congestion, ..Default::default() });
        let outcome = game.run(&problem);
        assert!(outcome.converged, "seed {seed}: congestion dynamics must converge");

        // Theorem 4's bound with Q_j := p_j (the uniform-gain reading):
        // Y ≤ M(Q²max − Q²min)/(2·Qmin) + M (the +M covers the initial
        // allocations, which the paper folds into its T_j term).
        let m = problem.scenario.num_users() as f64;
        let powers: Vec<f64> = problem.scenario.users.iter().map(|u| u.power.value()).collect();
        let qmax = powers.iter().copied().fold(0.0, f64::max);
        let qmin = powers.iter().copied().fold(f64::INFINITY, f64::min);
        let bound = m * (qmax * qmax - qmin * qmin) / (2.0 * qmin) + m;
        assert!(
            (outcome.moves as f64) <= bound.max(m),
            "seed {seed}: {} moves exceed the Theorem 4 bound {bound}",
            outcome.moves
        );
    }
}

#[test]
fn theorem5_poa_bounds_hold_against_the_exhaustive_optimum() {
    for seed in [0u64, 1, 2] {
        let problem = tiny_problem(seed);
        let outcome = IddeUGame::default().run(&problem);
        assert!(outcome.converged);
        let achieved = outcome.field.average_rate().value();
        let (_, optimal_total) =
            ExhaustiveSolver::default().best_allocation(&problem).expect("tiny space");
        let optimal = optimal_total / problem.scenario.num_users() as f64;

        // ρ ≤ 1: no equilibrium beats the optimum.
        assert!(achieved <= optimal + 1e-6, "seed {seed}: {achieved} > optimal {optimal}");
        // ρ ≥ R_min/R_max: with uniform caps this lower bound is the ratio
        // of the worst equilibrium user rate to the cap.
        let rmax = problem.scenario.users.iter().map(|u| u.max_rate.value()).fold(0.0, f64::max);
        let rmin = problem
            .scenario
            .user_ids()
            .map(|u| outcome.field.rate(u).value())
            .fold(f64::INFINITY, f64::min);
        let rho = achieved / optimal;
        assert!(
            rho >= (rmin / rmax) - 1e-9,
            "seed {seed}: ρ = {rho} below the Theorem 5 floor {}",
            rmin / rmax
        );
    }
}

#[test]
fn theorem6_greedy_reduction_is_within_the_bound_of_optimal() {
    let bound = (std::f64::consts::E - 1.0) / (2.0 * std::f64::consts::E);
    for seed in 0..6u64 {
        let problem = tiny_problem(200 + seed);
        let allocation = IddeUGame::default().run(&problem).field.into_allocation();
        let greedy = idde::core::GreedyDelivery::default().run(&problem, &allocation);
        let (_, optimal_total) =
            ExhaustiveSolver::default().best_placement(&problem, &allocation).expect("tiny space");
        let phi = greedy.initial_total_latency.value();
        let greedy_reduction = greedy.latency_reduction().value();
        let optimal_reduction = phi - optimal_total;
        assert!(optimal_reduction >= greedy_reduction - 1e-9, "optimal cannot lose to greedy");
        assert!(
            greedy_reduction + 1e-9 >= bound * optimal_reduction,
            "seed {seed}: greedy ΔL {greedy_reduction} < (e−1)/2e × optimal ΔL {optimal_reduction}"
        );
    }
}

#[test]
fn theorem7_latency_never_exceeds_the_cloud_reference() {
    // The coarse reading of Theorem 7: L(σ) ≤ φ always, and the achieved
    // latency respects the bound built from s_max and ΣA_i.
    for seed in 0..4u64 {
        let problem = small_random_problem(300 + seed);
        let allocation = IddeUGame::default().run(&problem).field.into_allocation();
        let greedy = idde::core::GreedyDelivery::default().run(&problem, &allocation);
        assert!(greedy.final_total_latency.value() <= greedy.initial_total_latency.value() + 1e-9);
    }
}

mod certification {
    use super::*;
    use idde::audit::Auditor;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Every converged IDDE-U outcome carries its claimed certificate: no
        /// player holds a unilateral deviation the game's own acceptance
        /// discipline would commit — under either benefit model.
        #[test]
        fn converged_outcomes_pass_nash_certification(seed in 0u64..5_000) {
            let problem = small_random_problem(seed);
            let benefit = if seed % 2 == 0 {
                BenefitModel::PaperEq12
            } else {
                BenefitModel::Congestion
            };
            let game = IddeUGame::new(GameConfig { benefit, ..GameConfig::default() });
            let outcome = game.run(&problem);
            prop_assert!(outcome.converged, "seed {seed}: game hit the pass cap");
            let cert = Auditor.certify_equilibrium(&game, &outcome.field, None);
            prop_assert!(cert.is_clean(), "seed {seed}: {cert}");
            // A deviation check and a best-response re-derivation per player.
            prop_assert_eq!(cert.checks, 2 * problem.scenario.num_users() as u64);
        }
    }
}
