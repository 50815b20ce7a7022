//! Property-based tests over randomly generated instances: the invariants
//! that must hold for *every* scenario, allocation walk and placement run.

use idde::core::{GreedyDelivery, IddeUGame, Problem, Strategy as IddeStrategy};
use idde::net::{
    all_pairs_floyd_warshall, all_pairs_widest, all_pairs_widest_floyd_warshall, dijkstra_from_set,
    EdgeGraph, Link,
};
use idde::prelude::{
    Cdp, DupG, IddeGStrategy, MegaBytesPerSec, Saa, ServerId, SyntheticEua, UserId,
};
use idde_radio::InterferenceField;
use proptest::prelude::*;

/// Strategy for a small random IDDE problem; returns the seed so failures
/// shrink to a reproducible instance.
fn arb_problem() -> impl proptest::strategy::Strategy<Value = (u64, Problem)> {
    (0u64..5_000).prop_map(|seed| {
        let mut rng = idde::seeded_rng(seed);
        let gen = SyntheticEua {
            num_servers: 8,
            num_users: 20,
            width_m: 900.0,
            height_m: 700.0,
            ..Default::default()
        };
        let n = 3 + (seed % 5) as usize; // 3..=7 servers
        let m = 5 + (seed % 12) as usize; // 5..=16 users
        let k = 1 + (seed % 4) as usize; // 1..=4 data items
        let scenario = gen.sample(n, m, k, &mut rng);
        (seed, Problem::standard(scenario, &mut rng))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// A random walk of allocations/deallocations keeps the incremental
    /// interference field consistent with a from-scratch rebuild.
    #[test]
    fn field_stays_consistent_under_random_walks(
        (seed, problem) in arb_problem(),
        steps in proptest::collection::vec((0u32..64, 0u32..64, 0u32..8, proptest::bool::ANY), 1..60),
    ) {
        let mut field = InterferenceField::new(&problem.radio, &problem.scenario);
        for (uraw, sraw, xraw, dealloc) in steps {
            let user = UserId(uraw % problem.scenario.num_users() as u32);
            if dealloc {
                field.deallocate(user);
                continue;
            }
            let servers = problem.scenario.coverage.servers_of(user);
            if servers.is_empty() {
                continue;
            }
            let server = servers[(sraw as usize) % servers.len()];
            let channels = problem.scenario.servers[server.index()].num_channels as u32;
            field.allocate(user, server, idde::model::ChannelIndex((xraw % channels) as u16));
        }
        prop_assert!(field.consistency_check(), "seed {seed}");
        // Rates are finite, non-negative and capped.
        for u in problem.scenario.user_ids() {
            let r = field.rate(u).value();
            prop_assert!(r.is_finite() && r >= 0.0);
            prop_assert!(r <= problem.scenario.users[u.index()].max_rate.value() + 1e-9);
        }
    }

    /// A random allocate/deallocate walk produces exactly the state of a
    /// field rebuilt from scratch off the final profile: identical
    /// per-channel occupant sets and power sums, and a passing
    /// `consistency_check`. This is the invariant the serving engine's
    /// incremental repair leans on.
    #[test]
    fn random_walk_field_equals_rebuilt_field(
        (seed, problem) in arb_problem(),
        steps in proptest::collection::vec((0u32..64, 0u32..64, 0u32..8, proptest::bool::ANY), 1..80),
    ) {
        let mut field = InterferenceField::new(&problem.radio, &problem.scenario);
        for (uraw, sraw, xraw, dealloc) in steps {
            let user = UserId(uraw % problem.scenario.num_users() as u32);
            if dealloc {
                field.deallocate(user);
                continue;
            }
            let servers = problem.scenario.coverage.servers_of(user);
            if servers.is_empty() {
                continue;
            }
            let server = servers[(sraw as usize) % servers.len()];
            let channels = problem.scenario.servers[server.index()].num_channels as u32;
            field.allocate(user, server, idde::model::ChannelIndex((xraw % channels) as u16));
        }
        prop_assert!(field.consistency_check(), "seed {seed}");
        let rebuilt = InterferenceField::from_allocation(
            &problem.radio,
            &problem.scenario,
            field.allocation(),
        );
        for server in problem.scenario.server_ids() {
            for x in 0..problem.scenario.servers[server.index()].num_channels {
                let channel = idde::model::ChannelIndex(x);
                let mut walked: Vec<UserId> = field.occupants(server, channel).to_vec();
                let mut fresh: Vec<UserId> = rebuilt.occupants(server, channel).to_vec();
                walked.sort_unstable();
                fresh.sort_unstable();
                prop_assert_eq!(walked, fresh, "seed {} channel ({server}, {channel})", seed);
                let dp = field.channel_power(server, channel)
                    - rebuilt.channel_power(server, channel);
                prop_assert!(
                    dp.abs() < 1e-9,
                    "seed {seed}: power sum drifted by {dp} on ({server}, {channel})"
                );
            }
        }
    }

    /// Adding an occupant to any channel never increases another occupant's
    /// rate (interference monotonicity).
    #[test]
    fn rates_are_monotone_in_occupancy((seed, problem) in arb_problem()) {
        let scenario = &problem.scenario;
        let mut field = InterferenceField::new(&problem.radio, scenario);
        // Allocate the first half of the users round-robin.
        let half = scenario.num_users() / 2;
        for j in 0..half {
            let user = UserId::from_index(j);
            let servers = scenario.coverage.servers_of(user);
            if servers.is_empty() { continue; }
            let server = servers[j % servers.len()];
            let channels = scenario.servers[server.index()].num_channels as usize;
            field.allocate(user, server, idde::model::ChannelIndex((j % channels) as u16));
        }
        let before: Vec<f64> =
            scenario.user_ids().map(|u| field.rate(u).value()).collect();
        // Add one more user anywhere feasible.
        let newcomer = UserId::from_index(half.min(scenario.num_users() - 1));
        let servers = scenario.coverage.servers_of(newcomer);
        prop_assume!(!servers.is_empty());
        prop_assume!(field.allocation().decision(newcomer).is_none());
        field.allocate(newcomer, servers[0], idde::model::ChannelIndex(0));
        for u in scenario.user_ids() {
            if u == newcomer { continue; }
            prop_assert!(
                field.rate(u).value() <= before[u.index()] + 1e-9,
                "seed {seed}: user {u} gained rate from a newcomer"
            );
        }
    }

    /// The IDDE-U game always terminates, allocates every covered user, and
    /// the final profile respects the coverage constraint.
    #[test]
    fn game_always_terminates_feasibly((seed, problem) in arb_problem()) {
        let outcome = IddeUGame::default().run(&problem);
        prop_assert!(outcome.converged, "seed {seed}");
        let alloc = outcome.field.allocation();
        prop_assert!(alloc.respects_coverage(&problem.scenario));
        for u in problem.scenario.user_ids() {
            let covered = !problem.scenario.coverage.servers_of(u).is_empty();
            prop_assert_eq!(alloc.decision(u).is_some(), covered, "seed {}", seed);
        }
    }

    /// Greedy delivery: storage constraint always holds, the total latency
    /// never exceeds the all-cloud reference, and every placement is
    /// accounted in the evaluator.
    #[test]
    fn greedy_delivery_invariants((seed, problem) in arb_problem()) {
        let allocation = IddeUGame::default().run(&problem).field.into_allocation();
        let outcome = GreedyDelivery::default().run(&problem, &allocation);
        let strategy = IddeStrategy::new(allocation, outcome.placement.clone());
        prop_assert!(strategy.placement.respects_storage(&problem.scenario), "seed {seed}");
        prop_assert!(
            outcome.final_total_latency.value() <= outcome.initial_total_latency.value() + 1e-9
        );
        let evaluated = problem.total_latency(&strategy).value();
        prop_assert!(
            (evaluated - outcome.final_total_latency.value()).abs() < 1e-6,
            "engine accounting ({}) must match the evaluator ({evaluated})",
            outcome.final_total_latency.value()
        );
    }

    /// The spanning-forest widest paths equal the minimax Floyd–Warshall
    /// bit for bit, and single-seed additive Dijkstra (the Steiner metric
    /// closure) agrees with the additive Floyd–Warshall, on random graphs.
    #[test]
    fn shortest_paths_agree(
        n in 2usize..12,
        edges in proptest::collection::vec((0u32..12, 0u32..12, 2_000.0f64..6_000.0), 0..30),
    ) {
        let links: Vec<Link> = edges
            .into_iter()
            .filter(|&(a, b, _)| a as usize % n != b as usize % n)
            .map(|(a, b, speed)| Link {
                a: ServerId(a % n as u32),
                b: ServerId(b % n as u32),
                speed: MegaBytesPerSec(speed),
            })
            .collect();
        let graph = EdgeGraph::new(n, links);
        let w = all_pairs_widest(&graph);
        let wf = all_pairs_widest_floyd_warshall(&graph);
        let f = all_pairs_floyd_warshall(&graph);
        for i in 0..n {
            let d = dijkstra_from_set(&graph, &[(ServerId(i as u32), 0.0)]).0;
            for j in 0..n {
                prop_assert_eq!(w[i][j].to_bits(), wf[i][j].to_bits(), "widest ({}, {})", i, j);
                let (a, b) = (d[j], f[i][j]);
                if a.is_infinite() || b.is_infinite() {
                    prop_assert!(a.is_infinite() && b.is_infinite());
                } else {
                    prop_assert!((a - b).abs() < 1e-9, "({i},{j}): {a} vs {b}");
                }
            }
        }
    }

    /// The spatial-grid coverage index agrees with the brute-force oracle
    /// after any mix of random radii, user walks (including excursions far
    /// outside the original bounding box) and disable/enable churn.
    #[test]
    fn grid_coverage_matches_brute_force_under_churn(
        server_sites in proptest::collection::vec(
            (0.0f64..2_000.0, 0.0f64..1_500.0, 40.0f64..500.0), 1..20),
        user_sites in proptest::collection::vec((0.0f64..2_000.0, 0.0f64..1_500.0), 1..30),
        steps in proptest::collection::vec(
            (0usize..64, -900.0f64..900.0, -900.0f64..900.0, 0usize..64, proptest::bool::ANY),
            0..50,
        ),
    ) {
        use idde::model::{CoverageMap, EdgeServer, MegaBytes, Point, User, Watts};
        let servers: Vec<EdgeServer> = server_sites
            .iter()
            .enumerate()
            .map(|(i, &(x, y, r))| EdgeServer {
                id: ServerId::from_index(i),
                position: Point::new(x, y),
                coverage_radius_m: r,
                num_channels: 3,
                channel_bandwidth: MegaBytesPerSec(200.0),
                storage: MegaBytes(100.0),
            })
            .collect();
        let mut users: Vec<User> = user_sites
            .iter()
            .enumerate()
            .map(|(j, &(x, y))| {
                User::new(UserId::from_index(j), Point::new(x, y), Watts(1.0), MegaBytesPerSec(200.0))
            })
            .collect();
        let mut grid = CoverageMap::compute(&servers, &users);
        let mut brute = CoverageMap::compute_brute_force(&servers, &users);
        prop_assert!(grid.has_spatial_index(), "grid path must actually be indexed");
        prop_assert!(!brute.has_spatial_index(), "oracle must stay brute-force");
        prop_assert_eq!(&grid, &brute);
        for (pick, dx, dy, spick, toggle) in steps {
            if toggle {
                let i = spick % servers.len();
                let sid = servers[i].id;
                if grid.is_enabled(sid) {
                    grid.disable_server(sid);
                    brute.disable_server(sid);
                } else {
                    grid.enable_server(&servers[i], &users);
                    brute.enable_server(&servers[i], &users);
                }
            } else {
                let j = pick % users.len();
                let p = users[j].position;
                users[j].position = Point::new(p.x + dx, p.y + dy);
                let user = users[j].clone();
                grid.update_user(&servers, &user);
                brute.update_user(&servers, &user);
            }
            prop_assert_eq!(&grid, &brute);
        }
        // The end state also matches a from-scratch compute with the same
        // disable set replayed (the documented rebuild recipe).
        let mut fresh = CoverageMap::compute(&servers, &users);
        for sid in grid.disabled_servers().collect::<Vec<_>>() {
            fresh.disable_server(sid);
        }
        prop_assert_eq!(&grid, &fresh);
    }

    /// Evaluated metrics are always physically sane.
    #[test]
    fn metrics_are_sane_for_every_panelist((seed, problem) in arb_problem()) {
        for strategy in [
            Box::new(IddeGStrategy::default()) as Box<dyn idde_baselines::SolveStrategy>,
            Box::new(Saa::default()),
            Box::new(Cdp),
            Box::new(DupG::default()),
        ] {
            let s = strategy.solve_seeded(&problem, seed);
            prop_assert!(problem.is_feasible(&s), "{} seed {seed}", strategy.name());
            let m = problem.evaluate(&s);
            prop_assert!(m.average_data_rate.value().is_finite());
            prop_assert!(m.average_data_rate.value() >= 0.0);
            prop_assert!(m.average_delivery_latency.value().is_finite());
            prop_assert!(m.average_delivery_latency.value() >= 0.0);
            prop_assert!(m.allocated_users <= m.total_users);
            prop_assert!(m.cloud_served_requests <= m.total_requests);
            prop_assert!(m.locally_served_requests <= m.total_requests);
        }
    }
}
