//! User mobility and data migration — the paper's stated future work
//! (§6: *"we will investigate the dynamics of user movements and data
//! migrations in IDDE scenarios"*), built on the same primitives.
//!
//! The extension models time as epochs. Between epochs users move
//! ([`RandomWaypoint`]); within an epoch the vendor re-formulates its IDDE
//! strategy. Re-solving from scratch ("cold") throws away two things the
//! system already paid for:
//!
//! * the previous allocation profile — most users still sit inside their
//!   old server's coverage, so their decisions remain feasible and nearly
//!   optimal;
//! * the previous delivery profile — replicas are *physically present* on
//!   servers; placing a replica that is already there costs nothing, while
//!   each genuinely new replica must be migrated over the edge network.
//!
//! [`MobileSolver`] therefore warm-starts Phase #1 from the still-feasible
//! part of the old profile, optionally evicts replicas that no longer help
//! anyone, and warm-starts Phase #2 from the surviving placement. The
//! [`EpochReport`] accounts the migration traffic (MB of *new* replicas)
//! and the game work, which the `mobility` example compares against the
//! cold re-solve.

use idde_model::{Allocation, CoverageMap, MegaBytes, Placement, Scenario};
use idde_radio::InterferenceField;
use rand::Rng;

use crate::delivery::GreedyDelivery;
use crate::game::IddeUGame;
use crate::problem::Problem;
use crate::strategy::Strategy;

/// A bounded random-waypoint-style mobility step: every user moves by a
/// uniformly random offset of at most `max_step_m` metres per axis, clamped
/// to the scenario area.
#[derive(Clone, Copy, Debug)]
pub struct RandomWaypoint {
    /// Maximum per-axis displacement per epoch, metres.
    pub max_step_m: f64,
    /// Fraction of users that move in a given epoch (the rest stay put).
    pub move_probability: f64,
}

impl Default for RandomWaypoint {
    fn default() -> Self {
        Self { max_step_m: 80.0, move_probability: 0.5 }
    }
}

impl RandomWaypoint {
    /// Produces the next epoch's scenario: same servers, data and requests,
    /// moved users, recomputed coverage. Returns the number of users that
    /// moved.
    pub fn step(&self, scenario: &Scenario, rng: &mut impl Rng) -> (Scenario, usize) {
        let mut users = scenario.users.clone();
        let mut moved = 0usize;
        for user in &mut users {
            if !rng.gen_bool(self.move_probability) {
                continue;
            }
            let dx = rng.gen_range(-self.max_step_m..=self.max_step_m);
            let dy = rng.gen_range(-self.max_step_m..=self.max_step_m);
            user.position = scenario
                .area
                .clamp(idde_model::Point::new(user.position.x + dx, user.position.y + dy));
            moved += 1;
        }
        let coverage = CoverageMap::compute(&scenario.servers, &users);
        let next = Scenario {
            area: scenario.area,
            servers: scenario.servers.clone(),
            users,
            data: scenario.data.clone(),
            requests: scenario.requests.clone(),
            coverage,
        };
        debug_assert!(next.validate().is_ok());
        (next, moved)
    }
}

/// Per-epoch accounting of an incremental re-solve.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochReport {
    /// Users whose previous decision was no longer feasible (left coverage)
    /// or who changed decision during re-equilibration.
    pub reallocated_users: usize,
    /// Replicas newly placed this epoch (these must be migrated).
    pub new_replicas: usize,
    /// Replicas evicted because no request benefits from them any more.
    pub evicted_replicas: usize,
    /// Migration traffic: total size of the newly placed replicas.
    pub migrated: MegaBytes,
    /// Best-response moves Phase #1 needed to re-equilibrate.
    pub game_moves: usize,
    /// Passes Phase #1 needed.
    pub game_passes: usize,
}

/// The incremental IDDE solver for mobile scenarios.
#[derive(Clone, Copy, Debug, Default)]
pub struct MobileSolver {
    /// The underlying game engine configuration.
    pub game: crate::game::GameConfig,
    /// Phase #2 configuration.
    pub delivery: crate::delivery::DeliveryConfig,
    /// Whether to evict replicas that stopped reducing any request's
    /// latency before re-running the greedy (frees storage for the new
    /// demand geometry at zero latency cost).
    pub evict_useless: bool,
}

impl MobileSolver {
    /// Re-formulates the strategy for `problem`, warm-starting from
    /// `previous` when given. With `previous = None` this is exactly
    /// Algorithm 1.
    pub fn resolve(
        &self,
        problem: &Problem,
        previous: Option<&Strategy>,
    ) -> (Strategy, EpochReport) {
        let scenario = &problem.scenario;
        let mut report = EpochReport::default();

        // --- Phase #1 warm start: keep still-feasible decisions. ---
        let mut warm = Allocation::unallocated(scenario.num_users());
        if let Some(prev) = previous {
            for (user, decision) in prev.allocation.iter() {
                if let Some((server, channel)) = decision {
                    let feasible = scenario.coverage.covers(server, user)
                        && channel.index() < scenario.servers[server.index()].num_channels as usize;
                    if feasible {
                        warm.set(user, Some((server, channel)));
                    }
                }
            }
        }
        let field = InterferenceField::from_allocation(&problem.radio, scenario, &warm);
        let outcome = IddeUGame::new(self.game).run_from(field);
        report.game_moves = outcome.moves;
        report.game_passes = outcome.passes;
        let allocation = outcome.field.into_allocation();
        if let Some(prev) = previous {
            report.reallocated_users = scenario
                .user_ids()
                .filter(|&u| allocation.decision(u) != prev.allocation.decision(u))
                .count();
        } else {
            report.reallocated_users = allocation.num_allocated();
        }

        // --- Phase #2 warm start: carry surviving replicas, evict dead ones. ---
        let mut carried = match previous {
            Some(prev) => prev.placement.clone(),
            None => Placement::empty(scenario.num_servers(), scenario.num_data()),
        };
        if self.evict_useless && previous.is_some() {
            report.evicted_replicas =
                crate::delivery::evict_useless_replicas(problem, &allocation, &mut carried);
        }
        let delivery =
            GreedyDelivery::new(self.delivery).run_from(problem, &allocation, Some(&carried));
        report.new_replicas = delivery.iterations;
        let migrated: f64 = scenario
            .server_ids()
            .flat_map(|s| delivery.placement.data_on(s).map(move |d| (s, d)))
            .filter(|&(s, d)| !carried.stores(s, d))
            .map(|(_, d)| scenario.data[d.index()].size.value())
            .sum();
        // An empty f64 sum is -0.0; normalise for clean reporting.
        report.migrated = MegaBytes(if migrated == 0.0 { 0.0 } else { migrated });
        (Strategy::new(allocation, delivery.placement), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::testkit;
    use idde_radio::{RadioEnvironment, RadioParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem(seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Problem::standard(testkit::fig2_example(), &mut rng)
    }

    fn rebuild(problem: &Problem, scenario: Scenario) -> Problem {
        let radio = RadioEnvironment::new(&scenario, RadioParams::paper());
        Problem::new(scenario, radio, problem.topology.clone())
    }

    #[test]
    fn waypoint_step_preserves_everything_but_positions() {
        let p = problem(1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (next, moved) = RandomWaypoint::default().step(&p.scenario, &mut rng);
        assert!(moved > 0, "with p=0.5 over 9 users someone moves");
        assert_eq!(next.num_users(), p.scenario.num_users());
        assert_eq!(next.servers, p.scenario.servers);
        assert_eq!(next.requests, p.scenario.requests);
        assert!(next.validate().is_ok());
        let changed = next
            .users
            .iter()
            .zip(&p.scenario.users)
            .filter(|(a, b)| a.position != b.position)
            .count();
        assert_eq!(changed, moved);
    }

    #[test]
    fn cold_resolve_equals_iddeg() {
        let p = problem(3);
        let (strategy, report) = MobileSolver::default().resolve(&p, None);
        let reference = crate::iddeg::IddeG::default().solve(&p);
        assert_eq!(strategy, reference);
        assert_eq!(report.reallocated_users, p.scenario.num_users());
    }

    #[test]
    fn warm_resolve_on_unchanged_scenario_is_stable() {
        let p = problem(4);
        let (first, _) = MobileSolver::default().resolve(&p, None);
        let (second, report) = MobileSolver::default().resolve(&p, Some(&first));
        // Nothing moved: the equilibrium still stands, nothing migrates.
        assert_eq!(report.reallocated_users, 0);
        assert_eq!(report.migrated.value(), 0.0);
        assert_eq!(second.placement, first.placement);
    }

    #[test]
    fn warm_resolve_after_movement_is_feasible_and_cheaper_than_cold() {
        let p = problem(5);
        let (mut strategy, _) = MobileSolver::default().resolve(&p, None);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut current = p;
        let mut total_migrated = 0.0;
        for _ in 0..5 {
            let (scenario, _) = RandomWaypoint::default().step(&current.scenario, &mut rng);
            current = rebuild(&current, scenario);
            let (next, report) = MobileSolver { evict_useless: true, ..Default::default() }
                .resolve(&current, Some(&strategy));
            assert!(current.is_feasible(&next));
            total_migrated += report.migrated.value();
            strategy = next;
        }
        // Warm migration never re-ships the whole catalogue every epoch.
        let catalogue: f64 = current.scenario.data.iter().map(|d| d.size.value()).sum();
        let full_reload = 5.0 * catalogue * current.scenario.num_servers() as f64;
        assert!(
            total_migrated < full_reload,
            "migrated {total_migrated} MB ≥ pathological full reload {full_reload} MB"
        );
    }

    #[test]
    fn eviction_only_removes_harmless_replicas() {
        let p = problem(7);
        let (strategy, _) = MobileSolver::default().resolve(&p, None);
        let before = p.evaluate(&strategy);
        let mut placement = strategy.placement.clone();
        let evicted =
            crate::delivery::evict_useless_replicas(&p, &strategy.allocation, &mut placement);
        let after = p.evaluate(&Strategy::new(strategy.allocation.clone(), placement));
        assert!(
            (after.average_delivery_latency.value() - before.average_delivery_latency.value())
                .abs()
                < 1e-9,
            "eviction must not change the achieved latency"
        );
        // The greedy already avoids useless placements, so little or
        // nothing should be evicted on a fresh solve.
        assert!(evicted <= strategy.placement.num_placements());
    }
}
