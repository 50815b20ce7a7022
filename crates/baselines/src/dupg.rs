//! DUP-G: the game-theoretical caching baseline from \[33\].
//!
//! \[33\] jointly allocates data, users and power in multi-access edge
//! computing via a game that maximises users' data rates — but, as the
//! paper's related-work section stresses, *"the problem studied in \[33\]
//! ignores edge servers' ability to collaborate"*. We reproduce both
//! properties:
//!
//! * **allocation** — the same best-response machinery as IDDE-G, but with
//!   the per-server congestion benefit (`BenefitModel::Congestion`): \[33\]'s
//!   game reasons about the load on the chosen server's channels and not
//!   about the cross-server interference field, which is precisely the
//!   rate gap between DUP-G and IDDE-G;
//! * **delivery** — collaboration-blind caching: each server ranks items by
//!   the demand of *its own allocated users* and fills its storage locally;
//!   no replica is ever placed for a neighbour's benefit.

use idde_core::{BenefitModel, GameConfig, IddeUGame, Problem, Strategy};
use idde_model::{DataId, Placement, ServerId};

use crate::SolveStrategy;

/// The DUP-G baseline.
#[derive(Clone, Copy, Debug)]
pub struct DupG {
    /// Game configuration (defaults to the congestion benefit model of
    /// \[33\]; acceptance, pass cap and seed are IDDE-G's).
    pub game: GameConfig,
}

impl Default for DupG {
    fn default() -> Self {
        Self { game: GameConfig { benefit: BenefitModel::Congestion, ..Default::default() } }
    }
}

impl SolveStrategy for DupG {
    fn name(&self) -> &'static str {
        "DUP-G"
    }

    fn solve_seeded(&self, problem: &Problem, seed: u64) -> Strategy {
        let scenario = &problem.scenario;
        let mut cfg = self.game;
        cfg.seed = seed;
        let allocation = IddeUGame::new(cfg).run(problem).field.into_allocation();

        // Local-demand caching: demand[i][k] = requests for d_k among the
        // users allocated to v_i.
        let mut demand = vec![vec![0usize; scenario.num_data()]; scenario.num_servers()];
        for (user, data) in scenario.requests.pairs() {
            if let Some(server) = allocation.server_of(user) {
                demand[server.index()][data.index()] += 1;
            }
        }
        let mut placement = Placement::empty(scenario.num_servers(), scenario.num_data());
        for (i, local_demand) in demand.iter().enumerate() {
            let server = ServerId::from_index(i);
            let capacity = scenario.servers[i].storage.value();
            let mut order: Vec<usize> = (0..scenario.num_data()).collect();
            // Rank by local hit traffic per MB.
            order.sort_by(|&a, &b| {
                let da = local_demand[a] as f64 / scenario.data[a].size.value();
                let db = local_demand[b] as f64 / scenario.data[b].size.value();
                db.partial_cmp(&da).expect("densities are finite")
            });
            for k in order {
                if local_demand[k] == 0 {
                    break; // no local demand, no placement — [33] caches for its own users only
                }
                let size = scenario.data[k].size;
                if placement.used(server).value() + size.value() <= capacity + 1e-9 {
                    placement.place(server, DataId::from_index(k), size);
                }
            }
        }
        Strategy::new(allocation, placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::testkit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem(seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Problem::standard(testkit::fig2_example(), &mut rng)
    }

    #[test]
    fn produces_feasible_strategies() {
        let p = problem(1);
        let s = DupG::default().solve_seeded(&p, 0);
        assert!(p.is_feasible(&s));
        assert_eq!(s.allocation.num_allocated(), p.scenario.num_users());
    }

    #[test]
    fn never_caches_without_local_demand() {
        let p = problem(2);
        let s = DupG::default().solve_seeded(&p, 0);
        for server in p.scenario.server_ids() {
            for data in s.placement.data_on(server) {
                let locally_wanted = p
                    .scenario
                    .requests
                    .of_data(data)
                    .iter()
                    .any(|&u| s.allocation.server_of(u) == Some(server));
                assert!(
                    locally_wanted,
                    "server {server} cached {data} although none of its users wants it"
                );
            }
        }
    }

    #[test]
    fn rate_is_at_most_iddegs_on_average() {
        // The congestion game ignores cross-server interference, so across a
        // few seeds its average rate must not beat the full IDDE-G game.
        // Both sides are heuristics, so this holds statistically rather than
        // per-sample: on some scenario draws DUP-G lands within noise of (or
        // a hair above) IDDE-G. Allow a 0.1% relative margin so the test
        // still catches DUP-G *systematically* beating IDDE-G without being
        // brittle to the RNG stream behind the scenario sampler.
        use crate::{IddeGStrategy, SolveStrategy as _};
        let mut dup_total = 0.0;
        let mut idde_total = 0.0;
        for seed in 0..5u64 {
            let p = problem(seed);
            let dup = DupG::default().solve_seeded(&p, seed);
            let idde = IddeGStrategy::default().solve_seeded(&p, seed);
            dup_total += p.evaluate(&dup).average_data_rate.value();
            idde_total += p.evaluate(&idde).average_data_rate.value();
        }
        assert!(
            dup_total <= idde_total * 1.001,
            "DUP-G ({dup_total}) must not beat IDDE-G ({idde_total}) on average rate"
        );
    }

    #[test]
    fn is_reproducible_per_seed() {
        let p = problem(4);
        assert_eq!(DupG::default().solve_seeded(&p, 11), DupG::default().solve_seeded(&p, 11));
    }
}
