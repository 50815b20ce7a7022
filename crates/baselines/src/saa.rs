//! SAA: the sample-average-approximation baseline from \[21\].
//!
//! \[21\] places services in pervasive edge networks *distributedly*: each
//! edge server decides for itself, from the demand visible inside its own
//! coverage, which items maximise its storage utility (a mix of latency
//! saving and user coverage), estimating the utility by averaging over
//! sampled demand realisations. Nothing in the scheme is
//! interference-aware, so users are attached to channels uniformly at
//! random among their feasible decisions — which is exactly why SAA posts
//! the worst average data rate in the paper's experiments while remaining
//! competitive on latency (the per-server demand-driven placements happen
//! to diversify replicas across the system).

use idde_core::{Problem, Strategy};
use idde_model::{Allocation, ChannelIndex, DataId, Placement, UserId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::SolveStrategy;

/// The SAA baseline.
#[derive(Clone, Copy, Debug)]
pub struct Saa {
    /// Number of sampled demand realisations per server.
    pub samples: usize,
    /// Probability that a visible request materialises in a sample.
    pub demand_probability: f64,
}

impl Default for Saa {
    fn default() -> Self {
        Self { samples: 30, demand_probability: 0.5 }
    }
}

impl Saa {
    /// Random feasible allocation: each covered user picks uniformly among
    /// its `V_j × C_i` decisions.
    fn random_allocation(problem: &Problem, rng: &mut ChaCha8Rng) -> Allocation {
        let scenario = &problem.scenario;
        let mut allocation = Allocation::unallocated(scenario.num_users());
        for user in scenario.user_ids() {
            let candidates = scenario.coverage.servers_of(user);
            if candidates.is_empty() {
                continue;
            }
            let server = candidates[rng.gen_range(0..candidates.len())];
            let channels = scenario.servers[server.index()].num_channels;
            let channel = ChannelIndex(rng.gen_range(0..channels));
            allocation.set(user, Some((server, channel)));
        }
        allocation
    }

    /// Per-server SAA placement: estimate each item's expected local
    /// utility over sampled demand realisations, then fill the reserved
    /// storage greedily by utility density.
    fn saa_placement(&self, problem: &Problem, rng: &mut ChaCha8Rng) -> Placement {
        let scenario = &problem.scenario;
        let mut placement = Placement::empty(scenario.num_servers(), scenario.num_data());

        for server in scenario.server_ids() {
            // Demand visible from this server's coverage: requests of the
            // users it covers, attributed locally regardless of allocation
            // ([21] has no allocation notion).
            let mut local_requests: Vec<(UserId, DataId)> = Vec::new();
            for &user in scenario.coverage.users_of(server) {
                for &data in scenario.requests.of_user(user) {
                    local_requests.push((user, data));
                }
            }
            if local_requests.is_empty() {
                continue;
            }
            // Sample-average utility per item: expected number of
            // materialised local requests, weighted by the cloud round trip
            // it would save (latency term) plus a coverage bonus per user.
            let mut utility = vec![0.0f64; scenario.num_data()];
            for _ in 0..self.samples {
                for &(_, data) in &local_requests {
                    if rng.gen_bool(self.demand_probability) {
                        let save = problem.topology.cloud_latency(scenario.data[data.index()].size);
                        utility[data.index()] += save.value() + 1.0;
                    }
                }
            }
            for u in &mut utility {
                *u /= self.samples as f64;
            }
            // Greedy fill by utility density.
            let mut order: Vec<usize> = (0..scenario.num_data()).collect();
            order.sort_by(|&a, &b| {
                let da = utility[a] / scenario.data[a].size.value();
                let db = utility[b] / scenario.data[b].size.value();
                db.partial_cmp(&da).expect("utilities are finite")
            });
            let capacity = scenario.servers[server.index()].storage.value();
            for k in order {
                if utility[k] <= 0.0 {
                    break;
                }
                let size = scenario.data[k].size;
                if placement.used(server).value() + size.value() <= capacity + 1e-9 {
                    placement.place(server, DataId::from_index(k), size);
                }
            }
        }
        placement
    }
}

impl SolveStrategy for Saa {
    fn name(&self) -> &'static str {
        "SAA"
    }

    fn solve_seeded(&self, problem: &Problem, seed: u64) -> Strategy {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let allocation = Self::random_allocation(problem, &mut rng);
        let placement = self.saa_placement(problem, &mut rng);
        Strategy::new(allocation, placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::testkit;
    use rand::SeedableRng;

    fn problem(seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Problem::standard(testkit::fig2_example(), &mut rng)
    }

    #[test]
    fn produces_feasible_strategies() {
        let p = problem(1);
        for seed in 0..5 {
            let s = Saa::default().solve_seeded(&p, seed);
            assert!(p.is_feasible(&s), "seed {seed}");
            // Every covered user is allocated (randomly, but allocated).
            assert_eq!(s.allocation.num_allocated(), p.scenario.num_users());
        }
    }

    #[test]
    fn stores_demanded_data_somewhere() {
        let p = problem(2);
        let s = Saa::default().solve_seeded(&p, 3);
        // d0 is the most requested item in fig2; with 120 MB per server and
        // 60 MB items, some server must have chosen it.
        assert!(s.placement.servers_with(DataId(0)).count() >= 1);
    }

    #[test]
    fn is_reproducible_per_seed() {
        let p = problem(3);
        let a = Saa::default().solve_seeded(&p, 42);
        let b = Saa::default().solve_seeded(&p, 42);
        assert_eq!(a, b);
        let c = Saa::default().solve_seeded(&p, 43);
        assert_ne!(a.allocation, c.allocation, "different seeds explore different allocations");
    }

    #[test]
    fn skips_servers_without_visible_demand() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let p = Problem::standard(testkit::degenerate(), &mut rng);
        let s = Saa::default().solve_seeded(&p, 1);
        // The only server has zero storage; nothing can be placed.
        assert_eq!(s.placement.num_placements(), 0);
        assert!(p.is_feasible(&s));
    }
}
