//! CDP: the centralized data placement baseline from \[16\].
//!
//! \[16\] studies cache placement in Fog-RANs: a central controller knows the
//! global content popularity and fills every cache with the most popular
//! items. Users simply attach to the nearest base station. We reproduce
//! that scheme on the IDDE model:
//!
//! * **allocation** — nearest covering server; channels are assigned
//!   least-loaded-first (the only interference hygiene the scheme has);
//! * **delivery** — items ranked by global popularity × size-normalised
//!   cloud saving; every server independently fills its reserved storage
//!   from the top of the *same* global ranking.
//!
//! The scheme is collaboration-blind: replicating the head of the
//! popularity distribution everywhere wastes storage that IDDE-G spends on
//! diversifying replicas across the system, which is exactly the latency
//! gap the paper reports.

use idde_core::{Problem, Strategy};
use idde_model::{Allocation, ChannelIndex, DataId, Placement, ServerId};

use crate::SolveStrategy;

/// The CDP baseline. Stateless and deterministic.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cdp;

impl Cdp {
    /// Nearest-server allocation with least-loaded channel assignment.
    fn nearest_allocation(problem: &Problem) -> Allocation {
        let scenario = &problem.scenario;
        let mut allocation = Allocation::unallocated(scenario.num_users());
        // Channel load counters, indexed per server.
        let mut load: Vec<Vec<usize>> =
            scenario.servers.iter().map(|s| vec![0usize; s.num_channels as usize]).collect();
        for user in scenario.user_ids() {
            let position = scenario.users[user.index()].position;
            let nearest = scenario.coverage.servers_of(user).iter().copied().min_by(|&a, &b| {
                let da = scenario.servers[a.index()].position.distance_sq(position);
                let db = scenario.servers[b.index()].position.distance_sq(position);
                da.partial_cmp(&db).expect("distances are finite")
            });
            let Some(server) = nearest else { continue };
            let channels = &mut load[server.index()];
            let (channel, _) = channels
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| c)
                .expect("servers expose at least one channel");
            channels[channel] += 1;
            allocation.set(user, Some((server, ChannelIndex::from_index(channel))));
        }
        allocation
    }

    /// Global popularity ranking: request count × cloud saving per MB.
    fn popularity_order(problem: &Problem) -> Vec<usize> {
        let scenario = &problem.scenario;
        let score = |k: usize| {
            let count = scenario.requests.of_data(DataId::from_index(k)).len() as f64;
            let saving = problem.topology.cloud_latency(scenario.data[k].size).value();
            count * saving / scenario.data[k].size.value()
        };
        let mut order: Vec<usize> = (0..scenario.num_data()).collect();
        order.sort_by(|&a, &b| score(b).partial_cmp(&score(a)).expect("scores are finite"));
        order
    }
}

impl SolveStrategy for Cdp {
    fn name(&self) -> &'static str {
        "CDP"
    }

    fn solve_seeded(&self, problem: &Problem, _seed: u64) -> Strategy {
        let scenario = &problem.scenario;
        let allocation = Self::nearest_allocation(problem);
        let order = Self::popularity_order(problem);

        let mut placement = Placement::empty(scenario.num_servers(), scenario.num_data());
        for i in 0..scenario.num_servers() {
            let server = ServerId::from_index(i);
            let capacity = scenario.servers[i].storage.value();
            for &k in &order {
                if scenario.requests.of_data(DataId::from_index(k)).is_empty() {
                    continue; // nobody wants it anywhere
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
    use idde_model::{testkit, UserId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem(seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Problem::standard(testkit::fig2_example(), &mut rng)
    }

    #[test]
    fn allocates_every_covered_user_to_its_nearest_server() {
        let p = problem(1);
        let s = Cdp.solve_seeded(&p, 0);
        assert!(p.is_feasible(&s));
        for user in p.scenario.user_ids() {
            let (server, _) = s.allocation.decision(user).expect("fig2 covers everyone");
            let position = p.scenario.users[user.index()].position;
            for &other in p.scenario.coverage.servers_of(user) {
                assert!(
                    p.scenario.servers[server.index()].position.distance_sq(position)
                        <= p.scenario.servers[other.index()].position.distance_sq(position) + 1e-9,
                    "user {user} not at its nearest server"
                );
            }
        }
    }

    #[test]
    fn balances_channels_on_each_server() {
        let p = problem(2);
        let s = Cdp.solve_seeded(&p, 0);
        for server in p.scenario.server_ids() {
            let counts: Vec<usize> = p.scenario.servers[server.index()]
                .channels()
                .map(|x| s.allocation.users_on_channel(server, x).count())
                .collect();
            let max = counts.iter().copied().max().unwrap();
            let min = counts.iter().copied().min().unwrap();
            assert!(max - min <= 1, "server {server}: {counts:?}");
        }
    }

    #[test]
    fn replicates_popular_data_everywhere() {
        let p = problem(3);
        let s = Cdp.solve_seeded(&p, 0);
        // fig2: every server has 120 MB = two 60 MB slots; the two hottest
        // items (d0, d1 with 3 requests each) are replicated on every
        // server — CDP's signature storage waste.
        for server in p.scenario.server_ids() {
            assert_eq!(s.placement.data_on(server).count(), 2, "server {server}");
        }
        assert_eq!(s.placement.servers_with(DataId(0)).count(), 4);
        assert_eq!(s.placement.servers_with(DataId(1)).count(), 4);
    }

    #[test]
    fn unrequested_data_is_never_placed() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let p = Problem::standard(testkit::degenerate(), &mut rng);
        let s = Cdp.solve_seeded(&p, 0);
        assert_eq!(s.placement.servers_with(DataId(1)).count(), 0);
        assert!(p.is_feasible(&s));
        // The covered user is allocated, the isolated one is not.
        assert_eq!(s.allocation.num_allocated(), 1);
        assert_eq!(s.allocation.decision(UserId(1)), None);
    }

    #[test]
    fn is_deterministic() {
        let p = problem(5);
        assert_eq!(Cdp.solve_seeded(&p, 1), Cdp.solve_seeded(&p, 99));
    }
}
