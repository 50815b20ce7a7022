//! A solvable IDDE instance and the shared strategy evaluator.

use std::sync::Arc;

use idde_model::{Milliseconds, Scenario, ServerId, UserId};
use idde_net::{generate_topology, Topology, TopologyConfig};
use idde_radio::{InterferenceField, RadioEnvironment, RadioParams};
use rand::Rng;

use crate::metrics::Metrics;
use crate::strategy::Strategy;

/// One complete, solvable IDDE problem instance: the scenario (entities +
/// requests + coverage), the wireless environment (gains + radio params) and
/// the edge network topology (links + cloud).
///
/// Every approach in this workspace — IDDE-G and all four baselines —
/// consumes a `Problem` and produces a [`Strategy`], which is then scored by
/// the *same* [`Problem::evaluate`] implementation of Eqs. 5 and 9, so the
/// comparison can never be skewed by diverging metric code.
#[derive(Clone, Debug)]
pub struct Problem {
    /// The entities, requests and coverage relation.
    pub scenario: Scenario,
    /// The pre-computed wireless environment.
    pub radio: RadioEnvironment,
    /// The edge network and cloud. Shared: clones of the problem (one per
    /// shard engine) read the one cost matrix, so a fault refills it once.
    pub topology: Arc<Topology>,
}

impl Problem {
    /// Assembles a problem from explicitly constructed parts.
    pub fn new(scenario: Scenario, radio: RadioEnvironment, topology: Topology) -> Self {
        assert_eq!(
            topology.graph().num_nodes(),
            scenario.num_servers(),
            "topology node count must match the scenario's server count"
        );
        Self { scenario, radio, topology: Arc::new(topology) }
    }

    /// Builds a problem with the paper's §4.2 defaults: power-law gains with
    /// `η = 1, loss = 3`, `ω = −174 dBm`, and a freshly sampled density-1.0
    /// topology with link speeds in `[2000, 6000]` MB/s and a 600 MB/s cloud.
    pub fn standard(scenario: Scenario, rng: &mut impl Rng) -> Self {
        Self::with_density(scenario, 1.0, rng)
    }

    /// Like [`Problem::standard`] but with an explicit network density
    /// (the Set #4 experiment parameter).
    pub fn with_density(scenario: Scenario, density: f64, rng: &mut impl Rng) -> Self {
        let radio = RadioEnvironment::new(&scenario, RadioParams::paper());
        let topology =
            generate_topology(scenario.num_servers(), &TopologyConfig::paper(density), rng);
        Self::new(scenario, radio, topology)
    }

    /// A fresh interference field over this problem's wireless environment.
    pub fn field(&self) -> InterferenceField<'_> {
        InterferenceField::new(&self.radio, &self.scenario)
    }

    /// The serving edge server of each user under a strategy's allocation
    /// (`None` = unallocated, i.e. cloud-only).
    fn serving_server(&self, strategy: &Strategy, user: UserId) -> Option<ServerId> {
        strategy.allocation.server_of(user)
    }

    /// The Eq. 8 delivery latency of one `(user, data)` request under a
    /// strategy. Unallocated users always retrieve from the cloud.
    pub fn request_latency(
        &self,
        strategy: &Strategy,
        user: UserId,
        data: idde_model::DataId,
    ) -> Milliseconds {
        let size = self.scenario.data[data.index()].size;
        match self.serving_server(strategy, user) {
            Some(target) => {
                self.topology.delivery_latency(&strategy.placement, data, size, target).0
            }
            None => self.topology.cloud_latency(size),
        }
    }

    /// Total delivery latency `L(σ)` over all requests (the quantity Phase
    /// #2's greedy reduces, and the numerator of Eq. 9).
    pub fn total_latency(&self, strategy: &Strategy) -> Milliseconds {
        self.scenario.requests.pairs().map(|(u, d)| self.request_latency(strategy, u, d)).sum()
    }

    /// The all-cloud total latency `φ` (every request served from the
    /// cloud) — the reference point of Theorem 6/7.
    pub fn all_cloud_latency(&self) -> Milliseconds {
        self.scenario
            .requests
            .pairs()
            .map(|(_, d)| self.topology.cloud_latency(self.scenario.data[d.index()].size))
            .sum()
    }

    /// Evaluates a strategy under the paper's two objectives: `R_ave`
    /// (Eq. 5, Objective #1) and `L_ave` (Eq. 9, Objective #2), plus
    /// auxiliary reporting statistics.
    pub fn evaluate(&self, strategy: &Strategy) -> Metrics {
        let field =
            InterferenceField::from_allocation(&self.radio, &self.scenario, &strategy.allocation);
        let average_data_rate = field.average_rate();

        let total_requests = self.scenario.requests.total_requests();
        let mut total_latency = 0.0;
        let mut cloud_served = 0usize;
        let mut local_hits = 0usize;
        for (u, d) in self.scenario.requests.pairs() {
            let size = self.scenario.data[d.index()].size;
            match self.serving_server(strategy, u) {
                Some(target) => {
                    let (lat, src) =
                        self.topology.delivery_latency(&strategy.placement, d, size, target);
                    total_latency += lat.value();
                    match src {
                        idde_net::DeliverySource::Cloud => cloud_served += 1,
                        idde_net::DeliverySource::Edge(origin) if origin == target => {
                            local_hits += 1
                        }
                        idde_net::DeliverySource::Edge(_) => {}
                    }
                }
                None => {
                    total_latency += self.topology.cloud_latency(size).value();
                    cloud_served += 1;
                }
            }
        }
        let average_delivery_latency = if total_requests == 0 {
            Milliseconds::ZERO
        } else {
            Milliseconds(total_latency / total_requests as f64)
        };
        Metrics {
            average_data_rate,
            average_delivery_latency,
            allocated_users: strategy.allocation.num_allocated(),
            total_users: self.scenario.num_users(),
            total_requests,
            cloud_served_requests: cloud_served,
            locally_served_requests: local_hits,
            placements: strategy.placement.num_placements(),
        }
    }

    /// Checks the feasibility of a strategy: coverage constraint (1) on `α`
    /// and storage constraint (6) on `σ`.
    pub fn is_feasible(&self, strategy: &Strategy) -> bool {
        strategy.allocation.respects_coverage(&self.scenario)
            && strategy.placement.respects_storage(&self.scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::testkit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem() -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        Problem::standard(testkit::fig2_example(), &mut rng)
    }

    #[test]
    fn empty_strategy_is_all_cloud() {
        let p = problem();
        let s = Strategy::empty(&p.scenario);
        assert!(p.is_feasible(&s));
        let m = p.evaluate(&s);
        assert_eq!(m.average_data_rate.value(), 0.0);
        assert_eq!(m.cloud_served_requests, m.total_requests);
        assert_eq!(m.placements, 0);
        // φ / #requests == L_ave for the empty strategy.
        let phi = p.all_cloud_latency().value();
        assert!((m.average_delivery_latency.value() - phi / m.total_requests as f64).abs() < 1e-9);
    }

    #[test]
    fn allocating_users_raises_rate() {
        let p = problem();
        let mut s = Strategy::empty(&p.scenario);
        // Allocate user 0 to its covering server's channel 0.
        let u = idde_model::UserId(0);
        let v = p.scenario.coverage.servers_of(u)[0];
        s.allocation.set(u, Some((v, idde_model::ChannelIndex(0))));
        assert!(p.is_feasible(&s));
        let m = p.evaluate(&s);
        assert!(m.average_data_rate.value() > 0.0);
        assert_eq!(m.allocated_users, 1);
    }

    #[test]
    fn local_placement_zeroes_request_latency() {
        let p = problem();
        let mut s = Strategy::empty(&p.scenario);
        let u = idde_model::UserId(0); // requests d0 in fig2
        let v = p.scenario.coverage.servers_of(u)[0];
        s.allocation.set(u, Some((v, idde_model::ChannelIndex(0))));
        let d = idde_model::DataId(0);
        s.placement.place(v, d, p.scenario.data[0].size);
        assert_eq!(p.request_latency(&s, u, d).value(), 0.0);
        let m = p.evaluate(&s);
        assert!(m.locally_served_requests >= 1);
    }

    #[test]
    fn infeasible_strategies_are_detected() {
        let p = problem();
        let mut s = Strategy::empty(&p.scenario);
        // Allocate user 0 to a server that does not cover it (u1 in fig2 is
        // far from v4).
        let u = idde_model::UserId(0);
        let far = idde_model::ServerId(3);
        assert!(!p.scenario.coverage.covers(far, u));
        s.allocation.set(u, Some((far, idde_model::ChannelIndex(0))));
        assert!(!p.is_feasible(&s));

        // Storage overflow: place everything on one 120 MB server.
        let mut s = Strategy::empty(&p.scenario);
        for d in p.scenario.data_ids() {
            s.placement.place(idde_model::ServerId(0), d, p.scenario.data[d.index()].size);
        }
        assert!(!p.is_feasible(&s));
    }

    #[test]
    fn total_latency_sums_request_latencies() {
        let p = problem();
        let s = Strategy::empty(&p.scenario);
        let direct: f64 =
            p.scenario.requests.pairs().map(|(u, d)| p.request_latency(&s, u, d).value()).sum();
        assert!((p.total_latency(&s).value() - direct).abs() < 1e-9);
        assert!((p.total_latency(&s).value() - p.all_cloud_latency().value()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn mismatched_topology_is_rejected() {
        let scenario = testkit::fig2_example();
        let radio = RadioEnvironment::new(&scenario, idde_radio::RadioParams::paper());
        let topo = Topology::new(
            idde_net::EdgeGraph::disconnected(99),
            idde_model::MegaBytesPerSec(600.0),
        );
        let _ = Problem::new(scenario, radio, topo);
    }
}
