//! The channel gain law and the pre-computed gain table.
//!
//! The paper uses the distance power-law `g_{i,x,j} = η · H_{i,j}^{-loss}`
//! ([`PowerLaw`]); every gain in the table, at construction and after every
//! user move, is evaluated under it.

use idde_model::{Scenario, ServerId, UserId};

/// The paper's power law `g = η · H^{-loss}` (with a minimum-distance clamp
/// so co-located endpoints stay finite).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerLaw {
    /// Frequency-dependent factor `η`.
    pub eta: f64,
    /// Path-loss exponent.
    pub loss_exponent: f64,
    /// Distances below this clamp (metres) are treated as the clamp.
    pub min_distance_m: f64,
}

impl PowerLaw {
    /// Power law with the given η and loss exponent and a 1 m clamp.
    pub fn new(eta: f64, loss_exponent: f64) -> Self {
        Self { eta, loss_exponent, min_distance_m: 1.0 }
    }

    /// Gain for a transmitter–receiver separation of `distance_m` metres:
    /// finite, positive and non-increasing in distance.
    #[inline]
    pub fn gain(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(self.min_distance_m);
        self.eta * d.powf(-self.loss_exponent)
    }
}

/// Dense `N × M` table of pre-computed channel gains.
///
/// Gain is queried on every SINR evaluation of every best-response scan —
/// millions of times per solve — so it is computed once per scenario.
#[derive(Clone, Debug)]
pub struct GainTable {
    num_users: usize,
    /// Row-major `[server][user]` gains.
    values: Vec<f64>,
}

impl GainTable {
    /// Computes all server–user gains of the scenario under the given law.
    pub fn compute(scenario: &Scenario, model: &PowerLaw) -> Self {
        let num_users = scenario.num_users();
        let mut values = Vec::with_capacity(scenario.num_servers() * num_users);
        for server in &scenario.servers {
            for user in &scenario.users {
                values.push(model.gain(server.position.distance(user.position)));
            }
        }
        Self { num_users, values }
    }

    /// The gain `g_{i,·,j}`.
    #[inline]
    pub fn get(&self, server: ServerId, user: UserId) -> f64 {
        self.values[server.index() * self.num_users + user.index()]
    }

    /// Server `server`'s gains to every user, indexed by user id.
    #[inline]
    pub fn row(&self, server: ServerId) -> &[f64] {
        &self.values[server.index() * self.num_users..][..self.num_users]
    }

    /// Recomputes one user's column after a position change in `O(N)` —
    /// the hook the online serving engine uses on mobility events. The
    /// scenario must already carry the user's new position.
    pub fn update_user(&mut self, scenario: &Scenario, model: &PowerLaw, user: UserId) {
        let position = scenario.users[user.index()].position;
        for server in &scenario.servers {
            self.values[server.id.index() * self.num_users + user.index()] =
                model.gain(server.position.distance(position));
        }
    }

    /// Recomputes one user's gains for `servers` only — the restricted
    /// mobility refresh behind the engine's spatial-index fast path.
    /// Entries for servers outside the slice keep their previous values
    /// (stale by design: the caller guarantees no consumer reads them; see
    /// `CoverageMap::gain_refresh_candidates` in `idde-model`).
    pub fn update_user_among(
        &mut self,
        scenario: &Scenario,
        model: &PowerLaw,
        user: UserId,
        servers: &[ServerId],
    ) {
        let position = scenario.users[user.index()].position;
        for &s in servers {
            let server = &scenario.servers[s.index()];
            self.values[s.index() * self.num_users + user.index()] =
                model.gain(server.position.distance(position));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::testkit;

    #[test]
    fn power_law_matches_formula() {
        let m = PowerLaw::new(1.0, 3.0);
        assert!((m.gain(100.0) - 1e-6).abs() < 1e-12);
        assert!((m.gain(10.0) - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn power_law_clamps_tiny_distances() {
        let m = PowerLaw::new(1.0, 3.0);
        assert_eq!(m.gain(0.0), 1.0);
        assert_eq!(m.gain(0.5), 1.0);
        assert!(m.gain(0.0).is_finite());
    }

    #[test]
    fn gain_laws_are_monotone_decreasing() {
        let pl = PowerLaw::new(1.0, 3.0);
        let mut prev = f64::INFINITY;
        for d in [1.0, 5.0, 20.0, 100.0, 400.0, 1600.0] {
            let g = pl.gain(d);
            assert!(g > 0.0 && g.is_finite());
            assert!(g <= prev);
            prev = g;
        }
    }

    #[test]
    fn update_user_matches_full_recompute() {
        let mut scenario = testkit::fig2_example();
        let model = PowerLaw::new(1.0, 3.0);
        let mut table = GainTable::compute(&scenario, &model);
        let user = scenario.users[2].id;
        scenario.users[2].position = idde_model::Point::new(123.0, 45.0);
        table.update_user(&scenario, &model, user);
        let fresh = GainTable::compute(&scenario, &model);
        for s in &scenario.servers {
            for u in &scenario.users {
                assert_eq!(table.get(s.id, u.id), fresh.get(s.id, u.id));
            }
        }
    }

    #[test]
    fn update_user_among_refreshes_exactly_the_named_servers() {
        let mut scenario = testkit::fig2_example();
        let model = PowerLaw::new(1.0, 3.0);
        let mut table = GainTable::compute(&scenario, &model);
        let stale = table.clone();
        let user = scenario.users[1].id;
        scenario.users[1].position = idde_model::Point::new(222.0, 77.0);
        let subset = vec![scenario.servers[0].id];
        table.update_user_among(&scenario, &model, user, &subset);
        let fresh = GainTable::compute(&scenario, &model);
        for s in &scenario.servers {
            for u in &scenario.users {
                let expected = if u.id == user && subset.contains(&s.id) {
                    fresh.get(s.id, u.id)
                } else {
                    stale.get(s.id, u.id)
                };
                assert_eq!(table.get(s.id, u.id), expected, "({}, {})", s.id, u.id);
            }
        }
    }

    #[test]
    fn table_matches_direct_evaluation() {
        let scenario = testkit::fig2_example();
        let model = PowerLaw::new(1.0, 3.0);
        let table = GainTable::compute(&scenario, &model);
        for s in &scenario.servers {
            for u in &scenario.users {
                let expected = model.gain(s.position.distance(u.position));
                assert_eq!(table.get(s.id, u.id), expected);
            }
        }
    }
}
