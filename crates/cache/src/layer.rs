//! The [`CacheLayer`]: engine-side cached-replica state and the
//! admission/eviction flow.
//!
//! The layer owns a second [`Placement`] — the *cache store* — strictly
//! disjoint from the solver's Eq. 17 placement. Cached replicas occupy
//! only the **residual** Eq. 6 budget `A_i − used_i(σ)` of each server, so
//! the game the solver plays is untouched: allocation, placement and every
//! derived quantity are bit-identical whether the cache runs LCE,
//! ProbCache or nothing at all. The serving loop simply takes
//! `min(solver delivery, cached delivery, cloud)` per request.
//!
//! Determinism contract (pinned by proptests here and in the engine):
//!
//! * admission randomness comes from one `ChaCha8Rng` seeded by
//!   [`CacheConfig::seed`], consumed in event order;
//! * victim selection is `min by (popularity, data id)` — no iteration
//!   order, hash map or thread count leaks in;
//! * every eviction is appended to an ordered log, so two runs can be
//!   compared replica-by-replica, not just by aggregate counters.

use idde_model::{DataId, Placement, Scenario, ServerId};
use idde_net::{best_path, Topology};

use crate::policy::{Admission, PolicyKind, RequestContext};

/// Tuning knobs for the caching layer. `Copy` so it can ride inside the
/// engine's (also `Copy`) configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Which admission policy runs (`Off` disables the layer entirely).
    pub policy: PolicyKind,
    /// Seed of the layer's private RNG (only ProbCache draws from it).
    pub seed: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { policy: PolicyKind::Off, seed: 0x1dde_cac4e }
    }
}

/// Popularity counters are halved every this many observations, so the
/// layer tracks the *recent* hot set under a drifting workload.
const DECAY_EVERY: u64 = 512;

/// Aggregate cache activity, mirrored into the engine's serve metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Requests where a cached replica won the Eq. 8 minimum.
    pub hits: u64,
    /// Requests served from the solver placement or the cloud instead.
    pub misses: u64,
    /// Opportunistic replicas installed by the admission policy.
    pub insertions: u64,
    /// Victims evicted to make room under the residual Eq. 6 budget.
    pub evictions: u64,
    /// Cached replicas dropped because their server went down.
    pub outage_evictions: u64,
    /// Cached replicas dropped when a placement repair reclaimed budget
    /// (or re-placed the same item in the solver profile).
    pub reconcile_evictions: u64,
    /// Admissions rejected up front (item larger than the residual budget,
    /// or no admissible site).
    pub rejected: u64,
    /// Cache hits whose latency was re-derived from Eq. 7/8 first
    /// principles by the audit layer.
    pub hit_checks: u64,
}

impl CacheCounters {
    /// Every eviction of any cause (policy, outage, reconcile).
    pub fn total_evictions(&self) -> u64 {
        self.evictions + self.outage_evictions + self.reconcile_evictions
    }
}

/// One served request, as reported by the engine to the cache layer.
#[derive(Clone, Copy, Debug)]
pub struct Observation {
    /// The requested item.
    pub data: DataId,
    /// The serving edge server of the requesting user.
    pub target: ServerId,
    /// The edge origin that won the Eq. 8 minimum (solver replica *or*
    /// cached replica); `None` when the cloud served the request.
    pub source: Option<ServerId>,
    /// Whether the winning origin was a cached replica.
    pub served_from_cache: bool,
}

/// The online caching layer: cache store, popularity tracking and the
/// admission/eviction flow.
#[derive(Clone, Debug)]
pub struct CacheLayer {
    policy: Admission,
    /// Cached replicas — disjoint from the solver placement by invariant.
    store: Placement,
    /// Decayed per-item request counts.
    popularity: Vec<u64>,
    /// Observations since construction (drives the popularity decay).
    observations: u64,
    /// Servers this layer may install replicas on (all, except in shard
    /// mode where each shard admits only on owned servers).
    admissible: Vec<bool>,
    /// Ordered eviction log `(server, data)` — the determinism witness.
    eviction_log: Vec<(ServerId, DataId)>,
    counters: CacheCounters,
}

impl CacheLayer {
    /// Builds the layer, or `None` when the policy is [`PolicyKind::Off`].
    pub fn new(config: CacheConfig, num_servers: usize, num_data: usize) -> Option<Self> {
        let policy = Admission::new(config.policy, config.seed)?;
        Some(Self {
            policy,
            store: Placement::empty(num_servers, num_data),
            popularity: vec![0; num_data],
            observations: 0,
            admissible: vec![true; num_servers],
            eviction_log: Vec::new(),
            counters: CacheCounters::default(),
        })
    }

    /// The cache store (cached replicas only; disjoint from the solver
    /// placement).
    pub fn store(&self) -> &Placement {
        &self.store
    }

    /// Aggregate counters.
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// Mutable counters (the engine bumps `hit_checks` from its audit
    /// cadence).
    pub fn counters_mut(&mut self) -> &mut CacheCounters {
        &mut self.counters
    }

    /// The ordered eviction log `(server, data)` since construction.
    pub fn eviction_log(&self) -> &[(ServerId, DataId)] {
        &self.eviction_log
    }

    /// Restricts admission to `owned` servers (shard mode: each shard's
    /// layer installs replicas only on servers it owns).
    pub fn restrict_admission(&mut self, owned: &[ServerId]) {
        self.admissible.iter_mut().for_each(|a| *a = false);
        for &server in owned {
            self.admissible[server.index()] = true;
        }
    }

    /// The best *cached* origin for `data` at `target`: minimum edge
    /// latency over the cache store's replicas, ties broken toward the
    /// smallest server id (ascending iteration + strict `<`). `None` when
    /// no cached replica is reachable.
    pub fn serve_candidate(
        &self,
        topology: &Topology,
        data: DataId,
        size: idde_model::units::MegaBytes,
        target: ServerId,
    ) -> Option<(f64, ServerId)> {
        let mut best: Option<(f64, ServerId)> = None;
        for origin in self.store.servers_with(data) {
            if let Some(latency) = topology.try_edge_latency(size, origin, target) {
                if best.is_none_or(|(b, _)| latency.value() < b) {
                    best = Some((latency.value(), origin));
                }
            }
        }
        best
    }

    /// Feeds one served request through popularity tracking and the
    /// admission policy, installing (and evicting) cached replicas as the
    /// policy decides. Pure function of `(seed, event order)` — nothing
    /// here depends on the worker count.
    pub fn observe(
        &mut self,
        scenario: &Scenario,
        topology: &Topology,
        solver: &Placement,
        obs: &Observation,
    ) {
        // Popularity bump + periodic halving decay, so the counters track
        // the recent hot set rather than the all-time one.
        self.popularity[obs.data.index()] += 1;
        self.observations += 1;
        // `% DECAY_EVERY` rather than `u64::is_multiple_of` — MSRV 1.85.
        #[allow(clippy::manual_is_multiple_of)]
        if self.observations % DECAY_EVERY == 0 {
            self.popularity.iter_mut().for_each(|p| *p >>= 1);
        }
        if obs.served_from_cache {
            self.counters.hits += 1;
        } else {
            self.counters.misses += 1;
        }

        let already_at_target =
            solver.stores(obs.target, obs.data) || self.store.stores(obs.target, obs.data);

        // The delivery path is only materialised for the policies that
        // read it (LCD walks it, ProbCache weights by its length).
        let path: Vec<ServerId> = match (&self.policy, obs.source) {
            (Admission::Lcd | Admission::ProbCache { .. }, Some(origin))
                if origin != obs.target =>
            {
                best_path(topology.graph(), origin, obs.target).unwrap_or_default()
            }
            _ => Vec::new(),
        };

        let ctx = RequestContext {
            target: obs.target,
            source: obs.source,
            path: &path,
            already_at_target,
        };
        let Some(site) = self.policy.admit(&ctx) else { return };

        // Shard mode: fall back to the serving server when the policy
        // chose a site this layer does not own; skip if neither is ours.
        let site = if self.admissible[site.index()] {
            site
        } else if self.admissible[obs.target.index()] {
            obs.target
        } else {
            self.counters.rejected += 1;
            return;
        };
        self.try_install(scenario, solver, site, obs.data);
    }

    /// Installs `data` on `site` under the residual Eq. 6 budget, evicting
    /// least-popular victims (ties to the smallest data id) as needed.
    fn try_install(
        &mut self,
        scenario: &Scenario,
        solver: &Placement,
        site: ServerId,
        data: DataId,
    ) {
        // A replica anywhere in the combined profile makes the install a
        // no-op (and would break store/placement disjointness).
        if solver.stores(site, data) || self.store.stores(site, data) {
            return;
        }
        let size = scenario.data[data.index()].size;
        let residual = scenario.servers[site.index()].storage.value() - solver.used(site).value();
        if size.value() > residual {
            self.counters.rejected += 1;
            return;
        }
        while self.store.used(site).value() + size.value() > residual {
            let Some(victim) =
                self.store.data_on(site).min_by_key(|d| (self.popularity[d.index()], d.0))
            else {
                break;
            };
            self.evict(scenario, site, victim);
            self.counters.evictions += 1;
        }
        if self.store.place(site, data, size) {
            self.counters.insertions += 1;
        }
    }

    /// Removes one cached replica and appends it to the eviction log.
    fn evict(&mut self, scenario: &Scenario, server: ServerId, data: DataId) {
        let size = scenario.data[data.index()].size;
        if self.store.remove(server, data, size) {
            self.eviction_log.push((server, data));
        }
    }

    /// Drops every cached replica on a server that went down — a cached
    /// copy on a dead server would otherwise keep winning the Eq. 8
    /// minimum over a path that no longer exists.
    pub fn purge_server(&mut self, scenario: &Scenario, server: ServerId) {
        let victims: Vec<DataId> = self.store.data_on(server).collect();
        for data in victims {
            self.evict(scenario, server, data);
            self.counters.outage_evictions += 1;
        }
    }

    /// Re-establishes the layer's invariants after a placement repair:
    /// cached replicas duplicated by the new solver placement are dropped,
    /// then each server evicts (least popular first) until the cache fits
    /// the new residual budget `A_i − used_i(σ')`.
    pub fn reconcile(&mut self, scenario: &Scenario, solver: &Placement) {
        for server in scenario.servers.iter().map(|s| s.id) {
            let duplicated: Vec<DataId> =
                self.store.data_on(server).filter(|&d| solver.stores(server, d)).collect();
            for data in duplicated {
                self.evict(scenario, server, data);
                self.counters.reconcile_evictions += 1;
            }
            let residual =
                scenario.servers[server.index()].storage.value() - solver.used(server).value();
            while self.store.used(server).value() > residual + 1e-9 {
                let Some(victim) =
                    self.store.data_on(server).min_by_key(|d| (self.popularity[d.index()], d.0))
                else {
                    break;
                };
                self.evict(scenario, server, victim);
                self.counters.reconcile_evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::testkit;
    use idde_model::units::{MegaBytes, MegaBytesPerSec};
    use idde_net::{EdgeGraph, Link};
    use proptest::prelude::*;

    /// fig2: 4 servers × 120 MB storage, 4 items × 60 MB — every server
    /// fits exactly two items. Line topology 0—1—2—3.
    fn fixture() -> (Scenario, Topology) {
        let scenario = testkit::fig2_example();
        let graph = EdgeGraph::new(
            4,
            vec![
                Link { a: ServerId(0), b: ServerId(1), speed: MegaBytesPerSec(3000.0) },
                Link { a: ServerId(1), b: ServerId(2), speed: MegaBytesPerSec(3000.0) },
                Link { a: ServerId(2), b: ServerId(3), speed: MegaBytesPerSec(3000.0) },
            ],
        );
        (scenario, Topology::new(graph, MegaBytesPerSec(600.0)))
    }

    fn layer(policy: PolicyKind, num_servers: usize, num_data: usize) -> CacheLayer {
        let config = CacheConfig { policy, ..CacheConfig::default() };
        CacheLayer::new(config, num_servers, num_data).expect("policy is not Off")
    }

    fn miss_at(target: ServerId, data: DataId) -> Observation {
        Observation { data, target, source: None, served_from_cache: false }
    }

    #[test]
    fn off_policy_builds_no_layer() {
        assert!(CacheLayer::new(CacheConfig::default(), 4, 8).is_none());
    }

    #[test]
    fn lce_installs_on_miss_within_residual_budget() {
        let (scenario, topology) = fixture();
        let solver = Placement::empty(4, 4);
        let mut cache = layer(PolicyKind::Lce, 4, 4);
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(0), DataId(0)));
        assert!(cache.store().stores(ServerId(0), DataId(0)));
        assert_eq!(cache.counters().insertions, 1);
        // Second miss for the same item at the same server is a no-op.
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(0), DataId(0)));
        assert_eq!(cache.counters().insertions, 1);
    }

    #[test]
    fn eviction_picks_least_popular_smallest_id() {
        let (scenario, topology) = fixture();
        let solver = Placement::empty(4, 4);
        let mut cache = layer(PolicyKind::Lce, 4, 4);
        let v0 = ServerId(0);
        // Fill server 0: items 0 and 1 (120 MB of 120 MB). Item 1 is
        // requested twice, so item 0 is the least-popular victim.
        cache.observe(&scenario, &topology, &solver, &miss_at(v0, DataId(0)));
        cache.observe(&scenario, &topology, &solver, &miss_at(v0, DataId(1)));
        cache.observe(&scenario, &topology, &solver, &miss_at(v0, DataId(1)));
        cache.observe(&scenario, &topology, &solver, &miss_at(v0, DataId(2)));
        assert!(!cache.store().stores(v0, DataId(0)), "least popular item evicted");
        assert!(cache.store().stores(v0, DataId(1)));
        assert!(cache.store().stores(v0, DataId(2)));
        assert_eq!(cache.eviction_log(), &[(v0, DataId(0))]);
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn solver_occupancy_shrinks_the_residual_budget() {
        let (scenario, topology) = fixture();
        let mut solver = Placement::empty(4, 4);
        // Solver occupies 60 of 120 MB on server 0: residual fits one item.
        assert!(solver.place(ServerId(0), DataId(3), MegaBytes(60.0)));
        let mut cache = layer(PolicyKind::Lce, 4, 4);
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(0), DataId(0)));
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(0), DataId(1)));
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(0), DataId(1)));
        let combined = solver.used(ServerId(0)).value() + cache.store().used(ServerId(0)).value();
        assert!(combined <= scenario.servers[0].storage.value() + 1e-9);
        assert_eq!(cache.store().data_on(ServerId(0)).count(), 1);
    }

    #[test]
    fn serve_candidate_prefers_nearest_then_smallest_id() {
        let (scenario, topology) = fixture();
        let solver = Placement::empty(4, 4);
        let mut cache = layer(PolicyKind::Lce, 4, 4);
        // Cache item 0 at servers 1 and 3; target 2 is one hop from both.
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(1), DataId(0)));
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(3), DataId(0)));
        let (latency, origin) = cache
            .serve_candidate(&topology, DataId(0), MegaBytes(60.0), ServerId(2))
            .expect("cached replicas are reachable");
        assert_eq!(origin, ServerId(1), "equidistant tie breaks to the smallest id");
        assert!(latency > 0.0);
        // A local cached replica serves at zero latency.
        let (local, o) =
            cache.serve_candidate(&topology, DataId(0), MegaBytes(60.0), ServerId(1)).unwrap();
        assert_eq!((local, o), (0.0, ServerId(1)));
        assert!(cache
            .serve_candidate(&topology, DataId(2), MegaBytes(60.0), ServerId(0))
            .is_none());
    }

    #[test]
    fn purge_server_drops_replicas_and_logs() {
        let (scenario, topology) = fixture();
        let solver = Placement::empty(4, 4);
        let mut cache = layer(PolicyKind::Lce, 4, 4);
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(1), DataId(0)));
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(1), DataId(2)));
        cache.purge_server(&scenario, ServerId(1));
        assert_eq!(cache.store().data_on(ServerId(1)).count(), 0);
        assert_eq!(cache.counters().outage_evictions, 2);
        assert_eq!(cache.eviction_log(), &[(ServerId(1), DataId(0)), (ServerId(1), DataId(2))]);
    }

    #[test]
    fn reconcile_restores_disjointness_and_budget() {
        let (scenario, topology) = fixture();
        let mut solver = Placement::empty(4, 4);
        let mut cache = layer(PolicyKind::Lce, 4, 4);
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(0), DataId(0)));
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(0), DataId(1)));
        // A repair now places item 0 on server 0 (duplicate) and item 3 on
        // server 0 (eats 60 MB of residual budget).
        assert!(solver.place(ServerId(0), DataId(0), MegaBytes(60.0)));
        assert!(solver.place(ServerId(0), DataId(3), MegaBytes(60.0)));
        cache.reconcile(&scenario, &solver);
        // Duplicate dropped; the remaining cached item no longer fits the
        // residual (120 − 120 = 0 MB), so it goes too.
        assert_eq!(cache.store().num_placements(), 0);
        assert_eq!(cache.counters().reconcile_evictions, 2);
        let combined = solver.used(ServerId(0)).value() + cache.store().used(ServerId(0)).value();
        assert!(combined <= scenario.servers[0].storage.value() + 1e-9);
    }

    #[test]
    fn restrict_admission_falls_back_to_owned_target() {
        let (scenario, topology) = fixture();
        let solver = Placement::empty(4, 4);
        let mut cache = layer(PolicyKind::Lce, 4, 4);
        cache.restrict_admission(&[ServerId(2), ServerId(3)]);
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(0), DataId(0)));
        assert_eq!(cache.store().num_placements(), 0, "unowned target admits nothing");
        assert_eq!(cache.counters().rejected, 1);
        cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(2), DataId(0)));
        assert!(cache.store().stores(ServerId(2), DataId(0)));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Same seed + same observation stream ⇒ identical eviction
        /// sequence and store, for every policy. This is the layer-local
        /// half of the determinism contract (the engine test extends it to
        /// worker counts).
        #[test]
        fn identical_streams_replay_identically(
            stream in proptest::collection::vec((0u32..4, 0u32..4), 1..200),
            policy_pick in 0usize..3,
            seed in 0u64..1024,
        ) {
            let policy = [PolicyKind::Lce, PolicyKind::Lcd, PolicyKind::ProbCache][policy_pick];
            let (scenario, topology) = fixture();
            let solver = Placement::empty(4, 4);
            let config = CacheConfig { policy, seed };
            let mut a = CacheLayer::new(config, 4, 4).unwrap();
            let mut b = CacheLayer::new(config, 4, 4).unwrap();
            for &(server, data) in &stream {
                let obs = miss_at(ServerId(server), DataId(data));
                a.observe(&scenario, &topology, &solver, &obs);
                b.observe(&scenario, &topology, &solver, &obs);
            }
            prop_assert_eq!(a.eviction_log(), b.eviction_log());
            prop_assert_eq!(a.counters(), b.counters());
            for s in 0..4u32 {
                for d in 0..4u32 {
                    prop_assert_eq!(
                        a.store().stores(ServerId(s), DataId(d)),
                        b.store().stores(ServerId(s), DataId(d))
                    );
                }
            }
        }

        /// The combined solver + cache occupancy never exceeds Eq. 6, for
        /// any observation stream.
        #[test]
        fn budget_is_never_exceeded(
            stream in proptest::collection::vec((0u32..4, 0u32..4), 1..200),
        ) {
            let (scenario, topology) = fixture();
            let mut solver = Placement::empty(4, 4);
            solver.place(ServerId(1), DataId(3), MegaBytes(60.0));
            let mut cache = layer(PolicyKind::Lce, 4, 4);
            for &(server, data) in &stream {
                cache.observe(&scenario, &topology, &solver, &miss_at(ServerId(server), DataId(data)));
                for srv in &scenario.servers {
                    let combined = solver.used(srv.id).value() + cache.store().used(srv.id).value();
                    prop_assert!(combined <= srv.storage.value() + 1e-9);
                }
            }
        }
    }
}
