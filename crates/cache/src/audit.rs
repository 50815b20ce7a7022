//! Cache-state extension of the invariant auditor.
//!
//! The engine's auditor certifies the game state (fields, rates, Nash
//! stability, Eq. 6 on the solver placement); this module certifies the
//! *cache* on top of it:
//!
//! 1. **Combined Eq. 6 budget** — solver + cache occupancy of every server
//!    fits its reserved storage `A_i` (the cache lives in the residual).
//! 2. **Disjointness** — no cached replica duplicates a solver replica;
//!    the cache must never perturb the game.
//! 3. **No stale paths** — no cached replica survives on a downed server,
//!    where it would win Eq. 8 over a path that no longer exists.
//!
//! The Eq. 7/8 latency re-derivation on cache *hits* happens inline in the
//! engine's serve path (it needs the per-request context); its counter is
//! [`crate::CacheCounters::hit_checks`].

use idde_audit::{AuditReport, Violation};
use idde_model::{Placement, Scenario, ServerId};

use crate::layer::CacheLayer;

/// Absolute storage tolerance, MB — matches the auditor's Eq. 6 default.
const STORAGE_TOL: f64 = 1e-6;

/// Audits the cache layer against the scenario, the solver placement and
/// the current outage set. Pure function of the audited state.
pub fn audit_cache(
    scenario: &Scenario,
    solver: &Placement,
    layer: &CacheLayer,
    down: &[ServerId],
) -> AuditReport {
    let mut report = AuditReport::new();
    for server in &scenario.servers {
        let id = server.id;
        let used = solver.used(id).value() + layer.store().used(id).value();
        report.checks += 1;
        if used > server.storage.value() + STORAGE_TOL {
            report.violations.push(Violation::CacheBudgetExceeded {
                server: id,
                used,
                capacity: server.storage.value(),
            });
        }
        let is_down = down.contains(&id);
        for data in layer.store().data_on(id) {
            report.checks += 1;
            if solver.stores(id, data) {
                report.violations.push(Violation::CacheDuplicateReplica { server: id, data });
            }
            report.checks += 1;
            if is_down {
                report.violations.push(Violation::CacheStaleReplica { server: id, data });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{CacheConfig, CacheLayer, Observation};
    use crate::policy::PolicyKind;
    use idde_model::testkit;
    use idde_model::units::{MegaBytes, MegaBytesPerSec};
    use idde_model::DataId;
    use idde_net::{EdgeGraph, Link, Topology};

    fn fixture() -> (Scenario, Topology, CacheLayer) {
        let scenario = testkit::fig2_example();
        let graph = EdgeGraph::new(
            4,
            vec![
                Link { a: ServerId(0), b: ServerId(1), speed: MegaBytesPerSec(3000.0) },
                Link { a: ServerId(1), b: ServerId(2), speed: MegaBytesPerSec(3000.0) },
                Link { a: ServerId(2), b: ServerId(3), speed: MegaBytesPerSec(3000.0) },
            ],
        );
        let topology = Topology::new(graph, MegaBytesPerSec(600.0));
        let config = CacheConfig { policy: PolicyKind::Lce, ..CacheConfig::default() };
        (scenario, topology, CacheLayer::new(config, 4, 4).unwrap())
    }

    #[test]
    fn live_layer_audits_clean() {
        let (scenario, topology, mut cache) = fixture();
        let solver = Placement::empty(4, 4);
        for (s, d) in [(0u32, 0u32), (1, 1), (2, 0), (0, 1)] {
            let obs = Observation {
                data: DataId(d),
                target: ServerId(s),
                source: None,
                served_from_cache: false,
            };
            cache.observe(&scenario, &topology, &solver, &obs);
        }
        let report = audit_cache(&scenario, &solver, &cache, &[]);
        assert!(report.is_clean(), "violations: {report}");
        assert!(report.checks > 4, "per-replica checks must run");
    }

    #[test]
    fn stale_replica_on_downed_server_is_flagged() {
        let (scenario, topology, mut cache) = fixture();
        let solver = Placement::empty(4, 4);
        let obs = Observation {
            data: DataId(0),
            target: ServerId(1),
            source: None,
            served_from_cache: false,
        };
        cache.observe(&scenario, &topology, &solver, &obs);
        // Server 1 goes down but the layer is (wrongly) not purged.
        let report = audit_cache(&scenario, &solver, &cache, &[ServerId(1)]);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CacheStaleReplica { server: ServerId(1), .. })));
        // After the purge the same audit is clean.
        cache.purge_server(&scenario, ServerId(1));
        assert!(audit_cache(&scenario, &solver, &cache, &[ServerId(1)]).is_clean());
    }

    #[test]
    fn duplicate_replica_is_flagged_until_reconciled() {
        let (scenario, topology, mut cache) = fixture();
        let mut solver = Placement::empty(4, 4);
        let obs = Observation {
            data: DataId(0),
            target: ServerId(0),
            source: None,
            served_from_cache: false,
        };
        cache.observe(&scenario, &topology, &solver, &obs);
        assert!(solver.place(ServerId(0), DataId(0), MegaBytes(60.0)));
        let report = audit_cache(&scenario, &solver, &cache, &[]);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::CacheDuplicateReplica { .. })));
        cache.reconcile(&scenario, &solver);
        assert!(audit_cache(&scenario, &solver, &cache, &[]).is_clean());
    }
}
