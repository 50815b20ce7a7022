//! The bulk-distribution audit: re-derives every figure a
//! [`DistributionPlan`] records — route validity, analytic delays, the
//! per-strategy cost accounting, the best-path lower bound and the delay
//! guarantee — straight from the plan's routes and the topology, never
//! trusting the planner's own arithmetic.

use idde_dist::{DestInstall, DistConfig, DistributionPlan, StrategyKind};
use idde_model::ServerId;
use idde_net::{EdgeGraph, Topology, UNREACHABLE};

use crate::auditor::Auditor;
use crate::report::{AuditReport, Violation};

/// Relative tolerance for the cost and delay re-derivations: tight because
/// planner and auditor run the same arithmetic over the same routes.
pub const DIST_REL_TOL: f64 = 1e-12;

/// `a ≈ b` under a pure relative tolerance.
#[inline]
fn close(a: f64, b: f64, rel_tol: f64) -> bool {
    (a - b).abs() <= rel_tol * a.abs().max(b.abs())
}

/// Per-MB cost of the cheapest physical link joining `a` and `b`, or
/// [`UNREACHABLE`] when no such link exists.
fn link_unit(graph: &EdgeGraph, a: ServerId, b: ServerId) -> f64 {
    graph
        .neighbors(a)
        .iter()
        .filter(|&&(n, _)| n == b.0)
        .map(|&(_, cost)| cost)
        .fold(UNREACHABLE, f64::min)
}

/// The re-derived analytic (pipelined) delay of one install route: `size`
/// times its bottleneck link cost, plus the cloud latency when cloud-fed.
/// `None` when the route is structurally invalid.
fn route_delay(topology: &Topology, size: f64, install: &DestInstall) -> Option<f64> {
    let route = &install.route;
    if route.is_empty() || *route.last()? != install.destination {
        return None;
    }
    let mut bottleneck = 0.0f64;
    for w in route.windows(2) {
        let unit = link_unit(topology.graph(), w[0], w[1]);
        if unit == UNREACHABLE {
            return None;
        }
        bottleneck = bottleneck.max(unit);
    }
    let transit = size * bottleneck;
    let cloud = if install.from_cloud {
        topology.cloud_latency(idde_model::MegaBytes(size)).value()
    } else {
        0.0
    };
    Some(transit + cloud)
}

impl Auditor {
    /// Re-derives a bulk-distribution plan from first principles:
    ///
    /// 1. **Route validity** — every install's route is non-empty, ends at
    ///    its destination, hops only over physical links, and (when
    ///    edge-fed) starts at a server the demand lists as a source.
    /// 2. **Delay** — the recorded analytic delay of every route is
    ///    recomputed as its pipelined bottleneck latency (plus the cloud
    ///    latency for cloud-fed routes) and compared at
    ///    [`DIST_REL_TOL`].
    /// 3. **Cost** — each demand's cost is re-derived under its strategy's
    ///    charging rule (unicast: every copy pays its full route; Steiner:
    ///    each distinct tree link and cloud landing pays once), and checked
    ///    against the per-destination best-path lower bound
    ///    `max_d min(cloud, size · unit_cost(source, d))` — no delivery
    ///    scheme can undercut the cheapest way to reach its most expensive
    ///    destination.
    /// 4. **Guarantee** — the delay-violation flags and count are recounted
    ///    from the recorded delays and re-derived direct optima.
    /// 5. **Aggregates** — total cost, replica and cloud-seed counters must
    ///    resum from the per-demand plans.
    pub fn audit_distribution(
        &self,
        topology: &Topology,
        plan: &DistributionPlan,
        config: &DistConfig,
    ) -> AuditReport {
        let rel = DIST_REL_TOL;
        let mut report = AuditReport::new();
        let mut recount: u64 = 0;
        let mut flags_ok = true;

        for demand in &plan.plans {
            let size = demand.size.value();
            let cloud_ms = topology.cloud_latency(demand.size).value();
            let mut unicast_cost = 0.0;
            for install in &demand.installs {
                let valid_head = install.from_cloud
                    || install
                        .route
                        .first()
                        .is_some_and(|h| demand.sources.binary_search(h).is_ok());
                let delay = route_delay(topology, size, install).filter(|_| valid_head);
                report.check(delay.is_some(), || Violation::DistRouteInvalid {
                    data: demand.data,
                    destination: install.destination,
                });
                let Some(delay) = delay else { continue };
                report.check(close(install.delay_ms, delay, rel), || {
                    Violation::DistDelayMismatch {
                        data: demand.data,
                        destination: install.destination,
                        recorded: install.delay_ms,
                        reference: delay,
                    }
                });

                // The unconstrained direct-delivery optimum this install is
                // measured against, and the guarantee recount. The recorded
                // delay (already verified above) keeps the flag recount
                // exact instead of tolerance-dependent.
                let mut direct = cloud_ms;
                for &s in &demand.sources {
                    if let Some(unit) = topology.try_unit_cost(s, install.destination) {
                        direct = direct.min(size * unit);
                    }
                }
                let expected = install.delay_ms > config.delay_factor * direct + 1e-9;
                flags_ok &= expected == install.violated;
                recount += u64::from(expected);

                unicast_cost += if install.from_cloud {
                    cloud_ms
                } else {
                    size * install
                        .route
                        .windows(2)
                        .map(|w| link_unit(topology.graph(), w[0], w[1]))
                        .sum::<f64>()
                };
            }

            // Cost under the strategy's charging rule.
            let reference_cost = match plan.strategy {
                StrategyKind::Unicast => unicast_cost,
                StrategyKind::Steiner => {
                    size * demand
                        .links()
                        .iter()
                        .map(|&(a, b)| link_unit(topology.graph(), a, b))
                        .sum::<f64>()
                        + demand.cloud_feeds().len() as f64 * cloud_ms
                }
            };
            report.check(close(demand.cost_ms, reference_cost, rel), || {
                Violation::DistCostMismatch {
                    data: demand.data,
                    recorded: demand.cost_ms,
                    reference: reference_cost,
                }
            });

            // Best-path lower bound: every destination must be reached, so
            // the plan at least pays the cheapest direct delivery of its
            // most expensive destination.
            let mut lower_bound = 0.0f64;
            for install in &demand.installs {
                let mut direct = cloud_ms;
                for &s in &demand.sources {
                    if let Some(unit) = topology.try_unit_cost(s, install.destination) {
                        direct = direct.min(size * unit);
                    }
                }
                lower_bound = lower_bound.max(direct);
            }
            report.check(demand.cost_ms >= lower_bound * (1.0 - rel), || {
                Violation::DistCostBelowLowerBound {
                    data: demand.data,
                    cost: demand.cost_ms,
                    lower_bound,
                }
            });
        }

        report.check(flags_ok && plan.delay_violations == recount, || {
            Violation::DistViolationMiscount { recorded: plan.delay_violations, reference: recount }
        });
        let total: f64 = plan.plans.iter().map(|p| p.cost_ms).sum();
        report.check(close(plan.total_cost_ms, total, rel), || Violation::DistAggregateMismatch {
            metric: "total_cost_ms",
            recorded: plan.total_cost_ms,
            reference: total,
        });
        let replicas: u64 = plan.plans.iter().map(|p| p.installs.len() as u64).sum();
        report.check(plan.replicas == replicas, || Violation::DistAggregateMismatch {
            metric: "replicas",
            recorded: plan.replicas as f64,
            reference: replicas as f64,
        });
        let seeds =
            plan.plans.iter().flat_map(|p| &p.installs).filter(|i| i.from_cloud).count() as u64;
        report.check(plan.cloud_seeds == seeds, || Violation::DistAggregateMismatch {
            metric: "cloud_seeds",
            recorded: plan.cloud_seeds as f64,
            reference: seeds as f64,
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_dist::{DistributionStrategy, InstallDemand, SteinerTree, Unicast};
    use idde_model::{DataId, MegaBytes, MegaBytesPerSec};
    use idde_net::Link;

    fn topo() -> Topology {
        let link = |a: u32, b: u32, s: f64| Link {
            a: ServerId(a),
            b: ServerId(b),
            speed: MegaBytesPerSec(s),
        };
        let g = EdgeGraph::new(
            5,
            vec![link(0, 1, 2000.0), link(1, 2, 3000.0), link(2, 3, 4000.0), link(1, 4, 2500.0)],
        );
        Topology::new(g, MegaBytesPerSec(600.0))
    }

    fn demands() -> Vec<InstallDemand> {
        vec![
            InstallDemand {
                data: DataId(0),
                size: MegaBytes(60.0),
                sources: vec![ServerId(0)],
                destinations: vec![ServerId(2), ServerId(3), ServerId(4)],
            },
            InstallDemand {
                data: DataId(1),
                size: MegaBytes(25.0),
                sources: vec![],
                destinations: vec![ServerId(1), ServerId(2)],
            },
        ]
    }

    #[test]
    fn clean_plans_audit_clean_under_both_models_and_strategies() {
        let auditor = Auditor;
        let config = DistConfig::default();
        let topo = topo();
        for plan in
            [Unicast.plan(&topo, &demands(), &config), SteinerTree.plan(&topo, &demands(), &config)]
        {
            let report = auditor.audit_distribution(&topo, &plan, &config);
            assert!(report.is_clean(), "{}: {report}", plan.strategy);
            assert!(report.checks > 0);
        }
    }

    #[test]
    fn tampered_plans_are_flagged() {
        let auditor = Auditor;
        let config = DistConfig::default();
        let topo = topo();
        let clean = SteinerTree.plan(&topo, &demands(), &config);

        // Undercut a demand's cost: both the re-derivation and the lower
        // bound see through it.
        let mut cheat = clean.clone();
        cheat.plans[0].cost_ms = 0.1;
        let report = auditor.audit_distribution(&topo, &cheat, &config);
        assert!(report.violations.iter().any(|v| matches!(v, Violation::DistCostMismatch { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DistCostBelowLowerBound { .. })));

        // Shorten a route so it no longer reaches its destination.
        let mut broken = clean.clone();
        broken.plans[0].installs[0].route.pop();
        let report = auditor.audit_distribution(&topo, &broken, &config);
        assert!(report.violations.iter().any(|v| matches!(v, Violation::DistRouteInvalid { .. })));

        // Shave a delay: the route re-derivation disagrees.
        let mut shaved = clean.clone();
        shaved.plans[0].installs[0].delay_ms *= 0.5;
        let report = auditor.audit_distribution(&topo, &shaved, &config);
        assert!(report.violations.iter().any(|v| matches!(v, Violation::DistDelayMismatch { .. })));

        // Zero out the violation counter after forcing violations.
        let strict = DistConfig { delay_factor: 0.0, ..config };
        let mut plan = SteinerTree.plan(&topo, &demands(), &strict);
        assert!(plan.delay_violations > 0);
        plan.delay_violations = 0;
        let report = auditor.audit_distribution(&topo, &plan, &strict);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DistViolationMiscount { .. })));

        // Drift an aggregate.
        let mut drifted = clean;
        drifted.total_cost_ms += 1.0;
        let report = auditor.audit_distribution(&topo, &drifted, &config);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::DistAggregateMismatch { metric: "total_cost_ms", .. }
        )));
    }

    #[test]
    fn steiner_destinations_past_the_delay_bound_take_their_direct_route() {
        // Source 0 feeds destinations 1, 2 and 6. The tree joins 2 through
        // destination 1 over the slow 1–2 link (0.625 ms/MB): additively
        // shorter than the relay chain 0–3–4–5–2 (four 0.2 ms/MB links), but
        // its 37.5 ms pipelined delay is past twice 2's 12 ms direct feed.
        let link = |a: u32, b: u32, s: f64| Link {
            a: ServerId(a),
            b: ServerId(b),
            speed: MegaBytesPerSec(s),
        };
        let topo = Topology::new(
            EdgeGraph::new(
                7,
                vec![
                    link(0, 1, 10_000.0),
                    link(1, 6, 10_000.0),
                    link(1, 2, 1600.0),
                    link(0, 3, 5000.0),
                    link(3, 4, 5000.0),
                    link(4, 5, 5000.0),
                    link(5, 2, 5000.0),
                ],
            ),
            MegaBytesPerSec(600.0),
        );
        let demands = [InstallDemand {
            data: DataId(0),
            size: MegaBytes(60.0),
            sources: vec![ServerId(0)],
            destinations: vec![ServerId(1), ServerId(2), ServerId(6)],
        }];
        let route_to_2 = |plan: &DistributionPlan| plan.plans[0].installs[1].route.clone();
        let ids = |r: &[u32]| r.iter().map(|&s| ServerId(s)).collect::<Vec<_>>();

        // A lax bound keeps the tree's own route to 2.
        let lax = DistConfig { delay_factor: 4.0, ..DistConfig::default() };
        let tree = SteinerTree.plan(&topo, &demands, &lax);
        assert_eq!(route_to_2(&tree), ids(&[0, 1, 2]));
        assert!((tree.plans[0].installs[1].delay_ms - 37.5).abs() < 1e-9);

        // The default factor 2 moves 2 onto its direct route; the guarantee
        // holds (it assumes `delay_factor ≥ 1`, so a direct route is never
        // a violation).
        let config = DistConfig::default();
        let plan = SteinerTree.plan(&topo, &demands, &config);
        assert_eq!(plan.delay_violations, 0);
        assert_eq!(route_to_2(&plan), ids(&[0, 3, 4, 5, 2]));
        assert!((plan.plans[0].installs[1].delay_ms - 12.0).abs() < 1e-9);
        let report = Auditor.audit_distribution(&topo, &plan, &config);
        assert!(report.is_clean(), "{report}");

        // Every link is charged once: 60 MB × (0.1 + 0.1 + 4 × 0.2), below
        // unicast's 66 ms, where 1's trunk is paid again for 6.
        let unicast = Unicast.plan(&topo, &demands, &config);
        assert!((plan.total_cost_ms - 60.0).abs() < 1e-9, "steiner {}", plan.total_cost_ms);
        assert!((unicast.total_cost_ms - 66.0).abs() < 1e-9, "unicast {}", unicast.total_cost_ms);
    }
}
