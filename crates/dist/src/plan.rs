//! Plan types: what a strategy decided, in enough detail for the audit to
//! re-derive every recorded figure from first principles.

use std::fmt;
use std::str::FromStr;

use idde_model::{DataId, MegaBytes, ServerId};

/// Which bulk-distribution strategy a serve runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StrategyKind {
    /// Item-by-item per-destination pulls — the extracted legacy behaviour
    /// and the byte-identical default.
    #[default]
    Unicast,
    /// Multi-source Steiner-tree multicast (metric closure + MST + prune).
    Steiner,
}

impl fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyKind::Unicast => write!(f, "unicast"),
            StrategyKind::Steiner => write!(f, "steiner"),
        }
    }
}

impl FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "unicast" => Ok(StrategyKind::Unicast),
            "steiner" => Ok(StrategyKind::Steiner),
            other => Err(format!("unknown delivery strategy {other:?} (try unicast, steiner)")),
        }
    }
}

/// Bulk-distribution configuration carried by the engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistConfig {
    /// The planning strategy.
    pub strategy: StrategyKind,
    /// Delay-guarantee factor: a destination's analytic delay may exceed
    /// its unconstrained direct-delivery optimum by at most this factor
    /// before it counts as a violation (EDD-NSTE's end-to-end guarantee).
    pub delay_factor: f64,
    /// Whether bulk installs are planned and recorded at all. `false` (the
    /// default) skips planning entirely, keeping the serve CSV
    /// byte-identical to a build without this crate.
    pub record: bool,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self { strategy: StrategyKind::Unicast, delay_factor: 2.0, record: false }
    }
}

/// One destination's planned delivery inside a [`DemandPlan`].
#[derive(Clone, Debug, PartialEq)]
pub struct DestInstall {
    /// The receiving server.
    pub destination: ServerId,
    /// The delivery route, feed point first, destination last. A
    /// single-element route is a direct feed at the destination itself
    /// (necessarily from the cloud — an edge feed of length zero would
    /// mean the destination already holds the item).
    pub route: Vec<ServerId>,
    /// Whether the feed point (the route's first server) pulls the item
    /// from the cloud rather than holding it as a surviving source.
    pub from_cloud: bool,
    /// Analytic end-to-end (pipelined, bottleneck-gated) delay (ms) of this
    /// route, including the cloud latency when `from_cloud`.
    pub delay_ms: f64,
    /// Whether `delay_ms` exceeds the configured delay guarantee.
    pub violated: bool,
}

/// The planned distribution for one (merged) item demand.
#[derive(Clone, Debug, PartialEq)]
pub struct DemandPlan {
    /// The item being distributed.
    pub data: DataId,
    /// Its size.
    pub size: MegaBytes,
    /// The surviving sources the planner could feed from.
    pub sources: Vec<ServerId>,
    /// Per-destination deliveries, sorted by destination id.
    pub installs: Vec<DestInstall>,
    /// Total distribution cost (ms) of this plan — see the crate docs for
    /// the per-strategy accounting.
    pub cost_ms: f64,
}

impl DemandPlan {
    /// The unique physical links this plan's routes traverse, as
    /// normalised `(low, high)` pairs sorted ascending.
    pub fn links(&self) -> Vec<(ServerId, ServerId)> {
        let mut links: Vec<(ServerId, ServerId)> = self
            .installs
            .iter()
            .flat_map(|i| i.route.windows(2))
            .map(|w| (w[0].min(w[1]), w[0].max(w[1])))
            .collect();
        links.sort_unstable();
        links.dedup();
        links
    }

    /// The unique cloud feed points (route heads with `from_cloud`),
    /// sorted ascending.
    pub fn cloud_feeds(&self) -> Vec<ServerId> {
        let mut feeds: Vec<ServerId> = self
            .installs
            .iter()
            .filter(|i| i.from_cloud)
            .map(|i| *i.route.first().expect("routes are never empty"))
            .collect();
        feeds.sort_unstable();
        feeds.dedup();
        feeds
    }
}

/// A whole bulk-install round: one [`DemandPlan`] per merged demand plus
/// the round's aggregates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DistributionPlan {
    /// The strategy that produced the plan.
    pub strategy: StrategyKind,
    /// Per-item plans, sorted by item id.
    pub plans: Vec<DemandPlan>,
    /// Σ of the per-item costs (ms).
    pub total_cost_ms: f64,
    /// Σ of per-destination *contended* completion times (ms) from
    /// [`idde_net::simulate_concurrent`] — copies queuing on shared links
    /// included, which the analytic per-route delays deliberately ignore.
    pub total_delay_ms: f64,
    /// Destinations whose analytic delay broke the guarantee.
    pub delay_violations: u64,
    /// Destinations fed (directly or transitively) from a cloud seed.
    pub cloud_seeds: u64,
    /// Total replicas installed (= Σ destinations).
    pub replicas: u64,
}

/// Cumulative bulk-distribution counters a serving engine accumulates
/// across install rounds. Mirrors `CacheCounters`: the engine carries
/// `Option<DistCounters>` so a run with recording off keeps its metrics
/// schema byte-identical to builds that predate this layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DistCounters {
    /// Bulk-install rounds planned (initial install, post-outage
    /// re-replication and rebalancing handoffs each count one per round
    /// that actually moved replicas).
    pub bulk_installs: u64,
    /// Per-item distribution trees planned (merged demands across all
    /// rounds).
    pub tree_installs: u64,
    /// Replicas installed through planned routes.
    pub replicas_installed: u64,
    /// Destinations fed from a cloud seed.
    pub cloud_seeds: u64,
    /// Destinations whose analytic delay broke the guarantee.
    pub delay_violations: u64,
    /// Σ distribution cost across all rounds, ms.
    pub dist_cost_ms: f64,
    /// Σ contended per-destination completion times across all rounds, ms.
    pub dist_delay_ms: f64,
}

impl DistCounters {
    /// Folds one planned round into the running counters.
    pub fn record(&mut self, plan: &DistributionPlan) {
        self.bulk_installs += 1;
        self.tree_installs += plan.plans.len() as u64;
        self.replicas_installed += plan.replicas;
        self.cloud_seeds += plan.cloud_seeds;
        self.delay_violations += plan.delay_violations;
        self.dist_cost_ms += plan.total_cost_ms;
        self.dist_delay_ms += plan.total_delay_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record_plans() {
        let plan = DistributionPlan {
            strategy: StrategyKind::Steiner,
            plans: Vec::new(),
            total_cost_ms: 12.5,
            total_delay_ms: 40.0,
            delay_violations: 1,
            cloud_seeds: 2,
            replicas: 3,
        };
        let mut counters = DistCounters::default();
        counters.record(&plan);
        counters.record(&plan);
        assert_eq!(counters.bulk_installs, 2);
        assert_eq!(counters.replicas_installed, 6);
        assert!((counters.dist_cost_ms - 25.0).abs() < 1e-12);
    }

    #[test]
    fn strategy_kind_round_trips_through_strings() {
        for kind in [StrategyKind::Unicast, StrategyKind::Steiner] {
            assert_eq!(kind.to_string().parse::<StrategyKind>().unwrap(), kind);
        }
        assert!("multicast".parse::<StrategyKind>().is_err());
        assert_eq!(StrategyKind::default(), StrategyKind::Unicast);
    }

    #[test]
    fn plan_links_dedupe_and_normalise() {
        let plan = DemandPlan {
            data: DataId(0),
            size: MegaBytes(10.0),
            sources: vec![ServerId(0)],
            installs: vec![
                DestInstall {
                    destination: ServerId(2),
                    route: vec![ServerId(0), ServerId(1), ServerId(2)],
                    from_cloud: false,
                    delay_ms: 1.0,
                    violated: false,
                },
                DestInstall {
                    destination: ServerId(3),
                    route: vec![ServerId(0), ServerId(1), ServerId(3)],
                    from_cloud: true,
                    delay_ms: 2.0,
                    violated: false,
                },
            ],
            cost_ms: 3.0,
        };
        assert_eq!(
            plan.links(),
            vec![
                (ServerId(0), ServerId(1)),
                (ServerId(1), ServerId(2)),
                (ServerId(1), ServerId(3)),
            ]
        );
        assert_eq!(plan.cloud_feeds(), vec![ServerId(0)]);
    }
}
