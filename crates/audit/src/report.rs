//! Audit findings: typed violations and the aggregated report.

use std::fmt;

use idde_model::{ChannelIndex, DataId, ServerId, UserId};

/// One invariant violation surfaced by an audit pass.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A channel's live occupant list disagrees with the rebuilt field.
    OccupantMismatch {
        /// Server owning the channel.
        server: ServerId,
        /// Channel index on the server.
        channel: ChannelIndex,
        /// Occupant count in the live field.
        live: usize,
        /// Occupant count in the rebuilt reference field.
        rebuilt: usize,
    },
    /// A channel's cached power sum drifted past the power tolerance.
    PowerSumDrift {
        /// Server owning the channel.
        server: ServerId,
        /// Channel index on the server.
        channel: ChannelIndex,
        /// Cached sum in the live field, watts.
        live: f64,
        /// From-scratch resummation, watts.
        rebuilt: f64,
    },
    /// An allocation decision violates constraint (1) or names a channel
    /// the server does not have.
    InfeasibleDecision {
        /// The allocated user.
        user: UserId,
        /// The (infeasible) serving server.
        server: ServerId,
        /// The (infeasible) channel.
        channel: ChannelIndex,
    },
    /// A user's cached-path SINR disagrees with the Eq. 2 reference
    /// recomputation.
    SinrMismatch {
        /// The user.
        user: UserId,
        /// SINR reported by the incremental field.
        live: f64,
        /// SINR recomputed from the raw profile.
        reference: f64,
    },
    /// A user's cached-path data rate disagrees with the Eqs. 3–4 reference.
    RateMismatch {
        /// The user.
        user: UserId,
        /// Rate reported by the incremental field, MB/s.
        live: f64,
        /// Rate recomputed from the raw profile, MB/s.
        reference: f64,
    },
    /// A player holds a unilateral deviation the game itself would commit —
    /// the profile is not at the game's quiescent point.
    ProfitableDeviation {
        /// The deviating player.
        user: UserId,
        /// Target server of the deviation.
        server: ServerId,
        /// Target channel of the deviation.
        channel: ChannelIndex,
        /// Benefit gain of the deviation.
        gain: f64,
    },
    /// The game's best-response scan disagrees, in some bit, with a
    /// per-candidate re-derivation through `IddeUGame::benefit_at`.
    BestResponseMismatch {
        /// The player.
        user: UserId,
        /// `(server, channel, benefit)` from the game's scan.
        live: Option<(ServerId, ChannelIndex, f64)>,
        /// `(server, channel, benefit)` from the per-candidate walk.
        reference: Option<(ServerId, ChannelIndex, f64)>,
    },
    /// A server's cached storage counter disagrees with the resummed
    /// placement column sizes.
    StorageCacheDrift {
        /// The server.
        server: ServerId,
        /// Cached used storage, MB.
        cached: f64,
        /// Recomputed used storage, MB.
        recomputed: f64,
    },
    /// A server stores more than its capacity — constraint (6) violated.
    StorageBudgetExceeded {
        /// The server.
        server: ServerId,
        /// Recomputed used storage, MB.
        used: f64,
        /// Server capacity, MB.
        capacity: f64,
    },
    /// A user is still allocated to (or coverable by) a server that is
    /// down — graceful degradation failed to displace them.
    DeadServerDecision {
        /// The stranded user.
        user: UserId,
        /// The downed server.
        server: ServerId,
    },
    /// A replica survives on a downed server — outage handling failed to
    /// strip its storage.
    DeadServerReplica {
        /// The downed server.
        server: ServerId,
        /// The surviving replica's data item.
        data: DataId,
    },
    /// A user slot is simultaneously active in two shards — the router's
    /// ownership handoff failed to pair the depart with the arrive.
    DuplicateActiveUser {
        /// The twice-active user.
        user: UserId,
        /// The two shard indices both claiming the user.
        shards: (usize, usize),
    },
    /// An active user's real decision names a server outside its shard's
    /// ownership — a shard allocated across the cut instead of treating the
    /// server as foreign.
    CrossShardDecision {
        /// The mis-allocated user.
        user: UserId,
        /// The foreign server the decision names.
        server: ServerId,
        /// The shard that made the decision.
        shard: usize,
    },
    /// A shard engine's network state is not the router's: its fault
    /// overlay differs, or it reads a private topology copy instead of the
    /// one shared allocation — so it prices paths on another network.
    NetworkDisagreement {
        /// The diverged shard.
        shard: usize,
    },
    /// A request's bookkept Eq. 8 delivery latency disagrees with the
    /// brute-force re-derivation (min over all replicas and the cloud).
    LatencyMismatch {
        /// The requesting user.
        user: UserId,
        /// The requested data item.
        data: DataId,
        /// Latency reported by the topology fast path, ms.
        live: f64,
        /// Brute-force re-derived latency, ms.
        reference: f64,
    },
    /// The combined solver + cache occupancy of a server exceeds its Eq. 6
    /// storage budget (cached replicas must fit the residual budget).
    CacheBudgetExceeded {
        /// The over-budget server.
        server: ServerId,
        /// Combined solver + cache occupancy, MB.
        used: f64,
        /// The server's reserved storage `A_i`, MB.
        capacity: f64,
    },
    /// A cached replica duplicates one in the solver placement — the cache
    /// store must stay disjoint so it never perturbs the game.
    CacheDuplicateReplica {
        /// The server holding both copies.
        server: ServerId,
        /// The duplicated item.
        data: DataId,
    },
    /// A cached replica survives on a downed server: a request routed to
    /// it would travel a path that no longer exists.
    CacheStaleReplica {
        /// The downed server.
        server: ServerId,
        /// The stale cached item.
        data: DataId,
    },
    /// A distribution route is structurally invalid: empty, ending away
    /// from its destination, hopping over a nonexistent link, or claiming
    /// an edge feed whose head holds no replica.
    DistRouteInvalid {
        /// The distributed item.
        data: DataId,
        /// The destination whose route is broken.
        destination: ServerId,
    },
    /// An install's recorded analytic delay disagrees with the re-derived
    /// (bottleneck) route latency.
    DistDelayMismatch {
        /// The distributed item.
        data: DataId,
        /// The destination.
        destination: ServerId,
        /// Delay the planner recorded, ms.
        recorded: f64,
        /// Delay re-derived from the route, ms.
        reference: f64,
    },
    /// A demand plan's recorded distribution cost disagrees with the
    /// re-derivation from its routes under the strategy's charging rule.
    DistCostMismatch {
        /// The distributed item.
        data: DataId,
        /// Cost the planner recorded, ms.
        recorded: f64,
        /// Cost re-derived from the routes, ms.
        reference: f64,
    },
    /// A demand plan claims a cost below the per-destination best-path
    /// lower bound — no delivery scheme can be that cheap.
    DistCostBelowLowerBound {
        /// The distributed item.
        data: DataId,
        /// Cost the planner recorded, ms.
        cost: f64,
        /// The provable lower bound, ms.
        lower_bound: f64,
    },
    /// The plan's delay-guarantee accounting disagrees with a recount of
    /// per-destination violations (or an individual flag is wrong).
    DistViolationMiscount {
        /// Violations the planner recorded.
        recorded: u64,
        /// Violations recounted from the routes.
        reference: u64,
    },
    /// A plan-level aggregate (total cost, replica count, cloud seeds)
    /// disagrees with the sum of its per-demand parts.
    DistAggregateMismatch {
        /// Which aggregate diverged.
        metric: &'static str,
        /// Value the planner recorded.
        recorded: f64,
        /// Value resummed from the per-demand plans.
        reference: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OccupantMismatch { server, channel, live, rebuilt } => write!(
                f,
                "channel ({server}, {channel}): occupant list diverged (live {live} vs rebuilt {rebuilt})"
            ),
            Violation::PowerSumDrift { server, channel, live, rebuilt } => write!(
                f,
                "channel ({server}, {channel}): power sum drifted (live {live} W vs rebuilt {rebuilt} W)"
            ),
            Violation::InfeasibleDecision { user, server, channel } => write!(
                f,
                "user {user}: decision ({server}, {channel}) violates coverage/channel feasibility"
            ),
            Violation::SinrMismatch { user, live, reference } => write!(
                f,
                "user {user}: SINR mismatch (incremental {live} vs Eq. 2 reference {reference})"
            ),
            Violation::RateMismatch { user, live, reference } => write!(
                f,
                "user {user}: rate mismatch (incremental {live} vs Eq. 3-4 reference {reference} MB/s)"
            ),
            Violation::ProfitableDeviation { user, server, channel, gain } => write!(
                f,
                "user {user}: profitable deviation to ({server}, {channel}), gain {gain}"
            ),
            Violation::BestResponseMismatch { user, live, reference } => write!(
                f,
                "user {user}: best response mismatch (scan {live:?} vs per-candidate walk {reference:?})"
            ),
            Violation::StorageCacheDrift { server, cached, recomputed } => write!(
                f,
                "server {server}: storage cache drifted (cached {cached} vs recomputed {recomputed} MB)"
            ),
            Violation::StorageBudgetExceeded { server, used, capacity } => write!(
                f,
                "server {server}: storage budget exceeded ({used} MB used of {capacity} MB)"
            ),
            Violation::DeadServerDecision { user, server } => write!(
                f,
                "user {user}: still tied to downed server {server}"
            ),
            Violation::DeadServerReplica { server, data } => write!(
                f,
                "server {server}: replica of data {data} survives the outage"
            ),
            Violation::DuplicateActiveUser { user, shards } => write!(
                f,
                "user {user}: active in shards {} and {} at once",
                shards.0, shards.1
            ),
            Violation::CrossShardDecision { user, server, shard } => write!(
                f,
                "user {user}: shard {shard} allocated it onto foreign server {server}"
            ),
            Violation::NetworkDisagreement { shard } => write!(
                f,
                "shard {shard}: fault overlay or topology diverged from the shared network"
            ),
            Violation::LatencyMismatch { user, data, live, reference } => write!(
                f,
                "request ({user}, {data}): latency mismatch (bookkept {live} vs re-derived {reference} ms)"
            ),
            Violation::CacheBudgetExceeded { server, used, capacity } => write!(
                f,
                "server {server}: solver + cache occupancy {used} MB exceeds budget {capacity} MB"
            ),
            Violation::CacheDuplicateReplica { server, data } => write!(
                f,
                "server {server}: data {data} cached despite a solver replica on the same server"
            ),
            Violation::CacheStaleReplica { server, data } => write!(
                f,
                "server {server}: cached replica of data {data} survives the outage"
            ),
            Violation::DistRouteInvalid { data, destination } => write!(
                f,
                "distribution of data {data}: route to {destination} is structurally invalid"
            ),
            Violation::DistDelayMismatch { data, destination, recorded, reference } => write!(
                f,
                "distribution of data {data} to {destination}: delay mismatch (recorded {recorded} vs re-derived {reference} ms)"
            ),
            Violation::DistCostMismatch { data, recorded, reference } => write!(
                f,
                "distribution of data {data}: cost mismatch (recorded {recorded} vs re-derived {reference} ms)"
            ),
            Violation::DistCostBelowLowerBound { data, cost, lower_bound } => write!(
                f,
                "distribution of data {data}: cost {cost} ms undercuts the best-path lower bound {lower_bound} ms"
            ),
            Violation::DistViolationMiscount { recorded, reference } => write!(
                f,
                "distribution plan: {recorded} delay violations recorded, recount found {reference}"
            ),
            Violation::DistAggregateMismatch { metric, recorded, reference } => write!(
                f,
                "distribution plan: {metric} aggregate drifted (recorded {recorded} vs resummed {reference})"
            ),
        }
    }
}

/// Outcome of one audit pass: how many invariants were checked and every
/// violation found. Reports are pure functions of the audited state — no
/// wall-clock quantities — so audited runs stay deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditReport {
    /// Number of individual invariant checks evaluated.
    pub checks: u64,
    /// Every violated invariant, in audit order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when every check passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records one check; `violation` is evaluated only on failure.
    pub(crate) fn check(&mut self, ok: bool, violation: impl FnOnce() -> Violation) {
        self.checks += 1;
        if !ok {
            self.violations.push(violation());
        }
    }

    /// Folds another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "audit: {} checks, {} violations", self.checks, self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  VIOLATION: {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_merges_and_displays() {
        let mut a = AuditReport::new();
        a.check(true, || unreachable!("passing checks never build a violation"));
        assert!(a.is_clean());
        let mut b = AuditReport::new();
        b.check(false, || Violation::SinrMismatch { user: UserId(3), live: 1.0, reference: 2.0 });
        a.merge(b);
        assert_eq!(a.checks, 2);
        assert!(!a.is_clean());
        let text = a.to_string();
        assert!(text.contains("2 checks, 1 violations"));
        assert!(text.contains("user 3: SINR mismatch"), "{text}");
    }
}
