//! # idde-dist — bulk replica distribution over the edge fabric
//!
//! Replica installation used to be item-by-item: initial placement,
//! post-outage re-replication and shard rebalancing each pushed every
//! replica independently over `idde-net`, ignoring that concurrent copies
//! of the *same* item can share tree edges. This crate plans those bulk
//! installs as explicit distribution trees, the EDD-NSTE reading of edge
//! data distribution:
//!
//! * an [`InstallDemand`] batches one item's `(source-set, destination-set)`
//!   installation round; overlapping demands for the same item are merged
//!   ([`merge_demands`]) before planning;
//! * [`DistributionStrategy`] turns a demand batch into a [`DistributionPlan`]
//!   over the *effective* (fault-masked) topology — pure accounting, the
//!   strategy never chooses *what* is replicated, only *how the bytes
//!   travel*, so the final `Placement` is strategy-invariant by
//!   construction;
//! * [`Unicast`] is the extracted item-by-item baseline: every destination
//!   independently pulls from its cheapest feed (closest surviving source,
//!   or the cloud), each copy paying its full path;
//! * [`SteinerTree`] plans one multi-source distribution tree per item via
//!   the classic 2-approximation — shortest-path metric closure over the
//!   terminals (all sources merged into one virtual root, the cloud priced
//!   as a universal fallback feed), minimum spanning tree of the closure,
//!   expansion of closure edges into physical paths, and pruning of links
//!   no delivery route uses. Shared tree links are charged **once**, which
//!   is the entire saving: per item, the tree cost is never above the
//!   unicast cost (the unicast star is one spanning tree of the closure,
//!   and the MST plus pruning only improve on it);
//! * contended transfer delays are charged through
//!   [`idde_net::simulate_concurrent`] — one transfer per destination from
//!   its feed point, so copies meeting on a link queue behind each other
//!   instead of magically overlapping.
//!
//! ## Cost and delay model
//!
//! The *distribution cost* of a plan is the network time bought: every
//! traversed link contributes `size · unit_cost` ms per copy carried
//! (Steiner carries one copy per tree link; unicast one per destination
//! whose path crosses it), and every cloud feed contributes the Eq. 7
//! cloud latency. The *analytic delay* of a destination is the pipelined
//! end-to-end latency of its delivery route: `size` times the route's
//! bottleneck unit cost, plus the cloud latency when the route starts with
//! a cloud feed. Cost is additive because every copy crosses every link;
//! delay is not, because a streamed copy is gated by its slowest link. A
//! destination violates the **delay guarantee** when its analytic delay
//! exceeds [`DistConfig::delay_factor`] times its unconstrained
//! direct-delivery optimum — the price the tree detour pays over the
//! per-destination widest path. `idde-audit` re-derives
//! every recorded cost, delay and violation count from the plan's routes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod demand;
pub mod plan;
pub mod strategy;

pub use demand::{merge_demands, InstallDemand};
pub use plan::{DemandPlan, DestInstall, DistConfig, DistCounters, DistributionPlan, StrategyKind};
pub use strategy::{DistributionStrategy, SteinerTree, Unicast};
