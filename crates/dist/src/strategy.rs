//! The delivery strategies: the extracted unicast baseline and the
//! Steiner-tree 2-approximation multicast planner.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use idde_model::ServerId;
use idde_net::{
    best_path, dijkstra_from_set, simulate_concurrent, EdgeGraph, Topology, Transfer, UNREACHABLE,
};

use crate::demand::{merge_demands, InstallDemand};
use crate::plan::{DemandPlan, DestInstall, DistConfig, DistributionPlan, StrategyKind};

/// Plans how a bulk-install round's bytes travel. Strategies never choose
/// *what* is replicated — the destination sets come in as demands — so the
/// resulting [`Placement`](idde_model::Placement) is strategy-invariant by
/// construction and strategies differ only in cost and delay.
pub trait DistributionStrategy {
    /// Plans a bulk-install round over the effective (fault-masked)
    /// topology. Demands are [merged](merge_demands) first, so overlapping
    /// rounds for the same item share one plan.
    fn plan(
        &self,
        topology: &Topology,
        demands: &[InstallDemand],
        config: &DistConfig,
    ) -> DistributionPlan;
}

impl StrategyKind {
    /// A boxed instance of the strategy this kind names.
    pub fn strategy(self) -> Box<dyn DistributionStrategy + Send + Sync> {
        match self {
            StrategyKind::Unicast => Box::new(Unicast),
            StrategyKind::Steiner => Box::new(SteinerTree),
        }
    }
}

/// The item-by-item baseline: every destination independently pulls a full
/// copy from its cheapest feed (the surviving source with the widest path,
/// or the cloud), each copy paying every link of its own route.
#[derive(Clone, Copy, Debug, Default)]
pub struct Unicast;

impl DistributionStrategy for Unicast {
    fn plan(
        &self,
        topology: &Topology,
        demands: &[InstallDemand],
        config: &DistConfig,
    ) -> DistributionPlan {
        let mut plans = Vec::new();
        for demand in merge_demands(demands) {
            let size = demand.size.value();
            let cloud_ms = topology.cloud_latency(demand.size).value();
            let installs: Vec<DestInstall> = demand
                .destinations
                .iter()
                .map(|&dest| direct_install(topology, &demand, dest, config))
                .collect();
            let cost_ms = installs
                .iter()
                .map(|i| {
                    if i.from_cloud {
                        cloud_ms
                    } else {
                        size * route_units(topology.graph(), &i.route)
                    }
                })
                .sum();
            plans.push(DemandPlan {
                data: demand.data,
                size: demand.size,
                sources: demand.sources,
                installs,
                cost_ms,
            });
        }
        assemble(StrategyKind::Unicast, topology, plans)
    }
}

/// The EDD-NSTE multicast planner: one multi-source Steiner tree per item
/// via the classic 2-approximation — all sources collapse into a virtual
/// root (the cloud priced as a universal fallback feed), a shortest-path
/// metric closure is built over `{root} ∪ destinations`, its minimum
/// spanning tree is expanded back into physical paths, and links no
/// delivery route ends up using are pruned before costing. Shared tree
/// links carry one copy and are charged once.
#[derive(Clone, Copy, Debug, Default)]
pub struct SteinerTree;

impl DistributionStrategy for SteinerTree {
    fn plan(
        &self,
        topology: &Topology,
        demands: &[InstallDemand],
        config: &DistConfig,
    ) -> DistributionPlan {
        let plans =
            merge_demands(demands).into_iter().map(|d| plan_tree(topology, &d, config)).collect();
        assemble(StrategyKind::Steiner, topology, plans)
    }
}

/// A destination's direct feed and its delay: the cheapest surviving
/// source under pipelined costs (`Some`), or the cloud (`None`) when no
/// source is faster. Its delay is the `direct` optimum the delay guarantee
/// is measured against. Ties go to the lowest server id (sources are
/// sorted), and the cloud wins only when strictly faster.
fn direct_feed(
    topology: &Topology,
    demand: &InstallDemand,
    dest: ServerId,
) -> (Option<ServerId>, f64) {
    let size = demand.size.value();
    let cloud_ms = topology.cloud_latency(demand.size).value();
    let mut best: Option<(f64, ServerId)> = None;
    for &s in &demand.sources {
        if let Some(unit) = topology.try_unit_cost(s, dest) {
            let edge_ms = size * unit;
            if best.is_none_or(|(b, _)| edge_ms < b) {
                best = Some((edge_ms, s));
            }
        }
    }
    match best {
        Some((edge_ms, source)) if edge_ms <= cloud_ms => (Some(source), edge_ms),
        _ => (None, cloud_ms),
    }
}

/// A destination's install over its [direct feed](direct_feed): the widest
/// path from the source, or the cloud landing on the destination itself.
/// It meets the delay guarantee whenever `delay_factor ≥ 1`.
fn direct_install(
    topology: &Topology,
    demand: &InstallDemand,
    dest: ServerId,
    config: &DistConfig,
) -> DestInstall {
    let (feed, delay_ms) = direct_feed(topology, demand, dest);
    let route = match feed {
        Some(source) => {
            best_path(topology.graph(), source, dest).expect("a finite unit cost implies a path")
        }
        None => vec![dest],
    };
    DestInstall {
        destination: dest,
        route,
        from_cloud: feed.is_none(),
        delay_ms,
        violated: delay_ms > config.delay_factor * delay_ms + 1e-9,
    }
}

/// Plans one item's distribution tree. All shortest-path work runs in
/// per-MB unit-cost space (both link and cloud latency scale linearly with
/// the item size), and sizes multiply back in at the end.
///
/// A destination the tree would serve slower than `delay_factor` times its
/// [direct feed](direct_feed) takes its [direct install](direct_install)
/// instead, so with `delay_factor ≥ 1` no install breaks the delay
/// guarantee. Its links and landing join the same charged union as the
/// tree's. When such detours make the item cost more than every
/// destination on its direct install would, the item takes that plan,
/// which never costs more than unicast.
fn plan_tree(topology: &Topology, demand: &InstallDemand, config: &DistConfig) -> DemandPlan {
    let graph = topology.graph();
    let size = demand.size.value();
    let cloud_ms = topology.cloud_latency(demand.size).value();
    let cloud_unit = if size > 0.0 { cloud_ms / size } else { 0.0 };

    // Feed field: distance to the nearest source, with the cloud available
    // as a seed of weight `cloud_unit` at every node. Every destination is
    // reachable in this field, so the tree always completes.
    let mut inits: Vec<(ServerId, f64)> =
        (0..graph.num_nodes()).map(|v| (ServerId(v as u32), cloud_unit)).collect();
    inits.extend(demand.sources.iter().map(|&s| (s, 0.0)));
    let (root_dist, root_parent) = dijkstra_from_set(graph, &inits);

    // Metric closure between destinations: one single-source run per
    // destination, kept for parent-chain expansion below.
    let dest_runs: Vec<(Vec<f64>, Vec<Option<u32>>)> =
        demand.destinations.iter().map(|&d| dijkstra_from_set(graph, &[(d, 0.0)])).collect();

    // Prim over {virtual root} ∪ destinations, rooted at the virtual root.
    // Ties pick the lowest destination id (destinations are sorted).
    let dn = demand.destinations.len();
    let mut in_tree = vec![false; dn];
    let mut best: Vec<f64> = demand.destinations.iter().map(|&d| root_dist[d.index()]).collect();
    let mut via: Vec<Option<usize>> = vec![None; dn];
    let mut join_order: Vec<(usize, Option<usize>)> = Vec::with_capacity(dn);
    for _ in 0..dn {
        let mut pick = None;
        for i in 0..dn {
            if !in_tree[i] && pick.is_none_or(|p: usize| best[i] < best[p]) {
                pick = Some(i);
            }
        }
        let i = pick.expect("merged demands have at least one destination");
        in_tree[i] = true;
        join_order.push((i, via[i]));
        for j in 0..dn {
            let closure = dest_runs[i].0[demand.destinations[j].index()];
            if !in_tree[j] && closure < best[j] {
                best[j] = closure;
                via[j] = Some(i);
            }
        }
    }

    // Expand closure edges back into physical paths, collecting the tree's
    // links, nodes and cloud landing points.
    let norm = |a: u32, b: u32| (a.min(b), a.max(b));
    let mut tree_links: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut tree_nodes: BTreeSet<u32> = BTreeSet::new();
    let mut landings: BTreeSet<u32> = BTreeSet::new();
    for &(i, attach) in &join_order {
        let parents = match attach {
            None => &root_parent,
            Some(j) => &dest_runs[j].1,
        };
        let mut cur = demand.destinations[i].0;
        tree_nodes.insert(cur);
        while let Some(p) = parents[cur as usize] {
            tree_links.insert(norm(cur, p));
            tree_nodes.insert(p);
            cur = p;
        }
        // A root-edge walk ends at its seed: a surviving source feeds the
        // tree in place, anything else is a cloud landing.
        if attach.is_none() && demand.sources.binary_search(&ServerId(cur)).is_err() {
            landings.insert(cur);
        }
    }

    // Any source sitting on the tree can feed it, not just the seeds the
    // expansion happened to end on.
    let feeds: Vec<u32> =
        demand.sources.iter().map(|s| s.0).filter(|s| tree_nodes.contains(s)).collect();

    // Delivery routes and analytic delays, restricted to the tree.
    let net = TreeNet::new(graph, &tree_nodes, &tree_links);
    let feed_inits: Vec<(usize, f64)> = feeds.iter().map(|&s| (net.index(s), 0.0)).collect();
    let landing_inits: Vec<(usize, f64)> = landings.iter().map(|&l| (net.index(l), 0.0)).collect();
    let mut installs = Vec::with_capacity(dn);
    // Bottleneck fields from the sources and from the landings; the cloud
    // hop is a separate stage, so its latency adds on top.
    let (src_w, src_p) = net.search(&feed_inits);
    let (cld_w, cld_p) = net.search(&landing_inits);
    for &dest in &demand.destinations {
        let idx = net.index(dest.0);
        let edge_ms = if src_w[idx] == UNREACHABLE { UNREACHABLE } else { size * src_w[idx] };
        let cloud_del =
            if cld_w[idx] == UNREACHABLE { UNREACHABLE } else { cloud_ms + size * cld_w[idx] };
        if edge_ms <= cloud_del {
            installs.push((dest, net.route_to(&src_p, idx), false, edge_ms));
        } else {
            installs.push((dest, net.route_to(&cld_p, idx), true, cloud_del));
        }
    }

    // The delay guarantee: a destination past the bound takes its direct
    // install.
    let mut detoured = false;
    let mut installs: Vec<DestInstall> = installs
        .into_iter()
        .map(|(dest, route, from_cloud, delay_ms)| {
            let bound = config.delay_factor * direct_feed(topology, demand, dest).1 + 1e-9;
            if delay_ms > bound {
                detoured = true;
                return direct_install(topology, demand, dest, config);
            }
            DestInstall { destination: dest, route, from_cloud, delay_ms, violated: false }
        })
        .collect();
    let mut cost_ms = shared_cost(graph, size, cloud_ms, &installs);
    if detoured {
        let direct: Vec<DestInstall> = demand
            .destinations
            .iter()
            .map(|&dest| direct_install(topology, demand, dest, config))
            .collect();
        let direct_cost = shared_cost(graph, size, cloud_ms, &direct);
        if direct_cost < cost_ms {
            (installs, cost_ms) = (direct, direct_cost);
        }
    }

    DemandPlan {
        data: demand.data,
        size: demand.size,
        sources: demand.sources.clone(),
        installs,
        cost_ms,
    }
}

/// The cost of installs that share their links and landings: only links
/// (and landings) some route uses are charged, each once, as a shared link
/// carries one copy.
fn shared_cost(graph: &EdgeGraph, size: f64, cloud_ms: f64, installs: &[DestInstall]) -> f64 {
    let norm = |a: u32, b: u32| (a.min(b), a.max(b));
    let mut used_links: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut used_landings: BTreeSet<u32> = BTreeSet::new();
    for install in installs {
        for w in install.route.windows(2) {
            used_links.insert(norm(w[0].0, w[1].0));
        }
        if install.from_cloud {
            used_landings.insert(install.route[0].0);
        }
    }
    size * used_links.iter().map(|&(a, b)| link_unit(graph, a, b)).sum::<f64>()
        + used_landings.len() as f64 * cloud_ms
}

/// Chunk count handed to [`simulate_concurrent`] when charging contended
/// transfer delays.
const TRANSFER_CHUNKS: usize = 64;

/// Charges the round's contended transfer delays and totals the aggregates.
fn assemble(kind: StrategyKind, topology: &Topology, plans: Vec<DemandPlan>) -> DistributionPlan {
    let mut transfers = Vec::new();
    for plan in &plans {
        let cloud_ms = topology.cloud_latency(plan.size).value();
        for install in &plan.installs {
            transfers.push(Transfer {
                from: *install.route.first().expect("routes are never empty"),
                to: install.destination,
                size: plan.size,
                // A cloud-fed route starts once its seed lands at the edge.
                start_ms: if install.from_cloud { cloud_ms } else { 0.0 },
            });
        }
    }
    let completions = simulate_concurrent(topology, &transfers, TRANSFER_CHUNKS)
        .expect("planned transfers are well-formed");
    let total_delay_ms = completions.iter().flatten().map(|ms| ms.value()).sum();
    DistributionPlan {
        strategy: kind,
        total_cost_ms: plans.iter().map(|p| p.cost_ms).sum(),
        total_delay_ms,
        delay_violations: plans.iter().flat_map(|p| &p.installs).filter(|i| i.violated).count()
            as u64,
        cloud_seeds: plans.iter().flat_map(|p| &p.installs).filter(|i| i.from_cloud).count() as u64,
        replicas: plans.iter().map(|p| p.installs.len() as u64).sum(),
        plans,
    }
}

/// Per-MB cost of the cheapest physical link joining `a` and `b` (parallel
/// links route over the cheaper one).
fn link_unit(graph: &EdgeGraph, a: u32, b: u32) -> f64 {
    graph
        .neighbors(ServerId(a))
        .iter()
        .filter(|&&(n, _)| n == b)
        .map(|&(_, cost)| cost)
        .fold(UNREACHABLE, f64::min)
}

/// Additive per-MB cost of a concrete route.
fn route_units(graph: &EdgeGraph, route: &[ServerId]) -> f64 {
    route.windows(2).map(|w| link_unit(graph, w[0].0, w[1].0)).sum()
}

/// The tree subgraph a Steiner plan delivers over, with deterministic
/// multi-source searches (ties resolved by node id).
struct TreeNet {
    /// Sorted tree node ids; local indices point into this.
    nodes: Vec<u32>,
    adj: Vec<Vec<(usize, f64)>>,
}

impl TreeNet {
    fn new(graph: &EdgeGraph, nodes: &BTreeSet<u32>, links: &BTreeSet<(u32, u32)>) -> Self {
        let nodes: Vec<u32> = nodes.iter().copied().collect();
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nodes.len()];
        for &(a, b) in links {
            let ia = nodes.binary_search(&a).expect("link endpoints are tree nodes");
            let ib = nodes.binary_search(&b).expect("link endpoints are tree nodes");
            let unit = link_unit(graph, a, b);
            adj[ia].push((ib, unit));
            adj[ib].push((ia, unit));
        }
        Self { nodes, adj }
    }

    fn index(&self, node: u32) -> usize {
        self.nodes.binary_search(&node).expect("queried node is on the tree")
    }

    /// Multi-source bottleneck (minimax) Dijkstra over the tree.
    fn search(&self, inits: &[(usize, f64)]) -> (Vec<f64>, Vec<Option<usize>>) {
        let mut dist = vec![UNREACHABLE; self.nodes.len()];
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        for &(i, cost) in inits {
            if cost < dist[i] {
                dist[i] = cost;
            }
        }
        let mut heap: BinaryHeap<TreeEntry> = dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != UNREACHABLE)
            .map(|(node, &cost)| TreeEntry { cost, node })
            .collect();
        while let Some(TreeEntry { cost, node }) = heap.pop() {
            if cost > dist[node] {
                continue; // stale entry
            }
            for &(next, unit) in &self.adj[node] {
                let candidate = cost.max(unit);
                if candidate < dist[next] {
                    dist[next] = candidate;
                    parent[next] = Some(node);
                    heap.push(TreeEntry { cost: candidate, node: next });
                }
            }
        }
        (dist, parent)
    }

    /// The route from a search's seed to `target`, seed first.
    fn route_to(&self, parent: &[Option<usize>], target: usize) -> Vec<ServerId> {
        let mut route = vec![ServerId(self.nodes[target])];
        let mut cur = target;
        while let Some(p) = parent[cur] {
            cur = p;
            route.push(ServerId(self.nodes[cur]));
        }
        route.reverse();
        route
    }
}

/// Min-heap entry: lowest cost first, ties broken by lowest node id so the
/// search (and therefore every planned route) is deterministic.
#[derive(PartialEq)]
struct TreeEntry {
    cost: f64,
    node: usize,
}

impl Eq for TreeEntry {}

impl Ord for TreeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("search costs are finite")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for TreeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::{DataId, MegaBytes, MegaBytesPerSec};
    use idde_net::Link;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn topo(n: usize, links: &[(u32, u32, f64)]) -> Topology {
        let links = links
            .iter()
            .map(|&(a, b, s)| Link { a: ServerId(a), b: ServerId(b), speed: MegaBytesPerSec(s) })
            .collect();
        Topology::new(EdgeGraph::new(n, links), MegaBytesPerSec(600.0))
    }

    fn demand(data: u32, size: f64, sources: &[u32], dests: &[u32]) -> InstallDemand {
        InstallDemand {
            data: DataId(data),
            size: MegaBytes(size),
            sources: sources.iter().map(|&s| ServerId(s)).collect(),
            destinations: dests.iter().map(|&d| ServerId(d)).collect(),
        }
    }

    #[test]
    fn line_graph_tree_shares_the_trunk() {
        // 0 —0.5— 1 —0.5— 2 —0.5— 3 (all 2000 MB/s), cloud 600 MB/s.
        // 60 MB from source 0 to {2, 3}: cloud feed costs 100 ms.
        let topo = topo(4, &[(0, 1, 2000.0), (1, 2, 2000.0), (2, 3, 2000.0)]);
        let demands = [demand(0, 60.0, &[0], &[2, 3])];
        let config = DistConfig::default();

        let uni = Unicast.plan(&topo, &demands, &config);
        // Destination 2 pays 0→1→2 (60 ms), destination 3 pays 0→1→2→3
        // (90 ms): links 0–1 and 1–2 are paid twice.
        assert!((uni.total_cost_ms - 150.0).abs() < 1e-9, "unicast cost {}", uni.total_cost_ms);
        assert_eq!(uni.cloud_seeds, 0);
        assert_eq!(uni.delay_violations, 0);
        assert_eq!(uni.replicas, 2);

        let st = SteinerTree.plan(&topo, &demands, &config);
        // The tree charges each of the three links once: 90 ms.
        assert!((st.total_cost_ms - 90.0).abs() < 1e-9, "steiner cost {}", st.total_cost_ms);
        assert_eq!(st.cloud_seeds, 0);
        assert_eq!(st.delay_violations, 0);
        let routes: Vec<&[ServerId]> =
            st.plans[0].installs.iter().map(|i| i.route.as_slice()).collect();
        assert_eq!(routes[0], &[ServerId(0), ServerId(1), ServerId(2)]);
        assert_eq!(routes[1], &[ServerId(0), ServerId(1), ServerId(2), ServerId(3)]);
        // Both stream behind the same 2000 MB/s bottleneck: 30 ms each.
        assert!((st.plans[0].installs[0].delay_ms - 30.0).abs() < 1e-9);
        assert!((st.plans[0].installs[1].delay_ms - 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sources_seed_from_the_cloud_once() {
        // No survivors hold the item: unicast pulls the 100 ms cloud feed
        // per destination, the tree lands one seed and fans out over the
        // 30 ms link.
        let topo = topo(2, &[(0, 1, 2000.0)]);
        let demands = [demand(0, 60.0, &[], &[0, 1])];
        let config = DistConfig::default();

        let uni = Unicast.plan(&topo, &demands, &config);
        assert!((uni.total_cost_ms - 200.0).abs() < 1e-9);
        assert_eq!(uni.cloud_seeds, 2);

        let st = SteinerTree.plan(&topo, &demands, &config);
        assert!((st.total_cost_ms - 130.0).abs() < 1e-9, "steiner cost {}", st.total_cost_ms);
        // Both destinations are cloud-fed, but through a single landing.
        assert_eq!(st.cloud_seeds, 2);
        assert_eq!(st.plans[0].cloud_feeds(), vec![ServerId(0)]);
        assert!((st.plans[0].installs[1].delay_ms - 130.0).abs() < 1e-9);
        assert_eq!(st.delay_violations, 0);
    }

    #[test]
    fn delay_guarantee_flags_routes_past_the_factor() {
        // With a sub-1 factor even the direct-optimal unicast routes break
        // the guarantee, so the violation counter must see every install.
        let topo = topo(4, &[(0, 1, 2000.0), (1, 2, 2000.0)]);
        let demands = [demand(0, 60.0, &[0], &[1, 2])];
        let strict = DistConfig { delay_factor: 0.5, ..DistConfig::default() };
        let uni = Unicast.plan(&topo, &demands, &strict);
        assert_eq!(uni.delay_violations, 2);
        let lax = DistConfig::default();
        assert_eq!(Unicast.plan(&topo, &demands, &lax).delay_violations, 0);
    }

    #[test]
    fn pipelined_delays_are_bottleneck_gated() {
        // 60 MB over 0→1→2 with a 4000 MB/s bottleneck streams in 15 ms,
        // not the 45 ms store-and-forward sum.
        let topo = topo(3, &[(0, 1, 6000.0), (1, 2, 4000.0)]);
        let demands = [demand(0, 60.0, &[0], &[2])];
        let st = SteinerTree.plan(&topo, &demands, &DistConfig::default());
        assert!((st.plans[0].installs[0].delay_ms - 15.0).abs() < 1e-9);
        // Cost stays additive: both links are traversed.
        assert!((st.total_cost_ms - 60.0 * (1.0 / 6.0 + 0.25)).abs() < 1e-9);
    }

    #[test]
    fn overlapping_demands_are_planned_once() {
        let topo = topo(3, &[(0, 1, 2000.0), (1, 2, 2000.0)]);
        let demands =
            [demand(0, 60.0, &[0], &[1]), demand(0, 60.0, &[0], &[2]), demand(1, 10.0, &[], &[1])];
        let st = SteinerTree.plan(&topo, &demands, &DistConfig::default());
        assert_eq!(st.plans.len(), 2);
        assert_eq!(st.plans[0].installs.len(), 2);
        assert_eq!(st.replicas, 3);
    }

    fn random_case(seed: u64) -> (Topology, Vec<InstallDemand>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(2..=14usize);
        let m = rng.gen_range(0..=(5 * n / 2));
        let mut links = Vec::new();
        for _ in 0..m {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a != b {
                links.push((a, b, rng.gen_range(500.0..8000.0f64)));
            }
        }
        let topo = topo(n, &links);
        let items = rng.gen_range(1..=3);
        let mut demands = Vec::new();
        for data in 0..items {
            let size = rng.gen_range(1.0..200.0f64);
            let sources: Vec<u32> = (0..n as u32).filter(|_| rng.gen_range(0..4) == 0).collect();
            let dests: Vec<u32> = (0..n as u32).filter(|_| rng.gen_range(0..2) == 0).collect();
            demands.push(demand(data, size, &sources, &dests));
        }
        (topo, demands)
    }

    #[test]
    fn costly_detours_fall_back_to_every_direct_install() {
        // In this case the tree's detours for item 2 would cost more than
        // unicast, so the item takes every destination's direct install,
        // which charges each shared link once.
        let (topo, demands) = random_case(31_001);
        let config = DistConfig::default();
        let item = |plan: &DistributionPlan| {
            plan.plans.iter().find(|p| p.data == DataId(2)).expect("item 2 is planned").clone()
        };
        let uni = item(&Unicast.plan(&topo, &demands, &config));
        let st = SteinerTree.plan(&topo, &demands, &config);
        assert_eq!(st.delay_violations, 0);
        let st = item(&st);
        assert_eq!(st.installs, uni.installs);
        assert!(
            st.cost_ms <= uni.cost_ms + 1e-9,
            "steiner {} > unicast {}",
            st.cost_ms,
            uni.cost_ms
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The tree never costs more than the unicast star (per item and in
        /// total), keeps the delay guarantee, installs the exact same
        /// replica set, and both planners are deterministic.
        #[test]
        fn steiner_never_costs_more_than_unicast(seed in 0u64..50_000) {
            let (topo, demands) = random_case(seed);
            let config = DistConfig::default();
            let uni = Unicast.plan(&topo, &demands, &config);
            let st = SteinerTree.plan(&topo, &demands, &config);
            prop_assert!(
                st.total_cost_ms <= uni.total_cost_ms + 1e-9,
                "steiner {} > unicast {}", st.total_cost_ms, uni.total_cost_ms
            );
            prop_assert_eq!(st.delay_violations, 0);
            prop_assert_eq!(uni.plans.len(), st.plans.len());
            for (u, s) in uni.plans.iter().zip(&st.plans) {
                prop_assert!(s.cost_ms <= u.cost_ms + 1e-9, "item {} regressed", u.data);
                let udests: Vec<ServerId> = u.installs.iter().map(|i| i.destination).collect();
                let sdests: Vec<ServerId> = s.installs.iter().map(|i| i.destination).collect();
                prop_assert_eq!(udests, sdests);
                for install in u.installs.iter().chain(&s.installs) {
                    prop_assert!(install.delay_ms.is_finite());
                    prop_assert_eq!(*install.route.last().unwrap(), install.destination);
                }
            }
            prop_assert_eq!(uni.replicas, st.replicas);
            // Replanning the same inputs reproduces the plans bit for bit.
            prop_assert_eq!(SteinerTree.plan(&topo, &demands, &config), st);
            prop_assert_eq!(Unicast.plan(&topo, &demands, &config), uni);
        }
    }
}
