//! Phase #2 of IDDE-G: the greedy data delivery heuristic.
//!
//! Given the Phase #1 allocation profile `α`, Algorithm 1 (lines 22–26)
//! repeatedly commits the delivery decision `σ_{i,k}` with the highest ratio
//! of latency reduction over used storage (Eq. 17),
//!
//! ```text
//! σ_{i,k} = argmax { (L(σ) − L(σ ∪ σ_{i,k})) / s_k }
//! ```
//!
//! subject to the storage constraint (6), stopping when no feasible decision
//! remains. Theorems 6 and 7 bound the achieved latency reduction by a
//! `(e−1)/2e` factor of the optimum (the objective is monotone submodular:
//! each request's latency is a `min` over placed replicas).
//!
//! ## Lazy evaluation
//!
//! Placing `σ_{i,k}` only lowers latencies of requests *for `d_k`*, and a
//! lower latency can only lower a score of column `k`. That is the setting
//! of Minoux's accelerated ("lazy") greedy: every column is scored once,
//! the feasible candidates go into a max-heap, and a candidate is re-scored
//! only when it reaches the top with a score that predates the last commit
//! of its item. The result is bit-identical to rescanning the column after
//! every commit:
//!
//! * **Monotone f64 steps.** A score is a sequential sum, from `0.0`, of
//!   `cur[r] − via` over the requests with `via < cur[r]`, divided by the
//!   positive `s_k`. Rounded subtraction, the skip of non-positive terms,
//!   rounded addition and division by a positive number are each monotone,
//!   and `cur` only falls, so a stale score bounds the fresh one bit for
//!   bit.
//! * **Heap order.** Entries pop by score descending (`f64::total_cmp`; a
//!   score is never NaN or `−0.0`), then server ascending, then data
//!   ascending. With stale scores as upper bounds, the first entry popped
//!   with a fresh score is exactly the rescan's first strict maximum.
//! * **Feasibility only shrinks.** A stored item and an overfull server
//!   stay so for the rest of the run, so an entry found infeasible at pop
//!   is dropped for good. Unless `fill_zero_benefit` is set, an entry whose
//!   score is not positive is never pushed: it can only end the run, and
//!   the run also ends when the heap empties.
//! * **Served requests.** A request at latency `0.0` never contributes
//!   (`via < 0.0` is never true), so each item keeps only its requests with
//!   positive latency, in their original order: every remaining sum adds
//!   the same terms in the same order, and dropping `+0.0` addends leaves
//!   the final latency total unchanged.
//!
//! The initial columns are scored with `idde_par::par_fill`; every slot is
//! an independent pure computation, so the scores are bit-identical for any
//! worker count.
//!
//! ## Eviction
//!
//! Before each online repair, [`evict_useless_replicas`] drops replicas
//! that no longer lower any Eq. 8 latency. A replica of `d_k` on `v_s` is
//! needed iff some allocated requester of `d_k`, served by `v_t`, would get
//! strictly slower without it: `L(s,t) + 1e-12 < W_t`, where `W_t` is the
//! minimum over the cloud and the item's *other* live holders. A replica's
//! fate therefore depends only on its own item's holders, so the
//! server-major sweep is the same as handling each item's holders in
//! ascending server order.
//!
//! Per item, the sweep keeps for every distinct target `t` the two
//! smallest latencies over the live holders and the cloud (the cloud is a
//! holder that is never evicted; unreachable pairs are `+inf`), with the
//! holders that achieve them. `W_t` without `s` is the runner-up when `s`
//! is the minimum and the minimum otherwise, and `L(s,t) ≥` the minimum, so
//! `s` is needed iff some `t` has `s` first and `first + 1e-12 < second`.
//! Ties need no special case: if `s` ties another source for first, that
//! source caps `W_t` at `L(s,t)` whichever of the two is ranked first.
//! Foreign holders count in the minima but are never evicted. Evicting `s`
//! only rescans the targets where `s` was first or second, so an item
//! costs `O(H_k · T_k)` instead of the rescan's `O(H_k² · R_k)`
//! (`H_k` holders, `T_k` distinct targets, `R_k` requests).
//!
//! **Removal order.** `Placement::used` is an `f64` accumulator, so the
//! order of removals on one server decides its bits (and with them the
//! greedy's `remaining` test). Items are swept in ascending id order and
//! removed as they are decided, so every server sees its removals in
//! ascending data order — the order of a server-major sweep.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use idde_model::{Allocation, DataId, MegaBytes, Milliseconds, Placement, ServerId};
use idde_net::Topology;

use crate::problem::Problem;

/// Tunables of the greedy delivery phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryConfig {
    /// Algorithm 1 line 26 stops at "no feasible delivery decision"; with
    /// the default `false` we additionally stop once the best feasible
    /// decision reduces latency by zero (placing it would only burn storage
    /// and never helps Eq. 9). `true` is the paper-literal mode.
    pub fill_zero_benefit: bool,
}

/// Result of the greedy delivery phase.
#[derive(Clone, Debug)]
pub struct DeliveryOutcome {
    /// The data delivery profile `σ`.
    pub placement: Placement,
    /// Number of committed placements (Phase #2 iterations).
    pub iterations: usize,
    /// `φ`: the all-cloud total latency before any placement (Theorem 6's
    /// reference point).
    pub initial_total_latency: Milliseconds,
    /// `L(σ)`: the total latency after the greedy completes.
    pub final_total_latency: Milliseconds,
}

impl DeliveryOutcome {
    /// Total latency reduction `ΔL(σ) = φ − L(σ)` achieved by the profile.
    pub fn latency_reduction(&self) -> Milliseconds {
        self.initial_total_latency - self.final_total_latency
    }
}

/// The greedy delivery engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyDelivery {
    /// Engine configuration.
    pub config: DeliveryConfig,
}

impl GreedyDelivery {
    /// Creates an engine with the given configuration.
    pub fn new(config: DeliveryConfig) -> Self {
        Self { config }
    }

    /// Runs Phase #2 for the given allocation profile, starting from the
    /// empty delivery profile (Algorithm 1 line 3).
    pub fn run(&self, problem: &Problem, allocation: &Allocation) -> DeliveryOutcome {
        self.run_from(problem, allocation, None)
    }

    /// Runs Phase #2 starting from an existing delivery profile — the warm
    /// start of the online serving engine's placement repair: replicas
    /// already in the system stay free, and the greedy only *adds*
    /// placements whose marginal benefit justifies their storage.
    ///
    /// `iterations` in the outcome counts only the newly committed
    /// placements. Panics in debug builds if the initial profile violates
    /// the storage constraint.
    pub fn run_from(
        &self,
        problem: &Problem,
        allocation: &Allocation,
        initial: Option<&Placement>,
    ) -> DeliveryOutcome {
        let scenario = &problem.scenario;
        let topology = &problem.topology;
        let n = scenario.num_servers();
        let k_total = scenario.num_data();

        // Requests grouped by data item, with each request's serving server
        // resolved once. Requests of unallocated users are cloud-pinned and
        // carried only in the latency total.
        let mut cloud_pinned_total = 0.0f64;
        let mut reqs_by_data: Vec<Vec<ServerId>> = vec![Vec::new(); k_total];
        for (user, data) in scenario.requests.pairs() {
            match allocation.server_of(user) {
                Some(target) => reqs_by_data[data.index()].push(target),
                None => {
                    cloud_pinned_total +=
                        topology.cloud_latency(scenario.data[data.index()].size).value();
                }
            }
        }
        // Current Eq. 8 latency of every (grouped) request, initialised to
        // the cloud (σ is empty, Eq. 7 guarantees cloud availability).
        let mut cur: Vec<Vec<f64>> = (0..k_total)
            .map(|k| {
                let cloud = topology.cloud_latency(scenario.data[k].size).value();
                vec![cloud; reqs_by_data[k].len()]
            })
            .collect();

        let initial_total = cloud_pinned_total + cur.iter().flatten().sum::<f64>();

        let mut placement = match initial {
            Some(existing) => {
                debug_assert_eq!(existing.num_servers(), n);
                debug_assert_eq!(existing.num_data(), k_total);
                debug_assert!(existing.respects_storage(scenario));
                // Fold the pre-existing replicas into the request latencies.
                for k in 0..k_total {
                    let size = scenario.data[k].size;
                    for origin in existing.servers_with(DataId::from_index(k)) {
                        serve_from(topology, size, origin, &mut reqs_by_data[k], &mut cur[k]);
                    }
                }
                existing.clone()
            }
            None => Placement::empty(n, k_total),
        };
        // Feasible under constraint (6), given that `i` is a candidate.
        let fits = |placement: &Placement, i: usize, k: usize| {
            let server = ServerId::from_index(i);
            let remaining = scenario.servers[i].storage.value() - placement.used(server).value();
            !placement.stores(server, DataId::from_index(k))
                && scenario.data[k].size.value() <= remaining + 1e-9
        };
        let keep = |score: f64| score > 0.0 || self.config.fill_zero_benefit;

        // Score every column once. Foreign servers (owned by another shard)
        // are never candidates: the owning shard manages their storage.
        let mut col = Vec::new();
        let mut entries = Vec::new();
        for k in 0..k_total {
            let size = scenario.data[k].size;
            let (targets, row) = (&reqs_by_data[k], &cur[k]);
            idde_par::par_fill(&mut col, n, |i| {
                score(topology, size, ServerId::from_index(i), targets, row)
            });
            for (i, &score) in col.iter().enumerate() {
                let candidate = scenario.coverage.is_candidate(ServerId::from_index(i));
                if candidate && keep(score) && fits(&placement, i, k) {
                    let idx =
                        u32::try_from(i * k_total + k).expect("under 2^32 (server, data) pairs");
                    entries.push(Entry { score, idx, stamp: 0 });
                }
            }
        }
        let mut heap = BinaryHeap::from(entries);
        // Per item, the number of its commits so far: an entry whose stamp
        // differs was scored before the item's latencies last fell.
        let mut stamps = vec![0u32; k_total];

        let mut iterations = 0usize;
        while let Some(top) = heap.pop() {
            let (i, k) = (top.idx as usize / k_total, top.idx as usize % k_total);
            if !fits(&placement, i, k) {
                continue;
            }
            let server = ServerId::from_index(i);
            let size = scenario.data[k].size;
            if top.stamp != stamps[k] {
                let fresh = score(topology, size, server, &reqs_by_data[k], &cur[k]);
                if keep(fresh) {
                    heap.push(Entry { score: fresh, stamp: stamps[k], ..top });
                }
                continue;
            }
            placement.place(server, DataId::from_index(k), size);
            iterations += 1;
            stamps[k] += 1;
            serve_from(topology, size, server, &mut reqs_by_data[k], &mut cur[k]);
        }

        let final_total = cloud_pinned_total + cur.iter().flatten().sum::<f64>();
        DeliveryOutcome {
            placement,
            iterations,
            initial_total_latency: Milliseconds(initial_total),
            final_total_latency: Milliseconds(final_total),
        }
    }
}

/// A heap entry of the lazy greedy: candidate `σ_{i,k}` at `idx = i·K + k`,
/// with the score it had when its item's commit count was `stamp`.
#[derive(Clone, Copy, Debug)]
struct Entry {
    score: f64,
    idx: u32,
    stamp: u32,
}

impl Ord for Entry {
    /// Higher score first, then lower server, then lower data: the first
    /// strict maximum of a server-major, data-minor scan.
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.total_cmp(&other.score).then(other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// The Eq. 17 score of placing `d_k` (of `size`) on `server`: the total
/// latency reduction over `d_k`'s requests, served by `targets` at latencies
/// `row`, divided by `s_k`.
fn score(
    topology: &Topology,
    size: MegaBytes,
    server: ServerId,
    targets: &[ServerId],
    row: &[f64],
) -> f64 {
    let mut reduction = 0.0;
    for (&target, &latency) in targets.iter().zip(row) {
        let via = topology.edge_latency(size, server, target).value();
        if via < latency {
            reduction += latency - via;
        }
    }
    reduction / size.value()
}

/// Lowers the latencies `row` of one item's requests, served by `targets`,
/// to a replica on `origin`, then drops the requests now at `0.0` (keeping
/// the order of the rest): they can never contribute to a score again.
fn serve_from(
    topology: &Topology,
    size: MegaBytes,
    origin: ServerId,
    targets: &mut Vec<ServerId>,
    row: &mut Vec<f64>,
) {
    let mut kept = 0;
    for r in 0..row.len() {
        let latency = row[r].min(topology.edge_latency(size, origin, targets[r]).value());
        if latency > 0.0 {
            targets[kept] = targets[r];
            row[kept] = latency;
            kept += 1;
        }
    }
    targets.truncate(kept);
    row.truncate(kept);
}

/// Removes replicas whose removal would not increase any request's Eq. 8
/// latency under the given allocation. Returns the eviction count.
///
/// The online serving engine's first repair step: after churn reshapes the
/// demand geometry, dead replicas are dropped at zero latency cost before
/// the greedy re-fills the freed storage. Each item is swept on its own
/// with per-target top-2 minima; see the module docs for why this is exact
/// and keeps every `Placement::used` accumulator bit-identical to a
/// server-major sweep.
pub fn evict_useless_replicas(
    problem: &Problem,
    allocation: &Allocation,
    placement: &mut Placement,
) -> usize {
    let scenario = &problem.scenario;
    let topology = &problem.topology;
    let mut is_target = vec![false; scenario.num_servers()];
    let mut targets: Vec<ServerId> = Vec::new();
    let mut holders: Vec<ServerId> = Vec::new();
    let mut live: Vec<bool> = Vec::new();
    let mut best: Vec<TopTwo> = Vec::new();
    let mut evicted = 0usize;
    for data in scenario.data_ids() {
        holders.clear();
        holders.extend(placement.servers_with(data));
        if !holders.iter().any(|&s| scenario.coverage.is_candidate(s)) {
            continue; // foreign replicas belong to the owning shard
        }
        // Distinct serving servers of the item's allocated requesters: the
        // test is existential, so duplicate targets add nothing.
        targets.clear();
        for &user in scenario.requests.of_data(data) {
            if let Some(target) = allocation.server_of(user) {
                if !is_target[target.index()] {
                    is_target[target.index()] = true;
                    targets.push(target);
                }
            }
        }
        for target in &targets {
            is_target[target.index()] = false;
        }
        let size = scenario.data[data.index()].size;
        live.clear();
        live.resize(holders.len(), true);
        best.clear();
        best.extend(targets.iter().map(|&t| TopTwo::over(topology, size, &holders, &live, t)));
        for (h, &server) in holders.iter().enumerate() {
            if !scenario.coverage.is_candidate(server) {
                continue;
            }
            if best.iter().any(|b| b.first == h && b.v1 + 1e-12 < b.v2) {
                continue; // some target's best source, by more than 1e-12
            }
            live[h] = false;
            placement.remove(server, data, size);
            evicted += 1;
            for (b, &target) in best.iter_mut().zip(&targets) {
                if b.first == h || b.second == h {
                    *b = TopTwo::over(topology, size, &holders, &live, target);
                }
            }
        }
    }
    evicted
}

/// The two lowest Eq. 8 latencies to one target over an item's live
/// holders and the cloud, with the holder indices that achieve them.
#[derive(Clone, Copy, Debug)]
struct TopTwo {
    v1: f64,
    first: usize,
    v2: f64,
    second: usize,
}

impl TopTwo {
    /// Holder index standing for the cloud (or for no source at all).
    const CLOUD: usize = usize::MAX;

    /// Scans the live holders, starting from the cloud; unreachable pairs
    /// are skipped, as if `+inf`.
    fn over(
        topology: &Topology,
        size: MegaBytes,
        holders: &[ServerId],
        live: &[bool],
        target: ServerId,
    ) -> Self {
        let mut top = Self {
            v1: topology.cloud_latency(size).value(),
            first: Self::CLOUD,
            v2: f64::INFINITY,
            second: Self::CLOUD,
        };
        for (h, &origin) in holders.iter().enumerate() {
            if !live[h] {
                continue;
            }
            let Some(latency) = topology.try_edge_latency(size, origin, target) else { continue };
            let v = latency.value();
            if v < top.v1 {
                top = Self { v1: v, first: h, v2: top.v1, second: top.first };
            } else if v < top.v2 {
                top.v2 = v;
                top.second = h;
            }
        }
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::{testkit, ChannelIndex, UserId};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use crate::game::IddeUGame;
    use crate::problem::Problem;
    use crate::strategy::Strategy;

    fn solved_allocation(problem: &Problem) -> Allocation {
        IddeUGame::default().run(problem).field.into_allocation()
    }

    fn problem(seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Problem::standard(testkit::fig2_example(), &mut rng)
    }

    /// The quadratic server-major sweep the top-2 eviction replaced, kept
    /// as its oracle: for every candidate replica, every request of its
    /// item is rescanned over the other holders with and without it.
    fn evict_reference(
        problem: &Problem,
        allocation: &Allocation,
        placement: &mut Placement,
    ) -> usize {
        // Eq. 8 over an explicit origin list: the cloud, or the cheapest
        // reachable origin.
        let latency_from = |origins: &[ServerId], size: MegaBytes, target: ServerId| {
            let mut best = problem.topology.cloud_latency(size).value();
            for &origin in origins {
                if let Some(via) = problem.topology.try_edge_latency(size, origin, target) {
                    best = best.min(via.value());
                }
            }
            best
        };
        let scenario = &problem.scenario;
        let mut evicted = 0usize;
        for server in scenario.server_ids() {
            if !scenario.coverage.is_candidate(server) {
                continue;
            }
            let data_here: Vec<DataId> = placement.data_on(server).collect();
            for data in data_here {
                let size = scenario.data[data.index()].size;
                let others: Vec<ServerId> =
                    placement.servers_with(data).filter(|&s| s != server).collect();
                let needed = scenario.requests.of_data(data).iter().any(|&user| {
                    let Some(target) = allocation.server_of(user) else { return false };
                    let without = latency_from(&others, size, target);
                    let with =
                        problem.topology.edge_latency(size, server, target).value().min(without);
                    with + 1e-12 < without
                });
                if !needed {
                    placement.remove(server, data, size);
                    evicted += 1;
                }
            }
        }
        evicted
    }

    /// A seeded random instance: 4–30 servers at a random network density,
    /// optionally fault-masked (down servers and links leave unreachable
    /// pairs), with a cloud that is sometimes faster than edge paths and
    /// some servers marked foreign.
    fn random_problem(rng: &mut ChaCha8Rng) -> Problem {
        use idde_model::{MegaBytesPerSec, Point, ScenarioBuilder, Watts};
        use idde_net::{LinkState, NetworkFaults, Topology};
        use rand::Rng;

        let mut b = ScenarioBuilder::new();
        let n = rng.gen_range(4..30);
        for _ in 0..n {
            b.server(
                Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                rng.gen_range(100.0..400.0),
                rng.gen_range(1..4),
                MegaBytesPerSec(rng.gen_range(50.0..400.0)),
                MegaBytes(rng.gen_range(0.0..400.0)),
            );
        }
        let users: Vec<UserId> = (0..rng.gen_range(0..60))
            .map(|_| {
                b.user(
                    Point::new(rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)),
                    Watts(rng.gen_range(0.5..5.0)),
                    MegaBytesPerSec(rng.gen_range(50.0..400.0)),
                )
            })
            .collect();
        let data: Vec<DataId> = (0..rng.gen_range(1..6))
            .map(|_| b.data(MegaBytes(rng.gen_range(1.0..100.0))))
            .collect();
        for &user in &users {
            for &d in &data {
                if rng.gen_bool(0.4) {
                    b.request(user, d);
                }
            }
        }
        let mut scenario = b.build().unwrap();
        for server in scenario.server_ids() {
            if rng.gen_bool(0.2) {
                scenario.coverage.set_foreign(server, true);
            }
        }
        let base = Problem::with_density(scenario, rng.gen_range(0.5..2.0), rng);
        let graph = base.topology.graph();
        let mut faults = NetworkFaults::healthy(n, graph.links().len());
        if rng.gen_bool(0.5) {
            for server in base.scenario.server_ids() {
                if rng.gen_bool(0.15) {
                    faults.set_server(server, false);
                }
            }
            for link in 0..graph.links().len() {
                if rng.gen_bool(0.2) {
                    faults.set_link(link, LinkState::Down);
                }
            }
        }
        let cloud = MegaBytesPerSec(rng.gen_range(300.0..8000.0));
        let topology = Topology::new(faults.effective_graph(graph), cloud);
        Problem::new(base.scenario, base.radio, topology)
    }

    /// A random allocation (server only; some users unallocated).
    fn random_allocation(problem: &Problem, rng: &mut ChaCha8Rng) -> Allocation {
        use rand::Rng;
        let n = problem.scenario.num_servers();
        let mut alloc = Allocation::unallocated(problem.scenario.num_users());
        for user in problem.scenario.user_ids() {
            if rng.gen_bool(0.8) {
                alloc.set(user, Some((ServerId::from_index(rng.gen_range(0..n)), ChannelIndex(0))));
            }
        }
        alloc
    }

    #[test]
    fn top_two_eviction_matches_the_quadratic_sweep_bit_for_bit() {
        use rand::Rng;
        let (mut evicted_total, mut kept_total, mut unreachable) = (0usize, 0usize, 0usize);
        for seed in 0..300u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let p = random_problem(&mut rng);
            let alloc = random_allocation(&p, &mut rng);
            // Either random replicas, or a paper-literal greedy fill (exact
            // zero-benefit ties) solved for a different allocation.
            let mut placement = if rng.gen_bool(0.5) {
                let mut placement =
                    Placement::empty(p.scenario.num_servers(), p.scenario.num_data());
                for server in p.scenario.server_ids() {
                    for data in p.scenario.data_ids() {
                        if rng.gen_bool(0.35) {
                            placement.place(server, data, p.scenario.data[data.index()].size);
                        }
                    }
                }
                placement
            } else {
                let solved_for =
                    if rng.gen_bool(0.5) { alloc.clone() } else { random_allocation(&p, &mut rng) };
                GreedyDelivery::new(DeliveryConfig { fill_zero_benefit: true })
                    .run(&p, &solved_for)
                    .placement
            };
            unreachable += p
                .scenario
                .server_ids()
                .flat_map(|a| p.scenario.server_ids().map(move |b| (a, b)))
                .filter(|&(a, b)| !p.topology.is_reachable(a, b))
                .count();
            let mut reference = placement.clone();
            let expected = evict_reference(&p, &alloc, &mut reference);
            let evicted = evict_useless_replicas(&p, &alloc, &mut placement);
            assert_eq!(evicted, expected, "seed {seed}");
            assert_eq!(placement, reference, "seed {seed}");
            for server in p.scenario.server_ids() {
                assert_eq!(
                    placement.used(server).value().to_bits(),
                    reference.used(server).value().to_bits(),
                    "seed {seed} server {server:?}"
                );
            }
            evicted_total += evicted;
            kept_total += placement.num_placements();
        }
        // The seeds exercise every branch: evictions, survivors, faults.
        assert!(evicted_total > 0 && kept_total > 0 && unreachable > 0);
    }

    #[test]
    fn eviction_honours_the_tolerance_on_near_ties() {
        use idde_model::{MegaBytesPerSec, Point, ScenarioBuilder, Watts};
        use idde_net::{EdgeGraph, Link};
        use idde_radio::{RadioEnvironment, RadioParams};

        // Holders v0 and v1; requesters of d0 sit on v2, of d1 on v3. The
        // links' speeds differ by 1e-9 MB/s, so each item's two edge
        // latencies differ by about 1e-13 ms: within the 1e-12 tolerance.
        let (slow, fast) = (3000.0, 3000.000000001);
        let mut b = ScenarioBuilder::new();
        for x in 0..4 {
            let at = Point::new(f64::from(x) * 100.0, 0.0);
            b.server(at, 50.0, 1, MegaBytesPerSec(200.0), MegaBytes(100.0));
        }
        let (d0, d1) = (b.data(MegaBytes(1.0)), b.data(MegaBytes(1.0)));
        let u0 = b.user(Point::new(200.0, 0.0), Watts(1.0), MegaBytesPerSec(200.0));
        let u1 = b.user(Point::new(300.0, 0.0), Watts(1.0), MegaBytesPerSec(200.0));
        b.request(u0, d0).request(u1, d1);
        let scenario = b.build().unwrap();
        let link =
            |a, b, speed| Link { a: ServerId(a), b: ServerId(b), speed: MegaBytesPerSec(speed) };
        let graph = EdgeGraph::new(
            4,
            vec![link(0, 2, slow), link(1, 2, fast), link(0, 3, fast), link(1, 3, slow)],
        );
        let radio = RadioEnvironment::new(&scenario, RadioParams::paper());
        let p = Problem::new(scenario, radio, Topology::new(graph, MegaBytesPerSec(600.0)));
        let (l0, l1) = (
            p.topology.edge_latency(MegaBytes(1.0), ServerId(0), ServerId(2)).value(),
            p.topology.edge_latency(MegaBytes(1.0), ServerId(1), ServerId(2)).value(),
        );
        assert!(l1 < l0 && l0 < l1 + 1e-12);

        let mut alloc = Allocation::unallocated(2);
        alloc.set(u0, Some((ServerId(2), ChannelIndex(0))));
        alloc.set(u1, Some((ServerId(3), ChannelIndex(0))));
        let mut placement = Placement::empty(4, 2);
        for (server, data) in [(0, d0), (1, d0), (0, d1), (1, d1)] {
            placement.place(ServerId(server), data, MegaBytes(1.0));
        }
        let mut reference = placement.clone();
        assert_eq!(evict_reference(&p, &alloc, &mut reference), 2);
        assert_eq!(evict_useless_replicas(&p, &alloc, &mut placement), 2);
        assert_eq!(placement, reference);
        // d0: v0 is the runner-up and goes; v1 then stands alone against
        // the cloud. d1: v0 is first but within 1e-12 of v1, so it goes,
        // and v1 again stands alone.
        for data in [d0, d1] {
            assert_eq!(placement.servers_with(data).collect::<Vec<_>>(), vec![ServerId(1)]);
        }
    }

    #[test]
    fn greedy_respects_storage_constraint() {
        let p = problem(2);
        let alloc = solved_allocation(&p);
        let outcome = GreedyDelivery::default().run(&p, &alloc);
        let strategy = Strategy::new(alloc, outcome.placement.clone());
        assert!(strategy.placement.respects_storage(&p.scenario));
    }

    #[test]
    fn greedy_never_worse_than_all_cloud() {
        let p = problem(3);
        let alloc = solved_allocation(&p);
        let outcome = GreedyDelivery::default().run(&p, &alloc);
        assert!(outcome.final_total_latency.value() <= outcome.initial_total_latency.value());
        assert!(outcome.latency_reduction().value() >= 0.0);
    }

    #[test]
    fn greedy_places_requested_data_near_users() {
        let p = problem(4);
        let alloc = solved_allocation(&p);
        let outcome = GreedyDelivery::default().run(&p, &alloc);
        // With 480 MB of storage for 240 MB of catalogue, the hot data (d0,
        // requested 3×) must be placed somewhere.
        assert!(outcome.placement.servers_with(DataId(0)).count() >= 1);
        assert!(outcome.iterations >= 1);
        // Strategy evaluation agrees with the engine's internal accounting.
        let strategy = Strategy::new(alloc, outcome.placement.clone());
        let total = p.total_latency(&strategy).value();
        assert!((total - outcome.final_total_latency.value()).abs() < 1e-6);
    }

    /// The eager greedy the lazy heap replaced, kept as its oracle: a dense
    /// score matrix, a full scan for the first strict maximum per commit,
    /// and a rescan of the placed item's whole column after each commit.
    fn eager_reference(
        config: DeliveryConfig,
        problem: &Problem,
        allocation: &Allocation,
        initial: Option<&Placement>,
    ) -> DeliveryOutcome {
        let scenario = &problem.scenario;
        let topology = &problem.topology;
        let (n, k_total) = (scenario.num_servers(), scenario.num_data());
        let mut cloud_pinned_total = 0.0f64;
        let mut reqs_by_data: Vec<Vec<ServerId>> = vec![Vec::new(); k_total];
        for (user, data) in scenario.requests.pairs() {
            match allocation.server_of(user) {
                Some(target) => reqs_by_data[data.index()].push(target),
                None => {
                    cloud_pinned_total +=
                        topology.cloud_latency(scenario.data[data.index()].size).value();
                }
            }
        }
        let mut cur: Vec<Vec<f64>> = (0..k_total)
            .map(|k| {
                let cloud = topology.cloud_latency(scenario.data[k].size).value();
                vec![cloud; reqs_by_data[k].len()]
            })
            .collect();
        let initial_total = cloud_pinned_total + cur.iter().flatten().sum::<f64>();
        let lower = |cur: &mut [f64], targets: &[ServerId], size: MegaBytes, origin| {
            for (r, &target) in targets.iter().enumerate() {
                let via = topology.edge_latency(size, origin, target).value();
                if via < cur[r] {
                    cur[r] = via;
                }
            }
        };
        let mut placement = match initial {
            Some(existing) => {
                for k in 0..k_total {
                    for origin in existing.servers_with(DataId::from_index(k)) {
                        lower(&mut cur[k], &reqs_by_data[k], scenario.data[k].size, origin);
                    }
                }
                existing.clone()
            }
            None => Placement::empty(n, k_total),
        };
        let rescan = |scores: &mut [f64], cur: &[Vec<f64>], k: usize| {
            let size = scenario.data[k].size;
            for i in 0..n {
                let mut reduction = 0.0;
                for (r, &target) in reqs_by_data[k].iter().enumerate() {
                    let via = topology.edge_latency(size, ServerId::from_index(i), target).value();
                    if via < cur[k][r] {
                        reduction += cur[k][r] - via;
                    }
                }
                scores[i * k_total + k] = reduction / size.value();
            }
        };
        let mut scores = vec![0.0f64; n * k_total];
        for k in 0..k_total {
            rescan(&mut scores, &cur, k);
        }
        let mut iterations = 0usize;
        loop {
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..n {
                if !scenario.coverage.is_candidate(ServerId::from_index(i)) {
                    continue;
                }
                let remaining = scenario.servers[i].storage.value()
                    - placement.used(ServerId::from_index(i)).value();
                for k in 0..k_total {
                    if placement.stores(ServerId::from_index(i), DataId::from_index(k))
                        || scenario.data[k].size.value() > remaining + 1e-9
                    {
                        continue;
                    }
                    let score = scores[i * k_total + k];
                    if best.is_none_or(|(_, _, s)| score > s) {
                        best = Some((i, k, score));
                    }
                }
            }
            let Some((i, k, score)) = best else { break };
            if score <= 0.0 && !config.fill_zero_benefit {
                break;
            }
            let size = scenario.data[k].size;
            placement.place(ServerId::from_index(i), DataId::from_index(k), size);
            iterations += 1;
            lower(&mut cur[k], &reqs_by_data[k], size, ServerId::from_index(i));
            rescan(&mut scores, &cur, k);
        }
        let final_total = cloud_pinned_total + cur.iter().flatten().sum::<f64>();
        DeliveryOutcome {
            placement,
            iterations,
            initial_total_latency: Milliseconds(initial_total),
            final_total_latency: Milliseconds(final_total),
        }
    }

    #[test]
    fn lazy_greedy_matches_the_eager_scan_bit_for_bit() {
        use rand::Rng;
        let (mut commits, mut warm_starts, mut zero_fills) = (0usize, 0usize, 0usize);
        for seed in 0..320u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let p = random_problem(&mut rng);
            let alloc = random_allocation(&p, &mut rng);
            // A cold start, or a warm start from a greedy placement solved
            // for a different allocation with its dead replicas evicted.
            let initial = rng.gen_bool(0.5).then(|| {
                let other = random_allocation(&p, &mut rng);
                let config = DeliveryConfig { fill_zero_benefit: rng.gen_bool(0.5) };
                let mut placement = GreedyDelivery::new(config).run(&p, &other).placement;
                evict_useless_replicas(&p, &alloc, &mut placement);
                placement
            });
            warm_starts += usize::from(initial.is_some());
            let mut lean_iterations = 0;
            for fill_zero_benefit in [false, true] {
                let config = DeliveryConfig { fill_zero_benefit };
                let lazy = GreedyDelivery::new(config).run_from(&p, &alloc, initial.as_ref());
                let eager = eager_reference(config, &p, &alloc, initial.as_ref());
                let case = format!("seed {seed} fill_zero_benefit {fill_zero_benefit}");
                assert_eq!(lazy.placement, eager.placement, "{case}");
                assert_eq!(lazy.iterations, eager.iterations, "{case}");
                assert_eq!(
                    lazy.initial_total_latency.value().to_bits(),
                    eager.initial_total_latency.value().to_bits(),
                    "{case}"
                );
                assert_eq!(
                    lazy.final_total_latency.value().to_bits(),
                    eager.final_total_latency.value().to_bits(),
                    "{case}"
                );
                for server in p.scenario.server_ids() {
                    assert_eq!(
                        lazy.placement.used(server).value().to_bits(),
                        eager.placement.used(server).value().to_bits(),
                        "{case} server {server:?}"
                    );
                }
                commits += lazy.iterations;
                if fill_zero_benefit {
                    zero_fills += usize::from(lazy.iterations > lean_iterations);
                }
                lean_iterations = lazy.iterations;
            }
        }
        // The seeds commit plenty, warm-start often, and fill storage with
        // zero-benefit replicas: runs of exact score ties at 0.0 that only
        // the server/data order breaks.
        assert!(commits > 5000 && warm_starts > 100 && zero_fills > 100);
    }

    #[test]
    fn fill_zero_benefit_places_at_least_as_much() {
        let p = problem(6);
        let alloc = solved_allocation(&p);
        let lean = GreedyDelivery::default().run(&p, &alloc);
        let full = GreedyDelivery::new(DeliveryConfig { fill_zero_benefit: true }).run(&p, &alloc);
        assert!(full.placement.num_placements() >= lean.placement.num_placements());
        // Zero-benefit filler must not change the achieved latency.
        assert!((full.final_total_latency.value() - lean.final_total_latency.value()).abs() < 1e-9);
        assert!(full.placement.respects_storage(&p.scenario));
    }

    #[test]
    fn unallocated_users_stay_on_cloud() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let p = Problem::standard(testkit::degenerate(), &mut rng);
        // Nobody allocated: no placement can reduce any latency.
        let alloc = Allocation::unallocated(p.scenario.num_users());
        let outcome = GreedyDelivery::default().run(&p, &alloc);
        assert_eq!(outcome.iterations, 0);
        assert_eq!(outcome.latency_reduction().value(), 0.0);
    }

    #[test]
    fn empty_requests_short_circuit() {
        let mut b = idde_model::ScenarioBuilder::new();
        b.server(
            idde_model::Point::new(0.0, 0.0),
            100.0,
            1,
            idde_model::MegaBytesPerSec(200.0),
            idde_model::MegaBytes(100.0),
        );
        b.user(
            idde_model::Point::new(5.0, 0.0),
            idde_model::Watts(1.0),
            idde_model::MegaBytesPerSec(200.0),
        );
        b.data(idde_model::MegaBytes(30.0));
        let scenario = b.build().unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let p = Problem::standard(scenario, &mut rng);
        let mut alloc = Allocation::unallocated(1);
        alloc.set(UserId(0), Some((ServerId(0), ChannelIndex(0))));
        let outcome = GreedyDelivery::default().run(&p, &alloc);
        assert_eq!(outcome.iterations, 0);
        assert_eq!(outcome.initial_total_latency.value(), 0.0);
    }

    #[test]
    fn local_replica_beats_neighbour_replica() {
        // A user's own server should be the first placement target when its
        // storage allows: zero latency beats any link.
        let p = problem(11);
        let alloc = solved_allocation(&p);
        let outcome = GreedyDelivery::default().run(&p, &alloc);
        let strategy = Strategy::new(alloc.clone(), outcome.placement.clone());
        // d0 is requested by users 0, 5, 7; at least one of them must end up
        // with a zero-latency local hit given ample storage.
        let zero_hits = [UserId(0), UserId(5), UserId(7)]
            .iter()
            .filter(|&&u| p.request_latency(&strategy, u, DataId(0)).value() < 1e-12)
            .count();
        assert!(zero_hits >= 1);
    }
}
