//! The [`Topology`] façade: edge graph + cloud, with the all-pairs
//! unit-cost matrix pre-computed, answering the latency queries of Eq. 8.

use idde_model::{DataId, MegaBytes, MegaBytesPerSec, Milliseconds, Placement, ServerId};

use crate::graph::EdgeGraph;
use crate::shortest::{all_pairs_dijkstra, all_pairs_widest, dijkstra, widest_path, UNREACHABLE};

/// How the latency of a multi-hop edge-to-edge path is computed.
///
/// The paper specifies per-link transmission speeds but not the transfer
/// discipline; both readings are implemented (DESIGN.md finding #2):
///
/// * [`PathModel::Pipelined`] *(default)* — the object is streamed in
///   chunks, so a path is gated by its slowest link:
///   `unit_cost = 1000 / max-bottleneck-speed` (widest path). This is how
///   modern bulk transfer over a fast metro fabric behaves, and it
///   reproduces the paper's Fig. 3(b) trend (latency falls as `N` grows).
/// * [`PathModel::StoreAndForward`] — each hop fully receives the object
///   before forwarding: `unit_cost = Σ 1000/speed` (classic shortest path).
///   Under this reading longer topologies at larger `N` cancel the storage
///   gains and the Fig. 3(b) trend flattens.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PathModel {
    /// Bottleneck-gated streaming transfers (widest path).
    #[default]
    Pipelined,
    /// Hop-by-hop full-object relays (additive shortest path).
    StoreAndForward,
}

/// Where a delivery was sourced from (useful for reporting and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliverySource {
    /// Delivered from an edge server already storing the data (possibly the
    /// target server itself, at zero latency).
    Edge(ServerId),
    /// Delivered from the app vendor's remote cloud (Eq. 7).
    Cloud,
}

/// The network topology of one edge storage system instance.
#[derive(Clone, Debug)]
pub struct Topology {
    graph: EdgeGraph,
    cloud_speed: MegaBytesPerSec,
    path_model: PathModel,
    /// `unit_cost[o][i]` = cheapest `v_o → v_i` cost in ms/MB.
    unit_cost: Vec<Vec<f64>>,
}

impl Topology {
    /// Builds the topology with the default [`PathModel::Pipelined`] costs.
    pub fn new(graph: EdgeGraph, cloud_speed: MegaBytesPerSec) -> Self {
        Self::with_model(graph, cloud_speed, PathModel::default())
    }

    /// Builds the topology with an explicit path cost model.
    pub fn with_model(
        graph: EdgeGraph,
        cloud_speed: MegaBytesPerSec,
        path_model: PathModel,
    ) -> Self {
        assert!(cloud_speed.value() > 0.0, "cloud speed must be positive");
        let unit_cost = match path_model {
            PathModel::Pipelined => all_pairs_widest(&graph),
            PathModel::StoreAndForward => all_pairs_dijkstra(&graph),
        };
        Self { graph, cloud_speed, path_model, unit_cost }
    }

    /// Swaps in a new link graph that differs from the current one **only**
    /// in the links joining the unordered pair `{a, b}` (a single link cut,
    /// restoration or degradation), repairing the all-pairs matrix
    /// incrementally: only source rows whose costs could route through the
    /// changed link re-run their single-source pass; every other row is
    /// kept verbatim. Returns the number of rows recomputed.
    ///
    /// Kept rows are *bitwise* identical to a full
    /// [`Topology::with_model`] recompute. A row `o` is kept only when, for
    /// both the old and the new bundle cost `c` of `{a, b}` (the cheapest
    /// parallel link joining the pair, `∞` when none survives), entering
    /// the pair from either side cannot compete:
    /// `combine(cost(o,a), c) > cost(o,b)` **and**
    /// `combine(cost(o,b), c) > cost(o,a)` (with a small conservative
    /// slack). Both `+` (store-and-forward) and `max` (pipelined) folds are
    /// monotone in `f64`, so any path crossing the pair costs at least
    /// `combine(cost(o, entry), c)` at its exit — if that already exceeds
    /// the exit's known cost, no old or new optimum crosses the pair and
    /// the row's attainable path-cost set is unchanged. Rows with both
    /// endpoints unreachable are always kept (a path to the pair cannot
    /// exist in either graph).
    pub fn apply_link_update(&mut self, new_graph: EdgeGraph, a: ServerId, b: ServerId) -> usize {
        assert_eq!(
            new_graph.num_nodes(),
            self.graph.num_nodes(),
            "link update must preserve the node set"
        );
        let bundle_cost = |g: &EdgeGraph| {
            g.links()
                .iter()
                .filter(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
                .map(|l| l.unit_cost())
                .fold(UNREACHABLE, f64::min)
        };
        let c_old = bundle_cost(&self.graph);
        let c_new = bundle_cost(&new_graph);
        self.graph = new_graph;
        if c_old.to_bits() == c_new.to_bits() {
            return 0;
        }
        // Conservative slack: flagging extra rows only costs time, never
        // correctness, so borderline comparisons round towards "recompute".
        const SLACK_REL: f64 = 1e-9;
        const SLACK_ABS: f64 = 1e-9;
        let model = self.path_model;
        let combine = |x: f64, c: f64| match model {
            PathModel::Pipelined => x.max(c),
            PathModel::StoreAndForward => x + c,
        };
        let (ai, bi) = (a.index(), b.index());
        let mut recomputed = 0;
        for o in 0..self.unit_cost.len() {
            let (ra, rb) = (self.unit_cost[o][ai], self.unit_cost[o][bi]);
            if ra == UNREACHABLE && rb == UNREACHABLE {
                continue;
            }
            let competitive = [c_old, c_new].into_iter().any(|c| {
                c != UNREACHABLE
                    && (combine(ra, c) <= rb * (1.0 + SLACK_REL) + SLACK_ABS
                        || combine(rb, c) <= ra * (1.0 + SLACK_REL) + SLACK_ABS)
            });
            if !competitive {
                continue;
            }
            let source = ServerId::from_index(o);
            self.unit_cost[o] = match model {
                PathModel::Pipelined => widest_path(&self.graph, source),
                PathModel::StoreAndForward => dijkstra(&self.graph, source),
            };
            recomputed += 1;
        }
        recomputed
    }

    /// The path cost model in use.
    #[inline]
    pub fn path_model(&self) -> PathModel {
        self.path_model
    }

    /// The underlying link graph.
    #[inline]
    pub fn graph(&self) -> &EdgeGraph {
        &self.graph
    }

    /// The edge–cloud transmission speed.
    #[inline]
    pub fn cloud_speed(&self) -> MegaBytesPerSec {
        self.cloud_speed
    }

    /// Cheapest edge-to-edge unit cost in ms/MB ([`UNREACHABLE`] when the
    /// servers are in different components). Prefer [`Topology::try_unit_cost`]
    /// when the caller must react to disconnection: arithmetic on the
    /// sentinel silently produces `inf`/`NaN` latencies.
    #[inline]
    pub fn unit_cost(&self, from: ServerId, to: ServerId) -> f64 {
        self.unit_cost[from.index()][to.index()]
    }

    /// Cheapest edge-to-edge unit cost, or `None` when `to` is unreachable
    /// from `from` — the explicit form fault-handling code must use so
    /// Eq. 7/8 cloud fallback triggers instead of a sentinel latency.
    #[inline]
    pub fn try_unit_cost(&self, from: ServerId, to: ServerId) -> Option<f64> {
        let cost = self.unit_cost[from.index()][to.index()];
        (cost != UNREACHABLE).then_some(cost)
    }

    /// Whether `to` is reachable from `from` over edge links.
    #[inline]
    pub fn is_reachable(&self, from: ServerId, to: ServerId) -> bool {
        self.unit_cost[from.index()][to.index()] != UNREACHABLE
    }

    /// `L_{k,o,i}`: lowest latency of delivering a data item of size `size`
    /// from `v_o` to `v_i` through the edge storage system. Unreachable
    /// pairs report `+inf` (even at `size == 0`, where the naive
    /// `size · unit_cost` product would be `NaN`); callers that must branch
    /// on disconnection should use [`Topology::try_edge_latency`].
    #[inline]
    pub fn edge_latency(&self, size: MegaBytes, from: ServerId, to: ServerId) -> Milliseconds {
        match self.try_edge_latency(size, from, to) {
            Some(latency) => latency,
            None => Milliseconds(f64::INFINITY),
        }
    }

    /// `L_{k,o,i}` as an explicit option: `None` when the pair is
    /// disconnected, so a topology mutation can never smuggle a sentinel
    /// (or `0 · inf = NaN`) latency into a delivery decision.
    #[inline]
    pub fn try_edge_latency(
        &self,
        size: MegaBytes,
        from: ServerId,
        to: ServerId,
    ) -> Option<Milliseconds> {
        self.try_unit_cost(from, to).map(|cost| Milliseconds(size.value() * cost))
    }

    /// Latency of delivering a data item of size `size` from the cloud.
    #[inline]
    pub fn cloud_latency(&self, size: MegaBytes) -> Milliseconds {
        size.transfer_time(self.cloud_speed)
    }

    /// Eq. 8: the delivery latency of data `data` to a user allocated to
    /// `target`, given the delivery profile `σ` — the minimum over all edge
    /// servers storing the data and the cloud. Also returns the chosen
    /// source. The latency constraint (edge never slower than cloud) holds
    /// by construction of the `min`.
    pub fn delivery_latency(
        &self,
        placement: &Placement,
        data: DataId,
        size: MegaBytes,
        target: ServerId,
    ) -> (Milliseconds, DeliverySource) {
        let mut best = self.cloud_latency(size).value();
        let mut source = DeliverySource::Cloud;
        let row = target.index();
        for origin in placement.servers_with(data) {
            let cost = self.unit_cost[origin.index()][row];
            if cost == UNREACHABLE {
                continue;
            }
            let latency = size.value() * cost;
            if latency < best {
                best = latency;
                source = DeliverySource::Edge(origin);
            }
        }
        (Milliseconds(best), source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Link;

    fn topo() -> Topology {
        // 0 -(3000)- 1 -(6000)- 2, cloud at 600. Store-and-forward costs so
        // the hand-computed sums below hold.
        let g = EdgeGraph::new(
            3,
            vec![
                Link { a: ServerId(0), b: ServerId(1), speed: MegaBytesPerSec(3000.0) },
                Link { a: ServerId(1), b: ServerId(2), speed: MegaBytesPerSec(6000.0) },
            ],
        );
        Topology::with_model(g, MegaBytesPerSec(600.0), PathModel::StoreAndForward)
    }

    #[test]
    fn latency_queries() {
        let t = topo();
        assert_eq!(t.path_model(), PathModel::StoreAndForward);
        // 60 MB: cloud = 100 ms; 0→1 = 20 ms; 0→2 = 30 ms; self = 0 ms.
        let s = MegaBytes(60.0);
        assert!((t.cloud_latency(s).value() - 100.0).abs() < 1e-9);
        assert!((t.edge_latency(s, ServerId(0), ServerId(1)).value() - 20.0).abs() < 1e-9);
        assert!((t.edge_latency(s, ServerId(0), ServerId(2)).value() - 30.0).abs() < 1e-9);
        assert_eq!(t.edge_latency(s, ServerId(1), ServerId(1)).value(), 0.0);
    }

    #[test]
    fn pipelined_model_uses_the_bottleneck() {
        // Same line graph under the default pipelined model: 0→2 is gated
        // by the 3000 MB/s link, i.e. 20 ms for 60 MB instead of 30 ms.
        let g = EdgeGraph::new(
            3,
            vec![
                Link { a: ServerId(0), b: ServerId(1), speed: MegaBytesPerSec(3000.0) },
                Link { a: ServerId(1), b: ServerId(2), speed: MegaBytesPerSec(6000.0) },
            ],
        );
        let t = Topology::new(g, MegaBytesPerSec(600.0));
        assert_eq!(t.path_model(), PathModel::Pipelined);
        let s = MegaBytes(60.0);
        assert!((t.edge_latency(s, ServerId(0), ServerId(2)).value() - 20.0).abs() < 1e-9);
        assert!((t.edge_latency(s, ServerId(0), ServerId(1)).value() - 20.0).abs() < 1e-9);
        assert_eq!(t.edge_latency(s, ServerId(2), ServerId(2)).value(), 0.0);
    }

    #[test]
    fn delivery_prefers_nearest_replica() {
        let t = topo();
        let mut p = Placement::empty(3, 1);
        let s = MegaBytes(60.0);

        // Nothing placed: cloud wins.
        let (lat, src) = t.delivery_latency(&p, DataId(0), s, ServerId(2));
        assert_eq!(src, DeliverySource::Cloud);
        assert!((lat.value() - 100.0).abs() < 1e-9);

        // Replica at 0: delivered 0→2 in 30 ms.
        p.place(ServerId(0), DataId(0), s);
        let (lat, src) = t.delivery_latency(&p, DataId(0), s, ServerId(2));
        assert_eq!(src, DeliverySource::Edge(ServerId(0)));
        assert!((lat.value() - 30.0).abs() < 1e-9);

        // Replica also at 2: local hit, zero latency.
        p.place(ServerId(2), DataId(0), s);
        let (lat, src) = t.delivery_latency(&p, DataId(0), s, ServerId(2));
        assert_eq!(src, DeliverySource::Edge(ServerId(2)));
        assert_eq!(lat.value(), 0.0);
    }

    #[test]
    fn edge_never_slower_than_cloud() {
        // Latency constraint of Eq. 8: the min always includes the cloud.
        let g = EdgeGraph::new(
            2,
            vec![Link { a: ServerId(0), b: ServerId(1), speed: MegaBytesPerSec(100.0) }],
        );
        let t = Topology::new(g, MegaBytesPerSec(600.0));
        let mut p = Placement::empty(2, 1);
        p.place(ServerId(0), DataId(0), MegaBytes(60.0));
        // The only replica is over a pathologically slow 100 MB/s link
        // (600 ms); the cloud (100 ms) must win.
        let (lat, src) = t.delivery_latency(&p, DataId(0), MegaBytes(60.0), ServerId(1));
        assert_eq!(src, DeliverySource::Cloud);
        assert!((lat.value() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_replicas_fall_back_to_cloud() {
        let g = EdgeGraph::disconnected(2);
        let t = Topology::new(g, MegaBytesPerSec(600.0));
        let mut p = Placement::empty(2, 1);
        p.place(ServerId(0), DataId(0), MegaBytes(30.0));
        let (lat, src) = t.delivery_latency(&p, DataId(0), MegaBytes(30.0), ServerId(1));
        assert_eq!(src, DeliverySource::Cloud);
        assert!((lat.value() - 50.0).abs() < 1e-9);
        // …but the storing server itself is a zero-latency hit.
        let (lat, src) = t.delivery_latency(&p, DataId(0), MegaBytes(30.0), ServerId(0));
        assert_eq!(src, DeliverySource::Edge(ServerId(0)));
        assert_eq!(lat.value(), 0.0);
    }

    #[test]
    fn disconnection_is_explicit_not_a_sentinel() {
        // Node 2 is isolated — the shape a link failure leaves behind.
        let g = EdgeGraph::new(
            3,
            vec![Link { a: ServerId(0), b: ServerId(1), speed: MegaBytesPerSec(3000.0) }],
        );
        let t = Topology::new(g, MegaBytesPerSec(600.0));
        assert!(t.try_unit_cost(ServerId(0), ServerId(1)).is_some());
        assert!(t.try_unit_cost(ServerId(0), ServerId(2)).is_none());
        assert!(!t.is_reachable(ServerId(0), ServerId(2)));
        assert!(t.try_edge_latency(MegaBytes(60.0), ServerId(0), ServerId(2)).is_none());
        // Regression: a zero-sized transfer over a disconnected pair used to
        // evaluate 0 · inf = NaN; it must stay unambiguously unreachable.
        let lat = t.edge_latency(MegaBytes(0.0), ServerId(0), ServerId(2));
        assert!(lat.value().is_infinite() && lat.value() > 0.0, "got {lat:?}");
        assert_eq!(t.edge_latency(MegaBytes(0.0), ServerId(0), ServerId(1)).value(), 0.0);
    }

    /// Exact (bitwise) agreement between the incremental single-link repair
    /// and a from-scratch rebuild, across both path models, for cut,
    /// restore and degradation of every link of a small mesh.
    #[test]
    fn apply_link_update_matches_full_rebuild_exactly() {
        let speeds = [3000.0, 6000.0, 2500.0, 4000.0, 5500.0];
        let base_links: Vec<Link> = [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (1, 3)]
            .iter()
            .zip(speeds)
            .map(|(&(a, b), s)| Link { a: ServerId(a), b: ServerId(b), speed: MegaBytesPerSec(s) })
            .collect();
        for model in [PathModel::Pipelined, PathModel::StoreAndForward] {
            for victim in 0..base_links.len() {
                for factor in [None, Some(0.25)] {
                    let healthy = EdgeGraph::new(4, base_links.clone());
                    let mut topo = Topology::with_model(healthy, MegaBytesPerSec(600.0), model);
                    let (a, b) = (base_links[victim].a, base_links[victim].b);
                    // Cut (or degrade) the victim link…
                    let mutated: Vec<Link> = base_links
                        .iter()
                        .enumerate()
                        .filter_map(|(i, l)| {
                            if i != victim {
                                Some(*l)
                            } else {
                                factor.map(|f| Link {
                                    speed: MegaBytesPerSec(l.speed.value() * f),
                                    ..*l
                                })
                            }
                        })
                        .collect();
                    let degraded = EdgeGraph::new(4, mutated);
                    topo.apply_link_update(degraded.clone(), a, b);
                    let full = Topology::with_model(degraded, MegaBytesPerSec(600.0), model);
                    for o in 0..4 {
                        for i in 0..4 {
                            let (o, i) = (ServerId(o), ServerId(i));
                            assert_eq!(
                                topo.try_unit_cost(o, i),
                                full.try_unit_cost(o, i),
                                "{model:?} victim {victim} factor {factor:?} {o}->{i}"
                            );
                        }
                    }
                    // …and restore it: costs must return to the healthy
                    // matrix bit-for-bit.
                    let healthy = EdgeGraph::new(4, base_links.clone());
                    topo.apply_link_update(healthy.clone(), a, b);
                    let reference = Topology::with_model(healthy, MegaBytesPerSec(600.0), model);
                    for o in 0..4 {
                        for i in 0..4 {
                            let (o, i) = (ServerId(o), ServerId(i));
                            assert_eq!(
                                topo.try_unit_cost(o, i),
                                reference.try_unit_cost(o, i),
                                "restore {model:?} victim {victim} {o}->{i}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Rows that provably cannot route through the changed link are kept,
    /// not recomputed — the point of the incremental repair.
    #[test]
    fn apply_link_update_skips_unaffected_rows() {
        // Two far components: {0,1} and {2,3}. Cutting 2-3 cannot touch the
        // rows of 0 and 1.
        let links = vec![
            Link { a: ServerId(0), b: ServerId(1), speed: MegaBytesPerSec(3000.0) },
            Link { a: ServerId(2), b: ServerId(3), speed: MegaBytesPerSec(6000.0) },
        ];
        let mut topo = Topology::with_model(
            EdgeGraph::new(4, links.clone()),
            MegaBytesPerSec(600.0),
            PathModel::Pipelined,
        );
        let cut = EdgeGraph::new(4, links[..1].to_vec());
        let recomputed = topo.apply_link_update(cut, ServerId(2), ServerId(3));
        assert_eq!(recomputed, 2, "only the rows of servers 2 and 3 may re-run");
        assert!(topo.try_unit_cost(ServerId(2), ServerId(3)).is_none());
        assert!(topo.try_unit_cost(ServerId(0), ServerId(1)).is_some());
        // A no-op swap (identical bundle) recomputes nothing.
        let same = EdgeGraph::new(4, links[..1].to_vec());
        assert_eq!(topo.apply_link_update(same, ServerId(2), ServerId(3)), 0);
    }

    mod fault_interleaving {
        //! `apply_link_update` against fault overlays: the engine repairs
        //! the matrix incrementally after every *link* fault but rebuilds
        //! from scratch after *server* faults (an outage strips all
        //! incident links at once). Interleaving the two must leave the
        //! incremental matrix equal to a from-scratch
        //! [`NetworkFaults::effective_topology`] rebuild — same
        //! `try_unit_cost` `None`-ness, values within 1e-12 relative.

        use super::*;
        use crate::fault::{LinkState, NetworkFaults};
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        /// One step of the interleaved schedule, decoded from raw draws.
        enum Op {
            /// `set_link(index, state)` followed by an incremental repair.
            Link(usize, LinkState),
            /// `set_server(id, up)` followed by a full rebuild (the
            /// engine's own discipline for outages/restorations).
            Server(ServerId, bool),
        }

        fn random_mesh(rng: &mut ChaCha8Rng) -> EdgeGraph {
            let n = rng.gen_range(4..=10usize);
            // A ring keeps most pairs reachable; chords add alternatives.
            let mut links: Vec<Link> = (0..n)
                .map(|i| Link {
                    a: ServerId(i as u32),
                    b: ServerId(((i + 1) % n) as u32),
                    speed: MegaBytesPerSec(rng.gen_range(1000.0..8000.0)),
                })
                .collect();
            for _ in 0..rng.gen_range(0..n) {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a != b {
                    links.push(Link {
                        a: ServerId(a),
                        b: ServerId(b),
                        speed: MegaBytesPerSec(rng.gen_range(1000.0..8000.0)),
                    });
                }
            }
            EdgeGraph::new(n, links)
        }

        fn decode_ops(rng: &mut ChaCha8Rng, graph: &EdgeGraph, steps: usize) -> Vec<Op> {
            (0..steps)
                .map(|_| {
                    if rng.gen_range(0..4u32) < 3 {
                        let index = rng.gen_range(0..graph.num_links());
                        let state = match rng.gen_range(0..3u32) {
                            0 => LinkState::Down,
                            1 => LinkState::Degraded(rng.gen_range(0.05..1.0)),
                            _ => LinkState::Up,
                        };
                        Op::Link(index, state)
                    } else {
                        let server = ServerId(rng.gen_range(0..graph.num_nodes() as u32));
                        Op::Server(server, rng.gen_range(0..2u32) == 0)
                    }
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

            #[test]
            fn interleaved_link_and_server_faults_match_a_full_rebuild(
                seed in 0u64..50_000,
                model_bit in proptest::bool::ANY,
            ) {
                let model = if model_bit {
                    PathModel::Pipelined
                } else {
                    PathModel::StoreAndForward
                };
                let cloud = MegaBytesPerSec(600.0);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let base = random_mesh(&mut rng);
                let n = base.num_nodes();
                let ops = decode_ops(&mut rng, &base, 12);

                let mut faults = NetworkFaults::healthy(n, base.num_links());
                let mut incremental = faults.effective_topology(&base, cloud, model);
                for (step, op) in ops.iter().enumerate() {
                    match *op {
                        Op::Link(index, state) => {
                            faults.set_link(index, state);
                            let link = base.links()[index];
                            incremental.apply_link_update(
                                faults.effective_graph(&base),
                                link.a,
                                link.b,
                            );
                        }
                        Op::Server(server, up) => {
                            faults.set_server(server, up);
                            incremental = faults.effective_topology(&base, cloud, model);
                        }
                    }
                    let rebuilt = faults.effective_topology(&base, cloud, model);
                    for o in 0..n {
                        for i in 0..n {
                            let (o, i) = (ServerId::from_index(o), ServerId::from_index(i));
                            let a = incremental.try_unit_cost(o, i);
                            let b = rebuilt.try_unit_cost(o, i);
                            match (a, b) {
                                (None, None) => {}
                                (Some(x), Some(y)) => prop_assert!(
                                    (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0),
                                    "step {step} {o}->{i}: incremental {x} vs rebuilt {y}"
                                ),
                                _ => prop_assert!(
                                    false,
                                    "step {step} {o}->{i}: reachability diverged \
                                     ({a:?} vs {b:?})"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
}
