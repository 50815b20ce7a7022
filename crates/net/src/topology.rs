//! The [`Topology`] façade: edge graph + cloud, with the all-pairs
//! unit-cost matrix pre-computed, answering the latency queries of Eq. 8.
//!
//! A multi-hop delivery is pipelined (DESIGN.md finding #2): the object is
//! streamed in chunks, so a path is gated by its slowest link and costs
//! `1000 / max-bottleneck-speed` ms/MB (the widest path). This reproduces
//! the paper's Fig. 3(b) trend (latency falls as `N` grows).

use idde_model::{DataId, MegaBytes, MegaBytesPerSec, Milliseconds, Placement, ServerId};

use crate::graph::EdgeGraph;
use crate::shortest::{all_pairs_widest, fill_widest, UNREACHABLE};

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
    /// `unit_cost[o][i]` = cheapest (widest-path) `v_o → v_i` cost in ms/MB.
    unit_cost: Vec<Vec<f64>>,
}

impl Topology {
    /// Builds the topology and its all-pairs widest-path costs.
    pub fn new(graph: EdgeGraph, cloud_speed: MegaBytesPerSec) -> Self {
        assert!(cloud_speed.value() > 0.0, "cloud speed must be positive");
        let unit_cost = all_pairs_widest(&graph);
        Self { graph, cloud_speed, unit_cost }
    }

    /// Swaps in a new link graph over the same node set — the surviving
    /// graph after any fault or restoration — and refills every row of the
    /// cost matrix in place, reusing its buffers. The result is bitwise the
    /// matrix [`Topology::new`] builds on `graph`.
    pub fn set_graph(&mut self, graph: EdgeGraph) {
        assert_eq!(
            graph.num_nodes(),
            self.graph.num_nodes(),
            "a topology update must preserve the node set"
        );
        fill_widest(&graph, &mut self.unit_cost);
        self.graph = graph;
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
        // 0 -(3000)- 1 -(6000)- 2, cloud at 600.
        let g = EdgeGraph::new(
            3,
            vec![
                Link { a: ServerId(0), b: ServerId(1), speed: MegaBytesPerSec(3000.0) },
                Link { a: ServerId(1), b: ServerId(2), speed: MegaBytesPerSec(6000.0) },
            ],
        );
        Topology::new(g, MegaBytesPerSec(600.0))
    }

    #[test]
    fn latency_queries() {
        let t = topo();
        // 60 MB: cloud = 100 ms; 0→1 = 20 ms; self = 0 ms; 0→2 is gated by
        // the 3000 MB/s link, i.e. 20 ms, not the 30 ms hop-by-hop sum.
        let s = MegaBytes(60.0);
        assert!((t.cloud_latency(s).value() - 100.0).abs() < 1e-9);
        assert!((t.edge_latency(s, ServerId(0), ServerId(1)).value() - 20.0).abs() < 1e-9);
        assert!((t.edge_latency(s, ServerId(0), ServerId(2)).value() - 20.0).abs() < 1e-9);
        assert_eq!(t.edge_latency(s, ServerId(1), ServerId(1)).value(), 0.0);
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

        // Replica at 0: delivered 0→2 in 20 ms (the 3000 MB/s bottleneck).
        p.place(ServerId(0), DataId(0), s);
        let (lat, src) = t.delivery_latency(&p, DataId(0), s, ServerId(2));
        assert_eq!(src, DeliverySource::Edge(ServerId(0)));
        assert!((lat.value() - 20.0).abs() < 1e-9);

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

    fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
        rows.iter().map(|row| row.iter().map(|c| c.to_bits()).collect()).collect()
    }

    fn assert_matches_a_fresh_build(live: &Topology, what: &str) {
        let fresh = Topology::new(live.graph().clone(), live.cloud_speed());
        assert_eq!(bits(&live.unit_cost), bits(&fresh.unit_cost), "{what}");
    }

    /// A cut, a degradation and a restoration through `set_graph`: each
    /// step equals a fresh build bit for bit, the restore returns the
    /// healthy matrix, and the row buffers are the original allocations.
    #[test]
    fn set_graph_cut_and_restore_is_bitwise_and_reuses_rows() {
        let link = |a: u32, b: u32, s: f64| Link {
            a: ServerId(a),
            b: ServerId(b),
            speed: MegaBytesPerSec(s),
        };
        let healthy =
            vec![link(0, 1, 3000.0), link(1, 2, 6000.0), link(2, 3, 2500.0), link(1, 3, 4000.0)];
        let mut t = Topology::new(EdgeGraph::new(5, healthy.clone()), MegaBytesPerSec(600.0));
        let before = bits(&t.unit_cost);
        let buffers: Vec<*const f64> = t.unit_cost.iter().map(|r| r.as_ptr()).collect();

        // Cutting 0-1 strands server 0; its row and column go unreachable.
        t.set_graph(EdgeGraph::new(5, healthy[1..].to_vec()));
        assert_matches_a_fresh_build(&t, "cut");
        assert!(!t.is_reachable(ServerId(0), ServerId(3)));

        // Degrading 1-3 reroutes 1→3 over the 2500 MB/s link via 2.
        let mut degraded = healthy.clone();
        degraded[3].speed = MegaBytesPerSec(1000.0);
        t.set_graph(EdgeGraph::new(5, degraded));
        assert_matches_a_fresh_build(&t, "degrade");
        assert_eq!(t.unit_cost(ServerId(1), ServerId(3)), 1000.0 / 2500.0);

        t.set_graph(EdgeGraph::new(5, healthy));
        assert_eq!(bits(&t.unit_cost), before, "restore");
        let reused: Vec<*const f64> = t.unit_cost.iter().map(|r| r.as_ptr()).collect();
        assert_eq!(reused, buffers, "set_graph must refill the rows in place");
    }

    #[test]
    #[should_panic(expected = "preserve the node set")]
    fn set_graph_rejects_a_different_node_set() {
        topo().set_graph(EdgeGraph::disconnected(4));
    }
}
