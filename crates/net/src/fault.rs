//! Network fault state: which links and servers are currently down, and how
//! to derive the *surviving* topology from a healthy baseline.
//!
//! Fault injection never mutates the base [`EdgeGraph`] — it owns a small
//! overlay ([`NetworkFaults`]) of per-link [`LinkState`]s and per-server
//! liveness bits from which the surviving graph is derived. Every fault and
//! every restoration, link- or server-scoped, hands that graph to
//! [`Topology::set_graph`](crate::Topology::set_graph), which refills the
//! cost matrix in place; the result is bitwise a from-scratch build — the
//! property the chaos proptests pin.

use idde_model::{MegaBytesPerSec, ServerId};

use crate::graph::{EdgeGraph, Link};

/// The health of one link in the overlay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkState {
    /// Fully operational at its base speed.
    Up,
    /// Failed: the link is absent from the surviving graph.
    Down,
    /// Operating at `factor` of its base speed, `0 < factor ≤ 1`.
    Degraded(f64),
}

/// Overlay of current faults on top of a healthy base graph.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkFaults {
    link_state: Vec<LinkState>,
    server_up: Vec<bool>,
}

impl NetworkFaults {
    /// A fault-free overlay for a graph with the given dimensions.
    pub fn healthy(num_servers: usize, num_links: usize) -> Self {
        Self { link_state: vec![LinkState::Up; num_links], server_up: vec![true; num_servers] }
    }

    /// `true` when no link or server fault is active.
    pub fn is_healthy(&self) -> bool {
        self.link_state.iter().all(|s| *s == LinkState::Up) && self.server_up.iter().all(|&u| u)
    }

    /// Sets the state of link `index` (an index into the base graph's
    /// [`EdgeGraph::links`] list). Degradation factors must be in `(0, 1]`.
    pub fn set_link(&mut self, index: usize, state: LinkState) {
        if let LinkState::Degraded(f) = state {
            assert!(f > 0.0 && f <= 1.0, "degradation factor {f} outside (0, 1]");
        }
        self.link_state[index] = state;
    }

    /// Current state of link `index`.
    pub fn link_state(&self, index: usize) -> LinkState {
        self.link_state[index]
    }

    /// Marks a server down (its incident links drop out of the surviving
    /// graph) or back up.
    pub fn set_server(&mut self, server: ServerId, up: bool) {
        self.server_up[server.index()] = up;
    }

    /// Whether the server is currently up.
    pub fn server_up(&self, server: ServerId) -> bool {
        self.server_up[server.index()]
    }

    /// Servers currently down, in id order.
    pub fn down_servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.server_up
            .iter()
            .enumerate()
            .filter(|(_, &up)| !up)
            .map(|(i, _)| ServerId::from_index(i))
    }

    /// The surviving link list: down links and links incident to down
    /// servers are removed; degraded links keep their endpoints but carry
    /// the scaled speed.
    pub fn surviving_links(&self, base: &EdgeGraph) -> Vec<Link> {
        base.links()
            .iter()
            .zip(&self.link_state)
            .filter(|(l, _)| self.server_up[l.a.index()] && self.server_up[l.b.index()])
            .filter_map(|(l, state)| match state {
                LinkState::Up => Some(*l),
                LinkState::Down => None,
                LinkState::Degraded(f) => {
                    Some(Link { a: l.a, b: l.b, speed: MegaBytesPerSec(l.speed.value() * f) })
                }
            })
            .collect()
    }

    /// The surviving graph (same node set — a down server stays a node, it
    /// just has no incident links, so every path through it vanishes).
    pub fn effective_graph(&self, base: &EdgeGraph) -> EdgeGraph {
        EdgeGraph::new(base.num_nodes(), self.surviving_links(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use idde_model::MegaBytes;

    fn effective_topology(faults: &NetworkFaults, base: &EdgeGraph) -> Topology {
        Topology::new(faults.effective_graph(base), MegaBytesPerSec(600.0))
    }

    fn line_graph() -> EdgeGraph {
        // 0 -(3000)- 1 -(6000)- 2
        EdgeGraph::new(
            3,
            vec![
                Link { a: ServerId(0), b: ServerId(1), speed: MegaBytesPerSec(3000.0) },
                Link { a: ServerId(1), b: ServerId(2), speed: MegaBytesPerSec(6000.0) },
            ],
        )
    }

    #[test]
    fn healthy_overlay_reproduces_the_base_topology() {
        let base = line_graph();
        let faults = NetworkFaults::healthy(3, 2);
        assert!(faults.is_healthy());
        let eff = effective_topology(&faults, &base);
        let ref_t = Topology::new(base.clone(), MegaBytesPerSec(600.0));
        for a in 0..3u32 {
            for b in 0..3u32 {
                assert_eq!(
                    eff.unit_cost(ServerId(a), ServerId(b)),
                    ref_t.unit_cost(ServerId(a), ServerId(b)),
                    "({a},{b})"
                );
            }
        }
    }

    #[test]
    fn link_failure_disconnects_and_restores() {
        let base = line_graph();
        let mut faults = NetworkFaults::healthy(3, 2);
        let idx = base.find_link(ServerId(1), ServerId(2)).unwrap();
        faults.set_link(idx, LinkState::Down);
        assert!(!faults.is_healthy());
        let eff = effective_topology(&faults, &base);
        assert!(eff.try_unit_cost(ServerId(0), ServerId(2)).is_none());
        assert!(eff.try_unit_cost(ServerId(0), ServerId(1)).is_some());

        faults.set_link(idx, LinkState::Up);
        assert!(faults.is_healthy());
        let eff = effective_topology(&faults, &base);
        assert!(eff.is_reachable(ServerId(0), ServerId(2)));
    }

    #[test]
    fn degradation_scales_the_speed() {
        let base = line_graph();
        let mut faults = NetworkFaults::healthy(3, 2);
        let idx = base.find_link(ServerId(0), ServerId(1)).unwrap();
        faults.set_link(idx, LinkState::Degraded(0.5));
        let eff = effective_topology(&faults, &base);
        // 3000 MB/s halved to 1500 → 60 MB takes 40 ms instead of 20 ms.
        let lat = eff.try_edge_latency(MegaBytes(60.0), ServerId(0), ServerId(1)).unwrap();
        assert!((lat.value() - 40.0).abs() < 1e-9, "{lat:?}");
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_degradation_factor_rejected() {
        NetworkFaults::healthy(2, 1).set_link(0, LinkState::Degraded(0.0));
    }

    #[test]
    fn server_outage_removes_incident_links() {
        let base = line_graph();
        let mut faults = NetworkFaults::healthy(3, 2);
        faults.set_server(ServerId(1), false);
        assert!(!faults.server_up(ServerId(1)));
        assert_eq!(faults.down_servers().collect::<Vec<_>>(), vec![ServerId(1)]);
        let eff = faults.effective_graph(&base);
        assert_eq!(eff.num_links(), 0);
        assert_eq!(eff.num_nodes(), 3);

        faults.set_server(ServerId(1), true);
        assert!(faults.is_healthy());
        assert_eq!(faults.effective_graph(&base).num_links(), 2);
    }
}
