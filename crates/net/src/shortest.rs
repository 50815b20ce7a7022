//! All-pairs lowest-latency paths.
//!
//! `L_{k,o,i}` in the paper is the *lowest* latency of delivering `d_k` from
//! `v_o` to `v_i` over the edge graph. Transfers are pipelined (DESIGN.md
//! finding #2): an object streamed in chunks through a path of fast links is
//! gated by its slowest link, so a path costs its largest per-MB link cost
//! (the widest path). Because the per-link latency is `s_k · unit_cost`, one
//! all-pairs unit-cost computation serves every data item.
//!
//! Every minimax path cost is the cost of one link of the minimum
//! bottleneck spanning forest, so [`all_pairs_widest`] builds that forest
//! once (Kruskal) and walks it from every source. Each entry is a link cost
//! that was *selected*, never summed, so the matrix is bitwise the one a
//! minimax Dijkstra from every source would produce, whichever of several
//! tied links the forest keeps. Floyd–Warshall implementations of both the
//! minimax and the additive recurrence are kept as differential-testing
//! oracles; the additive one checks [`dijkstra_from_set`], the Steiner
//! planner's metric-closure primitive.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use idde_model::ServerId;

use crate::graph::EdgeGraph;

/// Cost of an unreachable pair (disconnected components).
pub const UNREACHABLE: f64 = f64::INFINITY;

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on cost: reverse the comparison. Costs are never NaN
        // (link speeds are validated positive), so partial_cmp is total here.
        other.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The node sequence (inclusive of both endpoints) of a widest path from
/// `source` to `target`: a minimax Dijkstra with parent links, so its
/// bottleneck equals the [`all_pairs_widest`] entry of the pair. Returns
/// `None` when `target` is unreachable.
pub fn best_path(graph: &EdgeGraph, source: ServerId, target: ServerId) -> Option<Vec<ServerId>> {
    let n = graph.num_nodes();
    if source.index() >= n || target.index() >= n {
        return None;
    }
    let mut dist = vec![UNREACHABLE; n];
    let mut parent: Vec<Option<u32>> = vec![None; n];
    dist[source.index()] = 0.0;
    let mut heap = BinaryHeap::with_capacity(n);
    heap.push(HeapEntry { cost: 0.0, node: source.0 });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node as usize] {
            continue;
        }
        for &(next, w) in graph.neighbors(ServerId(node)) {
            let candidate = cost.max(w);
            if candidate < dist[next as usize] {
                dist[next as usize] = candidate;
                parent[next as usize] = Some(node);
                heap.push(HeapEntry { cost: candidate, node: next });
            }
        }
    }
    if source != target && parent[target.index()].is_none() {
        return None;
    }
    let mut path = vec![target];
    let mut cursor = target;
    while cursor != source {
        cursor = ServerId(parent[cursor.index()].expect("parents chain back to the source"));
        path.push(cursor);
    }
    path.reverse();
    Some(path)
}

/// Multi-source additive Dijkstra with explicit per-node starting costs.
///
/// `inits` seeds the frontier: `(node, cost)` pairs (later duplicates keep
/// the cheaper cost). Returns `(dist, parent)`; a node's `parent` is `None`
/// when it is unreachable **or** when it is itself a seed the search grew
/// from — walking parents from any node therefore terminates at the seed
/// that feeds it. This is the metric-closure primitive of the Steiner
/// planner in `idde-dist`: seeding every source at `0` (and, for
/// cloud-assisted planning, every node at the cloud cost) prices "deliver
/// from the cheapest feed" in one pass. Its costs are additive because a
/// tree's bytes cross every link it uses.
pub fn dijkstra_from_set(
    graph: &EdgeGraph,
    inits: &[(ServerId, f64)],
) -> (Vec<f64>, Vec<Option<u32>>) {
    let n = graph.num_nodes();
    let mut dist = vec![UNREACHABLE; n];
    let mut parent: Vec<Option<u32>> = vec![None; n];
    let mut heap = BinaryHeap::with_capacity(n.max(inits.len()));
    for &(node, cost) in inits {
        if node.index() < n && cost < dist[node.index()] {
            dist[node.index()] = cost;
        }
    }
    for (i, &d) in dist.iter().enumerate() {
        if d != UNREACHABLE {
            heap.push(HeapEntry { cost: d, node: i as u32 });
        }
    }
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node as usize] {
            continue; // stale entry
        }
        for &(next, w) in graph.neighbors(ServerId(node)) {
            let candidate = cost + w;
            if candidate < dist[next as usize] {
                dist[next as usize] = candidate;
                parent[next as usize] = Some(node);
                heap.push(HeapEntry { cost: candidate, node: next });
            }
        }
    }
    (dist, parent)
}

/// All-pairs widest-path unit costs: row `o`, column `i` is the per-MB cost
/// `1000 / bottleneck_speed` of the `v_o → v_i` path whose slowest link is
/// fastest ([`UNREACHABLE`] across components, `0` on the diagonal).
pub fn all_pairs_widest(graph: &EdgeGraph) -> Vec<Vec<f64>> {
    let n = graph.num_nodes();
    let mut rows = vec![vec![UNREACHABLE; n]; n];
    fill_widest(graph, &mut rows);
    rows
}

/// Refills `rows` (one per node, each `num_nodes` long) with the
/// [`all_pairs_widest`] matrix of `graph`, reusing their buffers.
pub(crate) fn fill_widest(graph: &EdgeGraph, rows: &mut [Vec<f64>]) {
    let n = graph.num_nodes();
    // Kruskal: cheapest links first; a link joining two components of the
    // forest so far enters it. Parallel and cycle-closing links never do.
    let mut order: Vec<(f64, u32, u32)> =
        graph.links().iter().map(|l| (l.unit_cost(), l.a.0, l.b.0)).collect();
    order.sort_unstable_by(|x, y| x.0.total_cmp(&y.0));
    let mut component: Vec<u32> = (0..n as u32).collect();
    let mut forest: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for (cost, a, b) in order {
        let (ra, rb) = (find_root(&mut component, a), find_root(&mut component, b));
        if ra != rb {
            component[ra as usize] = rb;
            forest[a as usize].push((b, cost));
            forest[b as usize].push((a, cost));
        }
    }
    // One walk per source: a node's cost is the larger of its forest
    // parent's cost and the link between them.
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for (source, row) in rows.iter_mut().enumerate() {
        row.fill(UNREACHABLE);
        row[source] = 0.0;
        stack.push((source as u32, u32::MAX));
        while let Some((node, parent)) = stack.pop() {
            let reached = row[node as usize];
            for &(next, cost) in &forest[node as usize] {
                if next != parent {
                    row[next as usize] = reached.max(cost);
                    stack.push((next, node));
                }
            }
        }
    }
}

/// Union-find root of `node`, halving the path on the way up.
fn find_root(component: &mut [u32], mut node: u32) -> u32 {
    while component[node as usize] != node {
        let grandparent = component[component[node as usize] as usize];
        component[node as usize] = grandparent;
        node = grandparent;
    }
    node
}

/// All-pairs widest-path costs via the Floyd–Warshall minimax recurrence —
/// the differential-testing oracle for [`all_pairs_widest`].
#[allow(clippy::needless_range_loop)] // triple-index Floyd–Warshall reads clearest as written
pub fn all_pairs_widest_floyd_warshall(graph: &EdgeGraph) -> Vec<Vec<f64>> {
    let n = graph.num_nodes();
    let mut dist = vec![vec![UNREACHABLE; n]; n];
    for (i, row) in dist.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for l in graph.links() {
        let (a, b, c) = (l.a.index(), l.b.index(), l.unit_cost());
        if c < dist[a][b] {
            dist[a][b] = c;
            dist[b][a] = c;
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i][k];
            if dik == UNREACHABLE {
                continue;
            }
            for j in 0..n {
                let through = dik.max(dist[k][j]);
                if through < dist[i][j] {
                    dist[i][j] = through;
                }
            }
        }
    }
    dist
}

/// All-pairs additive unit costs via Floyd–Warshall — the
/// differential-testing oracle for single-seed [`dijkstra_from_set`]
/// runs. O(N³); only used in tests and verification.
#[allow(clippy::needless_range_loop)] // triple-index Floyd–Warshall reads clearest as written
pub fn all_pairs_floyd_warshall(graph: &EdgeGraph) -> Vec<Vec<f64>> {
    let n = graph.num_nodes();
    let mut dist = vec![vec![UNREACHABLE; n]; n];
    for (i, row) in dist.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for l in graph.links() {
        let (a, b, c) = (l.a.index(), l.b.index(), l.unit_cost());
        if c < dist[a][b] {
            dist[a][b] = c;
            dist[b][a] = c;
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i][k];
            if dik == UNREACHABLE {
                continue;
            }
            for j in 0..n {
                let through = dik + dist[k][j];
                if through < dist[i][j] {
                    dist[i][j] = through;
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Link;
    use idde_model::MegaBytesPerSec;

    fn link(a: u32, b: u32, speed: f64) -> Link {
        Link { a: ServerId(a), b: ServerId(b), speed: MegaBytesPerSec(speed) }
    }

    /// Additive per-MB costs from one source: a single-seed
    /// [`dijkstra_from_set`] run.
    fn additive_row(graph: &EdgeGraph, source: u32) -> Vec<f64> {
        dijkstra_from_set(graph, &[(ServerId(source), 0.0)]).0
    }

    #[test]
    fn line_graph_costs_accumulate() {
        // 0 -(2000)- 1 -(4000)- 2 : unit costs 0.5 and 0.25 ms/MB.
        let g = EdgeGraph::new(3, vec![link(0, 1, 2000.0), link(1, 2, 4000.0)]);
        let d = additive_row(&g, 0);
        assert_eq!(d[0], 0.0);
        assert!((d[1] - 0.5).abs() < 1e-12);
        assert!((d[2] - 0.75).abs() < 1e-12);
        // The widest path is gated by the 0.5 ms/MB link alone.
        assert_eq!(all_pairs_widest(&g)[0], vec![0.0, 0.5, 0.5]);
    }

    #[test]
    fn shortcut_beats_direct_slow_link() {
        // Direct 0-2 at 2000 (0.5), detour 0-1-2 at 6000+6000 (0.333…).
        let g = EdgeGraph::new(3, vec![link(0, 2, 2000.0), link(0, 1, 6000.0), link(1, 2, 6000.0)]);
        let d = additive_row(&g, 0);
        assert!((d[2] - 2.0 / 6.0 * 1.0).abs() < 1e-9, "d[2] = {}", d[2]);
    }

    #[test]
    fn disconnected_pairs_are_unreachable() {
        let g = EdgeGraph::new(4, vec![link(0, 1, 2000.0), link(2, 3, 2000.0)]);
        let d = all_pairs_widest(&g);
        assert_eq!(d[0][2], UNREACHABLE);
        assert_eq!(d[3][1], UNREACHABLE);
        assert!(d[0][1].is_finite());
        assert_eq!(additive_row(&g, 0)[2], UNREACHABLE);
    }

    #[test]
    fn dijkstra_matches_floyd_warshall_on_fixed_graph() {
        let g = EdgeGraph::new(
            5,
            vec![
                link(0, 1, 2000.0),
                link(1, 2, 3000.0),
                link(2, 3, 4000.0),
                link(3, 4, 5000.0),
                link(4, 0, 6000.0),
                link(1, 3, 2500.0),
            ],
        );
        for (i, row) in all_pairs_floyd_warshall(&g).iter().enumerate() {
            for (j, (a, b)) in additive_row(&g, i as u32).iter().zip(row).enumerate() {
                assert!((a - b).abs() < 1e-9, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn parallel_links_use_the_cheaper_one() {
        let g = EdgeGraph::new(2, vec![link(0, 1, 2000.0), link(0, 1, 6000.0)]);
        let d = additive_row(&g, 0);
        assert!((d[1] - 1000.0 / 6000.0).abs() < 1e-12);
        let fw = all_pairs_floyd_warshall(&g);
        assert!((fw[0][1] - d[1]).abs() < 1e-12);
        assert_eq!(all_pairs_widest(&g)[0][1], 1000.0 / 6000.0);
    }

    #[test]
    fn widest_path_prefers_fast_bottlenecks() {
        // 0-2 direct at 3000 (0.333 ms/MB); 0-1-2 at 5000+4000 → bottleneck
        // 4000 (0.25 ms/MB): the two-hop path wins under the pipelined model.
        let g = EdgeGraph::new(3, vec![link(0, 2, 3000.0), link(0, 1, 5000.0), link(1, 2, 4000.0)]);
        let w = &all_pairs_widest(&g)[0];
        assert_eq!(w[0], 0.0);
        assert!((w[1] - 0.2).abs() < 1e-12);
        assert!((w[2] - 0.25).abs() < 1e-12);
        assert_eq!(best_path(&g, ServerId(0), ServerId(2)).unwrap().len(), 3);
        // …whereas summing the hops would prefer the direct link.
        let d = additive_row(&g, 0);
        assert!((d[2] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn widest_dijkstra_matches_widest_floyd_warshall() {
        let g = EdgeGraph::new(
            6,
            vec![
                link(0, 1, 2000.0),
                link(1, 2, 3000.0),
                link(2, 3, 4500.0),
                link(3, 4, 5000.0),
                link(4, 5, 2500.0),
                link(5, 0, 6000.0),
                link(1, 4, 3500.0),
                link(2, 5, 2200.0),
            ],
        );
        assert_eq!(all_pairs_widest(&g), all_pairs_widest_floyd_warshall(&g));
    }

    #[test]
    fn widest_path_unreachable_and_self() {
        let g = EdgeGraph::new(3, vec![link(0, 1, 2000.0)]);
        let w = &all_pairs_widest(&g)[0];
        assert_eq!(w[0], 0.0);
        assert!(w[1].is_finite());
        assert_eq!(w[2], UNREACHABLE);
        assert_eq!(best_path(&g, ServerId(0), ServerId(0)), Some(vec![ServerId(0)]));
        assert_eq!(best_path(&g, ServerId(0), ServerId(2)), None);
    }

    #[test]
    fn empty_graph() {
        let g = EdgeGraph::disconnected(0);
        assert!(all_pairs_widest(&g).is_empty());
        assert!(all_pairs_floyd_warshall(&g).is_empty());
    }

    mod differential {
        //! Each all-pairs metric against its Floyd–Warshall oracle on
        //! random graphs — parallel links, isolated nodes, disconnected
        //! components and (in the tied generator) many equal link costs
        //! included. The minimax entries are selected link costs, never
        //! sums, so they must agree bit for bit; additive sums may round
        //! differently in the two association orders.

        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        /// A random graph: `n` nodes, up to `~2.5n` links with random
        /// endpoints, speeds drawn by `speed`. Duplicate endpoint pairs
        /// (parallel links) are kept on purpose; some nodes stay isolated.
        fn random_graph_with(seed: u64, speed: impl Fn(&mut ChaCha8Rng) -> f64) -> EdgeGraph {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..=16usize);
            let m = rng.gen_range(0..=(5 * n / 2));
            let mut links = Vec::with_capacity(m);
            for _ in 0..m {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a == b {
                    continue; // self-loops are rejected by EdgeGraph::new
                }
                let speed = speed(&mut rng);
                links.push(Link { a: ServerId(a), b: ServerId(b), speed: MegaBytesPerSec(speed) });
            }
            EdgeGraph::new(n, links)
        }

        fn random_graph(seed: u64) -> EdgeGraph {
            random_graph_with(seed, |rng| rng.gen_range(500.0..8000.0f64))
        }

        /// Speeds from a five-value set, a third of them degraded by a
        /// fault factor: many links tie, so Kruskal's choice among equal
        /// links is exercised.
        fn tied_graph(seed: u64) -> EdgeGraph {
            random_graph_with(seed, |rng| {
                let speed = [2000.0, 3000.0, 4000.0, 5000.0, 6000.0][rng.gen_range(0..5usize)];
                match rng.gen_range(0..6) {
                    0 => speed * 0.5,
                    1 => speed * 0.25,
                    _ => speed,
                }
            })
        }

        fn assert_bitwise_equal(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
            for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
                for (j, (&va, &vb)) in ra.iter().zip(rb).enumerate() {
                    assert_eq!(va.to_bits(), vb.to_bits(), "{what} diverges at ({i},{j})");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            #[test]
            fn additive_dijkstra_matches_floyd_warshall(seed in 0u64..50_000) {
                let g = random_graph(seed);
                let b = all_pairs_floyd_warshall(&g);
                for (i, row) in b.iter().enumerate() {
                    let a = additive_row(&g, i as u32);
                    for (j, (&va, &vb)) in a.iter().zip(row).enumerate() {
                        let ok = if va == UNREACHABLE || vb == UNREACHABLE {
                            va == vb
                        } else {
                            (va - vb).abs() <= 1e-9 * va.abs().max(vb.abs()).max(1.0)
                        };
                        prop_assert!(ok, "additive diverges at ({i},{j}): {va} vs {vb}");
                    }
                }
            }

            #[test]
            fn widest_dijkstra_matches_widest_floyd_warshall_on_random_graphs(
                seed in 0u64..50_000,
            ) {
                for (g, what) in [(random_graph(seed), "widest"), (tied_graph(seed), "tied widest")] {
                    let a = all_pairs_widest(&g);
                    let b = all_pairs_widest_floyd_warshall(&g);
                    assert_bitwise_equal(&a, &b, what);
                }
            }

            /// `best_path` must reconstruct a path whose bottleneck is the
            /// all-pairs entry bit for bit (unicast routes, LCD paths and
            /// the transfer simulator follow it while the matrix prices it).
            #[test]
            fn best_path_cost_equals_the_all_pairs_value(seed in 0u64..50_000) {
                let g = if seed % 2 == 0 { random_graph(seed) } else { tied_graph(seed) };
                for (s, row) in all_pairs_widest(&g).iter().enumerate() {
                    for (t, &widest) in row.iter().enumerate() {
                        let (s_id, t_id) = (ServerId::from_index(s), ServerId::from_index(t));
                        let path = best_path(&g, s_id, t_id);
                        if widest == UNREACHABLE {
                            prop_assert!(path.is_none(), "({s},{t}) unreachable yet pathed");
                            continue;
                        }
                        let path = path.expect("reachable pair must have a path");
                        prop_assert_eq!(*path.first().unwrap(), s_id);
                        prop_assert_eq!(*path.last().unwrap(), t_id);
                        let cost = path.windows(2).fold(0.0f64, |acc, w| {
                            let hop = g
                                .neighbors(w[0])
                                .iter()
                                .filter(|&&(n, _)| n == w[1].0)
                                .map(|&(_, c)| c)
                                .fold(f64::INFINITY, f64::min);
                            acc.max(hop)
                        });
                        prop_assert_eq!(
                            cost.to_bits(),
                            widest.to_bits(),
                            "({}, {}): path cost {} vs {}", s, t, cost, widest
                        );
                    }
                }
            }
        }
    }
}
