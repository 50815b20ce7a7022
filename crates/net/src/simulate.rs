//! A discrete-event transfer simulator — the micro-level validation of the
//! analytic latency model.
//!
//! `Topology` prices an edge-to-edge delivery with a closed-form unit cost:
//! the path's bottleneck link (pipelined transfer). This module *simulates*
//! those transfers chunk by chunk over the actual links:
//!
//! * an object of `size` MB is split into `chunks` equal chunks;
//! * each link forwards one chunk at a time at its transmission speed;
//! * a chunk may start on hop `l+1` only after it fully arrived over hop
//!   `l` **and** hop `l+1` finished the previous chunk (cut-through with
//!   per-link FIFO) — with `chunks = 1` this degenerates to
//!   store-and-forward;
//! * concurrent transfers contend for links in FIFO order
//!   ([`simulate_concurrent`]), which the closed forms deliberately ignore
//!   — the simulator quantifies how much that idealisation costs.
//!
//! Degenerate inputs (`chunks == 0`, an empty speed vector, zero/negative/
//! non-finite speeds, non-finite sizes or start times) are rejected with a
//! typed [`ModelError`] instead of panicking or propagating NaN latencies
//! into the metrics.
//!
//! The `path_cost_models_match_simulation_on_random_topologies` test pins the
//! relationship: the closed-form bottleneck cost is the `chunks → ∞` limit
//! of the simulated transfer. A single chunk is the store-and-forward case,
//! whose time is the hop-by-hop sum.

use idde_model::{MegaBytes, Milliseconds, ModelError, ServerId};

use crate::shortest::best_path;
use crate::topology::Topology;

/// Validates the shared degenerate-input arms of both simulators.
fn check_chunks(chunks: usize) -> Result<(), ModelError> {
    if chunks == 0 {
        return Err(ModelError::Malformed("transfer simulation needs chunks >= 1".into()));
    }
    Ok(())
}

fn check_size(size: MegaBytes) -> Result<(), ModelError> {
    if !size.value().is_finite() || size.value() < 0.0 {
        return Err(ModelError::InvalidEntity(format!(
            "transfer size {} MB must be finite and non-negative",
            size.value()
        )));
    }
    Ok(())
}

/// Simulates one transfer over a fixed path of per-link speeds (MB/s).
///
/// Returns the completion time in milliseconds. Rejects `chunks == 0`, an
/// empty speed vector (a transfer needs at least one link — model a
/// self-delivery at the call site, not with a zero-hop path) and zero,
/// negative or non-finite speeds; `size == 0` over a valid path takes zero
/// time.
pub fn simulate_transfer(
    link_speeds: &[f64],
    size: MegaBytes,
    chunks: usize,
) -> Result<Milliseconds, ModelError> {
    check_chunks(chunks)?;
    check_size(size)?;
    if link_speeds.is_empty() {
        return Err(ModelError::Malformed(
            "transfer path has no links (a self-delivery takes no transfer)".into(),
        ));
    }
    for (l, &speed) in link_speeds.iter().enumerate() {
        if !speed.is_finite() || speed <= 0.0 {
            return Err(ModelError::InvalidEntity(format!(
                "link {l}: speed {speed} MB/s must be positive and finite"
            )));
        }
    }
    if size.value() == 0.0 {
        return Ok(Milliseconds::ZERO);
    }
    let chunk_mb = size.value() / chunks as f64;
    // finish[l] = completion time of the *previous* chunk on link l; the
    // classic pipeline recurrence:
    //   done(c, l) = max(done(c, l−1), done(c−1, l)) + chunk/speed_l
    let mut finish = vec![0.0f64; link_speeds.len()];
    for _chunk in 0..chunks {
        let mut arrived = 0.0f64; // done(c, l−1): arrival at the head of link l
        for (l, &speed) in link_speeds.iter().enumerate() {
            let start = arrived.max(finish[l]);
            let done = start + 1_000.0 * chunk_mb / speed;
            finish[l] = done;
            arrived = done;
        }
    }
    Ok(Milliseconds(*finish.last().expect("non-empty path")))
}

/// One transfer request for [`simulate_concurrent`].
#[derive(Clone, Debug)]
pub struct Transfer {
    /// Origin edge server.
    pub from: ServerId,
    /// Destination edge server.
    pub to: ServerId,
    /// Object size.
    pub size: MegaBytes,
    /// Simulation start time (ms).
    pub start_ms: f64,
}

/// Simulates a batch of transfers over a topology with per-link FIFO
/// contention. Each transfer follows the widest path its `Topology` prices
/// ([`best_path`]); chunks of different transfers interleave on shared links
/// in arrival order. Returns each transfer's completion time (ms since
/// simulation start), or `None` when no path exists. Rejects `chunks == 0`
/// and transfers with non-finite sizes or start times.
pub fn simulate_concurrent(
    topology: &Topology,
    transfers: &[Transfer],
    chunks: usize,
) -> Result<Vec<Option<Milliseconds>>, ModelError> {
    check_chunks(chunks)?;
    for (i, t) in transfers.iter().enumerate() {
        check_size(t.size).map_err(|e| ModelError::InvalidEntity(format!("transfer {i}: {e}")))?;
        if !t.start_ms.is_finite() {
            return Err(ModelError::InvalidEntity(format!(
                "transfer {i}: start time {} ms must be finite",
                t.start_ms
            )));
        }
    }
    // Per directed link (a→b collapsed to unordered pair) availability time.
    use std::collections::HashMap;
    let mut link_free: HashMap<(u32, u32), f64> = HashMap::new();
    let speed_of = |a: ServerId, b: ServerId| -> f64 {
        topology
            .graph()
            .neighbors(a)
            .iter()
            .filter(|&&(n, _)| n == b.0)
            // parallel links: the cheapest one is the one routing uses
            .map(|&(_, cost)| 1_000.0 / cost)
            .fold(0.0, f64::max)
    };

    // Process transfers in start-time order (stable for equal starts; the
    // validation above already rejected non-finite start times).
    let mut order: Vec<usize> = (0..transfers.len()).collect();
    order.sort_by(|&a, &b| {
        transfers[a].start_ms.partial_cmp(&transfers[b].start_ms).expect("start times are finite")
    });

    let mut results = vec![None; transfers.len()];
    for idx in order {
        let t = &transfers[idx];
        if t.from == t.to {
            results[idx] = Some(Milliseconds(t.start_ms));
            continue;
        }
        let Some(path) = best_path(topology.graph(), t.from, t.to) else {
            continue;
        };
        let hops: Vec<(u32, u32)> = path.windows(2).map(|w| (w[0].0, w[1].0)).collect();
        let speeds: Vec<f64> = path.windows(2).map(|w| speed_of(w[0], w[1])).collect();
        let chunk_mb = t.size.value() / chunks as f64;
        let mut finish_prev_chunk = vec![t.start_ms; hops.len()];
        let mut completion = t.start_ms;
        for _ in 0..chunks {
            let mut arrived = t.start_ms;
            for (l, (&speed, &hop)) in speeds.iter().zip(&hops).enumerate() {
                let key = (hop.0.min(hop.1), hop.0.max(hop.1));
                let free = link_free.get(&key).copied().unwrap_or(0.0);
                let start = arrived.max(finish_prev_chunk[l]).max(free);
                let done = start + 1_000.0 * chunk_mb / speed;
                link_free.insert(key, done);
                finish_prev_chunk[l] = done;
                arrived = done;
            }
            completion = arrived;
        }
        results[idx] = Some(Milliseconds(completion));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeGraph, Link};
    use idde_model::MegaBytesPerSec;

    fn line_topology() -> Topology {
        let g = EdgeGraph::new(
            3,
            vec![
                Link { a: ServerId(0), b: ServerId(1), speed: MegaBytesPerSec(2000.0) },
                Link { a: ServerId(1), b: ServerId(2), speed: MegaBytesPerSec(4000.0) },
            ],
        );
        Topology::new(g, MegaBytesPerSec(600.0))
    }

    #[test]
    fn single_chunk_is_store_and_forward() {
        // 60 MB over 2000 then 4000 MB/s: 30 ms + 15 ms = 45 ms.
        let t = simulate_transfer(&[2000.0, 4000.0], MegaBytes(60.0), 1).unwrap();
        assert!((t.value() - 45.0).abs() < 1e-9);
        // …which is exactly the hop-by-hop sum of the per-link times.
        let hops: f64 = [2000.0, 4000.0]
            .iter()
            .map(|&v| MegaBytes(60.0).transfer_time(MegaBytesPerSec(v)).value())
            .sum();
        assert!((t.value() - hops).abs() < 1e-9);
    }

    #[test]
    fn many_chunks_approach_the_bottleneck_closed_form() {
        let size = MegaBytes(60.0);
        // 60 MB behind the 2000 MB/s bottleneck: 30 ms.
        let analytic = line_topology().edge_latency(size, ServerId(0), ServerId(2)).value();
        let simulated = simulate_transfer(&[2000.0, 4000.0], size, 512).unwrap().value();
        // The pipeline adds one bottleneck-chunk of fill latency; with 512
        // chunks the overshoot is < 1%.
        assert!(simulated >= analytic, "simulation cannot beat the bottleneck bound");
        assert!(
            (simulated - analytic) / analytic < 0.01,
            "simulated {simulated} vs analytic {analytic}"
        );
    }

    #[test]
    fn more_chunks_never_slow_a_transfer() {
        let mut last = f64::INFINITY;
        for chunks in [1usize, 2, 4, 16, 64, 256] {
            let t = simulate_transfer(&[2000.0, 3000.0, 5000.0], MegaBytes(90.0), chunks)
                .unwrap()
                .value();
            assert!(t <= last + 1e-9, "{chunks} chunks slowed the transfer");
            last = t;
        }
    }

    #[test]
    fn zero_size_takes_no_time() {
        assert_eq!(simulate_transfer(&[2000.0], MegaBytes(0.0), 4).unwrap().value(), 0.0);
    }

    /// Every degenerate-input arm of [`simulate_transfer`] is a typed
    /// error, never a panic or a NaN latency.
    #[test]
    fn degenerate_transfer_inputs_are_typed_errors() {
        // chunks == 0
        let err = simulate_transfer(&[2000.0], MegaBytes(60.0), 0).unwrap_err();
        assert!(err.to_string().contains("chunks"), "{err}");
        // empty speed vector
        let err = simulate_transfer(&[], MegaBytes(60.0), 4).unwrap_err();
        assert!(err.to_string().contains("no links"), "{err}");
        // zero, negative, NaN and infinite speeds
        for bad in [0.0, -2000.0, f64::NAN, f64::INFINITY] {
            let err = simulate_transfer(&[2000.0, bad], MegaBytes(60.0), 4).unwrap_err();
            assert!(err.to_string().contains("link 1"), "speed {bad}: {err}");
        }
        // non-finite and negative sizes
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let err = simulate_transfer(&[2000.0], MegaBytes(bad), 4).unwrap_err();
            assert!(err.to_string().contains("size"), "size {bad}: {err}");
        }
    }

    /// [`simulate_concurrent`] rejects the same degenerate inputs, naming
    /// the offending transfer.
    #[test]
    fn degenerate_concurrent_inputs_are_typed_errors() {
        let topo = line_topology();
        let transfer = |size: f64, start_ms: f64| Transfer {
            from: ServerId(0),
            to: ServerId(2),
            size: MegaBytes(size),
            start_ms,
        };
        let err = simulate_concurrent(&topo, &[transfer(60.0, 0.0)], 0).unwrap_err();
        assert!(err.to_string().contains("chunks"), "{err}");
        let err = simulate_concurrent(&topo, &[transfer(60.0, 0.0), transfer(f64::NAN, 0.0)], 8)
            .unwrap_err();
        assert!(err.to_string().contains("transfer 1"), "{err}");
        let err = simulate_concurrent(&topo, &[transfer(60.0, f64::NAN)], 8).unwrap_err();
        assert!(err.to_string().contains("start time"), "{err}");
        // The empty batch is fine — nothing to transfer, nothing to reject.
        assert!(simulate_concurrent(&topo, &[], 8).unwrap().is_empty());
    }

    #[test]
    fn concurrent_transfers_contend_on_shared_links() {
        let topo = line_topology();
        let one = simulate_concurrent(
            &topo,
            &[Transfer {
                from: ServerId(0),
                to: ServerId(2),
                size: MegaBytes(60.0),
                start_ms: 0.0,
            }],
            64,
        )
        .unwrap();
        let alone = one[0].unwrap().value();
        let two = simulate_concurrent(
            &topo,
            &[
                Transfer {
                    from: ServerId(0),
                    to: ServerId(2),
                    size: MegaBytes(60.0),
                    start_ms: 0.0,
                },
                Transfer {
                    from: ServerId(0),
                    to: ServerId(2),
                    size: MegaBytes(60.0),
                    start_ms: 0.0,
                },
            ],
            64,
        )
        .unwrap();
        let second = two[1].unwrap().value();
        assert!(
            second > alone * 1.5,
            "a contending transfer must slow down markedly ({second} vs {alone})"
        );
    }

    #[test]
    fn disconnected_transfers_report_none() {
        let g = EdgeGraph::disconnected(2);
        let topo = Topology::new(g, MegaBytesPerSec(600.0));
        let res = simulate_concurrent(
            &topo,
            &[Transfer {
                from: ServerId(0),
                to: ServerId(1),
                size: MegaBytes(30.0),
                start_ms: 0.0,
            }],
            8,
        )
        .unwrap();
        assert!(res[0].is_none());
        // Self-delivery completes instantly.
        let res = simulate_concurrent(
            &topo,
            &[Transfer {
                from: ServerId(0),
                to: ServerId(0),
                size: MegaBytes(30.0),
                start_ms: 3.0,
            }],
            8,
        )
        .unwrap();
        assert_eq!(res[0].unwrap().value(), 3.0);
    }

    #[test]
    fn path_cost_models_match_simulation_on_random_topologies() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..5 {
            let topo = crate::generate::generate_topology(
                12,
                &crate::generate::TopologyConfig::paper(1.5),
                &mut rng,
            );
            let size = MegaBytes(60.0);
            for (from, to) in [(0u32, 7u32), (3, 11), (5, 2)] {
                let (from, to) = (ServerId(from), ServerId(to));
                let Some(path) = best_path(topo.graph(), from, to) else { continue };
                let speeds: Vec<f64> = path
                    .windows(2)
                    .map(|w| {
                        topo.graph()
                            .neighbors(w[0])
                            .iter()
                            .filter(|&&(n, _)| n == w[1].0)
                            .map(|&(_, cost)| 1_000.0 / cost)
                            .fold(0.0, f64::max)
                    })
                    .collect();
                let analytic = topo.edge_latency(size, from, to).value();
                let simulated = simulate_transfer(&speeds, size, 1024).unwrap().value();
                assert!(
                    (simulated - analytic) / analytic.max(1e-9) < 0.02,
                    "closed form {analytic} vs simulated {simulated}"
                );
            }
        }
    }
}
