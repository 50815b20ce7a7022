//! Transfer-level validation of the latency model, visualised.
//!
//! The analytic path cost (`idde_net::Topology`: the widest path's
//! bottleneck link) idealises multi-hop transfers as perfectly pipelined.
//! This example drives the chunk-level discrete-event simulator against
//! that closed form on a real random topology:
//!
//! 1. chunk-count sweep — watch the simulated transfer slide from the
//!    hop-by-hop sum (1 chunk, each hop relays the whole object) to the
//!    bottleneck bound (∞ chunks);
//! 2. contention sweep — how much concurrent traffic breaks the
//!    no-contention idealisation of the closed form.
//!
//! ```sh
//! cargo run --release --example transfer_simulation
//! ```

use idde::model::{MegaBytes, ServerId};
use idde::net::{
    best_path, generate_topology, simulate_concurrent, simulate_transfer, TopologyConfig, Transfer,
};

fn main() {
    let mut rng = idde::seeded_rng(13);
    let topology = generate_topology(25, &TopologyConfig::paper(1.2), &mut rng);
    let size = MegaBytes(60.0);

    // Pick a pair with a multi-hop widest path.
    let (from, to, path) = (0..25u32)
        .flat_map(|a| (0..25u32).map(move |b| (a, b)))
        .filter(|&(a, b)| a != b)
        .filter_map(|(a, b)| {
            best_path(topology.graph(), ServerId(a), ServerId(b))
                .map(|p| (ServerId(a), ServerId(b), p))
        })
        .max_by_key(|(_, _, p)| p.len())
        .expect("connected topology");
    let speeds: Vec<f64> = path
        .windows(2)
        .map(|w| {
            topology
                .graph()
                .neighbors(w[0])
                .iter()
                .filter(|&&(n, _)| n == w[1].0)
                .map(|&(_, cost)| 1000.0 / cost)
                .fold(0.0, f64::max)
        })
        .collect();

    let hop_by_hop: f64 = speeds.iter().map(|s| 1000.0 * size.value() / s).sum();
    let bottleneck = topology.edge_latency(size, from, to).value();
    println!(
        "longest widest path: v{from} → v{to}, {} hops, bottleneck {:.0} MB/s",
        speeds.len(),
        speeds.iter().copied().fold(f64::INFINITY, f64::min)
    );
    println!("hop-by-hop sum {hop_by_hop:.2} ms, pipelined bound {bottleneck:.2} ms\n");

    println!("{:>8} {:>14} {:>22}", "chunks", "simulated ms", "vs pipelined bound");
    let mut last = f64::INFINITY;
    for chunks in [1usize, 2, 4, 8, 32, 128, 1024] {
        let t = simulate_transfer(&speeds, size, chunks).expect("valid speeds").value();
        println!("{chunks:>8} {t:>14.2} {:>21.1}%", (t / bottleneck - 1.0) * 100.0);
        assert!(t <= last + 1e-9, "more chunks can only help");
        assert!(t >= bottleneck - 1e-9, "no chunking beats the bottleneck bound");
        last = t;
    }
    let single = simulate_transfer(&speeds, size, 1).expect("valid speeds").value();
    assert!((single - hop_by_hop).abs() < 1e-6, "one chunk takes the hop-by-hop sum");

    println!("\ncontention: N concurrent 60 MB transfers over the same path (64 chunks)");
    println!("{:>8} {:>16}", "flows", "slowest done ms");
    for flows in [1usize, 2, 4, 8] {
        let transfers: Vec<Transfer> =
            (0..flows).map(|_| Transfer { from, to, size, start_ms: 0.0 }).collect();
        let done = simulate_concurrent(&topology, &transfers, 64).expect("valid transfers");
        let worst = done.iter().map(|d| d.expect("path exists").value()).fold(0.0f64, f64::max);
        println!("{flows:>8} {worst:>16.2}");
        if flows == 1 {
            // 64 chunks leave (hops−1)/64 of pipeline-fill overhead above
            // the bottleneck bound — generous margin for long paths.
            assert!((worst - bottleneck) / bottleneck < 0.30);
        }
    }
    println!(
        "\nthe closed form is the single-flow limit; contention is why real edge\n\
         fabrics over-provision the links the paper samples at 2-6 GB/s."
    );
}
