//! # idde-net — the edge storage system's network substrate
//!
//! Models how data moves *between* edge servers and from the cloud:
//!
//! * an undirected weighted [`graph::EdgeGraph`] of high-speed links between
//!   adjacent edge servers, with per-link transmission speeds,
//! * random topology generation matching §4.2/§4.3 of the paper
//!   (`density · N` links, speeds uniform in `[2000, 6000]` MB/s, cloud at
//!   600 MB/s) — [`generate`],
//! * all-pairs lowest-latency paths ([`shortest`]: a walk of the minimum
//!   bottleneck spanning forest, with Floyd–Warshall reference
//!   implementations for cross-checking),
//! * the [`Topology`] façade computing `L_{k,o,i}` and the Eq. 8 delivery
//!   latency `L_{j,k}(α_j, σ) = min{L_{k,o,i} | σ_{o,k} = 1} ∪ {cloud}`,
//!   refilled in place after every fault ([`fault`]).
//!
//! ## Latency model
//!
//! Delivering `s` MB over a link with speed `v` MB/s takes `1000·s/v` ms, so
//! the per-link cost is `unit_cost = 1000/v` **ms per MB**. Transfers are
//! pipelined: the object streams through the path in chunks, so the
//! latency of a path is `s · max unit_cost`, set by its slowest link
//! (DESIGN.md finding #2; [`simulate`] checks the closed form against a
//! chunked transfer). The data size is a common factor of every link, hence
//! one all-pairs unit-cost matrix serves every data item.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fault;
pub mod generate;
pub mod graph;
pub mod shortest;
pub mod simulate;
pub mod topology;

pub use fault::{LinkState, NetworkFaults};
pub use generate::{generate_topology, TopologyConfig};
pub use graph::{EdgeGraph, Link};
pub use shortest::{
    all_pairs_floyd_warshall, all_pairs_widest, all_pairs_widest_floyd_warshall, best_path,
    dijkstra_from_set, UNREACHABLE,
};
pub use simulate::{simulate_concurrent, simulate_transfer, Transfer};
pub use topology::{DeliverySource, Topology};
