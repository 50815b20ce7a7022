//! End-to-end formulation time of the five §4.1 approaches on the default
//! experiment point — the microbenchmark behind Fig. 7's ordering
//! (IDDE-IP ≫ SAA > {IDDE-G ≈ DUP-G > CDP}).
//!
//! IDDE-IP runs under a deterministic node limit here so the benchmark
//! measures search throughput instead of a configured wall-clock budget.

mod common;

use criterion::{criterion_group, criterion_main, Criterion};
use idde_baselines::{Cdp, DupG, IddeGStrategy, IddeIp, Saa, SolveStrategy};
use std::hint::black_box;

fn strategies(c: &mut Criterion) {
    let problem = common::default_problem(47);
    let mut group = c.benchmark_group("strategies_end_to_end");

    group.bench_function("IDDE-G", |b| {
        b.iter(|| IddeGStrategy::default().solve_seeded(black_box(&problem), 1))
    });
    group.bench_function("SAA", |b| b.iter(|| Saa::default().solve_seeded(black_box(&problem), 1)));
    group.bench_function("CDP", |b| b.iter(|| Cdp.solve_seeded(black_box(&problem), 1)));
    group.bench_function("DUP-G", |b| {
        b.iter(|| DupG::default().solve_seeded(black_box(&problem), 1))
    });
    group.sample_size(10);
    group.bench_function("IDDE-IP_50k_nodes", |b| {
        b.iter(|| IddeIp::with_node_limits(25_000, 25_000).solve_seeded(black_box(&problem), 1))
    });
    group.finish();
}

criterion_group!(benches, strategies);
criterion_main!(benches);
