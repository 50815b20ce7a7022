//! The shard layer's migration-safety contract (ISSUE 6, satellite 3):
//! `--shards 1` — a `ShardRouter` with a single shard — must produce a
//! serve CSV *byte-identical* to the monolithic engine's, across seeds,
//! worker counts and an injected fault schedule. Plus the `K > 1`
//! guarantees the contract implies: deterministic output per `(seed, K)`,
//! a clean cross-shard audit throughout, and event and fault rows equal to
//! the monolithic serve's.

use idde::prelude::*;

fn sampled_problem(seed: u64) -> Problem {
    let mut rng = idde::seeded_rng(seed);
    let scenario = SyntheticEua::default().sample(14, 60, 4, &mut rng);
    Problem::standard(scenario, &mut rng)
}

/// Serves `ticks` ticks of the seeded workload (plus an optional fault
/// plan) through the monolithic engine and returns the metrics CSV.
fn monolithic_csv(problem: &Problem, seed: u64, ticks: u64, chaos: Option<&str>) -> String {
    let mut workload =
        WorkloadGenerator::new(WorkloadConfig::default(), problem.scenario.num_data(), seed);
    let initial = workload.initial_active(problem.scenario.num_users());
    let config = EngineConfig { audit_every: 25, ..Default::default() };
    let mut engine = Engine::new(problem.clone(), config, initial);
    match chaos {
        Some(spec) => {
            let mut plan =
                FaultSpec::parse(spec).and_then(|s| s.compile(engine.base_graph())).unwrap();
            engine.run_sources(&mut [&mut plan, &mut workload], ticks);
        }
        None => engine.run(&mut workload, ticks),
    }
    engine.metrics().to_csv()
}

/// The same serve through a `ShardRouter` with `shards` shards; returns
/// the router after a clean cross-shard audit.
fn sharded_router(
    problem: &Problem,
    shards: usize,
    seed: u64,
    ticks: u64,
    chaos: Option<&str>,
) -> ShardRouter {
    let mut workload =
        WorkloadGenerator::new(WorkloadConfig::default(), problem.scenario.num_data(), seed);
    let initial = workload.initial_active(problem.scenario.num_users());
    let config = EngineConfig { audit_every: 25, ..Default::default() };
    let mut router = ShardRouter::new(problem.clone(), config, shards, initial).unwrap();
    match chaos {
        Some(spec) => {
            let graph = router.engines()[0].engine().base_graph();
            let mut plan = FaultSpec::parse(spec).and_then(|s| s.compile(graph)).unwrap();
            router.run_sources(&mut [&mut plan, &mut workload], ticks);
        }
        None => router.run(&mut workload, ticks),
    }
    let (_, _, violations) = router.cross_audit_stats();
    assert_eq!(violations, 0, "cross-shard audit violations at K = {shards}");
    router
}

/// The metrics CSV of [`sharded_router`].
fn sharded_csv(
    problem: &Problem,
    shards: usize,
    seed: u64,
    ticks: u64,
    chaos: Option<&str>,
) -> String {
    sharded_router(problem, shards, seed, ticks, chaos).metrics().to_csv()
}

/// The value of CSV row `name`.
fn row(csv: &str, name: &str) -> u64 {
    let prefix = format!("{name},");
    csv.lines().find_map(|l| l.strip_prefix(prefix.as_str())).unwrap().parse().unwrap()
}

#[test]
fn one_shard_serve_csv_is_byte_identical_across_seeds() {
    for seed in [2022u64, 7, 99] {
        let p = sampled_problem(seed);
        let mono = monolithic_csv(&p, seed, 60, None);
        let one = sharded_csv(&p, 1, seed, 60, None);
        assert_eq!(mono, one, "seed {seed}: --shards 1 diverged from the monolithic serve");
    }
}

#[test]
fn one_shard_serve_csv_is_byte_identical_across_worker_counts() {
    let p = sampled_problem(11);
    let reference = monolithic_csv(&p, 11, 60, None);
    for threads in [1usize, 2, 4] {
        idde::par::set_threads(threads);
        let one = sharded_csv(&p, 1, 11, 60, None);
        idde::par::set_threads(0);
        assert_eq!(reference, one, "{threads} workers changed the K = 1 serve CSV");
    }
}

#[test]
fn one_shard_serve_csv_is_byte_identical_under_chaos() {
    let spec = "rand:2022:2:1:1@20+8";
    let p = sampled_problem(5);
    let mono = monolithic_csv(&p, 5, 40, Some(spec));
    let one = sharded_csv(&p, 1, 5, 40, Some(spec));
    assert_eq!(mono, one, "--shards 1 diverged from the monolithic serve under chaos");
    // The spec really scheduled faults — the identity is not vacuous.
    assert!(row(&mono, "server_outages") > 0, "fault spec scheduled no outages:\n{mono}");
}

/// At every `K`, the event rows and the fault rows count the stream once:
/// a handoff's `Depart`/`Arrive` pair stands for one `Move`, and a network
/// event every engine follows is counted by its owner alone.
#[test]
fn event_and_fault_rows_are_shard_count_invariant() {
    const ROWS: [&str; 10] = [
        "ticks",
        "events",
        "arrivals",
        "departures",
        "moves",
        "requests",
        "link_faults",
        "server_outages",
        "jam_events",
        "restorations",
    ];
    let spec = "rand:2022:3:1:1@15+20";
    let p = sampled_problem(5);
    let mono = monolithic_csv(&p, 5, 50, Some(spec));
    assert!(row(&mono, "link_faults") > 0, "fault spec scheduled no link faults:\n{mono}");
    for shards in [2usize, 3, 4] {
        let router = sharded_router(&p, shards, 5, 50, Some(spec));
        assert!(router.handoffs() > 0, "K = {shards}: no user crossed a cut");
        let csv = router.metrics().to_csv();
        for name in ROWS {
            assert_eq!(row(&csv, name), row(&mono, name), "K = {shards}: {name}");
        }
    }
}

#[test]
fn multi_shard_serve_is_deterministic_and_clean() {
    let p = sampled_problem(3);
    for shards in [2usize, 3] {
        let a = sharded_csv(&p, shards, 3, 60, None);
        let b = sharded_csv(&p, shards, 3, 60, None);
        assert_eq!(a, b, "K = {shards} serve is not reproducible");
        assert!(a.contains("audit_violations,0\n"), "K = {shards}:\n{a}");
        assert!(a.contains("certificate_violations,0\n"), "K = {shards}:\n{a}");
    }
}

/// An outage changes the one network every shard reads. At K = 2, after an
/// outage of shard 0's best-connected server and after its restoration,
/// each engine's fault overlay and every path cost equal a one-shard
/// engine's, bit for bit.
#[test]
fn server_outage_reaches_every_shards_network() {
    use idde::engine::{Event, ScheduledEvent};
    let p = sampled_problem(3);
    let initial = vec![true; p.scenario.num_users()];
    let config = EngineConfig { audit_every: 25, ..Default::default() };
    let mut sharded = ShardRouter::new(p.clone(), config, 2, initial.clone()).unwrap();
    let mut single = ShardRouter::new(p.clone(), config, 1, initial).unwrap();
    let graph = p.topology.graph();
    let victim = *sharded.engines()[0]
        .owned()
        .iter()
        .min_by_key(|&&s| (std::cmp::Reverse(graph.neighbors(s).len()), s))
        .unwrap();
    assert!(!graph.neighbors(victim).is_empty(), "the victim must carry paths");
    let events = [Event::ServerDown { server: victim }, Event::ServerRestore { server: victim }];
    for (tick, event) in (0u64..).zip(events) {
        let scheduled = [ScheduledEvent { tick, seq: tick, event }];
        sharded.tick(tick, &scheduled);
        single.tick(tick, &scheduled);
        let reference = single.engines()[0].engine();
        for shard in sharded.engines() {
            let engine = shard.engine();
            let k = shard.shard();
            assert_eq!(engine.faults(), reference.faults(), "shard {k} after {event:?}");
            for a in p.scenario.server_ids() {
                for b in p.scenario.server_ids() {
                    assert_eq!(
                        engine.problem().topology.unit_cost(a, b).to_bits(),
                        reference.problem().topology.unit_cost(a, b).to_bits(),
                        "shard {k}, cost {a}->{b} after {event:?}"
                    );
                }
            }
        }
    }
    assert!(sharded.cross_audit().is_clean());
}

/// A cloned router takes a fault on its own copy of the network: after
/// one `ServerDown`, every engine of the clone reads the fault overlay and
/// path costs of a freshly built router that applied the same event, and
/// the prototype it was cloned from still reads the healthy network.
#[test]
fn a_cloned_router_takes_a_fault_without_touching_its_prototype() {
    use idde::engine::{Event, ScheduledEvent};
    let p = sampled_problem(3);
    let initial = vec![true; p.scenario.num_users()];
    let config = EngineConfig { audit_every: 25, ..Default::default() };
    let prototype = ShardRouter::new(p.clone(), config, 2, initial.clone()).unwrap();
    let mut fresh = ShardRouter::new(p.clone(), config, 2, initial).unwrap();
    let mut clone = prototype.clone();
    let healthy = prototype.engines()[0].engine().faults().clone();
    let graph = p.topology.graph();
    let victim = *prototype.engines()[0]
        .owned()
        .iter()
        .min_by_key(|&&s| (std::cmp::Reverse(graph.neighbors(s).len()), s))
        .unwrap();
    let down = [ScheduledEvent { tick: 0, seq: 0, event: Event::ServerDown { server: victim } }];
    clone.tick(0, &down);
    fresh.tick(0, &down);
    let reference = fresh.engines()[0].engine();
    assert_ne!(reference.faults(), &healthy, "the outage must change the fault overlay");
    let cost = |router: &ShardRouter, k: usize, a: ServerId, b: ServerId| {
        router.engines()[k].engine().problem().topology.unit_cost(a, b).to_bits()
    };
    for k in 0..2 {
        assert_eq!(clone.engines()[k].engine().faults(), reference.faults(), "clone shard {k}");
        assert_eq!(prototype.engines()[k].engine().faults(), &healthy, "prototype shard {k}");
        for a in p.scenario.server_ids() {
            for b in p.scenario.server_ids() {
                assert_eq!(cost(&clone, k, a, b), cost(&fresh, 0, a, b), "clone {k}: {a}->{b}");
                let base = p.topology.unit_cost(a, b).to_bits();
                assert_eq!(cost(&prototype, k, a, b), base, "prototype {k}: {a}->{b}");
            }
        }
    }
    assert!(clone.cross_audit().is_clean());
    assert!(prototype.cross_audit().is_clean());
}
