//! Fault-injection invariants: after *any* random sequence of server
//! outages, restorations and link faults, the engine's incrementally
//! maintained state — coverage relation, all-pairs path cache, allocation
//! and the interference field it induces — must equal a from-scratch
//! rebuild on the surviving topology, and the full invariant audit must
//! stay clean.

use idde::chaos::FaultSpec;
use idde::model::{ChannelIndex, CoverageMap};
use idde::prelude::*;
use idde_radio::InterferenceField;
use proptest::prelude::*;

fn sampled_problem(seed: u64) -> idde::core::Problem {
    let mut rng = idde::seeded_rng(seed);
    let gen = SyntheticEua {
        num_servers: 10,
        num_users: 24,
        width_m: 900.0,
        height_m: 700.0,
        ..Default::default()
    };
    let n = 4 + (seed % 4) as usize; // 4..=7 servers
    let m = 8 + (seed % 10) as usize; // 8..=17 users
    let scenario = gen.sample(n, m, 3, &mut rng);
    idde::core::Problem::standard(scenario, &mut rng)
}

/// A raw `(server, onset, duration, permanent)` outage draw.
type OutageDraw = (u32, u64, u64, bool);
/// A raw `(link, onset, duration)` cut draw.
type CutDraw = (u32, u64, u64);

/// A random fault schedule: server outages (some permanent) plus link cuts,
/// encoded through the public spec grammar so the test also exercises the
/// parser/compiler path the CLI uses.
fn arb_fault_run() -> impl proptest::strategy::Strategy<Value = (u64, Vec<OutageDraw>, Vec<CutDraw>)>
{
    (
        0u64..5_000,
        proptest::collection::vec((0u32..64, 0u64..60, 1u64..40, proptest::bool::ANY), 1..6),
        proptest::collection::vec((0u32..64, 0u64..60, 1u64..40), 0..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fault_sequences_leave_incremental_state_equal_to_a_rebuild(
        (seed, outages, cuts) in arb_fault_run(),
    ) {
        let problem = sampled_problem(seed);
        let num_servers = problem.scenario.num_servers();
        let num_links = problem.topology.graph().num_links();

        let mut items: Vec<String> = Vec::new();
        for &(sraw, at, dur, permanent) in &outages {
            let server = sraw as usize % num_servers;
            if permanent {
                items.push(format!("server:{server}@{at}"));
            } else {
                items.push(format!("server:{server}@{at}+{dur}"));
            }
        }
        for &(lraw, at, dur) in &cuts {
            if num_links == 0 {
                break;
            }
            let link = problem.topology.graph().links()[lraw as usize % num_links];
            items.push(format!("link:{}-{}@{at}+{dur}", link.a, link.b));
        }
        let spec = FaultSpec::parse(&items.join(",")).unwrap();
        let mut plan = spec.compile(problem.topology.graph()).unwrap();

        // Every user active, no workload churn: the only events are faults,
        // so any divergence is the fault path's fault.
        let initial = vec![true; problem.scenario.num_users()];
        let mut engine = Engine::new(problem, EngineConfig::default(), initial);
        engine.run(&mut plan, 100);

        // 1. The incrementally disabled/enabled coverage relation equals a
        //    fresh geometric recompute with the surviving servers masked.
        let scenario = &engine.problem().scenario;
        let mut fresh_coverage = CoverageMap::compute(&scenario.servers, &scenario.users);
        for server in engine.faults().down_servers() {
            fresh_coverage.disable_server(server);
        }
        prop_assert_eq!(&fresh_coverage, &scenario.coverage, "coverage drifted (seed {})", seed);

        // 2. The path cache, refilled in place after every fault, equals a
        //    from-scratch all-pairs build on the surviving graph bit for bit.
        let live = &engine.problem().topology;
        let rebuilt = idde::net::Topology::new(
            engine.faults().effective_graph(engine.base_graph()),
            live.cloud_speed(),
        );
        for o in scenario.server_ids() {
            for i in scenario.server_ids() {
                prop_assert_eq!(
                    live.unit_cost(o, i).to_bits(),
                    rebuilt.unit_cost(o, i).to_bits(),
                    "unit cost {} → {} drifted (seed {})", o, i, seed
                );
            }
        }

        // 3. The allocation the repairs left behind induces an interference
        //    field whose power sums match an independent resummation to the
        //    1e-12 relative contract (and the field's own rebuild check).
        let field = InterferenceField::from_allocation(
            &engine.problem().radio,
            scenario,
            engine.allocation(),
        );
        prop_assert!(field.consistency_check(), "field rebuild drifted (seed {})", seed);
        for server in scenario.server_ids() {
            for x in 0..scenario.servers[server.index()].num_channels {
                let channel = ChannelIndex(x);
                let direct: f64 = scenario
                    .user_ids()
                    .filter(|&u| engine.allocation().decision(u) == Some((server, channel)))
                    .map(|u| scenario.users[u.index()].power.value())
                    .sum();
                let cached = field.channel_power(server, channel);
                prop_assert!(
                    (cached - direct).abs()
                        <= InterferenceField::POWER_SUM_REL_TOL * cached.abs().max(direct.abs()),
                    "power sum at {} channel {} drifted: {} vs {} (seed {})",
                    server, x, cached, direct, seed
                );
            }
        }

        // 4. The full invariant audit (including liveness checks for any
        //    still-down servers) is clean.
        let report = engine.run_audit();
        prop_assert!(report.is_clean(), "audit found violations (seed {}): {}", seed, report);
    }
}
