//! Batched-ingestion equivalence: across random churn floods the
//! group-commit layer must honour its determinism contract at every batch
//! size. (`--batch 1` exactness against recorded serve CSVs lives in
//! `tests/golden_serve.rs`.)
//!
//! * Across batch sizes {1, 7, 64, whole-tick}: user positions are
//!   bitwise equal (per-step clamping happens at ingest time); activity
//!   flags, the coverage relation, the ingest-time counters (events,
//!   arrivals, departures, moves, requests) and the fault counters
//!   (outages, jams, restorations) all agree; the interference field of
//!   every replay passes the from-scratch consistency check; and a full
//!   invariant audit is clean. Equilibrium-derived gauges (repair counts,
//!   drift) may legitimately differ — a union repair is one game, not N.
//! * Every replay is `paranoid`, so each repair is also checked against
//!   the same game with fresh quiet records, outage clears included.

use idde::engine::Event;
use idde::prelude::*;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn problem(seed: u64) -> Problem {
    let mut rng = idde::seeded_rng(seed);
    let scenario = SyntheticEua::default().sample(10, 40, 3, &mut rng);
    Problem::standard(scenario, &mut rng)
}

/// A scripted flood: `ticks` slices of `per_tick` events drawn from a
/// seeded generator — churn-heavy, with occasional requests and
/// infrastructure faults (jams, unjams, server outages and restorations),
/// all of which are flush barriers.
fn flood(seed: u64, ticks: usize, per_tick: usize, users: u32, servers: u32) -> Vec<Vec<Event>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..ticks)
        .map(|_| {
            (0..per_tick)
                .map(|_| {
                    let user = UserId(rng.gen_range(0..users));
                    let server = ServerId(rng.gen_range(0..servers));
                    match rng.gen_range(0..22u32) {
                        0..=11 => Event::Move {
                            user,
                            dx: rng.gen_range(-300.0..300.0),
                            dy: rng.gen_range(-300.0..300.0),
                        },
                        12..=14 => Event::Depart { user },
                        15..=16 => Event::Arrive { user },
                        17 => Event::Request { user, data: DataId(0) },
                        18 => Event::Jam { server, floor_w: rng.gen_range(1e-9..1e-6) },
                        19 => Event::Unjam { server },
                        20 => Event::ServerDown { server },
                        _ => Event::ServerRestore { server },
                    }
                })
                .collect()
        })
        .collect()
}

/// Replays `ticks` on a fresh engine at group-commit size `batch`.
fn replay(seed: u64, batch: u64, ticks: &[Vec<Event>]) -> Engine {
    let problem = problem(seed);
    let initial: Vec<bool> = (0..problem.scenario.num_users()).map(|j| j % 3 != 0).collect();
    let config =
        EngineConfig { paranoid: true, checkpoint_interval: 0, batch, ..Default::default() };
    let mut engine = Engine::new(problem, config, initial);
    for (t, events) in ticks.iter().enumerate() {
        engine.apply_batch(events);
        engine.end_tick(t as u64);
    }
    engine
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn batch_sizes_agree_on_state_and_batch_one_is_exact(
        seed in 0u64..2_000,
        ticks in 2usize..5,
        per_tick in 10usize..40,
    ) {
        let floods = flood(seed, ticks, per_tick, 40, 10);
        let baseline = replay(seed, 1, &floods);

        let whole_tick = (ticks * per_tick) as u64;
        for batch in [7u64, 64, whole_tick] {
            let batched = replay(seed, batch, &floods);
            let m = baseline.problem().scenario.num_users();
            for j in 0..m {
                let a = baseline.problem().scenario.users[j].position;
                let b = batched.problem().scenario.users[j].position;
                prop_assert_eq!(
                    (a.x.to_bits(), a.y.to_bits()),
                    (b.x.to_bits(), b.y.to_bits()),
                    "user {} position differs at batch {}", j, batch
                );
            }
            prop_assert_eq!(baseline.active(), batched.active(), "activity at batch {}", batch);
            prop_assert_eq!(
                &baseline.problem().scenario.coverage,
                &batched.problem().scenario.coverage,
                "coverage relation differs at batch {}", batch
            );
            let (ma, mb) = (baseline.metrics(), batched.metrics());
            prop_assert_eq!(
                (ma.events, ma.arrivals, ma.departures, ma.moves, ma.requests),
                (mb.events, mb.arrivals, mb.departures, mb.moves, mb.requests),
                "ingest counters differ at batch {}", batch
            );
            prop_assert_eq!(
                (ma.server_outages, ma.jam_events, ma.restorations),
                (mb.server_outages, mb.jam_events, mb.restorations),
                "fault counters differ at batch {}", batch
            );
            let field = idde_radio::InterferenceField::from_allocation(
                &batched.problem().radio,
                &batched.problem().scenario,
                batched.allocation(),
            );
            prop_assert!(field.consistency_check(), "field at batch {}", batch);
            let mut batched = batched;
            let report = batched.run_audit();
            prop_assert!(report.is_clean(), "audit at batch {}: {}", batch, report);
        }
    }
}
