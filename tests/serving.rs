//! Online serving engine correctness: a 500-event churn run where the
//! incremental repairs must keep the interference field consistent after
//! every churn event (`paranoid` mode asserts `consistency_check` inside
//! each repair), every 50th event triggers a full invariant audit (Eqs. 2–4
//! field cross-check plus the Eq. 6/8 placement audit), converged repairs
//! are Nash-certified over their dirty sets, and the repaired equilibrium
//! must stay within the drift threshold of a from-scratch re-solve at every
//! checkpoint.

use idde::engine::{EngineConfig, EventQueue};
use idde::prelude::*;

#[test]
fn five_hundred_events_of_incremental_repair_stay_consistent() {
    let mut rng = idde::seeded_rng(7);
    let scenario = SyntheticEua::default().sample(15, 70, 4, &mut rng);
    let problem = Problem::standard(scenario, &mut rng);

    let drift_threshold = 0.05;
    let config = EngineConfig {
        drift_threshold,
        // Checkpoints are driven by hand below, per event count not ticks.
        checkpoint_interval: 0,
        paranoid: true,
        audit_every: 50,
        ..Default::default()
    };
    let workload_config = WorkloadConfig {
        arrival_rate: 1.5,
        departure_rate: 1.5,
        move_probability: 0.1,
        ..Default::default()
    };
    let mut workload = WorkloadGenerator::new(workload_config, 4, 7);
    let initial = workload.initial_active(problem.scenario.num_users());
    let mut engine = Engine::new(problem, config, initial);

    let mut queue = EventQueue::new();
    let mut tick = 0u64;
    let mut events = 0usize;
    while events < 500 {
        workload.push_tick(tick, engine.active(), &mut queue);
        tick += 1;
        while let Some(scheduled) = queue.pop() {
            // `paranoid` makes every churn repair assert the field's
            // consistency against a from-scratch rebuild.
            engine.apply(&scheduled.event);
            events += 1;
            if events.is_multiple_of(50) {
                let drift = engine.checkpoint();
                if drift > drift_threshold {
                    // The checkpoint fell back to the full solution; the
                    // adopted strategy must now sit at the re-solved
                    // equilibrium (zero drift up to determinism).
                    let after = engine.checkpoint();
                    assert!(
                        after <= drift_threshold,
                        "drift {after} persists after a fallback at event {events}"
                    );
                }
            }
        }
        assert!(
            engine.problem().is_feasible(&engine.strategy()),
            "infeasible strategy after tick {tick}"
        );
    }

    let metrics = engine.metrics();
    assert!(metrics.events >= 500);
    assert!(metrics.repairs > 0, "churn must have triggered repairs");
    assert!(metrics.checkpoints >= 10);
    assert!(
        metrics.last_drift <= drift_threshold || metrics.fallbacks > 0,
        "drift {:.4} above threshold without a fallback",
        metrics.last_drift
    );
    // The workload actually exercised every event kind.
    assert!(metrics.arrivals > 0 && metrics.departures > 0);
    assert!(metrics.moves > 0 && metrics.requests > 0);
    // The periodic audits ran and every invariant held.
    assert!(metrics.audits >= 10, "expected ≥10 audits over 500+ events");
    assert!(metrics.audit_checks > 0);
    assert_eq!(metrics.audit_violations, 0, "audited churn run must be violation-free");
    assert!(metrics.certificates > 0, "converged repairs must be Nash-certified");
    assert_eq!(metrics.certificate_violations, 0);
    // A final full audit of the end state is clean too.
    let report = engine.run_audit();
    assert!(report.is_clean(), "{report}");
}

#[test]
fn engine_with_every_user_active_starts_from_the_iddeg_strategy() {
    // One best-response discipline: the engine's initial solve and IDDE-G
    // run the same game, so with every user active they agree bit for bit.
    for seed in [3u64, 7, 11, 2022] {
        let mut rng = idde::seeded_rng(seed);
        let scenario = SyntheticEua::default().sample(20, 100, 5, &mut rng);
        let problem = Problem::standard(scenario, &mut rng);
        let offline = IddeG::default().solve(&problem);
        let all_active = vec![true; problem.scenario.num_users()];
        let engine = Engine::new(problem, EngineConfig::default(), all_active);
        assert_eq!(engine.allocation(), &offline.allocation, "seed {seed}: allocation");
        assert_eq!(engine.placement(), &offline.placement, "seed {seed}: placement");
    }
}
