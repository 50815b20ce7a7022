//! Per-layer metrics of the traced run and the end-of-run probes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use idde_core::{evict_useless_replicas, GreedyDelivery, IddeUGame};
use idde_dist::InstallDemand;
use idde_engine::{Engine, EngineConfig, ServeMetrics};
use idde_model::DataId;
use idde_radio::InterferenceField;

use crate::serve::AuditOutcome;
use crate::stats::{median, ms, ratio};
use crate::trace::{Tracer, EVENT_SPANS};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("engine.ticks", "count"),
    ("engine.events", "count"),
    ("engine.apply.arrive.count", "count"),
    ("engine.apply.arrive.busy_ms", "ms"),
    ("engine.apply.arrive.p50_us", "us"),
    ("engine.apply.depart.count", "count"),
    ("engine.apply.depart.busy_ms", "ms"),
    ("engine.apply.depart.p50_us", "us"),
    ("engine.apply.move.count", "count"),
    ("engine.apply.move.busy_ms", "ms"),
    ("engine.apply.move.p50_us", "us"),
    ("engine.apply.request.count", "count"),
    ("engine.apply.request.busy_ms", "ms"),
    ("engine.apply.request.p50_us", "us"),
    ("engine.apply.fault.count", "count"),
    ("engine.apply_batch_ms", "ms"),
    ("engine.end_tick_ms", "ms"),
    ("engine.self_ms", "ms"),
    ("core.equilibrium.busy_ms", "ms"),
    ("core.equilibrium.repairs", "count"),
    ("core.equilibrium.moves", "count"),
    ("core.equilibrium.moves_per_repair", "ratio"),
    ("core.placement.busy_ms", "ms"),
    ("core.placement.repairs", "count"),
    ("core.placement.new_replicas", "count"),
    ("core.placement.evicted_replicas", "count"),
    ("core.placement.replicas_per_repair", "ratio"),
    ("core.checkpoint.busy_ms", "ms"),
    ("core.checkpoint.count", "count"),
    ("core.checkpoint.fallbacks", "count"),
    ("core.checkpoint.fallback_ratio", "ratio"),
    ("core.checkpoint.max_drift", "ratio"),
    ("core.game.solve_ms", "ms"),
    ("core.greedy.repair_ms", "ms"),
    ("core.evict.repair_ms", "ms"),
    ("radio.field.rebuild_ms", "ms"),
    ("dist.plan_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.hits_per_insertion", "ratio"),
    ("cache.rejected", "count"),
    ("dist.rounds", "count"),
    ("dist.trees", "count"),
    ("dist.replicas", "count"),
    ("dist.cloud_seeds", "count"),
    ("dist.cost_ms", "sim_ms"),
    ("dist.delay_violations", "count"),
    ("net.link_faults", "count"),
    ("net.server_outages", "count"),
    ("net.displaced_users", "count"),
    ("net.re_replications", "count"),
    ("net.cloud_fallbacks", "count"),
    ("net.unreachable_item_ticks", "count"),
    ("shard.tick_ms", "ms"),
    ("shard.self_ms", "ms"),
    ("shard.handoffs", "count"),
    ("shard.busy_ms_per_shard", "ms"),
    ("shard.imbalance", "ratio"),
    ("shard.parallel_efficiency", "ratio"),
    ("audit.final_ms", "ms"),
    ("audit.checks", "count"),
    ("audit.violations", "count"),
    ("audit.cross_checks", "count"),
    ("audit.cross_violations", "count"),
    ("workload.gen_ms", "ms"),
    ("setup.problem_ms", "ms"),
    ("setup.engine_ms", "ms"),
    ("par.workers", "count"),
    ("trace.events_per_s_untraced", "1/s"),
    ("trace.events_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Median wall time of the four single-call probes, ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    pub game_solve: f64,
    pub greedy_repair: f64,
    pub evict: f64,
    pub field_rebuild: f64,
    pub dist_plan: f64,
}

pub const PROBE_REPS: usize = 5;

fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            ms(started.elapsed())
        })
        .collect();
    median(&samples)
}

/// Times each layer's core call once per repetition on `engine`'s current
/// state: a from-scratch restricted game over the active users, the two
/// halves of a placement repair (useless-replica eviction, then the
/// warm-started greedy), an interference-field rebuild and a distribution
/// plan that installs every current holder.
pub fn probe(engine: &Engine, config: &EngineConfig) -> Probes {
    let problem = engine.problem();
    let active = engine.active_users();
    let game = IddeUGame::new(config.game);
    let greedy = GreedyDelivery::new(config.delivery);
    let demands: Vec<InstallDemand> = (0..problem.scenario.num_data())
        .map(DataId::from_index)
        .filter_map(|data| {
            let destinations: Vec<_> = engine.placement().servers_with(data).collect();
            (!destinations.is_empty()).then(|| InstallDemand {
                data,
                size: problem.scenario.data[data.index()].size,
                sources: Vec::new(),
                destinations,
            })
        })
        .collect();
    let strategy = config.dist.strategy.strategy();
    Probes {
        game_solve: time_ms(PROBE_REPS, || {
            game.run_restricted(problem.field(), &active).field.into_allocation()
        }),
        greedy_repair: time_ms(PROBE_REPS, || {
            greedy.run_from(problem, engine.allocation(), Some(engine.placement()))
        }),
        evict: time_ms(PROBE_REPS, || {
            let mut placement = engine.placement().clone();
            evict_useless_replicas(problem, engine.allocation(), &mut placement)
        }),
        field_rebuild: time_ms(PROBE_REPS, || {
            InterferenceField::from_allocation(
                &problem.radio,
                &problem.scenario,
                engine.allocation(),
            )
            .into_allocation()
        }),
        dist_plan: time_ms(PROBE_REPS, || strategy.plan(&problem.topology, &demands, &config.dist)),
    }
}

/// Everything the per-layer table is computed from.
pub struct LayerInputs<'a> {
    pub tracer: &'a Tracer,
    pub shards: Option<usize>,
    /// The traced episodes' serve metrics, merged.
    pub metrics: &'a ServeMetrics,
    pub ticks: u64,
    pub events: u64,
    pub handoffs: u64,
    pub audit: &'a AuditOutcome,
    pub probes: Probes,
    pub setup_problem_ms: f64,
    pub setup_engine_ms: f64,
    pub workers: usize,
    pub events_per_s_untraced: f64,
    pub events_per_s_traced: f64,
}

/// The per-layer metrics, keyed by name: busy times and counters summed
/// over the traced episodes (counters include each episode's set-up).
pub fn per_layer(x: &LayerInputs<'_>) -> BTreeMap<&'static str, f64> {
    let t = x.tracer;
    let m = x.metrics;
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    out.insert("engine.ticks", x.ticks as f64);
    out.insert("engine.events", x.events as f64);
    let names: [[&'static str; 3]; 4] = [
        ["engine.apply.arrive.count", "engine.apply.arrive.busy_ms", "engine.apply.arrive.p50_us"],
        ["engine.apply.depart.count", "engine.apply.depart.busy_ms", "engine.apply.depart.p50_us"],
        ["engine.apply.move.count", "engine.apply.move.busy_ms", "engine.apply.move.p50_us"],
        [
            "engine.apply.request.count",
            "engine.apply.request.busy_ms",
            "engine.apply.request.p50_us",
        ],
    ];
    for (k, [count, busy, p50]) in names.iter().enumerate() {
        let stats = &t.kinds[k];
        let samples: Vec<f64> = stats.samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        out.insert(count, stats.count as f64);
        out.insert(busy, ms(t.busy_of(EVENT_SPANS[k])));
        out.insert(p50, median(&samples));
    }
    out.insert("engine.apply.fault.count", t.kinds[4].count as f64);
    let apply_names: Vec<&str> =
        t.busy.keys().copied().filter(|k| k.starts_with("engine.apply")).collect();
    let apply: Duration = apply_names.iter().map(|k| t.busy_of(k)).sum();
    out.insert("engine.apply_batch_ms", ms(apply));
    out.insert("engine.end_tick_ms", ms(t.busy_of("engine.end_tick")));
    let mut engine_calls = apply_names.clone();
    engine_calls.push("engine.end_tick");
    out.insert("engine.self_ms", ms(t.self_of(&engine_calls)));

    out.insert("core.equilibrium.busy_ms", ms(t.phases.equilibrium));
    out.insert("core.equilibrium.repairs", m.repairs as f64);
    out.insert("core.equilibrium.moves", m.repair_moves as f64);
    out.insert("core.equilibrium.moves_per_repair", ratio(m.repair_moves as f64, m.repairs as f64));
    out.insert("core.placement.busy_ms", ms(t.phases.placement));
    out.insert("core.placement.repairs", m.placement_repairs as f64);
    out.insert("core.placement.new_replicas", m.new_replicas as f64);
    out.insert("core.placement.evicted_replicas", m.evicted_replicas as f64);
    out.insert(
        "core.placement.replicas_per_repair",
        ratio(m.new_replicas as f64, m.placement_repairs as f64),
    );
    out.insert("core.checkpoint.busy_ms", ms(t.phases.checkpoint));
    out.insert("core.checkpoint.count", m.checkpoints as f64);
    out.insert("core.checkpoint.fallbacks", m.fallbacks as f64);
    out.insert("core.checkpoint.fallback_ratio", ratio(m.fallbacks as f64, m.checkpoints as f64));
    out.insert("core.checkpoint.max_drift", m.max_drift);
    out.insert("core.game.solve_ms", x.probes.game_solve);
    out.insert("core.greedy.repair_ms", x.probes.greedy_repair);
    out.insert("core.evict.repair_ms", x.probes.evict);
    out.insert("radio.field.rebuild_ms", x.probes.field_rebuild);
    out.insert("dist.plan_ms", x.probes.dist_plan);

    let c = m.cache.unwrap_or_default();
    out.insert("cache.hits", c.hits as f64);
    out.insert("cache.misses", c.misses as f64);
    out.insert("cache.hit_ratio", ratio(c.hits as f64, (c.hits + c.misses) as f64));
    out.insert("cache.insertions", c.insertions as f64);
    out.insert("cache.evictions", c.total_evictions() as f64);
    out.insert("cache.hits_per_insertion", ratio(c.hits as f64, c.insertions as f64));
    out.insert("cache.rejected", c.rejected as f64);

    let d = m.dist.unwrap_or_default();
    out.insert("dist.rounds", d.bulk_installs as f64);
    out.insert("dist.trees", d.tree_installs as f64);
    out.insert("dist.replicas", d.replicas_installed as f64);
    out.insert("dist.cloud_seeds", d.cloud_seeds as f64);
    out.insert("dist.cost_ms", d.dist_cost_ms);
    out.insert("dist.delay_violations", d.delay_violations as f64);

    out.insert("net.link_faults", m.link_faults as f64);
    out.insert("net.server_outages", m.server_outages as f64);
    out.insert("net.displaced_users", m.displaced_users as f64);
    out.insert("net.re_replications", m.re_replications as f64);
    out.insert("net.cloud_fallbacks", m.cloud_fallback_requests as f64);
    out.insert("net.unreachable_item_ticks", m.unreachable_item_ticks as f64);

    let (tick_ms, self_ms, busy_per_shard, imbalance, efficiency) = match x.shards {
        Some(k) => {
            let busy: Vec<f64> = t.shard_busy.iter().map(|&d| ms(d)).collect();
            let mean = busy.iter().sum::<f64>() / k as f64;
            let max = busy.iter().copied().fold(0.0, f64::max);
            let wall = ms(t.busy_of("shard.tick"));
            (
                wall,
                ms(t.self_of(&["shard.tick"])),
                mean,
                ratio(max, mean),
                ratio(busy.iter().sum::<f64>(), k as f64 * wall),
            )
        }
        None => (0.0, 0.0, 0.0, 0.0, 0.0),
    };
    out.insert("shard.tick_ms", tick_ms);
    out.insert("shard.self_ms", self_ms);
    out.insert("shard.handoffs", x.handoffs as f64);
    out.insert("shard.busy_ms_per_shard", busy_per_shard);
    out.insert("shard.imbalance", imbalance);
    out.insert("shard.parallel_efficiency", efficiency);

    out.insert("audit.final_ms", ms(x.audit.elapsed));
    out.insert("audit.checks", x.audit.checks as f64);
    out.insert("audit.violations", x.audit.violations as f64);
    out.insert("audit.cross_checks", x.audit.cross_checks as f64);
    out.insert("audit.cross_violations", x.audit.cross_violations as f64);

    out.insert("workload.gen_ms", ms(t.busy_of("workload.gen")));
    out.insert("setup.problem_ms", x.setup_problem_ms);
    out.insert("setup.engine_ms", x.setup_engine_ms);
    out.insert("par.workers", x.workers as f64);
    out.insert("trace.events_per_s_untraced", x.events_per_s_untraced);
    out.insert("trace.events_per_s_traced", x.events_per_s_traced);
    out.insert(
        "trace.overhead_pct",
        100.0 * (1.0 - ratio(x.events_per_s_traced, x.events_per_s_untraced)),
    );
    out
}
