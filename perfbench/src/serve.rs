//! The timed serve loop: set-up, the per-tick loop, the fidelity replay
//! and the final audit, all through the serving stack's public calls.
//!
//! The loop replays what `Engine::run_sources` / `ShardRouter::run_sources`
//! do — poll every source into one `EventQueue`, drain the tick, apply it —
//! so each call into a layer can be timed from outside.

use std::time::{Duration, Instant};

use idde_core::Problem;
use idde_engine::metrics::PhaseTimings;
use idde_engine::{
    Engine, EngineConfig, Event, EventQueue, EventSource, ScheduledEvent, ServeMetrics,
};
use idde_radio::{RadioEnvironment, RadioParams};
use idde_shard::ShardRouter;

use crate::trace::Tracer;
use crate::workloads::{Deployment, Sources, Spec};

/// The system under test: one engine, or a shard router over K engines.
pub enum Serving {
    Mono(Box<Engine>),
    Sharded(Box<ShardRouter>),
}

/// Wall time of one set-up, split at the problem/engine boundary.
#[derive(Clone, Copy, Debug)]
pub struct SetupTime {
    pub problem: Duration,
    pub engine: Duration,
}

impl SetupTime {
    pub fn total(&self) -> Duration {
        self.problem + self.engine
    }
}

/// Builds the problem and the serving engine(s) from the deployment: the
/// radio environment and `Problem::new`, then the initial IDDE-G solve and
/// install inside `Engine::new` / `ShardRouter::new`.
pub fn setup(
    spec: &Spec,
    deployment: &Deployment,
    seed: u64,
) -> Result<(Serving, SetupTime), String> {
    let scenario = deployment.scenario.clone();
    let topology = deployment.topology.clone();
    let initial = deployment.initial.clone();
    let config: EngineConfig = spec.config(seed);
    let started = Instant::now();
    let radio = RadioEnvironment::new(&scenario, RadioParams::paper());
    let problem = Problem::new(scenario, radio, topology);
    let built = Instant::now();
    let serving = match spec.shards {
        None => Serving::Mono(Box::new(Engine::new(problem, config, initial))),
        Some(k) => Serving::Sharded(Box::new(
            ShardRouter::new(problem, config, k, initial).map_err(|e| format!("shards: {e}"))?,
        )),
    };
    let done = Instant::now();
    Ok((serving, SetupTime { problem: built - started, engine: done - built }))
}

impl Sources {
    fn push_tick(&mut self, tick: u64, active: &[bool], queue: &mut EventQueue) {
        if let Some(faults) = self.faults.as_mut() {
            faults.push_tick(tick, active, queue);
        }
        self.traffic.push_tick(tick, active, queue);
    }
}

/// What the final correctness gate of one episode found.
#[derive(Clone, Debug, Default)]
pub struct AuditOutcome {
    pub elapsed: Duration,
    pub checks: u64,
    pub violations: u64,
    pub cross_checks: u64,
    pub cross_violations: u64,
}

impl AuditOutcome {
    pub fn add(&mut self, other: &Self) {
        self.elapsed += other.elapsed;
        self.checks += other.checks;
        self.violations += other.violations;
        self.cross_checks += other.cross_checks;
        self.cross_violations += other.cross_violations;
    }
}

impl Serving {
    pub fn active(&self) -> &[bool] {
        match self {
            Serving::Mono(e) => e.active(),
            Serving::Sharded(r) => r.active(),
        }
    }

    /// The serve metrics (merged over shards).
    pub fn metrics(&self) -> ServeMetrics {
        match self {
            Serving::Mono(e) => e.metrics().clone(),
            Serving::Sharded(r) => r.metrics(),
        }
    }

    /// The engines, one per shard.
    pub fn engines(&self) -> Vec<&Engine> {
        match self {
            Serving::Mono(e) => vec![e.as_ref()],
            Serving::Sharded(r) => r.engines().iter().map(|s| s.engine()).collect(),
        }
    }

    /// The program's own serve loop, for the fidelity check.
    pub fn run_sources(&mut self, sources: &mut Sources, ticks: u64) {
        let mut list: Vec<&mut dyn EventSource> = Vec::with_capacity(2);
        if let Some(faults) = sources.faults.as_mut() {
            list.push(faults);
        }
        list.push(&mut sources.traffic);
        match self {
            Serving::Mono(e) => e.run_sources(&mut list, ticks),
            Serving::Sharded(r) => r.run_sources(&mut list, ticks),
        }
    }

    /// One final audit: the engine audit, or every shard's audit plus the
    /// cross-shard audit.
    pub fn audit(&mut self) -> AuditOutcome {
        let started = Instant::now();
        let (report, cross) = match self {
            Serving::Mono(e) => (e.run_audit(), None),
            Serving::Sharded(r) => {
                let (_, checks_before, violations_before) = r.cross_audit_stats();
                let report = r.run_audit();
                let (_, checks, violations) = r.cross_audit_stats();
                (report, Some((checks - checks_before, violations - violations_before)))
            }
        };
        let elapsed = started.elapsed();
        let (cross_checks, cross_violations) = cross.unwrap_or((0, 0));
        AuditOutcome {
            elapsed,
            checks: report.checks,
            violations: report.violations.len() as u64,
            cross_checks,
            cross_violations,
        }
    }
}

/// Per-tick wall times and counts of one timed episode.
#[derive(Clone, Debug, Default)]
pub struct Episode {
    /// Wall time of each tick's serving calls, event generation excluded.
    pub tick_times: Vec<Duration>,
    /// Events applied.
    pub events: u64,
}

impl Episode {
    pub fn busy(&self) -> Duration {
        self.tick_times.iter().sum()
    }
}

/// Runs `ticks` ticks through the benchmark's loop. With a tracer, every call
/// into a layer is recorded as a span and its in-program phase time is
/// attributed; without one, only the per-tick wall time is taken.
pub fn run_episode(
    serving: &mut Serving,
    sources: &mut Sources,
    ticks: u64,
    batch: u64,
    mut tracer: Option<&mut Tracer>,
) -> Episode {
    let mut queue = EventQueue::new();
    let mut slice: Vec<Event> = Vec::new();
    let mut scheduled: Vec<ScheduledEvent> = Vec::new();
    let mut episode =
        Episode { tick_times: Vec::with_capacity(ticks as usize), ..Default::default() };
    for tick in 0..ticks {
        let polled = Instant::now();
        sources.push_tick(tick, serving.active(), &mut queue);
        slice.clear();
        scheduled.clear();
        while let Some(event) = queue.pop() {
            slice.push(event.event);
            scheduled.push(event);
        }
        let started = Instant::now();
        episode.events += slice.len() as u64;
        match tracer.as_deref_mut() {
            None => match serving {
                Serving::Mono(e) => {
                    e.apply_batch(&slice);
                    e.end_tick(tick);
                }
                Serving::Sharded(r) => r.tick(tick, &scheduled),
            },
            Some(t) => {
                t.span("workload.gen", tick, polled, started, Some("tick"));
                traced_tick(serving, tick, &slice, &scheduled, batch, t)
            }
        }
        let ended = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.span("tick", tick, polled, ended, None);
        }
        episode.tick_times.push(ended - started);
    }
    episode
}

/// One tick with a span around every call into the stack. At batch 1,
/// `apply_batch` is exactly a per-event `apply` loop, so the traced loop
/// calls `apply` itself and times each event.
fn traced_tick(
    serving: &mut Serving,
    tick: u64,
    slice: &[Event],
    scheduled: &[ScheduledEvent],
    batch: u64,
    t: &mut Tracer,
) {
    match serving {
        Serving::Mono(e) => {
            if batch <= 1 {
                for event in slice {
                    let before = e.metrics().timings;
                    let started = Instant::now();
                    e.apply(event);
                    let ended = Instant::now();
                    t.event_span(tick, event, started, ended, before, e.metrics().timings);
                }
            } else {
                let before = e.metrics().timings;
                let started = Instant::now();
                e.apply_batch(slice);
                let ended = Instant::now();
                t.count_events(slice);
                t.call_span(
                    "engine.apply_batch",
                    tick,
                    started,
                    ended,
                    &[before],
                    &[e.metrics().timings],
                );
            }
            let before = e.metrics().timings;
            let started = Instant::now();
            e.end_tick(tick);
            let ended = Instant::now();
            t.call_span("engine.end_tick", tick, started, ended, &[before], &[e.metrics().timings]);
        }
        Serving::Sharded(r) => {
            let clocks = |r: &ShardRouter| -> Vec<PhaseTimings> {
                r.engines().iter().map(|s| s.engine().metrics().timings).collect()
            };
            let before = clocks(r);
            let started = Instant::now();
            r.tick(tick, scheduled);
            let ended = Instant::now();
            t.count_events(slice);
            t.call_span("shard.tick", tick, started, ended, &before, &clocks(r));
        }
    }
}
