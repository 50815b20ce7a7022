//! In-memory spans around every call into the serving stack, plus the
//! per-layer busy and self-time accounting derived from them.
//!
//! A span has a name, a start, an end and a parent; every span of a tick
//! carries that tick as its id, and the `tick` span is the parent of the
//! rest. Spans are written out once, when the run ends.
//!
//! The benchmark sees the program only from outside, so the layers below a
//! call are attributed through the engine's public `PhaseTimings`: the
//! change in equilibrium / placement / checkpoint / audit time across a
//! call is the part of that call's interval its core children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use idde_engine::metrics::PhaseTimings;
use idde_engine::Event;

/// Σ of an engine's in-program phase times.
pub fn phase_total(t: &PhaseTimings) -> Duration {
    t.equilibrium + t.placement + t.checkpoint + t.audit
}

/// The phase time spent between two readings of one engine's timings.
fn phase_delta(after: &PhaseTimings, before: &PhaseTimings) -> PhaseTimings {
    PhaseTimings {
        equilibrium: after.equilibrium.saturating_sub(before.equilibrium),
        placement: after.placement.saturating_sub(before.placement),
        checkpoint: after.checkpoint.saturating_sub(before.checkpoint),
        audit: after.audit.saturating_sub(before.audit),
    }
}

/// Span names of the per-event path, by event kind.
pub const EVENT_SPANS: [&str; 5] = [
    "engine.apply.arrive",
    "engine.apply.depart",
    "engine.apply.move",
    "engine.apply.request",
    "engine.apply.fault",
];

fn kind_index(event: &Event) -> usize {
    match event {
        Event::Arrive { .. } => 0,
        Event::Depart { .. } => 1,
        Event::Move { .. } => 2,
        Event::Request { .. } => 3,
        _ => 4,
    }
}

/// Count and (at batch 1) per-call times of one event kind.
#[derive(Clone, Debug, Default)]
pub struct KindStats {
    pub count: u64,
    pub samples: Vec<Duration>,
}

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<&'static str>,
    start: Duration,
    end: Duration,
}

/// The span recorder and layer accounting of the traced episodes.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Per event kind: applied count, and (at batch 1) per-event times.
    pub kinds: [KindStats; 5],
    /// Σ wall time per span name.
    pub busy: BTreeMap<&'static str, Duration>,
    /// Σ in-program phase time inside each span name (the slowest shard's,
    /// for the router's parallel tick).
    covered: BTreeMap<&'static str, Duration>,
    /// Σ in-program phase time over all traced calls and engines.
    pub phases: PhaseTimings,
    /// Σ in-program phase time per shard.
    pub shard_busy: Vec<Duration>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            kinds: Default::default(),
            busy: BTreeMap::new(),
            covered: BTreeMap::new(),
            phases: PhaseTimings::default(),
            shard_busy: Vec::new(),
        }
    }

    /// Records one span.
    pub fn span(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<&'static str>,
    ) {
        *self.busy.entry(name).or_default() += end - start;
        self.spans.push(Span {
            name,
            id,
            parent,
            start: start - self.epoch,
            end: end - self.epoch,
        });
    }

    /// Counts a batch's events by kind (their time is the batch span's).
    pub fn count_events(&mut self, events: &[Event]) {
        for event in events {
            self.kinds[kind_index(event)].count += 1;
        }
    }

    /// One per-event `Engine::apply` call.
    pub fn event_span(
        &mut self,
        tick: u64,
        event: &Event,
        start: Instant,
        end: Instant,
        before: PhaseTimings,
        after: PhaseTimings,
    ) {
        let k = kind_index(event);
        let stats = &mut self.kinds[k];
        stats.count += 1;
        stats.samples.push(end - start);
        self.call_span(EVENT_SPANS[k], tick, start, end, &[before], &[after]);
    }

    /// One call into the serving stack, with the phase timings of
    /// every engine it drives read before and after.
    pub fn call_span(
        &mut self,
        name: &'static str,
        tick: u64,
        start: Instant,
        end: Instant,
        before: &[PhaseTimings],
        after: &[PhaseTimings],
    ) {
        self.span(name, tick, start, end, Some("tick"));
        if self.shard_busy.len() < after.len() {
            self.shard_busy.resize(after.len(), Duration::ZERO);
        }
        let mut slowest = Duration::ZERO;
        for (k, (b, a)) in before.iter().zip(after).enumerate() {
            let delta = phase_delta(a, b);
            self.phases.equilibrium += delta.equilibrium;
            self.phases.placement += delta.placement;
            self.phases.checkpoint += delta.checkpoint;
            self.phases.audit += delta.audit;
            self.shard_busy[k] += phase_total(&delta);
            slowest = slowest.max(phase_total(&delta));
        }
        *self.covered.entry(name).or_default() += slowest;
    }

    /// Σ wall time of spans named `name`.
    pub fn busy_of(&self, name: &str) -> Duration {
        self.busy.get(name).copied().unwrap_or_default()
    }

    /// Self time of the calls named `names`: wall minus covered phases.
    pub fn self_of(&self, names: &[&str]) -> Duration {
        names
            .iter()
            .map(|n| {
                self.busy_of(n).saturating_sub(self.covered.get(n).copied().unwrap_or_default())
            })
            .sum()
    }

    /// The per-layer busy / self-time table: `(layer, busy, self)` rows.
    pub fn self_time_table(&self) -> Vec<(&'static str, Duration, Duration)> {
        let mut rows = Vec::new();
        let calls: Vec<&'static str> =
            self.busy.keys().copied().filter(|n| *n != "tick" && *n != "workload.gen").collect();
        let children: Duration =
            calls.iter().map(|n| self.busy_of(n)).sum::<Duration>() + self.busy_of("workload.gen");
        rows.push(("tick", self.busy_of("tick"), self.busy_of("tick").saturating_sub(children)));
        rows.push(("workload.gen", self.busy_of("workload.gen"), self.busy_of("workload.gen")));
        for name in calls {
            rows.push((name, self.busy_of(name), self.self_of(&[name])));
        }
        let p = self.phases;
        for (name, d) in [
            ("core.equilibrium", p.equilibrium),
            ("core.placement", p.placement),
            ("core.checkpoint", p.checkpoint),
            ("audit", p.audit),
        ] {
            rows.push((name, d, d));
        }
        rows
    }

    /// Renders the self-time table as text, shares relative to tick time.
    pub fn render_table(&self) -> String {
        let tick = self.busy_of("tick").as_secs_f64().max(1e-12);
        let mut out = String::from("layer                     busy_ms     self_ms  self_%tick\n");
        for (name, busy, own) in self.self_time_table() {
            let _ = writeln!(
                out,
                "{name:<24} {:>9.2} {:>11.2} {:>10.1}",
                busy.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3,
                100.0 * own.as_secs_f64() / tick
            );
        }
        out
    }

    /// The spans and the self-time table as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.id,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        out.push_str("],\"self_time\":[");
        for (i, (name, busy, own)) in self.self_time_table().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"layer\":\"{name}\",\"busy_ms\":{},\"self_ms\":{}}}",
                busy.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            );
        }
        out.push_str("]}\n");
        out
    }
}
