//! # idde-chaos — deterministic fault injection for the serving engine
//!
//! The serving engine ([`idde_engine`]) consumes a `(tick, seq)`-ordered
//! event stream; faults (link failures, server outages, jamming) are
//! ordinary [`Event`]s in that stream. This crate turns a compact textual
//! **fault spec** into a compiled [`FaultPlan`] — a schedule of fault and
//! restoration events — that plugs into the engine as just another
//! [`EventSource`]. A chaos run is therefore exactly as reproducible as a
//! healthy one: same seed + same spec ⇒ byte-identical metrics CSV.
//!
//! ## Spec grammar
//!
//! A spec is a comma-separated list of items (whitespace is ignored):
//!
//! | item | meaning |
//! |------|---------|
//! | `link:A-B@T` | link `{A,B}` fails at tick `T`, permanently |
//! | `link:A-B@T+D` | … and is restored at tick `T+D` |
//! | `deg:A-B@T+D:F` | link `{A,B}` degrades to `F`× speed over `[T, T+D)` |
//! | `server:I@T+D` | server `I` goes down at `T`, returns (empty) at `T+D` |
//! | `jam:I@T+D:W` | interference floor of `W` watts at server `I` over `[T, T+D)` |
//! | `rand:SEED:L:S:J@SPAN+D` | seeded random plan: `L` link cuts, `S` outages, `J` jams, fault ticks uniform in `[0, SPAN)`, each lasting `D` ticks |
//!
//! Durations (`+D`) are optional for `link:`/`server:` (omitted = never
//! restored) and the trailing `:W` of `jam:` defaults to
//! [`DEFAULT_JAM_FLOOR_W`]. Example:
//!
//! ```text
//! server:3@40+80, link:0-5@30+60, link:2-7@35, jam:1@20+30:1e-3
//! ```
//!
//! Parsing ([`FaultSpec::parse`]) is topology-independent; compiling
//! ([`FaultSpec::compile`]) validates every target against the healthy
//! [`EdgeGraph`] and expands `rand:` items with a dedicated `ChaCha8Rng`,
//! so the plan is a pure function of `(spec, topology)`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;

use idde_engine::{Event, EventQueue, EventSource};
use idde_model::ServerId;
use idde_net::EdgeGraph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Interference floor injected by `rand:` jams and by `jam:` items that
/// omit the explicit `:W` field, in watts. Three orders of magnitude above
/// the paper's ω = 10⁻⁶ W noise floor — enough to visibly shift Eq. 2
/// SINRs without silencing the server outright.
pub const DEFAULT_JAM_FLOOR_W: f64 = 1e-3;

/// What a scheduled fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The link joining the pair fails outright.
    LinkCut {
        /// One endpoint.
        a: ServerId,
        /// The other endpoint.
        b: ServerId,
    },
    /// The link joining the pair drops to `factor`× its base speed.
    LinkSlow {
        /// One endpoint.
        a: ServerId,
        /// The other endpoint.
        b: ServerId,
        /// Speed multiplier in `(0, 1]`.
        factor: f64,
    },
    /// The server goes down: occupants displaced, replicas lost, links cut.
    Outage {
        /// The failing server.
        server: ServerId,
    },
    /// A jammer raises the server's interference floor by `floor_w` watts.
    Jamming {
        /// The jammed server.
        server: ServerId,
        /// Added interference floor, watts.
        floor_w: f64,
    },
}

impl Fault {
    /// The event that makes this fault take effect.
    fn onset(&self) -> Event {
        match *self {
            Fault::LinkCut { a, b } => Event::LinkDown { a, b },
            Fault::LinkSlow { a, b, factor } => Event::LinkDegrade { a, b, factor },
            Fault::Outage { server } => Event::ServerDown { server },
            Fault::Jamming { server, floor_w } => Event::Jam { server, floor_w },
        }
    }

    /// The event that undoes this fault.
    fn restoration(&self) -> Event {
        match *self {
            Fault::LinkCut { a, b } | Fault::LinkSlow { a, b, .. } => Event::LinkRestore { a, b },
            Fault::Outage { server } => Event::ServerRestore { server },
            Fault::Jamming { server, .. } => Event::Unjam { server },
        }
    }
}

/// One fault with its onset tick and optional restoration delay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// The fault itself.
    pub fault: Fault,
    /// Tick at which the fault fires.
    pub at: u64,
    /// Ticks until restoration (`None` = never restored).
    pub duration: Option<u64>,
}

/// A `rand:` item before expansion.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RandomBatch {
    seed: u64,
    link_cuts: usize,
    outages: usize,
    jams: usize,
    span: u64,
    duration: u64,
}

/// One parsed spec item.
#[derive(Clone, Copy, Debug, PartialEq)]
enum SpecItem {
    Window(FaultWindow),
    Random(RandomBatch),
}

/// Everything that can go wrong parsing or compiling a fault spec.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosError {
    /// An item did not match the grammar.
    Syntax {
        /// The offending item, verbatim.
        item: String,
        /// What was expected.
        reason: String,
    },
    /// A `link:`/`deg:` item names a pair with no link in the topology.
    UnknownLink {
        /// One endpoint.
        a: ServerId,
        /// The other endpoint.
        b: ServerId,
    },
    /// A server id is outside the scenario.
    ServerOutOfRange {
        /// The offending id.
        server: ServerId,
        /// Number of servers in the scenario.
        num_servers: usize,
    },
    /// A degradation factor outside `(0, 1]`.
    BadFactor(f64),
    /// A jamming floor that is not finite and positive.
    BadFloor(f64),
    /// A `rand:` batch asks for more distinct targets than exist.
    NotEnoughTargets {
        /// `"links"` or `"servers"`.
        kind: &'static str,
        /// How many the batch asked for.
        requested: usize,
        /// How many the topology has.
        available: usize,
    },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Syntax { item, reason } => {
                write!(f, "bad fault item {item:?}: {reason}")
            }
            ChaosError::UnknownLink { a, b } => {
                write!(f, "no link joins {a} and {b} in the healthy topology")
            }
            ChaosError::ServerOutOfRange { server, num_servers } => {
                write!(f, "{server} is outside the scenario ({num_servers} servers)")
            }
            ChaosError::BadFactor(x) => {
                write!(f, "degradation factor {x} outside (0, 1]")
            }
            ChaosError::BadFloor(x) => {
                write!(f, "jamming floor {x} W is not finite and positive")
            }
            ChaosError::NotEnoughTargets { kind, requested, available } => {
                write!(
                    f,
                    "random batch wants {requested} distinct {kind}, topology has {available}"
                )
            }
        }
    }
}

impl std::error::Error for ChaosError {}

/// A parsed (but not yet validated) fault specification.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    items: Vec<SpecItem>,
}

impl FaultSpec {
    /// Parses the comma-separated spec grammar (see the crate docs). Empty
    /// items are ignored, so trailing commas are fine. Validation that
    /// needs the topology (link existence, server range) happens in
    /// [`FaultSpec::compile`].
    pub fn parse(spec: &str) -> Result<Self, ChaosError> {
        let mut items = Vec::new();
        for raw in spec.split(',') {
            let item: String = raw.chars().filter(|c| !c.is_whitespace()).collect();
            if item.is_empty() {
                continue;
            }
            let parsed = parse_item(&item)?;
            check_restoration(&item, &parsed)?;
            items.push(parsed);
        }
        Ok(Self { items })
    }

    /// Number of parsed items (random batches count as one).
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Validates every target against the healthy `graph`, expands `rand:`
    /// batches, and schedules onset + restoration events into a
    /// [`FaultPlan`]. Deterministic: the same `(spec, graph)` always
    /// compiles to the same plan.
    pub fn compile(&self, graph: &EdgeGraph) -> Result<FaultPlan, ChaosError> {
        let mut windows = Vec::new();
        for item in &self.items {
            match *item {
                SpecItem::Window(w) => {
                    validate_window(&w, graph)?;
                    windows.push(w);
                }
                SpecItem::Random(batch) => expand_random(&batch, graph, &mut windows)?,
            }
        }
        let mut events: Vec<(u64, Event)> = Vec::with_capacity(2 * windows.len());
        for w in &windows {
            events.push((w.at, w.fault.onset()));
            if let Some(d) = w.duration {
                events.push((w.at + d, w.fault.restoration()));
            }
        }
        // Stable: same-tick events keep spec order (onsets before the
        // restorations of later windows scheduled at the same tick only if
        // the spec listed them earlier — the engine handles either order).
        events.sort_by_key(|&(tick, _)| tick);
        Ok(FaultPlan { windows, events, cursor: 0 })
    }
}

fn syntax(item: &str, reason: impl Into<String>) -> ChaosError {
    ChaosError::Syntax { item: item.to_string(), reason: reason.into() }
}

fn parse_u64(item: &str, field: &str, text: &str) -> Result<u64, ChaosError> {
    text.parse::<u64>()
        .map_err(|_| syntax(item, format!("{field} must be an integer, got {text:?}")))
}

fn parse_f64(item: &str, field: &str, text: &str) -> Result<f64, ChaosError> {
    text.parse::<f64>().map_err(|_| syntax(item, format!("{field} must be a number, got {text:?}")))
}

fn parse_server(item: &str, field: &str, text: &str) -> Result<ServerId, ChaosError> {
    text.parse::<u32>()
        .map(ServerId)
        .map_err(|_| syntax(item, format!("{field} must be a server id, got {text:?}")))
}

/// Splits `"A-B"` into a server pair.
fn parse_pair(item: &str, text: &str) -> Result<(ServerId, ServerId), ChaosError> {
    let (a, b) =
        text.split_once('-').ok_or_else(|| syntax(item, "expected a server pair like 0-3"))?;
    let (a, b) = (parse_server(item, "endpoint", a)?, parse_server(item, "endpoint", b)?);
    if a == b {
        return Err(syntax(item, "link endpoints must differ"));
    }
    Ok((a, b))
}

/// Splits `"T"` or `"T+D"` into (onset, optional duration).
fn parse_when(item: &str, text: &str) -> Result<(u64, Option<u64>), ChaosError> {
    match text.split_once('+') {
        None => Ok((parse_u64(item, "tick", text)?, None)),
        Some((t, d)) => {
            let duration = parse_u64(item, "duration", d)?;
            if duration == 0 {
                return Err(syntax(item, "duration must be at least one tick"));
            }
            Ok((parse_u64(item, "tick", t)?, Some(duration)))
        }
    }
}

fn parse_item(item: &str) -> Result<SpecItem, ChaosError> {
    let (kind, rest) = item
        .split_once(':')
        .ok_or_else(|| syntax(item, "expected kind:details (link, deg, server, jam, rand)"))?;
    match kind {
        "link" => {
            let (pair, when) =
                rest.split_once('@').ok_or_else(|| syntax(item, "expected link:A-B@T[+D]"))?;
            let (a, b) = parse_pair(item, pair)?;
            let (at, duration) = parse_when(item, when)?;
            Ok(SpecItem::Window(FaultWindow { fault: Fault::LinkCut { a, b }, at, duration }))
        }
        "deg" => {
            let (pair, tail) =
                rest.split_once('@').ok_or_else(|| syntax(item, "expected deg:A-B@T+D:F"))?;
            let (a, b) = parse_pair(item, pair)?;
            let (when, factor) =
                tail.split_once(':').ok_or_else(|| syntax(item, "expected a :factor field"))?;
            let (at, duration) = parse_when(item, when)?;
            let factor = parse_f64(item, "factor", factor)?;
            Ok(SpecItem::Window(FaultWindow {
                fault: Fault::LinkSlow { a, b, factor },
                at,
                duration,
            }))
        }
        "server" => {
            let (id, when) =
                rest.split_once('@').ok_or_else(|| syntax(item, "expected server:I@T[+D]"))?;
            let server = parse_server(item, "server", id)?;
            let (at, duration) = parse_when(item, when)?;
            Ok(SpecItem::Window(FaultWindow { fault: Fault::Outage { server }, at, duration }))
        }
        "jam" => {
            let (id, tail) =
                rest.split_once('@').ok_or_else(|| syntax(item, "expected jam:I@T[+D][:W]"))?;
            let server = parse_server(item, "server", id)?;
            let (when, floor_w) = match tail.split_once(':') {
                Some((when, w)) => (when, parse_f64(item, "floor", w)?),
                None => (tail, DEFAULT_JAM_FLOOR_W),
            };
            let (at, duration) = parse_when(item, when)?;
            Ok(SpecItem::Window(FaultWindow {
                fault: Fault::Jamming { server, floor_w },
                at,
                duration,
            }))
        }
        "rand" => {
            // rand:SEED:L:S:J@SPAN+D
            let (counts, when) = rest
                .split_once('@')
                .ok_or_else(|| syntax(item, "expected rand:SEED:L:S:J@SPAN+D"))?;
            let mut fields = counts.split(':');
            let mut next = |name: &str| {
                fields
                    .next()
                    .map(str::to_string)
                    .ok_or_else(|| syntax(item, format!("missing {name} field")))
            };
            let seed = parse_u64(item, "seed", &next("seed")?)?;
            let link_cuts = parse_u64(item, "link count", &next("link count")?)? as usize;
            let outages = parse_u64(item, "outage count", &next("outage count")?)? as usize;
            let jams = parse_u64(item, "jam count", &next("jam count")?)? as usize;
            if fields.next().is_some() {
                return Err(syntax(item, "too many fields before @"));
            }
            let (span, duration) = match parse_when(item, when)? {
                (span, Some(d)) => (span, d),
                (_, None) => return Err(syntax(item, "rand needs an explicit +duration")),
            };
            if span == 0 {
                return Err(syntax(item, "span must be at least one tick"));
            }
            Ok(SpecItem::Random(RandomBatch { seed, link_cuts, outages, jams, span, duration }))
        }
        other => Err(syntax(item, format!("unknown fault kind {other:?}"))),
    }
}

/// Rejects an item whose latest restoration tick — onset plus duration,
/// with a `rand:` batch's latest onset `SPAN − 1` — does not fit in a `u64`.
fn check_restoration(item: &str, parsed: &SpecItem) -> Result<(), ChaosError> {
    let (latest_onset, duration) = match *parsed {
        SpecItem::Window(w) => (w.at, w.duration),
        SpecItem::Random(batch) => (batch.span - 1, Some(batch.duration)),
    };
    if duration.is_some_and(|d| latest_onset.checked_add(d).is_none()) {
        return Err(syntax(item, "onset plus duration overflows the tick counter"));
    }
    Ok(())
}

fn check_server(server: ServerId, graph: &EdgeGraph) -> Result<(), ChaosError> {
    if server.index() >= graph.num_nodes() {
        return Err(ChaosError::ServerOutOfRange { server, num_servers: graph.num_nodes() });
    }
    Ok(())
}

fn check_link(a: ServerId, b: ServerId, graph: &EdgeGraph) -> Result<(), ChaosError> {
    check_server(a, graph)?;
    check_server(b, graph)?;
    if graph.find_link(a, b).is_none() {
        return Err(ChaosError::UnknownLink { a, b });
    }
    Ok(())
}

fn validate_window(w: &FaultWindow, graph: &EdgeGraph) -> Result<(), ChaosError> {
    match w.fault {
        Fault::LinkCut { a, b } => check_link(a, b, graph),
        Fault::LinkSlow { a, b, factor } => {
            check_link(a, b, graph)?;
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(ChaosError::BadFactor(factor));
            }
            Ok(())
        }
        Fault::Outage { server } => check_server(server, graph),
        Fault::Jamming { server, floor_w } => {
            check_server(server, graph)?;
            if !(floor_w.is_finite() && floor_w > 0.0) {
                return Err(ChaosError::BadFloor(floor_w));
            }
            Ok(())
        }
    }
}

/// Draws `count` distinct indices from `0..available` (seeded, order of
/// first pick preserved — a partial Fisher–Yates).
fn sample_distinct(
    rng: &mut ChaCha8Rng,
    count: usize,
    available: usize,
    kind: &'static str,
) -> Result<Vec<usize>, ChaosError> {
    if count > available {
        return Err(ChaosError::NotEnoughTargets { kind, requested: count, available });
    }
    let mut pool: Vec<usize> = (0..available).collect();
    let mut picks = Vec::with_capacity(count);
    for _ in 0..count {
        picks.push(pool.swap_remove(rng.gen_range(0..pool.len())));
    }
    Ok(picks)
}

fn expand_random(
    batch: &RandomBatch,
    graph: &EdgeGraph,
    windows: &mut Vec<FaultWindow>,
) -> Result<(), ChaosError> {
    let mut rng = ChaCha8Rng::seed_from_u64(batch.seed);
    for idx in sample_distinct(&mut rng, batch.link_cuts, graph.num_links(), "links")? {
        let link = graph.links()[idx];
        windows.push(FaultWindow {
            fault: Fault::LinkCut { a: link.a, b: link.b },
            at: rng.gen_range(0..batch.span),
            duration: Some(batch.duration),
        });
    }
    for idx in sample_distinct(&mut rng, batch.outages, graph.num_nodes(), "servers")? {
        windows.push(FaultWindow {
            fault: Fault::Outage { server: ServerId(idx as u32) },
            at: rng.gen_range(0..batch.span),
            duration: Some(batch.duration),
        });
    }
    for idx in sample_distinct(&mut rng, batch.jams, graph.num_nodes(), "servers")? {
        windows.push(FaultWindow {
            fault: Fault::Jamming { server: ServerId(idx as u32), floor_w: DEFAULT_JAM_FLOOR_W },
            at: rng.gen_range(0..batch.span),
            duration: Some(batch.duration),
        });
    }
    Ok(())
}

/// A compiled, validated fault schedule.
///
/// Implements [`EventSource`], so the engine can poll it alongside (and,
/// by convention, *before*) the workload generator each tick:
///
/// ```ignore
/// engine.run_sources(&mut [&mut plan, &mut workload], ticks);
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
    /// `(tick, event)` sorted by tick; spec order within a tick.
    events: Vec<(u64, Event)>,
    cursor: usize,
}

impl FaultPlan {
    /// The validated fault windows in spec order (random batches expanded).
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The full `(tick, event)` schedule, sorted by tick.
    pub fn events(&self) -> &[(u64, Event)] {
        &self.events
    }

    /// Number of scheduled events (onsets plus restorations).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rewinds the plan so it can drive another run.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// A human-readable timeline, one event per line — what
    /// `idde chaos` prints for a dry run.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &(tick, event) in &self.events {
            let line = match event {
                Event::LinkDown { a, b } => format!("link {a}–{b} fails"),
                Event::LinkRestore { a, b } => format!("link {a}–{b} restored"),
                Event::LinkDegrade { a, b, factor } => {
                    format!("link {a}–{b} degrades to {factor}x speed")
                }
                Event::ServerDown { server } => format!("server {server} goes down"),
                Event::ServerRestore { server } => format!("server {server} restored"),
                Event::Jam { server, floor_w } => {
                    format!("server {server} jammed (+{floor_w:e} W floor)")
                }
                Event::Unjam { server } => format!("server {server} unjammed"),
                healthy => format!("unexpected workload event {healthy:?}"),
            };
            let _ = writeln!(out, "tick {tick:>6}  {line}");
        }
        out
    }
}

impl EventSource for FaultPlan {
    /// Pushes every scheduled event with `tick ≤` the polled tick that has
    /// not fired yet. The `≤` (rather than `==`) makes the plan robust to
    /// an engine that starts mid-schedule: overdue faults fire on the
    /// first polled tick instead of silently never firing.
    fn push_tick(&mut self, tick: u64, _active: &[bool], queue: &mut EventQueue) {
        while let Some(&(at, event)) = self.events.get(self.cursor) {
            if at > tick {
                break;
            }
            queue.push(tick, event);
            self.cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_model::MegaBytesPerSec;
    use idde_net::Link;

    fn grid_graph() -> EdgeGraph {
        // 0—1—2
        // |  |
        // 3—4
        let link = |a: u32, b: u32| Link {
            a: ServerId(a),
            b: ServerId(b),
            speed: MegaBytesPerSec(2000.0),
        };
        EdgeGraph::new(5, vec![link(0, 1), link(1, 2), link(0, 3), link(1, 4), link(3, 4)])
    }

    #[test]
    fn explicit_spec_compiles_to_a_sorted_schedule() {
        let spec = FaultSpec::parse(
            " server:3@40+80,  link:0-1@30+60, link:1-2@35, deg:3-4@50+40:0.5, jam:1@20+30:2e-3 ",
        )
        .unwrap();
        assert_eq!(spec.num_items(), 5);
        let plan = spec.compile(&grid_graph()).unwrap();
        assert_eq!(plan.windows().len(), 5);
        // 5 onsets + 4 restorations (the tick-35 cut is permanent).
        assert_eq!(plan.len(), 9);
        let ticks: Vec<u64> = plan.events().iter().map(|&(t, _)| t).collect();
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        assert_eq!(ticks, sorted, "schedule must be tick-sorted");
        assert_eq!(plan.events()[0], (20, Event::Jam { server: ServerId(1), floor_w: 2e-3 }));
        assert!(plan
            .events()
            .iter()
            .any(|&(t, e)| t == 120 && e == Event::ServerRestore { server: ServerId(3) }));
        assert!(!plan
            .events()
            .iter()
            .any(|&(_, e)| e == Event::LinkRestore { a: ServerId(1), b: ServerId(2) }));
        let timeline = plan.describe();
        assert!(timeline.contains("server 3 goes down"), "{timeline}");
        assert!(timeline.contains("link 1–2 fails"), "{timeline}");
    }

    #[test]
    fn jam_floor_defaults_when_omitted() {
        let plan = FaultSpec::parse("jam:4@10+5").unwrap().compile(&grid_graph()).unwrap();
        assert_eq!(
            plan.events()[0],
            (10, Event::Jam { server: ServerId(4), floor_w: DEFAULT_JAM_FLOOR_W })
        );
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let graph = grid_graph();
        for (spec, needle) in [
            ("meteor:3@4", "unknown fault kind"),
            ("link:0-1", "expected link:A-B@T"),
            ("link:7@3", "server pair"),
            ("link:2-2@3", "endpoints must differ"),
            ("server:x@3", "server id"),
            ("server:1@3+0", "at least one tick"),
            ("deg:0-1@3+4", "factor"),
            ("rand:1:2:3:4@9", "+duration"),
        ] {
            let err = FaultSpec::parse(spec).unwrap_err();
            assert!(err.to_string().contains(needle), "{spec}: {err}");
        }
        // Topology-dependent failures surface at compile time.
        for (spec, expected) in [
            ("link:0-2@3", ChaosError::UnknownLink { a: ServerId(0), b: ServerId(2) }),
            ("server:9@3", ChaosError::ServerOutOfRange { server: ServerId(9), num_servers: 5 }),
            ("deg:0-1@3+4:1.5", ChaosError::BadFactor(1.5)),
            ("jam:0@3+4:0", ChaosError::BadFloor(0.0)),
            (
                "rand:7:6:0:0@10+5",
                ChaosError::NotEnoughTargets { kind: "links", requested: 6, available: 5 },
            ),
        ] {
            let err = FaultSpec::parse(spec).unwrap().compile(&graph).unwrap_err();
            assert_eq!(err, expected, "{spec}");
        }
    }

    #[test]
    fn restoration_ticks_must_fit_in_u64() {
        let graph = grid_graph();
        // The last representable restoration tick is fine …
        let plan = FaultSpec::parse("link:0-1@5+18446744073709551610").unwrap();
        let plan = plan.compile(&graph).unwrap();
        assert_eq!(plan.events()[1].0, u64::MAX);
        // … and so is a batch whose latest onset, SPAN − 1, reaches it.
        let plan = FaultSpec::parse("rand:1:1:0:0@2+18446744073709551614").unwrap();
        let events = plan.compile(&graph).unwrap().events().to_vec();
        assert!(events[0].0 < 2 && events[1].0 == events[0].0 + 18446744073709551614);
        // One tick more is a typed syntax error naming the item, not a
        // panic or a restoration that wraps round ahead of its onset.
        for spec in [
            "link:0-1@5+18446744073709551611",
            "jam:0@18446744073709551615+1",
            "rand:1:1:0:0@3+18446744073709551614",
        ] {
            match FaultSpec::parse(spec).unwrap_err() {
                ChaosError::Syntax { item, reason } => {
                    assert_eq!(item, spec);
                    assert!(reason.contains("overflows"), "{reason}");
                }
                other => panic!("{spec}: {other}"),
            }
        }
    }

    #[test]
    fn random_batches_are_seed_deterministic_and_distinct() {
        let graph = grid_graph();
        let spec = FaultSpec::parse("rand:2022:3:2:1@100+20").unwrap();
        let a = spec.compile(&graph).unwrap();
        let b = spec.compile(&graph).unwrap();
        assert_eq!(a.windows(), b.windows(), "same seed must expand identically");
        assert_eq!(a.windows().len(), 6);
        assert_eq!(a.len(), 12, "every random fault gets a restoration");

        let mut cut_pairs = Vec::new();
        let mut outage_servers = Vec::new();
        for w in a.windows() {
            assert!(w.at < 100, "onset {} outside span", w.at);
            assert_eq!(w.duration, Some(20));
            match w.fault {
                Fault::LinkCut { a, b } => {
                    assert!(graph.find_link(a, b).is_some());
                    cut_pairs.push((a.min(b), a.max(b)));
                }
                Fault::Outage { server } => outage_servers.push(server),
                Fault::Jamming { floor_w, .. } => assert_eq!(floor_w, DEFAULT_JAM_FLOOR_W),
                Fault::LinkSlow { .. } => panic!("rand batches never degrade"),
            }
        }
        cut_pairs.sort_unstable();
        cut_pairs.dedup();
        assert_eq!(cut_pairs.len(), 3, "link cuts must hit distinct links");
        outage_servers.sort_unstable();
        outage_servers.dedup();
        assert_eq!(outage_servers.len(), 2, "outages must hit distinct servers");

        let other = FaultSpec::parse("rand:2023:3:2:1@100+20").unwrap().compile(&graph).unwrap();
        assert_ne!(a.windows(), other.windows(), "different seeds should differ");
    }

    #[test]
    fn plan_is_an_event_source_with_catch_up() {
        let mut plan =
            FaultSpec::parse("link:0-1@5+3,server:2@5").unwrap().compile(&grid_graph()).unwrap();
        let mut queue = EventQueue::new();
        plan.push_tick(0, &[], &mut queue);
        assert!(queue.is_empty(), "nothing scheduled before tick 5");

        // Skipping straight past several scheduled ticks fires everything
        // overdue, stamped at the polled tick, in schedule order.
        plan.push_tick(9, &[], &mut queue);
        assert_eq!(queue.len(), 3);
        let fired: Vec<(u64, Event)> =
            std::iter::from_fn(|| queue.pop()).map(|e| (e.tick, e.event)).collect();
        assert_eq!(
            fired,
            vec![
                (9, Event::LinkDown { a: ServerId(0), b: ServerId(1) }),
                (9, Event::ServerDown { server: ServerId(2) }),
                (9, Event::LinkRestore { a: ServerId(0), b: ServerId(1) }),
            ]
        );

        plan.push_tick(500, &[], &mut queue);
        assert!(queue.is_empty(), "plan exhausted");
        plan.reset();
        plan.push_tick(5, &[], &mut queue);
        assert_eq!(queue.len(), 2, "reset rewinds the schedule");
    }
}
