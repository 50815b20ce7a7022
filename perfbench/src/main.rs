//! The idde serve benchmark.
//!
//! ```text
//! idde-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workers N]
//! ```
//!
//! A run samples the workload's deployment, then serves episodes: each is a
//! fresh set-up followed by a fixed number of ticks of a traffic (and fault)
//! stream drawn from the episode's seed. Episode 0 uses the run's seed; the
//! rest derive from it. The first episode's stream is also replayed through
//! the program's own `run_sources` loop, whose serve CSV the benchmark's
//! timed loop must reproduce byte for byte. Every episode ends with a final
//! audit. The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. See README.md for what each metric measures and
//! which layer moves it.

mod layers;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Duration;

use idde_engine::ServeMetrics;
use serve::{run_episode, setup, AuditOutcome, Episode, Serving, SetupTime};
use stats::{fnv64, json_number, median, ms, peak_rss_mb, ratio, tail};
use trace::Tracer;
use workloads::{episode_seed, Spec};

/// Every end-to-end metric, with its unit, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("tick_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("delivery_latency_ms", "ms"),
    ("data_rate_mbps", "MB/s"),
    ("edge_share", "ratio"),
    ("reachable_share", "ratio"),
];

/// Where the traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Overrides the workload's worker count (for exploring `par` scaling;
    /// the benchmark's own runs never pass it).
    workers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut workers = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse().map_err(|_| format!("--seed: bad integer {value:?}"))?)
            }
            "--seconds" => {
                let s: f64 =
                    value.parse().map_err(|_| format!("--seconds: bad number {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            "--workers" => match value.parse() {
                Ok(n) if n > 0 => workers = Some(n),
                _ => return Err(format!("--workers: expected a positive integer, got {value:?}")),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        workers,
    })
}

fn main() {
    if let Err(e) = parse_args().and_then(|args| run(&args)) {
        eprintln!("idde-perfbench: {e}");
        std::process::exit(2);
    }
}

/// What one served episode produced.
struct Outcome {
    index: usize,
    episode: Episode,
    metrics: ServeMetrics,
    csv: String,
    audit: AuditOutcome,
    traced: bool,
}

fn run(args: &Args) -> Result<(), String> {
    let mut spec = workloads::spec(&args.workload).ok_or_else(|| {
        format!("unknown workload {:?} (expected one of {:?})", args.workload, workloads::NAMES)
    })?;
    spec.workers = args.workers.unwrap_or(spec.workers);
    idde_par::set_threads(spec.workers);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("workload {}", spec.describe());
    println!(
        "seed {}, nproc {nproc}, workers {}, trace {}",
        args.seed,
        idde_par::num_threads(),
        u8::from(args.trace)
    );

    let deployment = spec.deployment()?;
    let mut setups: Vec<SetupTime> = Vec::new();

    // Fidelity: the program's own serve loop over episode 0's stream gives
    // the CSV the timed loop must reproduce. Its set-up is the run's first,
    // made with cold caches and a fresh heap, so it is not timed.
    let reference = {
        let (mut serving, _) = setup(&spec, &deployment, args.seed)?;
        let mut sources = spec.sources(&deployment, args.seed)?;
        serving.run_sources(&mut sources, spec.ticks);
        serving.metrics().to_csv()
    };

    // A traced run serves half as many streams, each twice (untraced, then
    // traced), so the two sides of the tracing-overhead ratio serve
    // identical work.
    let episodes = spec.episodes_for(args.seconds);
    let streams = if args.trace { episodes.div_ceil(2) } else { episodes };
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut tracer = Tracer::new();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut probes = layers::Probes::default();
    let mut handoffs = 0u64;
    for index in 0..streams {
        let seed = episode_seed(args.seed, index);
        for &traced in passes {
            let (mut serving, time) = setup(&spec, &deployment, seed)?;
            setups.push(time);
            let mut sources = spec.sources(&deployment, seed)?;
            let episode = run_episode(
                &mut serving,
                &mut sources,
                spec.ticks,
                spec.batch,
                traced.then_some(&mut tracer),
            );
            let metrics = serving.metrics();
            let csv = metrics.to_csv();
            let audit = serving.audit();
            if traced {
                probes = layers::probe(serving.engines()[0], &spec.config(seed));
                if let Serving::Sharded(r) = &serving {
                    handoffs += r.handoffs();
                }
            }
            outcomes.push(Outcome { index, episode, metrics, csv, audit, traced });
        }
    }
    while setups.len() < spec.setups {
        let (_, time) = setup(&spec, &deployment, episode_seed(args.seed, setups.len()))?;
        setups.push(time);
    }

    let failures = check(&spec, &outcomes, &reference);
    let correct = failures.is_empty();
    for f in &failures {
        eprintln!("correctness: {f}");
    }
    let untraced: Vec<&Outcome> = outcomes.iter().filter(|o| !o.traced).collect();
    let fingerprint = fnv64(untraced.iter().map(|o| o.csv.as_str()).collect::<String>().as_bytes());
    println!(
        "fingerprint {fingerprint:016x} over {} episodes x {} ticks; {} set-ups",
        untraced.len(),
        spec.ticks,
        setups.len()
    );
    let attempted: u64 = outcomes.iter().map(|o| o.episode.events).sum();
    let failed = if correct { 0 } else { attempted };

    let metrics = if args.trace {
        let traced: Vec<&Outcome> = outcomes.iter().filter(|o| o.traced).collect();
        let ticks = spec.ticks * traced.len() as u64;
        let mut merged = ServeMetrics::default();
        let mut audit = AuditOutcome::default();
        for o in &traced {
            merged.merge(&o.metrics);
            audit.add(&o.audit);
        }
        print!("{}", tracer.render_table());
        print_accounting(&tracer, &merged, &probes, ticks);
        std::fs::create_dir_all(TRACE_DIR)
            .map_err(|e| format!("cannot create {TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/trace-{}-{}.json", spec.name, args.seed);
        std::fs::write(&path, tracer.to_json(spec.name, args.seed))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("spans written to {path}");
        let setup_ms = |f: fn(&SetupTime) -> Duration| {
            median(&setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>())
        };
        layers::per_layer(&layers::LayerInputs {
            tracer: &tracer,
            shards: spec.shards,
            metrics: &merged,
            ticks,
            events: traced.iter().map(|o| o.episode.events).sum(),
            handoffs,
            audit: &audit,
            probes,
            setup_problem_ms: setup_ms(|s| s.problem),
            setup_engine_ms: setup_ms(|s| s.engine),
            workers: idde_par::num_threads(),
            events_per_s_untraced: events_per_s(&untraced),
            events_per_s_traced: events_per_s(&traced),
        })
    } else {
        end_to_end(&untraced, &setups)?
    };

    let names: &[(&str, &str)] = if args.trace { &layers::PER_LAYER } else { &END_TO_END };
    let mut body = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = metrics.get(name).ok_or_else(|| format!("metric {name} was not computed"))?;
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    Ok(())
}

/// Events applied per second of summed tick time.
fn events_per_s(outcomes: &[&Outcome]) -> f64 {
    ratio(
        outcomes.iter().map(|o| o.episode.events as f64).sum(),
        outcomes.iter().map(|o| o.episode.busy().as_secs_f64()).sum(),
    )
}

/// The correctness gate: fidelity to `run_sources`, the same CSV for both
/// passes of a stream, clean final audits and consistent counters.
fn check(spec: &Spec, outcomes: &[Outcome], reference: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for o in outcomes {
        let m = &o.metrics;
        let tag = format!("episode {}{}", o.index, if o.traced { " (traced)" } else { "" });
        if o.index == 0 && o.csv != reference {
            failures.push(format!("{tag}: benchmark loop CSV differs from run_sources"));
        }
        if outcomes.iter().any(|p| p.index == o.index && p.csv != o.csv) {
            failures.push(format!("{tag}: traced and untraced passes differ"));
        }
        let a = &o.audit;
        if a.violations > 0 || a.cross_violations > 0 || m.certificate_violations > 0 {
            failures.push(format!(
                "{tag}: {} audit, {} cross-shard and {} certificate violations",
                a.violations, a.cross_violations, m.certificate_violations
            ));
        }
        if m.ticks != spec.ticks || o.episode.tick_times.len() as u64 != spec.ticks {
            failures.push(format!("{tag}: served {} ticks, expected {}", m.ticks, spec.ticks));
        }
        if m.requests != m.edge_served + m.cloud_served {
            failures.push(format!("{tag}: requests != edge_served + cloud_served"));
        }
        if spec.shards.is_none() && m.events != o.episode.events {
            failures.push(format!(
                "{tag}: engine counted {} events, benchmark applied {}",
                m.events, o.episode.events
            ));
        }
    }
    failures
}

/// The end-to-end metrics of the untraced episodes.
fn end_to_end(
    outcomes: &[&Outcome],
    setups: &[SetupTime],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let ticks: Vec<f64> =
        outcomes.iter().flat_map(|o| o.episode.tick_times.iter().map(|&d| ms(d))).collect();
    let (tail_ms, percentile) = tail(&ticks);
    println!("tick_tail_ms is p{percentile:.1} over the run's {} ticks", ticks.len());
    let sum = |f: fn(&ServeMetrics) -> f64| outcomes.iter().map(|o| f(&o.metrics)).sum::<f64>();
    let requests = sum(|m| m.requests as f64);
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total().as_secs_f64()).collect();
    let mut out = BTreeMap::new();
    out.insert("setup_s", median(&setup_s));
    out.insert("events_per_s", events_per_s(outcomes));
    out.insert("tick_p50_ms", median(&ticks));
    out.insert("tick_tail_ms", tail_ms);
    out.insert("peak_rss_mb", peak_rss_mb()?);
    out.insert(
        "delivery_latency_ms",
        ratio(sum(|m| m.average_latency_ms() * m.requests as f64), requests),
    );
    out.insert("data_rate_mbps", sum(ServeMetrics::average_rate) / outcomes.len() as f64);
    out.insert("edge_share", ratio(sum(|m| m.edge_served as f64), requests));
    out.insert("reachable_share", 1.0 - ratio(sum(|m| m.cloud_fallback_requests as f64), requests));
    Ok(out)
}

/// Probe cost × call count next to the busy time it should account for.
fn print_accounting(t: &Tracer, m: &ServeMetrics, p: &layers::Probes, ticks: u64) {
    let tick_calls = ms(t.busy_of("engine.end_tick")).max(ms(t.busy_of("shard.tick")));
    println!(
        "accounting: field rebuild {:.3} ms x {ticks} ticks = {:.1} ms vs end_tick {tick_calls:.1} ms",
        p.field_rebuild,
        p.field_rebuild * ticks as f64,
    );
    println!(
        "accounting: eviction {:.3} + greedy {:.3} ms x {} repairs = {:.1} ms vs core.placement \
         {:.1} ms",
        p.evict,
        p.greedy_repair,
        m.placement_repairs,
        (p.evict + p.greedy_repair) * m.placement_repairs as f64,
        ms(t.phases.placement)
    );
    println!(
        "accounting: game solve {:.3} ms x {} checkpoints = {:.1} ms vs core.checkpoint {:.1} ms",
        p.game_solve,
        m.checkpoints,
        p.game_solve * m.checkpoints as f64,
        ms(t.phases.checkpoint)
    );
}
