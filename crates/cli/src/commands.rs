//! Command implementations.

use std::fmt::Write as _;
use std::io::Read as _;
use std::path::Path;
use std::time::{Duration, Instant};

use idde_baselines::{standard_panel, Cdp, DupG, IddeGStrategy, IddeIp, Saa, SolveStrategy};
use idde_cache::{CacheConfig, PolicyKind};
use idde_chaos::FaultSpec;
use idde_core::Problem;
use idde_dist::{DistConfig, StrategyKind};
use idde_engine::{
    DriftProfile, Engine, EngineConfig, EventSource, ServeMetrics, WorkloadConfig,
    WorkloadGenerator,
};
use idde_eua::{SampleConfig, SyntheticEua};
use idde_model::{io as scenario_io, Scenario};
use idde_net::{generate_topology, TopologyConfig};
use idde_radio::{RadioEnvironment, RadioParams};
use idde_shard::ShardRouter;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::args::{Command, ServeOptions};

/// Executes a parsed command.
pub fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Generate { servers, users, data, seed, out } => {
            generate(servers, users, data, seed, out.as_deref())
        }
        Command::Info { scenario } => info(scenario.as_deref()),
        Command::Solve { scenario, approach, seed, density, net_seed, iddeip_ms } => {
            solve(scenario.as_deref(), &approach, seed, density, net_seed, iddeip_ms)
        }
        Command::Compare { scenario, seed, density, net_seed, iddeip_ms } => {
            compare(scenario.as_deref(), seed, density, net_seed, iddeip_ms)
        }
        Command::Bench { suite, samples, threads, seed, out, json, check } => {
            bench(&suite, samples, threads, seed, &out, json, check)
        }
        Command::Chaos { spec, scenario, servers, users, data, seed, density, net_seed } => {
            chaos_dry_run(&spec, scenario, servers, users, data, seed, density, net_seed)
        }
        Command::Render { scenario, out, solve, seed, density, net_seed } => {
            render(scenario.as_deref(), out.as_deref(), solve, seed, density, net_seed)
        }
        Command::Serve(options) => serve(options),
    }
}

fn read_scenario(path: Option<&Path>) -> Result<Scenario, String> {
    let text = match path {
        Some(p) => {
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?
        }
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            buf
        }
    };
    scenario_io::from_str(&text).map_err(|e| e.to_string())
}

fn build_problem(scenario: Scenario, density: f64, net_seed: u64) -> Problem {
    let radio = RadioEnvironment::new(&scenario, RadioParams::paper());
    let mut rng = ChaCha8Rng::seed_from_u64(net_seed);
    let topology =
        generate_topology(scenario.num_servers(), &TopologyConfig::paper(density), &mut rng);
    Problem::new(scenario, radio, topology)
}

fn generate(
    servers: usize,
    users: usize,
    data: usize,
    seed: u64,
    out: Option<&Path>,
) -> Result<(), String> {
    let scenario = sample_scenario(&SyntheticEua::default(), servers, users, data, seed)?;
    let text = scenario_io::to_string(&scenario);
    match out {
        Some(path) => {
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!(
                "wrote {} ({} servers, {} users, {} data items, {} requests)",
                path.display(),
                scenario.num_servers(),
                scenario.num_users(),
                scenario.num_data(),
                scenario.requests.total_requests()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn info(path: Option<&Path>) -> Result<(), String> {
    let scenario = read_scenario(path)?;
    println!("servers:   {}", scenario.num_servers());
    println!("users:     {}", scenario.num_users());
    println!("data:      {}", scenario.num_data());
    println!("requests:  {}", scenario.requests.total_requests());
    println!("channels:  {}", scenario.total_channels());
    println!("storage:   {:.0} MB reserved in total", scenario.total_storage().value());
    println!(
        "catalogue: {:.0} MB ({:.0} MB largest item)",
        scenario.data.iter().map(|d| d.size.value()).sum::<f64>(),
        scenario.max_data_size().value()
    );
    println!(
        "coverage:  {:.2} candidate servers per user, {} users uncovered",
        scenario.coverage.mean_candidates_per_user(),
        scenario.coverage.uncovered_users().count()
    );
    println!("area:      {:.0} m × {:.0} m", scenario.area.width(), scenario.area.height());
    Ok(())
}

fn approach_by_name(
    name: &str,
    iddeip_ms: u64,
) -> Result<Box<dyn SolveStrategy + Send + Sync>, String> {
    Ok(match name {
        "idde-g" | "iddeg" => Box::new(IddeGStrategy::default()),
        "idde-ip" | "iddeip" => Box::new(IddeIp::with_budget(Duration::from_millis(iddeip_ms))),
        "saa" => Box::new(Saa::default()),
        "cdp" => Box::new(Cdp),
        "dup-g" | "dupg" => Box::new(DupG::default()),
        other => {
            return Err(format!(
                "unknown approach {other:?} (try idde-g, idde-ip, saa, cdp, dup-g)"
            ))
        }
    })
}

fn solve(
    path: Option<&Path>,
    approach: &str,
    seed: u64,
    density: f64,
    net_seed: u64,
    iddeip_ms: u64,
) -> Result<(), String> {
    let approach = approach_by_name(approach, iddeip_ms)?;
    let scenario = read_scenario(path)?;
    let problem = build_problem(scenario, density, net_seed);
    let t0 = Instant::now();
    let strategy = approach.solve_seeded(&problem, seed);
    let elapsed = t0.elapsed();
    if !problem.is_feasible(&strategy) {
        return Err(format!("{} produced an infeasible strategy (bug!)", approach.name()));
    }
    let metrics = problem.evaluate(&strategy);
    println!("approach:  {}", approach.name());
    println!("time:      {elapsed:?}");
    println!("R_avg:     {:.2} MB/s", metrics.average_data_rate.value());
    println!("L_avg:     {:.3} ms", metrics.average_delivery_latency.value());
    println!(
        "allocated: {}/{} users, {} replicas placed",
        metrics.allocated_users, metrics.total_users, metrics.placements
    );
    println!(
        "requests:  {} local, {} cloud, {} total",
        metrics.locally_served_requests, metrics.cloud_served_requests, metrics.total_requests
    );
    Ok(())
}

fn compare(
    path: Option<&Path>,
    seed: u64,
    density: f64,
    net_seed: u64,
    iddeip_ms: u64,
) -> Result<(), String> {
    let scenario = read_scenario(path)?;
    let problem = build_problem(scenario, density, net_seed);
    println!(
        "{:>8} {:>14} {:>12} {:>12} {:>10}",
        "approach", "R_avg (MB/s)", "L_avg (ms)", "time", "replicas"
    );
    for approach in standard_panel(Duration::from_millis(iddeip_ms)) {
        let t0 = Instant::now();
        let strategy = approach.solve_seeded(&problem, seed);
        let elapsed = t0.elapsed();
        let metrics = problem.evaluate(&strategy);
        println!(
            "{:>8} {:>14.2} {:>12.3} {:>12?} {:>10}",
            approach.name(),
            metrics.average_data_rate.value(),
            metrics.average_delivery_latency.value(),
            elapsed,
            metrics.placements
        );
    }
    Ok(())
}

fn bench(
    suite: &str,
    samples: usize,
    threads: Vec<usize>,
    seed: u64,
    out: &Path,
    json: bool,
    check: bool,
) -> Result<(), String> {
    use idde_bench::ledger::{Ledger, LedgerConfig};

    let cfg = LedgerConfig { samples, threads, seed };
    if !check {
        std::fs::create_dir_all(out)
            .map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    }
    let suites: &[&str] = match suite {
        "engine" => &["engine"],
        "solver" => &["solver"],
        _ => &["engine", "solver"],
    };
    // The gate reads every committed ledger before it runs any suite, so a
    // missing or empty one fails in milliseconds, not after the run.
    let mut committed = Vec::new();
    if check {
        for &name in suites {
            let path = out.join(format!("BENCH_{name}.json"));
            let json = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read committed ledger {}: {e}", path.display()))?;
            idde_bench::ledger::gated_values(name, &json)?;
            committed.push(json);
        }
    }
    for (i, &name) in suites.iter().enumerate() {
        eprintln!(
            "benchmarking {name} suite ({} samples × threads {:?}, seed {}) …",
            cfg.samples, cfg.threads, cfg.seed
        );
        let ledger: Ledger = match name {
            "engine" => idde_bench::ledger::run_engine_suite(&cfg),
            _ => idde_bench::ledger::run_solver_suite(&cfg),
        };
        let path = out.join(format!("BENCH_{name}.json"));
        if check {
            // The bench gate: case names, workload strings and fingerprints
            // must match the committed ledger exactly; timings are
            // machine-dependent and only annotated.
            ledger.check_against(&committed[i])?;
            eprintln!("{name}: workloads and fingerprints match {}", path.display());
        } else {
            std::fs::write(&path, ledger.to_json())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        if json {
            print!("{}", ledger.to_json());
        } else {
            print!("{}", ledger_table(&ledger));
        }
        for case in &ledger.cases {
            if !case.deterministic() {
                return Err(format!(
                    "determinism contract violated: case {:?} produced different results \
                     across its samples or sweep points (see {})",
                    case.name,
                    path.display()
                ));
            }
        }
    }
    Ok(())
}

/// Renders the human ledger summary: per case its name, determinism verdict
/// and workload line (which names what the `threads` column counts), then
/// one row per point with the median's speedup over the first point.
fn ledger_table(ledger: &idde_bench::ledger::Ledger) -> String {
    let mut out = format!(
        "suite {:?} (seed {}, {} samples/point, host parallelism {})\n",
        ledger.suite, ledger.seed, ledger.samples, ledger.host_parallelism
    );
    for case in &ledger.cases {
        let _ = writeln!(out, "{} (deterministic: {})", case.name, case.deterministic());
        let _ = writeln!(out, "  {}", case.workload);
        let _ = writeln!(
            out,
            "{:>10} {:>12} {:>12} {:>9}",
            "threads", "median (ms)", "p95 (ms)", "× first"
        );
        let first = case.points.first().map_or(0.0, |p| p.median_ms());
        for point in &case.points {
            // A zero (sub-precision) median has no meaningful ratio.
            let median = point.median_ms();
            let ratio = if median > 0.0 { format!("{:.2}x", first / median) } else { "-".into() };
            let _ = writeln!(
                out,
                "{:>10} {:>12.3} {:>12.3} {:>9}",
                point.threads,
                median,
                point.p95_ms(),
                ratio
            );
        }
    }
    out
}

/// Samples a synthetic scenario of `servers` servers, `users` users and
/// `data` items from `base`'s population, all draws from one `seed`.
fn sample_scenario(
    base: &SyntheticEua,
    servers: usize,
    users: usize,
    data: usize,
    seed: u64,
) -> Result<Scenario, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let population = base.generate(&mut rng);
    if population.num_server_sites() < servers {
        return Err(format!(
            "the base population has {} server sites; --servers {servers} is too large",
            population.num_server_sites()
        ));
    }
    Ok(SampleConfig::paper(servers, users, data).sample(&population, &mut rng))
}

/// What [`run_serve`] hands back for printing: the merged metrics, the
/// wall time of the serve loop and, for a `--shards` serve, the
/// cross-shard audit tallies `(audits, checks, violations)` with the
/// router's handoff count.
pub struct Served {
    pub metrics: ServeMetrics,
    pub elapsed: Duration,
    pub cross: Option<((u64, u64, u64), u64)>,
}

/// `idde serve` up to its output: builds the scenario, problem, engine
/// config, workload and fault plan, serves them through the monolithic
/// engine or the `--shards` router and ends with the final audit. Set-up
/// notes and the final audit report go to stderr as they happen.
pub fn run_serve(opts: &ServeOptions) -> Result<Served, String> {
    let workload = match opts.workload.as_str() {
        "drift" => WorkloadConfig { drift: DriftProfile::drifting(), ..WorkloadConfig::default() },
        _ => WorkloadConfig::default(),
    };
    serve_workload(opts, workload)
}

/// [`run_serve`] over any workload, not only the two `--workload` selects.
pub fn serve_workload(opts: &ServeOptions, workload: WorkloadConfig) -> Result<Served, String> {
    let scenario = match &opts.scenario {
        Some(path) => read_scenario(path.as_deref())?,
        None => {
            let default = SyntheticEua::default();
            let base = match (opts.scale_servers, opts.scale_users) {
                (None, None) => default,
                (s, u) => SyntheticEua::scaled(
                    s.unwrap_or(default.num_servers),
                    u.unwrap_or(default.num_users),
                )
                .map_err(|e| format!("invalid scaled geography: {e}"))?,
            };
            sample_scenario(&base, opts.servers, opts.users, opts.data, opts.seed)
                .map_err(|e| format!("{e} (use --scale-servers to enlarge the geography)"))?
        }
    };
    let num_data = scenario.num_data();
    if num_data == 0 {
        return Err("serve needs a scenario with at least one data item".into());
    }
    let problem = build_problem(scenario, opts.density, opts.net_seed);
    // `--cache off` leaves `CacheConfig::default()` (policy Off) in place,
    // so the engine constructs no layer and the serve is byte-identical to
    // a cache-less build. The layer's RNG derives from the master seed.
    // `--delivery unicast` leaves recording off, so no distribution plan is
    // built and the serve CSV stays byte-identical to pre-dist builds;
    // `--delivery steiner` records every bulk install round and appends the
    // `dist_*` counter rows.
    let record_dist = opts.delivery == StrategyKind::Steiner;
    let config = EngineConfig {
        drift_threshold: opts.drift,
        checkpoint_interval: opts.checkpoint,
        audit_every: opts.audit,
        batch: opts.batch,
        cache: CacheConfig { policy: opts.cache, seed: opts.seed },
        dist: DistConfig { strategy: opts.delivery, record: record_dist, ..DistConfig::default() },
        ..Default::default()
    };
    if opts.cache != PolicyKind::Off {
        eprintln!("cache: {} policy, on-path admission into residual Eq. 6 budgets", opts.cache);
    }
    if record_dist {
        eprintln!("delivery: {} bulk distribution over the surviving topology", opts.delivery);
    }
    let mut workload = WorkloadGenerator::new(workload, num_data, opts.seed);
    let initial = workload.initial_active(problem.scenario.num_users());

    // Compile the fault plan against the healthy topology; scheduled fault
    // events join the same deterministic `(tick, seq)` stream as the
    // workload (faults first within a tick). The engine's `base_graph` is a
    // clone of `problem.topology.graph()`, so compiling here is identical.
    let mut plan = match &opts.chaos {
        Some(spec) => Some(
            FaultSpec::parse(spec)
                .and_then(|s| s.compile(problem.topology.graph()))
                .map_err(|e| format!("--chaos: {e}"))?,
        ),
        None => None,
    };
    let mut sources: Vec<&mut dyn EventSource> = Vec::new();
    if let Some(plan) = plan.as_mut() {
        let (windows, events) = (plan.windows().len(), plan.len());
        eprintln!("chaos: {windows} fault windows, {events} scheduled events");
        sources.push(plan);
    }
    sources.push(&mut workload);

    // `--shards K` serves through the sharded router; otherwise the
    // monolithic engine. Both paths end with a final audit (when enabled),
    // so `--shards 1` output is byte-identical to the unsharded serve. One
    // final audit catches anything the periodic cadence missed (e.g. state
    // touched after the last audited event).
    match opts.shards {
        None => {
            let mut engine = Engine::new(problem, config, initial);
            let t0 = Instant::now();
            engine.run_sources(&mut sources, opts.ticks);
            let elapsed = t0.elapsed();
            if opts.audit > 0 {
                eprint!("final {}", engine.run_audit());
            }
            Ok(Served { metrics: engine.metrics().clone(), elapsed, cross: None })
        }
        Some(k) => {
            let mut router = ShardRouter::new(problem, config, k, initial)
                .map_err(|e| format!("--shards: {e}"))?;
            eprintln!(
                "shards: {k} tiles, servers per shard {:?}, halo sizes {:?}",
                router.plan().server_counts(),
                (0..k).map(|s| router.plan().halo(s).len()).collect::<Vec<_>>()
            );
            let t0 = Instant::now();
            router.run_sources(&mut sources, opts.ticks);
            let elapsed = t0.elapsed();
            if opts.audit > 0 {
                eprint!("final {}", router.run_audit());
            }
            let cross = Some((router.cross_audit_stats(), router.handoffs()));
            Ok(Served { metrics: router.metrics(), elapsed, cross })
        }
    }
}

fn serve(opts: ServeOptions) -> Result<(), String> {
    let Served { metrics, elapsed, cross } = run_serve(&opts)?;
    if let Some(((audits, checks, violations), handoffs)) = cross {
        // Cross-shard accounting stays out of the CSV (its schema is
        // shard-count independent); CI greps this stderr line instead.
        eprintln!(
            "cross-shard: {audits} audits, {checks} checks, {violations} violations, \
             {handoffs} handoffs"
        );
    }

    match &opts.csv {
        // `--csv -`: deterministic CSV on stdout, human table on stderr.
        Some(None) => {
            print!("{}", metrics.to_csv());
            eprint!("{}", metrics.render_table(elapsed));
        }
        Some(Some(path)) => {
            std::fs::write(path, metrics.to_csv())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            print!("{}", metrics.render_table(elapsed));
            eprintln!("wrote {}", path.display());
        }
        None => print!("{}", metrics.render_table(elapsed)),
    }
    if metrics.audit_violations + metrics.certificate_violations > 0 {
        return Err(format!(
            "audit failed: {} invariant violations and {} certificate deviations over {} audits",
            metrics.audit_violations, metrics.certificate_violations, metrics.audits
        ));
    }
    if let Some(((audits, _, cross_violations @ 1..), _)) = cross {
        return Err(format!(
            "cross-shard audit failed: {cross_violations} violations over {audits} audits"
        ));
    }
    Ok(())
}

/// `idde chaos`: compile a fault spec against a scenario's healthy topology
/// and print the scheduled timeline without serving anything.
#[allow(clippy::too_many_arguments)]
fn chaos_dry_run(
    spec: &str,
    scenario: Option<Option<std::path::PathBuf>>,
    servers: usize,
    users: usize,
    data: usize,
    seed: u64,
    density: f64,
    net_seed: u64,
) -> Result<(), String> {
    let scenario = match scenario {
        Some(path) => read_scenario(path.as_deref())?,
        None => sample_scenario(&SyntheticEua::default(), servers, users, data, seed)?,
    };
    let problem = build_problem(scenario, density, net_seed);
    let plan = FaultSpec::parse(spec)
        .and_then(|s| s.compile(problem.topology.graph()))
        .map_err(|e| e.to_string())?;
    println!(
        "{} fault windows over {} servers / {} links → {} scheduled events",
        plan.windows().len(),
        problem.scenario.num_servers(),
        problem.topology.graph().num_links(),
        plan.len()
    );
    print!("{}", plan.describe());
    Ok(())
}

fn render(
    path: Option<&Path>,
    out: Option<&Path>,
    solve: bool,
    seed: u64,
    density: f64,
    net_seed: u64,
) -> Result<(), String> {
    let scenario = read_scenario(path)?;
    let svg = if solve {
        let problem = build_problem(scenario, density, net_seed);
        let strategy = IddeGStrategy::default().solve_seeded(&problem, seed);
        idde_model::svg::render(
            &problem.scenario,
            Some(&strategy.allocation),
            Some(&strategy.placement),
            &idde_model::svg::SvgOptions::default(),
        )
    } else {
        idde_model::svg::render(&scenario, None, None, &idde_model::svg::SvgOptions::default())
    };
    match out {
        Some(path) => {
            std::fs::write(path, svg)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        None => print!("{svg}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    /// The options of an `idde serve` command line (whitespace-separated,
    /// no shell quoting).
    fn serve_options(line: &str) -> ServeOptions {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        match parse(&argv) {
            Ok(Command::Serve(opts)) => opts,
            other => panic!("{line:?} is not a serve command: {other:?}"),
        }
    }

    /// Reads the integer value of `key` out of a `metric,value` CSV,
    /// panicking with the missing row's name (and the full CSV) instead of
    /// an anonymous `Option::unwrap` failure.
    fn csv_metric(csv: &str, key: &str) -> u64 {
        csv.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|rest| rest.strip_prefix(',')))
            .unwrap_or_else(|| panic!("CSV has no `{key}` row:\n{csv}"))
            .parse()
            .unwrap_or_else(|e| panic!("CSV row `{key}` is not an integer: {e}\n{csv}"))
    }

    #[test]
    fn approaches_resolve_by_name() {
        for name in ["idde-g", "idde-ip", "saa", "cdp", "dup-g", "IDDEG".to_lowercase().as_str()] {
            assert!(approach_by_name(name, 10).is_ok(), "{name}");
        }
        assert!(approach_by_name("alphago", 10).is_err());
    }

    #[test]
    fn generate_solve_round_trip_via_files() {
        let dir = std::env::temp_dir().join("idde-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.idde");
        generate(6, 20, 3, 5, Some(&path)).unwrap();
        let scenario = read_scenario(Some(&path)).unwrap();
        assert_eq!(scenario.num_servers(), 6);
        assert_eq!(scenario.num_users(), 20);
        solve(Some(&path), "idde-g", 0, 1.0, 1, 100).unwrap();
        info(Some(&path)).unwrap();
        let svg_path = dir.join("map.svg");
        render(Some(&path), Some(&svg_path), true, 0, 1.0, 1).unwrap();
        let svg = std::fs::read_to_string(&svg_path).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("<line "), "solved render must include spokes");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The serve CSV `run_serve` returns for an `idde serve` command line.
    fn serve_csv(line: &str) -> String {
        run_serve(&serve_options(line)).unwrap().metrics.to_csv()
    }

    #[test]
    fn serve_writes_deterministic_csv() {
        let dir = std::env::temp_dir().join("idde-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.csv");
        let line = "serve --servers 8 --users 30 --data 3 --seed 42 --ticks 10 --checkpoint 5";
        serve(serve_options(&format!("{line} --csv {}", path.display()))).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        let returned = serve_csv(line);
        assert_eq!(written, returned, "--csv PATH must write the CSV run_serve returns");
        assert_eq!(returned, serve_csv(line), "serve CSV must be byte-identical per seed");
        assert!(written.starts_with("metric,value\n"));
        assert!(written.contains("ticks,10\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audited_serve_passes_and_lands_in_the_csv() {
        let csv = serve_csv(
            "serve --servers 8 --users 30 --data 3 --seed 42 --ticks 10 --checkpoint 5 --audit 10",
        );
        assert!(csv.contains("audit_violations,0\n"), "{csv}");
        assert!(csv.contains("certificate_violations,0\n"), "{csv}");
        // At least the periodic audits plus the final one ran.
        let audits = csv_metric(&csv, "audits");
        assert!(audits >= 2, "expected periodic + final audits, got {audits}");
    }

    #[test]
    fn sharded_serve_matches_monolithic_at_one_shard_and_audits_at_four() {
        let run = |shards: &str| {
            serve_csv(&format!(
                "serve --servers 12 --users 40 --data 4 --seed 42 --ticks 20 --checkpoint 10 \
                 --audit 25 {shards}"
            ))
        };
        // The migration-safety contract: one shard is the monolithic engine.
        let mono = run("");
        assert_eq!(mono, run("--shards 1"), "--shards 1 must match the unsharded serve");
        // A multi-shard audited serve stays violation-free.
        let four = run("--shards 4");
        assert!(four.contains("audit_violations,0\n"), "{four}");
        assert!(four.contains("certificate_violations,0\n"), "{four}");
    }

    /// `--cache`/`--workload` plumbing end to end: a cached drift serve
    /// reports cache traffic and stays audit-clean; `--cache off` emits a
    /// CSV without any `cache_*` row, byte-identical across runs.
    #[test]
    fn cached_drift_serve_reports_traffic_and_off_is_the_identity() {
        let run = |cache: &str| {
            serve_csv(&format!(
                "serve --servers 12 --users 50 --data 6 --seed 42 --ticks 40 --checkpoint 20 \
                 --audit 25 --workload drift --cache {cache}"
            ))
        };
        let cached = run("probcache");
        let hits = csv_metric(&cached, "cache_hits");
        let insertions = csv_metric(&cached, "cache_insertions");
        assert!(insertions > 0, "the drift workload must drive admissions:\n{cached}");
        assert!(hits > 0, "cached items must be re-served:\n{cached}");
        assert!(cached.contains("audit_violations,0\n"), "{cached}");

        let off = run("off");
        assert!(!off.contains("cache_"), "--cache off must not emit cache rows:\n{off}");
        assert_eq!(off, run("off"), "off serve must be deterministic");
        assert_ne!(off, cached, "the cache must actually change served latencies");
    }

    /// `--shards K --batch N` compose: the batch size is wired through the
    /// router's phase-A interior batches (each shard drains its slice via
    /// the engine's batched ingestion layer), `--shards 1 --batch N` is
    /// byte-identical to the unsharded batched serve, and a multi-shard
    /// batched run is deterministic and audit-clean.
    #[test]
    fn sharded_batched_serve_composes_and_pins_the_identity() {
        let run = |shards: &str| {
            serve_csv(&format!(
                "serve --servers 12 --users 40 --data 4 --seed 42 --ticks 20 --checkpoint 10 \
                 --audit 25 --batch 8 {shards}"
            ))
        };
        let mono = run("");
        assert_eq!(mono, run("--shards 1"), "--shards 1 --batch 8 must match the unsharded serve");
        let multi = run("--shards 3");
        assert_eq!(multi, run("--shards 3"), "must be deterministic");
        assert!(multi.contains("audit_violations,0\n"), "{multi}");
        assert!(multi.contains("certificate_violations,0\n"), "{multi}");
    }

    /// `--delivery` plumbing end to end: the strategy only decides how
    /// install bytes travel, so a steiner serve's CSV is the unicast CSV
    /// with the `dist_*` rows appended — same placements, same latencies,
    /// same fault accounting — across seeds, under an outage storm, and
    /// through the sharded router; and an audited steiner serve stays
    /// violation-free.
    #[test]
    fn steiner_delivery_is_placement_invariant_across_seeds_and_shards() {
        // An outage storm: the post-fault re-replications are the bulk
        // rounds the strategies actually disagree on.
        let run = |seed: u64, flags: &str| {
            serve_csv(&format!(
                "serve --servers 12 --users 40 --data 4 --seed {seed} --ticks 25 --checkpoint 10 \
                 --chaos rand:2022:2:1:1@15+6 {flags}"
            ))
        };

        for seed in [1, 42] {
            let unicast = run(seed, "--delivery unicast");
            let steiner = run(seed, "--delivery steiner");
            assert!(!unicast.contains("dist_"), "unicast CSV must stay byte-frozen:\n{unicast}");
            assert!(
                steiner.starts_with(&unicast),
                "steiner must only append dist rows (seed {seed})"
            );
            assert!(csv_metric(&steiner, "dist_bulk_installs") >= 1, "{steiner}");
            assert!(csv_metric(&steiner, "dist_replicas") >= 1, "{steiner}");
        }

        // Same contract through the sharded router (rebalancing handoffs
        // and per-shard repairs all flow through the same bulk path).
        let unicast = run(42, "--delivery unicast --shards 2");
        let steiner = run(42, "--delivery steiner --shards 2");
        assert!(steiner.starts_with(&unicast), "sharded steiner must only append dist rows");

        // Audited steiner serves re-derive every plan and stay clean.
        let audited = run(42, "--delivery steiner --audit 25");
        assert!(audited.contains("audit_violations,0\n"), "{audited}");
        assert_eq!(audited, run(42, "--delivery steiner --audit 25"));
    }

    #[test]
    fn bench_writes_a_parsable_ledger() {
        let dir = std::env::temp_dir().join("idde-cli-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Solver suite only (the engine suite serves 50 full-scale ticks —
        // too heavy for a unit test), minimal sweep.
        bench("solver", 1, vec![1, 2], 2022, &dir, false, false).unwrap();
        let json = std::fs::read_to_string(dir.join("BENCH_solver.json")).unwrap();
        assert!(json.contains("\"suite\": \"solver\""));
        assert!(json.contains("\"deterministic_across_threads\": true"));
        assert!(json.contains("\"iddeg_end_to_end\""));

        // The bench gate passes against the ledger the run just wrote (same
        // seed → same fingerprints) and fails once the ledger is tampered
        // with or missing.
        bench("solver", 1, vec![1, 2], 2022, &dir, false, true).unwrap();
        let tampered = json.replacen("\"fingerprint\": \"", "\"fingerprint\": \"beef", 1);
        std::fs::write(dir.join("BENCH_solver.json"), tampered).unwrap();
        let err = bench("solver", 1, vec![1, 2], 2022, &dir, false, true).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
        // A workload string carries seeded figures, so it is gated too.
        let tampered = json.replacen("816 users", "817 users", 1);
        std::fs::write(dir.join("BENCH_solver.json"), tampered).unwrap();
        let err = bench("solver", 1, vec![1, 2], 2022, &dir, false, true).unwrap_err();
        assert!(err.contains("817 users"), "{err}");
        // A run over fewer points than the committed ledger recorded, and a
        // committed file holding no gated values at all, fail too.
        std::fs::write(dir.join("BENCH_solver.json"), &json).unwrap();
        let err = bench("solver", 1, vec![1], 2022, &dir, false, true).unwrap_err();
        assert!(err.contains("committed ledger has 8 gated values, this run produced 6"), "{err}");
        // Both are caught by the preflight, before the suite runs.
        std::fs::write(dir.join("BENCH_solver.json"), "").unwrap();
        let err = bench("solver", 1, vec![1, 2], 2022, &dir, false, true).unwrap_err();
        assert!(err.contains("committed solver ledger contains no gated values"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
        let err = bench("solver", 1, vec![1, 2], 2022, &dir, false, true).unwrap_err();
        assert!(err.contains("cannot read committed ledger"), "{err}");
    }

    #[test]
    fn ledger_table_prints_workloads_and_speedups_over_the_first_point() {
        use idde_bench::ledger::{BenchCase, Ledger, ThreadPoint};

        let point = |threads, ms| ThreadPoint {
            threads,
            samples_ms: vec![ms],
            fingerprint: 1,
            samples_agree: true,
        };
        let points = vec![point(1, 100.0), point(64, 25.0), point(512, 0.0)];
        let case = BenchCase {
            name: "b".into(),
            workload: "threads column = B".into(),
            points,
            shared_fingerprint: true,
        };
        let ledger = Ledger {
            suite: "engine".into(),
            seed: 1,
            samples: 1,
            host_parallelism: 2,
            cases: vec![case],
        };
        let table = ledger_table(&ledger);
        assert!(table.contains("b (deterministic: true)\n  threads column = B\n"), "{table}");
        assert!(table.contains("1.00x") && table.contains("4.00x"), "{table}");
        // A zero median (sub-precision timing) prints a dash, not inf.
        assert!(table.lines().last().unwrap().ends_with(" -"), "{table}");
    }

    #[test]
    fn chaos_serve_counts_faults_and_stays_deterministic() {
        let line = "serve --servers 10 --users 40 --data 6 --seed 42 --ticks 30 --checkpoint 10 \
                    --audit 25 --chaos rand:2022:2:1:1@20+8";
        let first = serve_csv(line);
        assert_eq!(first, serve_csv(line), "chaos serve must be byte-identical per seed");
        let outages = csv_metric(&first, "server_outages");
        assert_eq!(outages, 1, "the random batch schedules one outage:\n{first}");
        assert!(first.contains("audit_violations,0\n"), "{first}");

        // A malformed spec is a clean CLI error, not a panic.
        let malformed = "serve --servers 8 --users 30 --data 3 --ticks 5 --chaos meteor:3@4";
        let err = run_serve(&serve_options(malformed)).err().expect("a malformed spec fails");
        assert!(err.contains("--chaos"), "{err}");
    }

    #[test]
    fn chaos_dry_run_prints_a_timeline() {
        chaos_dry_run("rand:7:2:1:1@50+10", None, 10, 40, 4, 42, 1.0, 1).unwrap();
        let err = chaos_dry_run("server:99@5", None, 10, 40, 4, 42, 1.0, 1).unwrap_err();
        assert!(err.contains("outside the scenario"), "{err}");
    }

    #[test]
    fn oversized_generate_is_rejected() {
        assert!(generate(1000, 10, 2, 1, None).is_err());
    }

    #[test]
    fn scaled_geography_lifts_the_site_cap() {
        // `--servers` beyond the 125-site extract fails on the default
        // geography and points `serve` at the fix …
        let oversize = "serve --servers 200 --users 100 --data 2 --seed 1 --ticks 1";
        let err = run_serve(&serve_options(oversize)).err().expect("200 sites exceed 125");
        assert!(err.contains("--scale-servers"), "{err}");
        // … which `chaos` does not accept, so its error does not name it …
        let err = chaos_dry_run("server:1@1+1", None, 200, 100, 2, 1, 1.0, 1).unwrap_err();
        assert!(err.contains("is too large") && !err.contains("--scale-servers"), "{err}");
        // … and sampling succeeds once the base population is scaled up.
        let s = sample_scenario(&SyntheticEua::scaled(300, 400).unwrap(), 200, 150, 2, 1).unwrap();
        assert_eq!(s.num_servers(), 200);
        assert_eq!(s.num_users(), 150);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = read_scenario(Some(Path::new("/definitely/not/here.idde"))).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
