//! Hand-rolled argument parsing (no external CLI dependency).

use std::path::PathBuf;

use idde_bench::ledger::LedgerConfig;
use idde_engine::EngineConfig;

/// Top-level usage text.
pub const USAGE: &str = "\
usage: idde <command> [options]

commands:
  generate   sample a scenario from the synthetic EUA-like population
             --servers N --users M --data K [--seed S] [--out FILE]
  info       print the statistics of a scenario file
             --scenario FILE
  solve      formulate a strategy for a scenario and score it
             --scenario FILE [--approach idde-g|idde-ip|saa|cdp|dup-g]
             [--seed S] [--density D] [--net-seed S] [--iddeip-ms B]
  compare    run the full five-approach panel on a scenario
             --scenario FILE [--seed S] [--density D] [--net-seed S]
             [--iddeip-ms B]
  render     draw a scenario (and optionally its IDDE-G strategy) as SVG
             --scenario FILE [--out FILE] [--solve true|false]
             [--seed S] [--density D] [--net-seed S]
  serve      run the online serving engine over a seeded event workload
             [--scenario FILE | --servers N --users M --data K]
             [--scale-servers N] [--scale-users M]
             [--seed S] [--ticks T] [--density D] [--net-seed S]
             [--checkpoint T] [--drift X] [--csv FILE] [--audit N]
             [--chaos SPEC] [--shards K] [--batch N]
             [--cache off|lce|lcd|probcache]
             [--delivery unicast|steiner] [--workload steady|drift]
  chaos      compile a fault spec against a scenario's topology and
             print the scheduled fault timeline (dry run)
             --spec SPEC [--scenario FILE | --servers N --users M
             --data K] [--seed S] [--density D] [--net-seed S]
  bench      run the reproducible benchmark ledger (seeded workloads,
             thread sweep, BENCH_<suite>.json output)
             [--suite all|engine|solver] [--samples N]
             [--threads 1,2,4,8] [--seed S] [--out DIR] [--json]
             [--check]

Scenario files use the plain-text `idde_model::io` format; `--out -`
and `--scenario -` mean stdout/stdin. `serve` samples a synthetic
scenario when no `--scenario` is given; `--csv -` prints the
deterministic metrics CSV to stdout instead of the summary table.
`--audit N` runs a full invariant audit every N events (plus Nash
certificates after converged repairs) and exits nonzero when any
violation is found; 0 (the default) disables auditing. `--chaos SPEC`
injects a deterministic fault schedule into the serve event stream
(e.g. 'server:3@40+80,link:0-5@30+60,jam:1@20+30'; see idde-chaos for
the grammar — `rand:SEED:L:S:J@SPAN+D` draws a seeded random plan).
`--shards K` serves through the spatially sharded router (idde-shard):
the area is tiled into K server-balanced rectangles, each shard runs
its own engine and the shards exchange halo state every tick;
`--shards 1` is byte-identical to the unsharded engine, and with
`--audit N` a per-tick cross-shard audit certifies the shards agree
on one global interference field (reported separately from the CSV).
`--batch N` sets how many churn events the engine's ingestion layer
group-commits: every N ingested events (and at every request, fault,
audit point and tick boundary) one coalesced coverage/gain refresh,
union dirty-set repair and placement repair run instead of N separate
ones. `--batch 1` (the default) repairs after every churn event;
larger batches keep positions, activity and the coverage relation
identical but may settle a different (equally valid) restricted
equilibrium.
`--cache POLICY` puts a deterministic on-path cache between the
serve loop and the placement solver: opportunistic replicas admitted
by the policy (lce, lcd or probcache) into each server's
residual Eq. 6 storage budget join the Eq. 8 delivery minimum.
`--cache off` (the default) is byte-identical to a cache-less serve;
cached runs append `cache_*` rows to the CSV. `--delivery steiner`
plans every bulk replica install (the initial placement, post-outage
re-replication, rebalancing handoffs) as a multi-source Steiner
distribution tree over the surviving topology (idde-dist) and appends
`dist_*` rows to the CSV; `unicast` (the default) keeps the classic
item-by-item pulls and a byte-identical CSV. The strategy only changes
how installs travel, never which replicas exist. `--workload drift`
switches the request stream to the non-stationary mode (Zipf-exponent
oscillation, hot-set rotation, diurnal request waves and seeded flash
crowds); `steady` (the default) is the classic stationary workload.
`--scale-servers`/`--scale-users` enlarge the synthetic base
geography density-preservingly before sampling (default 125
sites/816 users), lifting the 125-site cap for scaling runs, e.g.
`serve --scale-servers 2000 --scale-users 2400 --servers 2000`.
`bench` writes one BENCH_<suite>.json per suite into --out (default
`.`); `--json` additionally prints the ledgers to stdout instead of
the summary table; `--check` re-runs the suites and exits nonzero if
the result fingerprints or workload strings diverge from the committed
BENCH_<suite>.json (timings are reported but never gate).";

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `idde generate`
    Generate {
        /// Number of servers to sample.
        servers: usize,
        /// Number of users to sample.
        users: usize,
        /// Number of data items.
        data: usize,
        /// Sampling seed.
        seed: u64,
        /// Output (None = stdout).
        out: Option<PathBuf>,
    },
    /// `idde info`
    Info {
        /// Scenario path (None = stdin).
        scenario: Option<PathBuf>,
    },
    /// `idde solve`
    Solve {
        /// Scenario path (None = stdin).
        scenario: Option<PathBuf>,
        /// Approach name (normalised, lowercase).
        approach: String,
        /// Strategy seed.
        seed: u64,
        /// Network density.
        density: f64,
        /// Topology seed.
        net_seed: u64,
        /// IDDE-IP budget in ms.
        iddeip_ms: u64,
    },
    /// `idde render`
    Render {
        /// Scenario path (None = stdin).
        scenario: Option<PathBuf>,
        /// Output SVG path (None = stdout).
        out: Option<PathBuf>,
        /// Whether to solve with IDDE-G and draw the strategy.
        solve: bool,
        /// Strategy seed.
        seed: u64,
        /// Network density.
        density: f64,
        /// Topology seed.
        net_seed: u64,
    },
    /// `idde serve`
    Serve(ServeOptions),
    /// `idde chaos` — compile a fault spec and print its timeline.
    Chaos {
        /// The fault spec to compile.
        spec: String,
        /// Scenario path (`Some(None)` = stdin; `None` = sample a synthetic
        /// scenario from `servers`/`users`/`data`).
        scenario: Option<Option<PathBuf>>,
        /// Servers to sample when no scenario file is given.
        servers: usize,
        /// Users to sample when no scenario file is given.
        users: usize,
        /// Data items to sample when no scenario file is given.
        data: usize,
        /// Sampling seed.
        seed: u64,
        /// Network density.
        density: f64,
        /// Topology seed.
        net_seed: u64,
    },
    /// `idde bench`
    Bench {
        /// Suite selector: `"all"`, `"engine"` or `"solver"`.
        suite: String,
        /// Timing samples per `(case, thread-count)` point.
        samples: usize,
        /// Worker counts to sweep.
        threads: Vec<usize>,
        /// Master workload seed.
        seed: u64,
        /// Directory the `BENCH_<suite>.json` files are written into.
        out: PathBuf,
        /// Print the ledgers as JSON on stdout instead of the summary table.
        json: bool,
        /// Compare fresh fingerprints and workload strings against the
        /// committed ledgers in `out` instead of overwriting them (the CI
        /// bench gate).
        check: bool,
    },
    /// `idde compare`
    Compare {
        /// Scenario path (None = stdin).
        scenario: Option<PathBuf>,
        /// Strategy seed.
        seed: u64,
        /// Network density.
        density: f64,
        /// Topology seed.
        net_seed: u64,
        /// IDDE-IP budget in ms.
        iddeip_ms: u64,
    },
}

/// `idde serve` inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeOptions {
    /// Scenario path (`Some(None)` = stdin; `None` = sample a synthetic
    /// scenario from `servers`/`users`/`data`).
    pub scenario: Option<Option<PathBuf>>,
    /// Servers to sample when no scenario file is given.
    pub servers: usize,
    /// Users to sample when no scenario file is given.
    pub users: usize,
    /// Data items to sample when no scenario file is given.
    pub data: usize,
    /// Base-geography server sites (None = the default 125-site EUA
    /// extract; `Some(n)` scales the synthetic area to `n` sites).
    pub scale_servers: Option<usize>,
    /// Base-geography user sites (None = the default 816).
    pub scale_users: Option<usize>,
    /// Master seed: scenario sampling and the event workload.
    pub seed: u64,
    /// Ticks to serve.
    pub ticks: u64,
    /// Network density.
    pub density: f64,
    /// Topology seed.
    pub net_seed: u64,
    /// Ticks between drift checkpoints (0 = never).
    pub checkpoint: u64,
    /// Relative drift threshold triggering a full re-solve.
    pub drift: f64,
    /// Where to write the deterministic metrics CSV (None = don't;
    /// `Some(None)` = stdout, replacing the table).
    pub csv: Option<Option<PathBuf>>,
    /// Events between invariant audits (0 = never audit).
    pub audit: u64,
    /// Fault spec to compile and inject (None = healthy serve).
    pub chaos: Option<String>,
    /// Shard count for the sharded router (None = monolithic engine;
    /// `Some(1)` routes through `idde-shard` with one shard, which is
    /// byte-identical to the monolithic serve).
    pub shards: Option<usize>,
    /// Group-commit size of the ingestion layer (1 = a repair after
    /// every churn event).
    pub batch: u64,
    /// Caching policy (parse-time validated; `Off` = no cache).
    pub cache: idde_cache::PolicyKind,
    /// Bulk-distribution strategy (parse-time validated; `Unicast` is
    /// the byte-identical default).
    pub delivery: idde_dist::StrategyKind,
    /// Workload mode: `"steady"` or `"drift"`.
    pub workload: String,
}

fn path_arg(value: &str) -> Option<PathBuf> {
    if value == "-" {
        None
    } else {
        Some(PathBuf::from(value))
    }
}

/// Parses an argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter().peekable();
    let command = it.next().ok_or("missing command")?;

    // Collect --key value pairs. `--json` and `--check` are the boolean
    // flags: their value may be omitted (equivalent to `--json true`).
    let mut opts: Vec<(String, String)> = Vec::new();
    while let Some(key) = it.next() {
        let key =
            key.strip_prefix("--").ok_or_else(|| format!("expected an option, got {key:?}"))?;
        if (key == "json" || key == "check") && it.peek().is_none_or(|v| v.starts_with("--")) {
            opts.push((key.to_string(), "true".to_string()));
            continue;
        }
        let value = it.next().ok_or_else(|| format!("option --{key} needs a value"))?;
        opts.push((key.to_string(), value.clone()));
    }
    let take = |name: &str| opts.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        take(name)
            .map(|v| v.parse::<u64>().map_err(|_| format!("--{name}: bad integer {v:?}")))
            .unwrap_or(Ok(default))
    };
    let opt_usize = |name: &str| -> Result<Option<usize>, String> {
        take(name)
            .map(|v| v.parse::<usize>().map_err(|_| format!("--{name}: bad integer {v:?}")))
            .transpose()
    };
    let parse_usize = |name: &str| -> Result<usize, String> {
        opt_usize(name)?.ok_or(format!("--{name} is required"))
    };
    let usize_or = |name: &str, default: usize| opt_usize(name).map(|v| v.unwrap_or(default));
    // Sampling needs at least one server: with none, no user site is
    // covered and the user sampler draws from an empty range.
    let servers = |default: Option<usize>| -> Result<usize, String> {
        match opt_usize("servers")?.or(default) {
            Some(0) => Err("--servers needs a positive server count".into()),
            Some(n) => Ok(n),
            None => Err("--servers is required".into()),
        }
    };
    // The real-valued flags (`--density`, `--drift`) are finite and
    // non-negative: a negative density trips the topology generator's
    // assert, and a NaN drift threshold is never exceeded.
    let parse_f64 = |name: &str, default: f64| -> Result<f64, String> {
        let Some(v) = take(name) else { return Ok(default) };
        match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
            Ok(_) => Err(format!("--{name}: expected a finite non-negative number, got {v:?}")),
            Err(_) => Err(format!("--{name}: bad number {v:?}")),
        }
    };
    let known = |allowed: &[&str]| -> Result<(), String> {
        for (k, _) in &opts {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("unknown option --{k} for {command}"));
            }
        }
        Ok(())
    };

    match command.as_str() {
        "generate" => {
            known(&["servers", "users", "data", "seed", "out"])?;
            Ok(Command::Generate {
                servers: servers(None)?,
                users: parse_usize("users")?,
                data: parse_usize("data")?,
                seed: parse_u64("seed", 2022)?,
                out: take("out").and_then(|v| path_arg(&v).map(Some).unwrap_or(None)),
            })
        }
        "info" => {
            known(&["scenario"])?;
            Ok(Command::Info { scenario: take("scenario").and_then(|v| path_arg(&v)) })
        }
        "solve" => {
            known(&["scenario", "approach", "seed", "density", "net-seed", "iddeip-ms"])?;
            Ok(Command::Solve {
                scenario: take("scenario").and_then(|v| path_arg(&v)),
                approach: take("approach").unwrap_or_else(|| "idde-g".into()).to_lowercase(),
                seed: parse_u64("seed", 0)?,
                density: parse_f64("density", 1.0)?,
                net_seed: parse_u64("net-seed", 1)?,
                iddeip_ms: parse_u64("iddeip-ms", 1000)?,
            })
        }
        "compare" => {
            known(&["scenario", "seed", "density", "net-seed", "iddeip-ms"])?;
            Ok(Command::Compare {
                scenario: take("scenario").and_then(|v| path_arg(&v)),
                seed: parse_u64("seed", 0)?,
                density: parse_f64("density", 1.0)?,
                net_seed: parse_u64("net-seed", 1)?,
                iddeip_ms: parse_u64("iddeip-ms", 1000)?,
            })
        }
        "serve" => {
            known(&[
                "scenario",
                "servers",
                "users",
                "data",
                "scale-servers",
                "scale-users",
                "seed",
                "ticks",
                "density",
                "net-seed",
                "checkpoint",
                "drift",
                "csv",
                "audit",
                "chaos",
                "shards",
                "batch",
                "cache",
                "delivery",
                "workload",
            ])?;
            let shards = opt_usize("shards")?;
            if shards == Some(0) {
                return Err("--shards needs a positive shard count".into());
            }
            let batch = parse_u64("batch", 1)?;
            if batch == 0 {
                return Err("--batch needs a positive group-commit size".into());
            }
            let cache = take("cache")
                .unwrap_or_else(|| "off".into())
                .parse::<idde_cache::PolicyKind>()
                .map_err(|e| format!("--cache: {e}"))?;
            let delivery = take("delivery")
                .unwrap_or_else(|| "unicast".into())
                .to_lowercase()
                .parse::<idde_dist::StrategyKind>()
                .map_err(|e| format!("--delivery: {e}"))?;
            let workload = take("workload").unwrap_or_else(|| "steady".into()).to_lowercase();
            if !["steady", "drift"].contains(&workload.as_str()) {
                return Err(format!("--workload: expected steady|drift, got {workload:?}"));
            }
            let engine = EngineConfig::default();
            Ok(Command::Serve(ServeOptions {
                scenario: take("scenario").map(|v| path_arg(&v)),
                servers: servers(Some(20))?,
                users: usize_or("users", 100)?,
                data: usize_or("data", 5)?,
                scale_servers: opt_usize("scale-servers")?,
                scale_users: opt_usize("scale-users")?,
                seed: parse_u64("seed", 42)?,
                ticks: parse_u64("ticks", 200)?,
                density: parse_f64("density", 1.0)?,
                net_seed: parse_u64("net-seed", 1)?,
                checkpoint: parse_u64("checkpoint", engine.checkpoint_interval)?,
                drift: parse_f64("drift", engine.drift_threshold)?,
                csv: take("csv").map(|v| path_arg(&v)),
                audit: parse_u64("audit", 0)?,
                chaos: take("chaos"),
                shards,
                batch,
                cache,
                delivery,
                workload,
            }))
        }
        "chaos" => {
            known(&[
                "spec", "scenario", "servers", "users", "data", "seed", "density", "net-seed",
            ])?;
            Ok(Command::Chaos {
                spec: take("spec").ok_or("--spec is required")?,
                scenario: take("scenario").map(|v| path_arg(&v)),
                servers: servers(Some(20))?,
                users: usize_or("users", 100)?,
                data: usize_or("data", 5)?,
                seed: parse_u64("seed", 42)?,
                density: parse_f64("density", 1.0)?,
                net_seed: parse_u64("net-seed", 1)?,
            })
        }
        "bench" => {
            known(&["suite", "samples", "threads", "seed", "out", "json", "check"])?;
            let suite = take("suite").unwrap_or_else(|| "all".into()).to_lowercase();
            if !["all", "engine", "solver"].contains(&suite.as_str()) {
                return Err(format!("--suite: expected all|engine|solver, got {suite:?}"));
            }
            let defaults = LedgerConfig::default();
            let samples = usize_or("samples", defaults.samples)?;
            if samples == 0 {
                return Err("--samples must be positive".into());
            }
            let threads = match take("threads") {
                None => defaults.threads,
                Some(list) => {
                    let parsed: Result<Vec<usize>, _> = list
                        .split(',')
                        .map(|v| v.trim().parse::<usize>().map_err(|_| list.clone()))
                        .collect();
                    let parsed =
                        parsed.map_err(|l| format!("--threads: bad list {l:?} (want 1,2,4,8)"))?;
                    if parsed.is_empty() || parsed.contains(&0) {
                        return Err("--threads needs positive worker counts".into());
                    }
                    parsed
                }
            };
            let flag = |name: &str| -> Result<bool, String> {
                match take(name).as_deref() {
                    None | Some("false") => Ok(false),
                    Some("true") => Ok(true),
                    Some(other) => Err(format!("--{name}: expected true|false, got {other:?}")),
                }
            };
            Ok(Command::Bench {
                suite,
                samples,
                threads,
                seed: parse_u64("seed", defaults.seed)?,
                out: take("out").map(PathBuf::from).unwrap_or_else(|| PathBuf::from(".")),
                json: flag("json")?,
                check: flag("check")?,
            })
        }
        "render" => {
            known(&["scenario", "out", "solve", "seed", "density", "net-seed"])?;
            let solve = match take("solve").as_deref() {
                None | Some("true") => true,
                Some("false") => false,
                Some(other) => return Err(format!("--solve: expected true|false, got {other:?}")),
            };
            Ok(Command::Render {
                scenario: take("scenario").and_then(|v| path_arg(&v)),
                out: take("out").and_then(|v| path_arg(&v)),
                solve,
                seed: parse_u64("seed", 0)?,
                density: parse_f64("density", 1.0)?,
                net_seed: parse_u64("net-seed", 1)?,
            })
        }
        "help" | "--help" | "-h" => Err("help requested".into()),
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&argv("generate --servers 10 --users 50 --data 3 --out x.idde")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                servers: 10,
                users: 50,
                data: 3,
                seed: 2022,
                out: Some(PathBuf::from("x.idde")),
            }
        );
    }

    #[test]
    fn generate_requires_sizes() {
        assert!(parse(&argv("generate --servers 10 --users 50")).is_err());
    }

    #[test]
    fn zero_servers_is_rejected() {
        for line in [
            "generate --servers 0 --users 5 --data 1",
            "serve --servers 0",
            "chaos --spec server:0@1+1 --servers 0",
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert_eq!(err, "--servers needs a positive server count", "{line}");
        }
        assert!(parse(&argv("generate --servers 1 --users 5 --data 1")).is_ok());
        assert!(parse(&argv("serve --servers 1")).is_ok());
    }

    #[test]
    fn parses_solve_with_defaults() {
        let cmd = parse(&argv("solve --scenario city.idde")).unwrap();
        match cmd {
            Command::Solve { scenario, approach, seed, density, net_seed, iddeip_ms } => {
                assert_eq!(scenario, Some(PathBuf::from("city.idde")));
                assert_eq!(approach, "idde-g");
                assert_eq!(seed, 0);
                assert_eq!(density, 1.0);
                assert_eq!(net_seed, 1);
                assert_eq!(iddeip_ms, 1000);
            }
            other => unreachable!("parse returned the wrong command variant: {other:?}"),
        }
    }

    #[test]
    fn dash_means_stdin() {
        let cmd = parse(&argv("info --scenario -")).unwrap();
        assert_eq!(cmd, Command::Info { scenario: None });
    }

    #[test]
    fn parses_render() {
        let cmd = parse(&argv("render --scenario x.idde --out map.svg --solve false")).unwrap();
        match cmd {
            Command::Render { scenario, out, solve, .. } => {
                assert_eq!(scenario, Some(PathBuf::from("x.idde")));
                assert_eq!(out, Some(PathBuf::from("map.svg")));
                assert!(!solve);
            }
            other => unreachable!("parse returned the wrong command variant: {other:?}"),
        }
        assert!(parse(&argv("render --scenario x --solve maybe")).is_err());
    }

    #[test]
    fn parses_serve_with_defaults() {
        let cmd = parse(&argv("serve --seed 42 --ticks 1000")).unwrap();
        match cmd {
            Command::Serve(ServeOptions {
                scenario,
                servers,
                users,
                data,
                scale_servers,
                scale_users,
                seed,
                ticks,
                checkpoint,
                drift,
                csv,
                audit,
                ..
            }) => {
                assert_eq!(scenario, None);
                assert_eq!((servers, users, data), (20, 100, 5));
                assert_eq!((scale_servers, scale_users), (None, None));
                assert_eq!((seed, ticks, checkpoint), (42, 1000, 50));
                assert_eq!(drift, 0.05);
                assert_eq!(csv, None);
                assert_eq!(audit, 0, "auditing is off unless asked for");
            }
            other => unreachable!("parse returned the wrong command variant: {other:?}"),
        }
        // `--csv -` means stdout, `--scenario -` means stdin.
        let cmd = parse(&argv("serve --scenario - --csv - --audit 50")).unwrap();
        match cmd {
            Command::Serve(ServeOptions { scenario, csv, audit, .. }) => {
                assert_eq!(scenario, Some(None));
                assert_eq!(csv, Some(None));
                assert_eq!(audit, 50);
            }
            other => unreachable!("parse returned the wrong command variant: {other:?}"),
        }
        assert!(parse(&argv("serve --audit fifty")).is_err());
    }

    #[test]
    fn parses_serve_scale_flags() {
        let cmd = parse(&argv(
            "serve --scale-servers 2000 --scale-users 50000 --servers 2000 --users 2000",
        ))
        .unwrap();
        match cmd {
            Command::Serve(ServeOptions { scale_servers, scale_users, servers, users, .. }) => {
                assert_eq!(scale_servers, Some(2000));
                assert_eq!(scale_users, Some(50_000));
                assert_eq!((servers, users), (2000, 2000));
            }
            other => unreachable!("parse returned the wrong command variant: {other:?}"),
        }
        // One flag alone is fine — the other keeps its base-geography default.
        assert!(matches!(
            parse(&argv("serve --scale-servers 500")).unwrap(),
            Command::Serve(ServeOptions { scale_servers: Some(500), scale_users: None, .. })
        ));
        assert!(parse(&argv("serve --scale-servers many")).is_err());
        assert!(parse(&argv("generate --servers 5 --users 9 --data 1 --scale-servers 9")).is_err());
    }

    #[test]
    fn rejects_negative_and_non_finite_densities() {
        for command in
            ["solve --scenario x", "compare --scenario x", "serve", "render", "chaos --spec x"]
        {
            assert!(parse(&argv(&format!("{command} --density 0"))).is_ok(), "{command}");
            for bad in ["-1", "nan", "inf", "-0.5"] {
                let err = parse(&argv(&format!("{command} --density {bad}"))).unwrap_err();
                assert!(err.contains("--density: expected a finite non-negative"), "{err}");
            }
        }
        assert!(parse(&argv("serve --density many")).unwrap_err().contains("bad number"));
    }

    #[test]
    fn rejects_negative_and_non_finite_drift_thresholds() {
        assert!(matches!(
            parse(&argv("serve --drift 0")).unwrap(),
            Command::Serve(ServeOptions { drift, .. }) if drift == 0.0
        ));
        for bad in ["nan", "NaN", "inf", "-0.05"] {
            let err = parse(&argv(&format!("serve --drift {bad}"))).unwrap_err();
            assert!(err.contains("--drift: expected a finite non-negative"), "{err}");
        }
    }

    #[test]
    fn parses_bench_with_defaults() {
        let cmd = parse(&argv("bench")).unwrap();
        assert_eq!(
            cmd,
            Command::Bench {
                suite: "all".into(),
                samples: 5,
                threads: vec![1, 2, 4, 8],
                seed: 2022,
                out: PathBuf::from("."),
                json: false,
                check: false,
            }
        );
    }

    #[test]
    fn parses_bench_options_and_bare_json_flag() {
        // `--json` mid-stream (no value) and an explicit thread list.
        let cmd =
            parse(&argv("bench --suite solver --json --threads 1,8 --samples 3 --out b")).unwrap();
        assert_eq!(
            cmd,
            Command::Bench {
                suite: "solver".into(),
                samples: 3,
                threads: vec![1, 8],
                seed: 2022,
                out: PathBuf::from("b"),
                json: true,
                check: false,
            }
        );
        // Trailing bare `--json` and an explicit `--json false`.
        assert!(matches!(parse(&argv("bench --json")).unwrap(), Command::Bench { json: true, .. }));
        assert!(matches!(
            parse(&argv("bench --json false")).unwrap(),
            Command::Bench { json: false, .. }
        ));
        // `--check` is the bench-gate flag, bare or explicit.
        assert!(matches!(
            parse(&argv("bench --check --samples 1")).unwrap(),
            Command::Bench { check: true, samples: 1, .. }
        ));
        assert!(matches!(
            parse(&argv("bench --check true")).unwrap(),
            Command::Bench { check: true, .. }
        ));
        assert!(parse(&argv("bench --check sometimes")).is_err());
    }

    #[test]
    fn parses_serve_chaos_spec() {
        let cmd = parse(&argv("serve --ticks 50 --chaos server:3@10+20,link:0-1@5")).unwrap();
        match cmd {
            Command::Serve(ServeOptions { chaos, ticks, .. }) => {
                assert_eq!(chaos.as_deref(), Some("server:3@10+20,link:0-1@5"));
                assert_eq!(ticks, 50);
            }
            other => unreachable!("parse returned the wrong command variant: {other:?}"),
        }
        assert!(matches!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeOptions { chaos: None, .. })
        ));
    }

    #[test]
    fn parses_serve_shards() {
        // Unset means the monolithic engine; an explicit count routes
        // through idde-shard (1 is allowed — the identity-contract mode).
        assert!(matches!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeOptions { shards: None, .. })
        ));
        assert!(matches!(
            parse(&argv("serve --shards 4 --ticks 50")).unwrap(),
            Command::Serve(ServeOptions { shards: Some(4), ticks: 50, .. })
        ));
        assert!(matches!(
            parse(&argv("serve --shards 1")).unwrap(),
            Command::Serve(ServeOptions { shards: Some(1), .. })
        ));
        assert!(parse(&argv("serve --shards 0")).is_err());
        assert!(parse(&argv("serve --shards four")).is_err());
        assert!(parse(&argv("generate --servers 5 --users 9 --data 1 --shards 2")).is_err());
    }

    #[test]
    fn parses_serve_batch() {
        // Default 1 = a repair after every churn event.
        assert!(matches!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeOptions { batch: 1, .. })
        ));
        assert!(matches!(
            parse(&argv("serve --batch 64 --ticks 50")).unwrap(),
            Command::Serve(ServeOptions { batch: 64, ticks: 50, .. })
        ));
        // Batching composes with the sharded router.
        assert!(matches!(
            parse(&argv("serve --batch 7 --shards 4")).unwrap(),
            Command::Serve(ServeOptions { batch: 7, shards: Some(4), .. })
        ));
        assert!(parse(&argv("serve --batch 0")).is_err());
        assert!(parse(&argv("serve --batch many")).is_err());
        assert!(parse(&argv("bench --batch 2")).is_err());
    }

    #[test]
    fn parses_serve_cache_and_workload() {
        use idde_cache::PolicyKind;
        // Defaults: no cache, the stationary workload.
        assert!(matches!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeOptions { cache: PolicyKind::Off, ref workload, .. }) if workload == "steady"
        ));
        // Policy names are case-insensitive, and the aliases parse.
        assert!(matches!(
            parse(&argv("serve --cache ProbCache --workload drift --ticks 50")).unwrap(),
            Command::Serve(ServeOptions { cache: PolicyKind::ProbCache, ref workload, ticks: 50, .. })
                if workload == "drift"
        ));
        for (policy, kind) in [
            ("off", PolicyKind::Off),
            ("none", PolicyKind::Off),
            ("lce", PolicyKind::Lce),
            ("lcd", PolicyKind::Lcd),
            ("prob", PolicyKind::ProbCache),
        ] {
            assert!(
                matches!(
                    parse(&argv(&format!("serve --cache {policy}"))).unwrap(),
                    Command::Serve(ServeOptions { cache, .. }) if cache == kind
                ),
                "{policy}"
            );
        }
        // The cache composes with sharding and batching.
        assert!(matches!(
            parse(&argv("serve --cache lcd --shards 4 --batch 8")).unwrap(),
            Command::Serve(ServeOptions { cache: PolicyKind::Lcd, shards: Some(4), batch: 8, .. })
        ));
        // Unknown values are parse-time errors, not serve-time surprises.
        for policy in ["lru", "collab"] {
            let err = parse(&argv(&format!("serve --cache {policy}"))).unwrap_err();
            assert!(err.contains("--cache") && err.contains("probcache"), "{err}");
        }
        assert!(parse(&argv("serve --workload bursty")).is_err());
        assert!(parse(&argv("generate --servers 5 --users 9 --data 1 --cache lce")).is_err());
    }

    #[test]
    fn parses_serve_delivery() {
        use idde_dist::StrategyKind;
        // Default: unicast, the byte-identical legacy path.
        assert!(matches!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeOptions { delivery: StrategyKind::Unicast, .. })
        ));
        // Case-normalised, composes with chaos, shards and audit.
        assert!(matches!(
            parse(&argv("serve --delivery Steiner --chaos server:3@10+20 --shards 2 --audit 25"))
                .unwrap(),
            Command::Serve(ServeOptions {
                delivery: StrategyKind::Steiner,
                shards: Some(2),
                audit: 25,
                ..
            })
        ));
        assert!(matches!(
            parse(&argv("serve --delivery unicast")).unwrap(),
            Command::Serve(ServeOptions { delivery: StrategyKind::Unicast, .. })
        ));
        // Unknown strategies are parse-time errors naming the candidates.
        let err = parse(&argv("serve --delivery multicast")).unwrap_err();
        assert!(err.contains("--delivery") && err.contains("steiner"), "{err}");
        assert!(parse(&argv("generate --servers 5 --users 9 --data 1 --delivery steiner")).is_err());
    }

    #[test]
    fn parses_chaos_dry_run() {
        let cmd = parse(&argv("chaos --spec rand:7:2:1:0@100+25 --servers 12 --users 40")).unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                spec: "rand:7:2:1:0@100+25".into(),
                scenario: None,
                servers: 12,
                users: 40,
                data: 5,
                seed: 42,
                density: 1.0,
                net_seed: 1,
            }
        );
        assert!(parse(&argv("chaos")).is_err(), "--spec is required");
    }

    #[test]
    fn bench_rejects_bad_inputs() {
        assert!(parse(&argv("bench --suite everything")).is_err());
        assert!(parse(&argv("bench --threads 1,zero")).is_err());
        assert!(parse(&argv("bench --threads 0")).is_err());
        assert!(parse(&argv("bench --samples 0")).is_err());
        assert!(parse(&argv("bench --json maybe")).is_err());
    }

    #[test]
    fn rejects_unknown_command_and_options() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("info --bogus 1")).is_err());
        assert!(parse(&argv("solve --scenario x --approach")).is_err());
        assert!(parse(&[]).is_err());
    }
}
