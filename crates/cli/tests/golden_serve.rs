//! The golden serves: every `ci/golden/*.csv` serve except the 2 000-server
//! `serve_scale.csv`, compared byte for byte, one test per golden.
//!
//! A case is either an `idde serve` command line, parsed by `args::parse`
//! and run in memory through `run_serve`, or an engine-level serve that no
//! `idde serve` flags reproduce. Its `fired` rows show that the machinery
//! under test ran: `row,>0` needs a positive value, any other entry must
//! appear as a whole CSV line. Every case must also end audit- and
//! certificate-clean, and a sharded case must keep its cross-shard audit
//! clean and, if its users move, hand some across the shard cut.
//!
//! The engine-level cases pin the one ingestion path's dirty-set rules at
//! `batch == 1`, each against CSVs recorded when per-event serving was a
//! separate hand-written path, so each breaks under one wrong rule:
//!
//! * `serve_churn.csv`, a monolithic churn serve, pins the churn
//!   neighbourhood (the seeds' vacated and current covering servers);
//! * `serve_handoff.csv`, a two-shard serve with cut-crossing handoffs,
//!   pins that churn flushes admit *allocated* users only: shard engines
//!   hold active users that only foreign servers cover, so they stay
//!   unallocated;
//! * `serve_storm.csv`, a dense `rand:` fault storm, pins that fault
//!   repairs also admit *unallocated* users covered near the fault;
//! * `serve_read_only.csv`, a two-shard serve of drifting requests only
//!   under an LCE cache, Steiner installs and server outages, re-installs
//!   every halo mirror at the position it already holds, tick after tick;
//!   it pins that a halo refresh of unmoved mirrors leaves every shard as
//!   it was.
//!
//! The first three draw their topology from the sampler's continuing RNG
//! (the CLI seeds it apart), and the read-only storm's request-only
//! workload is none that `--workload` selects.
//!
//! `serve_scale.csv` stays in `ci/scenarios.sh scale`: its serve takes
//! about 40 s in a debug build on two cores. A golden changes only on
//! purpose, and the new bytes must be justified in review.

use std::path::{Path, PathBuf};
use std::time::Duration;

use idde_chaos::FaultSpec;
use idde_core::Problem;
use idde_engine::{DriftProfile, Engine, EngineConfig, WorkloadConfig, WorkloadGenerator};
use idde_eua::SyntheticEua;
use idde_shard::ShardRouter;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use idde_cli::args::{parse, Command, ServeOptions};
use idde_cli::commands::{run_serve, serve_workload, Served};

/// The options of an `idde serve` command line (whitespace-separated, no
/// shell quoting).
fn serve_options(line: &str) -> ServeOptions {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    match parse(&argv) {
        Ok(Command::Serve(opts)) => opts,
        other => panic!("{line:?} is not a serve command: {other:?}"),
    }
}

/// How a golden case runs.
enum Run {
    /// An `idde serve` command line; a relative `--scenario` path is read
    /// from the repository root.
    Cli(&'static str),
    /// An engine-level serve.
    Engine(fn() -> Served),
}

struct Case {
    run: Run,
    /// The golden CSV, relative to the repository root.
    golden: &'static str,
    /// Rows that show the machinery fired (see the module docs).
    fired: &'static [&'static str],
}

#[test]
fn batch_one_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Cli("serve --servers 20 --users 100 --data 5 --seed 7 --ticks 100 --batch 1"),
        golden: "ci/golden/serve_b1.csv",
        fired: &[],
    });
}

#[test]
fn two_shard_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Cli("serve --servers 20 --users 100 --data 5 --seed 7 --ticks 100 --shards 2"),
        golden: "ci/golden/serve_k2.csv",
        fired: &[],
    });
}

#[test]
fn chaos_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Cli(
            "serve --servers 15 --users 70 --data 10 --seed 7 --ticks 200 --audit 25 \
             --chaos rand:2022:2:1:1@120+50",
        ),
        golden: "ci/golden/serve_chaos.csv",
        fired: &[
            "server_outages,1",
            "link_faults,2",
            "re_replications,>0",
            "cloud_fallback_requests,>0",
        ],
    });
}

#[test]
fn heterogeneous_channel_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Cli("serve --scenario ci/golden/serve_het.idde --seed 7 --ticks 200 --audit 50"),
        golden: "ci/golden/serve_het.csv",
        fired: &["certificates,>0"],
    });
}

#[test]
fn probcache_drift_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Cli(
            "serve --servers 20 --users 100 --data 6 --seed 7 --ticks 150 --audit 50 \
             --cache probcache --workload drift",
        ),
        golden: "ci/golden/serve_cache.csv",
        fired: &["cache_hits,>0", "cache_insertions,>0", "cache_evictions,>0"],
    });
}

#[test]
fn composed_sharded_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Cli(
            "serve --servers 20 --users 100 --data 5 --seed 7 --ticks 100 --shards 3 --batch 8 \
             --cache lce --delivery steiner --audit 50 --chaos rand:2022:2:1:1@60+25",
        ),
        golden: "ci/golden/serve_composed.csv",
        fired: &["server_outages,1", "cache_hits,>0", "dist_tree_installs,>0"],
    });
}

#[test]
fn steiner_chaos_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Cli(
            "serve --servers 15 --users 70 --data 10 --seed 7 --ticks 200 --audit 25 \
             --chaos rand:2022:2:1:1@120+50 --delivery steiner",
        ),
        golden: "ci/golden/serve_dist.csv",
        fired: &[
            "dist_bulk_installs,>0",
            "dist_tree_installs,>0",
            "dist_replicas,>0",
            "dist_delay_violations,0",
        ],
    });
}

#[test]
fn monolithic_churn_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Engine(monolithic_churn),
        golden: "ci/golden/serve_churn.csv",
        fired: &["audits,>0"],
    });
}

#[test]
fn two_shard_handoff_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Engine(two_shard_handoffs),
        golden: "ci/golden/serve_handoff.csv",
        fired: &["audits,>0"],
    });
}

#[test]
fn fault_storm_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Engine(fault_storm),
        golden: "ci/golden/serve_storm.csv",
        fired: &["server_outages,8"],
    });
}

#[test]
fn read_only_sharded_storm_serve_matches_its_golden_csv() {
    check(Case {
        run: Run::Engine(read_only_storm),
        golden: "ci/golden/serve_read_only.csv",
        fired: &["moves,0", "arrivals,0", "departures,0", "server_outages,2", "cache_hits,>0"],
    });
}

/// Scenario and topology drawn from one continuing RNG.
fn sampled_problem(seed: u64, servers: usize, users: usize, data: usize) -> Problem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let scenario = SyntheticEua::default().sample(servers, users, data, &mut rng);
    Problem::standard(scenario, &mut rng)
}

/// The default churn workload over `problem` and its initially active
/// users.
fn churn(problem: &Problem, seed: u64) -> (WorkloadGenerator, Vec<bool>) {
    let mut workload =
        WorkloadGenerator::new(WorkloadConfig::default(), problem.scenario.num_data(), seed);
    let initial = workload.initial_active(problem.scenario.num_users());
    (workload, initial)
}

fn audited() -> EngineConfig {
    EngineConfig { audit_every: 50, ..Default::default() }
}

fn engine_served(engine: &Engine) -> Served {
    Served { metrics: engine.metrics().clone(), elapsed: Duration::ZERO, cross: None }
}

fn monolithic_churn() -> Served {
    let problem = sampled_problem(7, 20, 100, 5);
    let (mut workload, initial) = churn(&problem, 7);
    let mut engine = Engine::new(problem, audited(), initial);
    engine.run(&mut workload, 100);
    engine_served(&engine)
}

fn two_shard_handoffs() -> Served {
    let problem = sampled_problem(7, 20, 100, 5);
    let (mut workload, initial) = churn(&problem, 7);
    let mut router = ShardRouter::new(problem, audited(), 2, initial).unwrap();
    router.run(&mut workload, 100);
    let cross = Some((router.cross_audit_stats(), router.handoffs()));
    Served { metrics: router.metrics(), elapsed: Duration::ZERO, cross }
}

fn fault_storm() -> Served {
    let problem = sampled_problem(5, 40, 200, 8);
    let (mut workload, initial) = churn(&problem, 5);
    let mut engine = Engine::new(problem, audited(), initial);
    let mut plan = FaultSpec::parse("rand:11:12:8:4@80+20")
        .and_then(|spec| spec.compile(engine.base_graph()))
        .unwrap();
    engine.run_sources(&mut [&mut plan, &mut workload], 120);
    engine_served(&engine)
}

fn read_only_storm() -> Served {
    let opts = serve_options(
        "serve --servers 30 --users 150 --data 6 --seed 7 --ticks 120 --shards 2 --batch 64 \
         --cache lce --delivery steiner --audit 50 --chaos rand:2022:3:2:1@60+20",
    );
    let workload = WorkloadConfig {
        arrival_rate: 0.0,
        departure_rate: 0.0,
        move_probability: 0.0,
        request_rate: 40.0,
        drift: DriftProfile::drifting(),
        ..WorkloadConfig::default()
    };
    serve_workload(&opts, workload).unwrap()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The first line (1-based) where `golden` and `run` differ, with both
/// rows; a file that ends first reads `<end of file>`.
fn first_difference<'a>(golden: &'a str, run: &'a str) -> (usize, &'a str, &'a str) {
    let (mut golden, mut run) = (golden.split('\n'), run.split('\n'));
    for line in 1.. {
        match (golden.next(), run.next()) {
            (None, None) => break,
            (g, r) if g != r => {
                return (line, g.unwrap_or("<end of file>"), r.unwrap_or("<end of file>"))
            }
            _ => {}
        }
    }
    unreachable!("first_difference called on equal texts")
}

/// Checks one `fired` entry against the CSV.
fn fired(csv: &str, want: &str) -> Result<(), String> {
    let (row, value) = want.split_once(',').expect("a fired entry reads `row,value`");
    let line = csv.lines().find(|l| l.split_once(',').is_some_and(|(r, _)| r == row));
    let got = line.and_then(|l| l.split_once(',')).map_or("", |(_, v)| v);
    let ok = match value {
        ">0" => got.parse::<f64>().is_ok_and(|v| v > 0.0),
        _ => got == value,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "fired row `{want}` does not hold: the CSV has `{}`",
            line.unwrap_or("no such row")
        ))
    }
}

/// Runs `case`, then panics with the golden's path and the first differing
/// line if the CSV moved, or with the check that failed.
fn check(case: Case) {
    if let Err(why) = verify(&case) {
        panic!("{}: {why}", case.golden);
    }
}

fn verify(case: &Case) -> Result<(), String> {
    let served = match case.run {
        Run::Cli(line) => {
            let mut opts = serve_options(line);
            if let Some(Some(path)) = &mut opts.scenario {
                *path = repo_root().join(&path);
            }
            run_serve(&opts)?
        }
        Run::Engine(serve) => serve(),
    };
    let csv = served.metrics.to_csv();
    let path = repo_root().join(case.golden);
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if csv != golden {
        let (line, want, got) = first_difference(&golden, &csv);
        return Err(format!("differs at line {line}\n    golden: {want}\n    run:    {got}"));
    }
    for want in ["audit_violations,0", "certificate_violations,0"].iter().chain(case.fired) {
        fired(&csv, want)?;
    }
    if let Some(((audits, _, violations), handoffs)) = served.cross {
        if violations > 0 {
            return Err(format!("{violations} cross-shard violations over {audits} audits"));
        }
        if handoffs == 0 && fired(&csv, "moves,>0").is_ok() {
            return Err("users moved, but none was handed across the shard cut".into());
        }
    }
    Ok(())
}
