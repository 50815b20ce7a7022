//! # idde-bench — regeneration targets for every table and figure
//!
//! Binaries (run with `cargo run --release -p idde-bench --bin <name>`):
//!
//! | Target | Regenerates |
//! |---|---|
//! | `fig1_latency_test` | Fig. 1 — end-to-end latency, edge vs cloud |
//! | `table2_settings`   | Table 2 — the four experiment sets |
//! | `fig3_servers`      | Fig. 3(a,b) — `R_avg`/`L_avg` vs `N` (Set #1) |
//! | `fig4_users`        | Fig. 4(a,b) — vs `M` (Set #2) |
//! | `fig5_data`         | Fig. 5(a,b) — vs `K` (Set #3) |
//! | `fig6_density`      | Fig. 6(a,b) — vs `density` (Set #4) |
//! | `fig7_time`         | Fig. 7 — computation-time box statistics |
//!
//! Each binary prints the series to stdout and writes CSV files under
//! `target/figures/`. Common flags: `--reps R` (default 50, the paper's
//! repetition count), `--iddeip-ms B` (IDDE-IP budget, default 1000),
//! `--skip-iddeip`, `--quick` (= `--reps 10 --iddeip-ms 200`), `--seed S`.
//!
//! The [`ledger`] module is the crate's one timing harness: seeded,
//! fingerprint-gated cases behind `idde bench`. `fig7_time` covers the
//! paper's computation-time figure.

#![warn(missing_docs)]

pub mod ledger;

use std::path::PathBuf;
use std::time::Duration;

use idde_sim::{RunConfig, Runner, SetResult};

/// CLI options shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct BinConfig {
    /// Repetitions per experiment point.
    pub reps: usize,
    /// IDDE-IP wall-clock budget.
    pub iddeip: Duration,
    /// Drop IDDE-IP from the panel.
    pub skip_iddeip: bool,
    /// Sampling mode (see `idde_sim::RunConfig::require_coverage`).
    pub require_coverage: bool,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
}

impl Default for BinConfig {
    fn default() -> Self {
        Self {
            reps: 50,
            iddeip: Duration::from_millis(1000),
            skip_iddeip: false,
            require_coverage: true,
            seed: 2022,
            out_dir: PathBuf::from("target/figures"),
        }
    }
}

impl BinConfig {
    /// Parses the common flags from `std::env::args`. Unknown flags abort
    /// with a usage message.
    pub fn from_args() -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&argv)
    }

    /// Parses an explicit argument vector (testable core of
    /// [`Self::from_args`]).
    pub fn parse(argv: &[String]) -> Self {
        let mut cfg = Self::default();
        let mut args = argv.iter().cloned();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--reps" => {
                    cfg.reps = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--reps needs a positive integer"))
                }
                "--iddeip-ms" => {
                    let ms: u64 = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--iddeip-ms needs milliseconds"));
                    cfg.iddeip = Duration::from_millis(ms);
                }
                "--skip-iddeip" => cfg.skip_iddeip = true,
                "--open-coverage" => cfg.require_coverage = false,
                "--quick" => {
                    cfg.reps = 10;
                    cfg.iddeip = Duration::from_millis(200);
                }
                "--seed" => {
                    cfg.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"))
                }
                "--out" => {
                    cfg.out_dir = args.next().map(PathBuf::from).unwrap_or_else(|| {
                        usage("--out needs a directory");
                    })
                }
                other => usage(&format!("unknown flag {other}")),
            }
        }
        cfg
    }

    /// Builds the experiment runner for this configuration.
    pub fn runner(&self) -> Runner {
        Runner::new(RunConfig {
            repetitions: self.reps,
            master_seed: self.seed,
            iddeip_budget: self.iddeip,
            skip_iddeip: self.skip_iddeip,
            require_coverage: self.require_coverage,
            ..RunConfig::default()
        })
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\nusage: <bin> [--reps R] [--iddeip-ms B] [--skip-iddeip] \
         [--quick] [--open-coverage] [--seed S] [--out DIR]"
    );
    std::process::exit(2)
}

/// Runs one Table 2 set and emits the figure artefacts (rate + latency
/// tables on stdout, CSV in the output directory).
pub fn emit_set(set_index: usize, figure: &str, cfg: &BinConfig) -> SetResult {
    let sets = idde_sim::table2_sets();
    let set = &sets[set_index];
    eprintln!(
        "running Set #{} ({} points × {} reps{}) …",
        set.id,
        set.points.len(),
        cfg.reps,
        if cfg.skip_iddeip { ", IDDE-IP skipped" } else { "" }
    );
    let runner = cfg.runner();
    let result = runner.run_set(set);
    println!("{}", idde_sim::report::rate_table(&result));
    println!("{}", idde_sim::plot::chart_set(&result, "R_avg (MB/s)", |a| a.rate_summary().mean));
    println!("{}", idde_sim::report::latency_table(&result));
    println!("{}", idde_sim::plot::chart_set(&result, "L_avg (ms)", |a| a.latency_summary().mean));
    println!("{}", idde_sim::report::time_table(&result));
    // Open-coverage runs are a different experiment regime; keep their CSVs
    // apart from the default-mode artefacts.
    let suffix = if cfg.require_coverage { "" } else { "_open" };
    let csv = cfg.out_dir.join(format!("{figure}{suffix}.csv"));
    match idde_sim::report::write_csv(&result, &csv) {
        Ok(()) => eprintln!("wrote {}", csv.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", csv.display()),
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_match_the_paper() {
        let cfg = BinConfig::parse(&[]);
        assert_eq!(cfg.reps, 50);
        assert_eq!(cfg.iddeip, Duration::from_millis(1000));
        assert!(!cfg.skip_iddeip);
        assert!(cfg.require_coverage);
        assert_eq!(cfg.seed, 2022);
    }

    #[test]
    fn flags_are_applied() {
        let cfg = BinConfig::parse(&argv(
            "--reps 7 --iddeip-ms 250 --skip-iddeip --open-coverage --seed 9 --out /tmp/x",
        ));
        assert_eq!(cfg.reps, 7);
        assert_eq!(cfg.iddeip, Duration::from_millis(250));
        assert!(cfg.skip_iddeip);
        assert!(!cfg.require_coverage);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.out_dir, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn quick_profile_shrinks_everything() {
        let cfg = BinConfig::parse(&argv("--quick"));
        assert_eq!(cfg.reps, 10);
        assert_eq!(cfg.iddeip, Duration::from_millis(200));
    }

    #[test]
    fn runner_is_constructible_from_parsed_config() {
        let cfg = BinConfig::parse(&argv("--quick --skip-iddeip"));
        let runner = cfg.runner();
        assert_eq!(runner.config().repetitions, 10);
        assert!(runner.config().skip_iddeip);
    }
}
