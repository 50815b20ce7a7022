//! Seeded, parallel execution of the experiment sweeps.
//!
//! Each repetition of each experiment point:
//!
//! 1. derives a `ChaCha8Rng` from `(master_seed, set, point, rep)`,
//! 2. samples a fresh scenario from the (shared, fixed) base population —
//!    servers, users, storage, data sizes, requests — and a fresh topology
//!    at the point's density (§4.3: "each experiment is run 50 times"),
//! 3. runs every approach of the panel on the *same* problem instance,
//!    measuring wall-clock formulation time (§4.4's third metric),
//! 4. scores each strategy with the shared evaluator.
//!
//! Repetitions run in parallel through `idde_par::par_for_each_mut`, one
//! result slot each (they are fully independent and each is heavyweight,
//! so two already justify two workers); approaches within one repetition
//! run sequentially so the timing of one approach is not polluted by the
//! others. Wall-clock timings are the only machine-dependent output; rates
//! and latencies are bit-reproducible for every worker count.

use std::time::{Duration, Instant};

use idde_baselines::{standard_panel, SolveStrategy};
use idde_core::Problem;
use idde_eua::{BasePopulation, SampleConfig, SyntheticEua};
use idde_net::{generate_topology, TopologyConfig};
use idde_radio::{RadioEnvironment, RadioParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::experiment::{ExperimentPoint, ExperimentSet};
use crate::stats::Summary;

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Repetitions per experiment point (paper: 50).
    pub repetitions: usize,
    /// Master seed from which all randomness derives.
    pub master_seed: u64,
    /// Total IDDE-IP budget per run (the paper's 100 s scaled to taste).
    pub iddeip_budget: Duration,
    /// Skip IDDE-IP entirely (it dominates the wall-clock of a full sweep).
    pub skip_iddeip: bool,
    /// Sampling mode: `true` (default) draws users only from covered sites
    /// (the paper's "all users can be allocated" assumption); `false`
    /// draws uniformly, leaving an N-dependent share unallocated.
    pub require_coverage: bool,
    /// Audit every produced strategy with [`idde_audit::Auditor`] and panic
    /// on any invariant violation (slow; meant for seeded CI sweeps).
    pub audit_strategies: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            repetitions: 50,
            master_seed: 2022,
            iddeip_budget: Duration::from_secs(1),
            skip_iddeip: false,
            require_coverage: true,
            audit_strategies: false,
        }
    }
}

/// One approach's raw samples at one experiment point.
#[derive(Clone, Debug)]
pub struct ApproachSamples {
    /// Approach display name.
    pub name: &'static str,
    /// `R_avg` per repetition (MB/s).
    pub rates: Vec<f64>,
    /// `L_avg` per repetition (ms).
    pub latencies: Vec<f64>,
    /// Formulation time per repetition (seconds).
    pub times: Vec<f64>,
}

impl ApproachSamples {
    /// Summary of the rate samples.
    pub fn rate_summary(&self) -> Summary {
        Summary::of(&self.rates)
    }

    /// Summary of the latency samples.
    pub fn latency_summary(&self) -> Summary {
        Summary::of(&self.latencies)
    }

    /// Summary of the timing samples.
    pub fn time_summary(&self) -> Summary {
        Summary::of(&self.times)
    }
}

/// All approaches' samples at one experiment point.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// The experiment point.
    pub point: ExperimentPoint,
    /// Per-approach samples, in panel order.
    pub approaches: Vec<ApproachSamples>,
}

/// A fully executed experiment set.
#[derive(Clone, Debug)]
pub struct SetResult {
    /// The set that was run.
    pub set: ExperimentSet,
    /// One result per point, in sweep order.
    pub points: Vec<PointResult>,
}

/// The experiment runner: a fixed base population plus a configuration.
pub struct Runner {
    population: BasePopulation,
    config: RunConfig,
}

impl Runner {
    /// Creates a runner over the default synthetic EUA-like population
    /// (seeded from `config.master_seed`, mirroring the fixed real dataset).
    pub fn new(config: RunConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(config.master_seed ^ 0x45_55_41); // "EUA"
        let population = SyntheticEua::default().generate(&mut rng);
        Self::with_population(population, config)
    }

    /// Creates a runner over an explicit base population (e.g. loaded from
    /// the real EUA CSVs).
    pub fn with_population(population: BasePopulation, config: RunConfig) -> Self {
        Self { population, config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Derives the repetition RNG for `(set, point, rep)`.
    fn rep_rng(&self, set_id: usize, point_idx: usize, rep: usize) -> ChaCha8Rng {
        // Mix the coordinates into one 64-bit stream id (SplitMix64-style).
        let mut z = self.config.master_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(
            1 + set_id as u64 + 1000 * (point_idx as u64 + 1) + 1_000_000 * (rep as u64 + 1),
        ));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ChaCha8Rng::seed_from_u64(z ^ (z >> 31))
    }

    /// Builds the problem instance of one repetition.
    pub fn build_problem(
        &self,
        set_id: usize,
        point: &ExperimentPoint,
        point_idx: usize,
        rep: usize,
    ) -> Problem {
        let mut rng = self.rep_rng(set_id, point_idx, rep);
        let mut sample_config = SampleConfig::paper(point.n, point.m, point.k);
        sample_config.require_coverage = self.config.require_coverage;
        let scenario = sample_config.sample(&self.population, &mut rng);
        let radio = RadioEnvironment::new(&scenario, RadioParams::paper());
        let topology = generate_topology(point.n, &TopologyConfig::paper(point.density), &mut rng);
        Problem::new(scenario, radio, topology)
    }

    fn panel(&self) -> Vec<Box<dyn SolveStrategy + Send + Sync>> {
        let mut panel = standard_panel(self.config.iddeip_budget);
        if self.config.skip_iddeip {
            panel.retain(|s| s.name() != "IDDE-IP");
        }
        panel
    }

    /// Runs one experiment point: `repetitions` independent instances, all
    /// approaches on each, in parallel over repetitions.
    pub fn run_point(
        &self,
        set_id: usize,
        point_idx: usize,
        point: &ExperimentPoint,
    ) -> PointResult {
        let mut reps: Vec<Vec<(f64, f64, f64)>> = vec![Vec::new(); self.config.repetitions];
        idde_par::par_for_each_mut(&mut reps, |rep, samples| {
            let problem = self.build_problem(set_id, point, point_idx, rep);
            *samples = self
                .panel()
                .iter()
                .map(|approach| {
                    let t0 = Instant::now();
                    let strategy = approach.solve_seeded(&problem, rep as u64);
                    let elapsed = t0.elapsed().as_secs_f64();
                    if self.config.audit_strategies {
                        let report = idde_audit::Auditor.audit_strategy(
                            &problem,
                            &strategy.allocation,
                            &strategy.placement,
                        );
                        assert!(report.is_clean(), "{} rep {rep}: {report}", approach.name());
                    }
                    let metrics = problem.evaluate(&strategy);
                    (
                        metrics.average_data_rate.value(),
                        metrics.average_delivery_latency.value(),
                        elapsed,
                    )
                })
                .collect();
        });

        let names: Vec<&'static str> = self.panel().iter().map(|s| s.name()).collect();
        let approaches = names
            .iter()
            .enumerate()
            .map(|(a, &name)| ApproachSamples {
                name,
                rates: reps.iter().map(|r| r[a].0).collect(),
                latencies: reps.iter().map(|r| r[a].1).collect(),
                times: reps.iter().map(|r| r[a].2).collect(),
            })
            .collect();
        PointResult { point: *point, approaches }
    }

    /// Runs a whole experiment set.
    pub fn run_set(&self, set: &ExperimentSet) -> SetResult {
        let points =
            set.points.iter().enumerate().map(|(idx, p)| self.run_point(set.id, idx, p)).collect();
        SetResult { set: set.clone(), points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::table2_sets;

    fn quick_config() -> RunConfig {
        RunConfig {
            repetitions: 3,
            master_seed: 7,
            iddeip_budget: Duration::from_millis(30),
            skip_iddeip: false,
            require_coverage: true,
            audit_strategies: false,
        }
    }

    #[test]
    fn run_point_produces_full_samples() {
        let runner = Runner::new(quick_config());
        let point = ExperimentPoint { n: 15, m: 40, k: 3, density: 1.0 };
        let result = runner.run_point(1, 0, &point);
        assert_eq!(result.approaches.len(), 5);
        for a in &result.approaches {
            assert_eq!(a.rates.len(), 3, "{}", a.name);
            assert_eq!(a.latencies.len(), 3);
            assert_eq!(a.times.len(), 3);
            assert!(a.rates.iter().all(|&r| r > 0.0), "{} has zero rates", a.name);
            assert!(a.latencies.iter().all(|&l| l >= 0.0));
        }
    }

    #[test]
    fn quality_metrics_are_reproducible() {
        let point = ExperimentPoint { n: 12, m: 30, k: 3, density: 1.0 };
        let a = Runner::new(quick_config()).run_point(2, 1, &point);
        let b = Runner::new(quick_config()).run_point(2, 1, &point);
        for (x, y) in a.approaches.iter().zip(&b.approaches) {
            // IDDE-IP is wall-clock bounded, hence not bit-reproducible.
            if x.name == "IDDE-IP" {
                continue;
            }
            assert_eq!(x.rates, y.rates, "{} rates differ", x.name);
            assert_eq!(x.latencies, y.latencies, "{} latencies differ", x.name);
        }
    }

    #[test]
    fn samples_are_identical_at_one_and_two_workers() {
        // Two workers split the repetitions into two chunks on two threads;
        // `PAR_THRESHOLD` of them keep that true under either inline cutoff.
        let mut cfg = quick_config();
        cfg.repetitions = idde_par::PAR_THRESHOLD;
        cfg.skip_iddeip = true;
        let runner = Runner::new(cfg);
        let point = ExperimentPoint { n: 10, m: 25, k: 3, density: 1.0 };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let runs: Vec<PointResult> = [1, 2]
            .into_iter()
            .map(|threads| {
                idde_par::set_threads(threads);
                assert_eq!(idde_par::num_threads(), threads);
                runner.run_point(1, 0, &point)
            })
            .collect();
        idde_par::set_threads(0);
        for (x, y) in runs[0].approaches.iter().zip(&runs[1].approaches) {
            assert_eq!(x.rates.len(), idde_par::PAR_THRESHOLD, "{}", x.name);
            assert_eq!(bits(&x.rates), bits(&y.rates), "{} rates differ", x.name);
            assert_eq!(bits(&x.latencies), bits(&y.latencies), "{} latencies differ", x.name);
        }
    }

    #[test]
    fn different_reps_see_different_instances() {
        let runner = Runner::new(quick_config());
        let point = ExperimentPoint { n: 12, m: 30, k: 3, density: 1.0 };
        let p0 = runner.build_problem(1, &point, 0, 0);
        let p1 = runner.build_problem(1, &point, 0, 1);
        assert_ne!(
            p0.scenario.users.iter().map(|u| u.power.value()).collect::<Vec<_>>(),
            p1.scenario.users.iter().map(|u| u.power.value()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn audited_point_run_passes_every_strategy_audit() {
        let mut cfg = quick_config();
        cfg.repetitions = 2;
        cfg.skip_iddeip = true;
        cfg.audit_strategies = true;
        let runner = Runner::new(cfg);
        let point = ExperimentPoint { n: 10, m: 25, k: 3, density: 1.0 };
        // Panics inside run_point if any panel strategy fails its audit.
        let result = runner.run_point(1, 0, &point);
        assert_eq!(result.approaches.len(), 4);
    }

    #[test]
    fn skip_iddeip_drops_the_panelist() {
        let mut cfg = quick_config();
        cfg.skip_iddeip = true;
        let runner = Runner::new(cfg);
        let point = ExperimentPoint { n: 10, m: 20, k: 2, density: 1.0 };
        let result = runner.run_point(1, 0, &point);
        assert_eq!(result.approaches.len(), 4);
        assert!(result.approaches.iter().all(|a| a.name != "IDDE-IP"));
    }

    #[test]
    fn set_runner_covers_all_points() {
        let mut cfg = quick_config();
        cfg.repetitions = 1;
        cfg.skip_iddeip = true;
        let runner = Runner::new(cfg);
        // A shrunken copy of Set #3 to keep the test quick.
        let mut set = table2_sets().remove(2);
        set.points.truncate(2);
        for p in &mut set.points {
            p.n = 10;
            p.m = 25;
        }
        let result = runner.run_set(&set);
        assert_eq!(result.points.len(), 2);
        assert_eq!(result.set.id, 3);
    }
}
