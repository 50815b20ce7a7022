//! The benchmark workloads and the seeded inputs each one is built from.
//!
//! Input generation (the `eua` layer: geography, sampling, topology, the
//! event generator and the fault plan) is never timed. The deployment comes
//! from fixed seeds, the traffic and faults from the run's seed. Everything
//! after it — problem assembly, the initial solve, the serve loop — is the
//! system under test.

use idde_cache::{CacheConfig, PolicyKind};
use idde_chaos::{FaultPlan, FaultSpec};
use idde_dist::{DistConfig, StrategyKind};
use idde_engine::{DriftProfile, EngineConfig, WorkloadConfig, WorkloadGenerator};
use idde_eua::{SampleConfig, SyntheticEua};
use idde_model::Scenario;
use idde_net::{generate_topology, Topology, TopologyConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Seed of the deployment every workload serves: the scenario is sampled
/// as `idde serve --seed 42` samples it, over the `--net-seed 1` topology
/// (both CLI defaults). The run's own seed draws the traffic, the fault
/// storm and the cache's admission randomness, so seeds vary what happens
/// to one deployment rather than the deployment itself.
const SCENARIO_SEED: u64 = 42;
const NET_SEED: u64 = 1;

/// One workload: scenario shape, traffic mix and the serving stack's knobs.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub servers: usize,
    pub users: usize,
    pub data: usize,
    /// Base geography `(server sites, user sites)`; `None` is the default
    /// 125-site / 816-user EUA extract.
    pub geography: Option<(usize, usize)>,
    pub traffic: WorkloadConfig,
    pub batch: u64,
    pub cache: PolicyKind,
    pub delivery: StrategyKind,
    /// A `rand:` fault storm after its seed, `links:outages:jams@span+duration`:
    /// seeded link cuts, server outages and jams whose onsets fall uniformly
    /// in `[0, span)` ticks, each lasting `duration`.
    pub storm: Option<&'static str>,
    /// `Some(K)` serves through `ShardRouter` with `K` shards.
    pub shards: Option<usize>,
    /// Worker count installed through `idde_par::set_threads`.
    pub workers: usize,
    /// Ticks per episode.
    pub ticks: u64,
    /// Set-ups a run times at least. Every episode starts with one; when
    /// the episodes give fewer, the rest are built and dropped after them.
    pub setups: usize,
    /// Episodes a run of `REFERENCE_SECONDS` serves; runs of other lengths
    /// serve proportionally many. Sized so a 30 s run takes 30–45 s of wall
    /// time, fidelity replay and set-ups included, on the 2-vCPU host the
    /// benchmark was tuned on.
    pub episodes: usize,
}

/// The run length, in seconds, that `Spec::episodes` is sized for.
const REFERENCE_SECONDS: f64 = 30.0;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_churn", "metro_mobility", "metro_reads"];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let paper = Spec {
        name: "paper_churn",
        servers: 125,
        users: 816,
        data: 5,
        geography: None,
        traffic: WorkloadConfig::default(),
        batch: 1,
        cache: PolicyKind::Off,
        delivery: StrategyKind::Unicast,
        storm: None,
        shards: None,
        workers: 1,
        ticks: 100,
        setups: 25,
        // Six, so a run has twelve checkpoint ticks (49 and 99 of each
        // episode): more than the ten beyond the tail, so a slower
        // checkpoint can raise `tick_tail_ms`.
        episodes: 6,
    };
    let metro = Spec {
        name: "metro_mobility",
        servers: 500,
        users: 1500,
        data: 8,
        geography: Some((500, 1500)),
        batch: 64,
        ticks: 40,
        setups: 9,
        // Two, though three would fit. About one tick in twelve runs two
        // placement repairs (≈330 ms against ≈200 ms), so over 120 ticks
        // that slow mode holds about ten and the 11th-slowest tick, the
        // tail, jumped between the modes from seed to seed. Over 80 ticks
        // it stays at the top of the fast mode.
        episodes: 2,
        ..paper.clone()
    };
    match name {
        "paper_churn" => Some(paper),
        "metro_mobility" => Some(metro),
        "metro_reads" => Some(Spec {
            name: "metro_reads",
            traffic: WorkloadConfig {
                arrival_rate: 0.0,
                departure_rate: 0.0,
                move_probability: 0.0,
                request_rate: 1000.0,
                drift: DriftProfile::drifting(),
                ..WorkloadConfig::default()
            },
            cache: PolicyKind::Lce,
            delivery: StrategyKind::Steiner,
            storm: Some("12:8:4@160+20"),
            shards: Some(2),
            workers: 2,
            ticks: 200,
            setups: 12,
            episodes: 12,
            ..metro
        }),
        _ => None,
    }
}

/// The deployment every episode of a workload starts from.
#[derive(Clone, Debug)]
pub struct Deployment {
    pub scenario: Scenario,
    pub topology: Topology,
    pub initial: Vec<bool>,
}

/// The event sources of one episode, polled faults first (as `idde serve`
/// does), so a tick's faults land ahead of its traffic.
#[derive(Clone, Debug)]
pub struct Sources {
    pub faults: Option<FaultPlan>,
    pub traffic: WorkloadGenerator,
}

impl Spec {
    /// Episodes a run of `seconds` serves: at least two, so set-up is
    /// always timed more than once. The count depends on the arguments
    /// only, so a run's work — its counts, quality metrics, percentiles
    /// and serve-CSV fingerprint — is a pure function of seed and seconds.
    pub fn episodes_for(&self, seconds: f64) -> usize {
        ((self.episodes as f64 * seconds / REFERENCE_SECONDS).round() as usize).clamp(2, 64)
    }

    /// Samples the deployment: scenario, link graph and initially active
    /// users.
    pub fn deployment(&self) -> Result<Deployment, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(SCENARIO_SEED);
        let geography = match self.geography {
            Some((sites, user_sites)) => SyntheticEua::scaled(sites, user_sites)
                .map_err(|e| format!("invalid geography: {e}"))?,
            None => SyntheticEua::default(),
        };
        let population = geography.generate(&mut rng);
        let scenario =
            SampleConfig::paper(self.servers, self.users, self.data).sample(&population, &mut rng);
        let mut net_rng = ChaCha8Rng::seed_from_u64(NET_SEED);
        let topology =
            generate_topology(scenario.num_servers(), &TopologyConfig::paper(1.0), &mut net_rng);
        let initial = WorkloadGenerator::new(self.traffic, scenario.num_data(), SCENARIO_SEED)
            .initial_active(scenario.num_users());
        Ok(Deployment { scenario, topology, initial })
    }

    /// The traffic generator and fault plan of the episode seeded `seed`.
    pub fn sources(&self, deployment: &Deployment, seed: u64) -> Result<Sources, String> {
        let traffic = WorkloadGenerator::new(self.traffic, deployment.scenario.num_data(), seed);
        let faults = match self.chaos_spec(seed) {
            Some(spec) => Some(
                FaultSpec::parse(&spec)
                    .and_then(|s| s.compile(deployment.topology.graph()))
                    .map_err(|e| format!("fault spec {spec:?}: {e}"))?,
            ),
            None => None,
        };
        Ok(Sources { faults, traffic })
    }

    /// The `--chaos` spec string of this workload's storm for `seed`.
    pub fn chaos_spec(&self, seed: impl std::fmt::Display) -> Option<String> {
        self.storm.map(|storm| format!("rand:{seed}:{storm}"))
    }

    /// The engine configuration, built as `idde serve` builds it from the
    /// equivalent flags.
    pub fn config(&self, seed: u64) -> EngineConfig {
        EngineConfig {
            batch: self.batch,
            cache: CacheConfig { policy: self.cache, seed, ..CacheConfig::default() },
            dist: DistConfig {
                strategy: self.delivery,
                record: self.delivery == StrategyKind::Steiner,
                ..DistConfig::default()
            },
            ..EngineConfig::default()
        }
    }

    /// One line describing the knobs, for the run header.
    pub fn describe(&self) -> String {
        format!(
            "{}: {} servers / {} users / {} items, {} ticks per episode, batch {}, cache {}, \
             delivery {}, shards {}, workers {}, chaos {}",
            self.name,
            self.servers,
            self.users,
            self.data,
            self.ticks,
            self.batch,
            self.cache,
            self.delivery,
            self.shards.unwrap_or(1),
            self.workers,
            self.chaos_spec("SEED").unwrap_or_else(|| "off".into()),
        )
    }
}

/// Seed of episode `index` of a run seeded `seed`: the run's own seed first,
/// then SplitMix64 steps, so a run's episodes draw distinct streams.
pub fn episode_seed(seed: u64, index: usize) -> u64 {
    if index == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
