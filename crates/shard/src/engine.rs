//! One shard's serving engine: a full [`Engine`] over a clone of the
//! *global* problem with the foreign-ownership mask applied.
//!
//! Sharding by slicing the scenario into per-shard sub-scenarios would
//! force an id remapping at every boundary and lose the interference that
//! leaks across a cut. Instead each shard keeps the complete global
//! scenario — every server site, every user slot, the identical
//! rng-derived radio — and reads the one topology all shards share (the
//! clone shares the problem's `Arc`; the router refills it on every fault).
//! The partition is expressed through two masks:
//!
//! * [`CoverageMap::set_foreign`](idde_model::CoverageMap::set_foreign) marks every server another shard owns:
//!   it stays in the coverage relation (it covers users, carries halo
//!   mirrors, exerts interference) but the optimisers never *propose*
//!   decisions on it;
//! * the engine's **active** flags restrict the live population to the
//!   users whose position falls inside this shard's tile — everyone else
//!   is an inactive slot, exactly like a user who has not arrived yet.
//!
//! With `K = 1` neither mask does anything, and the shard engine *is* the
//! monolithic engine byte for byte — the migration-safety contract the
//! `--shards 1` CSV identity tests pin.

use idde_core::Problem;
use idde_engine::{Engine, EngineConfig};
use idde_model::ServerId;

use crate::plan::ShardPlan;

/// A per-shard serving engine owning one tile of the plan.
#[derive(Clone, Debug)]
pub struct ShardEngine {
    shard: usize,
    owned: Vec<ServerId>,
    engine: Engine,
}

impl ShardEngine {
    /// Builds shard `shard`'s engine from a clone of the global `problem`.
    ///
    /// The clone must be of the *built* global problem — never a re-derived
    /// one — so the rng-derived radio environment is identical across
    /// shards and to the monolithic engine; the clone shares the problem's
    /// topology allocation rather than copying it. Of the global
    /// `initial_active` flags, only the users inside this shard's tile stay
    /// active locally.
    pub fn new(
        shard: usize,
        plan: &ShardPlan,
        problem: &Problem,
        config: EngineConfig,
        initial_active: &[bool],
    ) -> Self {
        assert_eq!(
            initial_active.len(),
            problem.scenario.num_users(),
            "initial_active must cover every user slot"
        );
        let mut problem = problem.clone();
        let mut owned = Vec::new();
        for (i, &o) in plan.owner().iter().enumerate() {
            let id = ServerId(i as u32);
            if o == shard {
                owned.push(id);
            } else {
                problem.scenario.coverage.set_foreign(id, true);
            }
        }
        let local_active: Vec<bool> = initial_active
            .iter()
            .enumerate()
            .map(|(j, &a)| a && plan.owner_of_position(problem.scenario.users[j].position) == shard)
            .collect();
        let mut engine = Engine::new(problem, config, local_active);
        // In cached mode each shard's layer admits replicas only onto the
        // servers it owns — foreign servers carry halo mirrors, never
        // locally cached bytes. At `K = 1` every server is owned and the
        // restriction is the identity.
        if let Some(cache) = engine.cache_mut() {
            cache.restrict_admission(&owned);
        }
        Self { shard, owned, engine }
    }

    /// This shard's index in the plan.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The servers this shard owns, ascending by id.
    pub fn owned(&self) -> &[ServerId] {
        &self.owned
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The wrapped engine, mutably.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_eua::{SampleConfig, SyntheticEua};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem(seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let population = SyntheticEua::default().generate(&mut rng);
        let scenario = SampleConfig::paper(12, 40, 4).sample(&population, &mut rng);
        Problem::standard(scenario, &mut rng)
    }

    #[test]
    fn shard_engines_partition_the_active_population() {
        let p = problem(5);
        let plan = ShardPlan::build(&p.scenario, 2).unwrap();
        let active = vec![true; p.scenario.num_users()];
        let shards: Vec<ShardEngine> = (0..2)
            .map(|k| ShardEngine::new(k, &plan, &p, EngineConfig::default(), &active))
            .collect();
        // Ownership of servers and users is an exact partition.
        let total_owned: usize = shards.iter().map(|s| s.owned().len()).sum();
        assert_eq!(total_owned, p.scenario.num_servers());
        for j in 0..p.scenario.num_users() {
            let locally_active = shards.iter().filter(|s| s.engine().active()[j]).count();
            assert_eq!(locally_active, 1, "user {j} must be active in exactly one shard");
        }
        // Decisions never land on foreign servers.
        for s in &shards {
            for (_, decision) in s.engine().allocation().iter() {
                if let Some((server, _)) = decision {
                    assert_eq!(plan.owner_of_server(server), s.shard());
                }
            }
            // The foreign mask matches the plan.
            let coverage = &s.engine().problem().scenario.coverage;
            for i in 0..p.scenario.num_servers() {
                let id = ServerId(i as u32);
                assert_eq!(coverage.is_foreign(id), plan.owner_of_server(id) != s.shard());
            }
        }
    }

    #[test]
    fn a_single_shard_is_the_monolithic_engine() {
        let p = problem(6);
        let plan = ShardPlan::build(&p.scenario, 1).unwrap();
        let active: Vec<bool> = (0..p.scenario.num_users()).map(|j| j % 3 != 0).collect();
        let sharded = ShardEngine::new(0, &plan, &p, EngineConfig::default(), &active);
        let monolithic = Engine::new(p.clone(), EngineConfig::default(), active);
        assert_eq!(sharded.engine().active(), monolithic.active());
        assert!(sharded.engine().problem().scenario.coverage.is_wholly_owned());
        for u in p.scenario.user_ids() {
            assert_eq!(
                sharded.engine().allocation().decision(u),
                monolithic.allocation().decision(u)
            );
        }
    }
}
