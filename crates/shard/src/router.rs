//! The shard router: deterministic event routing and the two-phase tick.
//!
//! Every tick runs in two phases:
//!
//! * **Phase A (interior)** — the tick's events are split into per-shard
//!   batches in global `(tick, seq)` order and every shard applies its
//!   batch independently ([`idde_par::par_for_each_mut`]). A user event is
//!   interior when replaying its tick's move chain from the owner's
//!   authoritative position never comes within one interference range of a
//!   foreign tile and never changes owner. A network event is a barrier:
//!   the batches routed before it are applied first.
//! * **Phase B (boundary)** — the halo state is exchanged (every shard's
//!   live boundary decisions are mirrored into its neighbours' engines as
//!   frozen overlay entries, see [`idde_engine::Engine::set_overlay`]; a
//!   refresh re-synchronises coverage and gains only for the mirrors whose
//!   position moved, which is exact because both are pure functions of the
//!   position, the server enable flags and the gain law),
//!   then the deferred boundary events replay *globally* in `(tick, seq)`
//!   order against the overlaid engines. A move that crosses a cut becomes
//!   a deterministic handoff: depart from the old owner, position sync in
//!   both engines, arrive in the new owner, and every other shard drops
//!   its stale mirror of the user immediately.
//!
//! The tick closes with a final halo refresh and a per-shard
//! [`idde_engine::Engine::end_tick`], so rate samples and drift
//! checkpoints see the freshest cross-shard interference.
//!
//! ## Routing rules
//!
//! * User events go to the user's **home** shard — the shard whose tile
//!   holds the user's position. Homes change only through handoffs; an
//!   inactive user never moves, so its home stays valid across re-arrivals.
//! * `Jam`/`Unjam` go to the jammed server's owner only.
//! * Link and server faults and restorations change the one network all
//!   shards share. The router owns the fault overlay and is the only
//!   writer of the shared topology: it updates both once, in place. Then
//!   the owner of the server (of a link's first named endpoint) applies
//!   the event, counting it, and every other engine follows it
//!   ([`idde_engine::Engine::follow_network`]).
//!
//! ## What `K = 1` degenerates to
//!
//! One batch holding every event in `(tick, seq)` order (split at network
//! events, which flush the monolithic engine too), no deferral (no foreign
//! tile exists), no overlays, no handoffs — exactly the monolithic
//! [`idde_engine::Engine::run_sources`] loop. The `--shards 1` serve CSV is
//! byte-identical to the unsharded engine's; `tests/sharding.rs` pins it.
//!
//! ## Accounting at `K > 1`
//!
//! A handoff is applied as a `Depart`/`Arrive` pair in place of the
//! crossing `Move`; [`ShardRouter::metrics`] takes it back off the event
//! rows. A network event is counted by its owner alone. So `ticks` through
//! `requests` and the fault rows equal the monolithic run's at every `K`.
//! Two rows are deliberate per-shard sums:
//! `checkpoints` (each shard checkpoints its own drift) and
//! `unreachable_item_ticks` (each shard counts the items its own placement
//! leaves edgeless). `avg_rate_mbps` is the unweighted mean of the
//! per-shard mean rates.
//!
//! Cross-shard audit counters live on the router, never inside
//! [`ServeMetrics`], so the CSV schema is identical in every mode.

use std::sync::Arc;

use idde_audit::{AuditReport, Auditor};
use idde_core::Problem;
use idde_engine::{EngineConfig, Event, EventQueue, EventSource, ScheduledEvent, ServeMetrics};
use idde_model::{Allocation, ChannelIndex, Point, ServerId, UserId};
use idde_net::{EdgeGraph, NetworkFaults, Topology};

use crate::engine::ShardEngine;
use crate::plan::{ShardError, ShardPlan};

/// Where one user's move chain of the current tick stands, per
/// [`ShardRouter::boundary_chains`].
#[derive(Clone, Copy, Debug, PartialEq)]
enum Chain {
    /// The user has no event this tick.
    Idle,
    /// Every step so far stays interior; the chain's current position.
    Interior(Point),
    /// The chain came near a foreign tile or changed owner: the user's
    /// whole bundle is deferred to Phase B.
    Boundary,
}

/// Routes a deterministic event stream across `K` shard engines.
#[derive(Clone, Debug)]
pub struct ShardRouter {
    plan: ShardPlan,
    engines: Vec<ShardEngine>,
    /// Global activity mirror (union of the shards' local flags).
    active: Vec<bool>,
    /// Home shard of every user slot; changes only on handoff.
    home: Vec<usize>,
    /// Per-slot move-chain state of the current tick, reused across ticks:
    /// `Idle` except for the slots in `chain_touched`.
    chains: Vec<Chain>,
    /// The slots `chains` holds a non-`Idle` state for.
    chain_touched: Vec<UserId>,
    handoffs: u64,
    /// The one fault overlay (the engines' overlays mirror it) and the
    /// surviving topology all engines share.
    faults: NetworkFaults,
    topology: Arc<Topology>,
    audit_every: u64,
    cross_audits: u64,
    cross_checks: u64,
    cross_violations: u64,
}

impl ShardRouter {
    /// Builds the plan, the `K` shard engines (each over a clone of
    /// `problem`, all sharing its topology) and the initial halo state.
    pub fn new(
        mut problem: Problem,
        config: EngineConfig,
        num_shards: usize,
        initial_active: Vec<bool>,
    ) -> Result<Self, ShardError> {
        assert_eq!(
            initial_active.len(),
            problem.scenario.num_users(),
            "initial_active must cover every user slot"
        );
        let plan = ShardPlan::build(&problem.scenario, num_shards)?;
        // The router must be able to hold the only handle: a caller's copy.
        Arc::make_mut(&mut problem.topology);
        let home: Vec<usize> =
            problem.scenario.users.iter().map(|u| plan.owner_of_position(u.position)).collect();
        let engines: Vec<ShardEngine> = (0..num_shards)
            .map(|k| ShardEngine::new(k, &plan, &problem, config, &initial_active))
            .collect();
        let faults = engines[0].engine().faults().clone();
        let mut router = Self {
            plan,
            engines,
            chains: vec![Chain::Idle; initial_active.len()],
            chain_touched: Vec::new(),
            active: initial_active,
            home,
            handoffs: 0,
            faults,
            topology: problem.topology,
            audit_every: config.audit_every,
            cross_audits: 0,
            cross_checks: 0,
            cross_violations: 0,
        };
        if router.plan.num_shards() > 1 {
            router.refresh_overlays();
        }
        Ok(router)
    }

    /// The tiling.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The shard engines, by shard index.
    pub fn engines(&self) -> &[ShardEngine] {
        &self.engines
    }

    /// Global per-slot activity flags.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// The home shard currently owning `user`.
    pub fn home_of(&self, user: UserId) -> usize {
        self.home[user.index()]
    }

    /// Users handed off across a cut so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Cross-shard audit tallies accumulated by the serve loop:
    /// `(audits, checks, violations)`. Kept outside [`ServeMetrics`] so the
    /// CSV schema never depends on the shard count.
    pub fn cross_audit_stats(&self) -> (u64, u64, u64) {
        (self.cross_audits, self.cross_checks, self.cross_violations)
    }

    /// The merged serve metrics: the shards' metrics folded by
    /// [`ServeMetrics::merge`], with each handoff counted as the move it
    /// replaces (see the module docs). At `K = 1` this is exactly the
    /// single engine's metrics.
    pub fn metrics(&self) -> ServeMetrics {
        let mut merged = ServeMetrics::default();
        for e in &self.engines {
            merged.merge(e.engine().metrics());
        }
        merged.events -= self.handoffs;
        merged.arrivals -= self.handoffs;
        merged.departures -= self.handoffs;
        merged.moves += self.handoffs;
        merged
    }

    /// Runs `ticks` ticks of one event source through the router.
    pub fn run<S: EventSource>(&mut self, source: &mut S, ticks: u64) {
        let mut sources: [&mut dyn EventSource; 1] = [source];
        self.run_sources(&mut sources, ticks);
    }

    /// Runs several event sources interleaved, mirroring
    /// [`idde_engine::Engine::run_sources`]: every tick, each source is polled in slice
    /// order against the *global* activity mirror, the queue drains, and
    /// the two-phase tick applies the events.
    pub fn run_sources(&mut self, sources: &mut [&mut dyn EventSource], ticks: u64) {
        let mut queue = EventQueue::new();
        for tick in 0..ticks {
            for source in sources.iter_mut() {
                source.push_tick(tick, &self.active, &mut queue);
            }
            let mut events = Vec::with_capacity(queue.len());
            while let Some(scheduled) = queue.pop() {
                events.push(scheduled);
            }
            self.tick(tick, &events);
        }
    }

    /// Applies one tick's events (already in `(tick, seq)` order) through
    /// the two-phase protocol and closes the tick on every engine.
    pub fn tick(&mut self, tick: u64, events: &[ScheduledEvent]) {
        let k = self.plan.num_shards();
        let deferred = self.route_phase_a(events);
        if !deferred.is_empty() {
            // Boundary work sees the post-interior halo state.
            self.refresh_overlays();
            for event in &deferred {
                self.apply_boundary_event(event);
            }
        }
        if k > 1 {
            self.refresh_overlays();
        }
        idde_par::par_for_each_mut(&mut self.engines, |_, e| e.engine_mut().end_tick(tick));
        // Cross-shard consistency is certified once per tick on audited
        // multi-shard runs (the per-event audits inside each engine already
        // cover the intra-shard invariants).
        if self.audit_every > 0 && k > 1 {
            let report = self.cross_audit();
            self.cross_audits += 1;
            self.cross_checks += report.checks;
            self.cross_violations += report.violations.len() as u64;
        }
    }

    /// Splits the tick into per-shard interior batches, applies them in
    /// parallel, and returns the deferred boundary events in global order.
    fn route_phase_a(&mut self, events: &[ScheduledEvent]) -> Vec<Event> {
        let k = self.plan.num_shards();
        if k > 1 {
            self.boundary_chains(events);
        }
        let mut batches: Vec<Vec<Event>> = vec![Vec::new(); k];
        let mut deferred: Vec<Event> = Vec::new();
        for scheduled in events {
            let event = scheduled.event;
            if let Some(user) = event.user() {
                if self.chains[user.index()] == Chain::Boundary {
                    deferred.push(event);
                } else {
                    self.mirror_activity(&event);
                    batches[self.home[user.index()]].push(event);
                }
            } else if let Event::Jam { server, .. } | Event::Unjam { server } = event {
                batches[self.plan.owner_of_server(server)].push(event);
            } else {
                self.apply_batches(&mut batches);
                self.apply_network_event(&event);
            }
        }
        self.apply_batches(&mut batches);
        deferred
    }

    /// Each shard drains its interior batch through the engine's ingestion
    /// layer: at `batch == 1` every churn event is repaired on its own; at
    /// larger sizes same-shard churn group-commits. The slice-end flush
    /// guarantees a network barrier and Phase B read fully committed state,
    /// and Phase B's `Engine::apply` calls are one-event slices.
    fn apply_batches(&mut self, batches: &mut [Vec<Event>]) {
        let routed = &*batches;
        idde_par::par_for_each_mut(&mut self.engines, |i, e| {
            e.engine_mut().apply_batch(&routed[i]);
        });
        batches.iter_mut().for_each(Vec::clear);
    }

    /// Updates the fault overlay once and, when it changed, refills the
    /// shared topology once: every engine's handle is parked on an empty
    /// topology meanwhile, so the router's is the only one and the refill
    /// writes in place. A clone of the router still shares its prototype's
    /// topology, so its first refill copies it once. Then the owner applies
    /// the event, the rest follow.
    fn apply_network_event(&mut self, event: &Event) {
        // Every engine holds the same healthy graph.
        let base = self.engines[0].engine().base_graph();
        if event.apply_to(&mut self.faults, base) {
            let surviving = self.faults.effective_graph(base);
            let parked = Topology::new(EdgeGraph::disconnected(0), self.topology.cloud_speed());
            let parked = Arc::new(parked);
            for e in &mut self.engines {
                e.engine_mut().set_topology(Arc::clone(&parked));
            }
            Arc::make_mut(&mut self.topology).set_graph(surviving);
            for e in &mut self.engines {
                e.engine_mut().set_topology(Arc::clone(&self.topology));
            }
        }
        let owner = self.plan.owner_of_server(match *event {
            Event::ServerDown { server } | Event::ServerRestore { server } => server,
            Event::LinkDown { a, .. } | Event::LinkRestore { a, .. } => a,
            Event::LinkDegrade { a, .. } => a,
            _ => unreachable!("{event:?} is not a network event"),
        });
        idde_par::par_for_each_mut(&mut self.engines, |i, e| {
            if i == owner {
                e.engine_mut().apply(event);
            } else {
                e.engine_mut().follow_network(event);
            }
        });
    }

    /// Replays every user's move chain of the tick in one pass into
    /// `chains`, from the owner engine's tick-start position (with the
    /// engine's own clamp). A user's chain becomes [`Chain::Boundary`] —
    /// its whole bundle is boundary-affected — once it comes within one
    /// interference range of a foreign tile or changes owner. Conservative:
    /// a deferred no-op is still a no-op in Phase B. The previous tick's
    /// states are reset through `chain_touched` first, so the pass costs
    /// the tick's events, not the user count.
    fn boundary_chains(&mut self, events: &[ScheduledEvent]) {
        let Self { plan, engines, home: homes, chains, chain_touched, .. } = self;
        for user in chain_touched.drain(..) {
            chains[user.index()] = Chain::Idle;
        }
        for scheduled in events {
            let Some(user) = scheduled.event.user() else { continue };
            let home = homes[user.index()];
            let scenario = &engines[home].engine().problem().scenario;
            let chain = &mut chains[user.index()];
            if *chain == Chain::Idle {
                chain_touched.push(user);
                let start = scenario.users[user.index()].position;
                *chain = if plan.near_foreign_boundary(start, home) {
                    Chain::Boundary
                } else {
                    Chain::Interior(start)
                };
            }
            if let (Chain::Interior(position), Event::Move { dx, dy, .. }) =
                (*chain, scheduled.event)
            {
                let next = scenario.area.clamp(Point::new(position.x + dx, position.y + dy));
                *chain = if plan.near_foreign_boundary(next, home)
                    || plan.owner_of_position(next) != home
                {
                    Chain::Boundary
                } else {
                    Chain::Interior(next)
                };
            }
        }
    }

    /// Keeps the router's global activity mirror in lockstep with the
    /// engines' stale-event semantics (`Arrive` on an active slot and
    /// `Depart` on an inactive one are ignored, so idempotent flag writes
    /// reproduce the outcome exactly).
    fn mirror_activity(&mut self, event: &Event) {
        match *event {
            Event::Arrive { user } => self.active[user.index()] = true,
            Event::Depart { user } => self.active[user.index()] = false,
            _ => {}
        }
    }

    /// Applies one deferred boundary event, handing the user off when a
    /// move crosses a cut.
    fn apply_boundary_event(&mut self, event: &Event) {
        let user = event.user().expect("only user events are deferred");
        let home = self.home[user.index()];
        if let Event::Move { dx, dy, .. } = *event {
            if self.active[user.index()] {
                let (area, old) = {
                    let scenario = &self.engines[home].engine().problem().scenario;
                    (scenario.area, scenario.users[user.index()].position)
                };
                let target = area.clamp(Point::new(old.x + dx, old.y + dy));
                let new_home = self.plan.owner_of_position(target);
                if new_home != home {
                    self.handoff(user, home, new_home, target);
                    return;
                }
            }
        }
        self.mirror_activity(event);
        self.engines[home].engine_mut().apply(event);
    }

    /// The deterministic ownership handoff for a move crossing a cut:
    /// every shard drops its stale mirror of the user, the old owner
    /// departs it (releasing its channel at the old position), both
    /// engines sync to the new position, and the new owner arrives it —
    /// allocating it for real on its own side of the cut.
    fn handoff(&mut self, user: UserId, from: usize, to: usize, position: Point) {
        for e in &mut self.engines {
            e.engine_mut().strip_overlay_user(user);
        }
        self.engines[from].engine_mut().apply(&Event::Depart { user });
        self.engines[from].engine_mut().set_position(user, position);
        self.engines[to].engine_mut().set_position(user, position);
        self.engines[to].engine_mut().apply(&Event::Arrive { user });
        self.home[user.index()] = to;
        self.handoffs += 1;
    }

    /// Exchanges the halo state: for every shard, the live decisions other
    /// shards hold on servers in its halo are installed as frozen overlay
    /// mirrors (positions taken from the owning engine's scenario, shards
    /// then users ascending, so the exchange is deterministic).
    pub fn refresh_overlays(&mut self) {
        let k = self.plan.num_shards();
        let mut entries: Vec<Vec<(UserId, Point, ServerId, ChannelIndex)>> = vec![Vec::new(); k];
        for (target, slot) in entries.iter_mut().enumerate() {
            let halo = self.plan.halo(target);
            if halo.is_empty() {
                continue;
            }
            for source in self.engines.iter() {
                if source.shard() == target {
                    continue;
                }
                let engine = source.engine();
                let scenario = &engine.problem().scenario;
                for (user, decision) in engine.allocation().iter() {
                    if !engine.active()[user.index()] {
                        continue; // skips both idle slots and mirrors
                    }
                    let Some((server, channel)) = decision else { continue };
                    if halo.binary_search(&server).is_ok() {
                        slot.push((user, scenario.users[user.index()].position, server, channel));
                    }
                }
            }
        }
        for (target, slot) in entries.into_iter().enumerate() {
            self.engines[target].engine_mut().set_overlay(&slot);
        }
    }

    /// Runs the cross-shard consistency audit over the live shard states:
    /// the union of the shards' active decisions must rebuild one coherent
    /// global field that agrees with every shard's local view on the
    /// servers it owns (occupants exactly, power within `1e-12` relative),
    /// and every shard must read the router's network (its fault overlay,
    /// and the shared topology allocation itself).
    pub fn cross_audit(&self) -> AuditReport {
        let shards: Vec<(&Allocation, &[bool])> =
            self.engines.iter().map(|e| (e.engine().allocation(), e.engine().active())).collect();
        let problem = self.engines[0].engine().problem();
        let mut report = Auditor.audit_cross_shard(problem, self.plan.owner(), &shards);
        let networks: Vec<(&NetworkFaults, &Topology)> = self
            .engines
            .iter()
            .map(|e| (e.engine().faults(), &*e.engine().problem().topology))
            .collect();
        report.merge(Auditor.audit_network_agreement(&self.faults, &self.topology, &networks));
        report
    }

    /// Runs every shard's full intra-shard audit plus the cross-shard
    /// audit, merged — the sharded counterpart of [`idde_engine::Engine::run_audit`].
    pub fn run_audit(&mut self) -> AuditReport {
        let mut report = AuditReport::new();
        for e in &mut self.engines {
            report.merge(e.engine_mut().run_audit());
        }
        if self.plan.num_shards() > 1 {
            let cross = self.cross_audit();
            self.cross_audits += 1;
            self.cross_checks += cross.checks;
            self.cross_violations += cross.violations.len() as u64;
            report.merge(cross);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_engine::{Engine, WorkloadConfig, WorkloadGenerator};
    use idde_eua::{SampleConfig, SyntheticEua};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem(seed: u64, servers: usize, users: usize) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let population = SyntheticEua::default().generate(&mut rng);
        let scenario = SampleConfig::paper(servers, users, 4).sample(&population, &mut rng);
        Problem::standard(scenario, &mut rng)
    }

    fn serve(problem: &Problem, shards: usize, seed: u64, ticks: u64) -> (ShardRouter, String) {
        let mut workload = WorkloadGenerator::new(WorkloadConfig::default(), 4, seed);
        let initial = workload.initial_active(problem.scenario.num_users());
        let config = EngineConfig { audit_every: 25, ..Default::default() };
        let mut router = ShardRouter::new(problem.clone(), config, shards, initial).unwrap();
        router.run(&mut workload, ticks);
        let csv = router.metrics().to_csv();
        (router, csv)
    }

    #[test]
    fn one_shard_reproduces_the_monolithic_serve_csv() {
        let p = problem(3, 12, 40);
        let mut workload = WorkloadGenerator::new(WorkloadConfig::default(), 4, 7);
        let initial = workload.initial_active(p.scenario.num_users());
        let config = EngineConfig { audit_every: 25, ..Default::default() };
        let mut mono = Engine::new(p.clone(), config, initial.clone());
        mono.run(&mut workload, 60);

        let mut workload = WorkloadGenerator::new(WorkloadConfig::default(), 4, 7);
        let initial2 = workload.initial_active(p.scenario.num_users());
        assert_eq!(initial, initial2);
        let mut router = ShardRouter::new(p, config, 1, initial2).unwrap();
        router.run(&mut workload, 60);

        assert_eq!(router.metrics().to_csv(), mono.metrics().to_csv());
        assert_eq!(router.handoffs(), 0);
        assert_eq!(router.cross_audit_stats(), (0, 0, 0));
    }

    #[test]
    fn multi_shard_serve_stays_consistent_and_audits_clean() {
        let p = problem(11, 16, 60);
        let (mut router, _) = serve(&p, 3, 21, 80);
        // Per-shard audits found nothing all run long.
        assert_eq!(router.metrics().audit_violations, 0);
        // The per-tick cross-shard audit ran and stayed clean.
        let (audits, checks, violations) = router.cross_audit_stats();
        assert_eq!(audits, 80);
        assert!(checks > 0);
        assert_eq!(violations, 0, "cross-shard state diverged");
        // A final full audit (intra + cross) is clean too.
        let report = router.run_audit();
        assert!(report.is_clean(), "{report}");
        // Activity mirror matches the union of the shards' local flags, and
        // every active user is active precisely in its home shard.
        for j in 0..p.scenario.num_users() {
            let user = UserId(j as u32);
            let locally: Vec<usize> = router
                .engines()
                .iter()
                .filter(|e| e.engine().active()[j])
                .map(|e| e.shard())
                .collect();
            if router.active()[j] {
                assert_eq!(locally, vec![router.home_of(user)], "user {j}");
            } else {
                assert!(locally.is_empty(), "inactive user {j} active in {locally:?}");
            }
        }
    }

    #[test]
    fn sharded_serving_is_deterministic() {
        let p = problem(17, 14, 50);
        let (ra, a) = serve(&p, 4, 5, 50);
        let (rb, b) = serve(&p, 4, 5, 50);
        assert_eq!(a, b, "same seed, same shard count, different CSV");
        assert_eq!(ra.handoffs(), rb.handoffs());
        // Thread-count independence: the same serve under 1 worker.
        idde_par::set_threads(1);
        let (rc, c) = serve(&p, 4, 5, 50);
        idde_par::set_threads(0);
        assert_eq!(a, c, "worker count changed the sharded serve");
        assert_eq!(ra.handoffs(), rc.handoffs());
    }

    /// The cached sharded serve: K = 3 with an on-path cache and a
    /// drifting workload. Admission stays owner-restricted and the run is
    /// deterministic.
    #[test]
    fn cached_sharded_serve_is_owner_restricted_and_deterministic() {
        use idde_cache::{CacheConfig, PolicyKind};
        use idde_engine::DriftProfile;
        let p = problem(31, 16, 60);
        let serve_cached = |threads: usize| {
            idde_par::set_threads(threads);
            let cfg = WorkloadConfig { drift: DriftProfile::drifting(), ..Default::default() };
            let mut workload = WorkloadGenerator::new(cfg, 4, 9);
            let initial = workload.initial_active(p.scenario.num_users());
            let config = EngineConfig {
                audit_every: 25,
                cache: CacheConfig { policy: PolicyKind::Lce, ..CacheConfig::default() },
                ..Default::default()
            };
            let mut router = ShardRouter::new(p.clone(), config, 3, initial).unwrap();
            router.run(&mut workload, 80);
            idde_par::set_threads(0);
            let csv = router.metrics().to_csv();
            (router, csv)
        };
        let (router, csv) = serve_cached(0);
        // Every cached replica sits on a server its shard owns.
        let mut insertions = 0;
        for e in router.engines() {
            let cache = e.engine().cache().expect("cache enabled");
            for server in p.scenario.server_ids() {
                if cache.store().data_on(server).next().is_some() {
                    assert!(
                        e.owned().contains(&server),
                        "shard {} cached onto foreign {server}",
                        e.shard()
                    );
                }
            }
            insertions += cache.counters().insertions;
        }
        assert!(insertions > 0, "the drift workload must drive admissions");
        // Audits (per-shard storage budgets incl. cache, plus cross-shard)
        // stayed clean all run long.
        assert_eq!(router.metrics().audit_violations, 0);
        let (_, checks, violations) = router.cross_audit_stats();
        assert!(checks > 0);
        assert_eq!(violations, 0);
        // Deterministic, including under a different worker count.
        let (_, csv2) = serve_cached(0);
        assert_eq!(csv, csv2, "same seed, different cached sharded CSV");
        let (_, csv1w) = serve_cached(1);
        assert_eq!(csv, csv1w, "worker count changed the cached sharded serve");
    }

    /// `--shards 1 --cache lce` degenerates to the monolithic cached
    /// engine byte for byte.
    #[test]
    fn one_shard_cached_reproduces_the_monolithic_cached_csv() {
        use idde_cache::{CacheConfig, PolicyKind};
        use idde_engine::DriftProfile;
        let p = problem(37, 12, 40);
        let cfg = WorkloadConfig { drift: DriftProfile::drifting(), ..Default::default() };
        let config = EngineConfig {
            audit_every: 25,
            cache: CacheConfig { policy: PolicyKind::ProbCache, ..CacheConfig::default() },
            ..Default::default()
        };
        let mut workload = WorkloadGenerator::new(cfg, 4, 7);
        let initial = workload.initial_active(p.scenario.num_users());
        let mut mono = Engine::new(p.clone(), config, initial.clone());
        mono.run(&mut workload, 60);

        let mut workload = WorkloadGenerator::new(cfg, 4, 7);
        let initial2 = workload.initial_active(p.scenario.num_users());
        assert_eq!(initial, initial2);
        let mut router = ShardRouter::new(p, config, 1, initial2).unwrap();
        router.run(&mut workload, 60);

        assert_eq!(router.metrics().to_csv(), mono.metrics().to_csv());
        assert!(mono.metrics().cache.expect("cache on").insertions > 0);
    }

    /// The network-agreement check fires for an engine reading a private
    /// topology copy, and for one that took a fault around the router.
    #[test]
    fn a_diverged_shard_network_is_a_violation() {
        use idde_audit::Violation;
        let p = problem(3, 12, 40);
        let (mut router, _) = serve(&p, 2, 7, 10);
        assert!(router.cross_audit().is_clean());
        let private = Arc::new(Topology::clone(&router.topology));
        router.engines[1].engine_mut().set_topology(private);
        let diverged = vec![Violation::NetworkDisagreement { shard: 1 }];
        assert_eq!(router.cross_audit().violations, diverged);

        let (mut router, _) = serve(&p, 2, 7, 10);
        let link = router.engines[0].engine().base_graph().links()[0];
        router.engines[0].engine_mut().apply(&Event::LinkDown { a: link.a, b: link.b });
        let diverged = vec![Violation::NetworkDisagreement { shard: 0 }];
        assert_eq!(router.cross_audit().violations, diverged);
    }

    #[test]
    fn handoffs_move_users_across_the_cut() {
        let p = problem(29, 12, 40);
        // A violent mobility model forces cut crossings quickly.
        let cfg = WorkloadConfig { move_probability: 0.9, max_step_m: 700.0, ..Default::default() };
        let mut workload = WorkloadGenerator::new(cfg, 4, 3);
        let initial = workload.initial_active(p.scenario.num_users());
        let mut router =
            ShardRouter::new(p, EngineConfig { audit_every: 10, ..Default::default() }, 2, initial)
                .unwrap();
        router.run(&mut workload, 60);
        assert!(router.handoffs() > 0, "700 m steps must cross a cut in 60 ticks");
        let (_, checks, violations) = router.cross_audit_stats();
        assert!(checks > 0);
        assert_eq!(violations, 0, "handoffs corrupted the cross-shard state");
        let report = router.run_audit();
        assert!(report.is_clean(), "{report}");
    }

    /// Carried quiet records at K = 2. Every shard engine is `paranoid`, so
    /// each repair is also run on the same field with fresh records (the
    /// engine with its records cleared before every repair) and must reach
    /// the same profile and power sums in no more scans. Halo refreshes,
    /// mirror strips and handoffs stamp or clear the records in between;
    /// an outage and its restoration ride along.
    #[test]
    fn two_shard_serve_keeps_carried_quiet_records_exact() {
        let p = problem(29, 12, 40);
        let cfg = WorkloadConfig { move_probability: 0.9, max_step_m: 300.0, ..Default::default() };
        let mut workload = WorkloadGenerator::new(cfg, 4, 5);
        let initial = workload.initial_active(p.scenario.num_users());
        let config = EngineConfig { paranoid: true, audit_every: 10, ..Default::default() };
        let mut router = ShardRouter::new(p, config, 2, initial).unwrap();
        let (mut queue, mut mirrored) = (EventQueue::new(), 0);
        for tick in 0..60 {
            match tick {
                20 => queue.push(tick, Event::ServerDown { server: ServerId(3) }),
                35 => queue.push(tick, Event::ServerRestore { server: ServerId(3) }),
                _ => {}
            }
            workload.push_tick(tick, router.active(), &mut queue);
            let events: Vec<ScheduledEvent> = std::iter::from_fn(|| queue.pop()).collect();
            router.tick(tick, &events);
            mirrored += router.engines().iter().map(|e| e.engine().overlay().len()).sum::<usize>();
        }
        assert!(router.handoffs() > 0 && mirrored > 0, "{} handoffs", router.handoffs());
        let metrics = router.metrics();
        assert!(metrics.repair_scans > 0 && metrics.server_outages == 1);
        assert_eq!(metrics.audit_violations + metrics.certificate_violations, 0);
        assert!(router.run_audit().is_clean());
    }
}
