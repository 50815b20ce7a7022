//! The serving engine: event application, incremental equilibrium repair and
//! incremental placement repair.
//!
//! The engine owns a [`Problem`] plus a persistent strategy (allocation +
//! placement) over a **fixed user-slot population**: arrivals activate a
//! slot, departures deactivate it and release its channel. Inactive slots
//! stay unallocated, so they neither interfere (Eq. 2's indicator) nor pin
//! replicas (the greedy treats them as cloud-served), and the offline
//! formulation needs no structural changes to serve an online stream.
//!
//! Churn events are ingested and group-committed by one flush (see
//! [`EngineConfig::batch`]; at the default batch of 1 every churn event is
//! flushed on its own). A flush computes a **dirty set** — the arrivals and
//! movers plus every allocated user within cross-interference range of the
//! affected neighbourhood — and runs best-response passes restricted to that set
//! ([`IddeUGame::run_restricted_with`], against quiet-player records the
//! engine carries across repairs); frozen users keep their decisions but
//! still exert interference, so the repair converges to a *restricted* Nash
//! equilibrium. Residual staleness (users outside the dirty set whose best
//! response changed transitively) is bounded by periodic **checkpoints**: a
//! from-scratch re-solve measures the relative average-rate drift, and when
//! it exceeds [`EngineConfig::drift_threshold`] the full solution is adopted
//! (the fallback of the incremental scheme).

use std::sync::Arc;
use std::time::Instant;

use idde_audit::{AuditReport, Auditor};
use idde_cache::{audit_cache, CacheConfig, CacheLayer, Observation};
use idde_core::{
    evict_useless_replicas, DeliveryConfig, GameConfig, GreedyDelivery, IddeUGame, Problem,
    QuietPlayers, Strategy,
};
use idde_dist::{DistConfig, DistCounters, InstallDemand};
use idde_model::units::Milliseconds;
use idde_model::{Allocation, ChannelIndex, DataId, Placement, Point, ServerId, UserId};
use idde_net::{DeliverySource, EdgeGraph, NetworkFaults, Topology};
use idde_radio::InterferenceField;

use crate::events::{Event, EventQueue};
use crate::metrics::ServeMetrics;
use crate::workload::WorkloadGenerator;

/// A deterministic producer of scheduled events: the workload generator, a
/// chaos fault plan, or any external feed. Sources are polled once per tick
/// in caller order and must push the same events for the same
/// `(tick, active)` inputs — the whole serve-loop determinism contract
/// reduces to this.
pub trait EventSource {
    /// Pushes this source's events for `tick` onto `queue`.
    fn push_tick(&mut self, tick: u64, active: &[bool], queue: &mut EventQueue);
}

impl EventSource for WorkloadGenerator {
    fn push_tick(&mut self, tick: u64, active: &[bool], queue: &mut EventQueue) {
        WorkloadGenerator::push_tick(self, tick, active, queue);
    }
}

/// Engine tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Phase #1 (allocation game) configuration, shared by the initial
    /// solve, repairs and checkpoint re-solves. The default is
    /// [`GameConfig::default`], the game IDDE-G runs offline, so a serve
    /// whose users are all active starts from IDDE-G's own strategy.
    pub game: GameConfig,
    /// Phase #2 (greedy delivery) configuration.
    pub delivery: DeliveryConfig,
    /// Relative average-rate drift (versus a from-scratch re-solve) above
    /// which a checkpoint adopts the full solution.
    pub drift_threshold: f64,
    /// Ticks between drift checkpoints; `0` disables checkpointing.
    pub checkpoint_interval: u64,
    /// After every repair, run `InterferenceField::consistency_check` and
    /// re-run the repair's game with fresh quiet records, asserting the
    /// same profile, power sums and counters, and no fewer scans than the
    /// carried records took (expensive; meant for tests).
    pub paranoid: bool,
    /// Run a full invariant audit ([`Engine::run_audit`]) every N events;
    /// `0` disables auditing. When enabled, every converged restricted
    /// repair is additionally Nash-certified over its dirty set.
    pub audit_every: u64,
    /// Group-commit size of the ingestion layer behind [`Engine::apply`]
    /// and [`Engine::apply_batch`]: churn events (arrivals, departures,
    /// moves) are *ingested* — state-exact activity flips, per-step clamped
    /// positions, released channels — while their coverage/gain refresh and
    /// dirty-set repair are deferred and coalesced into **one**
    /// group-committed repair per `batch` ingested events. At `1` (the
    /// default) every churn event is flushed as soon as it is ingested, so
    /// each gets its own repair. Requests, fault events, audit points and
    /// slice ends are flush barriers, so no event is ever served or
    /// audited against deferred state.
    pub batch: u64,
    /// On-path caching layer configuration. The default policy is
    /// [`idde_cache::PolicyKind::Off`], under which the engine constructs
    /// no [`CacheLayer`] at all and every serve-path branch is bitwise the
    /// pre-cache code: the uncached serve CSV is byte-identical to builds
    /// that predate the caching layer. With a policy on, cached replicas
    /// join the Eq. 8 minimum on the request-serving path, occupy only
    /// the residual Eq. 6 budget, and never perturb the solver's game.
    pub cache: CacheConfig,
    /// Bulk-distribution configuration. With [`DistConfig::record`] off
    /// (the default) the engine plans nothing and carries no distribution
    /// counters, so the serve CSV is byte-identical to builds that predate
    /// the distribution layer. With recording on, every bulk-install round
    /// — the initial placement install and each placement repair's newly
    /// installed replicas (post-outage re-replication and rebalancing
    /// handoffs both flow through the repair) — is planned by the
    /// configured [`idde_dist::DistributionStrategy`] over the effective
    /// fault-masked topology, and (when [`EngineConfig::audit_every`] is
    /// nonzero) re-derived by [`idde_audit::Auditor::audit_distribution`].
    pub dist: DistConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            game: GameConfig::default(),
            delivery: DeliveryConfig::default(),
            drift_threshold: 0.05,
            checkpoint_interval: 50,
            paranoid: false,
            audit_every: 0,
            batch: 1,
            cache: CacheConfig::default(),
            dist: DistConfig::default(),
        }
    }
}

/// Deferred work accumulated by the ingestion layer between two flushes
/// (see [`EngineConfig::batch`]). Ingested events have already made their
/// *state-exact* effects — activity flips, per-step clamped positions,
/// released channels, event counters — so the pending record only carries
/// what the group commit still owes: which users need their coverage/gain
/// columns refreshed, and which users/servers seed the union dirty set.
/// Fault repairs borrow the same seed lists (see [`Engine::dirty_union`]).
#[derive(Clone, Debug, Default)]
struct PendingBatch {
    /// Movers whose coverage/gain refresh is deferred to the flush, paired
    /// with the serving server they had when their chain started (so the
    /// flush can tell whether the demand geometry moved and a placement
    /// repair is owed). Positions are already final — every step of the
    /// chain was clamped at ingest, so the net relocation is bitwise equal
    /// to a flush after every step.
    moved: Vec<(UserId, Option<ServerId>)>,
    /// Users seeding the union dirty set (arrivals and movers); their
    /// *fresh* post-flush coverage neighbourhood joins the union.
    dirty_users: Vec<UserId>,
    /// Servers seeding the union dirty set: vacated decisions and the
    /// pre-batch coverage of departed/moved users.
    dirty_servers: Vec<ServerId>,
    /// Whether an ingested arrival/departure already owes a placement
    /// repair regardless of where the movers ended up.
    placement_dirty: bool,
    /// Ingested-but-unflushed event count.
    len: u64,
}

/// Which active users outside the seeds a dirty set admits (see
/// [`Engine::dirty_union`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Admit {
    /// Churn flushes: only users allocated on, or covered by, a `near`
    /// server. Unallocated bystanders stay frozen; the drift checkpoints
    /// bound what they miss.
    Allocated,
    /// Fault repairs (outage, jam, unjam): also unallocated users covered
    /// by a `near` server, since the fault changed what their coverage
    /// offers.
    Unallocated,
}

/// The online event-driven serving engine.
#[derive(Clone, Debug)]
pub struct Engine {
    problem: Problem,
    config: EngineConfig,
    active: Vec<bool>,
    allocation: Allocation,
    placement: Placement,
    metrics: ServeMetrics,
    /// The healthy baseline link graph; `problem.topology` is always the
    /// surviving topology derived from it through `faults`.
    base_graph: EdgeGraph,
    /// Current link/server fault overlay; under a shard router, a mirror
    /// of the router's.
    faults: NetworkFaults,
    /// The on-path caching layer; `None` when [`CacheConfig::policy`] is
    /// `Off`, in which case the serve path is bitwise the pre-cache code.
    cache: Option<CacheLayer>,
    /// Halo mirrors installed by [`Engine::set_overlay`]: allocation entries
    /// that replicate decisions *another* shard made for its own users on
    /// servers foreign to this engine. They live directly inside
    /// `allocation`, so every field rebuilt via
    /// [`InterferenceField::from_allocation`] — repairs, rate sampling,
    /// audits — sees their interference for free. The mirrored users are
    /// inactive locally, which keeps them out of every dirty set, rate
    /// average and player list.
    overlay: Vec<(UserId, ServerId, ChannelIndex)>,
    /// Deferred-ingest state of the batching layer; empty outside
    /// [`Engine::apply_batch`] (every slice ends with a flush).
    pending: PendingBatch,
    /// Reusable dirty-set output: [`Engine::dirty_union`] fills this in
    /// place instead of allocating, sorting and deduping a fresh
    /// `Vec<UserId>` on every repair.
    dirty_scratch: Vec<UserId>,
    /// Server-neighbourhood scratch backing [`Engine::dirty_union`] and a
    /// flushed mover's pre-flush coverage.
    near_scratch: Vec<ServerId>,
    /// Gain-refresh candidate scratch threaded through every mobility
    /// event's restricted column refresh.
    gain_scratch: Vec<ServerId>,
    /// Interference-field occupancy arena recycled across repairs, so each
    /// `from_allocation` rebuild reuses the previous field's flat CSR
    /// buffers instead of reallocating them.
    field_buffers: idde_radio::FieldBuffers,
    /// Quiet-player records carried across every repair of the engine's
    /// life: each change a scan could read stamps or clears them as the
    /// table in `idde_core::game` (§ Quiet-player skipping) lays out.
    quiet: QuietPlayers,
}

impl Engine {
    /// Builds the engine over `problem` with the given initially active
    /// slots and solves the initial strategy (restricted to the active
    /// users) from scratch.
    pub fn new(problem: Problem, config: EngineConfig, initial_active: Vec<bool>) -> Self {
        assert_eq!(
            initial_active.len(),
            problem.scenario.num_users(),
            "initial_active must cover every user slot"
        );
        let active_ids: Vec<UserId> = initial_active
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(j, _)| UserId(j as u32))
            .collect();
        let mut quiet = QuietPlayers::new(&problem.scenario);
        let outcome = IddeUGame::new(config.game).run_restricted_with(
            problem.field(),
            &active_ids,
            &mut quiet,
        );
        let allocation = outcome.field.into_allocation();
        let delivery = GreedyDelivery::new(config.delivery).run_from(&problem, &allocation, None);
        let base_graph = problem.topology.graph().clone();
        let faults = NetworkFaults::healthy(problem.scenario.num_servers(), base_graph.num_links());
        let cache = CacheLayer::new(
            config.cache,
            problem.scenario.num_servers(),
            problem.scenario.num_data(),
        );
        let mut metrics = ServeMetrics::default();
        // Cached runs carry the cache counter block from tick 0, so the CSV
        // schema is decided by configuration, not by whether traffic hit.
        metrics.cache = cache.as_ref().map(|c| *c.counters());
        // Same contract for the distribution block: present from tick 0 iff
        // recording is configured, never appearing mid-run.
        metrics.dist = config.dist.record.then(DistCounters::default);
        let mut engine = Self {
            problem,
            config,
            active: initial_active,
            allocation,
            placement: delivery.placement,
            metrics,
            base_graph,
            faults,
            cache,
            overlay: Vec::new(),
            pending: PendingBatch::default(),
            dirty_scratch: Vec::new(),
            near_scratch: Vec::new(),
            gain_scratch: Vec::new(),
            field_buffers: idde_radio::FieldBuffers::default(),
            quiet,
        };
        // The initial placement install is the first bulk round: nothing
        // holds anything yet, so every demand seeds from the cloud.
        if engine.config.dist.record {
            let demands: Vec<InstallDemand> = (0..engine.problem.scenario.num_data())
                .map(DataId::from_index)
                .filter_map(|data| {
                    let destinations: Vec<ServerId> = engine.placement.servers_with(data).collect();
                    (!destinations.is_empty()).then(|| InstallDemand {
                        data,
                        size: engine.problem.scenario.data[data.index()].size,
                        sources: Vec::new(),
                        destinations,
                    })
                })
                .collect();
            engine.record_bulk_install(demands);
        }
        engine
    }

    /// The problem being served.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Per-slot activity flags.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// IDs of the currently active users, ascending.
    pub fn active_users(&self) -> Vec<UserId> {
        self.active.iter().enumerate().filter(|(_, &a)| a).map(|(j, _)| UserId(j as u32)).collect()
    }

    /// The current allocation profile.
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The current delivery profile.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The current strategy (cloned).
    pub fn strategy(&self) -> Strategy {
        Strategy::new(self.allocation.clone(), self.placement.clone())
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The on-path caching layer, when one is configured.
    pub fn cache(&self) -> Option<&CacheLayer> {
        self.cache.as_ref()
    }

    /// Mutable caching layer (the shard router installs halo summaries and
    /// restricts admission through this).
    pub fn cache_mut(&mut self) -> Option<&mut CacheLayer> {
        self.cache.as_mut()
    }

    /// Reconfigures the group-commit size consumed by
    /// [`Engine::apply_batch`] (clamped to at least 1). The pending set is
    /// empty whenever control is outside `apply_batch`, so retuning between
    /// slices can never strand deferred work.
    pub fn set_batch(&mut self, batch: u64) {
        debug_assert_eq!(self.pending.len, 0, "set_batch with deferred work pending");
        self.config.batch = batch.max(1);
    }

    /// Average data rate over the *active* users under the current
    /// allocation, MB/s (zero when nobody is active).
    pub fn average_active_rate(&self) -> f64 {
        let field = InterferenceField::from_allocation(
            &self.problem.radio,
            &self.problem.scenario,
            &self.allocation,
        );
        Self::active_rate_of(&field, &self.active)
    }

    fn active_rate_of(field: &InterferenceField<'_>, active: &[bool]) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for (j, &a) in active.iter().enumerate() {
            if a {
                sum += field.rate(UserId(j as u32)).value();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// Runs `ticks` ticks of one event source through the engine: each
    /// tick's events are enqueued, applied in order, the per-tick rate
    /// sample is taken, and checkpoints fire every
    /// [`EngineConfig::checkpoint_interval`] ticks.
    pub fn run<S: EventSource>(&mut self, source: &mut S, ticks: u64) {
        let mut sources: [&mut dyn EventSource; 1] = [source];
        self.run_sources(&mut sources, ticks);
    }

    /// Runs several event sources interleaved: every tick, each source is
    /// polled in slice order before the queue drains, so a fault plan passed
    /// *before* the workload injects its faults ahead of that tick's churn.
    /// Any fixed order is deterministic (the queue's `seq` is assigned at
    /// push time).
    pub fn run_sources(&mut self, sources: &mut [&mut dyn EventSource], ticks: u64) {
        let mut queue = EventQueue::new();
        let mut slice: Vec<Event> = Vec::new();
        for tick in 0..ticks {
            for source in sources.iter_mut() {
                source.push_tick(tick, &self.active, &mut queue);
            }
            // Drain the tick's events in (tick, seq) order into one slice
            // and route it through the batching layer.
            slice.clear();
            while let Some(scheduled) = queue.pop() {
                slice.push(scheduled.event);
            }
            self.apply_batch(&slice);
            self.end_tick(tick);
        }
    }

    /// Closes tick `tick` after its events were applied: bumps the tick
    /// counter, takes the per-tick rate and edgeless-item samples, and fires
    /// a drift checkpoint on the configured cadence. [`Engine::run_sources`]
    /// calls this once per tick; external drivers that apply events
    /// themselves (the shard router) must call it with the same tick numbers
    /// to keep the metrics and checkpoint schedule identical to a monolithic
    /// run.
    pub fn end_tick(&mut self, tick: u64) {
        self.metrics.ticks += 1;
        self.metrics.unreachable_item_ticks += self.count_edgeless_items();
        self.metrics.sample_rate(self.average_active_rate());
        let interval = self.config.checkpoint_interval;
        // `% interval` rather than `u64::is_multiple_of` — MSRV 1.85.
        #[allow(clippy::manual_is_multiple_of)]
        if interval > 0 && (tick + 1) % interval == 0 {
            self.checkpoint();
        }
    }

    /// Number of data items with no replica on any live edge server — such
    /// items are cloud-only until a placement repair re-replicates them.
    /// An opportunistic cached replica keeps an item edge-served too.
    fn count_edgeless_items(&self) -> u64 {
        let cached = self.cache.as_ref().map(|c| c.store());
        self.problem
            .scenario
            .data_ids()
            .filter(|&data| {
                self.placement.servers_with(data).next().is_none()
                    && cached.is_none_or(|store| store.servers_with(data).next().is_none())
            })
            .count() as u64
    }

    /// Applies one event: the batch-of-one case of [`Engine::apply_batch`],
    /// so the event's repair is committed before this returns. Events that
    /// no longer make sense (arrival of an active slot,
    /// departure/move/request of an inactive one) are counted but otherwise
    /// ignored, so external producers need not be perfectly synchronised
    /// with the engine state.
    pub fn apply(&mut self, event: &Event) {
        self.apply_batch(std::slice::from_ref(event));
    }

    /// Applies a slice of events through the ingestion layer.
    ///
    /// Churn events are *ingested*: their state-exact effects (activity
    /// flips, per-step clamped positions, released channels, counters) land
    /// immediately, while the coverage/gain refresh, the dirty-set repair
    /// and the placement repair are deferred and **group-committed** once
    /// per [`EngineConfig::batch`] ingested events — same-user move chains
    /// coalesce into one net relocation, the per-event dirty sets union
    /// into a single restricted repair. Requests, fault events and audit
    /// points are flush barriers (they observe fully committed state), and
    /// the slice always ends flushed, so callers never see deferred state.
    ///
    /// Determinism contract: a fixed `(seed, batch)` replay is bitwise
    /// reproducible, and across batch sizes the positions, activity flags,
    /// coverage relation and ingest counters are identical; the repaired
    /// *equilibrium* may differ (a union repair is one restricted game, not
    /// N sequential ones), which is why equilibrium-derived gauges in the
    /// CSV are only comparable between runs at the same batch size.
    pub fn apply_batch(&mut self, events: &[Event]) {
        for event in events {
            self.metrics.events += 1;
            // Serving and fault handling always observe committed state.
            if !matches!(event, Event::Arrive { .. } | Event::Depart { .. } | Event::Move { .. }) {
                self.flush_pending();
            }
            match *event {
                Event::Arrive { user } => self.ingest_arrive(user),
                Event::Depart { user } => self.ingest_depart(user),
                Event::Move { user, dx, dy } => self.ingest_move(user, dx, dy),
                Event::Request { user, data } => self.apply_request(user, data),
                Event::LinkDown { .. }
                | Event::LinkRestore { .. }
                | Event::LinkDegrade { .. }
                | Event::ServerDown { .. }
                | Event::ServerRestore { .. } => {
                    if event.apply_to(&mut self.faults, &self.base_graph) {
                        let surviving = self.faults.effective_graph(&self.base_graph);
                        // A shard router has refilled the shared matrix
                        // already; serving alone, the engine refills its
                        // own in place (a copy only if a caller kept one).
                        if surviving.links() != self.problem.topology.graph().links() {
                            Arc::make_mut(&mut self.problem.topology).set_graph(surviving);
                        }
                        self.fault_consequences(event, true);
                    }
                }
                Event::Jam { server, floor_w } => self.apply_jam(server, floor_w),
                Event::Unjam { server } => self.apply_unjam(server),
            }
            if self.pending.len >= self.config.batch {
                self.flush_pending();
            }
            let every = self.config.audit_every;
            // `events % every` rather than `u64::is_multiple_of` — the latter
            // needs Rust 1.87, above the workspace MSRV. The audit is a flush
            // barrier so it never inspects deferred state.
            #[allow(clippy::manual_is_multiple_of)]
            if every > 0 && self.metrics.events % every == 0 {
                self.flush_pending();
                self.run_audit();
            }
        }
        self.flush_pending();
    }

    /// Follows a network event that a shard router has applied to the
    /// network all shards share and that another shard owns (the owner
    /// [`Engine::apply`]s it): mirrors the fault overlay and runs this
    /// engine's share of the consequences, counting nothing.
    pub fn follow_network(&mut self, event: &Event) {
        if event.apply_to(&mut self.faults, &self.base_graph) {
            self.fault_consequences(event, false);
        }
    }

    /// Points the engine at `topology`, dropping its old handle.
    pub fn set_topology(&mut self, topology: Arc<Topology>) {
        self.problem.topology = topology;
    }

    /// Batched arrival ingest: the activity flip happens now; the
    /// newcomer's allocation is owed by the flush's union repair (its fresh
    /// coverage neighbourhood joins the union via `dirty_users`).
    fn ingest_arrive(&mut self, user: UserId) {
        if self.active[user.index()] {
            return;
        }
        self.active[user.index()] = true;
        self.quiet.forget(user);
        self.metrics.arrivals += 1;
        self.pending.dirty_users.push(user);
        self.pending.placement_dirty = true;
        self.pending.len += 1;
    }

    /// Batched departure ingest: the channel is released and the slot
    /// deactivated now (so no later ingest sees a ghost), while the vacated
    /// neighbourhood seeds the flush's union repair.
    fn ingest_depart(&mut self, user: UserId) {
        if !self.active[user.index()] {
            return;
        }
        let old = self.allocation.set(user, None);
        self.active[user.index()] = false;
        self.metrics.departures += 1;
        let covering = self.problem.scenario.coverage.servers_of(user);
        self.pending.dirty_servers.extend_from_slice(covering);
        if let Some((server, _)) = old {
            self.pending.dirty_servers.push(server);
            // It leaves its row and the guard of every server covering it.
            self.quiet.stamp_rows([server]);
            self.quiet.stamp_listeners(covering.iter().copied());
        }
        self.quiet.forget(user);
        self.pending.placement_dirty = true;
        self.pending.len += 1;
    }

    /// Batched move ingest: every step of a same-user chain updates the
    /// position through the same per-step clamp (so the net position is
    /// bitwise equal at every batch size), but coverage/gain refresh and
    /// repair are deferred — the chain coalesces into one net relocation at
    /// flush. The first step snapshots the
    /// vacated neighbourhood and the serving server.
    fn ingest_move(&mut self, user: UserId, dx: f64, dy: f64) {
        if !self.active[user.index()] {
            return;
        }
        self.metrics.moves += 1;
        if !self.pending.moved.iter().any(|&(u, _)| u == user) {
            let old = self.allocation.server_of(user);
            self.pending.moved.push((user, old));
            self.pending
                .dirty_servers
                .extend_from_slice(self.problem.scenario.coverage.servers_of(user));
            if let Some(server) = old {
                self.pending.dirty_servers.push(server);
            }
            self.pending.dirty_users.push(user);
        }
        let scenario = &mut self.problem.scenario;
        let p = scenario.users[user.index()].position;
        scenario.users[user.index()].position = scenario.area.clamp(Point::new(p.x + dx, p.y + dy));
        self.pending.len += 1;
    }

    /// Group commit of everything ingested since the last flush: one
    /// coverage + restricted gain refresh per net-moved user at its final
    /// position, constraint-(1) release of decisions the refreshed coverage
    /// no longer supports, one union dirty-set repair, and at most one
    /// placement repair (owed by churn, or by a mover whose serving server
    /// changed). No-op when nothing is pending.
    fn flush_pending(&mut self) {
        if self.pending.len == 0 {
            return;
        }
        let moved = std::mem::take(&mut self.pending.moved);
        for &(user, _) in &moved {
            let j = user.index();
            let old_cover = &mut self.near_scratch;
            old_cover.clear();
            old_cover.extend_from_slice(self.problem.scenario.coverage.servers_of(user));
            {
                let scenario = &mut self.problem.scenario;
                scenario.coverage.update_user(&scenario.servers, &scenario.users[j]);
            }
            let here = self.problem.scenario.users[j].position;
            debug_assert!(self.problem.scenario.area.contains(here));
            self.refresh_gains(user, here);
            self.quiet.forget(user);
            let Some((server, _)) = self.allocation.decision(user) else { continue };
            let (old_cover, new_cover) =
                (&self.near_scratch, self.problem.scenario.coverage.servers_of(user));
            if self.problem.scenario.coverage.covers(server, user) {
                // Kept: the new gain column feeds the cross term of every
                // user its server covers; the coverage change edits the
                // listener sets of `V_old Δ V_new`.
                let left = old_cover.iter().filter(|s| new_cover.binary_search(s).is_err());
                let entered = new_cover.iter().filter(|s| old_cover.binary_search(s).is_err());
                self.quiet.stamp_rows([server]);
                self.quiet.stamp_listeners(left.chain(entered).copied());
            } else {
                // Constraint (1): a decision whose server no longer covers
                // the user is infeasible and must be released before the
                // flush rebuilds the field. It leaves its row and the guards
                // that read it, those of its pre-flush covering servers.
                self.quiet.stamp_rows([server]);
                self.quiet.stamp_listeners(old_cover.iter().copied());
                self.allocation.set(user, None);
            }
        }
        self.repair_dirty(Admit::Allocated);
        let placement_dirty = self.pending.placement_dirty
            || moved.iter().any(|&(user, old)| self.allocation.server_of(user) != old);
        if placement_dirty {
            self.repair_placement();
        }
        self.pending.moved = moved;
        self.pending.moved.clear();
        self.pending.placement_dirty = false;
        self.pending.len = 0;
    }

    /// Runs one full invariant audit over the current strategy: the
    /// interference-field cross-check (Eqs. 2–4 versus a from-scratch
    /// rebuild) plus the placement audit (storage budget and Eq. 8 latency
    /// re-derivation). When servers are down, the liveness audit also
    /// certifies that degradation displaced their users and stripped their
    /// replicas. Counted in the metrics; returns the report so callers can
    /// fail hard on violations.
    pub fn run_audit(&mut self) -> AuditReport {
        let started = Instant::now();
        let mut report = Auditor.audit_strategy(&self.problem, &self.allocation, &self.placement);
        let down: Vec<ServerId> = self.faults.down_servers().collect();
        if !down.is_empty() {
            report.merge(Auditor.audit_liveness(
                &self.problem.scenario,
                &self.allocation,
                &self.placement,
                &down,
            ));
        }
        // Cache invariants: combined Eq. 6 budget, store/placement
        // disjointness, no stale replicas on downed servers.
        if let Some(cache) = &self.cache {
            report.merge(audit_cache(&self.problem.scenario, &self.placement, cache, &down));
        }
        self.metrics.record_audit(report.checks, report.violations.len() as u64);
        self.metrics.timings.audit += started.elapsed();
        report
    }

    /// The current link/server fault overlay.
    pub fn faults(&self) -> &NetworkFaults {
        &self.faults
    }

    /// The healthy baseline link graph faults are applied against.
    pub fn base_graph(&self) -> &EdgeGraph {
        &self.base_graph
    }

    fn apply_request(&mut self, user: UserId, data: DataId) {
        if !self.active[user.index()] {
            return;
        }
        let size = self.problem.scenario.data[data.index()].size;
        let (latency, from_edge) = match self.allocation.server_of(user) {
            Some(target) => {
                let (mut latency, source) =
                    self.problem.topology.delivery_latency(&self.placement, data, size, target);
                let mut from_edge = matches!(source, DeliverySource::Edge(_));
                let mut origin = match source {
                    DeliverySource::Edge(server) => Some(server),
                    DeliverySource::Cloud => None,
                };
                // Cached replicas join the Eq. 8 minimum. Strict `<`: the
                // solver placement wins ties, and with the cache off this
                // whole block vanishes (bitwise pre-cache serve path).
                let mut served_from_cache = false;
                if let Some(cache) = &self.cache {
                    if let Some((cached_ms, cached_origin)) =
                        cache.serve_candidate(&self.problem.topology, data, size, target)
                    {
                        if cached_ms < latency.value() {
                            latency = Milliseconds(cached_ms);
                            from_edge = true;
                            origin = Some(cached_origin);
                            served_from_cache = true;
                        }
                    }
                }
                // Eq. 7 fallback *forced* by unreachability (no live replica
                // the target can reach — solver or cached) — as opposed to
                // the cloud simply winning the Eq. 8 min on latency.
                if !from_edge {
                    let solver_reachable = self
                        .placement
                        .servers_with(data)
                        .any(|o| self.problem.topology.is_reachable(o, target));
                    let cache_reachable = self.cache.as_ref().is_some_and(|cache| {
                        cache
                            .store()
                            .servers_with(data)
                            .any(|o| self.problem.topology.is_reachable(o, target))
                    });
                    if !solver_reachable && !cache_reachable {
                        self.metrics.cloud_fallback_requests += 1;
                    }
                }
                // Eq. 7/8 re-derivation on cache hits: under an audited run,
                // every hit's latency is re-derived from first principles
                // (min over solver ∪ cache replicas and the cloud) — a
                // cached path that no longer exists, or a stale latency,
                // surfaces as an audit violation rather than silent skew.
                if served_from_cache && self.config.audit_every > 0 {
                    let mut reference = self.problem.topology.cloud_latency(size).value();
                    let solver_origins = self.placement.servers_with(data);
                    let cache_origins = self
                        .cache
                        .as_ref()
                        .expect("served_from_cache implies a layer")
                        .store()
                        .servers_with(data);
                    for o in solver_origins.chain(cache_origins) {
                        if let Some(l) = self.problem.topology.try_edge_latency(size, o, target) {
                            reference = reference.min(l.value());
                        }
                    }
                    let tol = idde_audit::auditor::REL_TOL * reference.max(1.0);
                    if (latency.value() - reference).abs() > tol {
                        self.metrics.audit_violations += 1;
                    }
                    if let Some(cache) = self.cache.as_mut() {
                        cache.counters_mut().hit_checks += 1;
                    }
                }
                // Feed the served request through the admission policy.
                if let Some(cache) = self.cache.as_mut() {
                    let obs = Observation { data, target, source: origin, served_from_cache };
                    cache.observe(
                        &self.problem.scenario,
                        &self.problem.topology,
                        &self.placement,
                        &obs,
                    );
                    self.metrics.cache = Some(*cache.counters());
                }
                (latency, from_edge)
            }
            None => (self.problem.topology.cloud_latency(size), false),
        };
        self.metrics.record_request(latency.value(), from_edge);
    }

    /// A placement repair triggered by a fault: same machinery as churn
    /// repair, but the greedy's insertions are additionally accounted as
    /// re-replications (they re-create what the fault destroyed or
    /// disconnected).
    fn refresh_placement_after_fault(&mut self) {
        let before = self.metrics.new_replicas;
        self.repair_placement();
        self.metrics.re_replications += self.metrics.new_replicas - before;
    }

    /// The local consequences of a network event that changed the fault
    /// overlay and the topology; an engine serving alone owns every event.
    fn fault_consequences(&mut self, event: &Event, owner: bool) {
        let counted = u64::from(owner);
        match *event {
            Event::LinkDown { .. } | Event::LinkDegrade { .. } => {
                self.metrics.link_faults += counted;
                self.refresh_placement_after_fault();
            }
            // Paths are back; the next placement repair or checkpoint
            // reclaims the capacity — restoration itself must not thrash
            // the strategy.
            Event::LinkRestore { .. } => self.metrics.restorations += counted,
            Event::ServerDown { server } => self.server_down(server, owner),
            Event::ServerRestore { server } => {
                self.metrics.restorations += counted;
                self.quiet.clear();
                let scenario = &mut self.problem.scenario;
                scenario.coverage.enable_server(&scenario.servers[server.index()], &scenario.users);
                // The server returns empty-handed; subsequent repairs and
                // checkpoints re-populate its channels and storage.
            }
            _ => unreachable!("{event:?} is not a network event"),
        }
    }

    fn server_down(&mut self, server: ServerId, owner: bool) {
        self.quiet.clear();
        // Halo mirrors on the server go with it. Only a non-owner holds
        // any: a shard's halo never contains its own servers.
        let mirrored: Vec<UserId> =
            self.overlay.iter().filter(|m| m.1 == server).map(|m| m.0).collect();
        for user in mirrored {
            self.strip_overlay_user(user);
        }
        if owner {
            self.metrics.server_outages += 1;
            // Users whose interference/coverage environment the outage
            // touches seed the repair — gathered before the coverage
            // relation forgets the server.
            let seeds = self.problem.scenario.coverage.users_of(server);
            self.pending.dirty_users.extend_from_slice(seeds);

            // Displace the channel occupants through the field, so the
            // vacated power sums follow the same resnap discipline as any
            // departure.
            let displaced: Vec<UserId> = self
                .allocation
                .iter()
                .filter(|(_, d)| d.map(|(s, _)| s) == Some(server))
                .map(|(u, _)| u)
                .collect();
            if !displaced.is_empty() {
                let mut field = InterferenceField::from_allocation(
                    &self.problem.radio,
                    &self.problem.scenario,
                    &self.allocation,
                );
                for &user in &displaced {
                    field.deallocate(user);
                }
                self.allocation = field.into_allocation();
                self.metrics.displaced_users += displaced.len() as u64;
            }

            // Replicas on the dead server are lost (Eq. 6 capacity is gone).
            let lost: Vec<DataId> = self.placement.data_on(server).collect();
            for &data in &lost {
                let size = self.problem.scenario.data[data.index()].size;
                self.placement.remove(server, data, size);
            }
            self.metrics.lost_replicas += lost.len() as u64;

            // Cached replicas die with the server too — evict-on-outage, so
            // no later request routes a hit over a path that no longer
            // exists.
            if let Some(cache) = self.cache.as_mut() {
                cache.purge_server(&self.problem.scenario, server);
                self.metrics.cache = Some(*cache.counters());
            }
        }
        // Coverage forgets the server until restoration.
        self.problem.scenario.coverage.disable_server(server);
        // Equilibrium repair over the displaced users and the surviving
        // neighbourhood, then re-replication of what was lost.
        if owner {
            self.repair_dirty(Admit::Unallocated);
        }
        self.refresh_placement_after_fault();
    }

    fn apply_jam(&mut self, server: ServerId, floor_w: f64) {
        if !(floor_w.is_finite() && floor_w > 0.0)
            || self.problem.radio.jamming_floor(server) == floor_w
        {
            return;
        }
        self.problem.radio.set_jamming(server, floor_w);
        self.quiet.stamp_rows([server]);
        self.metrics.jam_events += 1;
        // Everyone the jammed server covers sees a different Eq. 2/Eq. 12
        // trade-off now; let them re-evaluate.
        self.repair_covered_by(server);
    }

    fn apply_unjam(&mut self, server: ServerId) {
        if self.problem.radio.jamming_floor(server) == 0.0 {
            return;
        }
        self.problem.radio.set_jamming(server, 0.0);
        self.quiet.stamp_rows([server]);
        self.metrics.restorations += 1;
        self.repair_covered_by(server);
    }

    /// Restricted repair of a jamming change at `server`, seeded by every
    /// user the server covers.
    fn repair_covered_by(&mut self, server: ServerId) {
        self.pending.dirty_users.extend_from_slice(self.problem.scenario.coverage.users_of(server));
        self.repair_dirty(Admit::Unallocated);
    }

    /// The one dirty-set builder, filled into [`Engine::dirty_scratch`]
    /// (sorted ascending, deduped) and consuming the seeds in
    /// [`PendingBatch::dirty_users`] and [`PendingBatch::dirty_servers`].
    /// The `near` neighbourhood is the seed servers plus the *current*
    /// covering servers of every seed user; the set is the active seed
    /// users plus every active user within cross-interference range of
    /// `near` — allocated on, or covered by, a `near` server — as `admit`
    /// allows. Co-channel sharers of a vacated slot need no rule of their
    /// own: the vacated server is a seed, so they are allocated on, or
    /// covered by, a `near` server.
    ///
    /// The set is gathered from `users_of(s)` for `s ∈ near`, not from a
    /// walk over all M users. That finds every user allocated on a `near`
    /// server, because an allocated user is covered by its server
    /// (constraint (1)): flushes and [`Engine::set_position`] release
    /// uncovered decisions, outages release the downed server's users, and
    /// halo mirrors are inactive.
    fn dirty_union(&mut self, admit: Admit) {
        let coverage = &self.problem.scenario.coverage;
        let near = &mut self.near_scratch;
        near.clear();
        near.append(&mut self.pending.dirty_servers);
        for &user in &self.pending.dirty_users {
            near.extend_from_slice(coverage.servers_of(user));
        }
        near.sort_unstable();
        near.dedup();

        let dirty = &mut self.dirty_scratch;
        dirty.clear();
        dirty.extend(self.pending.dirty_users.drain(..).filter(|u| self.active[u.index()]));
        dirty.extend(near.iter().flat_map(|&s| coverage.users_of(s)).copied().filter(|&u| {
            self.active[u.index()]
                && (admit == Admit::Unallocated || self.allocation.decision(u).is_some())
        }));
        dirty.sort_unstable();
        dirty.dedup();
    }

    /// [`Engine::dirty_union`] by a walk over all M users, kept as its
    /// oracle.
    #[cfg(test)]
    fn dirty_union_reference(&mut self, admit: Admit) {
        let coverage = &self.problem.scenario.coverage;
        let near = &mut self.near_scratch;
        near.clear();
        near.append(&mut self.pending.dirty_servers);
        for &user in &self.pending.dirty_users {
            near.extend_from_slice(coverage.servers_of(user));
        }
        near.sort_unstable();
        near.dedup();

        let dirty = &mut self.dirty_scratch;
        dirty.clear();
        dirty.extend(self.pending.dirty_users.drain(..).filter(|u| self.active[u.index()]));
        for (other, decision) in self.allocation.iter() {
            if !self.active[other.index()] {
                continue;
            }
            let covered_near =
                || coverage.servers_of(other).iter().any(|s| near.binary_search(s).is_ok());
            let in_range = match decision {
                Some((server, _)) => near.binary_search(&server).is_ok() || covered_near(),
                None => admit == Admit::Unallocated && covered_near(),
            };
            if in_range {
                dirty.push(other);
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
    }

    /// Builds the dirty set from the pending seeds ([`Engine::dirty_union`])
    /// and repairs over it, keeping the scratch capacity for the next
    /// repair.
    fn repair_dirty(&mut self, admit: Admit) {
        self.dirty_union(admit);
        let dirty = std::mem::take(&mut self.dirty_scratch);
        self.repair(&dirty);
        self.dirty_scratch = dirty;
    }

    /// Runs restricted best-response passes over `dirty`, adopting the
    /// repaired profile.
    fn repair(&mut self, dirty: &[UserId]) {
        if dirty.is_empty() {
            return;
        }
        let started = Instant::now();
        let field = InterferenceField::from_allocation_in(
            &self.problem.radio,
            &self.problem.scenario,
            &self.allocation,
            std::mem::take(&mut self.field_buffers),
        );
        self.quiet.field_rebuilt();
        let game = IddeUGame::new(self.config.game);
        let reference = self.config.paranoid.then(|| field.clone());
        let outcome = game.run_restricted_with(field, dirty, &mut self.quiet);
        if let Some(reference) = reference {
            assert!(
                outcome.field.consistency_check(),
                "interference field inconsistent after restricted repair"
            );
            // The carried quiet records must not change the repair: the
            // same game with fresh records reaches the same profile, with
            // the same power sums, scanning at least as often.
            let fresh = game.run_restricted(reference, dirty);
            assert_eq!(
                (outcome.passes, outcome.moves, outcome.converged),
                (fresh.passes, fresh.moves, fresh.converged),
                "carried quiet records changed a repair"
            );
            assert_eq!(outcome.field.allocation(), fresh.field.allocation());
            for s in self.problem.scenario.server_ids() {
                for x in self.problem.scenario.servers[s.index()].channels() {
                    let (a, b) = (&outcome.field, &fresh.field);
                    assert_eq!(a.occupants(s, x), b.occupants(s, x), "channel ({s}, {x})");
                    assert_eq!(a.channel_power(s, x).to_bits(), b.channel_power(s, x).to_bits());
                }
            }
            assert!(outcome.scans <= fresh.scans, "{} > {} scans", outcome.scans, fresh.scans);
        }
        self.metrics.repairs += 1;
        self.metrics.repair_moves += outcome.moves as u64;
        self.metrics.repair_scans += outcome.scans as u64;
        self.metrics.timings.equilibrium += started.elapsed();
        // Phase #1 postcondition: a converged restricted repair claims no
        // dirty player holds a committable deviation — certify exactly that.
        // Frozen users are intentionally outside the certificate; their
        // staleness is bounded by the drift checkpoints.
        if self.config.audit_every > 0 && outcome.converged {
            let started = Instant::now();
            let cert = Auditor.certify_equilibrium(&game, &outcome.field, Some(dirty));
            self.metrics.record_certificate(cert.violations.len() as u64);
            self.metrics.timings.audit += started.elapsed();
        }
        let (allocation, buffers) = outcome.field.into_parts();
        self.allocation = allocation;
        self.field_buffers = buffers;
    }

    /// Refreshes `user`'s gain column after a position change. Restricted
    /// refresh: every consumer of the gain table — the game's best-response
    /// scans, the interference field and the audit's reference SINR — only
    /// reads (server, user) pairs within 3× the maximum coverage radius of
    /// the user's current position, so refreshing the spatial index's
    /// candidate superset is bit-identical to the full O(N) column refresh
    /// for every entry ever read. Falls back to the full refresh when the
    /// coverage map carries no index.
    fn refresh_gains(&mut self, user: UserId, moved: Point) {
        let mut near = std::mem::take(&mut self.gain_scratch);
        if self.problem.scenario.coverage.gain_refresh_candidates_into(moved, &mut near) {
            self.problem.radio.update_user_among(&self.problem.scenario, user, &near);
        } else {
            self.problem.radio.update_user(&self.problem.scenario, user);
        }
        self.gain_scratch = near;
    }

    /// Incremental placement repair: evict replicas no request benefits from
    /// any more (Eq. 17 scores them at zero), then let the greedy re-insert
    /// under the freed storage, warm-started from the surviving placement.
    fn repair_placement(&mut self) {
        let started = Instant::now();
        // Snapshot per-item holders before the repair touches anything:
        // replicas a downed server lost are already stripped at this point,
        // so the snapshot holds exactly the *surviving* feeds.
        let before = self.config.dist.record.then(|| self.holders_by_item());
        let evicted = evict_useless_replicas(&self.problem, &self.allocation, &mut self.placement);
        let outcome = GreedyDelivery::new(self.config.delivery).run_from(
            &self.problem,
            &self.allocation,
            Some(&self.placement),
        );
        self.metrics.placement_repairs += 1;
        self.metrics.evicted_replicas += evicted as u64;
        self.metrics.new_replicas += outcome.iterations as u64;
        self.metrics.timings.placement += started.elapsed();
        self.placement = outcome.placement;
        // Diff the repaired placement against the entry snapshot: newly
        // installed replicas are the destinations the bulk round must feed,
        // and surviving holders (present before *and* after, so they hold a
        // live replica for the whole round) are its sources.
        if let Some(before) = before {
            let demands: Vec<InstallDemand> = before
                .iter()
                .enumerate()
                .filter_map(|(k, old)| {
                    let data = DataId::from_index(k);
                    let new: Vec<ServerId> = self.placement.servers_with(data).collect();
                    let destinations: Vec<ServerId> =
                        new.iter().copied().filter(|s| old.binary_search(s).is_err()).collect();
                    (!destinations.is_empty()).then(|| InstallDemand {
                        data,
                        size: self.problem.scenario.data[k].size,
                        sources: old
                            .iter()
                            .copied()
                            .filter(|s| new.binary_search(s).is_ok())
                            .collect(),
                        destinations,
                    })
                })
                .collect();
            self.record_bulk_install(demands);
        }
        // The repair moved the solver placement under the cache: drop
        // duplicates and re-fit the store to the new residual budget.
        if let Some(cache) = self.cache.as_mut() {
            cache.reconcile(&self.problem.scenario, &self.placement);
            self.metrics.cache = Some(*cache.counters());
        }
    }

    /// Per-item holder lists of the current placement, index `k` →
    /// ascending servers holding `DataId(k)`.
    fn holders_by_item(&self) -> Vec<Vec<ServerId>> {
        (0..self.problem.scenario.num_data())
            .map(|k| self.placement.servers_with(DataId::from_index(k)).collect())
            .collect()
    }

    /// Plans one bulk-install round with the configured delivery strategy
    /// over the effective (fault-masked) topology, folds it into the
    /// distribution counters, and — when auditing is enabled — re-derives
    /// the whole plan through [`idde_audit::Auditor::audit_distribution`].
    fn record_bulk_install(&mut self, demands: Vec<InstallDemand>) {
        if !self.config.dist.record || demands.is_empty() {
            return;
        }
        let started = Instant::now();
        let strategy = self.config.dist.strategy.strategy();
        let plan = strategy.plan(&self.problem.topology, &demands, &self.config.dist);
        if plan.plans.is_empty() {
            // Every demand was already covered by its sources.
            self.metrics.timings.placement += started.elapsed();
            return;
        }
        self.metrics.dist.get_or_insert_with(DistCounters::default).record(&plan);
        self.metrics.timings.placement += started.elapsed();
        if self.config.audit_every > 0 {
            let audit_started = Instant::now();
            let report =
                Auditor.audit_distribution(&self.problem.topology, &plan, &self.config.dist);
            self.metrics.record_audit(report.checks, report.violations.len() as u64);
            self.metrics.timings.audit += audit_started.elapsed();
        }
    }

    /// Measures the drift of the repaired equilibrium against a from-scratch
    /// re-solve over the active users, adopting the full solution when it
    /// exceeds the threshold. Returns the measured drift.
    pub fn checkpoint(&mut self) -> f64 {
        let started = Instant::now();
        let active_ids = self.active_users();
        let repaired_rate = self.average_active_rate();
        // The re-solve starts from an overlay-only profile: halo mirrors
        // then exert their cross-shard interference on every best-response
        // scan, and adopting the full solution preserves them (non-players
        // survive `into_allocation` untouched). Without mirrors this is the
        // pristine empty field (zero sums, empty rows).
        let mut base = Allocation::unallocated(self.problem.scenario.num_users());
        for &(user, server, channel) in &self.overlay {
            base.set(user, Some((server, channel)));
        }
        let field =
            InterferenceField::from_allocation(&self.problem.radio, &self.problem.scenario, &base);
        let outcome = IddeUGame::new(self.config.game).run_restricted(field, &active_ids);
        let full_rate = Self::active_rate_of(&outcome.field, &self.active);
        let drift =
            if full_rate > 0.0 { ((full_rate - repaired_rate) / full_rate).max(0.0) } else { 0.0 };
        let fall_back = drift > self.config.drift_threshold;
        self.metrics.record_drift(drift, fall_back);
        // The re-solve is the checkpoint's cost; a fallback's placement
        // repair is accounted under the placement span.
        self.metrics.timings.checkpoint += started.elapsed();
        if fall_back {
            self.allocation = outcome.field.into_allocation();
            self.quiet.clear();
            self.repair_placement();
        }
        drift
    }

    /// Teleports `user` to `position` (clamped to the scenario area) and
    /// re-synchronises every position-derived structure: the coverage
    /// relation, the gain table (restricted refresh when the spatial index
    /// can bound the candidates) and the feasibility of the user's current
    /// decision, which is released — overlay mirror included — when its
    /// server no longer covers the user. Pure state synchronisation: no
    /// repair runs and no metric moves, so the shard router can mirror a
    /// neighbour's mobility without perturbing local accounting.
    ///
    /// A target bitwise equal to the stored position (compared by
    /// `to_bits`, so `-0.0` and `0.0` differ) skips the coverage and gain
    /// refresh. That is exact: both are pure functions of the position,
    /// the server enable flags and the gain law; outages and restorations
    /// keep the coverage rows current and the gain refresh includes
    /// disabled servers, and outside [`Engine::apply_batch`] no deferred
    /// move is pending, so the stored position's derived state is already
    /// synchronised. The feasibility check still runs.
    pub fn set_position(&mut self, user: UserId, position: Point) {
        self.sync_position(user, position);
    }

    /// [`Engine::set_position`], returning whether the stored position
    /// changed. A user that moves is forgotten by the quiet records; a
    /// decision that moves, and with it any it releases, clears them all,
    /// as a halo change does (a release needs a move: the coverage rows are
    /// current).
    fn sync_position(&mut self, user: UserId, position: Point) -> bool {
        let j = user.index();
        let scenario = &mut self.problem.scenario;
        let target = scenario.area.clamp(position);
        let stored = scenario.users[j].position;
        debug_assert_eq!(self.pending.len, 0, "set_position with deferred work pending");
        let moved =
            (target.x.to_bits(), target.y.to_bits()) != (stored.x.to_bits(), stored.y.to_bits());
        if moved {
            scenario.users[j].position = target;
            scenario.coverage.update_user(&scenario.servers, &scenario.users[j]);
            self.refresh_gains(user, target);
            self.quiet.forget(user);
            if self.allocation.decision(user).is_some() {
                self.quiet.clear();
            }
        }
        if let Some((server, _)) = self.allocation.decision(user) {
            if !self.problem.scenario.coverage.covers(server, user) {
                self.allocation.set(user, None);
                self.overlay.retain(|&(u, _, _)| u != user);
            }
        }
        moved
    }

    /// Replaces the halo overlay wholesale with `entries`, each a
    /// `(user, position, server, channel)` mirror of a decision some other
    /// shard owns. Previous mirrors are cleared first, so refreshing the
    /// halo every boundary phase never leaks stale interference. Mirrored
    /// users must be inactive locally; infeasible entries (the mirrored
    /// server no longer covers the user at its mirrored position) are
    /// dropped rather than installed. Each entry goes through
    /// [`Engine::set_position`], so a refresh re-synchronises coverage and
    /// gains only for the mirrors whose position moved; an unmoved mirror
    /// costs its decision write alone. A refresh that installs the same
    /// mirrors at the same positions keeps the quiet records; any other
    /// clears them.
    pub fn set_overlay(&mut self, entries: &[(UserId, Point, ServerId, ChannelIndex)]) {
        let old = std::mem::take(&mut self.overlay);
        for &(user, _, _) in &old {
            self.allocation.set(user, None);
        }
        let mut moved = false;
        for &(user, position, server, channel) in entries {
            debug_assert!(
                !self.active[user.index()],
                "halo mirror for {user} collides with a locally active slot"
            );
            moved |= self.sync_position(user, position);
            if !self.problem.scenario.coverage.covers(server, user) {
                debug_assert!(false, "halo mirror {user}@{server} is out of coverage");
                continue;
            }
            self.allocation.set(user, Some((server, channel)));
            self.overlay.push((user, server, channel));
        }
        if moved || self.overlay != old {
            self.quiet.clear();
        }
    }

    /// Removes `user`'s halo mirror (decision and bookkeeping), returning
    /// whether one existed. Used when a user hands off across a shard cut:
    /// the new owner allocates it for real, so every other shard must drop
    /// its mirror immediately rather than wait for the next halo refresh.
    pub fn strip_overlay_user(&mut self, user: UserId) -> bool {
        let before = self.overlay.len();
        self.overlay.retain(|&(u, _, _)| u != user);
        if self.overlay.len() == before {
            return false;
        }
        self.allocation.set(user, None);
        self.quiet.clear();
        true
    }

    /// The installed halo mirrors, in insertion order.
    pub fn overlay(&self) -> &[(UserId, ServerId, ChannelIndex)] {
        &self.overlay
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_eua::{SampleConfig, SyntheticEua};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_problem(seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let population = SyntheticEua::default().generate(&mut rng);
        let scenario = SampleConfig::paper(15, 60, 4).sample(&population, &mut rng);
        Problem::standard(scenario, &mut rng)
    }

    fn engine(seed: u64) -> Engine {
        let problem = small_problem(seed);
        let m = problem.scenario.num_users();
        let initial: Vec<bool> = (0..m).map(|j| j % 4 != 0).collect();
        Engine::new(problem, EngineConfig { paranoid: true, ..Default::default() }, initial)
    }

    #[test]
    fn initial_solve_only_allocates_active_users() {
        let e = engine(1);
        for (user, decision) in e.allocation().iter() {
            if !e.active()[user.index()] {
                assert_eq!(decision, None, "inactive {user} must stay unallocated");
            }
        }
        assert!(e.allocation().num_allocated() > 0);
        assert!(e.problem().is_feasible(&e.strategy()));
    }

    #[test]
    fn departure_releases_the_channel_and_stays_feasible() {
        let mut e = engine(2);
        let user = e.active_users()[0];
        e.apply(&Event::Depart { user });
        assert!(!e.active()[user.index()]);
        assert_eq!(e.allocation().decision(user), None);
        assert!(e.problem().is_feasible(&e.strategy()));
        assert_eq!(e.metrics().departures, 1);
    }

    #[test]
    fn arrival_allocates_the_newcomer_when_coverable() {
        let mut e = engine(3);
        let idle: Vec<UserId> =
            (0..e.active().len()).filter(|&j| !e.active()[j]).map(|j| UserId(j as u32)).collect();
        let user = *idle
            .iter()
            .find(|&&u| !e.problem().scenario.coverage.servers_of(u).is_empty())
            .expect("an idle covered user exists");
        e.apply(&Event::Arrive { user });
        assert!(e.active()[user.index()]);
        assert!(
            e.allocation().decision(user).is_some(),
            "a covered arrival must be allocated by the repair"
        );
        assert!(e.problem().is_feasible(&e.strategy()));
    }

    #[test]
    fn move_keeps_the_strategy_feasible() {
        let mut e = engine(4);
        // Fling a user far enough to change its coverage set.
        let user = e.active_users()[1];
        e.apply(&Event::Move { user, dx: 400.0, dy: -350.0 });
        assert!(e.problem().is_feasible(&e.strategy()));
        // Coverage hook kept the map exact.
        let expected = idde_model::CoverageMap::compute(
            &e.problem().scenario.servers,
            &e.problem().scenario.users,
        );
        assert_eq!(e.problem().scenario.coverage, expected);
    }

    #[test]
    fn requests_record_latency() {
        let mut e = engine(5);
        let user = e.active_users()[0];
        e.apply(&Event::Request { user, data: idde_model::DataId(0) });
        assert_eq!(e.metrics().requests, 1);
        assert_eq!(e.metrics().latency.total(), 1);
        // An inactive user's request is ignored.
        let idle = (0..e.active().len()).find(|&j| !e.active()[j]).unwrap();
        e.apply(&Event::Request { user: UserId(idle as u32), data: idde_model::DataId(0) });
        assert_eq!(e.metrics().requests, 1);
    }

    #[test]
    fn stale_events_are_ignored() {
        let mut e = engine(6);
        let user = e.active_users()[0];
        e.apply(&Event::Arrive { user }); // already active
        assert_eq!(e.metrics().arrivals, 0);
        e.apply(&Event::Depart { user });
        e.apply(&Event::Depart { user }); // already gone
        assert_eq!(e.metrics().departures, 1);
        e.apply(&Event::Move { user, dx: 10.0, dy: 10.0 }); // inactive
        assert_eq!(e.metrics().moves, 0);
    }

    #[test]
    fn audited_run_stays_clean_and_certifies_repairs() {
        let problem = small_problem(8);
        let m = problem.scenario.num_users();
        let initial: Vec<bool> = (0..m).map(|j| j % 3 != 0).collect();
        let mut e =
            Engine::new(problem, EngineConfig { audit_every: 1, ..Default::default() }, initial);
        let depart = e.active_users()[0];
        e.apply(&Event::Depart { user: depart });
        e.apply(&Event::Arrive { user: depart });
        e.apply(&Event::Move { user: depart, dx: 120.0, dy: -60.0 });
        e.apply(&Event::Request { user: depart, data: idde_model::DataId(0) });
        assert_eq!(e.metrics().audits, 4, "one audit per event at audit_every=1");
        assert!(e.metrics().audit_checks > 0);
        assert_eq!(e.metrics().audit_violations, 0);
        assert!(e.metrics().certificates > 0, "converged repairs get certified");
        assert_eq!(e.metrics().certificate_violations, 0);
        let report = e.run_audit();
        assert!(report.is_clean(), "{report}");
        assert!(e.metrics().timings.audit > std::time::Duration::ZERO);
    }

    #[test]
    fn server_outage_displaces_users_and_strips_replicas() {
        let problem = small_problem(9);
        let m = problem.scenario.num_users();
        let initial: Vec<bool> = vec![true; m];
        let mut e = Engine::new(
            problem,
            EngineConfig { paranoid: true, audit_every: 1, ..Default::default() },
            initial,
        );
        // Pick the busiest server so the outage definitely displaces users.
        let victim = e
            .problem()
            .scenario
            .server_ids()
            .max_by_key(|&s| {
                e.allocation().iter().filter(|(_, d)| d.map(|(x, _)| x) == Some(s)).count()
            })
            .unwrap();
        let occupants =
            e.allocation().iter().filter(|(_, d)| d.map(|(x, _)| x) == Some(victim)).count() as u64;
        assert!(occupants > 0, "seed must load the busiest server");

        e.apply(&Event::ServerDown { server: victim });
        assert_eq!(e.metrics().server_outages, 1);
        assert_eq!(e.metrics().displaced_users, occupants);
        assert!(!e.faults().server_up(victim));
        assert!(!e.problem().scenario.coverage.is_enabled(victim));
        assert_eq!(e.placement().data_on(victim).count(), 0);
        assert!(e.allocation().iter().all(|(_, d)| d.map(|(s, _)| s) != Some(victim)));
        // The per-event audit (audit_every: 1) already ran the liveness
        // check; re-run explicitly and demand a clean bill.
        let report = e.run_audit();
        assert!(report.is_clean(), "{report}");
        assert_eq!(e.metrics().audit_violations, 0);

        // Stale duplicate is ignored.
        e.apply(&Event::ServerDown { server: victim });
        assert_eq!(e.metrics().server_outages, 1);

        // Restoration re-admits the server; repairs may re-populate it.
        e.apply(&Event::ServerRestore { server: victim });
        assert!(e.faults().server_up(victim));
        assert!(e.problem().scenario.coverage.is_enabled(victim));
        assert_eq!(e.metrics().restorations, 1);
        let report = e.run_audit();
        assert!(report.is_clean(), "{report}");
        assert!(e.problem().is_feasible(&e.strategy()));
    }

    #[test]
    fn dist_recording_is_placement_invariant_and_audits_clean() {
        use idde_dist::StrategyKind;
        let run = |dist: DistConfig| {
            let problem = small_problem(22);
            let m = problem.scenario.num_users();
            let mut e = Engine::new(
                problem,
                EngineConfig { audit_every: 1, dist, ..Default::default() },
                vec![true; m],
            );
            // Knock out the busiest replica holder so the repair's
            // re-replication produces a real bulk round with surviving
            // sources, then restore and let the next repair rebalance.
            let victim = e
                .problem()
                .scenario
                .server_ids()
                .max_by_key(|&s| e.placement().data_on(s).count())
                .unwrap();
            assert!(e.placement().data_on(victim).count() > 0);
            e.apply(&Event::ServerDown { server: victim });
            e.apply(&Event::ServerRestore { server: victim });
            let user = e.active_users()[0];
            e.apply(&Event::Depart { user });
            e
        };

        let off = run(DistConfig::default());
        let unicast =
            run(DistConfig { strategy: StrategyKind::Unicast, record: true, ..Default::default() });
        let steiner =
            run(DistConfig { strategy: StrategyKind::Steiner, record: true, ..Default::default() });

        // Strategies only decide how bytes travel: the replica placement
        // (and therefore everything downstream of it) is identical whether
        // recording is off, unicast or steiner.
        assert_eq!(off.placement(), unicast.placement());
        assert_eq!(off.placement(), steiner.placement());
        assert_eq!(off.allocation(), unicast.allocation());

        // Recording off ⇒ no dist block, CSV schema frozen.
        assert_eq!(off.metrics().dist, None);
        assert!(!off.metrics().to_csv().contains("dist_"));

        for e in [&unicast, &steiner] {
            let dist = e.metrics().dist.expect("recording runs carry the dist block");
            assert!(dist.bulk_installs >= 2, "initial install + outage re-replication");
            assert!(dist.replicas_installed > 0);
            assert!(dist.cloud_seeds > 0, "the initial install has no edge sources");
            assert!(dist.dist_cost_ms > 0.0);
            assert_eq!(e.metrics().audit_violations, 0, "{} plans audit clean", dist.bulk_installs);
            assert!(e.metrics().to_csv().contains("dist_bulk_installs,"));
        }
        let (u, s) = (unicast.metrics().dist.unwrap(), steiner.metrics().dist.unwrap());
        assert_eq!(u.replicas_installed, s.replicas_installed);
        assert_eq!(u.bulk_installs, s.bulk_installs);
        assert!(
            s.dist_cost_ms <= u.dist_cost_ms + 1e-9,
            "steiner ({}) must not cost more than unicast ({})",
            s.dist_cost_ms,
            u.dist_cost_ms
        );
    }

    #[test]
    fn link_failure_rebuilds_paths_and_restoration_undoes_it() {
        let problem = small_problem(10);
        let m = problem.scenario.num_users();
        let mut e = Engine::new(problem, EngineConfig::default(), vec![true; m]);
        let healthy_cost = {
            let link = e.base_graph().links()[0];
            e.problem().topology.unit_cost(link.a, link.b)
        };
        let link = e.base_graph().links()[0];
        e.apply(&Event::LinkDown { a: link.a, b: link.b });
        assert_eq!(e.metrics().link_faults, 1);
        let degraded_cost = e.problem().topology.unit_cost(link.a, link.b);
        assert!(
            degraded_cost > healthy_cost,
            "losing the link cannot cheapen the path ({degraded_cost} vs {healthy_cost})"
        );
        // Unknown link → ignored; same link again → stale, ignored.
        e.apply(&Event::LinkDown { a: link.a, b: link.b });
        assert_eq!(e.metrics().link_faults, 1);

        e.apply(&Event::LinkRestore { a: link.a, b: link.b });
        assert_eq!(e.metrics().restorations, 1);
        assert_eq!(e.problem().topology.unit_cost(link.a, link.b), healthy_cost);
        assert!(e.faults().is_healthy());

        // Degradation slows the direct hop without severing it.
        e.apply(&Event::LinkDegrade { a: link.a, b: link.b, factor: 0.25 });
        assert_eq!(e.metrics().link_faults, 2);
        assert!(e.problem().topology.is_reachable(link.a, link.b));
        assert!(e.problem().topology.unit_cost(link.a, link.b) >= healthy_cost);
        e.apply(&Event::LinkDegrade { a: link.a, b: link.b, factor: 0.0 }); // garbage
        assert_eq!(e.metrics().link_faults, 2);
    }

    /// Audit of the move flush's out-of-coverage release: the flush clears
    /// the infeasible decision via `allocation.set(user, None)` *without* an
    /// explicit field deallocation — which is sound because `repair` always
    /// rebuilds the interference field from the allocation (no field
    /// persists between flushes), the same discipline a departure's ingest
    /// relies on. This regression test pins that soundness:
    /// a user flung outside every coverage disc ends up unallocated, the
    /// induced field passes `consistency_check`, and the full Auditor
    /// (including the Eq. 2–4 reference SINR, which also exercises the
    /// restricted gain refresh) stays clean.
    #[test]
    fn move_out_of_all_coverage_releases_the_allocation_cleanly() {
        use idde_model::{MegaBytes, MegaBytesPerSec, Rect, ScenarioBuilder, Watts};
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let mut b = ScenarioBuilder::new();
        b.server(Point::new(0.0, 0.0), 150.0, 3, MegaBytesPerSec(200.0), MegaBytes(100.0));
        b.server(Point::new(200.0, 0.0), 150.0, 3, MegaBytesPerSec(200.0), MegaBytes(100.0));
        let users: Vec<UserId> = (0..6)
            .map(|j| b.user(Point::new(20.0 * j as f64, 10.0), Watts(1.0), MegaBytesPerSec(200.0)))
            .collect();
        let d0 = b.data(MegaBytes(30.0));
        for &u in &users {
            b.request(u, d0);
        }
        let scenario = b.area(Rect::with_size(3_000.0, 3_000.0)).build().unwrap();
        let problem = Problem::standard(scenario, &mut rng);
        let mut e = Engine::new(
            problem,
            EngineConfig { paranoid: true, audit_every: 1, ..Default::default() },
            vec![true; 6],
        );
        let user = users[0];
        assert!(e.allocation().decision(user).is_some(), "covered user starts allocated");
        e.apply(&Event::Move { user, dx: 2_900.0, dy: 2_900.0 });
        assert!(
            e.problem().scenario.coverage.servers_of(user).is_empty(),
            "the move must leave the user outside every coverage disc"
        );
        assert_eq!(e.allocation().decision(user), None, "infeasible decision must be released");
        let field = InterferenceField::from_allocation(
            &e.problem().radio,
            &e.problem().scenario,
            e.allocation(),
        );
        assert!(field.consistency_check(), "no stale occupant may survive the release");
        assert_eq!(e.metrics().audit_violations, 0);
        let report = e.run_audit();
        assert!(report.is_clean(), "{report}");
        assert!(e.problem().is_feasible(&e.strategy()));
    }

    /// The engine's in-place topology refill stays bitwise equal to a
    /// from-scratch build on the surviving graph through a cut → degrade →
    /// restore sequence.
    #[test]
    fn incremental_link_repair_matches_full_rebuild() {
        let problem = small_problem(13);
        let m = problem.scenario.num_users();
        let mut e = Engine::new(problem, EngineConfig::default(), vec![true; m]);
        let links: Vec<_> = e.base_graph().links().to_vec();
        let first = links[0];
        let last = links[links.len() - 1];
        let script = [
            Event::LinkDown { a: first.a, b: first.b },
            Event::LinkDegrade { a: last.a, b: last.b, factor: 0.5 },
            Event::LinkRestore { a: first.a, b: first.b },
            Event::LinkRestore { a: last.a, b: last.b },
        ];
        for event in script {
            e.apply(&event);
            let live = &e.problem().topology;
            let rebuilt = idde_net::Topology::new(
                e.faults().effective_graph(e.base_graph()),
                live.cloud_speed(),
            );
            for o in e.problem().scenario.server_ids() {
                for i in e.problem().scenario.server_ids() {
                    assert_eq!(
                        live.unit_cost(o, i).to_bits(),
                        rebuilt.unit_cost(o, i).to_bits(),
                        "{o}->{i} after {event:?}"
                    );
                }
            }
        }
        assert!(e.faults().is_healthy());
    }

    #[test]
    fn jamming_shifts_the_equilibrium_and_unjam_restores_cleanly() {
        let problem = small_problem(11);
        let m = problem.scenario.num_users();
        let mut e = Engine::new(
            problem,
            EngineConfig { paranoid: true, audit_every: 1, ..Default::default() },
            vec![true; m],
        );
        let victim = e
            .problem()
            .scenario
            .server_ids()
            .max_by_key(|&s| {
                e.allocation().iter().filter(|(_, d)| d.map(|(x, _)| x) == Some(s)).count()
            })
            .unwrap();
        // A strong jammer (1 mW floor vs −174 dBm thermal noise) makes the
        // victim's channels dramatically worse.
        e.apply(&Event::Jam { server: victim, floor_w: 1e-3 });
        assert_eq!(e.metrics().jam_events, 1);
        assert_eq!(e.problem().radio.jamming_floor(victim), 1e-3);
        assert_eq!(e.metrics().audit_violations, 0, "audits must track the jammed model");
        e.apply(&Event::Unjam { server: victim });
        assert_eq!(e.metrics().restorations, 1);
        assert!(e.problem().radio.is_unjammed());
        e.apply(&Event::Unjam { server: victim }); // stale
        assert_eq!(e.metrics().restorations, 1);
        let report = e.run_audit();
        assert!(report.is_clean(), "{report}");
    }

    /// Regression for the dirty-set scratch hoist: the reusable scratch
    /// must produce exactly the same sorted, deduped repair order as a
    /// fresh computation — reuse may never leak stale entries from a
    /// previous repair into the next repair's player set — under both
    /// admission rules, and the builder must consume its seeds.
    #[test]
    fn dirty_scratch_reuse_keeps_repair_order_identical() {
        let mut e = engine(16);
        let user = e.active_users()[2];
        // Prime every scratch with leftovers from real churn and a fault.
        e.apply(&Event::Move { user, dx: 150.0, dy: -40.0 });
        e.apply(&Event::Depart { user });
        e.apply(&Event::Arrive { user });
        e.apply(&Event::Jam { server: ServerId(0), floor_w: 1e-6 });

        let old = e.allocation.server_of(user);
        let affected = e.active_users();
        for admit in [Admit::Allocated, Admit::Unallocated] {
            let seed = |e: &mut Engine| {
                e.pending.dirty_users.clear();
                e.pending.dirty_users.push(user);
                e.pending.dirty_users.extend_from_slice(&affected[..5]);
                e.pending.dirty_servers.extend(old);
            };
            seed(&mut e);
            e.dirty_union(admit);
            let primed = e.dirty_scratch.clone();
            assert!(
                primed.windows(2).all(|w| w[0] < w[1]),
                "repair order must stay sorted and deduped"
            );
            assert!(e.pending.dirty_users.is_empty() && e.pending.dirty_servers.is_empty());
            // Same computation through virgin scratch buffers.
            let mut fresh = e.clone();
            fresh.dirty_scratch = Vec::new();
            fresh.near_scratch = Vec::new();
            seed(&mut fresh);
            fresh.dirty_union(admit);
            assert_eq!(primed, fresh.dirty_scratch, "scratch reuse changed the repair order");
            // And idempotent: refilling the already-used scratch is stable.
            seed(&mut e);
            e.dirty_union(admit);
            assert_eq!(primed, e.dirty_scratch);
        }
    }

    /// The neighbourhood dirty set must equal the all-users walk under both
    /// admission rules, at every state a seeded drive of moves, departures,
    /// arrivals, jams, a server outage and a halo overlay passes through.
    #[test]
    fn neighbourhood_dirty_set_matches_the_all_users_walk() {
        use rand::Rng;
        let mut e = engine(19);
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let (m, n) = (e.active().len(), e.problem().scenario.num_servers());
        let victim = ServerId::from_index(rng.gen_range(0..n));
        let mut dirty_users = 0usize;
        for step in 0..150 {
            let user = UserId::from_index(rng.gen_range(0..m));
            let server = ServerId::from_index(rng.gen_range(0..n));
            match step {
                40 => e.apply(&Event::ServerDown { server: victim }),
                90 => e.apply(&Event::ServerRestore { server: victim }),
                60 | 120 => {
                    // A halo mirror of an inactive user, sitting on `server`.
                    let mirror = (0..m).map(UserId::from_index).find(|u| !e.active()[u.index()]);
                    let mirror = mirror.expect("an inactive user");
                    let at = e.problem().scenario.servers[server.index()].position;
                    e.set_overlay(&[(mirror, at, server, ChannelIndex(0))]);
                    assert_eq!(e.overlay().len(), 1);
                }
                _ => match step % 6 {
                    0 | 1 => {
                        let (dx, dy) = (rng.gen_range(-300.0..300.0), rng.gen_range(-300.0..300.0));
                        e.apply(&Event::Move { user, dx, dy });
                    }
                    2 => e.apply(&Event::Depart { user }),
                    3 => {
                        // The handoff order: strip the mirror, then arrive.
                        e.strip_overlay_user(user);
                        e.apply(&Event::Arrive { user });
                    }
                    4 => e.apply(&Event::Jam { server, floor_w: rng.gen_range(1e-9..1e-5) }),
                    _ => e.apply(&Event::Unjam { server }),
                },
            }
            let seed_users: Vec<UserId> =
                (0..rng.gen_range(1..6)).map(|_| UserId::from_index(rng.gen_range(0..m))).collect();
            let seed_servers: Vec<ServerId> = (0..rng.gen_range(0..3))
                .map(|_| ServerId::from_index(rng.gen_range(0..n)))
                .collect();
            for admit in [Admit::Allocated, Admit::Unallocated] {
                let mut got = e.clone();
                let mut want = e.clone();
                for x in [&mut got, &mut want] {
                    x.pending.dirty_users.extend_from_slice(&seed_users);
                    x.pending.dirty_servers.extend_from_slice(&seed_servers);
                }
                got.dirty_union(admit);
                want.dirty_union_reference(admit);
                assert_eq!(got.dirty_scratch, want.dirty_scratch, "step {step} {admit:?}");
                dirty_users += got.dirty_scratch.len();
            }
        }
        assert!(e.metrics().server_outages == 1 && e.metrics().jam_events > 0);
        assert!(dirty_users > 1000, "{dirty_users}");
    }

    /// The batched ingestion determinism contract at `batch > 1`: positions
    /// (bitwise), activity flags, the coverage relation and the ingest-time
    /// counters are identical to the unbatched replay, the interference
    /// field stays consistent, and a full audit is clean after every flush.
    #[test]
    fn batched_ingestion_matches_unbatched_state() {
        use rand::Rng;
        let problem = small_problem(18);
        let m = problem.scenario.num_users();
        let initial: Vec<bool> = (0..m).map(|j| j % 4 != 0).collect();
        let mut unbatched =
            Engine::new(problem, EngineConfig { paranoid: true, ..Default::default() }, initial);
        let mut batched = unbatched.clone();
        batched.config.batch = 7;

        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for tick in 0..8 {
            let events: Vec<Event> = (0..30)
                .map(|_| {
                    let user = UserId(rng.gen_range(0..m as u32));
                    match rng.gen_range(0..10) {
                        0..=5 => Event::Move {
                            user,
                            dx: rng.gen_range(-250.0..250.0),
                            dy: rng.gen_range(-250.0..250.0),
                        },
                        6..=7 => Event::Depart { user },
                        8 => Event::Arrive { user },
                        _ => Event::Request { user, data: idde_model::DataId(0) },
                    }
                })
                .collect();
            unbatched.apply_batch(&events);
            unbatched.end_tick(tick);
            batched.apply_batch(&events);
            batched.end_tick(tick);
        }

        for j in 0..m {
            let pa = unbatched.problem().scenario.users[j].position;
            let pb = batched.problem().scenario.users[j].position;
            assert_eq!((pa.x, pa.y), (pb.x, pb.y), "user {j} position diverged");
        }
        assert_eq!(unbatched.active(), batched.active());
        assert_eq!(
            unbatched.problem().scenario.coverage,
            batched.problem().scenario.coverage,
            "the coverage relation must be batch-size-invariant"
        );
        let (ma, mb) = (unbatched.metrics(), batched.metrics());
        assert_eq!(
            (ma.events, ma.arrivals, ma.departures, ma.moves, ma.requests),
            (mb.events, mb.arrivals, mb.departures, mb.moves, mb.requests),
            "ingest-time counters must be batch-size-invariant"
        );
        assert!(
            mb.repairs < ma.repairs,
            "group commits must coalesce repairs ({} vs {})",
            mb.repairs,
            ma.repairs
        );
        for e in [&unbatched, &batched] {
            let field = InterferenceField::from_allocation(
                &e.problem().radio,
                &e.problem().scenario,
                e.allocation(),
            );
            assert!(field.consistency_check());
        }
        let report = batched.run_audit();
        assert!(report.is_clean(), "{report}");
    }

    /// Satellite audit of the `gain_refresh_candidates == None` fallback in
    /// the move path: with an index-less (brute-force) coverage map the
    /// engine must perform the *full* O(N) gain-column refresh rather than
    /// silently skipping — every (server, user) gain after the move is
    /// bitwise equal to a from-scratch `RadioEnvironment` rebuild of the
    /// post-move scenario.
    #[test]
    fn index_less_coverage_forces_the_full_gain_refresh() {
        use idde_radio::{RadioEnvironment, RadioParams};
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let population = SyntheticEua::default().generate(&mut rng);
        let mut scenario = SampleConfig::paper(15, 60, 4).sample(&population, &mut rng);
        // Strip the spatial index: the brute-force oracle has none, so the
        // engine's restricted-refresh lookup reports `None` on every move.
        scenario.coverage =
            idde_model::CoverageMap::compute_brute_force(&scenario.servers, &scenario.users);
        assert!(!scenario.coverage.has_spatial_index());
        let problem = Problem::standard(scenario, &mut rng);
        let mut e = Engine::new(
            problem,
            EngineConfig { paranoid: true, ..Default::default() },
            (0..60).map(|j| j % 4 != 0).collect(),
        );
        let user = e.active_users()[1];
        let moved_to = {
            let p = e.problem().scenario.users[user.index()].position;
            Point::new(p.x + 400.0, p.y - 350.0)
        };
        assert!(
            e.problem().scenario.coverage.gain_refresh_candidates(moved_to).is_none(),
            "the None arm must actually be forced"
        );
        e.apply(&Event::Move { user, dx: 400.0, dy: -350.0 });

        let rebuilt = RadioEnvironment::new(&e.problem().scenario, RadioParams::paper());
        for s in e.problem().scenario.server_ids() {
            for u in e.problem().scenario.user_ids() {
                assert_eq!(
                    e.problem().radio.gain(s, u).to_bits(),
                    rebuilt.gain(s, u).to_bits(),
                    "gain ({s}, {u}) stale after the fallback refresh"
                );
            }
        }
        let report = e.run_audit();
        assert!(report.is_clean(), "{report}");
    }

    /// The halo-overlay lifecycle a shard engine goes through every
    /// boundary phase: install mirrors of a neighbour's decisions on
    /// foreign servers, let local repairs and checkpoints run around them
    /// untouched, then strip a mirror on handoff.
    #[test]
    fn halo_overlay_survives_repairs_and_checkpoints() {
        use idde_model::{MegaBytes, MegaBytesPerSec, Rect, ScenarioBuilder, Watts};
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut b = ScenarioBuilder::new();
        b.server(Point::new(0.0, 0.0), 150.0, 3, MegaBytesPerSec(200.0), MegaBytes(100.0));
        let foreign = ServerId(1);
        b.server(Point::new(200.0, 0.0), 150.0, 3, MegaBytesPerSec(200.0), MegaBytes(100.0));
        let local = b.user(Point::new(30.0, 10.0), Watts(1.0), MegaBytesPerSec(200.0));
        let mirror = b.user(Point::new(260.0, 0.0), Watts(1.0), MegaBytesPerSec(200.0));
        let d0 = b.data(MegaBytes(30.0));
        b.request(local, d0);
        b.request(mirror, d0);
        let mut scenario = b.area(Rect::with_size(1_000.0, 1_000.0)).build().unwrap();
        scenario.coverage.set_foreign(foreign, true);
        let problem = Problem::standard(scenario, &mut rng);
        let mut e = Engine::new(
            problem,
            EngineConfig { paranoid: true, ..Default::default() },
            vec![true, false],
        );
        assert_eq!(e.allocation().decision(mirror), None);

        // Install the neighbour's decision: `mirror` sits at (190, 0) on the
        // foreign server's channel 0 (its builder position is elsewhere, so
        // this also exercises the position sync).
        e.set_overlay(&[(mirror, Point::new(190.0, 0.0), foreign, ChannelIndex(0))]);
        assert_eq!(e.allocation().decision(mirror), Some((foreign, ChannelIndex(0))));
        assert_eq!(e.problem().scenario.users[mirror.index()].position, Point::new(190.0, 0.0));
        assert_eq!(e.overlay().len(), 1);

        // A local repair (the move's dirty set includes the mirror's server
        // neighbourhood) must not displace or re-decide the mirror.
        e.apply(&Event::Move { user: local, dx: 40.0, dy: 0.0 });
        assert_eq!(e.allocation().decision(mirror), Some((foreign, ChannelIndex(0))));
        // Checkpoints re-solve from an overlay-only field; the mirror
        // survives whether or not the full solution is adopted.
        e.checkpoint();
        assert_eq!(e.allocation().decision(mirror), Some((foreign, ChannelIndex(0))));
        let field = InterferenceField::from_allocation(
            &e.problem().radio,
            &e.problem().scenario,
            e.allocation(),
        );
        assert!(field.consistency_check());

        // Refreshing the overlay clears the previous mirrors first.
        e.set_overlay(&[(mirror, Point::new(210.0, 0.0), foreign, ChannelIndex(1))]);
        assert_eq!(e.allocation().decision(mirror), Some((foreign, ChannelIndex(1))));
        assert_eq!(e.overlay().len(), 1);

        // Handoff: stripping the mirror frees the slot immediately.
        assert!(e.strip_overlay_user(mirror));
        assert_eq!(e.allocation().decision(mirror), None);
        assert!(!e.strip_overlay_user(mirror), "second strip finds nothing");
        assert!(e.overlay().is_empty());
    }

    /// A halo refresh re-synchronises only the mirrors that moved: after
    /// a server outage, re-installing the same mirrors skips their coverage
    /// and gain refresh, yet the coverage relation and every gain within
    /// 3 × the maximum coverage radius of a mirror still equal a problem
    /// built from scratch at the mirrored positions, and the allocation and
    /// overlay are untouched. A mirror moved by one ulp is re-synchronised.
    #[test]
    fn unmoved_halo_mirrors_match_a_fresh_problem() {
        use idde_model::CoverageMap;
        const SEED: u64 = 23;
        let mut e = engine(SEED);
        let scenario = &e.problem().scenario;
        let n = scenario.num_servers();
        // Mirrors of inactive slots (`engine` leaves every fourth inactive),
        // each just off a distinct server's site.
        let mut entries: Vec<(UserId, Point, ServerId, ChannelIndex)> = (0..4)
            .map(|k| {
                let server = ServerId::from_index((3 * k + 1) % n);
                let site = scenario.servers[server.index()].position;
                let at = scenario.area.clamp(Point::new(site.x + 7.5, site.y - 4.25));
                (UserId::from_index(4 * k), at, server, ChannelIndex(0))
            })
            .collect();
        let victim = (0..n)
            .map(ServerId::from_index)
            .find(|s| entries.iter().all(|m| m.2 != *s))
            .expect("a server without mirrors");
        let reach = 3.0 * scenario.servers.iter().map(|s| s.coverage_radius_m).fold(0.0, f64::max);

        let fresh = |entries: &[(UserId, Point, ServerId, ChannelIndex)]| {
            let mut scenario = small_problem(SEED).scenario;
            for &(user, at, _, _) in entries {
                scenario.users[user.index()].position = at;
            }
            scenario.coverage = CoverageMap::compute(&scenario.servers, &scenario.users);
            scenario.coverage.disable_server(victim);
            Problem::standard(scenario, &mut ChaCha8Rng::seed_from_u64(0))
        };
        let assert_fresh = |e: &Engine, entries: &[(UserId, Point, ServerId, ChannelIndex)]| {
            let reference = fresh(entries);
            let (got, want) = (&e.problem().scenario, &reference.scenario);
            for user in want.user_ids() {
                assert_eq!(got.coverage.servers_of(user), want.coverage.servers_of(user));
            }
            for server in want.server_ids() {
                assert_eq!(got.coverage.users_of(server), want.coverage.users_of(server));
            }
            for &(user, at, _, _) in entries {
                let stored = got.users[user.index()].position;
                assert_eq!(
                    (stored.x.to_bits(), stored.y.to_bits()),
                    (at.x.to_bits(), at.y.to_bits())
                );
                for server in want.servers.iter().filter(|s| s.position.distance(at) <= reach) {
                    assert_eq!(
                        e.problem().radio.gain(server.id, user).to_bits(),
                        reference.radio.gain(server.id, user).to_bits(),
                        "stale gain ({}, {user})",
                        server.id
                    );
                }
            }
        };

        e.set_overlay(&entries);
        e.apply(&Event::ServerDown { server: victim });
        assert_eq!(e.overlay().len(), entries.len());
        let (allocation, overlay) = (e.allocation().clone(), e.overlay().to_vec());
        e.set_overlay(&entries);
        assert_eq!(e.allocation(), &allocation);
        assert_eq!(e.overlay(), &overlay[..]);
        assert_fresh(&e, &entries);

        // One ulp east: the position differs bitwise, so the mirror must be
        // re-synchronised — and at least one gain it reads changes with it.
        let before = fresh(&entries);
        let p = entries[0].1;
        entries[0].1 = Point::new(f64::from_bits(p.x.to_bits() + 1), p.y);
        let after = fresh(&entries);
        let user = entries[0].0;
        let near = before.scenario.servers.iter().filter(|s| s.position.distance(p) <= reach);
        assert!(
            near.map(|s| s.id).any(|s| {
                before.radio.gain(s, user).to_bits() != after.radio.gain(s, user).to_bits()
            }),
            "a one-ulp move must change some gain the test compares"
        );
        e.set_overlay(&entries);
        assert_eq!(e.overlay(), &overlay[..]);
        assert_fresh(&e, &entries);
    }

    #[test]
    fn end_tick_matches_the_run_loop_tail() {
        let mut via_run = engine(14);
        let mut via_end_tick = via_run.clone();
        struct Silence;
        impl EventSource for Silence {
            fn push_tick(&mut self, _: u64, _: &[bool], _: &mut EventQueue) {}
        }
        via_run.run(&mut Silence, 50);
        for tick in 0..50 {
            via_end_tick.end_tick(tick);
        }
        assert_eq!(via_run.metrics().ticks, 50);
        assert_eq!(via_run.metrics().checkpoints, 1, "interval 50 fires once");
        assert_eq!(via_run.metrics().to_csv(), via_end_tick.metrics().to_csv());
    }

    #[test]
    fn checkpoint_measures_and_bounds_drift() {
        let mut e = engine(7);
        let drift = e.checkpoint();
        assert!(drift >= 0.0);
        assert_eq!(e.metrics().checkpoints, 1);
        // Right after construction the strategy *is* the from-scratch solve,
        // so the drift must sit within the fallback threshold.
        assert!(drift <= e.config.drift_threshold, "fresh engine drifted by {drift}");
    }

    /// An engine with a caching policy, a drifting workload (to actually
    /// revisit items) and per-event audits.
    fn cached_engine(
        seed: u64,
        policy: idde_cache::PolicyKind,
    ) -> (Engine, crate::workload::WorkloadGenerator) {
        use crate::workload::{DriftProfile, WorkloadConfig, WorkloadGenerator};
        let problem = small_problem(seed);
        let n = problem.scenario.num_data();
        let workload = WorkloadGenerator::new(
            WorkloadConfig { drift: DriftProfile::drifting(), ..WorkloadConfig::default() },
            n,
            seed,
        );
        let m = problem.scenario.num_users();
        let initial: Vec<bool> = (0..m).map(|j| j % 3 != 0).collect();
        let config = EngineConfig {
            audit_every: 1,
            cache: CacheConfig { policy, ..CacheConfig::default() },
            ..Default::default()
        };
        let engine = Engine::new(problem, config, initial);
        (engine, workload)
    }

    #[test]
    fn cached_serve_records_traffic_and_stays_audit_clean() {
        let (mut e, mut workload) = cached_engine(21, idde_cache::PolicyKind::Lce);
        e.run(&mut workload, 120);
        let counters = e.metrics().cache.expect("cache counters must surface in metrics");
        assert!(counters.insertions > 0, "LCE under drift must admit something");
        assert!(counters.hits > 0, "revisits of cached items must register as hits");
        assert_eq!(counters.hit_checks, counters.hits, "audit_every=1 re-derives every hit");
        assert_eq!(e.metrics().audit_violations, 0, "cached serve must stay audit-clean");
        let report = e.run_audit();
        assert!(report.is_clean(), "{report}");
        let csv = e.metrics().to_csv();
        assert!(csv.contains("\ncache_hits,"), "cached runs must emit the cache rows");
    }

    /// The cache is strictly on-path: it must never perturb the game. The
    /// solver-side trajectory (allocation, placement, repair/audit
    /// accounting) of a cached run is bit-identical to the uncached run —
    /// this invariance is what makes `--cache off` a byte-identity oracle
    /// and the bench fingerprint policy-invariant.
    #[test]
    fn cache_never_perturbs_the_solver_trajectory() {
        use idde_cache::PolicyKind;
        let mut baseline = None;
        for policy in [PolicyKind::Off, PolicyKind::Lce, PolicyKind::Lcd, PolicyKind::ProbCache] {
            let (mut e, mut workload) = cached_engine(22, policy);
            e.run(&mut workload, 100);
            let strategy = e.strategy();
            let state = (
                strategy.allocation.clone(),
                strategy.placement.clone(),
                e.metrics().repairs,
                e.metrics().moves,
                e.metrics().requests,
            );
            match &baseline {
                None => baseline = Some(state),
                Some(b) => {
                    assert_eq!(&state.0, &b.0, "{policy}: allocation diverged from uncached run");
                    assert_eq!(&state.1, &b.1, "{policy}: placement diverged from uncached run");
                    assert_eq!(
                        (state.2, state.3, state.4),
                        (b.2, b.3, b.4),
                        "{policy}: solver-side accounting diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn outage_purges_cached_replicas_from_the_downed_server() {
        let (mut e, mut workload) = cached_engine(23, idde_cache::PolicyKind::Lce);
        e.run(&mut workload, 80);
        let victim = {
            let cache = e.cache().expect("cache enabled");
            match e
                .problem()
                .scenario
                .server_ids()
                .find(|&s| cache.store().data_on(s).next().is_some())
            {
                Some(s) => s,
                // Extremely unlikely under drift, but don't fail vacuously.
                None => return,
            }
        };
        e.apply(&Event::ServerDown { server: victim });
        let cache = e.cache().expect("cache enabled");
        assert_eq!(cache.store().data_on(victim).count(), 0, "outage must purge the cache");
        assert!(cache.counters().outage_evictions > 0);
        let report = e.run_audit();
        assert!(report.is_clean(), "{report}");
    }

    /// One tick of every event kind over `e`'s scenario: moves long enough
    /// to leave coverage, departures, arrivals, requests, jams, unjams,
    /// outages, restorations and link faults. Users in `mirrors` never
    /// appear, so they stay free to mirror.
    fn storm_tick(e: &Engine, rng: &mut ChaCha8Rng, mirrors: &[UserId]) -> Vec<Event> {
        use rand::Rng;
        let (m, n) = (e.active().len(), e.problem().scenario.num_servers());
        let links = e.base_graph().links();
        (0..rng.gen_range(5..40))
            .map(|_| {
                let user = UserId::from_index(rng.gen_range(0..m));
                let server = ServerId::from_index(rng.gen_range(0..n));
                let link = links[rng.gen_range(0..links.len())];
                match rng.gen_range(0..80) {
                    0..=39 => Event::Move {
                        user,
                        dx: rng.gen_range(-400.0..400.0),
                        dy: rng.gen_range(-400.0..400.0),
                    },
                    40..=51 => Event::Depart { user },
                    52..=63 => Event::Arrive { user },
                    64..=69 => Event::Request { user, data: DataId(0) },
                    70..=71 => Event::Jam { server, floor_w: rng.gen_range(1e-9..1e-6) },
                    72..=73 => Event::Unjam { server },
                    74 => Event::ServerDown { server },
                    75 => Event::ServerRestore { server },
                    76 => Event::LinkDown { a: link.a, b: link.b },
                    77 => Event::LinkRestore { a: link.a, b: link.b },
                    _ => {
                        Event::LinkDegrade { a: link.a, b: link.b, factor: rng.gen_range(0.2..0.9) }
                    }
                }
            })
            .filter(|event| event.user().is_none_or(|u| !mirrors.contains(&u)))
            .collect()
    }

    /// A random point well inside `server`'s coverage disc.
    fn point_near(e: &Engine, server: ServerId, rng: &mut ChaCha8Rng) -> Point {
        use rand::Rng;
        let scenario = &e.problem().scenario;
        let server = &scenario.servers[server.index()];
        let r = 0.9 * server.coverage_radius_m / 2f64.sqrt();
        let (dx, dy) = (rng.gen_range(-r..r), rng.gen_range(-r..r));
        scenario.area.clamp(Point::new(server.position.x + dx, server.position.y + dy))
    }

    /// Halo mirrors of `mirrors`, each on a random channel of a random live
    /// server.
    fn mirror_entries(
        e: &Engine,
        rng: &mut ChaCha8Rng,
        mirrors: &[UserId],
    ) -> Vec<(UserId, Point, ServerId, ChannelIndex)> {
        use rand::Rng;
        let scenario = &e.problem().scenario;
        let live: Vec<ServerId> =
            scenario.server_ids().filter(|&s| scenario.coverage.is_enabled(s)).collect();
        mirrors
            .iter()
            .map(|&user| {
                let server = live[rng.gen_range(0..live.len())];
                let channel = rng.gen_range(0..scenario.servers[server.index()].num_channels);
                (user, point_near(e, server, rng), server, ChannelIndex(channel))
            })
            .collect()
    }

    /// The oracle of the carried quiet records: the same engine with its
    /// records cleared before every repair.
    ///
    /// Under `paranoid`, every repair also runs the game on the same field
    /// with fresh records and asserts the same profile, power sums and
    /// counters in no more scans, so each flush at batch 64 is compared
    /// too. At batch 1 a lockstep reference engine, cleared before every
    /// event (each event runs at most one repair), must hold the same
    /// allocation after every event and end with the same CSV. The drive
    /// fires every event kind, out-of-coverage releases, checkpoint
    /// fallbacks (also of a capped re-solve that adopts a profile short of
    /// equilibrium), `set_position` on active users, and halo overlays
    /// that are replaced, re-installed unchanged, moved, or lose a mirror.
    #[test]
    fn carried_quiet_records_match_records_cleared_before_every_repair() {
        use rand::Rng;
        // A repair over every active user tests each record the engine
        // carries right after the change that should have voided it.
        fn settle(e: &mut Engine, fresh: bool) {
            if fresh {
                e.quiet.clear();
            }
            let all = e.active_users();
            e.repair(&all);
        }
        // The third drive caps the game at one pass and adopts every
        // checkpoint's re-solve, which then stops short of equilibrium.
        for (batch, max_passes, drift_threshold) in
            [(1, 10_000, 0.0), (64, 10_000, 0.0), (1, 1, -1.0)]
        {
            let problem = small_problem(29);
            let m = problem.scenario.num_users();
            let config = EngineConfig {
                game: GameConfig { max_passes, ..Default::default() },
                paranoid: true,
                batch,
                checkpoint_interval: 4,
                drift_threshold,
                ..Default::default()
            };
            // `engine`'s activity pattern: every fourth slot starts idle,
            // so the first eight of those can mirror.
            let mut e = Engine::new(problem, config, (0..m).map(|j| j % 4 != 0).collect());
            let mirrors: Vec<UserId> = (0..8).map(|k| UserId::from_index(4 * k)).collect();
            let mut reference = e.clone();
            let mut rng = ChaCha8Rng::seed_from_u64(batch + max_passes as u64);
            let (mut releases, mut entries) = (0usize, Vec::new());
            for tick in 0..80 {
                // Halo: new mirrors, the same again, moved, one stripped.
                let cover = &e.problem().scenario.coverage;
                entries.retain(|m: &(UserId, Point, ServerId, ChannelIndex)| cover.is_enabled(m.2));
                let mut stripped = None;
                match tick % 4 {
                    0 => entries = mirror_entries(&e, &mut rng, &mirrors),
                    2 => {
                        for entry in &mut entries {
                            entry.1 = point_near(&e, entry.2, &mut rng);
                        }
                    }
                    3 => stripped = entries.pop().map(|m| m.0),
                    _ => {}
                }
                // Active users teleported by hand, near or far.
                let mut teleports = Vec::new();
                for _ in 0..3 {
                    let user = UserId::from_index(rng.gen_range(0..m));
                    let p = e.problem().scenario.users[user.index()].position;
                    let r = if rng.gen_bool(0.5) { 40.0 } else { 300.0 };
                    let to = Point::new(p.x + rng.gen_range(-r..r), p.y + rng.gen_range(-r..r));
                    if e.active()[user.index()] {
                        teleports.push((user, to));
                    }
                }
                for x in [&mut e, &mut reference] {
                    match stripped {
                        Some(mirror) => assert!(x.strip_overlay_user(mirror)),
                        None => x.set_overlay(&entries),
                    }
                    for &(user, to) in &teleports {
                        x.set_position(user, to);
                    }
                }
                settle(&mut e, false);
                if batch == 1 {
                    settle(&mut reference, true);
                    assert_eq!(e.allocation(), reference.allocation(), "halo at {tick}");
                }
                let events = storm_tick(&e, &mut rng, &mirrors);
                let before = e.allocation().clone();
                if batch == 1 {
                    for event in &events {
                        e.apply(event);
                        reference.quiet.clear();
                        reference.apply(event);
                        assert_eq!(e.allocation(), reference.allocation(), "{event:?}");
                        let (got, want) = (e.metrics(), reference.metrics());
                        assert!(got.repair_scans <= want.repair_scans);
                    }
                } else {
                    e.apply_batch(&events);
                }
                let cover = &e.problem().scenario.coverage;
                releases += before
                    .iter()
                    .filter(|(u, d)| d.is_some_and(|(s, _)| !cover.covers(s, *u)))
                    .count();
                e.end_tick(tick);
                settle(&mut e, false);
                if batch == 1 {
                    reference.end_tick(tick);
                    settle(&mut reference, true);
                    assert_eq!(e.allocation(), reference.allocation(), "checkpoint at {tick}");
                }
            }
            let metrics = e.metrics();
            if batch == 1 {
                assert_eq!(metrics.to_csv(), reference.metrics().to_csv());
            }
            let fired = [
                metrics.arrivals,
                metrics.departures,
                metrics.moves,
                metrics.requests,
                metrics.jam_events,
                metrics.restorations,
                metrics.server_outages,
                metrics.link_faults,
                metrics.fallbacks,
                releases as u64,
            ];
            assert!(fired.iter().all(|&n| n > 0), "batch {batch}: {fired:?}");
            let report = e.run_audit();
            assert!(report.is_clean(), "{report}");
        }
    }

    /// At paper scale (125 servers, 816 users, 5 items) under the default
    /// churn, carried records skip pass-1 scans the per-repair records
    /// cannot: strictly fewer scans, same trajectory.
    #[test]
    fn carried_quiet_records_save_scans_on_paper_scale_churn() {
        use crate::workload::{WorkloadConfig, WorkloadGenerator};
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let scenario = SyntheticEua::default().sample(125, 816, 5, &mut rng);
        let problem = Problem::standard(scenario, &mut rng);
        let mut workload = WorkloadGenerator::new(WorkloadConfig::default(), 5, 1);
        let initial = workload.initial_active(problem.scenario.num_users());
        let mut e = Engine::new(problem, EngineConfig::default(), initial);
        let mut reference = e.clone();
        let mut queue = EventQueue::new();
        for tick in 0..8 {
            workload.push_tick(tick, e.active(), &mut queue);
            while let Some(scheduled) = queue.pop() {
                e.apply(&scheduled.event);
                reference.quiet.clear();
                reference.apply(&scheduled.event);
                assert_eq!(e.allocation(), reference.allocation());
            }
            e.end_tick(tick);
            reference.end_tick(tick);
        }
        let (got, want) = (e.metrics(), reference.metrics());
        assert_eq!(got.to_csv(), want.to_csv());
        assert!(got.repairs > 100, "{} repairs", got.repairs);
        assert!(
            got.repair_scans < want.repair_scans,
            "{} scans carried, {} cleared",
            got.repair_scans,
            want.repair_scans
        );
    }
}
