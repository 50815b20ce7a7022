//! The [`Auditor`]: from-scratch reference recomputations cross-checked
//! against the incremental serving-path state.

use idde_core::{IddeUGame, Problem};
use idde_model::{Allocation, ChannelIndex, DataId, Placement, Scenario, ServerId, UserId};
use idde_net::{NetworkFaults, Topology};
use idde_radio::{capped_rate, InterferenceField, RadioEnvironment};

use crate::report::{AuditReport, Violation};

/// Relative tolerance for derived quantities: the Eq. 2 SINR, the Eq. 3–4
/// capped Shannon rates and the Eq. 8 delivery latencies, each recomputed
/// from first principles and compared with the bookkept value.
pub const REL_TOL: f64 = 1e-9;

/// Absolute tolerance for the Eq. 6 storage-budget counters, MB (matches
/// [`Placement::respects_storage`]).
pub const STORAGE_TOL: f64 = 1e-6;

/// `a ≈ b` under a pure relative tolerance.
#[inline]
fn close(a: f64, b: f64, rel_tol: f64) -> bool {
    (a - b).abs() <= rel_tol * a.abs().max(b.abs())
}

/// Runtime invariant auditor over the serving-path state. Its tolerances
/// are fixed: see the crate docs for the policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct Auditor;

impl Auditor {
    /// Cross-checks an incremental [`InterferenceField`] against a freshly
    /// rebuilt field and against from-scratch Eq. 2–4 recomputations.
    ///
    /// Three layers, coarsest first: (1) per-channel occupant lists and
    /// power sums versus a rebuild, (2) feasibility of every allocation
    /// decision (constraint (1) + channel existence), (3) every allocated
    /// user's SINR and capped rate versus [`reference_sinr`], which scans
    /// the raw allocation profile and never touches the field's caches.
    pub fn audit_field(&self, field: &InterferenceField<'_>) -> AuditReport {
        let scenario = field.scenario();
        let env = field.environment();
        let alloc = field.allocation();
        let mut report = AuditReport::new();

        let rebuilt = InterferenceField::from_allocation(env, scenario, alloc);
        for server in scenario.server_ids() {
            for channel in scenario.servers[server.index()].channels() {
                let mut live: Vec<UserId> = field.occupants(server, channel).to_vec();
                let mut reference: Vec<UserId> = rebuilt.occupants(server, channel).to_vec();
                live.sort_unstable();
                reference.sort_unstable();
                report.check(live == reference, || Violation::OccupantMismatch {
                    server,
                    channel,
                    live: live.len(),
                    rebuilt: reference.len(),
                });

                let live_power = field.channel_power(server, channel);
                let rebuilt_power = rebuilt.channel_power(server, channel);
                report.check(
                    close(live_power, rebuilt_power, InterferenceField::POWER_SUM_REL_TOL),
                    || Violation::PowerSumDrift {
                        server,
                        channel,
                        live: live_power,
                        rebuilt: rebuilt_power,
                    },
                );
            }
        }

        for (user, decision) in alloc.iter() {
            let Some((server, channel)) = decision else { continue };
            let feasible = scenario.coverage.covers(server, user)
                && channel.index() < scenario.servers[server.index()].num_channels as usize;
            report.check(feasible, || Violation::InfeasibleDecision { user, server, channel });
            if !feasible {
                continue;
            }

            let reference = reference_sinr(env, scenario, alloc, user, server, channel);
            let live = field.sinr(user).expect("decision exists");
            report.check(close(live, reference, REL_TOL), || Violation::SinrMismatch {
                user,
                live,
                reference,
            });

            let reference_rate = capped_rate(
                scenario.servers[server.index()].channel_bandwidth,
                reference,
                scenario.users[user.index()].max_rate,
            )
            .value();
            let live_rate = field.rate(user).value();
            report.check(close(live_rate, reference_rate, REL_TOL), || Violation::RateMismatch {
                user,
                live: live_rate,
                reference: reference_rate,
            });
        }

        report
    }

    /// The Phase #1 postcondition (Nash certificate): no player in `players`
    /// (all users when `None`) holds a unilateral deviation that `game`'s
    /// own acceptance discipline would commit
    /// ([`IddeUGame::profitable_deviation`] — the relative-epsilon
    /// improvement threshold plus the Lyapunov guard when configured).
    ///
    /// That check runs the same scan kernel that produced the equilibrium,
    /// so each player also gets a second check, independent of the kernel:
    /// [`IddeUGame::best_response`] must equal, bit for bit,
    /// [`IddeUGame::best_response_by_candidate`], a walk that scores every
    /// candidate through [`IddeUGame::benefit_at`].
    ///
    /// Certify the full player set only on profiles the full game converged
    /// on (offline outcomes, post-fallback checkpoints). After a *restricted*
    /// dirty-set repair, pass the repaired player set: users frozen during
    /// the repair may hold stale best responses by design, and their drift
    /// is bounded by the engine's checkpoints, not by this certificate.
    pub fn certify_equilibrium(
        &self,
        game: &IddeUGame,
        field: &InterferenceField<'_>,
        players: Option<&[UserId]>,
    ) -> AuditReport {
        let mut report = AuditReport::new();
        let all: Vec<UserId>;
        let players = match players {
            Some(p) => p,
            None => {
                all = field.scenario().user_ids().collect();
                &all
            }
        };
        for &user in players {
            let deviation = game.profitable_deviation(field, user);
            report.check(deviation.is_none(), || {
                let (server, channel, gain) = deviation.expect("checked above");
                Violation::ProfitableDeviation { user, server, channel, gain }
            });
            let live = game.best_response(field, user);
            let reference = game.best_response_by_candidate(field, user);
            let bits =
                |r: Option<(ServerId, ChannelIndex, f64)>| r.map(|(s, x, b)| (s, x, b.to_bits()));
            report.check(bits(live) == bits(reference), || Violation::BestResponseMismatch {
                user,
                live,
                reference,
            });
        }
        report
    }

    /// Re-derives the placement bookkeeping from first principles: each
    /// server's storage usage (resummed from the stored data sizes) against
    /// the cached counter and the Eq. 6 budget, and each request's Eq. 8
    /// delivery latency (brute-force min over every replica and the cloud)
    /// against the topology's min-tracking fast path.
    pub fn audit_placement(
        &self,
        problem: &Problem,
        allocation: &Allocation,
        placement: &Placement,
    ) -> AuditReport {
        let scenario = &problem.scenario;
        let topology = &problem.topology;
        let mut report = AuditReport::new();

        for server in scenario.server_ids() {
            let recomputed: f64 =
                placement.data_on(server).map(|d| scenario.data[d.index()].size.value()).sum();
            let cached = placement.used(server).value();
            report.check((cached - recomputed).abs() <= STORAGE_TOL, || {
                Violation::StorageCacheDrift { server, cached, recomputed }
            });
            let capacity = scenario.servers[server.index()].storage.value();
            report.check(recomputed <= capacity + STORAGE_TOL, || {
                Violation::StorageBudgetExceeded { server, used: recomputed, capacity }
            });
        }

        for (user, data) in scenario.requests.pairs() {
            let Some(target) = allocation.server_of(user) else { continue };
            let size = scenario.data[data.index()].size;
            let (live, _) = topology.delivery_latency(placement, data, size, target);
            let reference = reference_latency(problem, placement, data, target);
            report.check(close(live.value(), reference, REL_TOL), || Violation::LatencyMismatch {
                user,
                data,
                live: live.value(),
                reference,
            });
        }

        report
    }

    /// The field and placement audits composed over one strategy.
    pub fn audit_strategy(
        &self,
        problem: &Problem,
        allocation: &Allocation,
        placement: &Placement,
    ) -> AuditReport {
        let field =
            InterferenceField::from_allocation(&problem.radio, &problem.scenario, allocation);
        let mut report = self.audit_field(&field);
        report.merge(self.audit_placement(problem, allocation, placement));
        report
    }

    /// The cross-shard consistency audit: certifies that K per-shard
    /// serving states tile one coherent global profile.
    ///
    /// `owner[s]` names the shard owning server `s`; `shards[k]` is shard
    /// `k`'s live `(allocation, active)` pair. Three layers:
    ///
    /// 1. **Partition of users** — every user slot is active in at most one
    ///    shard (a failed handoff leaves it in two).
    /// 2. **Ownership of decisions** — an active user's decision names a
    ///    server its own shard owns (halo mirrors are inactive, so they
    ///    never trip this).
    /// 3. **Field equality** — the global interference field rebuilt from
    ///    the union of the shards' active decisions must agree with each
    ///    shard's locally rebuilt field on every channel of every server
    ///    that shard owns: occupant lists exactly, per-channel power sums
    ///    within [`InterferenceField::POWER_SUM_REL_TOL`] (1e-12, the same
    ///    bound the field's own `consistency_check` enforces).
    ///
    /// Occupant lists and power sums are functions of the allocation
    /// profile and the users' transmit powers only — never of positions or
    /// gains — so `problem` may be any shard's problem clone; the
    /// bounded-staleness of halo *positions* cannot blur this audit.
    pub fn audit_cross_shard(
        &self,
        problem: &Problem,
        owner: &[usize],
        shards: &[(&Allocation, &[bool])],
    ) -> AuditReport {
        let scenario = &problem.scenario;
        assert_eq!(owner.len(), scenario.num_servers(), "owner map must cover every server");
        let mut report = AuditReport::new();

        // Layer 1: each user active in at most one shard.
        let mut active_in: Vec<Option<usize>> = vec![None; scenario.num_users()];
        for (k, &(_, active)) in shards.iter().enumerate() {
            for (j, &a) in active.iter().enumerate() {
                if !a {
                    continue;
                }
                let user = UserId(j as u32);
                match active_in[j] {
                    Some(first) => report.check(false, || Violation::DuplicateActiveUser {
                        user,
                        shards: (first, k),
                    }),
                    None => active_in[j] = Some(k),
                }
            }
        }

        // Layer 2 + global profile: active decisions stay inside their
        // shard's ownership and union into one allocation.
        let mut global = Allocation::unallocated(scenario.num_users());
        for (k, &(alloc, active)) in shards.iter().enumerate() {
            for (user, decision) in alloc.iter() {
                if !active.get(user.index()).copied().unwrap_or(false) {
                    continue;
                }
                let Some((server, _)) = decision else { continue };
                report.check(owner[server.index()] == k, || Violation::CrossShardDecision {
                    user,
                    server,
                    shard: k,
                });
                if active_in[user.index()] == Some(k) {
                    global.set(user, decision);
                }
            }
        }

        // Layer 3: the global occupancy/power table rebuilt from the union
        // profile versus each shard's local table, on the shard's own
        // servers. These are the exact quantities `InterferenceField`
        // caches per channel, recomputed here straight from the raw
        // profiles so a corrupt shard state surfaces as a violation rather
        // than a rebuild panic.
        let occupancy = |alloc: &Allocation| -> Vec<Vec<(Vec<UserId>, f64)>> {
            let mut per: Vec<Vec<(Vec<UserId>, f64)>> = scenario
                .servers
                .iter()
                .map(|s| vec![(Vec::new(), 0.0); s.num_channels as usize])
                .collect();
            for (user, decision) in alloc.iter() {
                let Some((server, channel)) = decision else { continue };
                if channel.index() >= per[server.index()].len() {
                    continue; // nonexistent channel: the per-shard field audit flags it
                }
                let slot = &mut per[server.index()][channel.index()];
                slot.0.push(user);
                slot.1 += scenario.users[user.index()].power.value();
            }
            per
        };
        let reference = occupancy(&global);
        for (k, &(alloc, _)) in shards.iter().enumerate() {
            let local = occupancy(alloc);
            for server in scenario.server_ids() {
                if owner[server.index()] != k {
                    continue;
                }
                for channel in scenario.servers[server.index()].channels() {
                    let (live_users, live_power) = &local[server.index()][channel.index()];
                    let (ref_users, ref_power) = &reference[server.index()][channel.index()];
                    report.check(live_users == ref_users, || Violation::OccupantMismatch {
                        server,
                        channel,
                        live: live_users.len(),
                        rebuilt: ref_users.len(),
                    });
                    report.check(
                        close(*live_power, *ref_power, InterferenceField::POWER_SUM_REL_TOL),
                        || Violation::PowerSumDrift {
                            server,
                            channel,
                            live: *live_power,
                            rebuilt: *ref_power,
                        },
                    );
                }
            }
        }

        report
    }

    /// Network agreement across shards: every shard's fault overlay must
    /// equal the router's `faults`, and its topology must be the router's
    /// `topology` allocation itself (compared by address), so one fault
    /// changes one network for all shards. One check per shard.
    pub fn audit_network_agreement(
        &self,
        faults: &NetworkFaults,
        topology: &Topology,
        shards: &[(&NetworkFaults, &Topology)],
    ) -> AuditReport {
        let mut report = AuditReport::new();
        for (shard, &(local_faults, local_topology)) in shards.iter().enumerate() {
            report.check(local_faults == faults && std::ptr::eq(local_topology, topology), || {
                Violation::NetworkDisagreement { shard }
            });
        }
        report
    }

    /// The fault-mode invariant: a downed server serves nobody and stores
    /// nothing. Run after every outage/restoration to certify that graceful
    /// degradation actually displaced the occupants and stripped the
    /// replicas — the states every other audit implicitly assumes.
    pub fn audit_liveness(
        &self,
        scenario: &Scenario,
        allocation: &Allocation,
        placement: &Placement,
        down: &[ServerId],
    ) -> AuditReport {
        let mut report = AuditReport::new();
        for &server in down {
            for (user, decision) in allocation.iter() {
                report.check(decision.map(|(s, _)| s) != Some(server), || {
                    Violation::DeadServerDecision { user, server }
                });
            }
            for data in scenario.data_ids() {
                report.check(!placement.stores(server, data), || Violation::DeadServerReplica {
                    server,
                    data,
                });
            }
            report.check(placement.used(server).value() == 0.0, || Violation::StorageCacheDrift {
                server,
                cached: placement.used(server).value(),
                recomputed: 0.0,
            });
            // A dead server must also have fallen out of the coverage
            // relation, or the game could still allocate onto it.
            for user in scenario.user_ids() {
                report.check(!scenario.coverage.covers(server, user), || {
                    Violation::DeadServerDecision { user, server }
                });
            }
        }
        report
    }
}

/// Eq. 2 from first principles: the SINR of `user` as if allocated to
/// `(server, channel)`, computed by scanning the raw allocation profile —
/// never the field's occupant/power caches. Own-channel interference is
/// `g_{i,x,j} · Σ p_t` over the channel's other occupants; the cross-server
/// term `F_{i,x,j}` sums `g(server, t) · p_t` over users on the same channel
/// index of *other* servers covering `user`.
pub fn reference_sinr(
    env: &RadioEnvironment,
    scenario: &Scenario,
    alloc: &Allocation,
    user: UserId,
    server: ServerId,
    channel: ChannelIndex,
) -> f64 {
    let g = env.gain(server, user);
    let p = scenario.users[user.index()].power.value();
    let mut own = 0.0;
    let mut cross = 0.0;
    for (t, decision) in alloc.iter() {
        if t == user {
            continue;
        }
        let Some((s_t, x_t)) = decision else { continue };
        if x_t != channel {
            continue;
        }
        let p_t = scenario.users[t.index()].power.value();
        if s_t == server {
            own += p_t;
        } else if scenario.coverage.covers(s_t, user) {
            cross += env.gain(server, t) * p_t;
        }
    }
    g * p / (g * own + cross + env.params.noise.value() + env.jamming_floor(server))
}

/// Eq. 8 from first principles: the delivery latency of `data` to a user
/// served by `target`, as the explicit minimum over the cloud and every
/// server currently storing the item.
fn reference_latency(
    problem: &Problem,
    placement: &Placement,
    data: DataId,
    target: ServerId,
) -> f64 {
    let size = problem.scenario.data[data.index()].size;
    let mut best = problem.topology.cloud_latency(size).value();
    for origin in placement.servers_with(data) {
        let via = problem.topology.edge_latency(size, origin, target).value();
        if via < best {
            best = via;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use idde_core::GreedyDelivery;
    use idde_model::testkit;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn problem(seed: u64) -> Problem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Problem::standard(testkit::fig2_example(), &mut rng)
    }

    #[test]
    fn clean_strategy_audits_clean() {
        let p = problem(1);
        let game = IddeUGame::default();
        let outcome = game.run(&p);
        assert!(outcome.converged);
        let auditor = Auditor;

        let field_report = auditor.audit_field(&outcome.field);
        assert!(field_report.is_clean(), "{field_report}");
        assert!(field_report.checks > 0);

        let cert = auditor.certify_equilibrium(&game, &outcome.field, None);
        assert!(cert.is_clean(), "{cert}");
        // A deviation check and a best-response re-derivation per player.
        assert_eq!(cert.checks, 2 * p.scenario.num_users() as u64);

        let alloc = outcome.field.allocation().clone();
        let delivery = GreedyDelivery::default().run(&p, &alloc);
        let placement_report = auditor.audit_placement(&p, &alloc, &delivery.placement);
        assert!(placement_report.is_clean(), "{placement_report}");

        let combined = auditor.audit_strategy(&p, &alloc, &delivery.placement);
        assert_eq!(combined.checks, field_report.checks + placement_report.checks);
    }

    #[test]
    fn perturbed_equilibrium_fails_certification() {
        let p = problem(2);
        let game = IddeUGame::default();
        let outcome = game.run(&p);
        let mut field = outcome.field;
        field.deallocate(UserId(0));
        let cert = Auditor.certify_equilibrium(&game, &field, None);
        assert!(cert
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ProfitableDeviation { user: UserId(0), .. })));
    }

    #[test]
    fn restricted_certification_only_checks_the_given_players() {
        let p = problem(3);
        let game = IddeUGame::default();
        let outcome = game.run(&p);
        assert!(outcome.converged);
        let auditor = Auditor;
        // On a converged profile a restricted certificate runs exactly two
        // checks per listed player and stays clean.
        let subset = [UserId(0), UserId(2)];
        let cert = auditor.certify_equilibrium(&game, &outcome.field, Some(&subset));
        assert_eq!(cert.checks, 2 * subset.len() as u64);
        assert!(cert.is_clean(), "{cert}");
        // After knocking user 0 out, a certificate restricted to user 0
        // flags exactly that deviation and checks nobody else.
        let mut field = outcome.field;
        field.deallocate(UserId(0));
        let cert = auditor.certify_equilibrium(&game, &field, Some(&[UserId(0)]));
        assert_eq!(cert.checks, 2);
        assert!(matches!(
            cert.violations.as_slice(),
            [Violation::ProfitableDeviation { user: UserId(0), .. }]
        ));
    }

    #[test]
    fn certificate_rederives_every_best_response_independently() {
        use idde_core::{BenefitModel, GameConfig};
        for seed in 10..16 {
            let p = problem(seed);
            let benefit =
                if seed % 2 == 0 { BenefitModel::PaperEq12 } else { BenefitModel::Congestion };
            let game = IddeUGame::new(GameConfig { benefit, ..Default::default() });
            let outcome = game.run(&p);
            assert!(outcome.converged);
            let auditor = Auditor;
            let cert = auditor.certify_equilibrium(&game, &outcome.field, None);
            assert!(cert.is_clean(), "seed {seed}: {cert}");
            assert_eq!(cert.checks, 2 * p.scenario.num_users() as u64, "seed {seed}");
            // Off equilibrium the deviation check fires, but the scan still
            // agrees with the per-candidate walk for every player.
            let cert = auditor.certify_equilibrium(&game, &p.field(), None);
            assert_eq!(cert.checks, 2 * p.scenario.num_users() as u64, "seed {seed}");
            assert!(cert
                .violations
                .iter()
                .all(|v| matches!(v, Violation::ProfitableDeviation { .. })));
        }
    }

    #[test]
    fn reference_sinr_matches_the_incremental_field() {
        let p = problem(4);
        let outcome = IddeUGame::default().run(&p);
        let field = &outcome.field;
        for user in p.scenario.user_ids() {
            let Some((s, x)) = field.allocation().decision(user) else { continue };
            let reference = reference_sinr(&p.radio, &p.scenario, field.allocation(), user, s, x);
            let live = field.sinr(user).unwrap();
            assert!(close(live, reference, 1e-9), "user {user}: {live} vs {reference}");
        }
    }

    #[test]
    fn overfull_storage_is_flagged() {
        let p = problem(5);
        let alloc = IddeUGame::default().run(&p).field.into_allocation();
        let mut placement = Placement::empty(p.scenario.num_servers(), p.scenario.num_data());
        // fig2 servers hold 120 MB; four 60 MB items overflow by 120 MB.
        for k in 0..p.scenario.num_data() {
            placement.place(ServerId(0), DataId::from_index(k), p.scenario.data[k].size);
        }
        let report = Auditor.audit_placement(&p, &alloc, &placement);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StorageBudgetExceeded { server: ServerId(0), .. })));
    }

    #[test]
    fn liveness_audit_finds_stranded_users_and_replicas() {
        let mut p = problem(7);
        let game = IddeUGame::default();
        let alloc = game.run(&p).field.into_allocation();
        let placement = GreedyDelivery::default().run(&p, &alloc).placement;
        let auditor = Auditor;

        // Declare server 0 down without any degradation handling: everything
        // it was serving or storing must be flagged.
        let down = [ServerId(0)];
        let report = auditor.audit_liveness(&p.scenario, &alloc, &placement, &down);
        let stranded = alloc.iter().filter(|(_, d)| d.map(|(s, _)| s) == Some(ServerId(0))).count();
        let replicas = placement.data_on(ServerId(0)).count();
        assert!(stranded > 0 && replicas > 0, "fig2 seed must load server 0");
        assert!(!report.is_clean());

        // Now actually degrade: displace users, strip replicas, close coverage.
        let mut alloc = alloc;
        let mut placement = placement;
        for user in p.scenario.user_ids() {
            if alloc.server_of(user) == Some(ServerId(0)) {
                alloc.set(user, None);
            }
        }
        for data in placement.data_on(ServerId(0)).collect::<Vec<_>>() {
            placement.remove(ServerId(0), data, p.scenario.data[data.index()].size);
        }
        p.scenario.coverage.disable_server(ServerId(0));
        let report = auditor.audit_liveness(&p.scenario, &alloc, &placement, &down);
        assert!(report.is_clean(), "{report}");
        assert!(report.checks > 0);

        // No declared outages ⇒ trivially clean, zero checks.
        let empty = auditor.audit_liveness(&p.scenario, &alloc, &placement, &[]);
        assert!(empty.is_clean() && empty.checks == 0);
    }

    #[test]
    fn cross_shard_audit_certifies_a_clean_tiling_and_flags_breaches() {
        let p = problem(8);
        let alloc = IddeUGame::default().run(&p).field.into_allocation();
        // Tile the servers in two halves by index.
        let half = p.scenario.num_servers() / 2;
        let owner: Vec<usize> =
            (0..p.scenario.num_servers()).map(|s| usize::from(s >= half)).collect();
        // Each user is active in (and allocated by) the shard owning its
        // serving server; unallocated users live in shard 0.
        let mut allocs = [
            Allocation::unallocated(p.scenario.num_users()),
            Allocation::unallocated(p.scenario.num_users()),
        ];
        let mut actives =
            [vec![false; p.scenario.num_users()], vec![false; p.scenario.num_users()]];
        for (user, decision) in alloc.iter() {
            let k = decision.map_or(0, |(s, _)| owner[s.index()]);
            allocs[k].set(user, decision);
            actives[k][user.index()] = true;
        }
        let auditor = Auditor;
        let shards = [(&allocs[0], actives[0].as_slice()), (&allocs[1], actives[1].as_slice())];
        let report = auditor.audit_cross_shard(&p, &owner, &shards);
        assert!(report.is_clean(), "{report}");
        assert!(report.checks > 0);

        // Breach 1: a failed handoff leaves a user active in both shards.
        let twice = alloc.iter().find(|(_, d)| d.is_some()).map(|(u, _)| u).unwrap();
        let mut dup = actives.clone();
        dup[0][twice.index()] = true;
        dup[1][twice.index()] = true;
        let shards = [(&allocs[0], dup[0].as_slice()), (&allocs[1], dup[1].as_slice())];
        let report = auditor.audit_cross_shard(&p, &owner, &shards);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DuplicateActiveUser { user, .. } if *user == twice)));

        // Breach 2: shard 0 allocates one of its users across the cut. The
        // ownership layer names the culprit and the field layer sees shard
        // 1's channel occupancy diverge from the global rebuild.
        let (stray, (_, x)) = alloc
            .iter()
            .find_map(|(u, d)| d.filter(|(s, _)| owner[s.index()] == 0).map(|d| (u, d)))
            .unwrap();
        let foreign_server = ServerId::from_index(half);
        let mut bad = allocs[0].clone();
        bad.set(stray, Some((foreign_server, x)));
        let shards = [(&bad, actives[0].as_slice()), (&allocs[1], actives[1].as_slice())];
        let report = auditor.audit_cross_shard(&p, &owner, &shards);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            Violation::CrossShardDecision { user, server, shard: 0 }
                if *user == stray && *server == foreign_server
        )));
        assert!(report.violations.iter().any(
            |v| matches!(v, Violation::OccupantMismatch { server, .. } if *server == foreign_server)
        ));
    }

    #[test]
    fn unallocated_profile_audits_clean_but_fails_certification() {
        let p = problem(6);
        let game = IddeUGame::default();
        let field = p.field();
        // An empty field is internally consistent...
        let report = Auditor.audit_field(&field);
        assert!(report.is_clean(), "{report}");
        // ...but every covered user has a profitable first allocation.
        let cert = Auditor.certify_equilibrium(&game, &field, None);
        assert_eq!(cert.violations.len(), p.scenario.num_users());
    }
}
