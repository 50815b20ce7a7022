//! The incremental interference field.
//!
//! Best-response dynamics (Phase #1 of IDDE-G) repeatedly ask: *"what would
//! user `u_j`'s SINR / benefit be if it moved to channel `c_{i,x}`?"*. A
//! naive implementation rescans the whole allocation profile per query; the
//! [`InterferenceField`] instead maintains, per wireless channel,
//!
//! * the occupant list `U_{i,x}(α)`, and
//! * the occupant power sum `Σ_{u_t ∈ U_{i,x}(α)} p_t`,
//!
//! updated in O(occupancy) on every move. One hypothetical query costs the
//! total occupancy of channel index `x` over `V_j`: the cross-server term
//! `F_{i,x,j}` genuinely needs per-occupant gains. A whole best-response
//! scan ([`InterferenceField::scan_benefits`]) gathers those interferers
//! once per channel index, not once per candidate, and then costs one
//! multiply-add per candidate and gathered term.
//!
//! The occupant lists are stored as one flat CSR arena (`row_start` /
//! `row_len` / `row_cap` per global channel over a shared `occ` payload)
//! instead of a `Vec<Vec<UserId>>`: a deviation scan that walks every
//! channel of every covering server then reads contiguous memory, and the
//! whole field can be rebuilt into caller-owned [`FieldBuffers`]
//! ([`InterferenceField::from_allocation_in`]) without allocating one `Vec`
//! per channel — the repair hot path of the serving engine rebuilds a field
//! per event, so the arena turns O(channels) allocations into zero.
//!
//! All SINR/rate/benefit formulas live here so that the IDDE-G game, the
//! baselines and the metric evaluation share one implementation of Eqs. 2–5
//! and 12.

use std::cell::Cell;

use idde_model::{Allocation, ChannelIndex, MegaBytesPerSec, Scenario, ServerId, UserId};

use crate::rate::capped_rate;
use crate::RadioEnvironment;

/// Arena slot value for occupant positions past a row's length — never read
/// through the public API, only written as resize filler.
const OCC_FILLER: UserId = UserId(u32::MAX);

/// Scratch of [`InterferenceField::scan_benefits`]: the gathered
/// `(k, t, p_t)` terms of every channel index, concatenated, and the start
/// of each index's run.
type ScanScratch = (Vec<(u32, UserId, f64)>, Vec<usize>);

thread_local! {
    static SCAN_SCRATCH: Cell<ScanScratch> = Cell::default();
}

/// The reusable backing buffers of an [`InterferenceField`]: the CSR
/// occupancy arena, the per-channel power sums and the channel offset table.
///
/// A caller that rebuilds fields repeatedly over the same scenario (the
/// serving engine rebuilds one per repair) threads one `FieldBuffers`
/// through [`InterferenceField::from_allocation_in`] /
/// [`InterferenceField::into_parts`] so the steady state allocates nothing.
/// A default (empty) value is always valid — the constructors size
/// everything from the scenario.
#[derive(Clone, Debug, Default)]
pub struct FieldBuffers {
    channel_offset: Vec<usize>,
    row_start: Vec<u32>,
    row_len: Vec<u32>,
    row_cap: Vec<u32>,
    occ: Vec<UserId>,
    power_sum: Vec<f64>,
}

/// Incrementally maintained per-channel occupancy and interference state for
/// one allocation profile `α`.
#[derive(Clone, Debug)]
pub struct InterferenceField<'a> {
    scenario: &'a Scenario,
    env: &'a RadioEnvironment,
    /// `channel_offset[i]` = index of server `i`'s first channel in the flat
    /// per-channel arrays; the last element is the total channel count.
    channel_offset: Vec<usize>,
    /// CSR row table over `occ`: channel `g`'s occupants are
    /// `occ[row_start[g] .. row_start[g] + row_len[g]]`, with
    /// `row_cap[g] - row_len[g]` spare slots before the row must relocate
    /// to the arena tail.
    row_start: Vec<u32>,
    row_len: Vec<u32>,
    row_cap: Vec<u32>,
    /// Flat occupant arena shared by every channel row.
    occ: Vec<UserId>,
    /// Occupant power sums per global channel, in watts.
    power_sum: Vec<f64>,
    /// The profile `α` this field mirrors.
    alloc: Allocation,
}

impl<'a> InterferenceField<'a> {
    /// Creates the field for the all-unallocated profile.
    pub fn new(env: &'a RadioEnvironment, scenario: &'a Scenario) -> Self {
        Self::new_in(env, scenario, FieldBuffers::default())
    }

    /// Like [`InterferenceField::new`], reusing caller-owned buffers.
    pub fn new_in(
        env: &'a RadioEnvironment,
        scenario: &'a Scenario,
        buffers: FieldBuffers,
    ) -> Self {
        let FieldBuffers {
            mut channel_offset,
            mut row_start,
            mut row_len,
            mut row_cap,
            mut occ,
            mut power_sum,
        } = buffers;
        channel_offset.clear();
        channel_offset.reserve(scenario.num_servers() + 1);
        let mut total = 0usize;
        for s in &scenario.servers {
            channel_offset.push(total);
            total += s.num_channels as usize;
        }
        channel_offset.push(total);
        row_start.clear();
        row_start.resize(total, 0);
        row_len.clear();
        row_len.resize(total, 0);
        row_cap.clear();
        row_cap.resize(total, 0);
        occ.clear();
        power_sum.clear();
        power_sum.resize(total, 0.0);
        Self {
            scenario,
            env,
            channel_offset,
            row_start,
            row_len,
            row_cap,
            occ,
            power_sum,
            alloc: Allocation::unallocated(scenario.num_users()),
        }
    }

    /// Creates the field mirroring an existing allocation profile.
    pub fn from_allocation(
        env: &'a RadioEnvironment,
        scenario: &'a Scenario,
        alloc: &Allocation,
    ) -> Self {
        Self::from_allocation_in(env, scenario, alloc, FieldBuffers::default())
    }

    /// Like [`InterferenceField::from_allocation`], reusing caller-owned
    /// buffers: the CSR rows are pre-sized with an exact occupancy count
    /// (two passes over the allocation), so the build performs no per-row
    /// relocations and — once the buffers have warmed up — no allocations.
    /// The arithmetic is identical to the incremental path (each occupant's
    /// power is `+=`-accumulated in user-id order), so the resulting sums
    /// are bitwise equal to [`InterferenceField::from_allocation`]'s.
    pub fn from_allocation_in(
        env: &'a RadioEnvironment,
        scenario: &'a Scenario,
        alloc: &Allocation,
        buffers: FieldBuffers,
    ) -> Self {
        let mut field = Self::new_in(env, scenario, buffers);
        // Pass 1: exact per-channel occupancy counts become the row caps.
        for (_, decision) in alloc.iter() {
            if let Some((server, channel)) = decision {
                let g = field.global(server, channel);
                field.row_cap[g] += 1;
            }
        }
        let mut total = 0u32;
        for g in 0..field.row_cap.len() {
            field.row_start[g] = total;
            total += field.row_cap[g];
        }
        field.occ.resize(total as usize, OCC_FILLER);
        // Pass 2: the same per-user `allocate` walk as `from_allocation`,
        // now landing in pre-sized rows.
        for (user, decision) in alloc.iter() {
            if let Some((server, channel)) = decision {
                field.allocate(user, server, channel);
            }
        }
        field
    }

    /// Consumes the field, returning the profile and the backing buffers
    /// for reuse by a later [`InterferenceField::from_allocation_in`].
    pub fn into_parts(self) -> (Allocation, FieldBuffers) {
        let buffers = FieldBuffers {
            channel_offset: self.channel_offset,
            row_start: self.row_start,
            row_len: self.row_len,
            row_cap: self.row_cap,
            occ: self.occ,
            power_sum: self.power_sum,
        };
        (self.alloc, buffers)
    }

    /// Channel `g`'s occupant row.
    #[inline]
    fn row(&self, g: usize) -> &[UserId] {
        &self.occ[self.row_start[g] as usize..][..self.row_len[g] as usize]
    }

    /// Appends `user` to channel `g`'s row, relocating the row to the arena
    /// tail (with doubled capacity) when it is full.
    fn push_row(&mut self, g: usize, user: UserId) {
        let len = self.row_len[g] as usize;
        if len == self.row_cap[g] as usize {
            let new_cap = (len * 2).max(4);
            let new_start = self.occ.len();
            let old_start = self.row_start[g] as usize;
            self.occ.extend_from_within(old_start..old_start + len);
            self.occ.resize(new_start + new_cap, OCC_FILLER);
            self.row_start[g] = u32::try_from(new_start).expect("occupancy arena exceeds u32");
            self.row_cap[g] = new_cap as u32;
        }
        self.occ[self.row_start[g] as usize + len] = user;
        self.row_len[g] += 1;
    }

    #[inline]
    fn global(&self, server: ServerId, channel: ChannelIndex) -> usize {
        let idx = self.channel_offset[server.index()] + channel.index();
        debug_assert!(idx < self.channel_offset[server.index() + 1]);
        idx
    }

    /// The allocation profile mirrored by this field.
    #[inline]
    pub fn allocation(&self) -> &Allocation {
        &self.alloc
    }

    /// Consumes the field, returning the profile.
    pub fn into_allocation(self) -> Allocation {
        self.alloc
    }

    /// The scenario this field is built over.
    #[inline]
    pub fn scenario(&self) -> &'a Scenario {
        self.scenario
    }

    /// The radio environment this field is built over.
    #[inline]
    pub fn environment(&self) -> &'a RadioEnvironment {
        self.env
    }

    /// Current occupants `U_{i,x}(α)` of a channel — one contiguous slice
    /// of the CSR arena.
    #[inline]
    pub fn occupants(&self, server: ServerId, channel: ChannelIndex) -> &[UserId] {
        self.row(self.global(server, channel))
    }

    /// Current occupant power sum `Σ_{u_t ∈ U_{i,x}(α)} p_t`, in watts.
    #[inline]
    pub fn channel_power(&self, server: ServerId, channel: ChannelIndex) -> f64 {
        self.power_sum[self.global(server, channel)]
    }

    /// Moves `user` to channel `c_{i,x}` (removing it from its previous
    /// channel first). Panics in debug builds if the server does not cover
    /// the user (constraint (1)) or the channel does not exist.
    pub fn allocate(&mut self, user: UserId, server: ServerId, channel: ChannelIndex) {
        debug_assert!(
            self.scenario.coverage.covers(server, user),
            "constraint (1): server {server} does not cover user {user}"
        );
        debug_assert!(
            channel.index() < self.scenario.servers[server.index()].num_channels as usize,
            "server {server} has no channel {channel}"
        );
        self.deallocate(user);
        let g = self.global(server, channel);
        let p = self.scenario.users[user.index()].power.value();
        self.push_row(g, user);
        self.power_sum[g] += p;
        self.alloc.set(user, Some((server, channel)));
    }

    /// Like [`Self::allocate`], but without the constraint (1) coverage
    /// assertion. Models *transient* infeasible states — a mobility event
    /// updates the coverage map while the field still carries the user's
    /// pre-move decision — so repair and audit paths can be exercised
    /// against exactly the stale profiles release builds would hand them.
    /// The channel-existence assertion is kept: a dangling channel index is
    /// memory-unsafe bookkeeping, not a modelling state.
    pub fn allocate_unchecked(&mut self, user: UserId, server: ServerId, channel: ChannelIndex) {
        debug_assert!(
            channel.index() < self.scenario.servers[server.index()].num_channels as usize,
            "server {server} has no channel {channel}"
        );
        self.deallocate(user);
        let g = self.global(server, channel);
        let p = self.scenario.users[user.index()].power.value();
        self.push_row(g, user);
        self.power_sum[g] += p;
        self.alloc.set(user, Some((server, channel)));
    }

    /// Removes `user` from its channel, if allocated.
    pub fn deallocate(&mut self, user: UserId) {
        if let Some((server, channel)) = self.alloc.set(user, None) {
            let g = self.global(server, channel);
            let start = self.row_start[g] as usize;
            let len = self.row_len[g] as usize;
            let row = &mut self.occ[start..start + len];
            let pos = row
                .iter()
                .position(|&u| u == user)
                .expect("field out of sync: allocated user missing from occupant list");
            // The in-arena equivalent of `Vec::swap_remove`: identical
            // surviving order, so downstream iteration is unchanged.
            row[pos] = row[len - 1];
            self.row_len[g] -= 1;
            // Resnap the cached sum from the surviving occupants instead of
            // subtracting: subtract-on-remove accumulates rounding drift
            // under long allocate/deallocate churn and cancels
            // catastrophically when occupant powers span many orders of
            // magnitude. The resummation is O(occupancy) — the same cost as
            // the position scan above — and leaves at most one fresh
            // summation of rounding error; an emptied channel snaps to an
            // exact 0.0 for free.
            self.power_sum[g] = self.occ[start..start + len - 1]
                .iter()
                .map(|&t| self.scenario.users[t.index()].power.value())
                .sum();
        }
    }

    /// Cross-server interference `F_{i,x,j}` (Eq. 2): interference received
    /// by user `j` on channel `x` of server `i` from users allocated to
    /// channel `x` of the *other* servers covering `j`.
    ///
    /// `u_j` itself is excluded — the query is always "as if `j` were (only)
    /// on `c_{i,x}`".
    pub fn cross_interference(&self, user: UserId, server: ServerId, channel: ChannelIndex) -> f64 {
        let mut f = 0.0;
        for &other in self.scenario.coverage.servers_of(user) {
            if other == server {
                continue;
            }
            if channel.index() >= self.scenario.servers[other.index()].num_channels as usize {
                continue;
            }
            for &t in self.occupants(other, channel) {
                if t == user {
                    continue;
                }
                f += self.env.gain(server, t) * self.scenario.users[t.index()].power.value();
            }
        }
        f
    }

    /// Scores every best-response candidate of `user` by its Eq. 12 benefit,
    /// calling `visit(server, channel, benefit)` in scan order: each
    /// non-foreign server of `V_j` in coverage order, then its channels in
    /// index order. Each benefit is bitwise equal to
    /// [`InterferenceField::benefit_at`]'s.
    ///
    /// The cross-server terms are gathered once per channel index `x` as a
    /// list of `(k, t, p_t)`, where `k` is the position in `V_j` of the
    /// server hosting interferer `t`. That is the order
    /// [`InterferenceField::cross_interference`] visits them in. Each
    /// candidate `(V_j[k], x)` then sums the list minus its own server's
    /// terms, starting from `0.0`: the same f64 additions in the same order.
    /// The list lives in thread-local scratch, so a warm scan allocates
    /// nothing, on any worker thread.
    pub fn scan_benefits(&self, user: UserId, mut visit: impl FnMut(ServerId, ChannelIndex, f64)) {
        let coverage = &self.scenario.coverage;
        let servers = coverage.servers_of(user);
        let channels = |s: ServerId| self.scenario.servers[s.index()].num_channels as usize;
        let candidates = || servers.iter().enumerate().filter(|&(_, &s)| coverage.is_candidate(s));
        let Some(max_channels) = candidates().map(|(_, &s)| channels(s)).max() else { return };
        let (mut terms, mut start) = SCAN_SCRATCH.take();
        terms.clear();
        start.clear();
        for x in 0..max_channels {
            start.push(terms.len());
            for (k, &other) in servers.iter().enumerate().filter(|&(_, &s)| x < channels(s)) {
                for &t in self.row(self.channel_offset[other.index()] + x) {
                    if t != user {
                        terms.push((k as u32, t, self.scenario.users[t.index()].power.value()));
                    }
                }
            }
        }
        start.push(terms.len());
        for (k, &server) in candidates() {
            let gains = self.env.gains.row(server);
            for x in 0..channels(server) {
                let mut cross = 0.0;
                for &(k_t, t, p) in &terms[start[x]..start[x + 1]] {
                    if k_t != k as u32 {
                        cross += gains[t.index()] * p;
                    }
                }
                let channel = ChannelIndex(x as u16);
                visit(server, channel, self.benefit_with_cross(user, server, channel, cross));
            }
        }
        SCAN_SCRATCH.set((terms, start));
    }

    /// Power of the *other* occupants of `c_{i,x}` under the hypothesis that
    /// `user` is allocated there: `Σ_{u_t ∈ U_{i,x}(α) \ u_j} p_t`.
    #[inline]
    fn co_channel_power_excluding(
        &self,
        user: UserId,
        server: ServerId,
        channel: ChannelIndex,
    ) -> f64 {
        let g = self.global(server, channel);
        let mut sum = self.power_sum[g];
        if self.alloc.decision(user) == Some((server, channel)) {
            sum -= self.scenario.users[user.index()].power.value();
            if sum < 0.0 {
                sum = 0.0;
            }
        }
        sum
    }

    /// SINR `r_{i,x,j}` (Eq. 2) of `user` *as if* allocated to `c_{i,x}`
    /// with every other user unchanged. When the user is already there, this
    /// is its actual SINR. Any jamming floor active at the server (see
    /// [`RadioEnvironment::set_jamming`](crate::RadioEnvironment::set_jamming))
    /// joins the noise term in the denominator.
    pub fn sinr_at(&self, user: UserId, server: ServerId, channel: ChannelIndex) -> f64 {
        let g = self.env.gain(server, user);
        let p = self.scenario.users[user.index()].power.value();
        let own = g * self.co_channel_power_excluding(user, server, channel);
        let cross = self.cross_interference(user, server, channel);
        let noise = self.env.params.noise.value() + self.env.jamming_floor(server);
        g * p / (own + cross + noise)
    }

    /// Actual SINR of `user` at its current decision; `None` if unallocated.
    pub fn sinr(&self, user: UserId) -> Option<f64> {
        self.alloc.decision(user).map(|(s, x)| self.sinr_at(user, s, x))
    }

    /// Data rate `R_{i,x,j}` capped by `R_{j,max}` (Eqs. 3–4) of `user` as
    /// if allocated to `c_{i,x}`.
    pub fn rate_at(
        &self,
        user: UserId,
        server: ServerId,
        channel: ChannelIndex,
    ) -> MegaBytesPerSec {
        let sinr = self.sinr_at(user, server, channel);
        capped_rate(
            self.scenario.servers[server.index()].channel_bandwidth,
            sinr,
            self.scenario.users[user.index()].max_rate,
        )
    }

    /// Actual data rate `R_j` (Eq. 4): the capped Shannon rate at the
    /// current decision, or zero when unallocated (the indicator in Eq. 4).
    pub fn rate(&self, user: UserId) -> MegaBytesPerSec {
        match self.alloc.decision(user) {
            Some((s, x)) => self.rate_at(user, s, x),
            None => MegaBytesPerSec::ZERO,
        }
    }

    /// Average data rate `R_ave` (Eq. 5) — IDDE Objective #1.
    pub fn average_rate(&self) -> MegaBytesPerSec {
        let m = self.scenario.num_users();
        if m == 0 {
            return MegaBytesPerSec::ZERO;
        }
        let total: f64 = self.scenario.user_ids().map(|u| self.rate(u).value()).sum();
        MegaBytesPerSec(total / m as f64)
    }

    /// The benefit `β_{α_{-j}}(α_j)` (Eq. 12) of `user` for the decision
    /// `α_j = (i, x)`, evaluated against the current profile of the other
    /// users. Note Eq. 12 *includes* the user's own power in the denominator
    /// and omits the noise term — but an active jamming floor still enters,
    /// as it is interference rather than receiver noise, so the game routes
    /// users away from jammed servers. The pure congestion form
    /// ([`InterferenceField::congestion_benefit_at`]) deliberately ignores
    /// jamming: the Theorem 3 potential argument is stated for it.
    pub fn benefit_at(&self, user: UserId, server: ServerId, channel: ChannelIndex) -> f64 {
        let cross = self.cross_interference(user, server, channel);
        self.benefit_with_cross(user, server, channel, cross)
    }

    /// Eq. 12 for the decision `(i, x)` given its cross-server term `F`.
    #[inline]
    fn benefit_with_cross(
        &self,
        user: UserId,
        server: ServerId,
        channel: ChannelIndex,
        cross: f64,
    ) -> f64 {
        let g = self.env.gain(server, user);
        let p = self.scenario.users[user.index()].power.value();
        let others = self.co_channel_power_excluding(user, server, channel);
        g * p / (g * (others + p) + cross + self.env.jamming_floor(server))
    }

    /// Benefit of the user's current decision; zero when unallocated (an
    /// unallocated user always gains by taking any feasible channel).
    pub fn benefit(&self, user: UserId) -> f64 {
        match self.alloc.decision(user) {
            Some((s, x)) => self.benefit_at(user, s, x),
            None => 0.0,
        }
    }

    /// The uniform-gain congestion benefit used by the Theorem 3 proof:
    /// `β_j = p_j / Σ_{u_t ∈ U_{i,x}(α) ∪ {j}} p_t` (cross-server
    /// interference and channel gains ignored), evaluated *as if* `user`
    /// were allocated to `c_{i,x}`.
    ///
    /// This is the single shared implementation of the congestion form:
    /// `idde-core`'s game engine (`BenefitModel::Congestion`, which the
    /// DUP-G baseline runs on), its Nash verifier and its potential-function
    /// module all delegate here, so the three can never diverge.
    pub fn congestion_benefit_at(
        &self,
        user: UserId,
        server: ServerId,
        channel: ChannelIndex,
    ) -> f64 {
        let p = self.scenario.users[user.index()].power.value();
        let others = self.co_channel_power_excluding(user, server, channel);
        p / (others + p)
    }

    /// Congestion benefit of the user's current decision; zero when
    /// unallocated.
    pub fn congestion_benefit(&self, user: UserId) -> f64 {
        match self.alloc.decision(user) {
            Some((s, x)) => self.congestion_benefit_at(user, s, x),
            None => 0.0,
        }
    }

    /// Relative tolerance within which the incrementally maintained
    /// co-channel power sums `Σ_{u_t ∈ U_{i,x}(α)} p_t` — the denominators
    /// of the Eq. 2 SINR and hence of every Eq. 3–4 rate the solver and the
    /// audits derive — must agree with a from-scratch resummation. With the
    /// resnap-on-remove discipline of [`InterferenceField::deallocate`] the
    /// live and rebuilt sums differ only by summation order, which is far
    /// inside this bound for any realistic occupancy. `idde-audit` adopts
    /// this constant as its `power_rel_tol` default, so the serving path
    /// and the offline checks can never drift apart silently.
    pub const POWER_SUM_REL_TOL: f64 = 1e-12;

    /// Verifies the incremental state against a from-scratch rebuild; used
    /// by tests, debug assertions and the `idde-audit` subsystem.
    pub fn consistency_check(&self) -> bool {
        let rebuilt = Self::from_allocation(self.env, self.scenario, &self.alloc);
        for g in 0..self.power_sum.len() {
            let (a, b) = (self.power_sum[g], rebuilt.power_sum[g]);
            if (a - b).abs() > Self::POWER_SUM_REL_TOL * a.abs().max(b.abs()) {
                return false;
            }
            let mut a = self.row(g).to_vec();
            let mut b = rebuilt.row(g).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            if a != b {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RadioParams;
    use idde_model::testkit;
    use idde_model::{Point, Watts};

    fn setup(scenario: &Scenario) -> RadioEnvironment {
        RadioEnvironment::new(scenario, RadioParams::paper())
    }

    #[test]
    fn allocate_and_deallocate_track_power_sums() {
        let scenario = testkit::tiny_overlap();
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);

        field.allocate(UserId(0), ServerId(0), ChannelIndex(0));
        field.allocate(UserId(1), ServerId(0), ChannelIndex(0));
        assert_eq!(field.occupants(ServerId(0), ChannelIndex(0)).len(), 2);
        // Powers from testkit::tiny_overlap: u0 = 1 W, u1 = 3 W.
        assert!((field.channel_power(ServerId(0), ChannelIndex(0)) - 4.0).abs() < 1e-12);

        // Moving u1 to the other server updates both channels.
        field.allocate(UserId(1), ServerId(1), ChannelIndex(0));
        assert!((field.channel_power(ServerId(0), ChannelIndex(0)) - 1.0).abs() < 1e-12);
        assert!((field.channel_power(ServerId(1), ChannelIndex(0)) - 3.0).abs() < 1e-12);

        field.deallocate(UserId(0));
        assert_eq!(field.channel_power(ServerId(0), ChannelIndex(0)), 0.0);
        assert!(field.consistency_check());
    }

    #[test]
    fn jamming_floor_degrades_sinr_and_benefit_only_at_the_jammed_server() {
        let scenario = testkit::tiny_overlap();
        let mut env = setup(&scenario);
        assert!(env.is_unjammed());

        let healthy = InterferenceField::new(&env, &scenario);
        let base_sinr = healthy.sinr_at(UserId(0), ServerId(0), ChannelIndex(0));
        let base_benefit = healthy.benefit_at(UserId(0), ServerId(0), ChannelIndex(0));
        let base_congestion =
            healthy.congestion_benefit_at(UserId(0), ServerId(0), ChannelIndex(0));
        let other_sinr = healthy.sinr_at(UserId(1), ServerId(1), ChannelIndex(0));
        drop(healthy);

        env.set_jamming(ServerId(0), 1e-3);
        assert!(!env.is_unjammed());
        assert_eq!(env.jamming_floor(ServerId(0)), 1e-3);
        let jammed = InterferenceField::new(&env, &scenario);
        assert!(
            jammed.sinr_at(UserId(0), ServerId(0), ChannelIndex(0)) < base_sinr,
            "jamming must lower SINR at the jammed server"
        );
        assert!(jammed.benefit_at(UserId(0), ServerId(0), ChannelIndex(0)) < base_benefit);
        // The congestion form ignores jamming (Theorem 3 potential argument).
        assert_eq!(
            jammed.congestion_benefit_at(UserId(0), ServerId(0), ChannelIndex(0)),
            base_congestion
        );
        // The unjammed server is untouched, bit for bit.
        assert_eq!(jammed.sinr_at(UserId(1), ServerId(1), ChannelIndex(0)), other_sinr);
        drop(jammed);

        // Clearing the floor restores the healthy model exactly.
        env.set_jamming(ServerId(0), 0.0);
        let restored = InterferenceField::new(&env, &scenario);
        assert_eq!(restored.sinr_at(UserId(0), ServerId(0), ChannelIndex(0)), base_sinr);
        assert_eq!(restored.benefit_at(UserId(0), ServerId(0), ChannelIndex(0)), base_benefit);
    }

    #[test]
    fn lone_user_rate_is_capped() {
        let scenario = testkit::tiny_overlap();
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);
        field.allocate(UserId(0), ServerId(0), ChannelIndex(0));
        // No co-channel users and no cross interference: SINR is limited only
        // by the −174 dBm noise floor, so the Shannon cap must bind.
        let r = field.rate(UserId(0));
        assert_eq!(r.value(), scenario.users[0].max_rate.value());
        assert!(field.sinr(UserId(0)).unwrap() > 1e9);
    }

    #[test]
    fn co_channel_user_reduces_rate() {
        let scenario = testkit::tiny_overlap();
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);
        field.allocate(UserId(0), ServerId(0), ChannelIndex(0));
        let alone = field.rate(UserId(0)).value();
        field.allocate(UserId(1), ServerId(0), ChannelIndex(0));
        let shared = field.rate(UserId(0)).value();
        assert!(
            shared < alone,
            "co-channel interference must reduce the rate ({shared} !< {alone})"
        );
        // Separate channels on the same server restore a high rate (only the
        // cross-server term could interfere, and server 1 is empty).
        field.allocate(UserId(1), ServerId(0), ChannelIndex(1));
        assert_eq!(field.rate(UserId(0)).value(), alone);
    }

    #[test]
    fn cross_server_interference_on_same_channel_index() {
        let scenario = testkit::tiny_overlap();
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);
        field.allocate(UserId(0), ServerId(0), ChannelIndex(0));
        let alone = field.sinr(UserId(0)).unwrap();

        // u1 on the *other* server, same channel index: F > 0 because both
        // servers cover u0 in tiny_overlap.
        field.allocate(UserId(1), ServerId(1), ChannelIndex(0));
        let f = field.cross_interference(UserId(0), ServerId(0), ChannelIndex(0));
        assert!(f > 0.0);
        assert!(field.sinr(UserId(0)).unwrap() < alone);

        // Different channel index: no cross-server term in the paper's model.
        field.allocate(UserId(1), ServerId(1), ChannelIndex(1));
        assert_eq!(field.cross_interference(UserId(0), ServerId(0), ChannelIndex(0)), 0.0);
        assert_eq!(field.sinr(UserId(0)).unwrap(), alone);
    }

    #[test]
    fn hypothetical_queries_do_not_mutate() {
        let scenario = testkit::fig2_example();
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);
        field.allocate(UserId(0), ServerId(0), ChannelIndex(0));
        let before = field.allocation().clone();
        let _ = field.sinr_at(UserId(1), ServerId(0), ChannelIndex(0));
        let _ = field.benefit_at(UserId(1), ServerId(0), ChannelIndex(1));
        let _ = field.rate_at(UserId(2), ServerId(0), ChannelIndex(0));
        assert_eq!(field.allocation(), &before);
        assert!(field.consistency_check());
    }

    #[test]
    fn sinr_at_handles_current_channel_self_exclusion() {
        let scenario = testkit::tiny_overlap();
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);
        field.allocate(UserId(0), ServerId(0), ChannelIndex(0));
        // Hypothetical "move to where I already am" must equal actual SINR
        // and must not double-count the user's own power.
        let actual = field.sinr(UserId(0)).unwrap();
        let hypothetical = field.sinr_at(UserId(0), ServerId(0), ChannelIndex(0));
        assert_eq!(actual, hypothetical);
    }

    #[test]
    fn unallocated_users_have_zero_rate_and_benefit() {
        let scenario = testkit::fig2_example();
        let env = setup(&scenario);
        let field = InterferenceField::new(&env, &scenario);
        assert_eq!(field.rate(UserId(3)).value(), 0.0);
        assert_eq!(field.benefit(UserId(3)), 0.0);
        assert_eq!(field.sinr(UserId(3)), None);
        assert_eq!(field.average_rate().value(), 0.0);
    }

    #[test]
    fn average_rate_averages_over_all_users() {
        let scenario = testkit::tiny_overlap();
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);
        field.allocate(UserId(0), ServerId(0), ChannelIndex(0));
        field.allocate(UserId(1), ServerId(0), ChannelIndex(1));
        // u2 stays unallocated; M = 3 divides the sum regardless.
        let expected = (field.rate(UserId(0)).value() + field.rate(UserId(1)).value()) / 3.0;
        assert!((field.average_rate().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn benefit_prefers_empty_channels() {
        let scenario = testkit::tiny_overlap();
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);
        field.allocate(UserId(1), ServerId(0), ChannelIndex(0));
        // For u0, joining the occupied channel must yield a lower benefit
        // than the empty channel of the same server.
        let occupied = field.benefit_at(UserId(0), ServerId(0), ChannelIndex(0));
        let empty = field.benefit_at(UserId(0), ServerId(0), ChannelIndex(1));
        assert!(empty > occupied);
    }

    #[test]
    fn sinr_matches_the_eq2_hand_calculation() {
        // Two users sharing (v0, c0), a third on (v1, c0) — every term of
        // Eq. 2 computed by hand for user 0.
        let scenario = testkit::tiny_overlap();
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);
        field.allocate(UserId(0), ServerId(0), ChannelIndex(0)); // p = 1 W
        field.allocate(UserId(1), ServerId(0), ChannelIndex(0)); // p = 3 W
        field.allocate(UserId(2), ServerId(1), ChannelIndex(0)); // p = 5 W

        let g00 = env.gain(ServerId(0), UserId(0));
        let g02 = env.gain(ServerId(0), UserId(2));
        let p0 = scenario.users[0].power.value();
        let p1 = scenario.users[1].power.value();
        let p2 = scenario.users[2].power.value();
        let noise = env.params.noise.value();
        // Own-channel interference: g_{0,0,0}·p_1; cross-server term:
        // g between v0 and the interferer u2 times p_2 (v1 covers u0 in
        // tiny_overlap, so it contributes).
        let expected = g00 * p0 / (g00 * p1 + g02 * p2 + noise);
        let actual = field.sinr(UserId(0)).unwrap();
        assert!(
            ((actual - expected) / expected).abs() < 1e-12,
            "Eq. 2 mismatch: {actual} vs {expected}"
        );
    }

    /// Regression: `deallocate` must resnap the cached power sum instead of
    /// subtracting. With occupant powers spanning many orders of magnitude
    /// the subtraction cancels catastrophically: `(1e17 + 1.0) - 1e17`
    /// evaluates to `0.0` in f64, so the pre-fix code left a channel holding
    /// a 1 W user with a recorded power of zero.
    #[test]
    fn deallocate_resnaps_across_power_magnitudes() {
        let mut b = idde_model::ScenarioBuilder::new();
        let s0 = b.server(
            Point::new(0.0, 0.0),
            500.0,
            2,
            MegaBytesPerSec(200.0),
            idde_model::MegaBytes(60.0),
        );
        let big = b.user(Point::new(10.0, 0.0), Watts(1e17), MegaBytesPerSec(200.0));
        let small = b.user(Point::new(20.0, 0.0), Watts(1.0), MegaBytesPerSec(200.0));
        let scenario = b.build().expect("two-user scenario must validate");
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);

        field.allocate(big, s0, ChannelIndex(0));
        field.allocate(small, s0, ChannelIndex(0));
        field.deallocate(big);

        let remaining = field.channel_power(s0, ChannelIndex(0));
        assert!(
            (remaining - 1.0).abs() <= 1e-12,
            "surviving occupant's 1 W lost to cancellation: channel power = {remaining}"
        );
        assert!(field.consistency_check());

        // Emptying the channel must snap the sum to an exact 0.0.
        field.deallocate(small);
        assert_eq!(field.channel_power(s0, ChannelIndex(0)), 0.0);
    }

    /// Regression (ISSUE 2 satellite): a 10k-move random walk over
    /// allocate/deallocate must keep every cached channel power within 1e-12
    /// *relative* tolerance of a from-scratch rebuild. Pre-fix, the
    /// subtract-on-remove drift accumulated across the walk and blew far
    /// past this bound whenever large-power users churned through channels
    /// whose steady occupants are small-power users.
    #[test]
    fn ten_thousand_move_random_walk_matches_rebuilt_field() {
        use rand::Rng as _;
        use rand::SeedableRng as _;

        // One cluster of servers covering every user; powers span eleven
        // orders of magnitude so cancellation has teeth.
        let mut b = idde_model::ScenarioBuilder::new();
        for i in 0..3 {
            b.server(
                Point::new(i as f64 * 50.0, 0.0),
                500.0,
                3,
                MegaBytesPerSec(200.0),
                idde_model::MegaBytes(60.0),
            );
        }
        for j in 0..12 {
            let power = 10f64.powi(j % 12 - 3); // 1e-3 .. 1e8 W
            b.user(Point::new(5.0 * j as f64, 10.0), Watts(power), MegaBytesPerSec(200.0));
        }
        let scenario = b.build().expect("walk scenario must validate");
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for _ in 0..10_000 {
            let user = UserId(rng.gen_range(0..scenario.num_users() as u32));
            if rng.gen_bool(0.25) {
                field.deallocate(user);
            } else {
                let servers = scenario.coverage.servers_of(user);
                let server = servers[rng.gen_range(0..servers.len())];
                let channels = scenario.servers[server.index()].num_channels as usize;
                let channel = ChannelIndex(rng.gen_range(0..channels as u16));
                field.allocate(user, server, channel);
            }
        }

        let rebuilt = InterferenceField::from_allocation(&env, &scenario, field.allocation());
        for server in scenario.server_ids() {
            for channel in scenario.servers[server.index()].channels() {
                let live = field.channel_power(server, channel);
                let reference = rebuilt.channel_power(server, channel);
                let scale = live.abs().max(reference.abs());
                assert!(
                    (live - reference).abs() <= 1e-12 * scale,
                    "channel ({server}, {channel}) drifted: live {live} vs rebuilt {reference}"
                );
            }
        }
        assert!(field.consistency_check());
    }

    /// The buffer-reuse constructor must be indistinguishable — occupant
    /// rows, bitwise power sums, allocation — from the allocating one, and
    /// `into_parts` must round-trip the buffers so a rebuild loop allocates
    /// only while warming up.
    #[test]
    fn from_allocation_in_reuses_buffers_bitwise() {
        use rand::Rng as _;
        use rand::SeedableRng as _;

        let scenario = testkit::fig2_example();
        let env = setup(&scenario);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let mut buffers = FieldBuffers::default();
        for round in 0..20 {
            // A fresh random profile each round.
            let mut live = InterferenceField::new(&env, &scenario);
            for u in scenario.user_ids() {
                if rng.gen_bool(0.7) {
                    let servers = scenario.coverage.servers_of(u);
                    if servers.is_empty() {
                        continue;
                    }
                    let server = servers[rng.gen_range(0..servers.len())];
                    let channels = scenario.servers[server.index()].num_channels;
                    live.allocate(u, server, ChannelIndex(rng.gen_range(0..channels)));
                }
            }
            let alloc = live.allocation().clone();
            let fresh = InterferenceField::from_allocation(&env, &scenario, &alloc);
            let reused = InterferenceField::from_allocation_in(&env, &scenario, &alloc, buffers);
            assert_eq!(reused.allocation(), fresh.allocation(), "round {round}");
            for server in scenario.server_ids() {
                for channel in scenario.servers[server.index()].channels() {
                    assert_eq!(
                        reused.occupants(server, channel),
                        fresh.occupants(server, channel),
                        "occupant row diverged at ({server}, {channel}), round {round}"
                    );
                    assert_eq!(
                        reused.channel_power(server, channel).to_bits(),
                        fresh.channel_power(server, channel).to_bits(),
                        "power sum not bitwise equal at ({server}, {channel}), round {round}"
                    );
                }
            }
            assert!(reused.consistency_check());
            let (back, b) = reused.into_parts();
            assert_eq!(back, alloc);
            buffers = b;
        }
    }

    #[test]
    fn from_allocation_round_trips() {
        let scenario = testkit::fig2_example();
        let env = setup(&scenario);
        let mut field = InterferenceField::new(&env, &scenario);
        field.allocate(UserId(0), ServerId(0), ChannelIndex(1));
        field.allocate(UserId(5), ServerId(2), ChannelIndex(0));
        field.allocate(UserId(6), ServerId(3), ChannelIndex(0));
        let alloc = field.allocation().clone();
        let rebuilt = InterferenceField::from_allocation(&env, &scenario, &alloc);
        assert_eq!(rebuilt.allocation(), &alloc);
        assert!(rebuilt.consistency_check());
        for u in scenario.user_ids() {
            assert_eq!(field.rate(u).value(), rebuilt.rate(u).value());
        }
    }
}
